"""Every staged artifact, truncated, with a byte flipped or deleted, ends the
command that reads it with exit 0 or a named error (exit 1), never a
traceback; a deleted one is DatasetNotFound."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graspforge.cli import dispatch

# one scene of two cables; this seed labels both classes, so train and
# evaluate run to the end on the undamaged chain
BASE = ["--scene-count", "1", "--cable-count-min", "2", "--cable-count-max", "2",
        "--grasps-per-scene", "8", "--master-seed", "11", "--epochs", "1",
        "--trials", "1", "--eval-cable-min", "2", "--eval-cable-max", "2",
        "--candidates-per-scene", "8"]

# artifact -> the command that reads it ({} is the chain directory)
READERS = {
    "scenes/scenes.json": ["sample", "--scenes", "{}/scenes/scenes.json"],
    "scenes/scene_0000/scene.json": ["sample", "--scenes", "{}/scenes/scenes.json"],
    "scenes/scene_0000/cable_00.obj": ["sample", "--scenes", "{}/scenes/scenes.json"],
    "candidates.idx": ["label", "--scenes", "{}/scenes/scenes.json",
                       "--candidates", "{}/candidates.idx"],
    "candidates.blob": ["label", "--scenes", "{}/scenes/scenes.json",
                        "--candidates", "{}/candidates.idx"],
    "dataset.idx": ["train", "--dataset", "{}/dataset.idx"],
    "dataset.blob": ["train", "--dataset", "{}/dataset.idx"],
    "qualitynet.gfqn": ["evaluate", "--policy", "cgcnn", "--net", "{}/qualitynet.gfqn"],
    "eval_cgcnn.json": ["report", "--stats", "{}/eval_cgcnn.json"],
    "qualitynet_metrics.csv": ["report", "--metrics", "{}/qualitynet_metrics.csv"],
}


def run(argv) -> tuple[int, dict]:
    """dispatch with stdout captured and warnings ignored: the command line
    prints a warning (an overflow on damaged floats, a GJK cap hit) and goes
    on, where this suite's settings would raise it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = dispatch(argv)
    lines = out.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]) if lines else {}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("damage")
    for argv in (["make-scenes"], READERS["scenes/scenes.json"], READERS["candidates.idx"],
                 READERS["dataset.idx"], READERS["qualitynet.gfqn"],
                 ["report", "--stats", "{}/eval_cgcnn.json",
                  "--metrics", "{}/qualitynet_metrics.csv"]):
        rc, out = run([a.format(root) for a in argv] + ["--out", str(root)] + BASE)
        assert rc == 0, out
    return root


@pytest.mark.parametrize("artifact", sorted(READERS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(damage=st.sampled_from(("truncate", "flip", "delete")),
       at=st.integers(min_value=0), mask=st.integers(1, 255))
@example(damage="delete", at=0, mask=1)
def test_damaged_artifact_is_a_named_error(chain, artifact, damage, at, mask):
    path = chain / artifact
    good = path.read_bytes()
    try:
        if damage == "delete":
            path.unlink()
        elif damage == "truncate":
            path.write_bytes(good[:at % len(good)])
        else:
            k = at % len(good)
            path.write_bytes(good[:k] + bytes([good[k] ^ mask]) + good[k + 1:])
        argv = [a.format(chain) for a in READERS[artifact]]
        rc, out = run(argv + ["--out", str(chain / "out")] + BASE)
    finally:
        path.write_bytes(good)
    assert rc in (0, 1), out
    if damage == "delete":
        assert (rc, out["error"]) == (1, "DatasetNotFound")
        assert str(path) in out["detail"]
