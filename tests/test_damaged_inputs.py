"""Every staged artifact, truncated, with a byte flipped or deleted, ends the
command that reads it with exit 0 or a named error (exit 1), never a
traceback; a deleted one is DatasetNotFound. So does every JSON artifact
with one leaf value retyped, and every numeric config value set to nan, inf
or -1."""

import contextlib
import io
import json
import math
import warnings
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graspforge.cli import dispatch
from graspforge.config import RunConfig

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


# JSON artifact -> the command that reads it; label, not sample, is the one
# that reads a cable's id, so it stands for the listing and the manifest
RETYPE_READERS = {
    "scenes/scenes.json": READERS["candidates.idx"],
    "scenes/scene_0000/scene.json": READERS["candidates.idx"],
    "candidates.idx": READERS["candidates.idx"],
    "dataset.idx": READERS["dataset.idx"],
    "eval_cgcnn.json": READERS["eval_cgcnn.json"],
}


def leaf_paths(doc, path=()) -> list[tuple]:
    """Key and index paths of the scalar leaves of a JSON value."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for k, v in items for leaf in leaf_paths(v, path + (k,))]
    return [path]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(artifact=st.sampled_from(sorted(RETYPE_READERS)), at=st.integers(min_value=0),
       value=st.sampled_from((str, None, True, math.nan)))
@example(artifact="candidates.idx", at=(0, "w"), value=str)
@example(artifact="scenes/scene_0000/scene.json", at=(0, "cables", 1, "id"), value=str)
def test_retyped_leaf_is_a_named_error(chain, artifact, at, value):
    """One leaf value of a JSON artifact (a line of an .idx file) becomes a
    string (`str`: the old value's text), null, true or NaN. `at` picks the
    leaf by position among all leaves, or names its path: the line, then
    keys and indices."""
    path = chain / artifact
    good = path.read_text()
    docs = [json.loads(text) for text in
            (good.splitlines() if artifact.endswith(".idx") else [good])]
    leaves = leaf_paths(docs)
    leaf = at if isinstance(at, tuple) else leaves[at % len(leaves)]
    *parents, key = leaf
    node = docs
    for k in parents:
        node = node[k]
    node[key] = str(node[key]) if value is str else value
    try:
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        argv = [a.format(chain) for a in RETYPE_READERS[artifact]]
        rc, out = run(argv + ["--out", str(chain / "out")] + BASE)
    finally:
        path.write_text(good)
    assert rc in (0, 1), out


# numeric RunConfig key -> the first command of the chain that uses it
KEY_READERS = {
    **dict.fromkeys(("master_seed", "scene_count", "cable_count_min", "cable_count_max",
                     "friction_min", "friction_max"), ["make-scenes"]),
    **dict.fromkeys(("grasps_per_scene", "gauss_sigma", "salt_pepper_frac", "patch_size",
                     "resample_attempts"), READERS["scenes/scenes.json"]),
    **dict.fromkeys(("epochs", "batch_size", "lr", "val_fraction", "train_seed"),
                    READERS["dataset.idx"]),
    **dict.fromkeys(("lam", "trials", "eval_cable_min", "eval_cable_max",
                     "candidates_per_scene"), READERS["qualitynet.gfqn"]),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type in ("int", "float")])
def test_bad_config_number_is_a_named_error(chain, key, value):
    """A numeric config value of nan, inf or -1 ends the first command that
    uses it with exit 0 or a named error, never a traceback."""
    argv = [a.format(chain) for a in KEY_READERS[key]]
    rc, out = run(argv + ["--out", str(chain / "out")] + BASE
                  + ["--" + key.replace("_", "-"), value])
    assert rc in (0, 1) and out, out
