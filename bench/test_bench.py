"""Quick checks of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from graspforge import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = workloads.TINY


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_reports_every_metric(name, trace):
    result, report = run.run_workload(name, 1, 0.0, bool(trace), config=TINY[name])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], report["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert report["digests"]
    if trace:
        m = result["metrics"]
        layers = sum(m[f"self_s.{layer}"]["value"] for layer in
                     ("geometry.gjk", "scene", "depthproc", "sampler", "simlab",
                      "model", "policy"))
        assert layers + m["cli.self_s"]["value"] == \
            pytest.approx(m["trace.wall_s"]["value"])


def test_clock_medians_window_and_fallbacks():
    clock = calib.Clock()
    assert clock.medians() == {} and calib.speed_factor({}) == 1.0
    clock.samples = [(name, 2 * calib.REF_S[name]) for name in calib.PARTS] + \
        [(name, calib.REF_S[name]) for name in calib.PARTS]
    assert calib.speed_factor(clock.medians(0, 3)) == pytest.approx(0.5)
    assert calib.speed_factor(clock.medians(3)) == pytest.approx(1.0)
    # a window that lacks a part falls back to every burst
    assert clock.medians(5) == pytest.approx(
        {name: 1.5 * calib.REF_S[name] for name in calib.PARTS})


def test_clock_samples_while_running():
    with calib.Clock() as clock:
        deadline = time.perf_counter() + 4 * calib.Clock.TICK_S
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 2
    assert clock.busy == pytest.approx(sum(dt for _, dt in clock.samples))


def test_flipped_byte_in_pinned_artifact_fails(monkeypatch):
    seed, tiny = run.DEFAULT_SEED, TINY["train"]
    first, report = run.run_workload("train", seed, 0.0, False, config=tiny)
    assert first["correct"]
    pins = report["digests"]
    again, _ = run.run_workload("train", seed, 0.0, False, config=tiny, pins=pins)
    assert again["correct"] and again["failed"] == 0

    dispatch = cli.dispatch

    def flip_after_train(argv):
        rc = dispatch(argv)
        if argv[0] == "train":
            net = Path(argv[argv.index("--out") + 1]) / "qualitynet.gfqn"
            data = bytearray(net.read_bytes())
            data[len(data) // 2] ^= 0x01
            net.write_bytes(bytes(data))
        return rc

    monkeypatch.setattr(cli, "dispatch", flip_after_train)
    flipped, report = run.run_workload("train", seed, 0.0, False, config=tiny,
                                       pins=pins)
    assert not flipped["correct"] and flipped["failed"] >= 1
    assert flipped["metrics"]["ok_frac"]["value"] < 1.0
    assert any("qualitynet.gfqn" in p for p in report["problems"])


def test_setup_failure_outside_a_checkout_exits_nonzero(tmp_path):
    """Without src/ next to the benchmark there is nothing to run."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
