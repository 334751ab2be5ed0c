"""Benchmark entry point: runs one workload and prints its result.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all [--trace 1]

Run it from the root of a checkout; it imports graspforge from `src/` and
writes only under `.bench_work/`. The set-up runs first, three times: it
writes the timed part's inputs and runs the workload once at a tiny size,
so that first-call costs are paid before timing. Then the workload's unit
of timed work repeats until --seconds have passed (at least once). BLAS
runs on one thread. Every repetition's artifacts are checked: repetitions
must agree byte for byte, and at the default seed they must match the
sha256 pins in `bench/pins.json`.

Times are reported in reference seconds. The host is shared and its speed
drifts by a quarter or more within a minute, so a calib.Clock times a
fixed reference burst on a timer while set-up and timed work run, and
each measured time is multiplied by the speed factor of the bursts taken
during it. wall_s is the median over the repetitions of the calibrated
repetition time and setup_s is the import time plus the median set-up,
calibrated by the set-up's bursts. The raw times and the factors are
printed on the `raw_s` and `speed` lines.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
untraced and traced repetitions alternate; the last line holds the
per-layer metrics of the traced ones, averaged, and a self-time table per
layer is printed above it. Lines above the last one also record the
environment, the artifact digests and the per-command rates.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0   # the seed whose artifacts bench/pins.json pins
WORKLOAD_NAMES = ("pipeline", "train")
# set-up repetitions whose median is reported; a set-up writes the timed
# part's inputs and then warms up on the workload's tiny size
SETUP_REPEATS = 3


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(), "nproc": _nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def _emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


class Rep(NamedTuple):
    """One repetition of the timed unit. `wall` excludes the clock's
    bursts; `burst_s` holds the median part times of the bursts taken
    during an untraced one."""
    wall: float
    info: dict
    out: Path
    tracer: object = None
    burst_s: dict = {}


def _reps(workload, seconds: float, outcome, trace: bool,
          clock) -> tuple[list, list]:
    """Repeat the timed unit until `seconds` have passed. Untraced
    repetitions run under the clock; traced runs alternate them with
    traced repetitions, which run without it. Returns both lists of Rep."""
    from spans import Tracer
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        for tracer in ((None, Tracer()) if trace else (None,)):
            out = workload.root / f"rep{len(plain) + len(traced)}"
            if tracer:
                with tracer:
                    t0 = time.perf_counter()
                    info = workload.run(out, outcome)
                    wall = time.perf_counter() - t0
                traced.append(Rep(wall, info, out, tracer))
                continue
            first, busy = len(clock.samples), clock.busy
            with clock:
                t0 = time.perf_counter()
                info = workload.run(out, outcome)
                wall = time.perf_counter() - t0
            plain.append(Rep(wall - (clock.busy - busy), info, out,
                             burst_s=clock.medians(first)))
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 config: dict | None = None, pins: dict | None = None,
                 import_s: float = 0.0) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, report)
    where result is the final JSON object and report holds the digests,
    per-command rates, the raw times and speed factors and, when traced,
    the self-time table."""
    import spans as tr
    import workloads as wl
    from calib import Clock, speed_factor

    root = WORK / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    workload = wl.WORKLOADS[name](root, seed, config)
    try:
        outcome = wl.Outcome()
        clock = Clock()
        setups = []
        for i in range(SETUP_REPEATS):
            busy = clock.busy
            with clock:
                t0 = time.perf_counter()
                workload.setup()
                warm = wl.warm_up(name, root / f"warm_up{i}", seed)
                wall = time.perf_counter() - t0
            setups.append(wall - (clock.busy - busy))
            outcome.check(warm.failed == 0, f"warm-up failed: {warm.problems}")
        setup_end = len(clock.samples)
        plain, traced = _reps(workload, seconds, outcome, trace, clock)
        setup_factor = speed_factor(clock.medians(0, setup_end))

        found = workload.artifacts(plain[0].out)
        for rep in plain[1:] + traced:
            wl.check_pins(workload.artifacts(rep.out), found, outcome)
        if pins is not None:
            pinned = (lambda relpath: True) if seed == DEFAULT_SEED \
                else workload.seed_free
            wl.check_pins(found, pins, outcome, pinned)

        setup_raw = import_s + statistics.median(setups)
        factors = [speed_factor(r.burst_s) for r in plain]
        report = {"digests": found,
                  "raw_s": {"setup_s": setup_raw, "rep_walls": [r.wall for r in plain]},
                  "speed": {"setup": setup_factor, "reps": factors,
                            "bursts": len(clock.samples),
                            "rep_burst_s": [r.burst_s for r in plain]},
                  "stages": {k: statistics.median(wl.stage_rates(r.info)[k]
                                                  for r in plain)
                             for k in wl.stage_rates(plain[0].info)}}
        if name == "pipeline":
            report["default_run_est_s"] = wl.default_run_estimate(plain[0].info)
        if trace:
            per_rep = [tr.per_layer_metrics(r.tracer.spans, r.wall, r.tracer.cap_hits)
                       for r in traced]
            metrics = {k: (statistics.fmean(m[k][0] for m in per_rep), v[1])
                       for k, v in per_rep[0].items()}
            metrics["trace.overhead_frac"] = (
                statistics.fmean(r.wall for r in traced)
                / statistics.fmean(r.wall for r in plain) - 1.0, "frac")
            report["table"] = tr.self_time_table(metrics)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_raw * setup_factor, "s"),
                "wall_s": (statistics.median(r.wall * f
                                             for r, f in zip(plain, factors)), "s"),
                "peak_rss_mb": (peak_mb, "MB"),
                "ok_frac": (1.0 - outcome.failed / max(outcome.attempted, 1), "frac"),
            }
        report["problems"] = outcome.problems
        result = {"correct": outcome.failed == 0,
                  "attempted": max(outcome.attempted, 1),
                  "failed": outcome.failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        return result, report
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, then a table of every metric."""
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "correct", result["correct"], ""))
    for name, metric, value, unit in rows:
        print(f"{name:<14}{metric:<28}{value!s:>22} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="store this run's digests as the workload's pins "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)

    # one BLAS thread: a second one would share the host's cores with
    # other tenants and time the scheduler; no user config file leaks in
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GRASPFORGE_CONFIG", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import graspforge
    except ImportError as exc:
        print(f"cannot import graspforge from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(graspforge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"graspforge imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl

    import_s = time.perf_counter() - START
    _emit("env", environment())
    pins = wl.load_pins().get(args.workload)
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), pins=pins, import_s=import_s)
    _emit("digests", report["digests"])
    _emit("stages", report["stages"])
    _emit("raw_s", report["raw_s"])
    _emit("speed", report["speed"])
    if "default_run_est_s" in report:
        _emit("default_run_est_s", report["default_run_est_s"])
    if "table" in report:
        print(report["table"])
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.write_pins and args.seed == DEFAULT_SEED:
        all_pins = wl.load_pins()
        all_pins[args.workload] = report["digests"]
        wl.PINS_PATH.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
