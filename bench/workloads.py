"""The benchmark's two workloads.

Each workload has a set-up step, a unit of timed work that goes through
`graspforge.cli.dispatch` exactly as the command line would, and checks on
what the timed work wrote. Why each workload exists:

- pipeline: the full staged chain a user runs. Settling (and GJK inside
  it) is most of its time; every layer of the package runs in it.
- train: only `train` is timed, on a seeded dataset written during
  set-up; the CNN does the work and geometry none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from graspforge import cli
from graspforge.depthproc import Patch
from graspforge.simlab import FAILURE_REASONS, write_dataset

PINS_PATH = Path(__file__).with_name("pins.json")


class Outcome:
    """Attempted and failed counts over commands, scenes, grasps, trials
    and artifact checks. Skipped scenes and failure labels are outcomes of
    the pipeline, not failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, units: int = 1) -> bool:
        self.attempted += units
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def run_cli(argv: list[str], outcome: Outcome) -> dict:
    """One CLI command in-process; its one-line JSON summary, or {} when it
    raised or exited non-zero (counted as a failure)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.dispatch(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome.check(False, f"{argv[0]} raised")
        return {}
    lines = buf.getvalue().strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    if not outcome.check(rc == 0, f"{argv[0]} exited {rc}: {summary}"):
        return {}
    return summary


def digests(*dirs: Path) -> dict[str, str]:
    """sha256 of every file under the given directories, keyed by the path
    relative to its directory."""
    out = {}
    for base in dirs:
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            out[path.relative_to(base).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def check_pins(found: dict[str, str], pins: dict[str, str], outcome: Outcome,
               pinned=lambda relpath: True) -> None:
    """Compare artifacts with their pins; an artifact missing, extra or
    changed is a failure. `pinned` selects the artifacts to compare."""
    for relpath in sorted(set(found) | set(pins)):
        if pinned(relpath):
            outcome.check(found.get(relpath) == pins.get(relpath),
                          f"{relpath} does not match its pin")


class Workload:
    """Set-up, one timed unit of work, and the checks on its output."""

    name = ""
    config: dict = {}

    def __init__(self, root: Path, seed: int, config: dict | None = None):
        self.root = root
        self.seed = seed
        self.config = dict(self.config, **(config or {}))

    def setup(self) -> None:
        """Write the timed part's inputs under root/setup."""

    def run(self, out: Path, outcome: Outcome) -> dict:
        """The timed work; returns per-command wall times and counts."""
        raise NotImplementedError

    def artifacts(self, out: Path) -> dict[str, str]:
        """Digests of everything the workload wrote for one repetition."""
        return digests(out)

    def seed_free(self, relpath: str) -> bool:
        """True for an artifact whose bytes do not depend on --seed."""
        return False

    def timed(self, argv: list[str], outcome: Outcome, stages: dict) -> dict:
        start = time.perf_counter()
        summary = run_cli(argv, outcome)
        stages[argv[0]] = time.perf_counter() - start
        return summary


class Pipeline(Workload):
    """make-scenes -> sample -> label -> train -> evaluate --policy cgcnn.

    The piles come from one fixed master seed: settle cost per pile ranges
    over 6x between piles of the default sizes, so a few piles drawn per
    --seed would make the run's wall time spread by about 20% between
    seeds. --seed sets the training seed, so the checkpoint and the
    evaluation picks differ per seed while the piles stay the same.
    Master seed 40 gives a dataset pile of 6 cables whose 25 labelled
    grasps hold both classes, and an evaluation pile of 8 cables. The
    chain is short, so a run repeats it and reports the median; it takes
    5-11 s on a 2-vCPU Xeon VM, as the host's load varies, about two thirds
    of it settling.
    """

    name = "pipeline"
    config = {"master_seed": 40, "scenes": 1, "trials": 1, "epochs": 2,
              "cables": None, "eval_cables": None}

    def flags(self) -> list[str]:
        c = self.config
        flags = ["--master-seed", str(c["master_seed"]),
                 "--scene-count", str(c["scenes"]), "--trials", str(c["trials"]),
                 "--epochs", str(c["epochs"]), "--train-seed", str(self.seed)]
        if c["cables"]:
            flags += ["--cable-count-min", str(c["cables"][0]),
                      "--cable-count-max", str(c["cables"][1])]
        if c["eval_cables"]:
            flags += ["--eval-cable-min", str(c["eval_cables"][0]),
                      "--eval-cable-max", str(c["eval_cables"][1])]
        return flags

    def run(self, out: Path, outcome: Outcome) -> dict:
        flags, o = self.flags(), str(out)
        listing = str(out / "scenes" / "scenes.json")
        stages: dict = {}
        made = self.timed(["make-scenes", "--out", o] + flags, outcome, stages)
        sampled = self.timed(["sample", "--scenes", listing, "--out", o] + flags,
                             outcome, stages)
        labelled = self.timed(["label", "--scenes", listing, "--candidates",
                               str(out / "candidates.idx"), "--out", o] + flags,
                              outcome, stages)
        trained = self.timed(["train", "--dataset", str(out / "dataset.idx"),
                              "--out", o] + flags, outcome, stages)
        evaluated = self.timed(["evaluate", "--policy", "cgcnn", "--net",
                                str(out / "qualitynet.gfqn"), "--out", o] + flags,
                               outcome, stages)
        c = self.config
        outcome.check(made.get("scenes", 0) + made.get("skipped", 0) == c["scenes"],
                      "make-scenes lost scenes", units=c["scenes"])
        outcome.check(sampled.get("scenes") == made.get("scenes"),
                      "sample skipped listed scenes", units=made.get("scenes", 1))
        samples = labelled.get("samples", 0)
        outcome.check(samples == sampled.get("candidates") and samples > 0,
                      "label lost candidates", units=max(samples, 1))
        outcome.check(0 < labelled.get("positives", 0) < samples,
                      "labelled set lacks a class")
        outcome.check(trained.get("epochs") == c["epochs"], "train epochs")
        outcome.check(evaluated.get("trials") == c["trials"],
                      "evaluate trial count", units=c["trials"])
        return {"seconds": stages, "scenes": made.get("scenes", 0),
                "sampled_scenes": sampled.get("scenes", 0), "grasps": samples,
                "train_samples": _augmented_train_samples(out / "dataset.summary.json"),
                "epochs": c["epochs"], "trials": c["trials"]}

    def seed_free(self, relpath: str) -> bool:
        return not relpath.startswith(("qualitynet", "eval_"))


class Train(Workload):
    """Set-up writes a seeded dataset; the `train` command is timed.

    Patches are seeded noise: training cost does not depend on patch
    values, only on the sample count and the class balance through the
    stratified split.
    """

    name = "train"
    config = {"samples": 160, "positive_share": 0.2, "epochs": 3, "size": 64}

    def setup(self) -> None:
        c = self.config
        rng = np.random.default_rng(self.seed)
        n = c["samples"]
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=round(c["positive_share"] * n), replace=False)] = 1
        rows = []
        for i, label in enumerate(labels):
            data = rng.normal(0.0, 3.0, (c["size"], c["size"])).astype(np.float32)
            reason = "none" if label else str(rng.choice(FAILURE_REASONS[1:]))
            rows.append({
                "scene_index": i // 25, "candidate_index": i % 25,
                "patch": Patch(data=data, pitch=0.5), "label": int(label),
                "reason": reason, "contacted_ids": [0] if label else [],
                "scene_seed": i // 25, "cable_count": 4, "f": 0.3,
                "pose": {"x": 0.0, "y": 0.0, "z": 5.0, "theta": 0.0, "w": 10.0}})
        write_dataset(rows, {"overfilled": 0, "no_candidates": 0},
                      (n + 24) // 25, self.seed, self.root / "setup", "dataset")

    def run(self, out: Path, outcome: Outcome) -> dict:
        stages: dict = {}
        trained = self.timed(["train", "--dataset",
                              str(self.root / "setup" / "dataset.idx"),
                              "--out", str(out), "--epochs", str(self.config["epochs"]),
                              "--train-seed", str(self.seed)], outcome, stages)
        outcome.check(trained.get("epochs") == self.config["epochs"],
                      "train epochs", units=self.config["epochs"])
        return {"seconds": stages, "epochs": self.config["epochs"],
                "train_samples": _augmented_train_samples(
                    self.root / "setup" / "dataset.summary.json")}

    def artifacts(self, out: Path) -> dict[str, str]:
        return digests(self.root / "setup", out)


WORKLOADS = {w.name: w for w in (Pipeline, Train)}

# sizes small enough to run in a second or two; every code path of the
# full sizes still runs
TINY = {
    "pipeline": {"master_seed": 0, "scenes": 1, "trials": 1, "epochs": 1,
                 "cables": (2, 2), "eval_cables": (2, 2)},
    "train": {"samples": 40, "epochs": 1, "size": 16},
}


def warm_up(name: str, root: Path, seed: int) -> Outcome:
    """Set up and run the tiny size of a workload once, so that lazy
    imports and first-call costs are paid before anything is timed."""
    workload = WORKLOADS[name](root, seed, TINY[name])
    outcome = Outcome()
    workload.setup()
    workload.run(root / "rep", outcome)
    return outcome


def _augmented_train_samples(summary_path: Path) -> int:
    """Samples per epoch through forward, backward and Adam: the training
    split of `model.train` (0.2 of each class held out, at least one) times
    the four flips of augmentation."""
    if not summary_path.exists():
        return 0
    summary = json.loads(summary_path.read_text())
    held = sum(max(1, round(0.2 * summary[k])) for k in ("positives", "negatives"))
    return 4 * (summary["samples"] - held)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def stage_rates(info: dict) -> dict[str, float]:
    """The per-command rates a user sees, from one repetition's counts."""
    sec = info["seconds"]
    rates = {}
    if "make-scenes" in sec:
        rates["make_scenes.scenes_per_s"] = info["scenes"] / sec["make-scenes"]
    if "sample" in sec:
        rates["sample.scenes_per_s"] = info["sampled_scenes"] / sec["sample"]
    if "label" in sec:
        rates["label.grasps_per_s"] = info["grasps"] / sec["label"]
    if "train" in sec:
        rates["train.samples_per_s"] = (info["train_samples"] * info["epochs"]
                                        / sec["train"])
    if "evaluate" in sec:
        rates["evaluate.trials_per_s"] = info["trials"] / sec["evaluate"]
    return rates


def default_run_estimate(info: dict) -> dict[str, float]:
    """Seconds a default-config run would take at one pipeline repetition's
    rates: 80 scenes of generation, 50 epochs on the dataset they give,
    and one 100-trial evaluation."""
    sec = info["seconds"]
    scenes = max(info["scenes"], 1)
    generation = 80 * (sec["make-scenes"] + sec["sample"] + sec["label"]) / scenes
    training = 50 * sec["train"] / info["epochs"] * 80 / scenes
    evaluation = 100 * sec["evaluate"] / info["trials"]
    return {"generation": generation, "training": training,
            "evaluation": evaluation,
            "total": generation + training + evaluation}
