"""Grasp selection strategies and the success-rate evaluation harness.

Two policies: uniform random choice over the sampled candidates, and a
learned policy that scores each candidate by network quality plus a height
bonus, picking the argmax. The harness runs full simulated trials - settle,
render, sample, select, execute - on the dataset's scene walk (`simlab`'s
`settled_scenes` through `sampled_scenes`) under its settings (a
`DatasetConfig` whose scene_count is the trial count), and returns success
statistics with Wilson confidence intervals as the dict its stats file holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, ShapeMismatch
from .model import QualityNet, forward_many
from .sampler import GraspPose
from .fileio import atomic_write
from .simlab import DatasetConfig, execute_grasp, sampled_scenes, settled_scenes

_POLICY_KINDS = ("random", "cgcnn")
_WILSON_Z = 1.959963984540054   # two-sided 95%


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "cgcnn"
    lam: float = 0.2             # weight of the height bonus

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise DegenerateInput(f"unknown policy kind {self.kind!r}")
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise DegenerateInput("lam must be finite and non-negative")


def select_random(candidates, rng: np.random.Generator) -> GraspPose:
    """Uniform choice over the non-empty candidate list; deterministic per
    rng state."""
    return candidates[int(rng.integers(len(candidates)))][0]


def score_candidates(candidates, net: QualityNet, lam: float) -> list[float]:
    """Quality plus height bonus for every candidate of a non-empty list, in
    input order.

    The rank bonus lam * (1 - r/N) rewards grasps high in the pile; rank 0
    is the topmost grasp point, ties in height broken by input order.
    """
    n = len(candidates)
    qs = forward_many(net, [c[1] for c in candidates])
    order = sorted(range(n), key=lambda i: (-candidates[i][0].z, i))
    scores = [0.0] * n
    for r, i in enumerate(order):
        scores[i] = float(qs[i]) + lam * (1.0 - r / n)
    return scores


def select_cgcnn(candidates, net: QualityNet, lam: float) -> GraspPose:
    """Argmax of score; exact score ties break toward the lower grasp
    point, then lower x, then lower y."""
    scores = score_candidates(candidates, net, lam)
    poses = [c[0] for c in candidates]
    best = min(range(len(poses)),
               key=lambda i: (-scores[i], poses[i].z, poses[i].x, poses[i].y))
    return poses[best]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion, with
    trials >= 1 and 0 <= successes <= trials."""
    z2 = _WILSON_Z * _WILSON_Z
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(p * (1 - p) / trials
                                 + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def evaluate_policy(policy: PolicyConfig, net: QualityNet | None,
                    cfg: DatasetConfig, master_seed: int) -> dict:
    """Success rate of one policy over cfg.scene_count trials, one fresh
    scene each, as the stats dict that `write_stats` stores.

    The trials are the scenes of the dataset's walk, `settled_scenes`
    through `sampled_scenes`: each trial lets the policy pick one grasp of
    its scene and executes it; success means a clean single cable lift. A
    skipped scene counts as a failure: "overfilled" when its cables found
    no resting pose in the bin, "no_candidates" when the sampler came back
    empty. Trials use per-index seed streams, so results are deterministic
    per master seed. A cgcnn net whose input side is not cfg.patch_size
    fails before the first trial.

    The keys are "policy", "trials", "successes", "rate", "wilson_low" and
    "wilson_high", "failures_by_reason" (skip and failure names, sorted, to
    their counts), and "by_cable_count": each cable count met, as a string
    in numeric order, to its {"trials", "successes", "rate"}.
    """
    if policy.kind == "cgcnn" and net is None:
        raise DegenerateInput("cgcnn policy needs a trained net")
    if policy.kind == "cgcnn" and net.size != cfg.patch_size:
        raise ShapeMismatch(f"net input {net.size} != patch size {cfg.patch_size}")
    reasons = Counter()
    by_count: dict[int, list] = {}   # cable count -> [trials, successes]
    scenes = settled_scenes(cfg, master_seed, reasons)
    for _, scene, cands, plan in sampled_scenes(cfg, scenes, reasons):
        if policy.kind == "random":
            pose = select_random(cands, plan["rng"])
        else:
            pose = select_cgcnn(cands, net, policy.lam)
        out = execute_grasp(scene, pose, plan["f"])
        bucket = by_count.setdefault(plan["cable_count"], [0, 0])
        bucket[0] += 1
        bucket[1] += out.label
        if out.label == 0:
            reasons[out.failure_reason] += 1
    trials = cfg.scene_count
    successes = sum(s for _, s in by_count.values())
    low, high = wilson_interval(successes, trials)
    return {"policy": policy.kind, "trials": trials, "successes": successes,
            "rate": successes / trials, "wilson_low": low, "wilson_high": high,
            "failures_by_reason": dict(sorted(reasons.items())),
            "by_cable_count": {str(c): {"trials": t, "successes": s, "rate": s / t}
                               for c, (t, s) in sorted(by_count.items())}}


def write_stats(report: dict, json_path: str | Path, csv_path: str | Path) -> None:
    """An `evaluate_policy` report as JSON, plus a per-cable-count CSV for
    plotting; each file is written atomically."""
    atomic_write(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    text = io.StringIO()
    out = csv.writer(text)
    out.writerow(["cable_count", "trials", "successes", "rate"])
    for count, row in report["by_cable_count"].items():
        out.writerow([count, row["trials"], row["successes"], f"{row['rate']:.4f}"])
    atomic_write(csv_path, text.getvalue())
