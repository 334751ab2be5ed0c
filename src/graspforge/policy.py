"""Grasp selection strategies and the success-rate evaluation harness.

Two policies: uniform random choice over the sampled candidates, and a
learned policy that scores each candidate by network quality plus a height
bonus, picking the argmax. The harness runs full simulated trials - settle,
render, sample, select, execute - on the dataset's scene stages and
settings (a `DatasetConfig` whose scene_count is the trial count), and
aggregates success statistics with Wilson confidence intervals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, Empty, NoCandidates, Overfilled
from .model import QualityNet, forward_many
from .sampler import GraspPose
from .fileio import atomic_write
from .simlab import DatasetConfig, execute_grasp, scene_candidates

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


@dataclass(frozen=True)
class ScoredCandidate:
    index: int
    q: float
    r_height: int        # 0 = highest grasp point
    score: float


def select_random(candidates, rng: np.random.Generator) -> GraspPose:
    """Uniform choice over the candidate list; deterministic per rng state."""
    if not candidates:
        raise Empty("no candidates to select from")
    return candidates[int(rng.integers(len(candidates)))][0]


def score_candidates(candidates, net: QualityNet, lam: float) -> list:
    """Quality plus height bonus for every candidate.

    The rank bonus lam * (1 - r/N) rewards grasps high in the pile; rank 0
    is the topmost grasp point, ties in height broken by input order.
    """
    if not candidates:
        raise Empty("no candidates to score")
    n = len(candidates)
    qs = forward_many(net, [c[2] for c in candidates])
    order = sorted(range(n), key=lambda i: (-candidates[i][0].z, i))
    ranks = [0] * n
    for r, i in enumerate(order):
        ranks[i] = r
    return [ScoredCandidate(index=i, q=float(qs[i]), r_height=ranks[i],
                            score=float(qs[i]) + lam * (1.0 - ranks[i] / n))
            for i in range(n)]


def select_cgcnn(candidates, net: QualityNet, lam: float) -> GraspPose:
    """Argmax of score; exact score ties break toward the lower grasp
    point, then lower x, then lower y."""
    scored = score_candidates(candidates, net, lam)
    best = min(scored, key=lambda s: (-s.score,
                                      candidates[s.index][0].z,
                                      candidates[s.index][0].x,
                                      candidates[s.index][0].y))
    return candidates[best.index][0]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DegenerateInput("need 0 <= successes <= trials, trials >= 1")
    z2 = _WILSON_Z * _WILSON_Z
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(p * (1 - p) / trials
                                 + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class EvalReport:
    policy: str
    trials: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float
    failures_by_reason: dict
    by_cable_count: dict     # count -> {"trials", "successes", "rate"}


def evaluate_policy(policy: PolicyConfig, net: QualityNet | None,
                    cfg: DatasetConfig, master_seed: int) -> EvalReport:
    """Success rate of one policy over cfg.scene_count trials, one fresh
    scene each.

    Each trial settles, renders and samples a scene (`scene_candidates`),
    lets the policy pick one grasp, and executes it; success means a clean
    single cable lift. A skipped scene counts as a failure: "overfilled"
    when its cables found no resting pose in the bin, "no_candidates" when
    the sampler came back empty. Trials use per-index seed streams, so
    results are independent of execution order and deterministic per
    master seed.
    """
    if policy.kind == "cgcnn" and net is None:
        raise DegenerateInput("cgcnn policy needs a trained net")
    trials = cfg.scene_count
    successes = 0
    reasons: dict[str, int] = {}
    by_count: dict[int, list] = {}
    for trial in range(trials):
        try:
            scene, cands, plan = scene_candidates(cfg, master_seed, trial)
        except (Overfilled, NoCandidates) as exc:
            skip = "overfilled" if isinstance(exc, Overfilled) else "no_candidates"
            reasons[skip] = reasons.get(skip, 0) + 1
            continue
        if policy.kind == "random":
            pose = select_random(cands, plan["rng"])
        else:
            pose = select_cgcnn(cands, net, policy.lam)
        out = execute_grasp(scene, pose, plan["f"])
        bucket = by_count.setdefault(plan["cable_count"], [0, 0])
        bucket[0] += 1
        if out.label == 1:
            successes += 1
            bucket[1] += 1
        else:
            reasons[out.failure_reason] = reasons.get(out.failure_reason, 0) + 1
    low, high = wilson_interval(successes, trials)
    return EvalReport(
        policy=policy.kind, trials=trials, successes=successes,
        rate=successes / trials, wilson_low=low, wilson_high=high,
        failures_by_reason=dict(sorted(reasons.items())),
        by_cable_count={c: {"trials": t, "successes": s,
                            "rate": s / t if t else 0.0}
                        for c, (t, s) in sorted(by_count.items())})


def report_dict(report: EvalReport) -> dict:
    """Every report field, with the cable counts as JSON's string keys."""
    return dict(asdict(report), by_cable_count={
        str(k): v for k, v in report.by_cable_count.items()})


def write_stats(report: EvalReport, json_path: str | Path, csv_path: str | Path) -> None:
    """Stats as JSON, plus a per-cable-count CSV for plotting; each file is
    written atomically."""
    atomic_write(json_path, json.dumps(report_dict(report), indent=2,
                                       sort_keys=True) + "\n")
    text = io.StringIO()
    out = csv.writer(text)
    out.writerow(["cable_count", "trials", "successes", "rate"])
    for count, row in report.by_cable_count.items():
        out.writerow([count, row["trials"], row["successes"], f"{row['rate']:.4f}"])
    atomic_write(csv_path, text.getvalue())
