"""In-memory spans around graspforge's public functions.

`Tracer` replaces each function in `WRAPPED`, at every graspforge module
that refers to it by name, with a wrapper that records one span per call:
name, layer, start, end, the enclosing span, the time not covered by child
spans, the GJK calls made under it and an optional count read from the
result. The package itself is not modified; leaving the `with` block puts
the original functions back.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import warnings
from typing import Callable, NamedTuple

# (module, function) -> (layer, count read from the call's arguments and
# result, or None). A raised call passes None as the result. Layers are
# named after the package's modules.
WRAPPED: dict[tuple[str, str], tuple[str, Callable | None]] = {
    ("graspforge.geometry.gjk", "gjk_world"): ("geometry.gjk", None),
    ("graspforge.scene", "settle_scene"): ("scene", None),
    ("graspforge.scene", "render_depth"): ("scene", None),
    ("graspforge.scene", "save_scene"): ("scene", None),
    ("graspforge.scene", "load_scene"): ("scene", None),
    ("graspforge.depthproc", "add_noise"): ("depthproc", None),
    ("graspforge.depthproc", "downsample"): ("depthproc", None),
    ("graspforge.depthproc", "bilateral_filter"): ("depthproc", None),
    ("graspforge.depthproc", "detect_edges"):
        ("depthproc", lambda args, result: len(result or ())),
    ("graspforge.depthproc", "estimate_normals"): ("depthproc", None),
    ("graspforge.depthproc", "crop_rotated"): ("depthproc", None),
    ("graspforge.depthproc", "record_bytes"): ("depthproc", None),
    ("graspforge.depthproc", "patch_from_record"): ("depthproc", None),
    # candidates returned and asked for; a NoCandidates call returned none
    ("graspforge.sampler", "sample_grasps"):
        ("sampler", lambda args, result: (len(result or ()), args[1].n)),
    ("graspforge.simlab", "scene_plan"): ("simlab", None),
    ("graspforge.simlab", "execute_grasp"): ("simlab", None),
    ("graspforge.simlab", "write_dataset"): ("simlab", None),
    ("graspforge.simlab", "load_dataset"): ("simlab", None),
    ("graspforge.model", "train"):
        ("model", lambda args, result: len(result.history) if result else 0),
    ("graspforge.model", "adam_step"): ("model", None),
    ("graspforge.model", "loss"): ("model", None),
    ("graspforge.model", "forward_many"): ("model", None),
    ("graspforge.model", "save_net"): ("model", None),
    ("graspforge.model", "load_net"): ("model", None),
    ("graspforge.model", "write_metrics"): ("model", None),
    ("graspforge.policy", "evaluate_policy"): ("policy", None),
    ("graspforge.policy", "select_cgcnn"): ("policy", None),
    ("graspforge.policy", "select_random"): ("policy", None),
    ("graspforge.policy", "write_stats"): ("policy", None),
    ("graspforge.cli", "dispatch"): ("cli", None),
}

LAYERS = ("geometry.gjk", "scene", "depthproc", "sampler", "simlab", "model",
          "policy")


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 at top level
    self_s: float      # duration minus the time of child spans
    gjk: int           # GJK calls under this span, itself included
    count: object      # from the table's count function, or None


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cap_hits = 0
        self._stack: list[list] = []   # open spans: [index, child_s, gjk]
        self._patched: list[tuple] = []

    def _wrap(self, name: str, layer: str, fn: Callable, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_gjk = int(name == "gjk_world")

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0, 0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                gjk = frame[2] + is_gjk
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += gjk
                spans[index] = Span(name, layer, start, end, parent,
                                    dur - frame[1], gjk,
                                    counter(args, result) if counter else None)

        return wrapper

    def __enter__(self) -> "Tracer":
        from graspforge.errors import ConvergenceWarning
        for (modname, fname), (layer, counter) in WRAPPED.items():
            original = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(fname, layer, original, counter)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("graspforge")
                        and mod.__dict__.get(fname) is original):
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always", ConvergenceWarning)
        self._category = ConvergenceWarning
        return self

    def __exit__(self, *exc) -> None:
        self._warnings.__exit__(*exc)
        self.cap_hits += sum(issubclass(w.category, self._category)
                             for w in self._caught)
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _dur(s: Span) -> float:
    return s.end - s.start


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, in seconds, over every recorded span."""
    out = {layer: 0.0 for layer in LAYERS + ("cli",)}
    for s in spans:
        out[s.layer] += s.self_s
    return out


def per_layer_metrics(spans: list[Span], wall_s: float,
                      cap_hits: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); 0 where the
    workload never calls the layer."""
    by = _by_name(spans)

    def get(name: str) -> list[Span]:
        return by.get(name, [])

    m: dict[str, tuple[float, str]] = {}

    gjk = get("gjk_world")
    m["gjk.calls"] = (len(gjk), "count")
    m["gjk.us_per_call"] = (_mean(map(_dur, gjk)) * 1e6, "us")
    m["gjk.cap_hits"] = (cap_hits, "count")

    settle = get("settle_scene")
    settle_s = [_dur(s) for s in settle]
    m["settle.s_per_scene"] = (statistics.median(settle_s) if settle_s else 0.0, "s")
    m["settle.s_per_scene_max"] = (max(settle_s, default=0.0), "s")
    m["settle.scenes"] = (len(settle), "count")
    m["settle.gjk_calls_per_scene"] = (_mean(s.gjk for s in settle), "count")
    settle_self = sum(s.self_s for s in settle)
    m["settle.self_s"] = (settle_self, "s")
    m["settle.gjk_share"] = (1.0 - settle_self / sum(settle_s) if settle_s else 0.0,
                             "frac")
    renders = get("render_depth")
    m["render.ms_per_scene"] = (_mean(map(_dur, renders)) * 1e3, "ms")
    m["scene_io.save_ms"] = (_mean(map(_dur, get("save_scene"))) * 1e3, "ms")
    m["scene_io.load_ms"] = (_mean(map(_dur, get("load_scene"))) * 1e3, "ms")

    m["noise.ms"] = (_mean(map(_dur, get("add_noise"))) * 1e3, "ms")
    m["filter.ms"] = (_mean(map(_dur, get("bilateral_filter"))) * 1e3, "ms")
    edges = get("detect_edges")
    m["edges.ms"] = (_mean(map(_dur, edges)) * 1e3, "ms")
    m["edges.points_per_image"] = (_mean(s.count for s in edges), "count")
    m["normals.ms"] = (_mean(map(_dur, get("estimate_normals"))) * 1e3, "ms")
    m["crop.us"] = (_mean(map(_dur, get("crop_rotated"))) * 1e6, "us")

    sample = get("sample_grasps")
    m["sample.ms_per_call"] = (_mean(map(_dur, sample)) * 1e3, "ms")
    m["sample.pair_search_self_ms"] = (_mean(s.self_s for s in sample) * 1e3, "ms")
    # every resample loop starts from one rendered image
    m["sample.calls_per_scene"] = (len(sample) / len(renders) if renders else 0.0,
                                   "count")
    got = sum(s.count[0] for s in sample)
    asked = sum(s.count[1] for s in sample)
    m["sample.yield"] = (got / asked if asked else 0.0, "frac")

    oracle = get("execute_grasp")
    m["oracle.ms_per_grasp"] = (_mean(map(_dur, oracle)) * 1e3, "ms")
    m["oracle.self_ms_per_grasp"] = (_mean(s.self_s for s in oracle) * 1e3, "ms")
    m["oracle.gjk_calls_per_grasp"] = (_mean(s.gjk for s in oracle), "count")
    m["dataset.write_ms"] = (_mean(map(_dur, get("write_dataset"))) * 1e3, "ms")
    m["dataset.load_ms"] = (_mean(map(_dur, get("load_dataset"))) * 1e3, "ms")

    train = get("train")
    epochs = sum(s.count for s in train)
    m["train.s_per_epoch"] = (sum(map(_dur, train)) / epochs if epochs else 0.0, "s")
    m["train.compute_self_s"] = (sum(s.self_s for s in train), "s")
    adam = get("adam_step")
    m["adam.steps"] = (len(adam), "count")
    m["adam.ms_per_step"] = (_mean(map(_dur, adam)) * 1e3, "ms")
    m["infer.ms_per_call"] = (_mean(map(_dur, get("forward_many"))) * 1e3, "ms")
    m["checkpoint.save_ms"] = (_mean(map(_dur, get("save_net"))) * 1e3, "ms")
    m["checkpoint.load_ms"] = (_mean(map(_dur, get("load_net"))) * 1e3, "ms")

    m["policy.score_ms_per_trial"] = (
        _mean(map(_dur, get("select_cgcnn"))) * 1e3, "ms")

    layers = layer_self_times(spans)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (layers[layer], "s")
    m["cli.self_s"] = (wall_s - sum(layers[layer] for layer in LAYERS), "s")
    m["trace.wall_s"] = (wall_s, "s")
    return m


def self_time_table(metrics: dict[str, tuple[float, str]]) -> str:
    """Per-layer self times; the rows plus cli.self_s sum to traced wall."""
    wall = metrics["trace.wall_s"][0]
    rows = [(layer, metrics[f"self_s.{layer}"][0]) for layer in LAYERS]
    rows.append(("cli (rest)", metrics["cli.self_s"][0]))
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}"]
    for name, value in rows:
        lines.append(f"{name:<14}{value:>10.3f}{value / wall:>8.1%}")
    lines.append(f"{'sum':<14}{sum(v for _, v in rows):>10.3f}")
    lines.append(f"{'traced wall_s':<14}{wall:>10.3f}")
    share = metrics["settle.gjk_share"][0]
    lines.append(f"gjk share of settle time: {share:.1%}")
    lines.append(f"trace.overhead_frac: {metrics['trace.overhead_frac'][0]:+.3f}")
    return "\n".join(lines)
