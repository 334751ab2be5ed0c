"""Command-line pipeline: scene generation, sampling, labeling, training,
evaluation, and report plots.

Every subcommand reads the shared run configuration (the --config file
plus flag overrides; report, which reads no value of it, takes no
overrides), writes its outputs atomically under --out with fixed names
(scenes/, candidates.*, dataset.* in datasets/; qualitynet.gfqn and
qualitynet_metrics.csv in checkpoints/; eval_<policy>.* and figures in
reports/ by default), and prints a one-line JSON summary. Exit codes: 0
success, 1 domain error, 2 usage error.

make-scenes, sample and label run `simlab`'s scene stages one stage at a
time and only read and write their files; evaluate runs the same stages
on `RunConfig.eval_config()`, the scene settings of its trials.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, load_run_config
from .errors import DegenerateInput, GraspForgeError, NoCandidates, Overfilled
from .fileio import atomic_write, read_input, require_keys
from .model import load_net, save_net, train, write_metrics
from .policy import evaluate_policy, report_dict, write_stats
from .scene import Scene, load_scene, save_scene
from .simlab import (CANDIDATE_KEYS, DatasetConfig, candidate_rows, label_row,
                     load_dataset, read_records, sample_scene, scene_plan,
                     settle_plan, write_dataset, write_records)


_PLAN_KEYS = ("scene_seed", "cable_count", "f")   # a listing entry's scene_plan draws


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _add_out_flags(parser: argparse.ArgumentParser, out: str) -> None:
    parser.add_argument("--out", default=out,
                        help="output directory (default: %(default)s)")
    parser.add_argument("--config", default=None,
                        help="run configuration file (key = value lines)")


def _add_run_flags(parser: argparse.ArgumentParser, out: str) -> None:
    _add_out_flags(parser, out)
    group = parser.add_argument_group("configuration overrides")
    for f in fields(RunConfig):
        flags = ["--" + f.name.replace("_", "-")]
        if f.name == "master_seed":
            flags.append("--seed")
        if f.type == "bool":
            group.add_argument(*flags, default=None, choices=("true", "false"))
        else:
            group.add_argument(*flags, default=None, metavar=f.type.upper())


def _run_config(args) -> RunConfig:
    return load_run_config(args.config, {f.name: getattr(args, f.name)
                                         for f in fields(RunConfig)})


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make_scenes(args) -> dict:
    run = _run_config(args)
    cfg = run.dataset_config()
    out_dir = Path(args.out) / "scenes"
    entries = []
    skipped = {"overfilled": 0}
    for i in range(cfg.scene_count):
        plan = scene_plan(cfg, run.master_seed, i)
        try:
            scene = settle_plan(cfg, plan)
        except Overfilled:
            skipped["overfilled"] += 1
            continue
        manifest = save_scene(scene, str(out_dir / f"scene_{i:04d}"))
        entries.append({"index": i, "manifest": os.path.relpath(manifest, out_dir),
                        **{k: plan[k] for k in _PLAN_KEYS}})
    listing = {"master_seed": run.master_seed, "scene_count": cfg.scene_count,
               "skipped": skipped, "scenes": entries}
    listing_path = out_dir / "scenes.json"
    atomic_write(listing_path, json.dumps(listing, indent=2, sort_keys=True) + "\n")
    return {"command": "make-scenes", "scenes": len(entries),
            "skipped": skipped["overfilled"], "listing": str(listing_path)}


def _load_listing(cfg: DatasetConfig, path: str) -> tuple[dict, dict]:
    """A make-scenes listing, read through `read_input`, and by scene index
    each entry's plan and manifest path. DegenerateInput names the file when
    scene_count or skipped.overfilled is not a non-negative integer, when
    the entries and the overfilled scenes do not add up to scene_count, when
    an index repeats or lies outside [0, scene_count), and when an entry's
    seed, cable count or friction is not what `scene_plan` draws under cfg
    (the configuration changed between stages)."""
    base = Path(path).parent

    def parse(data: bytes) -> tuple[dict, dict]:
        listing = json.loads(data)
        require_keys(listing, ("master_seed", "scene_count", "skipped", "scenes"), "listing")
        require_keys(listing["skipped"], ("overfilled",), "skipped")
        count, overfilled = listing["scene_count"], listing["skipped"]["overfilled"]
        if not all(type(n) is int and n >= 0 for n in (count, overfilled)):
            raise DegenerateInput("scene_count and skipped.overfilled must be "
                                  "non-negative integers")
        if len(listing["scenes"]) + overfilled != count:
            raise DegenerateInput(f"{len(listing['scenes'])} entries and {overfilled} "
                                  f"overfilled scenes do not add up to scene_count {count}")
        scenes = {}
        for entry in listing["scenes"]:
            require_keys(entry, ("index", "manifest", *_PLAN_KEYS), "scene entry")
            if type(entry["index"]) is not int or not 0 <= entry["index"] < count:
                raise DegenerateInput(f"scene index {entry['index']!r} is not in [0, {count})")
            if entry["index"] in scenes:
                raise DegenerateInput(f"scene {entry['index']} is listed twice")
            plan = scene_plan(cfg, listing["master_seed"], entry["index"])
            if any(plan[k] != entry[k] for k in _PLAN_KEYS):
                raise DegenerateInput(f"scene {entry['index']} does not match the "
                                      "active configuration")
            scenes[entry["index"]] = plan, str(base / entry["manifest"])
        return listing, scenes

    return read_input(path, parse)


def _entry_scene(cfg: DatasetConfig, plan: dict, manifest: str) -> Scene:
    """The scene a listing entry names, which must be the pile its plan
    settles: the plan's seed and cable count, or DegenerateInput names the
    manifest."""
    scene = load_scene(manifest, cfg.bin, cfg.cable)
    if scene.rng_seed != plan["scene_seed"] or len(scene.cables) != plan["cable_count"]:
        raise DegenerateInput(f"{manifest}: scene does not match its listing entry")
    return scene


def _cmd_sample(args) -> dict:
    cfg = _run_config(args).dataset_config()
    listing, scenes = _load_listing(cfg, args.scenes)
    rows = []
    no_candidates = 0
    for index, (plan, manifest) in scenes.items():
        scene = _entry_scene(cfg, plan, manifest)
        try:
            rows += candidate_rows(index, sample_scene(cfg, scene, plan))
        except NoCandidates:
            no_candidates += 1
    idx_path = write_records(rows, args.out, "candidates")
    return {"command": "sample", "scenes": len(listing["scenes"]),
            "candidates": len(rows), "no_candidates": no_candidates,
            "index": str(idx_path)}


def _cmd_label(args) -> dict:
    cfg = _run_config(args).dataset_config()
    listing, scenes = _load_listing(cfg, args.scenes)
    by_scene: dict[int, list] = {}
    for n, cand in enumerate(read_records(args.candidates, CANDIDATE_KEYS)):
        if any(type(cand[k]) is not int for k in ("scene_index", "candidate_index")):
            raise DegenerateInput(f"{args.candidates}: row {n}: an index is not an integer")
        if cand["scene_index"] not in scenes:
            raise DegenerateInput(f"{args.candidates}: scene {cand['scene_index']} is not "
                                  f"in the listing {args.scenes}")
        by_scene.setdefault(cand["scene_index"], []).append((n, cand))
    rows = []
    for index, cands in sorted(by_scene.items()):
        plan, manifest = scenes[index]
        scene = _entry_scene(cfg, plan, manifest)
        for n, cand in cands:
            try:
                rows.append(label_row(cfg, scene, plan, cand))
            except DegenerateInput as exc:
                raise DegenerateInput(f"{args.candidates}: row {n}: {exc}") from None
    skips = {"overfilled": listing["skipped"]["overfilled"],
             "no_candidates": len(listing["scenes"]) - len(by_scene)}
    index_path = write_dataset(rows, skips, listing["scene_count"],
                               listing["master_seed"], args.out)
    positives = sum(r["label"] for r in rows)
    return {"command": "label", "samples": len(rows), "positives": positives,
            "index": str(index_path)}


def _cmd_train(args) -> dict:
    cfg = _run_config(args).train_config()
    dataset = load_dataset(args.dataset)
    result = train(dataset, cfg)
    net_path = Path(args.out) / "qualitynet.gfqn"
    save_net(result.net, net_path)
    metrics_path = Path(args.out) / "qualitynet_metrics.csv"
    write_metrics(result.history, metrics_path)
    return {"command": "train", "samples": len(dataset),
            "epochs": len(result.history), "best_epoch": result.best_epoch,
            "best_val_acc": result.best_val_acc,
            "checkpoint": str(net_path), "metrics": str(metrics_path)}


def _cmd_evaluate(args) -> dict:
    run = _run_config(args)
    policy = run.policy_config()
    net = load_net(args.net) if args.net else None
    report = evaluate_policy(policy, net, run.eval_config(), run.master_seed)
    json_path = Path(args.out) / f"eval_{policy.kind}.json"
    csv_path = Path(args.out) / f"eval_{policy.kind}.csv"
    write_stats(report, json_path, csv_path)
    summary = report_dict(report)
    summary.update(command="evaluate", stats=str(json_path))
    return summary


# ---------------------------------------------------------------------------
# report plots

def _svg_header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
            f'<rect width="{width}" height="{height}" fill="white"/>')


def _bar_chart_svg(title: str, pairs: list[tuple[str, float]]) -> str:
    width, height, margin = 480, 300, 45
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    n = max(1, len(pairs))
    bar_w = plot_w / n * 0.7
    parts = [_svg_header(width, height),
             f'<text x="{width/2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    for k in range(6):
        frac = k / 5.0
        y = height - margin - frac * plot_h
        parts.append(f'<line x1="{margin}" y1="{y}" x2="{width-margin}" '
                     f'y2="{y}" stroke="#ddd"/>')
        parts.append(f'<text x="{margin-6}" y="{y+4}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{frac:.1f}</text>')
    for i, (name, value) in enumerate(pairs):
        x = margin + (i + 0.15) * plot_w / n
        bh = value * plot_h
        y = height - margin - bh
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                     f'height="{bh:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w/2:.1f}" y="{height-margin+14}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{name}</text>')
        parts.append(f'<text x="{x + bar_w/2:.1f}" y="{y-4:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{value:.2f}</text>')
    parts.append("</svg>")
    return "".join(parts) + "\n"


def _line_chart_svg(title: str, series: list[tuple[str, list[float]]]) -> str:
    width, height, margin = 480, 300, 45
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    hi = max((max(vals) for _, vals in series if vals), default=1.0)
    hi = hi if hi > 0 else 1.0
    colors = ("#4878a8", "#a84848", "#48a878")
    parts = [_svg_header(width, height),
             f'<text x="{width/2}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    for si, (name, vals) in enumerate(series):
        if not vals:
            continue
        n = len(vals)
        pts = []
        for i, v in enumerate(vals):
            x = margin + (plot_w * i / max(1, n - 1))
            y = height - margin - (v / hi) * plot_h
            pts.append(f"{x:.1f},{y:.1f}")
        color = colors[si % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width-margin}" y="{30+12*si}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10" fill="{color}">{name}</text>')
    parts.append(f'<line x1="{margin}" y1="{height-margin}" '
                 f'x2="{width-margin}" y2="{height-margin}" stroke="#333"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{height-margin}" stroke="#333"/>')
    parts.append("</svg>")
    return "".join(parts) + "\n"


def _stats_rates(data: bytes):
    """Policy and (cable count, success rate) pairs of an eval stats file."""
    stats = json.loads(data)
    return stats["policy"], [(count, float(row["rate"]))
                             for count, row in sorted(stats["by_cable_count"].items(),
                                                      key=lambda kv: int(kv[0]))]


def _metric_curves(data: bytes):
    """Train loss and validation accuracy columns of a metrics CSV."""
    rows = [r.split(",") for r in data.decode().strip().splitlines()[1:]]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows]


def _cmd_report(args) -> dict:
    load_run_config(args.config)   # a bad --config fails here as in every command
    out_dir = Path(args.out)
    figures = []
    for stats_path in args.stats or []:
        policy, pairs = read_input(stats_path, _stats_rates)
        fig = out_dir / f"{Path(stats_path).stem}_by_count.svg"
        atomic_write(fig, _bar_chart_svg(f"success rate by cable count ({policy})", pairs))
        figures.append(str(fig))
    if args.metrics:
        losses, accs = read_input(args.metrics, _metric_curves)
        fig = out_dir / f"{Path(args.metrics).stem}_curve.svg"
        atomic_write(fig, _line_chart_svg("training curves",
                                          [("train loss", losses), ("val acc", accs)]))
        figures.append(str(fig))
    return {"command": "report", "figures": figures}


# ---------------------------------------------------------------------------
# dispatch

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspforge",
        description="cable bin-picking pipeline: scenes, grasps, labels, "
                    "training, evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scenes", help="settle cluttered scenes")
    _add_run_flags(p, "datasets")
    p.set_defaults(func=_cmd_make_scenes)

    p = sub.add_parser("sample", help="sample grasp candidates per scene")
    p.add_argument("--scenes", required=True, help="scenes.json listing")
    _add_run_flags(p, "datasets")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("label", help="run the grasp oracle over candidates")
    p.add_argument("--scenes", required=True)
    p.add_argument("--candidates", required=True, help="candidate .idx path")
    _add_run_flags(p, "datasets")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="fit the quality network")
    p.add_argument("--dataset", required=True, help="dataset .idx path")
    _add_run_flags(p, "checkpoints")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="run policy trials and write stats")
    p.add_argument("--net", default=None, help="checkpoint for cgcnn")
    _add_run_flags(p, "reports")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="emit SVG charts from stats/metrics")
    p.add_argument("--stats", action="append", default=[])
    p.add_argument("--metrics", default=None)
    _add_out_flags(p, "reports")   # report reads no configuration value
    p.set_defaults(func=_cmd_report)
    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        summary = args.func(args)
    except GraspForgeError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1
    _emit(summary)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
