"""Command-line pipeline: exit codes, staged-chain artifacts, determinism."""

import json
import shutil

import numpy as np
import pytest

import graspforge.cli as cli_mod
import graspforge.policy as policy_mod
from graspforge.cli import dispatch
from graspforge.depthproc import Patch
from graspforge.model import save_net
from graspforge.simlab import DatasetConfig, generate_dataset, write_dataset
from oracles import zeros_net

# small enough to keep the staged chain quick, deliberately the same draws
# as the fused reference run below
BASE = ["--scene-count", "2", "--cable-count-min", "3", "--cable-count-max", "4",
        "--grasps-per-scene", "4", "--master-seed", "5"]


def run(capsys, *argv) -> tuple[int, dict]:
    rc = dispatch(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    last = json.loads(out[-1]) if out else {}
    return rc, last


def sample_and_label_fail(capsys, listing, candidates, out_dir, error, named):
    """sample, then label, on `listing` under BASE: each exits 1 with
    `error`, and its detail names `named`."""
    for argv in (["sample"], ["label", "--candidates", str(candidates)]):
        rc, out = run(capsys, *argv, "--scenes", str(listing), "--out", str(out_dir), *BASE)
        assert (rc, out.get("error")) == (1, error), argv
        assert str(named) in out["detail"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Artifacts from one staged make-scenes -> sample -> label run."""
    root = tmp_path_factory.mktemp("chain")
    staged = root / "staged"
    for argv in (
        ["make-scenes", "--out", str(staged)],
        ["sample", "--scenes", str(staged / "scenes/scenes.json"),
         "--out", str(staged)],
        ["label", "--scenes", str(staged / "scenes/scenes.json"),
         "--candidates", str(staged / "candidates.idx"), "--out", str(staged)],
    ):
        assert dispatch(argv + BASE) == 0
    return staged


def toy_dataset(out_dir, n=40, size=16, first_size=None):
    """Separable labeled rows in the on-disk dataset format; row 0's patch
    side is first_size if given."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(n):
        label = i % 2
        side = first_size if i == 0 and first_size else size
        data = rng.normal(0.0, 0.05, (side, side))
        data[5:11, 5:11] += 3.0 if label else -3.0
        rows.append({
            "scene_index": i, "candidate_index": 0,
            "patch": Patch(data=data.astype(np.float32), pitch=1.0),
            "label": label, "reason": None if label else "slip",
            "contacted_ids": [0], "scene_seed": i, "cable_count": 3,
            "f": 0.3, "pose": {"x": 0.0, "y": 0.0, "z": 1.0,
                               "theta": 0.0, "w": 8.0},
        })
    return write_dataset(rows, {"overfilled": 0, "no_candidates": 0},
                         n, 0, out_dir, "toy")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["nonsense"]) == 2

    def test_unknown_flag(self, capsys):
        assert dispatch(["report", "--warp", "9"]) == 2

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "make-scenes" in capsys.readouterr().out


class TestErrors:
    def test_missing_dataset_names_error(self, capsys):
        rc, out = run(capsys, "train", "--dataset", "missing.idx")
        assert rc == 1
        assert out["error"] == "DatasetNotFound"

    def test_missing_scene_listing(self, capsys, tmp_path):
        rc, out = run(capsys, "sample", "--scenes", str(tmp_path / "none.json"))
        assert rc == 1
        assert out["error"] == "DatasetNotFound"

    def test_malformed_scene_listing(self, capsys, tmp_path):
        listing = tmp_path / "scenes.json"
        listing.write_text('{"scenes": [')
        rc, out = run(capsys, "sample", "--scenes", str(listing))
        assert rc == 1
        assert out["error"] == "DegenerateInput"
        assert str(listing) in out["detail"]

    def test_truncated_or_padded_checkpoint(self, capsys, tmp_path):
        good = tmp_path / "good.gfqn"
        save_net(zeros_net(16), good)
        raw = good.read_bytes()
        damaged = [raw[:n] for n in (0, 3, 20, 100, len(raw) // 2, len(raw) - 3)]
        damaged.append(raw + b"\0\0\0")
        for i, data in enumerate(damaged):
            net = tmp_path / f"bad{i}.gfqn"
            net.write_bytes(data)
            rc, out = run(capsys, "evaluate", "--policy", "cgcnn", "--net", str(net))
            assert rc == 1, len(data)
            assert out["error"] == "DegenerateInput"
            assert str(net) in out["detail"]

    def test_missing_checkpoint(self, capsys, tmp_path):
        net = tmp_path / "none.gfqn"
        rc, out = run(capsys, "evaluate", "--policy", "cgcnn", "--net", str(net))
        assert rc == 1
        assert out["error"] == "DatasetNotFound"
        assert str(net) in out["detail"]

    def test_listing_missing_keys(self, capsys, tmp_path):
        entry = {"index": 0, "manifest": "scene_0000/scene.json",
                 "cable_count": 3, "f": 0.3}   # no scene_seed
        full = {"master_seed": 5, "scene_count": 1,
                "skipped": {"overfilled": 0}, "scenes": [entry]}
        listing = tmp_path / "scenes.json"
        for bad in ({}, {k: v for k, v in full.items() if k != "scene_count"}, full):
            listing.write_text(json.dumps(bad))
            sample_and_label_fail(capsys, listing, tmp_path / "c.idx", tmp_path / "out",
                                  "DegenerateInput", listing)

    def test_damaged_candidates(self, capsys, chain, tmp_path):
        idx = tmp_path / "candidates.idx"
        blob = tmp_path / "candidates.blob"
        lines = (chain / "candidates.idx").read_text().splitlines()
        raw = (chain / "candidates.blob").read_bytes()
        no_pose = json.dumps({k: v for k, v in json.loads(lines[0]).items() if k != "w"})
        cases = (
            ("\n".join(lines), None, "DatasetNotFound", blob),           # no blob
            ("\n".join(lines), raw[:-10], "DegenerateInput", blob),      # cut short
            ("\n".join([no_pose] + lines[1:]), raw, "DegenerateInput", idx),
            ("[1, 2]", raw, "DegenerateInput", idx),
        )
        for text, data, error, named in cases:
            idx.write_text(text + "\n")
            blob.unlink(missing_ok=True)
            if data is not None:
                blob.write_bytes(data)
            rc, out = run(capsys, "label", "--scenes", str(chain / "scenes/scenes.json"),
                          "--candidates", str(idx), "--out", str(tmp_path / "out"), *BASE)
            assert rc == 1, text[:40]
            assert out["error"] == error
            assert str(named) in out["detail"]

    def test_damaged_dataset(self, capsys, tmp_path):
        idx = toy_dataset(tmp_path)
        blob = idx.with_suffix(".blob")
        raw, lines = blob.read_bytes(), idx.read_text().splitlines()
        no_label = json.dumps({k: v for k, v in json.loads(lines[3]).items() if k != "label"})
        cases = (
            (raw[:-10], lines, blob),                       # last record cut short
            (raw, lines[:3] + [no_label] + lines[4:], idx),
            (raw, lines[:3] + [lines[3].replace('"label": 1', '"label": "1"')] + lines[4:], idx),
        )
        for data, index_lines, named in cases:
            blob.write_bytes(data)
            idx.write_text("\n".join(index_lines) + "\n")
            rc, out = run(capsys, "train", "--dataset", str(idx),
                          "--out", str(tmp_path / "ckpt"), "--epochs", "1")
            assert rc == 1
            assert out["error"] == "DegenerateInput"
            assert str(named) in out["detail"]

    def test_label_contradicts_reason(self, capsys, chain, tmp_path):
        """A dataset row whose label disagrees with its stored reason fails
        train with a detail naming the index and the row."""
        idx = tmp_path / "dataset.idx"
        shutil.copy(chain / "dataset.blob", tmp_path / "dataset.blob")
        rows = [json.loads(line) for line in (chain / "dataset.idx").read_text().splitlines()]
        rows[0]["label"] = 1 - rows[0]["label"]
        idx.write_text("".join(json.dumps(row) + "\n" for row in rows))
        rc, out = run(capsys, "train", "--dataset", str(idx),
                      "--out", str(tmp_path / "ckpt"), "--epochs", "1")
        assert (rc, out["error"]) == (1, "DegenerateInput")
        assert str(idx) in out["detail"] and "row 0" in out["detail"]

    def test_candidates_name_unknown_scene(self, capsys, chain, tmp_path):
        """Candidates of a scene the listing lacks fail label with a detail
        naming the candidates index and the listing."""
        idx = tmp_path / "candidates.idx"
        shutil.copy(chain / "candidates.blob", tmp_path / "candidates.blob")
        rows = [json.loads(line) for line in (chain / "candidates.idx").read_text().splitlines()]
        rows[0]["scene_index"] = 9
        idx.write_text("".join(json.dumps(row) + "\n" for row in rows))
        listing = chain / "scenes/scenes.json"
        rc, out = run(capsys, "label", "--scenes", str(listing), "--candidates", str(idx),
                      "--out", str(tmp_path / "out"), *BASE)
        assert (rc, out["error"]) == (1, "DegenerateInput")
        assert str(idx) in out["detail"] and str(listing) in out["detail"]

    def test_mixed_patch_sizes(self, capsys, tmp_path):
        """A dataset whose patches differ in size fails train, naming the
        index and the first row that differs from row 0; training stacks
        the patches into one array."""
        idx = toy_dataset(tmp_path, n=20, size=64, first_size=32)
        rc, out = run(capsys, "train", "--dataset", str(idx),
                      "--out", str(tmp_path / "ckpt"), "--epochs", "1")
        assert (rc, out["error"]) == (1, "DegenerateInput")
        assert str(idx) in out["detail"] and "row 1" in out["detail"]

    def test_candidate_pose_types(self, capsys, chain, tmp_path):
        """A candidate pose field that is not a finite number (a number as a
        string, NaN, null, a bool) fails label, naming the candidates index
        and the row; NaN would otherwise be labelled."""
        idx = tmp_path / "candidates.idx"
        shutil.copy(chain / "candidates.blob", tmp_path / "candidates.blob")
        lines = (chain / "candidates.idx").read_text().splitlines()
        row = json.loads(lines[0])
        for key, value in (("w", str(row["w"])), ("x", float("nan")), ("theta", None),
                           ("z", True)):
            idx.write_text("".join(json.dumps(r) + "\n" for r in
                                   [{**row, key: value}] + [json.loads(t) for t in lines[1:]]))
            rc, out = run(capsys, "label", "--scenes", str(chain / "scenes/scenes.json"),
                          "--candidates", str(idx), "--out", str(tmp_path / "out"), *BASE)
            assert (rc, out.get("error")) == (1, "DegenerateInput"), key
            assert str(idx) in out["detail"] and "row 0" in out["detail"]

    def test_cable_ids(self, capsys, chain, tmp_path):
        """A manifest whose cable k does not have id k fails sample and label,
        naming the manifest. The grasp oracle owns each body by its cable's
        id: a negative one would pass for the bin, a repeated one would merge
        two cables into one, and a string would end in a traceback."""
        scenes = tmp_path / "scenes"
        shutil.copytree(chain / "scenes", scenes)
        listing = json.loads((scenes / "scenes.json").read_text())
        manifest = scenes / listing["scenes"][0]["manifest"]
        good = json.loads(manifest.read_text())
        for k, cid in ((2, "a"), (1, 0), (2, 1), (0, -1), (1, 1.0), (1, True)):
            bad = json.loads(json.dumps(good))
            bad["cables"][k]["id"] = cid
            manifest.write_text(json.dumps(bad))
            sample_and_label_fail(capsys, scenes / "scenes.json", chain / "candidates.idx",
                                  tmp_path / "out", "DegenerateInput", manifest)

    def test_bad_scene_manifest(self, capsys, chain, tmp_path):
        listing = json.loads((chain / "scenes/scenes.json").read_text())
        for entry in listing["scenes"]:
            entry["manifest"] = "bad/scene.json"
        listing_path = tmp_path / "scenes.json"
        listing_path.write_text(json.dumps(listing))
        manifest = tmp_path / "bad/scene.json"
        manifest.parent.mkdir()
        for text, error in ((None, "DatasetNotFound"), ("{", "DegenerateInput"),
                            ("{}", "DegenerateInput")):
            manifest.unlink(missing_ok=True)
            if text is not None:
                manifest.write_text(text)
            sample_and_label_fail(capsys, listing_path, chain / "candidates.idx",
                                  tmp_path / "out", error, manifest)

    def test_bad_cable_obj(self, capsys, chain, tmp_path):
        """A missing, unparsable, open or scaled cable mesh fails sample and
        label with a named error. The open one (faces dropped) would
        otherwise render holes that the vertex hulls used for collision do
        not have; the scaled one, a cable twice the spec's size, would be
        sampled and labelled in a pile settled for the spec's."""
        scenes = tmp_path / "scenes"
        shutil.copytree(chain / "scenes", scenes)
        listing = json.loads((scenes / "scenes.json").read_text())
        manifest = scenes / listing["scenes"][0]["manifest"]
        mesh_name = json.loads(manifest.read_text())["cables"][0]["mesh"]
        obj = manifest.parent / mesh_name
        good = obj.read_text().splitlines()
        faces = [k for k, line in enumerate(good) if line.startswith("f ")]
        open_mesh = [line for k, line in enumerate(good) if k not in faces[-6:]]
        scaled = [" ".join(["v"] + [repr(2 * float(t)) for t in line.split()[1:]])
                  if line.startswith("v ") else line for line in good]
        for lines, error, named in ((None, "DatasetNotFound", obj),
                                    (["v 1 2"], "DegenerateInput", obj),
                                    (open_mesh, "DegenerateInput", mesh_name),
                                    (scaled, "DegenerateInput", obj)):
            obj.unlink(missing_ok=True)
            if lines is not None:
                obj.write_text("\n".join(lines) + "\n")
            sample_and_label_fail(capsys, scenes / "scenes.json", chain / "candidates.idx",
                                  tmp_path / "out", error, named)

    def test_manifest_disagrees_with_config(self, capsys, chain, tmp_path):
        """A scene whose bin or cable spec is not the active configuration's,
        or whose seed or cable count is not its listing entry's, fails
        sample and label, naming the manifest; it would otherwise be
        sampled and labelled against a pile the configuration never makes."""
        scenes = tmp_path / "scenes"
        shutil.copytree(chain / "scenes", scenes)
        listing = json.loads((scenes / "scenes.json").read_text())
        manifest = scenes / listing["scenes"][0]["manifest"]
        good = json.loads(manifest.read_text())
        for edit in (lambda m: m["bin"].update(inner_x=150.0, wall_height=5.0),
                     lambda m: m["cables"][0]["spec"].update(radius=40.0, segment_count=2),
                     lambda m: m["cables"].pop(),
                     lambda m: m.update(rng_seed=m["rng_seed"] + 1)):
            bad = json.loads(json.dumps(good))
            edit(bad)
            manifest.write_text(json.dumps(bad))
            sample_and_label_fail(capsys, scenes / "scenes.json", chain / "candidates.idx",
                                  tmp_path / "out", "DegenerateInput", manifest)

    def test_listing_disagrees_with_config(self, capsys, chain, tmp_path):
        """A listing entry whose seed, cable count or friction is not the
        one `scene_plan` draws under the active configuration fails sample
        and label, naming the listing; label would otherwise store the
        edited count and friction against the pile the seed settles."""
        listing = tmp_path / "scenes/scenes.json"
        shutil.copytree(chain / "scenes", listing.parent)
        good = json.loads(listing.read_text())
        for edit in ({"f": 2.0}, {"cable_count": 7},
                     {"scene_seed": good["scenes"][0]["scene_seed"] + 1}):
            bad = json.loads(json.dumps(good))
            bad["scenes"][0].update(edit)
            listing.write_text(json.dumps(bad))
            sample_and_label_fail(capsys, listing, chain / "candidates.idx",
                                  tmp_path / "out", "DegenerateInput", listing)

    @pytest.mark.parametrize("edit", [
        lambda d: d["scenes"].__setitem__(1, d["scenes"][0]),          # index twice
        lambda d: d.update(scene_count=1, scenes=d["scenes"][1:]),     # index 1 of 1
        lambda d: d.update(scene_count="many"),
        lambda d: d.update(scene_count=True),
        lambda d: d.update(scene_count=-2),
        lambda d: d["skipped"].update(overfilled=None),
        lambda d: d["skipped"].update(overfilled=1),                   # 2 + 1 != 2
        lambda d: d.update(scene_count=3),                             # 2 + 0 != 3
    ], ids=["duplicate", "out_of_range", "count_str", "count_bool", "count_negative",
            "overfilled_null", "overfilled_extra", "count_short"])
    def test_listing_counts_and_indices(self, capsys, chain, tmp_path, edit):
        """A listing whose scene_count or overfilled count is not a
        non-negative integer, whose entries and overfilled scenes do not add
        up to scene_count, or whose index repeats or lies outside
        [0, scene_count) fails sample and label, naming the listing; label
        would otherwise copy the counts into the dataset summary."""
        listing = tmp_path / "scenes/scenes.json"
        shutil.copytree(chain / "scenes", listing.parent)
        bad = json.loads(listing.read_text())
        edit(bad)
        listing.write_text(json.dumps(bad))
        sample_and_label_fail(capsys, listing, chain / "candidates.idx",
                              tmp_path / "out", "DegenerateInput", listing)

    def test_bad_report_inputs(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        metrics = tmp_path / "metrics.csv"
        cases = ((stats, "{}", "--stats"), (stats, "not json", "--stats"),
                 (metrics, "epoch,train_loss,val_acc,val_prec,val_rec\n1,0.9\n", "--metrics"))
        for path, text, flag in cases:
            path.write_text(text)
            rc, out = run(capsys, "report", flag, str(path), "--out", str(tmp_path / "figs"))
            assert rc == 1, text
            assert out["error"] == "DegenerateInput"
            assert str(path) in out["detail"]

    def test_bad_config_value_is_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = soon\n")
        for argv in (["--config", str(cfg)], ["--epochs", "soon"], ["--lr", "fast"]):
            rc, out = run(capsys, "train", "--dataset", "missing.idx", *argv)
            assert rc == 1, argv
            assert out["error"] == "DegenerateInput"

    def test_bad_gauss_sigma(self, capsys, tmp_path):
        listing = tmp_path / "scenes.json"
        listing.write_text(json.dumps({"master_seed": 0, "scene_count": 0,
                                       "skipped": {"overfilled": 0}, "scenes": []}))
        for sigma in ("-1", "nan", "inf"):
            rc, out = run(capsys, "sample", "--scenes", str(listing),
                          "--out", str(tmp_path), "--gauss-sigma", sigma)
            assert rc == 1, sigma
            assert out["error"] == "DegenerateInput"
            assert "gauss_sigma" in out["detail"]


    @pytest.mark.parametrize("argv, named", [
        (["make-scenes", "--master-seed", "-1"], "master_seed"),
        (["evaluate", "--policy", "random", "--master-seed", "-1"], "master_seed"),
        (["train", "--dataset", "none.idx", "--train-seed", "-1"], "seed"),
        (["make-scenes", "--friction-max", "inf"], "friction_range"),
        (["train", "--dataset", "none.idx", "--lr", "nan"], "learning rate"),
        (["train", "--dataset", "none.idx", "--lr", "inf"], "learning rate"),
        (["make-scenes", "--salt-pepper-frac", "0.5"], "salt_pepper_frac"),
        (["make-scenes", "--patch-size", "12"], "patch_size"),
        (["make-scenes", "--cable-count-max", "31"], "cable_count_range"),
        (["evaluate", "--policy", "random", "--eval-cable-max", "31"], "cable_count_range"),
    ], ids=["master_seed", "master_seed_evaluate", "train_seed", "friction_max", "lr_nan",
            "lr_inf", "salt_pepper_frac", "patch_size", "cable_count_max",
            "eval_cable_max"])
    def test_config_value_rejected_when_built(self, capsys, tmp_path, monkeypatch,
                                              argv, named):
        """A config value that would end in a traceback, or fail only after
        the work it configures (an `lr` of nan trains every epoch, a
        `salt_pepper_frac` of 0.5 passes make-scenes, a `patch_size` of 12
        passes make-scenes, sample and label and fails only in train, a
        pile of 31 cables fails only when a scene draws it), fails as the
        command builds its configuration, before any scene is built."""
        def no_scene(*args):
            raise AssertionError("a scene was built")
        monkeypatch.setattr(cli_mod, "settle_plan", no_scene)
        monkeypatch.setattr(policy_mod, "scene_candidates", no_scene)
        rc, out = run(capsys, *argv, "--out", str(tmp_path))
        assert (rc, out.get("error")) == (1, "DegenerateInput")
        assert named in out["detail"]


class TestStagedChain:
    def test_artifacts_exist(self, chain):
        for name in ("scenes/scenes.json", "candidates.idx", "candidates.blob",
                     "dataset.idx", "dataset.blob", "dataset.summary.json"):
            assert (chain / name).exists()

    def test_listing_contents(self, chain):
        listing = json.loads((chain / "scenes/scenes.json").read_text())
        assert listing["master_seed"] == 5
        assert len(listing["scenes"]) == 2
        for entry in listing["scenes"]:
            assert (chain / "scenes" / entry["manifest"]).exists()

    def test_matches_fused_generation(self, chain, tmp_path):
        cfg = DatasetConfig(scene_count=2, cable_count_range=(3, 4),
                            grasps_per_scene=4)
        generate_dataset(cfg, 5, tmp_path)
        for name in ("dataset.idx", "dataset.blob", "dataset.summary.json"):
            assert (chain / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_candidate_index_well_formed(self, chain):
        lines = (chain / "candidates.idx").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(r["patch_size_px"] == 64 for r in rows)
        offsets = [r["patch_offset"] for r in rows]
        assert offsets == sorted(offsets)


class TestTrainCommand:
    def test_train_writes_checkpoint_and_metrics(self, capsys, tmp_path):
        idx = toy_dataset(tmp_path)
        rc, out = run(capsys, "train", "--dataset", str(idx),
                      "--out", str(tmp_path / "ckpt"),
                      "--epochs", "3", "--batch-size", "8")
        assert rc == 0
        assert (tmp_path / "ckpt/qualitynet.gfqn").exists()
        metrics = (tmp_path / "ckpt/qualitynet_metrics.csv").read_text()
        header, *rows = metrics.strip().splitlines()
        assert header == "epoch,train_loss,val_acc,val_prec,val_rec"
        assert len(rows) == 3
        assert out["epochs"] == 3


class TestEvaluateCommand:
    def test_random_policy_deterministic_bytes(self, capsys, tmp_path):
        args = ["evaluate", "--policy", "random", "--trials", "3", "--seed", "7",
                "--eval-cable-min", "3", "--eval-cable-max", "4",
                "--candidates-per-scene", "4"]
        rc1, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        rc2, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert rc1 == 0 and rc2 == 0
        first = (tmp_path / "a/eval_random.json").read_bytes()
        second = (tmp_path / "b/eval_random.json").read_bytes()
        assert first == second
        stats = json.loads(first)
        assert stats["trials"] == 3
        assert 0.0 <= stats["rate"] <= 1.0


class TestReportCommand:
    def test_emits_svg_figures(self, capsys, tmp_path):
        stats = {"policy": "random", "trials": 4, "successes": 1, "rate": 0.25,
                 "wilson_low": 0.01, "wilson_high": 0.7,
                 "failures_by_reason": {"slip": 3},
                 "by_cable_count": {"3": {"trials": 2, "successes": 1, "rate": 0.5},
                                    "4": {"trials": 2, "successes": 0, "rate": 0.0}}}
        sp = tmp_path / "stats.json"
        sp.write_text(json.dumps(stats))
        mp = tmp_path / "metrics.csv"
        mp.write_text("epoch,train_loss,val_acc,val_prec,val_rec\n"
                      "1,0.9,0.5,0.4,0.6\n2,0.5,0.7,0.6,0.7\n")
        rc, out = run(capsys, "report", "--stats", str(sp), "--metrics", str(mp),
                      "--out", str(tmp_path / "figs"))
        assert rc == 0
        assert len(out["figures"]) == 2
        for fig in out["figures"]:
            text = open(fig).read()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")


class TestConfigPlumbing:
    def test_flag_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scene_count = 1\ncable_count_min = 2\n"
                       "cable_count_max = 2\nmaster_seed = 5\n")
        rc, out = run(capsys, "make-scenes", "--config", str(cfg),
                      "--scene-count", "2", "--out", str(tmp_path / "s"))
        assert rc == 0
        assert out["scenes"] + out["skipped"] == 2

    def test_removed_output_keys_rejected(self, capsys, tmp_path):
        # output directories are set by --out alone; a config file that still
        # names one fails instead of being ignored
        for key in ("dataset_dir", "checkpoint_dir", "report_dir"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = x\n")
            rc, out = run(capsys, "report", "--config", str(cfg))
            assert (rc, out.get("error")) == (1, "DegenerateInput"), key
            assert key in out["detail"]

    def test_removed_flags_are_usage_errors(self, capsys):
        for argv in (["sample", "--scenes", "s.json", "--stem", "x"],
                     ["report", "--dataset-dir", "x"]):
            assert dispatch(argv) == 2, argv

    def test_report_takes_no_overrides(self, capsys, tmp_path):
        # report reads no configuration value, so an override there is a
        # usage error, not a setting that does nothing
        for flags in (["--epochs", "5"], ["--scene-count", "3"], ["--seed", "1"]):
            assert dispatch(["report", *flags, "--out", str(tmp_path / "x")]) == 2, flags
        assert not (tmp_path / "x").exists()
        rc, out = run(capsys, "report", "--out", str(tmp_path / "x"))
        assert (rc, out) == (0, {"command": "report", "figures": []})


class TestDefaultOutputs:
    def test_chain_without_out_uses_fixed_names(self, capsys, tmp_path, monkeypatch):
        """With no --out, each command writes under its default directory
        in the working directory, under the fixed file names."""
        monkeypatch.chdir(tmp_path)
        small = ["--scene-count", "1", "--cable-count-min", "2", "--cable-count-max", "2",
                 "--grasps-per-scene", "4", "--master-seed", "5"]
        toy = toy_dataset(tmp_path / "toy")
        for argv in (["make-scenes", *small],
                     ["sample", "--scenes", "datasets/scenes/scenes.json", *small],
                     ["label", "--scenes", "datasets/scenes/scenes.json",
                      "--candidates", "datasets/candidates.idx", *small],
                     ["train", "--dataset", str(toy), "--epochs", "1", "--batch-size", "8"],
                     ["evaluate", "--policy", "random", "--trials", "1",
                      "--eval-cable-min", "2", "--eval-cable-max", "2",
                      "--candidates-per-scene", "4"],
                     ["report", "--stats", "reports/eval_random.json",
                      "--metrics", "checkpoints/qualitynet_metrics.csv"]):
            assert run(capsys, *argv)[0] == 0, argv
        for name in ("datasets/scenes/scenes.json", "datasets/candidates.idx",
                     "datasets/candidates.blob", "datasets/dataset.idx",
                     "datasets/dataset.blob", "datasets/dataset.summary.json",
                     "checkpoints/qualitynet.gfqn", "checkpoints/qualitynet_metrics.csv",
                     "reports/eval_random.json", "reports/eval_random.csv",
                     "reports/eval_random_by_count.svg",
                     "reports/qualitynet_metrics_curve.svg"):
            assert (tmp_path / name).is_file(), name
