"""Run-configuration parsing: file format, flag overrides, converters."""

import pytest

from graspforge.config import RunConfig, load_run_config, parse_config_text
from graspforge.errors import DatasetNotFound, DegenerateInput
from graspforge.model import TrainConfig
from graspforge.policy import PolicyConfig
from graspforge.simlab import DatasetConfig


class TestParse:
    def test_basic_keys(self):
        values = parse_config_text("master_seed = 9\nlr = 0.01\npolicy = random\n")
        assert values == {"master_seed": 9, "lr": 0.01, "policy": "random"}

    def test_comments_and_blanks(self):
        text = "# full line comment\n\nscene_count = 12  # trailing\n"
        assert parse_config_text(text) == {"scene_count": 12}

    def test_quoted_string_values(self):
        values = parse_config_text('policy = "random"\n')
        assert values == {"policy": "random"}
        assert parse_config_text("policy = 'cgcnn'\n") == {"policy": "cgcnn"}

    def test_boolean_spellings(self):
        for raw, want in (("true", True), ("1", True), ("yes", True),
                          ("false", False), ("0", False), ("no", False)):
            assert parse_config_text(f"augment = {raw}")["augment"] is want

    def test_unknown_key_reports_line(self):
        with pytest.raises(DegenerateInput, match="line 2"):
            parse_config_text("master_seed = 1\nnot_a_key = 2\n")

    def test_missing_equals(self):
        with pytest.raises(DegenerateInput, match="key = value"):
            parse_config_text("just words\n")

    def test_bad_int(self):
        with pytest.raises(DegenerateInput, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_bad_bool(self):
        with pytest.raises(DegenerateInput, match="augment"):
            parse_config_text("augment = maybe\n")


class TestLoad:
    def test_defaults_without_file(self):
        cfg = load_run_config()
        assert cfg == RunConfig()

    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("master_seed = 11\ntrials = 250\n")
        cfg = load_run_config(p)
        assert cfg.master_seed == 11
        assert cfg.trials == 250
        assert cfg.epochs == RunConfig().epochs

    def test_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("master_seed = 11\n")
        cfg = load_run_config(p, {"master_seed": 99})
        assert cfg.master_seed == 99

    def test_none_overrides_are_skipped(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("master_seed = 11\n")
        cfg = load_run_config(p, {"master_seed": None})
        assert cfg.master_seed == 11

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetNotFound, match="absent.cfg"):
            load_run_config(tmp_path / "absent.cfg")

    def test_unknown_override_rejected(self):
        with pytest.raises(DegenerateInput, match="unknown"):
            load_run_config(None, {"warp_factor": 9})


class TestConverters:
    def test_defaults_are_the_stage_configs(self):
        # each stage key takes its default from its stage config, so the
        # converters of a default RunConfig give the stage defaults
        run = RunConfig()
        assert run.dataset_config() == DatasetConfig()
        assert run.train_config() == TrainConfig()
        assert run.policy_config() == PolicyConfig()

    def test_dataset_config_fields(self):
        cfg = RunConfig(scene_count=9, cable_count_min=2, cable_count_max=6,
                        grasps_per_scene=7, friction_min=0.2, friction_max=0.4)
        d = cfg.dataset_config()
        assert d.scene_count == 9
        assert d.cable_count_range == (2, 6)
        assert d.grasps_per_scene == 7
        assert d.friction_range == (0.2, 0.4)

    def test_train_config_fields(self):
        cfg = RunConfig(epochs=3, batch_size=16, lr=0.01, val_fraction=0.25,
                        augment=False, train_seed=5)
        t = cfg.train_config()
        assert (t.epochs, t.batch_size, t.lr) == (3, 16, 0.01)
        assert t.val_fraction == 0.25
        assert t.augment is False
        assert t.seed == 5

    def test_eval_config_fields(self):
        cfg = RunConfig(trials=33, eval_cable_min=6, eval_cable_max=12,
                        candidates_per_scene=11)
        e = cfg.eval_config()
        assert e.scene_count == 33
        assert e.cable_count_range == (6, 12)
        assert e.grasps_per_scene == 11

    def test_policy_config_fields(self):
        cfg = RunConfig(policy="random", lam=0.7)
        p = cfg.policy_config()
        assert p.kind == "random"
        assert p.lam == 0.7
