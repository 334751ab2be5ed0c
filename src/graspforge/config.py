"""Flat key = value run configuration shared by the command-line tools.

One plain-text file, named by --config, drives every pipeline stage; each
key can also be set on the command line, and a flag always wins over the
file. With no file, the defaults below apply. A stage's key defaults to its
stage config's value (`DatasetConfig`, `TrainConfig`, `PolicyConfig`), and
each converter's error names the keys, not the stage config's fields.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DegenerateInput
from .fileio import read_input
from .model import TrainConfig
from .policy import PolicyConfig
from .simlab import DatasetConfig


@dataclass
class RunConfig:
    master_seed: int = 0
    # scene generation and labeling
    scene_count: int = DatasetConfig.scene_count
    cable_count_min: int = DatasetConfig.cable_count_range[0]
    cable_count_max: int = DatasetConfig.cable_count_range[1]
    grasps_per_scene: int = DatasetConfig.grasps_per_scene
    friction_min: float = DatasetConfig.friction_range[0]
    friction_max: float = DatasetConfig.friction_range[1]
    gauss_sigma: float = DatasetConfig.gauss_sigma
    salt_pepper_frac: float = DatasetConfig.salt_pepper_frac
    patch_size: int = DatasetConfig.patch_size
    resample_attempts: int = DatasetConfig.resample_attempts
    # training
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    val_fraction: float = TrainConfig.val_fraction
    augment: bool = TrainConfig.augment
    train_seed: int = TrainConfig.seed
    # selection and evaluation
    policy: str = PolicyConfig.kind
    lam: float = PolicyConfig.lam
    trials: int = 100
    eval_cable_min: int = 5
    eval_cable_max: int = 15
    candidates_per_scene: int = 25

    def __post_init__(self):
        if self.master_seed < 0:
            raise DegenerateInput("master_seed must be non-negative")

    def dataset_config(self) -> DatasetConfig:
        return self._scenes(self.scene_count, (self.cable_count_min, self.cable_count_max),
                            self.grasps_per_scene, _DATASET_KEYS)

    def train_config(self) -> TrainConfig:
        with _named(_TRAIN_KEYS):
            return TrainConfig(
                epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
                val_fraction=self.val_fraction, augment=self.augment,
                seed=self.train_seed)

    def eval_config(self) -> DatasetConfig:
        """Scene settings of the evaluation trials, one scene per trial."""
        return self._scenes(self.trials, (self.eval_cable_min, self.eval_cable_max),
                            self.candidates_per_scene, _EVAL_KEYS)

    def _scenes(self, count: int, cables: tuple[int, int], grasps: int,
                keys: dict) -> DatasetConfig:
        with _named(keys):
            return DatasetConfig(
                scene_count=count, cable_count_range=cables, grasps_per_scene=grasps,
                friction_range=(self.friction_min, self.friction_max),
                gauss_sigma=self.gauss_sigma,
                salt_pepper_frac=self.salt_pepper_frac,
                patch_size=self.patch_size,
                resample_attempts=self.resample_attempts)

    def policy_config(self) -> PolicyConfig:
        return PolicyConfig(kind=self.policy, lam=self.lam)


# Stage-config fields whose RunConfig keys have other names: a range names
# both of its keys.
_DATASET_KEYS = {"cable_count_range": "(cable_count_min, cable_count_max)",
                 "friction_range": "(friction_min, friction_max)"}
_EVAL_KEYS = {"scene_count": "trials", "grasps_per_scene": "candidates_per_scene",
              "cable_count_range": "(eval_cable_min, eval_cable_max)",
              "friction_range": "(friction_min, friction_max)"}
_TRAIN_KEYS = {"seed": "train_seed"}


@contextmanager
def _named(keys: dict):
    """Re-raise a stage config's DegenerateInput, whose detail starts with
    the field it rejects, naming the RunConfig key or keys that set it."""
    try:
        yield
    except DegenerateInput as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in keys:
            raise
        raise DegenerateInput(f"{keys[field]} {rest}") from None


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise DegenerateInput(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise DegenerateInput(f"{key}: {exc}") from None
    return raw.strip("\"'")


def parse_config_text(text: str) -> dict:
    """Key = value lines into a typed dict; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DegenerateInput(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DegenerateInput(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_run_config(path: str | Path | None = None,
                    overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides.

    With no path, the file step is skipped. A string override (a
    command-line flag) is parsed like a file value, and a None override is
    skipped. A missing file raises DatasetNotFound.
    """
    values: dict = {}
    if path is not None:
        values.update(read_input(path, lambda data: parse_config_text(data.decode())))
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise DegenerateInput(f"unknown config key {key!r}")
        if val is not None:
            values[key] = _coerce(key, val) if isinstance(val, str) else val
    return RunConfig(**values)

