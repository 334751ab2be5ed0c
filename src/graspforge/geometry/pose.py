"""Rigid transforms as translation + unit quaternion."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Pose3:
    """Rigid transform: p_world = R(rotation) @ p_local + translation.

    rotation is a unit quaternion (w, x, y, z), |q| = 1 within 1e-9: the
    program builds unit ones, and `scene.load_scene` checks a stored one.
    """

    translation: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        q = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", q)

    @staticmethod
    def from_axis_angle(axis, angle: float, translation=(0.0, 0.0, 0.0)) -> "Pose3":
        """Rotation by `angle` radians about a nonzero `axis`, then the translation."""
        a = np.asarray(axis, dtype=np.float64)
        a = a / np.linalg.norm(a)
        half = 0.5 * angle
        q = np.concatenate([[np.cos(half)], np.sin(half) * a])
        q /= np.linalg.norm(q)
        return Pose3(np.asarray(translation, dtype=np.float64), q)

    @staticmethod
    def from_yaw(yaw: float, translation=(0.0, 0.0, 0.0)) -> "Pose3":
        return Pose3.from_axis_angle((0.0, 0.0, 1.0), yaw, translation)

    def matrix(self) -> np.ndarray:
        """3x3 rotation matrix, read-only: built on first use and shared by
        every later call."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        w, x, y, z = self.rotation
        m = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        m.flags.writeable = False
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix().T + self.translation

    def compose(self, other: "Pose3") -> "Pose3":
        """self after other: (self * other).apply(p) == self.apply(other.apply(p))."""
        w1, x1, y1, z1 = self.rotation
        w2, x2, y2, z2 = other.rotation
        q = np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ])
        q /= np.linalg.norm(q)
        return Pose3(self.apply(other.translation), q)
