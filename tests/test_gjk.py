import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from graspforge import scene as scene_mod
from graspforge import simlab
from graspforge.errors import ConvergenceWarning
from graspforge.geometry import Pose3, box_mesh, convex_hull, gjk_world
from graspforge.simlab import DatasetConfig, execute_grasp, sampled_scenes, scene_plan, settle_plan

import oracles


def unit_cube_piece():
    return convex_hull(box_mesh(np.zeros(3), (0.5, 0.5, 0.5)).vertices)


def cube_at(x: float, y: float = 0.0) -> np.ndarray:
    """World vertices of the unit cube posed at (x, y, 0)."""
    return Pose3(np.array([x, y, 0.0])).apply(unit_cube_piece().vertices)


def random_box(rng):
    half = rng.uniform(0.2, 1.5, size=3)
    q = oracles.quat_from_rng(rng)
    trans = rng.uniform(-3.0, 3.0, size=3)
    piece = convex_hull(box_mesh(np.zeros(3), half).vertices)
    return half, q, trans, piece


def posed(piece, t, q) -> np.ndarray:
    return Pose3(t, q).apply(piece.vertices)


class TestExamples:
    def test_cubes_three_apart(self):
        d = gjk_world(cube_at(0.0), cube_at(3.0)).distance
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_overlapping_cubes(self):
        assert gjk_world(cube_at(0.0), cube_at(0.5, 0.2)).distance == 0.0

    def test_touching_cubes(self):
        assert gjk_world(cube_at(0.0), cube_at(1.0)).distance == 0.0

    def test_witness_points_realize_distance(self):
        a = unit_cube_piece()
        r = gjk_world(Pose3.from_yaw(0.4, (2.5, 1.0, 0.3)).apply(a.vertices), cube_at(0.0))
        assert np.linalg.norm(r.point_a - r.point_b) == pytest.approx(r.distance, abs=1e-7)
        assert r.converged


class TestSatOracle:
    def test_matches_sat_on_random_box_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            ha, qa, ta, pa = random_box(rng)
            hb, qb, tb, pb = random_box(rng)
            got = gjk_world(posed(pa, ta, qa), posed(pb, tb, qb)).distance
            want = oracles.sat_box_distance(
                ha, oracles.quat_matrix(qa), ta, hb, oracles.quat_matrix(qb), tb)
            assert got == pytest.approx(want, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            _, qa, ta, pa = random_box(rng)
            _, qb, tb, pb = random_box(rng)
            d1 = gjk_world(posed(pa, ta, qa), posed(pb, tb, qb)).distance
            d2 = gjk_world(posed(pb, tb, qb), posed(pa, ta, qa)).distance
            assert d1 == pytest.approx(d2, abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            _, qa, ta, pa = random_box(rng)
            _, qb, tb, pb = random_box(rng)
            d0 = gjk_world(posed(pa, ta, qa), posed(pb, tb, qb)).distance
            g = Pose3(rng.uniform(-5, 5, size=3), oracles.quat_from_rng(rng))
            ga, gb = g.compose(Pose3(ta, qa)), g.compose(Pose3(tb, qb))
            d1 = gjk_world(ga.apply(pa.vertices), gb.apply(pb.vertices)).distance
            assert d1 == pytest.approx(d0, abs=1e-6)


class TestErosion:
    def test_separated_cubes_gain_sum_of_radii(self):
        r = gjk_world(cube_at(0.0), cube_at(3.0), erosion_a=0.25, erosion_b=0.25)
        assert r.distance == pytest.approx(2.5, abs=1e-9)

    def test_overlap_depth_thresholding(self):
        # cubes overlapping 0.4 on x: still colliding when eroded less than
        # the depth, separated once combined erosion exceeds it
        shallow = gjk_world(cube_at(0.0), cube_at(0.6), erosion_a=0.15, erosion_b=0.15)
        assert shallow.distance == 0.0
        deep = gjk_world(cube_at(0.0), cube_at(0.6), erosion_a=0.25, erosion_b=0.25)
        assert deep.distance == pytest.approx(0.1, abs=1e-9)


class TestEarlyExit:
    def test_max_distance_lower_bound(self):
        r = gjk_world(cube_at(0.0), cube_at(50.0), max_distance=5.0)
        assert r.converged
        assert r.distance > 5.0  # proven separation, not the exact distance

    def test_max_distance_keeps_near_queries_exact(self):
        r = gjk_world(cube_at(0.0), cube_at(3.0), max_distance=5.0)
        assert r.distance == pytest.approx(2.0, abs=1e-6)


class TestRandomHulls:
    def test_optimality_certificate_on_separated_clouds(self):
        # witness points must be feasible (inside each hull, distance apart)
        # and the support gap along the witness axis must match: that pins
        # the exact optimum from both sides
        rng = np.random.default_rng(23)
        for _ in range(50):
            pa = convex_hull(rng.normal(size=(30, 3)))
            pb = convex_hull(rng.normal(size=(30, 3)) + np.array([8.0, 0.0, 0.0]))
            r = gjk_world(pa.vertices, pb.vertices)
            assert r.distance > 0
            assert oracles.piece_contains(pa, r.point_a, tol=1e-7).all()
            assert oracles.piece_contains(pb, r.point_b, tol=1e-7).all()
            assert np.linalg.norm(r.point_a - r.point_b) == pytest.approx(r.distance, abs=1e-9)
            u = (r.point_b - r.point_a) / r.distance
            lower = float((pb.vertices @ u).min() - (pa.vertices @ u).max())
            assert r.distance == pytest.approx(lower, abs=1e-7)

    def test_no_warning_on_ordinary_queries(self):
        rng = np.random.default_rng(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            for _ in range(200):
                va = rng.normal(size=(12, 3))
                vb = rng.normal(size=(12, 3)) + rng.uniform(-2, 2, size=3)
                gjk_world(va, vb)


def _flat(v):
    """Vertices flattened onto z = 0, as the scene's blocking-pair test queries them."""
    return np.column_stack([v[:, :2], np.zeros(len(v))])


def _touching(rng, va, vb):
    """vb moved along a random axis until its hull touches va's hull."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return vb + ((va @ u).max() - (vb @ u).min()) * u


def _tube(rng, lift):
    """A cable-like piece: two 12-gon rings of radius 2 around a random
    8-unit axis, lowest vertex `lift` above z = 0."""
    axis = rng.normal(size=3)
    axis[2] *= 0.3
    axis /= np.linalg.norm(axis)
    u = np.cross(axis, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    ring = np.array([2.0 * (np.cos(t) * u + np.sin(t) * np.cross(axis, u))
                     for t in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)])
    center = rng.uniform(-20.0, 20.0, size=3)
    v = np.concatenate([ring + center, ring + center + 8.0 * axis])
    return v + np.array([0.0, 0.0, lift - v[:, 2].min()])


def _bit_identity_cases():
    """Seeded (verts_a, verts_b, erosion_a, erosion_b, max_distance) cases."""
    rng = np.random.default_rng(2402)
    box = box_mesh(np.zeros(3), (0.5, 0.5, 0.5)).vertices
    floor = box_mesh(np.array([0.0, 0.0, -4.0]), (108.0, 83.0, 4.0)).vertices
    cases = []
    for _ in range(40):
        # the settling loop's queries: a piece over the bin floor, and a
        # piece against a piece resting on it
        tube = _tube(rng, rng.uniform(0.0, 0.05))
        other = _tube(rng, rng.uniform(0.0, 4.0))
        resting = _tube(rng, 0.0)
        far = 10.0 ** rng.uniform(3.0, 5.0) * rng.normal(size=3)
        cases += [
            (tube, floor, 0.0, 0.0, 0.025),
            (floor, tube, 0.0, 0.0, None),
            (resting, floor, 0.0, 0.0, None),
            (floor, resting, 0.0, 0.0, None),
            (tube, other, 0.0, 0.0, None),
            (tube, _touching(rng, tube, other), 0.0, 0.0, 1.0),
            # far apart: the gap test and ties between parallel faces
            # then turn on single ulps
            (tube + far, other, 0.0, 0.0, None),
            (other, tube + far, 0.0, 0.0, None),
            (box + far, box, 0.0, 0.0, None),
            (floor, tube + np.array([0.0, 0.0, far[2]]), 0.0, 0.0, None),
        ]
    for _ in range(40):
        va = rng.normal(size=(rng.integers(4, 30), 3))
        vb = rng.normal(size=(rng.integers(4, 30), 3))
        off = rng.normal(size=3)
        cases += [
            (va, vb + 6.0 * off, 0.0, 0.0, None),                 # separated
            (va, _touching(rng, va, vb), 0.0, 0.0, None),        # touching
            (va, vb + 0.3 * off, 0.0, 0.0, None),                # overlapping
            (va[:1], vb + off, 0.0, 0.0, None),                  # point vs hull
            (_flat(va), _flat(vb + 2.0 * off), 0.0, 0.0, 0.2),   # z = 0 pair
            (va, vb + 2.0 * off, 0.1, 0.05, None),               # eroded
            (va, vb + 8.0 * off, 0.0, 0.0, 1.0),                 # max_distance hit
            (va, vb + 2.0 * off, 0.0, 0.0, 50.0),                # max_distance missed
            (np.repeat(va[:3], 3, axis=0), vb + off, 0.0, 0.0, None),  # duplicates
        ]
        rot = oracles.quat_matrix(oracles.quat_from_rng(rng))
        cases += [
            (box, box @ rot.T + rng.uniform(-1.5, 1.5, size=3), 0.0, 0.0, None),
            (box, _touching(rng, box, box @ rot.T), 0.0, 0.0, None),
            (box, box + np.array([1.0, rng.uniform(-0.5, 0.5), 0.0]), 0.0, 0.0, None),
            (box, box.copy(), 0.0, 0.0, None),
        ]
    # Rotated boxes face to face, touching or far apart. A dot that only
    # decides a comparison (support vertex, face choice, inside test, gap
    # test) changes the result only when its operands are within an ulp of
    # a tie; parallel faces make such ties common.
    for _ in range(300):
        rot = oracles.quat_matrix(oracles.quat_from_rng(rng))
        turned = box @ rot.T
        slide = rot[:, 1] * rng.uniform(-0.5, 0.5)
        cases += [
            (turned + rot[:, 0] + slide + rot[:, 2] * rng.uniform(-0.5, 0.5), turned,
             0.0, 0.0, None),
            # sliding along one face axis only keeps vertex pairs tied
            (turned + 10.0 ** rng.uniform(3.0, 5.0) * rot[:, 0] + slide, turned,
             0.0, 0.0, None),
        ]
    return cases


class TestBitIdentity:
    """gjk_world must repeat the reference kernel's floats exactly: settled
    poses, and with them the pinned artifact bytes, depend on every bit."""

    @staticmethod
    def _fingerprint(r):
        return (np.float64(r.distance).tobytes(), r.converged,
                r.point_a.dtype, r.point_a.tobytes(), r.point_b.dtype, r.point_b.tobytes())

    def test_matches_reference_kernel(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for i, case in enumerate(_bit_identity_cases()):
                want = self._fingerprint(oracles.gjk_world_reference(*case))
                assert self._fingerprint(gjk_world(*case)) == want, f"case {i}"

    def test_cap_hit_warns_like_reference(self):
        # a NaN vertex defeats every termination test, so both kernels run
        # to the iteration cap
        va = np.random.default_rng(4).normal(size=(8, 3))
        vb = va + 3.0
        vb[2, 1] = np.nan
        with pytest.warns(ConvergenceWarning):
            want = oracles.gjk_world_reference(va, vb)
        with pytest.warns(ConvergenceWarning):
            got = gjk_world(va, vb)
        assert not got.converged
        assert self._fingerprint(got) == self._fingerprint(want)


class TestFreshProcess:
    def test_cap_hit_alone(self):
        # a NaN's sign may differ only in a process whose first query this
        # is, so the iteration-cap case runs alone in a new interpreter too
        root = Path(__file__).parents[1]
        src = str(Path(scene_mod.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestBitIdentity::test_cap_hit_warns_like_reference"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout


class TestReplay:
    """Every query that a seeded four-cable settle and the grasps on its
    candidates make, against the frozen kernel. The witnesses are read
    after the pile and the grasps are done, so a result summed late must
    still hold the bytes it would have had at once."""

    def test_settle_and_grasp_queries_match_reference(self, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            r = gjk_world(*args, **kwargs)
            calls.append((tuple(np.array(a) if isinstance(a, np.ndarray) else a
                                for a in args), kwargs, r))
            return r

        monkeypatch.setattr(scene_mod, "gjk_world", recording)
        monkeypatch.setattr(simlab, "gjk_world", recording)
        cfg = DatasetConfig(cable_count_range=(3, 4))
        plan = scene_plan(cfg, 0, 0)
        pile = settle_plan(cfg, plan)
        settled = len(calls)
        [(_, _, cands, _)] = sampled_scenes(cfg, [(0, pile, plan)], Counter())
        labels = {execute_grasp(pile, pose, plan["f"]).label for pose, _ in cands}
        monkeypatch.undo()
        # both labels: some grasps read the witnesses of their closing contacts
        assert labels == {0, 1}
        assert 0 < settled < len(calls)
        for i, (args, kwargs, got) in enumerate(calls):
            want = TestBitIdentity._fingerprint(oracles.gjk_world_reference(*args, **kwargs))
            assert TestBitIdentity._fingerprint(got) == want, f"call {i}"


class TestMaxDistance:
    """max_distance only adds an exit to the kernel's iterations. A query
    that did not take that exit under a bound m repeats its result under
    any bound of at least m, and under none: `scene._contact_points`
    reuses resting-step results on that ground."""

    def test_replayed_queries_repeat_under_larger_bounds(self, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            r = gjk_world(*args, **kwargs)
            calls.append((tuple(np.array(a) for a in args), kwargs, r))
            return r

        # the queries that TestReplay checks against the frozen kernel
        monkeypatch.setattr(scene_mod, "gjk_world", recording)
        monkeypatch.setattr(simlab, "gjk_world", recording)
        cfg = DatasetConfig(cable_count_range=(3, 4))
        plan = scene_plan(cfg, 0, 0)
        pile = settle_plan(cfg, plan)
        [(_, _, cands, _)] = sampled_scenes(cfg, [(0, pile, plan)], Counter())
        for pose, _ in cands:
            execute_grasp(pile, pose, plan["f"])
        monkeypatch.undo()
        checked = {"bounded": 0, "early": 0}
        for args, kwargs, got in calls:
            m = kwargs.get("max_distance")
            want = TestBitIdentity._fingerprint(got)
            if m is not None and got.early_exit:
                checked["early"] += 1
                continue
            bounds = [None]
            if m is not None and m <= 2.0:
                checked["bounded"] += 1
                bounds += [m, 0.5 * (m + 2.0), 2.0]
            for bound in bounds:
                again = gjk_world(*args, **dict(kwargs, max_distance=bound))
                assert TestBitIdentity._fingerprint(again) == want, (m, bound)
        # both kinds occur: bounded queries that converged, and early exits
        assert checked["bounded"] > 100 and checked["early"] > 100, checked


class TestDotForms:
    """The kernel forms its dots with `ndarray.dot` and `np.vecdot`, the
    frozen reference with `@`. All must reach the same BLAS ddot and gemv,
    so that a numpy or BLAS upgrade that parts them fails here rather than
    shifting settled poses unnoticed."""

    @staticmethod
    def _spread(rng, shape):
        # finite values with magnitudes from about 1e-3 to 1e3, both signs
        return rng.choice((-1.0, 1.0), size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)

    def test_vector_dot(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            x, y = self._spread(rng, 3), self._spread(rng, 3)
            assert np.float64(x.dot(y)).tobytes() == np.float64(x @ y).tobytes()

    @pytest.mark.parametrize("n", [1, 8, 24, 48])
    def test_support_gemv(self, n):
        rng = np.random.default_rng(n)
        for _ in range(500):
            verts = self._spread(rng, (n, 3))
            d = self._spread(rng, 3)
            d = d / np.sqrt(d.dot(d))
            assert verts.dot(d).tobytes() == (verts @ d).tobytes()

    @staticmethod
    def _with_specials(rng, values):
        # about one entry in six replaced by a NaN of either sign, an
        # infinity or a signed zero
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
        hit = rng.random(values.shape) < 1 / 6
        values[hit] = rng.choice(specials, size=int(hit.sum()))
        return values

    def test_views_into_one_array(self):
        # a body keeps its pieces' vertices in one array, so the kernel
        # reads views at any element offset; each must give a copy's bytes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for case in _bit_identity_cases()[::4]:
                va, vb, ea, eb, m = case
                want = TestBitIdentity._fingerprint(gjk_world(va.copy(), vb.copy(), ea, eb, m))
                for offset in range(8):
                    block = np.empty(offset + va.size + vb.size)
                    a = block[offset:offset + va.size].reshape(va.shape)
                    b = block[offset + va.size:].reshape(vb.shape)
                    a[...], b[...] = va, vb
                    got = TestBitIdentity._fingerprint(gjk_world(a, b, ea, eb, m))
                    assert got == want, offset

    def test_vecdot_rows(self):
        rng = np.random.default_rng(25)
        with np.errstate(all="ignore"):
            for _ in range(500):
                k = int(rng.integers(1, 9))
                x = self._with_specials(rng, self._spread(rng, (k, 3)))
                y = self._with_specials(rng, self._spread(rng, (k, 3)))
                rows = np.array([a.dot(b) for a, b in zip(x, y)])
                assert np.vecdot(x, y).tobytes() == rows.tobytes()
                assert np.vecdot(x, x).tobytes() == np.array([a.dot(a) for a in x]).tobytes()
                # the broadcast form: every row of p against every row of e
                p = self._with_specials(rng, self._spread(rng, (int(rng.integers(1, 5)), 3)))
                e = self._with_specials(rng, self._spread(rng, (int(rng.integers(1, 6)), 3)))
                table = np.array([[a.dot(b) for b in e] for a in p])
                assert np.vecdot(p[:, None], e).tobytes() == table.tobytes()
