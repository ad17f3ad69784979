import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.measures import (
    _CONTAIN_EPS,
    EXHAUSTIVE_MAX_ATOMS,
    DiscreteMeasure,
    _mask_tuple,
    _slack_table,
    _subset_slack,
    check_conditions,
    polar_sigma_area,
    spherical_hull,
)
from hypcurv.minkowski import normalize_rows, unit_rows


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def measure_m1(angles, weights):
    return DiscreteMeasure(1, dirs_from_angles(angles), np.asarray(weights, float))


def cap_points(rng, n, radius):
    """n uniform points in the cap of the given angular radius about a random center."""
    center = hc.minkowski.random_unit_vectors(2, 1, rng)[0]
    e1 = np.cross(center, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    tilt = np.arccos(rng.uniform(np.cos(radius), 1.0, size=n))
    turn = rng.uniform(0.0, 2.0 * np.pi, size=n)
    ring = np.cos(turn)[:, None] * e1 + np.sin(turn)[:, None] * e2
    return np.cos(tilt)[:, None] * center + np.sin(tilt)[:, None] * ring


def perimeter(corners):
    """Length of the closed spherical polygon through the ordered corners."""
    nxt = np.roll(corners, -1, axis=0)
    sines = np.linalg.norm(np.cross(corners, nxt), axis=1)
    return float(np.arctan2(sines, np.einsum("ij,ij->i", corners, nxt)).sum())


class TestValidation:
    def test_rejects_nonunit(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(1, np.array([[1.0, 0.2], [0.0, 1.0]]), np.ones(2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            measure_m1([0.0, 1.0], [1.0, 0.0])

    def test_rejects_empty_measure(self):
        with pytest.raises(ValueError, match="at least one atom"):
            DiscreteMeasure(2, np.zeros((0, 3)), np.zeros(0))

    def test_rejects_near_duplicates(self):
        with pytest.raises(ValueError):
            measure_m1([0.0, 1e-10, 2.0], [1.0, 1.0, 1.0])


class TestUnitRows:
    @pytest.mark.parametrize("m", [1, 2])
    def test_idempotent_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        raw = rng.normal(size=(100_000, m + 1))
        once = unit_rows(raw, np.inf, "unreachable")
        assert np.array_equal(unit_rows(once, 1e-8, "not unit"), once)
        # plain division once, as random_unit_vectors does, then the constructors
        divided = normalize_rows(raw)
        assert np.array_equal(unit_rows(divided, 1e-8, "not unit"), divided)
        assert np.abs(np.linalg.norm(once, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps

    def test_tolerance_and_error_kept(self):
        with pytest.raises(ValueError, match="^not unit$"):
            unit_rows(np.array([[1.0, 2e-4], [0.0, 1.0]]), 1e-8, "not unit")
        with pytest.raises(ValueError, match="^not unit$"):
            unit_rows(np.array([[np.nan, 0.0]]), 1e-8, "not unit")
        out = unit_rows(np.array([[1.0 + 5e-9, 0.0]]), 1e-8, "not unit")
        assert np.array_equal(out, [[1.0, 0.0]])

    @pytest.mark.parametrize("m", [1, 2])
    def test_constructor_chain_keeps_directions(self, m, criterion06_bodies):
        # the chain a round trip runs: body -> measure support -> rebuilt body
        for i, p in enumerate(criterion06_bodies[m]):
            mu = DiscreteMeasure(m, p.directions, np.ones(p.n_vertices))
            back = hc.from_vertices(m, mu.points, p.radii)
            assert np.array_equal(back.directions, p.directions), f"m={m} body {i}"


class TestHulls:
    def test_arc_hull(self):
        ends = dirs_from_angles([0.0, np.pi / 2])
        hull = spherical_hull(ends)
        assert not hull.is_full
        assert np.array_equal(hull.extreme_rays, ends)
        assert hull.polar_area == pytest.approx(np.pi / 2)
        assert polar_sigma_area(hull) == pytest.approx(np.pi / 2)

    def test_arc_over_half_is_full(self):
        hull = spherical_hull(dirs_from_angles([0.0, 2.0, 4.0]))
        assert hull.is_full

    def test_singletons(self):
        assert polar_sigma_area(spherical_hull(dirs_from_angles([0.3]))) == pytest.approx(np.pi)
        one = spherical_hull(np.array([[0.0, 0.0, 1.0]]))
        assert polar_sigma_area(one) == pytest.approx(2 * np.pi)

    def test_octant_polar_is_octant(self):
        hull = spherical_hull(np.eye(3))
        assert polar_sigma_area(hull) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_octant_polar_monte_carlo_oracle(self):
        # membership fraction of {z : <x_i, z> <= 0 for all i} estimates the area
        rng = np.random.default_rng(0)
        z = rng.normal(size=(200_000, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        frac = np.all(z @ np.eye(3).T <= 0, axis=1).mean()
        mc = 4 * np.pi * frac
        assert polar_sigma_area(spherical_hull(np.eye(3))) == pytest.approx(mc, rel=0.02)

    def test_two_point_lune(self):
        hull = spherical_hull(np.array([[1.0, 0, 0], [0, 1, 0]]))
        assert polar_sigma_area(hull) == pytest.approx(2 * (np.pi - np.pi / 2))

    def test_tetrahedron_cone_is_full_sphere(self):
        dirs = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        assert spherical_hull(dirs).is_full

    def test_antipodal_pair_zero_polar(self):
        hull = spherical_hull(np.array([[0.0, 0, 1], [0, 0, -1]]))
        assert polar_sigma_area(hull) == pytest.approx(0.0)

    def test_hemisphere_spanning_plus_pole(self):
        pts = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]])
        hull = spherical_hull(pts)
        assert not hull.is_full
        assert polar_sigma_area(hull) == pytest.approx(0.0)
        assert hull.contains(np.array([0.0, 0.0, 1.0]))
        assert hull.contains(np.array([0.6, 0.0, 0.8]))
        assert not hull.contains(np.array([0.0, 0.0, -1.0]))

    def test_polar_antitone(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(4, 3))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        center = base.sum(axis=0)
        center /= np.linalg.norm(center)
        small = np.vstack([0.8 * center + 0.2 * b for b in base])
        small /= np.linalg.norm(small, axis=1, keepdims=True)
        inner = spherical_hull(small)
        outer = spherical_hull(np.vstack([small, base]))
        if not outer.is_full:
            assert polar_sigma_area(inner) >= polar_sigma_area(outer)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            spherical_hull(np.zeros((0, 2)))

    def test_extreme_rays_give_polar_area(self):
        # the polar of a spherical convex polygon has area 2 pi - perimeter
        rng = np.random.default_rng(0)
        for trial in range(500):
            pts = cap_points(rng, int(rng.integers(3, 9)), rng.uniform(0.05, 0.5 * np.pi - 1e-3))
            hull = spherical_hull(pts)
            gap = 2.0 * np.pi - perimeter(hull.extreme_rays) - hull.polar_area
            assert abs(gap) <= 1e-12, f"draw {trial}: {gap}"
            assert all(any(np.array_equal(r, p) for p in pts) for r in hull.extreme_rays)

    def test_arc_extreme_rays_are_its_ends(self):
        angles = np.array([0.1, 0.7, 0.4, 1.2])
        pts = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
        hull = spherical_hull(pts)
        assert {tuple(r) for r in hull.extreme_rays} == {tuple(pts[0]), tuple(pts[3])}
        assert 2.0 * np.pi - perimeter(hull.extreme_rays) == pytest.approx(hull.polar_area)

    def test_full_sphere_polar_rejected(self):
        full = spherical_hull(dirs_from_angles([0.0, 2.0, 4.0]))
        with pytest.raises(ValueError):
            polar_sigma_area(full)


class TestConditions:
    def test_valid_three_point(self):
        w = (2 * np.pi + 0.3) / 3
        mu = measure_m1([0.0, 2 * np.pi / 3, 4 * np.pi / 3], [w, w, w])
        rep = check_conditions(mu)
        assert rep.all_ok
        # hand oracle: singleton and adjacent-pair arcs realize the minimum
        slack_singleton = 2 * w - np.pi
        slack_pair = w - (np.pi - 2 * np.pi / 3)
        assert rep.alexandrov_slack == pytest.approx(min(slack_singleton, slack_pair), abs=1e-12)

    def test_clustered_fails_alexandrov(self):
        mu = measure_m1(0.1 * np.arange(4) / 3.0, [1.6] * 4)
        rep = check_conditions(mu)
        assert rep.total_mass_ok and rep.vertex_ok and not rep.alexandrov_ok
        assert rep.alexandrov_slack == pytest.approx(-(np.pi - 0.1), abs=1e-12)
        assert rep.worst_witness == (0, 1, 2, 3)

    def test_vertex_violation(self):
        mu = measure_m1(2 * np.pi * np.arange(4) / 4, [3.2, 1.2, 1.2, 1.2])
        rep = check_conditions(mu)
        assert not rep.vertex_ok
        assert rep.vertex_argmax == 0
        assert rep.vertex_max_weight == pytest.approx(3.2)

    def test_total_mass_violation(self):
        mu = measure_m1(2 * np.pi * np.arange(3) / 3, [1.0, 1.0, 1.0])
        rep = check_conditions(mu)
        assert not rep.total_mass_ok

    def test_exhaustive_refused_above_20(self):
        assert EXHAUSTIVE_MAX_ATOMS == 20
        rng = np.random.default_rng(2)
        pts = hc.minkowski.random_unit_vectors(2, 21, rng)
        mu = DiscreteMeasure(2, pts, np.ones(21))
        with pytest.raises(ValueError):
            check_conditions(mu)

    def test_refusal_names_the_limit(self):
        body = hc.random_polytope(2, 21, np.random.default_rng(21))
        with pytest.raises(ValueError, match="EXHAUSTIVE_MAX_ATOMS"):
            check_conditions(hc.curvature_measure_angles(body))

    def test_one_and_two_atoms_m2(self):
        # a point's polar is a hemisphere; two orthogonal points' is a lune
        one = check_conditions(DiscreteMeasure(2, np.array([[0.0, 0.0, 1.0]]), [13.0]))
        assert one.subsets_evaluated == 1 and one.worst_witness == (0,)
        assert one.total_mass_ok and not one.vertex_ok and not one.alexandrov_ok
        assert one.alexandrov_slack == pytest.approx(-2.0 * np.pi, abs=1e-12)
        two = check_conditions(DiscreteMeasure(2, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                                               [6.0, 6.0]))
        assert two.subsets_evaluated == 3 and two.worst_witness == (0, 1)
        assert not two.total_mass_ok and two.vertex_ok and not two.alexandrov_ok
        assert two.alexandrov_slack == pytest.approx(-np.pi, abs=1e-12)

    def test_report_counts_subsets_and_time(self, octahedron):
        mu = hc.curvature_measure_angles(octahedron)
        full = check_conditions(mu)
        assert full.subsets_evaluated == 2 ** 6 - 1
        # m=1: every arc shorter than a half turn between two support points
        arcs = check_conditions(measure_m1([0.0, 2.0, 4.0], [2.5, 2.5, 2.5]))
        assert arcs.subsets_evaluated == 3 + 3
        for rep in (full, arcs):
            assert 0.0 < rep.wall_time < 60.0
            d = rep.to_dict()
            assert d["subsets_evaluated"] == rep.subsets_evaluated
            assert d["wall_time"] == rep.wall_time

    def test_forward_measures_pass(self, octahedron):
        rng = np.random.default_rng(3)
        for _ in range(5):
            poly = hc.random_polytope(1, int(rng.integers(4, 8)), rng)
            rep = check_conditions(hc.curvature_measure_integral(poly))
            assert rep.all_ok and rep.alexandrov_slack > 0
        rep = check_conditions(hc.curvature_measure_angles(octahedron))
        assert rep.all_ok


def brute_force_arc_slack(mu, n_grid=1000):
    """Independent oracle: scan arcs with endpoints on a uniform angle grid."""
    angles = np.arctan2(mu.points[:, 1], mu.points[:, 0]) % (2 * np.pi)
    total = mu.weights.sum()
    grid = 2 * np.pi * np.arange(n_grid) / n_grid
    best = np.inf
    for a in grid:
        rel = (angles - a) % (2 * np.pi)
        for length in np.linspace(0.0, np.pi - 1e-9, 200):
            inside = (rel <= length) | (rel >= 2 * np.pi - 1e-12)
            slack = (total - mu.weights[inside].sum()) - (np.pi - length)
            if slack < best:
                best = slack
    return best


def test_alexandrov_agrees_with_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        if np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.05:
            continue
        weights = rng.uniform(0.5, 3.0, size=n)
        mu = measure_m1(angles, weights)
        exact = check_conditions(mu).alexandrov_slack
        brute = brute_force_arc_slack(mu)
        # the brute-force scan only lower-bounds sigma(omega*) up to grid step
        assert brute >= exact - 1e-9
        assert brute <= exact + 0.05


def arc_loop(mu):
    """The former m=1 check: one containment mask per arc, O(N^3) in all."""
    angles = np.arctan2(mu.points[:, 1], mu.points[:, 0]) % (2.0 * np.pi)
    best, witness, arcs = np.inf, (), 0
    for i in range(mu.size):
        for j in range(mu.size):
            length = (angles[j] - angles[i]) % (2.0 * np.pi)
            if length >= np.pi:
                continue
            arcs += 1
            rel = (angles - angles[i]) % (2.0 * np.pi)
            inside = (rel <= length + _CONTAIN_EPS) | (rel >= 2.0 * np.pi - _CONTAIN_EPS)
            slack = (mu.total - mu.weights[inside].sum()) - (np.pi - length)
            if slack < best - 1e-15:
                best, witness = slack, tuple(int(t) for t in np.nonzero(inside)[0])
    return best, witness, arcs


def test_arc_check_matches_the_per_arc_loop():
    rng = np.random.default_rng(12)
    cases = [measure_m1(2 * np.pi * np.arange(n) / n, np.full(n, 2.0)) for n in (3, 4, 6, 12)]
    for _ in range(60):
        n = int(rng.integers(1, 40))
        angles = np.unique(np.round(rng.uniform(0.0, rng.choice([1.0, 3.0, 7.0]), n), 6))
        cases.append(measure_m1(angles, rng.uniform(0.1, 3.0, len(angles))))
    for mu in cases:
        rep = check_conditions(mu)
        best, witness, arcs = arc_loop(mu)
        assert rep.alexandrov_slack == pytest.approx(best, abs=1e-12)
        assert rep.worst_witness == witness and rep.subsets_evaluated == arcs


_RSS_RISE = """
import json, resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from hypcurv.measures import DiscreteMeasure, check_conditions
data = np.load(sys.argv[2])
mu = DiscreteMeasure(1, data["points"], data["weights"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rep = check_conditions(mu)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0
print(json.dumps({"rise_mb": rise, **rep.to_dict()}))
"""


def test_arc_check_memory_stays_linear(tmp_path):
    # 4096 atoms: an N x N array of floats alone is 134 MB; the check forms
    # its slacks in row blocks, so a fresh process's peak rises far less
    rng = np.random.default_rng(4096)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4096))
    mu = measure_m1(angles, rng.uniform(0.001, 0.004, 4096))
    np.savez(tmp_path / "mu.npz", points=mu.points, weights=mu.weights)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_RISE, str(Path(hc.__file__).parents[1]),
         str(tmp_path / "mu.npz")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["rise_mb"] < 50.0
    # the per-arc values, one start point at a time: sorted by their
    # angle from i, the points up to each end are the arc's cover
    best, arcs = np.inf, 0
    for i in range(mu.size):
        rel = (angles - angles[i]) % (2.0 * np.pi)
        order = np.argsort(rel, kind="stable")
        short = rel[order] < np.pi
        mass = np.cumsum(mu.weights[order])[short]
        best = min(best, float(((mu.total - mass) - (np.pi - rel[order][short])).min()))
        arcs += int(short.sum())
    assert rep["alexandrov_slack"] == pytest.approx(best, abs=1e-12)
    assert rep["subsets_evaluated"] == arcs
    hull = spherical_hull(mu.points[rep["worst_witness"]])
    inside = np.flatnonzero([hull.contains(q) for q in mu.points])
    assert inside.tolist() == rep["worst_witness"]
    witness = (mu.total - mu.weights[inside].sum()) - polar_sigma_area(hull)
    assert witness == pytest.approx(best, abs=1e-12)


_HULL_RSS_RISE = """
import json, resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from hypcurv.measures import spherical_hull
pts = np.load(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
hull = spherical_hull(pts)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0
print(json.dumps({"rise_mb": rise, "full": hull.is_full,
                  "inside": [hull.contains(q) for q in pts]}))
"""


def test_cone_hull_memory_stays_quadratic(tmp_path):
    # 622 points in a cap: the planes of all point pairs against all points
    # at once are a 386 262 x 622 array, 1.9 GB; the hull tests them in row
    # blocks, so a fresh process's peak rises far less
    np.save(tmp_path / "pts.npy", cap_points(np.random.default_rng(622), 622, 0.5))
    proc = subprocess.run(
        [sys.executable, "-c", _HULL_RSS_RISE, str(Path(hc.__file__).parents[1]),
         str(tmp_path / "pts.npy")], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["rise_mb"] < 100.0
    assert not rep["full"] and all(rep["inside"])


def _one_shot_dual_rays(pts):
    """The planes of all point pairs with every point on one side, tested
    against all points at once."""
    i, j = np.triu_indices(len(pts), 1)
    cross = np.cross(pts[i], pts[j])
    norm = np.linalg.norm(cross, axis=1)
    unit = cross[norm >= 1e-12] / norm[norm >= 1e-12, None]
    cand = np.stack([unit, -unit], axis=1).reshape(-1, 3)
    return cand[np.max(cand @ pts.T, axis=1) <= 1e-12]


@pytest.mark.parametrize("n", [4, 10, 60, 100, 150])
def test_cone_hull_blocks_keep_the_one_shot_dual_rays(n):
    # from 60 points on, the candidates span several row blocks
    rng = np.random.default_rng(n)
    for _ in range(5):
        pts = cap_points(rng, n, rng.uniform(0.1, 1.2))
        want = hc.measures._dedupe_rows(_one_shot_dual_rays(pts))
        got = spherical_hull(pts).dual_generators
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


def oracle_slacks(mu):
    """Slack of every subset's hull, one subset at a time, by the public hull API."""
    total = mu.weights.sum()
    slacks = {}
    for size in range(1, mu.size + 1):
        for subset in combinations(range(mu.size), size):
            hull = spherical_hull(mu.points[list(subset)])
            if hull.is_full:
                continue
            inside = np.array([hull.contains(q) for q in mu.points])
            slacks[subset] = (total - mu.weights[inside].sum()) - polar_sigma_area(hull)
    return slacks


def regular_measure(directions):
    return hc.curvature_measure_angles(hc.from_vertices(2, directions, np.ones(len(directions))))


def cross_check_measures():
    rng = np.random.default_rng(8)
    octa = np.vstack([np.eye(3), -np.eye(3)])
    cube = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]) / np.sqrt(3)
    cases = [("octahedron", regular_measure(octa)), ("cube", regular_measure(cube)),
             ("icosahedron", regular_measure(hc.build_grid(2, 0).nodes))]
    for k in range(6):
        body = hc.random_polytope(2, int(rng.integers(4, 11)), rng)
        cases.append((f"body {k}", hc.curvature_measure_angles(body)))
    for k, n in enumerate((3, 5, 8, 12)):
        pts = hc.minkowski.random_unit_vectors(2, n, rng)
        cases.append((f"weights {k}", DiscreteMeasure(2, pts, rng.uniform(0.2, 4.0, size=n))))
    body = hc.curvature_measure_angles(hc.random_polytope(2, 9, rng))
    cases.append(("total-mass violator",
                  DiscreteMeasure(2, body.points, body.weights * (4 * np.pi / body.total))))
    weights = body.weights.copy()
    weights[0] = 2 * np.pi + 0.3
    cases.append(("vertex violator", DiscreteMeasure(2, body.points, weights)))
    cluster = np.vstack([cap_points(rng, 7, 0.3), hc.minkowski.random_unit_vectors(2, 3, rng)])
    cases.append(("cluster violator",
                  DiscreteMeasure(2, cluster, np.r_[np.full(7, 2.0), np.full(3, 0.5)])))
    return [pytest.param(name, mu, id=name) for name, mu in cases]


@pytest.mark.parametrize("name, mu", cross_check_measures())
def test_exhaustive_matches_per_subset_oracle(name, mu):
    rep = check_conditions(mu)
    slacks = oracle_slacks(mu)
    best = min(slacks.values())
    assert rep.subsets_evaluated == 2 ** mu.size - 1
    assert rep.alexandrov_slack == pytest.approx(best, abs=1e-12)
    assert slacks[rep.worst_witness] == pytest.approx(best, abs=1e-12)
    if "violator" in name:
        broken = {"total-mass": rep.total_mass_ok, "vertex": rep.vertex_ok,
                  "cluster": rep.alexandrov_ok}
        assert not broken[name.split()[0]]


@pytest.mark.parametrize("name, mu", cross_check_measures())
def test_singletons_and_pairs_match_their_own_hulls(name, mu):
    # the mask path's shortcuts against the per-subset hull, for every
    # subset of one or two points
    masks = [1 << i for i in range(mu.size)]
    masks += [1 << i | 1 << j for i, j in combinations(range(mu.size), 2)]
    table = _slack_table(mu)
    for mask in masks:
        slack, expected = table[mask], _subset_slack(mu, _mask_tuple(mask))
        if mask & (mask - 1) == 0:
            assert slack == expected, mask
        else:
            assert slack == pytest.approx(expected, abs=1e-14), mask


def test_exhaustive_sixteen_atoms():
    rng = np.random.default_rng(9)
    mu = DiscreteMeasure(2, hc.minkowski.random_unit_vectors(2, 16, rng),
                         rng.uniform(0.5, 2.0, size=16))
    full = check_conditions(mu)
    assert full.subsets_evaluated == 2 ** 16 - 1


turns = st.floats(0.0, 2.0 * np.pi, allow_subnormal=False)
cap_offsets = st.lists(st.tuples(st.floats(0.0, 1.0, allow_subnormal=False), turns),
                       min_size=3, max_size=8)


@given(st.floats(0.0, np.pi, allow_subnormal=False), turns,
       st.floats(0.05, 0.5 * np.pi - 1e-3), cap_offsets)
def test_polar_area_is_two_pi_minus_perimeter(polar, azimuth, radius, offsets):
    center = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                       np.cos(polar)])
    e1 = np.cross(center, np.eye(3)[int(np.argmin(np.abs(center)))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    # uniform in the cap: cos(tilt) uniform on [cos(radius), 1]
    tilt = np.arccos(1.0 - np.array([u for u, _ in offsets]) * (1.0 - np.cos(radius)))
    turn = np.array([t for _, t in offsets])
    pts = (np.cos(tilt)[:, None] * center
           + np.sin(tilt)[:, None] * (np.cos(turn)[:, None] * e1 + np.sin(turn)[:, None] * e2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    # general position: no two points within 1e-3, no three within 1e-6 of a great circle
    pairs = list(combinations(pts, 2))
    assume(min(np.linalg.norm(p - q) for p, q in pairs) > 1e-3)
    assume(min(abs(np.cross(p, q) @ r) for p, q, r in combinations(pts, 3)) > 1e-6)
    hull = spherical_hull(pts)
    assert abs(2.0 * np.pi - perimeter(hull.extreme_rays) - hull.polar_area) <= 1e-12


def mp_polar_area(pts):
    """2 pi minus the perimeter of the spherical polygon through the ordered
    rows, each side atan2(|a x b|, a . b) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        rows = [[mpmath.mpf(float(x)) for x in p] for p in pts]
        perimeter = mpmath.mpf(0)
        for a, b in zip(rows, rows[1:] + rows[:1]):
            cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]]
            dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            perimeter += mpmath.atan2(mpmath.sqrt(sum(c * c for c in cross)), dot)
        return float(2 * mpmath.pi - perimeter)


@pytest.mark.parametrize("thickness", [1e-2, 1e-5, 1e-8, 3e-9])
def test_thin_triangle_polar_area_matches_mpmath(thickness):
    # the third corner lies thickness off the great circle of the other two,
    # as in the subsets within _PLANE_EPS that the slack table hands over
    rng = np.random.default_rng(27)
    for trial in range(200):
        turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        side = rng.uniform(0.2, 2.5)
        along = rng.uniform(0.1, 0.9) * side
        corners = np.array([[1.0, 0.0, 0.0], [np.cos(side), np.sin(side), 0.0],
                            [np.cos(along) * np.cos(thickness),
                             np.sin(along) * np.cos(thickness), np.sin(thickness)]])
        pts = corners @ turn.T
        hull = spherical_hull(pts)
        error = polar_sigma_area(hull) - mp_polar_area(pts)
        assert abs(error) <= 1e-14, f"draw {trial}: {error}"


def angular_rule(start, length, angle):
    """The arc from start of the given length contains the angle, with the
    contain tolerance taken along the circle."""
    rel = (angle - start) % (2.0 * np.pi)
    return rel <= length + _CONTAIN_EPS or rel >= 2.0 * np.pi - _CONTAIN_EPS


@given(turns, st.floats(0.0, np.pi - 1e-6, allow_subnormal=False),
       st.lists(turns, min_size=1, max_size=20), st.booleans())
def test_arc_contains_matches_the_angular_rule(start, length, queries, inner):
    # the arc as the two end normals (and -p for one point) against the
    # angle test, at query angles more than 1e-9 from either end
    angles = [start] if length == 0.0 else [start, start + length]
    if inner and length > 0.0:
        angles.append(start + 0.5 * length)
    hull = spherical_hull(dirs_from_angles(angles))
    assert not hull.is_full
    assert hull.polar_area == pytest.approx(np.pi - length, abs=1e-12)
    for q in queries:
        far = [abs((q - end + np.pi) % (2.0 * np.pi) - np.pi) for end in (start, start + length)]
        if min(far) > 1e-9:
            assert hull.contains(dirs_from_angles([q])[0]) == angular_rule(start, length, q)


def test_point_and_full_circle_contains():
    one = spherical_hull(dirs_from_angles([0.4]))
    assert one.contains(dirs_from_angles([0.4])[0])
    for q in (0.4 + np.pi, 0.4 + 1e-8, 0.4 - 1e-8, 2.0):
        assert not one.contains(dirs_from_angles([q])[0]) and not angular_rule(0.4, 0.0, q)
    # ends closer than the contain tolerance: one point, whose antipode is out
    tiny = spherical_hull(dirs_from_angles([0.4, 0.4 + 5e-11]))
    assert len(tiny.extreme_rays) == 1 and not tiny.contains(dirs_from_angles([0.4 + np.pi])[0])
    full = spherical_hull(dirs_from_angles([0.0, 2.0, 4.0]))
    assert full.is_full
    assert all(full.contains(q) for q in dirs_from_angles(np.linspace(0.0, 6.0, 13)))


# -- the mask path against the per-subset hull -------------------------------


def _spread_points(kind, center, offsets):
    """Points from (u, turn) offsets: uniform on the sphere, in the
    hemisphere about center, or in the cap of angular radius 0.5 about it."""
    u = np.array([u for u, _ in offsets])
    turn = np.array([t for _, t in offsets])
    height = {"sphere": 2.0 * u - 1.0, "hemisphere": u,
              "cap": 1.0 - u * (1.0 - np.cos(0.5))}[kind]
    e1 = np.cross(center, np.eye(3)[int(np.argmin(np.abs(center)))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    ring = np.cos(turn)[:, None] * e1 + np.sin(turn)[:, None] * e2
    pts = height[:, None] * center + np.sqrt(1.0 - height**2)[:, None] * ring
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


atom_offsets = st.lists(st.tuples(st.floats(0.0, 1.0, allow_subnormal=False), turns),
                        min_size=3, max_size=9)


@settings(max_examples=60)
@given(st.sampled_from(["sphere", "hemisphere", "cap"]),
       st.floats(0.0, np.pi, allow_subnormal=False), turns, atom_offsets,
       st.lists(st.floats(0.2, 4.0), min_size=9, max_size=9))
def test_mask_slacks_match_every_subset_hull(kind, polar, azimuth, offsets, weights):
    center = np.array([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                       np.cos(polar)])
    pts = _spread_points(kind, center, offsets)
    assume(min(np.linalg.norm(p - q) for p, q in combinations(pts, 2)) > 1e-3)
    # the per-subset hull takes a nearly antipodal pair's edge normal from the
    # short p x q, which rounding turns by about 1e-16 / |p x q|
    assume(min(np.linalg.norm(p + q) for p, q in combinations(pts, 2)) > 1e-3)
    mu = DiscreteMeasure(2, pts, np.array(weights[:len(pts)]))
    table = _slack_table(mu)
    for mask in range(1, 1 << mu.size):
        slack, expected = table[mask], _subset_slack(mu, _mask_tuple(mask))
        if mask & (mask - 1) == 0 or np.isinf(expected):
            assert slack == expected, mask
        else:
            assert abs(slack - expected) <= 1e-13, mask


def test_slack_table_across_block_boundaries():
    # 18 atoms fill four blocks of 2^16 masks; the table against each
    # subset's own hull at the masks around every block boundary and at
    # random masks
    rng = np.random.default_rng(11)
    mu = DiscreteMeasure(2, hc.minkowski.random_unit_vectors(2, 18, rng),
                         rng.uniform(0.5, 2.0, size=18))
    table = _slack_table(mu)
    assert len(table) == 1 << 18 and table[0] == np.inf
    edges = [np.arange(k * (1 << 16) - 40, k * (1 << 16) + 40) for k in (1, 2, 3)]
    picked = np.concatenate(edges + [rng.integers(1, 1 << 18, size=2000)])
    for mask in picked.tolist():
        slack, expected = table[mask], _subset_slack(mu, _mask_tuple(mask))
        if mask & (mask - 1) == 0 or np.isinf(expected):
            assert slack == expected, mask
        else:
            assert abs(slack - expected) <= 1e-12, mask


def test_twenty_atom_body_measure_passes():
    mu = hc.curvature_measure_angles(hc.random_polytope(2, 20, np.random.default_rng(1)))
    rep = check_conditions(mu)
    assert rep.all_ok and rep.subsets_evaluated == 2 ** 20 - 1


def test_twenty_atom_cluster_fails_only_the_subset_condition():
    # 14 heavy atoms in a cap of radius 0.3 outweigh 4 pi; the 6 atoms off it
    # carry less than the polar cap's area 2 pi (1 - sin 0.3)
    rng = np.random.default_rng(12)
    far = hc.minkowski.random_unit_vectors(2, 400, rng)
    cluster = cap_points(rng, 14, 0.3)
    center = cluster.sum(axis=0) / np.linalg.norm(cluster.sum(axis=0))
    far = far[far @ center < np.cos(0.7)][:6]
    outside = 0.5 * 2.0 * np.pi * (1.0 - np.sin(0.3))
    mu = DiscreteMeasure(2, np.vstack([cluster, far]),
                         np.r_[rng.uniform(2.0, 3.0, size=14), np.full(6, outside / 6)])
    rep = check_conditions(mu)
    assert rep.total_mass_ok and rep.vertex_ok and not rep.alexandrov_ok
    assert rep.subsets_evaluated == 2 ** 20 - 1


def test_twenty_atoms_in_convex_position_fail_as_a_whole():
    # unit atoms on a circle of angular radius 0.3: the whole set has the
    # smallest slack, 0 - 2 pi (1 - sin 0.3) minus nothing outside
    turn = 2.0 * np.pi * np.arange(20) / 20
    pts = np.column_stack([np.sin(0.3) * np.cos(turn), np.sin(0.3) * np.sin(turn),
                           np.full(20, np.cos(0.3))])
    rep = check_conditions(DiscreteMeasure(2, pts, np.ones(20)))
    assert rep.total_mass_ok and rep.vertex_ok and not rep.alexandrov_ok
    assert rep.worst_witness == tuple(range(20))
