import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.crofton import (
    GeodesicSample,
    GeodesicSampleSet,
    _arcs,
    _area_side,
    _form_extremes_search,
    _form_extremes_sweep,
    _sector_lookup,
    count_intersections,
    crofton_compare,
    sample_geodesics,
)
from hypcurv.cells import SupportKernel
from hypcurv.densities import f_of_b
from hypcurv.minkowski import random_unit_vectors


def test_radial_sampling_cdf():
    h_cap = 1.5
    samples = sample_geodesics(1, 40_000, h_cap, seed=0)
    p_expected = (np.cosh(h_cap / 2) - 1.0) / (np.cosh(h_cap) - 1.0)
    frac = np.mean(samples.h_a <= h_cap / 2)
    sigma = np.sqrt(p_expected * (1 - p_expected) / len(samples))
    assert abs(frac - p_expected) <= 3 * sigma


def test_samples_lie_on_de_sitter():
    for m in (1, 2):
        samples = sample_geodesics(m, 30, 1.2, seed=1)
        s_vals = np.linspace(0, 2 * np.pi, 17)
        for i in range(0, 30, 7):
            pts = samples[i].point(s_vals)
            assert np.abs(hc.lorentz_dot(pts, pts) - 1.0).max() < 1e-10


def test_basepoint_dual_is_equator():
    g = GeodesicSample(1, np.array([1.0, 0.0]), 0.0, np.array([0.0, 1.0]))
    t, eta = g.cylinder(np.linspace(0, 2 * np.pi, 64))
    assert np.abs(t).max() < 1e-15
    assert np.abs(np.linalg.norm(eta, axis=1) - 1.0).max() < 1e-12
    # gamma = p-perp for p = o
    pts = g.point(np.linspace(0, 2 * np.pi, 64))
    assert np.abs(hc.lorentz_dot(pts, hc.basepoint(1))).max() < 1e-15


@pytest.fixture(scope="module")
def body():
    return hc.regular_polygon(16, 0.8)


class TestCounts:
    def test_interior_point_zero_crossings(self, body):
        g = GeodesicSample(1, np.array([1.0, 0.0]), 0.3, np.array([0.0, 1.0]))
        count, unstable = count_intersections(g, body)
        assert count == 0 and not unstable
        # oracle: <p, x> < 0 on a dense sampling of the polar boundary
        theta = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        etas = np.column_stack([np.cos(theta), np.sin(theta)])
        h = hc.support_fn(body, etas)
        boundary = hc.desitter_point(etas, h)
        assert np.all(hc.lorentz_dot(boundary, g.p) < 0)

    def test_exterior_point_two_crossings(self, body):
        g = GeodesicSample(1, np.array([1.0, 0.0]), 1.2, np.array([0.0, 1.0]))
        count, unstable = count_intersections(g, body)
        assert count == 2 and not unstable
        theta = np.linspace(0, 2 * np.pi, 4000, endpoint=False)
        etas = np.column_stack([np.cos(theta), np.sin(theta)])
        q = hc.desitter_point(etas, hc.support_fn(body, etas))
        signs = np.sign(hc.lorentz_dot(q, g.p))
        assert (np.abs(np.diff(np.concatenate([signs, signs[:1]]))) > 0).sum() == 2

    def test_fallback_bisection_agrees(self, body):
        h_fn = lambda etas: hc.support_fn(body, etas)
        rng = np.random.default_rng(3)
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            xi_a = np.array([np.cos(ang), np.sin(ang)])
            xi_b = np.array([-np.sin(ang), np.cos(ang)])
            g = GeodesicSample(1, xi_a, rng.uniform(0.05, 1.4), xi_b)
            exact = count_intersections(g, body)
            brute = count_intersections(g, h_fn)
            assert exact == brute

    def test_far_geodesics_cancel_in_difference(self, body):
        big = hc.regular_polygon(16, 1.0)
        g = GeodesicSample(1, np.array([1.0, 0.0]), 1.6, np.array([0.0, 1.0]))
        c_small, _ = count_intersections(g, body)
        c_big, _ = count_intersections(g, big)
        assert c_small == c_big == 2
        assert c_small - c_big == 0


class TestCompare:
    def test_identical_bodies_cancel_exactly(self):
        body = hc.regular_polygon(12, 0.7)
        rep = crofton_compare(body, body, n_samples=2000, seed=0, omega="full")
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.mean_diff == 0.0

    def test_ball_pair_matches_analytic(self):
        b1 = hc.regular_polygon(256, 0.5)
        b2 = hc.regular_polygon(256, 1.0)
        rep = crofton_compare(b1, b2, n_samples=30_000, seed=7)
        analytic = 2 * np.pi * (np.cosh(1.0) - np.cosh(0.5))
        assert rep.lhs == pytest.approx(analytic, abs=2e-3)
        assert abs(rep.lhs - rep.rhs) <= 3 * rep.stderr
        assert rep.agree
        assert set(rep.diff_counts) <= {0, 2}
        assert rep.rhs > 0

    def test_nested_pairs_monotone_and_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            outer = hc.random_polytope(1, 6, rng)
            inner = hc.from_vertices(1, outer.directions,
                                     np.arctanh(0.75 * np.tanh(outer.radii)))
            rep = crofton_compare(inner, outer, n_samples=4000, seed=1)
            assert rep.mean_diff >= 0.0
            assert set(rep.diff_counts) <= {0, 2}
            assert hc.polar_boundary_area(inner) <= hc.polar_boundary_area(outer)

    def test_crossing_pair_lower_omega_matches_bisection_oracle(self):
        # neither body contains the other, so omega = {h1 < h2} is a proper
        # part of the sphere and each crossing is kept or dropped by it
        b1 = hc.regular_polygon(5, 1.0)
        turned = 2.0 * np.pi * np.arange(5) / 5 + np.pi / 5
        b2 = hc.from_vertices(1, np.column_stack([np.cos(turned), np.sin(turned)]),
                              np.full(5, 1.0))
        rep = crofton_compare(b1, b2, n_samples=200, seed=4)
        samples = sample_geodesics(1, 200, rep.h_cap, seed=4)
        h1 = lambda etas: hc.support_fn(b1, etas)
        h2 = lambda etas: hc.support_fn(b2, etas)
        lower = lambda eta: h1(eta[None])[0] < h2(eta[None])[0]
        diffs = []
        for i in range(len(samples)):
            c1, u1 = count_intersections(samples[i], h1, omega=lower)
            c2, u2 = count_intersections(samples[i], h2, omega=lower)
            assert not (u1 or u2)
            diffs.append(c1 - c2)
        vals, counts = np.unique(diffs, return_counts=True)
        assert rep.samples_unstable == 0
        assert len(set(vals)) > 1
        assert rep.diff_counts == {int(v): int(c) for v, c in zip(vals, counts)}
        assert rep.mean_diff == pytest.approx(np.mean(diffs), abs=1e-15)

    def test_stderr_scaling(self):
        b1 = hc.regular_polygon(32, 0.5)
        b2 = hc.regular_polygon(32, 1.0)
        r1 = crofton_compare(b1, b2, n_samples=4000, seed=2)
        r2 = crofton_compare(b1, b2, n_samples=16_000, seed=2)
        assert r2.stderr == pytest.approx(r1.stderr / 2.0, rel=0.2)

    def test_m2_experimental_ball_pair(self):
        b1 = hc.icosphere_body(2, 0.5)
        b2 = hc.icosphere_body(2, 1.0)
        rep = crofton_compare(b1, b2, n_samples=40_000, seed=3)
        assert abs(rep.lhs - rep.rhs) <= 3 * rep.stderr + 5e-2
        assert rep.rhs > 0

    def test_one_count_difference_everywhere_still_agrees(self):
        # every stable sample counts 0, so the spread is 0; the mean's bound
        # is the rule of three, 2 * 3 / n in count units, which the tiny
        # area side of a slightly boosted body lies within
        for m, n, eps, seed in ((1, 9, 1e-6, 0), (2, 9, 1e-4, 3)):
            rng = np.random.default_rng(seed)
            body = hc.random_polytope(m, n, rng)
            moved = hc.apply_isometry(body, random_unit_vectors(m, 1, rng)[0], eps)
            rep = crofton_compare(body, moved, n_samples=100_000, seed=0)
            assert list(rep.diff_counts) == [0] and rep.stderr == 0.0
            assert 0.0 < rep.lhs and rep.agree

    def test_input_validation(self):
        body = hc.regular_polygon(8, 0.5)
        with pytest.raises(ValueError):
            crofton_compare(body, body, omega="sideways")
        with pytest.raises(ValueError):
            sample_geodesics(1, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_geodesics(1, 10, -1.0, seed=0)


@pytest.mark.parametrize("h_cap", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_sampling_rejects_a_cap_that_is_not_finite_and_positive(h_cap):
    with pytest.raises(ValueError, match="h_cap must be finite and positive"):
        sample_geodesics(1, 10, h_cap, seed=0)


def test_cap_below_the_larger_radius_rejected():
    # a cap at the larger radius drops no geodesic that counts; below it the
    # right side came out 0.366 against 2.601
    small, large = hc.regular_polygon(64, 0.5), hc.regular_polygon(64, 1.0)
    for h_cap in (0.6, np.nan):
        with pytest.raises(ValueError, match=f"larger body radius 1.0, not {h_cap}"):
            crofton_compare(small, large, n_samples=2000, h_cap=h_cap)
    with pytest.raises(ValueError, match="h_cap must be finite"):
        crofton_compare(small, large, n_samples=2000, h_cap=np.inf)
    rep = crofton_compare(small, large, n_samples=20_000, h_cap=1.0)
    assert rep.agree


def test_report_roundtrips_to_dict():
    b1 = hc.regular_polygon(16, 0.5)
    b2 = hc.regular_polygon(16, 1.0)
    rep = crofton_compare(b1, b2, n_samples=1000, seed=0)
    d = rep.to_dict()
    assert set(d) >= {"lhs", "rhs", "stderr", "agree", "samples_used"}


# -- the exact area side -------------------------------------------------------


def _node_scores(nodes, directions, radii):
    """Best score b = max_i tanh(r_i) <eta, xi_i> and its attaining index at every node."""
    scores = (nodes @ directions.T) * np.tanh(radii)
    return scores.max(axis=1), scores.argmax(axis=1)


def _grid_area_side(grid, poly1, poly2, omega):
    """The area side as a quadrature of f(b) / cosh(r_i) over the grid nodes."""
    (b1, arg1), (b2, arg2) = (_node_scores(grid.nodes, p.directions, p.radii)
                              for p in (poly1, poly2))
    mask = (b1 < b2) if omega == "lower" else np.ones(grid.size, dtype=bool)

    def area(poly, best, arg):
        density = f_of_b(best, poly.m) / np.cosh(poly.radii[arg])
        return math.fsum(grid.weights[mask] * density[mask])

    return area(poly2, b2, arg2) - area(poly1, b1, arg1)


def _total_angles(m, directions, radii):
    return hc.curvature_measure_angles(hc.from_vertices(m, directions, radii)).weights.sum()


def _shrunk(body, factor):
    return hc.from_vertices(body.m, body.directions, np.arctanh(factor * np.tanh(body.radii)))


@pytest.mark.parametrize("omega", ["lower", "full"])
def test_nested_area_side_is_gauss_bonnet(omega):
    # |Sigma| = 2 pi + area for m=1, so the difference of a nested pair is
    # the difference of the polygon areas, computed without any cell
    rng = np.random.default_rng(21)
    for _ in range(5):
        outer = hc.random_polytope(1, int(rng.integers(4, 12)), rng)
        inner = _shrunk(outer, rng.uniform(0.5, 0.95))
        expected = hc.polygon_area_m1(outer) - hc.polygon_area_m1(inner)
        assert abs(_area_side(inner, outer, omega) - expected) <= 1e-12


def test_crossing_pentagons_area_side_is_the_decagon():
    # at equal radii every point of the union is extreme, so the hull K is a
    # body whose total exterior angle the corner formula gives
    theta = 2.0 * np.pi * np.arange(10) / 10
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    b1 = hc.from_vertices(1, dirs[::2], np.ones(5))
    b2 = hc.from_vertices(1, dirs[1::2], np.ones(5))
    expected = _total_angles(1, dirs, np.ones(10)) - _total_angles(1, dirs[::2], np.ones(5))
    assert abs(_area_side(b1, b2, "lower") - expected) <= 1e-12


def test_octahedron_and_cube_area_side_is_their_union(octahedron):
    cube_dirs = np.array([[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)])
    cube = hc.from_vertices(2, cube_dirs / np.sqrt(3.0), np.ones(8))
    dirs = np.vstack([octahedron.directions, cube.directions])
    expected = _total_angles(2, dirs, np.ones(14)) - _total_angles(2, octahedron.directions,
                                                                  np.ones(6))
    assert abs(_area_side(octahedron, cube, "lower") - expected) <= 1e-12


@pytest.mark.parametrize("omega", ["lower", "full"])
def test_identical_bodies_area_side_vanishes(omega, octahedron):
    for body in (hc.random_polytope(1, 9, np.random.default_rng(2)), octahedron):
        assert _area_side(body, body, omega) == 0.0


def test_area_side_matches_fine_grid_quadrature():
    grid = hc.build_grid(1, 12)
    rng = np.random.default_rng(23)
    for _ in range(5):
        b1, b2 = (hc.random_polytope(1, int(rng.integers(4, 10)), rng) for _ in range(2))
        for omega in ("lower", "full"):
            assert abs(_area_side(b1, b2, omega) - _grid_area_side(grid, b1, b2, omega)) <= 1e-4


def _cell_area_side(poly1, poly2, omega):
    """The area side over the cells of ``SupportKernel``: each polar-boundary
    area is the sum of the cell masses divided by cosh(r_i)."""
    def area(directions, radii):
        masses, _ = SupportKernel(poly1.m, directions).cell_sums(np.tanh(radii))
        return math.fsum(masses / np.cosh(radii))

    area1 = area(poly1.directions, poly1.radii)
    if omega == "full":
        return area(poly2.directions, poly2.radii) - area1
    return area(np.vstack([poly1.directions, poly2.directions]),
                np.concatenate([poly1.radii, poly2.radii])) - area1


def _oracle_pairs(m, rng):
    """Independent pairs, pairs on shared directions with radii scaled by
    U(0.9, 1.1), and a body against itself boosted by 1e-9, 1e-11, 1e-13."""
    low, high = (4, 12) if m == 1 else (5, 14)
    pairs = [tuple(hc.random_polytope(m, int(rng.integers(low, high)), rng) for _ in range(2))
             for _ in range(4)]
    while len(pairs) < 8:
        body = hc.random_polytope(m, int(rng.integers(low, high)), rng)
        scale = rng.uniform(0.9, 1.1, size=body.n_vertices)
        try:
            pairs.append((body, hc.from_vertices(m, body.directions, scale * body.radii)))
        except (hc.NonExtremeVertexError, hc.OriginNotInteriorError):
            continue
    body = hc.random_polytope(m, 9, rng)
    pairs += [(body, hc.apply_isometry(body, random_unit_vectors(m, 1, rng)[0], eps))
              for eps in (1e-9, 1e-11, 1e-13)]
    return pairs


@pytest.mark.parametrize("m", [1, 2])
def test_area_side_matches_the_cell_oracle(m):
    # near-coincident bodies make sliver faces on the joint hull: their face
    # areas are tiny, where the corners' exterior angles carry 1e-6 rad of error
    for b1, b2 in _oracle_pairs(m, np.random.default_rng(25 + m)):
        for omega in ("lower", "full"):
            assert abs(_area_side(b1, b2, omega) - _cell_area_side(b1, b2, omega)) <= 1e-12


def test_union_best_score_is_body_two_exactly_on_lower_omega():
    # the support of the hull of both bodies' Klein points is max(h1, h2):
    # body 2 attains it exactly where b1 < b2
    nodes = hc.build_grid(2, 7).nodes
    rng = np.random.default_rng(24)
    for _ in range(3):
        b1, b2 = (hc.random_polytope(2, int(rng.integers(6, 12)), rng) for _ in range(2))
        best1, _ = _node_scores(nodes, b1.directions, b1.radii)
        best2, _ = _node_scores(nodes, b2.directions, b2.radii)
        _, arg = _node_scores(nodes, np.vstack([b1.directions, b2.directions]),
                              np.concatenate([b1.radii, b2.radii]))
        lower = best1 < best2
        assert 0 < lower.mean() < 1
        assert np.array_equal(arg >= b1.n_vertices, lower)


@pytest.mark.parametrize("m, low, high", [(1, 4, 24), (2, 5, 14)])
@settings(max_examples=30)
@given(data=st.data())
def test_area_side_monotone_under_inclusion(m, low, high, data):
    # the hull of both bodies contains body 1, so its polar boundary area is
    # no smaller; for a nested pair it is the outer body, and omega is the sphere
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    b1, b2 = (hc.random_polytope(m, data.draw(st.integers(low, high)), rng) for _ in range(2))
    assert _area_side(b1, b2, "lower") >= -1e-12
    inner = _shrunk(b2, data.draw(st.floats(0.3, 0.95), label="shrink"))
    assert abs(_area_side(inner, b2, "lower") - _area_side(inner, b2, "full")) <= 1e-12


# -- m=1 tangent search against the vertex sweep ------------------------------


def _search_and_sweep(samples, poly):
    return (_arcs(*_form_extremes_search(samples, poly)),
            _arcs(*_form_extremes_sweep(samples, poly)))


def _assert_search_matches_sweep(samples, poly):
    (hits, tangent, lo, hi), (o_hits, o_tangent, o_lo, o_hi) = _search_and_sweep(samples, poly)
    assert np.array_equal(hits, o_hits)
    assert np.array_equal(tangent, o_tangent)
    assert np.abs(lo - o_lo)[hits].max(initial=0.0) <= 1e-12
    assert np.abs(hi - o_hi)[hits].max(initial=0.0) <= 1e-12
    return hits


def _foot_points(xi_a, klein_radius):
    """Samples with foot point directions xi_a at the given Klein distances."""
    xi_a = np.atleast_2d(np.asarray(xi_a, dtype=float))
    xi_b = np.column_stack([-xi_a[:, 1], xi_a[:, 0]])
    h_a = np.arctanh(np.broadcast_to(klein_radius, len(xi_a)))
    return GeodesicSampleSet(1, xi_a, h_a, xi_b, 0.0, 0.0)


def _at_klein_points(q):
    q = np.atleast_2d(q)
    norm = np.linalg.norm(q, axis=1)
    return _foot_points(q / norm[:, None], norm)


def _polar_angles(directions):
    return np.sort(np.arctan2(directions[:, 1], directions[:, 0]))


@pytest.mark.parametrize("polar", [
    _polar_angles(hc.regular_polygon(3, 1.0).directions),
    _polar_angles(hc.regular_polygon(256, 1.0).directions),
    np.sort(np.r_[np.linspace(-3.0, 3.0, 11), 1.2 + 1e-9, -np.pi, np.pi]),
    np.sort(np.r_[0.5 + 1e-7 * np.arange(40), -2.0, 2.0]),
], ids=["3-gon", "256-gon", "1e-9 apart", "40 in one bin"])
def test_sector_lookup_is_searchsorted(polar):
    theta = np.concatenate([
        np.random.default_rng(len(polar)).uniform(-np.pi, np.pi, 20_000),
        polar, np.nextafter(polar, -np.inf), np.nextafter(polar, np.inf), [-np.pi, np.pi]])
    theta = np.clip(theta, -np.pi, np.pi)
    expected = np.searchsorted(polar, theta, side="right") - 1
    assert np.array_equal(_sector_lookup(polar)(theta), expected)


@pytest.mark.parametrize("n", [3, 4, 64, 1024, 4096])
def test_tangent_search_matches_sweep_regular(n):
    poly = hc.regular_polygon(n, 1.0)
    hits = _assert_search_matches_sweep(sample_geodesics(1, 20_000, 1.5, seed=n), poly)
    assert 0 < hits.mean() < 1


@pytest.mark.parametrize("n", [5, 9, 17, 40, 128])
def test_tangent_search_matches_sweep_random(n):
    poly = hc.random_polytope(1, n, np.random.default_rng(100 + n))
    samples = sample_geodesics(1, 20_000, float(poly.radii.max()) + 0.5, seed=n)
    hits = _assert_search_matches_sweep(samples, poly)
    assert 0 < hits.mean() < 1


def _axis_polygon(n, radius):
    """Regular n-gon (n divisible by 4) whose axis vertices are exactly (+-1, 0), (0, +-1)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    quarter = n // 4
    dirs[::quarter] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    return hc.from_vertices(1, dirs, np.full(n, radius))


@pytest.mark.parametrize("poly", [
    _axis_polygon(4, 0.5),
    _axis_polygon(64, 0.9),
    hc.random_polytope(1, 9, np.random.default_rng(5), r_max=1.0),
], ids=["square", "64-gon", "random 9-gon"])
def test_tangent_search_matches_sweep_hand_built(poly):
    klein = poly.klein_vertices[poly.faces.faces[:, 0]]
    nxt = np.roll(klein, -1, axis=0)
    edge = nxt - klein
    normal = np.column_stack([edge[:, 1], -edge[:, 0]])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    points = [nxt + 0.5 * edge]  # on an edge's line beyond its end: the tangents tie
    for delta in (-1e-9, 1e-9):
        # just inside and just outside an edge's line, across the edge and beyond it
        points.append(0.5 * (klein + nxt) + delta * normal)
        points.append(nxt + 0.5 * edge + delta * normal)
    for delta in (-1e-12, 1e-12):
        # within 1e-12 of the boundary, at edge midpoints and at vertices
        points.append(0.5 * (klein + nxt) + delta * normal)
        points.append(klein * (1.0 + delta / np.linalg.norm(klein, axis=1))[:, None])
    q = np.vstack(points)
    q = q[np.linalg.norm(q, axis=1) < 0.99]
    cases = [_at_klein_points(q)]
    # on the ray through a vertex, where searchsorted ties, inside and outside
    for scale in (0.3, 0.999, 1.001):
        cases.append(_foot_points(poly.directions, scale * np.tanh(poly.radii)))
    # theta = +-pi and 0, where the sorted polar angles wrap
    wrap = np.array([[-1.0, 0.0], [-1.0, -0.0], [1.0, 0.0], [1.0, -0.0]])
    for radius in (0.05, 0.3, 0.5, 0.7, 0.9, 0.98):
        cases.append(_foot_points(wrap, radius))
    hits = np.concatenate([_assert_search_matches_sweep(c, poly) for c in cases])
    assert hits.any() and not hits.all()
    # on the boundary itself the span is pi up to rounding, so whether it
    # reads as a hit is a rounding artefact; both must flag it as grazing
    on_edge = _at_klein_points(0.5 * (klein + nxt))
    for _, tangent, _, _ in _search_and_sweep(on_edge, poly):
        assert tangent.all()


def test_single_sample_path_takes_the_search():
    # count_intersections builds a one-sample set and reads the same m=1 arcs,
    # with and without omega
    poly = hc.regular_polygon(64, 0.9)
    samples = sample_geodesics(1, 300, 1.4, seed=9)
    (_, _, lo, hi), (o_hits, o_tangent, o_lo, o_hi) = _search_and_sweep(samples, poly)
    assert np.abs(lo - o_lo)[o_hits].max() <= 1e-12
    upper = lambda eta: eta[1] > 0.0
    for i in range(len(samples)):
        g = samples[i]
        expected = (0, True) if o_tangent[i] else (2 * int(o_hits[i]), False)
        assert count_intersections(g, poly) == expected
        if o_hits[i] and not o_tangent[i]:
            kept = sum(bool(upper(g.cylinder(np.asarray(s))[1])) for s in (o_lo[i], o_hi[i]))
            assert count_intersections(g, poly, omega=upper) == (kept, False)
