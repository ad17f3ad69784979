import numpy as np
import pytest

import hypcurv as hc
from hypcurv.crofton import (
    GeodesicSample,
    count_intersections,
    crofton_compare,
    sample_geodesics,
)


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
    def test_identical_bodies_cancel_exactly(self, grid_m1):
        body = hc.regular_polygon(12, 0.7)
        rep = crofton_compare(body, body, grid_m1, n_samples=2000, seed=0, omega="full")
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.mean_diff == 0.0

    def test_ball_pair_matches_analytic(self, grid_m1):
        b1 = hc.regular_polygon(256, 0.5)
        b2 = hc.regular_polygon(256, 1.0)
        rep = crofton_compare(b1, b2, grid_m1, n_samples=30_000, seed=7)
        analytic = 2 * np.pi * (np.cosh(1.0) - np.cosh(0.5))
        assert rep.lhs == pytest.approx(analytic, abs=2e-3)
        assert abs(rep.lhs - rep.rhs) <= 3 * rep.stderr + 1e-3
        assert rep.agree
        assert set(rep.diff_counts) <= {0, 2}
        assert rep.rhs > 0

    def test_nested_pairs_monotone_and_nonnegative(self, grid_m1):
        rng = np.random.default_rng(8)
        for _ in range(5):
            outer = hc.random_polytope(1, 6, rng)
            inner = hc.from_vertices(1, outer.directions,
                                     np.arctanh(0.75 * np.tanh(outer.radii)))
            rep = crofton_compare(inner, outer, grid_m1, n_samples=4000, seed=1)
            assert rep.mean_diff >= 0.0
            assert set(rep.diff_counts) <= {0, 2}
            assert hc.polar_boundary_area(inner, grid_m1) <= hc.polar_boundary_area(
                outer, grid_m1
            )

    def test_crossing_pair_lower_omega_matches_bisection_oracle(self, grid_m1):
        # neither body contains the other, so omega = {h1 < h2} is a proper
        # part of the sphere and each crossing is kept or dropped by it
        b1 = hc.regular_polygon(5, 1.0)
        turned = 2.0 * np.pi * np.arange(5) / 5 + np.pi / 5
        b2 = hc.from_vertices(1, np.column_stack([np.cos(turned), np.sin(turned)]),
                              np.full(5, 1.0))
        rep = crofton_compare(b1, b2, grid_m1, n_samples=200, seed=4)
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

    def test_stderr_scaling(self, grid_m1):
        b1 = hc.regular_polygon(32, 0.5)
        b2 = hc.regular_polygon(32, 1.0)
        r1 = crofton_compare(b1, b2, grid_m1, n_samples=4000, seed=2)
        r2 = crofton_compare(b1, b2, grid_m1, n_samples=16_000, seed=2)
        assert r2.stderr == pytest.approx(r1.stderr / 2.0, rel=0.2)

    def test_m2_experimental_ball_pair(self):
        grid = hc.build_grid(2, 4)
        b1 = hc.icosphere_body(2, 0.5)
        b2 = hc.icosphere_body(2, 1.0)
        rep = crofton_compare(b1, b2, grid, n_samples=40_000, seed=3)
        assert abs(rep.lhs - rep.rhs) <= 3 * rep.stderr + 5e-2
        assert rep.rhs > 0

    def test_input_validation(self, grid_m1):
        body = hc.regular_polygon(8, 0.5)
        with pytest.raises(ValueError):
            crofton_compare(body, body, grid_m1, omega="sideways")
        with pytest.raises(ValueError):
            sample_geodesics(1, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_geodesics(1, 10, -1.0, seed=0)


def test_report_roundtrips_to_dict(grid_m1):
    b1 = hc.regular_polygon(16, 0.5)
    b2 = hc.regular_polygon(16, 1.0)
    rep = crofton_compare(b1, b2, grid_m1, n_samples=1000, seed=0)
    d = rep.to_dict()
    assert set(d) >= {"lhs", "rhs", "stderr", "agree", "samples_used"}
