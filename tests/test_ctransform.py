import logging

import numpy as np
import pytest

import hypcurv as hc
from hypcurv.cells import DENSITY_MARGIN, SupportKernel
from hypcurv.ctransform import (
    PotentialVector,
    c_transform,
    conjugacy_diagnostics,
    double_convexify,
    grid_conjugate,
)
from hypcurv.minkowski import DOT_FLOOR, normalize_rows


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.fixture(scope="module")
def solved(grid_m1):
    mu = hc.curvature_measure_integral(hc.regular_polygon(5, 1.0), hc.build_grid(1, 6))
    return hc.solve(mu)


def test_single_point_transform():
    psi = PotentialVector(1, np.array([[1.0, 0.0]]), np.array([-1.0]))
    val, arg = c_transform(psi, np.array([1.0, 0.0]))
    assert val == pytest.approx(1.0)
    assert list(arg) == [0]


def test_symmetric_support_nearest_point():
    angles = 2 * np.pi * np.arange(6) / 6
    psi = PotentialVector(1, dirs_from_angles(angles), np.full(6, -0.7))
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(0, 2 * np.pi)
        eta = dirs_from_angles([a])[0]
        val, _ = c_transform(psi, eta)
        nearest = np.min(np.abs((angles - a + np.pi) % (2 * np.pi) - np.pi))
        assert val == pytest.approx(hc.cost_of_distance(nearest) + 0.7, abs=1e-12)


def test_phi_positive_on_grid(grid_m1):
    rng = np.random.default_rng(1)
    poly = hc.random_polytope(1, 6, rng)
    psi = PotentialVector(1, poly.directions, np.log(np.tanh(poly.radii)))
    phi = grid_conjugate(psi, grid_m1)
    assert phi.min() > 0


def test_min_phi_equals_minus_max_psi(grid_m1):
    rng = np.random.default_rng(2)
    poly = hc.random_polytope(1, 7, rng)
    psi = PotentialVector(1, poly.directions, np.log(np.tanh(poly.radii)))
    phi = grid_conjugate(psi, grid_m1)
    # exact identity: the minimum sits at the argmax support point
    assert phi.min() + psi.values.max() == pytest.approx(0.0, abs=1e-6)


def test_admissibility_exact(grid_m1):
    rng = np.random.default_rng(3)
    poly = hc.random_polytope(1, 6, rng)
    psi = PotentialVector(1, poly.directions, np.log(np.tanh(poly.radii)))
    for _ in range(100):
        eta = dirs_from_angles([rng.uniform(0, 2 * np.pi)])[0]
        val, _ = c_transform(psi, eta)
        costs = hc.cost(np.broadcast_to(eta, psi.support.shape), psi.support)
        assert np.all(val + psi.values <= costs * (1 + 1e-13) + 1e-13)


def test_monotone_shift():
    angles = 2 * np.pi * np.arange(5) / 5
    base = PotentialVector(1, dirs_from_angles(angles), np.full(5, -0.5))
    delta = 0.3
    lowered_vals = base.values.copy()
    lowered_vals[2] -= delta
    lowered = PotentialVector(1, base.support, lowered_vals)
    grid = hc.build_grid(1, 4)
    phi0 = grid_conjugate(base, grid)
    phi1 = grid_conjugate(lowered, grid)
    assert np.all(phi1 >= phi0 - 1e-15)
    assert phi1.max() - phi0.max() <= delta + 1e-15


def test_double_convexify_dominates_exactly(grid_m1):
    rng = np.random.default_rng(4)
    poly = hc.random_polytope(1, 6, rng)
    vals = np.log(np.tanh(poly.radii)) - rng.uniform(0, 2, size=6)
    psi = PotentialVector(1, poly.directions, vals)
    out = double_convexify(psi, grid_m1)
    assert np.all(out.values >= psi.values)


def test_double_convexify_raises_pushed_value(grid_m1, solved):
    vals = solved.psi.values.copy()
    vals[0] -= 10.0
    pushed = PotentialVector(1, solved.psi.support, vals)
    raised = double_convexify(pushed, grid_m1)
    assert raised.values[0] > pushed.values[0] + 5.0


def test_solver_output_is_fixed_point(grid_m1, solved):
    out = double_convexify(solved.psi, grid_m1)
    assert np.abs(out.values - solved.psi.values).max() < 1e-4


def test_conjugacy_diagnostics_identities(grid_m1, solved):
    d = conjugacy_diagnostics(solved.psi, grid_m1)
    assert abs(d.max_phi_plus_min_psi) <= 1e-4
    assert abs(d.min_phi_plus_max_psi) <= 1e-4
    assert np.isfinite(d.lipschitz_estimate)


def test_diagnostics_reject_non_concave(grid_m1, solved):
    vals = solved.psi.values.copy()
    vals[1] -= 3.0
    bad = PotentialVector(1, solved.psi.support, vals)
    with pytest.raises(ValueError):
        conjugacy_diagnostics(bad, grid_m1)


def test_near_minimum_inequality(grid_m1, solved):
    # 0 <= psi(xi) - psi(xi0) <= cost(xi0, xi) at the grid minimum of the
    # c-concave extension of psi
    phi = grid_conjugate(solved.psi, grid_m1)
    stride = max(1, grid_m1.size // 1024)
    probes = grid_m1.nodes[::stride]
    ext = SupportKernel(1, probes, grid_m1).conjugate_update(phi)
    xi0 = probes[int(np.argmin(ext))]
    psi_min = ext.min()
    for xi, val in zip(solved.psi.support, solved.psi.values):
        gap = val - psi_min
        assert gap >= -1e-9
        assert gap <= hc.cost(xi0, xi) + 1e-4


def _conjugate_at_by_loop(targets, nodes, phi):
    out = np.empty(len(targets))
    for row, zeta in enumerate(targets):
        dots = nodes @ zeta
        ok = dots > DOT_FLOOR
        out[row] = np.min(-np.log(dots[ok]) - phi[ok])
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_conjugate_update_matches_loop_oracle(m, grid_m1, grid_m2):
    # on the probe kernel of conjugacy_diagnostics and on the support kernel
    # of double_convexify
    grid = grid_m1 if m == 1 else grid_m2
    body = hc.regular_polygon(7, 0.9) if m == 1 else hc.icosphere_body(1, 0.9)
    psi = hc.solve(hc.curvature_measure_angles(body)).psi
    phi = grid_conjugate(psi, grid)
    probes = grid.nodes[::max(1, grid.size // 2048)]
    for points in (probes, psi.support):
        got = SupportKernel(m, points, grid).conjugate_update(phi)
        assert np.abs(got - _conjugate_at_by_loop(points, grid.nodes, phi)).max() <= 1e-12


def test_conjugate_update_drops_dots_below_the_floor(grid_m1):
    # a node nearly orthogonal to the first support point, with a huge e^phi,
    # wins that point's unmasked maximum; its dot is below DOT_FLOOR, so it
    # must not count
    points = grid_m1.nodes[::max(1, grid_m1.size // 64)]
    dots = grid_m1.nodes @ points[0]
    tiny = (dots > 0.0) & (dots <= DOT_FLOOR)
    assert tiny.any()
    phi = np.full(grid_m1.size, 0.4)
    phi[tiny] = 40.0
    got = SupportKernel(1, points, grid_m1).conjugate_update(phi)
    assert np.abs(got - _conjugate_at_by_loop(points, grid_m1.nodes, phi)).max() <= 1e-12
    assert got[0] == pytest.approx(-0.4, abs=1e-12)


def test_kernel_cache_keys_on_support_bytes(monkeypatch, grid_m1):
    # with a constant hash every same-sized support collides; the cache must
    # still tell the supports apart
    monkeypatch.setattr(hc.ctransform, "hash", lambda _: 0, raising=False)
    monkeypatch.setattr(hc.ctransform, "_kernel_cache", {})
    first = dirs_from_angles([0.0, 2.0, 4.0])
    second = dirs_from_angles([0.5, 2.5, 4.5])
    kern = hc.ctransform.kernel_for(1, first, grid_m1)
    other = hc.ctransform.kernel_for(1, second, grid_m1)
    assert other is not kern
    assert np.array_equal(other.points, second)
    assert hc.ctransform.kernel_for(1, first.copy(), grid_m1) is kern


def test_uncovered_direction_error():
    support = dirs_from_angles([0.0, 0.1, -0.1])
    psi = PotentialVector(1, support, np.full(3, -1.0))
    with pytest.raises(hc.UncoveredDirectionError):
        c_transform(psi, np.array([-1.0, 0.0]))
    with pytest.raises(hc.UncoveredDirectionError):
        grid_conjugate(psi, hc.build_grid(1, 2))
    # the kernel refuses a support whose hull does not hold the origin
    # strictly, degenerate ones included, and names a direction with b <= 0
    for points in (support, support[:2]):
        with pytest.raises(hc.UncoveredDirectionError) as err:
            SupportKernel(1, points, hc.build_grid(1, 2))
        assert (points @ err.value.direction).max() <= 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_half_space_support_raises_between_grid_nodes(m):
    # the support lies in a closed half-space whose pole falls between grid
    # nodes, so every node still sees a positive score
    if m == 1:
        grid = hc.build_grid(1, 2)
        span = np.pi - 1e-4
        pole = 7.5 * 2.0 * np.pi / grid.size       # midway between two nodes
        start = pole + np.pi - 0.5 * span
        points = dirs_from_angles(start + np.array([0.0, 0.5, 1.0]) * span)
    else:
        grid = hc.build_grid(2, 6)
        pole = normalize_rows(grid.nodes[grid.triangles[0]].sum(axis=0))
        side = normalize_rows(np.cross(pole, [1.0, 0.0, 0.0]))
        turn = 2.0 * np.pi * np.arange(8) / 8
        ring = np.cos(1e-5) * (np.outer(np.cos(turn), side)
                               + np.outer(np.sin(turn), np.cross(pole, side)))
        points = np.vstack([ring - np.sin(1e-5) * pole, -pole])
    assert (grid.nodes @ points.T).max(axis=1).min() > np.sin(DENSITY_MARGIN)
    with pytest.raises(hc.UncoveredDirectionError) as err:
        SupportKernel(m, points, grid)
    assert (points @ err.value.direction).max() <= 0.0


def test_cell_sums_rejects_scale_factors_outside_the_unit_interval():
    # at s = 1 the density is infinite at the support point, and halving
    # toward it would never end
    kern = SupportKernel(1, dirs_from_angles([0.0, 2.0, 4.0]), hc.build_grid(1, 2))
    for s in (1.0, 0.0):
        with pytest.raises(ValueError):
            kern.cell_sums(np.full(3, s))


def test_values_near_zero_clamped(caplog):
    with caplog.at_level(logging.WARNING):
        psi = PotentialVector(1, dirs_from_angles([0.0, 2.0, 4.0]),
                              np.array([-1.0, -1e-12, -0.5]))
    assert psi.values[1] == -hc.ctransform.PSI_FLOOR
    assert any("clamped" in rec.message for rec in caplog.records)


def test_nonnegative_values_rejected():
    with pytest.raises(ValueError):
        PotentialVector(1, dirs_from_angles([0.0, 2.0, 4.0]), np.array([-1.0, 0.0, -0.5]))
