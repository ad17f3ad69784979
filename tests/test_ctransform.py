import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.cells import DENSITY_MARGIN, SupportKernel
from hypcurv.ctransform import (
    PotentialVector,
    c_transform,
    conjugacy_diagnostics,
    double_convexify,
)
from hypcurv.minkowski import normalize_rows


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def phi_at(psi, etas):
    """phi at many directions: one c_transform each."""
    return np.array([c_transform(psi, eta)[0] for eta in etas])


def log_radial(body, xi):
    """ln rho_K of the Klein body K = hull of tanh(r_i) xi_i, from its facets."""
    return np.log(np.tanh(hc.radial_fn(body, xi)))


@pytest.fixture(scope="module")
def solved():
    mu = hc.curvature_measure_integral(hc.regular_polygon(5, 1.0))
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
    assert phi_at(psi, grid_m1.nodes).min() > 0


def test_min_phi_equals_minus_max_psi(grid_m1, grid_m2):
    rng = np.random.default_rng(2)
    for grid in (grid_m1, grid_m2):
        poly = hc.random_polytope(grid.m, 7, rng)
        psi = PotentialVector(grid.m, poly.directions, np.log(np.tanh(poly.radii)))
        # exact identity: the minimum sits at the argmax support point
        assert abs(conjugacy_diagnostics(psi).min_phi_plus_max_psi) <= 1e-14
        # and no grid node goes below it
        assert phi_at(psi, grid.nodes[::7]).min() + psi.values.max() >= -1e-14


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
    nodes = hc.build_grid(1, 4).nodes
    phi0 = phi_at(base, nodes)
    phi1 = phi_at(lowered, nodes)
    assert np.all(phi1 >= phi0 - 1e-15)
    assert phi1.max() - phi0.max() <= delta + 1e-15


def test_double_convexify_dominates_exactly():
    rng = np.random.default_rng(4)
    poly = hc.random_polytope(1, 6, rng)
    vals = np.log(np.tanh(poly.radii)) - rng.uniform(0, 2, size=6)
    psi = PotentialVector(1, poly.directions, vals)
    out = double_convexify(psi)
    assert np.all(out.values >= psi.values)


def test_double_convexify_raises_pushed_value(solved):
    vals = solved.psi.values.copy()
    vals[0] -= 10.0
    pushed = PotentialVector(1, solved.psi.support, vals)
    raised = double_convexify(pushed)
    assert raised.values[0] > pushed.values[0] + 5.0
    # the pushed point is inside the hull of the others, which keep their values
    rest = hc.from_vertices(1, solved.body.directions[1:], solved.body.radii[1:])
    assert raised.values[0] == pytest.approx(log_radial(rest, pushed.support[0]), abs=1e-12)
    assert np.array_equal(raised.values[1:], pushed.values[1:])


def test_solver_output_is_fixed_point(solved):
    out = double_convexify(solved.psi)
    assert np.abs(out.values - solved.psi.values).max() < 1e-12


def test_conjugacy_diagnostics_identities(grid_m1, solved):
    d = conjugacy_diagnostics(solved.psi)
    assert abs(d.max_phi_plus_min_psi) <= 1e-12
    assert abs(d.min_phi_plus_max_psi) <= 1e-12
    # the edge quotients of phi on a grid bound the Lipschitz constant from
    # below and approach it as the grid refines
    phi = phi_at(solved.psi, grid_m1.nodes)
    a, b = grid_m1.edges().T
    dist = np.arccos(np.clip(np.sum(grid_m1.nodes[a] * grid_m1.nodes[b], axis=1), -1.0, 1.0))
    quotient = (np.abs(phi[a] - phi[b]) / dist).max()
    assert quotient <= d.lipschitz_estimate * (1.0 + 1e-9)
    assert quotient >= d.lipschitz_estimate * (1.0 - 1e-2)


def test_diagnostics_reject_non_concave(solved):
    vals = solved.psi.values.copy()
    vals[1] -= 3.0
    bad = PotentialVector(1, solved.psi.support, vals)
    with pytest.raises(ValueError):
        conjugacy_diagnostics(bad)


def test_near_minimum_inequality(solved):
    # 0 <= psi(xi) - psi(xi0) <= cost(xi0, xi) at the minimum xi0 of the
    # c-concave extension ln rho_K, the normal of the facet nearest the origin
    body = solved.body
    low = int(np.argmin(body.facet_supports))
    xi0 = body.facet_normals[low]
    psi_min = log_radial(body, xi0)
    assert psi_min == pytest.approx(np.log(body.facet_supports[low]), abs=1e-14)
    assert -conjugacy_diagnostics(solved.psi).max_phi_plus_min_psi == pytest.approx(
        0.0, abs=1e-12)
    for xi, val in zip(solved.psi.support, solved.psi.values):
        gap = val - psi_min
        assert gap >= -1e-12
        assert gap <= hc.cost(xi0, xi) + 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_sampled_conjugate_never_below_hull_extension(m, grid_m1, grid_m2):
    # brute force: psi^cc(xi) = min over eta of c(eta, xi) - phi(eta), with
    # phi from c_transform, can only rise when eta runs over samples, and a
    # fine grid of samples comes close to ln rho_K
    grid = grid_m1 if m == 1 else grid_m2
    body = hc.regular_polygon(7, 0.9) if m == 1 else hc.icosphere_body(1, 0.9)
    psi = hc.solve(hc.curvature_measure_angles(body)).psi
    rng = np.random.default_rng(5)
    etas = grid.nodes[::max(1, grid.size // 4096)]
    phi = phi_at(psi, etas)
    xis = np.vstack([psi.support, normalize_rows(rng.normal(size=(20, m + 1)))])
    hull = hc.from_vertices(m, psi.support, np.arctanh(np.exp(psi.values)))
    for xi in xis:
        near = etas @ xi > 1e-12
        sampled = np.min(hc.cost(etas[near], xi) - phi[near])
        exact = log_radial(hull, xi)
        assert sampled >= exact - 1e-12
        assert sampled <= exact + 1e-2
    assert np.abs(double_convexify(psi).values - log_radial(hull, psi.support)).max() <= 1e-12


@pytest.mark.parametrize("m, low, high", [(1, 4, 32), (2, 5, 30)])
@settings(max_examples=30)
@given(data=st.data())
def test_body_potentials_are_fixed_points(m, low, high, data):
    # e^psi_i xi_i are the Klein vertices of a body, all on the hull's boundary
    n = data.draw(st.integers(low, high), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    body = hc.random_polytope(m, n, rng)
    psi = PotentialVector(m, body.directions, np.log(np.tanh(body.radii)))
    assert np.abs(double_convexify(psi).values - psi.values).max() <= 1e-12


def test_kernel_cache_keys_on_support_bytes(monkeypatch):
    # with a constant hash every same-sized support collides; the cache must
    # still tell the supports apart
    monkeypatch.setattr(hc.ctransform, "hash", lambda _: 0, raising=False)
    monkeypatch.setattr(hc.ctransform, "_kernel_cache", {})
    first = dirs_from_angles([0.0, 2.0, 4.0])
    second = dirs_from_angles([0.5, 2.5, 4.5])
    kern = hc.ctransform.kernel_for(1, first)
    other = hc.ctransform.kernel_for(1, second)
    assert other is not kern
    assert np.array_equal(other.points, second)
    assert hc.ctransform.kernel_for(1, first.copy()) is kern


def test_uncovered_direction_error():
    support = dirs_from_angles([0.0, 0.1, -0.1])
    psi = PotentialVector(1, support, np.full(3, -1.0))
    with pytest.raises(hc.UncoveredDirectionError):
        c_transform(psi, np.array([-1.0, 0.0]))
    with pytest.raises(hc.UncoveredDirectionError):
        double_convexify(psi)
    # the kernel refuses a support whose hull does not hold the origin
    # strictly, degenerate ones included, and names a direction with b <= 0
    rng = np.random.default_rng(6)
    turn = rng.uniform(0.0, 2.0 * np.pi, size=5)
    circle = np.column_stack([np.sqrt(0.91) * np.cos(turn), np.sqrt(0.91) * np.sin(turn),
                              np.full(5, 0.3)])
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cases = [(1, support), (1, support[:2]), (1, support[:1])]
    cases += [(2, normalize_rows(rng.normal(size=(k, 3)))) for k in (1, 2, 3)]
    cases += [(2, circle @ rotation.T)]                      # five coplanar points
    for m, points in cases:
        with pytest.raises(hc.UncoveredDirectionError) as err:
            SupportKernel(m, points)
        direction = err.value.direction
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        assert (points @ direction).max() <= 0.0


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
        SupportKernel(m, points)
    assert (points @ err.value.direction).max() <= 0.0


def test_cell_sums_rejects_scale_factors_outside_the_unit_interval():
    # at s = 1 the density is infinite at the support point, and halving
    # toward it would never end
    kern = SupportKernel(1, dirs_from_angles([0.0, 2.0, 4.0]))
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
