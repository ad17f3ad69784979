import numpy as np
import pytest

import hypcurv as hc
from hypcurv.measures import DiscreteMeasure
from hypcurv.solver import (
    FD_STEP,
    SolverConfig,
    _angles,
    _jacobian,
    dual_gradient,
    dual_objective,
    extract_body,
    solve,
    transport_residuals,
)


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.fixture(scope="module")
def square_mu(grid_m1, square):
    return hc.curvature_measure_integral(square, grid_m1)


def test_gradient_matches_finite_differences(grid_m1):
    rng = np.random.default_rng(0)
    step = 1e-5
    for _ in range(5):
        poly = hc.random_polytope(1, int(rng.integers(4, 8)), rng)
        mu = hc.curvature_measure_integral(poly, grid_m1)
        psi = np.log(np.tanh(poly.radii)) + rng.uniform(-0.1, 0.1, size=mu.size)
        grad = dual_gradient(psi, mu, grid_m1)
        for i in range(mu.size):
            bump = np.zeros(mu.size)
            bump[i] = step
            fd = (dual_objective(psi + bump, mu, grid_m1)
                  - dual_objective(psi - bump, mu, grid_m1)) / (2 * step)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9)


def test_symmetric_configuration_symmetry(grid_m1):
    # rotated cells evaluate cosines at translated angles, so equality holds
    # to rounding rather than bit-for-bit
    angles = 2 * np.pi * np.arange(6) / 6
    mu = DiscreteMeasure(1, dirs_from_angles(angles), np.full(6, 1.2))
    psi = np.full(6, -0.4)
    grad = dual_gradient(psi, mu, grid_m1)
    assert np.abs(grad - grad[0]).max() < 1e-13
    rolled = dual_objective(np.roll(psi, 2), mu, grid_m1)
    assert dual_objective(psi, mu, grid_m1) == pytest.approx(rolled, abs=1e-12)


def test_objective_increases_under_double_convexify(grid_m1):
    rng = np.random.default_rng(1)
    poly = hc.random_polytope(1, 5, rng)
    mu = hc.curvature_measure_integral(poly, grid_m1)
    vals = np.log(np.tanh(poly.radii)) - rng.uniform(0.0, 1.0, size=5)
    psi = hc.PotentialVector(1, mu.points, vals)
    better = hc.double_convexify(psi, grid_m1)
    assert dual_objective(better, mu, grid_m1) >= dual_objective(psi, mu, grid_m1) - 1e-12


def test_objective_finite(grid_m1):
    rng = np.random.default_rng(2)
    poly = hc.random_polytope(1, 5, rng)
    mu = hc.curvature_measure_integral(poly, grid_m1)
    for _ in range(10):
        psi = -np.exp(rng.uniform(-3, 1, size=5))
        assert np.isfinite(dual_objective(psi, mu, grid_m1))


def test_extract_body_inverse_pair(square_mu):
    psi = hc.PotentialVector(1, square_mu.points, np.full(4, np.log(np.tanh(1.0))))
    body = extract_body(psi, square_mu)
    assert np.abs(body.radii - 1.0).max() < 1e-14


def test_square_round_trip(square_mu, square):
    rep = solve(square_mu)
    assert rep.converged
    assert rep.body is not None
    assert np.abs(rep.body.radii - 1.0).max() < 1e-4
    # symmetric input: recovered radii agree with each other
    assert rep.body.radii.max() - rep.body.radii.min() < 1e-10


def test_residual_history_falls_strictly(square_mu, octahedron, grid_m2):
    for mu in (square_mu, hc.curvature_measure_integral(octahedron, grid_m2)):
        rep = solve(mu)
        assert len(rep.residual_history) == rep.iterations + 1
        assert np.all(np.diff(rep.residual_history) < 0.0)
        assert rep.residual_history[-1] == np.abs(
            hc.curvature_measure_angles(rep.body).weights - mu.weights).max()


def test_el_residual_small_at_solution_large_after_perturbation(grid_m1, square_mu):
    rep = solve(square_mu)
    res = transport_residuals(rep.psi, square_mu, grid_m1)
    assert res.max() <= 1e-6
    vals = rep.psi.values.copy()
    vals[1] -= 0.1
    res_pert = transport_residuals(vals, square_mu, grid_m1)
    assert res_pert[1] > 1e-6


def test_radii_monotone_in_ball_size(grid_m1):
    recovered = []
    for radius in (0.5, 1.0, 2.0):
        mu = hc.curvature_measure_integral(hc.regular_polygon(8, radius), grid_m1)
        rep = solve(mu)
        assert rep.converged
        recovered.append(rep.body.radii.mean())
    assert recovered[0] < recovered[1] < recovered[2]


def test_precondition_rejects_invalid_measure():
    mu = DiscreteMeasure(1, dirs_from_angles(0.1 * np.arange(4) / 3.0), np.full(4, 1.6))
    with pytest.raises(hc.PreconditionError) as info:
        solve(mu)
    assert info.value.report is not None
    assert not info.value.report.alexandrov_ok


def test_force_overrides_precondition():
    # total mass 4 < 2 pi: every body's angles total more than the atoms,
    # so the residual stalls and the step factor underflows
    mu = DiscreteMeasure(1, dirs_from_angles([0.0, 1.8, 2.6, 4.4]),
                         np.array([1.0, 1.0, 1.0, 1.0]))
    cond = hc.check_conditions(mu)
    assert not cond.total_mass_ok
    rep = solve(mu, SolverConfig(max_iter=50), force=True)
    assert rep.condition_report is not None
    assert not rep.converged
    assert rep.stop_reason == "damping"
    assert rep.body is not None
    assert np.all(np.diff(rep.residual_history) < 0.0)


def test_force_with_invalid_start_reports_instead_of_raising():
    # all atoms in a narrow arc: the ball start has the basepoint on its boundary
    mu = DiscreteMeasure(1, dirs_from_angles(0.1 * np.arange(4) / 3.0), np.full(4, 1.6))
    rep = solve(mu, force=True)
    assert not rep.converged
    assert rep.stop_reason == "geometry"
    assert rep.body is None
    assert "half-plane" in rep.extraction_error
    assert rep.iterations == 0 and rep.residual_history == []


def test_stop_reasons(square_mu, criterion06_bodies):
    rep = solve(square_mu)
    assert rep.converged and rep.stop_reason == "converged"
    assert rep.residual_history[-1] <= SolverConfig().tol * square_mu.total

    mu = hc.curvature_measure_angles(criterion06_bodies[2][0])
    rep = solve(mu, SolverConfig(max_iter=2))
    assert not rep.converged and rep.stop_reason == "max_iter"
    assert rep.iterations == 2 and len(rep.residual_history) == 3
    assert rep.body is not None

    # no residual reaches 1e-30 of the mass: once rounding is all that is
    # left, halving the step never lowers it
    rep = solve(square_mu, SolverConfig(tol=1e-30))
    assert not rep.converged and rep.stop_reason == "damping"
    assert rep.iterations < SolverConfig().max_iter
    assert rep.residual_history[-1] < 1e-14


def test_report_carries_diagnostics(square_mu):
    rep = solve(square_mu)
    assert rep.condition_report.all_ok
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residuals.shape == (square_mu.size,)
    assert rep.residuals.max() <= 1e-12
    assert rep.restarts_used == 0
    assert rep.extraction_error is None
    assert rep.wall_time > 0


def test_solver_config_validation():
    for bad in ({"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig() == SolverConfig(tol=1e-12, max_iter=50, seed=0)


def test_m2_round_trip_octahedron(octahedron, grid_m2):
    mu = hc.curvature_measure_integral(octahedron, grid_m2)
    rep = solve(mu)
    assert rep.converged
    assert np.abs(rep.body.radii - 1.0).max() < 1e-2


def test_m2_grid_measure_round_trip_in_few_steps(criterion06_bodies, grid_m2):
    # the grid ascent stalled on this body's grid measure for thousands of
    # iterations; Newton on the exact angles needs a handful of steps
    body = criterion06_bodies[2][9]
    mu = hc.curvature_measure_integral(body, grid_m2)
    rep = solve(mu, SolverConfig(max_iter=10))
    assert rep.converged
    assert np.all(np.diff(rep.residual_history) < 0)
    assert np.abs(rep.body.radii - body.radii).max() < 1e-2 * body.radii.min()


@pytest.mark.parametrize("m", [1, 2])
def test_angle_route_round_trips(criterion06_bodies, m):
    for k, body in enumerate(criterion06_bodies[m]):
        rep = solve(hc.curvature_measure_angles(body))
        assert rep.converged and rep.iterations <= 10, (k, rep.stop_reason, rep.iterations)
        assert np.array_equal(rep.body.directions, body.directions), k
        err = np.abs(rep.body.radii - body.radii).max() / body.radii.min()
        assert err <= 1e-10, (k, err)


@pytest.mark.parametrize("m, sizes", [(1, (4, 7, 12, 20)), (2, (6, 9, 12))])
def test_grouped_jacobian_matches_dense(m, sizes):
    rng = np.random.default_rng(60 + m)
    for n in sizes:
        body = hc.random_polytope(m, n, rng)
        mu = hc.curvature_measure_angles(body)
        psi = np.log(np.tanh(body.radii))
        grouped = _jacobian(mu, psi, body)
        dense = np.empty((n, n))
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = FD_STEP
            dense[:, j] = (_angles(mu, psi + bump)[1] - _angles(mu, psi - bump)[1]) / (2 * FD_STEP)
        assert np.abs(grouped - dense).max() <= 1e-6 * np.abs(dense).max(), (m, n)
