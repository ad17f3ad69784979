import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcurv as hc
import hypcurv.solver as solver_module
from hypcurv.bodies import _corner_angles, angles_and_jacobian, cycle_faces
from hypcurv.measures import EXHAUSTIVE_MAX_ATOMS, DiscreteMeasure
from hypcurv.minkowski import random_unit_vectors, sphere_measure
from hypcurv.solver import (
    SolverConfig,
    _ball_heuristic_psi,
    _Trials,
    dual_gradient,
    dual_objective,
    extract_body,
    solve,
    transport_residuals,
)


def dirs_from_angles(angles):
    angles = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def own_angles(body):
    """alpha and d alpha / d r on the body's own faces."""
    return angles_and_jacobian(body.faces.frame, body.radii)


def psi_jacobian(body):
    """d alpha / d psi: d alpha / d r times dr/dpsi = sinh r cosh r."""
    return own_angles(body)[1] * (np.sinh(body.radii) * np.cosh(body.radii))


@pytest.fixture(scope="module")
def square_mu(square):
    return hc.curvature_measure_integral(square)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    step = 1e-5
    for _ in range(5):
        poly = hc.random_polytope(1, int(rng.integers(4, 8)), rng)
        mu = hc.curvature_measure_integral(poly)
        psi = np.log(np.tanh(poly.radii)) + rng.uniform(-0.1, 0.1, size=mu.size)
        grad = dual_gradient(psi, mu)
        for i in range(mu.size):
            bump = np.zeros(mu.size)
            bump[i] = step
            fd = (dual_objective(psi + bump, mu)
                  - dual_objective(psi - bump, mu)) / (2 * step)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9)


def test_gradient_matches_finite_differences_m2():
    # the m=2 twin of acceptance criterion 07
    rng = np.random.default_rng(77)
    step = 1e-5
    worst = 0.0
    for _ in range(10):
        poly = hc.random_polytope(2, int(rng.integers(6, 11)), rng)
        mu = hc.curvature_measure_integral(poly)
        psi = np.log(np.tanh(poly.radii)) + rng.uniform(-0.15, 0.1, size=mu.size)
        grad = dual_gradient(psi, mu)
        for i in range(mu.size):
            bump = np.zeros(mu.size)
            bump[i] = step
            fd = (dual_objective(psi + bump, mu)
                  - dual_objective(psi - bump, mu)) / (2 * step)
            worst = max(worst, abs(fd - grad[i]) / max(abs(grad[i]), 1e-4))
    assert worst <= 1e-5


def test_symmetric_configuration_symmetry():
    # rotated cells evaluate cosines at translated angles, so equality holds
    # to rounding rather than bit-for-bit
    angles = 2 * np.pi * np.arange(6) / 6
    mu = DiscreteMeasure(1, dirs_from_angles(angles), np.full(6, 1.2))
    psi = np.full(6, -0.4)
    grad = dual_gradient(psi, mu)
    assert np.abs(grad - grad[0]).max() < 1e-13
    rolled = dual_objective(np.roll(psi, 2), mu)
    assert dual_objective(psi, mu) == pytest.approx(rolled, abs=1e-12)


def test_objective_increases_under_double_convexify():
    rng = np.random.default_rng(1)
    poly = hc.random_polytope(1, 5, rng)
    mu = hc.curvature_measure_integral(poly)
    vals = np.log(np.tanh(poly.radii)) - rng.uniform(0.0, 1.0, size=5)
    psi = hc.PotentialVector(1, mu.points, vals)
    better = hc.double_convexify(psi)
    assert dual_objective(better, mu) >= dual_objective(psi, mu) - 1e-12


def test_objective_finite():
    rng = np.random.default_rng(2)
    poly = hc.random_polytope(1, 5, rng)
    mu = hc.curvature_measure_integral(poly)
    for _ in range(10):
        psi = -np.exp(rng.uniform(-3, 1, size=5))
        assert np.isfinite(dual_objective(psi, mu))


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


def test_residual_history_falls_strictly(square_mu, octahedron):
    for mu in (square_mu, hc.curvature_measure_integral(octahedron)):
        rep = solve(mu)
        assert len(rep.residual_history) == rep.iterations + 1
        assert np.all(np.diff(rep.residual_history) < 0.0)
        assert rep.residual_history[-1] == np.abs(
            hc.curvature_measure_angles(rep.body).weights - mu.weights).max()


def test_el_residual_small_at_solution_large_after_perturbation(square_mu):
    rep = solve(square_mu)
    res = transport_residuals(rep.psi, square_mu)
    assert res.max() <= 1e-6
    vals = rep.psi.values.copy()
    vals[1] -= 0.1
    res_pert = transport_residuals(vals, square_mu)
    assert res_pert[1] > 1e-6


def test_radii_monotone_in_ball_size():
    recovered = []
    for radius in (0.5, 1.0, 2.0):
        mu = hc.curvature_measure_integral(hc.regular_polygon(8, radius))
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
    # the trials the angular cycle does not bound are refused without qhull,
    # and the returned body is built on the cycle, so the solve runs no hull;
    # the residual history is the one the solve had when from_vertices
    # refused them (85 hull calls)
    assert rep.hull_calls == 0
    assert rep.residual_history == [float.fromhex(h) for h in (
        "0x1.aee54b9e50988p-1", "0x1.aee4ff9baaeb4p-1", "0x1.aee4ff9b310d0p-1")]


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
    # a converged solve certifies the measure and runs no exact check
    assert rep.condition_report is None
    assert len(rep.residual_history) == rep.iterations + 1
    assert rep.residuals.shape == (square_mu.size,)
    assert rep.residuals.max() <= 1e-12
    assert rep.restarts_used == 0
    assert rep.extraction_error is None
    assert rep.wall_time > 0


def test_large_m2_solve_certifies_without_check():
    # above EXHAUSTIVE_MAX_ATOMS no exact check runs; convergence is the certificate
    body = hc.random_polytope(2, 22, np.random.default_rng(22))
    mu = hc.curvature_measure_angles(body)
    assert mu.size > EXHAUSTIVE_MAX_ATOMS
    rep = solve(mu)
    assert rep.converged and rep.condition_report is None
    assert np.array_equal(rep.body.directions, body.directions)
    assert np.abs(rep.body.radii - body.radii).max() <= 1e-10 * body.radii.min()


def test_large_m2_violators_fail_with_a_stop_reason():
    # above EXHAUSTIVE_MAX_ATOMS the two O(N) conditions still run; with
    # force the solve runs anyway and names its stop reason
    body = hc.random_polytope(2, 21, np.random.default_rng(21))
    mu = hc.curvature_measure_angles(body)
    light = DiscreteMeasure(2, mu.points, mu.weights * (0.9 * 4.0 * np.pi / mu.total))
    heavy = mu.weights.copy()
    heavy[0] = 2.0 * np.pi + 0.1
    for bad, reason, condition, margin in (
            (light, "damping", "total mass condition", f"{-0.1 * 4.0 * np.pi:.6g}"),
            (DiscreteMeasure(2, mu.points, heavy), "damping", "vertex condition",
             f"{-0.1:.6g}")):
        with pytest.raises(hc.PreconditionError) as info:
            solve(bad)
        assert info.value.report is None
        assert condition in str(info.value) and margin in str(info.value)
        rep = solve(bad, force=True)
        assert not rep.converged and rep.stop_reason == reason
        assert rep.condition_report is None


def test_solver_config_validation():
    for bad in ({"tol": -1.0}, {"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig() == SolverConfig(tol=1e-12, max_iter=50)


def test_m2_round_trip_octahedron(octahedron):
    mu = hc.curvature_measure_integral(octahedron)
    rep = solve(mu)
    assert rep.converged
    assert np.abs(rep.body.radii - 1.0).max() < 1e-2


def test_m2_grid_measure_round_trip_in_few_steps(criterion06_bodies):
    # the grid ascent stalled on this body's grid measure for thousands of
    # iterations; Newton on the exact angles needs a handful of steps
    body = criterion06_bodies[2][9]
    mu = hc.curvature_measure_integral(body)
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
def test_analytic_jacobian_matches_dense_differences(m, sizes):
    rng = np.random.default_rng(60 + m)
    step = 1e-7
    for n in sizes:
        body = hc.random_polytope(m, n, rng)
        mu = hc.curvature_measure_angles(body)
        psi = np.log(np.tanh(body.radii))
        trials = _Trials(mu)
        analytic = trials(psi)[1]
        dense = np.empty((n, n))
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = step
            dense[:, j] = (trials(psi + bump)[0] - trials(psi - bump)[0]) / (2 * step)
        assert np.abs(analytic - dense).max() <= 1e-6 * np.abs(dense).max(), (m, n)


@pytest.mark.parametrize("m, sizes", [(1, (4, 9, 30, 200)), (2, (5, 12, 40, 120))])
def test_weighted_jacobian_is_symmetric_with_positive_definite_part(m, sizes):
    # diag(cosh r) d alpha / d psi is the Hessian of the dual functional,
    # whose gradient is cosh(r_i) (a_i - alpha_i)
    rng = np.random.default_rng(70 + m)
    for n in sizes:
        body = hc.random_polytope(m, n, rng)
        weighted = np.cosh(body.radii)[:, None] * psi_jacobian(body)
        assert np.abs(weighted - weighted.T).max() <= 1e-12 * np.abs(weighted).max(), (m, n)
        assert np.linalg.eigvalsh(0.5 * (weighted + weighted.T)).min() > 0.0, (m, n)


@pytest.mark.parametrize("level", [2, 3])
def test_icosphere_round_trip(level):
    # 162 and 642 vertices, radii moved off the common value
    base = hc.icosphere_body(level, 1.0)
    rng = np.random.default_rng(level)
    body = hc.from_vertices(2, base.directions,
                            base.radii * (1.0 + rng.uniform(-0.002, 0.002, base.n_vertices)))
    rep = solve(hc.curvature_measure_angles(body))
    assert rep.converged and rep.iterations <= 10
    assert np.array_equal(rep.body.directions, body.directions)
    assert np.abs(rep.body.radii - body.radii).max() <= 1e-10 * body.radii.min()


def _add_at_jacobian(body):
    """d alpha / d r by three np.add.at calls: the assembly that the one
    np.bincount of ``angles_and_jacobian`` replaced, kept as its oracle."""
    frame = body.faces.frame
    i, (j, k) = frame.i, frame.ends
    _, d_i, d_j, d_k = _corner_angles(frame, body.radii)
    jac = np.zeros((body.n_vertices, body.n_vertices))
    for column, slope in ((i, d_i), (j, d_j), (k, d_k)):
        np.add.at(jac, (i, column), -slope)
    return jac


@pytest.mark.parametrize("m, sizes", [(1, (4, 5, 9, 30, 200)), (2, (5, 8, 12, 40, 120))])
def test_one_corner_pass_matches_separate_routes(m, sizes):
    rng = np.random.default_rng(80 + m)
    for n in sizes:
        body = hc.random_polytope(m, n, rng)
        alpha, jac = own_angles(body)
        assert np.array_equal(alpha, hc.curvature_measure_angles(body).weights), (m, n)
        oracle = _add_at_jacobian(body)
        assert np.abs(jac - oracle).max() <= 1e-15 * np.abs(oracle).max(), (m, n)


@pytest.mark.parametrize("m, n", [(1, 4), (1, 9), (1, 200), (2, 5), (2, 12), (2, 40), (2, 120)])
def test_indexed_corners_match_np_roll(m, n):
    body = hc.random_polytope(m, n, np.random.default_rng(90 + n))
    frame, faces = body.faces.frame, body.faces.faces
    if m == 1:
        order = faces[:, 0]
        rolled = [order, np.roll(order, 1), np.roll(order, -1)]
    else:
        rolled = [np.roll(faces, -s, axis=1).ravel() for s in range(3)]
    for got, want in zip((frame.i, *frame.ends), rolled):
        assert np.array_equal(got, want), (m, n)


bodies = st.one_of(st.tuples(st.just(1), st.integers(4, 60)),
                   st.tuples(st.just(2), st.integers(5, 40)))


@settings(max_examples=25, deadline=None)
@given(shape=bodies, seed=st.integers(0, 2**32 - 1))
def test_weighted_jacobian_property(shape, seed):
    # diag(cosh r) d alpha / d psi is symmetric with a positive definite part
    m, n = shape
    body = hc.random_polytope(m, n, np.random.default_rng(seed))
    weighted = np.cosh(body.radii)[:, None] * psi_jacobian(body)
    assert np.abs(weighted - weighted.T).max() <= 1e-12 * np.abs(weighted).max()
    assert np.linalg.eigvalsh(0.5 * (weighted + weighted.T)).min() > 0.0


@settings(max_examples=20, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(4, 40)),
                       st.tuples(st.just(2), st.integers(5, 12))),
       seed=st.integers(0, 2**32 - 1))
def test_angle_route_round_trip_property(shape, seed):
    m, n = shape
    body = hc.random_polytope(m, n, np.random.default_rng(seed))
    rep = solve(hc.curvature_measure_angles(body))
    assert rep.converged
    assert np.array_equal(rep.body.directions, body.directions)
    assert np.abs(rep.body.radii - body.radii).max() <= 1e-10 * body.radii.min()


def _assert_histories_align(rep):
    assert len(rep.residual_history) == rep.iterations + 1
    assert len(rep.damping_history) == rep.iterations
    # each accepted factor is 1 halved a whole number of times
    for damping in rep.damping_history:
        assert 0.0 < damping <= 1.0 and np.log2(damping) == np.round(np.log2(damping))


def test_history_lengths_per_stop_reason(square_mu, criterion06_bodies):
    rep = solve(square_mu)
    assert rep.stop_reason == "converged" and rep.iterations > 0
    _assert_histories_align(rep)

    rep = solve(hc.curvature_measure_angles(criterion06_bodies[2][0]), SolverConfig(max_iter=2))
    assert rep.stop_reason == "max_iter"
    _assert_histories_align(rep)
    assert len(rep.damping_history) == 2

    rep = solve(square_mu, SolverConfig(tol=1e-30))
    assert rep.stop_reason == "damping"
    _assert_histories_align(rep)

    mu = DiscreteMeasure(1, dirs_from_angles(0.1 * np.arange(4) / 3.0), np.full(4, 1.6))
    rep = solve(mu, force=True)
    assert rep.stop_reason == "geometry"
    assert rep.iterations == 0 and rep.residual_history == [] and rep.damping_history == []


def _face_keys(faces):
    """A face set as a set of vertex sets."""
    return {frozenset(f) for f in faces.tolist()}


def _hull_faces(body):
    """The faces of a from_vertices body."""
    return _face_keys(body.faces.faces)


scales = st.sampled_from([1e-3, 1e-2, 0.1, 0.3])
sinks = st.sampled_from([0.0, 0.0, 0.05, 0.3, 2.0])


def _perturbed(m, n, seed, scale, sink):
    """A random body and radii from its potentials perturbed by ``scale``
    with one vertex sunk by ``sink``: some change the faces, some sink a
    vertex below its neighbours."""
    rng = np.random.default_rng(seed)
    body = hc.random_polytope(m, n, rng)
    psi = np.log(np.tanh(body.radii)) + scale * rng.normal(size=n)
    psi[rng.integers(n)] -= sink
    return body, np.arctanh(np.exp(np.minimum(psi, -1e-3)))


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(4, 40)),
                       st.tuples(st.just(2), st.integers(5, 30))),
       seed=st.integers(0, 2**32 - 1), scale=scales, sink=sinks)
def test_kept_faces_accept_only_the_hull_faces(shape, seed, scale, sink):
    # the kept faces must never accept what from_vertices rejects, and where
    # they accept, they are the hull's faces
    m, n = shape
    body, radii = _perturbed(m, n, seed, scale, sink)
    faces = cycle_faces(body.directions) if m == 1 else body.faces
    kept = faces.bound(radii)
    try:
        trial = hc.from_vertices(m, body.directions, radii)
    except ValueError:
        assert not kept
        return
    if kept:
        assert _face_keys(faces.faces) == _hull_faces(trial)
        alpha, jac = angles_and_jacobian(faces.frame, radii)
        want_alpha, want_jac = own_angles(trial)
        assert np.abs(alpha - want_alpha).max() <= 1e-13 * np.abs(want_alpha).max()
        assert np.abs(jac - want_jac).max() <= 1e-13 * np.abs(want_jac).max()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1), scale=scales, sink=sinks)
def test_m1_hull_accepts_only_what_the_cycle_bounds(n, seed, scale, sink):
    # the converse for m=1: a trial the angular cycle does not bound is no
    # valid body, so the solve refuses it without a hull
    body, radii = _perturbed(1, n, seed, scale, sink)
    try:
        hc.from_vertices(1, body.directions, radii)
    except ValueError:
        return
    assert cycle_faces(body.directions).bound(radii)


def test_reflex_m1_vertex_is_rejected():
    # vertex 3 of a regular octagon sunk inside the chord of its neighbours
    mu = hc.curvature_measure_angles(hc.regular_polygon(8, 1.0))
    psi = np.full(8, np.log(np.tanh(1.0)))
    faces = cycle_faces(mu.points)
    trials = _Trials(mu)
    trials(psi)
    assert trials.hull_calls == 0
    psi[3] += np.log(0.9 * np.cos(2 * np.pi / 8))
    assert not faces.bound(np.arctanh(np.exp(psi)))
    with pytest.raises(ValueError, match="angular cycle"):
        trials(psi)
    assert trials.hull_calls == 0
    # a rejected start goes to from_vertices, which names the fault
    start = _Trials(mu)
    with pytest.raises(hc.NonExtremeVertexError):
        start(psi)
    assert start.hull_calls == 1


def test_m1_solves_run_no_hull(criterion06_bodies):
    for k, body in enumerate(criterion06_bodies[1]):
        rep = solve(hc.curvature_measure_angles(body))
        assert rep.converged and rep.hull_calls == 0, (k, rep.hull_calls)


def test_m2_solve_adopts_new_faces(criterion06_bodies):
    # the ball start's faces are those of the directions' spherical hull; a
    # body whose faces differ from them makes the kept faces fail on the way,
    # so its solve runs qhull for the start and at least once more; the
    # returned body keeps the accepted trial's faces
    changed = 0
    for k, body in enumerate(criterion06_bodies[2][:10]):
        mu = hc.curvature_measure_angles(body)
        start = np.full(mu.size, np.arctanh(np.exp(_ball_heuristic_psi(mu))))
        ball = hc.from_vertices(2, mu.points, start)
        rep = solve(mu)
        assert rep.converged and rep.hull_calls >= 1, k
        if _hull_faces(ball) != _hull_faces(rep.body):
            changed += 1
            assert rep.hull_calls >= 2, k
        assert np.abs(rep.body.radii - body.radii).max() <= 1e-10 * body.radii.min(), k
    assert changed > 0


# -- certificate-first solve ------------------------------------------------


@pytest.fixture
def check_calls(monkeypatch):
    """The measures ``solve`` hands to ``check_conditions``, in call order."""
    calls = []
    real = solver_module.check_conditions

    def counted(mu):
        calls.append(mu)
        return real(mu)

    monkeypatch.setattr(solver_module, "check_conditions", counted)
    return calls


def _narrow_arc():
    # four atoms on an arc of 0.1 rad: the subset condition fails, and the
    # ball start has the basepoint on its boundary
    return DiscreteMeasure(1, dirs_from_angles(0.1 * np.arange(4) / 3.0), np.full(4, 1.6))


def _light_m1():
    # total mass 4 < 2 pi
    return DiscreteMeasure(1, dirs_from_angles([0.0, 1.8, 2.6, 4.4]), np.ones(4))


def test_converged_solves_run_no_exact_check(check_calls):
    rng = np.random.default_rng(24)
    bodies = [hc.random_polytope(1, 9, rng), hc.random_polytope(2, 9, rng),
              hc.from_vertices(2, hc.build_grid(2, 0).nodes, np.ones(12)),
              hc.random_polytope(2, EXHAUSTIVE_MAX_ATOMS, rng)]
    for body in bodies:
        rep = solve(hc.curvature_measure_angles(body))
        assert rep.converged and rep.condition_report is None, body.n_vertices
        assert np.abs(rep.body.radii - body.radii).max() <= 1e-10 * body.radii.min()
    assert check_calls == []


def test_failing_solves_run_one_exact_check(check_calls, square_mu, criterion06_bodies):
    stalled = hc.curvature_measure_angles(criterion06_bodies[2][0])
    for mu, kwargs, admissible in (
            (_narrow_arc(), {}, False),                      # geometry, subset condition
            (_narrow_arc(), {"force": True}, False),
            (_light_m1(), {}, False),                        # the O(N) pre-check
            (_light_m1(), {"force": True}, False),           # damping
            (stalled, {"config": SolverConfig(max_iter=2)}, True),
            (square_mu, {"config": SolverConfig(tol=1e-30)}, True)):
        check_calls.clear()
        if admissible or kwargs.get("force"):
            rep = solve(mu, **kwargs)
            assert not rep.converged and rep.condition_report.all_ok == admissible
        else:
            with pytest.raises(hc.PreconditionError) as info:
                solve(mu, **kwargs)
            assert info.value.report is not None
        assert len(check_calls) == 1 and check_calls[0] is mu, kwargs


def _bench_admissibility_measures(seed, monkeypatch):
    """The measures the benchmark's ``admissibility_m2`` workload checks."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    seen = []
    with monkeypatch.context() as patch:
        # its dataclasses look their module up by name
        patch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        patch.setattr(workloads.hc, "check_conditions", seen.append)
        for op in workloads.admissibility_m2(seed):
            op.run()
    return seen


def _decide(mu):
    """The solve's report, or None where it raises PreconditionError, after
    asserting that it raises exactly when ``check_conditions`` fails, with
    that report."""
    cond = hc.check_conditions(mu)
    try:
        rep = solve(mu)
    except hc.PreconditionError as exc:
        assert not cond.all_ok
        assert replace(exc.report, wall_time=0.0) == replace(cond, wall_time=0.0)
        return None
    assert cond.all_ok
    return rep


def test_solve_raises_exactly_when_the_exact_check_fails(monkeypatch):
    measures = [mu for seed in range(3) for mu in _bench_admissibility_measures(seed, monkeypatch)]
    measures += [_narrow_arc(), _light_m1()]
    reports = [_decide(mu) for mu in measures]
    # per seed: five bodies, which converge, and three violators
    assert len(reports) == 3 * 8 + 2
    assert sum(rep is None for rep in reports) == 3 * 3 + 2
    assert all(rep is None or rep.converged for rep in reports)


@settings(max_examples=60, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(4, 12)),
                       st.tuples(st.just(2), st.integers(5, 12))),
       seed=st.integers(0, 2**32 - 1), cut=st.floats(-1.0, 1.0),
       shrink=st.floats(0.02, 1.0), excess=st.floats(-0.1, 0.6))
def test_solve_decides_as_the_exact_check_property(shape, seed, cut, shrink, excess):
    # a body's measure with the atoms on the far side of a random plane
    # shrunk, then scaled to the sphere's measure times 1 + excess: each
    # condition, and the subset condition alone, fails in some draws
    m, n = shape
    rng = np.random.default_rng(seed)
    mu = hc.curvature_measure_angles(hc.random_polytope(m, n, rng))
    weights = mu.weights * np.where(mu.points @ random_unit_vectors(m, 1, rng)[0] < cut,
                                    shrink, 1.0)
    weights *= (1.0 + excess) * sphere_measure(m) / weights.sum()
    _decide(DiscreteMeasure(m, mu.points, weights))


def test_thin_triangle_starts_on_a_raised_ball():
    # a valid triangle whose least Klein support, 1.1e-6, is barely above
    # MIN_SUPPORT: the ball of the same total curvature fell below it, at
    # 7.9e-7, and the solve stopped on geometry
    gap = 2.2e-6 / np.tanh(3.0)
    body = hc.from_vertices(1, dirs_from_angles([0.0, np.pi - gap, 1.5 * np.pi]),
                            np.full(3, 3.0))
    assert body.facet_supports.min() < 1.2e-6
    rep = solve(hc.curvature_measure_angles(body))
    assert rep.converged and rep.hull_calls == 0
    assert np.abs(rep.body.radii - body.radii).max() <= 1e-10
