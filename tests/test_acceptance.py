"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The random body collections are shared between
criteria through module-scoped fixtures, mirroring how the criteria refer to
each other's outputs.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

import hypcurv as hc
from hypcurv.cli import main
from hypcurv.ctransform import c_transform, conjugacy_diagnostics, double_convexify
from hypcurv.densities import F_phi, G_psi, f_phi
from hypcurv.minkowski import random_unit_vectors
from hypcurv.solver import dual_gradient, dual_objective, solve


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bodies_m1():
    rng = np.random.default_rng(2024)
    return [hc.random_polytope(1, int(rng.integers(4, 9)), rng) for _ in range(50)]


@pytest.fixture(scope="module")
def bodies_m2():
    rng = np.random.default_rng(4048)
    return [hc.random_polytope(2, int(rng.integers(6, 11)), rng) for _ in range(50)]


@pytest.fixture(scope="module")
def forward_m1(bodies_m1):
    return [
        (p, hc.curvature_measure_integral(p), hc.curvature_measure_angles(p))
        for p in bodies_m1
    ]


@pytest.fixture(scope="module")
def forward_m2(bodies_m2):
    return [
        (p, hc.curvature_measure_integral(p), hc.curvature_measure_angles(p))
        for p in bodies_m2
    ]


@pytest.fixture(scope="module")
def roundtrips_m1(forward_m1):
    return [(p, solve(mu)) for p, mu, _ in forward_m1[:30]]


@pytest.fixture(scope="module")
def roundtrips_m2(forward_m2):
    return [(p, solve(mu)) for p, mu, _ in forward_m2[:30]]


def test_criterion_01_ball_total_curvature_m1():
    t0 = time.perf_counter()
    ball = hc.regular_polygon(256, 1.0)
    total = hc.polar_boundary_area(ball)
    elapsed = time.perf_counter() - t0
    target = 2 * np.pi * np.cosh(1.0)
    rel = abs(total / target - 1.0)
    report(1, rel < 0.01 and elapsed < 1.0,
           f"m=1 ball total {total:.5f} vs 2*pi*cosh(1)={target:.5f} "
           f"(rel {rel:.2e}, {elapsed:.2f}s)")


def test_criterion_02_ball_total_curvature_m2():
    t0 = time.perf_counter()
    ball = hc.icosphere_body(4, 1.0)
    total = hc.polar_boundary_area(ball)
    elapsed = time.perf_counter() - t0
    target = 4 * np.pi * np.cosh(1.0) ** 2
    rel = abs(total / target - 1.0)
    report(2, rel < 0.02 and elapsed < 30.0,
           f"m=2 ball total {total:.4f} vs 4*pi*cosh^2(1)={target:.4f} "
           f"(rel {rel:.2e}, {elapsed:.1f}s)")


def test_criterion_03_gauss_bonnet():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        poly = hc.random_polytope(1, int(rng.integers(4, 9)), rng)
        total = hc.curvature_measure_angles(poly).weights.sum()
        worst = max(worst, abs(total - 2 * np.pi - hc.polygon_area_m1(poly)))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-6 and elapsed < 5.0,
           f"Gauss-Bonnet residual over 20 polygons: max {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_04_two_method_oracle(forward_m1, forward_m2):
    worst1 = max(np.abs(mi.weights - ma.weights).max() for _, mi, ma in forward_m1)
    worst2 = max(
        np.abs(mi.weights - ma.weights).max() / ma.weights.max()
        for _, mi, ma in forward_m2
    )
    report(4, worst1 <= 1e-6 and worst2 <= 2e-2,
           f"two-method agreement: m=1 max abs {worst1:.2e} (tol 1e-6), "
           f"m=2 max rel {worst2:.2e} (tol 2e-2), 50 bodies each")


def test_criterion_05_necessary_conditions(forward_m1, forward_m2):
    eps1 = 1e-9 * 2 * np.pi
    eps2 = 1e-9 * 4 * np.pi
    ok = True
    margins = []
    for group, eps in ((forward_m1, eps1), (forward_m2, eps2)):
        for _, mu, _ in group:
            rep = hc.check_conditions(mu)
            ok &= rep.all_ok
            margins.append(min(rep.total_mass_excess, rep.alexandrov_slack))
    report(5, ok and min(margins) > 0,
           f"all 100 forward measures pass the three conditions; "
           f"smallest margin {min(margins):.3e}")


def test_criterion_06_round_trip_uniqueness(roundtrips_m1, roundtrips_m2):
    worst1 = max(
        np.abs(rep.body.radii - p.radii).max() / p.radii.min()
        for p, rep in roundtrips_m1
    )
    conv1 = all(rep.converged for _, rep in roundtrips_m1)
    worst2 = max(
        np.abs(rep.body.radii - p.radii).max() / p.radii.min()
        for p, rep in roundtrips_m2
    )
    conv2 = all(rep.converged for _, rep in roundtrips_m2)
    moved = [
        f"m={m} body {i}"
        for m, trips in ((1, roundtrips_m1), (2, roundtrips_m2))
        for i, (p, rep) in enumerate(trips)
        if not np.array_equal(rep.body.directions, p.directions)
    ]
    same_dirs = not moved
    report(6, conv1 and conv2 and worst1 <= 1e-4 and worst2 <= 1e-2 and same_dirs,
           f"round trips: m=1 worst rel radius err {worst1:.2e} (tol 1e-4), "
           f"m=2 {worst2:.2e} (tol 1e-2), all converged={conv1 and conv2}, "
           f"same_dirs={same_dirs} (first moved: {moved[0] if moved else 'none'}), "
           f"30+30 bodies")


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(77)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        poly = hc.random_polytope(1, int(rng.integers(4, 9)), rng)
        mu = hc.curvature_measure_integral(poly)
        psi = np.log(np.tanh(poly.radii)) + rng.uniform(-0.15, 0.1, size=mu.size)
        grad = dual_gradient(psi, mu)
        for i in range(mu.size):
            bump = np.zeros(mu.size)
            bump[i] = step
            fd = (dual_objective(psi + bump, mu)
                  - dual_objective(psi - bump, mu)) / (2 * step)
            worst = max(worst, abs(fd - grad[i]) / max(abs(grad[i]), 1e-4))
    report(7, worst <= 1e-5,
           f"gradient vs central differences over 20 configs: worst rel {worst:.2e}")


def test_criterion_08_ctransform_suite(roundtrips_m1, roundtrips_m2):
    # identities and fixed points come from the hull of the points e^psi_i xi_i
    worst_pair = 0.0
    worst_fix = 0.0
    worst_lipschitz = 0.0
    admissible = True
    rng = np.random.default_rng(88)
    start = time.perf_counter()
    for group in (roundtrips_m1, roundtrips_m2):
        for _, rep in group:
            diag = conjugacy_diagnostics(rep.psi)
            worst_pair = max(worst_pair, abs(diag.max_phi_plus_min_psi),
                             abs(diag.min_phi_plus_max_psi))
            worst_lipschitz = max(worst_lipschitz, diag.lipschitz_estimate)
            moved = double_convexify(rep.psi).values - rep.psi.values
            worst_fix = max(worst_fix, np.abs(moved).max())
            for _ in range(5):
                idx = int(rng.integers(rep.psi.size))
                eta = (rep.psi.support[idx] if idx % 2
                       else random_unit_vectors(rep.psi.m, 1, rng)[0])
                val, _ = c_transform(rep.psi, eta)
                costs = hc.cost(np.broadcast_to(eta, rep.psi.support.shape),
                                rep.psi.support)
                admissible &= bool(np.all(val + rep.psi.values
                                          <= costs * (1 + 1e-13) + 1e-13))
    elapsed = time.perf_counter() - start
    report(8, worst_pair <= 1e-12 and worst_fix <= 1e-12 and admissible,
           f"conjugacy identities worst {worst_pair:.2e} (tol 1e-12), "
           f"double-convexify drift {worst_fix:.2e} (tol 1e-12), admissibility={admissible}, "
           f"largest Lipschitz constant {worst_lipschitz:.3f}, {elapsed:.3f} s")


def test_criterion_09_density_closed_forms():
    step = 1e-5
    worst_fd = 0.0
    for m in (1, 2):
        for u in (0.1, 1.0, 3.0):
            fd = (F_phi(u + step, m) - F_phi(u - step, m)) / (2 * step)
            worst_fd = max(worst_fd, abs(fd / f_phi(u, m) - 1.0))
    worst_quad = 0.0
    for m in (1, 2):
        for a, b in [(0.2, 1.0), (0.5, 3.0)]:
            val, _ = quad(lambda s: f_phi(s, m), a, b, epsabs=1e-13, epsrel=1e-13)
            worst_quad = max(worst_quad, abs((F_phi(b, m) - F_phi(a, m)) / val - 1.0))
    t = 1e-6
    g_ratio = abs(G_psi(-t) / (-np.sqrt(2 * t)) - 1.0)
    report(9, worst_fd <= 1e-8 and worst_quad <= 1e-8 and g_ratio <= 1e-2,
           f"F' vs f rel {worst_fd:.2e}, quad-of-f vs dF rel {worst_quad:.2e}, "
           f"G(-t)/-sqrt(2t) off by {g_ratio:.2e}")


def test_criterion_10_crofton_ball_pair():
    t0 = time.perf_counter()
    b1 = hc.regular_polygon(256, 0.5)
    b2 = hc.regular_polygon(256, 1.0)
    rep = hc.crofton_compare(b1, b2, n_samples=100_000, seed=2024)
    elapsed = time.perf_counter() - t0
    analytic = 2 * np.pi * (np.cosh(1.0) - np.cosh(0.5))
    ok = (
        abs(rep.lhs - rep.rhs) <= 3 * rep.stderr
        and abs(rep.lhs - analytic) < 5e-3
        and set(rep.diff_counts) <= {0, 2}
        and rep.rhs > 0
        and elapsed < 60.0
    )
    report(10, ok,
           f"crofton ball pair: lhs {rep.lhs:.5f} (analytic {analytic:.5f}), "
           f"rhs {rep.rhs:.5f} +- {rep.stderr:.1e}, diffs {sorted(rep.diff_counts)}, "
           f"{elapsed:.0f}s")


def test_criterion_11_monotonicity():
    rng = np.random.default_rng(1111)
    ok = True
    for _ in range(20):
        outer = hc.random_polytope(1, int(rng.integers(4, 9)), rng)
        shrink = rng.uniform(0.6, 0.9)
        inner = hc.from_vertices(1, outer.directions,
                                 np.arctanh(shrink * np.tanh(outer.radii)))
        ok &= hc.polar_boundary_area(inner) < hc.polar_boundary_area(
            outer)
    report(11, ok, "20 nested pairs: total curvatures strictly ordered")


def test_criterion_12_isometry_invariance():
    ball = hc.regular_polygon(256, 1.0)
    base = hc.polar_boundary_area(ball)
    worst = 0.0
    for length in (0.3, 0.6):
        moved = hc.apply_isometry(ball, np.array([np.cos(0.4), np.sin(0.4)]), length)
        worst = max(worst, abs(hc.polar_boundary_area(moved) / base - 1.0))
    report(12, worst <= 1e-12,
           f"boosted ball totals match unboosted to {worst:.2e} (tol 1e-12)")


def test_criterion_13_rejection(tmp_path):
    out = tmp_path / "fixtures"
    assert main(["demo", "--out", str(out)]) == 0
    code_a = main(["check", str(out / "measure_alexandrov_violating.json")])
    code_v = main(["check", str(out / "measure_vertex_violating.json")])
    rep_a = hc.check_conditions(hc.io.load_measure(out / "measure_alexandrov_violating.json"))
    rep_v = hc.check_conditions(hc.io.load_measure(out / "measure_vertex_violating.json"))
    ok = (
        code_a == 2 and code_v == 2
        and rep_a.worst_witness == (0, 1, 2, 3)
        and rep_v.vertex_argmax == 0
    )
    report(13, ok,
           f"violating measures exit 2 with witnesses: arc subset {rep_a.worst_witness}, "
           f"vertex atom {rep_v.vertex_argmax}")
