"""Workloads of the benchmark: seeded inputs, timed operations and their checks.

Each builder takes the run seed, makes every input of one round (this is the
set-up the benchmark times as ``setup_s``) and returns the round's operations.
An operation is a call into hypcurv plus a check of its output against a
property the mathematics guarantees; the check never compares with a stored
copy of earlier output.

Inputs come from this module's own generators, drawn with numpy's Generator
and validated with ``from_vertices``.  They do not use hypcurv's
``random_polytope`` or ``random_unit_vectors``, so a change to those helpers
cannot change a workload.

Why the round trips solve a fixed suite: the time of one m=2 solve varies
from 2.5 to 11 s between random bodies of 6 to 10 vertices, and one body
turned by a symmetry of the level-6 grid took from 9 to 57 s, because the
ascent's path depends on the last bits of its input.  A run of a few freshly
drawn bodies would time the draw, not the program.  So the round-trip bodies
are drawn once from ``SUITE_SEED``, and the run seed only sets the order in
which they are solved.  The Crofton pairs and their sampling seed are fixed
too: a 3-sigma agreement check misses by chance about once in 370 draws, and
an operation may not fail on some seeds only.  The forward and admissibility
inputs are drawn from the run seed; their cost depends mostly on the body
sizes, which are fixed per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

import hypcurv as hc
from hypcurv.errors import HypcurvError

SUITE_SEED = 1903          # round-trip shapes and the nested Crofton pair
CROFTON_SEED = 2024        # geodesic sample seed of every Crofton comparison
CROFTON_SAMPLES = 100_000
GRID_LEVEL = 6             # the solver's default grid level
MIN_EXTERIOR = 0.01        # smallest exterior angle a drawn body may have
MAX_TRIES = 20_000

SPHERE2 = 4.0 * math.pi
RADIUS_BOUND = {1: 1e-4, 2: 1e-2}   # acceptance bounds of the round trips
ROUTE_TOL = 2e-2                    # criterion 04's m=2 two-route agreement

# (vertices, bodies sharing those directions); the bodies after the first
# reuse the first one's support, so their solves find its kernel cached
ROUNDTRIP_M2 = ((7, 2), (9, 1))
ROUNDTRIP_M1 = ((4, 2), (6, 2), (8, 2), (12, 2), (16, 2), (24, 2), (32, 2))
FORWARD_SIZES = tuple(range(6, 15))
ICOSPHERE_LEVELS = (2, 3)           # 162 and 642 vertices
ADMISSIBLE_SIZES = (8, 9, 10, 11, 12)
TOTAL_VIOLATOR_SIZE = 9
VERTEX_VIOLATOR_SIZE = 10
CLUSTER_VIOLATOR = (7, 4)           # atoms inside and outside the cap


@dataclass(frozen=True)
class Op:
    """One timed call; ``check`` returns None when the output is right."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- generators ------------------------------------------------------------


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _directions_m2(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors, pairwise at least 0.5/sqrt(n) apart."""
    limit = math.cos(0.5 / math.sqrt(n))
    for _ in range(MAX_TRIES):
        dirs = _unit(rng.normal(size=(n, 3)))
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, -1.0)
        if dots.max() <= limit:
            return dirs
    raise RuntimeError(f"no separated direction set of size {n}")


def _valid_body(m: int, dirs: np.ndarray, radii: np.ndarray):
    """The body, or None when it is invalid or has a nearly flat vertex."""
    try:
        body = hc.from_vertices(m, dirs, radii)
    except HypcurvError:
        return None
    if hc.curvature_measure_angles(body).weights.min() < MIN_EXTERIOR:
        return None
    return body


def draw_body_m2(rng: np.random.Generator, n: int, dirs: np.ndarray | None = None):
    """Random m=2 body with radii in [0.4, 1.6], as the acceptance suite draws.

    ``dirs`` fixes the directions and only the radii are drawn.
    """
    for _ in range(MAX_TRIES):
        d = _directions_m2(rng, n) if dirs is None else dirs
        body = _valid_body(2, d, rng.uniform(0.4, 1.6, size=n))
        if body is not None:
            return body
    raise RuntimeError(f"no valid m=2 body with {n} vertices")


def draw_body_m1(rng: np.random.Generator, n: int, dirs: np.ndarray | None = None):
    """Random m=1 polygon: jittered equal spacing, radii that keep every vertex extreme.

    ``dirs`` fixes the directions and only the radii are drawn.
    The Klein radii tanh(r_i) dip below a common value by at most
    0.3 (1 - cos(2 pi / n)), which leaves every vertex outside the chord of
    its neighbours for most draws at any n.
    """
    for _ in range(MAX_TRIES):
        d = dirs
        if d is None:
            theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.25, 0.25, size=n)) / n
            d = np.column_stack([np.cos(theta), np.sin(theta)])
        dip = 0.3 * (1.0 - math.cos(2.0 * math.pi / n))
        klein = math.tanh(rng.uniform(0.5, 1.3)) * (1.0 - dip * rng.uniform(size=n))
        body = _valid_body(1, d, np.arctanh(klein))
        if body is not None:
            return body
    raise RuntimeError(f"no valid m=1 body with {n} vertices")


def euclidean_defect_measure(rng: np.random.Generator, n: int):
    """Vertex curvatures (angle defects) of a random Euclidean polytope around 0.

    By Descartes' theorem they total exactly 4 pi, and by Alexandrov's
    Euclidean theorem they satisfy the strict subset inequality and the
    vertex bound.  So the measure breaks the hyperbolic total-mass condition
    alone.
    """
    for _ in range(MAX_TRIES):
        dirs = _directions_m2(rng, n)
        pts = dirs * rng.uniform(0.6, 1.4, size=(n, 1))
        hull = ConvexHull(pts)
        if len(hull.vertices) < n or hull.equations[:, 3].max() > -0.05:
            continue
        angle_sum = np.zeros(n)
        for tri in hull.simplices:
            for k in range(3):
                a, b, c = pts[tri[k]], pts[tri[(k + 1) % 3]], pts[tri[(k + 2) % 3]]
                u, v = _unit(b - a), _unit(c - a)
                angle_sum[tri[k]] += math.acos(max(-1.0, min(1.0, float(u @ v))))
        defects = 2.0 * np.pi - angle_sum
        if defects.min() >= MIN_EXTERIOR:
            return hc.DiscreteMeasure(2, dirs, defects)
    raise RuntimeError("no valid Euclidean polytope")


def cluster_measure(rng: np.random.Generator, inside: int, outside: int):
    """Atoms crowded in a cap of radius eps whose outside mass is too small.

    The hull of the cluster lies in the cap, so its polar contains the polar
    cap, of area 2 pi (1 - sin eps), while the atoms off the hull carry less
    than that.  Returns the measure and the slack bound
    (outside mass) - 2 pi (1 - sin eps) < 0, which the minimal slack cannot
    exceed.  The cluster alone outweighs 4 pi and every atom stays below 2 pi,
    so only the subset condition fails.
    """
    center = _unit(rng.normal(size=3))
    e1 = _unit(np.cross(center, np.eye(3)[int(np.argmin(np.abs(center)))]))
    e2 = np.cross(center, e1)
    eps = rng.uniform(0.2, 0.4)
    polar_cap = 2.0 * np.pi * (1.0 - math.sin(eps))
    tilt = 0.9 * eps * np.sqrt(rng.uniform(0.05, 1.0, size=inside))
    turn = rng.uniform(0.0, 2.0 * np.pi, size=inside)
    ring = np.cos(turn)[:, None] * e1 + np.sin(turn)[:, None] * e2
    near = np.cos(tilt)[:, None] * center + np.sin(tilt)[:, None] * ring
    far = []
    while len(far) < outside:
        x = _unit(rng.normal(size=3))
        if x @ center < math.cos(eps + 0.05):
            far.append(x)
    outside_mass = rng.uniform(0.3, 0.8) * polar_cap
    weights = np.concatenate([rng.uniform(2.0, 3.0, size=inside),
                              outside_mass * rng.dirichlet(np.ones(outside))])
    measure = hc.DiscreteMeasure(2, np.vstack([near, np.array(far)]), weights)
    return measure, float(weights[inside:].sum()) - polar_cap


# -- checks ----------------------------------------------------------------


def check_roundtrip(report, body, bound: float) -> str | None:
    """Converged, directions bit for bit, radii within the acceptance bound."""
    if not report.converged:
        return "did not converge"
    if report.body is None:
        return f"no body extracted: {report.extraction_error}"
    if not np.array_equal(report.body.directions, body.directions):
        return "recovered directions differ from the input"
    err = float(np.abs(report.body.radii - body.radii).max() / body.radii.min())
    if not err <= bound:
        return f"radius error {err:.3e} above {bound:g}"
    return None


def check_forward(body, by_angles, by_grid, per_atom: bool) -> str | None:
    """Two routes agree; both totals lie in (4 pi, 4 pi cosh^2(r_max)].

    The lower bound is the total-mass condition, the upper one monotonicity
    under inclusion in the ball of radius r_max.  Random bodies must agree
    atom by atom within criterion 04's 2 % of the largest atom; icosphere
    bodies, whose cells hold only ~60 to ~250 grid nodes, in their totals.
    """
    upper = SPHERE2 * math.cosh(float(body.radii.max())) ** 2
    for route, mu in (("angles", by_angles), ("grid", by_grid)):
        if not SPHERE2 < mu.total <= upper:
            return f"{route} total {mu.total:.6f} outside (4 pi, {upper:.6f}]"
    if per_atom:
        gap = float(np.abs(by_grid.weights - by_angles.weights).max() / by_angles.weights.max())
    else:
        gap = abs(by_grid.total - by_angles.total) / by_angles.total
    if not gap <= ROUTE_TOL:
        return f"routes differ by {gap:.3e} (tolerance {ROUTE_TOL:g})"
    return None


def check_crofton(report, analytic: float | None) -> str | None:
    """Criterion 10: agreement within 3 sigma + 1e-3, count differences in {0, 2}."""
    if not abs(report.lhs - report.rhs) <= 3.0 * report.stderr + 1e-3:
        return f"lhs {report.lhs:.5f} vs rhs {report.rhs:.5f} +- {report.stderr:.1e}"
    if not set(report.diff_counts) <= {0, 2}:
        return f"count differences {sorted(report.diff_counts)}"
    if analytic is not None and not abs(report.lhs - analytic) < 5e-3:
        return f"lhs {report.lhs:.5f} vs analytic {analytic:.5f}"
    return None


def check_admissibility(report, broken: str | None, slack_bound: float | None = None):
    """Exactly the condition the measure was built to break fails (none for bodies)."""
    flags = {"total": report.total_mass_ok, "vertex": report.vertex_ok,
             "alexandrov": report.alexandrov_ok}
    for name, ok in flags.items():
        if ok == (name == broken):
            return f"{name} condition reported {'met' if ok else 'broken'}"
    if slack_bound is not None and not report.alexandrov_slack <= slack_bound:
        return f"slack {report.alexandrov_slack:.6f} above the cap bound {slack_bound:.6f}"
    return None


# -- operations ------------------------------------------------------------


def _solve_op(label: str, body, bound: float) -> Op:
    mu = hc.curvature_measure_angles(body)
    return Op(label, lambda: hc.solve(mu), lambda rep: check_roundtrip(rep, body, bound))


def _forward_op(label: str, body, grid, per_atom: bool) -> Op:
    dirs, radii = body.directions, body.radii

    def run():
        poly = hc.from_vertices(2, dirs, radii)
        return poly, hc.curvature_measure_angles(poly), hc.curvature_measure_integral(poly, grid)

    return Op(label, run, lambda res: check_forward(*res, per_atom))


def _crofton_op(label: str, inner, outer, grid, analytic: float | None) -> Op:
    def run():
        return hc.crofton_compare(inner, outer, grid, n_samples=CROFTON_SAMPLES,
                                  seed=CROFTON_SEED)

    return Op(label, run, lambda rep: check_crofton(rep, analytic))


def _admissibility_op(label: str, mu, broken: str | None, slack_bound: float | None = None) -> Op:
    return Op(label, lambda: hc.check_conditions(mu),
              lambda rep: check_admissibility(rep, broken, slack_bound))


# -- workloads ---------------------------------------------------------------


def _roundtrip(m: int, suite: tuple, seed: int) -> list[Op]:
    """The fixed suite's solves, in an order drawn from the run seed."""
    draw = draw_body_m2 if m == 2 else draw_body_m1
    rng = np.random.default_rng(SUITE_SEED)
    ops = []
    for n, count in suite:
        first = draw(rng, n)
        ops.append(_solve_op(f"solve m={m} n={n}", first, RADIUS_BOUND[m]))
        for k in range(1, count):
            body = draw(rng, n, dirs=first.directions)
            ops.append(_solve_op(f"solve m={m} n={n} shared support {k}", body, RADIUS_BOUND[m]))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[k] for k in order]


def roundtrip_m2(seed: int) -> list[Op]:
    return _roundtrip(2, ROUNDTRIP_M2, seed)


def roundtrip_m1(seed: int) -> list[Op]:
    return _roundtrip(1, ROUNDTRIP_M1, seed)


def admissibility_m2(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in ADMISSIBLE_SIZES:
        mu = hc.curvature_measure_angles(draw_body_m2(rng, n))
        ops.append(_admissibility_op(f"check body n={n}", mu, None))
    mu = euclidean_defect_measure(rng, TOTAL_VIOLATOR_SIZE)
    ops.append(_admissibility_op(f"check total-mass violator n={mu.size}", mu, "total"))
    body_mu = hc.curvature_measure_angles(draw_body_m2(rng, VERTEX_VIOLATOR_SIZE))
    weights = body_mu.weights.copy()
    weights[int(np.argmax(weights))] = 2.0 * np.pi + rng.uniform(0.05, 0.5)
    mu = hc.DiscreteMeasure(2, body_mu.points, weights)
    ops.append(_admissibility_op(f"check vertex violator n={mu.size}", mu, "vertex"))
    mu, bound = cluster_measure(rng, *CLUSTER_VIOLATOR)
    ops.append(_admissibility_op(f"check cluster violator n={mu.size}", mu, "alexandrov", bound))
    return ops


def forward(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    grid_m1 = hc.build_grid(1, GRID_LEVEL)
    grid_m2 = hc.build_grid(2, GRID_LEVEL)
    ops = [_crofton_op("crofton ball pair n=256", hc.regular_polygon(256, 0.5),
                       hc.regular_polygon(256, 1.0), grid_m1,
                       2.0 * np.pi * (math.cosh(1.0) - math.cosh(0.5)))]
    outer = draw_body_m1(np.random.default_rng(SUITE_SEED), 24)
    inner = hc.from_vertices(1, outer.directions, np.arctanh(0.75 * np.tanh(outer.radii)))
    ops.append(_crofton_op("crofton nested pair n=24", inner, outer, grid_m1, None))
    for level in ICOSPHERE_LEVELS:
        nodes = hc.build_grid(2, level).nodes
        body = hc.from_vertices(2, nodes, np.full(len(nodes), rng.uniform(0.8, 1.2)))
        ops.append(_forward_op(f"forward icosphere n={len(nodes)}", body, grid_m2, False))
    for n in FORWARD_SIZES:
        ops.append(_forward_op(f"forward n={n}", draw_body_m2(rng, n), grid_m2, True))
    return ops


WORKLOADS = {
    "roundtrip_m2": roundtrip_m2,
    "roundtrip_m1": roundtrip_m1,
    "admissibility_m2": admissibility_m2,
    "forward": forward,
}
