"""Monte-Carlo verification of polar-boundary areas by intersection counting.

Space-like geodesics of de Sitter space are parameterized as

    gamma(s) = cos(s) (sinh(h_a) o + cosh(h_a) xi_a) + sin(s) xi_b,

with xi_a, xi_b orthonormal sphere directions and h_a >= 0; such a geodesic
is dual to a totally geodesic submanifold of hyperbolic space through the
point at distance h_a from the basepoint in direction xi_a.  The kinematic
measure is sampled in these coordinates: for m=1 the dual objects are points
and the radial density is the hyperbolic area element; for m=2 they are
lines, parameterized by a plane through the basepoint and a foot point, and
the radial density acquires a cosh factor (the invariant line density).  The
m=2 normalization is calibrated by the concentric-ball oracle, for which the
area difference is known in closed form.

Intersection counts with a polytope's polar boundary reduce to an exact
two-dimensional cone test: in the variables u = (cos s, sin s) the sign of
t(s) - h(eta(s)) is the minimum of N linear forms, so the region above the
polar boundary is an arc whose endpoints are the crossing parameters.  The
basepoint lies inside the body, so a hitting arc never wraps and its ends
come from the smallest and largest form angle, accumulated one vertex at a
time over all samples.  Restricted to omega = {h1 < h2}, a crossing of body
1 counts where gamma is below body 2's boundary, and one of body 2 where it
is above body 1's: membership in the other body's arc, with no evaluation
of either support function.  A partition-and-bisection fallback handles
arbitrary support callables.

The area side integrates f(b) / cosh(r_i) over the grid nodes, with b = tanh h
each node's best score from ``cells.SupportKernel``, formed block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import HyperbolicPolytope
from .cells import SupportKernel
from .densities import f_of_b
from .minkowski import validate_dimension
from .quadrature import QuadratureGrid

# a span within this of pi, or a lower-omega crossing within this of an end
# of the other body's arc, marks the geodesic as grazing: excluded as unstable
_TANGENT_TOL = 1e-9

# sign-change bracketing points of the bisection fallback
_N_PARTITION = 2048

# allowance for the grid quadrature of the area difference in the agreement flag
_QUADRATURE_TOL = 1e-3

_CROFTON_FACTOR = {1: 0.5, 2: 1.0 / np.pi}  # m / |S^{m-1}|


@dataclass(frozen=True)
class GeodesicSample:
    """One space-like geodesic in foot-point coordinates."""

    m: int
    xi_a: np.ndarray
    h_a: float
    xi_b: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """Dual foot point in hyperbolic space."""
        from .minkowski import hyperbolic_point

        return hyperbolic_point(self.xi_a, self.h_a)

    def point(self, s) -> np.ndarray:
        """gamma(s) in ambient Minkowski coordinates."""
        s = np.asarray(s, dtype=float)
        cprime = np.concatenate([[np.sinh(self.h_a)], np.cosh(self.h_a) * self.xi_a])
        xib = np.concatenate([[0.0], self.xi_b])
        return np.cos(s)[..., None] * cprime + np.sin(s)[..., None] * xib

    def cylinder(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (t, eta) with gamma(s) = sinh(t) o + cosh(t) eta."""
        x = self.point(s)
        t = np.arcsinh(x[..., 0])
        eta = x[..., 1:] / np.cosh(t)[..., None]
        return t, eta


@dataclass(frozen=True)
class GeodesicSampleSet:
    """Batch of samples plus the kinematic measure of the sampled region."""

    m: int
    xi_a: np.ndarray
    h_a: np.ndarray
    xi_b: np.ndarray
    h_cap: float
    total_measure: float

    def __len__(self) -> int:
        return len(self.h_a)

    def __getitem__(self, i: int) -> GeodesicSample:
        return GeodesicSample(self.m, self.xi_a[i], float(self.h_a[i]), self.xi_b[i])


def sample_geodesics(m: int, n: int, h_cap: float, seed: int) -> GeodesicSampleSet:
    """Draw n geodesics from the kinematic measure truncated to h_a <= h_cap.

    m=1: the foot point is hyperbolic-area uniform in the disk of radius
    h_cap (radial law proportional to cosh(t) - 1), total measure
    2*pi*(cosh(h_cap) - 1).  m=2: the plane normal is uniform, the foot point
    follows the invariant line density cosh * sinh within the plane, total
    measure 2*pi^2*sinh^2(h_cap).
    """
    validate_dimension(m)
    if h_cap <= 0 or n <= 0:
        raise ValueError("h_cap and n must be positive")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    if m == 1:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        xi_a = np.column_stack([np.cos(theta), np.sin(theta)])
        xi_b = np.column_stack([-np.sin(theta), np.cos(theta)])
        h_a = np.arccosh(1.0 + u * (np.cosh(h_cap) - 1.0))
        total = 2.0 * np.pi * (np.cosh(h_cap) - 1.0)
    else:
        normal = rng.normal(size=(n, 3))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        seed_vec = np.eye(3)[np.argmin(np.abs(normal), axis=1)]
        e1 = seed_vec - np.sum(seed_vec * normal, axis=1, keepdims=True) * normal
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(normal, e1)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        xi_a = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
        xi_b = -np.sin(theta)[:, None] * e1 + np.cos(theta)[:, None] * e2
        h_a = np.arcsinh(np.sqrt(u) * np.sinh(h_cap))
        total = 2.0 * np.pi**2 * np.sinh(h_cap) ** 2
    return GeodesicSampleSet(m, xi_a, h_a, xi_b, float(h_cap), float(total))


# -- intersection counting ---------------------------------------------------


def _poly_crossings(samples: GeodesicSampleSet, poly: HyperbolicPolytope):
    """Hits, tangency flags and above-arc ends [lo, hi] per sample.

    Vertex i contributes the form (sinh h_a - k_i cosh h_a <xi_a, xi_i>,
    -k_i <xi_b, xi_i>) with k_i = tanh r_i; gamma is above the polar
    boundary where every form is positive on u = (cos s, sin s).  The
    basepoint's form (sinh h_a, 0) is a positive combination of these, so a
    set of form angles phi_i spanning less than pi contains phi = 0 and does
    not wrap: its ends are min phi_i and max phi_i, taken one vertex at a
    time, and the above-arc [max phi_i - pi/2, min phi_i + pi/2] lies in
    [-pi/2, pi/2].
    """
    ch, sh = np.cosh(samples.h_a), np.sinh(samples.h_a)
    lo_phi = np.full(len(samples), np.inf)
    hi_phi = np.full(len(samples), -np.inf)
    for xi, k in zip(poly.directions, np.tanh(poly.radii)):
        phi = np.arctan2(-k * (samples.xi_b @ xi), sh - k * ch * (samples.xi_a @ xi))
        np.minimum(lo_phi, phi, out=lo_phi)
        np.maximum(hi_phi, phi, out=hi_phi)
    span = hi_phi - lo_phi
    tangent = np.abs(span - np.pi) < _TANGENT_TOL
    hits = span < np.pi
    return hits, tangent, hi_phi - 0.5 * np.pi, lo_phi + 0.5 * np.pi


def count_intersections(gamma: GeodesicSample, body, omega=None) -> tuple[int, bool]:
    """Number of crossings of gamma with the polar boundary of a body.

    ``body`` is a HyperbolicPolytope (exact cone-arc counting) or a callable
    support function eta -> h (sign-change bracketing on ``_N_PARTITION``
    points, then bisection to 1e-10).  ``omega`` optionally restricts counting
    to crossings whose sphere direction satisfies omega(eta) (a predicate).
    Returns (count, unstable); unstable samples graze the boundary and must
    be excluded from Monte-Carlo averages.
    """
    if isinstance(body, HyperbolicPolytope):
        single = GeodesicSampleSet(
            gamma.m, gamma.xi_a[None], np.array([gamma.h_a]), gamma.xi_b[None], 0.0, 0.0
        )
        hits, tangent, lo, hi = _poly_crossings(single, body)
        if tangent[0]:
            return 0, True
        if not hits[0]:
            return 0, False
        roots = [float(lo[0]), float(hi[0])]
    else:
        roots, unstable = _roots_by_bisection(gamma, body)
        if unstable:
            return 0, True
    if omega is None:
        return len(roots), False
    count = 0
    for s in roots:
        _, eta = gamma.cylinder(np.asarray(s))
        count += bool(omega(eta))
    return count, False


def _roots_by_bisection(gamma: GeodesicSample, h_fn):
    def q_at(s_vals: np.ndarray) -> np.ndarray:
        t, eta = gamma.cylinder(s_vals)
        return t - np.asarray(h_fn(np.atleast_2d(eta))).reshape(t.shape)

    s_grid = np.linspace(0.0, 2.0 * np.pi, _N_PARTITION, endpoint=False)
    q = q_at(s_grid)
    if (np.abs(q) < 1e-12).any():
        return [], True
    sign = np.sign(q)
    flips = np.nonzero(sign != np.roll(sign, -1))[0]
    roots = []
    for k in flips:
        a = s_grid[k]
        b = a + 2.0 * np.pi / _N_PARTITION
        qa = q[k]
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            qm = float(q_at(np.array([mid]))[0])
            if qa * qm > 0:
                a, qa = mid, qm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots, False


@dataclass(frozen=True)
class CroftonReport:
    """Comparison of an area difference against its kinematic estimate."""

    lhs: float
    rhs: float
    stderr: float
    samples_used: int
    samples_unstable: int
    h_cap: float
    agree: bool
    mean_diff: float
    diff_counts: dict = field(default_factory=dict)
    omega: str = "lower"

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "stderr": self.stderr,
            "samples_used": self.samples_used,
            "samples_unstable": self.samples_unstable,
            "h_cap": self.h_cap,
            "agree": self.agree,
            "mean_diff": self.mean_diff,
            "diff_counts": {str(k): int(v) for k, v in self.diff_counts.items()},
            "omega": self.omega,
        }


def _masked_polar_area(poly: HyperbolicPolytope, grid: QuadratureGrid, best: np.ndarray,
                       arg: np.ndarray, mask: np.ndarray) -> float:
    """Polar-boundary area over the masked nodes, from their best scores and vertices."""
    density = f_of_b(best, poly.m) / np.cosh(poly.radii[arg])
    return math.fsum(grid.weights[mask] * density[mask])


def crofton_compare(poly1: HyperbolicPolytope, poly2: HyperbolicPolytope,
                    grid: QuadratureGrid, n_samples: int = 100_000,
                    h_cap: float | None = None, seed: int = 0,
                    omega: str = "lower") -> CroftonReport:
    """Compare polar-area differences of two bodies with the kinematic estimate.

    ``omega`` selects the region: "lower" restricts both boundary graphs to
    the set {h1 < h2}, "full" uses the whole sphere.  The left side is the
    quadrature area difference |Sigma_2| - |Sigma_1|; the right side averages
    per-geodesic count differences.  The agreement flag tests
    |lhs - rhs| <= 3*stderr + ``_QUADRATURE_TOL``.
    """
    m = poly1.m
    if poly2.m != m:
        raise ValueError("bodies must share the dimension")
    if omega not in ("lower", "full"):
        raise ValueError("omega must be 'lower' or 'full'")
    if h_cap is None:
        h_cap = float(max(poly1.radii.max(), poly2.radii.max()) + 0.5)

    (b1, arg1), (b2, arg2) = (
        SupportKernel(m, p.directions, grid, check_density=False).node_scores(np.tanh(p.radii))
        for p in (poly1, poly2))
    mask = (b1 < b2) if omega == "lower" else np.ones(grid.size, dtype=bool)
    lhs = (_masked_polar_area(poly2, grid, b2, arg2, mask)
           - _masked_polar_area(poly1, grid, b1, arg1, mask))

    samples = sample_geodesics(m, n_samples, h_cap, seed)
    hits1, tan1, lo1, hi1 = _poly_crossings(samples, poly1)
    hits2, tan2, lo2, hi2 = _poly_crossings(samples, poly2)
    unstable = tan1 | tan2

    arcs = ((hits1, lo1, hi1), (hits2, lo2, hi2))
    counts = [2 * hits1, 2 * hits2]
    if omega == "lower":
        # a crossing of body 1 lies in {h1 < h2} where it is outside body 2's
        # above-arc (t < h2 there), one of body 2 where it is inside body 1's
        for k, inside in ((0, False), (1, True)):
            hits, lo, hi = arcs[k]
            other_hits, other_lo, other_hi = arcs[1 - k]
            counts[k] = np.zeros(len(samples), dtype=int)
            for root in (lo, hi):
                near = np.minimum(np.abs(root - other_lo), np.abs(root - other_hi))
                unstable |= hits & other_hits & (near < _TANGENT_TOL)
                within = other_hits & (other_lo < root) & (root < other_hi)
                counts[k] += hits & (within == inside)
    c1, c2 = counts

    keep = ~unstable
    diff = (c1 - c2)[keep]
    n_used = int(keep.sum())
    if n_used < 2:
        raise ValueError("not enough stable samples")
    factor = _CROFTON_FACTOR[m] * samples.total_measure
    mean = float(diff.mean())
    rhs = factor * mean
    stderr = factor * float(diff.std(ddof=1)) / np.sqrt(n_used)
    agree = abs(lhs - rhs) <= 3.0 * stderr + _QUADRATURE_TOL
    vals, counts = np.unique(diff, return_counts=True)
    return CroftonReport(
        lhs=float(lhs),
        rhs=float(rhs),
        stderr=float(stderr),
        samples_used=n_used,
        samples_unstable=int(unstable.sum()),
        h_cap=float(h_cap),
        agree=bool(agree),
        mean_diff=mean,
        diff_counts={int(v): int(c) for v, c in zip(vals, counts)},
        omega=omega,
    )
