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
come from the smallest and largest form angle.  For m=1 these belong to the
two tangent vertices from the foot point's Klein point, found by a bisection
over the polygon's edges in O(log n) per geodesic; m=2 sweeps every vertex
over all samples.  Restricted to omega = {h1 < h2}, a crossing of body 1
counts where gamma is below body 2's boundary, and one of body 2 where it is
above body 1's: membership in the other body's arc, with no evaluation of
either support function.  A partition-and-bisection fallback handles
arbitrary support callables.

The truncation h_a <= h_cap is exact once h_cap is at least the larger body
radius: a geodesic whose foot point lies beyond both bodies has a positive
first component in every vertex form, so both above-arcs contain s = 0 and
the two bodies' counts agree.  ``crofton_compare`` rejects a smaller cap.

The area side is exact.  By Gauss-Bonnet each polar-boundary area is 2 pi m
plus the area of the body (m=1) or of its boundary (m=2), summed over its
faces (``bodies.polar_boundary_area``).  Over omega = {h1 < h2} the hull K of
both bodies' Klein points has support max(h1, h2), so its polar boundary is
body 2's over omega and body 1's elsewhere, and the difference over omega is
|Sigma_K| - |Sigma_1|, to rounding also for near-coincident bodies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bodies import HyperbolicPolytope, _hull_polar_area, polar_boundary_area
from .minkowski import hyperbolic_point, validate_dimension

# a span within this of pi, or a lower-omega crossing within this of an end
# of the other body's arc, marks the geodesic as grazing: excluded as unstable
_TANGENT_TOL = 1e-9

# sign-change bracketing points of the bisection fallback
_N_PARTITION = 2048

# samples per block of the tangent search, which bounds its temporaries
_BLOCK = 1 << 14

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
    if not 0.0 < h_cap < math.inf or n <= 0:
        raise ValueError(f"h_cap must be finite and positive (not {h_cap}), and n positive")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    if m == 1:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        cos, sin = np.cos(theta), np.sin(theta)
        xi_a = np.column_stack([cos, sin])
        xi_b = np.column_stack([-sin, cos])
        h_a = np.arccosh(1.0 + u * (np.cosh(h_cap) - 1.0))
        total = 2.0 * np.pi * (np.cosh(h_cap) - 1.0)
    else:
        normal = rng.normal(size=(n, 3))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        seed_vec = np.eye(3)[np.argmin(np.abs(normal), axis=1)]
        e1 = seed_vec - np.sum(seed_vec * normal, axis=1, keepdims=True) * normal
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 = np.cross(normal, e1)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)[:, None]
        cos, sin = np.cos(theta), np.sin(theta)
        xi_a = cos * e1 + sin * e2
        xi_b = -sin * e1 + cos * e2
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
    not wrap: its ends are min phi_i and max phi_i, and the above-arc
    [max phi_i - pi/2, min phi_i + pi/2] lies in [-pi/2, pi/2].  For m=1
    the two extreme vertices come from a tangent search
    (``_form_extremes_search``); for m=2 every vertex is swept
    (``_form_extremes_sweep``).
    """
    if poly.m == 1:
        lo_phi, hi_phi = _form_extremes_search(samples, poly)
    else:
        lo_phi, hi_phi = _form_extremes_sweep(samples, poly)
    return _arcs(lo_phi, hi_phi)


def _arcs(lo_phi: np.ndarray, hi_phi: np.ndarray):
    span = hi_phi - lo_phi
    tangent = np.abs(span - np.pi) < _TANGENT_TOL
    hits = span < np.pi
    return hits, tangent, hi_phi - 0.5 * np.pi, lo_phi + 0.5 * np.pi


def _form_extremes_sweep(samples: GeodesicSampleSet, poly: HyperbolicPolytope):
    """min phi_i and max phi_i per sample, one vertex at a time over all samples."""
    ch, sh = np.cosh(samples.h_a), np.sinh(samples.h_a)
    lo_phi = np.full(len(samples), np.inf)
    hi_phi = np.full(len(samples), -np.inf)
    for xi, k in zip(poly.directions, np.tanh(poly.radii)):
        phi = np.arctan2(-k * (samples.xi_b @ xi), sh - k * ch * (samples.xi_a @ xi))
        np.minimum(lo_phi, phi, out=lo_phi)
        np.maximum(hi_phi, phi, out=hi_phi)
    return lo_phi, hi_phi


def _sector_lookup(polar: np.ndarray):
    """``searchsorted(polar, theta, side="right") - 1`` for ascending angles in
    [-pi, pi], by 4n uniform angle bins.

    The bin index b(x) is monotone in x, so every angle in a lower bin is
    below theta, and the count of those is never past the answer; the
    answer lies at most the fullest bin's count further on, which a
    bisection of fixed steps covers.
    """
    bins = 4 * len(polar)
    scale = bins / (2.0 * np.pi)

    def bin_of(x):
        return np.minimum(((x + np.pi) * scale).astype(np.intp), bins - 1)

    count = np.bincount(bin_of(polar), minlength=bins)
    below = np.cumsum(count) - count - 1
    steps = [1 << s for s in reversed(range(int(count.max()).bit_length()))]
    padded = np.concatenate([polar, np.full(2 * steps[0], np.inf)])

    def lookup(theta):
        found = below[bin_of(theta)]
        for step in steps:
            found += step * (padded[found + step] <= theta)
        return found

    return lookup


def _form_extremes_search(samples: GeodesicSampleSet, poly: HyperbolicPolytope):
    """min phi_i and max phi_i per sample of an m=1 sample set, by tangent search.

    With p_i = k_i xi_i and q = tanh(h_a) xi_a the Klein points of vertex i
    and of the foot point, vertex i's form is M (q - p_i), where M has rows
    cosh(h_a) xi_a and xi_b and det M = +-cosh h_a.  So the form angles are
    ordered as the directions q - p_i, and for q outside the polygon the
    extremes are the two tangent vertices from q: the ends of the chain of
    edges visible from q (<n_e, q> > h_e).  The ray through q crosses edge
    j0, found on the vertex polar angles by ``_sector_lookup``.  If j0 is
    visible, each side of the chain is bisected, bounded by the edge that the
    ray through -q crosses, which is never visible.  Otherwise q is inside, and the extremes are the
    two vertices of j0, on either side of the arctan2 cut at -q; where one of
    them ties with the cut, the span comes out below pi and the vertices
    beyond j0 are evaluated too.  phi is the sweep's arctan2 form,
    evaluated only at these vertices, block by block.
    """
    ring = poly.faces.faces[:, 0]
    corner = poly.klein_vertices[ring]
    polar = np.arctan2(corner[:, 1], corner[:, 0])
    shift = -int(np.argmin(polar))
    # edge j (face j, from vertex j to j + 1) is visible from q iff <dual_j, q> > 1.
    # Ring arrays are tiled three times and edge j0 sits at j0 + n: the chain
    # stops short of the edge the ray through -q crosses on both sides, so it
    # and the vertices just beyond its ends index them without a modulo.
    dual = poly.facet_normals / poly.facet_supports[:, None]
    ring, polar, dual = (np.roll(a, shift, axis=0) for a in (ring, polar, dual))
    n = len(ring)
    dual_x, dual_y = (np.tile(dual[:, c], 3) for c in (0, 1))
    xi_x, xi_y = (np.tile(poly.directions[ring, c], 3) for c in (0, 1))
    k = np.tile(np.tanh(poly.radii)[ring], 3)
    steps = [1 << s for s in reversed(range((n - 1).bit_length()))]
    sector = _sector_lookup(polar)

    def phi_at(vertex, xa, xb, ch, sh):
        kv = k[vertex]
        dot_a = xa[:, 0] * xi_x[vertex] + xa[:, 1] * xi_y[vertex]
        dot_b = xb[:, 0] * xi_x[vertex] + xb[:, 1] * xi_y[vertex]
        return np.arctan2(-kv * dot_b, sh - kv * ch * dot_a)

    lo_phi = np.empty(len(samples))
    hi_phi = np.empty(len(samples))
    for row in range(0, len(samples), _BLOCK):
        rows = slice(row, row + _BLOCK)
        xa, xb, h_a = samples.xi_a[rows], samples.xi_b[rows], samples.h_a[rows]
        theta = np.arctan2(xa[:, 1], xa[:, 0])
        t = np.tanh(h_a)
        qx, qy = t * xa[:, 0], t * xa[:, 1]
        first = sector(theta) + n
        last = first.copy()
        outside = dual_x[first] * qx + dual_y[first] * qy > 1.0
        out = np.flatnonzero(outside)
        if out.size:
            base, qx, qy = first[out], qx[out], qy[out]
            # steps counterclockwise from j0 to the edge the ray through -q crosses
            opposite = theta[out] - np.copysign(np.pi, theta[out])
            to_bound = (sector(opposite) + n - base) % n
            for ends, sign, limit in ((last, 1, base + to_bound), (first, -1, base + to_bound - n)):
                end = base.copy()
                for step in steps:
                    cand = (np.minimum(end + step, limit) if sign > 0
                            else np.maximum(end - step, limit))
                    end += (sign * step) * (dual_x[cand] * qx + dual_y[cand] * qy > 1.0)
                ends[out] = end
        # the chain [first, last] of edges ends at vertices first and last + 1
        ch, sh = np.cosh(h_a), np.sinh(h_a)
        lo, hi = lo_phi[rows], hi_phi[rows]
        phi_first = phi_at(first, xa, xb, ch, sh)
        phi_last = phi_at(last + 1, xa, xb, ch, sh)
        np.minimum(phi_first, phi_last, out=lo)
        np.maximum(phi_first, phi_last, out=hi)
        tie = np.flatnonzero(~outside & (hi - lo < np.pi))
        for vertex in (first[tie] - 1, last[tie] + 2):
            phi = phi_at(vertex, xa[tie], xb[tie], ch[tie], sh[tie])
            lo[tie] = np.minimum(lo[tie], phi)
            hi[tie] = np.maximum(hi[tie], phi)
    return lo_phi, hi_phi


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
        counts = {str(k): int(v) for k, v in self.diff_counts.items()}
        return {**asdict(self), "diff_counts": counts}


def _area_side(poly1: HyperbolicPolytope, poly2: HyperbolicPolytope, omega: str) -> float:
    """|Sigma_2 cap omega| - |Sigma_1 cap omega| from Gauss-Bonnet areas.

    For omega = {h1 < h2} body 2's area is that of the hull K of both bodies'
    Klein points, whose polar boundary is body 1's outside omega.  K's faces
    come from one hull of the joint points, which need not be extreme or
    distinct; the face areas of near-coincident bodies cancel to rounding.
    """
    area1 = polar_boundary_area(poly1)
    if omega == "full":
        return polar_boundary_area(poly2) - area1
    return _hull_polar_area(poly1.m, np.concatenate([poly1.directions, poly2.directions]),
                            np.concatenate([poly1.radii, poly2.radii])) - area1


def crofton_compare(poly1: HyperbolicPolytope, poly2: HyperbolicPolytope,
                    grid=None, n_samples: int = 100_000,
                    h_cap: float | None = None, seed: int = 0,
                    omega: str = "lower") -> CroftonReport:
    """Compare polar-area differences of two bodies with the kinematic estimate.

    ``omega`` selects the region: "lower" restricts both boundary graphs to
    the set {h1 < h2}, "full" uses the whole sphere.  The left side is the
    area difference |Sigma_2| - |Sigma_1| over omega, from Gauss-Bonnet face
    areas (``_area_side``); the right side averages per-geodesic count
    differences.  The agreement flag tests |lhs - rhs| <= 3*stderr, or,
    where one count difference fills every stable sample and stderr is 0,
    the rule of three: any other difference, of size at most 2, has a 95 %
    frequency bound of 3 / n_used, so rhs may miss by 6 / n_used counts.
    ``h_cap`` defaults to the larger body radius plus 0.5, and a cap below
    that radius raises ValueError.
    ``grid`` is not read; it is accepted so that positional calls that pass
    a quadrature grid keep working.
    """
    m = poly1.m
    if poly2.m != m:
        raise ValueError("bodies must share the dimension")
    if omega not in ("lower", "full"):
        raise ValueError("omega must be 'lower' or 'full'")
    reach = float(max(poly1.radii.max(), poly2.radii.max()))
    if h_cap is None:
        h_cap = reach + 0.5
    elif not h_cap >= reach:
        raise ValueError(f"h_cap must be at least the larger body radius {reach}, not {h_cap}")

    lhs = _area_side(poly1, poly2, omega)

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
    vals, freqs = np.unique(diff, return_counts=True)
    agree = abs(lhs - rhs) <= (3.0 * stderr if len(vals) > 1 else factor * 2.0 * 3.0 / n_used)
    return CroftonReport(
        lhs=float(lhs),
        rhs=float(rhs),
        stderr=float(stderr),
        samples_used=n_used,
        samples_unstable=int(unstable.sum()),
        h_cap=float(h_cap),
        agree=bool(agree),
        mean_diff=mean,
        diff_counts={int(v): int(c) for v, c in zip(vals, freqs)},
        omega=omega,
    )
