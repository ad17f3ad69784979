"""Discrete measures on S^m and the admissibility condition checkers.

A finite measure with positive atoms is admissible as a curvature measure
exactly when three conditions hold: its total mass exceeds the sphere's, no
atom carries half the sphere's measure or more, and for every proper convex
subset omega the polar set omega* satisfies sigma(omega*) < mu(complement of
omega).  For a discrete measure the last condition only needs to be tested on
spherical hulls of subsets of the support: any convex omega meets the same
support points as the hull of (omega intersect support), and shrinking omega
to that hull only enlarges the polar, so the minimum slack over subset hulls
equals the true infimum.

Every hull, for both m, is one cone form (``SphericalConvexSet``): extreme
rays, dual-cone generators for membership, and the exact polar area.

Every check is exact.  m=1 enumerates the arcs between support points and
takes each arc's mass as a difference of cyclic prefix sums, O(N^2) time in
row blocks of at most 2^16 arcs, so in O(N) memory beyond that.  The m=2
check evaluates all 2^N - 1 subsets as bit masks and is refused above
EXHAUSTIVE_MAX_ATOMS atoms.  At every N a converged ``solver.solve`` is the
certificate of admissibility, and it runs this check only when Newton fails.
The pair geometry below is computed once per measure, and every mask's slack
sits at its own index of one table of 2^N entries (``_slack_table``), filled
in blocks of 2^16 masks that share their bits from 16 up.

Each ordered pair with |p_i x p_j| >= 1e-8 gets c_ij = unit(p_i x p_j),
d_ij = atan2(|p_i x p_j|, p_i.p_j) and the masks
E_ij = {k : c_ij.p_k >= -1e-12}, L_ij = {k : c_ij.p_k >= -_CONTAIN_EPS} and
Z_ij = {k not in {i, j} : |c_ij.p_k| <= 1e-8}.  (i, j) is a hull edge of S
when i, j are in S and S lies in E_ij.  So its subsets are {i, j} joined
with any subset of E_ij - {i, j}, a sub-cube of the masks, and each pair
visits only its own sub-cube (``_edge_sums``): 3.4 % of the N (N - 1) 2^N
pair-subset tests for an 8-atom body measure, 0.15 % for 20 random atoms.
The polar of a spherical convex polygon has area 2 pi minus its perimeter,
the sum of d_ij over the edges, subtracted in ascending pair order; the
covered points are the AND of L_ij; a subset with no edge is the full
sphere.  A single point's polar is a hemisphere, of area 2 pi.  A pair's two
edges give the polar 2 pi - 2 d_ij and cover exactly the pair unless a third
point lies on its great circle.  Degenerate subsets (a pair with
|p_i x p_j| < 1e-8 and its supersets, a pair with a nonempty Z_ij, and a
subset holding a pair and a point of its Z_ij) go through the per-subset hull
``_cone_hull``, whose polar area is 2 pi minus the perimeter too, so they
are exact as well.  The witness is the first subset in (size, lexicographic)
order whose slack lies within 1e-15 of the minimum.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .minkowski import sphere_measure, unit_rows, validate_dimension

# A condition passes only with margin above this fraction of the sphere measure.
COND_EPS_FACTOR = 1e-9

# Points within this slack of a hull's boundary count as contained.
_CONTAIN_EPS = 1e-10

# The m=2 check enumerates every support subset up to this many atoms.
EXHAUSTIVE_MAX_ATOMS = 20

_PAIR_EPS = 1e-8     # |p_i x p_j| below this: near-parallel pair
_EDGE_EPS = 1e-12    # dual-ray test of a hull edge
_PLANE_EPS = 1e-8    # a third point this close to an edge's great circle
_BLOCK = 1 << 16     # subset masks (m=2) or arcs (m=1) evaluated at once
_HEAVY = 1 << 10     # a pair with this many masks in a block is applied alone

# the submasks of every byte value b, ascending, at _SUBS[_SUB_START[b]:][:_SUB_COUNT[b]]
_SUB_OF, _SUBS = np.nonzero((np.arange(256) & ~np.arange(256)[:, None]) == 0)
_SUB_COUNT = np.bincount(_SUB_OF, minlength=256)
_SUB_START = np.cumsum(_SUB_COUNT) - _SUB_COUNT

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: unit points on S^m with positive weights.

    Points must be unit to within 1e-8.  A point already unit to within a few
    ulps (``minkowski.UNIT_SKIP``) is stored exactly as given; any other is
    divided by its norm, so rebuilding a measure from its own points keeps
    them bit for bit.
    """

    m: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", validate_dimension(self.m))
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.m + 1:
            raise ValueError(f"points must have shape (N, {self.m + 1})")
        if weights.shape != (points.shape[0],):
            raise ValueError("weights must match the number of points")
        if len(weights) == 0:
            raise ValueError("a measure needs at least one atom")
        points = unit_rows(points, 1e-8, "support points must be unit vectors")
        if not np.all(np.isfinite(weights)) or weights.min() <= 0:
            raise ValueError("weights must be positive and finite")
        if cKDTree(points).query_pairs(1e-9):
            raise ValueError("support points must be pairwise more than 1e-9 apart")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights.copy())
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class SphericalConvexSet:
    """Spherical hull of points on S^m, m = 1 or 2, as a convex cone.

    ``extreme_rays`` are its corners among the points: an arc's two ends
    counter-clockwise (or its one point), a polygon's corners in cyclic order.
    q lies in it when q . g <= ``_CONTAIN_EPS`` for every row g of
    ``dual_generators``; the full sphere has none.  ``polar_area`` is
    sigma(omega*): pi minus an arc's length, 2 pi minus a polygon's perimeter.
    """

    m: int
    is_full: bool
    extreme_rays: np.ndarray
    dual_generators: np.ndarray
    polar_area: float

    def contains(self, q: np.ndarray) -> bool:
        return bool(np.all(self.dual_generators @ np.asarray(q, dtype=float) <= _CONTAIN_EPS))


def _widest_gap(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The first and last of the points (x, y) counter-clockwise around the
    origin, past their widest angular gap, and the span between them."""
    ang = np.arctan2(y, x) % (2.0 * np.pi)
    order = np.argsort(ang)
    angles = ang[order]
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    widest = int(np.argmax(gaps))
    return order[[(widest + 1) % len(order), widest]], float(2.0 * np.pi - gaps[widest])


def _arc_hull(points: np.ndarray) -> SphericalConvexSet:
    ends, length = _widest_gap(points[:, 0], points[:, 1])
    if length >= np.pi:
        return SphericalConvexSet(1, True, np.empty((0, 2)), np.empty((0, 2)), 0.0)
    rays = points[ends[:1] if length <= _CONTAIN_EPS else ends]  # one point, or two ends
    (a0, a1), (b0, b1) = rays[0], rays[-1]
    gens = np.array([[a1, -a0], [-b1, b0]])  # outward normals at the two ends
    if len(rays) == 1:  # the normals alone also admit -p
        gens = np.vstack([gens, -rays])
    return SphericalConvexSet(1, False, rays, gens, np.pi - length)


def _dedupe_rows(rows: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rows in order, each dropped when within tol of an earlier kept row."""
    close = np.linalg.norm(rows[:, None] - rows[None], axis=2) <= tol
    kept: list[int] = []
    for k in range(len(rows)):
        if not close[k, kept].any():
            kept.append(k)
    return rows[kept]


def _plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seed = np.eye(3)[np.argmin(np.abs(normal))]
    e1 = seed - (seed @ normal) * normal
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(normal, e1)


def _cone_hull(points: np.ndarray) -> SphericalConvexSet:
    """Spherical hull data for m=2 via the dual cone of the ray set."""
    pts = _dedupe_rows(points, tol=1e-12)
    u, s, vt = np.linalg.svd(pts, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * s[0]))

    if rank == 1:
        direction = vt[0] * np.sign(vt[0] @ pts[0])
        e1, e2 = _plane_basis(direction)
        gens = np.array([-direction, e1, -e1, e2, -e2])
        if np.min(pts @ direction) < 0:  # antipodal pair: dual is a great circle
            return SphericalConvexSet(2, False, pts, gens[1:], 0.0)
        return SphericalConvexSet(2, False, pts[:1], gens, 2.0 * np.pi)

    if rank == 2:
        normal = vt[2] / np.linalg.norm(vt[2])
        e1, e2 = _plane_basis(normal)
        (a, b), span = _widest_gap(pts @ e1, pts @ e2)  # smallest sector holding every ray
        if span > np.pi:  # rays wrap more than a half turn: dual collapses
            return SphericalConvexSet(2, False, pts, np.array([normal, -normal]), 0.0)
        # dual = wedge around +-normal; the outward normals at the ends close the sector
        gens = np.array([normal, -normal, np.cross(normal, pts[b]), np.cross(pts[a], normal)])
        return SphericalConvexSet(2, False, pts[[a, b]], gens, 2.0 * (np.pi - span))

    # rank 3: candidate dual rays are normals of support-plane pairs
    i, j = np.triu_indices(len(pts), 1)
    cr = np.cross(pts[i], pts[j])
    norm = np.linalg.norm(cr, axis=1)
    unit = cr[norm >= 1e-12] / norm[norm >= 1e-12, None]
    cand = np.stack([unit, -unit], axis=1).reshape(-1, 3)
    rays = _dedupe_rows(cand[np.max(cand @ pts.T, axis=1, initial=-np.inf) <= 1e-12])
    if len(rays) == 0:
        return SphericalConvexSet(2, True, np.empty((0, 3)), np.empty((0, 3)), 0.0)
    if len(rays) < 3:
        return SphericalConvexSet(2, False, pts, rays, 0.0)
    center = rays.sum(axis=0)
    center /= np.linalg.norm(center)
    e1, e2 = _plane_basis(center)
    rays = rays[np.argsort(np.arctan2(rays @ e2, rays @ e1))]
    # the corner between consecutive dual rays lies on both of their planes
    corners = np.cross(rays, np.roll(rays, -1, axis=0))
    extreme = pts[np.argmax(np.abs(pts @ corners.T), axis=0)]
    nxt = np.roll(extreme, -1, axis=0)
    sides = np.arctan2(np.linalg.norm(np.cross(extreme, nxt), axis=1),
                       np.einsum("ij,ij->i", extreme, nxt))
    return SphericalConvexSet(2, False, extreme, rays, float(2.0 * np.pi - sides.sum()))


def spherical_hull(points: np.ndarray) -> SphericalConvexSet:
    """Spherical convex hull of unit (N, m+1) points as one cone form for
    both m; ``is_full`` when it is the whole sphere."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("need a nonempty (N, m+1) point array")
    if validate_dimension(points.shape[1] - 1) == 1:
        return _arc_hull(points)
    return _cone_hull(points)


def polar_sigma_area(omega: SphericalConvexSet) -> float:
    """Uniform measure of the polar set omega* = complement of the open
    pi/2-neighborhood of omega: the hull's exact ``polar_area``."""
    if omega.is_full:
        raise ValueError("the polar of the full sphere is empty; handle as 0 upstream")
    return omega.polar_area


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three admissibility tests, with margins and witnesses."""

    total_mass_ok: bool
    total_mass_excess: float
    vertex_ok: bool
    vertex_max_weight: float
    vertex_argmax: int
    alexandrov_ok: bool
    alexandrov_slack: float
    worst_witness: tuple
    subsets_evaluated: int          # subsets (m=2) or arcs (m=1) whose slack was computed
    wall_time: float

    @property
    def all_ok(self) -> bool:
        return self.total_mass_ok and self.vertex_ok and self.alexandrov_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "worst_witness": list(self.worst_witness), "all_ok": self.all_ok}


def _alexandrov_m1(mu: DiscreteMeasure):
    """Exact minimal slack over arcs with endpoints at support points.

    Support points are more than 1e-9 apart, beyond ``_CONTAIN_EPS``, so the
    arc from i to j covers exactly the points from i to j in angular order.
    The slacks are formed in blocks of rows of at most ``_BLOCK`` entries,
    keeping each row's minimum.  The witness is the first arc in (i, j) order
    within 1e-15 of the minimum: the first such row, recomputed alone.
    """
    angles = np.arctan2(mu.points[:, 1], mu.points[:, 0]) % (2.0 * np.pi)
    order = np.argsort(angles)
    rank = np.argsort(order)
    prefix = np.concatenate([[0.0], np.cumsum(mu.weights[order])])

    def slack(rows: slice) -> np.ndarray:  # the arcs from the points rows to every point
        length = (angles - angles[rows, None]) % (2.0 * np.pi)
        first = rank[rows, None]
        mass = prefix[rank + 1] - prefix[first] + np.where(first > rank, prefix[-1], 0.0)
        return np.where(length < np.pi, (mu.total - mass) - (np.pi - length), np.inf)

    step = max(1, _BLOCK // mu.size)
    row_min, arcs = np.empty(mu.size), 0
    for start in range(0, mu.size, step):
        block = slack(slice(start, start + step))
        row_min[start:start + step] = block.min(axis=1)
        arcs += int(np.isfinite(block).sum())
    best = float(row_min.min())
    i = int(np.argmax(row_min <= best + 1e-15))
    j = int(np.argmax(slack(slice(i, i + 1))[0] <= best + 1e-15))
    span = order[np.arange(rank[i], rank[j] + (rank[j] < rank[i]) * mu.size + 1) % mu.size]
    return best, tuple(sorted(span.tolist())), arcs


def _subset_slack(mu: DiscreteMeasure, subset) -> float:
    """Slack of one subset's hull, by its own dual cone; inf for the full sphere."""
    hull = _cone_hull(mu.points[list(subset)])
    if hull.is_full:
        return np.inf
    inside = np.all(mu.points @ hull.dual_generators.T <= _CONTAIN_EPS, axis=1)
    return (mu.total - mu.weights[inside].sum()) - hull.polar_area


def _mask_tuple(mask: int) -> tuple:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _byte_subs(b: int) -> np.ndarray:
    return _SUBS[_SUB_START[b]:_SUB_START[b] + _SUB_COUNT[b]]


def _sub_cubes(ends: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ends[r] | t with t a submask of the 16-bit free[r], grouped by row
    in row order, and each entry's row."""
    lo, hi = free & 255, free >> 8
    n_lo = _SUB_COUNT[lo]
    count = n_lo * _SUB_COUNT[hi]
    row = np.repeat(np.arange(len(free)), count)
    k = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    k_hi, k_lo = np.divmod(k, n_lo[row])
    entries = _SUBS[_SUB_START[lo][row] + k_lo] | _SUBS[_SUB_START[hi][row] + k_hi] << 8
    return entries | ends[row], row


def _edge_sums(top, n, ends, inner, arc, cover):
    """2 pi minus the arcs of every edge, and the AND of the edges' covers, for
    each mask top << 16 | k of one block, at index k.

    Pair p is an edge of exactly the masks ends[p] | t, t a submask of
    inner[p] & ~ends[p].  p reaches the block only if top lies between the
    bits of its ends and of its inner mask from 16 up, and there it reaches
    the low-16-bit sub-cube of its free bits.  A pair with _HEAVY masks or
    more is applied alone, the others in batches of up to _BLOCK entries.
    Pairs run in ascending order, so every mask's arcs are subtracted in one
    fixed order.
    """
    low = _BLOCK - 1
    free = inner & ~ends & low
    polar = np.full(1 << min(n, 16), 2.0 * np.pi)
    covered = np.full(len(polar), (1 << n) - 1, dtype=np.int64)
    reach = np.flatnonzero(((ends >> 16) & ~top == 0) & (top & ~(inner >> 16) == 0))
    size = _SUB_COUNT[free[reach] & 255] * _SUB_COUNT[free[reach] >> 8]
    groups: list[list[int]] = []
    queued = _BLOCK
    for p, s in zip(reach.tolist(), size.tolist()):
        if s >= _HEAVY or queued + s > _BLOCK:
            groups.append([])
            queued = 0
        groups[-1].append(p)
        queued = _BLOCK if s >= _HEAVY else queued + s  # nothing joins a heavy pair
    for group in groups:
        if len(group) == 1:  # one pair's masks are distinct
            p = group[0]
            cube = _byte_subs(free[p] >> 8)[:, None] << 8 | _byte_subs(free[p] & 255)
            cube |= ends[p] & low
            polar[cube] -= arc[p]
            covered[cube] &= cover[p]
        else:
            entries, row = _sub_cubes(ends[group] & low, free[group])
            np.subtract.at(polar, entries, arc[group][row])
            np.bitwise_and.at(covered, entries, cover[group][row])
    return polar, covered


def _slack_table(mu: DiscreteMeasure) -> np.ndarray:
    """The slack of every subset mask 0 ... 2^N - 1 at its own index, inf for
    the empty mask and the full sphere (see the module docstring)."""
    pts, n = mu.points, mu.size
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    ends, cross = bits[i] | bits[j], np.cross(pts[i], pts[j])
    norm = np.linalg.norm(cross, axis=1)
    good = norm >= _PAIR_EPS
    parallel = ends[~good]
    i, j, ends, cross, norm = (a[good] for a in (i, j, ends, cross, norm))
    arc = np.arctan2(norm, np.einsum("ij,ij->i", pts[i], pts[j]))  # every arc >= 1e-8
    h = (cross / norm[:, None]) @ pts.T
    inner = ((h >= -_EDGE_EPS) @ bits) | ends
    cover = ((h >= -_CONTAIN_EPS) @ bits) | ends
    pair, third = np.nonzero((np.abs(h) <= _PLANE_EPS) & (ends[:, None] & bits == 0))
    bad = np.unique(np.concatenate([parallel, ends[pair] | bits[third]]))
    # subset sums of the weights, one table per byte of a mask
    byte = (np.arange(256)[:, None] >> np.arange(8)) & 1
    tables = [byte[:, :len(w)] @ w for w in np.split(mu.weights, range(8, n, 8))]
    total = mu.total

    slack = np.empty(1 << n)
    index = np.arange(1 << min(n, 16))
    for top in range(1 << max(n - 16, 0)):  # a block shares its bits from 16 up
        polar, covered = _edge_sums(top, n, ends, inner, arc, cover)
        mass = sum(t[(covered >> (8 * b)) & 255] for b, t in enumerate(tables))
        block = slack[top << 16:][:len(index)]
        block[:] = np.where(polar < 2.0 * np.pi, (total - mass) - polar, np.inf)  # no edge: full
        # the supersets of a near-parallel pair or of a pair and a point of its great circle
        degenerate = np.zeros(len(index), dtype=bool)
        for b in bad[(bad >> 16) & ~top == 0] & (_BLOCK - 1):
            degenerate |= (index & b) == b
        for k in np.flatnonzero(degenerate):
            block[k] = _subset_slack(mu, _mask_tuple(top << 16 | int(k)))
    # a point's polar is a hemisphere
    slack[bits] = (total - mu.weights) - 2.0 * np.pi
    # a pair's two edges cover its great circle: too much with a third point on it
    for mask in np.unique(ends[pair]).tolist():
        slack[mask] = _subset_slack(mu, _mask_tuple(mask))
    return slack


def _alexandrov_exhaustive(mu: DiscreteMeasure):
    """Minimal slack over all 2^N - 1 subset masks (see the module docstring)."""
    slack = _slack_table(mu)
    best = float(slack.min())
    near = (_mask_tuple(int(m)) for m in np.flatnonzero(slack <= best + 1e-15))
    return best, min(near, key=lambda t: (len(t), t)), len(slack) - 1


def _mass_margins(mu: DiscreteMeasure) -> tuple[float, float, int]:
    """Total mass minus the sphere's, half the sphere's measure minus the
    heaviest atom, and that atom's index."""
    sphere = sphere_measure(mu.m)
    heaviest = int(np.argmax(mu.weights))
    return mu.total - sphere, 0.5 * sphere - float(mu.weights[heaviest]), heaviest


def mass_violation(mu: DiscreteMeasure) -> str | None:
    """The O(N) conditions mu fails, each with its margin, or None.  They run
    at every N, also where the subset condition is refused."""
    eps = COND_EPS_FACTOR * sphere_measure(mu.m)
    excess, room, heaviest = _mass_margins(mu)
    failed = []
    if not excess > eps:
        failed.append(f"total mass condition fails: margin {excess:.6g}")
    if not room > eps:
        failed.append(f"vertex condition fails at atom {heaviest}: margin {room:.6g}")
    return "; ".join(failed) or None


def check_conditions(mu: DiscreteMeasure) -> ConditionReport:
    """Run the three admissibility tests on a discrete measure, exactly.

    m=1 enumerates every arc with endpoints at support points.  m=2
    enumerates every support subset (witness rule in the module docstring)
    and raises ValueError for N > ``EXHAUSTIVE_MAX_ATOMS``; there a converged
    ``solver.solve`` certifies the measure instead.
    """
    start = time.perf_counter()
    validate_dimension(mu.m)
    if mu.m == 2 and mu.size > EXHAUSTIVE_MAX_ATOMS:
        raise ValueError(f"the exact m=2 check enumerates all 2^N - 1 subsets and is "
                         f"refused for N = {mu.size} > EXHAUSTIVE_MAX_ATOMS = "
                         f"{EXHAUSTIVE_MAX_ATOMS}")
    eps = COND_EPS_FACTOR * sphere_measure(mu.m)
    total_excess, room, vmax_idx = _mass_margins(mu)

    alexandrov = _alexandrov_m1 if mu.m == 1 else _alexandrov_exhaustive
    slack, witness, evaluated = alexandrov(mu)
    alexandrov_ok = bool(slack > eps)

    return ConditionReport(
        total_mass_ok=bool(total_excess > eps),
        total_mass_excess=float(total_excess),
        vertex_ok=bool(room > eps),
        vertex_max_weight=float(mu.weights[vmax_idx]),
        vertex_argmax=vmax_idx,
        alexandrov_ok=alexandrov_ok,
        alexandrov_slack=float(slack),
        worst_witness=witness,
        subsets_evaluated=evaluated,
        wall_time=time.perf_counter() - start,
    )
