"""Hyperbolic convex polytopes containing the basepoint.

A polytope is given by vertex directions xi_i on S^m and hyperbolic radii
r_i > 0; its vertices are the points cosh(r_i) o + sinh(r_i) xi_i.  The Klein
model turns the body into the Euclidean convex hull of the points
tanh(r_i) xi_i inside the open unit ball, which is how the facet structure is
computed.  All metric quantities (support and radial functions, angles,
areas) are evaluated in Minkowski coordinates.

The Gauss curvature measure of a polytope is a sum of point masses at the
vertex directions.  Two independent routes compute it:

* ``curvature_measure_integral`` integrates the polar-boundary area density
  cosh^{m+1}(h) over the vertex cells of a quadrature grid and divides by
  cosh(r_i);
* ``curvature_measure_angles`` computes the exterior (solid) angle at every
  vertex from local Minkowski frames.

Their agreement is one of the package's main self-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .cells import SupportKernel
from .errors import (
    DegenerateHullError,
    DegenerateVertexError,
    NonExtremeVertexError,
    OriginNotInteriorError,
)
from .minkowski import (
    TIE_EPS,
    basepoint,
    boost_matrix,
    hyperbolic_point,
    lorentz_dot,
    normalize_rows,
    unit_rows,
    validate_dimension,
)
from .quadrature import QuadratureGrid, spherical_triangle_areas

# Strict interiority threshold for the basepoint, in Klein support distance.
MIN_SUPPORT = 1e-6

# Relative slack below which a vertex counts as lying on the hull of the rest.
_EXTREME_EPS = 1e-12


@dataclass(frozen=True)
class HyperbolicPolytope:
    """Immutable polytope value; build through :func:`from_vertices`."""

    m: int
    directions: np.ndarray          # (N, m+1) unit vertex directions
    radii: np.ndarray               # (N,) hyperbolic radii
    klein_vertices: np.ndarray      # (N, m+1) tanh(r_i) xi_i
    facet_normals: np.ndarray       # (F, m+1) outward unit normals (Klein)
    facet_supports: np.ndarray      # (F,) Klein support distances in (0, 1)
    facet_vertices: tuple           # tuple of vertex-index tuples per facet
    order: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # ``order`` is the counterclockwise vertex ordering for m=1.

    def __post_init__(self):
        for name in ("directions", "radii", "klein_vertices",
                     "facet_normals", "facet_supports", "order"):
            getattr(self, name).setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.directions.shape[0]

    def vertex_points(self) -> np.ndarray:
        """Vertices as points of hyperbolic space in R^{m+2}."""
        return hyperbolic_point(self.directions, self.radii)


def _order_ccw(angles: np.ndarray) -> np.ndarray:
    return np.argsort(angles, kind="stable")


def _from_vertices_m1(directions, radii):
    n = directions.shape[0]
    klein = np.tanh(radii)[:, None] * directions
    angles = np.arctan2(directions[:, 1], directions[:, 0]) % (2.0 * np.pi)
    order = _order_ccw(angles)

    # star-extremeness: vertex i must lie outside the hull of {o} and the
    # other Klein points, i.e. beyond the chord joining its angular neighbors
    rho = np.tanh(radii)
    for pos, i in enumerate(order):
        j = order[(pos - 1) % n]
        k = order[(pos + 1) % n]
        gap = (angles[k] - angles[j]) % (2.0 * np.pi)
        if gap >= np.pi:
            continue  # chord cannot cover direction i
        vj, vk = klein[j], klein[k]
        edge = vk - vj
        normal = np.array([edge[1], -edge[0]])
        nn = np.linalg.norm(normal)
        if nn < 1e-30:
            raise NonExtremeVertexError(int(i), f"vertex {i} duplicates a neighbor")
        normal /= nn
        h = normal @ vj
        if h < 0:
            normal, h = -normal, -h
        if normal @ directions[i] <= 0:
            continue
        rho_chord = h / (normal @ directions[i])
        if rho[i] <= rho_chord * (1.0 + _EXTREME_EPS):
            raise NonExtremeVertexError(int(i))

    gaps = (angles[np.roll(order, -1)] - angles[order]) % (2.0 * np.pi)
    if gaps.max() >= np.pi:
        raise OriginNotInteriorError(
            "all vertex directions lie in a closed half-plane"
        )

    normals = np.empty((n, 2))
    supports = np.empty(n)
    facets = []
    for pos in range(n):
        i, k = order[pos], order[(pos + 1) % n]
        edge = klein[k] - klein[i]
        nvec = np.array([edge[1], -edge[0]])
        nvec /= np.linalg.norm(nvec)
        h = nvec @ klein[i]
        if h < 0:
            nvec, h = -nvec, -h
        normals[pos] = nvec
        supports[pos] = h
        facets.append((int(i), int(k)))
    if supports.min() < MIN_SUPPORT:
        raise OriginNotInteriorError(
            f"facet support {supports.min():.3e} below {MIN_SUPPORT:.0e}"
        )
    # consistency: consecutive triples must make strictly left turns
    for pos in range(n):
        a, b, c = klein[order[pos]], klein[order[(pos + 1) % n]], klein[order[(pos + 2) % n]]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise NonExtremeVertexError(int(order[(pos + 1) % n]))
    return klein, normals, supports, tuple(facets), order


def _merged_facets(hull: ConvexHull) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Group qhull's simplicial facets into geometric facets by their plane."""
    eq = hull.equations
    keys = np.round(eq / 1e-9).astype(np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    groups = {}
    for simplex_idx, gid in enumerate(inverse):
        groups.setdefault(gid, []).append(simplex_idx)
    normals, supports, members = [], [], []
    for gid, simplex_ids in sorted(groups.items()):
        rows = eq[simplex_ids]
        nvec = normalize_rows(rows[:, :3].mean(axis=0)[None, :])[0]
        verts = sorted({int(v) for s in simplex_ids for v in hull.simplices[s]})
        support = float(np.mean([nvec @ hull.points[v] for v in verts]))
        normals.append(nvec)
        supports.append(support)
        members.append(tuple(verts))
    return np.array(normals), np.array(supports), tuple(members)


def _from_vertices_m2(directions, radii):
    klein = np.tanh(radii)[:, None] * directions
    n = klein.shape[0]
    try:
        star = ConvexHull(np.vstack([klein, np.zeros(3)]), qhull_options="Qc")
    except QhullError as exc:
        raise DegenerateHullError(f"vertex set is degenerate: {exc}") from exc
    star_vertices = set(int(v) for v in star.vertices)
    missing = sorted(set(range(n)) - star_vertices)
    coplanar = sorted(int(c[0]) for c in star.coplanar if c[0] < n)
    if missing or coplanar:
        raise NonExtremeVertexError(min(missing + coplanar))
    if n in star_vertices or any(int(c[0]) == n for c in star.coplanar):
        raise OriginNotInteriorError("basepoint is not interior to the Klein hull")

    hull = ConvexHull(klein, qhull_options="Qc")
    normals, supports, members = _merged_facets(hull)
    if supports.min() < MIN_SUPPORT:
        raise OriginNotInteriorError(
            f"facet support {supports.min():.3e} below {MIN_SUPPORT:.0e}"
        )
    return klein, normals, supports, members, np.zeros(0, dtype=int)


def from_vertices(m: int, directions: np.ndarray, radii: np.ndarray) -> HyperbolicPolytope:
    """Build a polytope from vertex directions and radii.

    Rejects inputs whose Klein hull does not contain the basepoint strictly
    (OriginNotInteriorError), whose points are degenerate (DegenerateHullError)
    or where some listed vertex is not extreme (NonExtremeVertexError naming
    the lowest offending index).  Dropping such a vertex silently would change
    the support of the curvature measure, so it is an error instead.

    Directions must be unit to within 1e-8.  One already unit to within a few
    ulps (``minkowski.UNIT_SKIP``) is kept exactly as given; any other is
    divided by its norm, so ``from_vertices(m, poly.directions, ...)`` keeps
    the directions bit for bit.
    """
    m = validate_dimension(m)
    directions = np.asarray(directions, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != m + 1:
        raise ValueError(f"directions must have shape (N, {m + 1})")
    if radii.shape != (directions.shape[0],):
        raise ValueError("radii must match the number of directions")
    if directions.shape[0] < m + 2:
        raise DegenerateHullError(f"need at least {m + 2} vertices")
    if not np.all(np.isfinite(radii)) or radii.min() <= 0:
        raise ValueError("radii must be positive and finite")
    if np.tanh(radii).max() >= 1.0:
        raise ValueError("radii too large to represent in the Klein ball")
    directions = unit_rows(directions, 1e-8, "directions must be unit vectors")

    from scipy.spatial.distance import pdist

    if pdist(directions).min() <= 1e-9:
        raise ValueError("vertex directions must be pairwise distinct")

    if m == 1:
        klein, normals, supports, facets, order = _from_vertices_m1(directions, radii)
    else:
        klein, normals, supports, facets, order = _from_vertices_m2(directions, radii)
    return HyperbolicPolytope(
        m=m,
        directions=directions,
        radii=radii.copy(),
        klein_vertices=klein,
        facet_normals=normals,
        facet_supports=supports,
        facet_vertices=facets,
        order=order,
    )


# -- support / radial / normal map ---------------------------------------


def support_fn(poly: HyperbolicPolytope, eta: np.ndarray):
    """Hyperbolic support function h(eta) = artanh(max_i tanh(r_i) <eta, xi_i>)."""
    eta = np.asarray(eta, dtype=float)
    best = np.max((eta @ poly.directions.T) * np.tanh(poly.radii), axis=-1)
    if np.any(best <= 0):
        raise OriginNotInteriorError("support evaluation hit a nonpositive maximum")
    return np.arctanh(best)


def radial_fn(poly: HyperbolicPolytope, xi: np.ndarray):
    """Hyperbolic radial function via the Klein facet description."""
    xi = np.asarray(xi, dtype=float)
    dots = xi @ poly.facet_normals.T
    with np.errstate(divide="ignore"):
        ratios = np.where(dots > 1e-15, poly.facet_supports / dots, np.inf)
    rho = ratios.min(axis=-1)
    return np.arctanh(rho)


def t_map(poly: HyperbolicPolytope, eta: np.ndarray, tie_eps: float = TIE_EPS) -> np.ndarray:
    """Vertex indices attaining the support maximum at eta (ties within tie_eps)."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError("t_map takes a single direction")
    scores = (eta @ poly.directions.T) * np.tanh(poly.radii)
    best = scores.max()
    return np.nonzero(scores >= best * (1.0 - tie_eps))[0]


# -- curvature measures ----------------------------------------------------


def curvature_measure_integral(poly: HyperbolicPolytope, grid: QuadratureGrid):
    """Curvature weights from the polar-boundary area density on a grid.

    alpha_i integrates cosh^{m+1}(h) over the normal cell of vertex i and
    divides by cosh(r_i).  Returns a DiscreteMeasure supported on the vertex
    directions.
    """
    from .measures import DiscreteMeasure

    kernel = SupportKernel(poly.m, poly.directions, grid, check_density=False)
    masses, _ = kernel.cell_sums(np.tanh(poly.radii))
    weights = masses / np.cosh(poly.radii)
    return DiscreteMeasure(poly.m, poly.directions, weights)


def polar_boundary_area(poly: HyperbolicPolytope, grid: QuadratureGrid) -> float:
    """Total area of the polar boundary: the curvature measure's total mass."""
    measure = curvature_measure_integral(poly, grid)
    return math.fsum(measure.weights)


def _tangent_toward(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit tangent at x of the hyperbolic geodesic from x to y."""
    c = lorentz_dot(x, y)
    u = y + c * x
    return u / np.sqrt(max(c * c - 1.0, 1e-300))


def _interior_angle(x, a, b) -> float:
    ua = _tangent_toward(x, a)
    ub = _tangent_toward(x, b)
    return float(np.arccos(np.clip(lorentz_dot(ua, ub), -1.0, 1.0)))


def _exterior_angles_m1(poly: HyperbolicPolytope) -> np.ndarray:
    pts = poly.vertex_points()
    order = poly.order
    n = len(order)
    alpha = np.empty(poly.n_vertices)
    for pos in range(n):
        i = order[pos]
        prev_pt = pts[order[(pos - 1) % n]]
        next_pt = pts[order[(pos + 1) % n]]
        alpha[i] = np.pi - _interior_angle(pts[i], prev_pt, next_pt)
    return alpha


def _exterior_angles_m2(poly: HyperbolicPolytope) -> np.ndarray:
    h_facets = np.arctanh(poly.facet_supports)
    # de Sitter unit normal of facet k: sinh(h_k) o + cosh(h_k) eta_k
    zeta = np.zeros((len(h_facets), 4))
    zeta[:, 0] = np.sinh(h_facets)
    zeta[:, 1:] = np.cosh(h_facets)[:, None] * poly.facet_normals

    incident: list[list[int]] = [[] for _ in range(poly.n_vertices)]
    for k, verts in enumerate(poly.facet_vertices):
        for v in verts:
            incident[v].append(k)

    alpha = np.empty(poly.n_vertices)
    for i in range(poly.n_vertices):
        rows = np.asarray(incident[i], dtype=int)
        if len(rows) < 3:
            raise DegenerateVertexError(f"vertex {i} has {len(rows)} incident facets")
        xi, r = poly.directions[i], poly.radii[i]
        # orthonormal frame of the tangent sphere at the vertex
        radial = np.concatenate([[np.sinh(r)], np.cosh(r) * xi])
        seed = np.eye(3)[np.argmin(np.abs(xi))]
        e1 = seed - (seed @ xi) * xi
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(xi, e1)
        frame = np.vstack([radial, np.concatenate([[0.0], e1]), np.concatenate([[0.0], e2])])
        sign = np.array([-1.0, 1.0, 1.0, 1.0])
        coords = (zeta[rows] * sign) @ frame.T  # Lorentz dots against the frame
        # cyclic order around a direction interior to the normal cone (its
        # mean); the radial direction can lie outside a thin cone and would
        # scramble the traversal
        axis = coords.mean(axis=0)
        axis /= np.linalg.norm(axis)
        a_seed = np.eye(3)[np.argmin(np.abs(axis))]
        t1 = a_seed - (a_seed @ axis) * axis
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(axis, t1)
        angles = np.arctan2(coords @ t2, coords @ t1)
        coords = coords[np.argsort(angles)]
        # merge duplicated normals (triangulated facets of one plane)
        keep = [0]
        for k in range(1, len(coords)):
            if np.linalg.norm(coords[k] - coords[keep[-1]]) > 1e-9:
                keep.append(k)
        if np.linalg.norm(coords[keep[-1]] - coords[keep[0]]) <= 1e-9 and len(keep) > 1:
            keep.pop()
        coords = coords[keep]
        if len(coords) < 3:
            raise DegenerateVertexError(f"vertex {i} normal cone is degenerate")
        alpha[i] = spherical_polygon_area(coords)
    return alpha


def spherical_polygon_area(vertices: np.ndarray) -> float:
    """Angle-excess area of a convex spherical polygon given ordered corners."""
    n = len(vertices)
    total = 0.0
    for k in range(n):
        p = vertices[k]
        a = vertices[(k - 1) % n]
        b = vertices[(k + 1) % n]
        ta = a - (a @ p) * p
        tb = b - (b @ p) * p
        ta /= np.linalg.norm(ta)
        tb /= np.linalg.norm(tb)
        total += np.arccos(np.clip(ta @ tb, -1.0, 1.0))
    return float(total - (n - 2) * np.pi)


def curvature_measure_angles(poly: HyperbolicPolytope):
    """Curvature weights as exterior (solid) angles at the vertices."""
    from .measures import DiscreteMeasure

    if poly.m == 1:
        alpha = _exterior_angles_m1(poly)
    else:
        alpha = _exterior_angles_m2(poly)
    return DiscreteMeasure(poly.m, poly.directions, alpha)


# -- area, isometries, generators ------------------------------------------


def polygon_area_m1(poly: HyperbolicPolytope) -> float:
    """Hyperbolic area of an m=1 polytope by fan triangulation from o."""
    if poly.m != 1:
        raise ValueError("polygon_area_m1 requires m = 1")
    o = basepoint(1)
    pts = poly.vertex_points()
    order = poly.order
    total = 0.0
    for pos in range(len(order)):
        a = pts[order[pos]]
        b = pts[order[(pos + 1) % len(order)]]
        ang_o = _interior_angle(o, a, b)
        ang_a = _interior_angle(a, o, b)
        ang_b = _interior_angle(b, o, a)
        total += np.pi - (ang_o + ang_a + ang_b)
    return total


def apply_isometry(poly: HyperbolicPolytope, direction: np.ndarray, length: float) -> HyperbolicPolytope:
    """Boost the polytope along a direction; rebuilds and revalidates the hull."""
    mat = boost_matrix(direction, length)
    pts = poly.vertex_points() @ mat.T
    radii = np.arccosh(np.maximum(pts[:, 0], 1.0))
    dirs = normalize_rows(pts[:, 1:])
    return from_vertices(poly.m, dirs, radii)


def regular_polygon(n: int, radius: float) -> HyperbolicPolytope:
    """Regular m=1 polytope with n vertices at a common radius."""
    theta = 2.0 * np.pi * np.arange(n) / n
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return from_vertices(1, dirs, np.full(n, float(radius)))


def icosphere_body(level: int, radius: float) -> HyperbolicPolytope:
    """m=2 polytope with vertices on an icosphere at a common radius."""
    from .quadrature import build_grid

    grid = build_grid(2, level)
    return from_vertices(2, grid.nodes.copy(), np.full(grid.size, float(radius)))


def _sampled_body(m, dirs, radii, min_exterior):
    """The polytope, or None when it is invalid or has a nearly flat vertex."""
    try:
        poly = from_vertices(m, dirs, radii)
    except (NonExtremeVertexError, OriginNotInteriorError, DegenerateHullError):
        return None
    if curvature_measure_angles(poly).weights.min() < min_exterior:
        return None
    return poly


def random_polytope(m: int, n: int, rng: np.random.Generator,
                    r_min: float = 0.4, r_max: float = 1.6,
                    min_exterior: float = 0.01) -> HyperbolicPolytope:
    """Random valid polytope with n vertices, for tests and demos.

    Rejection-samples direction sets with a minimum angular separation and
    radii in [r_min, r_max] until every vertex is extreme, the basepoint is
    interior, and every exterior angle is at least ``min_exterior``.  The
    last condition keeps the sample away from bodies with nearly-flat
    vertices, whose curvature atoms carry almost no mass.

    For m=1 and n >= 10 uniform directions rarely meet the separation rule.
    After 2000 rejected draws the m=1 sampler falls back to jittered equal
    spacing, with Klein radii tanh(r_i) that dip below a common level by at
    most 0.3 (1 - cos(2 pi / n)), so most vertices clear the chord of their
    neighbours.  Every draw the first rule accepts is unchanged.
    """
    from .minkowski import random_unit_vectors

    m = validate_dimension(m)
    if n < m + 2:
        raise ValueError(f"need at least {m + 2} vertices")
    min_sep = 0.5 / np.sqrt(n) if m == 2 else 0.5 * np.pi / n
    for _ in range(2000):
        dirs = random_unit_vectors(m, n, rng)
        chord = dirs @ dirs.T
        np.fill_diagonal(chord, -1.0)
        if chord.max() > np.cos(min_sep):
            continue
        poly = _sampled_body(m, dirs, rng.uniform(r_min, r_max, size=n), min_exterior)
        if poly is not None:
            return poly
    if m == 1:
        dip = 0.3 * (1.0 - np.cos(2.0 * np.pi / n))
        # the common level starts high enough that the dipped radii stay >= r_min
        low = np.arctanh(min(np.tanh(r_min) / (1.0 - dip), np.tanh(r_max)))
        for _ in range(2000):
            theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.25, 0.25, size=n)) / n
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            klein = np.tanh(rng.uniform(low, r_max)) * (1.0 - dip * rng.uniform(size=n))
            poly = _sampled_body(m, dirs, np.arctanh(klein), min_exterior)
            if poly is not None:
                return poly
    raise RuntimeError("failed to sample a valid polytope; relax the parameters")
