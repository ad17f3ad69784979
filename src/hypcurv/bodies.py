"""Hyperbolic convex polytopes containing the basepoint.

A polytope is given by vertex directions xi_i on S^m and hyperbolic radii
r_i > 0; its vertices are the points cosh(r_i) o + sinh(r_i) xi_i.  The Klein
model turns the body into the Euclidean convex hull of the points
tanh(r_i) xi_i inside the open unit ball.  One qhull call on these points and
the basepoint gives the facet structure for both m: the counterclockwise
vertex order for m=1 and the triangles for m=2.

The Gauss curvature measure of a polytope is a sum of point masses at the
vertex directions.  Two independent routes compute it:

* ``curvature_measure_integral`` integrates the polar-boundary area density
  cosh^{m+1}(h) over the vertex cells of a quadrature grid and divides by
  cosh(r_i);
* ``curvature_measure_angles`` computes the exterior (solid) angle at every
  vertex as m pi minus the sum of its corner angles, all corners at once from
  the directions and radii (``_corner_angles``).

Their agreement is one of the package's main self-checks.  The corner
formula also gives its own partial derivatives in the radii, from which
``exterior_angle_jacobian`` assembles d alpha / d r exactly; the Newton
solve of ``solver`` runs on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .cells import SupportKernel
from .errors import DegenerateHullError, NonExtremeVertexError, OriginNotInteriorError
from .minkowski import (
    TIE_EPS,
    boost_matrix,
    hyperbolic_point,
    normalize_rows,
    random_unit_vectors,
    unit_rows,
    validate_dimension,
)
from .quadrature import QuadratureGrid, build_grid

# Strict interiority threshold for the basepoint, in Klein support distance.
MIN_SUPPORT = 1e-6


@dataclass(frozen=True)
class HyperbolicPolytope:
    """Immutable polytope value; build through :func:`from_vertices`."""

    m: int
    directions: np.ndarray          # (N, m+1) unit vertex directions
    radii: np.ndarray               # (N,) hyperbolic radii
    klein_vertices: np.ndarray      # (N, m+1) tanh(r_i) xi_i
    facet_normals: np.ndarray       # (F, m+1) outward unit normals of qhull's facets (Klein)
    facet_supports: np.ndarray      # (F,) Klein support distances in (0, 1)
    order: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    simplices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=int))
    # ``order`` is the counterclockwise vertex ordering for m=1; ``simplices``
    # are the Klein hull's triangles for m=2.  Each is empty in the other case.

    def __post_init__(self):
        for name in ("directions", "radii", "klein_vertices",
                     "facet_normals", "facet_supports", "order", "simplices"):
            getattr(self, name).setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.directions.shape[0]

    def vertex_points(self) -> np.ndarray:
        """Vertices as points of hyperbolic space in R^{m+2}."""
        return hyperbolic_point(self.directions, self.radii)


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

    if pdist(directions).min() <= 1e-9:
        raise ValueError("vertex directions must be pairwise distinct")

    n = directions.shape[0]
    klein = np.tanh(radii)[:, None] * directions
    # the basepoint joins the hull so that a basepoint on or outside the
    # body's hull shows up as a vertex or coplanar point of this one
    try:
        hull = ConvexHull(np.vstack([klein, np.zeros(m + 1)]), qhull_options="Qc")
    except QhullError as exc:
        raise DegenerateHullError(f"vertex set is degenerate: {exc}") from exc
    extreme = np.zeros(n + 1, dtype=bool)
    extreme[hull.vertices] = True
    if not extreme[:n].all():
        raise NonExtremeVertexError(int(np.argmin(extreme[:n])))
    if extreme[n] or n in hull.coplanar[:, 0]:
        raise OriginNotInteriorError(
            "basepoint is not interior to the Klein hull: the vertex directions "
            f"lie in a closed {('half-plane', 'half-space')[m - 1]}"
        )
    # a plane split into several simplices repeats, which changes no minimum
    normals, supports = hull.equations[:, :-1], -hull.equations[:, -1]
    if supports.min() < MIN_SUPPORT:
        raise OriginNotInteriorError(
            f"facet support {supports.min():.3e} below {MIN_SUPPORT:.0e}"
        )
    # qhull lists the vertices of a 2-d hull counterclockwise
    layout = {"order": hull.vertices} if m == 1 else {"simplices": hull.simplices}
    return HyperbolicPolytope(
        m=m,
        directions=directions,
        radii=radii.copy(),
        klein_vertices=klein,
        facet_normals=normals,
        facet_supports=supports,
        **layout,
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


def t_map(poly: HyperbolicPolytope, eta: np.ndarray) -> np.ndarray:
    """Vertex indices attaining the support maximum at eta (ties within TIE_EPS)."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError("t_map takes a single direction")
    scores = (eta @ poly.directions.T) * np.tanh(poly.radii)
    best = scores.max()
    return np.nonzero(scores >= best * (1.0 - TIE_EPS))[0]


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


def _corners(poly: HyperbolicPolytope):
    """Directions as (3, N) columns and the hull's corners (i, j, k): vertex i
    between its edges to j and k, one per m=1 vertex and three per m=2 triangle."""
    if poly.m == 1:
        i = poly.order
        j, k = np.roll(i, 1), np.roll(i, -1)
    else:
        i, j, k = (np.roll(poly.simplices, -s, axis=1).ravel() for s in range(3))
    # m=1 directions lie in the plane z = 0, where every turn is pi
    dirs = np.zeros((3, poly.n_vertices))
    dirs[:poly.m + 1] = poly.directions.T
    return dirs, i, j, k


def _corner_angles(dirs: np.ndarray, radii: np.ndarray, i, j, k):
    """Angle c at vertex i between its hull edges to vertices j and k, and
    its partial derivatives in r_i, r_j and r_k.

    ``dirs`` holds the directions as (3, N) columns.  Seen from vertex i, the
    edge to j leaves at the angle B_ij = atan2(S_ij, N_ij) from the geodesic
    back to o, with S_ij = |xi_i x xi_j| and N_ij = sinh(r_i - r_j) / sinh r_j
    + cosh r_i |xi_i - xi_j|^2 / 2 (= sinh r_i coth r_j - cosh r_i cos theta_ij
    without the cancellation of close vertices).  The edges to j and k are
    turned about that geodesic by the spherical angle phi at xi_i between xi_j
    and xi_k, which does not move with the radii.  The spherical law of
    cosines in half-angle form gives c from both sides, so it keeps its
    digits near 0 and near pi:

        sin^2(c/2) = sin^2((B_ij - B_ik)/2) + sin B_ij sin B_ik sin^2(phi/2)
        cos^2(c/2) = cos^2((B_ij + B_ik)/2) + sin B_ij sin B_ik cos^2(phi/2)

    The derivatives chain sin c dc/dB_ij = sin B_ij cos B_ik - cos B_ij
    sin B_ik cos phi, dB_ij = -S_ij dN_ij / (S_ij^2 + N_ij^2), dN_ij/dr_i =
    cosh(r_i - r_j) / sinh r_j + sinh r_i |xi_i - xi_j|^2 / 2 and dN_ij/dr_j =
    -sinh r_i / sinh^2 r_j.
    """
    ends = np.stack([j, k])
    x, y = dirs[:, i][:, None], dirs[:, ends]             # (3, 1, K), (3, 2, K)
    normals = x[[1, 2, 0]] * y[[2, 0, 1]] - x[[2, 0, 1]] * y[[1, 2, 0]]   # x cross y
    gap = ((x - y) ** 2).sum(axis=0)
    r_i, r_ends = radii[i], radii[ends]
    sinh_ends = np.sinh(r_ends)
    s = np.sqrt((normals * normals).sum(axis=0))
    n = np.sinh(r_i - r_ends) / sinh_ends + 0.5 * np.cosh(r_i) * gap
    fan = np.arctan2(s, n)
    # (xi_i cross xi_j) cross (xi_i cross xi_k) = det(xi_i, xi_j, xi_k) xi_i
    turn = np.arctan2(np.abs((normals[:, 0] * y[:, 1]).sum(axis=0)),
                      (normals[:, 0] * normals[:, 1]).sum(axis=0))
    sin_fan, cos_fan = np.sin(fan), np.cos(fan)
    both = sin_fan[0] * sin_fan[1]
    half_sin = np.sin(0.5 * (fan[0] - fan[1])) ** 2 + both * np.sin(0.5 * turn) ** 2
    half_cos = np.cos(0.5 * (fan[0] + fan[1])) ** 2 + both * np.cos(0.5 * turn) ** 2
    corner = 2.0 * np.arctan2(np.sqrt(half_sin), np.sqrt(half_cos))

    # dc/dN_ij and dc/dN_ik
    slope = ((sin_fan * cos_fan[::-1] - cos_fan * sin_fan[::-1] * np.cos(turn))
             / np.sin(corner) * (-s / (s * s + n * n)))
    dn_di = np.cosh(r_i - r_ends) / sinh_ends + 0.5 * np.sinh(r_i) * gap
    dc_dj, dc_dk = slope * (-np.sinh(r_i) / sinh_ends ** 2)
    return corner, (slope * dn_di).sum(axis=0), dc_dj, dc_dk


def curvature_measure_angles(poly: HyperbolicPolytope):
    """Curvature weights as exterior (solid) angles at the vertices.

    alpha_i is m pi minus the sum of the corner angles at vertex i; for m=2
    its triangles' corners add up to the angles of its faces.
    """
    from .measures import DiscreteMeasure

    dirs, i, j, k = _corners(poly)
    corners = _corner_angles(dirs, poly.radii, i, j, k)[0]
    alpha = poly.m * np.pi - np.bincount(i, corners, minlength=poly.n_vertices)
    return DiscreteMeasure(poly.m, poly.directions, alpha)


def exterior_angle_jacobian(poly: HyperbolicPolytope) -> np.ndarray:
    """d alpha / d r as a dense (N, N) array, in closed form.

    Row i collects the negated partials of the corners at vertex i, so it is
    nonzero only at i and at the vertices joined to i by a hull edge.
    """
    dirs, i, j, k = _corners(poly)
    _, d_i, d_j, d_k = _corner_angles(dirs, poly.radii, i, j, k)
    jac = np.zeros((poly.n_vertices, poly.n_vertices))
    for column, slope in ((i, d_i), (j, d_j), (k, d_k)):
        np.add.at(jac, (i, column), -slope)
    return jac


# -- area, isometries, generators ------------------------------------------


def polygon_area_m1(poly: HyperbolicPolytope) -> float:
    """Hyperbolic area of an m=1 polytope by fan triangulation from o.

    The triangle o, a, b with t = tanh(r/2) at a and b and angle theta at o
    has area 2 atan2(t_a t_b sin theta, 1 - t_a t_b cos theta), independently
    of ``curvature_measure_angles``.  1 - cos theta is written as
    |xi_a - xi_b|^2 / 2, so thin triangles keep their digits.
    """
    if poly.m != 1:
        raise ValueError("polygon_area_m1 requires m = 1")
    a = poly.order
    b = np.roll(a, -1)
    xa, xb = poly.directions[a], poly.directions[b]
    tt = np.tanh(0.5 * poly.radii[a]) * np.tanh(0.5 * poly.radii[b])
    sin = xa[:, 0] * xb[:, 1] - xa[:, 1] * xb[:, 0]
    gap = ((xa - xb) ** 2).sum(axis=1)
    return float(np.sum(2.0 * np.arctan2(tt * sin, 1.0 - tt + 0.5 * tt * gap)))


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


def _jittered_directions(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n separated directions: equal spacing on S^1, each moved by at most a
    quarter step; on S^2 a Fibonacci spiral with each point moved by at most
    0.15 sqrt(4 pi / n) per coordinate, then turned by a random orthogonal map."""
    if m == 1:
        theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.25, 0.25, size=n)) / n
        return np.column_stack([np.cos(theta), np.sin(theta)])
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    azimuth = np.pi * (3.0 - np.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    spiral = np.column_stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z])
    turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    jitter = 0.15 * np.sqrt(4.0 * np.pi / n) * rng.uniform(-1.0, 1.0, size=(n, 3))
    return normalize_rows(spiral + jitter) @ turn


def random_polytope(m: int, n: int, rng: np.random.Generator,
                    r_min: float = 0.4, r_max: float = 1.6,
                    min_exterior: float = 0.01) -> HyperbolicPolytope:
    """Random valid polytope with n vertices, for tests and demos.

    Rejection-samples direction sets with a minimum angular separation and
    radii in [r_min, r_max] until every vertex is extreme, the basepoint is
    interior, and every exterior angle is at least ``min_exterior``.  The
    last condition keeps the sample away from bodies with nearly-flat
    vertices, whose curvature atoms carry almost no mass.

    For m=1 and n >= 10, and for m=2 and n >= 18, uniform draws rarely pass.
    After 2000 rejected draws the sampler falls back to jittered near-uniform
    directions (see ``_jittered_directions``), with Klein radii tanh(r_i)
    that dip below a common level by at most 0.3 (1 - cos R).  R is the
    angle from a vertex to its neighbours' chord or facet: the spacing
    2 pi / n for m=1, and the circumradius sqrt(4 pi / n) / sqrt(3) of a
    lattice triangle for m=2.  So most vertices clear their neighbours.
    Every draw the first rule accepts is unchanged.
    """
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
    reach = 2.0 * np.pi / n if m == 1 else np.sqrt(4.0 * np.pi / n) / np.sqrt(3.0)
    dip = 0.3 * (1.0 - np.cos(reach))
    # the common level starts high enough that the dipped radii stay >= r_min
    low = np.arctanh(min(np.tanh(r_min) / (1.0 - dip), np.tanh(r_max)))
    for _ in range(2000):
        dirs = _jittered_directions(m, n, rng)
        klein = np.tanh(rng.uniform(low, r_max)) * (1.0 - dip * rng.uniform(size=n))
        poly = _sampled_body(m, dirs, np.arctanh(klein), min_exterior)
        if poly is not None:
            return poly
    raise RuntimeError("failed to sample a valid polytope; relax the parameters")
