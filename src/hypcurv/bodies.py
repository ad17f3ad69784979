"""Hyperbolic convex polytopes containing the basepoint.

A polytope is given by vertex directions xi_i on S^m and hyperbolic radii
r_i > 0; its vertices are the points cosh(r_i) o + sinh(r_i) xi_i.  The Klein
model turns the body into the Euclidean convex hull of the points
tanh(r_i) xi_i inside the open unit ball.  One qhull call on these points and
the basepoint gives the faces for both m (``FaceSet``).

The Gauss curvature measure of a polytope is a sum of point masses at the
vertex directions.  Two independent routes compute it:

* ``curvature_measure_integral`` integrates the polar-boundary area density
  cosh^{m+1}(h) over the normal cone of each vertex of the Klein hull
  (``cells.SupportKernel``) and divides by cosh(r_i);
* ``curvature_measure_angles`` computes the exterior (solid) angle at every
  vertex as m pi minus the sum of its corner angles, all corners at once from
  the directions and radii (``_corner_angles``).

Their agreement is one of the package's main self-checks; every total and
area is a third route, the Gauss-Bonnet face areas of ``_boundary_area``.
The corner formula also gives its own partial derivatives in the radii, so
``angles_and_jacobian`` returns the angles and d alpha / d r together from
one pass over the corners.  A body is its directions, radii and faces, one
``FaceSet`` that ``from_vertices`` builds and turns outward from its qhull
call: the counterclockwise cycle for m=1, the triangles with the vertex
across each edge for m=2.  The facet planes come from the faces on first
use, by the formula ``FaceSet.bound`` uses.  The set's ``CornerFrame``
holds what the corner formula takes from the directions alone (cross
products, |xi_i - xi_j|^2 / 2, the spherical turn at each corner and the
Jacobian's flat indices); it is built on first use, and ``_corner_angles``
adds the radii.  ``solver`` keeps a body's faces across Newton trials while
``FaceSet.bound`` accepts them, and builds its body on the last ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .cells import SupportKernel
from .errors import DegenerateHullError, NonExtremeVertexError, OriginNotInteriorError
from .measures import DiscreteMeasure
from .minkowski import (
    TIE_EPS,
    boost_matrix,
    hyperbolic_point,
    lorentz_dot,
    normalize_rows,
    random_unit_vectors,
    unit_rows,
    validate_dimension,
)
from .quadrature import build_grid

# Strict interiority threshold for the basepoint, in Klein support distance.
MIN_SUPPORT = 1e-6
MIN_EXTERIOR = 0.01  # random_polytope redraws a body with a smaller exterior angle


@dataclass(frozen=True)
class HyperbolicPolytope:
    """Immutable polytope on the faces of its Klein hull; ``from_vertices``
    validates and finds them, ``solver`` builds one on faces that bound it."""

    m: int
    directions: np.ndarray          # (N, m+1) unit vertex directions
    radii: np.ndarray               # (N,) hyperbolic radii
    faces: FaceSet                  # the hull's faces, turned outward
    klein_vertices: np.ndarray = field(init=False)   # (N, m+1) tanh(r_i) xi_i

    def __post_init__(self):
        object.__setattr__(self, "klein_vertices", np.tanh(self.radii)[:, None] * self.directions)
        for array in (self.directions, self.radii, self.klein_vertices,
                      self.faces.faces, self.faces.opposite):
            array.setflags(write=False)

    @cached_property
    def _planes(self):
        t = np.tanh(self.radii)
        _, normal, norm, height = _face_planes(self.directions, self.faces.faces, t)
        planes = normal / norm[:, None], t.max() * height / norm
        for array in planes:
            array.setflags(write=False)
        return planes

    # the faces' (F, m+1) outward unit normals and (F,) Klein supports in (0, 1)
    facet_normals = property(lambda self: self._planes[0])
    facet_supports = property(lambda self: self._planes[1])

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

    if cKDTree(directions).query_pairs(1e-9):
        raise ValueError("vertex directions must be pairwise distinct")

    n, t = directions.shape[0], np.tanh(radii)
    # the basepoint joins the hull so that a basepoint on or outside the
    # body's hull shows up as a vertex or coplanar point of this one
    try:
        hull = ConvexHull(np.vstack([t[:, None] * directions, np.zeros(m + 1)]),
                          qhull_options="Qc")
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
    if m == 1:
        # qhull lists the vertices of a 2-d hull counterclockwise
        faces = cycle_faces(directions, hull.vertices)
        _, _, norm, height = _face_planes(directions, faces.faces, t)
    else:
        _, _, norm, height = _face_planes(directions, hull.simplices, t)
        faces = _triangle_faces(directions, hull, height < 0)
    # a plane split into several triangles repeats, which changes no minimum
    if not (low := (t.max() * np.abs(height) / norm).min()) >= MIN_SUPPORT:
        raise OriginNotInteriorError(f"facet support {low:.3e} below {MIN_SUPPORT:.0e}")
    return HyperbolicPolytope(m, directions, radii.copy(), faces)


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


def curvature_measure_integral(poly: HyperbolicPolytope, grid=None):
    """Curvature weights from the polar-boundary area density.

    alpha_i integrates cosh^{m+1}(h) over the normal cone of vertex i
    (``cells.SupportKernel``) and divides by cosh(r_i).  Returns a
    DiscreteMeasure supported on the vertex directions.  ``grid`` is not
    read; it is accepted so that positional calls that pass a quadrature
    grid keep working.
    """
    kernel = SupportKernel(poly.m, poly.directions)
    masses, _ = kernel.cell_sums(np.tanh(poly.radii))
    weights = masses / np.cosh(poly.radii)
    return DiscreteMeasure(poly.m, poly.directions, weights)


def polar_boundary_area(poly: HyperbolicPolytope) -> float:
    """Total area of the polar boundary, the curvature measure's total mass:
    2 pi m plus the area of the body (m=1) or of its boundary (m=2)."""
    faces = poly.faces.faces
    return 2.0 * np.pi * poly.m + _boundary_area(poly.m, poly.directions, poly.radii, faces)


def _hull_polar_area(m: int, directions: np.ndarray, radii: np.ndarray) -> float:
    """``polar_boundary_area`` of the hull of the Klein points tanh(r_i) xi_i,
    extreme or not, on qhull's unoriented faces."""
    hull = ConvexHull(np.tanh(radii)[:, None] * directions)
    return 2.0 * np.pi * m + _boundary_area(m, directions, radii, hull.simplices)


def _boundary_area(m: int, directions: np.ndarray, radii: np.ndarray, faces: np.ndarray):
    """The area of the body (m=1) or of its boundary (m=2) on these faces, in
    any order and orientation; 2 pi m more is |Sigma|, by Gauss-Bonnet.

    Face (a, b, c) on the hyperboloid, or (o, a, b) for m=1, has area A with
    tan(A/2) = sqrt(-Gram(a, b, c)) / (1 - <a,b> - <b,c> - <c,a>), after Van
    Oosterom and Strackee; -Gram sums the squared 3x3 minors of (a, b - a,
    c - a), negated without the time row (Cauchy-Binet).  Sorted vertices
    and an exact sum make the result depend on the faces alone.
    """
    points = np.vstack([hyperbolic_point(directions, radii), np.eye(1, m + 2)])   # o last
    faces = np.sort(faces, axis=1)
    if m == 1:
        faces = np.column_stack([np.full(len(faces), len(radii)), faces])
    a, b, c = points[faces].transpose(1, 0, 2)
    rows = list(itertools.combinations(range(m + 2), 3))
    minors = np.linalg.det(np.stack([a, b - a, c - a], axis=2)[:, rows])
    gram = (np.where([0 in row for row in rows], 1.0, -1.0) * minors ** 2).sum(axis=1)
    dots = lorentz_dot(a, b) + lorentz_dot(b, c) + lorentz_dot(c, a)
    return math.fsum(2.0 * np.arctan2(np.sqrt(np.maximum(gram, 0.0)), 1.0 - dots))


@dataclass(frozen=True)
class CornerFrame:
    """The part of the corner formula that depends on the directions alone.

    Built once per face set by ``FaceSet.frame``; :func:`_corner_angles`
    adds the radii.  Corner c sits at vertex ``i[c]`` between its edges to
    ``ends[0, c]`` and ``ends[1, c]``.
    """

    m: int
    n: int                  # vertices
    i: np.ndarray           # (K,)
    ends: np.ndarray        # (2, K)
    s: np.ndarray           # (2, K) S_ij = |xi_i x xi_j|
    half_gap: np.ndarray    # (2, K) |xi_i - xi_j|^2 / 2
    sin2_half_turn: np.ndarray   # (K,) sin^2(phi / 2)
    cos2_half_turn: np.ndarray   # (K,) cos^2(phi / 2)
    cos_turn: np.ndarray         # (K,) cos phi
    flat: np.ndarray        # (3K,) Jacobian entries i*N + column for columns i, j, k


def _corner_angles(frame: CornerFrame, radii: np.ndarray):
    """Angle c at vertex i between its hull edges to vertices j and k, and
    its partial derivatives in r_i, r_j and r_k.

    Seen from vertex i, the edge to j leaves at the angle B_ij = atan2(S_ij,
    N_ij) from the geodesic back to o, with S_ij = |xi_i x xi_j| and N_ij =
    sinh(r_i - r_j) / sinh r_j + cosh r_i |xi_i - xi_j|^2 / 2 (= sinh r_i
    coth r_j - cosh r_i cos theta_ij without the cancellation of close
    vertices).  The edges to j and k are turned about that geodesic by the
    spherical angle phi at xi_i between xi_j and xi_k, which does not move
    with the radii.  The spherical law of cosines in half-angle form gives c
    from both sides, so it keeps its digits near 0 and near pi:

        sin^2(c/2) = sin^2((B_ij - B_ik)/2) + sin B_ij sin B_ik sin^2(phi/2)
        cos^2(c/2) = cos^2((B_ij + B_ik)/2) + sin B_ij sin B_ik cos^2(phi/2)

    The derivatives chain sin c dc/dB_ij = sin B_ij cos B_ik - cos B_ij
    sin B_ik cos phi, dB_ij = -S_ij dN_ij / (S_ij^2 + N_ij^2), dN_ij/dr_i =
    cosh(r_i - r_j) / sinh r_j + sinh r_i |xi_i - xi_j|^2 / 2 and dN_ij/dr_j =
    -sinh r_i / sinh^2 r_j.  Everything that depends on the directions alone
    (S_ij, |xi_i - xi_j|^2 / 2 and the terms in phi) comes from ``frame``.
    """
    r_i, r_ends = radii[frame.i], radii[frame.ends]
    sinh_ends = np.sinh(r_ends)
    s = frame.s
    n = np.sinh(r_i - r_ends) / sinh_ends + np.cosh(r_i) * frame.half_gap
    fan = np.arctan2(s, n)
    sin_fan, cos_fan = np.sin(fan), np.cos(fan)
    both = sin_fan[0] * sin_fan[1]
    half_sin = np.sin(0.5 * (fan[0] - fan[1])) ** 2 + both * frame.sin2_half_turn
    half_cos = np.cos(0.5 * (fan[0] + fan[1])) ** 2 + both * frame.cos2_half_turn
    corner = 2.0 * np.arctan2(np.sqrt(half_sin), np.sqrt(half_cos))

    # dc/dN_ij and dc/dN_ik
    slope = ((sin_fan * cos_fan[::-1] - cos_fan * sin_fan[::-1] * frame.cos_turn)
             / np.sin(corner) * (-s / (s * s + n * n)))
    sinh_i = np.sinh(r_i)
    dn_di = np.cosh(r_i - r_ends) / sinh_ends + sinh_i * frame.half_gap
    dc_dj, dc_dk = slope * (-sinh_i / sinh_ends ** 2)
    return corner, (slope * dn_di).sum(axis=0), dc_dj, dc_dk


def _exterior(frame: CornerFrame, corners: np.ndarray) -> np.ndarray:
    """alpha_i: m pi minus the sum of the corner angles at vertex i; for m=2
    its triangles' corners add up to the angles of its faces."""
    return frame.m * np.pi - np.bincount(frame.i, corners, minlength=frame.n)


def angles_and_jacobian(frame: CornerFrame, radii: np.ndarray):
    """The exterior angles alpha and d alpha / d r as a dense (N, N) array,
    from one pass of the corner formula over the frame's corners; row i of
    d alpha / d r is nonzero only at i and at i's neighbours on the hull."""
    corners, d_i, d_j, d_k = _corner_angles(frame, radii)
    # entries of the flat index i*N + column, summed in the order i, j, k
    jac = np.bincount(frame.flat, -np.concatenate([d_i, d_j, d_k]), minlength=frame.n ** 2)
    return _exterior(frame, corners), jac.reshape(frame.n, frame.n)


def curvature_measure_angles(poly: HyperbolicPolytope):
    """Curvature weights as exterior (solid) angles at the vertices: the
    alpha of ``angles_and_jacobian`` on the body's faces."""
    frame = poly.faces.frame
    alpha = _exterior(frame, _corner_angles(frame, poly.radii)[0])
    return DiscreteMeasure(poly.m, poly.directions, alpha)


# -- faces -------------------------------------------------------------------

# (e_y, e_x) * _CLOCKWISE = (e_y, -e_x) is the edge e turned a quarter turn
# clockwise: the outward normal of a counterclockwise polygon edge
_CLOCKWISE = np.array([1.0, -1.0])


@dataclass(frozen=True)
class FaceSet:
    """The faces of a validated body, which the solver keeps while its radii change.

    ``faces`` lists each face's vertices in outward order: the (F, 2)
    counterclockwise edges of an m=1 polygon in cycle order, so that
    ``faces[:, 0]`` is its counterclockwise vertex order, and the (F, 3)
    triangles of an m=2 hull, counterclockwise seen from outside.
    ``opposite[f, e]`` is the vertex of the neighbouring face across edge e
    of face f: the edge from ``faces[f, e]`` for m=2, the endpoint
    ``faces[f, 1]`` for m=1.
    """

    directions: np.ndarray
    faces: np.ndarray
    opposite: np.ndarray

    @cached_property
    def frame(self) -> CornerFrame:
        """The corner frame of the faces, built on first use: one corner per
        m=1 vertex, between its neighbours, and three per m=2 triangle."""
        if self.faces.shape[1] == 2:
            # contiguous: every trial gathers and bins by i
            i, k = np.ascontiguousarray(self.faces.T)
            j = np.concatenate([i[-1:], i[:-1]])
        else:
            i, j, k = (self.faces[:, turn].ravel() for turn in ([0, 1, 2], [1, 2, 0], [2, 0, 1]))
        n, m = self.directions.shape[0], self.directions.shape[1] - 1
        # m=1 directions lie in the plane z = 0, where every turn is pi
        dirs = np.zeros((3, n))
        dirs[:m + 1] = self.directions.T
        ends = np.stack([j, k])
        x, y = dirs[:, i][:, None], dirs[:, ends]             # (3, 1, K), (3, 2, K)
        normals = x[[1, 2, 0]] * y[[2, 0, 1]] - x[[2, 0, 1]] * y[[1, 2, 0]]   # x cross y
        # (xi_i cross xi_j) cross (xi_i cross xi_k) = det(xi_i, xi_j, xi_k) xi_i
        turn = np.arctan2(np.abs((normals[:, 0] * y[:, 1]).sum(axis=0)),
                          (normals[:, 0] * normals[:, 1]).sum(axis=0))
        return CornerFrame(
            m=m, n=n, i=i, ends=ends,
            s=np.sqrt((normals * normals).sum(axis=0)),
            half_gap=0.5 * ((x - y) ** 2).sum(axis=0),
            sin2_half_turn=np.sin(0.5 * turn) ** 2,
            cos2_half_turn=np.cos(0.5 * turn) ** 2,
            cos_turn=np.cos(turn),
            flat=np.concatenate([i * n + i, i * n + j, i * n + k]),
        )

    def least_support(self, t: np.ndarray) -> float:
        """The least Klein support of these faces through the points t_i xi_i."""
        _, _, norm, height = _face_planes(self.directions, self.faces, t)
        return float((t.max() * height / norm).min())

    def bound(self, radii: np.ndarray) -> bool:
        """Whether these faces are the faces of the valid body with these radii.

        With p_i = tanh(r_i) xi_i, det(p_a, p_b, p_c) = t_a t_b t_c det(xi_a,
        xi_b, xi_c), so every face keeps its orientation about the basepoint
        and the faces stay a closed surface, star-shaped about it.  The test
        asks, besides the checks of ``from_vertices`` on the radii, that every
        face's support be at least MIN_SUPPORT and that every opposite vertex
        lie strictly below the face.  Then the surface is strictly locally
        convex, so it bounds a convex body whose vertices are all the p_i and
        whose faces are these, and ``from_vertices`` accepts the radii.
        """
        # a NaN or -inf radius fails the first test, +inf the second
        if not radii.min() > 0:
            return False
        t = np.tanh(radii)
        top = t.max()
        if not top < 1.0:
            return False
        q, normal, norm, height = _face_planes(self.directions, self.faces, t)
        below = (normal[:, None] * (q[self.opposite] - q[self.faces[:, :1]])).sum(axis=2)
        return bool(norm.min() > 0 and (top * height / norm).min() >= MIN_SUPPORT
                    and below.max() < 0)


def _face_planes(directions: np.ndarray, faces: np.ndarray, t: np.ndarray):
    """The planes of the faces through the Klein points t_i xi_i, formed on
    q = (t / max t) xi so that |n|^2 cannot underflow: q, each face's normal
    n (outward for faces turned outward), |n| and the height <n, q> of the
    face, whose Klein support is max t * height / |n|."""
    q = (t / t.max())[:, None] * directions
    base = q[faces[:, 0]]
    edge = q[faces[:, 1]] - base
    if faces.shape[1] == 2:
        normal = edge[:, ::-1] * _CLOCKWISE
    else:
        other = q[faces[:, 2]] - base
        normal = np.column_stack([edge[:, 1] * other[:, 2] - edge[:, 2] * other[:, 1],
                                  edge[:, 2] * other[:, 0] - edge[:, 0] * other[:, 2],
                                  edge[:, 0] * other[:, 1] - edge[:, 1] * other[:, 0]])
    return q, normal, np.sqrt((normal * normal).sum(axis=1)), (normal * base).sum(axis=1)


def cycle_faces(directions: np.ndarray, order: np.ndarray | None = None) -> FaceSet:
    """The faces of the m=1 polygon whose vertices run counterclockwise in
    ``order``, by default the directions sorted by angle."""
    if order is None:
        order = np.argsort(np.arctan2(directions[:, 1], directions[:, 0]))
    following = np.concatenate([order[1:], order[:1]])
    return FaceSet(directions=directions, faces=np.column_stack([order, following]),
                   opposite=np.concatenate([following[1:], following[:1]])[:, None])


def _triangle_faces(directions: np.ndarray, hull: ConvexHull, inward: np.ndarray) -> FaceSet:
    """The faces of an m=2 body: qhull's triangles, each turned over where
    ``inward``, as where its height over the interior basepoint is negative
    (``_face_planes``).  ``hull.neighbors[f, c]`` is the triangle across from
    vertex c of triangle f, so the vertex across an edge is that triangle's
    vertex sum minus the edge's two ends."""
    tri, inward = hull.simplices, inward[:, None]
    # edge e runs from vertex e to vertex e + 1, across from vertex e + 2;
    # turning a triangle over reverses its edges
    opposite = tri.sum(axis=1)[hull.neighbors[:, [2, 0, 1]]] - tri - tri[:, [1, 2, 0]]
    return FaceSet(directions=directions, faces=np.where(inward, tri[:, [0, 2, 1]], tri),
                   opposite=np.where(inward, opposite[:, [2, 1, 0]], opposite))


# -- area, isometries, generators ------------------------------------------


def polygon_area_m1(poly: HyperbolicPolytope) -> float:
    """Hyperbolic area of an m=1 polytope, by the fan triangles from o of
    ``_boundary_area``, independently of ``curvature_measure_angles``."""
    if poly.m != 1:
        raise ValueError("polygon_area_m1 requires m = 1")
    return _boundary_area(1, poly.directions, poly.radii, poly.faces.faces)


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


def _sampled_body(m, dirs, radii):
    """The polytope, or None when it is invalid or has a nearly flat vertex."""
    try:
        poly = from_vertices(m, dirs, radii)
    except (NonExtremeVertexError, OriginNotInteriorError, DegenerateHullError):
        return None
    if curvature_measure_angles(poly).weights.min() < MIN_EXTERIOR:
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
                    r_min: float = 0.4, r_max: float = 1.6) -> HyperbolicPolytope:
    """Random valid polytope with n vertices, for tests and demos.

    Rejection-samples direction sets with a minimum angular separation and
    radii in [r_min, r_max] until every vertex is extreme, the basepoint is
    interior, and every exterior angle is at least ``MIN_EXTERIOR``.  The
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
        poly = _sampled_body(m, dirs, rng.uniform(r_min, r_max, size=n))
        if poly is not None:
            return poly
    reach = 2.0 * np.pi / n if m == 1 else np.sqrt(4.0 * np.pi / n) / np.sqrt(3.0)
    dip = 0.3 * (1.0 - np.cos(reach))
    # the common level starts high enough that the dipped radii stay >= r_min
    low = np.arctanh(min(np.tanh(r_min) / (1.0 - dip), np.tanh(r_max)))
    for _ in range(2000):
        dirs = _jittered_directions(m, n, rng)
        klein = np.tanh(rng.uniform(low, r_max)) * (1.0 - dip * rng.uniform(size=n))
        poly = _sampled_body(m, dirs, np.arctanh(klein))
        if poly is not None:
            return poly
    raise RuntimeError("failed to sample a valid polytope; relax the parameters")
