"""Cell integrals over the normal cones of a weighted support set.

Given support directions xi_i and scale factors s_i in (0, 1), the score of a
direction eta is b(eta) = max_i s_i * <eta, xi_i>, and cell i is where index i
attains the max.  With s = tanh(r) this is the vertex decomposition of a
polytope under its normal map (b = tanh h); with s = e^psi it is the weighted
Voronoi decomposition of a discrete potential (phi = -ln b).  The kernel is
the independent oracle of the forward map (``bodies.curvature_measure_integral``)
and of the dual problem (``solver.dual_objective``); areas do not read it.

b is the support function of the hull of the points s_i xi_i, so cell i is
the hull's normal cone at s_i xi_i, empty unless that point is a hull vertex.
``klein_hull`` builds it, K for ``ctransform``, and in ``bodies`` every
body's hull and the Crofton area hull; no other code calls qhull.  Two facets
t and u that share a ridge give each vertex i of the ridge the arc (N_t, N_u)
for m=1, or the triangle (c_i, N_t, N_u) for m=2, where N are unit facet
normals and c_i, the normalized sum of the normals at i, lies inside the
convex cell.  Simplices are halved at their longest edge until twice its
chord is at most max(sqrt(1 - s_i^2), distance to xi_i), the scale on which
f = (1 - b^2)^(-(m+1)/2) varies, and for the objective also at most
min <corner, xi_i>, the distance to where ln b blows up.  Each is mapped
centrally (eta = P/|P|, d sigma = |det(corners)| / |P|^(m+1)) and integrated
by 8-point Gauss-Legendre per axis, collapsed onto the triangle for m=2
(Duffy, SIAM J. Numer. Anal. 1982).  For a polytope the cell masses are
cosh(r_i) alpha_i to rounding.

The same hull on the unit directions makes the constructor's pi/2-density
check exact: the least score over the sphere is the least facet support.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .densities import F_of_b, f_of_b
from .errors import UncoveredDirectionError
from .minkowski import normalize_rows, validate_dimension

# Every direction must have a support point within distance pi/2 - DENSITY_MARGIN.
DENSITY_MARGIN = 1e-6


@functools.cache
def _simplex_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric nodes and weights of the 8-point Gauss-Legendre rule on the
    unit m-simplex; for m=2 collapsed by (s, t) = (u (1 - v), u v)."""
    x, w = np.polynomial.legendre.leggauss(8)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    if m == 1:
        return np.column_stack([1.0 - x, x]), w
    u, v = (a.ravel() for a in np.meshgrid(x, x, indexing="ij"))
    return np.column_stack([1.0 - u, u * (1.0 - v), u * v]), np.outer(w, w).ravel() * u


def _away_from_flat(points: np.ndarray) -> np.ndarray:
    """Unit normal of the points' affine hull, turned so that every <eta, P_i> <= 0.

    Within the normal space it points against the hull's offset from the
    origin, so the common score is -|offset|; a single point gets -P / |P|.
    """
    mean = points.mean(axis=0)
    _, sv, vt = np.linalg.svd(points - mean)
    rank = int(np.sum(sv > 1e-10 * max(sv.max(), 1.0)))
    normals = vt[min(rank, len(vt) - 1):]
    offset = normals.T @ (normals @ mean)
    size = np.linalg.norm(offset)
    return -offset / size if size > 0.0 else normals[0]


def klein_hull(points: np.ndarray, s: np.ndarray, floor: float):
    """Hull of the points s_i xi_i, its unit outward facet normals and its
    facet supports.  Raises UncoveredDirectionError where a support is at
    most floor, at the lowest facet's normal, or, for points too few or too
    flat for a hull, at the normal of their affine hull, pointing away."""
    scaled = s[:, None] * points
    try:
        hull = ConvexHull(scaled)
    except QhullError:                       # too few points, or flat input
        raise UncoveredDirectionError(_away_from_flat(scaled)) from None
    normals, supports = hull.equations[:, :-1], -hull.equations[:, -1]
    low = int(np.argmin(supports))           # the least facet support
    if supports[low] <= floor:
        raise UncoveredDirectionError(normals[low])
    return hull, normals, supports


class SupportKernel:
    """Cell integrals over the normal cones of the hulls of one support set."""

    def __init__(self, m: int, points: np.ndarray):
        self.m = validate_dimension(m)
        self.points = np.asarray(points, dtype=float)
        self.n = self.points.shape[0]
        klein_hull(self.points, np.ones(self.n), np.sin(DENSITY_MARGIN))

    # -- cell integrals --------------------------------------------------

    def cell_sums(self, s: np.ndarray, want_objective: bool = False):
        """Per-cell integrals of f(phi), plus the total integral of F(phi).

        Returns (masses, objective) where masses[i] integrates
        f(phi) = (1 - b^2)^(-(m+1)/2) over cell i and objective is the
        compensated total of F(phi) over the sphere (None unless requested).
        """
        s = np.asarray(s, dtype=float)
        if not np.all((s > 0.0) & (s < 1.0)):      # f blows up at b = 1
            raise ValueError("scale factors must lie in (0, 1)")
        m = self.m
        hull, normals, _ = klein_hull(self.points, s, 0.0)
        # facet t meets facet u = neighbors[t, k] in its vertices but the k-th
        t, k = np.nonzero(hull.neighbors > np.arange(len(normals))[:, None])
        u = hull.neighbors[t, k]
        owners = np.concatenate([hull.simplices[t, (k + j) % (m + 1)] for j in range(1, m + 1)])
        corners = np.tile(np.stack([normals[t], normals[u]], axis=1), (m, 1, 1))
        if m == 2:
            centre = np.zeros((self.n, 3))
            np.add.at(centre, hull.simplices, normals[:, None])
            corners = np.concatenate([normalize_rows(centre[owners])[:, None], corners], axis=1)
        corners, owners = self._refined(corners, owners, s, want_objective)

        nodes, weights = _simplex_rule(m)
        p = nodes @ corners                                     # (simplex, node, m+1)
        norm = np.sqrt((p * p).sum(axis=2))
        jac = np.abs(np.linalg.det(corners))[:, None] * weights / norm ** (m + 1)
        b = (p @ (s[owners, None] * self.points[owners])[:, :, None])[..., 0] / norm
        masses = np.bincount(owners, weights=(jac * f_of_b(b, m)).sum(axis=1),
                             minlength=self.n)
        objective = math.fsum((jac * F_of_b(b, m)).ravel()) if want_objective else None
        return masses, objective

    def _refined(self, corners: np.ndarray, owners: np.ndarray, s: np.ndarray,
                 objective: bool):
        """Simplices halved until they resolve their density; the distance to
        xi_i is read as the least chord from a corner to xi_i."""
        pairs = np.array(list(itertools.combinations(range(self.m + 1), 2)))
        done = []
        while len(owners):
            chords = np.linalg.norm(corners[:, pairs[:, 0]] - corners[:, pairs[:, 1]], axis=2)
            longest = chords.argmax(axis=1)
            xi = self.points[owners, None]
            near = np.linalg.norm(corners - xi, axis=2).min(axis=1)
            scale = np.maximum(np.sqrt(1.0 - s[owners] ** 2), near)
            if objective:
                scale = np.minimum(scale, (corners * xi).sum(axis=2).min(axis=1))
            split = 2.0 * chords.max(axis=1) > scale
            done.append((corners[~split], owners[~split]))
            corners, owners = corners[split], owners[split]
            ends = pairs[longest[split]]
            rows = np.arange(len(owners))
            mid = normalize_rows(corners[rows, ends[:, 0]] + corners[rows, ends[:, 1]])
            first, second = corners.copy(), corners.copy()
            first[rows, ends[:, 0]] = second[rows, ends[:, 1]] = mid
            corners, owners = np.concatenate([first, second]), np.tile(owners, 2)
        kept, kept_owners = zip(*done)
        return np.concatenate(kept), np.concatenate(kept_owners)

    def solver_sweep(self, s: np.ndarray, want_objective: bool):
        """``cell_sums`` plus a None slot; kept for tracers that wrap it by name."""
        return (*self.cell_sums(s, want_objective), None)
