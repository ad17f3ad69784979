"""Weighted nearest-support decomposition of spherical grids.

Given support directions xi_i and scale factors s_i in (0, 1), the score of a
direction eta is b(eta) = max_i s_i * <eta, xi_i>.  The cells of the induced
decomposition are the regions where one index attains the max.  With
s = tanh(r) this is the vertex decomposition of a polytope under its normal
map (b = tanh h); with s = e^psi it is the weighted Voronoi decomposition of
a discrete potential (phi = -ln b).  One kernel serves both, which keeps the
forward curvature map and the grid form of the dual problem
(``solver.dual_objective`` and its gradient) numerically consistent.

b is the support function of the convex hull of the points s_i xi_i, so the
cells are its normal cones.  For m=1 they are read off one ``ConvexHull``:
the cell of a hull vertex is the arc between the outward normals of its two
edges, and a point that is not a hull vertex has an empty cell.  The grid is
cut at those normals and Simpson's rule is applied to every piece, so m=1
cell integrals converge at fourth order in the grid spacing.  m=2 cell
integrals bin grid nodes into cells; a node whose best scores tie within
``TIE_EPS`` (the rule of ``bodies.t_map`` and ``ctransform.c_transform``)
splits its weight equally between the tied cells.  Dot products with the
grid nodes, ``nodes @ points.T`` for both m, are formed in blocks of at most
``_BLOCK_ENTRIES`` entries and never stored.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .densities import F_of_b, f_of_b
from .errors import UncoveredDirectionError
from .minkowski import DOT_FLOOR, TIE_EPS, validate_dimension
from .quadrature import QuadratureGrid

# Grid nodes must have a support point within distance pi/2 - DENSITY_MARGIN.
DENSITY_MARGIN = 1e-6

# Entries of one (grid rows x supports) block of dot products.
_BLOCK_ENTRIES = 2_000_000


class SupportKernel:
    """Evaluation of cell integrals and scores for one (support set, grid) pair."""

    def __init__(self, m: int, points: np.ndarray, grid: QuadratureGrid,
                 check_density: bool = True):
        self.m = validate_dimension(m)
        if grid.m != self.m:
            raise ValueError("grid dimension does not match")
        self.points = np.asarray(points, dtype=float)
        self.n = self.points.shape[0]
        self.grid = grid
        if self.m == 1:
            self.node_angles = (2.0 * np.pi / grid.size) * np.arange(grid.size)
            self.sup_angles = np.arctan2(self.points[:, 1], self.points[:, 0])
        if check_density:
            max_dot = np.concatenate([self._dot_block(lo, hi).max(axis=1)
                                      for lo, hi in self._chunks()])
            worst = int(np.argmin(max_dot))
            if max_dot[worst] < np.sin(DENSITY_MARGIN):
                raise UncoveredDirectionError(grid.nodes[worst])

    # -- shared helpers -------------------------------------------------

    def _chunks(self):
        rows = max(1, _BLOCK_ENTRIES // max(self.n, 1))
        for lo in range(0, self.grid.size, rows):
            yield lo, min(lo + rows, self.grid.size)

    def _dot_block(self, lo: int, hi: int) -> np.ndarray:
        return self.grid.nodes[lo:hi] @ self.points.T

    def node_scores(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best score b and attaining index at every grid node."""
        s = np.asarray(s, dtype=float)
        best = np.empty(self.grid.size)
        arg = np.empty(self.grid.size, dtype=int)
        for lo, hi in self._chunks():
            scores = self._dot_block(lo, hi) * s
            best[lo:hi] = scores.max(axis=1)
            arg[lo:hi] = scores.argmax(axis=1)
        if best.min() <= 0.0:
            bad = int(np.argmin(best))
            raise UncoveredDirectionError(self.grid.nodes[bad])
        return best, arg

    def phi_nodes(self, s: np.ndarray) -> np.ndarray:
        """Conjugate potential phi = -ln(b) at every grid node."""
        best, _ = self.node_scores(s)
        return -np.log(best)

    def conjugate_update(self, phi: np.ndarray) -> np.ndarray:
        """Grid c-transform of phi back onto the support: min_k (c_ki - phi_k)."""
        best = np.full(self.n, -np.inf)
        for lo, hi in self._chunks():
            dots = self._dot_block(lo, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                ln = np.where(dots > DOT_FLOOR, np.log(np.maximum(dots, DOT_FLOOR)), -np.inf)
            np.maximum(best, (ln + phi[lo:hi, None]).max(axis=0), out=best)
        return -best

    # -- cell integrals --------------------------------------------------

    def cell_sums(self, s: np.ndarray, want_objective: bool = False):
        """Per-cell integrals of f(phi), plus the total integral of F(phi).

        Returns (masses, objective) where masses[i] integrates
        f(phi) = (1 - b^2)^(-(m+1)/2) over cell i and objective is the
        compensated total of F(phi) over the sphere (None unless requested).
        """
        s = np.asarray(s, dtype=float)
        if self.m == 1:
            return self._sweep_m1(s, want_objective)
        return self._sweep_m2(s, want_objective)

    def solver_sweep(self, s: np.ndarray, want_objective: bool):
        """``cell_sums`` plus a None slot; kept for tracers that wrap it by name."""
        return (*self.cell_sums(s, want_objective), None)

    def _sweep_m2(self, s, want_objective):
        masses = np.zeros(self.n)
        objective_terms = [] if want_objective else None
        w = self.grid.weights
        for lo, hi in self._chunks():
            scores = self._dot_block(lo, hi) * s
            best = scores.max(axis=1)
            if best.min() <= 0.0:
                bad = lo + int(np.argmin(best))
                raise UncoveredDirectionError(self.grid.nodes[bad])
            contrib = w[lo:hi] * f_of_b(best, self.m)
            row, col = np.nonzero(scores >= (best * (1.0 - TIE_EPS))[:, None])
            share = contrib / np.bincount(row, minlength=hi - lo)
            masses += np.bincount(col, weights=share[row], minlength=self.n)
            if want_objective:
                objective_terms.append(w[lo:hi] * F_of_b(best, self.m))
        objective = None
        if want_objective:
            objective = math.fsum(np.concatenate(objective_terms))
        return masses, objective

    def _sweep_m1(self, s, want_objective):
        pts = s[:, None] * self.points
        try:
            ring = ConvexHull(pts).vertices          # counterclockwise
        except QhullError:                           # fewer than 3 points, or collinear
            ring = np.zeros(0, dtype=int)
        tail, head = pts[ring], pts[np.roll(ring, -1)]
        # edge k runs from ring[k] to ring[k+1]; the origin lies strictly
        # inside exactly when every edge turns counterclockwise about it
        if len(ring) < 3 or (tail[:, 0] * head[:, 1] - tail[:, 1] * head[:, 0]).min() <= 0.0:
            raise UncoveredDirectionError(self._widest_gap_direction())
        edge = head - tail
        # the cell of ring[k] starts at the outward normal of edge k-1
        starts = np.roll(np.arctan2(-edge[:, 0], edge[:, 1]) % (2.0 * np.pi), 1)
        order = np.argsort(starts)
        starts, owners = starts[order], ring[order]
        lo = np.sort(np.concatenate([self.node_angles, starts]))
        hi = np.append(lo[1:], 2.0 * np.pi)
        mid = 0.5 * (lo + hi)
        idx = owners[np.searchsorted(starts, mid, side="right") - 1]
        theta = np.stack([lo, mid, hi])
        vals = np.minimum(s[idx] * np.cos(theta - self.sup_angles[idx]), 1.0 - 1e-16)
        coeff = (hi - lo) / 6.0
        fv = f_of_b(vals, 1)
        masses = np.bincount(idx, weights=coeff * (fv[0] + 4.0 * fv[1] + fv[2]),
                             minlength=self.n)
        objective = None
        if want_objective:
            Fv = F_of_b(vals, 1)
            objective = math.fsum(coeff * (Fv[0] + 4.0 * Fv[1] + Fv[2]))
        return masses, objective

    def _widest_gap_direction(self) -> np.ndarray:
        """Middle of the widest gap between support angles.

        When the origin is not strictly inside the hull, the support lies in
        a closed half-plane, the gap is at least pi and b <= 0 here.
        """
        angles = np.sort(self.sup_angles)
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        k = int(np.argmax(gaps))
        mid = angles[k] + 0.5 * gaps[k]
        return np.array([np.cos(mid), np.sin(mid)])
