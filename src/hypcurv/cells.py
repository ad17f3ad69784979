"""Weighted nearest-support decomposition of spherical grids.

Given support directions xi_i and scale factors s_i in (0, 1), the score of a
direction eta is b(eta) = max_i s_i * <eta, xi_i>.  The cells of the induced
decomposition are the regions where one index attains the max.  With
s = tanh(r) this is the vertex decomposition of a polytope under its normal
map (b = tanh h); with s = e^psi it is the weighted Voronoi decomposition of
a discrete potential (phi = -ln b).  One kernel serves both, which keeps the
forward curvature map and the grid form of the dual problem
(``solver.dual_objective`` and its gradient) numerically consistent.

m=1 cell integrals are computed per grid interval by Simpson's rule with
exact splitting at the angles where the active branch changes, so they
converge at fourth order in the grid spacing.  m=2 cell integrals bin grid
nodes into cells; a node whose best scores tie within ``tie_eps`` (the rule
of ``bodies.t_map`` and ``ctransform.c_transform``) splits its weight
equally between the tied cells.
"""

from __future__ import annotations

import math

import numpy as np

from .densities import F_of_b, f_of_b
from .errors import UncoveredDirectionError
from .minkowski import TIE_EPS, validate_dimension
from .quadrature import QuadratureGrid

# Grid nodes must have a support point within distance pi/2 - DENSITY_MARGIN.
DENSITY_MARGIN = 1e-6

# Store the (nodes x supports) dot table only below this entry count.
_STORE_LIMIT = 20_000_000


class SupportKernel:
    """Precomputed evaluation tables for one (support set, grid) pair."""

    def __init__(self, m: int, points: np.ndarray, grid: QuadratureGrid,
                 tie_eps: float = TIE_EPS, check_density: bool = True):
        self.m = validate_dimension(m)
        if grid.m != self.m:
            raise ValueError("grid dimension does not match")
        self.points = np.asarray(points, dtype=float)
        self.n = self.points.shape[0]
        self.grid = grid
        self.tie_eps = float(tie_eps)
        if self.m == 1:
            k = grid.size
            self.step = 2.0 * np.pi / k
            self.node_angles = self.step * np.arange(k)
            self.sup_angles = np.arctan2(self.points[:, 1], self.points[:, 0])
            self.cos_nodes = np.cos(self.node_angles[:, None] - self.sup_angles[None, :])
            self.cos_mids = np.cos(
                (self.node_angles + 0.5 * self.step)[:, None] - self.sup_angles[None, :]
            )
            max_dot = self.cos_nodes.max(axis=1)
        else:
            self._dots = None
            if grid.size * self.n <= _STORE_LIMIT:
                self._dots = grid.nodes @ self.points.T
                max_dot = self._dots.max(axis=1)
            else:
                max_dot = np.full(grid.size, -np.inf)
                for lo, hi in self._chunks():
                    max_dot[lo:hi] = (grid.nodes[lo:hi] @ self.points.T).max(axis=1)
        if check_density:
            worst = int(np.argmin(max_dot))
            if max_dot[worst] < np.sin(DENSITY_MARGIN):
                raise UncoveredDirectionError(grid.nodes[worst])

    # -- shared helpers -------------------------------------------------

    def _chunks(self):
        rows = max(1, _STORE_LIMIT // max(self.n, 1))
        for lo in range(0, self.grid.size, rows):
            yield lo, min(lo + rows, self.grid.size)

    def _dot_block(self, lo: int, hi: int) -> np.ndarray:
        if self.m == 1:
            return self.cos_nodes[lo:hi]
        if self._dots is not None:
            return self._dots[lo:hi]
        return self.grid.nodes[lo:hi] @ self.points.T

    def node_scores(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best score b and attaining index at every grid node."""
        s = np.asarray(s, dtype=float)
        best = np.empty(self.grid.size)
        arg = np.empty(self.grid.size, dtype=int)
        for lo, hi in self._chunks() if self.m == 2 else [(0, self.grid.size)]:
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
        from .minkowski import DOT_FLOOR

        best = np.full(self.n, -np.inf)
        for lo, hi in self._chunks() if self.m == 2 else [(0, self.grid.size)]:
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
            row, col = np.nonzero(scores >= (best * (1.0 - self.tie_eps))[:, None])
            share = contrib / np.bincount(row, minlength=hi - lo)
            masses += np.bincount(col, weights=share[row], minlength=self.n)
            if want_objective:
                objective_terms.append(w[lo:hi] * F_of_b(best, self.m))
        objective = None
        if want_objective:
            objective = math.fsum(np.concatenate(objective_terms))
        return masses, objective

    def _branch_values(self, theta, s):
        return s * np.cos(theta - self.sup_angles)

    def _argmax_at(self, theta, s) -> int:
        return int(np.argmax(self._branch_values(theta, s)))

    def _crossing(self, i, j, a, b, s) -> float:
        """Angle in (a, b) where branches i and j exchange dominance."""
        si, sj = s[i], s[j]
        ti, tj = self.sup_angles[i], self.sup_angles[j]
        # v_i - v_j = A cos(theta) + B sin(theta); roots at delta +- pi/2
        big_a = si * np.cos(ti) - sj * np.cos(tj)
        big_b = si * np.sin(ti) - sj * np.sin(tj)
        delta = np.arctan2(big_b, big_a)
        best = None
        for cand in (delta + 0.5 * np.pi, delta - 0.5 * np.pi):
            t = a + (cand - a) % (2.0 * np.pi)
            if a < t < b:
                best = t if best is None else min(best, t)
        if best is not None:
            return best
        # crossing pinched against an endpoint by roundoff
        dl = si * np.cos(a - ti) - sj * np.cos(a - tj)
        dr = si * np.cos(b - ti) - sj * np.cos(b - tj)
        return a if abs(dl) <= abs(dr) else b

    def _simpson_piece(self, a, b, idx, s, masses, objective_terms):
        theta = np.array([a, 0.5 * (a + b), b])
        vals = s[idx] * np.cos(theta - self.sup_angles[idx])
        vals = np.minimum(vals, 1.0 - 1e-16)
        width = b - a
        coeff = width / 6.0
        fv = f_of_b(vals, 1)
        masses[idx] += coeff * (fv[0] + 4.0 * fv[1] + fv[2])
        if objective_terms is not None:
            Fv = F_of_b(vals, 1)
            objective_terms.append(coeff * (Fv[0] + 4.0 * Fv[1] + Fv[2]))

    def _refine_m1(self, a, b, ia, ib, s, masses, objective_terms, depth):
        """Integrate over [a, b] knowing the active branches just inside the
        endpoints; split at branch crossings found in closed form."""
        if b - a < 1e-14:
            return
        if ia != ib:
            t = self._crossing(ia, ib, a, b, s)
            if a < t < b and depth <= 48:
                self._refine_m1(a, t, ia, ia, s, masses, objective_terms, depth + 1)
                self._refine_m1(t, b, ib, ib, s, masses, objective_terms, depth + 1)
            else:
                # crossing pinned to an endpoint (e.g. a cell boundary lying
                # exactly on a node): the interval is single-branch
                idx = ib if t <= a else ia
                self._simpson_piece(a, b, idx, s, masses, objective_terms)
            return
        mid = 0.5 * (a + b)
        im = self._argmax_at(mid, s)
        if im == ia or depth > 48:
            self._simpson_piece(a, b, ia, s, masses, objective_terms)
            return
        self._refine_m1(a, mid, ia, im, s, masses, objective_terms, depth + 1)
        self._refine_m1(mid, b, im, ib, s, masses, objective_terms, depth + 1)

    def _sweep_m1(self, s, want_objective):
        vals = self.cos_nodes * s
        b_nodes = vals.max(axis=1)
        if b_nodes.min() <= 0.0:
            bad = int(np.argmin(b_nodes))
            raise UncoveredDirectionError(self.grid.nodes[bad])
        arg_nodes = vals.argmax(axis=1)
        vals_m = self.cos_mids * s
        b_mids = vals_m.max(axis=1)
        arg_mids = vals_m.argmax(axis=1)

        left = arg_nodes
        right = np.roll(arg_nodes, -1)
        uniform = (left == right) & (arg_mids == left)

        coeff = self.step / 6.0
        fL = f_of_b(b_nodes, 1)
        fR = np.roll(fL, -1)
        fM = f_of_b(b_mids, 1)
        piece_f = coeff * (fL + 4.0 * fM + fR)
        masses = np.bincount(left[uniform], weights=piece_f[uniform], minlength=self.n)

        objective_terms = None
        objective = None
        if want_objective:
            FL = F_of_b(b_nodes, 1)
            FM = F_of_b(b_mids, 1)
            FR = np.roll(FL, -1)
            piece_F = coeff * (FL + 4.0 * FM + FR)
            objective_terms = list(piece_F[uniform])

        for k in np.nonzero(~uniform)[0]:
            a = self.node_angles[k]
            ia, ib = int(left[k]), int(right[k])
            if ia == ib != arg_mids[k]:
                # a third branch pokes through mid-interval
                self._refine_m1(a, a + 0.5 * self.step, ia, int(arg_mids[k]),
                                s, masses, objective_terms, 0)
                self._refine_m1(a + 0.5 * self.step, a + self.step, int(arg_mids[k]),
                                ib, s, masses, objective_terms, 0)
            else:
                self._refine_m1(a, a + self.step, ia, ib, s, masses, objective_terms, 0)

        if want_objective:
            objective = math.fsum(objective_terms)
        return masses, objective
