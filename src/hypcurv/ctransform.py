"""Conjugation of discrete potentials under the spherical log cost.

A potential assigns a negative value psi_i to each support point xi_i.  Its
conjugate is phi(eta) = min_i (c(eta, xi_i) - psi_i) with the cost
c = -ln<eta, xi>; the minimizing indices are the weighted Voronoi memberships
that the dual oracles of ``solver`` integrate over.  Potentials are stored
only on the support; phi is always evaluated on demand, never cached as a
grid array, which avoids stale potential/conjugate pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cells import SupportKernel
from .errors import UncoveredDirectionError
from .minkowski import DOT_FLOOR, TIE_EPS, validate_dimension
from .quadrature import QuadratureGrid

logger = logging.getLogger(__name__)

# Values in [-PSI_FLOOR, 0) are clamped; psi -> 0 signals a measure at the
# edge of the vertex condition, which the solver reports rather than chases.
PSI_FLOOR = 1e-10


@dataclass(frozen=True)
class PotentialVector:
    """Potential values psi_i < 0 attached to support directions on S^m."""

    m: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        validate_dimension(self.m)
        support = np.asarray(self.support, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if support.ndim != 2 or support.shape[1] != self.m + 1:
            raise ValueError(f"support must have shape (N, {self.m + 1})")
        if values.shape != (support.shape[0],):
            raise ValueError("values must match the number of support points")
        if np.any(values >= 0) or not np.all(np.isfinite(values)):
            raise ValueError("potential values must be finite and negative")
        if np.any(values > -PSI_FLOOR):
            clamped = int(np.sum(values > -PSI_FLOOR))
            logger.warning("clamped %d potential value(s) to -PSI_FLOOR", clamped)
            values = np.minimum(values, -PSI_FLOOR)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        self.support.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def size(self) -> int:
        return self.support.shape[0]


_kernel_cache: dict[tuple, SupportKernel] = {}


def kernel_for(m: int, support: np.ndarray, grid: QuadratureGrid) -> SupportKernel:
    """Kernel for a (support, grid) pair, cached; runs the pi/2-density check once."""
    key = (grid.key, support.shape, support.tobytes())
    kern = _kernel_cache.get(key)
    if kern is None:
        kern = SupportKernel(m, support, grid)
        if len(_kernel_cache) > 32:
            _kernel_cache.clear()
        _kernel_cache[key] = kern
    return kern


def c_transform(psi: PotentialVector, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """Conjugate value phi(eta) and the set of minimizing support indices.

    phi(eta) = min_i (cost(eta, xi_i) - psi_i) over the finite-cost indices;
    it is positive whenever every psi_i < 0.  Raises UncoveredDirectionError
    if no support point is within distance pi/2 of eta.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1:
        raise ValueError("c_transform takes a single direction")
    dots = psi.support @ eta
    finite = dots > DOT_FLOOR
    if not finite.any():
        raise UncoveredDirectionError(eta)
    # min_i(-ln dot - psi) = -ln max_i(dot * e^psi), computed in score form
    scores = np.where(finite, dots * np.exp(psi.values), -np.inf)
    best = scores.max()
    arg = np.nonzero(scores >= best * (1.0 - TIE_EPS))[0]
    return float(-np.log(best)), arg


def grid_conjugate(psi: PotentialVector, grid: QuadratureGrid) -> np.ndarray:
    """phi evaluated at every grid node."""
    kern = kernel_for(psi.m, psi.support, grid)
    return kern.phi_nodes(np.exp(psi.values))


def double_convexify(psi: PotentialVector, grid: QuadratureGrid) -> PotentialVector:
    """Grid-approximate c-concavification: conjugate twice over the grid.

    The result dominates psi pointwise; componentwise max with the input
    enforces that known inequality against roundoff in the final subtraction.
    """
    phi = grid_conjugate(psi, grid)
    kern = kernel_for(psi.m, psi.support, grid)
    raised = kern.conjugate_update(phi)
    return PotentialVector(psi.m, psi.support, np.maximum(raised, psi.values))


@dataclass(frozen=True)
class ConjugacyDiagnostics:
    max_phi_plus_min_psi: float
    min_phi_plus_max_psi: float
    lipschitz_estimate: float


def conjugacy_diagnostics(psi: PotentialVector, grid: QuadratureGrid,
                          concavity_tol: float = 1e-6) -> ConjugacyDiagnostics:
    """Check the min/max pairing identities of the conjugate function pair.

    The identities max(phi) + min(psi) = 0 and min(phi) + max(psi) = 0 hold
    for the pair of functions (phi, psi) on the sphere.  The potential vector
    only carries psi at its support; between support points the c-concave
    extension of psi dips lower, so the psi-side extrema are evaluated on the
    extension (the grid conjugate of phi, probed on grid nodes).  The
    psi-maximum additionally includes the stored support values, where it is
    attained: min(phi) equals -max_i(psi_i) exactly, because the cost
    vanishes on the diagonal; this is the direction with nontrivial grid
    content.

    Requires psi to be grid-c-concave up to ``concavity_tol`` (double
    conjugation moves it by less), otherwise a ValueError is raised.  The
    Lipschitz estimate is the largest difference quotient of phi over grid
    edges.
    """
    moved = np.max(np.abs(double_convexify(psi, grid).values - psi.values))
    if moved >= concavity_tol:
        raise ValueError(f"psi is not c-concave on this grid (moved by {moved:.2e})")
    phi = grid_conjugate(psi, grid)
    # probe the psi extension on a node subset plus the binding phi extrema
    stride = max(1, grid.size // 2048)
    probe_idx = np.unique(np.concatenate([
        np.arange(0, grid.size, stride),
        [int(np.argmax(phi)), int(np.argmin(phi))],
    ]))
    psi_ext = SupportKernel(psi.m, grid.nodes[probe_idx], grid).conjugate_update(phi)
    edges = grid.edges()
    a, b = edges[:, 0], edges[:, 1]
    dist = np.arccos(np.clip(np.sum(grid.nodes[a] * grid.nodes[b], axis=1), -1.0, 1.0))
    quotient = np.abs(phi[a] - phi[b]) / np.maximum(dist, 1e-300)
    return ConjugacyDiagnostics(
        max_phi_plus_min_psi=float(phi.max() + psi_ext.min()),
        min_phi_plus_max_psi=float(phi.min() + max(psi_ext.max(), psi.values.max())),
        lipschitz_estimate=float(quotient.max()),
    )
