"""Conjugation of discrete potentials under the spherical log cost.

A potential assigns a negative value psi_i to each support point xi_i.  Its
conjugate is phi(eta) = min_i (c(eta, xi_i) - psi_i) with the cost
c = -ln<eta, xi>; the minimizing indices are the weighted Voronoi memberships
that the dual oracles of ``solver`` integrate over.

Both functions of the pair have closed forms on one convex body, the hull K
of the points e^psi_i xi_i, which holds the origin strictly.  phi = -ln h_K,
with h_K the support function of K, and the c-concave extension of psi,
psi^cc(xi) = min_eta (c(eta, xi) - phi(eta)), is ln rho_K, with rho_K the
radial function of K.  This is the polar duality behind the log cost (Oliker,
Adv. Math. 2007; Bertrand, Geom. Dedicata 2016).  So psi is c-concave
exactly when every e^psi_i xi_i lies on the boundary of K, and the extrema
and the Lipschitz constant of the pair are read off K's facets.
``double_convexify`` and ``conjugacy_diagnostics`` evaluate these formulas on
the hull that ``cells.SupportKernel`` builds; ``c_transform`` evaluates phi
at one direction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cells import SupportKernel
from .errors import UncoveredDirectionError
from .minkowski import DOT_FLOOR, TIE_EPS, validate_dimension

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
        object.__setattr__(self, "m", validate_dimension(self.m))
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


def kernel_for(m: int, support: np.ndarray) -> SupportKernel:
    """Kernel for a support set, cached; runs the pi/2-density check once."""
    key = (support.shape, support.tobytes())
    kern = _kernel_cache.get(key)
    if kern is None:
        kern = SupportKernel(m, support)
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


def _klein_facets(psi: PotentialVector):
    """Vertex indices, unit outward normals n_f and supports d_f of K's facets."""
    hull = kernel_for(psi.m, psi.support)._hull(np.exp(psi.values), 0.0)
    return hull.simplices, hull.equations[:, :-1], -hull.equations[:, -1]


def _extension(psi: PotentialVector, normals: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """psi^cc at the support points: ln rho_K(xi_i) = -ln max_f <n_f, xi_i> / d_f."""
    return -np.log(np.max(psi.support @ normals.T / supports, axis=1))


def double_convexify(psi: PotentialVector) -> PotentialVector:
    """c-concavification: psi^cc(xi_i) = ln rho_K(xi_i) at every support point.

    psi^cc equals psi_i where e^psi_i xi_i is on the boundary of K and lies
    above it elsewhere; componentwise max with the input enforces that known
    inequality against roundoff.
    """
    _, normals, supports = _klein_facets(psi)
    raised = _extension(psi, normals, supports)
    return PotentialVector(psi.m, psi.support, np.maximum(raised, psi.values))


@dataclass(frozen=True)
class ConjugacyDiagnostics:
    max_phi_plus_min_psi: float
    min_phi_plus_max_psi: float
    lipschitz_estimate: float


def conjugacy_diagnostics(psi: PotentialVector,
                          concavity_tol: float = 1e-6) -> ConjugacyDiagnostics:
    """Check the min/max pairing identities of the conjugate function pair.

    The identities max(phi) + min(psi) = 0 and min(phi) + max(psi) = 0 hold
    for the pair of functions (phi, psi^cc) on the sphere, and both sides
    come from K.  phi = -ln h_K is largest at the normal of the facet nearest
    the origin, where psi^cc = ln rho_K is smallest, ln d_min; phi is
    evaluated there by ``c_transform``.  phi is smallest at the support
    point of the largest psi_i, where it equals -max_i(psi_i) exactly,
    because the cost vanishes on the diagonal; psi^cc is largest at the
    support points.

    Requires psi to be c-concave up to ``concavity_tol`` (double conjugation
    moves it by less), otherwise a ValueError is raised.  On the normal cone
    of vertex i, phi = -psi_i - ln<eta, xi_i> has gradient length
    tan angle(eta, xi_i), largest at a corner of the cone, a facet normal.
    So the Lipschitz estimate, the largest tan angle(n_f, xi_i) over facets
    f and their vertices i, is phi's exact Lipschitz constant.
    """
    simplices, normals, supports = _klein_facets(psi)
    ext = _extension(psi, normals, supports)
    moved = np.max(ext - psi.values, initial=0.0)
    if moved >= concavity_tol:
        raise ValueError(f"psi is not c-concave (moved by {moved:.2e})")
    low = int(np.argmin(supports))
    max_phi, _ = c_transform(psi, normals[low])
    min_phi, _ = c_transform(psi, psi.support[int(np.argmax(psi.values))])
    corners = psi.support[simplices]                      # (facet, vertex, m+1)
    cos = np.einsum("fd,fkd->fk", normals, corners)
    sin = np.linalg.norm(corners - cos[..., None] * normals[:, None], axis=2)
    return ConjugacyDiagnostics(
        max_phi_plus_min_psi=float(max_phi + math.log(supports[low])),
        min_phi_plus_max_psi=float(min_phi + max(ext.max(), psi.values.max())),
        lipschitz_estimate=float(np.max(sin / cos)),
    )
