"""Reconstruction of a convex body from a prescribed discrete curvature measure.

The atom of a polytope's curvature measure at the vertex direction xi_i is
its exterior angle alpha_i(r), and an admissible measure is the curvature
measure of exactly one body.  So ``solve`` looks for the radii with
alpha(r) = a.  It works in the potentials psi_i = log tanh r_i < 0 and runs
damped Newton on the residual alpha(psi) - a, which ``from_vertices`` and
``curvature_measure_angles`` evaluate exactly, with no grid:

* the start is the ball whose total curvature is the measure's total;
* the Jacobian is ``bodies.exterior_angle_jacobian``, the corner formula
  differentiated in closed form, times dr/dpsi = sinh r cosh r; weighted by
  cosh r it is symmetric, the Hessian of the paper's dual functional, whose
  gradient is cosh(r_i)(a_i - alpha_i);
* the step is halved until the sup-norm residual strictly falls, and trials
  with some psi_i >= -PSI_FLOOR or an invalid body are rejected.  This damping
  follows Kitagawa, Merigot and Thibert (JEMS 2019).

The grid dual objective

    K(psi) = integral F(phi_psi) d(sigma) + sum_i a_i G(psi_i),

its gradient (component i: a_i g(psi_i) minus the mass of cell i) and the
per-cell transport residuals stay as oracles independent of the solve.  Cell
i's mass is cosh(r_i) alpha_i, and g(psi_i) = cosh(r_i), so the gradient
vanishes exactly where alpha = a.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bodies import (HyperbolicPolytope, curvature_measure_angles, exterior_angle_jacobian,
                     from_vertices)
from .ctransform import PSI_FLOOR, PotentialVector, kernel_for
from .densities import G_psi, g_psi
from .errors import HypcurvError, PreconditionError
from .measures import (EXHAUSTIVE_MAX_ATOMS, ConditionReport, DiscreteMeasure,
                       check_conditions, mass_violation)
from .minkowski import sphere_measure
from .quadrature import QuadratureGrid

# The line search gives up once the step factor falls below this.
MIN_DAMPING = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the Newton solve."""

    tol: float = 1e-12          # converged when max|alpha - a| <= tol * mu.total
    max_iter: int = 50          # Newton steps

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveReport:
    """Everything the solve produced, converged or not.

    ``stop_reason`` is "converged", "max_iter", "damping" (no step factor
    down to MIN_DAMPING lowered the residual, or the Newton system was
    singular) or "geometry" (the start gave no valid body).
    ``residual_history`` holds the sup residual max|alpha - a| at the start
    and after each step, so it has ``iterations + 1`` entries and falls
    strictly; it is empty when the start is invalid.
    ``condition_report`` is None for m=2 above EXHAUSTIVE_MAX_ATOMS atoms,
    where only the two O(N) conditions are checked and a converged solve
    certifies the measure.
    """

    psi: PotentialVector
    converged: bool
    iterations: int
    stop_reason: str
    residual_history: list = field(default_factory=list)
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))   # |alpha - a| / a
    body: HyperbolicPolytope | None = None
    condition_report: ConditionReport | None = None
    restarts_used: int = 0      # the solve never restarts
    wall_time: float = 0.0
    extraction_error: str | None = None


def _values(psi: PotentialVector | np.ndarray) -> np.ndarray:
    return psi.values if isinstance(psi, PotentialVector) else np.asarray(psi, float)


def dual_objective(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure,
                   grid: QuadratureGrid) -> float:
    """K(psi): sphere integral of F(phi) plus the mu-weighted sum of G(psi)."""
    values = _values(psi)
    kernel = kernel_for(mu.m, mu.points, grid)
    _, f_total = kernel.cell_sums(np.exp(values), want_objective=True)
    return f_total + math.fsum(mu.weights * G_psi(values))


def dual_gradient(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure,
                  grid: QuadratureGrid) -> np.ndarray:
    """Gradient of K: component i is a_i g(psi_i) minus the mass of cell i."""
    values = _values(psi)
    kernel = kernel_for(mu.m, mu.points, grid)
    masses, _ = kernel.cell_sums(np.exp(values))
    return mu.weights * g_psi(values) - masses


def transport_residuals(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure,
                        grid: QuadratureGrid) -> np.ndarray:
    """Relative per-cell transport balance |cell mass - a_i g(psi_i)| / (a_i g)."""
    values = _values(psi)
    kernel = kernel_for(mu.m, mu.points, grid)
    masses, _ = kernel.cell_sums(np.exp(values))
    target = mu.weights * g_psi(values)
    return np.abs(masses - target) / target


def extract_body(psi: PotentialVector, mu: DiscreteMeasure) -> HyperbolicPolytope:
    """Convex body whose radial scale matches the potential: r_i = artanh(e^psi_i).

    Raises NonExtremeVertexError (or another HypcurvError) when some support
    direction is not an extreme vertex of the body the potential describes.
    """
    return from_vertices(mu.m, mu.points, np.arctanh(np.exp(psi.values)))


def _ball_heuristic_psi(mu: DiscreteMeasure) -> float:
    # r0 solves mu(S^m) = cosh^m(r0) sigma(S^m); guard ratio <= 1 for the
    # force path on measures violating the total-mass condition
    ratio = max(mu.total / sphere_measure(mu.m), 1.0 + 1e-12)
    r0 = np.arccosh(ratio ** (1.0 / mu.m))
    return float(np.log(np.tanh(max(r0, 1e-3))))


def _angles(mu: DiscreteMeasure, psi: np.ndarray):
    """The body with potentials psi and its exterior angles; raises if it is invalid."""
    body = from_vertices(mu.m, mu.points, np.arctanh(np.exp(psi)))
    return body, curvature_measure_angles(body).weights


def _jacobian(body: HyperbolicPolytope) -> np.ndarray:
    """d alpha / d psi: the closed-form d alpha / d r times dr/dpsi = sinh r cosh r."""
    return exterior_angle_jacobian(body) * (np.sinh(body.radii) * np.cosh(body.radii))


def _newton(mu: DiscreteMeasure, psi: np.ndarray, cfg: SolverConfig):
    """Damped Newton on alpha(psi) = a from a valid start.

    Returns (psi, body, alpha, residual history, stop reason).
    """
    body, alpha = _angles(mu, psi)
    history = [float(np.abs(alpha - mu.weights).max())]
    tol = cfg.tol * mu.total
    while history[-1] > tol:
        if len(history) > cfg.max_iter:
            return psi, body, alpha, history, "max_iter"
        try:
            step = np.linalg.solve(_jacobian(body), mu.weights - alpha)
        except np.linalg.LinAlgError:
            return psi, body, alpha, history, "damping"
        damping = 1.0
        while True:
            trial = psi + damping * step
            # PotentialVector's domain; also keeps arctanh(e^psi) finite and
            # rejects a NaN step
            if trial.max() < -PSI_FLOOR:
                try:
                    trial_body, trial_alpha = _angles(mu, trial)
                except (HypcurvError, ValueError):
                    pass
                else:
                    res = float(np.abs(trial_alpha - mu.weights).max())
                    if res < history[-1]:
                        break
            damping *= 0.5
            if damping < MIN_DAMPING:
                return psi, body, alpha, history, "damping"
        psi, body, alpha = trial, trial_body, trial_alpha
        history.append(res)
    return psi, body, alpha, history, "converged"


def solve(mu: DiscreteMeasure, config: SolverConfig | None = None,
          force: bool = False) -> SolveReport:
    """Reconstruct the convex body whose curvature measure is mu.

    Checks the admissibility conditions first where the check is exact (m=1,
    or N <= EXHAUSTIVE_MAX_ATOMS), as a hard precondition unless ``force`` is
    set, then runs damped Newton from the ball heuristic.  Above the limit
    only the two O(N) conditions run; a failure raises PreconditionError with
    ``report=None`` and a message naming the condition and its margin.  There
    a converged solve certifies mu (the paper's necessity direction: every
    body's curvature measure is admissible), and a failed one gives its
    ``stop_reason``.  The returned report carries the potential, the
    residual history, the relative per-atom residuals and, when the potential describes a valid
    body, that body.  With ``force`` it never raises: an invalid start gives
    an unconverged report with ``extraction_error`` set.
    """
    cfg = config or SolverConfig()
    start = time.perf_counter()
    cond = check_conditions(mu) if mu.m == 1 or mu.size <= EXHAUSTIVE_MAX_ATOMS else None
    if cond is not None and not cond.all_ok and not force:
        raise PreconditionError(cond)
    if cond is None and not force and (failure := mass_violation(mu)):
        raise PreconditionError(None, failure)

    psi0 = np.full(mu.size, _ball_heuristic_psi(mu))
    try:
        psi, body, alpha, history, reason = _newton(mu, psi0, cfg)
    except (HypcurvError, ValueError) as exc:
        return SolveReport(
            psi=PotentialVector(mu.m, mu.points, psi0),
            converged=False,
            iterations=0,
            stop_reason="geometry",
            residuals=np.full(mu.size, np.inf),
            condition_report=cond,
            wall_time=time.perf_counter() - start,
            extraction_error=str(exc),
        )
    return SolveReport(
        psi=PotentialVector(mu.m, mu.points, psi),
        converged=reason == "converged",
        iterations=len(history) - 1,
        stop_reason=reason,
        residual_history=history,
        residuals=np.abs(alpha - mu.weights) / mu.weights,
        body=body,
        condition_report=cond,
        wall_time=time.perf_counter() - start,
    )
