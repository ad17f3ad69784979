"""Reconstruction of a convex body from a prescribed discrete curvature measure.

The atom of a polytope's curvature measure at the vertex direction xi_i is
its exterior angle alpha_i(r), and an admissible measure is the curvature
measure of exactly one body.  So ``solve`` looks for the radii with
alpha(r) = a.  It works in the potentials psi_i = log tanh r_i < 0 and runs
damped Newton on the residual alpha(psi) - a, which the corner formula of
``bodies`` evaluates exactly, with no grid:

* the start is the ball whose total curvature is the measure's total.  For
  m=1 its common radius is raised where the ball's least facet support on
  the angular cycle would fall below MIN_SUPPORT, which would reject the
  start although a body exists;
* each trial is evaluated on the faces of the last body validated
  (``HyperbolicPolytope.faces``).  While they stay strictly locally convex
  about the basepoint they are the body's faces, so the trial needs no hull
  and no re-validation, and the direction-only part of the corner formula
  is built once per face set.  Otherwise an m=1 trial is rejected: its
  faces are the angular cycle of the support, fixed by the measure.  An m=2
  trial goes to ``from_vertices``, which rejects it or whose body's faces
  are kept from then on.  The returned body is built on the accepted
  trial's faces, with no hull;
* one pass of the corner formula gives each trial's angles and its Jacobian,
  d alpha / d r in closed form, times dr/dpsi = sinh r cosh r; weighted by
  cosh r it is symmetric, the Hessian of the paper's dual functional, whose
  gradient is cosh(r_i)(a_i - alpha_i).  The accepted trial's Jacobian
  gives the next step;
* the step is halved until the sup-norm residual strictly falls, and trials
  with some psi_i >= -PSI_FLOOR, an invalid body or an exterior angle that is
  not positive are rejected.  This damping follows Kitagawa, Merigot and
  Thibert (JEMS 2019).

The dual objective

    K(psi) = integral F(phi_psi) d(sigma) + sum_i a_i G(psi_i),

its gradient (component i: a_i g(psi_i) minus the mass of cell i) and the
per-cell transport residuals stay as oracles independent of the solve, exact
over the cells (``cells``).  Cell i's mass is cosh(r_i) alpha_i, and g(psi_i) = cosh(r_i), so the gradient
vanishes exactly where alpha = a.

Admissibility is certified, not enumerated, when the solve succeeds: the
two O(N) conditions of ``measures`` run before Newton, and a converged
solve proves the rest, by the paper's necessity direction (every body's
curvature measure is admissible).  The exact ``check_conditions``, 2^N
subsets for m=2, runs only after a solve that does not converge, to name
the condition mu fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bodies import (MIN_SUPPORT, FaceSet, HyperbolicPolytope, angles_and_jacobian, cycle_faces,
                     from_vertices)
from .ctransform import PSI_FLOOR, PotentialVector, kernel_for
from .densities import G_psi, g_psi
from .errors import PreconditionError
from .measures import (EXHAUSTIVE_MAX_ATOMS, ConditionReport, DiscreteMeasure,
                       check_conditions, mass_violation)
from .minkowski import sphere_measure

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
    strictly; it is empty when the start is invalid.  ``damping_history``
    holds the accepted step factor of each step, aligned with
    ``residual_history[1:]``, so it has ``iterations`` entries.
    ``condition_report`` is None for a converged solve, which certifies the
    measure, and for m=2 above EXHAUSTIVE_MAX_ATOMS atoms, where no exact
    check exists; otherwise it is the exact check run after Newton failed.  ``hull_calls`` counts the solve's calls of
    ``from_vertices``: one for the start of an m=2 solve, one for each m=2
    trial the kept faces do not bound and none for the returned body.  An
    m=1 solve makes none, or one for a start the angular cycle does not bound.
    """

    psi: PotentialVector
    converged: bool
    iterations: int
    stop_reason: str
    residual_history: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))   # |alpha - a| / a
    body: HyperbolicPolytope | None = None
    condition_report: ConditionReport | None = None
    restarts_used: int = 0      # the solve never restarts
    hull_calls: int = 0
    wall_time: float = 0.0
    extraction_error: str | None = None


def _values(psi: PotentialVector | np.ndarray) -> np.ndarray:
    return psi.values if isinstance(psi, PotentialVector) else np.asarray(psi, float)


def dual_objective(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure) -> float:
    """K(psi): sphere integral of F(phi) plus the mu-weighted sum of G(psi)."""
    values = _values(psi)
    kernel = kernel_for(mu.m, mu.points)
    _, f_total = kernel.cell_sums(np.exp(values), want_objective=True)
    return f_total + math.fsum(mu.weights * G_psi(values))


def dual_gradient(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure) -> np.ndarray:
    """Gradient of K: component i is a_i g(psi_i) minus the mass of cell i."""
    values = _values(psi)
    kernel = kernel_for(mu.m, mu.points)
    masses, _ = kernel.cell_sums(np.exp(values))
    return mu.weights * g_psi(values) - masses


def transport_residuals(psi: PotentialVector | np.ndarray, mu: DiscreteMeasure) -> np.ndarray:
    """Relative per-cell transport balance |cell mass - a_i g(psi_i)| / (a_i g)."""
    return np.abs(dual_gradient(psi, mu)) / (mu.weights * g_psi(_values(psi)))


def _ball_heuristic_psi(mu: DiscreteMeasure, faces: FaceSet | None = None) -> float:
    # r0 solves mu(S^m) = cosh^m(r0) sigma(S^m); guard ratio <= 1 for the
    # force path on measures violating the total-mass condition
    ratio = max(mu.total / sphere_measure(mu.m), 1.0 + 1e-12)
    t0 = np.tanh(max(np.arccosh(ratio ** (1.0 / mu.m)), 1e-3))
    # on the given faces the ball's least Klein support is t0 times that of
    # the unit directions; where it falls short of MIN_SUPPORT, and some
    # t0 < 1 clears it, t0 moves half way from the least such value to 1
    if faces is not None:
        least = faces.least_support(np.ones(mu.size))
        if t0 * least < MIN_SUPPORT < least:
            t0 = 0.5 * (1.0 + MIN_SUPPORT / least)
    return float(np.log(t0))


class _Trials:
    """Exterior angles of Newton trials, on the faces of the last body validated.

    A trial whose radii the kept faces bound (``FaceSet.bound``) takes one
    pass of the corner formula over their frame.  Otherwise an m=1 trial is
    rejected, as its faces are fixed by the measure, and only a rejected
    start goes to ``from_vertices``, for its typed error.  An m=2 trial goes
    to ``from_vertices``, which raises, rejecting it, or whose body's faces
    are kept from then on, so a later trial may replace the faces of an
    accepted one.  ``hull_calls`` counts the calls of ``from_vertices``.
    """

    def __init__(self, mu: DiscreteMeasure):
        self.mu = mu
        # m=2 needs a first hull
        self.faces = cycle_faces(mu.points) if mu.m == 1 else None
        self.started = False
        self.hull_calls = 0

    def __call__(self, psi: np.ndarray):
        """The exterior angles of the body with potentials psi, d alpha / d psi
        and the body's faces.  Raises if the body is invalid or some exterior
        angle is not positive.  d alpha / d psi is d alpha / d r times dr/dpsi
        = sinh r cosh r."""
        radii = np.arctanh(np.exp(psi))
        if self.faces is None or not self.faces.bound(radii):
            if self.mu.m == 1 and self.started:
                raise ValueError("the angular cycle does not bound the trial")
            self.hull_calls += 1
            self.faces = from_vertices(self.mu.m, self.mu.points, radii).faces
        self.started = True
        alpha, jac = angles_and_jacobian(self.faces.frame, radii)
        if not alpha.min() > 0:
            raise ValueError("every exterior angle must be positive")
        jac *= np.sinh(radii) * np.cosh(radii)
        return alpha, jac, self.faces


def _newton(trials: _Trials, mu: DiscreteMeasure, psi: np.ndarray, cfg: SolverConfig):
    """Damped Newton on alpha(psi) = a from a valid start.

    Returns (psi, alpha, the faces of the body at psi, residual history,
    damping history, stop reason).
    """
    alpha, jac, faces = trials(psi)
    history = [float(np.abs(alpha - mu.weights).max())]
    dampings = []
    tol = cfg.tol * mu.total
    while history[-1] > tol:
        if len(history) > cfg.max_iter:
            return psi, alpha, faces, history, dampings, "max_iter"
        try:
            step = np.linalg.solve(jac, mu.weights - alpha)
        except np.linalg.LinAlgError:
            return psi, alpha, faces, history, dampings, "damping"
        damping = 1.0
        while True:
            trial = psi + damping * step
            # PotentialVector's domain; also keeps arctanh(e^psi) finite and
            # rejects a NaN step
            if trial.max() < -PSI_FLOOR:
                try:
                    trial_alpha, trial_jac, trial_faces = trials(trial)
                except ValueError:
                    pass
                else:
                    res = float(np.abs(trial_alpha - mu.weights).max())
                    if res < history[-1]:
                        break
            damping *= 0.5
            if damping < MIN_DAMPING:
                return psi, alpha, faces, history, dampings, "damping"
        psi, alpha, jac, faces = trial, trial_alpha, trial_jac, trial_faces
        history.append(res)
        dampings.append(damping)
    return psi, alpha, faces, history, dampings, "converged"


def solve(mu: DiscreteMeasure, config: SolverConfig | None = None,
          force: bool = False) -> SolveReport:
    """Reconstruct the convex body whose curvature measure is mu.

    The two O(N) conditions run first, as a hard precondition unless
    ``force`` is set.  A failure raises PreconditionError with the full
    ``check_conditions`` report where the exact check exists (m=1, or
    N <= EXHAUSTIVE_MAX_ATOMS), and above the limit with ``report=None`` and
    a message naming the condition and its margin.  Then damped Newton runs
    from the ball start.  A converged solve certifies mu, so it runs no
    exact check and its ``condition_report`` is None.  A solve that does not
    converge runs the exact check where it exists and raises
    PreconditionError with its report when mu fails it, unless ``force`` is
    set; otherwise the report is attached.  So, without ``force``, solve
    raises exactly when the exact check fails, except on a measure whose
    least subset slack lies within the check's margin (COND_EPS_FACTOR of
    the sphere's measure) and on which Newton converges.  The returned report carries the potential, the residual and
    damping histories, the relative per-atom residuals and the body, built
    on the accepted trial's faces.  With ``force`` it never raises: an
    invalid start gives an unconverged report with no body and
    ``extraction_error`` set.
    """
    cfg = config or SolverConfig()
    start = time.perf_counter()
    exact = mu.m == 1 or mu.size <= EXHAUSTIVE_MAX_ATOMS
    if not force and (failure := mass_violation(mu)):
        raise PreconditionError(check_conditions(mu)) if exact else PreconditionError(None, failure)

    trials = _Trials(mu)
    psi0 = np.full(mu.size, _ball_heuristic_psi(mu, trials.faces))
    error = None
    try:
        psi, alpha, faces, history, dampings, reason = _newton(trials, mu, psi0, cfg)
    except ValueError as exc:
        psi, alpha, faces, history, dampings, reason = psi0, None, None, [], [], "geometry"
        error = str(exc)
    cond = None
    if reason != "converged" and exact:
        cond = check_conditions(mu)
        if not cond.all_ok and not force:
            raise PreconditionError(cond)
    return SolveReport(
        psi=PotentialVector(mu.m, mu.points, psi),
        converged=reason == "converged",
        iterations=max(len(history) - 1, 0),
        stop_reason=reason,
        residual_history=history,
        damping_history=dampings,
        residuals=(np.full(mu.size, np.inf) if alpha is None
                   else np.abs(alpha - mu.weights) / mu.weights),
        body=None if faces is None else HyperbolicPolytope(
            mu.m, mu.points, np.arctanh(np.exp(psi)), faces),
        condition_report=cond,
        hull_calls=trials.hull_calls,
        wall_time=time.perf_counter() - start,
        extraction_error=error,
    )
