"""Integrand transforms of the dual functional.

The objective maximized by the solver is

    K(psi) = integral of F(phi) d(sigma)  +  sum_i a_i G(psi_i),

with phi the conjugate potential.  F and G are fixed antiderivatives of

    f(u) = (1 - exp(-2u))^(-(m+1)/2),    u > 0,
    g(v) = (1 - exp(2v))^(-1/2),         v < 0,

chosen so that F(1) = 0.  Under the change of variables phi = -ln(tanh h),
psi = ln(tanh r) these densities are f(phi) = cosh^{m+1}(h) and
g(psi) = cosh(r), which ties the functional to polar-boundary areas.

Closed forms:
    m=1:  F(u) = u + ln(1 - e^{-2u})/2 + C1
    m=2:  F(u) = artanh(w) - 1/w + C2,  w = sqrt(1 - e^{-2u})
    G(v) = v - ln(1 + sqrt(1 - e^{2v}))
"""

from __future__ import annotations

import numpy as np

from .minkowski import validate_dimension


def _checked(x, predicate, side: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    ok = predicate(arr)
    if not np.all(ok):
        raise ValueError(f"argument out of domain ({side}): {arr[~ok][:5]}")
    return arr


def _unwrap(out: np.ndarray, like) -> np.ndarray | float:
    return float(out[0]) if np.ndim(like) == 0 else out


def f_phi(u, m: int):
    """Density f(u) = (1 - e^{-2u})^(-(m+1)/2) for u > 0."""
    validate_dimension(m)
    arr = _checked(u, lambda a: a > 0, "need u > 0")
    return _unwrap((-np.expm1(-2.0 * arr)) ** (-(m + 1) / 2.0), u)


def g_psi(v):
    """Density g(v) = (1 - e^{2v})^(-1/2) for v < 0."""
    arr = _checked(v, lambda a: a < 0, "need v < 0")
    return _unwrap(1.0 / np.sqrt(-np.expm1(2.0 * arr)), v)


def G_psi(v):
    """Antiderivative G(v) = v - ln(1 + sqrt(1 - e^{2v})) for v < 0."""
    arr = _checked(v, lambda a: a < 0, "need v < 0")
    return _unwrap(arr - np.log1p(np.sqrt(-np.expm1(2.0 * arr))), v)


def _F_constant(m: int) -> float:
    # fixes F(1) = 0
    if m == 1:
        return -(1.0 + 0.5 * np.log(-np.expm1(-2.0)))
    w1 = np.sqrt(-np.expm1(-2.0))
    return -(np.log1p(w1) + 1.0 - 1.0 / w1)


_F_C1 = _F_constant(1)
_F_C2 = _F_constant(2)


def F_phi(u, m: int):
    """Antiderivative of f with F(1) = 0, for u > 0."""
    validate_dimension(m)
    arr = _checked(u, lambda a: a > 0, "need u > 0")
    if m == 1:
        out = arr + 0.5 * np.log1p(-np.exp(-2.0 * arr)) + _F_C1
    else:
        # artanh(w) = ln(1+w) - ln(e^{-2u})/2 = ln(1+w) + u, stable for all u
        w = np.sqrt(-np.expm1(-2.0 * arr))
        out = np.log1p(w) + arr - 1.0 / w + _F_C2
    return _unwrap(out, u)


def f_of_b(b: np.ndarray, m: int) -> np.ndarray:
    """f(phi) expressed through b = e^{-phi} = tanh(h); equals cosh^{m+1}(h)."""
    return (1.0 - b * b) ** (-(m + 1) / 2.0)


def F_of_b(b: np.ndarray, m: int) -> np.ndarray:
    """F(phi) expressed through b = e^{-phi} in (0, 1)."""
    b = np.asarray(b, dtype=float)
    if m == 1:
        return -np.log(b) + 0.5 * np.log1p(-b * b) + _F_C1
    w = np.sqrt(1.0 - b * b)
    return np.log1p(w) - np.log(b) - 1.0 / w + _F_C2
