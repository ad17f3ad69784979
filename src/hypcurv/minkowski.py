"""Minkowski-space primitives for hyperbolic and de Sitter geometry.

Everything lives in R^{m+2} equipped with the Lorentzian inner product of
signature (-, +, ..., +).  Hyperbolic space is the sheet <x,x> = -1, x0 > 0;
de Sitter space is <x,x> = +1.  Directions on the sphere S^m are unit
Euclidean vectors in R^{m+1} and double as tangent directions at the
basepoint o = (1, 0, ..., 0); they embed into R^{m+2} as (0, xi).

All values are plain numpy arrays.  Functions broadcast over leading axes
unless stated otherwise, and every operation here is pure.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedDimensionError

# Dot products in (0, DOT_FLOOR] are treated as infinitely costly; the
# admissible configurations never evaluate a finite cost at distance pi/2.
DOT_FLOOR = 1e-12

# Shared relative tolerance for "attains the maximum" index sets.
TIE_EPS = 1e-9


def validate_dimension(m: int) -> int:
    """Check that the sphere dimension is a Python or numpy integer (not a
    bool) equal to 1 or 2, and return it as int."""
    if isinstance(m, (bool, np.bool_)) or not isinstance(m, (int, np.integer)) or m not in (1, 2):
        raise UnsupportedDimensionError(f"dimension m={m!r} not supported, use the integer 1 or 2")
    return int(m)


def basepoint(m: int) -> np.ndarray:
    """The basepoint o = (1, 0, ..., 0) of hyperbolic space in R^{m+2}."""
    o = np.zeros(m + 2)
    o[0] = 1.0
    return o


def lorentz_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray | float:
    """Lorentzian inner product -x0*y0 + sum_k xk*yk, broadcasting over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def hyperbolic_point(xi: np.ndarray, t) -> np.ndarray:
    """Point cosh(t)*o + sinh(t)*xi of hyperbolic space, distance t from o."""
    xi = np.asarray(xi, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(xi.shape[:-1], t.shape) + (xi.shape[-1] + 1,))
    out[..., 0] = np.cosh(t)
    out[..., 1:] = np.sinh(t)[..., None] * xi
    return out


def desitter_point(eta: np.ndarray, t) -> np.ndarray:
    """Point sinh(t)*o + cosh(t)*eta of de Sitter space, cylinder coordinate t."""
    eta = np.asarray(eta, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(eta.shape[:-1], t.shape) + (eta.shape[-1] + 1,))
    out[..., 0] = np.sinh(t)
    out[..., 1:] = np.cosh(t)[..., None] * eta
    return out


def klein_point(x: np.ndarray) -> np.ndarray:
    """Central projection onto the hyperplane x0 = 1 (Klein model coordinates)."""
    x = np.asarray(x, dtype=float)
    return x[..., 1:] / x[..., 0:1]


def cost(eta: np.ndarray, xi: np.ndarray) -> np.ndarray | float:
    """Transport cost -ln(<eta, xi>), infinite at spherical distance >= pi/2.

    The returned value is a nonnegative float (or array), with ``np.inf``
    standing for the infinite branch.  Dot products at or below DOT_FLOOR
    are mapped to infinity rather than overflowing the logarithm.
    """
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    dot = np.sum(eta * xi, axis=-1)
    scalar = np.ndim(dot) == 0
    dot = np.atleast_1d(dot)
    out = np.full(dot.shape, np.inf)
    ok = dot > DOT_FLOOR
    out[ok] = -np.log(np.minimum(dot[ok], 1.0))
    return float(out[0]) if scalar else out


def cost_of_distance(r) -> np.ndarray | float:
    """Cost as a function of spherical distance: -ln(cos r) on [0, pi/2), else inf."""
    r = np.asarray(r, dtype=float)
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(r)
    out = np.full(r.shape, np.inf)
    ok = np.cos(r) > DOT_FLOOR
    out[ok] = -np.log(np.cos(r[ok]))
    return float(out[0]) if scalar else out


def boost_matrix(direction: np.ndarray, length: float) -> np.ndarray:
    """Lorentz boost of rapidity ``length`` along a unit sphere direction.

    Acts as a hyperbolic rotation on span{o, direction} and as the identity on
    the orthogonal complement; the translation moves o by hyperbolic distance
    ``length`` towards ``direction``.
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    n = d.size + 1
    ch, sh = np.cosh(length), np.sinh(length)
    mat = np.eye(n)
    mat[0, 0] = ch
    mat[0, 1:] = sh * d
    mat[1:, 0] = sh * d
    mat[1:, 1:] += (ch - 1.0) * np.outer(d, d)
    return mat


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Scale vectors (last axis) to unit Euclidean norm."""
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# The computed norm of x / ||x|| is within 3 eps of 1 in dimensions 2 and 3
# (about 1.25 eps of rounding in each of the two norms plus 0.5 eps in the
# division), so rows inside this band are left alone and a second pass
# through unit_rows changes nothing.
UNIT_SKIP = 4.0 * np.finfo(float).eps


def unit_rows(v: np.ndarray, tol: float, error: str) -> np.ndarray:
    """Validate near-unit rows (last axis) and return them as unit vectors.

    Raises ValueError(error) when some row's norm is farther than ``tol``
    from 1 (or is not finite).  Rows whose norm is within UNIT_SKIP of 1 are
    returned exactly as given; the rest are divided by their norm.  The map
    is idempotent bit for bit, so directions keep their values through any
    number of constructor and save/load passes.
    """
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    off = np.abs(norms - 1.0)
    if not np.all(off <= tol):
        raise ValueError(error)
    return np.where(off <= UNIT_SKIP, v, v / norms)


def random_unit_vectors(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n uniform directions on S^m as an (n, m+1) array."""
    validate_dimension(m)
    return normalize_rows(rng.normal(size=(n, m + 1)))


def sphere_measure(m: int) -> float:
    """Total uniform measure of S^m: 2*pi for m=1, 4*pi for m=2."""
    validate_dimension(m)
    return 2.0 * np.pi if m == 1 else 4.0 * np.pi
