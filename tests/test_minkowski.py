import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hypcurv as hc
from hypcurv.minkowski import (
    basepoint,
    boost_matrix,
    cost,
    cost_of_distance,
    desitter_point,
    hyperbolic_point,
    klein_point,
    lorentz_dot,
    random_unit_vectors,
    unit_rows,
    validate_dimension,
)


def test_basepoint_norm():
    for m in (1, 2):
        o = basepoint(m)
        assert lorentz_dot(o, o) == -1.0


def test_point_constructions_on_quadrics():
    rng = np.random.default_rng(0)
    for m in (1, 2):
        xis = random_unit_vectors(m, 20, rng)
        ts = rng.uniform(0.0, 3.0, size=20)
        hyp = hyperbolic_point(xis, ts)
        des = desitter_point(xis, ts)
        assert np.abs(lorentz_dot(hyp, hyp) + 1.0).max() < 1e-12
        assert np.all(hyp[:, 0] > 0)
        assert np.abs(lorentz_dot(des, des) - 1.0).max() < 1e-10


def test_geodesic_at_zero_and_one():
    xi = np.array([1.0, 0.0])
    assert np.allclose(hyperbolic_point(xi, 0.0), basepoint(1))
    assert hyperbolic_point(xi, 1.0)[0] == pytest.approx(np.cosh(1.0), abs=1e-15)


def test_klein_projection_is_tanh():
    rng = np.random.default_rng(1)
    xi = random_unit_vectors(2, 5, rng)
    t = rng.uniform(0.1, 2.0, size=5)
    k = klein_point(hyperbolic_point(xi, t))
    assert np.abs(k - np.tanh(t)[:, None] * xi).max() < 1e-14


def test_klein_round_trip_recovers_distance():
    # quantization of tanh near 1 limits recoverable precision; the bound
    # below is the derivative 1/(1 - tanh^2 t) times a few ulps
    xi = np.array([0.6, 0.8])
    for t in [1e-3, 0.01, 0.1, 1.0, 3.0, 5.0, 7.0, 10.0]:
        k = klein_point(hyperbolic_point(xi, t))
        rec = np.arctanh(np.linalg.norm(k))
        bound = max(1e-10, 8.0 * np.finfo(float).eps * np.cosh(t) ** 2)
        assert abs(rec - t) <= bound


def test_cost_basic_values():
    eta = np.array([1.0, 0.0])
    assert cost(eta, eta) == 0.0
    xi = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])
    assert cost(eta, xi) == pytest.approx(np.log(2.0), abs=1e-15)
    perp = np.array([0.0, 1.0])
    assert cost(eta, perp) == np.inf
    assert cost_of_distance(np.pi / 2) == np.inf


def test_cost_symmetric_exactly():
    rng = np.random.default_rng(2)
    for m in (1, 2):
        a = random_unit_vectors(m, 50, rng)
        b = random_unit_vectors(m, 50, rng)
        for x, y in zip(a, b):
            assert cost(x, y) == cost(y, x)


def test_cost_profile_convex_increasing():
    r = np.linspace(0.0, np.pi / 2 - 0.05, 200)
    lam = cost_of_distance(r)
    assert np.all(np.diff(lam) > 0)
    r1, r2 = np.meshgrid(r[::10], r[::10])
    mid = cost_of_distance((r1 + r2) / 2.0)
    assert np.all(cost_of_distance(r1) + cost_of_distance(r2) - 2.0 * mid >= -1e-12)


def test_cost_nonnegative_when_finite():
    rng = np.random.default_rng(3)
    a = random_unit_vectors(2, 300, rng)
    b = random_unit_vectors(2, 300, rng)
    c = cost(a, b)
    assert np.all(c[np.isfinite(c)] >= 0.0)


def test_boost_identity_and_inverse():
    d = np.array([0.6, 0.8])
    assert np.allclose(boost_matrix(d, 0.0), np.eye(3))
    b = boost_matrix(d, 0.7)
    binv = boost_matrix(d, -0.7)
    assert np.abs(b @ binv - np.eye(3)).max() < 1e-14


def test_boost_moves_basepoint():
    d = np.array([1.0, 0.0, 0.0])
    moved = boost_matrix(d, 0.5) @ basepoint(2)
    assert moved[0] == pytest.approx(np.cosh(0.5))
    assert moved[1] == pytest.approx(np.sinh(0.5))


def test_dimension_validation():
    with pytest.raises(hc.UnsupportedDimensionError):
        validate_dimension(3)
    with pytest.raises(hc.UnsupportedDimensionError):
        hc.build_grid(0, 2)


OCTAHEDRON = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])


@pytest.mark.parametrize("m", [1.9, 2.0, 2.7, True, np.float64(2.0)])
def test_dimension_must_be_an_integer(m):
    # int(m) used to turn 1.9 into an m=1 body and keep 2.0 as a float m
    points = OCTAHEDRON if m >= 2 else OCTAHEDRON[:4, :2]
    with pytest.raises(hc.UnsupportedDimensionError):
        validate_dimension(m)
    with pytest.raises(hc.UnsupportedDimensionError):
        hc.from_vertices(m, points, np.ones(len(points)))
    with pytest.raises(hc.UnsupportedDimensionError):
        hc.DiscreteMeasure(m, points, np.ones(len(points)))
    with pytest.raises(hc.UnsupportedDimensionError):
        hc.PotentialVector(m, points, np.full(len(points), -0.5))


def test_numpy_integer_dimension_is_stored_as_int():
    m = np.int64(2)
    assert validate_dimension(m) == 2 and type(validate_dimension(m)) is int
    for value in (hc.from_vertices(m, OCTAHEDRON, np.ones(6)),
                  hc.DiscreteMeasure(m, OCTAHEDRON, np.ones(6)),
                  hc.PotentialVector(m, OCTAHEDRON, np.full(6, -0.5))):
        assert value.m == 2 and type(value.m) is int


@given(st.integers(1, 2), st.lists(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False),
                                            min_size=3, max_size=3), min_size=1, max_size=20))
def test_unit_rows_idempotent_property(m, rows):
    raw = np.array(rows)[:, :m + 1]
    assume(np.linalg.norm(raw, axis=1).min() > 1e-6)
    once = unit_rows(raw, np.inf, "unreachable")
    assert np.array_equal(unit_rows(once, 1e-8, "not unit"), once)
    assert np.array_equal(unit_rows(unit_rows(once, 1e-8, "not unit"), 1e-8, "not unit"), once)
