import math

import numpy as np
import pytest

import hypcurv as hc
from hypcurv.quadrature import build_grid, integrate


def test_m1_level0_counts_and_weights():
    g = build_grid(1, 0)
    assert g.size == 64
    assert np.allclose(g.weights, 2.0 * np.pi / 64)


def test_m2_node_counts():
    for level, count in [(0, 12), (1, 42), (2, 162), (4, 2562)]:
        g = build_grid(2, level)
        assert g.size == count == 10 * 4**level + 2
        assert g.weights.sum() == pytest.approx(4.0 * np.pi, abs=1e-9)
        assert g.weights.min() > 0


def test_constant_integrand():
    g = build_grid(2, 3)
    assert integrate(lambda nodes: np.ones(len(nodes)), g) == pytest.approx(
        4.0 * np.pi, abs=1e-9
    )
    big = np.cosh(2.0) ** 3
    assert integrate(lambda nodes: np.full(len(nodes), big), g) == pytest.approx(
        4.0 * np.pi * big, abs=1e-9 * big
    )


def test_symmetry_forces_third():
    g = build_grid(2, 5)
    val = integrate(lambda n: n[:, 0] ** 2, g)
    assert val == pytest.approx(4.0 * np.pi / 3.0, abs=1e-4)


def test_scalar_callable_path():
    g = build_grid(1, 0)
    val = integrate(lambda node: float(node[0] ** 2), g)
    assert val == pytest.approx(np.pi, abs=1e-12)


def test_refinement_convergence_monotone():
    vals = [integrate(lambda n: np.exp(n[:, 0]), build_grid(2, lv)) for lv in range(2, 8)]
    gaps = [abs(vals[i] - vals[i + 1]) for i in range(len(vals) - 1)]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_linearity():
    g = build_grid(2, 3)
    f = lambda n: np.exp(n[:, 0])
    h = lambda n: n[:, 1] ** 2
    lhs = integrate(lambda n: 2.5 * f(n) + 0.3 * h(n), g)
    rhs = 2.5 * integrate(f, g) + 0.3 * integrate(h, g)
    assert abs(lhs - rhs) < 1e-12


def test_nonfinite_integrand_names_node():
    g = build_grid(1, 0)

    def bad(nodes):
        out = np.ones(len(nodes))
        out[17] = np.nan
        return out

    with pytest.raises(hc.IntegrationError) as info:
        integrate(bad, g)
    assert info.value.node_index == 17


def test_level_and_dim_validation():
    with pytest.raises(ValueError):
        build_grid(1, -1)
    with pytest.raises(hc.UnsupportedDimensionError):
        build_grid(3, 2)


def test_edges_cover_icosphere():
    g = build_grid(2, 1)
    e = g.edges()
    # V - E + F = 2 for the icosphere
    assert g.size - len(e) + len(g.triangles) == 2


@pytest.mark.parametrize("level", [1, 3, 4])
def test_edges_match_row_unique(level):
    g = build_grid(2, level)
    pairs = np.concatenate([g.triangles[:, [0, 1]], g.triangles[:, [1, 2]],
                            g.triangles[:, [2, 0]]])
    expected = np.unique(np.sort(pairs, axis=1), axis=0)
    e = g.edges()
    assert e.dtype == expected.dtype
    assert np.array_equal(e, expected)


def test_weight_sum_matches_fsum(grid_m2):
    assert math.fsum(grid_m2.weights) == pytest.approx(4.0 * np.pi, abs=1e-9)
