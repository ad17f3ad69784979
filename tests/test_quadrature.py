import math

import numpy as np
import pytest

import hypcurv as hc
from hypcurv.quadrature import build_grid


def grid_sum(f, g):
    """Sum of weights times the vectorized integrand over the nodes."""
    return math.fsum(g.weights * f(g.nodes))


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
    assert grid_sum(lambda nodes: np.ones(len(nodes)), g) == pytest.approx(
        4.0 * np.pi, abs=1e-9
    )
    big = np.cosh(2.0) ** 3
    assert grid_sum(lambda nodes: np.full(len(nodes), big), g) == pytest.approx(
        4.0 * np.pi * big, abs=1e-9 * big
    )


def test_symmetry_forces_third():
    g = build_grid(2, 5)
    val = grid_sum(lambda n: n[:, 0] ** 2, g)
    assert val == pytest.approx(4.0 * np.pi / 3.0, abs=1e-4)


def test_refinement_convergence_monotone():
    vals = [grid_sum(lambda n: np.exp(n[:, 0]), build_grid(2, lv)) for lv in range(2, 8)]
    gaps = [abs(vals[i] - vals[i + 1]) for i in range(len(vals) - 1)]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_linearity():
    g = build_grid(2, 3)
    f = lambda n: np.exp(n[:, 0])
    h = lambda n: n[:, 1] ** 2
    lhs = grid_sum(lambda n: 2.5 * f(n) + 0.3 * h(n), g)
    rhs = 2.5 * grid_sum(f, g) + 0.3 * grid_sum(h, g)
    assert abs(lhs - rhs) < 1e-12


def test_level_and_dim_validation():
    with pytest.raises(ValueError):
        build_grid(1, -1)
    with pytest.raises(hc.UnsupportedDimensionError):
        build_grid(3, 2)


@pytest.mark.parametrize("level", [1, 3, 4])
def test_edges_match_row_unique(level):
    g = build_grid(2, level)
    pairs = np.concatenate([g.triangles[:, [0, 1]], g.triangles[:, [1, 2]],
                            g.triangles[:, [2, 0]]])
    edges = np.unique(np.sort(pairs, axis=1), axis=0)
    # the unique rows are the icosphere's edges: V - E + F = 2, and every
    # edge borders two triangles
    assert g.size - len(edges) + len(g.triangles) == 2
    assert 2 * len(edges) == 3 * len(g.triangles)


def _row_unique_subdivide(verts, faces):
    """One icosphere subdivision with the midpoints numbered by np.unique
    over the sorted edge rows."""
    edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    mids = hc.minkowski.normalize_rows(verts[uniq[:, 0]] + verts[uniq[:, 1]])
    ab, bc, ca = inverse.reshape(3, -1) + len(verts)
    a, b, c = faces.T
    new = np.concatenate([np.column_stack(tri) for tri in
                          ([a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca])])
    return np.vstack([verts, mids]), new


def test_subdivision_matches_row_unique_reference():
    verts, faces = hc.quadrature._icosahedron()
    for level in range(6):
        g = build_grid(2, level)
        assert np.array_equal(g.nodes, verts) and np.array_equal(g.triangles, faces), level
        verts, faces = _row_unique_subdivide(verts, faces)


def test_weight_sum_matches_fsum(grid_m2):
    assert math.fsum(grid_m2.weights) == pytest.approx(4.0 * np.pi, abs=1e-9)
