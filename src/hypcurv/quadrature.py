"""Deterministic quadrature grids for the uniform measure on S^1 and S^2.

m=1 uses equally spaced nodes (periodic trapezoid rule).  m=2 uses an
icosphere: the icosahedron subdivided ``level`` times with nodes projected to
the sphere; each node is weighted by one third of the spherical areas of its
incident triangles and the weights are renormalized to total 4*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .minkowski import normalize_rows, sphere_measure, validate_dimension


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights approximating the uniform measure on S^m.

    ``triangles`` is the icosphere face list for m=2 (empty for m=1); it is
    kept for edge-based diagnostics and mesh emission.
    """

    m: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=int))

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        self.triangles.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def edges(self) -> np.ndarray:
        """Unique node-index pairs joined by a grid edge."""
        if self.m == 1:
            k = self.size
            return np.column_stack([np.arange(k), (np.arange(k) + 1) % k])
        pairs = np.sort(np.concatenate(
            [self.triangles[:, [0, 1]], self.triangles[:, [1, 2]], self.triangles[:, [2, 0]]]
        ), axis=1)
        # the key a * size + b orders pairs as their rows do, so a 1-d unique suffices
        keys = np.unique(pairs[:, 0] * self.size + pairs[:, 1])
        return np.column_stack(np.divmod(keys, self.size))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    return normalize_rows(verts), faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    mids = normalize_rows(verts[uniq[:, 0]] + verts[uniq[:, 1]])
    mid_idx = inverse.reshape(3, -1).T + len(verts)
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    ab, bc, ca = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    new_faces = np.concatenate(
        [
            np.column_stack([a, ab, ca]),
            np.column_stack([b, bc, ab]),
            np.column_stack([c, ca, bc]),
            np.column_stack([ab, bc, ca]),
        ]
    )
    return np.vstack([verts, mids]), new_faces


def spherical_triangle_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Areas of spherical triangles with unit-vector corners (rows)."""
    # van Oosterom-Strackee solid angle formula, robust for small triangles
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return np.abs(2.0 * np.arctan2(num, den))


def build_grid(m: int, level: int) -> QuadratureGrid:
    """Build the deterministic grid at the given refinement level.

    m=1: 2**(level+6) equal nodes and weights.  m=2: icosphere subdivided
    ``level`` times (10*4**level + 2 nodes), vertex-area weights renormalized
    so the total is exactly 4*pi.
    """
    m = validate_dimension(m)
    if level < 0:
        raise ValueError("level must be >= 0")
    if m == 1:
        k = 2 ** (level + 6)
        theta = 2.0 * np.pi * np.arange(k) / k
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(k, 2.0 * np.pi / k)
        return QuadratureGrid(m, level, nodes, weights)
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    areas = spherical_triangle_areas(verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]])
    weights = np.zeros(len(verts))
    for col in range(3):
        np.add.at(weights, faces[:, col], areas / 3.0)
    weights *= sphere_measure(2) / weights.sum()
    return QuadratureGrid(m, level, verts, weights, faces)


def integrate(fn, grid: QuadratureGrid) -> float:
    """Integrate fn against the grid: sum_k w_k * fn(node_k).

    ``fn`` maps a single unit vector to a float; a vectorized callable taking
    the full (K, m+1) node array is also accepted.  The reduction is done in
    node-index order with compensated summation, so results are deterministic.
    Non-finite integrand values raise IntegrationError naming the node.
    """
    try:
        values = np.asarray(fn(grid.nodes), dtype=float)
        if values.shape != (grid.size,):
            raise TypeError
    except (TypeError, ValueError, IndexError):
        values = np.fromiter((fn(node) for node in grid.nodes), dtype=float, count=grid.size)
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise IntegrationError(idx, grid.nodes[idx], values[idx])
    return math.fsum(values * grid.weights)
