"""Deterministic quadrature grids for the uniform measure on S^1 and S^2.

m=1 uses equally spaced nodes (periodic trapezoid rule).  m=2 uses an
icosphere: the icosahedron subdivided ``level`` times with nodes projected to
the sphere; each node is weighted by one third of the spherical areas of its
incident triangles and the weights are renormalized to total 4*pi.
No library route integrates over a grid; ``icosphere_body`` reads the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .minkowski import normalize_rows, sphere_measure, validate_dimension


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights approximating the uniform measure on S^m, with the
    icosphere's ``triangles`` for m=2 (none for m=1)."""

    m: int
    nodes: np.ndarray
    weights: np.ndarray
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=int))

    def __post_init__(self):
        for array in (self.nodes, self.weights, self.triangles):
            array.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


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
        return QuadratureGrid(m, nodes, weights)
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    areas = spherical_triangle_areas(verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]])
    weights = np.zeros(len(verts))
    for col in range(3):
        np.add.at(weights, faces[:, col], areas / 3.0)
    weights *= sphere_measure(2) / weights.sum()
    return QuadratureGrid(m, verts, weights, faces)

