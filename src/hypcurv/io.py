"""JSON persistence and SVG/OBJ emitters.

The emitters draw a body's faces as ``from_vertices`` turned them outward
(``HyperbolicPolytope.faces``).

Schemas are strict: unknown fields are rejected, "dim" is a JSON integer,
and every element of "points", "weights", "directions" and "radii" is a
JSON number, not a string, boolean or null.  Floats are serialized with
Python's shortest round-trip representation so a write-then-read cycle
reproduces values bit for bit.  Unit vectors are
rejected when their norm is off by more than 1e-6; rows already unit to
within a few ulps are kept exactly as read and the rest are renormalized.

    measure: {"dim": 1|2, "points": [[...]], "weights": [...]}
    body:    {"dim": 1|2, "directions": [[...]], "radii": [...]}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bodies import HyperbolicPolytope, from_vertices, icosphere_body, support_fn
from .measures import DiscreteMeasure
from .minkowski import unit_rows

_UNIT_TOL = 1e-6
SVG_SIZE = 640  # pixels, width and height


def _load_strict(path, required: set[str]) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    extra = set(data) - required
    if extra:
        raise ValueError(f"{path}: unknown fields {sorted(extra)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")
    return data


def _dim(path, data: dict) -> int:
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"{path}: field 'dim' must be a JSON integer, not {dim!r}")
    return dim


def _numbers(path, data: dict, what: str) -> np.ndarray:
    """Field ``what`` as a float array, every element a JSON number."""
    for item in np.array(data[what], dtype=object).ravel():
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise ValueError(f"{path}: field {what!r} must hold JSON numbers, not {item!r}")
    return np.asarray(data[what], dtype=float)


def _unit_rows(path, data: dict, dim: int, what: str) -> np.ndarray:
    arr = _numbers(path, data, what)
    if arr.ndim != 2 or arr.shape[1] != dim + 1:
        raise ValueError(f"{what} must be a list of {dim + 1}-vectors")
    return unit_rows(
        arr, _UNIT_TOL, f"{what} contains vectors away from unit length by more than {_UNIT_TOL}"
    )


def load_measure(path) -> DiscreteMeasure:
    data = _load_strict(path, {"dim", "points", "weights"})
    dim = _dim(path, data)
    points = _unit_rows(path, data, dim, "points")
    return DiscreteMeasure(dim, points, _numbers(path, data, "weights"))


def save_measure(mu: DiscreteMeasure, path) -> None:
    payload = {
        "dim": mu.m,
        "points": mu.points.tolist(),
        "weights": mu.weights.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_body(path) -> HyperbolicPolytope:
    data = _load_strict(path, {"dim", "directions", "radii"})
    dim = _dim(path, data)
    directions = _unit_rows(path, data, dim, "directions")
    return from_vertices(dim, directions, _numbers(path, data, "radii"))


def save_body(poly: HyperbolicPolytope, path) -> None:
    payload = {
        "dim": poly.m,
        "directions": poly.directions.tolist(),
        "radii": poly.radii.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def report_json(report_dict: dict, indent: int | None = 2) -> str:
    """A report as standard JSON, with every non-finite float written as null."""
    finite = json.loads(json.dumps(report_dict), parse_constant=lambda name: None)
    return json.dumps(finite, indent=indent, allow_nan=False)


def save_report(report_dict: dict, path) -> None:
    Path(path).write_text(report_json(report_dict) + "\n")


# -- graphics ----------------------------------------------------------------


def body_svg(poly: HyperbolicPolytope) -> str:
    """Klein-disk picture of an m=1 body: unit circle, polygon, vertex labels,
    and the polar support graph tanh(h(eta)) as a closed curve."""
    if poly.m != 1:
        raise ValueError("SVG emission is for m = 1 bodies")
    c = SVG_SIZE / 2.0
    scale = 0.45 * SVG_SIZE

    def xy(p):
        return c + scale * p[0], c - scale * p[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        f'<circle cx="{c}" cy="{c}" r="{scale}" fill="none" stroke="#888" stroke-width="1"/>',
    ]
    ring = [xy(poly.klein_vertices[i]) for i in poly.faces.faces[:, 0]]
    points_attr = " ".join(f"{x:.3f},{y:.3f}" for x, y in ring)
    parts.append(
        f'<polygon points="{points_attr}" fill="#cfe3ff" fill-opacity="0.6" '
        f'stroke="#1f4e9c" stroke-width="2"/>'
    )
    for i in range(poly.n_vertices):
        x, y = xy(poly.klein_vertices[i])
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" fill="#1f4e9c"/>')
        parts.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" font-size="12" fill="#333">v{i}</text>'
        )
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    etas = np.column_stack([np.cos(theta), np.sin(theta)])
    rho = np.tanh(support_fn(poly, etas))
    curve = [xy(r * e) for r, e in zip(rho, etas)]
    attr = " ".join(f"{x:.3f},{y:.3f}" for x, y in curve)
    parts.append(
        f'<polygon points="{attr}" fill="none" stroke="#b3362b" '
        f'stroke-width="1.5" stroke-dasharray="5,4"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def body_obj(poly: HyperbolicPolytope, polar_level: int = 3) -> str:
    """Wavefront OBJ with two groups: the Klein hull mesh of an m=2 body and
    the Klein projection of its polar boundary graph (a radial mesh over the
    icosphere of level ``polar_level``)."""
    if poly.m != 2:
        raise ValueError("OBJ emission is for m = 2 bodies")
    sphere = icosphere_body(polar_level, 1.0)
    h = support_fn(poly, sphere.directions)
    polar_pts = (np.cosh(h) / np.sinh(h))[:, None] * sphere.directions

    lines = ["o klein_hull"]
    for v in poly.klein_vertices:
        lines.append(f"v {v[0]} {v[1]} {v[2]}")
    for f in poly.faces.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    offset = poly.n_vertices
    lines.append("o polar_boundary")
    for v in polar_pts:
        lines.append(f"v {v[0]} {v[1]} {v[2]}")
    for f in sphere.faces.faces:
        lines.append(f"f {f[0] + 1 + offset} {f[1] + 1 + offset} {f[2] + 1 + offset}")
    return "\n".join(lines) + "\n"
