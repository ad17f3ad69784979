"""Command-line interface.

Subcommands: check, forward, solve, roundtrip, crofton, demo.  Exit codes:
0 success, 2 validation failure, 3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from .bodies import (
    curvature_measure_angles,
    curvature_measure_integral,
    polygon_area_m1,
    regular_polygon,
)
from .crofton import crofton_compare
from .errors import PreconditionError
from .measures import DiscreteMeasure, check_conditions
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4


def _emit_error(args, code: int, exc: Exception) -> int:
    if getattr(args, "json_errors", False):
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, PreconditionError) and exc.report is not None:
            payload["condition_report"] = exc.report.to_dict()
        print(hio.report_json(payload, indent=None), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_check(args) -> int:
    mu = hio.load_measure(args.measure)
    report = check_conditions(mu)
    print(hio.report_json(report.to_dict()))
    return EXIT_OK if report.all_ok else EXIT_VALIDATION


def _forward_payload(poly) -> tuple[dict, DiscreteMeasure]:
    integral = curvature_measure_integral(poly)
    angles = curvature_measure_angles(poly)
    diff = np.abs(integral.weights - angles.weights)
    payload = {
        "dim": poly.m,
        "directions": poly.directions.tolist(),
        "radii": poly.radii.tolist(),
        "weights_integral": integral.weights.tolist(),
        "weights_angles": angles.weights.tolist(),
        "total_integral": float(integral.weights.sum()),
        "total_angles": float(angles.weights.sum()),
        "max_abs_weight_diff": float(diff.max()),
        "polar_boundary_area": math.fsum(integral.weights),
    }
    if poly.m == 1:
        area = polygon_area_m1(poly)
        payload["polygon_area"] = area
        payload["gauss_bonnet_residual"] = float(
            angles.weights.sum() - 2.0 * np.pi - area
        )
    return payload, integral


def _cmd_forward(args) -> int:
    poly = hio.load_body(args.body)
    payload, integral = _forward_payload(poly)
    out = _out_dir(args)
    hio.save_report(payload, out / "forward_report.json")
    hio.save_measure(integral, out / "curvature_measure.json")
    _maybe_graphics(args, poly, out)
    print(hio.report_json({k: v for k, v in payload.items()
                           if not isinstance(v, list) or k == "radii"}))
    return EXIT_OK


def _maybe_graphics(args, poly, out: Path) -> None:
    if getattr(args, "svg", False) and poly.m == 1:
        (out / "body.svg").write_text(hio.body_svg(poly))
    if getattr(args, "obj", False) and poly.m == 2:
        (out / "body.obj").write_text(hio.body_obj(poly))


def _solve_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


def _report_dict(report) -> dict:
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "psi": report.psi.values.tolist(),
        "radii": report.body.radii.tolist() if report.body is not None else None,
        "directions": report.psi.support.tolist(),
        "residual_history": report.residual_history,
        "damping_history": report.damping_history,
        "el_residuals": report.residuals.tolist(),
        "condition_report": report.condition_report.to_dict()
        if report.condition_report is not None else None,
        "restarts_used": report.restarts_used,
        "hull_calls": report.hull_calls,
        "wall_time_s": report.wall_time,
        "extraction_error": report.extraction_error,
    }


def _cmd_solve(args) -> int:
    mu = hio.load_measure(args.measure)
    report = solve(mu, _solve_config(args), force=args.force)
    out = _out_dir(args)
    hio.save_report(_report_dict(report), out / "solve_report.json")
    if report.body is not None:
        hio.save_body(report.body, out / "body.json")
        _maybe_graphics(args, report.body, out)
    print(hio.report_json({
        "converged": report.converged,
        "iterations": report.iterations,
        "max_el_residual": float(report.residuals.max()),
        "wall_time_s": report.wall_time,
    }))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_roundtrip(args) -> int:
    poly = hio.load_body(args.body)
    mu = curvature_measure_integral(poly)
    report = solve(mu, _solve_config(args), force=args.force)
    rows, max_rel = [], None
    if report.body is not None:
        rel = np.abs(report.body.radii - poly.radii) / poly.radii
        max_rel = float(rel.max())
        rows = [
            {"vertex": i, "radius_in": float(poly.radii[i]),
             "radius_out": float(report.body.radii[i]), "rel_error": float(rel[i])}
            for i in range(poly.n_vertices)
        ]
    payload = {
        "converged": report.converged,
        "max_rel_radius_error": max_rel,
        "table": rows,
    }
    out = _out_dir(args)
    hio.save_report(payload, out / "roundtrip_report.json")
    print(hio.report_json({"converged": report.converged, "max_rel_radius_error": max_rel}))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_crofton(args) -> int:
    poly1 = hio.load_body(args.body1)
    poly2 = hio.load_body(args.body2)
    report = crofton_compare(poly1, poly2, n_samples=args.samples,
                             h_cap=args.h_cap, seed=args.seed)
    out = _out_dir(args)
    hio.save_report(report.to_dict(), out / "crofton_report.json")
    print(hio.report_json(report.to_dict()))
    return EXIT_OK


def _cmd_demo(args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)

    theta = 2.0 * np.pi * np.arange(3) / 3
    mu_ok = DiscreteMeasure(
        1, np.column_stack([np.cos(theta), np.sin(theta)]),
        np.full(3, (2.0 * np.pi + 0.3) / 3.0),
    )
    hio.save_measure(mu_ok, out / "measure_valid_3pt.json")

    ang = 0.1 * np.arange(4) / 3.0
    mu_cluster = DiscreteMeasure(
        1, np.column_stack([np.cos(ang), np.sin(ang)]), np.full(4, 1.6)
    )
    hio.save_measure(mu_cluster, out / "measure_alexandrov_violating.json")

    theta4 = 2.0 * np.pi * np.arange(4) / 4
    mu_vertex = DiscreteMeasure(
        1, np.column_stack([np.cos(theta4), np.sin(theta4)]),
        np.array([3.2, 1.2, 1.2, 1.2]),
    )
    hio.save_measure(mu_vertex, out / "measure_vertex_violating.json")

    hio.save_body(regular_polygon(4, 1.0), out / "body_square_m1.json")
    hio.save_body(regular_polygon(256, 0.5), out / "body_ball256_r05_m1.json")
    hio.save_body(regular_polygon(256, 1.0), out / "body_ball256_r10_m1.json")

    from .bodies import from_vertices, random_polytope

    octa_dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0],
                          [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    hio.save_body(from_vertices(2, octa_dirs, np.ones(6)), out / "body_octahedron_m2.json")
    hio.save_body(random_polytope(2, 8, rng), out / "body_random8_m2.json")
    print(f"fixtures written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcurv",
        description="Curvature measures of hyperbolic convex bodies: forward "
                    "computation, admissibility checks, inverse reconstruction, "
                    "and kinematic cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solveish=False, seed=False):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--json-errors", action="store_true",
                       help="print machine-readable errors to stderr")
        if solveish:
            p.add_argument("--tol", type=float, default=SolverConfig.tol,
                           help="largest |exterior angle - atom| at convergence, as a "
                                f"fraction of the total mass (default {SolverConfig.tol:g})")
            p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                           help=f"Newton steps (default {SolverConfig.max_iter})")
            p.add_argument("--force", action="store_true",
                           help="run even if the admissibility check fails")

    p = sub.add_parser("check", help="test a measure against the admissibility conditions")
    p.add_argument("measure")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("forward", help="curvature measure of a body, two ways")
    p.add_argument("body")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--obj", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("solve", help="reconstruct the body with a prescribed measure")
    p.add_argument("measure")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--obj", action="store_true")
    common(p, solveish=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("roundtrip", help="forward then solve; report radius errors")
    p.add_argument("body")
    common(p, solveish=True)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("crofton", help="kinematic comparison of two bodies")
    p.add_argument("body1")
    p.add_argument("body2")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--h-cap", type=float, default=None)
    common(p, seed=True)
    p.set_defaults(func=_cmd_crofton)

    p = sub.add_parser("demo", help="write the demo/acceptance fixture files")
    common(p, seed=True)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:  # JSONDecodeError is a ValueError
        return _emit_error(args, EXIT_IO, exc)
    except ValueError as exc:  # HypcurvError and PreconditionError among them
        return _emit_error(args, EXIT_VALIDATION, exc)


if __name__ == "__main__":
    sys.exit(main())
