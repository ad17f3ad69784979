"""Tests of the benchmark itself (about one minute, most of it traced runs).

    python3 -m pytest bench/selftest.py

The file is not named ``test_*.py`` so that the repository's own test run
does not collect it.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hypcurv as hc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# per-layer metric -> workloads whose wall_s (or setup_s) it should move;
# it must read non-zero on each of them
MOVES = {
    "quadrature.build_grid": ("roundtrip_m2",),
    "cells.kernel_build": ("forward",),
    "cells.solver_sweep": ("roundtrip_m2", "roundtrip_m1"),
    "cells.cell_sums": ("forward",),
    "cells.minor_faults": ("roundtrip_m2",),
    "ctransform.kernel_for": ("roundtrip_m2", "roundtrip_m1"),
    "solver.solve": ("roundtrip_m2", "roundtrip_m1"),
    "solver.iterations": ("roundtrip_m2", "roundtrip_m1"),
    "solver.accepted_per_sweep": ("roundtrip_m2", "roundtrip_m1"),
    "measures.check_conditions": ("admissibility_m2", "roundtrip_m2"),
    "bodies.from_vertices": tuple(wl.WORKLOADS),
    "bodies.curvature_measure_angles": ("forward",),
    "bodies.curvature_measure_integral": ("forward",),
    "crofton": ("forward",),
}
# no solve of the round-trip suite restarts at present, so this count is
# checked for presence only
PRESENT_ONLY = {"solver.restarts"}


def _bench(workload, trace, cwd=ROOT, seconds=0):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in wl.WORKLOADS:
        proc = _bench(name, 1)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_traced_runs_report_every_layer_metric(traced):
    for name, result in traced.items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == set(LAYER_METRICS), name


@pytest.mark.parametrize("prefix", sorted(MOVES))
def test_layer_metric_nonzero_where_it_should_move(traced, prefix):
    names = [key for key in LAYER_METRICS if key.startswith(prefix + ".") or key == prefix]
    assert names
    for workload in MOVES[prefix]:
        for key in names:
            assert traced[workload]["metrics"][key]["value"] > 0, (workload, key)


def test_every_layer_metric_is_mapped():
    mapped = {key for key in LAYER_METRICS for prefix in MOVES
              if key == prefix or key.startswith(prefix + ".")}
    assert mapped | PRESENT_ONLY == set(LAYER_METRICS)


def test_admissibility_runs_no_sweep(traced):
    metrics = traced["admissibility_m2"]["metrics"]
    assert metrics["cells.solver_sweep.calls"]["value"] == 0
    assert metrics["cells.cell_sums.calls"]["value"] == 0


def _rounds(op):
    times, totals, attempted, failed, bad = run._rounds([op], 0.0, None, {})
    return attempted, failed, bad


def test_perturbed_radius_counts_as_failed():
    body = wl.draw_body_m1(np.random.default_rng(3), 6)
    report = hc.solve(hc.curvature_measure_angles(body))
    radii = report.body.radii.copy()
    radii[2] *= 1.0 + 2e-4
    wrong = replace(report, body=hc.from_vertices(1, report.body.directions, radii))
    check = lambda rep: wl.check_roundtrip(rep, body, wl.RADIUS_BOUND[1])  # noqa: E731
    assert _rounds(wl.Op("right", lambda: report, check)) == (1, 0, 0)
    assert _rounds(wl.Op("wrong", lambda: wrong, check)) == (1, 1, 1)


def test_moved_direction_counts_as_failed():
    body = wl.draw_body_m1(np.random.default_rng(4), 5)
    report = hc.solve(hc.curvature_measure_angles(body))
    assert wl.check_roundtrip(report, body, 1.0) is None
    dirs = report.body.directions.copy()
    dirs[0, 0] = np.nextafter(dirs[0, 0], 2.0)
    moved = replace(report, body=replace(report.body, directions=dirs))
    assert wl.check_roundtrip(moved, body, 1.0) is not None


def test_wrong_forward_atom_counts_as_failed():
    body = wl.draw_body_m2(np.random.default_rng(5), 8)
    grid = hc.build_grid(2, 4)
    by_angles = hc.curvature_measure_angles(body)
    by_grid = hc.curvature_measure_integral(body, grid)
    assert wl.check_forward(body, by_angles, by_grid, True) is None
    weights = by_grid.weights.copy()
    weights[int(np.argmax(weights))] *= 1.05
    wrong = hc.DiscreteMeasure(2, by_grid.points, weights)
    op = wl.Op("wrong", lambda: (body, by_angles, wrong), lambda r: wl.check_forward(*r, True))
    assert _rounds(op) == (1, 1, 1)


def test_admissibility_checks_each_flag():
    rng = np.random.default_rng(6)
    mu, bound = wl.cluster_measure(rng, *wl.CLUSTER_VIOLATOR)
    report = hc.check_conditions(mu)
    assert wl.check_admissibility(report, "alexandrov", bound) is None
    assert wl.check_admissibility(report, None) is not None
    assert wl.check_admissibility(report, "total", None) is not None
    shifted = replace(report, alexandrov_slack=bound + 1e-9)
    assert wl.check_admissibility(shifted, "alexandrov", bound) is not None
    total = hc.check_conditions(wl.euclidean_defect_measure(rng, 8))
    assert wl.check_admissibility(total, "total") is None
    assert abs(total.total_mass_excess) < 1e-12


def test_wrong_crofton_counts_as_failed():
    report = hc.CroftonReport(lhs=1.0, rhs=1.0, stderr=0.01, samples_used=10,
                              samples_unstable=0, h_cap=1.0, agree=True, mean_diff=0.5,
                              diff_counts={0: 5, 2: 5})
    assert wl.check_crofton(report, 1.0) is None
    assert wl.check_crofton(replace(report, rhs=1.05), None) is not None
    assert wl.check_crofton(replace(report, diff_counts={0: 5, 1: 5}), None) is not None
    assert wl.check_crofton(report, 1.01) is not None


def test_same_seed_same_inputs():
    a = wl.draw_body_m2(np.random.default_rng(11), 9)
    b = wl.draw_body_m2(np.random.default_rng(11), 9)
    assert np.array_equal(a.directions, b.directions) and np.array_equal(a.radii, b.radii)
    labels = [op.label for op in wl.roundtrip_m1(3)]
    assert labels == [op.label for op in wl.roundtrip_m1(3)]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("roundtrip_m1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
