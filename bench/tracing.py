"""Span tracing of hypcurv's layers from outside the package.

A :class:`Tracer` wraps the public entry points of each layer (module of
``src/hypcurv``) and records one span per call: name, start, end, parent span,
the minor page faults and system CPU time taken, and the rise of the
process's peak resident set during the call.  Spans stay in memory;
:meth:`Tracer.layer_metrics` turns them into the per-layer numbers and
:meth:`Tracer.dump` writes them out.

Callers inside the package bind some entry points by name (``solver`` does
``from .quadrature import build_grid``), so a wrapper replaces the function in
every loaded ``hypcurv`` module namespace that holds it, not only in its home
module.  ``SupportKernel`` is constructed directly by ``bodies`` and
``ctransform``, so its constructor and sweeps are wrapped on the class.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# (span name, home module, attribute) of the wrapped module-level functions
FUNCTIONS = (
    ("quadrature.build_grid", "hypcurv.quadrature", "build_grid"),
    ("ctransform.kernel_for", "hypcurv.ctransform", "kernel_for"),
    ("solver.solve", "hypcurv.solver", "solve"),
    ("measures.check_conditions", "hypcurv.measures", "check_conditions"),
    ("bodies.from_vertices", "hypcurv.bodies", "from_vertices"),
    ("bodies.curvature_measure_angles", "hypcurv.bodies", "curvature_measure_angles"),
    ("bodies.curvature_measure_integral", "hypcurv.bodies", "curvature_measure_integral"),
    ("crofton.crofton_compare", "hypcurv.crofton", "crofton_compare"),
)

# (span name, SupportKernel method)
KERNEL_METHODS = (
    ("cells.kernel_build", "__init__"),
    ("cells.solver_sweep", "solver_sweep"),
    ("cells.cell_sums", "cell_sums"),
)
CELLS = tuple(name for name, _ in KERNEL_METHODS)

# per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "quadrature.build_grid.calls": ("count", "lower"),
    "quadrature.build_grid.busy_s": ("s", "lower"),
    "cells.kernel_build.calls": ("count", "lower"),
    "cells.kernel_build.busy_s": ("s", "lower"),
    "cells.solver_sweep.calls": ("count", "lower"),
    "cells.solver_sweep.busy_s": ("s", "lower"),
    "cells.cell_sums.calls": ("count", "lower"),
    "cells.cell_sums.busy_s": ("s", "lower"),
    "cells.minor_faults": ("count", "lower"),
    "ctransform.kernel_for.calls": ("count", "lower"),
    "ctransform.kernel_for.hits": ("count", "higher"),
    "solver.solve.calls": ("count", "lower"),
    "solver.solve.self_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.restarts": ("count", "lower"),
    "solver.accepted_per_sweep": ("ratio", "higher"),
    "measures.check_conditions.calls": ("count", "lower"),
    "measures.check_conditions.busy_s": ("s", "lower"),
    "bodies.from_vertices.calls": ("count", "lower"),
    "bodies.from_vertices.busy_s": ("s", "lower"),
    "bodies.curvature_measure_angles.calls": ("count", "lower"),
    "bodies.curvature_measure_angles.busy_s": ("s", "lower"),
    "bodies.curvature_measure_integral.calls": ("count", "lower"),
    "bodies.curvature_measure_integral.self_s": ("s", "lower"),
    "crofton.crofton_compare.calls": ("count", "lower"),
    "crofton.crofton_compare.busy_s": ("s", "lower"),
    "crofton.samples_per_s": ("1/s", "higher"),
    "crofton.rss_growth_mb": ("MB", "lower"),
}


def _solve_info(report):
    return {"iterations": report.iterations, "restarts": report.restarts_used}


def _crofton_info(report):
    return {"samples": report.samples_used + report.samples_unstable}


_RESULT_INFO = {"solver.solve": _solve_info, "crofton.crofton_compare": _crofton_info}


class Tracer:
    """Records spans around hypcurv's layer entry points while installed.

    ``phase`` tags each new span: "setup" for the set-up pass that counts,
    "round" for timed rounds, None for spans the metrics ignore.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        tracer = self
        info = _RESULT_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            usage = resource.getrusage(resource.RUSAGE_SELF)
            span = {
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "phase": tracer.phase,
                "minflt": usage.ru_minflt,
                "stime": usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss,
                "start": time.perf_counter(),
            }
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                usage = resource.getrusage(resource.RUSAGE_SELF)
                span["minflt"] = usage.ru_minflt - span["minflt"]
                span["stime"] = usage.ru_stime - span["stime"]
                span["maxrss_kb"] = usage.ru_maxrss - span["maxrss_kb"]
                tracer._stack.pop()
            if info is not None:
                span.update(info(result))
            return result

        return wrapper

    def install(self):
        """Wrap every entry point wherever a hypcurv module binds it."""
        from hypcurv.cells import SupportKernel

        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "hypcurv" or key.startswith("hypcurv.")]
        for name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, attr in KERNEL_METHODS:
            original = SupportKernel.__dict__[attr]
            self._undo.append((SupportKernel, attr, original))
            setattr(SupportKernel, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self, n_rounds: int) -> dict:
        """Per-layer numbers for one set-up pass plus one average round.

        Set-up spans count once and round spans 1/n_rounds each, so the
        numbers do not depend on how many rounds fit in the run.  The RSS
        growth is not averaged: the peak only rises, so later rounds add
        nothing and the sum is the rise the Crofton calls caused in the run.
        """
        weight = {"setup": 1.0, "round": 1.0 / n_rounds}
        spans = self.spans
        children: list[list[int]] = [[] for _ in spans]
        for idx, span in enumerate(spans):
            if span["parent"] is not None:
                children[span["parent"]].append(idx)

        def duration(idx):
            return spans[idx]["end"] - spans[idx]["start"]

        def inside_solve(idx):
            parent = spans[idx]["parent"]
            while parent is not None:
                if spans[parent]["name"] == "solver.solve":
                    return True
                parent = spans[parent]["parent"]
            return False

        sums: dict[str, float] = {key: 0.0 for key in LAYER_METRICS}
        sweeps_in_solve = 0.0
        samples = 0.0
        for idx, span in enumerate(spans):
            name = span["name"]
            if name == "crofton.crofton_compare":
                sums["crofton.rss_growth_mb"] += span["maxrss_kb"] / 1024.0
            w = weight.get(span["phase"], 0.0)
            if w == 0.0:
                continue
            busy = duration(idx)
            self_time = busy - sum(duration(c) for c in children[idx])
            for suffix, value in (("calls", 1.0), ("busy_s", busy), ("self_s", self_time)):
                key = f"{name}.{suffix}"
                if key in sums:
                    sums[key] += w * value
            if name in CELLS:
                sums["cells.minor_faults"] += w * span["minflt"]
                if name != "cells.kernel_build" and inside_solve(idx):
                    sweeps_in_solve += w
            elif name == "ctransform.kernel_for":
                built = any(spans[c]["name"] == "cells.kernel_build" for c in children[idx])
                sums["ctransform.kernel_for.hits"] += 0.0 if built else w
            elif name == "solver.solve":
                sums["solver.iterations"] += w * span.get("iterations", 0)
                sums["solver.restarts"] += w * span.get("restarts", 0)
            elif name == "crofton.crofton_compare":
                samples += w * span.get("samples", 0)
        if sweeps_in_solve:
            sums["solver.accepted_per_sweep"] = sums["solver.iterations"] / sweeps_in_solve
        if sums["crofton.crofton_compare.busy_s"]:
            sums["crofton.samples_per_s"] = samples / sums["crofton.crofton_compare.busy_s"]
        return sums

    def dump(self, path, extra: dict):
        """Write the spans, with the run's own figures, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
