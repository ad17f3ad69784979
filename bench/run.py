"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload roundtrip_m2 --seed 0 --seconds 30 --trace 0

The run sets up the workload's inputs (``setup_s``), then repeats whole
rounds of the same operations until the next round would end after
``--seconds``; at least one round always runs.  Each operation is timed and
its output checked.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` the layer entry points are
wrapped (``bench/tracing.py``), the per-layer metrics are printed instead and
the spans are written to ``bench/out/trace-<workload>-seed<seed>.json``.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PASSES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _rounds(ops, seconds, tracer, cache):
    """Run whole rounds; return per-op times, round totals, attempted, failed, bad checks."""
    times = [[] for _ in ops]
    totals = []
    attempted = failed = bad_checks = 0
    start = time.perf_counter()
    while True:
        # every round starts cold, so a repeat never finds the kernel an
        # earlier round built; within a round a shared support still hits
        cache.clear()
        round_start = time.perf_counter()
        total = 0.0
        for idx, op in enumerate(ops):
            attempted += 1
            if tracer is not None:
                tracer.phase = "round"
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an operation that raises counts as failed
                failed += 1
                print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                if tracer is not None:
                    tracer.phase = None
            elapsed = time.perf_counter() - t0
            times[idx].append(elapsed)
            total += elapsed
            problem = op.check(result)
            if problem is not None:
                failed += 1
                bad_checks += 1
                print(f"WRONG {op.label}: {problem}", file=sys.stderr)
        totals.append(total)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return times, totals, attempted, failed, bad_checks


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hypcurv" / "__init__.py").is_file():
        print(f"error: no hypcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    import workloads
    from hypcurv import ctransform
    from tracing import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    imported = time.perf_counter() - _T0

    passes = []
    for k in range(SETUP_PASSES):
        if tracer is not None:
            tracer.phase = "setup" if k == 0 else None
        t0 = time.perf_counter()
        ops = build(args.seed)
        passes.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = None
    setup_s = imported + statistics.median(passes)

    times, totals, attempted, failed, bad_checks = _rounds(
        ops, args.seconds, tracer, ctransform._kernel_cache)
    rounds = len(totals)
    # the median round: on a shared machine it spread a third as wide over
    # runs as the sum of per-operation minima
    wall_s = statistics.median(totals)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops_s = {op.label: statistics.median(t) for op, t in zip(ops, times) if t}
    for label, typical in ops_s.items():
        print(f"  {typical:9.4f} s  {label}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} ops, "
          f"wall_s {wall_s:.4f}, setup_s {setup_s:.4f}, peak_rss_mb {peak_rss_mb:.1f}",
          file=sys.stderr)
    if tracer is None:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        tracer.uninstall()
        layer = tracer.layer_metrics(rounds)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        tracer.dump(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "op_median_s": ops_s,
        })
    print(json.dumps({"correct": bad_checks == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
