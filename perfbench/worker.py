"""One workload in its own process: set up, run timed passes, report.

Run by ``run.py``; not meant to be started by hand.  The worker generates
its inputs, times every operation, and writes each operation's output to
the work directory for ``run.py`` to check after the worker has exited, so
that neither the checking nor its memory is part of the measurement.  The
last line of its standard output is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import root_enclose  # noqa: E402  (import time is part of set-up)
from root_enclose import cli, solver  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def run_op(w, op, workdir: Path, out: Path):
    """Run one operation; CLI output goes to ``out``.  Returns the exit code,
    or for refine_float the (lo, hi) pair."""
    if op.kind == "float":
        x, n = op.args
        trace = solver.refine_float(x, n, workloads.FLOAT_EPS)
        return [trace.lo, trace.hi]
    return cli.main(workloads.cli_argv(w, op, workdir, out))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None,
                    help="trace the run and write the spans to this file")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    w = workloads.build(args.workload, args.seed)
    workloads.write_inputs(w, workdir)
    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    (workdir / "out").mkdir(exist_ok=True)
    clock = time.perf_counter_ns
    passes = 0
    begun = time.monotonic()
    while True:
        durations, results, errors = [], [], {}
        refs, since_ref = [speed.reference_ns()], 0
        if tracer:
            tracer.begin_pass()
            tracer.active = True
        for i, op in enumerate(w.ops):
            out = workloads.output_path(workdir, passes, i)
            t0 = clock()
            try:
                result = run_op(w, op, workdir, out)
            except Exception as exc:  # counted as a failed operation
                result = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            durations.append(clock() - t0)
            results.append(result)
            since_ref += durations[-1]
            if since_ref >= speed.EVERY_NS or i == len(w.ops) - 1:
                refs.append(speed.reference_ns())
                since_ref = 0
        if tracer:
            tracer.active = False
        # written out, not kept, so that memory does not grow with the passes
        workloads.pass_path(workdir, passes).write_text(json.dumps({
            "durations_ns": durations, "results": results, "errors": errors,
            "refs": refs}))
        passes += 1
        if passes >= args.min_passes and time.monotonic() - begun >= args.seconds:
            break

    report = {
        "ready": ready,
        "backend": root_enclose.kernel_backend,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    if tracer:
        report["per_pass"] = tracer.per_pass()
        report["spans"] = len(tracer.start)
        tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
