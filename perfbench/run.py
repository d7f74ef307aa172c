#!/usr/bin/env python3
"""Seeded end-to-end benchmark of root-enclose, with a traced run per layer.

    python3 perfbench/run.py --workload check --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each workload runs in a worker process of
its own (``worker.py``); its outputs are checked exactly here after the
worker exits.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of a traced run, next to an untraced run
that gives the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn and ends with one object
whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

# both are stdlib only; the package itself is imported after the check
# that its source is there
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is timed in this many worker processes that stop when ready, each
# between two runs of reference chunks; setup_s is the median
SETUP_PROBES = 5
SETUP_REFS = 50
TRACED_MIN_PASSES = 2    # exact counts are compared between passes
DEADLINE_S = 170         # the whole run, whatever the workload

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mib": "MiB",
}
TRACE_EXTRA = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_share": "ratio",
    "trace.count_mismatches": "count",
}


class WorkerError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (which
    could look outside the checkout); None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, workdir: Path, deadline: float, min_passes: int, *,
          setup_only=False, trace_out=None) -> dict:
    """Run one worker process to completion and return its report, with
    setup_s measured from just before the process was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), "--min-passes", str(min_passes)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    # its own process group, so that a timeout also stops its pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timeout, interrupt or termination
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError(f"worker did not finish within {DEADLINE_S} s") from None
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    if not setup_only:
        report["passes"] = [json.loads(workloads.pass_path(workdir, k).read_text())
                            for k in range(report["passes"])]
    return report


class Verifier:
    """Checks every operation of a worker report.  Outputs are deterministic,
    so an output already checked for the same operation is not re-checked."""

    def __init__(self, w):
        import checks
        from root_enclose import maps

        self.w = w
        self.checks = checks
        self.maps = {m.name: maps.map_from_dict(m.spec) for m in w.maps}
        self.seen: dict = {}

    def problem(self, op, result, out_file: Path):
        c = self.checks
        if op.kind == "float":
            x, n = op.args
            return c.check_float(n, x, *result)
        try:
            text = out_file.read_text(encoding="utf-8")
        except FileNotFoundError:
            return f"no output (exit code {result})"
        if op.kind == "root":
            return c.check_root(*op.args, result, text)
        if op.kind == "bench":
            return c.check_bench(result, text)
        checker = c.check_check if op.kind == "check" else c.check_compare
        m = op.map_input
        return checker(m.kind, self.maps[m.name], result, text)

    def failures(self, report, workdir: Path) -> list[tuple[int, int, str]]:
        failed = []
        for k, p in enumerate(report["passes"]):
            for i, op in enumerate(self.w.ops):
                if str(i) in p["errors"]:
                    failed.append((k, i, p["errors"][str(i)]))
                    continue
                result = p["results"][i]
                out_file = workloads.output_path(workdir, k, i)
                key = (i, json.dumps(result))
                if op.kind != "float" and out_file.exists():
                    key += (hashlib.sha256(out_file.read_bytes()).digest(),)
                if key not in self.seen:
                    try:
                        self.seen[key] = self.problem(op, result, out_file)
                    except Exception as exc:  # malformed output fails the operation
                        self.seen[key] = f"unreadable output: {exc!r}"
                if self.seen[key]:
                    failed.append((k, i, self.seen[key]))
        return failed


def latency_metrics(report, failed, at_reference_speed=True) -> dict:
    """ops_per_s counts completed operations per second of timed time.  The
    percentiles are over operations, each taken as its mean latency across
    the passes; a failed attempt counts as slower than the whole run."""
    passes = report["passes"]
    scale = 1.0
    if at_reference_speed:
        scale = speed.factor([r for p in passes for r in p["refs"]])
    lat = [[d * scale / 1e6 for d in p["durations_ns"]] for p in passes]
    total_ms = sum(map(sum, lat))
    for k, i, _ in failed:
        lat[k][i] = total_ms
    per_op = [statistics.fmean(attempts) for attempts in zip(*lat)]
    attempted = len(passes) * len(per_op)
    return {
        "ops_per_s": (attempted - len(failed)) / (total_ms / 1e3),
        "op_p50_ms": statistics.median(per_op),
        "op_p90_ms": statistics.quantiles(per_op, n=10, method="inclusive")[8],
    }


def measure(args, w, deadline: float) -> tuple[dict, dict, int, list]:
    """(metrics, metadata, attempted, failures) of one workload run."""
    verifier = Verifier(w)
    workdir = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            (SCRATCH / "spans").mkdir(parents=True, exist_ok=True)
            spans = SCRATCH / "spans" / f"{args.workload}.spans.gz"
            plain = spawn(args, workdir, deadline, 1)
            failed = verifier.failures(plain, workdir)
            shutil.rmtree(workdir / "out")
            traced = spawn(args, workdir, deadline, TRACED_MIN_PASSES, trace_out=spans)
            failed += verifier.failures(traced, workdir)
            reports = [plain, traced]
            metrics, mismatches = tracing.summarize(traced["per_pass"])
            untraced = latency_metrics(plain, [])["ops_per_s"]
            traced_rate = latency_metrics(traced, [])["ops_per_s"]
            metrics.update({
                "trace.ops_per_s_untraced": untraced,
                "trace.ops_per_s_traced": traced_rate,
                "trace.overhead_share": 1 - traced_rate / untraced,
                "trace.count_mismatches": mismatches,
            })
            units = dict(tracing.PER_LAYER, **TRACE_EXTRA)
            extra = {"spans": traced["spans"], "spans_file": str(spans.relative_to(ROOT))}
        else:
            setups, scaled_setups = [], []
            for _ in range(SETUP_PROBES):
                refs = [speed.reference_ns() for _ in range(SETUP_REFS)]
                setups.append(spawn(args, workdir, deadline, 1, setup_only=True)["setup_s"])
                refs += [speed.reference_ns() for _ in range(SETUP_REFS)]
                scaled_setups.append(setups[-1] * speed.factor(refs))
            main = spawn(args, workdir, deadline, workloads.MIN_PASSES[args.workload])
            failed = verifier.failures(main, workdir)
            reports = [main]
            metrics = latency_metrics(main, failed)
            ops = sum(len(p["durations_ns"]) for p in main["passes"])
            metrics.update({
                "setup_s": statistics.median(scaled_setups),
                "success_ratio": 1 - len(failed) / ops,
                "peak_rss_mib": main["peak_rss_kib"] / 1024,
            })
            units = END_TO_END
            refs = [r for p in main["passes"] for r in p["refs"]]
            extra = {"unscaled": dict(latency_metrics(main, failed, False),
                                      setup_s=statistics.median(setups)),
                     "reference_ms_mean": statistics.mean(refs) / 1e6,
                     "setup_s_each": setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p["durations_ns"]) for r in reports for p in r["passes"])
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_backend": reports[0]["backend"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "passes": [len(r["passes"]) for r in reports], "ops_per_pass": len(w.ops),
        **extra,
    }
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, meta, attempted, failed


def run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    w = workloads.build(args.workload, args.seed)
    try:
        metrics, meta, attempted, failed = measure(args, w, deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for k, i, why in failed[:20]:
        print(f"FAILED pass {k} op {i} ({w.ops[i].kind}): {why}")
    if meta.get("trace") and metrics["trace.count_mismatches"]["value"]:
        print("WARNING: exact counts differ between passes")
    print(json.dumps({"meta": meta}))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()  # it stops its own workers
            proc.communicate()
            raise
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # on termination, unwind so that running workers are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "root_enclose" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'root_enclose'}; run from a "
              "root-enclose source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    import selftest

    wrong = selftest.run()
    if wrong:
        print("error: checker self-test failed: " + "; ".join(wrong), file=sys.stderr)
        return 3
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
