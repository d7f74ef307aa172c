"""Spans around the package's public functions, recorded from outside.

The tracer replaces a function at the name its callers look up (for example
``analysis.sample_triples`` or ``maps.MapEvaluator.pair``) with a wrapper
that records a span: name, start, end and the enclosing span.  Spans are
kept in flat in-memory arrays while the workload runs; self times are
computed from them afterwards and the spans are written out when the run
ends.  Exact counts taken from arguments and return values (kernel operand
bits, verdict sizes, iterations, endpoint bits) are tallied per pass at the
same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from array import array
from collections import Counter

# Per-layer metrics in the order they are reported, with their units.
# `kernels.*` stands for the package's `_kernels` layer (metric names must
# start with a letter).  Counts are exact; `operand_bits*` are computed
# from the kernel arguments.
PER_LAYER = {
    "analysis.sample_triples.calls": "count",
    "analysis.sample_triples.s": "s",
    "analysis.falsify_contraction.self_s": "s",
    "analysis.check_denominator_bounds.self_s": "s",
    "analysis.check_dominance.self_s": "s",
    "analysis.points_checked": "count",
    "analysis.witnesses": "count",
    "analysis.equality_points": "count",
    "maps.MapEvaluator.pair.calls": "count",
    "maps.MapEvaluator.pair.self_s": "s",
    "maps.denominators.calls": "count",
    "maps.denominators.self_s": "s",
    "maps.zero_denominators": "count",
    "kernels.apply_reduced_pairs.calls": "count",
    "kernels.apply_reduced_pairs.s": "s",
    "kernels.apply_pairs.calls": "count",
    "kernels.apply_pairs.s": "s",
    "kernels.form_pair.calls": "count",
    "kernels.form_pair.s": "s",
    "kernels.operand_bits": "computed-bits",
    "kernels.operand_bits_max": "computed-bits",
    "kernels.refine_float_loop.calls": "count",
    "kernels.refine_float_loop.s": "s",
    "numeric.pow_int.calls": "count",
    "numeric.pow_int.s": "s",
    "numeric.geom_sum.calls": "count",
    "numeric.geom_sum.s": "s",
    "solver.refine_to_eps.calls": "count",
    "solver.refine_to_eps.self_s": "s",
    "solver.refine_to_eps.iterations": "count",
    "solver.bisect_to_eps.calls": "count",
    "solver.bisect_to_eps.self_s": "s",
    "solver.bisect_to_eps.iterations": "count",
    "solver.refine_float.calls": "count",
    "solver.refine_float.self_s": "s",
    "solver.refine_float.iterations": "count",
    "solver.endpoint_bits_max": "bits",
    "solver.bits_growth_per_iter": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "bench.run_bench.calls": "count",
    "bench.run_bench.self_s": "s",
}

# Metrics that must repeat exactly from one pass over the operations to the
# next (everything that is not a time).
EXACT = [k for k, unit in PER_LAYER.items() if unit != "s"]


class Tracer:
    """Span recorder; wrappers record only while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.active = False
        self.counts: Counter = Counter()
        self.pass_starts: list[int] = []
        self.pass_counts: list[Counter] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_pass(self) -> None:
        self.counts = Counter()
        self.pass_starts.append(len(self.start))
        self.pass_counts.append(self.counts)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._id(name)
        start, end, names, parent, stack = (
            self.start, self.end, self.name, self.parent, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self.counts, args)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, result)
            return result

        return traced

    def write(self, path) -> None:
        """All spans: a JSON header line, then the four arrays as raw
        native-endian bytes (int64 start ns, int64 end ns, int32 name
        index, int32 parent span or -1), gzip-compressed."""
        header = {"names": self.names, "spans": len(self.start),
                  "pass_starts": self.pass_starts,
                  "arrays": ["start:q", "end:q", "name:i", "parent:i"]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                fh.write(arr.tobytes())

    def per_pass(self) -> list[dict]:
        """Per-layer metrics of each pass, from the spans and tallies."""
        total = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * total))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        bounds = self.pass_starts + [total]
        out = []
        for k, counts in enumerate(self.pass_counts):
            calls = Counter()
            busy = Counter()
            own = Counter()
            for i in range(bounds[k], bounds[k + 1]):
                name = self.names[self.name[i]]
                calls[name] += 1
                busy[name] += dur[i]
                own[name] += dur[i] - child[i]
            metrics = {}
            for key in PER_LAYER:
                base, _, field = key.rpartition(".")
                if field == "calls":
                    metrics[key] = calls[base]
                elif field == "s":
                    metrics[key] = busy[base] / 1e9
                elif field == "self_s":
                    metrics[key] = own[base] / 1e9
                else:
                    metrics[key] = counts[key]
            grown, before = counts["growth.bits_after"], counts["growth.bits_before"]
            metrics["solver.bits_growth_per_iter"] = grown / before if before else 0.0
            out.append(metrics)
        return out


def summarize(passes: list[dict]) -> tuple[dict, int]:
    """Exact counts of the first pass, times as the median over passes, and
    the number of exact metrics that differ between passes (never averaged)."""
    first = passes[0]
    mismatches = sum(1 for key in EXACT if any(p[key] != first[key] for p in passes))
    out = {}
    for key, unit in PER_LAYER.items():
        out[key] = statistics.median(p[key] for p in passes) if unit == "s" else first[key]
    return out, mismatches


# ---------------------------------------------------------------------------
# Tallies at the layer boundaries.

def _operand_bits(counts: Counter, args) -> None:
    total = 0
    top = counts["kernels.operand_bits_max"]
    for a in args:
        for v in (a if isinstance(a, list) else (a,)):
            b = v.bit_length()
            total += b
            if b > top:
                top = b
    counts["kernels.operand_bits"] += total
    counts["kernels.operand_bits_max"] = top


def _zero_denominator(counts: Counter, result) -> None:
    if result[0] != 0:
        counts["maps.zero_denominators"] += 1


def _verdict(counts: Counter, v) -> None:
    counts["analysis.points_checked"] += v.samples_checked
    counts["analysis.witnesses"] += v.witness is not None


def _dominance(counts: Counter, s) -> None:
    counts["analysis.points_checked"] += s.samples
    counts["analysis.witnesses"] += len(s.violations)
    counts["analysis.equality_points"] += len(s.equality_points)


def _bits(iv) -> int:
    return max(iv.lo.numerator.bit_length(), iv.lo.denominator.bit_length(),
               iv.hi.numerator.bit_length(), iv.hi.denominator.bit_length())


def _exact_trace(solver_name: str, growth: bool):
    def after(counts: Counter, trace) -> None:
        counts[f"solver.{solver_name}.iterations"] += trace.iterations
        bits = _bits(trace.final)
        if bits > counts["solver.endpoint_bits_max"]:
            counts["solver.endpoint_bits_max"] = bits
        if growth and trace.iterations >= 1:
            counts["growth.bits_after"] += bits
            counts["growth.bits_before"] += _bits(trace.intervals[-2])
    return after


def _float_trace(counts: Counter, trace) -> None:
    counts["solver.refine_float.iterations"] += trace.iterations


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each name its callers look up."""
    from root_enclose import _kernels, analysis, bench, cli, maps, solver

    def patch(owner, attr, name, before=None, after=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), before, after))

    for attr in ("sample_triples", "falsify_contraction",
                 "check_denominator_bounds", "check_dominance"):
        after = {"falsify_contraction": _verdict, "check_denominator_bounds": _verdict,
                 "check_dominance": _dominance}.get(attr)
        patch(analysis, attr, f"analysis.{attr}", after=after)
    patch(maps.MapEvaluator, "pair", "maps.MapEvaluator.pair")
    patch(analysis, "denominators", "maps.denominators")
    for owner in (analysis, solver):
        patch(owner, "pow_int", "numeric.pow_int")
    patch(analysis, "geom_sum", "numeric.geom_sum")
    for attr in ("apply_pairs", "apply_reduced_pairs"):
        patch(maps, attr, f"kernels.{attr}", _operand_bits, _zero_denominator)
    patch(maps, "form_pair", "kernels.form_pair", _operand_bits)
    # the pure kernels call form_pair through their own module; compiled
    # kernels call it inside C, where it cannot be seen
    if _kernels.BACKEND_NAME == "pure":
        patch(_kernels._pure, "form_pair", "kernels.form_pair", _operand_bits)
    patch(solver, "refine_float_loop", "kernels.refine_float_loop")
    for owner in (cli, bench):
        patch(owner, "refine_to_eps", "solver.refine_to_eps",
              after=_exact_trace("refine_to_eps", growth=True))
        patch(owner, "bisect_to_eps", "solver.bisect_to_eps",
              after=_exact_trace("bisect_to_eps", growth=False))
    for owner in (cli, bench, solver):
        patch(owner, "refine_float", "solver.refine_float", after=_float_trace)
    patch(cli, "main", "cli.main")
    patch(bench, "run_bench", "bench.run_bench")
