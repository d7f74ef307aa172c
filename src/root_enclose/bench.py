"""Reproducible convergence and timing comparisons across maps and baselines.

A bench specification lists maps (by name or map-spec file path), x values,
degrees, width bounds, a backend and a repetition count; the runner produces
one row per (map, x, n, eps, repetition) in that nesting order.  Iteration
counts are deterministic per configuration; wall times are reported for
every repetition, never averaged.

Rational-backend timings are arithmetic-bound: big-integer products on
endpoints of at most about bits(1/eps) bits (the refinement loop rounds onto
a lattice of k_j = min(bits(1/eps) + 16, 2*bits(1/width_j) + 32) bits,
which follows the width of step j, and bisection's endpoints grow one bit a
step), which is why the float backend exists alongside.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .maps import (
    DenominatorZeroError,
    MapCoefficients,
    check_degree,
    counterexample_map,
    load_map,
)
from .numeric import describe, format_rational, parse_int, parse_rational
from .solver import (
    DEFAULT_MAX_ITER,
    NotContractingError,
    bisect_float,
    bisect_to_eps,
    refine_float,
    refine_to_eps,
)

CSV_HEADER = "map,backend,n,x,eps,iterations,final_width,wall_time_ns"
_FIELDS = CSV_HEADER.split(",")

NAMED_MAPS = ("secant-newton", "bisection", "counterexample")
BACKENDS = ("rational", "float")


class BenchSpecError(ValueError):
    """Malformed bench specification."""


@dataclass(frozen=True)
class BenchSpec:
    maps: tuple[str, ...]
    xs: tuple[Fraction, ...]
    ns: tuple[int, ...]
    epses: tuple[Fraction, ...]
    backend: str = "rational"
    reps: int = 5


@dataclass(frozen=True)
class BenchRow:
    map_name: str
    backend: str
    n: int
    x: Fraction
    eps: Fraction
    iterations: int
    final_width: str
    wall_time_ns: int

    def to_json(self) -> dict:
        return {
            "map": self.map_name,
            "backend": self.backend,
            "n": self.n,
            "x": format_rational(self.x),
            "eps": format_rational(self.eps),
            "iterations": self.iterations,
            "final_width": self.final_width,
            "wall_time_ns": self.wall_time_ns,
        }


def default_spec() -> BenchSpec:
    """Secant-Newton against bisection on the square root of 2."""
    return BenchSpec(
        maps=("secant-newton", "bisection"),
        xs=(Fraction(2),),
        ns=(2,),
        epses=(Fraction(1, 1000),),
        backend="rational",
        reps=5,
    )


def _spec_rational(value) -> Fraction:
    """An xs or epses entry: a rational string or a JSON integer of any size."""
    if type(value) is int:
        return Fraction(value)
    return parse_rational(value)


def spec_from_dict(data) -> BenchSpec:
    if not isinstance(data, dict):
        raise BenchSpecError("bench spec must be a JSON object")
    unknown = sorted(set(data) - {"maps", "xs", "ns", "epses", "backend", "reps"})
    if unknown:
        raise BenchSpecError(f"unknown fields in bench spec: {', '.join(unknown)}")

    def listing(key):
        value = data.get(key)
        if not isinstance(value, list) or not value:
            raise BenchSpecError(f"{key} must be a non-empty array")
        return value

    try:
        xs = tuple(_spec_rational(v) for v in listing("xs"))
        epses = tuple(_spec_rational(v) for v in listing("epses"))
        ns = listing("ns")
        for n in ns:
            check_degree(n)
    except ValueError as exc:
        raise BenchSpecError(str(exc)) from None
    if any(x <= 0 for x in xs):
        raise BenchSpecError("xs must be positive")
    if any(e <= 0 for e in epses):
        raise BenchSpecError("epses must be positive")
    maps = listing("maps")
    if not all(isinstance(name, str) for name in maps):
        raise BenchSpecError("maps must be names or file paths")
    backend = data.get("backend", "rational")
    if backend not in BACKENDS:
        raise BenchSpecError(f"backend must be one of {BACKENDS}, got {describe(backend)}")
    if backend == "float":
        try:
            finite = all(0 < float(v) < float("inf") for v in xs + epses)
        except OverflowError:
            finite = False
        if not finite:
            raise BenchSpecError("float backend: xs and epses must be positive finite floats")
    reps = data.get("reps", 5)
    if isinstance(reps, bool) or not isinstance(reps, int) or reps < 1:
        raise BenchSpecError(f"reps must be a positive integer, got {describe(reps)}")
    return BenchSpec(tuple(maps), xs, tuple(ns), epses, backend, reps)


def load_spec(path) -> BenchSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise BenchSpecError(f"cannot read bench spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BenchSpecError(f"bench spec {path} is not valid JSON: {exc}") from None
    return spec_from_dict(data)


def _resolve_maps(spec: BenchSpec) -> list[tuple[str, object]]:
    """Resolve map names eagerly so bad input fails before any run.

    The resolver slot is "secant-newton" or "bisection" for the parametric
    methods (instantiated per row degree), or a concrete MapCoefficients.
    """
    entries = []
    for name in spec.maps:
        if name in ("secant-newton", "bisection"):
            entries.append((name, name))
        elif name == "counterexample":
            entries.append((name, counterexample_map()))
        elif name.endswith(".json"):
            entries.append((name, load_map(name)))
        else:
            raise BenchSpecError(
                f"unknown map name {name!r} (named maps: {', '.join(NAMED_MAPS)}; "
                "anything else must be a .json map-spec path)"
            )
    return entries


def _run(resolver, backend: str, x, n, eps):
    """(iterations, final_width_text) for one row."""
    if backend == "rational":
        bisect, refine = bisect_to_eps, refine_to_eps
    else:
        bisect, refine = bisect_float, refine_float
        x, eps = float(x), float(eps)
    try:
        if resolver == "bisection":
            trace = bisect(x, n, eps)
        elif resolver == "secant-newton":
            trace = refine(x, n, eps)
        elif resolver.n != n:
            return 0, "n-mismatch"
        else:
            trace = refine(x, n, eps, resolver)
    except DenominatorZeroError as exc:
        return exc.iteration or 0, "denominator-zero"
    except NotContractingError as exc:
        return exc.iteration, "not-contracting"
    if backend == "rational":
        return trace.iterations, format_rational(trace.final.width)
    if trace.terminated == "non-finite":
        return trace.iterations, "non-finite"
    return trace.iterations, repr(trace.width)


def run_bench(spec: BenchSpec) -> list[BenchRow]:
    """One row per (map, x, n, eps, repetition), nested in that order.

    Per-row failures (zero denominator, not contracting, degree mismatch,
    non-finite floats) are recorded in the final_width column and do not
    abort the run; rows that hit the iteration cap report
    iterations == max_iter with the width actually reached.
    """
    entries = _resolve_maps(spec)
    rows = []
    for name, resolver in entries:
        for x in spec.xs:
            for n in spec.ns:
                for eps in spec.epses:
                    for _ in range(spec.reps):
                        start = time.perf_counter_ns()
                        iters, widest = _run(resolver, spec.backend, x, n, eps)
                        wall = time.perf_counter_ns() - start
                        rows.append(BenchRow(
                            name, spec.backend, n, x, eps, iters, widest, wall))
    return rows


def emit(rows, fmt: str = "csv") -> str:
    """Render rows as CSV (fixed 8-column header) or a JSON array."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_FIELDS)
        for row in rows:
            cells = row.to_json()
            writer.writerow([cells[field] for field in _FIELDS])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps([row.to_json() for row in rows], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")

