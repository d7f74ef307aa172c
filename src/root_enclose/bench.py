"""Reproducible convergence and timing comparisons across maps and baselines.

A bench specification lists maps (by name or map-spec file path), x values,
degrees, width bounds, a backend and a repetition count; the runner produces
one row per (map, x, n, eps, repetition) in that nesting order.  Maps are
read by maps.map_argument, as root --map reads them, and every x and eps is
checked by its backend's solver check, all before any row runs.  Iteration
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

from .maps import DenominatorZeroError, check_degree, map_argument, read_spec
from .numeric import describe, format_rational, is_int, parse_rational
from .solver import (
    NON_FINITE,
    NotContractingError,
    bisect_float,
    bisect_to_eps,
    float_inputs,
    rational_inputs,
    refine_float,
    refine_to_eps,
)

CSV_HEADER = "map,backend,n,x,eps,iterations,final_width,wall_time_ns"
_FIELDS = CSV_HEADER.split(",")

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
    maps = listing("maps")
    if not all(isinstance(name, str) for name in maps):
        raise BenchSpecError("maps must be names or file paths")
    backend = data.get("backend", BenchSpec.backend)
    if backend not in BACKENDS:
        raise BenchSpecError(f"backend must be one of {BACKENDS}, got {describe(backend)}")
    # every row's x and eps, checked as its solver checks them
    inputs = rational_inputs if backend == "rational" else float_inputs
    try:
        for x in xs:
            for eps in epses:
                inputs(x, eps)
    except ValueError as exc:
        raise BenchSpecError(str(exc)) from None
    reps = data.get("reps", BenchSpec.reps)
    if not is_int(reps) or reps < 1:
        raise BenchSpecError(f"reps must be a positive integer, got {describe(reps)}")
    return BenchSpec(tuple(maps), xs, tuple(ns), epses, backend, reps)


def load_spec(path) -> BenchSpec:
    return spec_from_dict(read_spec(path, "bench", BenchSpecError))


def _resolve_maps(spec: BenchSpec) -> list[tuple[str, object]]:
    """Resolve map names eagerly so bad input fails before any run: with the
    float backend, a map with a coefficient beyond the float range is
    rejected here, as an x or eps is by spec_from_dict, by building the
    float terms (MapCoefficients.float_sides) that its rows then read.

    The resolver slot is "secant-newton" or "bisection" for the parametric
    methods (instantiated per row degree), or a concrete MapCoefficients.
    """
    entries = []
    for name in spec.maps:
        if name in ("secant-newton", "bisection"):
            entries.append((name, name))
            continue
        m = map_argument(name)
        if spec.backend == "float":
            try:
                m.float_sides
            except ValueError as exc:
                raise BenchSpecError(f"float backend: map {name}: {exc}") from None
        entries.append((name, m))
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
    if trace.terminated == NON_FINITE:
        return trace.iterations, NON_FINITE
    return trace.iterations, trace.to_json()["final_width"]


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

