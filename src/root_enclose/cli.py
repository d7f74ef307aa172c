"""Command-line front door.

Subcommands: root, check, compare, locus, counterexample, bench.

Exit codes: 0 success / property held, 1 property falsified (a witness is
printed), 2 usage or input error.  All rationals are read and written in the
exact "a/b" text form; eps additionally accepts the shorthand "1e-k" which
expands to the exact rational 1/10**k.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import analysis, bench
from .analysis import SampleConfig
from .maps import (
    DenominatorZeroError,
    MapCoefficients,
    MapSpecError,
    apply_pair,
    check_canonical,
    counterexample_map,
    load_map,
    secant_newton,
)
from .numeric import parse_rational
from .solver import (
    DEFAULT_MAX_ITER,
    NotContractingError,
    bisect_to_eps,
    refine_float,
    refine_to_eps,
)

_EPS_SHORTHAND = re.compile(r"1[eE]-([0-9]+)\Z")


def _parse_eps(text: str) -> Fraction:
    m = _EPS_SHORTHAND.match(text)
    if m:
        return Fraction(1, 10 ** int(m.group(1)))
    value = parse_rational(text)
    if value <= 0:
        raise ValueError(f"eps must be positive, got {text!r}")
    return value


def _parse_positive_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ValueError(f"expected a positive rational, got {text!r}")
    return value


def _load_map_argument(text: str) -> MapCoefficients:
    if text == "counterexample":
        return counterexample_map()
    return load_map(text)


def _write(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _write(args, json.dumps(payload, indent=2, sort_keys=True))


def _witness_lines(m: MapCoefficients, w) -> list[str]:
    """Print a witness with everything needed to re-check it by hand."""
    lines = [f"witness: L={w.L}  r={w.r}  U={w.U}  x={w.x}"]
    if w.violated == "denominator-zero":
        try:
            apply_pair(m, w.L, w.U, w.x)
            lines.append("  (denominator no longer zero on re-evaluation?)")
        except DenominatorZeroError as exc:
            lines.append(f"  the {exc.side} denominator form is exactly 0 here")
        return lines
    if w.violated in ("L' <= L*", "U* <= U'"):
        mlo, mhi = apply_pair(m, w.L, w.U, w.x)
        slo, shi = apply_pair(secant_newton(m.n), w.L, w.U, w.x)
        lines.append(f"  map output:           [{mlo}, {mhi}]")
        lines.append(f"  secant-newton output: [{slo}, {shi}]")
    elif w.violated in ("L <= L'", "L' <= r", "r <= U'", "U' <= U"):
        lo, hi = apply_pair(m, w.L, w.U, w.x)
        lines.append(f"  L={w.L}  L'={lo}  r={w.r}  U'={hi}  U={w.U}")
    # otherwise a denominator bound: lhs and rhs are the two forms it
    # compares, and the map may have no output at that point
    lines.append(f"  violated: {w.violated}  with lhs={w.lhs}, rhs={w.rhs}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_root(args) -> int:
    x = args.x
    if args.map is None or args.map == "secant-newton":
        m = secant_newton(args.n)
        map_name = "secant-newton"
    elif args.map == "bisection":
        m = None
        map_name = "bisection"
    else:
        m = _load_map_argument(args.map)
        map_name = args.map
        if m.n != args.n:
            raise ValueError(f"map degree {m.n} does not match --n {args.n}")

    if args.backend == "float":
        if map_name == "bisection":
            raise ValueError("the float backend supports refinement maps only")
        if args.trace:
            raise ValueError("the float backend keeps no interval sequence for --trace")
        trace = refine_float(x, args.n, args.eps, m, max_iter=args.max_iter)
        ok = trace.terminated == "width-reached"
        if args.json:
            payload = trace.to_json()
            payload.update({"backend": "float", "map": map_name,
                            "n": args.n, "x": str(x), "eps": str(args.eps)})
            _emit_json(args, payload)
        else:
            _write(args, f"[{trace.lo!r}, {trace.hi!r}]\n"
                         f"iterations: {trace.iterations}\n"
                         f"terminated: {trace.terminated}")
        return 0 if ok else 1

    if map_name == "bisection":
        trace = bisect_to_eps(x, args.n, args.eps, max_iter=args.max_iter)
    else:
        trace = refine_to_eps(x, args.n, args.eps, m, max_iter=args.max_iter)
    ok = trace.terminated == "width-reached"
    if args.json:
        payload = trace.to_json(include_intervals=args.trace)
        payload.update({"backend": "rational", "map": map_name,
                        "n": args.n, "x": str(x), "eps": str(args.eps)})
        _emit_json(args, payload)
    else:
        lines = [str(trace.final),
                 f"iterations: {trace.iterations}",
                 f"terminated: {trace.terminated}"]
        if args.trace:
            lines += [f"  iter {i}: {iv} width={w}"
                      for i, (iv, w) in enumerate(zip(trace.intervals, trace.widths))]
        _write(args, "\n".join(lines))
    return 0 if ok else 1


def cmd_check(args) -> int:
    m = load_map(args.map_file)
    cfg = SampleConfig(args.seed, args.samples)
    report = check_canonical(m)
    bounds, verdict = analysis.check_map(m, cfg)

    failed = verdict.falsified or (bounds is not None and bounds.falsified)
    if args.json:
        _emit_json(args, {
            "canonical": report.to_json(),
            "denominator_bounds": bounds.to_json() if bounds else None,
            "contraction": verdict.to_json(),
        })
        return 1 if failed else 0

    lines = []
    if report.is_canonical:
        lines.append("canonical form: yes")
        lines.append(f"denominator bounds: {bounds.outcome} "
                     f"({bounds.samples_checked} pairs)")
        if bounds.falsified:
            lines += ["  " + ln for ln in _witness_lines(m, bounds.witness)]
    else:
        lines.append("canonical form: NO")
        for name, req, actual in report.violations:
            lines.append(f"  {name} must be {req}, got {actual}")
        lines.append("denominator bounds: skipped (map is not canonical)")
    lines.append(f"contraction: {verdict.outcome} "
                 f"({verdict.samples_checked} points)")
    if verdict.falsified:
        lines += ["  " + ln for ln in _witness_lines(m, verdict.witness)]
    _write(args, "\n".join(lines))
    return 1 if failed else 0


def cmd_compare(args) -> int:
    m = load_map(args.map_file)
    cfg = SampleConfig(args.seed, args.samples)
    stats = analysis.check_dominance(m, cfg)
    if args.json:
        _emit_json(args, stats.to_json())
        return 1 if stats.violations else 0
    pct = lambda k: f"{100.0 * k / stats.samples:.1f}%"
    lines = [
        f"samples: {stats.samples}",
        f"subset (secant-newton output inside map output): "
        f"{stats.subset_count} ({pct(stats.subset_count)})",
        f"proper subset: {stats.proper_subset_count} "
        f"({pct(stats.proper_subset_count)})",
        f"equality points: {len(stats.equality_points)}",
    ]
    for L, r, U in stats.equality_points[:10]:
        lines.append(f"  (L, r, U) = ({L}, {r}, {U})")
    if len(stats.equality_points) > 10:
        lines.append(f"  ... {len(stats.equality_points) - 10} more")
    lines.append(f"violations: {len(stats.violations)}")
    if stats.violations:
        lines += ["  " + ln for ln in _witness_lines(m, stats.violations[0])]
    _write(args, "\n".join(lines))
    return 1 if stats.violations else 0


def cmd_locus(args) -> int:
    m = load_map(args.map_file)
    if not check_canonical(m).is_canonical:
        raise ValueError("the equality locus is defined for canonical maps only")
    f_p, f_q = analysis.equality_locus(m)
    point = [v is not None for v in (args.L, args.U, args.x)]
    if any(point) and not all(point):
        raise ValueError("--L, --U and --x must be given together")
    evaluation = None
    if all(point):
        vp, vq = analysis.evaluate_locus(m, args.L, args.U, args.x)
        coincide = None
        try:
            ours = apply_pair(m, args.L, args.U, args.x)
            sn = apply_pair(secant_newton(m.n), args.L, args.U, args.x)
            coincide = ours == sn
        except DenominatorZeroError:
            pass
        evaluation = (vp, vq, coincide)
    if args.json:
        payload = {
            "f_p": str(f_p),
            "f_q": str(f_q),
            "f_p_terms": [[i, j, k, str(c)] for (i, j, k), c in sorted(f_p.terms().items())],
            "f_q_terms": [[i, j, k, str(c)] for (i, j, k), c in sorted(f_q.terms().items())],
        }
        if evaluation:
            vp, vq, coincide = evaluation
            payload["evaluation"] = {
                "L": str(args.L), "U": str(args.U), "x": str(args.x),
                "f_p": str(vp), "f_q": str(vq),
                "outputs_coincide": coincide,
            }
        _emit_json(args, payload)
        return 0
    lines = [f"f_p = {f_p}", f"f_q = {f_q}"]
    if evaluation:
        vp, vq, coincide = evaluation
        lines.append(f"at (L, U, x) = ({args.L}, {args.U}, {args.x}): "
                     f"f_p = {vp}, f_q = {vq}")
        if coincide is None:
            lines.append("outputs: a denominator is zero here, nothing to compare")
        else:
            lines.append("outputs coincide with secant-newton: "
                         + ("yes" if coincide else "no"))
    _write(args, "\n".join(lines))
    return 0


def cmd_counterexample(args) -> int:
    if args.unrepaired_q0:
        m = counterexample_map(repair_q0=False)
        cfg = SampleConfig(args.seed, count=200)
        verdict = analysis.falsify_contraction(m, cfg)
        lines = [
            "unrepaired variant: q0 = +1 instead of -1",
            "no contracting map can have q0 != -1; the corner probe at "
            "x = U^n exposes it:",
        ]
        if verdict.falsified:
            lines += _witness_lines(m, verdict.witness)
        else:
            lines.append("unexpectedly found no witness")
        if args.json:
            _emit_json(args, {"unrepaired_q0": True,
                              "contraction": verdict.to_json()})
        else:
            _write(args, "\n".join(lines))
        return 1 if verdict.falsified else 0

    m = counterexample_map()
    sn = secant_newton(3)
    L, U = Fraction(1), Fraction(2)
    x = Fraction(27, 8)
    ours = apply_pair(m, L, U, x)
    theirs = apply_pair(sn, L, U, x)
    vp, vq = analysis.evaluate_locus(m, L, U, x)
    equal = ours == theirs and (vp, vq) == (0, 0)
    payload = {
        "map": m.to_json(),
        "point": {"L": str(L), "U": str(U), "x": str(x)},
        "map_output": [str(ours[0]), str(ours[1])],
        "secant_newton_output": [str(theirs[0]), str(theirs[1])],
        "locus": [str(vp), str(vq)],
        "identical": equal,
    }
    lines = [
        f"map:            p = ({', '.join(str(c) for c in m.p)})",
        f"                q = ({', '.join(str(c) for c in m.q)})",
        f"at ([{L}, {U}], x = {x}):",
        f"  map output:           [{ours[0]}, {ours[1]}]",
        f"  secant-newton output: [{theirs[0]}, {theirs[1]}]",
        f"  equality locus value: ({vp}, {vq})",
        f"  identical: {'yes' if equal else 'NO'}",
        "a map other than secant-newton can reproduce its interval exactly, "
        "but only on a measure-zero set of points",
    ]
    if args.locus:
        f_p, f_q = analysis.equality_locus(m)
        payload["f_p"] = str(f_p)
        payload["f_q"] = str(f_q)
        lines.append(f"f_p = {f_p}")
        lines.append(f"f_q = {f_q}")
    if args.json:
        _emit_json(args, payload)
    else:
        _write(args, "\n".join(lines))
    return 0 if equal else 1


def cmd_bench(args) -> int:
    if args.spec_file:
        spec = bench.load_spec(args.spec_file)
    else:
        spec = bench.default_spec()
    rows = bench.run_bench(spec)
    _write(args, bench.emit(rows, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="root-enclose",
        description="Guaranteed rational enclosures of nth roots via interval "
                    "refinement maps, plus exact property checks for the whole "
                    "map family.",
    )
    # each subcommand gets only the options it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to a file")
    json_output = argparse.ArgumentParser(add_help=False, parents=[output])
    json_output.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default: 0)")
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sampled.add_argument("--samples", type=int, default=10_000,
                         help="sample count for property checks")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root", parents=[json_output],
                       help="compute an enclosure of the nth root of x")
    p.add_argument("--x", type=_parse_positive_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, required=True,
                   help="width bound, e.g. 1/1000 or 1e-12")
    p.add_argument("--map", default=None,
                   help="map-spec file, 'secant-newton' (default), "
                        "'counterexample', or 'bisection'")
    p.add_argument("--backend", choices=("rational", "float"), default="rational")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--trace", action="store_true",
                   help="include the full interval sequence")
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("check", parents=[json_output, sampled],
                       help="canonical form, denominator bounds and "
                            "contraction falsifier for a map-spec file")
    p.add_argument("map_file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", parents=[json_output, sampled],
                       help="dominance statistics of secant-newton against "
                            "the given map")
    p.add_argument("map_file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("locus", parents=[json_output],
                       help="equality-locus polynomials of a canonical map, "
                            "optionally evaluated at a point")
    p.add_argument("map_file")
    p.add_argument("--L", type=_parse_positive_rational, default=None)
    p.add_argument("--U", type=_parse_positive_rational, default=None)
    p.add_argument("--x", type=_parse_positive_rational, default=None)
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("counterexample", parents=[json_output, seeded],
                       help="reproduce the bundled equality-point "
                            "counterexample exactly")
    p.add_argument("--locus", action="store_true",
                   help="also print the locus polynomials")
    p.add_argument("--unrepaired-q0", action="store_true",
                   help="use the q0 = +1 variant and show the corner "
                        "diagnostic that rejects it")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("bench", parents=[output],
                       help="run a convergence/timing benchmark")
    p.add_argument("spec_file", nargs="?", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    # deep exact refinements print endpoints with more digits than the
    # interpreter's default int-to-str conversion guard allows; the guard is
    # raised for this call only, and never lowered
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if previous:
        sys.set_int_max_str_digits(max(previous, 2_000_000))
    try:
        return _run(argv)
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MapSpecError, bench.BenchSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DenominatorZeroError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except NotContractingError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
