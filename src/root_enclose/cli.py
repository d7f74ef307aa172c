"""Command-line front door.

Subcommands: root, check, compare, locus, bench.

Exit codes: 0 success / property held, 1 property falsified (a witness is
printed), 2 usage or input error, among them a spec file that cannot be
read or is not JSON text and an --out or stdout that cannot be written.  All
rationals are read and written in the exact "a/b" text form; eps
additionally accepts the shorthand "1e-k" which expands to the exact
rational 1/10**k, for k up to MAX_EPS_EXPONENT.  The parsers check only
the text: a map argument is read by maps.map_argument, x and eps are
checked by the solver and a locus point by evaluate_locus.  Every rational is
written through ``format_rational``, so no process-wide setting (such as
the int-to-str digit limit) is touched, and the argument parser is built
once per process.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import analysis, bench
from .analysis import SampleConfig
from .maps import (
    DenominatorZeroError,
    MapCoefficients,
    apply_pair,
    check_canonical,
    map_argument,
    secant_newton,
)
from .numeric import format_pair, format_rational, parse_rational
from .solver import (
    DEFAULT_MAX_ITER,
    WIDTH_REACHED,
    NotContractingError,
    bisect_to_eps,
    refine_float,
    refine_to_eps,
)

_EPS_SHORTHAND = re.compile(r"1[eE]-([0-9]+)\Z")
# largest k the shorthand 1e-k expands; 10**k is built only up to it
MAX_EPS_EXPONENT = 1_000_000


def _parse_eps(text: str) -> Fraction:
    m = _EPS_SHORTHAND.match(text)
    if m:
        k = int(m.group(1))
        if k > MAX_EPS_EXPONENT:
            raise ValueError(f"the shorthand 1e-k takes k up to {MAX_EPS_EXPONENT}, got {text!r}")
        return Fraction(1, 10 ** k)
    return parse_rational(text)


def _argument(parse):
    """parse as an argparse type, which prints the text of its ValueError."""
    def argument(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return argument


def _check_out(path: str) -> None:
    """Reject, as _write would, an --out that is a directory or lies in a
    missing one, before the command's work; nothing is created."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent := os.path.dirname(path) or "."):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write(args, text):
    """Write text, one str or an iterable of str pieces, to --out or
    standard output, ending in a newline.  A failed write is an input
    error like an unreadable spec (exit 2): exit 1 is kept for a falsified
    property."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_pieces(fh, text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    else:
        try:
            _write_pieces(sys.stdout, text)
            sys.stdout.flush()
        except OSError as exc:
            _drop_stdout_buffer()
            raise ValueError(f"cannot write standard output: {exc}") from None


def _drop_stdout_buffer() -> None:
    # after a failed write (a reader that left, a full disk) the text still
    # buffered would fail again in the interpreter's flush at exit and print
    # a second error: flush it into devnull, then give fd 1 back, so a
    # caller that runs main in process keeps its stdout
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    saved = os.dup(fd)
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
        sys.stdout.flush()
    finally:
        os.dup2(saved, fd)
        os.close(null)
        os.close(saved)


def _write_pieces(fh, text) -> None:
    # each piece is written as it comes and the final newline on its own,
    # so a multi-MB text is never joined or copied to append it
    last = ""
    for piece in (text,) if isinstance(text, str) else text:
        fh.write(piece)
        last = piece or last
    if not last.endswith("\n"):
        fh.write("\n")


def _emit_json(args, payload) -> None:
    _write(args, json.dumps(payload, indent=2, sort_keys=True))


def _outputs_at(m: MapCoefficients, L, U, x):
    """The map's output at (L, U, x), or None where one of its denominator
    forms is zero, and Secant-Newton's output there."""
    try:
        ours = apply_pair(m, L, U, x)
    except DenominatorZeroError:
        ours = None
    return ours, apply_pair(secant_newton(m.n), L, U, x)


def _output_lines(ours, sn) -> list[str]:
    """The two outputs of _outputs_at, one line each."""
    text = lambda pair: "[{}, {}]".format(*map(format_rational, pair))
    mine = "none, a denominator is zero here" if ours is None else text(ours)
    return [f"map output:           {mine}", f"secant-newton output: {text(sn)}"]


def _witness_lines(m: MapCoefficients, w) -> list[str]:
    """Print a witness with everything needed to re-check it by hand."""
    f = format_rational
    lines = [f"witness: L={f(w.L)}  r={f(w.r)}  U={f(w.U)}  x={f(w.x)}"]
    if w.violated == "denominator-zero":
        try:
            apply_pair(m, w.L, w.U, w.x)
            lines.append("  (denominator no longer zero on re-evaluation?)")
        except DenominatorZeroError as exc:
            lines.append(f"  the {exc.side} denominator form is exactly 0 here")
        return lines
    if w.violated in ("L' <= L*", "U* <= U'"):
        lines += ["  " + ln for ln in _output_lines(*_outputs_at(m, w.L, w.U, w.x))]
    elif w.violated in ("L <= L'", "L' <= r", "r <= U'", "U' <= U"):
        lo, hi = apply_pair(m, w.L, w.U, w.x)
        lines.append(f"  L={f(w.L)}  L'={f(lo)}  r={f(w.r)}  U'={f(hi)}  U={f(w.U)}")
    # otherwise a denominator bound: lhs and rhs are the two forms it
    # compares, and the map may have no output at that point
    lines.append(f"  violated: {w.violated}  with lhs={f(w.lhs)}, rhs={f(w.rhs)}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_root(args) -> int:
    # None leaves Secant-Newton of degree n to the solver, which also
    # rejects a loaded map of another degree
    map_name = "secant-newton" if args.map is None else args.map
    m = None if map_name in ("secant-newton", "bisection") else map_argument(map_name)
    if args.backend == "float":
        if map_name == "bisection":
            raise ValueError("the float backend supports refinement maps only")
        if args.trace:
            raise ValueError("the float backend keeps no interval sequence for --trace")
        trace = refine_float(args.x, args.n, args.eps, m, max_iter=args.max_iter)
    elif map_name == "bisection":
        trace = bisect_to_eps(args.x, args.n, args.eps, max_iter=args.max_iter)
    else:
        trace = refine_to_eps(args.x, args.n, args.eps, m, max_iter=args.max_iter)
    payload = trace.to_json(include_intervals=True) if args.trace else trace.to_json()
    if args.json:
        payload.update({"backend": args.backend, "map": map_name,
                        "n": args.n, "x": format_rational(args.x),
                        "eps": format_rational(args.eps)})
        _emit_json(args, payload)
    else:
        lines = ["[{}, {}]".format(*payload["final_interval"]),
                 f"iterations: {payload['iterations']}",
                 f"terminated: {payload['terminated']}"]
        if args.trace:
            lines += [f"  iter {i}: [{lo}, {hi}] width={w}"
                      for i, ((lo, hi), w) in enumerate(zip(payload["intervals"],
                                                           payload["widths"]))]
        _write(args, "\n".join(lines))
    return 0 if trace.terminated == WIDTH_REACHED else 1


def cmd_check(args) -> int:
    m = map_argument(args.map_file)
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
            lines.append(f"  {name} must be {format_rational(req)}, "
                         f"got {format_rational(actual)}")
        lines.append("denominator bounds: skipped (map is not canonical)")
    lines.append(f"contraction: {verdict.outcome} "
                 f"({verdict.samples_checked} points)")
    if verdict.falsified:
        lines += ["  " + ln for ln in _witness_lines(m, verdict.witness)]
    _write(args, "\n".join(lines))
    return 1 if failed else 0


def cmd_compare(args) -> int:
    m = map_argument(args.map_file)
    cfg = SampleConfig(args.seed, args.samples)
    stats = analysis.check_dominance(m, cfg)
    # the exit code, the counts and the output come from the integer rows:
    # --json writes their text directly, and the text form builds only the
    # equality points and the witness it prints
    failed = 1 if stats.violation_rows else 0
    if args.json:
        _write(args, stats.json_pieces())
        return failed
    pct = lambda k: f"{100.0 * k / stats.samples:.1f}%"
    equal = len(stats.equality_rows)
    lines = [
        f"samples: {stats.samples}",
        f"subset (secant-newton output inside map output): "
        f"{stats.subset_count} ({pct(stats.subset_count)})",
        f"proper subset: {stats.proper_subset_count} "
        f"({pct(stats.proper_subset_count)})",
        f"equality points: {equal}",
    ]
    f = format_pair
    for ln, ld, rn, rd, un, ud in stats.equality_rows[:10]:
        lines.append(f"  (L, r, U) = ({f(ln, ld)}, {f(rn, rd)}, {f(un, ud)})")
    if equal > 10:
        lines.append(f"  ... {equal - 10} more")
    lines.append(f"violations: {len(stats.violation_rows)}")
    if failed:
        witness = analysis._witness(*stats.violation_rows[0])
        lines += ["  " + line for line in _witness_lines(m, witness)]
    _write(args, "\n".join(lines))
    return failed


def cmd_locus(args) -> int:
    m = map_argument(args.map_file)
    f_p, f_q = analysis.equality_locus(m)
    point = [v is not None for v in (args.L, args.U, args.x)]
    if any(point) and not all(point):
        raise ValueError("--L, --U and --x must be given together")
    at_point = all(point)
    if at_point:
        # evaluate_locus first: it rejects a point outside the domain
        vp, vq = analysis.evaluate_locus(m, args.L, args.U, args.x)
        ours, sn = _outputs_at(m, args.L, args.U, args.x)
    f = format_rational
    if args.json:
        payload = {
            "f_p": analysis.locus_text(f_p),
            "f_q": analysis.locus_text(f_q),
            "f_p_terms": [[i, j, k, f(c)] for (i, j, k), c in f_p.items()],
            "f_q_terms": [[i, j, k, f(c)] for (i, j, k), c in f_q.items()],
        }
        if at_point:
            payload["evaluation"] = {
                "L": f(args.L), "U": f(args.U), "x": f(args.x),
                "f_p": f(vp), "f_q": f(vq),
                "map_output": None if ours is None else [f(ours[0]), f(ours[1])],
                "secant_newton_output": [f(sn[0]), f(sn[1])],
                "outputs_coincide": None if ours is None else ours == sn,
            }
        _emit_json(args, payload)
        return 0
    lines = [f"f_p = {analysis.locus_text(f_p)}", f"f_q = {analysis.locus_text(f_q)}"]
    if at_point:
        lines.append(f"at (L, U, x) = ({f(args.L)}, {f(args.U)}, {f(args.x)}): "
                     f"f_p = {f(vp)}, f_q = {f(vq)}")
        lines += _output_lines(ours, sn)
        if ours is not None:
            lines.append("outputs coincide with secant-newton: "
                         + ("yes" if ours == sn else "no"))
    _write(args, "\n".join(lines))
    return 0


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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    Reuse is safe: no option has a mutable default, each parse fills a new
    namespace, and a usage error leaves the parser as it was.
    """
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
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--seed", type=int, default=0,
                         help="sampling seed (default: 0)")
    sampled.add_argument("--samples", type=int, default=10_000,
                         help="sample count for property checks")

    mapped = argparse.ArgumentParser(add_help=False)
    mapped.add_argument("map_file", help="map-spec file or 'counterexample'")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root", parents=[json_output],
                       help="compute an enclosure of the nth root of x")
    p.add_argument("--x", type=_argument(parse_rational), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_argument(_parse_eps), required=True,
                   help="width bound, e.g. 1/1000 or 1e-12")
    p.add_argument("--map", default=None,
                   help="map-spec file, 'secant-newton' (default), "
                        "'counterexample', or 'bisection'")
    p.add_argument("--backend", choices=("rational", "float"), default="rational")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--trace", action="store_true",
                   help="include the full interval sequence")
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("check", parents=[json_output, sampled, mapped],
                       help="canonical form, denominator bounds and "
                            "contraction falsifier for a map")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", parents=[json_output, sampled, mapped],
                       help="dominance statistics of secant-newton against "
                            "the given map")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("locus", parents=[json_output, mapped],
                       help="equality-locus polynomials of a canonical map, "
                            "optionally evaluated at a point with both "
                            "maps' outputs there")
    p.add_argument("--L", type=_argument(parse_rational), default=None)
    p.add_argument("--U", type=_argument(parse_rational), default=None)
    p.add_argument("--x", type=_argument(parse_rational), default=None)
    p.set_defaults(func=cmd_locus)

    p = sub.add_parser("bench", parents=[output],
                       help="run a convergence/timing benchmark")
    p.add_argument("spec_file", nargs="?", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (DenominatorZeroError, NotContractingError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # MapSpecError and BenchSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
