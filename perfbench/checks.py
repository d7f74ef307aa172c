"""Exact checks of every operation's output.

Each checker takes what one operation produced and returns None when it is
correct, or a one-line reason when it is not.  Rationals are re-parsed from
the JSON text and every inequality is re-evaluated exactly; witnesses are
re-derived through the evaluator behind ``maps.apply_pair`` rather than
trusted.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from fractions import Fraction

from root_enclose import maps

from workloads import SAMPLES

PASSED = "passed-on-samples"
FALSIFIED = "falsified"


def _q(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _eps(text: str) -> Fraction:
    return Fraction(1, 10 ** int(text[3:])) if text.startswith("1e-") else Fraction(text)


def check_root(method: str, n: int, eps: str, x: Fraction, rc, text: str):
    """`root --json`: width reached, width <= eps, lo^n <= x <= hi^n exactly."""
    if rc != 0:
        return f"exit code {rc}"
    d = json.loads(text)
    if d.get("terminated") != "width-reached":
        return f"terminated {d.get('terminated')!r}"
    if d.get("map") != method or d.get("n") != n or _q(d.get("x")) != x:
        return "output describes another call"
    lo, hi = (_q(v) for v in d["final_interval"])
    width = hi - lo
    if _q(d["final_width"]) != width:
        return "final_width is not hi - lo"
    if not 0 < lo <= hi:
        return f"not an interval: [{lo}, {hi}]"
    if width > _eps(eps):
        return "width exceeds eps"
    if not lo ** n <= x <= hi ** n:
        return "interval does not enclose the root"
    return None


# the default bench: secant-newton and bisection on sqrt(2) to 1/1000
BENCH_ITERATIONS = {"secant-newton": 3, "bisection": 10}


def check_bench(rc, text: str):
    """Default `bench` CSV: 3 iterations against 10, width <= 1/1000."""
    if rc != 0:
        return f"exit code {rc}"
    rows = list(csv.DictReader(io.StringIO(text)))
    if sorted(r["map"] for r in rows) != ["bisection"] * 5 + ["secant-newton"] * 5:
        return "unexpected bench rows"
    for r in rows:
        if int(r["iterations"]) != BENCH_ITERATIONS[r["map"]]:
            return f"{r['map']} took {r['iterations']} iterations"
        if _q(r["final_width"]) > Fraction(1, 1000):
            return f"{r['map']} width {r['final_width']} exceeds 1/1000"
    return None


def check_float(n: int, x: float, lo: float, hi: float):
    """refine_float: both endpoints' nth powers within 1e-9*x of x."""
    tol = 1e-9 * x
    if not abs(lo ** n - x) <= tol:
        return f"|lo^n - x| = {abs(lo ** n - x)!r} exceeds {tol!r}"
    if not abs(hi ** n - x) <= tol:
        return f"|hi^n - x| = {abs(hi ** n - x)!r} exceeds {tol!r}"
    return None


def _secant_form(L, U, n):
    return sum(L ** (n - 1 - i) * U ** i for i in range(n))


@functools.lru_cache(maxsize=None)
def _pair(m: maps.MapCoefficients):
    """``maps.apply_pair`` for one map, with its evaluator built once."""
    return maps.MapEvaluator(m).pair


@functools.lru_cache(maxsize=None)
def _secant_newton_pair(n: int):
    return _pair(maps.secant_newton(n))


def recheck_witness(m: maps.MapCoefficients, w: dict):
    """Re-derive one witness exactly; None when it shows a real violation."""
    L, r, U, x = (_q(w[k]) for k in ("L", "r", "U", "x"))
    lhs, rhs = _q(w["lhs"]), _q(w["rhs"])
    if not (0 < L <= r <= U and x == r ** m.n):
        return "witness is not a sample point with x = r^n"
    kind = w["violated"]
    if kind == "denominator-zero":
        try:
            _pair(m)(L, U, x)
        except maps.DenominatorZeroError:
            return None
        return "denominator is not zero at the witness"
    if kind == "p-denominator >= secant form":
        dp, _ = maps.denominators(m, L, U)
        ok = lhs == dp and rhs == _secant_form(L, U, m.n) and lhs < rhs
    elif kind == "q-denominator >= n*U^(n-1)":
        _, dq = maps.denominators(m, L, U)
        ok = lhs == dq and rhs == m.n * U ** (m.n - 1) and lhs < rhs
    elif kind in ("L' <= L*", "U* <= U'"):
        mlo, mhi = _pair(m)(L, U, x)
        slo, shi = _secant_newton_pair(m.n)(L, U, x)
        want = (mlo, slo) if kind == "L' <= L*" else (shi, mhi)
        ok = (lhs, rhs) == want and lhs > rhs
    else:
        lo, hi = _pair(m)(L, U, x)
        want = {"L <= L'": (L, lo), "L' <= r": (lo, r),
                "r <= U'": (r, hi), "U' <= U": (hi, U)}.get(kind)
        ok = want is not None and (lhs, rhs) == want and lhs > rhs
    return None if ok else f"witness for {kind!r} does not re-check"


def _verdict_problem(m, v):
    """Shape of one verdict, and its witness re-checked when falsified."""
    if v["outcome"] == PASSED:
        if v["witness"] is not None:
            return "passing verdict carries a witness"
        if v["samples_checked"] != SAMPLES:
            return f"passed on {v['samples_checked']} of {SAMPLES} samples"
        return None
    if v["outcome"] != FALSIFIED or v["witness"] is None:
        return f"malformed verdict {v['outcome']!r}"
    return recheck_witness(m, v["witness"])


def check_check(kind: str, m: maps.MapCoefficients, rc, text: str):
    """`check --json` against what the generated map is known to be."""
    d = json.loads(text)
    canonical = d["canonical"]["is_canonical"]
    bounds, contraction = d["denominator_bounds"], d["contraction"]
    if canonical != (kind != "noncanonical"):
        return f"canonical form reported as {canonical}"
    if canonical == (bounds is None):
        return "denominator bounds run exactly on canonical maps"
    verdicts = [v for v in (bounds, contraction) if v is not None]
    for v in verdicts:
        problem = _verdict_problem(m, v)
        if problem:
            return problem
    falsified = any(v["outcome"] == FALSIFIED for v in verdicts)
    if rc != (1 if falsified else 0):
        return f"exit code {rc} does not match the verdicts"
    if kind in ("secant-newton", "contracting") and falsified:
        return "a contracting map was falsified"
    if kind == "noncanonical" and contraction["outcome"] != FALSIFIED:
        return "a non-canonical map passed contraction"
    if kind == "counterexample" and not falsified:
        return "the counterexample map was not falsified"
    return None


def check_compare(kind: str, m: maps.MapCoefficients, rc, text: str):
    """`compare --json`: counts add up, every violation re-checks, and
    contracting maps have none."""
    d = json.loads(text)
    samples, subset = d["samples"], d["subset_count"]
    violations = d["violations"]
    if samples != SAMPLES or subset + len(violations) != samples:
        return "subset_count + violations != samples"
    if not 0 <= d["proper_subset_count"] <= subset:
        return "proper subsets exceed subsets"
    if rc != (1 if violations else 0):
        return f"exit code {rc} does not match the violations"
    if kind in ("secant-newton", "contracting") and violations:
        return "a contracting map has dominance violations"
    if kind in ("noncanonical", "counterexample") and not violations:
        return "no dominance violations found"
    if kind == "secant-newton" and len(d["equality_points"]) != samples:
        return "secant-newton is not equal to itself everywhere"
    for w in violations:
        problem = recheck_witness(m, w)
        if problem:
            return problem
    return None
