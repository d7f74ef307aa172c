"""Self-test of the benchmark's checkers: each must accept a correct output
and count a corrupted one as failed.

    python3 perfbench/selftest.py

``run.py`` runs it before every measurement, so a checker that stopped
catching bad output cannot report a correct run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from root_enclose import analysis, maps, solver  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _root_cases():
    x, n, eps = Fraction(2), 2, "1e-50"
    good = solver.refine_to_eps(x, n, Fraction(1, 10 ** 50)).to_json()
    good.update({"map": "secant-newton", "n": n, "x": str(x), "eps": eps})
    lo = Fraction(3, 2)
    hi = lo + Fraction(1, 10 ** 60)  # narrow enough, but sqrt(2) < 3/2
    bad = dict(good, final_interval=[str(lo), str(hi)], final_width=str(hi - lo))
    args = ("secant-newton", n, eps, x)
    yield "root: correct enclosure", checks.check_root(*args, 0, json.dumps(good)), False
    yield "root: non-enclosing interval", checks.check_root(*args, 0, json.dumps(bad)), True


def _check_cases():
    n = 3
    contracting = maps.map_from_dict(workloads.COUNTEREXAMPLE_SPEC | {
        "p": ["-1", "0", "0", "0", "2", "1", "1"]})
    noncanonical = maps.map_from_dict({"n": n, "p": ["-1", "1", "0", "0", "1", "1", "1"],
                                       "q": ["-1", "0", "0", "0", "3", "0", "0"]})
    verdict = analysis.falsify_contraction(noncanonical, analysis.SampleConfig(count=100))
    nc_out = {"canonical": maps.check_canonical(noncanonical).to_json(),
              "denominator_bounds": None, "contraction": verdict.to_json()}
    passed = {"outcome": checks.PASSED, "samples_checked": workloads.SAMPLES, "witness": None}
    good = {"canonical": {"is_canonical": True, "violations": []},
            "denominator_bounds": passed, "contraction": passed}
    flipped_nc = dict(nc_out, contraction=passed)
    flipped_c = dict(good, contraction=verdict.to_json())
    yield ("check: falsified non-canonical map",
           checks.check_check("noncanonical", noncanonical, 1, json.dumps(nc_out)), False)
    yield ("check: passing contracting map",
           checks.check_check("contracting", contracting, 0, json.dumps(good)), False)
    yield ("check: non-canonical verdict flipped to passed",
           checks.check_check("noncanonical", noncanonical, 0, json.dumps(flipped_nc)), True)
    yield ("check: contracting verdict flipped to falsified",
           checks.check_check("contracting", contracting, 1, json.dumps(flipped_c)), True)


def _float_cases():
    x, n = 2.0, 2
    t = solver.refine_float(x, n, workloads.FLOAT_EPS)
    yield "float: converged result", checks.check_float(n, x, t.lo, t.hi), False
    yield "float: result shifted by 1e-6", checks.check_float(n, x, t.lo + 1e-6, t.hi + 1e-6), True


def run() -> list[str]:
    """Names of the cases whose checker gave the wrong answer."""
    wrong = []
    for cases in (_root_cases(), _check_cases(), _float_cases()):
        for name, problem, should_fail in cases:
            if (problem is not None) != should_fail:
                wrong.append(f"{name}: checker said {problem or 'ok'}")
    return wrong


if __name__ == "__main__":
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    wrong = run()
    for line in wrong:
        print(line)
    print("checker self-test:", "FAILED" if wrong else "ok")
    sys.exit(1 if wrong else 0)
