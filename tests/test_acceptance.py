"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured runtime (run with -s to see them).

Every comparison in here is exact rational equality; the only tolerances
are the per-criterion runtime budgets.
"""

import random
import time
from fractions import Fraction as F

from root_enclose.analysis import (
    SampleConfig,
    check_denominator_bounds,
    check_dominance,
    evaluate_locus,
    falsify_contraction,
    perturbed_contracting_map,
    random_canonical_map,
    random_noncanonical_map,
    sample_triples,
)
from root_enclose.maps import (
    DenominatorZeroError,
    apply_pair,
    counterexample_map,
    secant_newton,
)
from root_enclose.numeric import Interval, pow_int
from root_enclose.solver import bisect_to_eps, refine_to_eps


def _report(criterion: str, elapsed: float, budget: float, detail: str):
    line = (f"criterion {criterion}: PASS ({elapsed * 1000:.2f} ms "
            f"< {budget * 1000:.0f} ms) {detail}")
    print(line)
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {line}"


def _best_of(runs, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_criterion_1_counterexample_reproduction():
    m = counterexample_map()
    sn = secant_newton(3)
    L, U, x = F(1), F(2), F(27, 8)

    def evaluate():
        return (apply_pair(m, L, U, x), apply_pair(sn, L, U, x),
                evaluate_locus(m, L, U, x))

    elapsed, (ours, theirs, locus) = _best_of(3, evaluate)
    expected = (F(75, 56), F(155, 96))
    assert ours == expected
    assert theirs == expected
    assert locus == (0, 0)
    _report("1", elapsed, 0.001,
            "both maps return [75/56, 155/96] exactly, locus (0, 0)")


def test_criterion_2_noncanonical_maps_falsified_at_corners():
    rng = random.Random(20240801)
    cfg = SampleConfig(seed=101, count=300)
    start = time.perf_counter()
    found = 0
    for i in range(100):
        n = (2, 3, 4, 5)[i % 4]
        m = random_noncanonical_map(n, rng)
        verdict = falsify_contraction(m, cfg)
        assert verdict.falsified, f"map {i} escaped falsification"
        w = verdict.witness
        assert w.r == w.L or w.r == w.U, f"map {i} witness not a corner probe"
        assert w.x == pow_int(w.r, n)
        found += 1
    elapsed = time.perf_counter() - start
    assert found == 100
    _report("2", elapsed, 5.0, "100/100 corner witnesses at x=L^n or x=U^n")


def test_criterion_2_corner_probes_draw_samples_lazily():
    # the probes stop at the first witness, so the 10^6 samples are never
    # drawn
    m = random_noncanonical_map(3, 0)
    start = time.perf_counter()
    verdict = falsify_contraction(m, SampleConfig(count=10 ** 6))
    elapsed = time.perf_counter() - start
    assert verdict.falsified
    assert verdict.samples_checked <= 2
    _report("2 (lazy)", elapsed, 1.0,
            f"witness after {verdict.samples_checked} of 10^6 samples")


def test_criterion_3_secant_newton_contraction_and_nesting():
    start = time.perf_counter()
    for n in (2, 3, 5, 7):
        cfg = SampleConfig(seed=500 + n, count=10_000)
        verdict = falsify_contraction(secant_newton(n), cfg)
        assert verdict.outcome == "passed-on-samples"
        assert verdict.samples_checked == 10_000

    # nesting of iterated traces; eps and x adapted to exact-arithmetic
    # growth (endpoint digit counts multiply by roughly 2n-1 per iteration,
    # so large n gets starting points near 1 and a coarser width bound)
    trace_plan = {
        2: (F(1, 10 ** 6), (F(2), F(3), F(27, 8), F(1, 2))),
        3: (F(1, 10 ** 4), (F(2), F(3), F(27, 8), F(1, 2))),
        5: (F(1, 100), (F(2), F(1, 2))),
        7: (F(1, 10), (F(2), F(1, 2))),
    }
    for n, (eps, xs) in trace_plan.items():
        for x in xs:
            trace = refine_to_eps(x, n, eps)
            assert trace.terminated == "width-reached"
            for iv in trace.intervals:
                assert pow_int(iv.lo, n) <= x <= pow_int(iv.hi, n)
            for prev, cur in zip(trace.intervals, trace.intervals[1:]):
                assert prev.lo <= cur.lo and cur.hi <= prev.hi
    elapsed = time.perf_counter() - start
    _report("3", elapsed, 60.0,
            "0 violations in 4x10^4 sampled triples, all traces nested")


def test_criterion_4_dominance_of_certified_perturbed_maps():
    start = time.perf_counter()
    for n in (2, 3, 5):
        cfg = SampleConfig(seed=700 + n, count=1000)
        triples = sample_triples(n, cfg)
        degenerate = sum(1 for t in triples if t.L == t.r)
        for i in range(10):
            kind = ("p-only", "q-only", "both")[i % 3]
            m = perturbed_contracting_map(
                n, seed_or_rng=10_000 * n + i,
                perturb_p=kind in ("p-only", "both"),
                perturb_q=kind in ("q-only", "both"))
            assert not check_denominator_bounds(m, cfg).falsified
            stats = check_dominance(m, cfg)
            assert stats.violations == ()
            assert stats.subset_count == stats.samples == 1000
            if kind in ("p-only", "both"):
                # the p-side excess is strictly positive, so every sample
                # with L < r refines strictly better: equality demands L = r
                assert all(L == r for L, r, _ in stats.equality_points)
                assert stats.proper_subset_count == 1000 - len(stats.equality_points)
            if kind == "p-only":
                # and conversely every L = r sample is an equality point
                assert len(stats.equality_points) == degenerate
    elapsed = time.perf_counter() - start
    _report("4", elapsed, 60.0,
            "30 certified maps: subset 100%, proper on every L < r sample")


def test_criterion_5_locus_oracle_equivalence_on_grid():
    values = sorted({F(a, b) for a in range(1, 5) for b in range(1, 4)})
    rng = random.Random(424242)
    maps = [secant_newton(3), counterexample_map()]
    maps += [random_canonical_map((2, 3, 4)[i % 3], rng) for i in range(5)]
    start = time.perf_counter()
    points = 0
    for m in maps:
        sn = secant_newton(m.n)
        for i, L in enumerate(values):
            for j in range(i, len(values)):
                r = values[j]
                x = pow_int(r, m.n)
                for U in values[j:]:
                    try:
                        same = (apply_pair(m, L, U, x)
                                == apply_pair(sn, L, U, x))
                    except DenominatorZeroError:
                        continue
                    assert (evaluate_locus(m, L, U, x) == (0, 0)) == same
                    points += 1
    elapsed = time.perf_counter() - start
    _report("5", elapsed, 30.0,
            f"0 mismatches on {points} grid evaluations across 7 maps")


def test_criterion_6_scaling_equivariance():
    rng = random.Random(6060)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = rng.choice((2, 3, 4))
        m = random_canonical_map(n, rng, positive_denominators=True)
        s = F(rng.randint(1, 50), rng.randint(1, 50))
        L, r, U = sorted(F(rng.randint(1, 100), rng.randint(1, 100))
                         for _ in range(3))
        x = pow_int(r, n)
        lo, hi = apply_pair(m, L, U, x)
        slo, shi = apply_pair(m, s * L, s * U, pow_int(s, n) * x)
        assert (slo, shi) == (s * lo, s * hi)
        checked += 1
    elapsed = time.perf_counter() - start
    _report("6", elapsed, 10.0, "1000/1000 exact scaling identities")


def test_criterion_7_convergence_benchmark():
    def run_both():
        return (refine_to_eps(F(2), 2, F(1, 1000)),
                bisect_to_eps(F(2), 2, F(1, 1000)))

    elapsed, (sn_trace, bi_trace) = _best_of(3, run_both)
    assert sn_trace.iterations == 3
    assert sn_trace.intervals[2] == Interval(F(24, 17), F(17, 12))
    assert bi_trace.iterations == 10
    _report("7", elapsed, 0.001,
            "secant-newton: 3 iterations via [24/17, 17/12]; bisection: 10")


def test_criterion_8_counterexample_contraction_diagnostic():
    start = time.perf_counter()
    verdict = falsify_contraction(counterexample_map(),
                                  SampleConfig(seed=0, count=10_000))
    elapsed = time.perf_counter() - start
    assert verdict.falsified
    w = verdict.witness
    assert (w.L, w.r, w.U, w.x) == (F(1), F(4), F(4), F(64))
    assert w.violated == "L' <= r"
    assert w.lhs == F(83, 20)
    assert w.rhs == F(4)
    _report("8", elapsed, 1.0, "witness (1, 4, 4): L' = 83/20 > r = 4")
