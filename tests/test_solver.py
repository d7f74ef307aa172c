import dataclasses
import hashlib
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from map_generators import (perturbed_contracting_map, random_canonical_map,
                            random_noncanonical_map)
from root_enclose import maps, solver
from root_enclose._kernels import apply_pairs
from root_enclose.maps import (
    DenominatorZeroError,
    MapCoefficients,
    MapEvaluator,
    secant_newton,
)
from root_enclose.numeric import Interval, pow_int
from root_enclose.solver import (
    DEFAULT_MAX_ITER,
    MAX_ITERATIONS,
    NON_FINITE,
    STALLED,
    WIDTH_REACHED,
    NotContractingError,
    RefineTrace,
    bisect_float,
    bisect_to_eps,
    initial_interval,
    refine_float,
    refine_to_eps,
)


def test_initial_interval():
    assert initial_interval(F(27, 8)) == Interval(F(1), F(27, 8))
    assert initial_interval(F(1)) == Interval(F(1), F(1))
    assert initial_interval(F(1, 2)) == Interval(F(1, 2), F(1))


@pytest.mark.parametrize("bad", [F(0), F(-3)])
def test_initial_interval_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        initial_interval(bad)


def _assert_rounds_outward(lo, hi, exact_lo, exact_hi, k):
    """[lo, hi] lies on the lattice 2**-k and is [exact_lo, exact_hi]
    rounded outward onto it: each endpoint within 2**-k of the exact one."""
    assert (lo * 2 ** k).denominator == (hi * 2 ** k).denominator == 1
    assert lo <= exact_lo < lo + F(1, 2 ** k)
    assert hi - F(1, 2 ** k) < exact_hi <= hi


def _row_lattice(row):
    """(lo, hi, k) of a refine_to_eps row (a, 2**k, b, 2**k)."""
    a, d, b, _ = row
    return F(a, d), F(b, d), d.bit_length() - 1


def test_refine_one_step():
    # the exact step [4/3, 3/2] has width exactly eps = 1/6; rounded outward
    # onto the 2^-19 lattice it is wider than eps, so a second step follows
    trace = refine_to_eps(F(2), 2, F(1, 6))
    assert trace.iterations == 2
    lo, hi, k = _row_lattice(trace.interval_rows[1])
    assert k == 19
    _assert_rounds_outward(lo, hi, F(4, 3), F(3, 2), k)
    assert trace.terminated == WIDTH_REACHED


def test_a_start_of_width_eps_takes_one_step():
    # the exact start [9/10, 1] has width exactly eps = 1/10; rounded
    # outward onto the 2^-20 lattice it is wider than eps, so one step is taken
    trace = refine_to_eps(F(9, 10), 2, F(1, 10))
    assert (trace.iterations, trace.terminated) == (1, WIDTH_REACHED)
    lo, hi, k = _row_lattice(trace.interval_rows[0])
    assert k == 20
    _assert_rounds_outward(lo, hi, F(9, 10), F(1), k)


def test_refine_three_steps_with_exact_intermediate():
    # Secant-Newton is inclusion-monotone, so each outward-rounded row
    # contains the exact iterate; here row 2 is [24/17, 17/12] rounded
    trace = refine_to_eps(F(2), 2, F(1, 1000))
    assert trace.iterations == 3
    lo, hi, k = _row_lattice(trace.interval_rows[2])
    assert k == 26
    _assert_rounds_outward(lo, hi, F(24, 17), F(17, 12), k)
    assert F(1, 204) <= trace.widths[2] < F(1, 204) + F(2, 2 ** k)
    assert trace.widths[-1] <= F(1, 1000)


def test_refine_zero_iterations_on_degenerate_input():
    trace = refine_to_eps(F(1), 5, F(1, 10))
    assert trace.iterations == 0
    assert trace.final == Interval(F(1), F(1))


def test_refine_records_widths_consistently():
    trace = refine_to_eps(F(10), 3, F(1, 10 ** 4))
    assert len(trace.intervals) == trace.iterations + 1
    for iv, w in zip(trace.intervals, trace.widths):
        assert w == iv.width


def test_refine_max_iterations():
    trace = refine_to_eps(F(2), 2, F(1, 10 ** 40), max_iter=2)
    assert trace.terminated == MAX_ITERATIONS
    assert trace.iterations == 2
    assert trace.widths[-1] > F(1, 10 ** 40)


def test_termination_flag_matches_width():
    for eps in (F(1), F(1, 7), F(1, 10 ** 6)):
        trace = refine_to_eps(F(3), 3, eps)
        assert (trace.terminated == WIDTH_REACHED) == (trace.widths[-1] <= eps)


def test_refine_rejects_bad_inputs():
    with pytest.raises(ValueError):
        refine_to_eps(F(0), 2, F(1, 10))
    with pytest.raises(ValueError):
        refine_to_eps(F(2), 2, F(0))
    with pytest.raises(ValueError):
        refine_to_eps(F(2), 2, F(1, 10), max_iter=0)
    with pytest.raises(ValueError):
        refine_to_eps(F(2), 1, F(1, 10))
    with pytest.raises(ValueError):
        refine_to_eps(F(2), 2, F(1, 10), secant_newton(3))


def test_refine_propagates_denominator_zero_with_iteration():
    # p-denominator 2L - U is zero exactly at the initial interval of x=2
    m = MapCoefficients(2, (F(-1), 0, 0, 2, -1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(DenominatorZeroError) as exc:
        refine_to_eps(F(2), 2, F(1, 10), m)
    assert exc.value.side == "lower"
    assert exc.value.iteration == 0


def test_refine_flags_noncontracting_map():
    # tiny p-denominator overshoots the lower endpoint far past U'
    m = MapCoefficients(2, (F(-1), 0, 0, F(1, 10), 0), (F(-1), 0, 0, 2, 0))
    with pytest.raises(NotContractingError) as exc:
        refine_to_eps(F(2), 2, F(1, 100), m)
    assert exc.value.iteration == 0
    assert exc.value.lo > exc.value.hi


def test_refine_flags_interval_that_misses_root():
    # an ordered pair [5/3, 7/4] above sqrt(2): the p-denominator L is too
    # small, so the lower endpoint overshoots the root
    m = MapCoefficients(2, (F(-1), 0, 0, F(3, 2), 0), (F(-1), 0, 0, 4, 0))
    with pytest.raises(NotContractingError, match="misses the root") as exc:
        refine_to_eps(F(2), 2, F(1, 100), m)
    assert exc.value.iteration == 0
    # the pair as rounded outward onto the 2^-23 lattice of eps = 1/100
    _assert_rounds_outward(exc.value.lo, exc.value.hi, F(5, 3), F(7, 4), 23)


def _assert_enclosing_and_nested(trace, x, n):
    for iv in trace.intervals:
        assert pow_int(iv.lo, n) <= x <= pow_int(iv.hi, n)
    for prev, cur in zip(trace.intervals, trace.intervals[1:]):
        assert prev.lo <= cur.lo and cur.hi <= prev.hi


def _assert_on_the_lattice(trace, x, n, m):
    """Every row of a refine_to_eps trace is (a, 2**k, b, 2**k) with
    1 <= a <= b and k never decreasing; row 0 is [min(1,x), max(1,x)] and
    each later row the map's exact output at the row before, each rounded
    outward onto the row's own 2**-k and then clamped to the row before;
    the rows nest and each encloses the root exactly."""
    rows = trace.interval_rows
    ks = []
    for a, d, b, e in rows:
        assert d == e and d & (d - 1) == 0 and 1 <= a <= b
        ks.append(d.bit_length() - 1)
    assert ks == sorted(ks)
    start = initial_interval(x)
    a, d, b, _ = rows[0]
    assert (a, b) == (math.floor(start.lo * d), math.ceil(start.hi * d))
    ev = MapEvaluator(m)
    for (pa, pd, pb, _), (a, d, b, _) in zip(rows, rows[1:]):
        lo, hi = ev.pair(F(pa, pd), F(pb, pd), x)
        assert a == max(math.floor(lo * d), pa * d // pd)
        assert b == min(math.ceil(hi * d), pb * d // pd)
    _assert_enclosing_and_nested(trace, x, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((2, 3)),
       st.integers(1, 50), st.integers(1, 50))
def test_returned_traces_enclose_the_root(seed, n, a, b):
    # positive denominators keep every step nested; whether a step keeps
    # the root is what the per-step check decides
    m = random_canonical_map(n, random.Random(seed), positive_denominators=True)
    x = F(a, b)
    try:
        trace = refine_to_eps(x, n, F(1, 10 ** 6), m, max_iter=5)
    except NotContractingError as exc:
        lo, hi = exc.lo, exc.hi
        assert not (0 < lo <= hi and pow_int(lo, n) <= x <= pow_int(hi, n))
        return
    _assert_enclosing_and_nested(trace, x, n)


# every x = a/b in (0, 2] \ {1} with b <= 5, in increasing order, and the
# iteration counts Secant-Newton takes on them: at n = 2, 3 and 1e-50,
# 1e-200 those of exact (never rounded) Secant-Newton, elsewhere those of
# a loop that rounded endpoints only once they outgrew the lattice
DEEP_XS = tuple(sorted(
    {F(a, b) for b in range(1, 6) for a in range(1, 2 * b + 1)} - {F(1)}
))
DEEP_ITERATIONS = {
    (2, 50): (7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7),
    (2, 200): (9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9),
    (3, 50): (8, 8, 7, 7, 7, 7, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 8),
    (3, 200): (10, 10, 9, 9, 9, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 10),
    (5, 50): (8, 8, 7, 7, 7, 7, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9),
    (5, 200): (10, 10, 9, 9, 9, 9, 8, 8, 8, 9, 9, 9, 10, 10, 10, 10, 11, 11, 11),
    (2, 1000): (12, 12, 11, 11, 11, 11, 10, 10, 10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11),
    (3, 1000): (12, 12, 12, 11, 11, 11, 11, 10, 10, 11, 11, 11, 11, 11, 11, 11, 12, 12, 12),
    (5, 1000): (12, 12, 12, 12, 11, 11, 11, 11, 10, 11, 11, 12, 12, 12, 13, 13, 13, 13, 13),
}


@pytest.mark.parametrize("n,eps_exp", sorted(DEEP_ITERATIONS))
def test_rounding_keeps_the_exact_iteration_counts(n, eps_exp):
    counts = tuple(refine_to_eps(x, n, F(1, 10 ** eps_exp)).iterations
                   for x in DEEP_XS)
    assert counts == DEEP_ITERATIONS[n, eps_exp]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_secant_newton_needs_no_more_iterations_than_a_dominating_map(n):
    # a map whose denominators dominate Secant-Newton's coefficientwise is
    # contracting, and its intervals contain Secant-Newton's step by step in
    # exact arithmetic; the rounded solver keeps the iteration order here
    maps = [perturbed_contracting_map(n, 1000 * n + s) for s in range(5)]
    assert all(MapEvaluator(m).dominating for m in maps)
    for eps in (F(1, 10 ** 12), F(1, 10 ** 50)):
        for x in DEEP_XS + (F(7), F(100), F(1, 50)):
            sn = refine_to_eps(x, n, eps).iterations
            for m in maps:
                assert refine_to_eps(x, n, eps, m).iterations >= sn, (x, eps, m)


@st.composite
def _dominating_maps(draw):
    """Secant-Newton with every denominator tail coefficient raised by some
    k/d >= 0, d up to 10**6: a map that dominates it coefficientwise."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 10 ** 6))
    bump = st.one_of(st.just(0), st.integers(0, 4 * d).map(lambda k: F(k, d)))
    sn = secant_newton(n)
    return MapCoefficients(n, sn.p[:n + 1] + tuple(c + draw(bump) for c in sn.p[n + 1:]),
                           sn.q[:n + 1] + tuple(c + draw(bump) for c in sn.q[n + 1:]))


@settings(max_examples=600, deadline=None)
@given(_dominating_maps(), st.integers(1, 60), st.integers(1, 60), st.integers(1, 80))
def test_no_dominating_map_takes_fewer_iterations_than_secant_newton(m, a, b, eps_exp):
    # the paper's optimality in iteration counts, through the rounded
    # solver; a run stopped at Secant-Newton's count is the prefix of the
    # full run, so a map that reaches the width sooner shows there.  Row by
    # row, Secant-Newton's interval lies inside the map's: the map's wider
    # rows take a lattice no finer, and Secant-Newton is inclusion-monotone
    x, eps = F(a, b), F(1, 10 ** eps_exp)
    sn = refine_to_eps(x, m.n, eps)
    trace = refine_to_eps(x, m.n, eps, m, max_iter=max(sn.iterations, 1))
    assert trace.iterations >= sn.iterations, (trace.interval_rows, sn.interval_rows)
    for inner, outer in zip(sn.intervals, trace.intervals):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi, (inner, outer)


def test_deep_endpoints_stay_on_the_lattice():
    # exact endpoints would reach 160,031 bits here
    eps = F(1, 10 ** 200)
    k = (10 ** 200).bit_length() + 16
    trace = refine_to_eps(F(1, 5), 3, eps)
    assert (trace.iterations, trace.terminated) == (10, WIDTH_REACHED)
    for iv in trace.intervals:
        for v in (iv.lo, iv.hi):
            assert max(v.numerator.bit_length(), v.denominator.bit_length()) <= k + 2


@pytest.mark.parametrize("x,n,eps_exp", [(F(2, 3), 3, 20), (F(2), 2, 50), (F(1, 5), 5, 200)])
def test_rows_do_not_depend_on_the_kernel(monkeypatch, x, n, eps_exp):
    # every row is the map's output rounded onto the lattice, a value, so a
    # canonical map gives the same rows through the general kernel; a rule
    # that read the kernels' unreduced denominators would not, at
    # x = 2/3, n = 3, eps = 1e-20 among others
    eps = F(1, 10 ** eps_exp)
    reduced = refine_to_eps(x, n, eps).interval_rows

    def general(self, ln, ld, un, ud, xn, xd):
        p, q = self._p, self._q
        return apply_pairs(self._n, p.whole, p.den, q.whole, q.den, ln, ld, un, ud, xn, xd)

    monkeypatch.setattr(MapEvaluator, "evaluate", general)
    assert refine_to_eps(x, n, eps).interval_rows == reduced


@pytest.mark.parametrize("x", [F(1, 5), F(2), F(9, 5)])
def test_degree_5_reaches_a_deep_width(x):
    trace = refine_to_eps(x, 5, F(1, 10 ** 200))
    assert trace.terminated == WIDTH_REACHED
    assert 10 <= trace.iterations <= 11
    _assert_on_the_lattice(trace, x, 5, secant_newton(5))


def test_rounded_endpoint_is_clamped_to_the_previous_interval():
    # a huge p-denominator moves L by less than one step of the 2^-26
    # lattice of eps = 1/1000: up from the lattice point, the floor keeps
    # it; a negative one moves it down, below the previous interval, and
    # the clamp keeps it
    x, k = F(1, 3), 26
    lo_0 = F((1 << k) // 3, 1 << k)
    for c in (2 ** 40, -(2 ** 40)):
        m = MapCoefficients(2, (F(-1), 0, 0, c, 1), (F(-1), 0, 0, 2, 0))
        exact_lo, _ = MapEvaluator(m).pair(lo_0, F(1), x)
        assert 0 < abs(exact_lo - lo_0) < F(1, 1 << k)
        trace = refine_to_eps(x, 2, F(1, 1000), m, max_iter=3)
        assert trace.terminated == MAX_ITERATIONS
        assert [iv.lo for iv in trace.intervals] == [lo_0] * 4
        _assert_on_the_lattice(trace, x, 2, m)


# every endpoint lies on a lattice that follows the width, so these widths
# stay cheap; dominated maps converge slower and get a hard iteration cap
# here.  x = 1/10^300 needs a start lattice of 2^-997, finer than eps's, for
# a nonzero lower endpoint.  The counts are those of a loop that rounded
# endpoints only once they outgrew the lattice.
ENCLOSURE_ITERATIONS = {
    (2, F(2), F(1, 10 ** 8)): 4,
    (3, F(27, 8), F(1, 10 ** 4)): 5,
    (3, F(1, 3), F(1, 10 ** 4)): 4,
    (5, F(2), F(1, 100)): 4,
    (5, F(1, 10 ** 300), F(1, 10 ** 50)): 516,
}


@pytest.mark.parametrize("n,x,eps", list(ENCLOSURE_ITERATIONS))
def test_enclosure_and_nesting(n, x, eps):
    m = secant_newton(n)
    trace = refine_to_eps(x, n, eps, m)
    assert (trace.iterations, trace.terminated) == (ENCLOSURE_ITERATIONS[n, x, eps],
                                                    WIDTH_REACHED)
    _assert_on_the_lattice(trace, x, n, m)

    perturbed = perturbed_contracting_map(n, 17)
    _assert_on_the_lattice(refine_to_eps(x, n, eps, perturbed, max_iter=4), x, n, perturbed)


def _refine_reference(x, n, eps, m, max_iter=DEFAULT_MAX_ITER):
    """The Fraction loop with one lattice 2**-k, k = bits(1/eps) + 16, from
    the first step, whose iteration counts the integer loop must keep:
    (iterations, terminated)."""
    k = (eps.denominator // eps.numerator).bit_length() + 16
    ev = MapEvaluator(m)
    iv = initial_interval(x)
    it = 0
    while iv.width > eps:
        if it >= max_iter:
            return it, MAX_ITERATIONS
        lo, hi = ev.pair(iv.lo, iv.hi, x)
        assert 0 < lo <= hi
        if lo.denominator.bit_length() > k:
            lo = max(F((lo.numerator << k) // lo.denominator, 1 << k), iv.lo)
        if hi.denominator.bit_length() > k:
            hi = min(F(-((-hi.numerator << k) // hi.denominator), 1 << k), iv.hi)
        assert pow_int(lo, n) <= x <= pow_int(hi, n)
        iv = Interval(lo, hi)
        it += 1
    return it, WIDTH_REACHED


def _bisect_reference(x, n, eps, max_iter=DEFAULT_MAX_ITER):
    """The plain Fraction bisection loop the integer loop must reproduce:
    (trace, iterations, widths), the trace built from the rows of its
    reduced intervals, counting the iterations and the widths itself."""
    iv = initial_interval(x)
    intervals = [iv]
    widths = [iv.width]
    it = 0
    while widths[-1] > eps:
        if it >= max_iter:
            return _trace_of(intervals, MAX_ITERATIONS), it, tuple(widths)
        mid = (iv.lo + iv.hi) / 2
        if pow_int(mid, n) <= x:
            iv = Interval(mid, iv.hi)
        else:
            iv = Interval(iv.lo, mid)
        it += 1
        intervals.append(iv)
        widths.append(iv.width)
    return _trace_of(intervals, WIDTH_REACHED), it, tuple(widths)


def _trace_of(intervals, terminated):
    return RefineTrace(tuple((iv.lo.numerator, iv.lo.denominator,
                              iv.hi.numerator, iv.hi.denominator)
                             for iv in intervals), terminated)


def _assert_matches_bisect_reference(x, n, eps, max_iter=DEFAULT_MAX_ITER):
    trace = bisect_to_eps(x, n, eps, max_iter=max_iter)
    reference, iterations, widths = _bisect_reference(x, n, eps, max_iter)
    # bisection's rows are not reduced, so the rows differ from the
    # reference's while the intervals they stand for are equal
    summary = trace.to_json()  # before the intervals view is built
    assert (trace.intervals, trace.terminated) == (reference.intervals, reference.terminated)
    assert (trace.iterations, trace.widths) == (iterations, widths)
    assert trace.final == trace.intervals[-1]
    assert trace.to_json() == summary
    assert trace.to_json(include_intervals=True) == reference.to_json(include_intervals=True)


bumps = st.lists(st.one_of(st.just(0), st.integers(0, 60),
                           st.builds(F, st.integers(1, 60), st.integers(1, 7))),
                 min_size=5, max_size=5)


# tail bumps dominate Secant-Newton's denominators coefficientwise, so every
# map here contracts; large bumps make the convergence linear and slow
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), bumps, bumps, st.integers(1, 50), st.integers(1, 50),
       st.sampled_from((10, 30, 80)))
@example(2, [50, 0, 0, 0, 0], [0] * 5, 2, 1, 30)
@example(3, [0] * 5, [0] * 5, 1, 5, 80)
@example(5, [0] * 5, [0, 0, 0, 0, 60], 7, 3, 80)
def test_width_following_lattice_keeps_the_fixed_lattice_iterations(n, p_bumps, q_bumps,
                                                                   a, b, eps_exp):
    sn = secant_newton(n)
    m = MapCoefficients(n, sn.p[:n + 1] + tuple(c + d for c, d in zip(sn.p[n + 1:], p_bumps)),
                        sn.q[:n + 1] + tuple(c + d for c, d in zip(sn.q[n + 1:], q_bumps)))
    x, eps, max_iter = F(a, b), F(1, 10 ** eps_exp), 120
    k = (10 ** eps_exp).bit_length() + 16
    trace = refine_to_eps(x, n, eps, m, max_iter)
    assert (trace.iterations, trace.terminated) == _refine_reference(x, n, eps, m, max_iter)
    _assert_on_the_lattice(trace, x, n, m)
    # k_j never passes k = bits(1/eps) + 16 while 1/x has fewer bits
    assert all(den <= 1 << k for row in trace.interval_rows for den in row[1::2])


@pytest.mark.parametrize("x,n,eps", [
    (F(2), 2, F(1, 1000)),
    (F(2), 2, F(1, 1024)),
    (F(1, 3), 3, F(1, 10 ** 30)),
    (F(1, 3), 3, F(1, 3 * 2 ** 40)),
    (F(10 ** 300), 2, F(1, 10 ** 50)),
    (F(1, 10 ** 300), 5, F(1, 10 ** 50)),
], ids=["2", "2-width-hits-eps", "1/3", "1/3-width-hits-eps", "1e300", "1e-300"])
def test_bisection_stops_at_the_step_count_it_computes(x, n, eps):
    # the loop runs a step count fixed before it starts; max_iter one below
    # it is the only one of the three that stops short
    _, need, _ = _bisect_reference(x, n, eps)
    assert need >= 2
    for max_iter in (need - 1, need, need + 1):
        _assert_matches_bisect_reference(x, n, eps, max_iter)
    assert bisect_to_eps(x, n, eps, max_iter=need - 1).terminated == MAX_ITERATIONS
    assert bisect_to_eps(x, n, eps, max_iter=need).terminated == WIDTH_REACHED


# n = 5 runs the integer root's Newton path on 700-bit roots
@pytest.mark.parametrize("n,eps_exp", [(2, 50), (2, 200), (3, 50), (3, 200), (5, 200)])
def test_integer_bisection_matches_the_fraction_loop_on_deep_cases(n, eps_exp):
    eps = F(1, 10 ** eps_exp)
    for x in DEEP_XS:
        _assert_matches_bisect_reference(x, n, eps)


# x = 9 hits its root 3 as the second midpoint, x = 1 needs no step,
# max_iter = 5 stops 1/3 at eps = 1e-30 short of the width, and the last
# four start at or within eps, so they take no step
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(2, 7),
       st.integers(1, 10 ** 3), st.integers(0, 30), st.integers(1, 120))
@example(9, 1, 2, 1, 6, 120)
@example(7, 7, 3, 1, 6, 120)
@example(1, 3, 3, 1, 30, 5)
@example(2, 1, 3, 1, 0, 1)
@example(1, 3, 3, 1, 0, 5)
@example(10 ** 300, 1, 3, 10 ** 300, 0, 1)
@example(1, 10 ** 300, 5, 1, 0, 1)
def test_integer_bisection_matches_the_fraction_loop(a, b, n, c, e, max_iter):
    _assert_matches_bisect_reference(F(a, b), n, F(c, 10 ** e), max_iter)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4000).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)),
       st.integers(2, 9))
@example(0, 2)
@example(0, 9)
@example(1, 2)
@example(1, 5)
@example((10 ** 100 + 7) ** 2, 2)
@example((10 ** 100 + 7) ** 2 - 1, 2)
@example((10 ** 100 + 7) ** 5, 5)
@example((10 ** 100 + 7) ** 5 - 1, 5)
@example(((1 << 400) + 1) ** 9, 9)
@example(((1 << 400) + 1) ** 9 - 1, 9)
def test_integer_root_is_the_floor_root(v, n):
    r = solver._iroot(v, n)
    assert r ** n <= v < (r + 1) ** n


@pytest.mark.parametrize("n", [2, 3])
def test_bisection_checks_its_final_interval(monkeypatch, n):
    # x = 2 has span 1, so one more than the floor root moves the final
    # lower endpoint one lattice step up, past the root
    iroot = solver._iroot
    monkeypatch.setattr(solver, "_iroot", lambda v, k: iroot(v, k) + 1)
    with pytest.raises(RuntimeError, match="at iteration 100 misses the root"):
        bisect_to_eps(F(2), n, F(1, 10 ** 30))


def test_bisection_builds_no_interval(monkeypatch):
    # the loop records integer rows; Intervals are built only by the views
    built = []
    post_init = Interval.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    trace = bisect_to_eps(F(1, 3), 3, F(1, 10 ** 200))
    assert (trace.iterations, trace.terminated) == (664, WIDTH_REACHED)
    assert built == []


def test_bisection_builds_its_rows_only_when_read(monkeypatch):
    # the check, iterations, final and the JSON summary build the final
    # row alone, once for the check and once each for final and to_json;
    # a full read of interval_rows builds every row, the last one the
    # final interval
    built = []
    row = solver._BisectionRows._row

    def counting(self, j):
        built.append(j)
        return row(self, j)

    monkeypatch.setattr(solver._BisectionRows, "_row", counting)
    trace = bisect_to_eps(F(1, 3), 3, F(1, 10 ** 200))
    assert built == [664]
    built.clear()
    assert trace.iterations == 664
    final = trace.final
    summary = trace.to_json()
    assert built == [664, 664]
    built.clear()
    rows = tuple(trace.interval_rows)
    assert built == list(range(665))
    assert len(rows) == trace.iterations + 1 == 665
    a, b, c, d = rows[-1]
    assert final == Interval(F(a, b), F(c, d))
    assert trace.to_json() == summary


def test_bisection_trace_is_a_plain_refine_trace():
    trace = bisect_to_eps(F(2), 2, F(1, 1000))
    assert type(trace) is RefineTrace
    capped = dataclasses.replace(trace, terminated=MAX_ITERATIONS)
    assert (capped.terminated, capped.interval_rows) == (MAX_ITERATIONS, trace.interval_rows)
    # two calls with the same arguments give traces that are equal and
    # hash alike, and equal to the trace of the same rows held as a tuple
    again = bisect_to_eps(F(2), 2, F(1, 1000))
    assert trace == again and hash(trace) == hash(again)
    as_tuple = RefineTrace(tuple(trace.interval_rows), WIDTH_REACHED)
    assert trace == as_tuple and hash(trace) == hash(as_tuple)
    assert trace != bisect_to_eps(F(2), 2, F(1, 100))
    assert trace != capped


def test_bisection_rows_index_like_a_tuple():
    trace = bisect_to_eps(F(1, 3), 2, F(1, 100))
    rows = trace.interval_rows
    full = tuple(rows)
    assert len(full) == len(rows) == trace.iterations + 1 == 8
    for j in range(-len(full), len(full)):
        assert rows[j] == full[j]
    for cut in (slice(None), slice(2, 5), slice(None, None, -2), slice(-3, None), slice(9, 12)):
        assert rows[cut] == full[cut]
    for j in (len(full), -len(full) - 1):
        with pytest.raises(IndexError):
            rows[j]


def test_bisection_midpoints_need_not_be_dyadic():
    trace = bisect_to_eps(F(1, 3), 2, F(1, 10))
    assert trace.intervals[1] == Interval(F(1, 3), F(2, 3))


def test_bisection_iteration_count():
    trace = bisect_to_eps(F(2), 2, F(1, 1000))
    assert trace.iterations == 10  # unit start width, halves each step
    assert trace.terminated == WIDTH_REACHED


def test_bisection_zero_iterations():
    assert bisect_to_eps(F(1), 4, F(1, 10)).iterations == 0


def test_bisection_bracketing_invariant():
    for x in (F(2), F(27, 8), F(1, 5)):
        trace = bisect_to_eps(x, 3, F(1, 10 ** 6))
        for iv in trace.intervals:
            assert pow_int(iv.lo, 3) <= x <= pow_int(iv.hi, 3)


def test_both_solvers_contain_exact_root_of_perfect_power():
    c = F(3, 2)
    x = pow_int(c, 3)
    for trace in (refine_to_eps(x, 3, F(1, 10 ** 6)),
                  bisect_to_eps(x, 3, F(1, 10 ** 6))):
        for iv in trace.intervals:
            assert iv.lo <= c <= iv.hi


def test_trace_json():
    # two steps: the first, [4/3, 3/2] rounded onto 2^-19, is wider than
    # eps = 1/6 (see test_refine_one_step)
    trace = refine_to_eps(F(2), 2, F(1, 6))
    data = trace.to_json()
    assert data == {
        "iterations": 2,
        "terminated": "width-reached",
        "final_interval": ["740171/524288", "371371/262144"],
        "final_width": "2571/524288",
    }
    full = trace.to_json(include_intervals=True)
    assert full["intervals"] == [["1", "2"], ["349525/262144", "3/2"],
                                 ["740171/524288", "371371/262144"]]
    assert full["widths"] == ["1", "43691/262144", "2571/524288"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
def test_deep_trace_json_at_the_default_digit_limit():
    # a width of 10^-10000 needs endpoints of thousands of digits, whatever
    # the rounding: here 10,005-digit parts, beyond the default limit of 4300
    trace = refine_to_eps(F(2), 2, F(1, 10 ** 10000))
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        limited = trace.to_json(include_intervals=True)
        final = str(trace.final)
        sys.set_int_max_str_digits(0)
        unlimited = trace.to_json(include_intervals=True)
        assert final == str(trace.final)
    finally:
        sys.set_int_max_str_digits(previous)
    assert limited == unlimited
    assert len(limited["final_interval"][0]) > 12_000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@settings(max_examples=40, deadline=None)
@given(st.sampled_from((refine_to_eps, bisect_to_eps)), st.integers(1, 50),
       st.integers(1, 50), st.integers(2, 3), st.integers(1, 200))
def test_deep_traces_serialise(solve, a, b, n, eps_exp):
    trace = solve(F(a, b), n, F(1, 10 ** eps_exp))
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        data = trace.to_json(include_intervals=True)
        intervals = tuple(Interval(F(lo), F(hi)) for lo, hi in data["intervals"])
        widths = tuple(F(w) for w in data["widths"])
    finally:
        sys.set_int_max_str_digits(previous)
    assert intervals == trace.intervals
    assert widths == trace.widths


# --- float fast path --------------------------------------------------------

def test_refine_float_sqrt2():
    trace = refine_float(2.0, 2, 1e-12)
    assert trace.terminated == WIDTH_REACHED
    assert abs(trace.lo - 1.4142135623730951) < 1e-11
    assert abs(trace.hi - 1.4142135623730951) < 1e-11
    assert trace.lo <= 2 ** 0.5 <= trace.hi


def test_refine_float_degenerate():
    trace = refine_float(1.0, 5, 1e-6)
    assert trace.iterations == 0
    assert trace.terminated == WIDTH_REACHED


def test_refine_float_iterations_match_rational_on_corpus():
    corpus = [
        (F(2), 2, (3, 6)),
        (F(3), 2, (3, 6)),
        (F(27, 8), 3, (3, 6)),
        (F(1, 2), 3, (3, 6)),
        (F(2), 5, (3,)),
    ]
    for x, n, eps_exps in corpus:
        for eps_exp in eps_exps:
            exact = refine_to_eps(x, n, F(1, 10 ** eps_exp))
            fast = refine_float(float(x), n, 10.0 ** -eps_exp)
            assert fast.iterations == exact.iterations, (x, n, eps_exp)


def test_refine_float_converges_past_double_resolution():
    # converged endpoints may cross by one ulp in round-to-nearest; the pair
    # is reported raw and the width bound is (vacuously) met
    trace = refine_float(2.0, 2, 1e-30)
    assert trace.terminated == WIDTH_REACHED
    assert abs(trace.lo - 1.4142135623730951) <= 3e-16
    assert abs(trace.hi - 1.4142135623730951) <= 3e-16


def test_refine_float_stall_detection():
    # an enormous q-denominator freezes the upper endpoint at double
    # precision: lo pins at the root and oscillates by one ulp, which the
    # width-based stall rule catches
    m = MapCoefficients(2, (F(-1), 0, 0, 1, 1), (F(-1), 0, 0, 10 ** 20, 0))
    trace = refine_float(2.0, 2, 1e-12, m)
    assert trace.terminated == STALLED
    assert trace.hi - trace.lo > 1e-12


def test_refine_float_overflow_is_reported():
    trace = refine_float(1e300, 7, 1e-6)
    assert trace.terminated == NON_FINITE


def test_bisect_float_overflow_is_reported():
    # the first midpoint's 7th power is about 1e693, beyond the float range
    trace = bisect_float(1e100, 7, 1e-12)
    assert trace.terminated == NON_FINITE
    assert (trace.iterations, trace.lo, trace.hi) == (0, 1.0, 1e100)


# p3 = 1/10^310 is a subnormal double: the form is about 1e-310, and the
# first endpoint overflows to +inf on the lower side or -inf on the upper one
_TINY_TAIL = (F(-1), 0, 0, F(1, 10 ** 310), 0)


@pytest.mark.parametrize("m", [
    MapCoefficients(2, _TINY_TAIL, secant_newton(2).q),
    MapCoefficients(2, secant_newton(2).p, _TINY_TAIL),
], ids=["lower-plus-inf", "upper-minus-inf"])
def test_refine_float_infinite_endpoint_is_non_finite(m):
    trace = refine_float(2.0, 2, 1e-12, m)
    assert (trace.iterations, trace.lo, trace.hi, trace.terminated) == (
        0, 1.0, 2.0, NON_FINITE)


def _float_path_results():
    """repr((lo, hi, iterations, terminated)) of refine_float on seeded
    inputs: x ~ U[0.1, 100] with n cycling 2, 3, 5 on Secant-Newton, then
    random canonical, non-canonical and perturbed maps at several max_iter."""
    rng = random.Random(2024)
    for i in range(3000):
        trace = refine_float(rng.uniform(0.1, 100.0), (2, 3, 5)[i % 3], 1e-12)
        yield repr((trace.lo, trace.hi, trace.iterations, trace.terminated))
    generators = (random_canonical_map, random_noncanonical_map, perturbed_contracting_map)
    for i in range(270):
        m = generators[i // 3 % 3]((2, 3, 5)[i % 3], rng)
        x = rng.uniform(0.1, 100.0)
        for max_iter in (1, 5, 100, 10 ** 4):
            trace = refine_float(x, m.n, 1e-12, m, max_iter=max_iter)
            yield repr((trace.lo, trace.hi, trace.iterations, trace.terminated))


def test_refine_float_is_pinned_bit_for_bit():
    # a deliberate change to the float step's arithmetic or exit rules
    # changes this digest, and must re-pin it
    text = "\n".join(_float_path_results())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2533e5efc8597ae0a3b24572536974f5cde20854c8c6538944eb8618f04a92ab")


def _dense_refine_float(x, n, eps, m, max_iter=DEFAULT_MAX_ITER):
    """The float loop summing every coefficient, zero or not, with no
    power check: repr((lo, hi, iterations, terminated)) of the run."""
    p = [float(c) for c in m.p]
    q = [float(c) for c in m.q]

    def endpoint(c, ap, bp, base):
        num = x
        for i in range(n + 1):
            num += c[i] * ap[n - i] * bp[i]
        den = 0.0
        for i in range(n):
            den += c[n + 1 + i] * ap[n - 1 - i] * bp[i]
        return math.nan if den == 0.0 else base + num / den

    lo, hi = min(x, 1.0), max(x, 1.0)
    it, prev_w = 0, math.inf
    while True:
        w = hi - lo
        if not math.isfinite(w):
            stop = NON_FINITE
        elif w <= eps:
            stop = WIDTH_REACHED
        elif it >= max_iter:
            stop = MAX_ITERATIONS
        elif w >= prev_w:
            stop = STALLED
        else:
            lp = [1.0] * (n + 1)
            hp = [1.0] * (n + 1)
            for i in range(1, n + 1):
                lp[i] = lp[i - 1] * lo
                hp[i] = hp[i - 1] * hi
            nlo = endpoint(p, lp, hp, lo)
            nhi = endpoint(q, hp, lp, hi)
            if math.isfinite(nlo) and math.isfinite(nhi):
                prev_w, lo, hi, it = w, nlo, nhi, it + 1
                continue
            stop = NON_FINITE
        return repr((lo, hi, it, stop))


def _float_result(x, n, eps, m=None, max_iter=DEFAULT_MAX_ITER):
    trace = refine_float(x, n, eps, m, max_iter)
    return repr((trace.lo, trace.hi, trace.iterations, trace.terminated))


def _with(coeffs, at):
    """coeffs with the coefficients at the keys of at replaced by its values."""
    return tuple(at.get(k, c) for k, c in enumerate(coeffs))


_ROUNDS_TO_ZERO = F(1, 10 ** 400)
_SUBNORMAL = F(1, 10 ** 310)
_SN2, _SN3, _SN5 = secant_newton(2), secant_newton(3), secant_newton(5)
# a non-contracting map: the lower endpoint is 2L - x/L, -1 at x = 3 from [1, 3]
_NEGATIVE_LO = MapCoefficients(2, (F(-1), 0, 0, -1, 0), _SN2.q)


def test_the_float_step_reads_only_nonzero_terms():
    # Secant-Newton at n = 5: 14 of its 22 coefficients are zero
    p, q = secant_newton(5).float_sides
    assert p == (((-1.0, 5, 0),), tuple((1.0, 4 - k, k) for k in range(5)))
    assert q == (((-1.0, 5, 0),), ((5.0, 4, 0),))
    m = MapCoefficients(2, _with(_SN2.p, {3: _ROUNDS_TO_ZERO, 4: _SUBNORMAL}), _SN2.q)
    assert m.float_sides[0] == (((-1.0, 2, 0),), ((float(_SUBNORMAL), 0, 1),))


@pytest.mark.parametrize("x,n,m,max_iter", [
    (1e300, 7, secant_newton(7), DEFAULT_MAX_ITER),
    (1e300, 7, secant_newton(7), 1),
    (1e-300, 7, secant_newton(7), DEFAULT_MAX_ITER),
    (3.0, 2, _NEGATIVE_LO, 1),
    (3.0, 2, _NEGATIVE_LO, DEFAULT_MAX_ITER),
    (2.0, 2, MapCoefficients(2, _with(_SN2.p, {1: _ROUNDS_TO_ZERO, 3: _ROUNDS_TO_ZERO}), _SN2.q),
     DEFAULT_MAX_ITER),
    (2.0, 2, MapCoefficients(2, _SN2.p, _with(_SN2.q, {3: _ROUNDS_TO_ZERO})), DEFAULT_MAX_ITER),
    (2.0, 2, MapCoefficients(2, _with(_SN2.p, {3: _SUBNORMAL}), _SN2.q), DEFAULT_MAX_ITER),
    (5.0, 3, MapCoefficients(3, _with(_SN3.p, {6: _SUBNORMAL, 2: _ROUNDS_TO_ZERO}),
                             _with(_SN3.q, {5: _SUBNORMAL})), DEFAULT_MAX_ITER),
], ids=["overflow", "overflow-one-step", "tiny-x", "negative-lo-one-step", "negative-lo",
        "rounds-to-zero-p", "rounds-to-zero-q-tail", "subnormal-p", "subnormal-mixed"])
def test_the_sparse_float_step_equals_the_dense_one(x, n, m, max_iter):
    assert _float_result(x, n, 1e-12, m, max_iter) == _dense_refine_float(x, n, 1e-12, m,
                                                                          max_iter)


def test_the_non_contracting_case_reads_negative_powers():
    assert refine_float(3.0, 2, 1e-12, _NEGATIVE_LO, max_iter=1).lo == -1.0


def test_the_sparse_float_step_equals_the_dense_one_on_seeded_maps():
    rng = random.Random(28)
    generators = (random_canonical_map, random_noncanonical_map, perturbed_contracting_map)
    for i in range(90):
        m = generators[i % 3]((2, 3, 5)[i // 3 % 3], rng)
        # some coefficients zero, the head's among them
        p, q = ([F(0) if rng.random() < 0.3 else c for c in side] for side in (m.p, m.q))
        m = MapCoefficients(m.n, tuple(p), tuple(q))
        x = rng.choice((rng.uniform(0.1, 100.0), 10.0 ** rng.randint(-300, 300)))
        for max_iter in (1, 5, DEFAULT_MAX_ITER):
            assert _float_result(x, m.n, 1e-12, m, max_iter) == _dense_refine_float(
                x, m.n, 1e-12, m, max_iter), (i, m, x, max_iter)


def _loop_result(x, m, max_iter=DEFAULT_MAX_ITER, sides=None):
    """refine_float_loop called directly on m's float sides (or on sides)."""
    p, q = sides or m.float_sides
    trace = solver.refine_float_loop(x, m.n, p, q, 1e-12, max_iter)
    return repr((trace.lo, trace.hi, trace.iterations, trace.terminated))


def test_no_power_table_state_crosses_float_loop_calls():
    # the degree grows past, falls below and returns to an earlier call's,
    # so a table kept from one call would be read by the next at another size
    rng = random.Random(33)
    for n in (5, 2, 7, 3, 5):
        maps = [secant_newton(n), random_canonical_map(n, rng)]
        if n == 2:
            maps.append(_NEGATIVE_LO)
        x = rng.uniform(0.1, 100.0)
        assert _float_result(x, n, 1e-12) == _dense_refine_float(x, n, 1e-12, maps[0]), n
        for m in maps:
            for max_iter in (1, DEFAULT_MAX_ITER):
                assert _loop_result(x, m, max_iter) == _dense_refine_float(
                    x, n, 1e-12, m, max_iter), (n, m, max_iter)


class _CallsInside(float):
    """A float coefficient of a degree-5 map whose product first runs the
    float loop at degree 5 on another x, so that a call of the same degree
    happens in the middle of a step."""

    calls = 0

    def __mul__(self, other):
        self.calls += 1
        _loop_result(7.0, _SN5)
        return float(self) * other


def test_a_float_loop_run_inside_a_step_leaves_that_step_unchanged():
    # tables shared between calls would be overwritten by the inner call
    # after the outer step filled them and before it read them
    (head, tail), q = _SN5.float_sides
    (c, i, j), *rest = head
    c = _CallsInside(c)
    sides = ((((c, i, j), *rest), tail), q)
    assert _loop_result(2.0, _SN5, sides=sides) == _dense_refine_float(2.0, 5, 1e-12, _SN5)
    assert c.calls > 0


def test_secant_newton_float_terms_are_kept_only_after_the_degree_check():
    refine_float(2.0, 2, 1e-12)
    kept = secant_newton.cache_info()
    for bad in (2.0, True, 1, "2"):
        with pytest.raises(ValueError, match="n must be an integer from 2"):
            refine_float(2.0, bad, 1e-12)
    # a rejected degree never reaches the cache, not even as a miss
    assert secant_newton.cache_info() == kept
    refine_float(2.0, 3, 1e-12)
    with pytest.raises(ValueError, match="map degree 2 does not match n=3"):
        refine_float(2.0, 3, 1e-12, secant_newton(2))


@pytest.mark.parametrize("n", range(2, 8))
def test_the_default_map_is_secant_newton_bit_for_bit(n):
    # against a map built apart from the kept one, with its own float terms
    secant_newton.cache_clear()
    sn = secant_newton(n)
    fresh = MapCoefficients(n, sn.p, sn.q)
    xs = (0.3, 2.0, 77.7, 1e-300, 1e300)
    for _ in range(3):  # the first call builds the terms, the others reuse them
        assert [_float_result(x, n, 1e-12) for x in xs] == [
            _float_result(x, n, 1e-12, fresh) for x in xs]
    assert secant_newton.cache_info().currsize == 1
    assert secant_newton(n) is sn and "float_sides" in vars(sn)


def test_a_maps_float_terms_are_built_once_and_a_failure_is_not_kept(monkeypatch):
    built = []
    as_floats = maps._as_floats
    monkeypatch.setattr(maps, "_as_floats", lambda values, what: built.append(what)
                        or as_floats(values, what))
    secant_newton.cache_clear()
    m = MapCoefficients(3, _SN3.p, _SN3.q)
    for _ in range(3):
        for x in (0.3, 2.0, 77.7):
            refine_float(x, 3, 1e-12)
            refine_float(x, 3, 1e-12, m)
    assert len(built) == 4  # p and q, once for the default map and once for m
    beyond_float = MapCoefficients(2, (F(-1), 0, 0, 10 ** 400, 1), _SN2.q)
    for attempt in range(1, 4):
        with pytest.raises(ValueError, match="map coefficients must fit in a float"):
            refine_float(2.0, 2, 1e-3, beyond_float)
        assert len(built) == 4 + attempt  # the p side is read again each time


# x = 0.2325... at n = 4 and eps 1e-30 is a float fixed point one ulp wide
_SECANT_NEWTON_STALLS = (0.2325178701022339, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 50, 200])
def test_the_secant_newton_step_equals_the_dense_one(n):
    rng = random.Random(39 + n)
    xs = (1.0, 1e-300, 1e300, 2.0) + tuple(rng.uniform(0.1, 100.0) for _ in range(6))
    if n == _SECANT_NEWTON_STALLS[1]:
        xs += (_SECANT_NEWTON_STALLS[0],)
    sn = secant_newton(n)
    # a separate object read from a spec, and a p tail coefficient that
    # rounds to Secant-Newton's 1.0: both hold Secant-Newton's float terms
    # as other objects, so they take the generic step on those terms
    spec = maps.map_from_dict(sn.to_json())
    near = MapCoefficients(n, _with(sn.p, {n + 1: 1 + F(1, 10 ** 400)}), sn.q)
    for m in (spec, near):
        assert m.float_sides == sn.float_sides and m.float_sides[0] is not sn.float_sides[0]
    ends = set()
    for x in xs:
        for eps in (1e-12, 1e-30):
            for max_iter in (1, 5, DEFAULT_MAX_ITER):
                want = _dense_refine_float(x, n, eps, sn, max_iter)
                for m in (None, spec, near):
                    assert _float_result(x, n, eps, m, max_iter) == want, (m, x, eps, max_iter)
                ends.add(refine_float(x, n, eps, max_iter=max_iter).terminated)
    assert refine_float(1e300, n, 1e-12).terminated == NON_FINITE
    assert {WIDTH_REACHED, MAX_ITERATIONS, NON_FINITE} <= ends
    if n == _SECANT_NEWTON_STALLS[1]:
        assert STALLED in ends


def test_the_float_path_makes_one_loop_call_and_builds_no_evaluator(monkeypatch):
    calls, endpoints = [], []
    loop, endpoint = solver.refine_float_loop, solver._float_endpoint
    monkeypatch.setattr(solver, "refine_float_loop",
                        lambda *args: calls.append(args) or loop(*args))
    monkeypatch.setattr(solver, "_float_endpoint",
                        lambda *args: endpoints.append(args) or endpoint(*args))
    dominating = MapCoefficients(3, (F(-1), 0, 0, 0, 2, 1, 1), (F(-1), 0, 0, 0, 4, 0, 0))
    fresh = MapCoefficients(3, _SN3.p, _SN3.q)
    secant_newton.cache_clear()
    want = refine_float(2.0, 3, 1e-12)
    # the default map's Secant-Newton step reads no term through the generic one
    assert (len(calls), len(endpoints)) == (1, 0)
    # a separate map with Secant-Newton's coefficients takes the generic step
    assert refine_float(2.0, 3, 1e-12, fresh) == want
    assert len(calls) == 2 and endpoints
    refine_float(2.0, 3, 1e-12, dominating)
    assert len(calls) == 3
    for m in (secant_newton(3), dominating, fresh):
        assert "float_sides" in vars(m) and "evaluator" not in vars(m)


def test_refine_float_rejects_bad_inputs():
    with pytest.raises(ValueError):
        refine_float(0.0, 2, 1e-3)
    with pytest.raises(ValueError):
        refine_float(float("nan"), 2, 1e-3)
    with pytest.raises(ValueError):
        refine_float(2.0, 2, 0.0)
    beyond_float = MapCoefficients(2, (F(-1), 0, 0, 10 ** 400, 1), secant_newton(2).q)
    with pytest.raises(ValueError, match="map coefficients must fit in a float"):
        refine_float(2.0, 2, 1e-3, beyond_float)


@pytest.mark.parametrize("solve", [refine_float, bisect_float])
@pytest.mark.parametrize("x,n,eps,max_iter", [
    (0.0, 2, 1e-3, 10),
    (-2.0, 2, 1e-3, 10),
    (float("nan"), 2, 1e-3, 10),
    (float("inf"), 2, 1e-3, 10),
    (2.0, 2, 0.0, 10),
    (2.0, 2, -1e-3, 10),
    (2.0, 2, float("nan"), 10),
    (2.0, 0, 1e-3, 10),
    (2.0, 1, 1e-3, 10),
    (2.0, 2.5, 1e-3, 10),
    (2.0, 2, 1e-3, 0),
], ids=["x-zero", "x-negative", "x-nan", "x-inf", "eps-zero", "eps-negative",
        "eps-nan", "n-zero", "n-one", "n-not-int", "max-iter-zero"])
def test_float_solvers_reject_bad_inputs(solve, x, n, eps, max_iter):
    with pytest.raises(ValueError):
        solve(x, n, eps, max_iter=max_iter)


def test_bisect_float_stops_at_max_iter():
    trace = bisect_float(2.0, 2, 1e-3, max_iter=3)
    assert (trace.iterations, trace.lo, trace.hi, trace.terminated) == (
        3, 1.375, 1.5, MAX_ITERATIONS)


def test_bisect_float_stalls_where_the_midpoint_is_an_endpoint():
    # 1e-300 is far below one ulp of sqrt(2): after 52 halvings the two
    # endpoints are adjacent doubles, and the midpoint rounds onto one
    trace = bisect_float(2.0, 2, 1e-300)
    assert (trace.iterations, trace.terminated) == (52, STALLED)
    assert trace.lo < trace.hi and trace.lo ** 2 <= 2.0 <= trace.hi ** 2


def test_bisect_float_matches_rational_iterations():
    fast = bisect_float(2.0, 2, 1e-3)
    exact = bisect_to_eps(F(2), 2, F(1, 1000))
    assert fast.iterations == exact.iterations == 10


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("solve", [refine_to_eps, bisect_to_eps, refine_float, bisect_float])
def test_a_max_iter_past_the_digit_limit_is_rejected(solve):
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError) as exc:
            solve(2, 2, 1, max_iter=-10 ** 5000)
    finally:
        sys.set_int_max_str_digits(previous)
    assert str(exc.value) == "max_iter must be >= 1, got <int too long to print>"


@pytest.mark.parametrize("solve", [refine_to_eps, bisect_to_eps, refine_float, bisect_float])
@pytest.mark.parametrize("max_iter", [True, 2.5, F(7)])
def test_max_iter_must_be_an_int(solve, max_iter):
    # True would pass for 1 and could come back as a trace's iteration
    # count, and 2.5 would fail bisection's shift: both are rejected first
    with pytest.raises(ValueError) as exc:
        solve(2, 2, 1, max_iter=max_iter)
    assert str(exc.value) == f"max_iter must be an integer, got {max_iter!r}"


@pytest.mark.parametrize("solve", [refine_to_eps, bisect_to_eps, refine_float, bisect_float])
def test_a_degree_too_large_to_index_is_rejected(solve):
    # at x = 1 no step runs, so nothing but the check stands between the
    # degree and the solver
    with pytest.raises(ValueError, match="n must be an integer from 2"):
        solve(1, 2 ** 64, 1)
