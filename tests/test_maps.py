from fractions import Fraction as F
from functools import partial
from math import lcm

import pytest
from hypothesis import assume, given, strategies as st

from map_generators import (perturbed_contracting_map, random_canonical_map,
                            random_noncanonical_map)
from root_enclose import maps
from root_enclose._kernels import apply_pairs, apply_reduced_pairs, form_pair
from root_enclose.analysis import SampleConfig, check_map
from root_enclose.maps import (
    DenominatorZeroError,
    MapCoefficients,
    MapEvaluator,
    MapSpecError,
    apply_pair,
    check_canonical,
    counterexample_map,
    denominators,
    load_map,
    map_from_dict,
    secant_newton,
)
from root_enclose.numeric import geom_sum, pow_int
from root_enclose.solver import refine_to_eps

small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
positive_rationals = st.builds(F, st.integers(1, 60), st.integers(1, 20))


@st.composite
def canonical_maps(draw, min_n=2, max_n=5):
    """Canonical head, arbitrary (possibly sign-mixed) denominator tails."""
    n = draw(st.integers(min_n, max_n))
    head = [F(-1)] + [F(0)] * n
    p_tail = draw(st.lists(small_rationals, min_size=n, max_size=n))
    q_tail = draw(st.lists(small_rationals, min_size=n, max_size=n))
    assume(any(c != 0 for c in p_tail) and any(c != 0 for c in q_tail))
    return MapCoefficients(n, tuple(head + p_tail), tuple(head + q_tail))


@st.composite
def triples(draw, max_mag=40):
    vals = sorted(draw(st.lists(positive_rationals, min_size=3, max_size=3)))
    return vals[0], vals[1], vals[2]


def test_secant_newton_n2():
    m = secant_newton(2)
    assert m.p == (F(-1), 0, 0, 1, 1)
    assert m.q == (F(-1), 0, 0, 2, 0)


def test_secant_newton_n3():
    m = secant_newton(3)
    assert m.p == (F(-1), 0, 0, 0, 1, 1, 1)
    assert m.q == (F(-1), 0, 0, 0, 3, 0, 0)


def test_secant_newton_n5_pattern():
    m = secant_newton(5)
    assert m.q[6] == 5
    assert m.q[7:] == (F(0),) * 4
    assert m.p[6:] == (F(1),) * 5


@pytest.mark.parametrize("bad_n", [1, 0, -3])
def test_secant_newton_rejects_small_n(bad_n):
    with pytest.raises(ValueError):
        secant_newton(bad_n)


class _Int(int):
    """An int subclass, which check_degree accepts as a degree."""


def test_no_wrong_degree_is_served_from_the_secant_newton_cache():
    assert secant_newton(2) is secant_newton(2)
    assert secant_newton(_Int(2)).q == (F(-1), 0, 0, 2, 0)
    # untyped, the key kept for _Int(2) would equal 2.0's and serve its map
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="n must be an integer from 2"):
            secant_newton(bad)


def test_each_map_builds_one_evaluator(monkeypatch):
    sides = []
    side = maps._side
    monkeypatch.setattr(maps, "_side", lambda *args: sides.append(args) or side(*args))
    secant_newton.cache_clear()
    for x in (2, 3, F(1, 3), 7, F(27, 8)):
        refine_to_eps(x, 3, F(1, 10 ** 20))
    assert len(sides) == 2  # one evaluator: its p and q sides
    m = perturbed_contracting_map(3, 5)
    for x in (2, 3, 7):
        refine_to_eps(x, 3, F(1, 10 ** 6), m)
    apply_pair(m, 1, 2, 3)
    denominators(m, 1, 2)
    check_map(m, SampleConfig(seed=0, count=20))
    assert len(sides) == 4


def test_map_coefficients_validates_lengths():
    with pytest.raises(ValueError):
        MapCoefficients(2, (F(-1), 0, 0, 1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(ValueError):
        MapCoefficients(1, (F(-1), 0, 1), (F(-1), 0, 1))


def test_check_canonical_secant_newton():
    assert check_canonical(secant_newton(3)).is_canonical


def test_check_canonical_counterexample_map():
    report = check_canonical(counterexample_map())
    assert report.is_canonical
    assert report.violations == ()


def test_check_canonical_reports_violation():
    m = MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    report = check_canonical(m)
    assert not report.is_canonical
    assert ("p0", F(-1), F(0)) in report.violations


def test_check_canonical_unrepaired_q0():
    # the bundled map as it is sometimes quoted, with q0 = +1
    m = counterexample_map()
    report = check_canonical(MapCoefficients(3, m.p, (F(1),) + m.q[1:]))
    assert report.violations == (("q0", F(-1), F(1)),)


def test_apply_secant_newton_hand_value():
    # x - L^3 = 19/8 over 1+2+4 = 7; x - U^3 = -37/8 over 3*4 = 12
    assert apply_pair(secant_newton(3), 1, 2, F(27, 8)) == (F(75, 56), F(155, 96))


def test_apply_counterexample_map_same_point():
    # equality point: 2*1 + (1/2)*2 + 1*4 = 7 matches the secant denominator
    assert apply_pair(counterexample_map(), 1, 2, F(27, 8)) == (F(75, 56), F(155, 96))


def test_apply_root_fixing_lower():
    m = counterexample_map()
    lo, hi = apply_pair(m, F(3, 2), F(4), pow_int(F(3, 2), 3))
    assert lo == F(3, 2)


def test_apply_requires_positive_x():
    with pytest.raises(ValueError):
        apply_pair(secant_newton(2), F(1), F(2), F(0))


def test_apply_requires_ordered_interval():
    with pytest.raises(ValueError):
        apply_pair(secant_newton(2), F(2), F(1), F(2))


def test_denominator_zero_is_an_error():
    # p-denominator 2L - U vanishes at (1, 2)
    m = MapCoefficients(2, (F(-1), 0, 0, 2, -1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(DenominatorZeroError) as exc:
        apply_pair(m, F(1), F(2), F(2))
    assert exc.value.side == "lower"


def test_upper_denominator_zero_on_the_general_kernel():
    # a p head off its canonical value sends the map to the general kernel;
    # the q tail (0, 0) makes its upper denominator zero everywhere
    m = MapCoefficients(2, (F(-1), 1, 0, 1, 1), (F(-1), 0, 0, 0, 0))
    with pytest.raises(DenominatorZeroError) as exc:
        apply_pair(m, F(1), F(2), F(2))
    assert exc.value.side == "upper"


def test_denominators_helper():
    dp, dq = denominators(counterexample_map(), F(1), F(4))
    assert dp == F(20)
    assert dq == F(48)


def _secant_newton_direct(L, U, x, n):
    """Independent transcription: secant chord lower, Newton tangent upper."""
    lo = L + (x - L ** n) / sum(L ** (n - 1 - i) * U ** i for i in range(n))
    hi = U + (x - U ** n) / (n * U ** (n - 1))
    return lo, hi


@given(triples(), st.integers(2, 6))
def test_apply_matches_direct_transcription(t, n):
    L, r, U = t
    x = pow_int(r, n)
    assert apply_pair(secant_newton(n), L, U, x) == _secant_newton_direct(L, U, x, n)


@given(canonical_maps(), triples(), positive_rationals)
def test_scaling_equivariance(m, t, s):
    L, r, U = t
    x = pow_int(r, m.n)
    try:
        base = apply_pair(m, L, U, x)
        scaled = apply_pair(m, s * L, s * U, pow_int(s, m.n) * x)
    except DenominatorZeroError:
        assume(False)
    assert scaled == (s * base[0], s * base[1])


def _over_lcm(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


def _general_pair(m, lo, hi, x):
    """MapEvaluator.pair, but always through the general form."""
    status, a, b, c, d = apply_pairs(
        m.n, *_over_lcm(m.p), *_over_lcm(m.q),
        lo.numerator, lo.denominator,
        hi.numerator, hi.denominator,
        x.numerator, x.denominator,
    )
    if status == 1:
        raise DenominatorZeroError("lower")
    if status == 2:
        raise DenominatorZeroError("upper")
    return F(a, b), F(c, d)


@given(canonical_maps(), triples())
def test_reduced_path_equals_general_form(m, t):
    L, r, U = t
    x = pow_int(r, m.n)
    try:
        fast = MapEvaluator(m).pair(L, U, x)
        general = _general_pair(m, L, U, x)
    except DenominatorZeroError:
        assume(False)
    assert fast == general


_GENERATORS = {
    "canonical": random_canonical_map,
    "positive": partial(random_canonical_map, positive_denominators=True),
    "perturbed": perturbed_contracting_map,
    "noncanonical": random_noncanonical_map,
}
_PAIR = st.tuples(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))


@given(st.sampled_from(sorted(_GENERATORS)), st.integers(2, 6), st.integers(0, 2 ** 32),
       _PAIR, _PAIR, _PAIR, st.integers(1, 2 ** 40))
def test_evaluate_is_its_kernel_on_unreduced_pairs(kind, n, map_seed, lo, hi, x, scale):
    # the solver rounds on the unreduced denominators evaluate returns, so
    # the kernel a map goes through is part of the result: the general form
    # on the whole vectors for a non-canonical map, even on a side whose head
    # is canonical, and the reduced form over the tails for a canonical one
    m = _GENERATORS[kind](n, map_seed)
    (ln, ld), (un, ud) = sorted([lo, hi], key=lambda v: F(*v))
    ln, ld = ln * scale, ld * scale  # a pair with a common factor
    args = (ln, ld, un, ud, *x)
    if check_canonical(m).is_canonical:
        (p, pden), (q, qden) = _over_lcm(m.p), _over_lcm(m.q)
        dp = form_pair(p[n + 1:], ln, ld, un, ud)
        dq = form_pair(q[n + 1:], un, ud, ln, ld)
        want = apply_reduced_pairs(n, dp, pden, dq, qden, *args)
    else:
        want = apply_pairs(n, *_over_lcm(m.p), *_over_lcm(m.q), *args)
    assert MapEvaluator(m).evaluate(*args) == want


@given(st.sampled_from(sorted(_GENERATORS)), st.integers(2, 6), st.integers(0, 2 ** 32),
       _PAIR, _PAIR)
def test_excess_has_the_sign_of_the_fraction_excess(kind, n, map_seed, lo, hi):
    # excess() gives the excess forms as numerators over positive scales,
    # which only denominators divides by: each has the sign of the Fraction
    # value Dp - S or Dq - N, and is 0 where that side's tail is
    # Secant-Newton's; the tails' forms are summed here term by term
    m = _GENERATORS[kind](n, map_seed)
    L, U = sorted([F(*lo), F(*hi)])

    def tail_forms(c):
        return tuple(sum(ci * a ** (n - 1 - i) * b ** i for i, ci in enumerate(v[n + 1:]))
                     for v, a, b in ((c.p, L, U), (c.q, U, L)))

    sn = secant_newton(n)
    forms = tail_forms(m)
    assert denominators(m, L, U) == forms
    excess = MapEvaluator(m).excess(L.numerator, L.denominator, U.numerator, U.denominator)
    for g, form, sn_form, tail, sn_tail in zip(excess, forms, tail_forms(sn),
                                               (m.p[n + 1:], m.q[n + 1:]),
                                               (sn.p[n + 1:], sn.q[n + 1:])):
        assert type(g) is int
        assert (g > 0) - (g < 0) == (form > sn_form) - (form < sn_form)
        if tail == sn_tail:
            assert g == 0


@st.composite
def general_maps(draw, min_n=2, max_n=5):
    """Arbitrary coefficient vectors, whose heads and tails mix denominators."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.lists(small_rationals, min_size=2 * n + 1, max_size=2 * n + 1))
    q = draw(st.lists(small_rationals, min_size=2 * n + 1, max_size=2 * n + 1))
    return MapCoefficients(n, tuple(p), tuple(q))


def _direct_forms(m, L, U, x):
    """The map formula summed term by term in Fractions, as
    ((lower numerator, lower denominator), (upper numerator, upper denominator))."""
    n = m.n

    def side(c, a, b):
        num = x + sum(c[i] * a ** (n - i) * b ** i for i in range(n + 1))
        den = sum(c[n + 1 + i] * a ** (n - 1 - i) * b ** i for i in range(n))
        return num, den

    return side(m.p, L, U), side(m.q, U, L)


@given(st.one_of(canonical_maps(), general_maps()), triples())
def test_evaluator_matches_the_map_formula(m, t):
    # independent of the kernels' integer coefficient format: a wrongly
    # scaled coefficient changes a form's value
    L, r, U = t
    x = pow_int(r, m.n)
    (num_p, den_p), (num_q, den_q) = _direct_forms(m, L, U, x)
    assert denominators(m, L, U) == (den_p, den_q)
    if den_p == 0 or den_q == 0:
        with pytest.raises(DenominatorZeroError) as exc:
            MapEvaluator(m).pair(L, U, x)
        assert exc.value.side == ("lower" if den_p == 0 else "upper")
    else:
        assert MapEvaluator(m).pair(L, U, x) == (L + num_p / den_p, U + num_q / den_q)


# --- map spec files -------------------------------------------------------

COUNTEREXAMPLE_SPEC = {
    "n": 3,
    "p": ["-1", "0", "0", "0", "2", "1/2", "1"],
    "q": ["-1", "0", "0", "0", "3", "0", "0"],
}


def test_load_map_round_trip(write_map):
    m = load_map(write_map(COUNTEREXAMPLE_SPEC))
    assert m == counterexample_map()
    assert m.to_json() == COUNTEREXAMPLE_SPEC


def test_map_from_dict_rejects_unknown_fields():
    with pytest.raises(MapSpecError, match="unknown"):
        map_from_dict({**COUNTEREXAMPLE_SPEC, "comment": "hi"})


def test_map_from_dict_rejects_wrong_length():
    bad = {**COUNTEREXAMPLE_SPEC, "p": ["-1", "0", "0"]}
    with pytest.raises(MapSpecError, match="7"):
        map_from_dict(bad)


def test_map_from_dict_rejects_bad_entries():
    bad = {**COUNTEREXAMPLE_SPEC, "q": ["-1", "0", "0", "0", "3.0", "0", "0"]}
    with pytest.raises(MapSpecError, match="bad entry in q"):
        map_from_dict(bad)


@pytest.mark.parametrize("n", ["3", 1, True, None])
def test_map_from_dict_rejects_bad_n(n):
    with pytest.raises(MapSpecError):
        map_from_dict({**COUNTEREXAMPLE_SPEC, "n": n})


@pytest.mark.parametrize("data,message", [
    ([COUNTEREXAMPLE_SPEC], "map spec must be a JSON object"),
    ({**COUNTEREXAMPLE_SPEC, "p": "-1 0 0 0 2 1/2 1"}, "p must be an array of rational strings"),
], ids=["not-an-object", "p-not-an-array"])
def test_map_from_dict_rejects_a_wrong_shape(data, message):
    with pytest.raises(MapSpecError) as exc:
        map_from_dict(data)
    assert str(exc.value) == message


def test_map_from_dict_rejects_missing_fields():
    with pytest.raises(MapSpecError, match="missing"):
        map_from_dict({"n": 3, "p": COUNTEREXAMPLE_SPEC["p"]})


def test_load_map_rejects_garbage_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MapSpecError, match="JSON"):
        load_map(str(path))
