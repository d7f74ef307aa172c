from fractions import Fraction as F
from functools import partial
from math import lcm

import pytest
from hypothesis import assume, given, strategies as st

from map_generators import (perturbed_contracting_map, random_canonical_map,
                            random_noncanonical_map)
from root_enclose._kernels import apply_pairs, apply_reduced_pairs, form_pair
from root_enclose.maps import (
    DenominatorZeroError,
    MapCoefficients,
    MapEvaluator,
    MapSpecError,
    apply_pair,
    canonicalize,
    check_canonical,
    counterexample_map,
    denominators,
    load_map,
    map_from_dict,
    secant_newton,
)
from root_enclose.numeric import geom_sum, pow_int

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
    report = check_canonical(counterexample_map(repair_q0=False))
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
        dp = form_pair(*_over_lcm(m.p[n + 1:]), ln, ld, un, ud)
        dq = form_pair(*_over_lcm(m.q[n + 1:]), un, ud, ln, ld)
        want = apply_reduced_pairs(n, *dp, *dq, *args)
    else:
        want = apply_pairs(n, *_over_lcm(m.p), *_over_lcm(m.q), *args)
    assert MapEvaluator(m).evaluate(*args) == want


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


def test_canonicalize_fixed_point():
    m = secant_newton(4)
    assert canonicalize(m) == m


def test_canonicalize_forces_head():
    m = MapCoefficients(2, (F(5), 1, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    fixed = canonicalize(m)
    assert fixed.p == (F(-1), 0, 0, 1, 1)
    assert check_canonical(fixed).is_canonical


def test_canonicalize_repairs_published_vector():
    # the counterexample vector as sometimes printed, with q0 = +1
    m = MapCoefficients(3, (F(-1), 0, 0, 0, 2, F(1, 2), 1), (F(1), 0, 0, 0, 3, 0, 0))
    assert canonicalize(m).q == (F(-1), 0, 0, 0, 3, 0, 0)


@given(canonical_maps())
def test_canonicalize_idempotent(m):
    assert canonicalize(canonicalize(m)) == canonicalize(m)


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


def test_map_from_dict_rejects_missing_fields():
    with pytest.raises(MapSpecError, match="missing"):
        map_from_dict({"n": 3, "p": COUNTEREXAMPLE_SPEC["p"]})


def test_load_map_rejects_garbage_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MapSpecError, match="JSON"):
        load_map(str(path))
