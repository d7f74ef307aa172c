import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from root_enclose.analysis import SampleConfig, Witness, evaluate_locus, locus_text
from root_enclose.bench import spec_from_dict
from root_enclose.maps import (
    MapCoefficients,
    MapEvaluator,
    check_canonical,
    counterexample_map,
    map_from_dict,
    secant_newton,
)
from root_enclose.numeric import (
    Interval,
    as_rational,
    format_rational,
    geom_sum,
    parse_rational,
    pow_int,
)
from root_enclose.solver import (
    NotContractingError,
    bisect_to_eps,
    initial_interval,
    refine_float,
    refine_to_eps,
)

rationals = st.builds(F, st.integers(-200, 200), st.integers(1, 60))
positive_rationals = st.builds(F, st.integers(1, 200), st.integers(1, 60))


@pytest.mark.parametrize("base,k,expected", [
    (F(3, 2), 3, F(27, 8)),
    (F(7), 0, F(1)),
    (F(2, 3), 2, F(4, 9)),
    (F(0), 0, F(1)),
    (F(0), 5, F(0)),
    (F(-2, 3), 3, F(-8, 27)),
])
def test_pow_int_examples(base, k, expected):
    assert pow_int(base, k) == expected


def test_as_rational_returns_a_fraction_unchanged():
    value = F(22, 7)
    assert as_rational(value) is value


def test_as_rational_converts_a_fraction_subclass():
    class Sub(F):
        pass

    value = as_rational(Sub(3, 4))
    assert type(value) is F
    assert value == F(3, 4)


def test_as_rational_converts_ints():
    value = as_rational(5)
    assert type(value) is F
    assert value == 5


@pytest.mark.parametrize("bad", [1.5, 0.0, float("inf")])
def test_as_rational_rejects_floats(bad):
    with pytest.raises(TypeError):
        as_rational(bad)


def test_pow_int_rejects_negative_exponent():
    with pytest.raises(ValueError):
        pow_int(F(2), -1)


@pytest.mark.parametrize("a,b,n,expected", [
    (F(1), F(2), 3, F(7)),          # 1 + 2 + 4
    (F(3), F(3), 4, F(108)),        # 4 * 3^3
    (F(1), F(1), 5, F(5)),
    (F(1, 2), F(2), 2, F(5, 2)),
])
def test_geom_sum_examples(a, b, n, expected):
    assert geom_sum(a, b, n) == expected


def test_geom_sum_rejects_n_zero():
    with pytest.raises(ValueError):
        geom_sum(F(1), F(2), 0)


@given(rationals, rationals, st.integers(1, 8))
def test_geom_sum_telescopes(a, b, n):
    # multiplying by (a - b) collapses the sum to a^n - b^n
    assert geom_sum(a, b, n) * (a - b) == pow_int(a, n) - pow_int(b, n)


@given(rationals, rationals, st.integers(1, 8))
def test_geom_sum_symmetric(a, b, n):
    assert geom_sum(a, b, n) == geom_sum(b, a, n)


@given(rationals, st.integers(0, 6), st.integers(0, 6))
def test_pow_int_additive_in_exponent(a, m, k):
    assert pow_int(a, m + k) == pow_int(a, m) * pow_int(a, k)


@given(rationals, rationals, st.integers(1, 8))
def test_results_are_reduced(a, b, n):
    for value in (geom_sum(a, b, n), pow_int(a, n)):
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


def test_width_examples():
    assert Interval(F(1), F(2)).width == F(1)
    assert Interval(F(3, 2), F(3, 2)).width == F(0)
    # after two Secant-Newton steps on x=2, n=2 the interval is [24/17, 17/12]
    assert Interval(F(24, 17), F(17, 12)).width == F(1, 204)


def test_interval_invariant():
    Interval(F(1), F(1))
    with pytest.raises(ValueError):
        Interval(F(2), F(1))
    with pytest.raises(ValueError):
        Interval(F(0), F(1))
    with pytest.raises(ValueError):
        Interval(F(-1), F(1))
    with pytest.raises(TypeError):
        Interval(1.5, 2.0)  # floats are refused, exactness would be a lie


@pytest.mark.parametrize("text,expected", [
    ("3", F(3)),
    ("-7/3", F(-7, 3)),
    ("4/6", F(2, 3)),
    ("0", F(0)),
    ("-0", F(0)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", [
    "1/0", "1 /2", "1/ 2", " 1", "1 ", "+3", "1.5", "a", "", "1/-2", "--2",
    "1e-3", "2/", "/3",
])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


# a 5001-digit numerator or denominator, beyond the default limit of 4300
HUGE = F(10 ** 5000)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("write", [
    lambda: str(NotContractingError(1 / HUGE, F(1), 3)),
    lambda: MapCoefficients(2, (-1, 0, 0, HUGE, 1), (-1, 0, 0, 2, 0)).to_json(),
    lambda: check_canonical(MapCoefficients(2, (-1, HUGE, 0, 1, 1), (-1, 0, 0, 2, 0))).to_json(),
    lambda: Witness(F(1), F(1), HUGE, F(1), "U' <= U", HUGE, F(1)).to_json(),
    lambda: locus_text({(1, 0, 1): 1 / HUGE, (2, 0, 0): -HUGE}),
    lambda: str(Interval(1 / HUGE, F(1))),
], ids=["NotContractingError", "MapCoefficients.to_json", "CanonicalReport.to_json",
        "Witness.to_json", "locus_text", "Interval.__str__"])
def test_writers_at_the_default_digit_limit(write):
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        limited = write()
        sys.set_int_max_str_digits(0)
        unlimited = write()
        assert str(HUGE.numerator) in str(unlimited)
    finally:
        sys.set_int_max_str_digits(previous)
    assert limited == unlimited


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("call,message", [
    (lambda: refine_to_eps(-HUGE, 2, F(1, 10)), "x must be positive, got -"),
    (lambda: bisect_to_eps(F(2), 2, -HUGE), "eps must be positive, got -"),
    (lambda: initial_interval(-HUGE), "x must be positive, got -"),
    (lambda: MapEvaluator(secant_newton(2)).pair(HUGE, F(1), F(2)), "need 0 < lo <= hi, got ["),
    (lambda: MapEvaluator(secant_newton(2)).pair(F(1), F(2), -HUGE), "need x > 0, got -"),
    (lambda: evaluate_locus(counterexample_map(), HUGE, F(1), F(1)), "need 0 < L <= U, got ("),
    (lambda: evaluate_locus(counterexample_map(), F(1), F(2), HUGE), "need L^n <= x <= U^n, got x="),
    (lambda: Interval(HUGE, F(1)), "invalid interval ["),
    # positive, but 0.0 as a double: named as given, not as 0.0
    (lambda: refine_float(1 / HUGE, 2, F(1, 10)), "x rounds to 0.0 as a double, got 1/"),
    (lambda: refine_float(F(2), 2, 1 / HUGE), "eps rounds to 0.0 as a double, got 1/"),
    # beyond the double range: named as given
    (lambda: refine_float(HUGE, 2, F(1, 10)), "x does not fit in a double, got 1"),
    (lambda: refine_float(F(2), 2, HUGE), "eps does not fit in a double, got 1"),
    # an int describe cannot print is named by its type: the whole message
    (lambda: SampleConfig(count=-HUGE.numerator),
     "count must be >= 1, got <int too long to print>"),
    (lambda: SampleConfig(seed=HUGE.numerator),
     "seed must fit in 64 unsigned bits, got <int too long to print>"),
], ids=["refine_to_eps-x", "bisect_to_eps-eps", "initial_interval", "MapEvaluator.pair-ends",
        "MapEvaluator.pair-x", "evaluate_locus-ends", "evaluate_locus-x", "Interval",
        "refine_float-x", "refine_float-eps", "refine_float-x-overflow",
        "refine_float-eps-overflow", "SampleConfig-count", "SampleConfig-seed"])
def test_errors_at_the_default_digit_limit(call, message):
    # the message names the offending 5001-digit value instead of raising
    # the interpreter's int-to-str limit error
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError) as exc:
            call()
        text = str(exc.value)
    finally:
        sys.set_int_max_str_digits(previous)
    assert text.startswith(message)
    # describe names an int it cannot print by its type: such a message is whole
    assert text == message if message.endswith(" too long to print>") else HUGE_TEXT in text


HUGE_TEXT = "1" + "0" * 5000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("read,expected", [
    (lambda: parse_rational(HUGE_TEXT), HUGE),
    (lambda: parse_rational(f"-3/{HUGE_TEXT}"), -3 / HUGE),
    (lambda: parse_rational(f"{HUGE_TEXT}7/{HUGE_TEXT}"), (10 * HUGE + 7) / HUGE),
    (lambda: map_from_dict({"n": 2, "p": ["-1", "0", "0", HUGE_TEXT, "1"],
                            "q": ["-1", "0", "0", "2", "0"]}).p[3], HUGE),
    (lambda: spec_from_dict({"maps": ["secant-newton"], "xs": [f"1/{HUGE_TEXT}"],
                             "ns": [2], "epses": ["1"]}).xs[0], 1 / HUGE),
], ids=["integer", "fraction", "long-numerator", "map_from_dict", "spec_from_dict"])
def test_readers_at_the_default_digit_limit(read, expected):
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        value = read()
        text = format_rational(value)
    finally:
        sys.set_int_max_str_digits(previous)
    assert value == expected
    assert parse_rational(text) == value


def test_parse_rational_rejects_a_long_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/" + "0" * 5000)
