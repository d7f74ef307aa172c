"""The parametrized family of degree-n interval refinement maps.

A member is a pair of coefficient vectors p, q of length 2n+1 and sends
([L, U], x) to [L', U'] with

    L' = L + (x + p0*L^n + p1*L^(n-1)*U + ... + pn*U^n)
           / (p_{n+1}*L^(n-1) + p_{n+2}*L^(n-2)*U + ... + p_{2n}*U^(n-1))

    U' = U + (x + q0*U^n + q1*U^(n-1)*L + ... + qn*L^n)
           / (q_{n+1}*U^(n-1) + q_{n+2}*U^(n-2)*L + ... + q_{2n}*L^(n-1))

The Secant-Newton member uses the secant chord through (L, L^n) and (U, U^n)
for the lower endpoint and the Newton tangent at U for the upper one.
Canonical form (p0 = q0 = -1 and p1..pn = q1..qn = 0) makes the numerators
exactly x - L^n and x - U^n; the analysis module turns any non-canonical map
into a concrete contraction counterexample, so coefficients are stored
verbatim and never canonicalized.

MapEvaluator holds every map, canonical or not, as Secant-Newton plus its
differences: per side, the head where it is not canonical and the
denominator tail's excess over Secant-Newton's where it is not zero.  Its
excess forms Dp - S and Dq - N are what the analysis module's checks and
the comparison with Secant-Newton (beside) read.

Every map is prepared once: a MapCoefficients keeps the MapEvaluator and
float terms it builds on first use, and secant_newton keeps one per degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from ._kernels import apply_pairs, apply_reduced_pairs, endpoint_pair, form_pair
from .numeric import as_rational, describe, format_rational, is_int, parse_int, parse_rational


class DenominatorZeroError(ArithmeticError):
    """A map denominator evaluated to exactly zero at some (L, U).

    ``side`` is "lower" or "upper"; ``iteration`` is filled in by the solver
    when the failure happens mid-refinement.
    """

    def __init__(self, side: str, iteration: int | None = None):
        self.side = side
        self.iteration = iteration
        msg = f"{side} denominator evaluated to zero"
        if iteration is not None:
            msg += f" at iteration {iteration}"
        super().__init__(msg)


class MapSpecError(ValueError):
    """Malformed map specification (file or dict)."""


# The largest degree accepted.  A degree-n map holds 2(2n+1) Fractions and
# each exact step evaluates forms of n terms; the README's performance
# notes give the measured cost in n.
MAX_DEGREE = 10_000


def check_degree(n) -> None:
    """Raise ValueError unless n is an integer 2 <= n <= MAX_DEGREE, before
    anything of degree n is built."""
    if not is_int(n) or not 2 <= n <= MAX_DEGREE:
        raise ValueError(f"n must be an integer from 2 to {MAX_DEGREE}, got {describe(n)}")


@dataclass(frozen=True)
class MapCoefficients:
    """One member of the family: degree n plus vectors p, q of length 2n+1."""

    n: int
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        check_degree(self.n)
        object.__setattr__(self, "p", tuple(as_rational(c) for c in self.p))
        object.__setattr__(self, "q", tuple(as_rational(c) for c in self.q))
        want = 2 * self.n + 1
        for name, coeffs in (("p", self.p), ("q", self.q)):
            if len(coeffs) != want:
                raise ValueError(
                    f"{name} must have length {want} (2n+1 for n={self.n}), "
                    f"got {len(coeffs)}"
                )

    @cached_property
    def evaluator(self) -> MapEvaluator:
        """The map prepared for exact evaluation, built on first use."""
        return MapEvaluator(self)

    @cached_property
    def float_sides(self):
        """The p and q sides as the float step reads them, built on first
        use: the terms (c, i, j) of a side's nonzero coefficients, each read
        as c * a**i * b**j, the head's c[0..n] at (n - k, k), then the tail's
        c[n+1..2n] at (n - 1 - k, k), in index order.  A coefficient beyond
        the float range is a ValueError at every use; one that rounds to 0.0
        has no term."""
        n = self.n
        sides = []
        for coeffs in (self.p, self.q):
            c = _as_floats(coeffs, "map coefficients")
            sides.append((tuple((c[k], n - k, k) for k in range(n + 1) if c[k]),
                          tuple((c[n + 1 + k], n - 1 - k, k) for k in range(n) if c[n + 1 + k])))
        return tuple(sides)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": [format_rational(c) for c in self.p],
            "q": [format_rational(c) for c in self.q],
        }


@dataclass(frozen=True)
class CanonicalReport:
    """Outcome of the canonical-form check.

    ``violations`` holds (coefficient name, required value, actual value)
    for every head coefficient that differs from the canonical one; the map
    is canonical exactly when there are none.
    """

    violations: tuple[tuple[str, Fraction, Fraction], ...]

    @property
    def is_canonical(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "is_canonical": self.is_canonical,
            "violations": [
                {"coefficient": name, "required": format_rational(req),
                 "actual": format_rational(act)}
                for name, req, act in self.violations
            ],
        }


def _as_floats(values, what):
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ValueError(f"{what} must fit in a float: {exc}") from None


# the last 8 degrees; typed, so that 2.0 never finds a map kept for an int 2
@lru_cache(maxsize=8, typed=True)
def secant_newton(n: int) -> MapCoefficients:
    """The Secant-Newton member of the degree-n family, one per degree.

    p = (-1, 0 x n, 1 x n) gives the secant chord for the lower endpoint;
    q = (-1, 0 x n, n, 0 x (n-1)) gives the Newton tangent at U for the
    upper one.
    """
    check_degree(n)
    zero = Fraction(0)
    one = Fraction(1)
    p = (Fraction(-1),) + (zero,) * n + (one,) * n
    q = (Fraction(-1),) + (zero,) * n + (Fraction(n),) + (zero,) * (n - 1)
    return MapCoefficients(n, p, q)


def counterexample_map() -> MapCoefficients:
    """A degree-3 map that is not Secant-Newton yet returns the identical
    interval at ([1, 2], x = 27/8): an equality point of the dominance
    relation.

    The vector is sometimes quoted with q0 = +1, which no contracting map can
    have (``check`` rejects it at its first head probe); this is q0 = -1.
    """
    return MapCoefficients(
        3,
        p=(Fraction(-1), 0, 0, 0, Fraction(2), Fraction(1, 2), Fraction(1)),
        q=(Fraction(-1), 0, 0, 0, Fraction(3), 0, 0),
    )


def check_canonical(m: MapCoefficients) -> CanonicalReport:
    """Check p0 = q0 = -1 and p1..pn = q1..qn = 0."""
    violations = []
    minus_one = Fraction(-1)
    zero = Fraction(0)
    for name, coeffs in (("p", m.p), ("q", m.q)):
        if coeffs[0] != minus_one:
            violations.append((f"{name}0", minus_one, coeffs[0]))
        for i in range(1, m.n + 1):
            if coeffs[i] != zero:
                violations.append((f"{name}{i}", zero, coeffs[i]))
    return CanonicalReport(tuple(violations))


class _Side(NamedTuple):
    """One side of a map as MapEvaluator holds it, every list integer
    numerators over den, the lcm of the side's coefficient denominators."""

    den: int
    whole: list[int]            # all 2n+1 coefficients
    head: list[int] | None      # the n+1 head coefficients, None where canonical
    tail: list[int]             # the n denominator-tail coefficients
    excess: list[int] | None    # tail less sn_tail, None where all zero
    sn_tail: list[int]          # Secant-Newton's tail on this side


def _side(n: int, coeffs, sn_tail) -> _Side:
    """coeffs as a _Side, given Secant-Newton's tail on that side, whose
    coefficients are integers."""
    den = lcm(*(c.denominator for c in coeffs))
    whole = [c.numerator * (den // c.denominator) for c in coeffs]
    head, tail = whole[:n + 1], whole[n + 1:]
    if head == [-den] + [0] * n:
        head = None
    sn_tail = [c * den for c in sn_tail]
    excess = [a - b for a, b in zip(tail, sn_tail)]
    return _Side(den, whole, head, tail, excess if any(excess) else None, sn_tail)


def _beside(n, side, g, an, ad, bn, bd, xn, xd):
    """One side of MapEvaluator.beside, at (a, b) = (L, U) for p and (U, L)
    for q, where the side's excess form has the numerator g: None for a
    side that is Secant-Newton's, else (the map's endpoint, Secant-Newton's).
    The map's denominator form is Secant-Newton's plus g, over the same
    scale, and its numerator is x - a^n unless its head differs."""
    den, _, head, _, excess, sn_tail = side
    if head is None and excess is None:
        return None
    s = form_pair(sn_tail, an, ad, bn, bd)
    hn = None if head is None else form_pair(head, an, ad, bn, bd)
    return (endpoint_pair(n, hn, s + g, den, an, ad, bd, xn, xd),
            endpoint_pair(n, None, s, den, an, ad, bd, xn, xd))


class MapEvaluator:
    """One map prepared for repeated exact evaluation, held as Secant-Newton
    plus its differences: one _Side per side, in the kernels' format of
    integer numerators over the lcm of the side's denominators.

    evaluate runs a canonical map on the reduced-form kernel over its tails
    and any other map on the general form over its whole vectors; the test
    suite checks the two against each other on canonical maps.  excess
    gives the excess forms Dp - S and Dq - N over Secant-Newton's secant
    form S and Newton form N = n*U^(n-1), and beside evaluates the map next
    to Secant-Newton from them, on the sides that differ from it.
    same_heads says per side, and canonical for both, whether the head is
    canonical; dominating, whether the map is canonical and no excess
    coefficient is negative, so that Dp - S >= 0 and Dq - N >= 0 at every
    0 < L <= U; same_tails, per side, whether the tail is Secant-Newton's.
    """

    __slots__ = ("_n", "_p", "_q", "canonical", "dominating", "same_heads", "same_tails")

    def __init__(self, m: MapCoefficients):
        n = self._n = m.n
        # Secant-Newton's tails: the secant form (1, ..., 1) and the Newton
        # form (n, 0, ..., 0)
        p = self._p = _side(n, m.p, [1] * n)
        q = self._q = _side(n, m.q, [n] + [0] * (n - 1))
        self.same_heads = (p.head is None, q.head is None)
        self.canonical = all(self.same_heads)
        self.same_tails = (p.excess is None, q.excess is None)
        self.dominating = self.canonical and all(
            c >= 0 for side in (p, q) for c in side.excess or ())

    def pair(self, lo: Fraction, hi: Fraction, x: Fraction) -> tuple[Fraction, Fraction]:
        """Raw refined endpoints at ([lo, hi], x); unclamped and unordered."""
        if not 0 < lo <= hi:
            raise ValueError(
                f"need 0 < lo <= hi, got [{format_rational(lo)}, {format_rational(hi)}]")
        if x <= 0:
            raise ValueError(f"need x > 0, got {format_rational(x)}")
        status, a, b, c, d = self.evaluate(
            lo.numerator, lo.denominator,
            hi.numerator, hi.denominator,
            x.numerator, x.denominator,
        )
        if status == 1:
            raise DenominatorZeroError("lower")
        if status == 2:
            raise DenominatorZeroError("upper")
        return Fraction(a, b), Fraction(c, d)

    def evaluate(self, ln, ld, un, ud, xn, xd):
        """pair() on int pairs with positive denominators, unchecked: the
        kernel's result (status, lo_num, lo_den, hi_num, hi_den), status 1
        or 2 for a zero lower or upper denominator, with the endpoints'
        denominators positive but not reduced (ad*xd*|F| on a canonical
        side, as the kernels' endpoint_pair gives them).  The solver rounds
        on these unreduced denominators, so which kernel a map takes is
        part of the result."""
        p, q = self._p, self._q
        if self.canonical:
            dp = form_pair(p.tail, ln, ld, un, ud)
            dq = form_pair(q.tail, un, ud, ln, ld)
            return apply_reduced_pairs(self._n, dp, p.den, dq, q.den, ln, ld, un, ud, xn, xd)
        return apply_pairs(self._n, p.whole, p.den, q.whole, q.den, ln, ld, un, ud, xn, xd)

    def excess(self, ln, ld, un, ud) -> tuple[int, int]:
        """The excess forms (Dp - S, Dq - N) at (L, U) as the numerators
        over their sides' scales that form_pair gives, so each has the sign
        of its value: 0, with no form evaluated, on a side whose tail is
        Secant-Newton's."""
        p, q = self._p, self._q
        return (0 if p.excess is None else form_pair(p.excess, ln, ld, un, ud),
                0 if q.excess is None else form_pair(q.excess, un, ud, ln, ld))

    def beside(self, gp, gq, ln, ld, un, ud, xn, xd):
        """Per side at (L, U, x), (lower, upper), the map next to
        Secant-Newton, given the excess forms gp, gq there as excess()
        returns them, for any map: None on a side whose head and tail are
        Secant-Newton's, where the map's endpoint is Secant-Newton's, else
        (the map's endpoint, Secant-Newton's) as pairs with positive
        denominators, the map's None where its denominator form is zero.
        A side evaluates, as numerators over its scale, Secant-Newton's form
        S or N and, of the map's own forms, only a head that is not
        canonical: its denominator form is S + (Dp - S) or N + (Dq - N).
        The endpoints are values, not evaluate()'s unreduced pairs."""
        n = self._n
        return (_beside(n, self._p, gp, ln, ld, un, ud, xn, xd),
                _beside(n, self._q, gq, un, ud, ln, ld, xn, xd))


def apply_pair(m: MapCoefficients, lo, hi, x) -> tuple[Fraction, Fraction]:
    """Exact refined endpoints, unclamped and unordered.

    This is the falsifier-facing form: a non-contracting map may return a
    pair with lo' > hi', and the pair is reported as-is so the failure can
    be inspected.  Raises DenominatorZeroError when a denominator form is
    exactly zero at (lo, hi).
    """
    return m.evaluator.pair(as_rational(lo), as_rational(hi), as_rational(x))


def denominators(m: MapCoefficients, lo, hi) -> tuple[Fraction, Fraction]:
    """Exact values of the two denominator forms at (L, U) = (lo, hi), the
    one place a form's numerator is divided by its scale den*(ad*bd)**(n-1)."""
    lo = as_rational(lo)
    hi = as_rational(hi)
    ln, ld, un, ud = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    ev = m.evaluator
    scale = (ld * ud) ** (m.n - 1)
    return (Fraction(form_pair(ev._p.tail, ln, ld, un, ud), ev._p.den * scale),
            Fraction(form_pair(ev._q.tail, un, ud, ln, ld), ev._q.den * scale))


def map_from_dict(data) -> MapCoefficients:
    """Parse a map specification object: {"n": int, "p": [...], "q": [...]}
    with p and q arrays of rational strings; MapCoefficients checks the
    degree and that each has 2n+1 entries."""
    if not isinstance(data, dict):
        raise MapSpecError("map spec must be a JSON object")
    unknown = sorted(set(data) - {"n", "p", "q"})
    if unknown:
        raise MapSpecError(f"unknown fields in map spec: {', '.join(unknown)}")
    missing = sorted({"n", "p", "q"} - set(data))
    if missing:
        raise MapSpecError(f"missing fields in map spec: {', '.join(missing)}")
    vectors = {}
    for name in ("p", "q"):
        arr = data[name]
        if not isinstance(arr, list):
            raise MapSpecError(f"{name} must be an array of rational strings")
        try:
            vectors[name] = tuple(parse_rational(item) for item in arr)
        except ValueError as exc:
            raise MapSpecError(f"bad entry in {name}: {exc}") from None
    try:
        return MapCoefficients(data["n"], vectors["p"], vectors["q"])
    except ValueError as exc:
        raise MapSpecError(str(exc)) from None


def read_spec(path, kind: str, error: type[ValueError]):
    """The JSON value in the spec file at path, integers read exactly; an
    unreadable file, or one that is not JSON text (invalid, not UTF-8, or
    nested too deep to parse), raises error, naming the kind of spec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise error(f"cannot read {kind} spec {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{kind} spec {path} is not valid JSON: {exc}") from None


def load_map(path) -> MapCoefficients:
    """Load a map specification from a JSON file."""
    return map_from_dict(read_spec(path, "map", MapSpecError))


def map_argument(text: str) -> MapCoefficients:
    """The map a command-line or bench-spec argument names: the bundled
    counterexample_map for "counterexample", else the map spec at the path
    text, whatever its name."""
    return counterexample_map() if text == "counterexample" else load_map(text)
