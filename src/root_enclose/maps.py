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
verbatim and canonicalization is always explicit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._kernels import apply_pairs, apply_reduced_pairs, endpoint_pair, form_pair
from .numeric import as_rational, describe, format_rational, parse_int, parse_rational


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


def check_degree(n) -> None:
    """Raise ValueError unless n is an integer 2 <= n <= sys.maxsize, the
    largest sequence length: no map of a larger degree can be built."""
    if isinstance(n, bool) or not isinstance(n, int) or not 2 <= n <= sys.maxsize:
        raise ValueError(f"n must be an integer from 2 to {sys.maxsize}, got {describe(n)}")


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


def secant_newton(n: int) -> MapCoefficients:
    """The Secant-Newton member of the degree-n family.

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


def counterexample_map(repair_q0: bool = True) -> MapCoefficients:
    """A degree-3 map that is not Secant-Newton yet returns the identical
    interval at ([1, 2], x = 27/8): an equality point of the dominance
    relation.

    The vector is sometimes quoted with q0 = +1, which cannot belong to any
    contracting map (the first head probe, at x = U^n = 1, exposes it), so
    the repaired q0 = -1 is the default; pass ``repair_q0=False`` to get the
    unrepaired variant for that diagnostic.
    """
    q0 = Fraction(-1) if repair_q0 else Fraction(1)
    return MapCoefficients(
        3,
        p=(Fraction(-1), 0, 0, 0, Fraction(2), Fraction(1, 2), Fraction(1)),
        q=(q0, 0, 0, 0, Fraction(3), 0, 0),
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


def canonicalize(m: MapCoefficients) -> MapCoefficients:
    """Force the head coefficients to canonical values, keeping both
    denominator tails untouched.  Idempotent."""
    head = (Fraction(-1),) + (Fraction(0),) * m.n
    return MapCoefficients(m.n, head + m.p[m.n + 1:], head + m.q[m.n + 1:])


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """coeffs as integer numerators over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _differing_forms(n, c, den, sn_tail) -> tuple[list[int] | None, list[int] | None]:
    """(head, tail) of one side's numerators c over den, each None where it
    is the canonical head or Secant-Newton's tail sn_tail."""
    head, tail = c[:n + 1], c[n + 1:]
    return (None if head == [-den] + [0] * n else head,
            None if tail == sn_tail else tail)


def _side_beside(n, forms, den, sn_den, sn_end, an, ad, bn, bd, xn, xd):
    """One endpoint of MapEvaluator.beside: the side's own forms where they
    differ from Secant-Newton's, at (a, b) = (L, U) for p and (U, L) for q."""
    head, tail = forms
    if head is None and tail is None:
        return sn_end
    hn, hd = (-an ** n, ad ** n) if head is None else form_pair(head, den, an, ad, bn, bd)
    dn, dd = sn_den if tail is None else form_pair(tail, den, an, ad, bn, bd)
    return endpoint_pair(an, ad, hn, hd, dn, dd, xn, xd)


class MapEvaluator:
    """One map prepared for repeated exact evaluation.

    Each side's coefficients are held once as integer numerators over one
    common denominator, the lcm of their denominators, which is the format
    the kernels take.  Canonical maps are dispatched to the reduced-form
    fast path (numerators x - L^n and x - U^n, over the denominator forms of
    the map's tails, which are all it holds); everything else goes through
    the general form.  The two are algebraically identical on canonical
    maps, which the test suite checks against each other.  A non-canonical
    map also notes which of its four forms differ from Secant-Newton's, so
    beside can evaluate it next to Secant-Newton on those forms alone.
    """

    __slots__ = ("_n", "_p", "_pden", "_q", "_qden", "_canonical", "_differing")

    def __init__(self, m: MapCoefficients):
        n = self._n = m.n
        self._canonical = check_canonical(m).is_canonical
        if self._canonical:
            p, q = m.p[n + 1:], m.q[n + 1:]
        else:
            p, q = m.p, m.q
        self._p, self._pden = _over_common_denominator(p)
        self._q, self._qden = _over_common_denominator(q)
        if not self._canonical:
            # for beside: the forms of each side that are not Secant-Newton's
            pden, qden = self._pden, self._qden
            self._differing = (_differing_forms(n, self._p, pden, [pden] * n),
                               _differing_forms(n, self._q, qden, [n * qden] + [0] * (n - 1)))

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
        denominators positive but not reduced."""
        if self._canonical:
            return self.canonical_pair(self.denominator_pairs(ln, ld, un, ud),
                                       ln, ld, un, ud, xn, xd)
        return apply_pairs(self._n, self._p, self._pden, self._q, self._qden,
                           ln, ld, un, ud, xn, xd)

    def beside(self, sn_dens, sn_result, ln, ld, un, ud, xn, xd):
        """evaluate()'s result for a non-canonical map, at a point where
        Secant-Newton's two denominator forms take the values sn_dens and
        its kernel result is sn_result.  Each side evaluates only its forms
        that differ from Secant-Newton's: a side whose tail is
        Secant-Newton's takes its form from sn_dens, a side whose head is
        canonical has the numerator x - a^n, and a side with both takes
        Secant-Newton's endpoint."""
        n = self._n
        p_forms, q_forms = self._differing
        lo = _side_beside(n, p_forms, self._pden, sn_dens[0], sn_result[1:3],
                          ln, ld, un, ud, xn, xd)
        if lo is None:
            return 1, 0, 1, 0, 1
        hi = _side_beside(n, q_forms, self._qden, sn_dens[1], sn_result[3:],
                          un, ud, ln, ld, xn, xd)
        if hi is None:
            return 2, 0, 1, 0, 1
        return (0, *lo, *hi)

    def denominator_pairs(self, ln, ld, un, ud) -> tuple[tuple[int, int], tuple[int, int]]:
        """Both denominator forms at (L, U) = (ln/ld, un/ud) as pairs with
        positive denominators, not reduced.  Canonical maps only: their
        evaluator holds exactly the denominator tails."""
        if not self._canonical:
            raise ValueError("denominator_pairs needs a canonical map")
        return (form_pair(self._p, self._pden, ln, ld, un, ud),
                form_pair(self._q, self._qden, un, ud, ln, ld))

    def canonical_pair(self, dens, ln, ld, un, ud, xn, xd) -> tuple[int, int, int, int, int]:
        """evaluate's kernel result for a canonical map of this degree whose
        two denominator forms at (L, U) take the values dens, as
        denominator_pairs returns them; a caller that needs the forms as
        well evaluates them once."""
        (dpn, dpd), (dqn, dqd) = dens
        return apply_reduced_pairs(self._n, dpn, dpd, dqn, dqd, ln, ld, un, ud, xn, xd)


def apply_pair(m: MapCoefficients, lo, hi, x) -> tuple[Fraction, Fraction]:
    """Exact refined endpoints, unclamped and unordered.

    This is the falsifier-facing form: a non-contracting map may return a
    pair with lo' > hi', and the pair is reported as-is so the failure can
    be inspected.  Raises DenominatorZeroError when a denominator form is
    exactly zero at (lo, hi).
    """
    return MapEvaluator(m).pair(as_rational(lo), as_rational(hi), as_rational(x))


def denominators(m: MapCoefficients, lo, hi) -> tuple[Fraction, Fraction]:
    """Exact values of the two denominator forms at (L, U) = (lo, hi)."""
    lo = as_rational(lo)
    hi = as_rational(hi)
    dp, dq = MapEvaluator(canonicalize(m)).denominator_pairs(
        lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return Fraction(*dp), Fraction(*dq)


def map_from_dict(data) -> MapCoefficients:
    """Parse a map specification object: {"n": int, "p": [...], "q": [...]}
    with p and q arrays of exactly 2n+1 rational strings."""
    if not isinstance(data, dict):
        raise MapSpecError("map spec must be a JSON object")
    unknown = sorted(set(data) - {"n", "p", "q"})
    if unknown:
        raise MapSpecError(f"unknown fields in map spec: {', '.join(unknown)}")
    missing = sorted({"n", "p", "q"} - set(data))
    if missing:
        raise MapSpecError(f"missing fields in map spec: {', '.join(missing)}")
    n = data["n"]
    try:
        check_degree(n)
    except ValueError as exc:
        raise MapSpecError(str(exc)) from None
    want = 2 * n + 1
    vectors = {}
    for name in ("p", "q"):
        arr = data[name]
        if not isinstance(arr, list):
            raise MapSpecError(f"{name} must be an array of rational strings")
        if len(arr) != want:
            raise MapSpecError(
                f"{name} must have exactly {want} entries (2n+1 for n={n}), "
                f"got {len(arr)}"
            )
        try:
            vectors[name] = tuple(parse_rational(item) for item in arr)
        except ValueError as exc:
            raise MapSpecError(f"bad entry in {name}: {exc}") from None
    return MapCoefficients(n, vectors["p"], vectors["q"])


def load_map(path) -> MapCoefficients:
    """Load a map specification from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise MapSpecError(f"cannot read map spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MapSpecError(f"map spec {path} is not valid JSON: {exc}") from None
    return map_from_dict(data)
