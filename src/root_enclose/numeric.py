"""Exact rational scalars and intervals.

The scalar type is the stdlib ``fractions.Fraction``: arbitrary precision,
always stored reduced with a positive denominator, so equality is
structural.  This module holds the Fraction-level helpers (parsing,
formatting, powers, the geometric sum) and ``Interval``.
The map kernels and the sampled scans work on (num, den) int pairs instead
(``root_enclose._kernels``): the denominator is positive, but the kernels'
results are not reduced, so values are compared by cross-multiplication,
and Fractions, which reduce, are built only at the boundaries.  The
solver's float fast path uses neither.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the strict text form: optional '-', digits, optional '/digits'.

    No whitespace, no '+', no decimals; a zero denominator is rejected.
    Literals of any length are read exactly.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {describe(text)}")
    if "/" in text:
        num, _, den = text.partition("/")
        den = parse_int(den)
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(parse_int(num), den)
    return Fraction(parse_int(text))


def parse_int(digits: str) -> int:
    """int(digits) for an optional '-' and decimal digits, exact at any
    size: past the interpreter's int-to-str digit limit the digits are read
    through ``Decimal``, which converts to int exactly."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def describe(value) -> str:
    """repr(value), or its type where repr passes the int-to-str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def format_pair(num: int, den: int) -> str:
    """Text form 'a' or 'a/b' of a reduced pair num/den with den > 0, exact
    at any size: parts longer than the interpreter's int-to-str digit limit
    are written through ``Decimal``, which converts ints exactly."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        return format_pair(Decimal(num), Decimal(den))


def format_rational(value: Fraction) -> str:
    """Reduced text form with positive denominator, as format_pair writes it."""
    value = Fraction(value)
    return format_pair(value.numerator, value.denominator)


def as_rational(value) -> Fraction:
    """Coerce ints and Fractions; floats are rejected to keep things exact.

    A value whose type is exactly Fraction is returned as is (it is
    immutable); a Fraction subclass is converted to a plain Fraction.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    return Fraction(value)


def pow_int(base: Fraction, k: int) -> Fraction:
    """base**k for integer k >= 0, with 0**0 == 1."""
    if k < 0:
        raise ValueError("negative exponent")
    return as_rational(base) ** k


def geom_sum(a: Fraction, b: Fraction, n: int) -> Fraction:
    """a**(n-1) + a**(n-2)*b + ... + b**(n-1)  (n terms, n >= 1).

    Multiplying by (a - b) telescopes to a**n - b**n; with (a, b) = (L, U)
    this is the secant denominator of the refinement maps.
    """
    if n < 1:
        raise ValueError("geom_sum needs n >= 1")
    a = as_rational(a)
    b = as_rational(b)
    return sum((a ** (n - 1 - i) * b ** i for i in range(n)), Fraction(0))


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of rationals with 0 < lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if not 0 < self.lo <= self.hi:
            raise ValueError(f"invalid interval {self}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"
