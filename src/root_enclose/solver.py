"""The refinement loop: iterate a map from [min(1,x), max(1,x)] until the
width bound is met.

Two rigorous solvers share the exact rational arithmetic (the chosen
refinement map, and a bisection baseline on y**n - x), plus one explicitly
non-rigorous double-precision fast path for speed comparisons.  Every interval
either rational solver records satisfies lo**n <= x <= hi**n, checked
exactly: bisection keeps the sign-bracketing half, testing each midpoint
on one integer numerator over x.den * 2**j, and the map loop checks each
step.  The map loop also bounds its endpoints' size, rounding them
outward onto a dyadic lattice tied to eps once they outgrow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._kernels import refine_float_loop
from .maps import (DenominatorZeroError, MapCoefficients, MapEvaluator, check_degree,
                   secant_newton)
from .numeric import Interval, as_rational, format_rational, pow_int

WIDTH_REACHED = "width-reached"
MAX_ITERATIONS = "max-iterations"
STALLED = "stalled"
NON_FINITE = "non-finite"

DEFAULT_MAX_ITER = 10_000


class NotContractingError(RuntimeError):
    """The map produced a disordered pair, or an interval that misses the
    root, mid-refinement, certifying that it is not contracting."""

    def __init__(self, lo, hi, iteration, misses_root: bool = False):
        self.lo = lo
        self.hi = hi
        self.iteration = iteration
        what = "an interval that misses the root" if misses_root else "a non-interval pair"
        super().__init__(
            f"map produced {what} [{format_rational(lo)}, {format_rational(hi)}] "
            f"at iteration {iteration}; it is not contracting"
        )


@dataclass(frozen=True)
class RefineTrace:
    """Per-iteration record of a rational solver: the start interval and
    every interval after it, and why the loop stopped.

    Each interval is stored as an exact integer row
    (lo_num, lo_den, hi_num, hi_den) with positive denominators, not
    necessarily reduced.  The iteration count follows from the rows;
    `intervals` is a view built on first access, `widths` reads it, and
    `final` builds the last interval alone.
    """

    interval_rows: tuple[tuple[int, int, int, int], ...]
    terminated: str

    @property
    def iterations(self) -> int:
        return len(self.interval_rows) - 1

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(Fraction(a, b), Fraction(c, d))
                     for a, b, c, d in self.interval_rows)

    @property
    def widths(self) -> tuple[Fraction, ...]:
        return tuple(iv.width for iv in self.intervals)

    @property
    def final(self) -> Interval:
        a, b, c, d = self.interval_rows[-1]
        return Interval(Fraction(a, b), Fraction(c, d))

    def to_json(self, include_intervals: bool = False) -> dict:
        final = self.final
        out = {
            "iterations": self.iterations,
            "terminated": self.terminated,
            "final_interval": [format_rational(final.lo), format_rational(final.hi)],
            "final_width": format_rational(final.width),
        }
        if include_intervals:
            out["intervals"] = [[format_rational(iv.lo), format_rational(iv.hi)]
                                for iv in self.intervals]
            out["widths"] = [format_rational(w) for w in self.widths]
        return out


def initial_interval(x) -> Interval:
    """[min(1,x), max(1,x)]; contains the nth root of x for every n >= 1."""
    x = as_rational(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    one = Fraction(1)
    return Interval(min(one, x), max(one, x))


def _check_n_and_max_iter(n, max_iter):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_degree(n)


def _validated(x, eps, max_iter, n):
    x = as_rational(x)
    eps = as_rational(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_n_and_max_iter(n, max_iter)
    return x, eps


def _validated_float(x, eps, max_iter, n):
    try:
        x, eps = float(x), float(eps)
    except OverflowError as exc:
        raise ValueError(f"x and eps must fit in a float: {exc}") from None
    if not 0 < x < float("inf"):
        raise ValueError(f"x must be a positive finite float, got {x!r}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    _check_n_and_max_iter(n, max_iter)
    return x, eps


def _round_outward(lo: Fraction, hi: Fraction, prev: Interval, k: int):
    """Round an endpoint whose denominator has more than k bits outward onto
    the 2**-k lattice (lo down, hi up) and clamp it to the previous interval.

    Widening keeps the root inside and the clamp intersects two enclosures,
    so the interval stays nested with lo > 0.  Endpoints that fit the
    lattice are kept exact.
    """
    if lo.denominator.bit_length() > k:
        lo = max(Fraction((lo.numerator << k) // lo.denominator, 1 << k), prev.lo)
    if hi.denominator.bit_length() > k:
        hi = min(Fraction(-((-hi.numerator << k) // hi.denominator), 1 << k), prev.hi)
    return lo, hi


def refine_to_eps(x, n: int, eps, m: MapCoefficients | None = None,
                  max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Iterate the map from the initial interval until width <= eps.

    The width test runs before each application.  The map defaults to
    Secant-Newton of degree n; a zero denominator mid-loop propagates as
    DenominatorZeroError with the offending iteration index attached.

    After each application an endpoint whose denominator has more than
    k = bits(1/eps) + 16 bits is rounded outward onto the 2**-k lattice and
    clamped to the previous interval, so endpoints stay near k bits instead
    of growing about 2n-1-fold per iteration; smaller endpoints are the
    map's exact output.  Every recorded interval is then checked exactly to
    satisfy lo**n <= x <= hi**n; a disordered pair, or an interval that
    misses the root, raises NotContractingError.
    """
    x, eps = _validated(x, eps, max_iter, n)
    if m is None:
        m = secant_newton(n)
    elif m.n != n:
        raise ValueError(f"map degree {m.n} does not match n={n}")
    k = (eps.denominator // eps.numerator).bit_length() + 16
    ev = MapEvaluator(m)
    iv = initial_interval(x)
    rows = [(iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator)]
    it = 0
    while iv.width > eps:
        if it >= max_iter:
            return RefineTrace(tuple(rows), MAX_ITERATIONS)
        try:
            lo, hi = ev.pair(iv.lo, iv.hi, x)
        except DenominatorZeroError as exc:
            exc.iteration = it
            raise
        if not 0 < lo <= hi:
            raise NotContractingError(lo, hi, it)
        lo, hi = _round_outward(lo, hi, iv, k)
        if not pow_int(lo, n) <= x <= pow_int(hi, n):
            raise NotContractingError(lo, hi, it, misses_root=True)
        iv = Interval(lo, hi)
        it += 1
        rows.append((lo.numerator, lo.denominator, hi.numerator, hi.denominator))
    return RefineTrace(tuple(rows), WIDTH_REACHED)


def bisect_to_eps(x, n: int, eps, max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Bisection baseline on y**n - x, keeping the sign-bracketing half.

    The loop runs on integers.  With x = xn/d the start interval is
    [a/d, b/d] for a, b = min(xn, d), max(xn, d), and after step j every
    endpoint is an integer over d*2**j (not dyadic in general: for x = 1/3
    the first midpoint is 2/3).  A midpoint
    mid/(d*2**j) becomes the lower endpoint exactly when
    mid**n <= xn * d**(n-1) * 2**(n*j), and the width test compares
    (b - a) * eps.den with eps.num * d * 2**j.  Each step records its
    interval as the unreduced row (a, d*2**j, b, d*2**j): no Fraction or
    Interval is built in the loop, only by the trace's views.  Every recorded
    interval satisfies lo**n <= x <= hi**n exactly; the width halves each
    iteration.
    """
    x, eps = _validated(x, eps, max_iter, n)
    d = x.denominator
    a, b = sorted((x.numerator, d))
    span = b - a  # the width's numerator over d*2**j, the same at every j
    target = x.numerator * d ** (n - 1)  # x == target / d**n
    scale = d
    rows = [(a, scale, b, scale)]
    it = 0
    while span * eps.denominator > eps.numerator * scale:
        if it >= max_iter:
            return RefineTrace(tuple(rows), MAX_ITERATIONS)
        mid = a + b  # (a + b) / 2 on the next scale, d * 2**(j+1)
        a <<= 1
        b <<= 1
        scale <<= 1
        target <<= n
        if mid ** n <= target:
            a = mid
        else:
            b = mid
        it += 1
        rows.append((a, scale, b, scale))
    return RefineTrace(tuple(rows), WIDTH_REACHED)


@dataclass(frozen=True)
class FloatTrace:
    """Result of the double-precision loop (final state only)."""

    iterations: int
    lo: float
    hi: float
    terminated: str

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "terminated": self.terminated,
            "final_interval": [repr(self.lo), repr(self.hi)],
            "final_width": repr(self.width),
        }


_FLOAT_STATUS = {0: WIDTH_REACHED, 1: MAX_ITERATIONS, 2: STALLED, 3: NON_FINITE}


def refine_float(x: float, n: int, eps: float, m: MapCoefficients | None = None,
                 max_iter: int = DEFAULT_MAX_ITER) -> FloatTrace:
    """Double-precision version of the refinement loop.

    NOT rigorous: round-to-nearest arithmetic, no directed rounding, no
    enclosure guarantee.  It exists for performance measurements.  Stops
    additionally when the map reproduces the same interval (a float fixed
    point, reported as "stalled") and reports NaN/overflow or a zero
    denominator as "non-finite", keeping the last finite interval.
    """
    x, eps = _validated_float(x, eps, max_iter, n)
    if m is None:
        m = secant_newton(n)
    elif m.n != n:
        raise ValueError(f"map degree {m.n} does not match n={n}")
    p = [float(c) for c in m.p]
    q = [float(c) for c in m.q]
    status, lo, hi, iterations = refine_float_loop(x, n, p, q, eps, max_iter)
    return FloatTrace(iterations, lo, hi, _FLOAT_STATUS[status])


def bisect_float(x: float, n: int, eps: float,
                 max_iter: int = DEFAULT_MAX_ITER) -> FloatTrace:
    """Double-precision bisection baseline (same caveats as refine_float).

    A midpoint whose nth power overflows a float ends the loop as
    "non-finite", keeping the last finite interval, as in refine_float.
    """
    x, eps = _validated_float(x, eps, max_iter, n)
    lo = min(1.0, x)
    hi = max(1.0, x)
    it = 0
    while hi - lo > eps:
        if it >= max_iter:
            return FloatTrace(it, lo, hi, MAX_ITERATIONS)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return FloatTrace(it, lo, hi, STALLED)
        try:
            below = mid ** n <= x
        except OverflowError:
            return FloatTrace(it, lo, hi, NON_FINITE)
        if below:
            lo = mid
        else:
            hi = mid
        it += 1
    return FloatTrace(it, lo, hi, WIDTH_REACHED)
