"""The refinement loop: iterate a map from [min(1,x), max(1,x)] until the
width bound is met.

Two rigorous solvers share the exact rational arithmetic (the chosen
refinement map, and a bisection baseline on y**n - x), plus one explicitly
non-rigorous double-precision fast path for speed comparisons.  Both
rational solvers loop on integer rows (num, den, num, den) and build no
Fraction per step.  Every interval either rational solver records
satisfies lo**n <= x <= hi**n, checked exactly: bisection keeps the
sign-bracketing half, testing each midpoint on one integer numerator over
x.den * 2**j, and the map loop checks each step by cross-multiplication.
The map loop also bounds its endpoints' size, rounding them outward onto a
dyadic lattice 2**-k_j once they outgrow it, where
k_j = min(bits(1/eps) + 16, 2*bits(1/width_j) + 32) follows the width of
the interval the step starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._kernels import refine_float_loop
from .maps import (DenominatorZeroError, MapCoefficients, MapEvaluator, check_degree,
                   secant_newton)
from .numeric import Interval, as_rational, describe, format_rational
# Not used here; kept importable because perfbench/tracing.py wraps it at this name.
from .numeric import pow_int  # noqa: F401

WIDTH_REACHED = "width-reached"
MAX_ITERATIONS = "max-iterations"
STALLED = "stalled"
NON_FINITE = "non-finite"

DEFAULT_MAX_ITER = 10_000

# bits refine_to_eps's lattice keeps beyond twice the bits of 1/width
_GUARD_BITS = 32


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
        raise ValueError(f"x must be positive, got {format_rational(x)}")
    one = Fraction(1)
    return Interval(min(one, x), max(one, x))


def _check_n_and_max_iter(n, max_iter):
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {describe(max_iter)}")
    check_degree(n)


def _validated(x, eps, max_iter, n):
    x = as_rational(x)
    eps = as_rational(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {format_rational(x)}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {format_rational(eps)}")
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


def refine_to_eps(x, n: int, eps, m: MapCoefficients | None = None,
                  max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Iterate the map from the initial interval until width <= eps.

    The width test runs before each application.  The map defaults to
    Secant-Newton of degree n; a zero denominator mid-loop propagates as
    DenominatorZeroError with the offending iteration index attached.

    The loop runs on integers: each interval is held as the unreduced row
    (lo_num, lo_den, hi_num, hi_den) the map's kernel returns, and every
    comparison is a cross-multiplication.  Step j, from an interval of
    width w_j, uses the lattice k_j = min(k, 2*bits(1/w_j) + 32), with
    k = bits(1/eps) + 16: an endpoint whose unreduced denominator has more
    than k_j bits is rounded outward onto the 2**-k_j lattice (lo down, hi
    up) and clamped to the previous interval.  Secant-Newton converges
    about quadratically, so a step from width w_j cannot use much more than
    2*bits(1/w_j) bits, and the endpoints of a wide interval stay short
    (increasing-precision Newton, as in Brent & Zimmermann, Modern Computer
    Arithmetic, ch. 4); smaller endpoints are the map's exact output.  Every
    recorded interval is then checked exactly to satisfy
    lo**n <= x <= hi**n; a disordered pair, or an interval that misses the
    root, raises NotContractingError.
    """
    x, eps = _validated(x, eps, max_iter, n)
    if m is None:
        m = secant_newton(n)
    elif m.n != n:
        raise ValueError(f"map degree {m.n} does not match n={n}")
    en, ed = eps.numerator, eps.denominator
    k = (ed // en).bit_length() + 16
    evaluate = MapEvaluator(m).evaluate
    xn, xd = x.numerator, x.denominator
    iv = initial_interval(x)
    ln, ld, un, ud = iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator
    rows = [(ln, ld, un, ud)]
    it = 0
    while True:
        wn, wd = un * ld - ln * ud, ld * ud  # the width, wn/wd
        if wn * ed <= en * wd:
            return RefineTrace(tuple(rows), WIDTH_REACHED)
        if it >= max_iter:
            return RefineTrace(tuple(rows), MAX_ITERATIONS)
        status, a, b, c, d = evaluate(ln, ld, un, ud, xn, xd)
        if status:
            raise DenominatorZeroError("lower" if status == 1 else "upper", it)
        if not (0 < a and a * d <= c * b):
            raise NotContractingError(Fraction(a, b), Fraction(c, d), it)
        kj = min(k, 2 * (wd // wn).bit_length() + _GUARD_BITS)
        if b.bit_length() > kj:
            a, b = (a << kj) // b, 1 << kj
            if a * ld < ln * b:
                a, b = ln, ld
        if d.bit_length() > kj:
            c, d = -((-c << kj) // d), 1 << kj
            if c * ud > un * d:
                c, d = un, ud
        if not (a ** n * xd <= xn * b ** n and xn * d ** n <= c ** n * xd):
            raise NotContractingError(Fraction(a, b), Fraction(c, d), it, misses_root=True)
        ln, ld, un, ud = a, b, c, d
        it += 1
        rows.append((a, b, c, d))


def bisect_to_eps(x, n: int, eps, max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Bisection baseline on y**n - x, keeping the sign-bracketing half.

    The loop runs on integers.  With x = xn/d the start interval is
    [a/d, (a + span)/d] for a = min(xn, d) and span = |xn - d|, and after
    step j every endpoint is an integer over d*2**j (not dyadic in general:
    for x = 1/3 the first midpoint is 2/3) while the width stays span over
    that scale.  So the number of steps is known before the loop: the least
    j with span/(d*2**j) <= eps.  A midpoint mid/(d*2**j) becomes the
    lower endpoint exactly when mid**n <= xn * d**(n-1) * 2**(n*j).  Each
    step records its interval as the unreduced row (a, d*2**j, a + span,
    d*2**j): no Fraction or Interval is built in the loop, only by the
    trace's views.  Every recorded interval satisfies lo**n <= x <= hi**n
    exactly; the width halves each iteration.
    """
    x, eps = _validated(x, eps, max_iter, n)
    d = x.denominator
    a, b = sorted((x.numerator, d))
    span = b - a  # the width's numerator over d*2**j, the same at every j
    # the least j with 2**j >= (start width / eps) = over / under
    over, under = span * eps.denominator, eps.numerator * d
    need = (-(-over // under) - 1).bit_length() if over > under else 0
    target = x.numerator * d ** (n - 1)  # x == target / d**n
    scale = d
    rows = [(a, scale, b, scale)]
    for _ in range(min(need, max_iter)):
        mid = (a << 1) + span  # the midpoint on the next scale, d * 2**(j+1)
        scale <<= 1
        target <<= n
        a = mid if mid ** n <= target else a << 1
        rows.append((a, scale, a + span, scale))
    return RefineTrace(tuple(rows), MAX_ITERATIONS if need > max_iter else WIDTH_REACHED)


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
