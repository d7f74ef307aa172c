"""The refinement loop: iterate a map from [min(1,x), max(1,x)] until the
width bound is met.

Two rigorous solvers share the exact rational arithmetic (the chosen
refinement map, and a bisection baseline on y**n - x), plus one explicitly
non-rigorous double-precision fast path for speed comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import refine_float_loop
from .maps import DenominatorZeroError, MapCoefficients, MapEvaluator, secant_newton
from .numeric import Interval, as_rational, pow_int

WIDTH_REACHED = "width-reached"
MAX_ITERATIONS = "max-iterations"
STALLED = "stalled"
NON_FINITE = "non-finite"

DEFAULT_MAX_ITER = 10_000


class NotContractingError(RuntimeError):
    """The map produced a disordered pair mid-refinement, certifying that it
    is not contracting."""

    def __init__(self, lo, hi, iteration):
        self.lo = lo
        self.hi = hi
        self.iteration = iteration
        super().__init__(
            f"map produced a non-interval pair [{lo}, {hi}] at iteration "
            f"{iteration}; it is not contracting"
        )


@dataclass(frozen=True)
class RefineTrace:
    """Per-iteration record of the rational refinement loop."""

    iterations: int
    intervals: tuple[Interval, ...]
    widths: tuple[Fraction, ...]
    terminated: str

    def __post_init__(self):
        if len(self.intervals) != self.iterations + 1:
            raise ValueError("trace records one interval per iteration plus the start")
        if len(self.widths) != len(self.intervals):
            raise ValueError("trace records one width per interval")

    @property
    def final(self) -> Interval:
        return self.intervals[-1]

    def to_json(self, include_intervals: bool = False) -> dict:
        out = {
            "iterations": self.iterations,
            "terminated": self.terminated,
            "final_interval": [str(self.final.lo), str(self.final.hi)],
            "final_width": str(self.widths[-1]),
        }
        if include_intervals:
            out["intervals"] = [[str(iv.lo), str(iv.hi)] for iv in self.intervals]
            out["widths"] = [str(w) for w in self.widths]
        return out


def initial_interval(x) -> Interval:
    """[min(1,x), max(1,x)]; contains the nth root of x for every n >= 1."""
    x = as_rational(x)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    one = Fraction(1)
    return Interval(min(one, x), max(one, x))


def _validated(x, eps, max_iter, n):
    x = as_rational(x)
    eps = as_rational(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need integer n >= 2, got {n!r}")
    return x, eps


def refine_to_eps(x, n: int, eps, m: MapCoefficients | None = None,
                  max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Iterate the map from the initial interval until width <= eps.

    The width test runs before each application.  The map defaults to
    Secant-Newton of degree n; a zero denominator mid-loop propagates as
    DenominatorZeroError with the offending iteration index attached.
    """
    x, eps = _validated(x, eps, max_iter, n)
    if m is None:
        m = secant_newton(n)
    elif m.n != n:
        raise ValueError(f"map degree {m.n} does not match n={n}")
    ev = MapEvaluator(m)
    iv = initial_interval(x)
    intervals = [iv]
    widths = [iv.width]
    it = 0
    while widths[-1] > eps:
        if it >= max_iter:
            return RefineTrace(it, tuple(intervals), tuple(widths), MAX_ITERATIONS)
        try:
            lo, hi = ev.pair(iv.lo, iv.hi, x)
        except DenominatorZeroError as exc:
            exc.iteration = it
            raise
        try:
            iv = Interval(lo, hi)
        except ValueError:
            raise NotContractingError(lo, hi, it) from None
        it += 1
        intervals.append(iv)
        widths.append(iv.width)
    return RefineTrace(it, tuple(intervals), tuple(widths), WIDTH_REACHED)


def bisect_to_eps(x, n: int, eps, max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Bisection baseline on y**n - x, keeping the sign-bracketing half.

    Every recorded interval satisfies lo**n <= x <= hi**n exactly; the width
    halves each iteration.
    """
    x, eps = _validated(x, eps, max_iter, n)
    iv = initial_interval(x)
    intervals = [iv]
    widths = [iv.width]
    it = 0
    while widths[-1] > eps:
        if it >= max_iter:
            return RefineTrace(it, tuple(intervals), tuple(widths), MAX_ITERATIONS)
        mid = (iv.lo + iv.hi) / 2
        if pow_int(mid, n) <= x:
            iv = Interval(mid, iv.hi)
        else:
            iv = Interval(iv.lo, mid)
        it += 1
        intervals.append(iv)
        widths.append(iv.width)
    return RefineTrace(it, tuple(intervals), tuple(widths), WIDTH_REACHED)


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
    x = float(x)
    if not x > 0 or x != x or x == float("inf"):
        raise ValueError(f"x must be a positive finite float, got {x!r}")
    eps = float(eps)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
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
    """Double-precision bisection baseline (same caveats as refine_float)."""
    x = float(x)
    if not x > 0 or x != x or x == float("inf"):
        raise ValueError(f"x must be a positive finite float, got {x!r}")
    eps = float(eps)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    lo = min(1.0, x)
    hi = max(1.0, x)
    it = 0
    while hi - lo > eps:
        if it >= max_iter:
            return FloatTrace(it, lo, hi, MAX_ITERATIONS)
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return FloatTrace(it, lo, hi, STALLED)
        if mid ** n <= x:
            lo = mid
        else:
            hi = mid
        it += 1
    return FloatTrace(it, lo, hi, WIDTH_REACHED)
