"""The refinement loop: iterate a map from [min(1,x), max(1,x)], rounded
outward onto a dyadic lattice, until the width bound is met.

Two rigorous solvers share the exact rational arithmetic (the chosen
refinement map, and a bisection baseline on y**n - x), plus one explicitly
non-rigorous double-precision fast path for speed comparisons.  Both
rational solvers loop on integer rows (num, den, num, den) and build no
Fraction per step.  Every interval either rational solver records
satisfies lo**n <= x <= hi**n, checked exactly on integers: bisection
reads all its steps from the binary digits of one integer nth root and
checks its final interval, which every earlier one encloses, building the
other rows only when they are read, and the map loop checks each step.
The map loop holds every interval as [a/2**k, b/2**k], one k for both
endpoints that never decreases, raised before step j to
min(bits(1/eps) + 16, 2*bits(1/width_j) + 32), which follows the width of
the interval the step starts from; each step's output is rounded outward
onto it.
The float loop takes a Secant-Newton step on the default map's float
terms, the ones secant_newton(n) keeps: it reads the secant and Newton forms from running powers
of lo and hi, with results bit for bit those of the generic step.  The
generic step allocates one pair of power tables per call, refills them by
running products each step, and reads only each side's nonzero terms from
them.  The loop stops as "non-finite" at any NaN or infinite endpoint or
width; the generic step also stops so at an infinite top power before the
terms are read.
A map's evaluator and float terms are built on its first use (maps).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite, isqrt, nan

from .maps import DenominatorZeroError, MapCoefficients, check_degree, secant_newton
from .numeric import Interval, as_rational, check_int, describe, format_rational
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
    necessarily reduced; bisection's are built as they are read.  The
    rows give the iteration count; `intervals` is a view built on first
    access, `widths` reads it, and `final` builds the last interval alone.
    """

    interval_rows: Sequence[tuple[int, int, int, int]]
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
    check_int("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {describe(max_iter)}")
    check_degree(n)


def rational_inputs(x, eps) -> tuple[Fraction, Fraction]:
    """x and eps as the rational solvers read them: exact, each positive."""
    x = as_rational(x)
    eps = as_rational(eps)
    if x <= 0:
        raise ValueError(f"x must be positive, got {format_rational(x)}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {format_rational(eps)}")
    return x, eps


def float_inputs(x, eps) -> tuple[float, float]:
    """x and eps as the float solvers read them: doubles, x positive and
    finite, eps positive."""
    fx = None
    try:
        fx = float(x)
        feps = float(eps)
    except OverflowError:
        name, value = ("x", x) if fx is None else ("eps", eps)
        raise ValueError(
            f"{name} does not fit in a double, got {format_rational(value)}") from None
    if not 0 < fx < inf:
        raise _float_error("x", x, fx, "must be a positive finite float")
    if not feps > 0:
        raise _float_error("eps", eps, feps, "must be positive")
    return fx, feps


def _float_error(name, value, rounded, requirement) -> ValueError:
    """The error for an x or eps whose double fails its check; a positive
    value that rounds to 0.0 is named exactly, as given."""
    if rounded == 0 and value > 0:
        return ValueError(f"{name} rounds to 0.0 as a double, got {format_rational(value)}")
    return ValueError(f"{name} {requirement}, got {rounded!r}")


def _map_of_degree(m: MapCoefficients | None, n: int) -> MapCoefficients:
    """m, or Secant-Newton of degree n when m is None; a map of another
    degree is rejected."""
    if m is None:
        return secant_newton(n)
    if m.n != n:
        raise ValueError(f"map degree {m.n} does not match n={n}")
    return m


def refine_to_eps(x, n: int, eps, m: MapCoefficients | None = None,
                  max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Iterate the map from the initial interval until width <= eps.

    The width test runs before each application.  The map defaults to
    Secant-Newton of degree n; a zero denominator mid-loop propagates as
    DenominatorZeroError with the offending iteration index attached.

    The loop runs on one dyadic lattice: every interval it holds and
    records is [a/2**k, b/2**k], integers 1 <= a <= b, with one k that
    never decreases.  The start [min(1,x), max(1,x)] is rounded outward
    onto 2**-k_0, k_0 at least bits(1/x) so that a >= 1.  Step j, from
    width w_j, first shifts a and b left to
    k_j = max(k_{j-1}, min(K, 2*bits(1/w_j) + 32)), K = bits(1/eps) + 16:
    Secant-Newton converges about quadratically, so a step from width w_j
    cannot use much more than 2*bits(1/w_j) bits (increasing-precision
    Newton, as in Brent & Zimmermann, Modern Computer Arithmetic, ch. 4).
    Every map in the family is homogeneous, so the map at
    (a, b, x*2**(n*k)) is 2**k times its output at the interval; that
    output is floored and ceiled onto the lattice and clamped to [a, b].
    A disordered pair, or an interval that misses the root, checked
    exactly as a**n <= x*2**(n*k) <= b**n, raises NotContractingError.
    """
    x, eps = rational_inputs(x, eps)
    _check_n_and_max_iter(n, max_iter)
    m = _map_of_degree(m, n)
    en, ed = eps.numerator, eps.denominator
    k_max = (ed // en).bit_length() + 16  # K
    evaluate = m.evaluator.evaluate
    xn, xd = x.numerator, x.denominator
    a, b = sorted((xn, xd))  # the start [min(1,x), max(1,x)] over xd
    k = min(k_max, 2 * (xd // (b - a)).bit_length() + _GUARD_BITS) if b > a else 0
    k = max(k, (xd // a).bit_length())
    a, b = (a << k) // xd, -((-b << k) // xd)
    rows = [(a, 1 << k, b, 1 << k)]
    it = 0
    while True:
        if (b - a) * ed <= en << k:
            return RefineTrace(tuple(rows), WIDTH_REACHED)
        if it >= max_iter:
            return RefineTrace(tuple(rows), MAX_ITERATIONS)
        shift = min(k_max, 2 * ((1 << k) // (b - a)).bit_length() + _GUARD_BITS) - k
        if shift > 0:
            a, b, k = a << shift, b << shift, k + shift
        xk = xn << n * k
        status, ln, ld, un, ud = evaluate(a, 1, b, 1, xk, xd)
        if status:
            raise DenominatorZeroError("lower" if status == 1 else "upper", it)
        if not (0 < ln and ln * ud <= un * ld):
            raise NotContractingError(Fraction(ln, ld << k), Fraction(un, ud << k), it)
        a = max(ln // ld, a)
        b = min(-(-un // ud), b)
        if not (a ** n * xd <= xk <= b ** n * xd):
            raise NotContractingError(Fraction(a, 1 << k), Fraction(b, 1 << k), it,
                                      misses_root=True)
        it += 1
        rows.append((a, 1 << k, b, 1 << k))


def _iroot(v: int, n: int) -> int:
    """floor(v ** (1/n)) for an integer v >= 0.

    math.isqrt for n = 2; otherwise integer Newton, which decreases
    from any over-estimate to the floor root and stops when a step no
    longer does.  The over-estimate is (floor root of v >> n*k, plus one)
    << k, with k about a quarter of the root's bits, so it is already
    right to about half of them, and Newton needs few full-size steps
    (Brent & Zimmermann, Modern Computer Arithmetic, section 1.5).
    """
    if n == 2:
        return isqrt(v)
    if v < 2:
        return v
    k = v.bit_length() // (2 * n)
    r = (_iroot(v >> n * k, n) + 1) << k if k else 1 << -(-v.bit_length() // n)
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def bisect_to_eps(x, n: int, eps, max_iter: int = DEFAULT_MAX_ITER) -> RefineTrace:
    """Bisection baseline on y**n - x, keeping the sign-bracketing half.

    With x = xn/d the start interval is [a/d, (a + span)/d] for
    a = min(xn, d) and span = |xn - d|, and after step j every endpoint is
    an integer over d*2**j (not dyadic in general: for x = 1/3 the first
    midpoint is 2/3) while the width stays span over that scale.  So the
    step count J is known before any step: the least j with
    span/(d*2**j) <= eps, capped at max_iter.  The steps are then read from
    one integer nth root instead of testing each midpoint: a midpoint
    becomes the lower endpoint exactly when its nth power is at most x, a
    test monotone along the interval, so after J steps the lower numerator
    is the largest a*2**J + span*k (0 <= k < 2**J) whose nth power is at
    most T = xn * d**(n-1) * 2**(n*J).  That k is
    m = (floor(T**(1/n)) - a*2**J) // span, and row j is the unreduced
    (lo, d*2**j, lo + span, d*2**j) with lo = a*2**j + span*(m >> (J - j)).
    The trace's interval_rows holds only (a, span, d, m, J) and builds
    each row read from that one formula, the final row checked here among
    them, so a caller of the final interval pays for one root and one
    check.  Every row encloses the final one, which is checked exactly to
    satisfy lo**n <= x <= hi**n by cross-multiplication, so every recorded
    interval does; a final row that fails the check raises RuntimeError.
    """
    x, eps = rational_inputs(x, eps)
    _check_n_and_max_iter(n, max_iter)
    xn, d = x.numerator, x.denominator
    a, b = sorted((xn, d))
    span = b - a  # the width's numerator over d*2**j, the same at every j
    # the least j with 2**j >= (start width / eps) = over / under
    over, under = span * eps.denominator, eps.numerator * d
    need = (-(-over // under) - 1).bit_length() if over > under else 0
    steps = min(need, max_iter)
    m = 0
    if steps:
        m = (_iroot(xn * d ** (n - 1) << n * steps, n) - (a << steps)) // span
    rows = _BisectionRows(a, span, d, m, steps)
    # the final row, checked before any other row is built; a row that
    # encloses the root lies in the start interval, so 0 <= m < 2**steps
    lo, den, hi, _ = rows[-1]
    if not lo ** n * d <= xn * den ** n <= hi ** n * d:
        raise RuntimeError(
            f"bisection interval [{format_rational(Fraction(lo, den))}, "
            f"{format_rational(Fraction(hi, den))}] at iteration {steps} misses the root")
    return RefineTrace(rows, MAX_ITERATIONS if need > max_iter else WIDTH_REACHED)


class _BisectionRows(Sequence):
    """bisect_to_eps's interval_rows, from the start row's (a, span, d), m
    and the step count: row j, built when it is read, has the lower
    numerator a*2**j plus span times the number the first j of the steps
    bits of m spell.  Equal to, and hashed as, the tuple of its rows."""

    def __init__(self, a: int, span: int, d: int, m: int, steps: int):
        self._params = (a, span, d, m, steps)

    def __len__(self) -> int:
        return self._params[4] + 1

    def __getitem__(self, j):
        js = range(len(self))[j]  # negative indices and slices, as a tuple's
        return tuple(map(self._row, js)) if isinstance(j, slice) else self._row(js)

    def _row(self, j: int) -> tuple[int, int, int, int]:
        a, span, d, m, steps = self._params
        lo = (a << j) + span * (m >> (steps - j))
        return lo, d << j, lo + span, d << j

    def __eq__(self, other):
        if isinstance(other, (tuple, _BisectionRows)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


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


def _float_endpoint(side, ap, bp, base, x):
    """base + (x + head form) / (tail form) in doubles, summing the side's
    nonzero terms c * ap[i] * bp[j] in index order from the power tables
    ap and bp of the two endpoints; NaN when the tail form is exactly 0.0."""
    head, tail = side
    num = x
    for c, i, j in head:
        num += c * ap[i] * bp[j]
    den = 0.0
    for c, i, j in tail:
        den += c * ap[i] * bp[j]
    if den == 0.0:
        return nan
    return base + num / den


def refine_float_loop(x, n, p, q, eps, max_iter) -> FloatTrace:
    """Double-precision refinement loop from [min(1,x), max(1,x)], with the
    map's sides p and q given as MapCoefficients.float_sides holds them.

    When p and q are the default map's terms (the objects
    secant_newton(n).float_sides holds), each step reads the secant and
    Newton forms from running powers.  One table,
    lo**(n-1) .. lo**1, allocated once per call, is refilled by running
    products.  The secant form, the sum of lo**(n-1-k) * hi**k, is added
    in k order while hi**k is carried as a running product; its last
    factor, hi**(n-1), gives the Newton form n * hi**(n-1).  The numerators
    are x - lo**n and x - hi**n.  These are the generic step's IEEE
    operations on those terms, in the same order, less its products by
    1.0 or -1.0 and its 0.0 + t for the Newton form's lone term, each exact
    (up to the sign of a zero form, which ends the step either way), so the
    results are the same bit for bit.  An infinite lo**n or hi**n makes its
    endpoint's numerator infinite, and so the endpoint.

    Otherwise the power tables lo**0..lo**n and hi**0..hi**n are allocated
    once per call; each step refills them by running products (the same
    IEEE products, in the same order, as lo**i = lo**(i-1) * lo), and both
    endpoints read only their side's nonzero terms from them, with the
    tables' roles swapped.  An infinite lo**n or hi**n ends the step as
    "non-finite" before any term is read: a dropped zero term, read as
    0 * inf, would have made an endpoint NaN, so the results are those of
    summing every coefficient.
    Stops at "width-reached", "max-iterations", "stalled" (an application
    failed to strictly shrink the width, e.g. endpoints oscillating by one
    ulp) or "non-finite" (a NaN or infinite endpoint, power or width, a
    zero denominator among them; the last finite interval is reported).
    Rounding can make converged endpoints cross by one ulp; the pair is
    reported as-is.
    """
    lo = x if x < 1.0 else 1.0
    hi = x if x > 1.0 else 1.0
    it = 0
    prev_w = inf
    sp, sq = secant_newton(n).float_sides
    sn_step = p is sp and q is sq
    if sn_step:
        lt = [1.0] * (n - 1)  # lt[k] = lo**(n-1-k)
        down = range(n - 2, -1, -1)
        nf = float(n)
    else:
        lp = [1.0] * (n + 1)
        hp = [1.0] * (n + 1)
    while True:
        w = hi - lo
        if not isfinite(w):
            return FloatTrace(it, lo, hi, NON_FINITE)
        if w <= eps:
            return FloatTrace(it, lo, hi, WIDTH_REACHED)
        if it >= max_iter:
            return FloatTrace(it, lo, hi, MAX_ITERATIONS)
        if w >= prev_w:
            return FloatTrace(it, lo, hi, STALLED)
        if sn_step:
            a = 1.0
            for k in down:
                a *= lo
                lt[k] = a
            a *= lo
            den = 0.0
            b = 1.0
            for c in lt:
                den += c * b
                b *= hi
            den += b  # the k = n-1 term, b = hi**(n-1)
            nlo = nan if den == 0.0 else lo + (x - a) / den
            den = nf * b
            nhi = nan if den == 0.0 else hi + (x - b * hi) / den
        else:
            a = b = 1.0
            for i in range(1, n + 1):
                a *= lo
                b *= hi
                lp[i] = a
                hp[i] = b
            if not (isfinite(a) and isfinite(b)):
                return FloatTrace(it, lo, hi, NON_FINITE)
            nlo = _float_endpoint(p, lp, hp, lo, x)
            nhi = _float_endpoint(q, hp, lp, hi, x)
        if not (isfinite(nlo) and isfinite(nhi)):
            return FloatTrace(it, lo, hi, NON_FINITE)
        prev_w = w
        lo = nlo
        hi = nhi
        it += 1


def refine_float(x: float, n: int, eps: float, m: MapCoefficients | None = None,
                 max_iter: int = DEFAULT_MAX_ITER) -> FloatTrace:
    """Double-precision version of the refinement loop.

    NOT rigorous: round-to-nearest arithmetic, no directed rounding, no
    enclosure guarantee.  It exists for performance measurements.  Stops
    additionally when the map reproduces the same interval (a float fixed
    point, reported as "stalled") and reports any NaN or infinite endpoint,
    power or width, a zero denominator among them, as "non-finite",
    keeping the last finite interval.  A map coefficient beyond the float
    range is an input error (ValueError), as an x or eps beyond it is.
    The step reads the map's nonzero terms, MapCoefficients.float_sides,
    which each map builds once; the default map is one per degree.  On
    the default map's terms the loop takes its Secant-Newton step, with
    the generic step's results; every other map, a map file with
    Secant-Newton's coefficients among them, takes the generic step.
    """
    x, eps = float_inputs(x, eps)
    _check_n_and_max_iter(n, max_iter)
    p, q = _map_of_degree(m, n).float_sides
    return refine_float_loop(x, n, p, q, eps, max_iter)


def bisect_float(x: float, n: int, eps: float,
                 max_iter: int = DEFAULT_MAX_ITER) -> FloatTrace:
    """Double-precision bisection baseline (same caveats as refine_float).

    A midpoint whose nth power overflows a float ends the loop as
    "non-finite", keeping the last finite interval, as in refine_float.
    """
    x, eps = float_inputs(x, eps)
    _check_n_and_max_iter(n, max_iter)
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
