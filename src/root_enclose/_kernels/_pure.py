"""The arithmetic kernels, in pure Python.

These are the hot inner loops of the whole package: evaluating one member of
the refinement-map family at one (L, U, x) point, and the double-precision
refinement loop.  ``form_pair`` is the one evaluator of the homogeneous forms
sum_i c_i * a**(k-1-i) * b**i that every map numerator and denominator is
built from (with unit coefficients it is the secant form); both map kernels
finish each endpoint through one routine, ``_endpoint``.  This is their only
implementation; the package imports them through ``root_enclose._kernels``.

A coefficient vector is passed as a list of integer numerators over one
positive common denominator, which ``maps.MapEvaluator`` computes once per
map side (the lcm of the coefficients' denominators).  Rational values are
passed as (numerator, denominator) pairs of Python ints with a positive
denominator, and are returned in the same form, but not reduced: no kernel
calls gcd.  Their callers compare values by cross-multiplication, or build
a Fraction, which reduces anyway.
"""

from __future__ import annotations

BACKEND_NAME = "pure"


def form_pair(c, den, an, ad, bn, bd):
    """sum_i c_i * a**(k-1-i) * b**i with k = len(c) >= 1 and c_i = c[i]/den.

    This is the homogeneous degree-(k-1) form both map denominators use
    (and, with the leading x added by the caller, the numerators).
    """
    # Horner in a over the common denominator den*(ad*bd)**(k-1), where a
    # and b become x = an*bd and y = bn*ad
    x = an * bd
    y = bn * ad
    sn = c[0]
    yi = 1
    for i in range(1, len(c)):
        yi *= y
        sn = sn * x + c[i] * yi
    return sn, den * (ad * bd) ** (len(c) - 1)


def _endpoint(an, ad, hn, hd, den_n, den_d, xn, xd):
    """a + (x + h) / den as a pair with a positive denominator, or None when
    the form den = den_n/den_d is exactly zero."""
    if den_n == 0:
        return None
    num_n = hn * xd + xn * hd
    qd = hd * xd * den_n
    if qd < 0:
        qd = -qd
        den_d = -den_d
    return an * qd + num_n * den_d * ad, ad * qd


def apply_pairs(n, p, pden, q, qden, ln, ld, un, ud, xn, xd):
    """Evaluate the general degree-n map at (L, U, x), all given as pairs,
    with coefficients p/pden and q/qden.

    Returns (status, lo_num, lo_den, hi_num, hi_den) with status 0 on
    success, 1 when the lower denominator form is exactly zero, 2 when the
    upper one is (the pair slots are 0/1 placeholders then).
    """
    # lower endpoint: L + (x + sum_{i<=n} p_i L^(n-i) U^i) / (sum_i p_{n+1+i} L^(n-1-i) U^i)
    lo = _endpoint(ln, ld, *form_pair(p[: n + 1], pden, ln, ld, un, ud),
                   *form_pair(p[n + 1:], pden, ln, ld, un, ud), xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    # upper endpoint: same shape with the roles of L and U swapped
    hi = _endpoint(un, ud, *form_pair(q[: n + 1], qden, un, ud, ln, ld),
                   *form_pair(q[n + 1:], qden, un, ud, ln, ld), xn, xd)
    if hi is None:
        return 2, 0, 1, 0, 1
    return (0, *lo, *hi)


def apply_reduced_pairs(n, dpn, dpd, dqn, dqd, ln, ld, un, ud, xn, xd):
    """Canonical-map path: the numerators are exactly x - L**n, x - U**n.

    dpn/dpd and dqn/dqd are the values at (L, U) of the lower and upper
    denominator forms, which the caller evaluates with form_pair (and may
    use again).  Same return convention as apply_pairs.
    """
    lo = _endpoint(ln, ld, -ln ** n, ld ** n, dpn, dpd, xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    hi = _endpoint(un, ud, -un ** n, ud ** n, dqn, dqd, xn, xd)
    if hi is None:
        return 2, 0, 1, 0, 1
    return (0, *lo, *hi)


def _float_endpoint(coeffs, n, a, b, base, x):
    """base + (x + form(c[0..n])) / form(c[n+1..2n]) in doubles, or None when
    the denominator form is exactly 0.0."""
    ap = [1.0] * (n + 1)
    bp = [1.0] * (n + 1)
    for i in range(1, n + 1):
        ap[i] = ap[i - 1] * a
        bp[i] = bp[i - 1] * b
    num = x
    for i in range(n + 1):
        num += coeffs[i] * ap[n - i] * bp[i]
    den = 0.0
    for i in range(n):
        den += coeffs[n + 1 + i] * ap[n - 1 - i] * bp[i]
    if den == 0.0:
        return None
    return base + num / den


def refine_float_loop(x, n, p, q, eps, max_iter):
    """Double-precision refinement loop from [min(1,x), max(1,x)].

    Returns (status, lo, hi, iterations) with status 0 width reached, 1 max
    iterations, 2 stalled (an application failed to strictly shrink the
    width, e.g. endpoints oscillating by one ulp), 3 non-finite value or
    zero denominator (the last finite interval is reported).  Rounding can
    make converged endpoints cross by one ulp; the pair is reported as-is.
    """
    lo = x if x < 1.0 else 1.0
    hi = x if x > 1.0 else 1.0
    it = 0
    prev_w = float("inf")
    while True:
        w = hi - lo
        if w != w or w == float("inf"):
            return 3, lo, hi, it
        if w <= eps:
            return 0, lo, hi, it
        if it >= max_iter:
            return 1, lo, hi, it
        if w >= prev_w:
            return 2, lo, hi, it
        nlo = _float_endpoint(p, n, lo, hi, lo, x)
        nhi = _float_endpoint(q, n, hi, lo, hi, x)
        if nlo is None or nhi is None:
            return 3, lo, hi, it
        if nlo != nlo or nhi != nhi or nlo == float("-inf") or nhi == float("inf"):
            return 3, lo, hi, it
        prev_w = w
        lo = nlo
        hi = nhi
        it += 1
