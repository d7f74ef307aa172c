"""The exact arithmetic kernels, in pure Python.

These are the hot inner loops of the exact arithmetic: evaluating one member
of the refinement-map family at one (L, U, x) point.  ``form_pair`` is the
one evaluator of the homogeneous forms sum_i c_i * a**(k-1-i) * b**i that
every map numerator and denominator is built from (with unit coefficients
it is the secant form); both map kernels finish each endpoint through one
routine, ``endpoint_pair``.  This is their only implementation; the package
imports them through ``root_enclose._kernels``.

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
    Trailing zero coefficients, such as the n-1 zeros of Secant-Newton's
    Newton tail (n, 0, ..., 0), cost one power of a instead of a Horner
    step each.
    """
    # Horner in a over the common denominator den*(ad*bd)**(k-1), where a
    # and b become x = an*bd and y = bn*ad; the loop stops at the last
    # nonzero coefficient c[last], and x**(k-1-last) makes up the degree
    k = len(c)
    last = k - 1
    while last and not c[last]:
        last -= 1
    x = an * bd
    y = bn * ad
    sn = c[0]
    yi = 1
    for i in range(1, last + 1):
        yi *= y
        sn = sn * x + c[i] * yi
    if last < k - 1:
        sn *= x ** (k - 1 - last)
    return sn, den * (ad * bd) ** (k - 1)


def endpoint_pair(an, ad, hn, hd, den_n, den_d, xn, xd):
    """a + (x + h) / den as a pair with a positive denominator, or None when
    the form den = den_n/den_d is exactly zero: one endpoint of a map, given
    its numerator form h and denominator form den at (L, U)."""
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
    lo = endpoint_pair(ln, ld, *form_pair(p[: n + 1], pden, ln, ld, un, ud),
                        *form_pair(p[n + 1:], pden, ln, ld, un, ud), xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    # upper endpoint: same shape with the roles of L and U swapped
    hi = endpoint_pair(un, ud, *form_pair(q[: n + 1], qden, un, ud, ln, ld),
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
    lo = endpoint_pair(ln, ld, -ln ** n, ld ** n, dpn, dpd, xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    hi = endpoint_pair(un, ud, -un ** n, ud ** n, dqn, dqd, xn, xd)
    if hi is None:
        return 2, 0, 1, 0, 1
    return (0, *lo, *hi)
