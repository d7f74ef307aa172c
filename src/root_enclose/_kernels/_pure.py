"""The exact arithmetic kernels, in pure Python.

These are the hot inner loops of the exact arithmetic: evaluating one member
of the refinement-map family at one (L, U, x) point.  ``form_pair`` is the
one evaluator of the homogeneous forms sum_i c_i * a**(k-1-i) * b**i that
every map numerator and denominator is built from (with unit coefficients
it is the secant form).  Each form is one int, its numerator over the
side's scale den*(ad*bd)**(k-1), which only ``maps.denominators`` builds;
both map kernels, and MapEvaluator.beside, finish each endpoint through
one routine, ``endpoint_pair``, from those numerators.  This is their only
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


def form_pair(c, an, ad, bn, bd):
    """The numerator, over the side's scale den*(ad*bd)**(k-1), of
    sum_i c_i * a**(k-1-i) * b**i with k = len(c) >= 1 and c_i = c[i]/den.

    This is the homogeneous degree-(k-1) form both map denominators use
    (and, with the leading x added by the caller, the numerators).  Forms of
    one side and degree share the scale, so they add as numerators; only
    maps.denominators builds it.  Trailing zero coefficients, such as the
    n-1 zeros of Secant-Newton's Newton tail (n, 0, ..., 0), cost one power
    of a instead of a Horner step each.
    """
    # Horner in a over the scale den*(ad*bd)**(k-1), where a and b become
    # x = an*bd and y = bn*ad; the loop stops at the last nonzero
    # coefficient c[last], and x**(k-1-last) makes up the degree
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
    return sn


def endpoint_pair(n, hn, fn, den, an, ad, bd, xn, xd):
    """One endpoint a + (x + h) / f of a map side at (a, b) = (L, U) for the
    lower and (U, L) for the upper endpoint, as a pair with a positive
    denominator, or None when the denominator form f is exactly zero.

    The forms come as form_pair's numerators over the side's scale
    den*(ad*bd)**k: fn that of f (k = n-1), and hn that of the head form h
    (k = n), or None for a canonical head, whose numerator x + h is
    x - a**n.  The scale is never built, nor its common factor multiplied
    in; the endpoint is

        (an*xd*f + (xn*ad**n - an**n*xd)*den*bd**(n-1)) / (ad*xd*f)

    on a canonical side and (an*xd*bd*f + xn*den*(ad*bd)**n + h*xd) /
    (ad*bd*xd*f) otherwise, with f's sign moved to the numerator.
    """
    if not fn:
        return None
    if hn is None:
        num = an * xd * fn + (xn * ad ** n - an ** n * xd) * den * bd ** (n - 1)
        q = ad * xd * fn
    else:
        ab = ad * bd
        num = (an * bd * fn + hn) * xd + xn * den * ab ** n
        q = ab * xd * fn
    return (num, q) if fn > 0 else (-num, -q)


def apply_pairs(n, p, pden, q, qden, ln, ld, un, ud, xn, xd):
    """Evaluate the general degree-n map at (L, U, x), all given as pairs,
    with coefficients p/pden and q/qden.

    Returns (status, lo_num, lo_den, hi_num, hi_den) with status 0 on
    success, 1 when the lower denominator form is exactly zero, 2 when the
    upper one is (the pair slots are 0/1 placeholders then).
    """
    # lower endpoint: L + (x + sum_{i<=n} p_i L^(n-i) U^i) / (sum_i p_{n+1+i} L^(n-1-i) U^i)
    lo = endpoint_pair(n, form_pair(p[: n + 1], ln, ld, un, ud),
                       form_pair(p[n + 1:], ln, ld, un, ud), pden, ln, ld, ud, xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    # upper endpoint: same shape with the roles of L and U swapped
    hi = endpoint_pair(n, form_pair(q[: n + 1], un, ud, ln, ld),
                       form_pair(q[n + 1:], un, ud, ln, ld), qden, un, ud, ld, xn, xd)
    if hi is None:
        return 2, 0, 1, 0, 1
    return (0, *lo, *hi)


def apply_reduced_pairs(n, dpn, pden, dqn, qden, ln, ld, un, ud, xn, xd):
    """Canonical-map path: the numerators are exactly x - L**n, x - U**n.

    dpn and dqn are the numerators at (L, U) of the lower and upper
    denominator forms over their sides' scales, as form_pair gives them for
    the tails held over pden and qden.  Same return convention as
    apply_pairs.
    """
    lo = endpoint_pair(n, None, dpn, pden, ln, ld, ud, xn, xd)
    if lo is None:
        return 1, 0, 1, 0, 1
    hi = endpoint_pair(n, None, dqn, qden, un, ud, ld, xn, xd)
    if hi is None:
        return 2, 0, 1, 0, 1
    return (0, *lo, *hi)
