"""Seeded random members of the refinement-map family, for the tests.

Each generator takes a degree n and either a seed or a random.Random, and
draws from it in a fixed order, so a seed names one map.  The coefficients'
random parts are fractions a/b with 1 <= a, b <= GENERATOR_MAGNITUDE.
"""

import random
from fractions import Fraction

from root_enclose.maps import MapCoefficients, secant_newton

GENERATOR_MAGNITUDE = 6  # bound on the parts of the generators' random coefficients


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, GENERATOR_MAGNITUDE), rng.randint(1, GENERATOR_MAGNITUDE))


def perturbed_contracting_map(n: int, seed_or_rng, *, perturb_p: bool = True,
                              perturb_q: bool = True) -> MapCoefficients:
    """Secant-Newton plus non-negative denominator perturbations.

    The perturbed denominators dominate Secant-Newton's coefficientwise,
    which certifies contraction pointwise without any positivity solving.
    Each perturbed side gets at least one strictly positive bump, so the
    p-side excess form is strictly positive whenever L, U > 0 (making the
    lower endpoint strictly worse than the secant one whenever x > L^n),
    and similarly for the q-side when x < U^n.
    """
    rng = _as_rng(seed_or_rng)
    base = secant_newton(n)
    p = list(base.p)
    q = list(base.q)
    # p first, then q: the draws are made in this order
    for side, perturb in ((p, perturb_p), (q, perturb_q)):
        if not perturb:
            continue
        bumped = False
        for i in range(n):
            if rng.random() < 0.6:
                side[n + 1 + i] += _random_positive(rng)
                bumped = True
        if not bumped:
            side[n + 1 + rng.randrange(n)] += _random_positive(rng)
    return MapCoefficients(n, tuple(p), tuple(q))


def random_noncanonical_map(n: int, seed_or_rng) -> MapCoefficients:
    """Secant-Newton with a nonzero perturbation of one or more head
    coefficients (p0..pn or q0..qn), i.e. a map that cannot be contracting."""
    rng = _as_rng(seed_or_rng)
    base = secant_newton(n)
    p = list(base.p)
    q = list(base.q)
    side = rng.choice(("p", "q", "both"))
    def bump(vec):
        for i in rng.sample(range(n + 1), rng.randint(1, min(2, n + 1))):
            delta = _random_positive(rng)
            if rng.random() < 0.5:
                delta = -delta
            vec[i] += delta
    if side in ("p", "both"):
        bump(p)
    if side in ("q", "both"):
        bump(q)
    return MapCoefficients(n, tuple(p), tuple(q))


def random_canonical_map(n: int, seed_or_rng, *,
                         positive_denominators: bool = False) -> MapCoefficients:
    """Random canonical map: canonical head, arbitrary denominator tails.

    Not contracting in general.  With positive_denominators the tail
    coefficients are non-negative with a strictly positive leading one, so
    neither denominator form can vanish on L, U > 0.
    """
    rng = _as_rng(seed_or_rng)
    head = [Fraction(-1)] + [Fraction(0)] * n

    def tail():
        out = []
        for i in range(n):
            c = _random_positive(rng)
            if positive_denominators:
                if i > 0 and rng.random() < 0.3:
                    c = Fraction(0)
            else:
                if rng.random() < 0.5:
                    c = -c
                if rng.random() < 0.2:
                    c = Fraction(0)
            out.append(c)
        if not positive_denominators and all(c == 0 for c in out):
            out[rng.randrange(n)] = _random_positive(rng)
        return out

    p = head + tail()
    q = head + tail()
    return MapCoefficients(n, tuple(p), tuple(q))
