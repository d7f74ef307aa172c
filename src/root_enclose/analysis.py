"""Exact, sampled verification of the refinement-map family's properties.

Nothing here is proved.  Statements quantified over all 0 < L <= root <= U
are checked on deterministic sample sets, and every failure comes back as a
concrete rational witness that can be re-checked by hand.  Sample points are
built as (L, r, U) with x = r**n, so the root of x is rational by
construction and every comparison is exact; irrational values never arise.
Each sample is evaluated once, on int pairs that are never reduced, and
every test of a check reads that one evaluation.

The checks:

  * falsify_contraction  - the four endpoint inequalities
                           L <= L' <= r <= U' <= U, with corner probes at
                           x = L**n and x = U**n that catch any map whose
                           head coefficients are not canonical
  * check_denominator_bounds - the two necessary denominator inequalities of
                           canonical contracting maps
  * check_dominance      - Secant-Newton's output is a subset of the checked
                           map's output (and almost always a proper one)
  * equality_locus       - the two polynomials in (L, U, x) whose common
                           zero set is exactly where a canonical map's output
                           coincides with Secant-Newton's
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd
from typing import NamedTuple

from .maps import MapCoefficients, MapEvaluator, check_canonical, denominators, secant_newton
from .numeric import as_rational, pow_int

# Not used here; kept importable because perfbench/tracing.py wraps it at this
# name.
from .numeric import geom_sum  # noqa: F401

PASSED_ON_SAMPLES = "passed-on-samples"
FALSIFIED = "falsified"

# bound on the numerators and denominators of the seeded sample values
MAX_MAGNITUDE = 10 ** 6


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling plan for the universally quantified checks:
    the first count samples of the fixed corner block followed by triples
    drawn from seed."""

    seed: int = 0
    count: int = 10_000

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")


class Triple(NamedTuple):
    """A sample point 0 < L <= r <= U with x = r**n held exactly."""

    L: Fraction
    r: Fraction
    U: Fraction
    x: Fraction


@dataclass(frozen=True)
class Witness:
    """A concrete point where a checked inequality fails, both sides evaluated."""

    L: Fraction
    r: Fraction
    U: Fraction
    x: Fraction
    violated: str
    lhs: Fraction
    rhs: Fraction

    def __post_init__(self):
        if not 0 < self.L <= self.r <= self.U:
            raise ValueError("witness must satisfy 0 < L <= r <= U")

    def to_json(self) -> dict:
        return {
            "L": str(self.L),
            "r": str(self.r),
            "U": str(self.U),
            "x": str(self.x),
            "violated": self.violated,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled property check: falsified exactly when it
    carries a witness."""

    witness: Witness | None
    samples_checked: int

    @property
    def falsified(self) -> bool:
        return self.witness is not None

    @property
    def outcome(self) -> str:
        return FALSIFIED if self.falsified else PASSED_ON_SAMPLES

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "samples_checked": self.samples_checked,
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass(frozen=True)
class DominanceStats:
    """Subset statistics of Secant-Newton's output against another map's.

    Every sample is either a violation or a subset, and a subset is either
    an equality point or a proper subset, so
    subset_count = samples - len(violations) and
    proper_subset_count = subset_count - len(equality_points).
    """

    samples: int
    equality_points: tuple[tuple[Fraction, Fraction, Fraction], ...]
    violations: tuple[Witness, ...]

    @property
    def subset_count(self) -> int:
        return self.samples - len(self.violations)

    @property
    def proper_subset_count(self) -> int:
        return self.subset_count - len(self.equality_points)

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "subset_count": self.subset_count,
            "proper_subset_count": self.proper_subset_count,
            "equality_points": [
                [str(L), str(r), str(U)] for L, r, U in self.equality_points
            ],
            "violations": [w.to_json() for w in self.violations],
        }


# Fixed corner grid.  Each pair contributes probes at r = L, r = U, the
# degenerate L = U copies, and the midpoint; (1, 4) is deliberately present
# so that x = U**n probing covers the (1, 4, 4) diagnostic point.
_F = Fraction
_CORNER_PAIRS = (
    (_F(1), _F(1)),
    (_F(1), _F(2)),
    (_F(1), _F(4)),
    (_F(1, 2), _F(1)),
    (_F(3, 2), _F(2)),
    (_F(1), _F(3)),
    (_F(2), _F(3)),
    (_F(1, 2), _F(2)),
    (_F(2, 3), _F(3, 2)),
    (_F(2), _F(2)),
    (_F(3), _F(5)),
    (_F(5, 2), _F(7, 2)),
    (_F(1, 3), _F(1, 2)),
    (_F(4), _F(7)),
    (_F(7, 3), _F(3)),
)


# Inside the scans a sample is the tuple (Ln, Ld, rn, rd, Un, Ud, xn, xd):
# L, r, U and x = r**n as reduced int pairs with positive denominators, so
# equal sample values are equal pairs.  The map's values at a sample come
# from the kernels unreduced, with positive denominators, and are compared
# by cross-multiplication.  Fractions are built only for what leaves the
# module.

# (Ln, Ld, rn, rd, Un, Ud) of every corner probe, in sample order
_CORNER_POINTS = tuple(
    tuple(i for v in point for i in (v.numerator, v.denominator))
    for L, U in _CORNER_PAIRS
    for point in ((L, L, U), (L, U, U), (L, L, L), (U, U, U), (L, (L + U) / 2, U))
)


def _corner_samples(n: int):
    for ln, ld, rn, rd, un, ud in _CORNER_POINTS:
        yield ln, ld, rn, rd, un, ud, rn ** n, rd ** n


def _uniform_ints(getrandbits, mag: int):
    """Endless randint(1, mag) values: the rejection loop on getrandbits(k)
    that randint runs, inlined, so the values are the same."""
    k = mag.bit_length()
    while True:
        r = getrandbits(k)
        if r < mag:
            yield r + 1


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _draw(n: int, seed: int):
    """The endless sample sequence: the corner block, then seeded triples."""
    yield from _corner_samples(n)
    draw = _uniform_ints(random.Random(seed).getrandbits, MAX_MAGNITUDE).__next__
    while True:
        an, ad = _reduced(draw(), draw())
        bn, bd = _reduced(draw(), draw())
        cn, cd = _reduced(draw(), draw())
        # sort the three values; equal values are equal pairs, so ties
        # cannot change the result
        if bn * ad < an * bd:
            an, ad, bn, bd = bn, bd, an, ad
        if cn * bd < bn * cd:
            bn, bd, cn, cd = cn, cd, bn, bd
            if bn * ad < an * bd:
                an, ad, bn, bd = bn, bd, an, ad
        yield an, ad, bn, bd, cn, cd, bn ** n, bd ** n


def _sample_pairs(n: int, cfg: SampleConfig):
    """The cfg.count samples of sample_triples in int-pair form, drawn
    lazily: a scan that stops early never draws the rest."""
    if n < 2:
        raise ValueError("need n >= 2")
    return islice(_draw(n, cfg.seed), cfg.count)


def _triple(s) -> Triple:
    ln, ld, rn, rd, un, ud, xn, xd = s
    return Triple(Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud), Fraction(xn, xd))


def corner_triples(n: int) -> list[Triple]:
    """The fixed head of every sample sequence."""
    return [_triple(s) for s in _corner_samples(n)]


def sample_triples(n: int, cfg: SampleConfig) -> list[Triple]:
    """Deterministic list of exactly cfg.count sample triples.

    The fixed corner block comes first (truncated if cfg.count is smaller);
    pseudo-random triples with numerators and denominators bounded by
    MAX_MAGNITUDE fill the rest.  The checks below scan this same sequence
    in int-pair form.
    """
    return [_triple(s) for s in _sample_pairs(n, cfg)]


_ZERO_PAIR = (0, 1)


def _witness(s, violated: str, lhs: tuple[int, int], rhs: tuple[int, int]) -> Witness:
    """The Witness at int-pair sample s, with both sides given as pairs."""
    L, r, U, x = _triple(s)
    return Witness(L, r, U, x, violated, Fraction(*lhs), Fraction(*rhs))


def _evaluations(ev: MapEvaluator, samples):
    """Each sample with the map's one evaluation there, as (s, dens, result)
    from ev.evaluate: the canonical map's denominator forms (or None) and
    the kernel result.  Lazy, like samples."""
    evaluate = ev.evaluate
    for s in samples:
        ln, ld, _, _, un, ud, xn, xd = s
        yield s, *evaluate(ln, ld, un, ud, xn, xd)


def _scan(tests, evaluations, checked: int = 0) -> list[Verdict]:
    """Verdicts of per-sample tests ((s, dens, result) -> Witness or None)
    from one lazy pass over the evaluations.  Each test stops at its own
    first witness and the pass stops once every test has; samples_checked
    counts the samples a test saw, on top of the given checked."""
    verdicts = [None] * len(tests)
    for e in evaluations:
        checked += 1
        for i, test in enumerate(tests):
            if verdicts[i] is None and (w := test(e)) is not None:
                verdicts[i] = Verdict(w, checked)
        if all(verdicts):
            break
    return [v or Verdict(None, checked) for v in verdicts]


def _contraction_witness(e) -> Witness | None:
    """First failing inequality of L <= L' <= r <= U' <= U at one sample."""
    s, _, (status, a, b, c, d) = e
    ln, ld, rn, rd, un, ud, _, _ = s
    if status:
        return _witness(s, "denominator-zero", _ZERO_PAIR, _ZERO_PAIR)
    if a * ld < ln * b:
        return _witness(s, "L <= L'", (ln, ld), (a, b))
    if a * rd > rn * b:
        return _witness(s, "L' <= r", (a, b), (rn, rd))
    if c * rd < rn * d:
        return _witness(s, "r <= U'", (rn, rd), (c, d))
    if c * ud > un * d:
        return _witness(s, "U' <= U", (c, d), (un, ud))
    return None


def _corner_probes(m: MapCoefficients, cfg: SampleConfig, report):
    """At each distinct sampled (L, U): the probe x = L**n (r = L) if a p-side
    head coefficient is not canonical, and x = U**n (r = U) if a q-side one
    is not.  The samples are read lazily."""
    n = m.n
    sides = {name[0] for name, _, _ in report.violations}
    seen = set()
    for ln, ld, _, _, un, ud, _, _ in _sample_pairs(n, cfg):
        if (ln, ld, un, ud) not in seen:
            seen.add((ln, ld, un, ud))
            for side, rn, rd in (("p", ln, ld), ("q", un, ud)):
                if side in sides:
                    yield ln, ld, rn, rd, un, ud, rn ** n, rd ** n


def _contraction_verdict(m: MapCoefficients, cfg: SampleConfig, report) -> Verdict:
    """falsify_contraction(m, cfg), given report = check_canonical(m)."""
    ev = MapEvaluator(m)
    checked = 0
    if not report.is_canonical:
        probes = _evaluations(ev, _corner_probes(m, cfg, report))
        probed = _scan([_contraction_witness], probes)[0]
        if probed.falsified:
            return probed
        checked = probed.samples_checked
    samples = _evaluations(ev, _sample_pairs(m.n, cfg))
    return _scan([_contraction_witness], samples, checked)[0]


def falsify_contraction(m: MapCoefficients, cfg: SampleConfig) -> Verdict:
    """Search the sample set for a violation of L <= L' <= r <= U' <= U.

    A zero denominator counts as a violation (the map is not defined on the
    whole domain the contraction condition quantifies over).  Maps that fail
    the canonical-form check are short-circuited: for a p-side violation the
    corner x = L**n forces the lower numerator away from zero at generic
    (L, U), so probing the sampled pairs there yields a witness immediately,
    and likewise x = U**n for q-side violations.  The probes read the
    samples lazily, and the samples are drawn again for the plain scan only
    if no probe fails.

    samples_checked counts evaluated points, probes included.
    """
    return _contraction_verdict(m, cfg, check_canonical(m))


def _bounds_witness(sn_ev: MapEvaluator, e) -> Witness | None:
    """First failing denominator bound at one evaluated sample
    e = (s, dens, _): the map's forms dens against the secant form and the
    Newton form at the sample's (L, U), from Secant-Newton's evaluator."""
    n = sn_ev.map.n
    s, ((pn, pd), (qn, qd)), _ = e
    ln, ld, _, _, un, ud, _, _ = s
    (sn, sd), (nn, nd) = sn_ev.denominator_pairs(ln, ld, un, ud)
    if pn * sd < sn * pd:
        return _witness((ln, ld, ln, ld, un, ud, ln ** n, ld ** n),
                        "p-denominator >= secant form", (pn, pd), (sn, sd))
    if qn * nd < nn * qd:
        return _witness((ln, ld, ln, ld, un, ud, ln ** n, ld ** n),
                        "q-denominator >= n*U^(n-1)", (qn, qd), (nn, nd))
    return None


def _sample_scan(m: MapCoefficients, cfg: SampleConfig, tests) -> list[Verdict]:
    """_scan of tests over the evaluations of m at the samples of cfg."""
    return _scan(tests, _evaluations(MapEvaluator(m), _sample_pairs(m.n, cfg)))


def check_denominator_bounds(m: MapCoefficients, cfg: SampleConfig) -> Verdict:
    """Check the two denominator lower bounds every canonical contracting
    map satisfies: the p-denominator dominates the secant form
    L^(n-1) + L^(n-2) U + ... + U^(n-1) and the q-denominator dominates the
    Newton form n*U^(n-1), exactly, on the sampled (L, U) pairs.

    Rejects non-canonical maps: the bounds are statements about the reduced
    form.
    """
    if not check_canonical(m).is_canonical:
        raise ValueError("denominator bounds apply to canonical maps only")
    bounds = partial(_bounds_witness, MapEvaluator(secant_newton(m.n)))
    return _sample_scan(m, cfg, [bounds])[0]


def check_map(m: MapCoefficients, cfg: SampleConfig) -> tuple[Verdict | None, Verdict]:
    """(check_denominator_bounds(m, cfg), falsify_contraction(m, cfg)); for a
    canonical map both tests run on one evaluation per sample, in one pass
    over the samples.  The bounds verdict is None for non-canonical maps,
    which the bounds do not apply to."""
    report = check_canonical(m)
    if not report.is_canonical:
        return None, _contraction_verdict(m, cfg, report)
    bounds = partial(_bounds_witness, MapEvaluator(secant_newton(m.n)))
    return tuple(_sample_scan(m, cfg, [bounds, _contraction_witness]))


def _subset_by_denominators(s, dens, sn_dens) -> bool | None:
    """At sample s of a canonical map whose denominator forms are
    dens = (Dp, Dq), against Secant-Newton's sn_dens = (S, N): True if the
    two intervals are equal, False if the map's holds Secant-Newton's
    properly, and None where a witness needs the endpoints (Secant-Newton's
    interval sticks out, or Dp or Dq is zero).

    Both maps share the numerators x - L^n >= 0 >= x - U^n, so
    L' - L* = (x - L^n)(1/Dp - 1/S) and U' - U* = (x - U^n)(1/Dq - 1/N),
    with x = L^n exactly when r = L and x = U^n exactly when r = U.
    """
    ln, ld, rn, rd, un, ud, _, _ = s
    ((pn, pd), (qn, qd)), ((sn, sd), (nn, nd)) = dens, sn_dens
    if pn == 0 or qn == 0:
        return None
    at_l = rn == ln and rd == ld
    at_u = rn == un and rd == ud
    if not (at_l or pn < 0 or pn * sd >= sn * pd):  # L* < L'
        return None
    if not (at_u or qn < 0 or qn * nd >= nn * qd):  # U' < U*
        return None
    return (at_l or pn * sd == sn * pd) and (at_u or qn * nd == nn * qd)


def check_dominance(m: MapCoefficients, cfg: SampleConfig) -> DominanceStats:
    """Compare the checked map's output interval against Secant-Newton's on
    every sampled triple: a sample is a violation unless [L*, U*] lies inside
    [L', U'] exactly, and an equality point if the two intervals coincide.
    Zero denominators in the checked map count as violations.

    For a canonical map the denominator forms decide every sample where
    Secant-Newton's interval is inside (see _subset_by_denominators);
    endpoints are computed only for the others, and for non-canonical maps.
    """
    n = m.n
    ev = MapEvaluator(m)
    sn_ev = MapEvaluator(secant_newton(n))
    canonical = check_canonical(m).is_canonical
    equality = []
    violations = []
    for s in _sample_pairs(n, cfg):
        ln, ld, rn, rd, un, ud, xn, xd = s
        sn_dens = sn_ev.denominator_pairs(ln, ld, un, ud)
        if canonical:
            dens = ev.denominator_pairs(ln, ld, un, ud)
            equal = _subset_by_denominators(s, dens, sn_dens)
            if equal is not None:
                if equal:
                    equality.append((Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud)))
                continue
            status, a, b, c, d = ev.canonical_pair(dens, ln, ld, un, ud, xn, xd)
        else:
            _, (status, a, b, c, d) = ev.evaluate(ln, ld, un, ud, xn, xd)
        if status:
            violations.append(_witness(s, "denominator-zero", _ZERO_PAIR, _ZERO_PAIR))
            continue
        _, sa, sb, sc, sd = sn_ev.canonical_pair(sn_dens, ln, ld, un, ud, xn, xd)
        if a * sb > sa * b:
            violations.append(_witness(s, "L' <= L*", (a, b), (sa, sb)))
        elif sc * d > c * sd:
            violations.append(_witness(s, "U* <= U'", (sc, sd), (c, d)))
        elif a * sb == sa * b and c * sd == sc * d:
            equality.append((Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud)))
    return DominanceStats(cfg.count, tuple(equality), tuple(violations))


class TrivariatePoly:
    """Sparse trivariate polynomial: {(i, j, k): c} for the terms c*L^i U^j x^k.

    Only nonzero terms are stored, ordered by exponent, so structural
    equality is semantic equality and the zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict):
        self._terms = {key: as_rational(c) for key, c in sorted(terms.items()) if c != 0}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        """Nonzero terms as {(L-exp, U-exp, x-exp): coefficient}."""
        return dict(self._terms)

    def __eq__(self, other):
        if not isinstance(other, TrivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __str__(self):
        if self.is_zero:
            return "0"
        def monomial(i, j, k):
            parts = []
            for sym, e in (("L", i), ("U", j), ("x", k)):
                if e == 1:
                    parts.append(sym)
                elif e > 1:
                    parts.append(f"{sym}^{e}")
            return "*".join(parts) if parts else "1"
        pieces = []
        for (i, j, k), c in sorted(self._terms.items(),
                                   key=lambda kv: (-kv[0][2], -kv[0][0], -kv[0][1])):
            mono = monomial(i, j, k)
            mag = abs(c)
            body = mono if mag == 1 and mono != "1" else (
                f"{mag}" if mono == "1" else f"{mag}*{mono}")
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"TrivariatePoly({self})"


def equality_locus(m: MapCoefficients) -> tuple[TrivariatePoly, TrivariatePoly]:
    """The two polynomials whose simultaneous vanishing marks the points
    where a canonical map's output equals Secant-Newton's:

        f_p = (x - L^n) * (coefficientwise excess of the p-denominator
                           over the secant form)
        f_q = (x - U^n) * (coefficientwise excess of the q-denominator
                           over n*U^(n-1))

    returned expanded as sparse polynomials over (L, U, x).  Both are
    identically zero exactly for Secant-Newton itself; for any other
    canonical map their common zero set has measure zero.
    """
    if not check_canonical(m).is_canonical:
        raise ValueError("equality locus applies to canonical maps only")
    n = m.n
    ref = secant_newton(n)
    polys = []
    # each side is (x - a^n) * sum_i c_i a^(n-1-i) b^i, c_i the excess of the
    # map's tail over Secant-Newton's and (a, b) = (L, U) for p, (U, L) for q
    for coeffs, ref_coeffs, a_first in ((m.p, ref.p, True), (m.q, ref.q, False)):
        terms = {}
        for i in range(n):
            c = coeffs[n + 1 + i] - ref_coeffs[n + 1 + i]
            for ea, eb, ex, v in ((n - 1 - i, i, 1, c), (2 * n - 1 - i, i, 0, -c)):
                terms[(ea, eb, ex) if a_first else (eb, ea, ex)] = v
        polys.append(TrivariatePoly(terms))
    return tuple(polys)


def evaluate_locus(m: MapCoefficients, L, U, x) -> tuple[Fraction, Fraction]:
    """Evaluate both locus polynomials at (L, U, x), as
    ((x - L^n)(Dp - S), (x - U^n)(Dq - N)) from the denominator forms Dp, Dq
    of m and S, N of Secant-Newton at (L, U).

    Provided neither map hits a zero denominator there, the result is (0, 0)
    exactly when the checked map and Secant-Newton return the identical
    interval at ([L, U], x).
    """
    L = as_rational(L)
    U = as_rational(U)
    x = as_rational(x)
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got ({L}, {U})")
    low, high = pow_int(L, m.n), pow_int(U, m.n)
    if not low <= x <= high:
        raise ValueError(f"need L^n <= x <= U^n, got x={x}")
    if not check_canonical(m).is_canonical:
        raise ValueError("equality locus applies to canonical maps only")
    (dp, dq), (s, nf) = denominators(m, L, U), denominators(secant_newton(m.n), L, U)
    return (x - low) * (dp - s), (x - high) * (dq - nf)


# ---------------------------------------------------------------------------
# Map generators for randomized testing.

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
    if perturb_p:
        bumped = False
        for i in range(n):
            if rng.random() < 0.6:
                p[n + 1 + i] += _random_positive(rng)
                bumped = True
        if not bumped:
            p[n + 1 + rng.randrange(n)] += _random_positive(rng)
    if perturb_q:
        bumped = False
        for i in range(n):
            if rng.random() < 0.6:
                q[n + 1 + i] += _random_positive(rng)
                bumped = True
        if not bumped:
            q[n + 1 + rng.randrange(n)] += _random_positive(rng)
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
