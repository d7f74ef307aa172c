"""Exact, sampled verification of the refinement-map family's properties.

Nothing here is proved.  Statements quantified over all 0 < L <= root <= U
are checked on deterministic sample sets, and every failure comes back as a
concrete rational witness that can be re-checked by hand.  Sample points are
built as (L, r, U) with x = r**n, so the root of x is rational by
construction and every comparison is exact; irrational values never arise.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import NamedTuple

from ._kernels import geom_sum_pair
from .maps import MapCoefficients, MapEvaluator, check_canonical, secant_newton
from .numeric import as_rational, pow_int

# Not used by the scans, which work on int pairs; kept importable here because
# perfbench/tracing.py wraps them at these names.
from .maps import denominators  # noqa: F401
from .numeric import geom_sum  # noqa: F401

PASSED_ON_SAMPLES = "passed-on-samples"
FALSIFIED = "falsified"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling plan for the universally quantified checks."""

    seed: int = 0
    count: int = 10_000
    max_magnitude: int = 10 ** 6
    include_corner_probes: bool = True

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.max_magnitude < 2:
            raise ValueError("max_magnitude must be >= 2")
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
    """Outcome of a sampled property check."""

    outcome: str
    witness: Witness | None
    samples_checked: int

    def __post_init__(self):
        if (self.outcome == FALSIFIED) != (self.witness is not None):
            raise ValueError("falsified verdicts carry a witness, passing ones do not")

    @property
    def falsified(self) -> bool:
        return self.outcome == FALSIFIED

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "samples_checked": self.samples_checked,
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass(frozen=True)
class DominanceStats:
    """Subset statistics of Secant-Newton's output against another map's."""

    samples: int
    subset_count: int
    proper_subset_count: int
    equality_points: tuple[tuple[Fraction, Fraction, Fraction], ...]
    violations: tuple[Witness, ...]

    def __post_init__(self):
        if self.subset_count + len(self.violations) != self.samples:
            raise ValueError("every sample is either a subset or a violation")
        if self.proper_subset_count > self.subset_count:
            raise ValueError("proper subsets are subsets")

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
# order is decided by cross-multiplication and equality is structural.
# Fractions are built only for what leaves the module.

# (Ln, Ld, rn, rd, Un, Ud) of every corner probe, in sample order
_CORNER_POINTS = tuple(
    tuple(i for v in point for i in (v.numerator, v.denominator))
    for L, U in _CORNER_PAIRS
    for point in ((L, L, U), (L, U, U), (L, L, L), (U, U, U), (L, (L + U) / 2, U))
)


def _corner_samples(n: int):
    for ln, ld, rn, rd, un, ud in _CORNER_POINTS:
        yield ln, ld, rn, rd, un, ud, rn ** n, rd ** n


def _random_pair(randint, mag: int) -> tuple[int, int]:
    num = randint(1, mag)
    den = randint(1, mag)
    g = gcd(num, den)
    return num // g, den // g


def _draw(n: int, cfg: SampleConfig):
    """The endless sample sequence: the corner block, then seeded triples."""
    if cfg.include_corner_probes:
        yield from _corner_samples(n)
    randint = random.Random(cfg.seed).randint
    mag = cfg.max_magnitude
    while True:
        an, ad = _random_pair(randint, mag)
        bn, bd = _random_pair(randint, mag)
        cn, cd = _random_pair(randint, mag)
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
    return islice(_draw(n, cfg), cfg.count)


def _triple(s) -> Triple:
    ln, ld, rn, rd, un, ud, xn, xd = s
    return Triple(Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud), Fraction(xn, xd))


def corner_triples(n: int) -> list[Triple]:
    """The fixed head of every corner-enabled sample sequence."""
    return [_triple(s) for s in _corner_samples(n)]


def _random_positive(rng: random.Random, mag: int) -> Fraction:
    return Fraction(*_random_pair(rng.randint, mag))


def sample_triples(n: int, cfg: SampleConfig) -> list[Triple]:
    """Deterministic list of exactly cfg.count sample triples.

    With corner probes enabled the fixed corner block comes first (truncated
    if cfg.count is smaller); pseudo-random triples with numerators and
    denominators bounded by cfg.max_magnitude fill the rest.  The checks
    below scan this same sequence in int-pair form.
    """
    return [_triple(s) for s in _sample_pairs(n, cfg)]


_ZERO_PAIR = (0, 1)


def _witness(s, violated: str, lhs: tuple[int, int], rhs: tuple[int, int]) -> Witness:
    """The Witness at int-pair sample s, with both sides given as pairs."""
    L, r, U, x = _triple(s)
    return Witness(L, r, U, x, violated, Fraction(*lhs), Fraction(*rhs))


def _map_chunks(scan, m: MapCoefficients, samples, jobs: int) -> list:
    """[scan((m, chunk)) for each chunk of samples], in sample order.

    With jobs > 1 the samples are split into consecutive chunks that run in
    that many worker processes; otherwise the whole (possibly lazy)
    sequence is one chunk, read in this process.
    """
    if jobs <= 1:
        return [scan((m, samples))]
    samples = list(samples)
    size = max(64, -(-len(samples) // jobs))
    chunks = [(m, samples[i:i + size]) for i in range(0, len(samples), size)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(scan, chunks))


def _contraction_witness(raw_pair, s) -> Witness | None:
    """First failing inequality of L <= L' <= r <= U' <= U at one sample."""
    ln, ld, rn, rd, un, ud, xn, xd = s
    status, a, b, c, d = raw_pair(ln, ld, un, ud, xn, xd)
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


def _scan_contraction_chunk(args) -> tuple[int, Witness | None]:
    """(points evaluated, first witness or None) over one chunk."""
    m, samples = args
    raw_pair = MapEvaluator(m).raw_pair
    scanned = 0
    for s in samples:
        scanned += 1
        w = _contraction_witness(raw_pair, s)
        if w is not None:
            return scanned, w
    return scanned, None


def _contraction_verdict(m: MapCoefficients, samples, jobs: int) -> Verdict:
    checked = 0
    report = check_canonical(m)
    if not report.is_canonical:
        n = m.n
        raw_pair = MapEvaluator(m).raw_pair
        p_violated = any(name.startswith("p") for name, _, _ in report.violations)
        q_violated = any(name.startswith("q") for name, _, _ in report.violations)
        drawn = []
        seen = set()
        for s in samples:
            drawn.append(s)
            ln, ld, _, _, un, ud, _, _ = s
            if (ln, ld, un, ud) in seen:
                continue
            seen.add((ln, ld, un, ud))
            probes = []
            if p_violated:
                probes.append((ln, ld, ln, ld, un, ud, ln ** n, ld ** n))
            if q_violated:
                probes.append((ln, ld, un, ud, un, ud, un ** n, ud ** n))
            for probe in probes:
                checked += 1
                w = _contraction_witness(raw_pair, probe)
                if w is not None:
                    return Verdict(FALSIFIED, w, checked)
        samples = drawn

    for scanned, w in _map_chunks(_scan_contraction_chunk, m, samples, jobs):
        checked += scanned
        if w is not None:
            return Verdict(FALSIFIED, w, checked)
    return Verdict(PASSED_ON_SAMPLES, None, checked)


def falsify_contraction(m: MapCoefficients, cfg: SampleConfig, jobs: int = 1) -> Verdict:
    """Search the sample set for a violation of L <= L' <= r <= U' <= U.

    A zero denominator counts as a violation (the map is not defined on the
    whole domain the contraction condition quantifies over).  Maps that fail
    the canonical-form check are short-circuited: for a p-side violation the
    corner x = L**n forces the lower numerator away from zero at generic
    (L, U), so probing the sampled pairs there yields a witness immediately,
    and likewise x = U**n for q-side violations.  The probes read the
    samples lazily, so the rest are drawn only if no probe fails.

    samples_checked counts evaluated points (probes included); with
    jobs > 1 the scan is partitioned but merged in sample order, so the
    verdict is identical to the sequential one.
    """
    return _contraction_verdict(m, _sample_pairs(m.n, cfg), jobs)


def _bounds_verdict(m: MapCoefficients, samples) -> Verdict:
    n = m.n
    denominator_pairs = MapEvaluator(m).denominator_pairs
    checked = 0
    for ln, ld, _, _, un, ud, _, _ in samples:
        checked += 1
        (pn, pd), (qn, qd) = denominator_pairs(ln, ld, un, ud)
        sn, sd = geom_sum_pair(ln, ld, un, ud, n)
        if pn * sd < sn * pd:
            return Verdict(FALSIFIED, _witness(
                (ln, ld, ln, ld, un, ud, ln ** n, ld ** n),
                "p-denominator >= secant form", (pn, pd), (sn, sd)), checked)
        nn, nd = n * un ** (n - 1), ud ** (n - 1)
        if qn * nd < nn * qd:
            return Verdict(FALSIFIED, _witness(
                (ln, ld, ln, ld, un, ud, ln ** n, ld ** n),
                "q-denominator >= n*U^(n-1)", (qn, qd), (nn, nd)), checked)
    return Verdict(PASSED_ON_SAMPLES, None, checked)


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
    return _bounds_verdict(m, _sample_pairs(m.n, cfg))


def check_map(m: MapCoefficients, cfg: SampleConfig,
              jobs: int = 1) -> tuple[Verdict | None, Verdict]:
    """(check_denominator_bounds(m, cfg), falsify_contraction(m, cfg, jobs))
    from one draw of the samples; the bounds verdict is None for
    non-canonical maps, which the bounds do not apply to."""
    samples = _sample_pairs(m.n, cfg)
    if not check_canonical(m).is_canonical:
        return None, _contraction_verdict(m, samples, jobs)
    samples = list(samples)
    return _bounds_verdict(m, samples), _contraction_verdict(m, samples, jobs)


def _scan_dominance_chunk(args):
    m, samples = args
    m_pair = MapEvaluator(m).raw_pair
    sn_pair = MapEvaluator(secant_newton(m.n)).raw_pair
    subset = 0
    proper = 0
    equality = []
    violations = []
    for s in samples:
        ln, ld, rn, rd, un, ud, xn, xd = s
        status, a, b, c, d = m_pair(ln, ld, un, ud, xn, xd)
        if status:
            violations.append(_witness(s, "denominator-zero", _ZERO_PAIR, _ZERO_PAIR))
            continue
        _, sa, sb, sc, sd = sn_pair(ln, ld, un, ud, xn, xd)
        if a * sb > sa * b:
            violations.append(_witness(s, "L' <= L*", (a, b), (sa, sb)))
        elif sc * d > c * sd:
            violations.append(_witness(s, "U* <= U'", (sc, sd), (c, d)))
        else:
            subset += 1
            if a == sa and b == sb and c == sc and d == sd:
                equality.append((Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud)))
            else:
                proper += 1
    return subset, proper, equality, violations


def check_dominance(m: MapCoefficients, cfg: SampleConfig, jobs: int = 1) -> DominanceStats:
    """Compare the checked map's output interval against Secant-Newton's on
    every sampled triple: count exact subsets ([L*, U*] inside [L', U']),
    proper subsets, and equality points.  Zero denominators in the checked
    map count as violations.  Results are merged in sample order."""
    parts = _map_chunks(_scan_dominance_chunk, m, _sample_pairs(m.n, cfg), jobs)
    subset = sum(p[0] for p in parts)
    proper = sum(p[1] for p in parts)
    equality = tuple(pt for p in parts for pt in p[2])
    violations = tuple(w for p in parts for w in p[3])
    return DominanceStats(cfg.count, subset, proper, equality, violations)


class TrivariatePoly:
    """Dense trivariate polynomial: coeffs[i][j][k] multiplies L^i U^j x^k.

    Stored trimmed to the minimal bounding degrees of its nonzero terms (the
    zero polynomial is the single zero coefficient), so structural equality
    is semantic equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, terms: dict) -> "TrivariatePoly":
        live = {key: as_rational(c) for key, c in terms.items() if c != 0}
        if not live:
            return cls((((Fraction(0),),),))
        di = max(k[0] for k in live)
        dj = max(k[1] for k in live)
        dk = max(k[2] for k in live)
        dense = tuple(
            tuple(
                tuple(live.get((i, j, k), Fraction(0)) for k in range(dk + 1))
                for j in range(dj + 1)
            )
            for i in range(di + 1)
        )
        return cls(dense)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (((Fraction(0),),),)

    def terms(self) -> dict:
        """Nonzero terms as {(L-exp, U-exp, x-exp): coefficient}."""
        out = {}
        for i, plane in enumerate(self.coeffs):
            for j, row in enumerate(plane):
                for k, c in enumerate(row):
                    if c != 0:
                        out[(i, j, k)] = c
        return out

    def evaluate(self, L, U, x) -> Fraction:
        L = as_rational(L)
        U = as_rational(U)
        x = as_rational(x)
        total = Fraction(0)
        for (i, j, k), c in self.terms().items():
            total += c * pow_int(L, i) * pow_int(U, j) * pow_int(x, k)
        return total

    def __eq__(self, other):
        if not isinstance(other, TrivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        for (i, j, k), c in sorted(self.terms().items(),
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

    returned expanded in a dense coefficient representation over (L, U, x).
    Both are identically zero exactly for Secant-Newton itself; for any
    other canonical map their common zero set has measure zero.
    """
    if not check_canonical(m).is_canonical:
        raise ValueError("equality locus applies to canonical maps only")
    n = m.n
    terms_p: dict = {}
    for i in range(n):
        c = m.p[n + 1 + i] - 1
        if c != 0:
            key_hi = (n - 1 - i, i, 1)         # L^(n-1-i) U^i * x
            key_lo = (2 * n - 1 - i, i, 0)     # L^(n-1-i) U^i * L^n
            terms_p[key_hi] = terms_p.get(key_hi, _ZERO) + c
            terms_p[key_lo] = terms_p.get(key_lo, _ZERO) - c
    terms_q: dict = {}
    for i in range(n):
        c = m.q[n + 1 + i] - (n if i == 0 else 0)
        if c != 0:
            key_hi = (i, n - 1 - i, 1)         # U^(n-1-i) L^i * x
            key_lo = (i, 2 * n - 1 - i, 0)     # U^(n-1-i) L^i * U^n
            terms_q[key_hi] = terms_q.get(key_hi, _ZERO) + c
            terms_q[key_lo] = terms_q.get(key_lo, _ZERO) - c
    return TrivariatePoly.from_terms(terms_p), TrivariatePoly.from_terms(terms_q)


def evaluate_locus(m: MapCoefficients, L, U, x) -> tuple[Fraction, Fraction]:
    """Evaluate both locus polynomials at (L, U, x).

    Provided neither map hits a zero denominator there, the result is (0, 0)
    exactly when the checked map and Secant-Newton return the identical
    interval at ([L, U], x).
    """
    L = as_rational(L)
    U = as_rational(U)
    x = as_rational(x)
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got ({L}, {U})")
    if not pow_int(L, m.n) <= x <= pow_int(U, m.n):
        raise ValueError(f"need L^n <= x <= U^n, got x={x}")
    f_p, f_q = equality_locus(m)
    return f_p.evaluate(L, U, x), f_q.evaluate(L, U, x)


# ---------------------------------------------------------------------------
# Map generators for randomized testing.

def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def perturbed_contracting_map(n: int, seed_or_rng, *, perturb_p: bool = True,
                              perturb_q: bool = True,
                              max_magnitude: int = 6) -> MapCoefficients:
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
                p[n + 1 + i] += _random_positive(rng, max_magnitude)
                bumped = True
        if not bumped:
            p[n + 1 + rng.randrange(n)] += _random_positive(rng, max_magnitude)
    if perturb_q:
        bumped = False
        for i in range(n):
            if rng.random() < 0.6:
                q[n + 1 + i] += _random_positive(rng, max_magnitude)
                bumped = True
        if not bumped:
            q[n + 1 + rng.randrange(n)] += _random_positive(rng, max_magnitude)
    return MapCoefficients(n, tuple(p), tuple(q))


def random_noncanonical_map(n: int, seed_or_rng, *, max_magnitude: int = 6) -> MapCoefficients:
    """Secant-Newton with a nonzero perturbation of one or more head
    coefficients (p0..pn or q0..qn), i.e. a map that cannot be contracting."""
    rng = _as_rng(seed_or_rng)
    base = secant_newton(n)
    p = list(base.p)
    q = list(base.q)
    side = rng.choice(("p", "q", "both"))
    def bump(vec):
        for i in rng.sample(range(n + 1), rng.randint(1, min(2, n + 1))):
            delta = _random_positive(rng, max_magnitude)
            if rng.random() < 0.5:
                delta = -delta
            vec[i] += delta
    if side in ("p", "both"):
        bump(p)
    if side in ("q", "both"):
        bump(q)
    return MapCoefficients(n, tuple(p), tuple(q))


def random_canonical_map(n: int, seed_or_rng, *, positive_denominators: bool = False,
                         max_magnitude: int = 6) -> MapCoefficients:
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
            c = _random_positive(rng, max_magnitude)
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
            out[rng.randrange(n)] = _random_positive(rng, max_magnitude)
        return out

    p = head + tail()
    q = head + tail()
    return MapCoefficients(n, tuple(p), tuple(q))
