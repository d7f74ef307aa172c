"""Exact verification of the refinement-map family's properties.

Statements quantified over all 0 < L <= root <= U are checked on
deterministic sample sets, and every failure comes back as a concrete
rational witness that can be re-checked by hand.  Sample points are built
as (L, r, U) with x = r**n, so the root of x is rational by construction
and every comparison is exact; irrational values never arise.  Each point
is evaluated once, on int pairs that are never reduced.  Every map is read
as Secant-Newton plus its differences (MapEvaluator): at each sample the
scans evaluate the excess forms Dp - S and Dq - N first, a canonical map's
endpoints are computed only where an excess is negative, and a map is
compared with Secant-Newton only on the sides whose head or tail differs
from Secant-Newton's, from Secant-Newton's form there, the excess form and
a head that is not canonical (MapEvaluator.beside).  A failed denominator
bound is reported from the Fraction definitions of its two sides.

Two cases are decided once per map rather than per sample.  A
non-canonical map fails one of at most 2(n+1) fixed head probes
(_head_probes): a proof, drawn without a sample.  A canonical map whose
excess tails over Secant-Newton have no negative coefficient
(MapEvaluator.dominating) has both denominator bounds, and so contraction,
at every 0 < L <= U.  Its check verdicts are passed-on-samples without a
sample being drawn, and compare reads only each sample's (L, r, U) to find
the equality points.
That is a proof for the map, not for the samples alone, though the
verdicts still say passed-on-samples with cfg.count points.  Every other
verdict is sampled, and nothing else here is proved.

The checks:

  * check_map            - both check verdicts below from one pass
  * falsify_contraction  - the four endpoint inequalities
                           L <= L' <= r <= U' <= U, decided at the head
                           probes for a map whose head coefficients are not
                           canonical
  * check_denominator_bounds - the two denominator inequalities of canonical
                           maps: necessary to contract, sufficient where held
  * check_dominance      - Secant-Newton's output is a subset of the checked
                           map's output (and almost always a proper one)
  * equality_locus       - the two polynomials in (L, U, x), as dicts of
                           their terms, whose common zero set is exactly
                           where a canonical map's output coincides with
                           Secant-Newton's; locus_text prints one
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd
from typing import NamedTuple

from .maps import MapCoefficients, denominators, secant_newton
from .numeric import (as_rational, check_int, describe, format_pair, format_rational, geom_sum,
                      pow_int)

PASSED_ON_SAMPLES = "passed-on-samples"
FALSIFIED = "falsified"

# bound on the numerators and denominators of the seeded sample values
MAX_MAGNITUDE = 10 ** 6


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling plan for the universally quantified checks:
    the first count samples of the fixed corner block followed by triples
    drawn from seed.  Both are ints, not bools."""

    seed: int = 0
    count: int = 10_000

    def __post_init__(self):
        check_int("count", self.count)
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {describe(self.count)}")
        check_int("seed", self.seed)
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {describe(self.seed)}")


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
        f = format_rational
        return {
            "L": f(self.L),
            "r": f(self.r),
            "U": f(self.U),
            "x": f(self.x),
            "violated": self.violated,
            "lhs": f(self.lhs),
            "rhs": f(self.rhs),
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

    The results are held as rows of reduced ints with positive
    denominators, so equal rows are equal values: equality_rows has
    (Ln, Ld, rn, rd, Un, Ud) for each equality point, and violation_rows
    has (sample, violated, lhs, rhs) for each violation, with the sample as
    (Ln, Ld, rn, rd, Un, Ud, xn, xd) and each side as a (num, den) pair.
    equality_points and violations are Fraction and Witness views of the
    rows, built on first access.  json_pieces writes the rows' ints
    straight into the text json.dumps(..., indent=2, sort_keys=True) gives,
    in pieces of at most JSON_PIECE_ROWS rows, so a writer holds one piece
    of text at a time, never the whole; to_json_text joins the pieces and
    to_json parses that text.

    Every sample is either a violation or a subset, and a subset is either
    an equality point or a proper subset, so
    subset_count = samples - len(violation_rows) and
    proper_subset_count = subset_count - len(equality_rows).
    """

    samples: int
    equality_rows: tuple[tuple[int, int, int, int, int, int], ...]
    violation_rows: tuple[tuple[tuple[int, ...], str, tuple[int, int], tuple[int, int]], ...]

    @property
    def subset_count(self) -> int:
        return self.samples - len(self.violation_rows)

    @property
    def proper_subset_count(self) -> int:
        return self.subset_count - len(self.equality_rows)

    @cached_property
    def equality_points(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        return tuple((Fraction(ln, ld), Fraction(rn, rd), Fraction(un, ud))
                     for ln, ld, rn, rd, un, ud in self.equality_rows)

    @cached_property
    def violations(self) -> tuple[Witness, ...]:
        return tuple(_witness(*row) for row in self.violation_rows)

    def to_json(self) -> dict:
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """The JSON of the statistics, in json.dumps's indent=2,
        sort_keys=True layout, without a final newline."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of to_json_text in pieces of at most JSON_PIECE_ROWS
        rows, so that a writer never holds the whole text."""
        f = format_pair
        labels = {v: json.encoder.encode_basestring_ascii(v)
                  for v in {row[1] for row in self.violation_rows}}
        yield '{\n  "equality_points": '
        yield from _json_list(
            _EQUALITY_ROW % (f(ln, ld), f(rn, rd), f(un, ud))
            for ln, ld, rn, rd, un, ud in self.equality_rows)
        yield (f',\n  "proper_subset_count": {self.proper_subset_count},\n'
               f'  "samples": {self.samples},\n'
               f'  "subset_count": {self.subset_count},\n'
               '  "violations": ')
        yield from _json_list(
            _VIOLATION_ROW % (f(ln, ld), f(un, ud), f(*lhs), f(rn, rd), f(*rhs),
                              labels[violated], f(xn, xd))
            for (ln, ld, rn, rd, un, ud, xn, xd), violated, lhs, rhs
            in self.violation_rows)
        yield "\n}"


# One row of each list of DominanceStats.json_pieces, keys in sorted order:
# equality points as [L, r, U], violations as Witness.to_json objects.
_EQUALITY_ROW = '    [\n      "%s",\n      "%s",\n      "%s"\n    ]'
_VIOLATION_ROW = ('    {\n      "L": "%s",\n      "U": "%s",\n      "lhs": "%s",\n'
                  '      "r": "%s",\n      "rhs": "%s",\n      "violated": %s,\n'
                  '      "x": "%s"\n    }')
# most rows in one piece of DominanceStats.json_pieces
JSON_PIECE_ROWS = 256


def _json_list(rows):
    """One list of json_pieces from its row texts, JSON_PIECE_ROWS rows
    a piece."""
    rows = iter(rows)
    head = "[\n"
    while batch := list(islice(rows, JSON_PIECE_ROWS)):
        yield head + ",\n".join(batch)
        head = ",\n"
    yield "[]" if head == "[\n" else "\n  ]"


# Fixed corner grid, the first 75 samples of every sample set.  Each pair
# contributes the points r = L, r = U, the degenerate L = U copies, and the
# midpoint; (1, 4) gives the (1, 4, 4) point where the counterexample map
# fails to contract.
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
# module, and check_dominance's results leave as reduced int rows
# (DominanceStats).

# (Ln, Ld, rn, rd, Un, Ud) of every corner point, in sample order
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


def _contraction_witness(s, status, a, b, c, d) -> Witness | None:
    """First failing inequality of L <= L' <= r <= U' <= U at sample s."""
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


def _head_probes(n: int, same_heads: tuple[bool, bool]):
    """For t = 1, ..., n+1: the sample (L, r, U) = (1, 1, t), x = 1, if a p
    head coefficient is not canonical, then (1, t, t), x = t**n, if a q one
    is not.  At the p probe r = L, so contraction forces L' = L, yet the
    lower numerator is (1+p0) + p1*t + ... + pn*t^n; at the q probe r = U
    forces U' = U, yet the upper one is (1+q0)*t^n + q1*t^(n-1) + ... + qn.
    Off-canonical heads make these nonzero polynomials of degree <= n, so
    each is nonzero at one of its n+1 probes, and there a denominator is
    zero or the endpoint moves: one of at most 2(n+1) probes fails."""
    for t in range(1, n + 2):
        if not same_heads[0]:
            yield 1, 1, 1, 1, t, 1, 1, 1
        if not same_heads[1]:
            yield 1, 1, t, 1, t, 1, t ** n, 1


def falsify_contraction(m: MapCoefficients, cfg: SampleConfig) -> Verdict:
    """check_map's verdict on L <= L' <= r <= U' <= U, where a zero
    denominator counts as a violation (the map is not defined on the whole
    domain the condition quantifies over).  samples_checked counts
    evaluated points."""
    return check_map(m, cfg)[1]


def check_denominator_bounds(m: MapCoefficients, cfg: SampleConfig) -> Verdict:
    """check_map's verdict on the two denominator lower bounds every
    canonical contracting map satisfies: the p-denominator dominates the
    secant form L^(n-1) + L^(n-2) U + ... + U^(n-1) and the q-denominator
    the Newton form n*U^(n-1), exactly, on the sampled (L, U) pairs.

    Rejects non-canonical maps: the bounds are statements about the reduced
    form.
    """
    if not m.evaluator.canonical:
        raise ValueError("denominator bounds apply to canonical maps only")
    return check_map(m, cfg)[0]


def check_map(m: MapCoefficients, cfg: SampleConfig) -> tuple[Verdict | None, Verdict]:
    """(bounds verdict, contraction verdict) from one pass, which stops at
    the first contraction witness; the bounds verdict is None for
    non-canonical maps.

    A non-canonical map fails one of its head probes (_head_probes); cfg is
    not read.  A canonical map is scanned on the samples.  Where
    Dp - S >= 0 and Dq - N >= 0 (MapEvaluator.excess),
    (r^n - L^n)/(r - L) <= S <= Dp puts L' in [L, r] and
    (U^n - r^n)/(U - r) <= N <= Dq puts U' in [r, U], so the map's
    endpoints are computed only where an excess is negative, and a
    coefficientwise dominating map (MapEvaluator.dominating) draws no
    sample at all.  The bounds witness is built once, at the first sample
    with a negative excess, on the first such side: r = L, the map's form
    from denominators, and Secant-Newton's from geom_sum, or n*U^(n-1).
    """
    n = m.n
    ev = m.evaluator
    if not ev.canonical:
        for checked, s in enumerate(_head_probes(n, ev.same_heads), 1):
            ln, ld, _, _, un, ud, xn, xd = s
            found = _contraction_witness(s, *ev.evaluate(ln, ld, un, ud, xn, xd))
            if found is not None:
                return None, Verdict(found, checked)
        raise AssertionError("a non-canonical map passed every head probe")
    passed = Verdict(None, cfg.count)
    if ev.dominating:
        return passed, passed
    excess, evaluate = ev.excess, ev.evaluate
    bounds = passed
    for checked, s in enumerate(_sample_pairs(n, cfg), 1):
        ln, ld, _, _, un, ud, xn, xd = s
        gp, gq = excess(ln, ld, un, ud)
        if gp >= 0 and gq >= 0:
            continue
        if not bounds.falsified:
            L, U = Fraction(ln, ld), Fraction(un, ud)
            dp, dq = denominators(m, L, U)
            if gp < 0:
                bound = "p-denominator >= secant form", dp, geom_sum(L, U, n)
            else:
                bound = "q-denominator >= n*U^(n-1)", dq, n * U ** (n - 1)
            bounds = Verdict(Witness(L, L, U, L ** n, *bound), checked)
        found = _contraction_witness(s, *evaluate(ln, ld, un, ud, xn, xd))
        if found is not None:
            return bounds, Verdict(found, checked)
    return bounds, passed


def check_dominance(m: MapCoefficients, cfg: SampleConfig) -> DominanceStats:
    """Compare the checked map's output interval against Secant-Newton's on
    every sampled triple: a sample is a violation unless [L*, U*] lies inside
    [L', U'] exactly, and an equality point if the two intervals coincide.
    Zero denominators in the checked map count as violations.

    A canonical map shares the numerators x - L^n >= 0 >= x - U^n, so where
    neither excess Dp - S, Dq - N is negative (MapEvaluator.excess), Dp and
    Dq are positive and Secant-Newton's interval is inside, equal exactly
    where each side has excess 0 or r at that end.  For a coefficientwise
    dominating map (MapEvaluator.dominating) that holds at every sample,
    and an excess is 0 exactly when its tail is Secant-Newton's, so no form
    is evaluated.  Every other sample, and every sample of a non-canonical
    map, is evaluated beside Secant-Newton (MapEvaluator.beside), from the
    excess forms and the heads that are not canonical, on the sides that
    differ from Secant-Newton's alone: on an equal side the map's endpoint
    is Secant-Newton's, and S, N > 0, so that side can neither violate,
    nor have a zero denominator, nor break equality.  Each violation's two
    sides are reduced once, as recorded.
    """
    n = m.n
    ev = m.evaluator
    if ev.dominating:
        p_equal, q_equal = ev.same_tails
        equality = tuple(
            (ln, ld, rn, rd, un, ud)
            for ln, ld, rn, rd, un, ud, _, _ in _sample_pairs(n, cfg)
            if ((p_equal or (rn == ln and rd == ld))
                and (q_equal or (rn == un and rd == ud))))
        return DominanceStats(cfg.count, equality, ())
    canonical, excess, beside = ev.canonical, ev.excess, ev.beside
    equality = []
    violations = []
    for s in _sample_pairs(n, cfg):
        ln, ld, rn, rd, un, ud, xn, xd = s
        gp, gq = excess(ln, ld, un, ud)
        if canonical and gp >= 0 and gq >= 0:
            if ((gp == 0 or (rn == ln and rd == ld))
                    and (gq == 0 or (rn == un and rd == ud))):
                equality.append((ln, ld, rn, rd, un, ud))
            continue
        lo, hi = beside(gp, gq, ln, ld, un, ud, xn, xd)
        if (lo and lo[0] is None) or (hi and hi[0] is None):
            violations.append((s, "denominator-zero", _ZERO_PAIR, _ZERO_PAIR))
            continue
        if lo:
            (a, b), (sa, sb) = lo
            if a * sb > sa * b:
                violations.append((s, "L' <= L*", _reduced(a, b), _reduced(sa, sb)))
                continue
        if hi:
            (c, d), (sc, sd) = hi
            if sc * d > c * sd:
                violations.append((s, "U* <= U'", _reduced(sc, sd), _reduced(c, d)))
                continue
        if (not lo or a * sb == sa * b) and (not hi or c * sd == sc * d):
            equality.append((ln, ld, rn, rd, un, ud))
    return DominanceStats(cfg.count, tuple(equality), tuple(violations))


def locus_text(terms: dict) -> str:
    """One polynomial of equality_locus as text: its terms by descending
    x, then L, then U exponent, "0" if it has none."""
    if not terms:
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
    for (i, j, k), c in sorted(terms.items(),
                               key=lambda kv: (-kv[0][2], -kv[0][0], -kv[0][1])):
        mono = monomial(i, j, k)
        mag = abs(c)
        body = mono if mag == 1 and mono != "1" else (
            format_rational(mag) if mono == "1" else f"{format_rational(mag)}*{mono}")
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def equality_locus(m: MapCoefficients) -> tuple[dict, dict]:
    """The two polynomials whose simultaneous vanishing marks the points
    where a canonical map's output equals Secant-Newton's:

        f_p = (x - L^n) * (coefficientwise excess of the p-denominator
                           over the secant form)
        f_q = (x - U^n) * (coefficientwise excess of the q-denominator
                           over n*U^(n-1))

    each returned expanded, as the dict {(L-exp, U-exp, x-exp): coefficient}
    of its nonzero terms in exponent order; locus_text prints one.  Both
    are empty exactly for Secant-Newton itself; for any other canonical map
    their common zero set has measure zero.
    """
    _check_locus_map(m)
    n = m.n
    sn = secant_newton(n)
    polys = []
    # each side is (x - a^n) * sum_i c_i a^(n-1-i) b^i, c_i its tail less
    # Secant-Newton's and (a, b) = (L, U) for p, (U, L) for q
    for coeffs, sn_coeffs, a_first in ((m.p, sn.p, True), (m.q, sn.q, False)):
        terms = {}
        for i, c in enumerate(a - b for a, b in zip(coeffs[n + 1:], sn_coeffs[n + 1:])):
            if c:
                for ea, eb, ex, v in ((n - 1 - i, i, 1, c), (2 * n - 1 - i, i, 0, -c)):
                    terms[(ea, eb, ex) if a_first else (eb, ea, ex)] = v
        polys.append(dict(sorted(terms.items())))
    return tuple(polys)


def _check_locus_map(m: MapCoefficients) -> None:
    if not m.evaluator.canonical:
        raise ValueError("the equality locus applies to canonical maps only")


def evaluate_locus(m: MapCoefficients, L, U, x) -> tuple[Fraction, Fraction]:
    """Evaluate both locus polynomials at (L, U, x), as
    ((x - L^n)(Dp - S), (x - U^n)(Dq - N)) from the Fraction definitions
    check_map's bounds witness reads: denominators, geom_sum and n*U^(n-1).

    Provided neither map hits a zero denominator there, the result is (0, 0)
    exactly when the checked map and Secant-Newton return the identical
    interval at ([L, U], x).
    """
    L = as_rational(L)
    U = as_rational(U)
    x = as_rational(x)
    if not 0 < L <= U:
        raise ValueError(f"need 0 < L <= U, got ({format_rational(L)}, {format_rational(U)})")
    low, high = pow_int(L, m.n), pow_int(U, m.n)
    if not low <= x <= high:
        raise ValueError(f"need L^n <= x <= U^n, got x={format_rational(x)}")
    _check_locus_map(m)
    dp, dq = denominators(m, L, U)
    return (x - low) * (dp - geom_sum(L, U, m.n)), (x - high) * (dq - m.n * U ** (m.n - 1))
