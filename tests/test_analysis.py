import json
import random
import sys
import tracemalloc
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from map_generators import (perturbed_contracting_map, random_canonical_map,
                            random_noncanonical_map)
from root_enclose import analysis
from root_enclose._kernels import _pure
from root_enclose.analysis import (
    DominanceStats,
    MAX_MAGNITUDE,
    SampleConfig,
    Triple,
    Verdict,
    Witness,
    check_denominator_bounds,
    check_dominance,
    check_map,
    equality_locus,
    evaluate_locus,
    falsify_contraction,
    locus_text,
    sample_triples,
)
from root_enclose import maps
from root_enclose.maps import (
    DenominatorZeroError,
    MapCoefficients,
    MapEvaluator,
    apply_pair,
    check_canonical,
    counterexample_map,
    denominators,
    secant_newton,
)
from root_enclose.numeric import geom_sum, pow_int

CFG = SampleConfig(seed=42, count=400)


# --- sampling --------------------------------------------------------------

def test_sample_triples_deterministic():
    assert sample_triples(3, CFG) == sample_triples(3, CFG)


def test_sample_triples_count_and_shape():
    triples = sample_triples(2, SampleConfig(seed=1, count=137))
    assert len(triples) == 137
    for t in triples:
        assert 0 < t.L <= t.r <= t.U
        assert t.x == pow_int(t.r, 2)


def test_sample_triples_corners_first():
    triples = sample_triples(5, SampleConfig(seed=9, count=1))
    assert len(triples) == 1
    assert triples[0].r == triples[0].L


def test_sample_triples_random_head_is_pinned():
    # the block of corner pair (1, 4) and the first random triples after the
    # 75 corner probes; a change to the sampler that moves them changes
    # every verdict's samples
    triples = sample_triples(3, SampleConfig(seed=0, count=80))
    # the corner block is the 75 samples the seed does not change
    other = sample_triples(3, SampleConfig(seed=1, count=76))
    assert other[:75] == triples[:75] and other[75] != triples[75]
    assert [tuple(map(str, t[:3])) for t in triples[10:15]] == [
        ("1", "1", "4"), ("1", "4", "4"), ("1", "1", "1"), ("4", "4", "4"),
        ("1", "5/2", "4")]
    assert [tuple(map(str, t)) for t in triples[75:]] == [
        ("794773/933489", "295147/134653", "441002/42451",
         "25710772152141523/2441451498863077"),
        ("271494/536111", "962839/821873", "509533/424605",
         "892608502654595719/555154852168065617"),
        ("67969/103886", "499749/375442", "870164/318047",
         "124811844485686749/52921063620850888"),
        ("295529/146535", "176401/48680", "476113/114527",
         "5489125095409201/115359060032000"),
        ("37525/136277", "648407/838235", "264173/33146",
         "272610816873075143/588975692868627875"),
    ]


def test_corner_grid_contains_diagnostic_points():
    triples = sample_triples(3, SampleConfig(count=75))
    assert Triple(F(1), F(4), F(4), F(64)) in triples
    assert Triple(F(1), F(3, 2), F(2), F(27, 8)) in triples


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(seed=0, count=0)
    with pytest.raises(ValueError):
        SampleConfig(seed=-1, count=10)


# --- contraction falsifier ---------------------------------------------------

def test_secant_newton_passes():
    for n in (2, 3, 7):
        verdict = falsify_contraction(secant_newton(n), CFG)
        assert verdict.outcome == "passed-on-samples"
        assert verdict.samples_checked == CFG.count


def test_counterexample_map_is_falsified_at_corner():
    verdict = falsify_contraction(counterexample_map(), CFG)
    assert verdict.falsified
    w = verdict.witness
    assert (w.L, w.r, w.U, w.x) == (1, 4, 4, 64)
    assert w.violated == "L' <= r"
    assert (w.lhs, w.rhs) == (F(83, 20), F(4))


def test_noncanonical_probe_value():
    # instantiating at x = L^2 leaves the lower numerator at 1, not 0
    m = MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    lo, hi = apply_pair(m, F(1), F(2), F(1))
    assert lo == F(4, 3)
    verdict = falsify_contraction(m, CFG)
    assert verdict.falsified
    assert verdict.witness.r in (verdict.witness.L, verdict.witness.U)


def test_witness_reproduces_inequality():
    # falsifier soundness: recompute the endpoints at the witness point
    for seed in range(8):
        m = random_noncanonical_map(3, seed)
        verdict = falsify_contraction(m, CFG)
        assert verdict.falsified
        w = verdict.witness
        if w.violated == "denominator-zero":
            with pytest.raises(DenominatorZeroError):
                apply_pair(m, w.L, w.U, w.x)
            continue
        lo, hi = apply_pair(m, w.L, w.U, w.x)
        sides = {
            "L <= L'": (w.L, lo),
            "L' <= r": (lo, w.r),
            "r <= U'": (w.r, hi),
            "U' <= U": (hi, w.U),
        }
        lhs, rhs = sides[w.violated]
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert lhs > rhs


def test_noncanonical_maps_caught_at_corners():
    for seed in range(20):
        for n in (2, 3, 5):
            m = random_noncanonical_map(n, seed * 31 + n)
            verdict = falsify_contraction(m, CFG)
            assert verdict.falsified, (n, seed)
            w = verdict.witness
            assert w.r == w.L or w.r == w.U


def test_falsifier_deterministic():
    m = counterexample_map()
    assert falsify_contraction(m, CFG) == falsify_contraction(m, CFG)


# --- denominator bounds ------------------------------------------------------

def test_bounds_secant_newton_attains_equality():
    for n in (2, 3, 5):
        verdict = check_denominator_bounds(secant_newton(n), CFG)
        assert verdict.outcome == "passed-on-samples"


def test_bounds_counterexample_falsified_at_1_4():
    verdict = check_denominator_bounds(counterexample_map(), CFG)
    assert verdict.falsified
    w = verdict.witness
    assert (w.L, w.U) == (1, 4)
    assert w.violated == "p-denominator >= secant form"
    assert (w.lhs, w.rhs) == (F(20), F(21))


def test_bounds_dominating_tail_passes():
    # p-denominator 2L + U dominates L + U coefficientwise
    m = MapCoefficients(2, (F(-1), 0, 0, 2, 1), (F(-1), 0, 0, 2, 0))
    assert not check_denominator_bounds(m, CFG).falsified


def test_bounds_reject_noncanonical():
    m = MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(ValueError):
        check_denominator_bounds(m, CFG)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["canonical", "positive", "perturbed"]), st.integers(2, 5),
       st.integers(0, 2 ** 32), st.integers(0, 2 ** 64 - 1))
def test_bounds_held_at_a_sample_imply_contraction_there(kind, n, map_seed, seed):
    # the fact that lets the checks skip the endpoints where both bounds
    # hold, checked on Fractions at every sample
    m = {"canonical": random_canonical_map,
         "positive": partial(random_canonical_map, positive_denominators=True),
         "perturbed": perturbed_contracting_map}[kind](n, map_seed)
    for t in sample_triples(n, SampleConfig(seed=seed, count=120)):
        dp, dq = denominators(m, t.L, t.U)
        if dp >= geom_sum(t.L, t.U, n) and dq >= n * t.U ** (n - 1):
            assert _reference_witness(m, *t) is None, t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["canonical", "positive", "perturbed", "noncanonical"]),
       st.integers(2, 5), st.integers(0, 2 ** 32),
       st.lists(st.builds(F, st.integers(1, 40), st.integers(1, 12)), min_size=2, max_size=2))
def test_excess_forms_are_the_map_forms_less_secant_newtons(kind, n, map_seed, ends):
    m = {"canonical": random_canonical_map,
         "positive": partial(random_canonical_map, positive_denominators=True),
         "perturbed": perturbed_contracting_map,
         "noncanonical": random_noncanonical_map}[kind](n, map_seed)
    L, U = sorted(ends)
    ev = MapEvaluator(m)
    ends = (L.numerator, L.denominator, U.numerator, U.denominator)
    dens, excess = ev.denominator_pairs(*ends), ev.excess(*ends)
    dp, dq = denominators(m, L, U)
    assert tuple(F(*g) for g in excess) == (dp - geom_sum(L, U, n), dq - n * U ** (n - 1))
    # the checks subtract an excess from a form as pairs over one
    # denominator; a side whose tail is Secant-Newton's gives (0, 1) unevaluated
    sn_tails = (secant_newton(n).p[n + 1:], secant_newton(n).q[n + 1:])
    for form, g, tail, sn_tail, same in zip(dens, excess, (m.p[n + 1:], m.q[n + 1:]),
                                            sn_tails, ev.same_tails):
        assert same == (tail == sn_tail)
        assert (g == (0, 1)) if same else (g[1] == form[1])
    # dominating: canonical, and no coefficient of either tail below
    # Secant-Newton's
    assert ev.dominating == (check_canonical(m).is_canonical and all(
        a >= b for a, b in zip(m.p[n + 1:] + m.q[n + 1:], sn_tails[0] + sn_tails[1])))


def _count_kernel_calls(monkeypatch):
    """Record the name and coefficient-list length of every kernel call,
    at each name the package calls a kernel by."""
    calls = []

    def counting(kernel):
        def wrapped(*args):
            name = kernel.__name__
            calls.append((name, len(args[0]) if name == "form_pair" else None))
            return kernel(*args)
        return wrapped

    for name in ("apply_pairs", "apply_reduced_pairs", "form_pair"):
        monkeypatch.setattr(maps, name, counting(getattr(maps, name)))
    monkeypatch.setattr(_pure, "form_pair", counting(_pure.form_pair))
    return calls


@pytest.mark.parametrize("m", [secant_newton(3), perturbed_contracting_map(4, 3)],
                         ids=["secant-newton-3", "perturbed-4"])
def test_check_map_computes_no_endpoint_where_the_bounds_hold(m, monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    drawn = []
    draw = analysis._draw
    monkeypatch.setattr(analysis, "_draw", lambda *a: drawn.append(a) or draw(*a))
    # both excess tails are coefficientwise >= 0, so check decides the map
    # without drawing a sample or evaluating a form
    assert MapEvaluator(m).dominating
    bounds, contraction = check_map(m, SampleConfig())
    assert bounds == contraction == Verdict(None, SampleConfig().count)
    assert check_map(m, SampleConfig()) == (check_denominator_bounds(m, SampleConfig()),
                                             falsify_contraction(m, SampleConfig()))
    assert drawn == [] and calls == []
    # compare draws the samples and decides each one by integer comparisons
    stats = check_dominance(m, SampleConfig())
    assert stats.violation_rows == ()
    assert len(drawn) == 1 and calls == []


@pytest.mark.parametrize("side", ["p", "q"])
def test_noncanonical_compare_evaluates_only_the_moved_head(side, monkeypatch):
    # Secant-Newton's tails with one head coefficient moved: per sample,
    # compare evaluates Secant-Newton's S and N once and the moved head's
    # form, and never an excess form, the map's tail forms or its whole
    # general form; both endpoints are finished without a map kernel
    n = 3
    sn = secant_newton(n)
    moved = sn.p[:1] + (F(1, 2),) + sn.p[2:] if side == "p" else sn.q[:2] + (F(-1, 3),) + sn.q[3:]
    m = MapCoefficients(n, moved, sn.q) if side == "p" else MapCoefficients(n, sn.p, moved)
    cfg = SampleConfig(seed=3, count=300)
    calls = _count_kernel_calls(monkeypatch)
    check_dominance(m, cfg)
    assert sorted(set(calls)) == [("form_pair", n), ("form_pair", n + 1)]
    assert calls.count(("form_pair", n)) == 2 * cfg.count
    assert calls.count(("form_pair", n + 1)) == cfg.count


def test_certificate_does_not_cover_the_near_secant_p_tail():
    # g_p = (10^6 - 10^-12) - 2000 t + t^2 has a negative coefficient and is
    # negative near t = 1000, where U = 1000 L: at (L, r, U) = (1, 1000, 1000)
    # Secant-Newton's L* is r exactly and this map's L' lies above r
    sn = secant_newton(3)
    m = MapCoefficients(3, sn.p[:4] + (1000001 - F(1, 10 ** 12), F(-1999), F(2)), sn.q)
    assert not MapEvaluator(m).dominating
    lo, _ = apply_pair(m, 1, 1000, 1000 ** 3)
    assert apply_pair(sn, 1, 1000, 1000 ** 3)[0] == 1000
    assert lo > 1000


# --- dominance ---------------------------------------------------------------

def test_dominance_reflexive():
    stats = check_dominance(secant_newton(3), CFG)
    assert stats.subset_count == stats.samples
    assert stats.proper_subset_count == 0
    assert len(stats.equality_points) == stats.samples
    assert stats.violations == ()


def test_dominance_strictly_perturbed_map():
    m = MapCoefficients(3, (F(-1), 0, 0, 0, 2, 1, 1), (F(-1), 0, 0, 0, 4, 0, 0))
    stats = check_dominance(m, CFG)
    assert stats.violations == ()
    assert stats.subset_count == stats.samples
    # both excess forms are strictly positive, so equality needs x = L^n and
    # x = U^n simultaneously, i.e. the degenerate L = r = U samples
    for L, r, U in stats.equality_points:
        assert L == r == U
    assert stats.proper_subset_count == stats.samples - len(stats.equality_points)


def test_dominance_counterexample_has_equality_point_and_violations():
    stats = check_dominance(counterexample_map(), CFG)
    assert (F(1), F(3, 2), F(2)) in stats.equality_points
    # the map is not contracting, so dominance cannot hold everywhere
    assert stats.violations
    w = stats.violations[0]
    assert w.violated in ("L' <= L*", "U* <= U'")


def test_maps_passing_both_checks_dominate_on_same_samples():
    # ties the three checks together: anything that survives the falsifier
    # and the denominator bounds on a sample set dominates on that set
    cfg = SampleConfig(seed=21, count=300)
    rng = random.Random(77)
    candidates = [random_canonical_map(3, rng) for _ in range(10)]
    candidates += [perturbed_contracting_map(3, rng) for _ in range(5)]
    survivors = 0
    for m in candidates:
        if falsify_contraction(m, cfg).falsified:
            continue
        if check_denominator_bounds(m, cfg).falsified:
            continue
        survivors += 1
        assert check_dominance(m, cfg).violations == ()
    assert survivors >= 5  # the certified perturbed maps at least


def test_scans_hold_no_sample_list():
    # each check is one lazy pass: a list of the 20,000 samples would take
    # about 7 MiB
    m = secant_newton(2)
    cfg = SampleConfig(count=20_000)
    for check in (check_map, falsify_contraction, check_denominator_bounds):
        tracemalloc.start()
        try:
            check(m, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (check.__name__, peak)


# --- the int-pair scans against a Fraction reference -------------------------

def _reference_witness(m, L, r, U, x):
    try:
        lo, hi = apply_pair(m, L, U, x)
    except DenominatorZeroError:
        return Witness(L, r, U, x, "denominator-zero", F(0), F(0))
    for violated, lhs, rhs in (("L <= L'", L, lo), ("L' <= r", lo, r),
                               ("r <= U'", r, hi), ("U' <= U", hi, U)):
        if lhs > rhs:
            return Witness(L, r, U, x, violated, lhs, rhs)
    return None


def _reference_contraction(m, cfg):
    """falsify_contraction on Fractions: apply_pair at the head probes
    (1, 1, t) with x = 1 and (1, t, t) with x = t^n, t = 1..n+1, for a
    non-canonical map, and over sample_triples for a canonical one."""
    n = m.n
    sides = {name[0] for name, _, _ in check_canonical(m).violations}
    if sides:
        points = [(F(1), F(1), F(t), F(1)) if side == "p" else (F(1), F(t), F(t), F(t) ** n)
                  for t in range(1, n + 2) for side in "pq" if side in sides]
    else:
        points = sample_triples(n, cfg)
    for checked, point in enumerate(points, 1):
        w = _reference_witness(m, *point)
        if w is not None:
            return Verdict(w, checked)
    assert not sides, "a non-canonical map passed its head probes"
    return Verdict(None, cfg.count)


def _reference_bounds(m, cfg):
    n = m.n
    for checked, t in enumerate(sample_triples(n, cfg), 1):
        dp, dq = denominators(m, t.L, t.U)
        for violated, lhs, rhs in (
                ("p-denominator >= secant form", dp, geom_sum(t.L, t.U, n)),
                ("q-denominator >= n*U^(n-1)", dq, n * t.U ** (n - 1))):
            if lhs < rhs:
                w = Witness(t.L, t.L, t.U, t.L ** n, violated, lhs, rhs)
                return Verdict(w, checked)
    return Verdict(None, cfg.count)


def _reference_dominance(m, cfg):
    """check_dominance on Fractions: (equality_points, violations, subset,
    proper), with the subset and proper-subset counts it tallies itself."""
    sn = secant_newton(m.n)
    subset = proper = 0
    equality, violations = [], []
    for L, r, U, x in sample_triples(m.n, cfg):
        try:
            mlo, mhi = apply_pair(m, L, U, x)
        except DenominatorZeroError:
            violations.append(Witness(L, r, U, x, "denominator-zero", F(0), F(0)))
            continue
        slo, shi = apply_pair(sn, L, U, x)
        if mlo > slo:
            violations.append(Witness(L, r, U, x, "L' <= L*", mlo, slo))
        elif shi > mhi:
            violations.append(Witness(L, r, U, x, "U* <= U'", shi, mhi))
        else:
            subset += 1
            if (mlo, mhi) == (slo, shi):
                equality.append((L, r, U))
            else:
                proper += 1
    return tuple(equality), tuple(violations), subset, proper


def _assert_dominance_matches_reference(m, cfg):
    """check_dominance's views, counts and JSON against the Fraction
    reference, the JSON built with str(Fraction) and Witness.to_json."""
    stats = check_dominance(m, cfg)
    equality, violations, subset, proper = _reference_dominance(m, cfg)
    assert stats.samples == cfg.count
    assert stats.equality_points == equality
    assert stats.violations == violations
    assert (stats.subset_count, stats.proper_subset_count) == (subset, proper)
    assert stats.to_json() == {
        "samples": cfg.count,
        "subset_count": subset,
        "proper_subset_count": proper,
        "equality_points": [[str(L), str(r), str(U)] for L, r, U in equality],
        "violations": [w.to_json() for w in violations],
    }


_REFERENCE_MAPS = {
    "secant-newton": secant_newton(3),
    "perturbed": perturbed_contracting_map(3, 5),
    "counterexample": counterexample_map(),
    "unrepaired-counterexample": counterexample_map(repair_q0=False),
    "noncanonical-2": random_noncanonical_map(2, 0),
    "noncanonical-3": random_noncanonical_map(3, 4),
    "p-head-only": MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0)),
    # lower numerator U*(L - U) at x = L^2: the probes pass where L = U
    "p-head-zero-at-L=U": MapCoefficients(2, (F(-1), 1, -1, 1, 1), (F(-1), 0, 0, 2, 0)),
    "canonical": random_canonical_map(2, 24),
    # coefficientwise dominating on one side, Secant-Newton's tail on the other
    "dominating-p-only": MapCoefficients(3, (F(-1), 0, 0, 0, 2, 1, F(3, 2)),
                                         (F(-1), 0, 0, 0, 3, 0, 0)),
    "dominating-q-only": MapCoefficients(3, (F(-1), 0, 0, 0, 1, 1, 1),
                                         (F(-1), 0, 0, 0, 3, F(1, 2), 0)),
    # p dominating, q-denominator U below the Newton form 2U: not dominating
    "q-excess-negative": MapCoefficients(2, (F(-1), 0, 0, 2, 1), (F(-1), 0, 0, 1, 0)),
    # p excess tail (-1, 2): not dominating, but g_p = -1 + 2t >= 1 at t = U/L >= 1
    "never-negative-p-excess": MapCoefficients(2, (F(-1), 0, 0, 0, 3), (F(-1), 0, 0, 2, 0)),
    # Secant-Newton's tails, one head coefficient moved
    "sn-tails-p-head": MapCoefficients(3, (F(-1), F(1, 2), 0, 0, 1, 1, 1),
                                       (F(-1), 0, 0, 0, 3, 0, 0)),
    "sn-tails-q-head": MapCoefficients(3, (F(-1), 0, 0, 0, 1, 1, 1),
                                       (F(-1), 0, F(-1, 3), 0, 3, 0, 0)),
    # p head and tail moved, q tail moved under a canonical head
    "head-and-tail": MapCoefficients(3, (F(-1), F(1, 2), 0, 0, 2, 1, 1),
                                     (F(-1), 0, 0, 0, 4, 1, 0)),
    # the same on q, where beside evaluates at (U, L): Secant-Newton's p,
    # q head and tail moved
    "q-head-and-tail": MapCoefficients(3, (F(-1), 0, 0, 0, 1, 1, 1),
                                       (F(-1), 0, F(-1, 3), 0, 4, 1, 0)),
    # sign-mixed tails whose denominator forms vanish on sampled points
    "denominator-zero-2": random_canonical_map(2, 27),
    "denominator-zero-3": random_canonical_map(3, 15),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_MAPS))
def test_scans_match_fraction_reference(name):
    m = _REFERENCE_MAPS[name]
    cfg = SampleConfig(seed=13, count=300)
    contraction = falsify_contraction(m, cfg)
    assert contraction == _reference_contraction(m, cfg)
    _assert_dominance_matches_reference(m, cfg)
    if check_canonical(m).is_canonical:
        bounds = check_denominator_bounds(m, cfg)
        assert bounds == _reference_bounds(m, cfg)
    else:
        bounds = None
    assert check_map(m, cfg) == (bounds, contraction)


_GENERATORS = {
    # sign-mixed tails: denominator forms that vanish or turn negative
    "canonical": random_canonical_map,
    "noncanonical": random_noncanonical_map,
    # coefficientwise dominating, so decided once per map
    "perturbed": perturbed_contracting_map,
    "perturbed-p-only": partial(perturbed_contracting_map, perturb_q=False),
    "perturbed-q-only": partial(perturbed_contracting_map, perturb_p=False),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS)), st.integers(2, 5), st.integers(0, 2 ** 32),
       st.integers(0, 2 ** 64 - 1))
def test_scans_match_fraction_reference_on_random_maps(kind, n, map_seed, seed):
    m = _GENERATORS[kind](n, map_seed)
    cfg = SampleConfig(seed=seed, count=120)
    contraction = falsify_contraction(m, cfg)
    assert contraction == _reference_contraction(m, cfg)
    _assert_dominance_matches_reference(m, cfg)
    if check_canonical(m).is_canonical:
        bounds = check_denominator_bounds(m, cfg)
        assert bounds == _reference_bounds(m, cfg)
    else:
        bounds = None
    assert check_map(m, cfg) == (bounds, contraction)


def _vanishing_head_map(n, c, sides):
    """Secant-Newton's tails under moved heads whose numerators at the head
    probes are c*(t - 1)*...*(t - n): zero at the first n probes of each
    moved side, so only t = n+1 exposes them."""
    a = [F(c)]  # c*(t - 1)*...*(t - i), ascending in t
    for i in range(1, n + 1):
        a = [(a[k - 1] if k else 0) - i * (a[k] if k < len(a) else 0)
             for k in range(len(a) + 1)]
    sn = secant_newton(n)
    # p's numerator at (1, 1, t), x = 1, is (1+p0) + p1*t + ... + pn*t^n and
    # q's at (1, t, t), x = t^n, is (1+q0)*t^n + q1*t^(n-1) + ... + qn
    p = (a[0] - 1, *a[1:]) + sn.p[n + 1:] if "p" in sides else sn.p
    q = (a[n] - 1, *a[n - 1::-1]) + sn.q[n + 1:] if "q" in sides else sn.q
    return MapCoefficients(n, p, q)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.sampled_from(["random", "p", "q", "pq"]), st.integers(0, 2 ** 32),
       st.fractions(max_denominator=10 ** 6).filter(bool), st.integers(1, 10 ** 9),
       st.integers(0, 2 ** 64 - 1))
@example(2, "p", 0, F(1), 1, 0)
def test_head_probes_disprove_every_noncanonical_map(n, kind, map_seed, c, count, seed):
    m = (random_noncanonical_map(n, map_seed) if kind == "random"
         else _vanishing_head_map(n, c, kind))
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_draw", lambda *a: drawn.append(a) or iter(()))
        bounds, verdict = check_map(m, SampleConfig(seed=seed, count=count))
    assert drawn == []
    assert bounds is None and verdict.falsified
    assert verdict.samples_checked <= 2 * (n + 1)
    w = verdict.witness
    assert w.r in (w.L, w.U) and w.x == w.r ** n
    # apply_pair re-derives the witness
    assert _reference_witness(m, w.L, w.r, w.U, w.x) == w
    if kind != "random":
        # the first n probes of each side pass, the p probe goes first at t = n+1
        assert w.U == n + 1
        assert verdict.samples_checked == {"p": n + 1, "q": n + 1, "pq": 2 * n + 1}[kind]


@pytest.mark.parametrize("samples", ["1", "5"])
def test_check_disproves_a_head_that_vanishes_where_L_equals_U(samples, tmp_path, capsys):
    # the lower numerator at x = L^2 is U*(L - U): the first head probe,
    # (1, 1, 1), passes and the second fails, whatever the sample count
    from root_enclose import cli

    path = tmp_path / "map.json"
    path.write_text(json.dumps(_REFERENCE_MAPS["p-head-zero-at-L=U"].to_json()))
    assert cli.main(["check", str(path), "--samples", samples, "--json"]) == 1
    verdict = json.loads(capsys.readouterr().out)["contraction"]
    assert verdict == {
        "outcome": "falsified",
        "samples_checked": 2,
        "witness": {"L": "1", "r": "1", "U": "2", "x": "1", "violated": "L <= L'",
                    "lhs": "1", "rhs": "1/3"},
    }


def _reference_stats_json(stats):
    """DominanceStats.to_json as the dict it built before to_json_text."""
    def f(num, den):
        return str(num) if den == 1 else f"{num}/{den}"

    return {
        "samples": stats.samples,
        "subset_count": stats.subset_count,
        "proper_subset_count": stats.proper_subset_count,
        "equality_points": [
            [f(ln, ld), f(rn, rd), f(un, ud)]
            for ln, ld, rn, rd, un, ud in stats.equality_rows
        ],
        "violations": [
            {"L": f(ln, ld), "r": f(rn, rd), "U": f(un, ud), "x": f(xn, xd),
             "violated": violated, "lhs": f(*lhs), "rhs": f(*rhs)}
            for (ln, ld, rn, rd, un, ud, xn, xd), violated, lhs, rhs
            in stats.violation_rows
        ],
    }


# reduced (num, den) pairs, integers (den == 1) and negative numerators included
_PAIRS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(lambda n: (n, 1)),
    st.fractions().map(lambda q: (q.numerator, q.denominator)),
)
_ROW_LISTS = st.tuples(
    st.lists(st.tuples(_PAIRS, _PAIRS, _PAIRS).map(lambda t: sum(t, ())), max_size=6),
    st.lists(st.tuples(st.tuples(_PAIRS, _PAIRS, _PAIRS, _PAIRS).map(lambda t: sum(t, ())),
                       st.sampled_from(("denominator-zero", "L' <= L*", "U* <= U'")),
                       _PAIRS, _PAIRS), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_ROW_LISTS, st.integers(0, 10 ** 6))
@example(([], []), 0)
def test_dominance_json_text_is_the_stdlib_layout(rows, proper):
    equality, violations = rows
    stats = DominanceStats(len(equality) + len(violations) + proper,
                           tuple(equality), tuple(violations))
    reference = _reference_stats_json(stats)
    text = stats.to_json_text()
    assert text == json.dumps(reference, indent=2, sort_keys=True)
    assert json.loads(text) == stats.to_json() == reference


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("write", ["to_json_text", "to_json"])
def test_dominance_json_at_the_default_digit_limit(write):
    # at the first seeded sample, the 76th, x = r^n has a 4377-digit
    # numerator and both sides of the violation 12,361-digit numerators,
    # beyond the default limit of 4300
    sn = secant_newton(800)
    stats = check_dominance(MapCoefficients(800, (-1, 1) + sn.p[2:], sn.q),
                            SampleConfig(count=76))
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        limited = getattr(stats, write)()
        sys.set_int_max_str_digits(0)
        unlimited = getattr(stats, write)()
        assert len(max(stats.to_json_text().split('"'), key=len)) > 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert limited == unlimited


def _reference_draw(n, seed):
    """The seeded part of the sample sequence, drawn with randint and sorted
    as Fractions."""
    rng = random.Random(seed)
    while True:
        L, r, U = sorted(F(rng.randint(1, MAX_MAGNITUDE), rng.randint(1, MAX_MAGNITUDE))
                         for _ in range(3))
        yield Triple(L, r, U, r ** n)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_sampler_draws_what_randint_draws(seed):
    corners = 75  # the corner block, pinned above
    triples = sample_triples(3, SampleConfig(seed=seed, count=corners + 2000))
    reference = _reference_draw(3, seed)
    assert triples[corners:] == [next(reference) for _ in range(2000)]


def test_reference_maps_cover_every_path():
    cfg = SampleConfig(seed=13, count=300)
    kinds = set()
    sides = set()
    for m in _REFERENCE_MAPS.values():
        v = falsify_contraction(m, cfg)
        kinds.add(v.witness.violated if v.falsified else v.outcome)
        for w in check_dominance(m, cfg).violations:
            kinds.add(w.violated)
            for side in (w.lhs, w.rhs):
                sides.add("zero" if side == 0 else "negative" if side < 0
                          else "integer" if side.denominator == 1 else "fraction")
    assert {"passed-on-samples", "denominator-zero", "L <= L'", "L' <= r",
            "r <= U'", "U' <= U", "L' <= L*", "U* <= U'"} <= kinds
    # every form the dominance JSON writes a side in
    assert sides == {"zero", "negative", "integer", "fraction"}


# --- equality locus ----------------------------------------------------------

def test_locus_secant_newton_is_zero():
    f_p, f_q = equality_locus(secant_newton(4))
    assert not f_p
    assert not f_q
    assert locus_text(f_p) == locus_text(f_q) == "0"


def test_locus_counterexample_terms():
    f_p, f_q = equality_locus(counterexample_map())
    # (x - L^3) * (L^2 - (1/2) L U)
    assert f_p == {
        (2, 0, 1): F(1),
        (1, 1, 1): F(-1, 2),
        (5, 0, 0): F(-1),
        (4, 1, 0): F(1, 2),
    }
    assert list(f_p) == sorted(f_p)
    assert not f_q
    assert locus_text(f_p) == "L^2*x - 1/2*L*U*x - L^5 + 1/2*L^4*U"


def test_locus_q_tail_example():
    # q-tail (3, 0): f_q = (x - U^2) * U^2
    m = MapCoefficients(2, (F(-1), 0, 0, 1, 1), (F(-1), 0, 0, 3, 0))
    f_p, f_q = equality_locus(m)
    assert not f_p
    assert f_q == {(0, 1, 1): F(1), (0, 3, 0): F(-1)}


def test_locus_rejects_noncanonical():
    m = MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(ValueError, match="canonical maps only"):
        equality_locus(m)


@pytest.mark.parametrize("name", ["p-head-only", "sn-tails-q-head", "head-and-tail",
                                  "q-head-and-tail"])
def test_evaluate_locus_rejects_noncanonical(name):
    # the excess forms exist for every map, but the locus polynomials mark
    # equal outputs only where both maps share the numerators x - L^n, x - U^n
    m = _REFERENCE_MAPS[name]
    with pytest.raises(ValueError, match="canonical maps only"):
        evaluate_locus(m, 1, 2, 2)


def test_evaluate_locus_counterexample_points():
    m = counterexample_map()
    assert evaluate_locus(m, 1, 2, F(27, 8)) == (0, 0)
    assert evaluate_locus(m, 1, 2, 1) == (0, 0)  # x = L^3 kills the first factor
    vp, vq = evaluate_locus(m, 1, 3, 27)
    assert (vp, vq) == (F(-13), F(0))
    # cross-check the interval endpoints really differ at that point
    lo_m, _ = apply_pair(m, F(1), F(3), F(27))
    lo_sn, _ = apply_pair(secant_newton(3), F(1), F(3), F(27))
    assert lo_m == F(77, 25)
    assert lo_sn == F(3)


def test_evaluate_locus_validates_domain():
    m = counterexample_map()
    with pytest.raises(ValueError):
        evaluate_locus(m, 2, 1, 1)
    with pytest.raises(ValueError):
        evaluate_locus(m, 1, 2, 9)  # x > U^3


def _grid_values(max_num, max_den):
    values = {F(a, b) for a in range(1, max_num + 1) for b in range(1, max_den + 1)}
    return sorted(values)


def test_locus_zero_iff_outputs_coincide_on_grid():
    # exhaustive small grid; the acceptance suite runs the full-size one
    values = _grid_values(3, 2)
    maps = [
        secant_newton(3),
        counterexample_map(),
        random_canonical_map(3, 7),
        random_canonical_map(2, 11),
    ]
    checked = 0
    for m in maps:
        sn = secant_newton(m.n)
        for i, L in enumerate(values):
            for r in values[i:]:
                for U in values[values.index(r):]:
                    x = pow_int(r, m.n)
                    try:
                        ours = apply_pair(m, L, U, x)
                        theirs = apply_pair(sn, L, U, x)
                    except DenominatorZeroError:
                        continue
                    same = ours == theirs
                    assert (evaluate_locus(m, L, U, x) == (0, 0)) == same
                    checked += 1
    assert checked >= 100


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32), st.booleans(),
       st.lists(st.builds(F, st.integers(1, 40), st.integers(1, 12)), min_size=2, max_size=2),
       st.fractions(min_value=0, max_value=1, max_denominator=12))
def test_evaluate_locus_equals_the_sum_over_its_terms(n, seed, positive, ends, t):
    m = random_canonical_map(n, seed, positive_denominators=positive)
    L, U = sorted(ends)
    x = L ** n + t * (U ** n - L ** n)
    expected = tuple(sum(c * L ** i * U ** j * x ** k for (i, j, k), c in f.items())
                     for f in equality_locus(m))
    assert evaluate_locus(m, L, U, x) == expected


# --- generators ---------------------------------------------------------------

def test_perturbed_maps_are_certified_contracting():
    for seed in range(6):
        for n in (2, 3):
            m = perturbed_contracting_map(n, seed)
            sn = secant_newton(n)
            assert all(a >= b for a, b in zip(m.p, sn.p))
            assert all(a >= b for a, b in zip(m.q, sn.q))
            assert m.p[: n + 1] == sn.p[: n + 1]
            assert not falsify_contraction(m, CFG).falsified
            assert not check_denominator_bounds(m, CFG).falsified


def test_noncanonical_generator_changes_head():
    for seed in range(10):
        m = random_noncanonical_map(4, seed)
        from root_enclose.maps import check_canonical
        assert not check_canonical(m).is_canonical


def test_witness_ordering_invariant():
    with pytest.raises(ValueError):
        Witness(F(2), F(1), F(3), F(1), "L <= L'", F(0), F(0))


def test_verdict_json_round_shape():
    verdict = falsify_contraction(counterexample_map(), CFG)
    data = verdict.to_json()
    assert data["outcome"] == "falsified"
    assert data["witness"]["L"] == "1"
    assert data["witness"]["lhs"] == "83/20"
    stats = check_dominance(secant_newton(2), SampleConfig(seed=1, count=30))
    sdata = stats.to_json()
    assert sdata["samples"] == 30
    assert sdata["equality_points"][0] == ["1", "1", "1"]
