import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from root_enclose.analysis import (
    MAX_MAGNITUDE,
    DominanceStats,
    SampleConfig,
    Triple,
    Verdict,
    Witness,
    check_denominator_bounds,
    check_dominance,
    check_map,
    corner_triples,
    equality_locus,
    evaluate_locus,
    falsify_contraction,
    perturbed_contracting_map,
    random_canonical_map,
    random_noncanonical_map,
    sample_triples,
)
from root_enclose.maps import (
    DenominatorZeroError,
    MapCoefficients,
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
    assert len(corner_triples(3)) == 75
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
    triples = corner_triples(3)
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
    """falsify_contraction on Fractions: apply_pair over sample_triples,
    after the corner probes for non-canonical maps."""
    triples = sample_triples(m.n, cfg)
    checked = 0
    sides = {name[0] for name, _, _ in check_canonical(m).violations}
    seen = set()
    for t in triples if sides else ():
        if (t.L, t.U) in seen:
            continue
        seen.add((t.L, t.U))
        probes = [(t.L, t.L, t.U)] if "p" in sides else []
        probes += [(t.L, t.U, t.U)] if "q" in sides else []
        for L, r, U in probes:
            checked += 1
            w = _reference_witness(m, L, r, U, r ** m.n)
            if w is not None:
                return Verdict(w, checked)
    for t in triples:
        checked += 1
        w = _reference_witness(m, *t)
        if w is not None:
            return Verdict(w, checked)
    return Verdict(None, checked)


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
    """check_dominance on Fractions, with the subset and proper-subset counts
    it tallies itself: (stats, subset, proper)."""
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
    stats = DominanceStats(cfg.count, tuple(equality), tuple(violations))
    return stats, subset, proper


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
    stats = check_dominance(m, cfg)
    reference, subset, proper = _reference_dominance(m, cfg)
    assert stats == reference
    assert (stats.subset_count, stats.proper_subset_count) == (subset, proper)
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
    "perturbed": perturbed_contracting_map,
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GENERATORS)), st.integers(2, 5), st.integers(0, 2 ** 32),
       st.integers(0, 2 ** 64 - 1))
def test_scans_match_fraction_reference_on_random_maps(kind, n, map_seed, seed):
    m = _GENERATORS[kind](n, map_seed)
    cfg = SampleConfig(seed=seed, count=120)
    contraction = falsify_contraction(m, cfg)
    assert contraction == _reference_contraction(m, cfg)
    assert check_dominance(m, cfg) == _reference_dominance(m, cfg)[0]
    if check_canonical(m).is_canonical:
        bounds = check_denominator_bounds(m, cfg)
        assert bounds == _reference_bounds(m, cfg)
    else:
        bounds = None
    assert check_map(m, cfg) == (bounds, contraction)


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
    corners = len(corner_triples(3))
    triples = sample_triples(3, SampleConfig(seed=seed, count=corners + 2000))
    reference = _reference_draw(3, seed)
    assert triples[corners:] == [next(reference) for _ in range(2000)]


def test_reference_maps_cover_every_path():
    cfg = SampleConfig(seed=13, count=300)
    kinds = set()
    for m in _REFERENCE_MAPS.values():
        v = falsify_contraction(m, cfg)
        kinds.add(v.witness.violated if v.falsified else v.outcome)
        kinds.update(w.violated for w in check_dominance(m, cfg).violations)
    assert {"passed-on-samples", "denominator-zero", "L <= L'", "L' <= r",
            "r <= U'", "U' <= U", "L' <= L*", "U* <= U'"} <= kinds


# --- equality locus ----------------------------------------------------------

def test_locus_secant_newton_is_zero():
    f_p, f_q = equality_locus(secant_newton(4))
    assert f_p.is_zero
    assert f_q.is_zero


def test_locus_counterexample_terms():
    f_p, f_q = equality_locus(counterexample_map())
    # (x - L^3) * (L^2 - (1/2) L U)
    assert f_p.terms() == {
        (2, 0, 1): F(1),
        (1, 1, 1): F(-1, 2),
        (5, 0, 0): F(-1),
        (4, 1, 0): F(1, 2),
    }
    assert f_q.is_zero
    assert str(f_p) == "L^2*x - 1/2*L*U*x - L^5 + 1/2*L^4*U"


def test_locus_q_tail_example():
    # q-tail (3, 0): f_q = (x - U^2) * U^2
    m = MapCoefficients(2, (F(-1), 0, 0, 1, 1), (F(-1), 0, 0, 3, 0))
    f_p, f_q = equality_locus(m)
    assert f_p.is_zero
    assert f_q.terms() == {(0, 1, 1): F(1), (0, 3, 0): F(-1)}


def test_locus_rejects_noncanonical():
    m = MapCoefficients(2, (F(0), 0, 0, 1, 1), (F(-1), 0, 0, 2, 0))
    with pytest.raises(ValueError):
        equality_locus(m)


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
    expected = tuple(sum(c * L ** i * U ** j * x ** k for (i, j, k), c in f.terms().items())
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
