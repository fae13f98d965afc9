"""Integer cocycles: sums, visited sets, interval covers, range DP."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroscope import cocycle
from entroscope.cocycle import (Cocycle, cocycle_from_json, cocycle_to_json,
                                counting_plan, enumeration_plan, ergodic_sums,
                                plan_histograms, profile_counts,
                                range_distribution, unbounded_evidence,
                                walk_range_distribution)
from entroscope.entropy import birkhoff_sup
from entroscope.sequence import c_m, cover_size
from entroscope.symbolic import SFT, FullShift, Product, Sturmian
from entroscope.exactnum import GOLDEN_MEAN_ALPHA
from entroscope.util import CapExceeded, ConfigError, SturmianHorizonError

SIGN = Cocycle({(-1,): -1, (1,): 1})
SIGNS = FullShift((-1, 1))
GOLDEN = SFT((-1, 1), [(1, 1)])


def test_cocycle_validation():
    with pytest.raises(ValueError):
        Cocycle({})
    with pytest.raises(ValueError):
        Cocycle({(1, 1): 0})  # wrong key width for radius 0
    with pytest.raises(ValueError):
        Cocycle({(0,): 1}, radius=-1)
    assert SIGN.bound == 1
    assert Cocycle({(0,): 0}).bound == 1  # floor keeps the zero cocycle usable
    assert Cocycle({(0,): -5, (1,): 2}).bound == 5
    # integral numbers read as integers; others are refused, not truncated
    assert Cocycle({(0,): -1.0}, radius=0.0).rule == {(0,): -1}
    for rule, radius in (({(0,): -1.5}, 0), ({(0,): True}, 0),
                         ({(0,): 1}, 0.5)):
        with pytest.raises(ValueError):
            Cocycle(rule, radius)


def test_cocycle_value_and_step_values():
    assert SIGN.value((1,)) == 1
    with pytest.raises(ConfigError):
        SIGN.value((0,))
    assert SIGN.step_values() == {-1: -1, 1: 1}
    wide = Cocycle({(a, b, c): b for a in (0, 1) for b in (0, 1)
                    for c in (0, 1)}, radius=1)
    assert wide.step_values() is None


def test_ergodic_sums_radius_zero():
    assert ergodic_sums(SIGN, (1, 1, -1, 1)) == (0, 1, 2, 1, 2)
    assert ergodic_sums(SIGN, (-1,)) == (0, -1)


def test_ergodic_sums_radius_one_uses_centered_windows():
    # tau(y) = y(-1) + y(1), so tau^j is determined by letters j-1 .. j+1
    tau = Cocycle({(a, b, c): a + c for a in (0, 1) for b in (0, 1)
                   for c in (0, 1)}, radius=1)
    w = (1, 0, 1, 1, 0)  # positions -1 .. 3, window n = 3
    assert ergodic_sums(tau, w) == (0, 2, 2 + 1, 3 + 1)
    with pytest.raises(ValueError):
        ergodic_sums(tau, (1, 0))


def test_ergodic_sums_name_an_undefined_window():
    tau = Cocycle({(0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 0): 2}, radius=1)
    assert ergodic_sums(tau, (0, 0, 0, 1, 0)) == (0, 1, 0, 2)
    with pytest.raises(ConfigError, match=r"window \(0, 1, 1\)"):
        ergodic_sums(tau, (0, 0, 1, 1, 0))


def test_c_m_examples():
    assert c_m({0, 1, 2}, 1) == Fraction(1)
    assert c_m({0, 1, 2}, 2) == Fraction(4, 3)
    assert c_m({0, 2, 4}, 1) == Fraction(1)
    assert c_m({0, 2, 4}, 2) == Fraction(2)
    assert c_m({7}, 3) == Fraction(3)
    with pytest.raises(ValueError):
        c_m(set(), 1)
    with pytest.raises(ValueError):
        c_m({0}, 0)


@given(st.sets(st.integers(-30, 30), min_size=1, max_size=10),
       st.integers(1, 6), st.integers(-40, 40))
def test_c_m_translation_invariant_and_brute(F, m, t):
    ratio = c_m(F, m)
    assert c_m({x + t for x in F}, m) == ratio
    cover = {x + j for x in F for j in range(m)}
    assert ratio == Fraction(len(cover), len(F))


@given(st.integers(-25, 25), st.integers(1, 40),
       st.integers(-6, 6).filter(lambda s: s != 0), st.integers(1, 7))
def test_c_m_range_closed_form(start, count, step, m):
    r = range(start, start + count * step, step)
    assert c_m(r, m) == c_m(list(r), m)


def profile(tau, w):
    """(r, q) of one word: its visited set's size and cover size."""
    visited = set(ergodic_sums(tau, w)[:-1])
    return len(visited), cover_size(sorted(visited), tau.bound)


def test_cocycle_profile_known_word():
    sums = ergodic_sums(SIGN, (1, 1, -1, 1))[:-1]
    assert sums == (0, 1, 2, 1)
    assert c_m(sorted(set(sums)), SIGN.bound) == 1
    assert profile(SIGN, (1, 1, -1, 1)) == (3, 3)
    wide = Cocycle({(0,): -1, (1,): 2})
    # V = {0, 2, 3, 4} and the bound 2: V + {0, 1} = {0, ..., 5}
    assert profile(wide, (1, 1, 0, 1)) == (4, 6)


def brute_distribution(spec, tau, n):
    return dict(Counter(profile(tau, w)[0]
                        for w in spec.words(n + 2 * tau.radius)))


def test_range_dp_matches_enumeration_full_shift():
    for n in range(1, 15):
        dp = walk_range_distribution(SIGNS, n - 1, {-1: -1, 1: 1})
        assert dp == brute_distribution(SIGNS, SIGN, n), n


def test_range_dp_matches_enumeration_golden_mean():
    for n in range(1, 15):
        dp = walk_range_distribution(GOLDEN, n - 1, {-1: -1, 1: 1})
        assert dp == brute_distribution(GOLDEN, SIGN, n), n


def test_range_dp_matches_enumeration_with_zero_steps():
    lazy = Cocycle({(-1,): -1, (1,): 0})
    vals = lazy.step_values()
    for n in range(1, 13):
        dp = walk_range_distribution(SIGNS, n - 1, vals)
        assert dp == brute_distribution(SIGNS, lazy, n), n


@pytest.mark.parametrize("labels, steps", [((-1, 1), (-1, 1)),
                                           ((0, 1, 2), (1, -1, 0))])
def test_full_shift_is_the_sft_with_nothing_forbidden(labels, steps):
    full, sft = FullShift(labels), SFT(labels, ())
    vals = dict(zip(labels, steps))
    tau = Cocycle({(a,): v for a, v in vals.items()})
    assert isinstance(full, SFT)
    assert full.graph() == sft.graph()
    ns = range(1, 13)
    plans = counting_plan(full, tau), counting_plan(sft, tau)
    for pad in (0, 1, 2):
        # each side's plan runs its own pass
        assert plan_histograms(plans[0], ns, pad) == \
            plan_histograms(plans[1], ns, pad), pad
    for n in ns:
        assert full.count(n) == sft.count(n) == len(labels) ** n
        assert walk_range_distribution(full, n - 1, vals) == \
            walk_range_distribution(sft, n - 1, vals), n
        assert birkhoff_sup(plans[0], n) == birkhoff_sup(plans[1], n) == 1


def test_range_dp_requires_total_small_steps():
    with pytest.raises(ConfigError):
        walk_range_distribution(SIGNS, 3, {1: 1})  # -1 uncovered
    with pytest.raises(ValueError):
        walk_range_distribution(SIGNS, 3, {-1: -2, 1: 2})  # step too big


def test_range_distribution_dispatches_to_enumeration():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    dist = range_distribution(counting_plan(walk, SIGN), 8)
    assert dist == brute_distribution(walk, SIGN, 8)
    assert sum(dist.values()) == 16  # complexity 2n


def test_profile_counts_dp_and_enumeration_agree():
    for spec in (SIGNS, GOLDEN):
        fast = profile_counts(counting_plan(spec, SIGN), 9)
        slow = Counter(profile(SIGN, w) for w in spec.words(9))
        assert fast == dict(slow)
        # steps in {-1, 0, 1} make visited sets intervals: q = r + bound - 1
        assert all(q == r for r, q in fast)  # bound 1
    # steps of size 2 and a radius-1 rule profile the visited sets instead
    wide = Cocycle({(a, b, c): a + c - 1 for a in (0, 1) for b in (0, 1)
                    for c in (0, 1)}, radius=1)
    for spec, tau in ((SFT((0, 1), [(1, 1)]), Cocycle({(0,): -1, (1,): 2})),
                      (FullShift(2), wide)):
        slow = Counter(profile(tau, w)
                       for w in spec.words(9 + 2 * tau.radius))
        assert profile_counts(counting_plan(spec, tau), 9) == dict(slow)


def test_cocycle_stats_enumerates_each_length_once(monkeypatch, tmp_path,
                                                  capsys):
    # a radius-1 rule is outside the range engine: the profile table and
    # the distribution table read the same enumeration of L_{n+2}
    import json
    from entroscope.cli import main
    wide = Cocycle({(a, b, c): a + c - 1 for a in (0, 1) for b in (0, 1)
                    for c in (0, 1)}, radius=1)
    asked = Counter()
    real = FullShift.words

    def counting(self, length, word_cap=None):
        asked[length] += 1
        return real(self, length, word_cap=word_cap)

    monkeypatch.setattr(FullShift, "words", counting)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "cocycle-stats",
        "system": {"base": {"variant": "full", "alphabet": [0, 1]},
                   "tau": cocycle_to_json(wide)}}))
    assert main(["run", "--config", str(cfg), "--n-range", "2:7"]) == 0
    capsys.readouterr()
    assert asked == {n + 2: 1 for n in range(2, 8)}


def test_unbounded_profile_values():
    # length 4 sign words with range >= 3 are those leaving a 2-point set
    plan = counting_plan(SIGNS, SIGN)
    assert unbounded_evidence(plan, 3, [4])["curve"] == [(4, Fraction(3, 4))]
    assert unbounded_evidence(plan, 1, [4])["curve"] == [(4, 1)]
    ev = unbounded_evidence(plan, 3, [4, 8, 12])
    assert ev["curve"][0] == (4, Fraction(3, 4))
    assert ev["curve"][1] == (8, Fraction(63, 64))
    assert ev["nondecreasing_from_start"]
    assert ev["n_max"] == 12


def test_cocycle_json_round_trip():
    doc = cocycle_to_json(SIGN)
    assert doc == {"radius": 0, "rule": {"-1": -1, "1": 1}}
    back = cocycle_from_json(doc)
    assert back.rule == SIGN.rule and back.radius == 0
    wide = Cocycle({(a, b, c): a - c for a in (0, 1) for b in (0, 1)
                    for c in (0, 1)}, radius=1)
    again = cocycle_from_json(cocycle_to_json(wide))
    assert again.rule == wide.rule and again.radius == 1


def test_cocycle_json_round_trips_pair_labels():
    import json
    # a rule over a product base reads pairs of labels, nested as deep as
    # the product is
    pairs = [(a, b) for a in (-1, 1) for b in (0, 1)]
    nested = [(p, c) for p in pairs for c in (0, 1)]
    rules = [Cocycle({(p,): p[0] for p in pairs}),
             Cocycle({(x,): x[0][0] * (1 + x[1]) for x in nested}),
             Cocycle({(p, q, r): p[0] - r[1] for p in pairs for q in pairs
                      for r in pairs}, radius=1)]
    assert cocycle_to_json(rules[0])["rule"] == {
        "[[-1,0]]": -1, "[[-1,1]]": -1, "[[1,0]]": 1, "[[1,1]]": 1}
    for tau in rules:
        back = cocycle_from_json(json.loads(json.dumps(cocycle_to_json(tau))))
        assert back.rule == tau.rule and back.radius == tau.radius


@settings(deadline=None)
@given(st.integers(2, 10))
def test_dp_total_mass_is_language_size(n):
    dp = walk_range_distribution(GOLDEN, n - 1, {-1: -1, 1: 1})
    assert sum(dp.values()) == GOLDEN.count(n)


# -- the range-histogram engine against the extent DP --------------------------

STEP = st.sampled_from((-1, 0, 1))


# forbidden words of length 2 to 5: a forbidden letter leaves a one-letter
# walk, and most draws with one would test nothing
@settings(deadline=None, max_examples=25)
@given(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=5),
                max_size=3),
       STEP, STEP, st.sets(st.integers(1, 24), max_size=3),
       st.integers(31, 36))
def test_engine_matches_dict_dp_on_random_sfts(forbidden, down, up, ns,
                                               n_big):
    base = SFT((-1, 1), forbidden)
    tau = Cocycle({(-1,): down, (1,): up})
    # counts up to 2^n_big: past 31 bits, in strip fields past 32 bits
    assert cocycle._field_bits(2, n_big, 0) > 32
    got = plan_histograms(counting_plan(base, tau), ns | {n_big})
    for n in ns | {n_big}:
        assert got[n] == walk_range_distribution(base, n - 1,
                                                 tau.step_values()), n


# three letters with steps -1, 0 and 1: the 0-step move, and fields sized
# for 3^n; n = 20 is the first n with 3^n >= 2^31
@settings(deadline=None, max_examples=15)
@given(st.lists(st.lists(st.sampled_from((0, 1, 2)), min_size=2, max_size=3),
                max_size=3),
       st.permutations((-1, 0, 1)), st.sets(st.integers(1, 12), max_size=3),
       st.integers(20, 22))
def test_engine_matches_dict_dp_on_three_letters(forbidden, steps, ns, n_big):
    base = SFT((0, 1, 2), forbidden)
    vals = dict(zip((0, 1, 2), steps))
    tau = Cocycle({(a,): v for a, v in vals.items()})
    assert 3 ** n_big >= 2 ** 31
    assert cocycle._field_bits(3, n_big, 0) > 32
    got = plan_histograms(counting_plan(base, tau), ns | {n_big})
    for n in ns | {n_big}:
        assert got[n] == walk_range_distribution(base, n - 1, vals), n


def test_engine_counts_past_64_bits_exactly():
    # at n = 64 single counts of the sign walk exceed 2^31, the total is
    # 2^64, and a strip field holds more than 64 bits
    assert cocycle._field_bits(2, 64, 0) > 64
    hists = plan_histograms(counting_plan(SIGNS, SIGN), [64, 200])
    got = hists[64]
    want = walk_range_distribution(SIGNS, 63, {-1: -1, 1: 1})
    assert got == want and max(want.values()) > 2 ** 31
    # the full shift's images are checked against its strips
    assert cocycle._walk_pass(SIGNS, SIGN.step_values(), [64], 0)[64] == want
    assert sum(got.values()) == 2 ** 64
    # every step moves, so no range is below 2
    assert sum(hists[200].values()) == 2 ** 200
    assert min(hists[200]) == 2 and max(hists[200]) == 200


# n = 70: the oracle's fields, sized for |A|^70, span two machine words, and
# the first two languages hold over 2^63 and 2^89 words
@pytest.mark.parametrize("base, steps", [
    (SFT((-1, 1), [(-1, -1, 1, -1, -1), (1, 1, -1, 1, 1)]), (-1, 1)),
    (SFT((0, 1, 2), [(0, 0), (1, 1)]), (-1, 1, 0)),
    # reducible: the words 0^a 1^b
    (SFT((0, 1), [(1, 0)]), (-1, 1)),
    (FullShift(3), (1, 1, -1)),
])
def test_range_dp_matches_strips_past_64_bits(base, steps):
    n = 70
    vals = dict(zip(base.labels, steps))
    tau = Cocycle({(a,): v for a, v in vals.items()})
    assert counting_plan(base, tau).histograms == "strips"
    want = plan_histograms(counting_plan(base, tau), [n])[n]
    assert walk_range_distribution(base, n - 1, vals) == want
    assert sum(want.values()) == base.count(n)


def test_range_dp_peak_memory():
    # the benchmark's 16-node SFT at n = 31, the self-check's n on two
    # letters; a dict entry per (node, a, b) peaked at 0.71 MB
    base = SFT((-1, 1), [(-1, -1, 1, -1, -1), (1, 1, -1, 1, 1)])
    assert len(base.graph()[0]) == 16
    tracemalloc.start()
    try:
        walk_range_distribution(base, 30, {-1: -1, 1: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000, peak


def test_engine_serves_repeat_requests_from_its_memo(monkeypatch):
    passes = []
    real = cocycle._images_pass

    def counting(base, vals, ns, pad):
        passes.append(sorted(ns))
        return real(base, vals, ns, pad)

    # the engine that counts the sign walk on the full shift
    plan = counting_plan(SIGNS, SIGN)
    assert plan.histograms == "images"
    monkeypatch.setattr(cocycle, "_images_pass", counting)
    first = plan_histograms(plan, [40, 10, 20])
    assert passes == [[10, 20, 40]]
    # a second request on the same plan reads its memo
    again = plan_histograms(plan, [20, 40])
    assert again == {20: first[20], 40: first[40]}
    assert range_distribution(plan, 10) == first[10]
    assert profile_counts(plan, 40) == {(r, r): c
                                        for r, c in first[40].items()}
    assert passes == [[10, 20, 40]]
    # callers get copies, never the memo itself
    again[20].clear()
    assert plan_histograms(plan, [20])[20] == first[20]
    plan_histograms(plan, [10, 50])
    assert passes == [[10, 20, 40], [50]]
    # the memo is the plan's: an equal plan built afresh runs its own pass
    plan_histograms(counting_plan(SIGNS, SIGN), [10])
    assert passes == [[10, 20, 40], [50], [10]]


# -- the padded engine: middle windows of L_{n+2 pad} ---------------------------

def sliced_histogram(base, tau, n, pad):
    out = Counter()
    for w in base.words(n + 2 * pad, word_cap=None):
        out[len(set(ergodic_sums(tau, w[pad:pad + n])[:-1]))] += 1
    return dict(out)


# pad 0-3 against a graph memory K of 1-4: both pad < K, where the start
# nodes hold steps, and pad >= K, where left paths lead into them
@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=5),
                max_size=3),
       STEP, STEP, st.sets(st.integers(1, 8), min_size=1, max_size=4),
       st.integers(0, 3))
def test_padded_engine_matches_sliced_enumeration(forbidden, down, up, ns,
                                                  pad):
    base = SFT((-1, 1), forbidden)
    tau = Cocycle({(-1,): down, (1,): up})
    got = plan_histograms(counting_plan(base, tau), ns, pad=pad)
    for n in ns:
        assert got[n] == sliced_histogram(base, tau, n, pad), n


def test_padded_engine_counts_in_wide_fields():
    # free pad letters on the full shift multiply every count by 2^(2 pad).
    # At n = 29 the counts of L_n fit 31 bits but the padded ones do not,
    # and at pad = 16 a node's right weight is 2^17
    for n, pad in ((29, 3), (5, 16)):
        assert 2 ** n < 2 ** 31 < 2 ** (n + 2 * pad)
        assert cocycle._field_bits(2, n, pad) > 32
        got = plan_histograms(counting_plan(SIGNS, SIGN), [n], pad=pad)[n]
        want = walk_range_distribution(SIGNS, n - 1, {-1: -1, 1: 1})
        assert got == {r: c * 4 ** pad for r, c in want.items()}
        assert cocycle._walk_pass(SIGNS, SIGN.step_values(), [n],
                                  pad)[n] == got
        assert max(got.values()) > 2 ** 31
    # once a letter is 1 it stays 1: a small language, in fields sized for
    # 2^34 words all the same, with pad above the graph's memory of one
    # letter
    stair = SFT((-1, 1), [(1, -1)])
    assert stair.count(30 + 2 * 2) < 2 ** 6
    assert cocycle._field_bits(2, 30, 2) > 34
    for pad in (0, 1, 2):
        assert (plan_histograms(counting_plan(stair, SIGN), [30], pad=pad)[30]
                == sliced_histogram(stair, SIGN, 30, pad))


def test_padded_engine_slices_enumerated_bases():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    for base in (walk, Product(walk, SIGNS)):
        tau = Cocycle({(a,): a for a in (-1, 1)} if base is walk else
                      {((a, b),): a for a in (-1, 1) for b in (-1, 1)})
        for pad in (0, 2):
            got = plan_histograms(counting_plan(base, tau), [3, 5], pad=pad)
            for n in (3, 5):
                want = Counter()
                for w in base.words(n + 2 * pad):
                    mid = w[pad:pad + n]
                    want[len(set(ergodic_sums(tau, mid)[:-1]))] += 1
                assert got[n] == dict(want)
    # one plan asked for each pad in turn: the fast path and the oracle
    # plan read their classes through the same memo, kept per pad
    plans = (counting_plan(SIGNS, SIGN), counting_plan(GOLDEN, SIGN),
             enumeration_plan(GOLDEN, SIGN))
    assert [p.histograms for p in plans] == ["images", "strips",
                                             "enumeration"]
    for plan in plans:
        for pad in (0, 1, 2):
            got = plan_histograms(plan, [4, 7], pad)
            for n in (4, 7):
                assert got[n] == sliced_histogram(plan.spec, SIGN, n, pad), \
                    (plan.histograms, pad, n)


# -- Sturmian codings: one pass over the kept walk's prefixes -------------------

GOLDEN_FRAC = GOLDEN_MEAN_ALPHA.frac()
# the intercepts 1/2, 1/3 and 7/11, the default 1 - alpha, and 2 alpha mod 1
INTERCEPTS = [Fraction(1, 2), Fraction(1, 3), Fraction(7, 11), None,
              (2 * GOLDEN_FRAC).frac()]
# the sign walk and the lazy walk that only climbs
WALK_STEPS = [{(-1,): -1, (1,): 1}, {(-1,): 0, (1,): 1}]


def _prefix_and_enumerated(alpha, intercept, rule, ns, pad):
    """plan_histograms of a fresh Sturmian's plan and of its oracle over
    another fresh instance, so the two read walks of their own."""
    tau = Cocycle(rule)
    plan = counting_plan(Sturmian(alpha, intercept), tau)
    assert plan.histograms == "prefixes"
    oracle = enumeration_plan(Sturmian(alpha, intercept), tau)
    return (plan_histograms(plan, ns, pad),
            plan_histograms(oracle, ns, pad))


@pytest.mark.parametrize("rule", WALK_STEPS)
@pytest.mark.parametrize("intercept", INTERCEPTS)
def test_prefixes_match_enumeration(intercept, rule):
    for pad in range(4):
        got, want = _prefix_and_enumerated(GOLDEN_MEAN_ALPHA, intercept,
                                           rule, range(1, 61), pad)
        assert got == want, pad


@pytest.mark.parametrize("rule", WALK_STEPS)
@pytest.mark.parametrize("intercept", INTERCEPTS)
def test_prefixes_match_enumeration_on_a_ladder(intercept, rule):
    for pad in (0, 3):
        got, want = _prefix_and_enumerated(GOLDEN_MEAN_ALPHA, intercept,
                                           rule, [50, 100, 200, 400], pad)
        assert got == want, pad


def test_prefixes_stop_at_the_rational_horizon():
    # 89/233: windows of n + 2 pad letters up to 232 are counted, and the
    # first window that reaches the period raises as the enumeration does
    alpha = Fraction(89, 233)
    for pad in range(4):
        ns = list(range(1, 41)) + [100, 150, 200, 232 - 2 * pad]
        got, want = _prefix_and_enumerated(alpha, None, WALK_STEPS[0], ns,
                                           pad)
        assert got == want, pad
        errors = []
        for make in (counting_plan, enumeration_plan):
            with pytest.raises(SturmianHorizonError) as info:
                plan_histograms(make(Sturmian(alpha), SIGN), [3, 233], pad)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_prefixes_serve_a_product_through_its_read_factor():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    tau = Cocycle({((a, b),): a for a in (-1, 1) for b in (-1, 1)})
    plan = counting_plan(Product(walk, SIGNS), tau)
    assert plan.histograms == "prefixes" and plan.factor is walk
    oracle = enumeration_plan(Product(Sturmian(GOLDEN_MEAN_ALPHA,
                                               Fraction(1, 2)), SIGNS), tau)
    for pad in range(3):
        ns = list(range(1, 9 - 2 * pad))
        assert plan_histograms(plan, ns, pad) == \
            plan_histograms(oracle, ns, pad), pad


def test_prefixes_leave_a_binding_cap_to_the_enumeration(monkeypatch):
    # a cap below 2 (n + 2 pad) could bind, so those n are enumerated as
    # before, and raise the enumeration's own error where it does: the
    # default intercept has n + 1 cuts at length n
    walk = Sturmian(GOLDEN_MEAN_ALPHA)
    assert set(walk.range_histograms(SIGN.step_values(), range(1, 22), 1,
                                     word_cap=20)) == set(range(1, 9))
    enumerated = []
    real = cocycle.visited_sets

    def counted(spec, tau, n, word_cap=None, pad=0):
        enumerated.append(n)
        return real(spec, tau, n, word_cap=word_cap, pad=pad)

    monkeypatch.setattr(cocycle, "visited_sets", counted)
    ns = range(1, 18)
    assert plan_histograms(counting_plan(walk, SIGN, 20), ns, 1) == \
        plan_histograms(enumeration_plan(Sturmian(GOLDEN_MEAN_ALPHA), SIGN),
                        ns, 1)
    assert enumerated[:9] == list(range(9, 18))
    errors = []
    for make in (counting_plan, enumeration_plan):
        with pytest.raises(CapExceeded) as info:
            plan_histograms(make(walk, SIGN, 20), range(1, 22), 1)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "word count 21 exceeds cap 20"


def test_a_rule_missing_a_letter_stays_enumerated():
    # the enumeration names the undefined window, as before
    plan = counting_plan(Sturmian(GOLDEN_MEAN_ALPHA), Cocycle({(1,): 1}))
    assert plan.histograms == "enumeration"
    with pytest.raises(ConfigError, match="undefined on window"):
        plan_histograms(plan, [3])


# -- the closed form on full shifts: the method of images ----------------------

# step alphabets with as many -1 letters as +1 letters: the sign walk, a
# lazy walk, two letters per sign, and the all-zero rule
IMAGE_STEPS = [(-1, 1), (-1, 0, 1), (1, -1, 0, -1, 1), (0, 0)]


@pytest.mark.parametrize("steps", IMAGE_STEPS)
def test_images_match_strips_dict_dp_and_brute_force(steps):
    labels = tuple(range(len(steps)))
    base = FullShift(labels)
    vals = dict(zip(labels, steps))
    tau = Cocycle({(a,): v for a, v in vals.items()})
    assert counting_plan(base, tau).histograms == "images"
    ns = list(range(1, 13)) + [40]
    for pad in range(4):
        got = cocycle._images_pass(base, vals, ns, pad)
        assert got == cocycle._walk_pass(base, vals, ns, pad), pad
        assert plan_histograms(counting_plan(base, tau), ns, pad) == got, pad
        free = len(labels) ** (2 * pad)  # the pad letters
        for n in ns:
            want = walk_range_distribution(base, n - 1, vals)
            assert got[n] == {r: c * free for r, c in want.items()}, (pad, n)
            if len(labels) ** (n + 2 * pad) <= 5000:
                assert got[n] == sliced_histogram(base, tau, n, pad), (pad, n)


def test_images_match_strips_at_long_windows():
    vals = SIGN.step_values()
    ns = [2, 3, 5, 8, 13, 30, 100, 150]
    for pad in (0, 2, 3):
        assert cocycle._images_pass(SIGNS, vals, ns, pad) == \
            cocycle._walk_pass(SIGNS, vals, ns, pad), pad


def test_strips_at_the_largest_counts():
    # every step 0 on three letters: every (word, start) pair stays inside
    # the strip, so the right-weighted sum of the fields is as large as
    # _field_bits allows for
    base = FullShift(3)
    vals = {a: 0 for a in base.labels}
    ns = list(range(1, 41))
    for pad in range(4):
        assert cocycle._walk_pass(base, vals, ns, pad) == {
            n: {1: 3 ** (n + 2 * pad)} for n in ns}, pad


@pytest.mark.parametrize("base, steps", [
    # asymmetric steps on a full shift: +1, +1, -1
    (FullShift(3), (1, 1, -1)),
    (FullShift(2), (1, 0)),
    # symmetric steps on an SFT with a forbidden word
    (GOLDEN, (-1, 1)),
])
def test_images_need_a_symmetric_walk_on_a_full_shift(base, steps):
    vals = dict(zip(base.labels, steps))
    tau = Cocycle({(a,): v for a, v in vals.items()})
    assert counting_plan(base, tau).histograms == "strips"
    got = plan_histograms(counting_plan(base, tau), [5, 30], pad=1)
    assert got[5] == sliced_histogram(base, tau, 5, 1)
    if base.forbidden:
        return
    want = walk_range_distribution(base, 29, vals)
    assert got[30] == {r: c * len(base.labels) ** 2 for r, c in want.items()}
    with pytest.raises(ValueError):
        cocycle._images_pass(base, vals, [5], 0)
