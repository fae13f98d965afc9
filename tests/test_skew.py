"""Skew products: orbits, Bowen metric, separated counts, the sandwich.

The three separated-count evaluations form a verification tower: the
pairwise greedy (in skew_oracles.py) is assumption-free but tiny-case
only, the grouping greedy is brute force over explicit representatives,
and the direct count is the production path, over range histograms or
over the visited sets of enumerated words.  They must agree wherever
they overlap.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroscope.handlers import self_check_skew
from entroscope.cocycle import Cocycle, counting_plan, enumeration_plan
from entroscope.exactnum import GOLDEN_MEAN_ALPHA
from entroscope.fiber import IdentityFiber, RotationFiber, SymbolicFiber
from entroscope.presets import get_preset
from entroscope.skew import (SkewSystem, capacity_A, request_histograms,
                             sandwich_check, skew_sep_direct, skew_sep_greedy)
from entroscope.symbolic import SFT, FullShift, Sturmian, WindowPoint, rho
from entroscope.util import CapExceeded, ConfigError, OracleMismatch
from skew_oracles import skew_bowen_distance, skew_orbit, skew_sep_pairwise

SIGN = Cocycle({(-1,): -1, (1,): 1})
SIGNS = FullShift((-1, 1))
GOLDEN = SFT((-1, 1), [(1, 1)])

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def full_sys(**word_cap):
    return SkewSystem(counting_plan(SIGNS, SIGN, **word_cap),
                      SymbolicFiber(FullShift(2)))


def golden_sys():
    return SkewSystem(counting_plan(GOLDEN, SIGN), SymbolicFiber(FullShift(2)))


def enumerated(sys):
    """The same system over the oracle plan of its base and rule."""
    return SkewSystem(enumeration_plan(sys.plan.spec, sys.plan.tau),
                      sys.fiber)


# -- construction and orbits ------------------------------------------------

def test_system_validation():
    with pytest.raises(TypeError):
        counting_plan(SIGNS, {(-1,): -1})
    with pytest.raises(ConfigError):
        # rule keyed on the wrong alphabet is not total over the base
        SkewSystem(counting_plan(SIGNS, Cocycle({(0,): 1, (1,): 1})),
                   SymbolicFiber(FullShift(2)))


def test_skew_orbit_shape():
    sys = full_sys()
    y = WindowPoint(-2, (1, 1, -1, 1, -1, 1, 1))
    x = WindowPoint(-4, (0,) * 9)
    orbit = skew_orbit(sys, y, x, 4)
    assert len(orbit) == 4
    assert orbit[0] == (y, x)
    assert orbit[1][0].start == y.start - 1
    with pytest.raises(ValueError):
        skew_orbit(sys, y, x, 0)


# -- skew Bowen metric ------------------------------------------------------

def test_bowen_modes_agree_on_shared_base():
    sys = full_sys()
    y = WindowPoint(-3, (1, -1, 1, 1, -1, 1, -1, 1, 1))
    x1 = WindowPoint(-5, (0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1))
    x2 = WindowPoint(-5, (0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1))
    raw = skew_bowen_distance(sys, (y, x1), (y, x2), 3, mode="raw")
    dec = skew_bowen_distance(sys, (y, x1), (y, x2), 3, mode="decomposition")
    assert raw == dec
    assert raw > 0


def test_bowen_decomposition_needs_base_agreement():
    sys = full_sys()
    wy = [1, -1] * 8
    wz = list(wy)
    wz[9] = 1  # position 1 sits inside the exponent window [0, 2]
    y = WindowPoint(-8, tuple(wy))
    z = WindowPoint(-8, tuple(wz))
    fx = [0] * 19
    fx[9] = 1  # marker at position 0 so shifted-pair scans terminate
    x = WindowPoint(-9, tuple(fx))
    with pytest.raises(ValueError):
        skew_bowen_distance(sys, (y, x), (z, x), 3, mode="decomposition")
    with pytest.raises(ValueError):
        skew_bowen_distance(sys, (y, x), (z, x), 3, mode="typo")
    # at time 1 the base disagreement sits at radius 0: distance 2
    assert skew_bowen_distance(sys, (y, x), (z, x), 3) == 2


# -- verification tower -----------------------------------------------------

def test_tower_agrees_tiny():
    sys = full_sys()
    assert skew_sep_pairwise(sys, 1, HALF) == 64
    assert skew_sep_greedy(sys, 1, HALF) == 64
    assert skew_sep_direct(sys, 1, HALF) == 64
    assert skew_sep_pairwise(sys, 2, 1) == 16
    assert skew_sep_greedy(sys, 2, 1) == 16
    assert skew_sep_direct(sys, 2, 1) == 16


def test_greedy_matches_direct_small():
    sys = full_sys()
    assert skew_sep_greedy(sys, 2, HALF) == skew_sep_direct(sys, 2, HALF) == 256
    assert skew_sep_greedy(sys, 3, HALF) == skew_sep_direct(sys, 3, HALF) == 768
    assert (skew_sep_greedy(sys, 3, QUARTER)
            == skew_sep_direct(sys, 3, QUARTER) == 12288)
    gsys = golden_sys()
    assert (skew_sep_greedy(gsys, 3, QUARTER)
            == skew_sep_direct(gsys, 3, QUARTER) == 3136)
    assert skew_sep_greedy(gsys, 4, HALF) == skew_sep_direct(gsys, 4, HALF) == 736


def test_direct_count_preconditions():
    sys = full_sys()
    assert skew_sep_direct(sys, 3, 2) == 1
    with pytest.raises(ValueError):
        skew_sep_direct(sys, 0, HALF)
    wide = Cocycle({(a, b, c): b for a in (-1, 1) for b in (-1, 1)
                    for c in (-1, 1)}, radius=1)
    rsys = SkewSystem(counting_plan(SIGNS, wide), SymbolicFiber(FullShift(2)))
    with pytest.raises(ConfigError):
        skew_sep_direct(rsys, 2, 1)  # rho(1) = 0 < radius
    assert skew_sep_direct(rsys, 2, HALF) > 0  # rho(1/2) = 1 is enough


def test_greedy_needs_symbolic_fiber_and_honors_cap():
    rsys = SkewSystem(counting_plan(SIGNS, SIGN),
                      RotationFiber(GOLDEN_MEAN_ALPHA))
    with pytest.raises(ConfigError):
        skew_sep_greedy(rsys, 2, HALF)
    with pytest.raises(ConfigError):
        skew_sep_pairwise(rsys, 2, HALF)
    sys = full_sys()
    with pytest.raises(CapExceeded):
        skew_sep_greedy(sys, 3, HALF, pair_cap=100)
    with pytest.raises(CapExceeded):
        skew_sep_pairwise(sys, 2, HALF, pair_cap=100)


def test_direct_on_rotation_fiber_is_exact():
    rsys = SkewSystem(counting_plan(SIGNS, SIGN),
                      RotationFiber(GOLDEN_MEAN_ALPHA))
    # isometric fiber: each base window contributes the same circle count
    got = skew_sep_direct(rsys, 3, Fraction(1, 5))
    words = 2 ** 9  # rho(1/5) = 3, so windows live on [-3, 5]
    assert got == words * 4


STEP = st.sampled_from((-1, 0, 1))


# eps from 1 down to 1/8 reads pads rho = 0..3 off graphs of memory 1-4
@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=5),
                max_size=3),
       STEP, STEP, st.integers(1, 6), st.integers(0, 3), st.booleans())
def test_direct_by_range_matches_enumeration(forbidden, down, up, n, k,
                                             same_fiber):
    base = SFT((-1, 1), forbidden)
    fiber = SymbolicFiber(base if same_fiber else FullShift(2))
    sys = SkewSystem(counting_plan(base, Cocycle({(-1,): down, (1,): up})),
                     fiber)
    eps = Fraction(1, 2 ** k)
    assert (skew_sep_direct(sys, n, eps)
            == skew_sep_direct(enumerated(sys), n, eps))


def test_direct_by_range_on_sturmian_and_identity_fibers():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    for sys in (SkewSystem(counting_plan(walk, SIGN),
                           SymbolicFiber(FullShift(2))),
                SkewSystem(counting_plan(SIGNS, SIGN),
                           IdentityFiber([0, 1, 3]))):
        for n in (1, 4, 7):
            for eps in (HALF, QUARTER):
                assert (skew_sep_direct(sys, n, eps)
                        == skew_sep_direct(enumerated(sys), n, eps))


# -- counts outside the range engine ----------------------------------------

# a radius-1 rule on the full 2-shift and a step of 2 on the golden mean:
# neither groups visited sets by range, so both read cocycle.visited_sets
RADIUS_ONE = Cocycle({(a, b, c): a + c - 1 for a in (0, 1) for b in (0, 1)
                      for c in (0, 1)}, radius=1)
STEP_TWO = Cocycle({(0,): -1, (1,): 2})


def visited_set_systems():
    fiber = SymbolicFiber(FullShift(2))
    return [(SkewSystem(counting_plan(FullShift(2), RADIUS_ONE), fiber),
             {HALF: (1, 2, 3), QUARTER: (1, 2)}),
            (SkewSystem(counting_plan(SFT((0, 1), [(1, 1)]), STEP_TWO), fiber),
             {HALF: (1, 2, 3, 4), QUARTER: (1, 2, 3)})]


def test_visited_set_counts_match_greedy_and_enumeration():
    for sys, ns in visited_set_systems():
        # one system for every n and eps, so later counts read the memo
        # that earlier ones filled
        for eps, n_list in ns.items():
            for n in n_list:
                assert skew_sep_direct(sys, n, eps) == skew_sep_greedy(
                    sys, n, eps)
                assert capacity_A(sys, n, eps) == capacity_A(
                    enumerated(sys), n, eps)
        filled = {e: dict(m) for e, m in sys._fiber_counts.items()}
        skew_sep_direct(sys, 2, HALF)
        assert sys._fiber_counts == filled


def test_requests_fill_the_pads_direct_counts_read():
    # one pad rule: a request at eps fills pad rho(eps) - s, the pad
    # skew_sep_direct reads, so the counts after it add no pad and no n
    sys = visited_set_systems()[0][0]
    plan, e, ns = sys.plan, Fraction(1, 8), [2, 3]
    assert plan.histograms == "enumeration" and plan.tau.radius == 1
    request_histograms(sys, ns, (e, 2 * e))
    pads = {0, rho(e) - 1, rho(2 * e) - 1}
    assert pads == {0, 1, 2}
    assert {pad: set(m) for pad, m in plan.memo.items()} == \
        {pad: set(ns) for pad in pads}
    for n in ns:
        skew_sep_direct(sys, n, e)
        skew_sep_direct(sys, n, 2 * e)
        capacity_A(sys, n, e)
    assert {pad: set(m) for pad, m in plan.memo.items()} == \
        {pad: set(ns) for pad in pads}


def test_self_check_reads_no_memoized_fiber_count():
    # off the range engine the greedy count is checked as well
    checks = [(sys, ["capacity@n=3", "sep@n=3", "greedy@n=3"])
              for sys, _ns in visited_set_systems()]
    for sys, notes in checks + [(full_sys(), ["capacity@n=3", "sep@n=3"])]:
        assert self_check_skew(sys, QUARTER) == notes
        memo = next(iter(sys._fiber_counts.values()))
        key = next(iter(memo))
        count, exact = memo[key]
        memo[key] = (count + 1, exact)
        with pytest.raises(OracleMismatch):
            self_check_skew(sys, QUARTER)


# -- capacity ---------------------------------------------------------------

def test_capacity_anchor_and_bracket_order():
    sys = full_sys()
    cb = capacity_A(sys, 3, QUARTER)
    assert (cb.lower, cb.upper) == (192, 768)
    assert cb.n == 3 and cb.epsilon == QUARTER
    for n in range(1, 8):
        b = capacity_A(sys, n, HALF)
        assert b.lower <= b.upper


def test_capacity_dp_matches_enumeration():
    sys = full_sys()
    gsys = golden_sys()
    for n in (1, 2, 5, 8, 12):
        fast = capacity_A(sys, n, QUARTER)
        slow = capacity_A(enumerated(sys), n, QUARTER)
        assert (fast.lower, fast.upper) == (slow.lower, slow.upper)
    for n in (2, 4, 9):
        fast = capacity_A(gsys, n, HALF)
        slow = capacity_A(enumerated(gsys), n, HALF)
        assert (fast.lower, fast.upper) == (slow.lower, slow.upper)


def test_capacity_sturmian_base():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    sys = SkewSystem(counting_plan(walk, Cocycle({(-1,): -1, (1,): 1})),
                     SymbolicFiber(FullShift(2)))
    cb = capacity_A(sys, 10, QUARTER)
    assert (cb.lower, cb.upper) == (832, 3328)
    slow = capacity_A(enumerated(sys), 10, QUARTER)
    assert (slow.lower, slow.upper) == (832, 3328)


def test_one_plan_serves_two_fibers(monkeypatch):
    # two fibers over one base and rule read one plan's classes: one
    # engine pass serves both systems, and each keeps its own fiber counts
    from entroscope import cocycle
    passes = []
    real = cocycle._images_pass

    def counting(base, vals, ns, pad):
        passes.append((sorted(ns), pad))
        return real(base, vals, ns, pad)

    monkeypatch.setattr(cocycle, "_images_pass", counting)
    p = get_preset("tt-inverse")
    plan = counting_plan(p["base"], p["tau"])
    assert plan.histograms == "images"
    fibers = SymbolicFiber(FullShift(2)), SymbolicFiber(FullShift(3))
    systems = [SkewSystem(plan, f) for f in fibers]
    ns = [4, 9, 16]
    for sys in systems:
        request_histograms(sys, ns, ())
    assert passes == [(ns, 0)]
    got = [[capacity_A(sys, n, QUARTER) for n in ns] for sys in systems]
    assert passes == [(ns, 0)]
    for f, caps in zip(fibers, got):
        alone = SkewSystem(counting_plan(p["base"], p["tau"]), f)
        assert caps == [capacity_A(alone, n, QUARTER) for n in ns]
    assert all(two.upper < three.upper for two, three in zip(*got))


def test_sturmian_fiber_counts_keep_one_word_list():
    # every class size reads its complexity off the words of the longest
    # window walked; one kept list per length took 45.7 MB at n = 200
    sys = SkewSystem(counting_plan(SIGNS, SIGN),
                     SymbolicFiber(Sturmian(GOLDEN_MEAN_ALPHA, HALF)))
    tracemalloc.start()
    try:
        cb = capacity_A(sys, 400, QUARTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < cb.lower <= cb.upper
    assert peak < 32 * 2 ** 20, peak


def test_product_oracle_shares_its_label_pairs():
    # the self-check's enumeration of a product base builds no pair per
    # letter; a fresh pair for each letter of each word peaked at 0.90 MB
    preset = get_preset("sturmian-product")
    sys = SkewSystem(enumeration_plan(preset["base"], preset["tau"]),
                     preset["fiber"])
    tracemalloc.start()
    try:
        capacity_A(sys, 3, QUARTER)
        skew_sep_direct(sys, 3, QUARTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_capacity_validation():
    sys = full_sys()
    with pytest.raises(ValueError):
        capacity_A(sys, 0, HALF)
    with pytest.raises(ValueError):
        capacity_A(sys, 3, 0)


# -- sandwich ---------------------------------------------------------------

def test_sandwich_full_shift_passes_with_constant_E():
    res = sandwich_check(full_sys(), range(2, 7), QUARTER)
    assert res["pass"] and res["left_certified_all"] and res["e_nonincreasing"]
    assert [row.e_inferred for row in res["rows"]] == [16] * 5
    for row in res["rows"]:
        assert row.a2_lower <= row.a2_upper
        assert row.skew_lo <= row.skew_hi
        assert row.a2_upper <= row.skew_lo  # the certified left inequality


def test_sandwich_full_shift_constant_E_past_enumeration():
    # L_{n+4} at n = 64 is far beyond any word cap; the pass needs none
    res = sandwich_check(full_sys(word_cap=4), [20, 64], QUARTER)
    assert [row.e_inferred for row in res["rows"]] == [16, 16]
    assert res["pass"]


def test_sandwich_golden_base_passes():
    res = sandwich_check(golden_sys(), range(2, 7), QUARTER)
    assert res["pass"]
    assert [row.e_inferred for row in res["rows"]] == [7] * 5


def test_sandwich_epsilon_precondition():
    sys = full_sys()
    with pytest.raises(ConfigError):
        sandwich_check(sys, range(2, 4), HALF)  # needs eps < 2^-(s+1) = 1/2
    with pytest.raises(ConfigError):
        sandwich_check(sys, range(2, 4), 0)
