"""Product bases counted through the factor the rule reads.

cocycle.read_factor drops the factors of a product base that the rule
ignores; every fast path then counts on the read factor and multiplies
by the dropped factors' word counts.  Each count here is compared with
the raw product words: a loop over Product.words, or the same count
over cocycle.enumeration_plan.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroscope import cocycle
from entroscope.handlers import self_check_distribution
from entroscope.cocycle import (Cocycle, counting_plan, enumeration_plan,
                                ergodic_sums, plan_histograms, profile_counts,
                                read_factor, visited_sets)
from entroscope.entropy import birkhoff_sup
from entroscope.exactnum import GOLDEN_MEAN_ALPHA
from entroscope.fiber import SymbolicFiber, ToralAutoFiber
from entroscope.sequence import cover_size
from entroscope.skew import SkewSystem, capacity_A, skew_sep_direct
from entroscope.symbolic import SFT, FullShift, Product, Sturmian, rho
from entroscope.util import CapExceeded, ConfigError, OracleMismatch

SIGNS = FullShift((-1, 1))
BITS = FullShift((0, 1))
WALK = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
SIGN_PAIRS = Cocycle({((a, b),): a for a in (-1, 1) for b in (0, 1)})

# raw product words stay below this many per length
RAW_WORDS = 2 ** 12


def sft(forbidden):
    return SFT((-1, 1), forbidden)


def shapes():
    """(product, {coordinate name: projection of a product letter})."""
    forbidden = st.lists(st.lists(st.sampled_from((-1, 1)), min_size=2,
                                  max_size=3), max_size=2)
    left_right = {"left": lambda x: x[0], "right": lambda x: x[1]}
    return st.one_of(
        st.just((Product(SIGNS, BITS), left_right)),
        forbidden.map(lambda f: (Product(sft(f), BITS), left_right)),
        st.sampled_from((WALK, Sturmian(GOLDEN_MEAN_ALPHA))).map(
            lambda w: (Product(BITS, w), left_right)),
        st.just((Product(Product(SIGNS, BITS), SIGNS),
                 {"a": lambda x: x[0][0], "b": lambda x: x[0][1],
                  "c": lambda x: x[1]})))


@st.composite
def systems(draw):
    """(product, rule reading one coordinate, that coordinate's name)."""
    spec, coords = draw(shapes())
    name = draw(st.sampled_from(sorted(coords)))
    radius = draw(st.integers(0, 1))
    width = 2 * radius + 1
    windows = spec.words(width, word_cap=None)
    read = coords[name]
    values = {}
    for w in windows:
        key = tuple(read(x) for x in w)
        if key not in values:
            values[key] = draw(st.integers(-1, 2))
    rule = {w: values[tuple(read(x) for x in w)] for w in windows}
    return spec, Cocycle(rule, radius), name


def longest(spec, extra, top=4):
    """The n up to top whose raw product words at n + extra stay small."""
    return [n for n in range(1, top + 1)
            if spec.count(n + extra) <= RAW_WORDS]


@settings(deadline=None, max_examples=60)
@given(systems(), st.integers(0, 2))
def test_histograms_and_profiles_match_raw_product_words(system, pad):
    spec, tau, _ = system
    s = tau.radius
    ns = longest(spec, 2 * s + 2 * pad)
    plan = counting_plan(spec, tau)
    got = plan_histograms(plan, ns, pad)
    for n in ns:
        want = Counter(
            len(set(ergodic_sums(tau, w[pad:pad + n + 2 * s])[:-1]))
            for w in spec.words(n + 2 * s + 2 * pad, word_cap=None))
        assert got[n] == dict(want), n
    for n in longest(spec, 2 * s):
        want = Counter()
        for w in spec.words(n + 2 * s, word_cap=None):
            visited = sorted(set(ergodic_sums(tau, w)[:-1]))
            want[(len(visited), cover_size(visited, tau.bound))] += 1
        assert profile_counts(plan, n) == dict(want), n


@settings(deadline=None, max_examples=40)
@given(systems(), st.sampled_from((Fraction(1, 2), Fraction(1, 4))),
       st.booleans())
def test_skew_counts_match_forced_enumeration(system, eps, exact):
    spec, tau, _ = system
    if exact:
        fiber = SymbolicFiber(FullShift(2))
    else:
        # greedy brackets only: a capacity, but no exact separated count
        fiber = ToralAutoFiber(((2, 1), (1, 1)), grid=2)
    sys = SkewSystem(counting_plan(spec, tau), fiber)
    oracle = SkewSystem(enumeration_plan(spec, tau), fiber)
    # the separated counts read L_{n + 2 rho}
    for n in longest(spec, 2 * rho(eps), top=3):
        assert capacity_A(sys, n, eps) == capacity_A(oracle, n, eps)
        if exact:
            assert (skew_sep_direct(sys, n, eps)
                    == skew_sep_direct(oracle, n, eps))


@settings(deadline=None, max_examples=40)
@given(systems())
def test_birkhoff_sup_matches_raw_product_words(system):
    spec, tau, _ = system
    for n in longest(spec, 2 * tau.radius, top=6):
        best = max(abs(ergodic_sums(tau, w)[-1])
                   for w in spec.words(n + 2 * tau.radius, word_cap=None))
        assert birkhoff_sup(counting_plan(spec, tau), n) == Fraction(best, n)


@settings(deadline=None, max_examples=40)
@given(systems())
def test_the_read_coordinate_is_kept(system):
    spec, tau, name = system
    base, rule, dropped = read_factor(spec, tau)
    # a rule reading neither coordinate drops the right one first
    constant = len(set(tau.rule.values())) == 1
    if isinstance(spec.left, Product):
        inner = spec.left
        if constant or name == "a":
            want = inner.left, (spec.right, inner.right)
        elif name == "b":
            want = inner.right, (spec.right, inner.left)
        else:
            want = spec.right, (inner,)
    elif constant or name == "left":
        want = spec.left, (spec.right,)
    else:
        want = spec.right, (spec.left,)
    # read_factor builds the factor and rule afresh, so compare definitions
    assert repr((base, dropped)) == repr(want)
    assert rule.radius == tau.radius
    assert set(rule.rule) == set(base.words(2 * tau.radius + 1,
                                            word_cap=None))


def test_rules_reading_both_coordinates_stay_unreduced():
    spec = Product(SIGNS, BITS)
    both = Cocycle({((a, b),): a * (1 + b) for a in (-1, 1)
                    for b in (0, 1)})
    assert read_factor(spec, both) == (spec, both, ())
    # radius 1: the left letter of one coordinate, the right of the other
    wide = Cocycle({w: w[0][0] + w[2][1]
                    for w in spec.words(3, word_cap=None)}, radius=1)
    assert read_factor(spec, wide) == (spec, wide, ())
    want = Counter(len(set(ergodic_sums(wide, w)[:-1]))
                   for w in spec.words(5, word_cap=None))
    assert plan_histograms(counting_plan(spec, wide), [3])[3] == dict(want)


def test_an_empty_factor_keeps_the_product():
    # every letter forbidden: the product has no words, and no factor
    # windows to rewrite a rule on
    spec = Product(sft([(-1,), (1,)]), BITS)
    assert read_factor(spec, SIGN_PAIRS) == (spec, SIGN_PAIRS, ())
    assert plan_histograms(counting_plan(spec, SIGN_PAIRS), [3], 1) == {3: {}}


@pytest.mark.parametrize("rule", [
    {((a, 0),): a for a in (-1, 1)},
    # as many keys as product windows, two of them off the language: the
    # rows of the letter 1 hold no value at all
    {((a, b),): -1 if a < 0 else 1 for a in (-1, 5) for b in (0, 1)},
])
def test_partial_rules_raise_the_unreduced_error(rule):
    spec = Product(SIGNS, BITS)
    partial = Cocycle(rule)
    assert read_factor(spec, partial) == (spec, partial, ())
    with pytest.raises(ConfigError) as raw:
        visited_sets(spec, partial, 3)
    plan = counting_plan(spec, partial)
    for count in (lambda: plan_histograms(plan, [3]),
                  lambda: profile_counts(plan, 3),
                  lambda: birkhoff_sup(plan, 3)):
        with pytest.raises(ConfigError) as got:
            count()
        assert str(got.value) == str(raw.value)
    # and a skew system refuses it up front, as before
    with pytest.raises(ConfigError):
        SkewSystem(counting_plan(spec, partial), SymbolicFiber(FullShift(2)))


def test_word_cap_bounds_the_read_factor_and_forcing_the_product():
    spec = Product(WALK, SIGNS)
    tau = Cocycle({((a, b),): a for a in (-1, 1) for b in (-1, 1)})

    def capped(word_cap, plan=counting_plan):
        return SkewSystem(plan(spec, tau, word_cap),
                          SymbolicFiber(FullShift(2)))

    # L_3 of the rotation coding has 6 words, of the product 48
    assert spec.count(3) == 48
    fast = capacity_A(capped(20), 3, Fraction(1, 4))
    assert fast == capacity_A(capped(48, enumeration_plan), 3,
                              Fraction(1, 4))
    with pytest.raises(CapExceeded):
        capacity_A(capped(20, enumeration_plan), 3, Fraction(1, 4))
    with pytest.raises(CapExceeded):
        skew_sep_direct(capped(20, enumeration_plan), 3, Fraction(1, 4))
    with pytest.raises(CapExceeded):
        capacity_A(capped(4), 3, Fraction(1, 4))


def _pass_off_by_one(real):
    def crooked(base, vals, ns, pad):
        out = real(base, vals, ns, pad)
        for hist in out.values():
            hist[1] = hist.get(1, 0) + 1
        return out
    return crooked


def test_self_check_runs_the_dp_of_a_product_over_an_sft(monkeypatch):
    golden = sft([(1, 1)])
    spec = Product(golden, BITS)
    assert self_check_distribution(counting_plan(spec, SIGN_PAIRS)) == [
        "distribution@n=6,31"]
    # a fault in the strip pass shows against the raw product words
    monkeypatch.setattr(cocycle, "_walk_pass",
                        _pass_off_by_one(cocycle._walk_pass))
    with pytest.raises(OracleMismatch, match="brute"):
        self_check_distribution(counting_plan(spec, SIGN_PAIRS))


def test_letters_outside_the_factor_language_need_no_step():
    # -1 can be followed by nothing, so it occurs in no word: the rule
    # rewritten on the factor's language has no step for it
    stuck = sft([(-1, -1), (-1, 1)])
    spec = Product(stuck, BITS)
    tau = Cocycle({((1, b),): 1 for b in (0, 1)})
    base, rule, _ = read_factor(spec, tau)
    assert base is stuck and rule.rule == {(1,): 1}
    plan = counting_plan(spec, tau)
    for pad in (0, 1):
        want = Counter(len(set(ergodic_sums(tau, w[pad:pad + 5])[:-1]))
                       for w in spec.words(5 + 2 * pad, word_cap=None))
        assert plan_histograms(plan, [5], pad)[5] == dict(want)
    assert self_check_distribution(plan) == ["distribution@n=6,31"]
