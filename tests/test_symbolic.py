"""Language enumeration, rotation codings, and the windowed metric."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entroscope.exactnum import GOLDEN_MEAN_ALPHA, QuadExact, frac_exact
from entroscope.presets import get_preset
from entroscope.symbolic import (DEFAULT_WORD_CAP, SFT, FullShift, Product,
                                 Sturmian, WindowPoint, complexity,
                                 language_on, rho, spec_from_json,
                                 spec_to_json, subshift_close,
                                 subshift_distance, word_from_str,
                                 word_to_str)
from entroscope.util import CapExceeded, SturmianHorizonError, WindowError

GOLDEN = SFT(2, [(1, 1)])


def test_full_shift_counts_and_words():
    fs = FullShift(2)
    assert fs.labels == (0, 1)
    assert fs.count(5) == 32
    assert len(fs.words(5)) == 32
    assert fs.words(1) == [(0,), (1,)]
    signs = FullShift((-1, 1))
    assert signs.labels == (-1, 1)
    assert signs.count(3) == 8
    # integral labels read as integers; others are refused, not truncated
    assert repr(SFT((-1.0, 1), [(1.0, 1)])) == repr(SFT((-1, 1), [(1, 1)]))
    for labels, forbidden in (((0, 1.7), ()), ((0, True), ()),
                              ((0, 1), [(1, 0.5)])):
        with pytest.raises(ValueError, match="expected an integer"):
            SFT(labels, forbidden)


def test_golden_mean_counts_are_fibonacci_like():
    assert [GOLDEN.count(n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]
    assert len(GOLDEN.words(6)) == 21 == complexity(GOLDEN, 6)
    for w in GOLDEN.words(6):
        assert (1, 1) not in [w[i:i + 2] for i in range(5)]


def test_sft_count_matches_enumeration_for_longer_forbidden_words():
    spec = SFT(2, [(0, 1, 1), (1, 1, 0)])
    for n in range(1, 10):
        ws = spec.words(n)
        assert spec.count(n) == len(ws)
        assert ws == sorted(set(ws))


def test_sft_dead_graph_gives_empty_language():
    spec = SFT(2, [(0, 0), (0, 1), (1, 1)])
    assert spec.count(4) == 0
    assert spec.words(4) == []


def test_sft_short_words_are_realized_prefixes():
    # forbidden length 3 means words shorter than 2 must still come from
    # bi-infinite points, i.e. from live graph states
    spec = SFT(2, [(0, 0, 0)])
    assert spec.count(1) == 2
    assert spec.count(2) == 4
    assert spec.count(3) == 7


def _realized_middles(labels, forbidden, length):
    """The length-L middles of the clean words of length L + 2m, m =
    |A|^K + 1: the words that extend m letters each way with no forbidden
    factor.  A path with more nodes than the graph has repeats one, so
    such extensions exist exactly for realized words.  The clean words
    grow letter by letter, each state its last K letters and the middle
    read so far: a forbidden word, at most K + 1 long, that ends at the
    new letter lies in those K letters and the new one."""
    K = max(map(len, forbidden), default=1) - 1
    m = len(labels) ** K + 1
    states = {((), ())}
    for i in range(length + 2 * m):
        grown = set()
        for tail, middle in states:
            for a in labels:
                w = tail + (a,)
                if any(w[len(w) - len(f):] == f for f in forbidden
                       if len(f) <= len(w)):
                    continue
                grown.add((w[len(w) - K:],
                           middle + (a,) if m <= i < m + length else middle))
        states = grown
    return sorted({middle for _, middle in states})


def test_sft_words_are_the_realized_middles():
    # seeded random SFTs, trims and empty languages included, against
    # the definition of a realized word
    for spec in _seeded_sfts():
        for length in range(1, 6):
            want = _realized_middles(spec.labels, spec.forbidden, length)
            assert spec.words(length) == want, (spec, length)
            assert spec.count(length) == len(want)


def _seeded_sfts():
    """The 100 seeded SFTs of the realized-middles test."""
    rng = random.Random(1995)
    for _ in range(100):
        labels = (0, 1) if rng.random() < 0.5 else (0, 1, 2)
        forbidden = {tuple(rng.choice(labels)
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(rng.randint(0, 5))}
        yield SFT(labels, forbidden)


def _sign_shapes():
    """The benchmark's seeded SFT bases: a word w of length 5 over
    {-1, 1} that starts with -1 and has no run of four equal letters,
    forbidden with its negation: 13 shapes."""
    for w in itertools.product((-1, 1), repeat=5):
        if w[0] == -1 and not any(len(set(w[i:i + 4])) == 1
                                  for i in range(2)):
            yield SFT((-1, 1), [w, tuple(-a for a in w)])


LONG_COUNT_SFTS = {
    "seeded": list(_seeded_sfts()),
    "sign shapes": list(_sign_shapes()),
    "golden mean": [GOLDEN],
    # two components, {0} and {1, 2}, joined one way by 01
    "reducible": [SFT(3, [(0, 2), (1, 0), (2, 0)])],
    "dead graph": [SFT(2, [(0, 0), (0, 1), (1, 1)])],
}


@pytest.mark.parametrize("group", sorted(LONG_COUNT_SFTS))
def test_sft_count_is_the_adjacency_matrix_power_to_200(group):
    # the sum of the entries of A^(L - K), A the trimmed graph's
    # adjacency matrix, in exact object arithmetic, and its row and
    # column sums the paths out of and into each state; shorter words
    # are the states' prefixes.  A fresh instance asked the lengths in
    # descending order gives the same counts.
    for spec in LONG_COUNT_SFTS[group]:
        states, edges = spec.graph()
        K = spec.context
        A = np.zeros((len(states), len(states)), dtype=object)
        for i, row in enumerate(edges):
            for _label, j in row:
                A[i, j] += 1
        want = {}
        for length in range(1, 201):
            if length <= K:
                want[length] = len(spec.words(length))
                continue
            P = np.linalg.matrix_power(A, length - K)
            want[length] = P.sum()
            assert spec.path_counts(length - K) == list(P.sum(axis=1))
            assert (spec.path_counts(length - K, into=True)
                    == list(P.sum(axis=0)))
        assert {n: spec.count(n) for n in want} == want, spec
        fresh = SFT(spec.labels, spec.forbidden)
        assert {n: fresh.count(n) for n in sorted(want, reverse=True)} \
            == want, spec


def test_long_sft_counts_in_closed_form():
    assert len(LONG_COUNT_SFTS["sign shapes"]) == 13
    # 0^a 1 w or 0^L or a word over {1, 2}
    reducible = LONG_COUNT_SFTS["reducible"][0]
    assert [reducible.count(n) for n in (1, 2, 200)] == \
        [3, 6, 3 * 2 ** 199]
    assert LONG_COUNT_SFTS["dead graph"][0].count(200) == 0


def test_word_cap_enforced():
    fs = FullShift(2)
    with pytest.raises(CapExceeded):
        fs.words(5, word_cap=31)
    assert len(fs.words(5, word_cap=32)) == 32
    # words no longer than the SFT's memory K = 5 come from the graph's
    # states, and the cap holds there too
    sft = SFT(2, [(0,) * 6])
    with pytest.raises(CapExceeded):
        sft.words(3, word_cap=4)
    with pytest.raises(CapExceeded):
        sft.words(7, word_cap=4)
    assert len(sft.words(3, word_cap=8)) == 8
    with pytest.raises(CapExceeded):
        sft.words(3, word_cap=7)  # a length asked before is capped as well


def test_sturmian_complexity_families():
    st_default = Sturmian(GOLDEN_MEAN_ALPHA)
    assert [len(st_default.words(n)) for n in range(1, 9)] == \
        [n + 1 for n in range(1, 9)]
    st_half = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    assert [len(st_half.words(n)) for n in range(1, 9)] == \
        [2 * n for n in range(1, 9)]


def test_sturmian_words_agree_with_direct_coding():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    ws = set(walk.words(6))
    # every orbit point's window must appear among the enumerated words
    for num in range(7):
        x0 = Fraction(num, 7)
        assert walk.code(x0, range(6)) in ws


def code_by_quadexact(spec, x0, positions):
    """Reference coder: symbols of x0 placed with QuadExact arithmetic.

    Shares nothing with the integer coordinates of Sturmian.code, so the
    references below do not lean on the coder under test.
    """
    if not isinstance(x0, QuadExact):
        x0 = QuadExact(Fraction(x0))
    out = []
    for p in positions:
        u = (x0 + p * spec.alpha).frac()
        out.append(1 if u < spec.intercept else -1)
    return tuple(out)


def words_by_cells(spec, length):
    """Reference Sturmian language: code one point of every cell.

    The cuts are sorted exactly; the word is constant on each cell
    between neighbouring cuts (the last cell wraps past 1), so coding
    each cell's midpoint gives every word, with no cut walk.
    """
    cuts = sorted({frac_exact(c - p * spec.alpha)
                   for p in range(length) for c in (0, spec.intercept)})
    mids = [(a + b) / 2 for a, b in zip(cuts, cuts[1:] + [cuts[0] + 1])]
    return sorted({code_by_quadexact(spec, x, range(length)) for x in mids})


def cut_walk(spec, length):
    """Reference cut walk: Sturmian.cells built from scratch.

    Every cut of the window is computed directly and the cuts are sorted
    exactly.  Yields what cells yields, the word as a tuple: the first
    cell's word, coded at a point inside it, with no flips; then per
    later cut the word after its (p, symbol) flips, and those flips by
    p.  Crossing the first cut again must close the walk.
    """
    flips = {}
    for p in range(length):
        flips.setdefault(frac_exact(-p * spec.alpha), []).append((p, 1))
        flips.setdefault(frac_exact(spec.intercept - p * spec.alpha),
                         []).append((p, -1))
    cuts = sorted(flips)
    sample = ((cuts[0] + cuts[1]) / 2 if len(cuts) > 1
              else cuts[0] + Fraction(1, 2))
    cur = list(code_by_quadexact(spec, sample, range(length)))
    first = tuple(cur)
    yield first, []
    for c in cuts[1:]:
        for p, sym in flips[c]:
            cur[p] = sym
        yield tuple(cur), flips[c]
    for p, sym in flips[cuts[0]]:
        cur[p] = sym
    assert tuple(cur) == first


def words_by_cut_walk(spec, length):
    """Reference Sturmian language: the words of the reference walk."""
    return sorted({word for word, _ in cut_walk(spec, length)})


def walked(spec, length, word_cap=DEFAULT_WORD_CAP):
    """Sturmian.cells as cut_walk yields it: words as tuples."""
    return [(tuple(word), list(crossed))
            for word, crossed in spec.cells(length, word_cap)]


@pytest.mark.parametrize("intercept", [Fraction(1, 2), None])
def test_incremental_cuts_match_walk_from_scratch(intercept):
    # sturmian-walk (intercept 1/2) and the default intercept, whose two
    # cut families share points; lengths up, then down, then at random,
    # then a window of 2000 letters after a short one, on one instance
    # per order: no cut state carries from one window to the next, so
    # every order gives the reference's words
    lengths = (list(range(1, 61)), list(range(60, 0, -1)),
               [7, 31, 2, 60, 45, 1, 59, 13], [5, 2000])
    for order in lengths:
        spec = Sturmian(GOLDEN_MEAN_ALPHA, intercept)
        for length in order:
            assert spec.words(length) == words_by_cut_walk(spec, length), \
                length


def test_sturmian_words_grow_by_doubling(monkeypatch):
    # every order of lengths gives a fresh instance's words; lengths
    # asked in ascending order walk the cells O(log L) times, each walk
    # to twice the kept window
    walks = []
    real = Sturmian.cells

    def counted(self, length, word_cap=DEFAULT_WORD_CAP):
        walks.append((self, length))
        return real(self, length, word_cap)

    lengths = list(range(1, 61))
    shuffled = list(lengths)
    random.Random(25).shuffle(shuffled)
    monkeypatch.setattr(Sturmian, "cells", counted)
    runs = []
    for order in (lengths, lengths[::-1], shuffled):
        spec = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
        for length in order:
            assert spec.words(length) == Sturmian(
                GOLDEN_MEAN_ALPHA, Fraction(1, 2)).words(length), length
        runs.append([length for walker, length in walks if walker is spec])
    ascending, descending, shuffled_walks = runs
    assert ascending == [1, 2, 4, 8, 16, 32, 64]
    assert descending == [60]
    assert len(shuffled_walks) <= len(ascending)


def test_incremental_cuts_survive_a_cap_refusal():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    walk.words(5)
    # 40 cut points at length 20: refused, and nothing of them is kept
    with pytest.raises(CapExceeded):
        walk.words(20, word_cap=39)
    # 6 cut points at length 3, whatever longer window came before
    with pytest.raises(CapExceeded):
        walk.words(3, word_cap=5)
    assert walk.words(3, word_cap=6) == words_by_cut_walk(walk, 3)
    assert walk.words(20, word_cap=40) == words_by_cut_walk(walk, 20)


GOLDEN_FRAC = GOLDEN_MEAN_ALPHA.frac()


@pytest.mark.parametrize("intercept, closed_form", [
    (Fraction(1, 2), lambda n: 2 * n),
    (Fraction(1, 3), lambda n: {1: 2, 2: 3, 3: 5}.get(n, 2 * n)),
    (1 - GOLDEN_FRAC, lambda n: n + 1),
    ((2 * GOLDEN_FRAC).frac(), lambda n: {1: 2, 2: 3, 3: 4}.get(n, n + 2)),
])
def test_sturmian_count_reads_every_length_off_one_walk(intercept,
                                                         closed_form):
    # count reads p(L) off the words of the longest window walked, so the
    # order of the lengths asked decides which walks run, never the counts
    want = {n: len(words_by_cut_walk(Sturmian(GOLDEN_MEAN_ALPHA, intercept),
                                     n)) for n in range(1, 41)}
    assert want == {n: closed_form(n) for n in want}
    shuffled = list(want)
    random.Random(7).shuffle(shuffled)
    for order in (sorted(want), sorted(want, reverse=True), shuffled):
        spec = Sturmian(GOLDEN_MEAN_ALPHA, intercept)
        assert [spec.count(n) for n in order] == [want[n] for n in order]


def test_sturmian_count_stops_short_of_the_horizon():
    # a longer walk goes to twice the kept length, but never to the
    # period 11 of the rational angle
    per = Sturmian(Fraction(3, 11), Fraction(1, 2))
    assert per.count(2) == 4
    assert per.count(10) == 20
    ascending = Sturmian(Fraction(3, 11), Fraction(1, 2))
    assert [ascending.count(n) for n in range(1, 11)] == \
        [2 * n for n in range(1, 11)]
    with pytest.raises(SturmianHorizonError):
        per.count(11)


def test_cut_walk_sorts_exactly_when_float_order_fails():
    # a rational angle 1/3 + 10^-20, whose cuts 1/3 and 1/3 - 2*10^-20
    # are one float: the walk orders them exactly
    near = Sturmian(Fraction(1, 3) + Fraction(1, 10 ** 20), Fraction(1, 3))
    for length in range(1, 25):
        assert near.words(length) == words_by_cut_walk(near, length), length


quad_coefs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
nonzero_coefs = quad_coefs.filter(lambda b: b != 0)
intercepts = st.one_of(
    st.tuples(st.just("rational"),
              st.fractions(min_value=0, max_value=1, max_denominator=20)
              .filter(lambda c: 0 < c < 1)),
    # {k * alpha}: the two cut families share points
    st.tuples(st.just("shared"), st.integers(1, 6)),
    st.tuples(st.just("quadratic"), st.tuples(quad_coefs, nonzero_coefs)))


@settings(max_examples=60, deadline=None)
@given(quad_coefs, nonzero_coefs, st.sampled_from([2, 3, 5, 7, 8, 13]),
       intercepts, st.integers(1, 9))
def test_sturmian_words_match_cell_reference(a, b, d, intercept, length):
    alpha = QuadExact(a, b, d)
    kind, value = intercept
    if kind == "rational":
        intercept = value
    elif kind == "shared":
        intercept = (value * alpha).frac()
    else:
        intercept = QuadExact(value[0], value[1], d).frac()
    spec = Sturmian(alpha, intercept)
    assert spec.words(length) == words_by_cells(spec, length)


sturmian_angles = st.one_of(
    st.tuples(quad_coefs, nonzero_coefs, st.sampled_from([2, 3, 5, 13]))
    .map(lambda abd: QuadExact(*abd)),
    st.fractions(min_value=0, max_value=1, max_denominator=500)
    .filter(lambda a: 0 < a < 1))


@settings(max_examples=120, deadline=None)
@given(sturmian_angles,
       st.one_of(st.none(),
                 st.fractions(min_value=0, max_value=1, max_denominator=30)
                 .filter(lambda c: 0 < c < 1),
                 st.integers(-4, 6).filter(bool)),
       st.one_of(st.integers(1, 60), st.sampled_from([150, 233, 400])))
def test_cells_match_the_reference_walk(alpha, intercept, length):
    # the whole (word, crossed) sequence, on irrational angles and on
    # rational ones below their horizon, for rational intercepts, shared
    # ones {k*alpha} and the default 1 - alpha; and the cap's edge at the
    # count of distinct cuts
    if isinstance(intercept, int):
        intercept = frac_exact(intercept * alpha)
        assume(intercept != 0)
    spec = Sturmian(alpha, intercept)
    horizon = spec.horizon()
    if horizon is not None:
        length = (length - 1) % (horizon - 1) + 1
    want = list(cut_walk(spec, length))
    assert walked(spec, length) == want
    if intercept is None:
        assert len(want) == length + 1
    assert walked(spec, length, word_cap=len(want)) == want
    with pytest.raises(CapExceeded):
        walked(spec, length, word_cap=len(want) - 1)


def test_cell_walk_holds_only_the_word():
    # the cuts stream in order: a walk of 20000 letters holds its word
    # twice (the first cell's, for the close-up check) and no cut table,
    # which took 14 MB when it was built
    walk = get_preset("sturmian-walk")["base"]
    tracemalloc.start()
    try:
        cells = sum(1 for _ in walk.cells(20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells == 40000
    assert peak < 2 ** 20


def test_sturmian_float_ties_take_the_exact_sort():
    # cuts 1/2 - p/(2^60 + 1) and 1 - p/(2^60 + 1) collide as floats
    spec = Sturmian(Fraction(1, 2 ** 60 + 1), Fraction(1, 2))
    cuts = sorted({frac_exact(c - p * spec.alpha)
                   for p in range(4) for c in (0, spec.intercept)},
                  key=float)
    assert not all(x < y for x, y in zip(cuts, cuts[1:]))
    words = spec.words(4)
    assert words == words_by_cells(spec, 4)
    assert len(words) == 2 * 4


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just(GOLDEN_MEAN_ALPHA),
                 st.fractions(min_value=0, max_value=1, max_denominator=40)
                 .filter(lambda a: 0 < a < 1)),
       st.sampled_from([Fraction(1, 2), None]),
       st.one_of(quad_coefs,
                 st.tuples(quad_coefs, nonzero_coefs)
                 .map(lambda ab: QuadExact(ab[0], ab[1], 5))),
       st.integers(1, 30))
def test_code_matches_quadexact_reference(alpha, intercept, x0, length):
    spec = Sturmian(alpha, intercept)
    assert spec.code(x0, range(length)) == \
        code_by_quadexact(spec, x0, range(length))


def test_sturmian_fields_are_checked_at_construction():
    # alpha in Q(sqrt 5), intercept in Q(sqrt 2): no common coordinates
    with pytest.raises(ValueError):
        Sturmian(GOLDEN_MEAN_ALPHA, QuadExact(0, Fraction(1, 2), 2))
    with pytest.raises(ValueError):
        Sturmian(QuadExact(0, Fraction(1, 3), 2),
                 QuadExact(Fraction(1, 2), Fraction(1, 10), 5))
    # a rational alpha takes the field of x0
    per = Sturmian(Fraction(2, 5), Fraction(1, 2))
    x0 = QuadExact(0, Fraction(1, 3), 7)
    assert per.code(x0, range(-3, 9)) == \
        code_by_quadexact(per, x0, range(-3, 9))
    # an irrational intercept with a rational alpha fixes the field too
    tilted = Sturmian(Fraction(2, 5), QuadExact(0, Fraction(1, 3), 2))
    assert tilted.code(Fraction(1, 7), range(8)) == \
        code_by_quadexact(tilted, Fraction(1, 7), range(8))
    # x0 in a third field
    with pytest.raises(ValueError):
        Sturmian(GOLDEN_MEAN_ALPHA).code(QuadExact(0, 1, 3), range(4))
    with pytest.raises(ValueError):
        tilted.code(QuadExact(0, Fraction(1, 3), 7), range(4))


def test_sturmian_rational_angle_horizon():
    per = Sturmian(Fraction(2, 5))
    assert len(per.words(4)) > 0
    with pytest.raises(SturmianHorizonError):
        per.words(5)


def test_sturmian_word_cache_keeps_every_check():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    first = walk.words(6)
    first.clear()  # callers get copies, never the kept list itself
    again = walk.words(6)
    assert again == Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2)).words(6)
    # the cap bounds the 12 cut points, on a hit as on the first call
    with pytest.raises(CapExceeded):
        walk.words(6, word_cap=11)
    assert walk.words(6, word_cap=12) == again
    per = Sturmian(Fraction(2, 5))
    per.words(4)
    with pytest.raises(CapExceeded):
        per.words(4, word_cap=1)
    with pytest.raises(SturmianHorizonError):
        per.words(5)
    # a shorter window read off the kept words of a longer one: the cap
    # still bounds its 12 cut points
    walk.words(20)
    with pytest.raises(CapExceeded):
        walk.words(6, word_cap=11)
    assert walk.words(6, word_cap=12) == again
    # 4 cut points but 3 words at length 2: the cap counts the cuts
    third = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 3))
    assert len(third.words(2)) == 3
    for kept in (0, 20):
        third = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 3))
        if kept:
            third.words(kept)
        with pytest.raises(CapExceeded):
            third.words(2, word_cap=3)
        assert third.words(2, word_cap=4) == words_by_cut_walk(third, 2)


def test_sturmian_code_helper_inclusive_window():
    spec = Sturmian(GOLDEN_MEAN_ALPHA)
    syms = spec.code(0, range(-2, 3))
    assert len(syms) == 5
    assert syms == code_by_quadexact(spec, 0, range(-2, 3))


def test_language_on_contiguous_matches_words():
    assert language_on(GOLDEN, range(0, 3)) == GOLDEN.words(3)
    assert language_on(GOLDEN, [5, 6, 7]) == GOLDEN.words(3)


def test_language_on_gapped_projection():
    got = language_on(GOLDEN, [0, 2])
    brute = sorted({(w[0], w[2]) for w in GOLDEN.words(3)})
    assert got == brute
    got2 = language_on(FullShift(2), [-3, 0, 4])
    assert len(got2) == 8


def test_product_language_is_componentwise():
    prod = Product(FullShift(2), GOLDEN)
    assert prod.count(3) == 8 * 5
    ws = prod.words(2)
    assert len(ws) == 4 * 3
    assert all(len(w) == 2 and len(w[0]) == 2 for w in ws)
    for length in (1, 3, 5):
        ws = prod.words(length)
        assert ws == sorted(tuple(zip(a, b))
                            for a in FullShift(2).words(length)
                            for b in GOLDEN.words(length))
        # every word's letters are the product's shared label pairs
        assert len({id(p) for w in ws for p in w}) <= len(prod.labels)


def test_rho_values():
    assert rho(2) == 0
    assert rho(1) == 0
    assert rho(Fraction(1, 2)) == 1
    assert rho(Fraction(3, 10)) == 2
    assert rho(Fraction(15, 100)) == 3
    assert rho(Fraction(1, 8)) == 3
    with pytest.raises(ValueError):
        rho(0)


@given(st.fractions(min_value=Fraction(1, 2 ** 30), max_value=4,
                    max_denominator=2 ** 32))
def test_rho_is_minimal_agreement_radius(eps):
    k = rho(eps)
    assert Fraction(1, 2 ** k) <= eps
    if k > 0:
        assert Fraction(1, 2 ** (k - 1)) > eps


def test_window_point_reads_and_shifts():
    p = WindowPoint(-2, (5, 6, 7, 8, 9))
    assert p.get(-2) == 5 and p.get(2) == 9
    with pytest.raises(WindowError):
        p.get(3)
    q = p.shift(2)  # q(i) = p(i + 2)
    assert q.get(0) == p.get(2)
    assert q.start == -4


def test_subshift_distance_values():
    x = WindowPoint(-3, (0, 0, 0, 0, 0, 0, 0))
    y = WindowPoint(-3, (0, 0, 0, 1, 0, 0, 0))
    assert subshift_distance(x, y) == 2
    z = WindowPoint(-3, (0, 0, 0, 0, 0, 1, 0))
    assert subshift_distance(x, z) == Fraction(1, 2)  # first split at k=2
    w = WindowPoint(-3, (1, 0, 0, 0, 0, 0, 0))
    assert subshift_distance(x, w) == Fraction(1, 4)
    with pytest.raises(WindowError):
        subshift_distance(x, WindowPoint(-3, (0, 0, 0, 0, 0, 0, 0)))


def test_subshift_close_boundary_epsilons():
    x = WindowPoint(-3, (0, 0, 0, 0, 0, 0, 0))
    z = WindowPoint(-3, (0, 0, 0, 0, 0, 1, 0))  # distance exactly 1/2
    assert subshift_close(x, z, Fraction(1, 2))
    assert not subshift_close(x, z, Fraction(49, 100))
    assert subshift_close(x, z, 2)
    assert subshift_close(x, z, 3)  # >= 2 never reads the windows


words5 = st.tuples(*[st.integers(0, 1)] * 11)


@given(words5, words5,
       st.fractions(min_value=Fraction(1, 32), max_value=Fraction(5, 2),
                    max_denominator=64))
def test_certified_scan_agrees_with_raw_distance(u, v, eps):
    # windows [-5, 5] decide closeness for every eps with rho(eps) <= 5
    x = WindowPoint(-5, u)
    y = WindowPoint(-5, v)
    if rho(eps) <= 5:
        want = (u == v) or (subshift_distance(x, y) <= eps)
        assert subshift_close(x, y, eps) == want


def test_word_str_round_trips():
    assert word_to_str((1, 0, 1)) == "101"
    assert word_from_str("101") == (1, 0, 1)
    assert word_to_str((-1, 1)) == "-1,1"
    assert word_from_str("-1,1") == (-1, 1)
    assert word_from_str("-1") == (-1,)
    assert word_from_str("12,5") == (12, 5)


@given(st.lists(st.integers(-99, 99), min_size=1, max_size=8))
def test_word_str_round_trip_property(labels):
    w = tuple(labels)
    assert word_from_str(word_to_str(w)) == w


def test_spec_json_round_trips():
    for spec in (FullShift((-1, 1)), GOLDEN,
                 Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2)),
                 Product(FullShift(2), GOLDEN)):
        back = spec_from_json(spec_to_json(spec))
        assert type(back) is type(spec)
        assert back.count(4) == spec.count(4)
    st2 = spec_from_json(spec_to_json(Sturmian(GOLDEN_MEAN_ALPHA)))
    assert st2.alpha == GOLDEN_MEAN_ALPHA.frac()
    assert st2.intercept == 1 - GOLDEN_MEAN_ALPHA.frac()
