"""Fiber systems and their certified separated/spanning counts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroscope.exactnum import GOLDEN_MEAN_ALPHA, QuadExact
from entroscope.fiber import (IdentityFiber, RotationFiber, SymbolicFiber,
                              ToralAutoFiber, bowen_distance, bowen_le,
                              circle_sep_exact, fiber_from_json,
                              fiber_to_json, sep_count, sep_exact_symbolic,
                              sep_greedy, spa_bracket)
from entroscope.symbolic import (SFT, FullShift, Product, Sturmian,
                                 WindowPoint, language_on)
from entroscope.util import ConfigError, WindowError

FULL2 = FullShift(2)
GOLDEN = SFT(2, [(1, 1)])


# -- exact symbolic counts --------------------------------------------------

def test_sep_exact_symbolic_full_shift():
    assert sep_exact_symbolic(FULL2, range(3), Fraction(1, 2)) == 2 ** 5
    assert sep_exact_symbolic(FULL2, range(5), 1) == 2 ** 5
    assert sep_exact_symbolic(FULL2, {0}, 2) == 1
    assert sep_exact_symbolic(FULL2, {0}, 3) == 1


def test_sep_exact_symbolic_golden_window():
    # window {0,1,2,3} widened by rho(1/2) = 1 reads 6 consecutive symbols
    assert sep_exact_symbolic(GOLDEN, range(4), Fraction(1, 2)) == 21
    assert sep_exact_symbolic(GOLDEN, range(4), 1) == 8


def test_sep_exact_symbolic_gapped_window():
    assert sep_exact_symbolic(FULL2, {0, 4}, 1) == 4
    got = sep_exact_symbolic(GOLDEN, {0, 4}, 1)
    assert got == len(language_on(GOLDEN, [0, 4]))


@pytest.mark.parametrize("spec", [
    FullShift(3), GOLDEN, Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2)),
    Product(GOLDEN, FULL2)])
def test_sep_exact_symbolic_interval_fast_path(spec):
    # an interval as a range takes the closed form, the same F as a set
    # the window scan
    for start in (0, 3, -2):
        for size in (1, 2, 5):
            F = range(start, start + size)
            for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1,
                        2):
                assert sep_exact_symbolic(spec, F, eps) == \
                    sep_exact_symbolic(spec, set(F), eps), (F, eps)
    gapped = range(0, 6, 2)
    assert sep_exact_symbolic(spec, gapped, Fraction(1, 2)) == \
        len(language_on(spec, [-1, 0, 1, 2, 3, 4, 5]))
    assert sep_exact_symbolic(spec, gapped, 1) == \
        len(language_on(spec, [0, 2, 4]))
    with pytest.raises(ValueError):
        sep_exact_symbolic(spec, range(0), 1)


def test_greedy_on_cylinder_sample_matches_exact():
    for spec, F, eps in ((FULL2, range(3), Fraction(1, 2)),
                         (GOLDEN, range(4), Fraction(1, 2)),
                         (GOLDEN, range(3), Fraction(1, 4)),
                         (FULL2, (0, 2), 1)):
        T = SymbolicFiber(spec)
        sample = T.sample_points(F, eps)
        assert sep_greedy(T, sample, F, eps) == sep_exact_symbolic(spec, F,
                                                                   eps)


def test_symbolic_fiber_equal_representatives_are_one_point():
    T = SymbolicFiber(FULL2)
    x = WindowPoint(-2, (0, 1, 0, 1, 0))
    assert T.distance(x, x) == 0
    assert T.distance_le(x, x, Fraction(1, 100))


def test_spa_bracket_full_shift_endpoints():
    T = SymbolicFiber(FULL2)
    lo, hi = spa_bracket(T, range(5), Fraction(1, 2))
    assert (lo, hi) == (2 ** 5, 2 ** 7)  # sep at 1 and sep at 1/2
    # at eps = 1 the doubled radius hits the metric cap: every pair is 2-close
    assert spa_bracket(T, range(5), 1) == (1, 2 ** 5)


# -- rotation fiber ---------------------------------------------------------

def test_circle_sep_exact_values():
    assert circle_sep_exact(Fraction(1, 2)) == 1
    assert circle_sep_exact(Fraction(1, 3)) == 2
    assert circle_sep_exact(Fraction(3, 10)) == 3
    assert circle_sep_exact(Fraction(1, 5)) == 4
    assert circle_sep_exact(3) == 1


def test_rotation_is_isometry_so_sep_ignores_F():
    T = RotationFiber(GOLDEN_MEAN_ALPHA)
    for F in (range(1), range(7), (0, 3, 11)):
        assert T.sep_exact(F, Fraction(1, 5)) == 4
    x, y = Fraction(1, 3), Fraction(3, 4)
    assert bowen_distance(T, x, y, range(9)) == T.distance(x, y)


def test_rotation_exact_wraparound():
    T = RotationFiber(Fraction(2, 5))
    assert T.iterate(Fraction(4, 5), 2) == Fraction(3, 5)
    assert T.distance(Fraction(1, 10), Fraction(9, 10)) == Fraction(1, 5)


def test_rotation_greedy_respects_exact_count():
    T = RotationFiber(GOLDEN_MEAN_ALPHA)
    count, exact = sep_count(T, range(4), Fraction(1, 5))
    assert exact and count == 4


# -- identity fiber ---------------------------------------------------------

def _max_far_subset(far):
    """Largest subset of indices with far[i][j] for every chosen pair:
    the brute-force separated count, by branch and bound."""
    best = 0

    def grow(chosen, cand):
        nonlocal best
        if chosen + len(cand) <= best:
            return
        if not cand:
            best = max(best, chosen)
            return
        v = cand[0]
        grow(chosen + 1, [u for u in cand[1:] if far[v][u]])
        grow(chosen, cand[1:])

    grow(0, list(range(len(far))))
    return best


def test_identity_fiber_max_far_subset():
    T = IdentityFiber([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                       Fraction(1)])
    assert T.sep_exact(range(3), Fraction(1, 4)) == 3
    assert T.sep_exact(range(3), Fraction(1, 100)) == 4
    assert T.sep_exact(range(3), 2) == 1


def test_identity_sweep_equals_brute_force():
    # the sorted sweep against the largest pairwise-far subset, on
    # Fractions, golden-field numbers and repeated points
    rng = random.Random(23)
    Fs = (range(1), range(3), (0, 2, 5))
    epss = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(1), Fraction(3)]
    for _ in range(100):
        pts = []
        for _ in range(rng.randint(1, 9)):
            a = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 8)))
            if rng.random() < 0.4:
                a = QuadExact(a, Fraction(rng.randint(-4, 4), 4), 5)
            pts.append(a)
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]
        rng.shuffle(pts)
        T = IdentityFiber(pts)
        for eps in epss:
            want = _max_far_subset([[T.distance(p, q) > eps for q in pts]
                                    for p in pts])
            for F in Fs:
                assert T.sep_exact(F, eps) == want, (pts, F, eps)


def test_identity_fiber_irrational_points():
    T = IdentityFiber([0, GOLDEN_MEAN_ALPHA])
    # |0 - 0.618...| is irrational: 3/5 < d < 5/8
    assert T.distance(0, GOLDEN_MEAN_ALPHA) == GOLDEN_MEAN_ALPHA
    assert T.distance(GOLDEN_MEAN_ALPHA, 0) == GOLDEN_MEAN_ALPHA
    assert T.sep_exact(range(2), Fraction(3, 5)) == 2
    assert T.sep_exact(range(2), Fraction(5, 8)) == 1
    assert sep_count(T, range(2), Fraction(1, 2)) == (2, True)


def test_identity_fiber_time_does_not_matter():
    T = IdentityFiber([0, 1])
    assert bowen_distance(T, 0, 1, range(50)) == 1
    assert T.iterate(0, 12345) == 0


# -- toral automorphism fiber -----------------------------------------------

CAT = ((2, 1), (1, 1))


def test_toral_determinant_validation():
    with pytest.raises(ConfigError):
        ToralAutoFiber(((2, 0), (0, 2)), 5)
    with pytest.raises(ConfigError):
        ToralAutoFiber(((1, 1), (1, 1)), 5)
    ToralAutoFiber(((0, 1), (-1, 0)), 5)  # det +1 after sign
    # integral numbers read as integers; others are refused, not truncated
    assert repr(ToralAutoFiber(((2.0, 1), (1, 1)), 5.0)) == \
        "ToralAutoFiber(((2, 1), (1, 1)), grid=5)"
    for matrix, grid in ((CAT, 3.9), (((2, 1), (1, 1.5)), 3), (CAT, True)):
        with pytest.raises(ValueError, match="expected an integer"):
            ToralAutoFiber(matrix, grid)


def test_toral_iterate_is_invertible_on_the_grid():
    T = ToralAutoFiber(CAT, 7)
    for pt in T.sample_points(range(1), 1)[:10]:
        fwd = T.iterate(pt, 5)
        assert all(v.denominator in (1, 7) for v in fwd)
        assert T.iterate(fwd, -5) == pt


def test_toral_metric_and_greedy_bracket():
    T = ToralAutoFiber(CAT, 4)
    assert T.distance((Fraction(0), Fraction(0)),
                      (Fraction(3, 4), Fraction(1, 4))) == Fraction(1, 4)
    count, exact = sep_count(T, range(2), Fraction(1, 4))
    assert not exact
    assert count >= 4  # grid has 16 points; plenty stay 1/4-far for 2 steps
    lo, hi = spa_bracket(T, range(2), Fraction(1, 4))
    assert lo <= hi


@pytest.mark.parametrize("grid", [3, 4])
@pytest.mark.parametrize("matrix", [CAT, ((1, 1), (0, 1)), ((0, 1), (-1, 0))])
def test_toral_counts_are_translation_invariant(matrix, grid):
    # the premise of counting a toral fiber over visited sets translated
    # to start at 0: T^c permutes the grid, so the exact separated count
    # over F + c is the one over F, and greedy never exceeds it
    T = ToralAutoFiber(matrix, grid)
    pts = T.sample_points(range(1), 1)

    def exact(F, eps):
        return _max_far_subset([[not bowen_le(T, p, q, F, eps) for q in pts]
                                for p in pts])

    for F in ((0,), (0, 1), (0, 2), (0, 1, 3), (0, 2, 3)):
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 8)):
            want = exact(F, eps)
            for c in (0, 1, 2, 5, -3):
                moved = [i + c for i in F]
                if c:
                    assert exact(moved, eps) == want, (F, c, eps)
                assert sep_count(T, moved, eps)[0] <= want, (F, c, eps)


# -- bowen consistency ------------------------------------------------------

words17 = st.tuples(*[st.integers(0, 1)] * 17)
eps_grid = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                            Fraction(1), Fraction(3, 2), Fraction(2)])


@given(words17, words17,
       st.sets(st.integers(0, 3), min_size=1, max_size=4), eps_grid)
def test_bowen_le_matches_bowen_distance(u, v, F, eps):
    T = SymbolicFiber(FULL2)
    x = WindowPoint(-8, u)
    y = WindowPoint(-8, v)
    try:
        want = bowen_distance(T, x, y, F) <= eps
    except WindowError:
        # the only disagreement sits at the window edge: the exact scan runs
        # out, but the rho-radius scan certifies the pair is eps-close
        assert bowen_le(T, x, y, F, eps)
        return
    assert bowen_le(T, x, y, F, eps) == want


def test_spa_bracket_never_inverted():
    for T in (SymbolicFiber(GOLDEN), RotationFiber(GOLDEN_MEAN_ALPHA),
              IdentityFiber([0, Fraction(1, 3), 1])):
        for eps in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 8)):
            lo, hi = spa_bracket(T, range(3), eps)
            assert 1 <= lo <= hi


# -- serialization ----------------------------------------------------------

def test_fiber_json_round_trips():
    for T in (SymbolicFiber(GOLDEN), RotationFiber(GOLDEN_MEAN_ALPHA),
              IdentityFiber([Fraction(0), Fraction(1, 2)]),
              IdentityFiber([Fraction(1, 3), GOLDEN_MEAN_ALPHA]),
              ToralAutoFiber(CAT, 6)):
        doc = fiber_to_json(T)
        back = fiber_from_json(doc)
        assert type(back) is type(T)
        assert fiber_to_json(back) == doc
    ident = fiber_from_json(fiber_to_json(
        IdentityFiber([Fraction(1, 3), GOLDEN_MEAN_ALPHA])))
    assert ident.points == [Fraction(1, 3), GOLDEN_MEAN_ALPHA]
    rot = fiber_from_json(fiber_to_json(RotationFiber(GOLDEN_MEAN_ALPHA)))
    assert rot.angle == GOLDEN_MEAN_ALPHA.frac()
    # a JSON number reads as written, as epsilon does: 0.1 is 1/10, not the
    # binary float nearest it
    ident = fiber_from_json({"variant": "identity", "points": [0, 0.1]})
    assert ident.points == [0, Fraction(1, 10)]
    assert fiber_to_json(ident)["points"] == ["0", "1/10"]
    rot = fiber_from_json({"variant": "rotation", "angle": 0.1})
    assert rot.angle == Fraction(1, 10)
