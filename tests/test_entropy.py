"""Scales, slow-entropy reports, sequence entropy, Folner defect, Birkhoff."""

import itertools
import math
from fractions import Fraction

import pytest

from entroscope.cocycle import Cocycle, counting_plan, ergodic_sums
from entroscope.entropy import (ExpScale, PolyScale, RangeExpScale,
                                RangeInnerScale, birkhoff_sup, count_bracket,
                                h_top_estimate, slow_entropy_report)
from entroscope.exactnum import GOLDEN_MEAN_ALPHA
from entroscope.fiber import IdentityFiber, SymbolicFiber
from entroscope.presets import get_preset
from entroscope.sequence import (Arithmetic, Explicit, Geometric,
                                 bernoulli_seq_entropy, cover_size,
                                 evens_family, folner_defect, goodwyn_check,
                                 hamming_ball_count, hamming_exponent,
                                 interval_family, k_estimate, powers_family,
                                 sa_size)
from entroscope.skew import SkewSystem
from entroscope.symbolic import SFT, FullShift, Sturmian
from entroscope.util import CapExceeded, ConfigError, SturmianHorizonError

SIGN = Cocycle({(-1,): -1, (1,): 1})
SIGNS = FullShift((-1, 1))
GOLDEN = SFT((-1, 1), [(1, 1)])
LOG2 = math.log(2)
LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


# -- scales -------------------------------------------------------------------

def test_exp_and_poly_scales():
    assert ExpScale().eval_exact(5, 2) == 32
    assert math.isclose(ExpScale().log_eval(7, 0.5), 3.5)
    assert PolyScale().eval_exact(5, 2) == 25
    assert math.isclose(PolyScale().log_eval(8, 3), 3 * math.log(8))
    with pytest.raises(ValueError):
        PolyScale().log_eval(0, 1)
    with pytest.raises(ValueError):
        PolyScale().eval_exact(5, -1)


def test_range_scales_exact_anchors():
    # 2^3 sign words: ranges r (and q = r) are 2,2,3,2,4,2,3,2 over words
    plan = counting_plan(SIGNS, SIGN)
    assert RangeExpScale(plan).eval_exact(3, 2) == 48
    assert RangeInnerScale(plan).eval_exact(3, 2) == 52


def test_range_scale_log_matches_exact():
    scale = RangeExpScale(counting_plan(SIGNS, SIGN))
    for n in (2, 5, 9):
        exact = scale.eval_exact(n, 2)
        assert math.isclose(scale.log_eval(n, LOG2), math.log(exact),
                            rel_tol=1e-12)


# -- count brackets and ratio curves ------------------------------------------

def test_ratio_curve_full_shift_constants():
    for n, ladder in ((10, (2, 5, 10)), (20, (2, 5, 10, 20))):
        rep = slow_entropy_report(SymbolicFiber(FullShift(2)), ExpScale(),
                                  Fraction(1, 2), n, [LOG2])
        assert rep.ladder == ladder
        assert [row[:2] for row in rep.rows] == [(LOG2, m) for m in ladder]
        for _t, _m, rlo, rhi in rep.rows:
            assert math.isclose(rlo, 1.0, rel_tol=1e-9)
            assert math.isclose(rhi, 4.0, rel_tol=1e-9)  # the 2 rho margin


def test_slow_entropy_ladder_rows_are_the_direct_ratios(monkeypatch):
    from entroscope import cocycle
    passes = []
    real = cocycle._images_pass

    def counting(base, vals, ns, pad):
        passes.append((sorted(ns), pad))
        return real(base, vals, ns, pad)

    monkeypatch.setattr(cocycle, "_images_pass", counting)
    sys = SkewSystem(counting_plan(SIGNS, SIGN), SymbolicFiber(FullShift(2)))
    assert sys.plan.histograms == "images"
    scale = RangeExpScale(sys.plan)
    eps = Fraction(1, 4)
    rep = slow_entropy_report(sys, scale, eps, 24, [0.9, 0.5, 0.7])
    # one engine pass at pad 0 serves every bracket and the scale
    assert passes == [([3, 6, 12, 24], 0)]
    assert rep.ladder == (3, 6, 12, 24)
    assert [row[:2] for row in rep.rows] == [
        (t, n) for t in (0.5, 0.7, 0.9) for n in rep.ladder]
    for t, n, rlo, rhi in rep.rows:
        lo, hi = count_bracket(sys, n, eps)
        assert rep.brackets[n] == (lo, hi)
        ls = scale.log_eval(n, t)
        assert math.isclose(rlo, math.exp(math.log(lo) - ls), rel_tol=1e-12)
        assert math.isclose(rhi, math.exp(math.log(hi) - ls), rel_tol=1e-12)


def test_count_bracket_dispatches_on_target():
    fib = SymbolicFiber(FullShift(2))
    assert count_bracket(fib, 5, Fraction(1, 2)) == (32, 128)
    sys = SkewSystem(counting_plan(SIGNS, SIGN), fib)
    lo, hi = count_bracket(sys, 3, Fraction(1, 4))
    assert (lo, hi) == (192, 768)


# -- slow entropy -------------------------------------------------------------

def test_slow_entropy_threshold_crossings():
    sys = SkewSystem(counting_plan(SIGNS, SIGN), SymbolicFiber(FullShift(2)))
    scale = RangeExpScale(sys.plan)
    grid = [round(0.3 + 0.05 * i, 10) for i in range(17)]
    rep = slow_entropy_report(sys, scale, Fraction(1, 4), 60, grid,
                              threshold=1e-2)
    assert not rep.empty_upper and not rep.empty_lower
    assert rep.t_lower <= rep.t_upper
    assert rep.t_upper == 0.85 and rep.t_lower == 0.8
    assert abs(rep.t_upper - LOG2) < 0.2  # finite-n bias shrinks with n
    assert rep.n_max == 60
    assert rep.label == "finite-n diagnostic, not a limit"


def test_slow_entropy_empty_flags_on_bounded_system():
    ident = IdentityFiber([Fraction(0), Fraction(1, 2)])
    rep = slow_entropy_report(ident, ExpScale(), Fraction(1, 4), 40,
                              [0.5, 1.0])
    assert rep.empty_upper and rep.empty_lower
    assert not rep.saturated_upper and not rep.saturated_lower
    assert rep.t_upper == rep.t_lower == 0.5  # grid minimum, flagged empty
    with pytest.raises(ValueError):
        slow_entropy_report(ident, ExpScale(), Fraction(1, 4), 40, [])


@pytest.mark.parametrize("preset, saturated", [("sturmian-walk", True),
                                               ("tt-inverse", False)])
def test_slow_entropy_flags_a_top_of_grid_answer(preset, saturated, capsys):
    # the Sturmian walk's ratios still clear the threshold at t = 1.1, the
    # top of the preset grid; tt-inverse crosses inside it
    from entroscope.cli import main
    assert main(["slow-entropy", "--preset", preset, "--n-max", "40",
                 "--no-self-check"]) == 0
    out = capsys.readouterr().out
    p = get_preset(preset)
    sys = SkewSystem(counting_plan(p["base"], p["tau"]), p["fiber"])
    rep = slow_entropy_report(sys, RangeExpScale(sys.plan), p["epsilon"], 40,
                              p["t_grid"])
    assert rep.saturated_upper == rep.saturated_lower == saturated
    assert (rep.t_upper == max(p["t_grid"])) == saturated
    assert not rep.empty_upper and not rep.empty_lower
    side = "saturated (crossing at or above the top)" if saturated else "inside"
    assert ("CHECK slow-entropy-grid: OBSERVED (grid 0.3..1.1: t_upper %s, "
            "t_lower %s)" % (side, side)) in out


# -- topological entropy brackets ----------------------------------------------

def test_h_top_full_shift():
    lo, hi = h_top_estimate(SymbolicFiber(FullShift(2)), Fraction(1, 2), 200)
    assert abs(lo - LOG2) < 1e-9
    assert LOG2 <= hi < LOG2 + 0.01
    with pytest.raises(ValueError):
        h_top_estimate(SymbolicFiber(FullShift(2)), Fraction(1, 2), 1)


def test_h_top_golden_mean():
    lo, hi = h_top_estimate(SymbolicFiber(GOLDEN), Fraction(1, 2), 100)
    assert abs(lo - LOG_PHI) < 0.01
    assert abs(hi - LOG_PHI) < 0.02  # upper carries the 2 rho / n excess
    assert lo <= hi
    lo4, hi4 = h_top_estimate(SymbolicFiber(GOLDEN), Fraction(1, 2), 400)
    assert abs(lo4 - LOG_PHI) < 0.005
    assert abs(hi4 - LOG_PHI) < 0.005


# -- sequence footprints and K(A) ----------------------------------------------

def test_sa_size_values():
    assert sa_size(Arithmetic(1, 1), 10, 4) == 13
    assert sa_size(Arithmetic(2, 2), 5, 3) == 11
    assert sa_size(Geometric(2), 4, 2) == 8
    assert sa_size(Explicit([i * i for i in range(1, 21)]), 20, 1) == 20
    with pytest.raises(ValueError):
        sa_size(Arithmetic(1, 1), 0, 1)


def test_sa_size_geometric_sums_its_cover_in_closed_form(monkeypatch):
    for b in (2, 3, 10):
        A = Geometric(b)
        for n in (1, 2, 3, 5, 17, 40):
            for m in (1, 2, 3, 7, 8, 9, 100, 1000, 10 ** 6, 10 ** 30):
                assert sa_size(A, n, m) == cover_size(A.terms(n), m), \
                    (b, n, m)

    def no_terms(self, n):
        raise AssertionError("sa_size built the terms")

    monkeypatch.setattr(Geometric, "terms", no_terms)
    # gaps 2, 4 and 8 fall below m = 16; the other 9996 add 16 each
    assert sa_size(Geometric(2), 10 ** 4, 16) == 16 + 2 + 4 + 8 + 9996 * 16


def test_sa_size_arithmetic_is_its_cover_in_closed_form(monkeypatch):
    for start, d in ((1, 1), (1, 3), (5, 2), (2, 7)):
        A = Arithmetic(start, d)
        for n in (1, 2, 3, 10, 40):
            for m in (1, 2, 3, 7, 8, 100):
                want = m + (n - 1) * min(d, m)
                assert cover_size(A.terms(n), m) == want
                assert sa_size(A, n, m) == want, (start, d, n, m)

    def no_terms(self, n):
        raise AssertionError("sa_size built the terms")

    monkeypatch.setattr(Arithmetic, "terms", no_terms)
    assert sa_size(Arithmetic(1, 3), 10 ** 4, 16) == 16 + 9999 * 3


def test_sa_size_monotone_in_m():
    for A in (Arithmetic(3, 2), Geometric(3),
              Explicit([1, 4, 9, 16, 25, 36, 49])):
        prev = 0
        for m in range(1, 9):
            cur = sa_size(A, 6, m)
            assert cur >= prev
            prev = cur


def test_k_estimate_arithmetic():
    est = k_estimate(Arithmetic(1, 1))
    assert not est.diverged and est.value == 1 and est.stabilized_m == 1
    est2 = k_estimate(Arithmetic(2, 2))
    assert not est2.diverged and est2.value == 2 and est2.stabilized_m == 2


def test_k_estimate_geometric_diverges():
    est = k_estimate(Geometric(2))
    assert est.diverged and est.value is None
    floats = [float(v) for (_m, _n, v) in est.rows]
    assert floats == [1.0, 2.0, 3.9998, 7.999, 15.9966]
    assert est.last == est.rows[-1][2]


def test_k_estimate_explicit_clamps_n():
    est = k_estimate(Explicit(list(range(1, 50))))
    assert all(n == 49 for (_m, n, _v) in est.rows)


# -- Hamming balls ---------------------------------------------------------------

def test_hamming_ball_small_counts():
    assert hamming_ball_count(2, 4, 0.5) == 5  # strict: j < 2
    assert hamming_ball_count(2, 4, Fraction(1, 2)) == 5
    assert hamming_ball_count(3, 4, Fraction(1, 2)) == 1 + 4 * 2
    assert hamming_ball_count(2, 3, 1) == 7  # j < 3, misses only the antipode
    with pytest.raises(ValueError):
        hamming_ball_count(1, 4, 0.5)
    with pytest.raises(ValueError):
        hamming_ball_count(2, 4, 0)


def test_hamming_ball_count_matches_binomial_sum():
    # radii with r*n an integer sit on the strict boundary j < r*n
    for k in (2, 3, 5):
        for n in range(1, 21):
            radii = [Fraction(j, n) for j in range(1, n + 1)]
            radii += [Fraction(3, 10), Fraction(1, 3), Fraction(3, 2)]
            for r in radii:
                want = sum(math.comb(n, j) * (k - 1) ** j
                           for j in range(n + 1) if j < r * n)
                assert hamming_ball_count(k, n, r) == want, (k, n, r)


def test_hamming_exponent_domain_and_endpoint():
    assert math.isclose(hamming_exponent(2, Fraction(1, 2)), LOG2)
    with pytest.raises(ValueError):
        hamming_exponent(2, Fraction(3, 5))  # above (kF-1)/kF
    with pytest.raises(ValueError):
        hamming_exponent(2, 0)


def test_hamming_count_growth_matches_exponent():
    r = Fraction(3, 10)
    want = hamming_exponent(2, r)
    n = 2000
    got = math.log(hamming_ball_count(2, n, r)) / n
    assert abs(got - want) < 0.01
    # the gap shrinks with n
    gap500 = abs(math.log(hamming_ball_count(2, 500, r)) / 500 - want)
    assert abs(got - want) < gap500


# -- Goodwyn ---------------------------------------------------------------------

def test_bernoulli_sequence_entropy_is_log_k():
    assert float(bernoulli_seq_entropy(2, Arithmetic(1, 1), 100)) == LOG2
    assert math.isclose(float(bernoulli_seq_entropy(3, Geometric(2), 12)),
                        math.log(3))


def test_goodwyn_inequality_holds():
    g = goodwyn_check(2, Arithmetic(1, 1))
    assert g["ok"] and math.isclose(g["lhs"], g["rhs"])
    g2 = goodwyn_check(2, Arithmetic(2, 2))
    assert g2["ok"] and g2["rhs"] > g2["lhs"]
    squares = Explicit([i * i for i in range(1, 401)])
    g3 = goodwyn_check(3, squares)
    assert g3["ok"]
    assert g3["k_estimate"].diverged  # gaps grow, so the footprint does too


# -- Folner defect -------------------------------------------------------------

def test_folner_interval_defect_is_two_over_n():
    for n, defect in folner_defect(interval_family, 3, [4, 10, 50, 1000]):
        assert defect == Fraction(2, n)


def test_folner_evens_never_improve():
    for _n, defect in folner_defect(evens_family, 2, [3, 20, 200]):
        assert defect == 1


def test_folner_powers_stay_bad():
    for _n, defect in folner_defect(powers_family, 2, [4, 8, 12]):
        assert defect == 1


# -- Birkhoff sup ----------------------------------------------------------------

def test_birkhoff_zero_cocycle():
    zero = Cocycle({(-1,): 0, (1,): 0})
    assert birkhoff_sup(counting_plan(SIGNS, zero), 7) == 0


def test_birkhoff_full_shift_stays_at_one():
    assert birkhoff_sup(counting_plan(SIGNS, SIGN), 9) == 1
    with pytest.raises(ValueError):
        birkhoff_sup(counting_plan(SIGNS, SIGN), 0)


def sft_shapes():
    """The 13 SFTs forbidding a 5-word w over {-1, 1} with w[0] = -1 and
    no run of four equal letters, and its negation."""
    words = [w for w in itertools.product((-1, 1), repeat=5)
             if w[0] == -1 and not any(len(set(w[i:i + 4])) == 1
                                       for i in range(2))]
    assert len(words) == 13
    return [SFT((-1, 1), [w, tuple(-a for a in w)]) for w in words]


# radius-0 rules: the sign walk, a drifting walk with a step of 3, and
# one with a zero step
RADIUS_ZERO = (SIGN, Cocycle({(-1,): 3, (1,): -1}),
               Cocycle({(-1,): 0, (1,): -2}))


@pytest.mark.parametrize("tau", RADIUS_ZERO)
def test_birkhoff_graph_pass_matches_word_loop(tau):
    for spec in [SIGNS, GOLDEN] + sft_shapes():
        for n in range(1, 11):
            assert birkhoff_sup(counting_plan(spec, tau), n) == \
                birkhoff_by_words(spec, tau, n, None), (spec, n)
    three = Cocycle({(0,): -1, (1,): 0, (2,): 2})
    for n in range(1, 8):
        assert birkhoff_sup(counting_plan(FullShift(3), three), n) == \
            birkhoff_by_words(FullShift(3), three, n, None)


def test_birkhoff_graph_pass_lists_no_words(monkeypatch):
    drift = Cocycle({(-1,): 2, (1,): -1})
    want = birkhoff_by_words(GOLDEN, drift, 21, None)

    def no_words(*_args, **_kwargs):
        raise AssertionError("birkhoff_sup built a word list")

    monkeypatch.setattr(SFT, "words", no_words)
    monkeypatch.setattr(FullShift, "words", no_words)
    assert birkhoff_sup(counting_plan(GOLDEN, drift), 21) == want
    # past the word cap: 2^21 words of L_21 on the full 2-shift
    assert birkhoff_sup(counting_plan(SIGNS, SIGN), 21) == 1
    assert birkhoff_sup(counting_plan(SIGNS, SIGN, word_cap=1), 10 ** 4) == 1


def test_birkhoff_graph_pass_rule_coverage():
    # a letter the rule misses is a config error, as in the word loop
    partial = Cocycle({(-1,): -1})
    for spec in (SIGNS, GOLDEN):
        with pytest.raises(ConfigError):
            birkhoff_by_words(spec, partial, 4, None)
        with pytest.raises(ConfigError):
            birkhoff_sup(counting_plan(spec, partial), 4)
    # a letter in no word of the language needs no step
    dead = SFT((-1, 0, 1), [(0,)])
    assert birkhoff_sup(counting_plan(dead, SIGN), 6) == \
        birkhoff_by_words(dead, SIGN, 6, None) == 1
    with pytest.raises(ValueError):
        birkhoff_sup(counting_plan(SFT((-1, 1), [(-1,), (1,)]), SIGN), 3)


def test_birkhoff_sturmian_walk_decays():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    assert birkhoff_sup(counting_plan(walk, SIGN), 5) == Fraction(1, 5)
    assert birkhoff_sup(counting_plan(walk, SIGN), 25) == Fraction(3, 25)
    assert birkhoff_sup(counting_plan(walk, SIGN), 500) == Fraction(1, 125)


# radius 1, values in -2..2, so flips change up to three window values
TRIPLE = Cocycle({(a, b, c): a * b + c for a in (-1, 1) for b in (-1, 1)
                  for c in (-1, 1)}, radius=1)
STURMIAN_BASES = (lambda: Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2)),
                  lambda: Sturmian(GOLDEN_MEAN_ALPHA),
                  lambda: Sturmian(Fraction(8, 21), Fraction(1, 2)),
                  lambda: Sturmian(Fraction(8, 21)))


def birkhoff_by_words(spec, tau, n, word_cap):
    """The word loop: max |tau^n| over an explicit word list."""
    words = spec.words(n + 2 * tau.radius, word_cap=word_cap)
    return Fraction(max(abs(ergodic_sums(tau, w)[-1]) for w in words), n)


def outcome(fn):
    try:
        return fn()
    except (CapExceeded, SturmianHorizonError) as exc:
        return type(exc)


@pytest.mark.parametrize("tau", [SIGN, TRIPLE])
def test_birkhoff_streamed_on_cells_matches_word_loop(tau):
    for make in STURMIAN_BASES:
        spec = make()
        for n in range(1, 19):
            assert birkhoff_sup(counting_plan(spec, tau), n) == \
                birkhoff_by_words(spec, tau, n, None), (spec, n)


@pytest.mark.parametrize("tau", [SIGN, TRIPLE])
def test_birkhoff_streamed_refuses_the_same_requests(tau):
    # fresh instances, so each request places its own cuts; the rational
    # angle has period 21, so its last lengths pass the horizon
    for make in STURMIAN_BASES:
        for n in (3, 8, 19, 20, 25):
            for cap in (None, n, n + 2 * tau.radius, 2 * n, 2 * n + 4):
                got = outcome(lambda: birkhoff_sup(
                    counting_plan(make(), tau, word_cap=cap), n))
                want = outcome(lambda: birkhoff_by_words(make(), tau, n,
                                                         cap))
                assert got == want, (make(), n, cap)


def test_birkhoff_sturmian_walk_streams_at_ten_thousand(monkeypatch):
    def no_words(*_args, **_kwargs):
        raise AssertionError("birkhoff_sup built a word list")

    walk = get_preset("sturmian-walk")
    monkeypatch.setattr(Sturmian, "words", no_words)
    plan = counting_plan(walk["base"], walk["tau"])
    assert birkhoff_sup(plan, 10 ** 4) == Fraction(3, 5000)
