"""Acceptance battery: ten end-to-end checks with tolerances and budgets.

Each test states its tolerance and wall-clock budget inline.  The checks
pit independent evaluation paths against each other (vectorized cylinder
grouping vs window counting, DP vs enumeration, analytic exponents vs
big-integer counts) and pin the headline quantities: the full 2-shift at
ln 2, the certified capacity sandwich with a bounded constant, threshold
estimates near ln 2, exact sequence-growth constants, and the Sturmian
zero-entropy family.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from entroscope.cocycle import (Cocycle, counting_plan, ergodic_sums,
                                range_distribution)
from entroscope.entropy import (RangeExpScale, birkhoff_sup, h_top_estimate,
                                slow_entropy_report)
from entroscope.exactnum import GOLDEN_MEAN_ALPHA
from entroscope.fiber import (SymbolicFiber, sep_exact_symbolic, sep_greedy,
                              spa_bracket)
from entroscope.presets import get_preset
from entroscope.sequence import (Arithmetic, Explicit, Geometric, evens_family,
                                 folner_defect, goodwyn_check,
                                 hamming_ball_count, hamming_exponent,
                                 interval_family, k_estimate)
from entroscope.skew import SkewSystem, capacity_A, sandwich_check
from entroscope.symbolic import SFT, FullShift, Sturmian, complexity, rho

LOG2 = math.log(2)


def test_window_oracle_against_cylinder_grouping():
    """sep_exact_symbolic == greedy acceptance over exhaustive cylinder
    representatives: 20 seeded random SFTs (alphabet <= 3, forbidden
    length <= 3), every nonempty F in [0,6) with <= 4 elements, eps in
    {0.6, 0.3, 0.15}.  Exact equality; budget 60 s.

    On subshift windows two representatives are eps-close exactly when
    their radius-rho scan data agree, so any greedy acceptance order
    accepts one representative per distinct signature; the count is
    evaluated by vectorized signature grouping, and the literal pairwise
    metric greedy is run on the small instances as a second witness.
    """
    t0 = time.monotonic()
    eps_grid = (Fraction(3, 5), Fraction(3, 10), Fraction(3, 20))
    rmax = max(rho(e) for e in eps_grid)
    subsets = []
    for mask in range(1, 1 << 6):
        F = tuple(i for i in range(6) if mask >> i & 1)
        if len(F) <= 4:
            subsets.append(F)
    assert len(subsets) == 56

    def draw_sft(rng):
        from entroscope.symbolic import language_on
        while True:
            k = rng.choice((2, 2, 3))
            forb = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))]
            spec = SFT(k, forb)
            hull = language_on(spec, range(-rmax, 6 + rmax), word_cap=None)
            if hull:
                return spec, hull

    rng = random.Random(160816)
    greedy_runs = 0
    for _trial in range(20):
        spec, hull = draw_sft(rng)
        k = len(spec.labels)
        arr = np.array(hull, dtype=np.int8).astype(np.int64)
        T = SymbolicFiber(spec)
        for F in subsets:
            for eps in eps_grid:
                r = rho(eps)
                cols = sorted({i + d for i in F for d in range(-r, r + 1)})
                idx = [c + rmax for c in cols]
                powers = k ** np.arange(len(idx), dtype=np.int64)
                grouped = int(np.unique(arr[:, idx] @ powers).size)
                lib = sep_exact_symbolic(spec, F, eps)
                assert lib == grouped, (spec, F, eps, lib, grouped)
                if greedy_runs < 40:
                    sample = T.sample_points(F, eps)
                    if len(sample) <= 400:
                        assert sep_greedy(T, sample, F, eps) == lib
                        greedy_runs += 1
    assert greedy_runs == 40
    assert time.monotonic() - t0 < 60.0


def test_full_shift_entropy_bracket():
    """h_top bracket for the full 2-shift at eps=1/2, n=200: brackets
    ln 2 with width <= 0.03 nats.  Budget 1 s (closed-form counts)."""
    t0 = time.monotonic()
    lo, hi = h_top_estimate(SymbolicFiber(FullShift(2)), Fraction(1, 2), 200)
    assert lo - 1e-12 <= LOG2 <= hi + 1e-12
    assert hi - lo <= 0.03
    assert time.monotonic() - t0 < 1.0


def test_capacity_sandwich_certified():
    """Two-sided capacity comparison on the two-sided-walk preset at
    eps=1/4, n in 2..6: lower capacity endpoint <= direct skew count,
    inferred constant <= 64 and non-growing, all endpoints exact
    integers.  Budget 5 min."""
    t0 = time.monotonic()
    ctx = get_preset("tt-inverse")
    system = SkewSystem(counting_plan(ctx["base"], ctx["tau"]),
                        ctx["fiber"])
    res = sandwich_check(system, range(2, 7), Fraction(1, 4))
    assert res["pass"]
    e_vals = [row.e_inferred for row in res["rows"]]
    assert all(e <= 64 for e in e_vals)
    assert all(a >= b for a, b in zip(e_vals, e_vals[1:]))
    for row in res["rows"]:
        assert row.a2_lower <= row.skew_lo  # the stated left inequality
        for v in (row.a2_lower, row.a2_upper, row.skew_lo, row.skew_hi,
                  row.ahalf_lower, row.ahalf_upper):
            assert isinstance(v, int)
    assert time.monotonic() - t0 < 300.0


def test_slow_entropy_estimates_near_log2():
    """Threshold-crossing estimates for the two-sided-walk preset with
    the range-exp scale at n_max=200, grid 0.3..1.1 step 0.05: both
    t estimates within 0.1 of ln 2.  Budget 2 min."""
    t0 = time.monotonic()
    ctx = get_preset("tt-inverse")
    system = SkewSystem(counting_plan(ctx["base"], ctx["tau"]),
                        ctx["fiber"])
    scale = RangeExpScale(system.plan)
    rep = slow_entropy_report(system, scale, Fraction(1, 4), 200,
                              ctx["t_grid"])
    assert not rep.empty_upper and not rep.empty_lower
    assert abs(rep.t_upper - LOG2) <= 0.1
    assert abs(rep.t_lower - LOG2) <= 0.1
    assert time.monotonic() - t0 < 120.0


def test_range_distribution_dp_vs_enumeration():
    """The range-distribution DP equals exhaustive enumeration for
    n <= 14 on the full 2-shift and the golden-mean SFT.  Exact
    equality; budget 30 s."""
    t0 = time.monotonic()
    tau = Cocycle({(-1,): -1, (1,): 1})
    for base in (FullShift((-1, 1)), SFT((-1, 1), [(1, 1)])):
        plan = counting_plan(base, tau)
        for n in range(1, 15):
            dist = range_distribution(plan, n)
            brute = Counter(len(set(ergodic_sums(tau, w)[:-1]))
                            for w in base.words(n))
            assert dist == dict(brute), (base, n)
    assert time.monotonic() - t0 < 30.0


def test_sequence_growth_constants():
    """K estimates: Arithmetic(1,1) -> 1 exactly at m=1; Arithmetic(2,2)
    -> 2 exactly at m=2; Geometric(2) -> divergence flagged across the
    default m schedule ending at 16, n=10^4.  Budget 10 s."""
    t0 = time.monotonic()
    est = k_estimate(Arithmetic(1, 1))
    assert not est.diverged and est.value == 1 and est.stabilized_m == 1
    est = k_estimate(Arithmetic(2, 2))
    assert not est.diverged and est.value == 2 and est.stabilized_m == 2
    est = k_estimate(Geometric(2))
    assert est.diverged and est.value is None
    assert time.monotonic() - t0 < 10.0


def test_hamming_ball_count_matches_exponent():
    """Normalized log of the exact ball count vs the analytic exponent
    at kF=2, r=0.3, n=2000: gap <= 0.01.  Budget 5 s."""
    t0 = time.monotonic()
    r = Fraction(3, 10)
    want = hamming_exponent(2, r)
    assert math.isclose(want, -0.3 * math.log(0.3) - 0.7 * math.log(0.7))
    n = 2000
    got = math.log(hamming_ball_count(2, n, r)) / n
    assert abs(got - want) <= 0.01
    assert time.monotonic() - t0 < 5.0


def test_goodwyn_inequality_instances():
    """Sequence entropy <= K(A) * ln 2 + 1e-9 for Arithmetic(1,1),
    Arithmetic(2,2), and the squares up to 400.  Budget 5 s."""
    t0 = time.monotonic()
    squares = Explicit([i * i for i in range(1, 21)])
    for A in (Arithmetic(1, 1), Arithmetic(2, 2), squares):
        res = goodwyn_check(2, A)
        assert res["ok"], (A, res["lhs"], res["rhs"])
        assert res["lhs"] <= res["rhs"] + 1e-9
    assert time.monotonic() - t0 < 5.0


def test_sturmian_zero_entropy_family():
    """Sturmian coding at the golden rotation number: complexity n+1
    for n <= 30 in exact arithmetic; birkhoff sup strictly decreasing
    over n in {10, 100, 1000}; capacity growth (1/n) ln A_n(1/2)
    <= 0.05 at n=2000 for the balanced-walk preset.  Budget 2 min."""
    t0 = time.monotonic()
    coding = Sturmian(GOLDEN_MEAN_ALPHA)
    for n in range(1, 31):
        assert complexity(coding, n) == n + 1
    ctx = get_preset("sturmian-walk")
    system = SkewSystem(counting_plan(ctx["base"], ctx["tau"]),
                        ctx["fiber"])
    b = [birkhoff_sup(system.plan, n) for n in (10, 100, 1000)]
    assert b[0] > b[1] > b[2]
    cb = capacity_A(system, 2000, Fraction(1, 2))
    assert math.log(cb.upper) / 2000 <= 0.05
    assert time.monotonic() - t0 < 120.0


def test_folner_defect_exact_forms():
    """Interval family at m=3 has defect exactly 2/n and the evens at
    m=2 exactly 1, for every n <= 10^4.  Budget 5 s."""
    t0 = time.monotonic()
    for n, defect in folner_defect(interval_family, 3, range(1, 10001)):
        assert defect == Fraction(2, n)
    for _n, defect in folner_defect(evens_family, 2, range(1, 10001)):
        assert defect == 1
    assert time.monotonic() - t0 < 5.0
