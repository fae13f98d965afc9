"""Scales, slow-entropy diagnostics, and the sequence-entropy toolkit.

Slow entropy compares spanning counts against a scale a_n(t): the
invariant is the threshold value of t where limsup spa / a_n(t) drops
from positive to zero.  Limits are not computable from finite data, so
everything here is an estimator with its finite-n semantics in its
name and report label: ratio curves carry certified count brackets,
and the report returns the largest grid t whose ratio at n_max still
exceeds a threshold.

Two scale families come from range profiles of a cocycle walk:
    range-exp    a_n(t) = sum over w in L_{n,s} of exp(t * q_n(w))
    range-inner  c_n(t) = sum over w in L_{n,s} of inner(r_n(w), t)
both grouped by profile class, evaluated in the log domain against
overflow, with exact big-rational modes for regression tests.

The sequence-entropy half: S_A(n, m) footprints and the K(A) double
limit on schedules, Hamming ball counts and their exponent, the
Bernoulli sequence entropy for Goodwyn's inequality, Folner defects
C_m(F_n) - 1, and the Birkhoff sup |tau^n| / n whose decay witnesses
zero entropy of the skew product.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .cocycle import (c_m, cover_size, ergodic_sums, profile_counts,
                      read_factor)
from .fiber import spa_bracket
from .skew import SkewSystem, capacity_A
from .symbolic import DEFAULT_WORD_CAP, Sturmian
from .util import log_big, log_sum_exp


# ---------------------------------------------------------------------------
# scales


class ExpScale:
    """a_n(t) = e^{n t}."""

    kind = "exp"

    def log_eval(self, n, t):
        return n * float(t)

    def eval(self, n, t):
        return math.exp(self.log_eval(n, t))

    def eval_exact(self, n, base):
        """Exact value with base = e^t given as a rational."""
        return Fraction(base) ** n


class PolyScale:
    """a_n(t) = n^t."""

    kind = "poly"

    def log_eval(self, n, t):
        if n < 1:
            raise ValueError("n must be >= 1")
        return float(t) * math.log(n)

    def eval(self, n, t):
        return math.exp(self.log_eval(n, t))

    def eval_exact(self, n, t):
        t = int(t)
        if t < 0:
            raise ValueError("exact polynomial mode needs integer t >= 0")
        return Fraction(n) ** t


class RangeExpScale:
    """a_n(t) = sum over words of e^{t q_n(w)}, grouped by profile class."""

    kind = "range-exp"

    def __init__(self, spec, tau, word_cap=DEFAULT_WORD_CAP):
        self.spec = spec
        self.tau = tau
        self.word_cap = word_cap
        self._cache = {}

    def _classes(self, n):
        got = self._cache.get(n)
        if got is None:
            counts = profile_counts(self.spec, self.tau, n,
                                    word_cap=self.word_cap)
            got = sorted((q, cnt) for (_r, q), cnt in counts.items())
            self._cache[n] = got
        return got

    def log_eval(self, n, t):
        t = float(t)
        return log_sum_exp([log_big(cnt) + t * q
                            for q, cnt in self._classes(n)])

    def eval(self, n, t):
        return math.exp(self.log_eval(n, t))

    def eval_exact(self, n, base):
        """Exact sum with base = e^t rational, e.g. base 2 for t = ln 2."""
        b = Fraction(base)
        return sum(cnt * b ** q for q, cnt in self._classes(n))


class RangeInnerScale:
    """c_n(t) = sum over words of inner(r_n(w), t) for another scale inner."""

    kind = "range-inner"

    def __init__(self, spec, tau, inner=None, word_cap=DEFAULT_WORD_CAP):
        self.spec = spec
        self.tau = tau
        self.inner = PolyScale() if inner is None else inner
        self.word_cap = word_cap
        self._cache = {}

    def _classes(self, n):
        got = self._cache.get(n)
        if got is None:
            counts = profile_counts(self.spec, self.tau, n,
                                    word_cap=self.word_cap)
            grouped = {}
            for (r, _q), cnt in counts.items():
                grouped[r] = grouped.get(r, 0) + cnt
            got = sorted(grouped.items())
            self._cache[n] = got
        return got

    def log_eval(self, n, t):
        return log_sum_exp([log_big(cnt) + self.inner.log_eval(r, t)
                            for r, cnt in self._classes(n)])

    def eval(self, n, t):
        return math.exp(self.log_eval(n, t))

    def eval_exact(self, n, t):
        return sum(cnt * self.inner.eval_exact(r, t)
                   for r, cnt in self._classes(n))


# ---------------------------------------------------------------------------
# ratio curves and the slow-entropy estimator


@dataclass(frozen=True)
class RatioCurve:
    t: float
    rows: tuple  # of (n, ratio_lower, ratio_upper)


def count_bracket(target, n, epsilon, word_cap=DEFAULT_WORD_CAP):
    """Certified (lower, upper) spanning bracket for a fiber or skew system."""
    if isinstance(target, SkewSystem):
        cb = capacity_A(target, n, epsilon, word_cap=word_cap)
        return cb.lower, cb.upper
    return spa_bracket(target, range(n), epsilon, word_cap=word_cap)


@dataclass(frozen=True)
class SlowEntropyReport:
    t_upper: float
    t_lower: float
    curves: tuple  # of RatioCurve, one per grid t
    threshold: float
    n_max: int
    empty_upper: bool
    empty_lower: bool
    saturated_upper: bool
    saturated_lower: bool
    label: str = "finite-n diagnostic, not a limit"


def slow_entropy_report(target, scale, epsilon, n_max, t_grid,
                        threshold=1e-3, word_cap=DEFAULT_WORD_CAP,
                        bracket=None):
    """Threshold-crossing estimates of the slow-entropy value of t.

    t_upper is the largest grid t whose upper ratio at n_max still
    exceeds the threshold (the finite-n stand-in for limsup > 0);
    t_lower uses the lower ratios.  When no grid point clears the
    threshold the defining set is empty at this resolution and the grid
    minimum is reported with the corresponding empty flag set.  When the
    grid maximum still clears it, the crossing lies at or above the top
    of the grid: the maximum is reported with the saturated flag set.  A
    caller already holding count_bracket(target, n_max, epsilon) passes
    it as bracket.
    """
    grid = sorted(float(t) for t in t_grid)
    if not grid:
        raise ValueError("empty t grid")
    # one count bracket serves the whole grid; only the scale varies with t
    if bracket is None:
        bracket = count_bracket(target, n_max, epsilon, word_cap)
    lo, hi = bracket
    llo = log_big(lo) if lo > 0 else None
    lhi = log_big(hi) if hi > 0 else None
    curves = []
    for t in grid:
        log_scale = scale.log_eval(n_max, t)
        rlo = math.exp(llo - log_scale) if llo is not None else 0.0
        rhi = math.exp(lhi - log_scale) if lhi is not None else 0.0
        curves.append(RatioCurve(t=float(t), rows=((int(n_max), rlo, rhi),)))
    curves = tuple(curves)
    up = [c.t for c in curves if c.rows[-1][2] > threshold]
    low = [c.t for c in curves if c.rows[-1][1] > threshold]
    return SlowEntropyReport(
        t_upper=max(up) if up else grid[0],
        t_lower=max(low) if low else grid[0],
        curves=curves, threshold=float(threshold), n_max=int(n_max),
        empty_upper=not up, empty_lower=not low,
        saturated_upper=grid[-1] in up, saturated_lower=grid[-1] in low)


def h_top_estimate(fiber, epsilon, n_max, word_cap=DEFAULT_WORD_CAP):
    """((1/n) log lower, (1/n) log upper) for F = [0, n_max)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    lo, hi = spa_bracket(fiber, range(n_max), epsilon, word_cap=word_cap)
    flo = log_big(lo) / n_max if lo > 0 else float("-inf")
    fhi = log_big(hi) / n_max if hi > 0 else float("-inf")
    return flo, fhi


# ---------------------------------------------------------------------------
# sequences, S_A footprints, K(A)


class Arithmetic:
    """t_i = start + (i-1) * step, strictly increasing naturals."""

    def __init__(self, start, step):
        if start < 1 or step < 1:
            raise ValueError("start and step must be >= 1")
        self.start = int(start)
        self.step = int(step)

    def __repr__(self):
        return "Arithmetic(%d, %d)" % (self.start, self.step)

    def terms(self, n):
        return [self.start + i * self.step for i in range(n)]


class Geometric:
    """t_i = base^i for i = 1..n."""

    def __init__(self, base):
        if base < 2:
            raise ValueError("base must be >= 2")
        self.base = int(base)

    def __repr__(self):
        return "Geometric(%d)" % (self.base,)

    def terms(self, n):
        out = []
        v = 1
        for _ in range(n):
            v *= self.base
            out.append(v)
        return out


class Explicit:
    """A finite strictly increasing list; longer requests clamp to it."""

    def __init__(self, values):
        vals = [int(v) for v in values]
        if not vals or vals[0] < 1:
            raise ValueError("values must be naturals >= 1")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be strictly increasing")
        self.values = vals

    def __repr__(self):
        return "Explicit(%r)" % (self.values,)

    def terms(self, n):
        return self.values[:n]


def sa_size(A, n, m):
    """|S_A(n, m)| = |{t_i + j : i <= n, 0 <= j < m}|, exactly.

    The C_m cover of the terms, which are strictly increasing already.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    terms = A.terms(n)
    if not terms:
        raise ValueError("sequence has no terms")
    return cover_size(terms, m)


@dataclass(frozen=True)
class KEstimate:
    value: Fraction
    stabilized_m: int
    diverged: bool
    rows: tuple  # of (m, n, Fraction value)
    last: Fraction


def k_estimate(A, n_schedule=(10 ** 4,), m_schedule=(1, 2, 4, 8, 16)):
    """Double-limit estimate of K(A) = lim_m limsup_n |S_A(n, m)| / n.

    Evaluates v(m) = |S_A(n, m)| / n at the largest scheduled n (clamped
    for finite Explicit sequences) and declares stabilization at the
    first m whose successor changes v by less than 1/100.  If no pair
    stabilizes the estimate is flagged diverged, the finite signature of
    the K(A) = infinity regime.
    """
    ms = sorted(set(int(m) for m in m_schedule))
    if len(ms) < 2:
        raise ValueError("need at least two m values")
    n_max = max(int(n) for n in n_schedule)
    if isinstance(A, Explicit):
        n_max = min(n_max, len(A.values))
    rows = []
    vals = []
    for m in ms:
        v = Fraction(sa_size(A, n_max, m), n_max)
        rows.append((m, n_max, v))
        vals.append(v)
    tol = Fraction(1, 100)
    for i in range(len(ms) - 1):
        if abs(vals[i + 1] - vals[i]) < tol:
            return KEstimate(value=vals[i], stabilized_m=ms[i],
                             diverged=False, rows=tuple(rows), last=vals[-1])
    return KEstimate(value=None, stabilized_m=None, diverged=True,
                     rows=tuple(rows), last=vals[-1])


# ---------------------------------------------------------------------------
# Hamming balls and Goodwyn


def hamming_ball_count(kF, n, r):
    """Exact points within Hamming distance strictly below r of a center.

    Counts words over kF letters differing from a fixed word in j < r*n
    positions: sum of C(n, j) (kF - 1)^j, the fraction r*n handled
    exactly so boundary cases never round.  Each term comes from the
    last by C(n, j+1) = C(n, j) (n - j) / (j + 1); the division is exact.
    """
    if kF < 2 or n < 1:
        raise ValueError("need kF >= 2 and n >= 1")
    rn = Fraction(r) * n
    if rn <= 0:
        raise ValueError("r must be positive")
    if rn.denominator == 1:
        jmax = rn.numerator - 1
    else:
        jmax = math.floor(rn)
    jmax = min(jmax, n)
    total = 0
    term = 1
    for j in range(jmax + 1):
        total += term
        term = term * (n - j) * (kF - 1) // (j + 1)
    return total


def hamming_exponent(kF, r):
    """r log(kF-1) - r log r - (1-r) log(1-r), the ball-count growth rate.

    Defined for 0 < r <= (kF-1)/kF; the right endpoint is the full
    entropy log kF.
    """
    rf = Fraction(r)
    if not (0 < rf <= Fraction(kF - 1, kF)):
        raise ValueError("r must lie in (0, (kF-1)/kF]")
    r = float(rf)
    ent = -r * math.log(r) - (1 - r) * math.log(1 - r) if r < 1 else 0.0
    return r * math.log(kF - 1) + ent


def bernoulli_seq_entropy(k, A, n):
    """(1/n) H of the time-{t_1..t_n} coordinates, uniform Bernoulli k-shift.

    Coordinates at distinct times are independent with entropy log k
    each, so the value is |{t_1..t_n}| / n * log k; sequence types force
    distinct terms, making this log k on every admissible input.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    terms = A.terms(n)
    if not terms:
        raise ValueError("sequence has no terms")
    distinct = len(set(terms))
    return Fraction(distinct, min(n, len(terms))) * math.log(k)


def goodwyn_check(k, A, n=1000, n_schedule=(10 ** 4,),
                  m_schedule=(1, 2, 4, 8, 16)):
    """Sequence-entropy Goodwyn inequality h_mu^A <= K(A) * h_top on data.

    lhs is the Bernoulli sequence entropy, rhs the K(A) estimate times
    log k; a diverged estimate uses the largest observed value, which
    only strengthens the inequality being checked.
    """
    est = k_estimate(A, n_schedule=n_schedule, m_schedule=m_schedule)
    kval = est.last if est.diverged else est.value
    n_eff = min(n, len(A.values)) if isinstance(A, Explicit) else n
    lhs = float(bernoulli_seq_entropy(k, A, n_eff))
    rhs = float(kval) * math.log(k)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + 1e-9,
            "k_estimate": est}


# ---------------------------------------------------------------------------
# Folner defect and Birkhoff sup


def folner_defect(family, m, n_list):
    """[(n, C_m(F_n) - 1)] for a finite-set family indexed by n.

    family is a callable n -> iterable of integers.  The defect
    vanishes along Folner families and stays bounded away from zero
    otherwise.
    """
    out = []
    for n in n_list:
        # pass the family's set through unlistified so range inputs keep
        # their closed-form cover
        _, cm = c_m(family(int(n)), m)
        out.append((int(n), cm - 1))
    return out


def interval_family(n):
    return range(n)


def evens_family(n):
    return range(2, 2 * n + 1, 2)


def powers_family(n):
    return [2 ** i for i in range(1, n + 1)]


FAMILIES = {"interval": interval_family, "evens": evens_family,
            "powers": powers_family}


def birkhoff_sup(spec, tau, n, word_cap=DEFAULT_WORD_CAP):
    """max over w in L_{n,s} of |tau^n(w)| / n, an exact rational.

    Decay in n witnesses uniform convergence of the ergodic averages to
    zero, the zero-entropy criterion's hypothesis; the full shift with a
    coordinate cocycle stays at 1 forever, as it should.  The max is
    taken over the factor the rule reads (read_factor): the dropped
    factors change no sum.  On a Sturmian factor the sums stream along
    the cells of its cut walk and no word list is built (_cell_sum_max);
    every other base loops over its words.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec, tau, _ = read_factor(spec, tau)
    if isinstance(spec, Sturmian):
        return Fraction(_cell_sum_max(spec, tau, n, word_cap), n)
    s = tau.radius
    best = None
    for w in spec.words(n + 2 * s, word_cap=word_cap):
        v = abs(ergodic_sums(tau, w)[-1])
        if best is None or v > best:
            best = v
    if best is None:
        raise ValueError("empty language at n=%d" % n)
    return Fraction(best, n)


def _cell_sum_max(spec, tau, n, word_cap):
    """max |tau^n| over the words of Sturmian.cells(n + 2s).

    A flip at word index p changes only the window values j in
    [p - 2s, p], so each crossed cut recomputes those and moves the
    running total by their change.  The word is already flipped at every
    crossed position, so a window shared by two flips is recomputed to
    the same value and moves the total once.
    """
    width = 2 * tau.radius + 1
    cells = spec.cells(n + width - 1, word_cap)
    cur, _ = next(cells)
    vals = [tau.value(cur[j:j + width]) for j in range(n)]
    total = sum(vals)
    best = abs(total)
    for cur, crossed in cells:
        for p, _ in crossed:
            for j in range(max(0, p - width + 1), min(p + 1, n)):
                v = tau.value(cur[j:j + width])
                total += v - vals[j]
                vals[j] = v
        best = max(best, abs(total))
    return best
