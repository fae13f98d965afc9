"""Scales, slow-entropy diagnostics, and the Birkhoff sup.

Slow entropy compares spanning counts against a scale a_n(t): the
invariant is the threshold value of t where limsup spa / a_n(t) drops
from positive to zero.  Limits are not computable from finite data, so
everything here is an estimator with its finite-n semantics in its
name and report label: the report's ratios divide certified count
brackets by the scale on a ladder of n, and its estimate is the largest
grid t whose ratio at n_max still exceeds a threshold.

Two scale families come from range profiles of a cocycle walk:
    range-exp    a_n(t) = sum over w in L_{n,s} of exp(t * q_n(w))
    range-inner  c_n(t) = sum over w in L_{n,s} of r_n(w)^t
both grouped by profile class of a counting plan's words (sharing its
memo with the count brackets), evaluated in the log domain against
overflow, with exact big-rational modes for regression tests.

The Birkhoff sup |tau^n| / n, whose decay witnesses zero entropy of the
skew product, closes the module.  The sequence-entropy toolkit lives in
sequence; hamming_ball_count and k_estimate are bound here as well, the
names the benchmark's tracer (perfbench/tracer.py) wraps as entropy.*.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .cocycle import (_check_steps, ergodic_sums, profile_counts,
                      range_distribution)
from .fiber import spa_bracket
from .sequence import hamming_ball_count, k_estimate  # noqa: F401
from .skew import SkewSystem, capacity_A, request_histograms
from .util import log_big, log_sum_exp


# ---------------------------------------------------------------------------
# scales


class ExpScale:
    """a_n(t) = e^{n t}."""

    def log_eval(self, n, t):
        return n * float(t)

    def eval_exact(self, n, base):
        """Exact value with base = e^t given as a rational."""
        return Fraction(base) ** n


class PolyScale:
    """a_n(t) = n^t."""

    def log_eval(self, n, t):
        if n < 1:
            raise ValueError("n must be >= 1")
        return float(t) * math.log(n)

    def eval_exact(self, n, t):
        t = int(t)
        if t < 0:
            raise ValueError("exact polynomial mode needs integer t >= 0")
        return Fraction(n) ** t


class RangeExpScale:
    """a_n(t) = sum over a plan's words of e^{t q_n(w)}, by profile class."""

    def __init__(self, plan):
        self.plan = plan
        self._cache = {}
        self._logs = {}  # {n: [(log count, q)]}, read by every grid t

    def _counts(self, n):
        got = self._cache.get(n)
        if got is None:
            counts = profile_counts(self.plan, n)
            got = sorted((q, cnt) for (_r, q), cnt in counts.items())
            self._cache[n] = got
        return got

    def log_eval(self, n, t):
        t = float(t)
        logs = self._logs.get(n)
        if logs is None:
            logs = self._logs[n] = [(log_big(cnt), q)
                                    for q, cnt in self._counts(n)]
        return log_sum_exp([lc + t * q for lc, q in logs])

    def eval_exact(self, n, base):
        """Exact sum with base = e^t rational, e.g. base 2 for t = ln 2."""
        b = Fraction(base)
        return sum(cnt * b ** q for q, cnt in self._counts(n))


class RangeInnerScale:
    """c_n(t) = sum over a plan's words of r_n(w)^t, grouped by range."""

    _poly = PolyScale()  # r^t

    def __init__(self, plan):
        self.plan = plan
        self._cache = {}

    def _counts(self, n):
        got = self._cache.get(n)
        if got is None:
            got = sorted(range_distribution(self.plan, n).items())
            self._cache[n] = got
        return got

    def log_eval(self, n, t):
        return log_sum_exp([log_big(cnt) + self._poly.log_eval(r, t)
                            for r, cnt in self._counts(n)])

    def eval_exact(self, n, t):
        return sum(cnt * self._poly.eval_exact(r, t)
                   for r, cnt in self._counts(n))


# ---------------------------------------------------------------------------
# count brackets and the slow-entropy estimator


def count_bracket(target, n, epsilon):
    """Certified (lower, upper) spanning bracket for a fiber or skew system."""
    if isinstance(target, SkewSystem):
        cb = capacity_A(target, n, epsilon)
        return cb.lower, cb.upper
    return spa_bracket(target, range(n), epsilon)


# rows holds (t, n, ratio_lower, ratio_upper), t-major and n ascending;
# ladder the ladder's n, ascending; brackets {n: count_bracket at n} for
# every n of rows
SlowEntropyReport = namedtuple("SlowEntropyReport", (
    "t_upper t_lower rows ladder brackets threshold n_max empty_upper "
    "empty_lower saturated_upper saturated_lower label"),
    defaults=("finite-n diagnostic, not a limit",))


def slow_entropy_report(target, scale, epsilon, n_max, t_grid,
                        threshold=1e-3):
    """Ratios A_n(eps) / a_n(t) and threshold-crossing estimates of t.

    The ratios are taken at n_max and on the doubling ladder
    {max(2, n_max >> k) : k < 4}, for every grid t in ascending order;
    rows holds each as (t, n, ratio_lower, ratio_upper), the count
    bracket's ends over the scale.  t_upper is the largest grid t whose
    upper ratio at n_max still exceeds the threshold (the finite-n
    stand-in for limsup > 0); t_lower uses the lower ratios.  When no
    grid point clears the threshold the defining set is empty at this
    resolution and the grid minimum is reported with the corresponding
    empty flag set.  When the grid maximum still clears it, the crossing
    lies at or above the top of the grid: the maximum is reported with
    the saturated flag set.  The threshold must be finite and positive.
    """
    grid = sorted(float(t) for t in t_grid)
    if not grid:
        raise ValueError("empty t grid")
    threshold = float(threshold)
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError("threshold must be finite and > 0, got %r"
                         % threshold)
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ladder = tuple(sorted({max(2, n_max >> k) for k in range(4)}))
    ns = sorted(set(ladder) | {n_max})
    if isinstance(target, SkewSystem):
        # one request for every n: the brackets, and a range scale on
        # the same plan, read the histograms back from the memo
        request_histograms(target, ns, ())
    # one count bracket per n serves the whole grid; only the scale
    # varies with t
    brackets = {n: count_bracket(target, n, epsilon) for n in ns}
    rows = []
    for t in grid:
        for n in ns:
            log_scale = scale.log_eval(n, t)
            rlo, rhi = (math.exp(log_big(c) - log_scale) if c > 0 else 0.0
                        for c in brackets[n])
            rows.append((t, n, rlo, rhi))
    top = [row for row in rows if row[1] == n_max]
    up = [t for t, _n, _lo, hi in top if hi > threshold]
    low = [t for t, _n, lo, _hi in top if lo > threshold]
    return SlowEntropyReport(
        t_upper=max(up) if up else grid[0],
        t_lower=max(low) if low else grid[0],
        rows=tuple(rows), ladder=ladder, brackets=brackets,
        threshold=threshold, n_max=n_max,
        empty_upper=not up, empty_lower=not low,
        saturated_upper=grid[-1] in up, saturated_lower=grid[-1] in low)


def h_top_estimate(fiber, epsilon, n_max):
    """((1/n) log lower, (1/n) log upper) for F = [0, n_max)."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    lo, hi = spa_bracket(fiber, range(n_max), epsilon)
    flo = log_big(lo) / n_max if lo > 0 else float("-inf")
    fhi = log_big(hi) / n_max if hi > 0 else float("-inf")
    return flo, fhi


# ---------------------------------------------------------------------------
# Birkhoff sup


def birkhoff_sup(plan, n):
    """max over w in L_{n,s} of |tau^n(w)| / n, an exact rational.

    Decay in n witnesses uniform convergence of the ergodic averages to
    zero, the zero-entropy criterion's hypothesis; the full shift with a
    coordinate cocycle stays at 1 forever, as it should.  The max is
    taken over the factor the rule reads: the dropped factors change no
    sum.  The plan's sup (cocycle.counting_plan) says how: on a
    Sturmian factor the sums stream along the cells of its cut walk and
    no word list is built (_cell_sum_max); a radius-0 rule on a full
    shift or SFT takes the extreme sums in one pass over the graph
    (_graph_sum_max), so the plan's word cap does not apply; every other
    base loops over its words.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec, tau = plan.factor, plan.rule
    if plan.sup == "cell walk":
        return Fraction(_cell_sum_max(plan, n), n)
    if plan.sup == "graph pass":
        return Fraction(_graph_sum_max(spec, tau.step_values(), n), n)
    s = tau.radius
    best = None
    for w in spec.words(n + 2 * s, word_cap=plan.word_cap):
        v = abs(ergodic_sums(tau, w)[-1])
        if best is None or v > best:
            best = v
    if best is None:
        raise ValueError("empty language at n=%d" % n)
    return Fraction(best, n)


def _graph_sum_max(spec, vals, n):
    """max |tau^n| over L_n of a full shift or SFT, tau the steps vals.

    A word of L_n longer than the graph's memory K is a node (its first
    K letters) and a path of n - K edges, and tau^n sums the steps of
    all n letters.  One max-plus and one min-plus pass over the edges
    give, per node, the largest and smallest sum of a word ending
    there, in O(n x edges); shorter words are prefixes of nodes.
    """
    _check_steps(spec, vals)
    states, edges = spec.graph()
    if not states:
        raise ValueError("empty language at n=%d" % n)
    K = spec.context
    if n <= K:
        return max(abs(sum(vals[a] for a in u[:n])) for u in states)
    # (source, step) of each node's in-edges; the trim leaves none empty
    ins = [[] for _ in states]
    for i, row in enumerate(edges):
        for a, j in row:
            ins[j].append((i, vals[a]))
    hi = [sum(vals[a] for a in u) for u in states]
    lo = list(hi)
    for _ in range(n - K):
        hi = [max(hi[i] + v for i, v in into) for into in ins]
        lo = [min(lo[i] + v for i, v in into) for into in ins]
    return max(max(hi), -min(lo))


def _cell_sum_max(plan, n):
    """max |tau^n| over the words of a plan's Sturmian.cells(n + 2s).

    A flip at word index p changes only the window values j in
    [p - 2s, p], so each crossed cut recomputes those and moves the
    running total by their change.  The word is already flipped at every
    crossed position, so a window shared by two flips is recomputed to
    the same value and moves the total once.
    """
    tau = plan.rule
    width = 2 * tau.radius + 1
    cells = plan.factor.cells(n + width - 1, plan.word_cap)
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
