"""The skew product over a subshift, its capacities, and the sandwich check.

The map sends (y, x) to (S y, T^{tau(y)} x): the base shifts, the fiber
moves by the cocycle value read off the base.  Iterates compose to
(S^k y, T^{tau^k(y)} x), so a time-n Bowen ball mixes the base windows
with the fiber's behavior over the visited exponent set
V(y) = {tau^0(y), ..., tau^{n-1}(y)}.

Counts here are exact.  For eps with rho(eps) >= s, closeness in the
skew Bowen metric is an equivalence on cylinder data: two pairs are
eps-close over {0..n-1} iff their base points agree on the window
[-rho, n-1+rho] and their fiber points are eps-close over the shared
visited set.  Distinct base windows force separation at some time
regardless of the fiber.  Hence

    sep(skew, n, eps) = sum over base windows u of sep(T, V(u), eps),

the base windows being the words of L_{n,s} padded by rho - s letters
on each side.  capacity_A brackets A_n(eps) = sum over w in L_{n,s} of
spa(T, V(w), eps) by two such sums over unpadded words.  All of them
take the fiber classes of the words from the system's counting plan
(cocycle.plan_classes), then one sum of fiber counts (_fiber_sum, one
memo per system).  Every fiber map T here is invertible, and T^c
carries the Bowen metric over F + c onto the one over F, so
sep(T, F + c, eps) = sep(T, F, eps): a class is a visited set
translated to start at 0.  A system is a plan and a fiber, so systems
on one plan share its classes.  A counting_plan gives range(r), counted
by the range engines, when visited sets are intervals; otherwise the
visited sets of the factor the rule reads, each counted times the words
of the factors the rule ignores.  Either way request_histograms asks
for every n of a run at once, one request per pad.  The fiber sees
only the visited set, so the sums are exactly those over the product's
own words, and the same counts over cocycle.enumeration_plan are their
oracle.

The independent oracle skew_sep_greedy uses neither reduction: it
walks explicit representative pairs and groups them by the raw scan data
the certified metric predicate reads, so a wrong window radius or a
wrong class count shows up as a mismatch in tests.

sandwich_check verifies
    A_n(2 eps) <= spa(skew, {0..n-1}, eps) <= E * A_n(eps / 2)
on finite data, inferring the minimal constant E from the run.
"""

from collections import namedtuple
from fractions import Fraction

from .cocycle import ergodic_sums, plan_classes
from .fiber import SymbolicFiber, sep_count
from .symbolic import language_on, rho
from .util import DEFAULT_WORD_CAP, CapExceeded, ConfigError


class SkewSystem:
    """Base subshift, integer cocycle and invertible fiber, as one object:
    the plan of base and cocycle (cocycle.counting_plan, or
    enumeration_plan for an oracle) and the fiber.

    Every count over the system reads its fiber classes from the plan
    (plan_classes) and keeps its fiber counts in the system's own memo.
    """

    def __init__(self, plan, fiber):
        tau = plan.tau
        # totality of the rule over the base language, checked up front
        for w in plan.spec.words(2 * tau.radius + 1,
                                 word_cap=DEFAULT_WORD_CAP):
            if w not in tau.rule:
                raise ConfigError(
                    "cocycle rule missing base window %r" % (w,))
        self.plan = plan
        self.fiber = fiber
        # {eps: {class: (count, exact)}}: fiber counts, see _fiber_sum
        self._fiber_counts = {}

    def __repr__(self):
        return "SkewSystem(%r, %r, %r)" % (self.plan.spec, self.plan.tau,
                                           self.fiber)


def _require_window_dominates_radius(tau, epsilon):
    r = rho(epsilon)
    if r < tau.radius:
        raise ConfigError(
            "exact skew counts need rho(eps) >= cocycle radius; "
            "rho(%s) = %d < s = %d" % (epsilon, r, tau.radius))
    return r


def skew_sep_direct(sys, n, epsilon):
    """Exact maximal eps,{0..n-1}-separated count of the skew product.

    Adds, per base window on [-rho, n-1+rho], the fiber's exact separated
    count over the eps-ball structure of its visited exponent set: the
    plan's fiber classes of L_{n,s} padded by rho - s on each side.
    Needs rho(eps) >= s and a fiber with an exact count (every carrier
    here except the toral grid).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = Fraction(epsilon)
    tau = sys.plan.tau
    r = _require_window_dominates_radius(tau, e)
    if e >= 2:
        # every pair of skew points is eps-close at this range
        return 1
    classes = plan_classes(sys.plan, [n], r - tau.radius)[n]
    return _fiber_sum(sys, classes, e, exact=True)


def skew_sep_greedy(sys, n, epsilon, margin=None, pair_cap=2 ** 24):
    """Independent brute-force count over explicit representative pairs.

    Builds every (base window, fiber window) representative on hulls
    wider than the certified scan needs, then groups representatives by
    the exact data the raw closeness predicate reads: per time k, the
    base symbols on [k-rho, k+rho] and the fiber symbols on
    [e_k-rho, e_k+rho] with e_k that representative's own exponent.
    Two representatives are eps-close iff that data coincides, so the
    number of distinct groups is the maximal separated count.  Only
    symbolic fibers are supported; cost is |base reps| * |fiber reps|.
    """
    if not isinstance(sys.fiber, SymbolicFiber):
        raise ConfigError("greedy skew oracle needs a symbolic fiber")
    base, tau = sys.plan.spec, sys.plan.tau
    e = Fraction(epsilon)
    r = _require_window_dominates_radius(tau, e)
    if e >= 2:
        return 1
    if margin is None:
        margin = r + 1
    if margin < r:
        raise ValueError("margin below the scan radius")
    base_lo = -margin
    base_words = language_on(base, range(base_lo, n + margin),
                             word_cap=None)
    # fiber hull: all exponents any base word can visit, widened by margin
    lo_e = hi_e = 0
    exps_per_word = []
    cut = margin - tau.radius
    for w in base_words:
        exps = ergodic_sums(tau, w[cut:len(w) - cut])[:-1]
        exps_per_word.append(exps)
        lo_e = min(lo_e, min(exps))
        hi_e = max(hi_e, max(exps))
    fib_lo = lo_e - margin
    fib_hi = hi_e + margin
    fiber_words = language_on(sys.fiber.spec, range(fib_lo, fib_hi + 1),
                              word_cap=None)
    if len(base_words) * len(fiber_words) > pair_cap:
        raise CapExceeded("representative count %d exceeds cap %d"
                          % (len(base_words) * len(fiber_words), pair_cap))
    groups = set()
    for w, exps in zip(base_words, exps_per_word):
        base_scan = tuple(w[k - base_lo - r:k - base_lo + r + 1]
                          for k in range(n))
        for fw in fiber_words:
            fiber_scan = tuple(fw[e - fib_lo - r:e - fib_lo + r + 1]
                               for e in exps)
            groups.add((base_scan, fiber_scan))
    return len(groups)


# ---------------------------------------------------------------------------
# capacity and the sandwich


CapacityBracket = namedtuple("CapacityBracket", "n epsilon lower upper")


def _fiber_sum(sys, classes, epsilon, exact=False):
    """sum over classes F of count(F) * sep(T, F, eps).

    Each fiber count is computed once per system and (F, eps), so a
    system over an oracle plan reads no count that the fast path's
    system stored.  The memo
    holds one dict per eps, keyed by class, so a lookup hashes no
    Fraction.  With exact set, a fiber that has only a greedy count is a
    config error.
    """
    memo = sys._fiber_counts.setdefault(epsilon, {})
    total = 0
    for F, cnt in classes.items():
        got = memo.get(F)
        if got is None:
            got = memo[F] = sep_count(sys.fiber, F, epsilon)
        if exact and not got[1]:
            raise ConfigError("fiber %r has no exact separated count"
                              % (sys.fiber,))
        total += cnt * got[0]
    return total


def request_histograms(sys, ns, epsilons):
    """Ask the system's plan once for every n of a run, per distinct pad.

    capacity_A reads pad 0 and skew_sep_direct at eps reads pad
    rho(eps) - s; one request per pad lets a single engine pass, or a
    single enumeration, serve every n.
    """
    tau = sys.plan.tau
    pads = {0} | {_require_window_dominates_radius(tau, e) - tau.radius
                  for e in epsilons}
    for pad in sorted(pads):
        plan_classes(sys.plan, ns, pad)


def capacity_A(sys, n, epsilon):
    """Bracket on A_n(eps) = sum over w in L_{n,s} of spa(T, V(w), eps).

    Each word's spanning count is carried as the bracket
    [sep(T, V, 2 eps), sep(T, V, eps)] and the sums keep both endpoints,
    over the plan's fiber classes of L_{n,s}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    classes = plan_classes(sys.plan, [n])[n]
    return CapacityBracket(n=n, epsilon=e,
                           lower=_fiber_sum(sys, classes, 2 * e),
                           upper=_fiber_sum(sys, classes, e))


SandwichRow = namedtuple("SandwichRow", (
    "n epsilon a2_lower a2_upper skew_lo skew_hi ahalf_lower ahalf_upper "
    "e_inferred left_certified left_stated"))


def sandwich_check(sys, n_range, epsilon):
    """Finite-n verification of A_n(2e) <= spa(skew, e) <= E * A_n(e/2).

    Per n the report carries the A_n(2 eps) bracket, the skew spanning
    bracket [sep(2 eps), sep(eps)], the A_n(eps/2) bracket, and the
    minimal constant E = sep(eps) / A_n(eps/2).lower that certifies the
    right inequality.  The left inequality is certified when even the
    upper A_n(2 eps) endpoint sits below the skew lower endpoint.  PASS
    means every left check is certified and E never increases with n,
    the finite signature of an n-free constant.
    """
    e = Fraction(epsilon)
    s = sys.plan.tau.radius
    if not (0 < e < Fraction(1, 2 ** (s + 1))):
        raise ConfigError("sandwich needs eps in (0, 2^-(s+1)); got %s with s=%d"
                          % (e, s))
    ns = sorted(set(int(n) for n in n_range))
    request_histograms(sys, ns, (2 * e, e))
    rows = []
    for n in ns:
        a2 = capacity_A(sys, n, 2 * e)
        ahalf = capacity_A(sys, n, e / 2)
        if ahalf.lower == 0:  # no word carries a fiber point: no E
            raise ValueError("empty language at n=%d" % n)
        skew_lo = skew_sep_direct(sys, n, 2 * e)
        skew_hi = skew_sep_direct(sys, n, e)
        e_inf = Fraction(skew_hi, ahalf.lower)
        rows.append(SandwichRow(
            n=n, epsilon=e,
            a2_lower=a2.lower, a2_upper=a2.upper,
            skew_lo=skew_lo, skew_hi=skew_hi,
            ahalf_lower=ahalf.lower, ahalf_upper=ahalf.upper,
            e_inferred=e_inf,
            left_certified=a2.upper <= skew_lo,
            left_stated=a2.lower <= skew_lo))
    e_vals = [row.e_inferred for row in rows]
    nonincreasing = all(a >= b for a, b in zip(e_vals, e_vals[1:]))
    ok = nonincreasing and all(row.left_certified for row in rows)
    return {"epsilon": e, "rows": rows, "left_certified_all":
            all(row.left_certified for row in rows),
            "e_nonincreasing": nonincreasing, "pass": ok}
