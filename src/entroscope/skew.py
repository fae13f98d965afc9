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

which skew_sep_direct evaluates with per-class fiber counts.  When every
visited set is an interval fixed up to translation by its size r, and
the fiber's counts only see that translation class, the windows are
counted by r through range_histograms with pad rho, just as capacity_A
counts the words of L_{n,s}; request_histograms asks the engine for
every n of a run at once.

The independent oracle skew_sep_greedy never uses that reduction: it
walks explicit representative pairs and groups them by the raw scan data
the certified metric predicate reads, so a wrong window radius or a
wrong class count shows up as a mismatch in tests.

capacity_A(n, eps) is the capacity sum_{w in L_{n,s}} spa(T, V(w), eps),
carried as a bracket end to end, and sandwich_check verifies
    A_n(2 eps) <= spa(skew, {0..n-1}, eps) <= E * A_n(eps / 2)
on finite data, inferring the minimal constant E from the run.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cocycle import Cocycle, interval_steps, range_histograms
from .fiber import SymbolicFiber, sep_count, spa_bracket
from .symbolic import DEFAULT_WORD_CAP, WindowPoint, language_on, rho
from .util import CapExceeded, ConfigError


class SkewSystem:
    """base subshift, integer cocycle, invertible fiber, as one object."""

    def __init__(self, base, tau, fiber):
        if not isinstance(tau, Cocycle):
            raise TypeError("tau must be a Cocycle")
        s = tau.radius
        width = 2 * s + 1
        # totality of the rule over the base language, checked up front
        for w in base.words(width, word_cap=DEFAULT_WORD_CAP):
            if w not in tau.rule:
                raise ConfigError(
                    "cocycle rule missing base window %r" % (w,))
        self.base = base
        self.tau = tau
        self.fiber = fiber
        # {(r, eps): (count, exact)}: fiber counts over range(r), see
        # _range_sum
        self._range_counts = {}

    def __repr__(self):
        return "SkewSystem(%r, %r, %r)" % (self.base, self.tau, self.fiber)


def word_exponents(tau, w, start, n):
    """(tau^0, ..., tau^{n-1}) read off a word covering [start, start+len).

    Position j's cocycle window is [j-s, j+s]; the word must cover
    [-s, n-2+s] so every step through time n-1 is determined.
    """
    s = tau.radius
    if start > -s or start + len(w) < n - 1 + s:
        raise ValueError("word window [%d, %d) cannot evaluate %d steps"
                         % (start, start + len(w), n))
    sums = [0]
    acc = 0
    for j in range(n - 1):
        acc += tau.value(w[j - s - start:j + s - start + 1])
        sums.append(acc)
    return tuple(sums)


def point_exponents(tau, y, n):
    """Same as word_exponents but reading a WindowPoint."""
    s = tau.radius
    sums = [0]
    acc = 0
    for j in range(n - 1):
        acc += tau.value(tuple(y.get(j + d) for d in range(-s, s + 1)))
        sums.append(acc)
    return tuple(sums)


def skew_orbit(sys, y, x, n):
    """States (S^k y, T^{tau^k(y)} x) for k = 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exps = point_exponents(sys.tau, y, n)
    return [(y.shift(k), sys.fiber.iterate(x, e)) for k, e in enumerate(exps)]


def skew_bowen_distance(sys, p, q, n, mode="raw"):
    """Bowen distance of two skew points over times {0..n-1}.

    raw mode is the definition: the max over k of the product max-metric
    between the k-th iterates, each orbit using its own exponents.
    decomposition mode is the split max(base Bowen, fiber Bowen over the
    visited set); it requires the base points to agree on [-s, n-1+s]
    (then both orbits share exponents) and raises otherwise.  The two
    modes agree whenever the raw value is below 2^-s.
    """
    y, x = p
    z, w = q
    fib = sys.fiber
    base = SymbolicFiber(sys.base)
    if mode == "raw":
        ey = point_exponents(sys.tau, y, n)
        ez = point_exponents(sys.tau, z, n)
        best = None
        for k in range(n):
            db = base.distance(y.shift(k), z.shift(k))
            df = fib.distance(fib.iterate(x, ey[k]), fib.iterate(w, ez[k]))
            step = max(db, df)
            if best is None or step > best:
                best = step
        return best
    if mode != "decomposition":
        raise ValueError("mode must be 'raw' or 'decomposition'")
    s = sys.tau.radius
    for i in range(-s, n + s):
        if y.get(i) != z.get(i):
            raise ValueError("decomposition mode needs base agreement on "
                             "[%d, %d]; points differ at %d" % (-s, n + s - 1, i))
    exps = point_exponents(sys.tau, y, n)
    visited = sorted(set(exps))
    db = max(base.distance(y.shift(k), z.shift(k)) for k in range(n))
    df = max(fib.distance(fib.iterate(x, e), fib.iterate(w, e))
             for e in visited)
    return max(db, df)


def _require_window_dominates_radius(tau, epsilon):
    r = rho(epsilon)
    if r < tau.radius:
        raise ConfigError(
            "exact skew counts need rho(eps) >= cocycle radius; "
            "rho(%s) = %d < s = %d" % (epsilon, r, tau.radius))
    return r


def skew_sep_direct(sys, n, epsilon, word_cap=DEFAULT_WORD_CAP,
                    force_enumeration=False):
    """Exact maximal eps,{0..n-1}-separated count of the skew product.

    Adds, per base window on [-rho, n-1+rho], the fiber's exact separated
    count over the eps-ball structure of its visited exponent set.  When
    words group by range (see _by_range) the windows are counted by the
    range of their middle n letters through range_histograms with
    pad = rho, which picks DP or enumeration itself; force_enumeration
    walks the windows one by one instead.  Needs rho(eps) >= s and a
    fiber with an exact count (every carrier here except the toral grid).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = Fraction(epsilon)
    r = _require_window_dominates_radius(sys.tau, e)
    if e >= 2:
        # every pair of skew points is eps-close at this range
        return 1
    if not force_enumeration and _by_range(sys):
        hist = range_histograms(sys.base, sys.tau, [n], word_cap=word_cap,
                                pad=r)[n]
        return _range_sum(sys, hist, e, exact=True)
    words = language_on(sys.base, range(-r, n + r), word_cap=word_cap)
    total = 0
    cache = {}
    invariant = sys.fiber.translation_invariant
    for w in words:
        exps = word_exponents(sys.tau, w, -r, n)
        visited = tuple(sorted(set(exps)))
        key = tuple(v - visited[0] for v in visited) if invariant else visited
        got = cache.get(key)
        if got is None:
            got, exact = sep_count(sys.fiber, list(key), e)
            if not exact:
                raise ConfigError("fiber %r has no exact separated count"
                                  % (sys.fiber,))
            cache[key] = got
        total += got
    return total


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
    e = Fraction(epsilon)
    r = _require_window_dominates_radius(sys.tau, e)
    if e >= 2:
        return 1
    if margin is None:
        margin = r + 1
    if margin < r:
        raise ValueError("margin below the scan radius")
    base_lo = -margin
    base_words = language_on(sys.base, range(base_lo, n + margin),
                             word_cap=None)
    # fiber hull: all exponents any base word can visit, widened by margin
    lo_e = hi_e = 0
    exps_per_word = []
    for w in base_words:
        exps = word_exponents(sys.tau, w, base_lo, n)
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


def skew_sep_pairwise(sys, n, epsilon, margin=None, pair_cap=2 ** 22):
    """Literal greedy with the raw metric predicate, for the tiniest cases.

    This is the slowest and most assumption-free evaluation: candidates
    are admitted by pairwise certified closeness tests against every
    accepted pair, exactly as a textbook separated-set construction.
    It exists to validate skew_sep_greedy's grouping on small instances.
    """
    if not isinstance(sys.fiber, SymbolicFiber):
        raise ConfigError("pairwise skew oracle needs a symbolic fiber")
    e = Fraction(epsilon)
    r = _require_window_dominates_radius(sys.tau, e)
    if margin is None:
        margin = r + 1
    base_lo = -margin
    base_words = language_on(sys.base, range(base_lo, n + margin),
                             word_cap=None)
    lo_e = min(0, -(n - 1) * sys.tau.bound) - margin
    hi_e = max(0, (n - 1) * sys.tau.bound) + margin
    fiber_words = language_on(sys.fiber.spec, range(lo_e, hi_e + 1),
                              word_cap=None)
    fib = sys.fiber
    base_fib = SymbolicFiber(sys.base)

    def close(p, q):
        y, x = p
        z, w = q
        ey = point_exponents(sys.tau, y, n)
        ez = point_exponents(sys.tau, z, n)
        for k in range(n):
            if not base_fib.distance_le(y.shift(k), z.shift(k), e):
                return False
            if not fib.distance_le(fib.iterate(x, ey[k]),
                                   fib.iterate(w, ez[k]), e):
                return False
        return True

    accepted = []
    checked = 0
    for w in base_words:
        y = WindowPoint(base_lo, w)
        for fw in fiber_words:
            p = (y, WindowPoint(lo_e, fw))
            ok = True
            for q in accepted:
                checked += 1
                if checked > pair_cap:
                    raise CapExceeded("pair budget exceeded")
                if close(p, q):
                    ok = False
                    break
            if ok:
                accepted.append(p)
    return len(accepted)


# ---------------------------------------------------------------------------
# capacity and the sandwich


@dataclass(frozen=True)
class CapacityBracket:
    n: int
    epsilon: Fraction
    lower: int
    upper: int


def _by_range(sys):
    """Whether counts may group words by the range r of their visited set.

    A radius-0 rule with steps in {-1, 0, 1} makes every visited set the
    interval range(r) up to translation, and a translation-invariant
    fiber gives every translate the same count.
    """
    return (interval_steps(sys.tau) is not None
            and sys.fiber.translation_invariant)


def _range_sum(sys, hist, epsilon, exact=False):
    """sum over r of hist[r] * sep(T, range(r), eps).

    Each fiber count is computed once per system and (r, eps).  With
    exact set, a fiber that has only a greedy count is a config error.
    """
    total = 0
    for r, cnt in sorted(hist.items()):
        got = sys._range_counts.get((r, epsilon))
        if got is None:
            got = sep_count(sys.fiber, range(r), epsilon)
            sys._range_counts[(r, epsilon)] = got
        if exact and not got[1]:
            raise ConfigError("fiber %r has no exact separated count"
                              % (sys.fiber,))
        total += cnt * got[0]
    return total


def request_histograms(sys, ns, epsilons, word_cap=DEFAULT_WORD_CAP):
    """Ask the range engine once for every n of a run, per distinct pad.

    capacity_A reads pad 0 and skew_sep_direct at eps reads pad rho(eps);
    one request per pad lets a single pass serve every n.  A no-op when
    words do not group by range.
    """
    if not _by_range(sys):
        return
    for pad in sorted({0} | {rho(e) for e in epsilons}):
        range_histograms(sys.base, sys.tau, ns, word_cap=word_cap, pad=pad)


def capacity_A(sys, n, epsilon, word_cap=DEFAULT_WORD_CAP,
               force_enumeration=False):
    """Bracket on A_n(eps) = sum over w in L_{n,s} of spa(T, V(w), eps).

    Each word's spanning count is carried as the bracket
    [sep(T, V, 2 eps), sep(T, V, eps)] and the sums keep both endpoints.
    When words group by range (see _by_range) they are counted by r
    through range_histograms, which picks DP or enumeration itself.
    force_enumeration walks the words one by one instead.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    tau = sys.tau
    if not force_enumeration and _by_range(sys):
        dist = range_histograms(sys.base, tau, [n], word_cap=word_cap)[n]
        return CapacityBracket(n=n, epsilon=e,
                               lower=_range_sum(sys, dist, 2 * e),
                               upper=_range_sum(sys, dist, e))
    lower = upper = 0
    s = tau.radius
    cache = {}
    invariant = sys.fiber.translation_invariant
    for w in sys.base.words(n + 2 * s, word_cap=word_cap):
        exps = word_exponents(tau, w, -s, n)
        visited = tuple(sorted(set(exps)))
        key = tuple(v - visited[0] for v in visited) if invariant else visited
        got = cache.get(key)
        if got is None:
            got = spa_bracket(sys.fiber, list(key), e)
            cache[key] = got
        lower += got[0]
        upper += got[1]
    return CapacityBracket(n=n, epsilon=e, lower=lower, upper=upper)


@dataclass(frozen=True)
class SandwichRow:
    n: int
    epsilon: Fraction
    a2_lower: int
    a2_upper: int
    skew_lo: int
    skew_hi: int
    ahalf_lower: int
    ahalf_upper: int
    e_inferred: Fraction
    left_certified: bool
    left_stated: bool


def sandwich_check(sys, n_range, epsilon, word_cap=DEFAULT_WORD_CAP):
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
    s = sys.tau.radius
    if not (0 < e < Fraction(1, 2 ** (s + 1))):
        raise ConfigError("sandwich needs eps in (0, 2^-(s+1)); got %s with s=%d"
                          % (e, s))
    ns = sorted(set(int(n) for n in n_range))
    request_histograms(sys, ns, (2 * e, e), word_cap=word_cap)
    rows = []
    for n in ns:
        a2 = capacity_A(sys, n, 2 * e, word_cap=word_cap)
        ahalf = capacity_A(sys, n, e / 2, word_cap=word_cap)
        skew_lo = skew_sep_direct(sys, n, 2 * e, word_cap=word_cap)
        skew_hi = skew_sep_direct(sys, n, e, word_cap=word_cap)
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
