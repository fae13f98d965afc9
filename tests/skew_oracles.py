"""Skew-product evaluators from the definitions, kept beside the tests.

skew_orbit, skew_bowen_distance and skew_sep_pairwise read the skew map
and its Bowen metric literally, point by point.  No program code calls
them: they are the oracles the tests hold the library's counts to.
"""

from fractions import Fraction

from entroscope.cocycle import ergodic_sums
from entroscope.fiber import SymbolicFiber
from entroscope.skew import _require_window_dominates_radius
from entroscope.symbolic import WindowPoint, language_on
from entroscope.util import CapExceeded, ConfigError


def exponents(tau, y, n):
    """(tau^0, ..., tau^{n-1}) at a windowed point, read on [-s, n-1+s]."""
    s = tau.radius
    return ergodic_sums(tau, tuple(y.get(i) for i in range(-s, n + s)))[:-1]


def skew_orbit(sys, y, x, n):
    """States (S^k y, T^{tau^k(y)} x) for k = 0..n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exps = exponents(sys.plan.tau, y, n)
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
    base = SymbolicFiber(sys.plan.spec)
    if mode == "raw":
        ey = exponents(sys.plan.tau, y, n)
        ez = exponents(sys.plan.tau, z, n)
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
    s = sys.plan.tau.radius
    for i in range(-s, n + s):
        if y.get(i) != z.get(i):
            raise ValueError("decomposition mode needs base agreement on "
                             "[%d, %d]; points differ at %d" % (-s, n + s - 1, i))
    exps = exponents(sys.plan.tau, y, n)
    visited = sorted(set(exps))
    db = max(base.distance(y.shift(k), z.shift(k)) for k in range(n))
    df = max(fib.distance(fib.iterate(x, e), fib.iterate(w, e))
             for e in visited)
    return max(db, df)


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
    r = _require_window_dominates_radius(sys.plan.tau, e)
    if margin is None:
        margin = r + 1
    base_lo = -margin
    base_words = language_on(sys.plan.spec, range(base_lo, n + margin),
                             word_cap=None)
    lo_e = min(0, -(n - 1) * sys.plan.tau.bound) - margin
    hi_e = max(0, (n - 1) * sys.plan.tau.bound) + margin
    fiber_words = language_on(sys.fiber.spec, range(lo_e, hi_e + 1),
                              word_cap=None)
    fib = sys.fiber
    base_fib = SymbolicFiber(sys.plan.spec)

    def close(p, q):
        y, x = p
        z, w = q
        ey = exponents(sys.plan.tau, y, n)
        ez = exponents(sys.plan.tau, z, n)
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
