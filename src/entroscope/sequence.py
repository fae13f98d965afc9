"""The sequence-entropy toolkit: footprints, K(A), Hamming balls, Folner.

Sequence entropy (Goodman 1974) reads a system only at the times of an
increasing sequence A = (t_1, t_2, ...).  Its finite data are the
footprints S_A(n, m) = {t_i + j : i <= n, 0 <= j < m}, whose growth
constant K(A) = lim_m limsup_n |S_A(n, m)| / n bounds sequence entropy
by K(A) times topological entropy (Goodwyn's inequality), the Hamming
ball counts whose exponent is the growth rate of a ball, and the
interval-cover defects C_m(F_n) - 1 that vanish along Folner families.

Everything here is exact integer or Fraction arithmetic on the
standard library alone, so the sequence commands of the CLI load this
module and none of the subshift and skew-product stack.
"""

import math
from collections import namedtuple
from fractions import Fraction


# ---------------------------------------------------------------------------
# interval covers


def cover_size(elems, m):
    """|F + {0..m-1}| for a finite F given as its strictly increasing
    elements, or as a nonempty range.

    Each consecutive gap g contributes min(g, m) fresh integers and the
    last element m more; every gap of a range is its step.
    """
    if isinstance(elems, range):
        return m + (len(elems) - 1) * min(abs(elems.step), m)
    cover = m
    for a, b in zip(elems, elems[1:]):
        cover += min(b - a, m)
    return cover


def c_m(F, m):
    """|F + {0..m-1}| / |F| for a finite integer set F (or a range)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    elems = F if isinstance(F, range) else sorted(set(int(x) for x in F))
    if not elems:
        raise ValueError("F must be nonempty")
    return Fraction(cover_size(elems, m), len(elems))


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
    An arithmetic sequence's terms are a range, whose cover is closed
    form, and a geometric sequence's gaps (b - 1) b^i grow past m after
    O(log_b m) terms, so neither cover builds its terms.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if isinstance(A, Arithmetic):
        return cover_size(range(A.start, A.start + n * A.step, A.step), m)
    if isinstance(A, Geometric):
        # the gaps below m count in full, each later one adds m
        cover = m
        gap = (A.base - 1) * A.base
        i = 1
        while i < n and gap < m:
            cover += gap
            gap *= A.base
            i += 1
        return cover + (n - i) * m
    terms = A.terms(n)
    if not terms:
        raise ValueError("sequence has no terms")
    return cover_size(terms, m)


# What k_estimate found: value (None if diverged), the m it stabilized
# at, the diverged flag, rows (m, n, |S_A(n, m)| / n) per scheduled m,
# and last, the value at the largest m
KEstimate = namedtuple("KEstimate", "value stabilized_m diverged rows last")

#: The n at which k_estimate reads |S_A(n, m)| / n, and its m schedule.
K_N = 10 ** 4
K_M_SCHEDULE = (1, 2, 4, 8, 16)


def k_estimate(A):
    """Double-limit estimate of K(A) = lim_m limsup_n |S_A(n, m)| / n.

    Evaluates v(m) = |S_A(n, m)| / n at n = K_N (clamped for finite
    Explicit sequences) for each m of K_M_SCHEDULE and declares
    stabilization at the first m whose successor changes v by less than
    1/100.  If no pair stabilizes the estimate is flagged diverged, the
    finite signature of the K(A) = infinity regime.
    """
    n_max = K_N
    if isinstance(A, Explicit):
        n_max = min(n_max, len(A.values))
    rows = []
    vals = []
    for m in K_M_SCHEDULE:
        v = Fraction(sa_size(A, n_max, m), n_max)
        rows.append((m, n_max, v))
        vals.append(v)
    tol = Fraction(1, 100)
    for i in range(len(K_M_SCHEDULE) - 1):
        if abs(vals[i + 1] - vals[i]) < tol:
            return KEstimate(value=vals[i], stabilized_m=K_M_SCHEDULE[i],
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


def goodwyn_check(k, A, n=1000):
    """Sequence-entropy Goodwyn inequality h_mu^A <= K(A) * h_top on data.

    lhs is the Bernoulli sequence entropy, rhs the K(A) estimate times
    log k; a diverged estimate uses the largest observed value, which
    only strengthens the inequality being checked.
    """
    est = k_estimate(A)
    kval = est.last if est.diverged else est.value
    n_eff = min(n, len(A.values)) if isinstance(A, Explicit) else n
    lhs = float(bernoulli_seq_entropy(k, A, n_eff))
    rhs = float(kval) * math.log(k)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + 1e-9,
            "k_estimate": est}


# ---------------------------------------------------------------------------
# Folner defect


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
        out.append((int(n), c_m(family(int(n)), m) - 1))
    return out


def interval_family(n):
    return range(n)


def evens_family(n):
    return range(2, 2 * n + 1, 2)


def powers_family(n):
    return [2 ** i for i in range(1, n + 1)]


FAMILIES = {"interval": interval_family, "evens": evens_family,
            "powers": powers_family}
