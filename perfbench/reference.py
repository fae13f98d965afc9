"""Reference values for the output checks, computed without entroscope.

Nothing in this module imports the program.  Every base the workloads
use is a subshift over {-1, 1} whose cocycle is the sign step (for the
Sturmian x full-shift product, the sign of the rotation coordinate), and
every fiber is the full 2-shift.  All checked quantities then follow
from two histograms of R, the number of sites a walk visits:

    hist(n)        over words w in L_n, the walk of w's first n-1 letters
    ext_hist(n, p) over words u in L_{n+2p}, the walk of u's letters
                   p .. p+n-2 (the inner n-1 letters of the window)

together with the full-shift fiber count: an interval of R exponents at
scale eps is separated by 2^(R + 2 rho(eps)) points (1 when eps >= 2).

Each base computes its histograms its own way, not the program's:

- SFTRef (the full shift is the one with nothing forbidden): a strip
  transfer-matrix count at full n (walks that fit in a strip of W sites,
  second-differenced in W) on a de Bruijn graph built here, whose
  realised words are the paths that start at a node with an N-step past
  and end at a node with an N-step future (N = number of nodes), rather
  than the program's iterative trim.  The strip count must match brute
  force at small n, and its mass must be the transfer-matrix count |L_n|
  (2^n on the full shift).  ext_hist enumerates L_{n+2p} outright.
- SturmianRef: the golden-rotation coding with intercept 1/2, rebuilt in
  mpmath from high-precision cut points; each cell of the circle is
  coded directly from its midpoint.  |L_n| = 2n.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

LABELS = (-1, 1)


def rho(eps):
    """Agreement radius: the least k >= 0 with 2^-k <= eps."""
    eps = Fraction(eps)
    k = 0
    while Fraction(1, 2 ** k) > eps:
        k += 1
    return k


def fiber_sep(R, eps):
    """Separated count of the full 2-shift over an interval of R times."""
    if Fraction(eps) >= 2:
        return 1
    return 2 ** (R + 2 * rho(eps))


def walk_range(letters):
    """Number of sites visited by the walk 0, l0, l0+l1, ..."""
    pos = lo = hi = 0
    for a in letters:
        pos += a
        lo = min(lo, pos)
        hi = max(hi, pos)
    return hi - lo + 1


def add_to(hist, key, count=1):
    hist[key] = hist.get(key, 0) + count


# ---------------------------------------------------------------------------
# derived quantities shared by every base


class Derived:
    """Capacity brackets, skew separated counts and scales of one base."""

    def capacity(self, n, eps):
        """(lower, upper) bracket on A_n(eps)."""
        h = self.hist(n)
        lo = sum(c * fiber_sep(R, 2 * Fraction(eps)) for R, c in h.items())
        hi = sum(c * fiber_sep(R, eps) for R, c in h.items())
        return lo, hi

    def skew_sep(self, n, eps):
        eps = Fraction(eps)
        if eps >= 2:
            return 1
        h = self.ext_hist(n, rho(eps))
        return sum(c * fiber_sep(R, eps) for R, c in h.items())

    def log_scale(self, n, t):
        """log of sum over L_n of exp(t * R), in mpmath."""
        t = mpmath.mpf(t)
        return mpmath.log(mpmath.fsum(c * mpmath.exp(t * R)
                                      for R, c in self.hist(n).items()))

    def sandwich_row(self, n, eps):
        eps = Fraction(eps)
        a2 = self.capacity(n, 2 * eps)
        ah = self.capacity(n, eps / 2)
        lo = self.skew_sep(n, 2 * eps)
        hi = self.skew_sep(n, eps)
        return {"n": n, "epsilon": eps, "a_lower_2eps": a2[0],
                "a_upper_2eps": a2[1], "skew_lower": lo, "skew_upper": hi,
                "a_lower_halfeps": ah[0], "a_upper_halfeps": ah[1],
                "e_inferred": Fraction(hi, ah[0]),
                "left_certified": a2[1] <= lo, "left_stated": a2[0] <= lo}


# ---------------------------------------------------------------------------
# subshifts of finite type (the full shift is the one with nothing forbidden)


class SFTRef(Derived):
    def __init__(self, forbidden=()):
        self.forbidden = [tuple(f) for f in forbidden]
        self.K = max((len(f) for f in self.forbidden), default=1) - 1
        self.nodes = [u for u in itertools.product(LABELS, repeat=self.K)
                      if self.clean(u)]
        index = {u: i for i, u in enumerate(self.nodes)}
        self.edges = []  # (from, letter, to)
        for i, u in enumerate(self.nodes):
            for a in LABELS:
                if self.clean(u + (a,)):
                    j = index.get((u + (a,))[1:])
                    if j is not None:
                        self.edges.append((i, a, j))
        size = len(self.nodes)
        steps = size
        out_paths = [1] * size
        in_paths = [1] * size
        for _ in range(steps):
            nxt_out = [0] * size
            nxt_in = [0] * size
            for i, _a, j in self.edges:
                nxt_out[i] += out_paths[j]
                nxt_in[j] += in_paths[i]
            out_paths, in_paths = nxt_out, nxt_in
        # a node with an N-step future (past) lies on a cycle's forward
        # (backward) cone, so every path from a "left" node to a "right"
        # node extends to a bi-infinite point
        self.right = [int(c > 0) for c in out_paths]
        self.left = [int(c > 0) for c in in_paths]
        self._hist = {}
        self._ext = {}
        self._words = {}
        small = range(self.K + 1, self.K + 5)
        if self.strip_hists(small) != {n: self.brute_hist(n) for n in small}:
            raise ArithmeticError("strip count disagrees with brute force")

    def clean(self, w):
        for f in self.forbidden:
            for i in range(len(w) - len(f) + 1):
                if w[i:i + len(f)] == f:
                    return False
        return True

    def count(self, n):
        """|L_n| by a transfer-matrix power (n >= K)."""
        vec = list(self.left)
        for _ in range(n - self.K):
            nxt = [0] * len(self.nodes)
            for i, _a, j in self.edges:
                nxt[j] += vec[i]
            vec = nxt
        return sum(v * r for v, r in zip(vec, self.right))

    def words(self, n):
        """L_n by depth-first search over realised paths."""
        got = self._words.get(n)
        if got is not None:
            return got
        if n < self.K:
            # every realised word extends to a realised K-word
            got = sorted({w[:n] for w in self.words(self.K)})
            self._words[n] = got
            return got
        succ = [[] for _ in self.nodes]
        for i, a, j in self.edges:
            succ[i].append((a, j))
        out = []
        for i, u in enumerate(self.nodes):
            if not self.left[i]:
                continue
            stack = [(u, i)]
            while stack:
                w, k = stack.pop()
                if len(w) == n:
                    if self.right[k]:
                        out.append(w)
                    continue
                for a, j in succ[k]:
                    stack.append((w + (a,), j))
        out.sort()
        self._words[n] = out
        return out

    def hist(self, n):
        if n not in self._hist:
            self.hists([n])
        return self._hist[n]

    def hists(self, n_list):
        """Fill hist(n) for every n: strip count above K, brute force below.

        The strip count's mass at every n must be the transfer-matrix
        count |L_n|.
        """
        big = [n for n in n_list if n > self.K]
        for n, h in self.strip_hists(big).items() if big else ():
            if sum(h.values()) != self.count(n):
                raise ArithmeticError("strip mass != |L_%d|" % n)
        for n in n_list:
            if n <= self.K:
                self._hist[n] = self.brute_hist(n)

    def strip_hists(self, n_list):
        """{n: hist(n)} for every n, one strip sweep per width W.

        T_n(W) = sum over words of max(0, W - R + 1) counts the walks
        placed inside a strip of W sites; R's histogram is its second
        difference in W.
        """
        n_list = sorted(set(n_list))
        if n_list[0] <= self.K:
            raise ValueError("strip count needs n > K")
        n_max = n_list[-1]
        final = [0] * len(self.nodes)
        for i, _a, j in self.edges:
            final[i] += self.right[j]
        T = {n: [0] * (n + 1) for n in n_list}
        want = set(n_list)
        for W in range(1, n_max + 1):
            vec = []
            for i, u in enumerate(self.nodes):
                v = np.zeros(W, dtype=object)
                if self.left[i]:
                    p = [0]
                    for a in u:
                        p.append(p[-1] + a)
                    for x in range(-min(p), W - max(p)):
                        v[x + p[-1]] += 1
                vec.append(v)
            steps = self.K
            while True:
                n = steps + 1
                if n in want and W <= n:
                    T[n][W] = sum(int(final[i] * vec[i].sum())
                                  for i in range(len(vec)))
                if n >= n_max:
                    break
                nxt = [np.zeros(W, dtype=object) for _ in vec]
                for i, a, j in self.edges:
                    if a == 1:
                        nxt[j][1:] += vec[i][:-1]
                    else:
                        nxt[j][:-1] += vec[i][1:]
                vec = nxt
                steps += 1
        out = {}
        for n in n_list:
            t = T[n]
            h = {}
            for R in range(1, n + 1):
                c = t[R] - 2 * t[R - 1] + (t[R - 2] if R >= 2 else 0)
                if c:
                    h[R] = c
            out[n] = h
            self._hist[n] = h
        return out

    def brute_hist(self, n):
        h = {}
        for w in self.words(n):
            add_to(h, walk_range(w[:n - 1]))
        return h

    def ext_hist(self, n, p):
        key = (n, p)
        got = self._ext.get(key)
        if got is None:
            if not self.forbidden:
                got = {R: c * 2 ** (2 * p) for R, c in self.hist(n).items()}
            else:
                got = {}
                for u in self.words(n + 2 * p):
                    add_to(got, walk_range(u[p:p + n - 1]))
            self._ext[key] = got
        return got



# ---------------------------------------------------------------------------
# the balanced golden-rotation coding


class SturmianRef(Derived):
    """x -> x + alpha, alpha = (sqrt 5 - 1)/2, coded +1 on [0, 1/2)."""

    DPS = 50

    def __init__(self):
        mpmath.mp.dps = self.DPS
        self.alpha = (mpmath.sqrt(5) - 1) / 2
        self.half = mpmath.mpf(1) / 2
        self._lang = {}
        self._hist = {}
        self._ext = {}

    def frac(self, x):
        return x - mpmath.floor(x)

    def cuts(self, L):
        pts = set()
        for p in range(L):
            pts.add(self.frac(-p * self.alpha))
            pts.add(self.frac(self.half - p * self.alpha))
        cuts = sorted(pts)
        gap = min(b - a for a, b in zip(cuts, cuts[1:] + [cuts[0] + 1]))
        if gap < mpmath.mpf(10) ** (-self.DPS // 2):
            raise ArithmeticError("cut points too close to resolve")
        return cuts

    def code(self, x, L):
        out = []
        y = x
        for _ in range(L):
            out.append(1 if y < self.half else -1)
            y += self.alpha
            if y >= 1:
                y -= 1
        return tuple(out)

    def samples(self, L):
        cuts = self.cuts(L)
        nxt = cuts[1:] + [cuts[0] + 1]
        return [self.frac((a + b) / 2) for a, b in zip(cuts, nxt)]

    def words(self, L):
        got = self._lang.get(L)
        if got is None:
            got = sorted({self.code(x, L) for x in self.samples(L)})
            if len(got) != 2 * L:
                raise ArithmeticError("|L_%d| = %d, expected %d"
                                      % (L, len(got), 2 * L))
            self._lang[L] = got
        return got

    def hist(self, n):
        got = self._hist.get(n)
        if got is None:
            got = {}
            for w in self.words(n):
                add_to(got, walk_range(w[:n - 1]))
            self._hist[n] = got
        return got

    def ext_hist(self, n, p):
        key = (n, p)
        got = self._ext.get(key)
        if got is None:
            got = {}
            for u in self.words(n + 2 * p):
                add_to(got, walk_range(u[p:p + n - 1]))
            self._ext[key] = got
        return got

    def birkhoff_sup(self, n):
        """max over L_n of |letter sum| / n.

        At large n the cells are walked in order, flipping the symbol a
        crossed cut owns; a few cells are also coded directly as a check
        on the walk.
        """
        if n <= 200:
            best = max(abs(sum(w)) for w in self.words(n))
            return Fraction(best, n)
        owner = {}
        for p in range(n):
            owner.setdefault(self.frac(-p * self.alpha), []).append((p, 1))
            owner.setdefault(self.frac(self.half - p * self.alpha),
                             []).append((p, -1))
        cuts = self.cuts(n)
        nxt = cuts[1:] + [cuts[0] + 1]
        mids = [self.frac((a + b) / 2) for a, b in zip(cuts, nxt)]
        cur = list(self.code(mids[0], n))
        total = sum(cur)
        best = abs(total)
        probes = {len(cuts) // 3, 2 * len(cuts) // 3, len(cuts) - 1}
        for k in range(1, len(cuts)):
            for p, sym in owner[cuts[k]]:
                total += sym - cur[p]
                cur[p] = sym
            best = max(best, abs(total))
            if k in probes and tuple(cur) != self.code(mids[k], n):
                raise ArithmeticError("cut walk disagrees with direct coding")
        return Fraction(best, n)


class ProductRef(Derived):
    """Sturmian x full 2-shift; the step reads the rotation coordinate."""

    def __init__(self, walk):
        self.walk = walk

    def hist(self, n):
        return {R: c * 2 ** n for R, c in self.walk.hist(n).items()}

    def ext_hist(self, n, p):
        m = n + 2 * p
        return {R: c * 2 ** m for R, c in self.walk.ext_hist(n, p).items()}


# ---------------------------------------------------------------------------
# the sequence-entropy half


def hamming_count(k, n, r):
    """sum over j < r n of C(n, j) (k-1)^j, by the term recurrence."""
    rn = Fraction(r) * n
    jmax = rn.numerator - 1 if rn.denominator == 1 else math.floor(rn)
    jmax = min(jmax, n)
    term = 1
    total = 0
    for j in range(jmax + 1):
        total += term * (k - 1) ** j
        term = term * (n - j) // (j + 1)
    return total


def hamming_exponent(k, r):
    r = mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator
    return r * mpmath.log(k - 1) - r * mpmath.log(r) - (1 - r) * mpmath.log(
        1 - r)


def cover_size(terms, m):
    """|union of [t, t+m-1]|, by merging the blocks in order."""
    total = 0
    end = None
    for t in sorted(terms):
        lo, hi = t, t + m - 1
        if end is not None and lo <= end:
            lo = end + 1
        if hi >= lo:
            total += hi - lo + 1
        end = hi if end is None else max(end, hi)
    return total


def arithmetic_terms(a, d, n):
    return [a + i * d for i in range(n)]


def geometric_terms(b, n):
    return [b ** i for i in range(1, n + 1)]


def k_rows(terms, ms, closed=None):
    """[(m, n, |S_A(n, m)| / n)] with n = len(terms)."""
    n = len(terms)
    rows = []
    for m in ms:
        size = cover_size(terms, m)
        if closed is not None and closed(n, m) != size:
            raise ArithmeticError("closed form disagrees with block merge")
        rows.append((m, n, Fraction(size, n)))
    return rows


def k_value(rows, tol=Fraction(1, 100)):
    """(value, stabilised m) for the first m whose successor moves v by
    less than tol, or (None, None) when no pair does."""
    for (m, _n, v), (_m2, _n2, v2) in zip(rows, rows[1:]):
        if abs(v2 - v) < tol:
            return v, m
    return None, None


def folner(family, m, n):
    if family == "interval":
        return Fraction(m - 1, n)
    if family == "evens":
        terms = [2 * i for i in range(1, n + 1)]
    else:
        terms = [2 ** i for i in range(1, n + 1)]
    return Fraction(cover_size(terms, m), n) - 1
