"""Subshift specifications, exact language enumeration, the standard metric.

A subshift is described generatively and acts as a language oracle:
``spec.words(n + 2s)`` returns every word realized on the window
[-s, n+s-1] by some bi-infinite point, lexicographically sorted.
Restriction semantics are "realized", not merely locally legal: for an
SFT a word counts only if it lies on a bi-infinite path of the trimmed
de Bruijn graph, so every reported word extends to an actual point.

Words are plain tuples of integer symbol labels.  The window offset
never changes which words appear (shift invariance); it only matters to
callers that index into them, and those fix the convention "index 0 of
the tuple is position -s".

The standard metric on a subshift is
    d(x, y) = inf({2^-n : x(i) = y(i) for all |i| <= n} union {2}),
so d(x, y) <= eps iff x and y agree on the centered window of radius
rho(eps) = min{k >= 0 : 2^-k <= eps}.
"""

import bisect
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .exactnum import (QuadExact, _sign, floor_coords, integer_coords,
                       num_from_json, num_to_json)
from .util import (DEFAULT_WORD_CAP, CapExceeded, SturmianHorizonError,
                   WindowError, as_int)


def _normalize_alphabet(alphabet):
    """Accept a size k (labels 0..k-1) or an iterable of int labels.

    A string is neither: iterating "10" would read it as labels 1 and 0.
    """
    if isinstance(alphabet, str):
        raise ValueError("expected a size or a list of labels, got %r"
                         % (alphabet,))
    if isinstance(alphabet, (int, float)):
        alphabet = range(as_int(alphabet))
    labels = tuple(sorted(as_int(a) for a in alphabet))
    if len(labels) < 2:
        raise ValueError("alphabet size must be >= 2")
    if len(set(labels)) != len(labels):
        raise ValueError("alphabet labels must be distinct")
    return labels


def _check_cap(count, word_cap):
    if word_cap is not None and count > word_cap:
        raise CapExceeded("word count %d exceeds cap %d" % (count, word_cap))


class SFT:
    """Subshift of finite type: finitely many forbidden words.

    Internally a de Bruijn graph on admissible (L-1)-blocks, L the longest
    forbidden length, trimmed until every node has in- and out-degree >= 1;
    a word is realized iff its block path stays inside the trimmed graph.
    """

    def __init__(self, alphabet, forbidden):
        self.labels = _normalize_alphabet(alphabet)
        fw = []
        for f in forbidden:
            w = tuple(as_int(a) for a in f)
            if len(w) == 0:
                raise ValueError("forbidden words must be nonempty")
            if any(a not in self.labels for a in w):
                raise ValueError("forbidden word %r uses unknown labels" % (w,))
            fw.append(w)
        self.forbidden = tuple(sorted(set(fw)))
        self._graph_cache = None
        self._paths = {}  # see path_counts

    def __repr__(self):
        return "SFT(%r, %r)" % (self.labels, self.forbidden)

    @property
    def context(self):
        """K = (longest forbidden length) - 1, the graph's memory."""
        if not self.forbidden:
            return 0
        return max(len(f) for f in self.forbidden) - 1

    def _has_forbidden_factor(self, w):
        for f in self.forbidden:
            lf = len(f)
            if lf > len(w):
                continue
            for i in range(len(w) - lf + 1):
                if w[i:i + lf] == f:
                    return True
        return False

    def graph(self):
        """(states, edges): the essential graph (Lind-Marcus 1995, ch. 2).

        One scan of the clean (K+1)-words, those with no forbidden factor,
        gives the edges: each runs from its first K letters to its last K
        with its last letter as label.  Edges whose source has no in-edge
        or whose target has no out-edge are dropped until none is, and
        the states are the sources left, sorted; edges[i] lists
        (label, j) by label.
        """
        if self._graph_cache is not None:
            return self._graph_cache
        K = self.context
        edges = [w for w in itertools.product(self.labels, repeat=K + 1)
                 if not self._has_forbidden_factor(w)]
        while True:
            heads = {w[:-1] for w in edges}
            tails = {w[1:] for w in edges}
            kept = [w for w in edges if w[:-1] in tails and w[1:] in heads]
            if len(kept) == len(edges):
                break
            edges = kept
        states = sorted(heads)
        index = {u: i for i, u in enumerate(states)}
        rows = [[] for _ in states]
        for w in edges:  # lexicographic, so each row runs by label
            rows[index[w[:-1]]].append((w[-1], index[w[1:]]))
        self._graph_cache = (states, rows)
        return self._graph_cache

    def words(self, length, word_cap=DEFAULT_WORD_CAP):
        if length < 1:
            raise ValueError("length must be >= 1")
        states, edges = self.graph()
        K = self.context
        if not states:
            return []
        if length <= K:
            out = sorted({u[:length] for u in states})
            _check_cap(len(out), word_cap)
        else:
            _check_cap(self.count(length), word_cap)
            out = []
            # iterative DFS emitting full words of the requested length
            for i, u in enumerate(states):
                stack = [(list(u), i)]
                while stack:
                    word, j = stack.pop()
                    if len(word) == length:
                        out.append(tuple(word))
                        continue
                    for a, k in reversed(edges[j]):
                        stack.append((word + [a], k))
            out.sort()
        return out

    def path_counts(self, length, into=False):
        """Paths of the given length out of each state of graph(), or into
        each with into=True: one count per state, in the states' order.

        The counts step forward one length at a time (Lind-Marcus 1995,
        ch. 2), and every length reached is kept, so a run of lengths
        costs one pass to the longest.  The list returned is shared.
        """
        edges = self.graph()[1]
        kept = self._paths.setdefault(into, [[1] * len(edges)])
        while len(kept) <= length:
            counts, nxt = kept[-1], [0] * len(edges)
            for i, row in enumerate(edges):
                for _label, j in row:
                    if into:
                        nxt[j] += counts[i]
                    else:
                        nxt[i] += counts[j]
            kept.append(nxt)
        return kept[length]

    def count(self, length):
        """|L_length|: a word longer than the memory K is its first K
        letters, a state, and a path of length - K out of it, so the count
        sums path_counts; a shorter word is a state's prefix."""
        states = self.graph()[0]
        K = self.context
        if length <= K:
            return len({u[:length] for u in states})
        return sum(self.path_counts(length - K))


class FullShift(SFT):
    """All bi-infinite sequences over the given alphabet.

    The SFT with no forbidden words: the graph paths take it as it is,
    while its words and their count come straight from the alphabet.
    """

    def __init__(self, alphabet=2):
        SFT.__init__(self, alphabet, ())

    def __repr__(self):
        return "FullShift(%r)" % (self.labels,)

    def count(self, length):
        return len(self.labels) ** length

    def words(self, length, word_cap=DEFAULT_WORD_CAP):
        if length < 1:
            raise ValueError("length must be >= 1")
        _check_cap(self.count(length), word_cap)
        return [tuple(w) for w in itertools.product(self.labels, repeat=length)]


class Sturmian:
    """Coding of the rotation x -> x + alpha by the arc [0, intercept).

    Symbols are +1 on [0, intercept) and -1 on [intercept, 1), all decided
    in exact arithmetic.  The default intercept 1 - alpha merges the two
    cut families of the coding partition, which is the choice that makes
    the classical n+1 complexity emerge from the enumeration; intercept
    1/2 gives the balanced-walk coding with complexity 2n.

    alpha may be a Fraction (periodic orbit; enumeration is only valid on
    windows shorter than the denominator and raises past that horizon) or
    a QuadExact with irrational part (no horizon).  alpha and the
    intercept must share one quadratic field.  The coder and the cut walk
    run on integer coordinates: every number they touch is
    (A + B sqrt(d)) / q with q and d fixed per instance
    (exactnum.integer_coords), so they build no QuadExact or Fraction,
    and the walk meets its cuts in order (_cuts), with no float and no
    sort.
    """

    def __init__(self, alpha, intercept=None):
        if not isinstance(alpha, QuadExact):
            alpha = QuadExact(Fraction(alpha))
        alpha = alpha.frac()
        if alpha == 0:
            raise ValueError("alpha must not be an integer")
        if intercept is None:
            intercept = 1 - alpha
        if not isinstance(intercept, QuadExact):
            intercept = QuadExact(Fraction(intercept))
        if not (0 < intercept) or not (intercept < 1):
            raise ValueError("intercept must lie strictly inside (0, 1)")
        self.alpha = alpha
        self.intercept = intercept
        # mixed radicands raise here, not at the first walk
        self._q, self._d, (self._alpha_c, self._intercept_c) = \
            integer_coords((alpha, intercept))
        self.labels = (-1, 1)
        self._words, self._lcps = ((),), (-1,)  # see _keep

    def __repr__(self):
        return "Sturmian(%r, %r)" % (self.alpha, self.intercept)

    def horizon(self):
        """Longest enumerable window for rational alpha; None if irrational."""
        if self.alpha.is_rational:
            return self.alpha.as_fraction().denominator
        return None

    def _check_horizon(self, length):
        q = self.horizon()
        if q is not None and length >= q:
            raise SturmianHorizonError(
                "window length %d reaches the period %d of the rational angle"
                % (length, q))

    def code(self, x0, positions):
        """Symbols (+1/-1) of the point x0 at the given positions.

        x0 is a Fraction or a QuadExact in the field of alpha and the
        intercept (any one field when both are rational).
        """
        q, d, (x, alpha, intercept) = integer_coords(
            (x0, self.alpha, self.intercept))
        return _rotation_code(x, alpha, intercept, q, d, positions)

    def cells(self, length, word_cap=DEFAULT_WORD_CAP):
        """Walk the cells of the window [0, length) once around the circle.

        The word of x is constant on each cell of the circle partition cut
        by the points {-p*alpha}, which turn symbol p to +1, and
        {intercept - p*alpha}, which turn it to -1.  The cuts stream in
        increasing order from 0 (_cuts), so the walk holds the word and
        nothing per cut.

        Yields (word, crossed) per cell in cut order: first the first
        cell's word, coded directly at the cut 0 (boundary points code
        like the cell on their right), with no flips; then, per later
        cut, the word after flipping the symbols attached to it and those
        (p, symbol) flips, by p.  word is one list updated in place: copy
        it to keep it.  The horizon and cap checks run at the first step;
        the cap bounds the distinct cuts, counted by a pass of their own
        only when 2 x length exceeds it.  Once the walk is exhausted,
        crossing the cut 0 again must land back on the first cell.
        """
        if length < 1:
            raise ValueError("length must be >= 1")
        self._check_horizon(length)
        if word_cap is not None and 2 * length > word_cap:
            _check_cap(sum(1 for _ in self._cuts(length)), word_cap)
        cuts = self._cuts(length)
        at_zero = next(cuts)
        first = _rotation_code((0, 0), self._alpha_c, self._intercept_c,
                               self._q, self._d, range(length))
        cur = list(first)
        yield cur, ()
        for crossed in cuts:
            for p, sym in crossed:
                cur[p] = sym
            yield cur, crossed
        for p, sym in at_zero:
            cur[p] = sym
        if tuple(cur) != first:
            raise AssertionError("cut walk failed to close up")

    def _cuts(self, length):
        """The (p, symbol) pairs of each distinct cut, by increasing value.

        Three-distance theorem (Sos 1958): with u and v the indices of the
        smallest and largest point {-p*alpha} over 0 < p < n, the point
        after p's is p + u's if p + u < n, else p - v's if p >= v, else
        p + u - v's, above it by g_u = {-u*alpha}, g_v = 1 - {-v*alpha}
        or both; after the largest comes 0's plus 1.  The points
        {intercept - p*alpha} are these turned by the intercept, so they
        run through the same indices by the same gaps from their own
        smallest, s's.  One scan finds u, v and s; a merge then steps
        both families, one exact sign per cut, crossing a point of each
        together where they meet (an intercept in {k*alpha}).  Past its
        n points a family goes on at values of 1 or more, never first.
        """
        n, q, d = length, self._q, self._d
        (a_A, a_B), (c_A, c_B) = self._alpha_c, self._intercept_c
        b_A, b_B, t_A, t_B = q - a_A, -a_B, q - c_A, -c_B
        # x steps through {-p*alpha} by {-alpha} = 1 - alpha; g_u starts
        # at 1, the one gap of a one-letter window
        x_A = x_B = u = v = s = 0
        lo_A, lo_B, hi_A, hi_B, y_A, y_B = q, 0, 0, 0, c_A, c_B
        for p in range(1, n):
            x_A, x_B = x_A + b_A, x_B + b_B
            if _sign(x_A - q, x_B, d) >= 0:
                x_A -= q
            if _sign(x_A - lo_A, x_B - lo_B, d) < 0:
                u, lo_A, lo_B = p, x_A, x_B
            if _sign(x_A - hi_A, x_B - hi_B, d) > 0:
                v, hi_A, hi_B = p, x_A, x_B
            # {intercept - p*alpha} falls below the intercept only where
            # x_p >= t = 1 - intercept, to x_p - t
            if (_sign(x_A - t_A, x_B - t_B, d) >= 0
                    and _sign(x_A - t_A - y_A, x_B - t_B - y_B, d) < 0):
                s, y_A, y_B = p, x_A - t_A, x_B - t_B
        gu_A, gu_B, gv_A, gv_B = lo_A, lo_B, q - hi_A, -hi_B

        def step(p, A, B):
            if p + u < n:
                return p + u, A + gu_A, B + gu_B
            if p >= v:
                return p - v, A + gv_A, B + gv_B
            return p + u - v, A + gu_A + gv_A, B + gu_B + gv_B

        i, x_A, x_B, j, left = 0, 0, 0, s, 2 * n
        while left:
            c = _sign(x_A - y_A, x_B - y_B, d)
            yield ([(i, 1)] if c < 0 else [(j, -1)] if c > 0 else
                   sorted([(i, 1), (j, -1)]))
            if c <= 0:
                i, x_A, x_B = step(i, x_A, x_B)
                left -= 1
            if c >= 0:
                j, y_A, y_B = step(j, y_A, y_B)
                left -= 1

    def _keep(self, length):
        """(words, lcps) of the kept walk, grown to at least length letters.

        words are the sorted distinct words of the cells of the longest
        window walked (sampling every cell witnesses the whole closure),
        and lcps[i] is the length of the common prefix of words i - 1 and
        i, -1 for the first: word i opens a new m-letter prefix exactly
        when lcps[i] < m, as words extend to the right.  A longer window
        walks to twice the kept length, short of the horizon, so lengths
        asked in ascending order take O(log L) walks.
        """
        kept = len(self._words[0])
        if length > kept:
            q = self.horizon() or math.inf
            walk = max(length, min(2 * kept, q - 1))
            words = sorted({tuple(cur) for cur, _ in self.cells(walk, None)})
            self._words = tuple(words)
            self._lcps = (-1,) + tuple(
                next(itertools.compress(itertools.count(),
                                        map(operator.ne, u, v)))
                for u, v in zip(words, words[1:]))
        return self._words, self._lcps

    def words(self, length, word_cap=DEFAULT_WORD_CAP):
        """Every word of the orbit closure: the kept walk's distinct
        prefixes (_keep).  Only a cap below 2 x length (the most cuts a
        window has), which the cells check, walks the window itself."""
        if length < 1:
            raise ValueError("length must be >= 1")
        if word_cap is not None and word_cap < 2 * length:
            return sorted({tuple(cur) for cur, _ in self.cells(length,
                                                               word_cap)})
        words, lcps = self._keep(length)
        return [u[:length] for u, lcp in zip(words, lcps) if lcp < length]

    def count(self, length):
        """p(length): the kept words that open a new prefix (_keep)."""
        return sum(lcp < length for lcp in self._keep(length)[1])

    def range_histograms(self, steps, ns, pad=0, word_cap=None):
        """{n: {r: count}} over L_{n+2pad} for each n in ns within reach.

        steps maps each letter to -1, 0 or 1, so the sums S_0 .. S_{n-1}
        along a word's middle n-window (S_j the sum of its first j steps)
        visit the interval of r = max - min + 1 integers.  n is in reach
        where words(n + 2 pad, word_cap) reads the kept walk: short of the
        horizon, and with no cap or one of at least 2 (n + 2 pad).  One
        pass over the kept words serves every n: a word opens a new
        (n + 2 pad)-window exactly when its LCP is shorter (_keep), and
        up to its LCP its sums are those of the word before, and so are
        the max and min of S_0 .. S_{n-1} for each n they cover; only the
        rest are summed, and maxed segment by segment between the n.
        """
        q = self.horizon() or math.inf
        ns = sorted({n for n in ns if n + 2 * pad < q and (
            word_cap is None or word_cap >= 2 * (n + 2 * pad))})
        hists = [{} for _ in ns]
        if ns:
            top, ends = ns[-1], [0] + ns
            S, his, los = [0] * top, [0] * len(ends), [0] * len(ends)
            step = steps.__getitem__
            for w, lcp in zip(*self._keep(top + 2 * pad)):
                if lcp >= top + 2 * pad:  # no new window
                    continue
                # S_0 .. S_j are the word before's
                j = min(top - 1, max(0, lcp - pad))
                S[j:] = itertools.accumulate(
                    map(step, w[pad + j:pad + top - 1]), initial=S[j])
                # his[k + 1], los[k + 1]: max and min of S up to ns[k] - 1
                for k in range(bisect.bisect_right(ns, j + 1), len(ns)):
                    seg = S[ends[k]:ends[k + 1]]
                    his[k + 1] = max(his[k], max(seg))
                    los[k + 1] = min(los[k], min(seg))
                for k in range(bisect.bisect_right(ns, lcp - 2 * pad),
                               len(ns)):
                    hist, r = hists[k], his[k + 1] - los[k + 1] + 1
                    hist[r] = hist.get(r, 0) + 1
        return dict(zip(ns, hists))


def _rotation_code(x, alpha, intercept, q, d, positions):
    """Symbols of the point x at the given positions, in integer coordinates.

    x, alpha and intercept are (A, B) pairs over q and d; symbol p is +1
    iff frac(x + p*alpha) lies below the intercept.
    """
    (x_A, x_B), (a_A, a_B), (c_A, c_B) = x, alpha, intercept
    out = []
    for p in positions:
        A, B = x_A + p * a_A, x_B + p * a_B
        A -= q * floor_coords(A, B, q, d)
        out.append(1 if _sign(A - c_A, B - c_B, d) < 0 else -1)
    return tuple(out)


class Product:
    """Componentwise product of two subshifts; symbols are label pairs."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.labels = tuple(sorted(itertools.product(left.labels, right.labels)))

    def __repr__(self):
        return "Product(%r, %r)" % (self.left, self.right)

    def words(self, length, word_cap=DEFAULT_WORD_CAP):
        lw = self.left.words(length, word_cap=word_cap)
        rw = self.right.words(length, word_cap=word_cap)
        _check_cap(len(lw) * len(rw), word_cap)
        # one tuple per label pair, shared by every word
        pair = {p: p for p in self.labels}
        return sorted(tuple(map(pair.__getitem__, zip(a, b)))
                      for a in lw for b in rw)

    def count(self, length):
        return self.left.count(length) * self.right.count(length)


# ---------------------------------------------------------------------------
# module-level operations


def complexity(spec, n):
    """|L_n|, via each variant's counting fast path (big integers)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return spec.count(n)


def language_on(spec, positions, word_cap=DEFAULT_WORD_CAP):
    """Distinct restrictions of the language to an arbitrary finite index set.

    Enumerates the interval hull of the positions and projects; by shift
    invariance the hull may be translated to start at 0.
    """
    pos = sorted(set(int(p) for p in positions))
    if not pos:
        raise ValueError("empty position set")
    span = pos[-1] - pos[0] + 1
    offsets = [p - pos[0] for p in pos]
    if span == len(pos):
        # contiguous window: the projection is the identity
        return spec.words(span, word_cap=word_cap)
    hull_words = spec.words(span, word_cap=word_cap)
    return sorted({tuple(w[i] for i in offsets) for w in hull_words})


# ---------------------------------------------------------------------------
# the standard metric and windowed points


def rho(epsilon):
    """Agreement radius of eps: min{k >= 0 : 2^-k <= eps}.

    Two points are eps-close in the standard metric iff they agree on the
    centered window of this radius (for eps < 2; at eps >= 2 every pair is
    eps-close and the radius degenerates to 0).
    """
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    k = 0
    while Fraction(1, 2 ** k) > e:
        k += 1
        if k > 4096:
            raise ValueError("epsilon too small")
    return k


class WindowPoint(namedtuple("WindowPoint", "start symbols")):
    """A symbolic point known on the window [start, start + len(symbols)).

    Reading outside the window raises WindowError rather than guessing;
    Bowen distances must be exact or fail loudly.  Shifting by k yields the
    point i -> x(i + k), i.e. the window slides to [start - k, ...).
    """

    __slots__ = ()

    def get(self, i):
        j = i - self.start
        if 0 <= j < len(self.symbols):
            return self.symbols[j]
        raise WindowError("position %d outside window [%d, %d)"
                          % (i, self.start, self.start + len(self.symbols)))

    def shift(self, k):
        return WindowPoint(self.start - k, self.symbols)


def subshift_distance(x, y):
    """Exact standard-metric distance between two windowed points.

    Scans outward from 0; the first disagreement at radius k certifies the
    value 2^-(k-1) (or 2 at k = 0).  If either window runs out first the
    distance is undecidable from the stored data and WindowError is raised.
    """
    k = 0
    while True:
        for i in ((0,) if k == 0 else (-k, k)):
            if x.get(i) != y.get(i):
                return Fraction(2) if k == 0 else Fraction(1, 2 ** (k - 1))
        k += 1


def subshift_close(x, y, epsilon):
    """Certified test of d(x, y) <= epsilon, scanning only radius rho(eps).

    Agreement out to radius rho certifies d <= 2^-rho <= eps; a first
    disagreement at radius k <= rho certifies d = 2^-(k-1) > eps by the
    minimality of rho.  Needs both windows to cover [-rho, rho] only.
    """
    if Fraction(epsilon) >= 2:
        return True
    r = rho(epsilon)
    for k in range(r + 1):
        for i in ((0,) if k == 0 else (-k, k)):
            if x.get(i) != y.get(i):
                return False
    return True


# ---------------------------------------------------------------------------
# serialization


def word_to_str(word):
    """Words as strings: digits joined bare, multi-character labels by commas.

    A single label that is itself all digits ("10") would collide with the
    bare-digit form of (1, 0), so it keeps a trailing comma.
    """
    parts = [str(a) for a in word]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    if len(parts) == 1 and parts[0].isdigit():
        return parts[0] + ","
    return ",".join(parts)


def word_from_str(text):
    text = text.strip()
    if "," in text:
        return tuple(int(p) for p in text.split(",") if p.strip())
    if text.isdigit():
        return tuple(int(c) for c in text)
    # a bare non-digit string is a single multi-character label, e.g. "-1"
    return (int(text),)


def spec_to_json(spec):
    if isinstance(spec, FullShift):
        return {"variant": "full", "alphabet": list(spec.labels)}
    if isinstance(spec, SFT):
        return {"variant": "sft", "alphabet": list(spec.labels),
                "forbidden": [word_to_str(f) for f in spec.forbidden]}
    if isinstance(spec, Sturmian):
        return {"variant": "sturmian", "alpha": num_to_json(spec.alpha),
                "intercept": num_to_json(spec.intercept)}
    if isinstance(spec, Product):
        return {"variant": "product", "left": spec_to_json(spec.left),
                "right": spec_to_json(spec.right)}
    raise TypeError("not a subshift spec: %r" % (spec,))


def spec_from_json(doc):
    variant = doc.get("variant")
    if variant == "full":
        return FullShift(doc["alphabet"])
    if variant == "sft":
        return SFT(doc["alphabet"], [word_from_str(f) for f in doc["forbidden"]])
    if variant == "sturmian":
        intercept = doc.get("intercept")
        return Sturmian(num_from_json(doc["alpha"]),
                        None if intercept is None else num_from_json(intercept))
    if variant == "product":
        return Product(spec_from_json(doc["left"]), spec_from_json(doc["right"]))
    raise ValueError("unknown subshift variant %r" % (variant,))
