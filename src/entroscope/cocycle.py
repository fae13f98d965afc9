"""Integer cocycles over a subshift and their ergodic-sum profiles.

A cocycle tau of radius s reads the centered window [-s, s] of a point
and returns an integer.  Over a word w of length n + 2s (the window
[-s, n+s-1], as spec.words(n + 2s) lists them) the ergodic sums
tau^0 = 0, tau^j = sum of the first j window values are all determined,
and the profile of w is its visited set V = {tau^0, ..., tau^{n-1}}, its
size r and q = |V + {0, ..., m-1}| at the cocycle's own bound m.

ergodic_sums is the one ergodic-sum routine, and visited_sets the one
loop from words to visited sets, read by every enumerated count.

counting_plan is the one place that decides how (base, rule) is
counted, and its plan, which records the word budget and owns the memo
of the counts, is the handle of every count.  It reduces a product base
to the factor the rule reads (read_factor): the rule is rewritten on
that factor, and every count over the product is the same count over
the factor times the word counts of the dropped factors
(dropped_count).  enumeration_plan is the oracle of every plan count:
a plan over the raw base, product included, that enumerates its words.

plan_classes is the one routine that turns a plan's words into fiber
classes, each word's visited set translated to start at 0 (range(r)
where the plan has interval steps), optionally over the middle window
of longer words (pad), and keeps them in the plan's memo; the skew
counts read them and plan_histograms, profile_counts and
unbounded_evidence project them.  Where the plan has interval steps it
counts walks inside strips instead of enumerating words: for each width
w, T_n(w) counts the walks that stay inside [0, w] from each start, and
the range histogram is a second difference of those counts in w
(_ranges_from_strips).  On a full shift with as many -1 letters as +1
letters the plan says "images": T_n(w) comes in closed form from one
row of step counts by the method of images (_images_pass).  On any
other SFT it says "strips": each graph node's positions are packed as
fields of one exact Python integer, and one pass per width serves every
requested n (_walk_pass), the runtime oracle of the images.
walk_range_distribution, a dynamic program over (graph node,
cur - min, max - cur) on dicts of Python integers, one integer per node
and cur - min whose fields count the walks by max - cur, is the
independent oracle both are checked against: it tracks each walk's own
extent, where the engines count walks inside fixed strips.
"""

import json
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate
from math import prod

from .sequence import cover_size
from .symbolic import (SFT, Product, Sturmian, word_from_str,
                       word_to_str)
from .util import (DEFAULT_WORD_CAP, CapExceeded, ConfigError,
                   SturmianHorizonError, as_int)


class Cocycle:
    """Radius-s integer cocycle given by a total rule on centered windows.

    bound is max(1, max |value|); the floor of 1 keeps the zero cocycle
    usable wherever a positive bound m is required.  The radius and the
    values must be integers (as_int).
    """

    def __init__(self, rule, radius=0):
        radius = as_int(radius)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        width = 2 * radius + 1
        clean = {}
        for k, v in rule.items():
            key = tuple(k)
            if len(key) != width:
                raise ValueError("rule key %r has length %d, expected %d"
                                 % (key, len(key), width))
            clean[key] = as_int(v)
        if not clean:
            raise ValueError("rule must be nonempty")
        self.radius = radius
        self.rule = clean
        self.bound = max(1, max(abs(v) for v in clean.values()))

    def __repr__(self):
        return "Cocycle(%r, radius=%d)" % (self.rule, self.radius)

    def value(self, window):
        """tau on one centered window; undefined windows are a config error."""
        key = tuple(window)
        try:
            return self.rule[key]
        except KeyError:
            raise ConfigError("cocycle rule undefined on window %r" % (key,))

    def step_values(self):
        """For radius 0: the rule as {label: step}; None otherwise."""
        if self.radius != 0:
            return None
        return {k[0]: v for k, v in self.rule.items()}


def ergodic_sums(tau, w):
    """(tau^0, ..., tau^n) along a word of length n + 2s.

    Index i of the word is position i - s; the window of time j spans
    tuple indices j .. j + 2s, so all of tau^0 .. tau^n are determined.
    The windows are the columns of 2s + 1 shifted slices.
    """
    s = tau.radius
    n = len(w) - 2 * s
    if n < 1:
        raise ValueError("word of length %d too short for radius %d"
                         % (len(w), s))
    windows = zip(*(w[i:i + n] for i in range(2 * s + 1)))
    try:
        return tuple(accumulate(map(tau.rule.__getitem__, windows),
                                initial=0))
    except KeyError as exc:
        missing = exc.args[0]
    tau.value(missing)  # raises the ConfigError naming the window


def visited_sets(spec, tau, n, word_cap=DEFAULT_WORD_CAP, pad=0):
    """{V: word count} over L_{n+2pad,s}, V read off each word's middle window.

    V = (tau^0, ..., tau^{n-1}) as a sorted tuple of distinct sums along
    the middle n + 2s letters.  Distinct middles are counted first, so
    each is summed once however many words share it.
    """
    width = n + 2 * tau.radius
    middles = Counter(w[pad:pad + width]
                      for w in spec.words(width + 2 * pad, word_cap=word_cap))
    out = {}
    for w, cnt in middles.items():
        V = tuple(sorted(set(ergodic_sums(tau, w)[:-1])))
        out[V] = out.get(V, 0) + cnt
    return out


# ---------------------------------------------------------------------------
# the factor a rule reads


def read_factor(spec, tau):
    """(base, rule, dropped factors): the factor of a product base tau reads.

    While the base is a Product whose rule is defined on every window of
    its language (length 2s + 1) and constant across one factor's
    windows, that factor is dropped and the rule rewritten on the other;
    nested products reduce one level at a time.  The words of L_n of a
    product are the pairs of words of its factors, so every count over
    the product is the same count over the read factor times the dropped
    factors' dropped_count, and every max over words is the same max.
    Any other (spec, tau) comes back as it is with no dropped factors: a
    rule reading both coordinates, or undefined on some window, keeps
    the product, its enumeration and its errors.
    """
    dropped = []
    while isinstance(spec, Product):
        step = _drop_factor(spec, tau)
        if step is None:
            break
        spec, tau, ignored = step
        dropped.append(ignored)
    return spec, tau, tuple(dropped)


def _drop_factor(spec, tau):
    """(kept factor, rule on its windows, dropped factor), or None.

    A total rule has a key for each pair of factor windows, so a factor
    with more windows than the rule has keys (or none at all) leaves
    the product as it is; so does a factor whose windows cannot be
    enumerated (a Sturmian horizon), which the unreduced path reports.
    The right factor is dropped first when the rule reads neither.
    """
    width = 2 * tau.radius + 1
    try:
        left, right = (f.words(width, word_cap=len(tau.rule))
                       for f in (spec.left, spec.right))
    except (CapExceeded, SturmianHorizonError):
        return None
    if not left or not right or len(left) * len(right) > len(tau.rule):
        return None
    table = [[tau.rule.get(tuple(zip(u, v))) for v in right] for u in left]
    if any(None in row for row in table):
        return None
    for kept, windows, rows, ignored in (
            (spec.left, left, table, spec.right),
            (spec.right, right, list(zip(*table)), spec.left)):
        if all(len(set(row)) == 1 for row in rows):
            rule = {w: row[0] for w, row in zip(windows, rows)}
            return kept, Cocycle(rule, tau.radius), ignored
    return None


def dropped_count(dropped, length):
    """Words of the given length in the product of the dropped factors."""
    return prod(f.count(length) for f in dropped)


# ---------------------------------------------------------------------------
# the counting plan


CountingPlan = namedtuple("CountingPlan", "spec tau factor rule dropped "
                          "steps histograms sup word_cap memo")


def counting_plan(spec, tau, word_cap=DEFAULT_WORD_CAP):
    """How every count over (spec, tau) runs, decided once.

    spec and tau are the base and rule as given, read by the oracles and
    for tau's bound; factor, rule and dropped are read_factor's.  steps
    is the rule as {label: step} when every visited set is an integer
    interval (a radius-0 rule with steps in {-1, 0, 1}: its size r fixes
    V up to translation), else None.  histograms names the engine of the
    range histograms: for such steps, "images" (_images_pass) on a full
    shift (an SFT with no forbidden words) whose letters step -1 as
    often as +1, the symmetric walk the method of images counts, else
    "strips" (_walk_pass) on a full shift or SFT factor; "enumeration"
    (visited_sets) otherwise.  sup is how birkhoff_sup takes its max:
    "cell walk" on a Sturmian factor, "graph pass" for a radius-0 rule
    on a full shift or SFT, else "enumeration" (a loop over the words).
    word_cap is the budget of the words that its counts enumerate (see
    plan_classes) and that its oracle enumerates (enumeration_plan).
    memo is {pad: {n: {class: count}}}, the factor's classes
    (plan_classes).
    """
    if not isinstance(tau, Cocycle):
        raise TypeError("tau must be a Cocycle")
    factor, rule, dropped = read_factor(spec, tau)
    steps = rule.step_values()
    if steps and any(abs(v) > 1 for v in steps.values()):
        steps = None
    graph = isinstance(factor, SFT)
    sup = ("cell walk" if isinstance(factor, Sturmian) else
           "graph pass" if graph and rule.radius == 0 else "enumeration")
    histograms = "enumeration"
    if graph and steps:
        moves = Counter(steps.get(a) for a in factor.labels)
        symmetric = None not in moves and moves[1] == moves[-1]
        histograms = ("images" if symmetric and not factor.forbidden
                      else "strips")
    return CountingPlan(spec, tau, factor, rule, dropped, steps, histograms,
                        sup, word_cap, {})


def enumeration_plan(spec, tau, word_cap=DEFAULT_WORD_CAP):
    """The oracle of counting_plan(spec, tau, word_cap): a plan that
    enumerates the words of spec itself, a product's raw pairs included,
    for every count, within word_cap, into a memo of its own."""
    return CountingPlan(spec, tau, spec, tau, (), None, "enumeration",
                        "enumeration", word_cap, {})


# ---------------------------------------------------------------------------
# range-distribution DP


def walk_range_distribution(spec, steps, values):
    """Histogram {r: word count} of visited-set sizes over L_{steps+1}.

    The oracle for plan_histograms, one n at a time in dicts of Python
    integers, and a different formulation from its strip counts: it
    tracks each walk's own extent rather than walks inside fixed strips.
    Valid for radius-0 step rules with values in {-1, 0, 1} on a full
    shift or SFT: every visited set is then an integer interval, so the
    state (graph node, a = cur - min, b = max - cur) suffices.  Each
    node keeps a dict {a: c}, c one integer whose F-bit fields are the
    counts over b, F the bits of |A|^n.  A +1 step moves c to a + 1 as
    (c >> F) + (c & low) (b falls by one, but not below 0), a -1 step
    moves it to max(a - 1, 0) as c << F, and a 0 step keeps it at a.
    steps is n - 1: the last letter of an n-word contributes no step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    vals = {k: int(v) for k, v in values.items()}
    if any(abs(v) > 1 for v in vals.values()):
        raise ValueError("walk DP needs step values in {-1, 0, 1}")
    if not isinstance(spec, SFT):
        raise ValueError("walk DP needs a full shift or SFT base")
    _check_steps(spec, vals)
    n = steps + 1
    states, edges = spec.graph()
    if not states:
        return {}
    K = spec.context
    if n <= K:
        # tiny windows: profile the handful of state prefixes directly
        out = {}
        for w in spec.words(n):
            sums = [0]
            for a in w[:-1]:
                sums.append(sums[-1] + vals[a])
            r = max(sums) - min(sums) + 1
            out[r] = out.get(r, 0) + 1
        return out

    # dp[node]: {a: c} with a = cur - min, and the count of each
    # b = max - cur in bits F b .. F b + F - 1 of c; no count of a prefix
    # reaches |A|^n, so no field carries into the next
    F = (len(spec.labels) ** n).bit_length()
    low = (1 << F) - 1
    dp = [{} for _ in states]
    for i, u in enumerate(states):
        a = b = 0
        for letter in u:
            v = vals[letter]
            a, b = max(a + v, 0), max(b - v, 0)
        dp[i][a] = dp[i].get(a, 0) + (1 << F * b)
    for _ in range(n - 1 - K):
        ndp = [{} for _ in states]
        for row, out_edges in zip(dp, edges):
            for a, c in row.items():
                for letter, j in out_edges:
                    v = vals[letter]
                    if v > 0:  # b = 0 stays at the new max
                        to, moved = a + 1, (c >> F) + (c & low)
                    elif v < 0:  # a = 0 stays at the new min
                        to, moved = max(a - 1, 0), c << F
                    else:
                        to, moved = a, c
                    ndp[j][to] = ndp[j].get(to, 0) + moved
        dp = ndp
    # the final letter of the word carries no step, only multiplicity
    out = {}
    for row, out_edges in zip(dp, edges):
        for a, c in row.items():
            r = a + 1
            while c:
                if c & low:
                    out[r] = out.get(r, 0) + (c & low) * len(out_edges)
                c >>= F
                r += 1
    return out


def _check_steps(base, vals):
    """A step rule must cover each letter of the SFT's language.

    Letters on no edge of the trimmed graph occur in no word, so a rule
    rewritten on a factor's language (read_factor) need not name them.
    """
    live = {a for row in base.graph()[1] for a, _ in row}
    missing = [a for a in base.labels if a in live and a not in vals]
    if missing:
        raise ConfigError("step rule undefined on labels %r" % (missing,))


# ---------------------------------------------------------------------------
# a plan's fiber classes and their projections


def plan_classes(plan, ns, pad=0):
    """{n: {fiber class: word count}} over L_{n+2pad,s} for every n in ns.

    A class is the visited set of a word's middle window of n (+ 2s)
    letters translated to start at 0, which no fiber count tells apart
    (see fiber): range(r) where the plan has interval steps.  With
    pad = p the words are the base windows a skew separated count at
    rho(eps) = p ranges over.  The factor's classes fill the plan's memo
    once: where the plan says "images" or "strips", the requested n with
    n + pad beyond the graph's memory K come from one call of that
    engine (_images_pass or _walk_pass); shorter windows, and every n
    where it says "enumeration", are enumerated word by word, within the
    plan's word cap only where no engine counts.  Each call returns
    fresh dicts: the factor's counts times the dropped factors' words.
    """
    ns = sorted(set(int(n) for n in ns))
    if ns and ns[0] < 1:
        raise ValueError("n must be >= 1")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    spec, tau = plan.factor, plan.rule
    memo = plan.memo.setdefault(pad, {})
    todo = [n for n in ns if n not in memo]
    counted = plan.histograms != "enumeration"
    # the strips start past the graph's memory K
    passed = [n for n in todo if counted and n + pad > spec.context]
    for n in todo:
        if n not in passed:
            sets = visited_sets(spec, tau, n, pad=pad,
                                word_cap=None if counted else plan.word_cap)
            memo[n] = (translated(sets) if plan.steps is None
                       else _ranges(_histogram(sets)))
    if passed:
        _check_steps(spec, plan.steps)
        engine = _images_pass if plan.histograms == "images" else _walk_pass
        for n, hist in engine(spec, plan.steps, passed, pad).items():
            memo[n] = _ranges(hist)
    extra = 2 * tau.radius + 2 * pad  # letters of a word beyond n
    return {n: _scaled(memo[n], dropped_count(plan.dropped, n + extra))
            for n in ns}


def translated(sets):
    """{V - min V: count, summed} from {visited set V: count}."""
    out = {}
    for V, cnt in sets.items():
        key = tuple(v - V[0] for v in V)
        out[key] = out.get(key, 0) + cnt
    return out


def _ranges(hist):
    """{range(r): count} from {r: count}: the classes of interval steps."""
    return {range(r): cnt for r, cnt in hist.items()}


def _scaled(counts, k):
    """A fresh {key: count * k}."""
    return {key: cnt * k for key, cnt in counts.items()}


def _histogram(sets):
    """{r: count} from {set: count}, r the size of each set."""
    out = {}
    for V, cnt in sets.items():
        out[len(V)] = out.get(len(V), 0) + cnt
    return out


def plan_histograms(plan, ns, pad=0):
    """{n: {r: word count}} for every n in ns: plan_classes' class sizes."""
    return {n: _histogram(classes)
            for n, classes in plan_classes(plan, ns, pad).items()}


def range_distribution(plan, n):
    """{r: count} over L_{n,s}."""
    return plan_histograms(plan, [n])[n]


def unbounded_evidence(plan, N, n_values):
    """Proportion of words w in L_{n,s} with r_n(w) >= N over the given
    n values, plus a qualitative flag.

    This is the finite-n observable behind lambda-unboundedness; the
    defining property is a statement about all n and is not decidable
    from any single value.  The curve is read off one request, so one
    pass serves every n.  The flag only says the proportion stayed at or
    above its starting level through n_max; it is evidence at level
    (N, n_max), never a verdict on the unboundedness property itself.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    hists = plan_histograms(plan, n_values)
    curve = []
    for n, hist in hists.items():  # n ascending
        total = sum(hist.values())
        if total == 0:
            raise ValueError("empty language at n=%d" % n)
        hit = sum(cnt for r, cnt in hist.items() if r >= N)
        curve.append((n, Fraction(hit, total)))
    flag = all(p >= curve[0][1] for _, p in curve)
    return {"N": N, "curve": curve, "nondecreasing_from_start": flag,
            "n_max": curve[-1][0]}


def profile_counts(plan, n):
    """{(r, q): count} over L_{n,s} with q = r * c_m(V) = |V + {0..m-1}|,
    m the bound of the plan's tau.

    r and q are the size and cover size of each word's class
    (plan_classes), which no translate changes.
    """
    out = {}
    for F, cnt in plan_classes(plan, [n])[n].items():
        key = (len(F), cover_size(F, plan.tau.bound))
        out[key] = out.get(key, 0) + cnt
    return out


# ---------------------------------------------------------------------------
# the range engines


def _field_bits(k, top, pad):
    """Bits of one packed strip field, for windows up to top on k letters.

    A field counts (word prefix, start) pairs at one position of one
    node, or of the sum of a node's in-edges: fewer than the
    (top + 1) * k^(top + 2 pad) pairs of all words and starts, so no
    field carries into the next.  One bit is spare.
    """
    return ((top + 1) * k ** (top + 2 * pad)).bit_length() + 1


def _walk_pass(base, vals, ns, pad):
    """{n: {r: count}} for every n in ns, all with n + pad beyond base.context.

    Counts the words of L_{n+2pad} by the range of their middle n-window,
    by strip counting.  T_n(w) counts the pairs (word, start x0) whose
    middle walk from x0 stays inside [0, w], and the histogram is its
    second difference in w (_ranges_from_strips).  _strip_counts gives
    T_n(w) for every n in one pass, so w = 0 .. max(ns) - 1 serve every n.

    The walk starts at each node with the steps among the node's own
    letters (its last K - pad, when pad < K) and with the node's left
    weight: the number of words of length max(K, pad) ending in it, that
    is paths of length max(0, pad - K) into it.  A middle window's last
    letter carries no step, and pad more letters follow it, so once the
    window's n - 1 steps are taken each node counts with its right
    weight, its paths of length pad + 1 out of it.  At pad = 0 the left
    weights are 1 and the right ones the out-degrees.
    """
    states, edges = base.graph()
    if not states:
        return {n: {} for n in ns}
    K = base.context
    own = max(0, K - pad)  # steps among the start nodes' letters
    top = max(ns)
    left = base.path_counts(max(0, pad - K), into=True)
    right = base.path_counts(pad + 1)
    # in-edges of each node grouped by step: a group's sources are summed,
    # then shifted once
    ins = [{} for _ in states]
    for i, row in enumerate(edges):
        for label, j in row:
            ins[j].setdefault(vals[label], []).append(i)
    moves = [sorted(groups.items()) for groups in ins]
    starts = [[vals[a] for a in u[K - own:]] for u in states]
    F = _field_bits(len(base.labels), top, pad)
    strips = {n: [] for n in ns}
    for w in range(top):
        emit = {n - 1 - own: n for n in ns if n > w}
        for n, T in _strip_counts(w, F, moves, starts, left, right,
                                  emit).items():
            strips[n].append(T)
    return {n: _ranges_from_strips(T) for n, T in strips.items()}


def _ranges_from_strips(T):
    """{r: count} from the strip counts T[w] = T_n(w), w = 0 .. n - 1.

    A walk of range r fits in [0, w] from max(0, w + 2 - r) starts, so
    #(range <= r) = T_n(r - 1) - T_n(r - 2), with T_n(-1) = T_n(-2) = 0,
    and the histogram is its difference in r.
    """
    T = [0, 0] + T
    at_most = [b - a for a, b in zip(T, T[1:])]  # range <= r, r = 0 .. n
    return {r: at_most[r] - at_most[r - 1] for r in range(1, len(at_most))
            if at_most[r] != at_most[r - 1]}


def _images_pass(base, vals, ns, pad):
    """{n: {r: count}} for every n in ns, on a full shift with as many
    -1 letters as +1 letters: _walk_pass's counts in closed form.

    On a full shift the pad letters and the middle window's last letter
    are free, so T_n(w) is |A|^(2 pad + 1) times the weighted number of
    pairs (walk of s = n - 1 steps, start a) that stay inside [0, w].
    With c letters on each of the steps -1 and +1, c0 on 0, and P(d)
    the coefficient of x^d in (c/x + c0 + c x)^s (_step_row), the walks
    from a to b that stay inside [0, w] number, by the method of images
    (the reflection principle; Feller, vol. 1, ch. XIV),
        sum over k of P(b - a + 2kL) - P(-2 - a - b + 2kL),  L = w + 2.
    Summed over a and b in [0, w], the two images are triangle-weighted
    windows tri(2kL) and tri((2k - 1)L) of the row, so T_n(w) is the sum
    over all integers j of (-1)^j tri(jL), where tri(-jL) = tri(jL) as P
    is even.  With S2 the second-order prefix sums of the row, the
    window centred at d is S2[d + s + w + 2] - 2 S2[d + s + 1] +
    S2[d + s - w]: O(1) per image.  Width w meets the row in O(s / w)
    images, so every width together costs O(n log n) big-integer
    operations.
    """
    steps = [vals[a] for a in base.labels]
    c, c0 = steps.count(1), steps.count(0)
    if steps.count(-1) != c:
        raise ValueError("images need as many -1 steps as +1 steps")
    k = len(base.labels) ** (2 * pad + 1)
    out = {}
    for n in ns:
        s = n - 1
        # zeros past the row keep every index of an image in range
        row = _step_row(c, c0, s) + [0] * (2 * s + 2)
        S2 = list(accumulate(accumulate(row, initial=0), initial=0))
        T = []
        for w in range(n):
            L = w + 2
            t = S2[s + w + 2] - 2 * S2[s + 1] + S2[s - w]
            sign = -2
            for d in range(s + L, 2 * s + w + 1, L):  # d = jL + s, j >= 1
                t += sign * (S2[d + w + 2] - 2 * S2[d + 1] + S2[d - w])
                sign = -sign
            T.append(t)
        out[n] = _scaled(_ranges_from_strips(T), k)
    return out


def _step_row(c, c0, s):
    """Coefficients of (c/x + c0 + c x)^s at x^-s .. x^s, in O(s) steps.

    With Q = c + c0 x + c x^2 the row is that of P = Q^s, and
    Q P' = s Q' P gives the three-term recurrence
        c (m + 1) p[m+1] = c0 (s - m) p[m] + c (2s - m + 1) p[m-1],
    the binomial one when c0 = 0.  The row is symmetric, so its first
    half is mirrored.
    """
    if c == 0:
        return [0] * s + [c0 ** s] + [0] * s
    half, prev = [c ** s], 0
    for m in range(s):
        p = half[m]
        half.append((c0 * (s - m) * p + c * (2 * s - m + 1) * prev)
                    // (c * (m + 1)))
        prev = p
    return half + half[-2::-1]


def _strip_counts(width, F, moves, starts, left, right, emit):
    """{n: T_n(width)} for n in emit.values(), from one walk of the graph.

    Each node holds the positions 0..width of its weighted walks as one
    int of F-bit fields (position x in bits F x .. F x + F - 1), and
    beside it their total, its mass.  A +1 step shifts the fields up and
    masks off the one leaving the strip, a -1 step shifts them down; the
    field that falls off is subtracted from the mass.  A node starts with
    its left weight at every position, then takes the steps of its own
    letters.  After emit's step counts t, T_n(width) is the sum of each
    node's mass times its right weight.
    """
    low = (1 << F) - 1
    mask = (1 << F * (width + 1)) - 1
    hi = F * width  # the shift that exposes the top field
    ones = mask // low  # a 1 in every field
    cs, ms = [], []
    for steps, weight in zip(starts, left):
        c, m = weight * ones, weight * (width + 1)
        for v in steps:
            if v > 0:
                c, m = (c << F) & mask, m - (c >> hi)
            elif v < 0:
                c, m = c >> F, m - (c & low)
        cs.append(c)
        ms.append(m)
    out = {}
    last = max(emit)
    for t in range(last + 1):
        if t in emit:
            out[emit[t]] = sum(m * r for m, r in zip(ms, right))
            if t == last:
                break
        nc, nm = [], []
        for groups in moves:
            c_to = None
            for v, srcs in groups:
                c, m = cs[srcs[0]], ms[srcs[0]]
                for i in srcs[1:]:
                    c += cs[i]
                    m += ms[i]
                if v > 0:
                    c, m = (c << F) & mask, m - (c >> hi)
                elif v < 0:
                    c, m = c >> F, m - (c & low)
                if c_to is None:
                    c_to, m_to = c, m
                else:
                    c_to += c
                    m_to += m
            nc.append(c_to)
            nm.append(m_to)
        cs, ms = nc, nm
    return out


# ---------------------------------------------------------------------------
# serialization


def cocycle_to_json(tau):
    """{"radius", "rule"}, each rule window keyed as word_to_str writes
    it, or, when its labels are a product's pairs (nested as deep as the
    product), as a JSON array such as "[[-1,1]]"."""
    rule = {}
    for k, v in sorted(tau.rule.items()):
        if all(isinstance(a, int) for a in k):
            rule[word_to_str(k)] = v
        else:
            rule[json.dumps(k, separators=(",", ":"))] = v
    return {"radius": tau.radius, "rule": rule}


def cocycle_from_json(doc):
    rule = {(_tuples(json.loads(k)) if k.startswith("[") else
             word_from_str(k)): v for k, v in doc["rule"].items()}
    return Cocycle(rule, radius=doc.get("radius", 0))


def _tuples(x):
    """x with its JSON arrays, at any depth, as tuples."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x
