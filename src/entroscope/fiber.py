"""Invertible fiber systems, Bowen distances, separated-set counts.

Four carriers: points of a subshift (the shift map), the circle under
a rotation, a finite set of exact numbers under the identity, and the
torus grid under an integer automorphism.  Each map is invertible and
T^c carries the Bowen metric over F + c onto the one over F, so every
count is the same over F and its translates.  All expose the same small
surface: iterate, exact distance, a certified distance_le predicate,
and sep_exact where an exact count exists (None otherwise).

Bowen distance over a finite index set F is
    d^B_F(x, y) = max_{i in F} d(T^i x, T^i y),
and sep(T, F, eps) is the maximal size of a subset pairwise further than
eps in d^B_F.  Symbolic fibers admit an exact count: two points are
eps-distinguishable over F exactly when their symbols differ somewhere
on the window F + [-rho(eps), rho(eps)], so sep equals the number of
distinct restrictions of the language to that window.

sep_greedy, the sorted sweep that keeps each point no kept point is
eps-close to over F, is a different thing on each carrier.  On one
point per cylinder (SymbolicFiber.sample_points) it is exhaustive: the
independent oracle the tests hold the derived window rule to.  On the
line it is exact: the identity's sep_exact is the sweep over its
points.  On the toral grid (ToralAutoFiber.sample_points), the only
carrier whose sep_exact returns None, it is a lower bound, so toral
counts are greedy brackets, never point estimates.
"""

import math
from fractions import Fraction

from .exactnum import QuadExact, frac_exact, num_from_json, num_to_json
from .symbolic import (WindowPoint, complexity, language_on, rho,
                       spec_from_json, spec_to_json, subshift_close,
                       subshift_distance)
from .util import ConfigError, as_int


def _exact_eps(epsilon):
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    return e


def _circle_distance(s, t):
    """min(|s - t|, 1 - |s - t|) on the circle of circumference 1."""
    u = frac_exact(s - t)
    return u if u <= 1 - u else 1 - u


# ---------------------------------------------------------------------------
# fiber carriers


class SymbolicFiber:
    """A subshift under its shift map; points are WindowPoints."""

    def __init__(self, spec):
        self.spec = spec

    def __repr__(self):
        return "SymbolicFiber(%r)" % (self.spec,)

    def iterate(self, x, k):
        return x.shift(k)

    def distance(self, x, y):
        # equal representatives stand for one point, not two cylinder members
        if x == y:
            return Fraction(0)
        return subshift_distance(x, y)

    def distance_le(self, x, y, epsilon):
        if x == y:
            return True
        return subshift_close(x, y, epsilon)

    def sep_exact(self, F, epsilon):
        return sep_exact_symbolic(self.spec, F, epsilon)

    def sample_points(self, F, epsilon):
        """One representative per cylinder on the hull of F widened by rho.

        The widened hull is exactly what the certified closeness scan
        reads, so greedy over these representatives is exhaustive.
        """
        margin = rho(epsilon)
        lo = min(F) - margin
        hi = max(F) + margin
        words = language_on(self.spec, range(lo, hi + 1))
        return [WindowPoint(lo, w) for w in words]


class RotationFiber:
    """The circle of circumference 1 under x -> x + angle, all exact.

    distance(x, y) = min(|x - y|, 1 - |x - y|); the rotation is an
    isometry, so Bowen distances collapse to the plain metric and
    separated counts do not depend on F at all.
    """

    def __init__(self, angle):
        if not isinstance(angle, QuadExact):
            angle = QuadExact(Fraction(angle))
        self.angle = angle.frac()

    def __repr__(self):
        return "RotationFiber(%r)" % (self.angle,)

    def iterate(self, x, k):
        return frac_exact(x + k * self.angle)

    def distance(self, x, y):
        return _circle_distance(x, y)

    def distance_le(self, x, y, epsilon):
        return self.distance(x, y) <= _exact_eps(epsilon)

    def sep_exact(self, F, epsilon):
        return circle_sep_exact(epsilon)


class IdentityFiber:
    """A finite set of exact numbers fixed pointwise; Bowen distance is d.

    The metric is |x - y| on Fractions and QuadExacts alike, so a
    separated set is one on the line, and sep_exact is sep_greedy over
    the points: the sorted sweep takes a point when it lies more than eps
    past the last point taken.  That is a maximum, by exchange: if
    y_1 < ... < y_k are pairwise further than eps and the sweep's first
    i points g_1 < ... < g_i have g_i <= y_i, then y_{i+1} > y_i + eps >=
    g_i + eps, so the sweep takes an (i+1)-th point, at most y_{i+1}.
    """

    def __init__(self, points):
        pts = list(points)
        if not pts:
            raise ValueError("need at least one point")
        self.points = pts

    def __repr__(self):
        return "IdentityFiber(%r)" % (self.points,)

    def iterate(self, x, k):
        return x

    def distance(self, x, y):
        d = x - y
        return d if d >= 0 else -d

    def distance_le(self, x, y, epsilon):
        return self.distance(x, y) <= _exact_eps(epsilon)

    def sep_exact(self, F, epsilon):
        return sep_greedy(self, self.points, F, _exact_eps(epsilon))


class ToralAutoFiber:
    """The rational grid (i/N, j/N) under an integer matrix of det +-1.

    The grid is invariant under both the matrix and its integer inverse,
    so all iterates stay exact.  The metric is the max of the coordinate
    circle metrics.  No closed-form separated count exists here; callers
    get greedy brackets only (sep_exact returns None).

    A bracket over F - min F is one over F: the matrix permutes the
    grid, and d_{F+c}(x, y) = d_F(T^c x, T^c y), so T^c maps each
    eps-separated (spanning) subset of the grid over F + c onto one over
    F of the same size, a greedy set over F - min F onto a maximal
    separated set over F.
    """

    def __init__(self, matrix, grid):
        (a, b), (c, d) = matrix
        a, b, c, d = as_int(a), as_int(b), as_int(c), as_int(d)
        det = a * d - b * c
        if det not in (1, -1):
            raise ConfigError("matrix determinant must be +-1, got %d" % det)
        grid = as_int(grid)
        if grid < 1:
            raise ValueError("grid resolution must be >= 1")
        self.matrix = ((a, b), (c, d))
        self.det = det
        # exact integer inverse: adjugate over the unit determinant
        self.inverse = ((d * det, -b * det), (-c * det, a * det))
        self.grid = grid
        self._powers = {0: ((1, 0), (0, 1))}

    def __repr__(self):
        return "ToralAutoFiber(%r, grid=%d)" % (self.matrix, self.grid)

    def _power(self, k):
        if k in self._powers:
            return self._powers[k]
        step = 1 if k > 0 else -1
        base = self.matrix if k > 0 else self.inverse
        j = k
        while j not in self._powers:
            j -= step
        m = self._powers[j]
        while j != k:
            (a, b), (c, d) = m
            (p, q), (r, s) = base
            m = ((a * p + b * r, a * q + b * s),
                 (c * p + d * r, c * q + d * s))
            j += step
            self._powers[j] = m
        return m

    def iterate(self, x, k):
        (a, b), (c, d) = self._power(k)
        u, v = x
        return (frac_exact(a * u + b * v), frac_exact(c * u + d * v))

    def distance(self, x, y):
        return max(_circle_distance(x[0], y[0]),
                   _circle_distance(x[1], y[1]))

    def distance_le(self, x, y, epsilon):
        return self.distance(x, y) <= _exact_eps(epsilon)

    def sep_exact(self, F, epsilon):
        return None

    def sample_points(self, F, epsilon):
        n = self.grid
        return [(Fraction(i, n), Fraction(j, n))
                for i in range(n) for j in range(n)]


# ---------------------------------------------------------------------------
# Bowen distances and counts


def bowen_distance(T, x, y, F):
    """max over i in F of d(T^i x, T^i y), exact per the fiber's metric."""
    if not F:
        raise ValueError("F must be nonempty")
    return max(T.distance(T.iterate(x, i), T.iterate(y, i)) for i in F)


def bowen_le(T, x, y, F, epsilon):
    """Certified d^B_F(x, y) <= epsilon without computing the full max."""
    if not F:
        raise ValueError("F must be nonempty")
    return all(T.distance_le(T.iterate(x, i), T.iterate(y, i), epsilon)
               for i in F)


def sep_exact_symbolic(spec, F, epsilon):
    """Exact sep(shift, F, eps): distinct windows on F + [-rho, rho].

    Any two points differing on that window are certified further than
    eps at some time in F, and any two agreeing there are eps-close at
    every time in F, so the language restriction counts a maximal
    separated family.  eps >= 2 makes every pair close: the count is 1.
    An interval F (a range with step 1, as the fiber classes of interval
    steps are) widens to the interval of len(F) + 2 rho letters.
    """
    e = _exact_eps(epsilon)
    interval = isinstance(F, range) and F.step == 1
    if not interval:
        F = sorted(set(int(i) for i in F))
    if not F:
        raise ValueError("F must be nonempty")
    if e >= 2:
        return 1
    r = rho(e)
    if interval:
        return complexity(spec, len(F) + 2 * r)
    window = sorted({i + d for i in F for d in range(-r, r + 1)})
    span = window[-1] - window[0] + 1
    if span == len(window):
        return complexity(spec, span)
    return len(language_on(spec, window))


def sep_greedy(T, sample, F, epsilon):
    """Greedy eps,F-separated subset of the sample (a certified lower bound).

    The sample is sorted first so results are reproducible.  A candidate
    joins when no accepted point is eps-close to it at every time in F.
    The result is maximal by inclusion within the sample; on exhaustive
    cylinder samples of a symbolic fiber it equals the exact count.
    """
    pts = sorted(sample)
    if not pts:
        raise ValueError("empty sample")
    accepted = []
    for x in pts:
        if not any(bowen_le(T, x, y, F, epsilon) for y in accepted):
            accepted.append(x)
    return len(accepted)


def sep_count(T, F, epsilon):
    """(count, exact flag): closed form when the fiber has one, else greedy."""
    exact = T.sep_exact(F, epsilon)
    if exact is not None:
        return exact, True
    sample = T.sample_points(F, epsilon)
    return sep_greedy(T, sample, F, epsilon), False


def spa_bracket(T, F, epsilon):
    """Two-sided bracket on the spanning count: (sep at 2*eps, sep at eps).

    spa(T,F,eps) is sandwiched by separated counts on both sides; when
    the fiber only supports greedy, both endpoints stay valid because a
    greedy separated set undercounts sep at 2*eps and any maximal-by-
    inclusion eps-separated set is eps-spanning.
    """
    e = _exact_eps(epsilon)
    lower, _ = sep_count(T, F, 2 * e)
    upper, _ = sep_count(T, F, e)
    return lower, upper


def circle_sep_exact(epsilon):
    """Max points on the unit-circumference circle pairwise further than eps.

    Gaps around the circle sum to 1 and each must exceed eps, so the
    count is the largest N with N*eps < 1 (at least 1 for huge eps).
    """
    e = _exact_eps(epsilon)
    inv = 1 / e
    if inv.denominator == 1:
        n = inv.numerator - 1
    else:
        n = math.floor(inv)
    return max(1, n)


# ---------------------------------------------------------------------------
# serialization


def fiber_to_json(T):
    if isinstance(T, SymbolicFiber):
        return {"variant": "symbolic", "spec": spec_to_json(T.spec)}
    if isinstance(T, RotationFiber):
        return {"variant": "rotation", "angle": num_to_json(T.angle)}
    if isinstance(T, IdentityFiber):
        return {"variant": "identity",
                "points": [num_to_json(p) for p in T.points]}
    if isinstance(T, ToralAutoFiber):
        return {"variant": "toral",
                "matrix": [list(row) for row in T.matrix], "grid": T.grid}
    raise TypeError("not a fiber system: %r" % (T,))


def fiber_from_json(doc):
    variant = doc.get("variant")
    if variant == "symbolic":
        return SymbolicFiber(spec_from_json(doc["spec"]))
    if variant == "rotation":
        return RotationFiber(num_from_json(doc["angle"]))
    if variant == "identity":
        return IdentityFiber([num_from_json(p) for p in doc["points"]])
    if variant == "toral":
        return ToralAutoFiber(doc["matrix"], doc["grid"])
    raise ValueError("unknown fiber variant %r" % (variant,))
