"""Exact arithmetic in real quadratic fields: numbers a + b*sqrt(d).

Coefficients a, b are rationals and d is a square-free nonnegative integer.
Every comparison, floor, and fractional part is decided without floating
point, which is what boundary-sensitive circle codings need: whether
frac(x0 + n*alpha) falls left or right of a cut must never depend on
rounding.  Floor is an integer formula, floor_coords: isqrt of B^2 d
over a common denominator q.  Loops that step many numbers of one field
skip the QuadExact objects altogether: integer_coords writes each number
as (A + B sqrt(d)) / q with one q and d for all of them, floor_coords
floors that, and _sign orders integer differences; no float decides an
order.  num_to_json and num_from_json are the package's one JSON form
for exact numbers.
"""

from fractions import Fraction
import math


def _square_free(d):
    """Split d = s*s * d0 with d0 square-free; returns (s, d0)."""
    s, f = 1, 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def _sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for rationals a, b and square-free d.

    b != 0 implies sqrt(d) irrational, so the value is never zero unless
    a = b = 0; when a and b have opposite signs the comparison reduces to
    the rational comparison a^2 vs b^2*d.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


class QuadExact:
    """a + b*sqrt(d) with exact comparisons.

    Arithmetic stays inside one quadratic field: adding or multiplying two
    irrational values with different d raises.  Rational values (b == 0)
    mix freely with everything and hash like their Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 0:
            raise ValueError("negative radicand")
        if d > 0 and b != 0:
            s, d0 = _square_free(d)
            b *= s
            d = d0
            if d == 1:
                a += b
                b = Fraction(0)
                d = 0
        else:
            b = Fraction(0)
            d = 0
        if b == 0:
            d = 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExact is immutable")

    @property
    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b != 0:
            raise ValueError("not rational: %r" % (self,))
        return self.a

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadExact):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExact(x)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0:
            return QuadExact(self.a + o.a, o.b, o.d)
        if o.b == 0:
            return QuadExact(self.a + o.a, self.b, self.d)
        if self.d != o.d:
            raise ValueError("mixed radicands %d and %d" % (self.d, o.d))
        return QuadExact(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExact(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0:
            return QuadExact(self.a * o.a, self.a * o.b, o.d)
        if o.b == 0:
            return QuadExact(self.a * o.a, o.a * self.b, self.d)
        if self.d != o.d:
            raise ValueError("mixed radicands %d and %d" % (self.d, o.d))
        return QuadExact(self.a * o.a + self.b * o.b * self.d,
                         self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.b == 0:
            if o.a == 0:
                raise ZeroDivisionError
            return QuadExact(self.a / o.a, self.b / o.a, self.d)
        # multiply by the conjugate: 1/(a+b*sqrt(d)) = (a-b*sqrt(d))/(a^2-b^2 d)
        norm = o.a * o.a - o.b * o.b * o.d
        return self * QuadExact(o.a / norm, -o.b / norm, o.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _compare(self, other):
        """Exact sign of self - other (NotImplemented for foreign types).

        The difference is never built as a QuadExact: its coefficients go
        straight to the sign test.
        """
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.b != 0 and o.b != 0 and self.d != o.d:
            raise ValueError("mixed radicands %d and %d" % (self.d, o.d))
        return _sign(self.a - o.a, self.b - o.b, self.d or o.d)

    def __lt__(self, other):
        c = self._compare(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._compare(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._compare(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._compare(other)
        return c if c is NotImplemented else c >= 0

    # -- rounding ------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self):
        """Exact floor from integers alone (floor_coords)."""
        a, b = self.a, self.b
        if b == 0:
            return math.floor(a)
        q = math.lcm(a.denominator, b.denominator)
        return floor_coords(a.numerator * (q // a.denominator),
                            b.numerator * (q // b.denominator), q, self.d)

    def frac(self):
        """Fractional part, exactly: self - floor(self), in [0, 1)."""
        if self.b == 0:
            return QuadExact(self.a - math.floor(self.a))
        out = object.__new__(QuadExact)
        object.__setattr__(out, "a", self.a - math.floor(self))
        object.__setattr__(out, "b", self.b)
        object.__setattr__(out, "d", self.d)
        return out

    def __repr__(self):
        if self.b == 0:
            return "QuadExact(%s)" % (self.a,)
        return "QuadExact(%s, %s, %d)" % (self.a, self.b, self.d)


def integer_coords(values):
    """(q, d, [(A, B), ...]): each value as (A + B sqrt(d)) / q.

    values are QuadExact, Fraction or int; q is the lcm of all their
    coefficient denominators and d the one radicand among the irrational
    ones (0 if every value is rational).  Two irrational values with
    different radicands raise ValueError.
    """
    vals = [v if isinstance(v, QuadExact) else QuadExact(v) for v in values]
    radicands = {v.d for v in vals if v.b != 0}
    if len(radicands) > 1:
        raise ValueError("mixed radicands %s"
                         % " and ".join(map(str, sorted(radicands))))
    d = radicands.pop() if radicands else 0
    q = math.lcm(*(c.denominator for v in vals for c in (v.a, v.b)))
    return q, d, [(v.a.numerator * (q // v.a.denominator),
                   v.b.numerator * (q // v.b.denominator)) for v in vals]


def floor_coords(A, B, q, d):
    """floor((A + B sqrt(d)) / q) for integers A, B, q > 0, d square-free.

    With B != 0, B sqrt(d) is irrational, so with f its floor
    (isqrt(B^2 d) when B > 0, -isqrt(B^2 d) - 1 when B < 0) the value
    lies strictly inside ((A + f) / q, (A + f + 1) / q), which holds no
    integer.
    """
    if B == 0:
        return A // q
    f = math.isqrt(B * B * d)
    if B < 0:
        f = -f - 1
    return (A + f) // q


def frac_exact(x):
    """Fractional part of an exact number (Fraction, int, or QuadExact)."""
    if isinstance(x, QuadExact):
        return x.frac()
    x = Fraction(x)
    return x - math.floor(x)


def num_to_json(x):
    """JSON form of an exact number: "a/b" text, or {"a", "b", "d"} for an
    irrational QuadExact."""
    if isinstance(x, QuadExact):
        if x.is_rational:
            return str(x.as_fraction())
        return {"a": str(x.a), "b": str(x.b), "d": x.d}
    return str(Fraction(x))


def num_from_json(doc):
    """Exact number from num_to_json's form, or from a JSON number read as
    written: 0.1 is 1/10, not the binary float nearest it."""
    if isinstance(doc, dict):
        return QuadExact(Fraction(doc["a"]), Fraction(doc["b"]), int(doc["d"]))
    return Fraction(str(doc))


#: (sqrt(5) - 1) / 2, the rotation number of the golden-ratio codings.
GOLDEN_MEAN_ALPHA = QuadExact(Fraction(-1, 2), Fraction(1, 2), 5)
