"""Shared plumbing: error types, the default word cap, integer reading,
big-integer logs."""

import math

# words an enumeration may list before it raises CapExceeded
DEFAULT_WORD_CAP = 2 ** 20


class CapExceeded(RuntimeError):
    """An enumeration or pair budget was exhausted before completion."""


class OracleMismatch(RuntimeError):
    """A fast path disagreed with its defining enumeration at runtime."""


class ConfigError(ValueError):
    """A config document or CLI argument set failed validation."""


class WindowError(ValueError):
    """A symbolic point was iterated or read outside its stored window."""


class SturmianHorizonError(ValueError):
    """Rotation-coding request past the validity horizon of a rational angle."""


def as_int(value):
    """An int from an integral number (3 or 3.0) or integer text; int()
    alone reads 2.7 as 2 and True as 1 and overflows on an infinity,
    ValueErrors here."""
    try:
        out = int(value)
    except OverflowError:
        out = None
    if isinstance(value, bool) or (not isinstance(value, str)
                                   and out != value):
        raise ValueError("expected an integer, got %r" % (value,))
    return out


def log_big(x):
    """Natural log of a positive int, safe for integers wider than a double.

    Shifts the top 53 bits down and adds back k*ln(2); the result is
    accurate to ~1e-15 relative.
    """
    if x <= 0:
        raise ValueError("log of nonpositive value")
    k = max(x.bit_length() - 53, 0)
    return math.log(x >> k) + k * math.log(2)


def log_sum_exp(terms):
    """log(sum(exp(t) for t in terms)), stable; terms a nonempty iterable."""
    terms = list(terms)
    m = max(terms)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))

