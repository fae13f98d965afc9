"""Ready-made systems with desk-scale default parameters.

Each preset bundles a base subshift, a step cocycle, a fiber, and the
experiment defaults (epsilon, window ranges, scale grid) under which the
associated claims are checkable in seconds; the reader assembles the
skew product (the CLI once its flags, the word cap among them, are
read).  Presets are built fresh on every call so callers can mutate the
returned objects freely.
"""

from fractions import Fraction

from .cocycle import Cocycle
from .exactnum import GOLDEN_MEAN_ALPHA
from .fiber import IdentityFiber, SymbolicFiber
from .symbolic import FullShift, Product, Sturmian
from .util import ConfigError

__all__ = ["PRESETS", "get_preset", "preset_names", "float_grid"]


def float_grid(start, stop, step):
    """Inclusive float grid with values rounded to kill accumulation drift."""
    out = []
    k = 0
    while True:
        t = round(start + k * step, 10)
        if t > stop + 1e-12:
            break
        out.append(t)
        k += 1
    return out


_T_GRID = (0.3, 1.1, 0.05)


def _sign_step():
    # reads the symbol under the origin; both base alphabets used by the
    # presets are (-1, 1) so one rule serves them all
    return Cocycle({(-1,): -1, (1,): 1})


def _preset(base, tau, fiber, **defaults):
    """A system's parts and its defaults."""
    return dict(base=base, tau=tau, fiber=fiber, **defaults)


def _tt_inverse():
    return _preset(FullShift((-1, 1)), _sign_step(),
                   SymbolicFiber(FullShift((-1, 1))),
                   epsilon=Fraction(1, 4), n_range=(2, 3, 4, 5, 6), n_max=200,
                   t_grid=float_grid(*_T_GRID), scale="range-exp")


def _sturmian_walk():
    return _preset(Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2)), _sign_step(),
                   SymbolicFiber(FullShift((-1, 1))),
                   epsilon=Fraction(1, 2), n_range=(2, 3, 4, 5, 6), n_max=200,
                   t_grid=float_grid(*_T_GRID), scale="range-exp")


def _sturmian_product():
    walk = Sturmian(GOLDEN_MEAN_ALPHA, Fraction(1, 2))
    # the step reads only the rotation-coding coordinate of the pair
    rule = {((a, b),): a for a in (-1, 1) for b in (-1, 1)}
    return _preset(Product(walk, FullShift((-1, 1))), Cocycle(rule),
                   SymbolicFiber(FullShift((-1, 1))),
                   epsilon=Fraction(1, 4), n_range=(2, 3, 4, 5), n_max=12,
                   t_grid=float_grid(*_T_GRID), scale="range-exp")


def _identity_fiber_smoke():
    return _preset(FullShift((-1, 1)), _sign_step(),
                   IdentityFiber([Fraction(0)]),
                   epsilon=Fraction(1, 4), n_range=(1, 2, 3, 4), n_max=40,
                   t_grid=float_grid(0.1, 0.9, 0.1), scale="exp")


PRESETS = {
    "tt-inverse": ("full 2-shift base, step = symbol at 0, full 2-shift fiber",
                   _tt_inverse),
    "sturmian-walk": ("balanced golden-rotation coding base, same step, "
                      "full 2-shift fiber", _sturmian_walk),
    "sturmian-product": ("rotation coding x full 2-shift base, step reads "
                         "the rotation coordinate, full 2-shift fiber",
                         _sturmian_product),
    "identity-fiber-smoke": ("full 2-shift base over a one-point fiber",
                             _identity_fiber_smoke),
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name):
    """Materialize a preset by name; unknown names raise ConfigError."""
    if name not in PRESETS:
        raise ConfigError("unknown preset %r (known: %s)"
                          % (name, ", ".join(preset_names())))
    summary, build = PRESETS[name]
    out = build()
    out["name"] = name
    out["summary"] = summary
    return out
