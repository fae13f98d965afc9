"""Exact finite-scale invariants of subshifts, cocycles, and skew products.

Everything here counts: languages of subshifts, visited sets of integer
cocycles, separated and spanning orbit sets under windowed metrics, and
the capacity sums that bracket them.  All certified quantities are
computed in exact big-integer or Fraction arithmetic; floats appear only
in logarithmic summaries.

The library modules load lazily (importlib.util.LazyLoader): each is in
sys.modules and on the package from the start, and is compiled and run
on first attribute access.  So a sequence-entropy command, which reads
only sequence, reports and util, never loads the subshift and
skew-product stack.  The names below resolve through __getattr__ to
their defining modules.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# every library module, each registered lazily below -> the names the
# package exports from it
_EXPORTS = {
    "cocycle": ("Cocycle", "cocycle_from_json", "cocycle_to_json",
                "counting_plan", "enumeration_plan", "ergodic_sums",
                "plan_histograms", "profile_counts", "range_distribution",
                "read_factor", "unbounded_evidence", "visited_sets",
                "walk_range_distribution"),
    "entropy": ("ExpScale", "PolyScale", "RangeExpScale", "RangeInnerScale",
                "SlowEntropyReport", "birkhoff_sup", "count_bracket",
                "h_top_estimate", "slow_entropy_report"),
    "exactnum": ("GOLDEN_MEAN_ALPHA", "QuadExact", "frac_exact"),
    "handlers": (),
    "fiber": ("IdentityFiber", "RotationFiber", "SymbolicFiber",
              "ToralAutoFiber", "bowen_distance", "bowen_le",
              "circle_sep_exact", "fiber_from_json", "fiber_to_json",
              "sep_count", "sep_exact_symbolic", "sep_greedy",
              "spa_bracket"),
    "presets": ("PRESETS", "get_preset", "preset_names"),
    "reports": (),
    "sequence": ("FAMILIES", "Arithmetic", "Explicit", "Geometric",
                 "KEstimate", "bernoulli_seq_entropy", "c_m", "cover_size",
                 "folner_defect", "goodwyn_check", "hamming_ball_count",
                 "hamming_exponent", "k_estimate", "sa_size"),
    "skew": ("CapacityBracket", "SandwichRow", "SkewSystem", "capacity_A",
             "sandwich_check", "skew_sep_direct", "skew_sep_greedy"),
    "symbolic": ("SFT", "FullShift", "Product", "Sturmian", "WindowPoint",
                 "complexity", "language_on", "rho", "spec_from_json",
                 "spec_to_json", "subshift_close", "subshift_distance",
                 "word_from_str", "word_to_str"),
    "util": ("DEFAULT_WORD_CAP", "CapExceeded", "ConfigError",
             "OracleMismatch", "SturmianHorizonError", "WindowError"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_ORIGIN)


def _register_lazily(name):
    """Put submodule name in sys.modules and on the package, unloaded."""
    spec = find_spec(__name__ + "." + name)
    loader = LazyLoader(spec.loader)
    spec.loader = loader
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in _EXPORTS:
    _register_lazily(_name)
del _name


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))
