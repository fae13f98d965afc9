"""Exact finite-scale invariants of subshifts, cocycles, and skew products.

Everything here counts: languages of subshifts, visited sets of integer
cocycles, separated and spanning orbit sets under windowed metrics, and
the capacity sums that bracket them.  All certified quantities are
computed in exact big-integer or Fraction arithmetic; floats appear only
in logarithmic summaries.
"""

__version__ = "0.1.0"

from .cocycle import (Cocycle, CocycleProfile, c_m, cocycle_from_json,
                      cocycle_profile, cocycle_to_json, cover_size,
                      ergodic_sums, profile_counts, range_distribution,
                      range_histograms, read_factor, unbounded_evidence,
                      unbounded_profile, visited_sets,
                      walk_range_distribution)
from .entropy import (FAMILIES, Arithmetic, Explicit, ExpScale, Geometric,
                      KEstimate, PolyScale, RangeExpScale, RangeInnerScale,
                      RatioCurve, SlowEntropyReport, bernoulli_seq_entropy,
                      birkhoff_sup, count_bracket, folner_defect,
                      goodwyn_check, h_top_estimate, hamming_ball_count,
                      hamming_exponent, k_estimate, sa_size,
                      slow_entropy_report)
from .exactnum import GOLDEN_MEAN_ALPHA, QuadExact, frac_exact, sqrt_exact
from .fiber import (IdentityFiber, RotationFiber, SymbolicFiber,
                    ToralAutoFiber, bowen_distance, bowen_le,
                    circle_sep_exact, fiber_from_json, fiber_to_json,
                    rotation_spa_analytic, sep_count, sep_exact_symbolic,
                    sep_greedy, spa_bracket)
from .presets import PRESETS, get_preset, preset_names
from .skew import (CapacityBracket, SandwichRow, SkewSystem, capacity_A,
                   sandwich_check, skew_sep_direct, skew_sep_greedy)
from .symbolic import (DEFAULT_WORD_CAP, SFT, FullShift, Product, Sturmian,
                       WindowPoint, complexity, enumerate_language,
                       language_on, rho, spec_from_json, spec_to_json,
                       sturmian_code, subshift_close, subshift_distance,
                       word_from_str, word_to_str)
from .util import (CapExceeded, ConfigError, OracleMismatch,
                   SturmianHorizonError, WindowError)
