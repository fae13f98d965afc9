"""The package's lazy submodules and its top-level names."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import entroscope

SYSTEM_STACK = ("symbolic", "cocycle", "fiber", "skew", "entropy", "presets",
                "exactnum", "handlers")

# every name the package exports, by the module that defines it
EXPORTS = {
    "cocycle": ("Cocycle", "cocycle_from_json", "cocycle_to_json",
                "counting_plan", "enumeration_plan", "ergodic_sums",
                "plan_histograms", "profile_counts", "range_distribution",
                "read_factor", "unbounded_evidence", "visited_sets",
                "walk_range_distribution"),
    "entropy": ("ExpScale", "PolyScale", "RangeExpScale", "RangeInnerScale",
                "SlowEntropyReport", "birkhoff_sup", "count_bracket",
                "h_top_estimate", "slow_entropy_report"),
    "exactnum": ("GOLDEN_MEAN_ALPHA", "QuadExact", "frac_exact"),
    "fiber": ("IdentityFiber", "RotationFiber", "SymbolicFiber",
              "ToralAutoFiber", "bowen_distance", "bowen_le",
              "circle_sep_exact", "fiber_from_json", "fiber_to_json",
              "sep_count", "sep_exact_symbolic", "sep_greedy",
              "spa_bracket"),
    "presets": ("PRESETS", "get_preset", "preset_names"),
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


def test_sequence_commands_leave_the_system_stack_unloaded(tmp_path):
    src = pathlib.Path(entroscope.__file__).resolve().parents[1]
    code = (
        "import sys, types\n"
        "from entroscope import cli\n"
        "for argv in (['hamming', '--n', '200'],\n"
        "             ['k-estimate', '--sequence', 'geometric:2'],\n"
        "             ['goodwyn', '--sequence', 'arithmetic(2,2)'],\n"
        "             ['folner']):\n"
        "    out = %r + '/' + argv[0]\n"
        "    assert cli.main(argv + ['--out', out]) == 0, argv\n"
        "assert 'dataclasses' not in sys.modules\n"
        "loaded = [m for m in %r\n"
        "          if type(sys.modules['entroscope.' + m])\n"
        "          is types.ModuleType]\n"
        "assert not loaded, loaded\n" % (str(tmp_path), SYSTEM_STACK))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "k-estimate" / "k_estimate.csv").exists()


def test_package_names_are_their_defining_modules_objects():
    for module, names in EXPORTS.items():
        owner = importlib.import_module("entroscope." + module)
        for name in names:
            value = getattr(entroscope, name)
            assert value is owner.__dict__[name], (module, name)
            if callable(value) and hasattr(value, "__module__"):
                assert value.__module__ == owner.__name__, (module, name)
    assert set(entroscope.__all__) == {n for names in EXPORTS.values()
                                       for n in names}
    # what the README's quick start imports
    from entroscope import (Cocycle, FullShift, SFT, SymbolicFiber,  # noqa
                            SkewSystem, capacity_A, h_top_estimate,
                            sandwich_check)
    with pytest.raises(AttributeError):
        entroscope.no_such_name
