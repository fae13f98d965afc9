"""End-to-end CLI behavior: exit codes, config handling, report files."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import entroscope
from entroscope import cli
from entroscope.cli import (main, make_scale, parse_int_list, parse_sequence,
                            parse_t_grid)
from entroscope.cocycle import Cocycle, counting_plan
from entroscope.entropy import ExpScale, RangeExpScale
from entroscope.presets import preset_names
from entroscope.sequence import Arithmetic, Explicit, Geometric
from entroscope.skew import CapacityBracket
from entroscope.skew import capacity_A as real_capacity_A
from entroscope.symbolic import FullShift
from entroscope.util import ConfigError


# -- parsing helpers ----------------------------------------------------------

def test_parse_int_list():
    assert parse_int_list("2:6") == [2, 3, 4, 5, 6]
    assert parse_int_list("2,5,9") == [2, 5, 9]
    assert parse_int_list(" 7 ") == [7]
    for bad in ("", "3:1", "1:2:3"):
        with pytest.raises((ConfigError, ValueError)):
            parse_int_list(bad)


def test_parse_t_grid():
    grid = parse_t_grid("0.3:1.1:0.05")
    assert len(grid) == 17 and grid[0] == 0.3 and grid[-1] == 1.1
    assert parse_t_grid("0.5,0.7") == [0.5, 0.7]
    for bad in ("", "1:0:0.1", "0:1:0", "0.3:1.1"):
        with pytest.raises(ConfigError):
            parse_t_grid(bad)


def test_parse_sequence():
    a = parse_sequence("arithmetic(2,2)")
    assert isinstance(a, Arithmetic) and a.terms(3) == [2, 4, 6]
    g = parse_sequence("geometric:2")
    assert isinstance(g, Geometric) and g.terms(3) == [2, 4, 8]
    e = parse_sequence("explicit:1,4,9")
    assert isinstance(e, Explicit) and e.terms(2) == [1, 4]
    for bad in ("fibonacci(1)", "arithmetic(1)", "geometric(2,3)",
                "explicit:", "arithmetic(a,b)"):
        with pytest.raises(ConfigError):
            parse_sequence(bad)


def test_make_scale():
    base = FullShift((-1, 1))
    tau = Cocycle({(-1,): -1, (1,): 1})
    assert isinstance(make_scale("exp", None), ExpScale)
    assert isinstance(make_scale("range-exp", counting_plan(base, tau)),
                      RangeExpScale)
    with pytest.raises(ConfigError):
        make_scale("range-exp", None)
    # an unknown scale is refused where a config is read, as argparse
    # refuses the flag
    with pytest.raises(ConfigError):
        cli.apply_config({}, {"parameters": {"scale": "fourier"}})


# -- exit code 0 paths --------------------------------------------------------

def test_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    for name in ("tt-inverse", "sturmian-walk", "sturmian-product",
                 "identity-fiber-smoke"):
        assert name in out


def test_sandwich_preset_passes(capsys):
    assert main(["sandwich", "--preset", "tt-inverse",
                 "--n-range", "2:4"]) == 0
    out = capsys.readouterr().out
    assert "CHECK sandwich: PASS" in out


def test_language_prints_words(capsys):
    cfg_free = ["language", "--preset", "tt-inverse", "--length", "3"]
    assert main(cfg_free) == 0
    out = capsys.readouterr().out
    assert "-1,-1,-1" in out


def test_sep_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    rc = main(["sep", "--preset", "tt-inverse", "--n-range", "2:3",
               "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["meta"]["command"] == "sep"
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs, "expected at least one CSV table"
    capsys.readouterr()


def test_report_files_are_deterministic(tmp_path, capsys):
    texts = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert main(["sep", "--preset", "tt-inverse", "--n-range", "2:3",
                     "--out", str(out_dir)]) == 0
        texts.append({p.name: p.read_bytes()
                      for p in out_dir.glob("*.csv")})
    assert texts[0] == texts[1]
    capsys.readouterr()


def test_run_dispatches_config(tmp_path, capsys):
    out_dir = tmp_path / "run-out"
    cfg = {"command": "folner",
           "parameters": {"family": "interval", "m": 3,
                          "n_list": [4, 10, 50]},
           "output": str(out_dir)}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out_dir / "summary.json").exists()
    capsys.readouterr()


GOLDEN_JSON = {"a": "-1/2", "b": "1/2", "d": 5}


# a toral fiber has greedy counts only, so its sep is a config error (exit
# 2); it runs slow-entropy, whose capacity brackets take greedy counts
@pytest.mark.parametrize("fiber_doc, command, parameters", [
    ({"variant": "symbolic", "spec": {"variant": "full", "alphabet": [0, 1]}},
     "sep", {"epsilon": "1/4", "n_range": [2, 4]}),
    ({"variant": "rotation", "angle": GOLDEN_JSON},
     "sep", {"epsilon": "1/4", "n_range": [2, 4]}),
    ({"variant": "identity", "points": ["0", "1/3", "1"]},
     "sep", {"epsilon": "1/4", "n_range": [2, 4]}),
    ({"variant": "identity", "points": ["0", GOLDEN_JSON]},
     "sep", {"epsilon": "1/4", "n_range": [2, 4]}),
    ({"variant": "toral", "matrix": [[2, 1], [1, 1]], "grid": 3},
     "slow-entropy", {"epsilon": "1/4", "n_max": 4, "t_grid": [0.5, 1.0]}),
], ids=["symbolic", "rotation", "identity", "identity-irrational", "toral"])
def test_run_config_echoes_each_fiber(tmp_path, capsys, fiber_doc, command,
                                      parameters):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": command,
        "system": {"base": {"variant": "sft", "alphabet": [0, 1],
                            "forbidden": ["11"]},
                   "tau": {"radius": 0, "rule": {"0": -1, "1": 1}},
                   "fiber": fiber_doc},
        "parameters": parameters, "output": str(out_dir)}))
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["meta"]["params"]["fiber"] == fiber_doc
    if command == "sep":
        assert "self-check: PASS" in capsys.readouterr().out


def test_toral_sep_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "sep",
        "system": {"base": {"variant": "full", "alphabet": [0, 1]},
                   "tau": {"radius": 0, "rule": {"0": -1, "1": 1}},
                   "fiber": {"variant": "toral", "matrix": [[2, 1], [1, 1]],
                             "grid": 3}},
        "parameters": {"epsilon": "1/4", "n_range": [2, 3]}}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "has no exact separated count" in capsys.readouterr().err


# -- every preset x command -----------------------------------------------------

PRESET_COMMANDS = ("language", "h-top", "cocycle-stats", "unbounded-profile",
                   "sep", "sandwich", "slow-entropy", "birkhoff")
# the pairs other than language (which needs --length, given by no
# preset: exit 2) that do not exit 0
PRESET_EXITS = {
    # eps = 1/2 lies outside the sandwich precondition eps < 2^-(s+1)
    ("sturmian-walk", "sandwich"): 2,
    # the inferred E rises with n
    ("sturmian-product", "sandwich"): 1,
}


def test_every_preset_command_exit_code(capsys):
    got, want = {}, {}
    for preset in preset_names():
        for command in PRESET_COMMANDS:
            got[(preset, command)] = main([command, "--preset", preset])
            capsys.readouterr()
            want[(preset, command)] = (2 if command == "language" else
                                       PRESET_EXITS.get((preset, command), 0))
    assert got == want


def _csvs(out_dir):
    return {p.name: p.read_text() for p in out_dir.glob("*.csv")}


@pytest.mark.parametrize("command, table", [
    ("unbounded-profile", "unbounded.csv"), ("birkhoff", "birkhoff.csv")])
def test_product_commands_count_on_the_read_factor(tmp_path, capsys, command,
                                                   table):
    # the step reads the rotation coordinate of sturmian-product only, so
    # its proportions and sups are those of sturmian-walk, the same
    # rotation coding under the same step
    got = {}
    for preset in ("sturmian-product", "sturmian-walk"):
        assert main([command, "--preset", preset,
                     "--out", str(tmp_path / preset)]) == 0
        got[preset] = _csvs(tmp_path / preset)
    capsys.readouterr()
    assert got["sturmian-product"] == got["sturmian-walk"]
    summary = json.loads((tmp_path / "sturmian-product" /
                          "summary.json").read_text())
    counted = summary["meta"]["counted_on"]
    assert counted["read_factor"]["variant"] == "sturmian"
    assert counted["dropped_factors"] == [{"variant": "full",
                                           "alphabet": [-1, 1]}]
    # and at n = 4 and 8 they are those of the raw product words
    from entroscope.cocycle import ergodic_sums
    from entroscope.presets import get_preset
    from entroscope.reports import cell
    preset = get_preset("sturmian-product")
    base, tau = preset["base"], preset["tau"]
    rows = []
    for n in (4, 8):
        sums = [ergodic_sums(tau, w) for w in base.words(n)]
        if command == "birkhoff":
            best = Fraction(max(abs(e[-1]) for e in sums), n)
            row = (n, best, float(best))
        else:
            hit = sum(max(e[:-1]) - min(e[:-1]) + 1 >= 3 for e in sums)
            row = (n, Fraction(hit, len(sums)))
        rows.append(",".join(map(cell, row)))
    assert main([command, "--preset", "sturmian-product", "--n-list", "4,8",
                 "--out", str(tmp_path / "raw")]) == 0
    capsys.readouterr()
    assert _csvs(tmp_path / "raw")[table].splitlines()[1:] == rows


def test_product_sandwich_keeps_its_rising_constant(tmp_path, capsys):
    # counted on the rotation factor, the sandwich is the same as when
    # the product's words were enumerated: the inferred E rises at n = 5
    assert main(["sandwich", "--preset", "sturmian-product",
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    rows = (tmp_path / "sandwich.csv").read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("e_inferred")
    assert [r.split(",")[col] for r in rows[1:]] == ["48", "32", "88/3",
                                                     "30"]


def test_summary_names_the_counted_base(tmp_path, capsys):
    for preset, histograms in (("tt-inverse", "images"),
                               ("sturmian-product", "enumeration")):
        out_dir = tmp_path / preset
        assert main(["sep", "--preset", preset, "--n-range", "2:3",
                     "--out", str(out_dir)]) == 0
        meta = json.loads((out_dir / "summary.json").read_text())["meta"]
        assert meta["counted_on"]["histograms"] == histograms
    assert meta["counted_on"]["read_factor"]["variant"] == "sturmian"
    assert main(["birkhoff", "--preset", "sturmian-product", "--n-list", "4",
                 "--out", str(tmp_path / "b")]) == 0
    meta = json.loads((tmp_path / "b" / "summary.json").read_text())["meta"]
    assert meta["counted_on"]["sup"] == "cell walk"
    capsys.readouterr()


def test_birkhoff_on_a_full_shift_takes_the_graph_pass(tmp_path, capsys):
    # L_21 of the full 2-shift has 2^21 words, past the default word cap
    assert main(["birkhoff", "--preset", "tt-inverse", "--n-list", "21",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "summary.json").read_text())["meta"]
    assert meta["counted_on"]["sup"] == "graph pass"
    rows = (tmp_path / "birkhoff.csv").read_text().splitlines()
    assert rows[1:] == ["21,1,1.0"]


SYMBOLIC_BITS = {"variant": "symbolic",
                 "spec": {"variant": "full", "alphabet": [0, 1]}}
# systems outside the presets: a radius-1 rule, a step of 2 over the
# golden mean, and a toral fiber, whose skew counts cannot group words by
# range, and the sign step over the golden mean, whose walk the strips
# count
PLAN_SYSTEMS = {
    "radius-1": {"base": {"variant": "full", "alphabet": [0, 1]},
                 "tau": {"radius": 1,
                         "rule": {"%d%d%d" % (a, b, c): 2 * c - 1
                                  for a in (0, 1) for b in (0, 1)
                                  for c in (0, 1)}},
                 "fiber": SYMBOLIC_BITS},
    "step-2": {"base": {"variant": "sft", "alphabet": [0, 1],
                        "forbidden": ["11"]},
               "tau": {"radius": 0, "rule": {"0": -1, "1": 2}},
               "fiber": SYMBOLIC_BITS},
    "toral": {"base": {"variant": "full", "alphabet": [0, 1]},
              "tau": {"radius": 0, "rule": {"0": -1, "1": 1}},
              "fiber": {"variant": "toral", "matrix": [[2, 1], [1, 1]],
                        "grid": 3}},
    "golden-sign": {"base": {"variant": "sft", "alphabet": [0, 1],
                             "forbidden": ["11"]},
                    "tau": {"radius": 0, "rule": {"0": -1, "1": 1}},
                    "fiber": SYMBOLIC_BITS},
}
# the engine each summary names: histograms for cocycle-stats,
# unbounded-profile and sep (slow-entropy on the toral system, which has
# no exact sep), then birkhoff's sup
COUNTED_ON = {
    "tt-inverse": ("images", "images", "images", "graph pass"),
    "sturmian-walk": ("enumeration",) * 3 + ("cell walk",),
    "sturmian-product": ("enumeration",) * 3 + ("cell walk",),
    "identity-fiber-smoke": ("images", "images", "images", "graph pass"),
    "radius-1": ("enumeration",) * 4,
    "step-2": ("enumeration",) * 3 + ("graph pass",),
    "toral": ("images", "images", "images", "graph pass"),
    "golden-sign": ("strips", "strips", "strips", "graph pass"),
}


def _counting_runs():
    for system, engines in COUNTED_ON.items():
        commands = ("cocycle-stats", "unbounded-profile",
                    "slow-entropy" if system == "toral" else "sep",
                    "birkhoff")
        yield from ((system, c, e) for c, e in zip(commands, engines))


def _engines_that_run(monkeypatch):
    """The set of counting engines called from now on, by plan name."""
    from entroscope import cocycle, entropy, symbolic
    ran = set()

    def wrap(owner, name, engine):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            ran.add(engine)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    wrap(cocycle, "_images_pass", "images")
    wrap(cocycle, "_walk_pass", "strips")
    wrap(cocycle, "visited_sets", "enumeration")
    wrap(entropy, "_graph_sum_max", "graph pass")
    wrap(symbolic.Sturmian, "cells", "cell walk")
    return ran


@pytest.mark.parametrize("system, command, engine", list(_counting_runs()))
def test_counted_on_names_the_engine_that_ran(monkeypatch, tmp_path, capsys,
                                              system, command, engine):
    if system in PLAN_SYSTEMS:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "command": command, "system": PLAN_SYSTEMS[system],
            "parameters": {"epsilon": "1/4", "n_range": [2, 3], "n_max": 6,
                           "t_grid": [0.5, 1.0], "n_list": [4, 6]}}))
        argv = ["run", "--config", str(path)]
    else:
        argv = [command, "--preset", system]
    ran = _engines_that_run(monkeypatch)
    assert main(argv + ["--no-self-check", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    counted = json.loads((tmp_path / "summary.json").read_text())["meta"][
        "counted_on"]
    if command == "birkhoff":
        assert counted["sup"] == engine
        # a loop over the words calls neither engine
        assert ran == {counted["sup"]} - {"enumeration"}
    else:
        assert counted["histograms"] == engine
        # a Sturmian base's words come from its cell walk
        assert ran - {"cell walk"} == {counted["histograms"]}


@pytest.mark.parametrize("argv", [
    "slow-entropy --preset tt-inverse",
    "sep --preset sturmian-product",
    "cocycle-stats --preset tt-inverse",
    "birkhoff --preset sturmian-walk",
])
def test_each_command_makes_one_counting_plan(monkeypatch, capsys, argv):
    # its counts, its scale and its self-checks share the one plan and
    # its memo
    from entroscope import cocycle
    plans = []
    real = cocycle.counting_plan

    def counting(*args, **kwargs):
        plans.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cocycle, "counting_plan", counting)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(plans) == 1


def test_cocycle_stats_asks_the_range_engine_once(monkeypatch, capsys):
    from entroscope import cocycle
    passes = []
    real = cocycle._images_pass

    def counting(base, vals, ns, pad):
        passes.append(sorted(ns))
        return real(base, vals, ns, pad)

    monkeypatch.setattr(cocycle, "_images_pass", counting)
    assert main(["cocycle-stats", "--preset", "tt-inverse", "--n-range",
                 "2:40", "--n", "50", "--no-self-check"]) == 0
    capsys.readouterr()
    assert passes == [list(range(2, 41)) + [50]]


# -- exit code 2: configuration problems ---------------------------------------

def test_unknown_preset_is_config_error(capsys):
    assert main(["sandwich", "--preset", "no-such-thing"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"comand": "sep"}))
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"parameters": {"epsilonn": "1/4"}}))
    assert main(["sep", "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["sep", "--config", str(bad)]) == 2
    assert main(["run"]) == 2  # run needs --config
    capsys.readouterr()


def test_sandwich_epsilon_precondition_is_config_error(capsys):
    # preset carries eps = 1/2; the sandwich needs eps < 1/2 at radius 0
    assert main(["sandwich", "--preset", "sturmian-walk"]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_system_is_config_error(capsys):
    assert main(["sandwich", "--n-range", "2:3"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_exit_2(capsys):
    assert main(["sep", "--preset", "tt-inverse", "--frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "sep --preset tt-inverse --n-range 0:3",
    "sep --preset tt-inverse --eps 0",
    "sandwich --preset tt-inverse --n-range 0:3",
    "birkhoff --preset tt-inverse --n-list 0",
    "cocycle-stats --preset tt-inverse --n 0",
    "unbounded-profile --preset tt-inverse --reach 0",
    "slow-entropy --preset tt-inverse --n-max 0",
    "slow-entropy --preset tt-inverse --n-max 1",
    "h-top --preset tt-inverse --n-max 1",
    "language --preset tt-inverse --length 0",
    "hamming --n 0",
    "hamming --radius 2",
    "folner --m 0",
    "folner --n-list 0",
    "k-estimate --sequence geometric:1",
    "k-estimate --sequence arithmetic(1,0)",
    "goodwyn --k-symbols 0 --sequence geometric:2",
    # a NaN or infinite stop would never end the grid
    "slow-entropy --preset tt-inverse --t-grid 0.3:nan:0.1",
    "slow-entropy --preset tt-inverse --t-grid 0.3:inf:0.1",
    "slow-entropy --preset tt-inverse --t-grid nan",
    "slow-entropy --preset tt-inverse --t-grid inf",
    "slow-entropy --preset tt-inverse --threshold nan",
])
def test_out_of_range_value_is_config_error(argv, capsys):
    # a value the library rejects (a ValueError) is a configuration
    # problem, not a FAILed verdict
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, key, text, values", [
    ("birkhoff", "n_list", "12", [12]),
    ("sep", "n_range", "2:5", [2, 3, 4, 5]),
    ("slow-entropy", "t_grid", "0.3:1.1:0.05",
     [round(0.3 + 0.05 * k, 2) for k in range(17)]),
])
def test_config_strings_read_as_their_flags(tmp_path, capsys, command, key,
                                            text, values):
    csvs = []
    for tag, value in (("text", text), ("list", values)):
        cfg = {"command": command, "preset": "tt-inverse",
               "parameters": {key: value, "n_max": 24},
               "output": str(tmp_path / tag)}
        path = tmp_path / (tag + ".json")
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--no-self-check"]) == 0
        csvs.append(_csvs(tmp_path / tag))
    capsys.readouterr()
    assert csvs[0] == csvs[1] and csvs[0]


# per parameter: a flag's text, and the JSON values a config may give for
# the same value
PARAM_VALUES = {
    "epsilon": ("0.1", [0.1]),
    "n_max": ("24", [24]),
    "n_range": ("2:5", [[2, 3, 4, 5], [2.0, 3, 4, 5.0]]),
    "n_list": ("4,8", [[4, 8]]),
    "t_grid": ("0.3:0.5:0.1", [[0.3, 0.4, 0.5],
                               {"start": 0.3, "stop": 0.5, "step": 0.1}]),
    "scale": ("poly", []),
    "threshold": ("0.01", [0.01]),
    "word_cap": ("4096", [4096, 4096.0]),
    "length": ("3", [3]),
    "n": ("7", [7, 7.0]),
    "reach": ("3", [3]),
    "sequence": ("geometric:2", []),
    "k_symbols": ("3", [3]),
    "radius": ("3/10", [0.3]),
    "family": ("interval", []),
    "m": ("2", [2]),
}


@pytest.mark.parametrize("key", sorted(cli.PARAMS))
def test_flag_and_config_read_each_parameter_alike(tmp_path, key):
    # the flag, on a command that takes it, and the config parameter as the
    # same text or as JSON give the same context entry, type included
    command = next((name for name, c in cli.COMMANDS.items()
                    if key in c.flags), "sep")
    parser = cli._build_parser()
    text, json_values = PARAM_VALUES[key]
    want = cli.load_context(parser.parse_args(
        [command, cli.PARAMS[key].flag, text]))[key]
    assert want is not None
    for value in [text] + json_values:
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"parameters": {key: value}}))
        got = cli.load_context(parser.parse_args(
            [command, "--config", str(path)]))[key]
        assert repr(got) == repr(want), value


def test_unreadable_numbers_are_exit_2(tmp_path, capsys):
    assert main(["sep", "--preset", "tt-inverse", "--eps", "1/0"]) == 2
    assert "bad value for --eps: zero denominator" in capsys.readouterr().err
    path = tmp_path / "bad.json"
    for params in ({"radius": "1/0"}, {"n": float("inf")},
                   {"t_grid": {"start": 0.3, "stop": 1.1, "step": 0}},
                   {"t_grid": {"start": 0.3, "stop": float("inf"),
                               "step": 0.1}}):
        path.write_text(json.dumps({"parameters": params}))
        assert main(["hamming", "--config", str(path)]) == 2
        assert "bad value for parameter" in capsys.readouterr().err


@pytest.mark.parametrize("doc, reason", [
    # int() would read -1.5 as -1 and run the sign walk
    ({"system": {"tau": {"radius": 0, "rule": {"0": -1.5, "1": 1}}}},
     "bad system descriptor: expected an integer, got -1.5"),
    ({"system": {"tau": {"radius": 0.5, "rule": {"0": -1, "1": 1}}}},
     "bad system descriptor: expected an integer, got 0.5"),
    # and n = 2.7 as n = 2
    ({"parameters": {"n_range": [2.7, 3]}},
     "bad value for parameter 'n_range': expected an integer, got 2.7"),
    ({"parameters": {"n_max": 8.5}},
     "bad value for parameter 'n_max': expected an integer, got 8.5"),
    ({"parameters": {"word_cap": True}},
     "bad value for parameter 'word_cap': expected an integer, got True"),
    # and the labels 0, 1.7 (or 0, true) as the full shift on {0, 1}
    ({"system": {"base": {"variant": "full", "alphabet": [0, 1.7]}}},
     "bad system descriptor: expected an integer, got 1.7"),
    ({"system": {"base": {"variant": "full", "alphabet": [0, True]}}},
     "bad system descriptor: expected an integer, got True"),
    # and a toral fiber's grid 3.9 as 3, a matrix entry 1.5 as 1
    ({"system": {"fiber": {"variant": "toral", "matrix": [[2, 1], [1, 1]],
                           "grid": 3.9}}},
     "bad system descriptor: expected an integer, got 3.9"),
    ({"system": {"fiber": {"variant": "toral", "matrix": [[2, 1], [1, 1.5]],
                           "grid": 3}}},
     "bad system descriptor: expected an integer, got 1.5"),
])
def test_non_integral_numbers_are_exit_2(tmp_path, capsys, doc, reason):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(doc, command="sep", preset="tt-inverse")))
    assert main(["run", "--config", str(path)]) == 2
    assert reason in capsys.readouterr().err


def test_alphabet_size_is_read_as_an_integer(tmp_path, capsys):
    # a size 2.0 is the alphabet {0, 1}; 2.5, true (not size 1) and an
    # infinity are refused, and so is a size written as text ("10" is
    # not the labels 1 and 0)
    path = tmp_path / "job.json"

    def run(size):
        path.write_text(json.dumps({
            "command": "language",
            "system": {"base": {"variant": "full", "alphabet": size}},
            "parameters": {"length": 2}}))
        return main(["run", "--config", str(path)])

    assert run(2.0) == 0
    assert capsys.readouterr().out.splitlines()[:5] == \
        ["words of length 2: 4", "00", "01", "10", "11"]
    for size in (2.5, True, float("inf")):
        assert run(size) == 2
        assert "bad system descriptor: expected an integer, got %r" % size \
            in capsys.readouterr().err
    for size in ("10", "3"):
        assert run(size) == 2
        assert "bad system descriptor: expected a size or a list of " \
            "labels, got %r" % size in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sandwich", "cocycle-stats"])
def test_empty_base_language_is_exit_2(tmp_path, capsys, command):
    # every letter forbidden: no word has a range or carries a fiber point
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": command,
        "system": {"base": {"variant": "sft", "alphabet": [0, 1],
                            "forbidden": ["0", "1"]},
                   "tau": {"radius": 0, "rule": {"0": -1, "1": 1}},
                   "fiber": SYMBOLIC_BITS},
        "parameters": {"epsilon": "1/4", "n_range": [2, 3]}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "config error: empty language at n=" in capsys.readouterr().err
    path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                    command="language",
                                    parameters={"length": 3})))
    assert main(["run", "--config", str(path)]) == 0
    assert "words of length 3: 0" in capsys.readouterr().out


@pytest.mark.parametrize("command, key, text, reason", [
    ("slow-entropy", "t_grid", "nan", "t grid values must be finite"),
    ("sep", "n_range", "5:2", "empty int range '5:2'"),
    ("sep", "epsilon", "1/0", "zero denominator in '1/0'"),
])
def test_flag_and_config_errors_give_one_reason(tmp_path, capsys, command,
                                                key, text, reason):
    # a flag's text is read as its config value is, so argparse's own
    # "invalid ... value" message never replaces the reader's reason
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": command, "preset": "tt-inverse",
                                "parameters": {key: text}}))
    flag = cli.PARAMS[key].flag
    runs = (([command, "--preset", "tt-inverse", flag, text], flag),
            (["run", "--config", str(path)], "parameter %r" % key))
    for argv, where in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for %s: %s"
                              % (where, reason)), err


@pytest.mark.parametrize("command, key", [("folner", "family"),
                                          ("slow-entropy", "scale")])
def test_config_values_outside_the_choices_are_exit_2(tmp_path, capsys,
                                                      command, key):
    # checked where the config is read, as argparse checks the flag
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": command, "preset": "tt-inverse",
                                "parameters": {key: "bogus"}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "bad value for parameter %r" % key in capsys.readouterr().err


@pytest.mark.parametrize("preset", preset_names())
def test_summary_params_rerun_the_preset(tmp_path, capsys, preset):
    # summary.json echoes every system as JSON, product rules included,
    # so a config built from its params reruns the command
    assert main(["sep", "--preset", preset,
                 "--out", str(tmp_path / "preset")]) == 0
    params = json.loads((tmp_path / "preset" / "summary.json").read_text())[
        "meta"]["params"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "sep",
        "system": {key: params[key] for key in ("base", "tau", "fiber")},
        "parameters": {k: v for k, v in params.items() if k in cli.PARAMS},
        "output": str(tmp_path / "config")}))
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert ((tmp_path / "config" / "sep.csv").read_bytes()
            == (tmp_path / "preset" / "sep.csv").read_bytes())


# -- exit code 3: cap exhaustion -------------------------------------------------

def test_cap_exceeded_writes_partial_report(tmp_path, capsys):
    out_dir = tmp_path / "partial"
    # the product's rotation factor is enumerated (4 cells is too few);
    # tt-inverse's DP needs no words
    rc = main(["sandwich", "--preset", "sturmian-product", "--cap-words", "4",
               "--out", str(out_dir)])
    assert rc == 3
    err = capsys.readouterr().err
    # the cap binds at the window it was asked for, never a longer walk
    assert "cap exceeded: word count 6 exceeds cap 4" in err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["meta"]["partial"] is True


# -- exit code 4: fast path disagreement -----------------------------------------

def test_oracle_mismatch_exits_4(monkeypatch, capsys):
    def crooked(sys, n, epsilon):
        cb = real_capacity_A(sys, n, epsilon)
        if sys.plan.histograms == "enumeration":  # the oracle
            return cb
        return CapacityBracket(n=cb.n, epsilon=cb.epsilon,
                               lower=cb.lower + 1, upper=cb.upper)

    monkeypatch.setattr("entroscope.skew.capacity_A", crooked)
    rc = main(["sep", "--preset", "tt-inverse", "--n-range", "2:3"])
    assert rc == 4
    assert "internal inconsistency" in capsys.readouterr().err


def _strip_off_by_one(real):
    def crooked(width, *args):
        out = real(width, *args)
        return {n: T + (width == 2) for n, T in out.items()}
    return crooked


def _pass_off_by_one_where(real, hit):
    def crooked(base, vals, ns, pad):
        out = real(base, vals, ns, pad)
        for n, hist in out.items():
            if hit(n, pad):
                hist[1] = hist.get(1, 0) + 1
        return out
    return crooked


def _pass_off_by_one_past_6(real):
    return _pass_off_by_one_where(real, lambda n, pad: n > 6)


def _pass_off_by_one_at_6(real):
    return _pass_off_by_one_where(real, lambda n, pad: n == 6)


def _pass_off_by_one_padded(real):
    return _pass_off_by_one_where(real, lambda n, pad: pad > 0)


def _golden_sign_job(tmp_path, command, **parameters):
    # the sign step over the golden mean: the strips count its histograms
    cfg = tmp_path / "golden-sign.json"
    cfg.write_text(json.dumps({"command": command,
                               "system": PLAN_SYSTEMS["golden-sign"],
                               "parameters": parameters}))
    return ["run", "--config", str(cfg)]


@pytest.mark.parametrize("name, plant, oracle", [
    # one strip count off, at width 2 for every n; the check's one pass
    # to n = 31 serves n = 6 as well, so brute force sees it first
    ("_strip_counts", _strip_off_by_one, "brute"),
    # a fault past n = 6, where only the extent DP can see it; the DP
    # keeps a dict per graph node, and the case keeps its old id
    pytest.param("_walk_pass", _pass_off_by_one_past_6, "extent DP",
                 id="_walk_pass-_pass_off_by_one_past_6-dict DP"),
])
def test_distribution_self_check_mismatch_exits_4(monkeypatch, capsys,
                                                  tmp_path, name, plant,
                                                  oracle):
    from entroscope import cocycle
    monkeypatch.setattr(cocycle, name, plant(getattr(cocycle, name)))
    assert main(_golden_sign_job(tmp_path, "cocycle-stats")) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency" in err and oracle in err


@pytest.mark.parametrize("name, plant, oracle", [
    ("_images_pass", _pass_off_by_one_at_6, "brute"),
    pytest.param("_images_pass", _pass_off_by_one_past_6, "extent DP",
                 id="_images_pass-_pass_off_by_one_past_6-dict DP"),
    # the strips are the images' second oracle at n = 31
    ("_walk_pass", _pass_off_by_one_past_6, "strips"),
])
def test_images_self_check_mismatch_exits_4(monkeypatch, capsys, name,
                                            plant, oracle):
    from entroscope import cocycle
    monkeypatch.setattr(cocycle, name, plant(getattr(cocycle, name)))
    assert main(["cocycle-stats", "--preset", "tt-inverse"]) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency" in err and oracle in err


@pytest.mark.parametrize("argv", [
    ["sep", "--n-range", "2:3"],
    ["sandwich", "--n-range", "2:3"],
    ["slow-entropy", "--n-max", "8"],
])
def test_sep_self_check_mismatch_exits_4(monkeypatch, capsys, argv):
    # only skew separated counts read padded histograms, so the capacity
    # and distribution checks pass and the sep check must catch it
    from entroscope import cocycle
    monkeypatch.setattr(cocycle, "_images_pass",
                        _pass_off_by_one_padded(cocycle._images_pass))
    assert main(argv + ["--preset", "tt-inverse"]) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency: sep fast path" in err


@pytest.mark.parametrize("command, parameters", [
    ("sep", {"n_range": [2, 3]}),
    ("sandwich", {"n_range": [2, 3]}),
    ("slow-entropy", {"n_max": 8, "t_grid": [0.5, 1.0]}),
])
def test_strips_sep_self_check_mismatch_exits_4(monkeypatch, capsys,
                                                tmp_path, command,
                                                parameters):
    # the same fault in the strips, on an SFT base they count
    from entroscope import cocycle
    monkeypatch.setattr(cocycle, "_walk_pass",
                        _pass_off_by_one_padded(cocycle._walk_pass))
    argv = _golden_sign_job(tmp_path, command, epsilon="1/8", **parameters)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency: sep fast path" in err


def _step_two_sep_job(tmp_path):
    # a step of 2 over the golden mean: no range grouping, so the fast
    # path and the enumeration read the same visited sets
    cfg = tmp_path / "step2.json"
    cfg.write_text(json.dumps({
        "command": "sep",
        "system": {"base": {"variant": "sft", "alphabet": [0, 1],
                            "forbidden": ["11"]},
                   "tau": {"radius": 0, "rule": {"0": -1, "1": 2}},
                   "fiber": {"variant": "symbolic",
                             "spec": {"variant": "full",
                                      "alphabet": [0, 1]}}},
        "parameters": {"epsilon": "1/4", "n_range": [2, 3]}}))
    return ["run", "--config", str(cfg)]


def _class_count_off_by_one(real):
    def crooked(*args, **kwargs):
        out = real(*args, **kwargs)
        first = min(out)
        out[first] += 1
        return out
    return crooked


def _pad_dropped(real):
    def crooked(spec, tau, n, word_cap=2 ** 20, pad=0):
        return real(spec, tau, n, word_cap=word_cap)
    return crooked


def test_step_two_self_check_runs_the_greedy_count(tmp_path, capsys):
    assert main(_step_two_sep_job(tmp_path)) == 0
    assert ("CHECK self-check: PASS (capacity@n=3, sep@n=3, greedy@n=3)"
            in capsys.readouterr().out)


@pytest.mark.parametrize("plant", [_class_count_off_by_one, _pad_dropped])
def test_step_two_class_fault_exits_4(monkeypatch, tmp_path, capsys, plant):
    # the fault reaches the fast path and its enumeration alike; only the
    # greedy count over explicit representatives can see it
    from entroscope import cocycle
    monkeypatch.setattr(cocycle, "visited_sets", plant(cocycle.visited_sets))
    assert main(_step_two_sep_job(tmp_path)) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency: greedy fast path" in err


def test_self_check_names_the_check_out_of_budget(tmp_path, capsys):
    # a radius-1 rule at eps = 1/8: the greedy count needs 2^20
    # representative pairs, past the self-check's 2^18
    cfg = tmp_path / "radius1.json"
    cfg.write_text(json.dumps({
        "command": "sep", "system": PLAN_SYSTEMS["radius-1"],
        "parameters": {"epsilon": "1/8", "n_range": [2, 3]}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert ("CHECK self-check: PASS (capacity@n=3, sep@n=3, greedy@n=3 "
            "skipped (representative count 1048576 exceeds cap 262144))"
            in capsys.readouterr().out)


@pytest.mark.parametrize("preset, engine", [
    ("sturmian-walk", "_cell_sum_max"), ("tt-inverse", "_graph_sum_max")])
def test_birkhoff_fast_path_fault_exits_4(monkeypatch, capsys, preset,
                                          engine):
    from entroscope import entropy
    assert main(["birkhoff", "--preset", preset]) == 0
    assert ("CHECK self-check: PASS (birkhoff@n=3, birkhoff@n=8)"
            in capsys.readouterr().out)
    real = getattr(entropy, engine)
    monkeypatch.setattr(entropy, engine, lambda *args: real(*args) + 1)
    assert main(["birkhoff", "--preset", preset]) == 4
    assert ("internal inconsistency: birkhoff fast path"
            in capsys.readouterr().err)


def test_birkhoff_self_check_skipped_past_the_cap(capsys):
    # the graph pass lists no words, but its oracle does: 8 at n = 3
    assert main(["birkhoff", "--preset", "tt-inverse", "--cap-words",
                 "4"]) == 0
    assert ("CHECK self-check: OBSERVED (birkhoff@n=3 skipped (word count "
            "8 exceeds cap 4), birkhoff@n=8 skipped (word count 256 "
            "exceeds cap 4))") in capsys.readouterr().out


def test_slow_entropy_computes_each_bracket_once(monkeypatch, capsys):
    from entroscope import entropy
    seen = []
    real = entropy.count_bracket

    def counting(target, n, epsilon, *args, **kwargs):
        seen.append(n)
        return real(target, n, epsilon, *args, **kwargs)

    monkeypatch.setattr(entropy, "count_bracket", counting)
    assert main(["slow-entropy", "--preset", "tt-inverse",
                 "--n-max", "40"]) == 0
    assert sorted(seen) == [5, 10, 20, 40]
    out = capsys.readouterr().out
    assert ("CHECK self-check: PASS (capacity@n=3, sep@n=3, "
            "distribution@n=6,31)") in out


def test_range_commands_run_without_numpy(tmp_path):
    # the range engine counts in Python integers, so no CLI command
    # loads numpy (a test dependency only)
    src = pathlib.Path(entroscope.__file__).resolve().parents[1]
    code = ("import sys; from entroscope.cli import main; "
            "assert main(['slow-entropy', '--preset', 'tt-inverse', "
            "'--n-max', '40', '--out', %r]) == 0; "
            "assert main(['sep', '--preset', 'tt-inverse', "
            "'--n-range', '2:6', '--out', %r]) == 0; "
            "assert 'numpy' not in sys.modules, 'numpy imported'"
            % (str(tmp_path / "se"), str(tmp_path / "sep")))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- the benchmark's tracer -----------------------------------------------------

def test_tracer_wraps_every_layer():
    # perfbench/tracer.py wraps library names by their module path; a
    # deleted or renamed name would stop every traced benchmark run
    root = pathlib.Path(__file__).resolve().parents[1]
    src = pathlib.Path(entroscope.__file__).resolve().parents[1]
    # the library modules load lazily, so the commands below check that
    # each traced name is still the one on the call path
    code = ("import sys; sys.path.insert(0, %r); import entroscope.cli; "
            "from tracer import Tracer; tracer = Tracer(); tracer.install(); "
            "main = entroscope.cli.main; "
            "assert main(['hamming', '--n', '200']) == 0; "
            "assert main(['sep', '--preset', 'tt-inverse', "
            "'--n-range', '2:4']) == 0; "
            "print(sorted({span[0] for span in tracer.spans}))"
            % str(root / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "could not wrap" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    layers = proc.stdout.splitlines()[-1]
    for layer in ("entropy.hamming", "skew.capacity", "cli.load_context"):
        assert repr(layer) in layers, layers
