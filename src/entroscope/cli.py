"""Command-line experiment runner.

One binary, one subcommand per library operation, configured by a
preset name and/or a JSON config file, with individual flags overriding
both.  Each command and parameter is declared once: PARAMS gives each
config parameter its flag, type, help and choices, and COMMANDS each
subcommand its handler, help and own flags (every other parameter is a
flag of every command).  The parser, the config reader, the flag merge
and the run dispatch read these tables, so a config parameter given as
text reads as its flag reads it.  Results print as short summaries and,
with --out, land as CSV tables plus a summary.json (see reports).

Exit codes: 0 all checks passed or observational, 1 a verdict FAILed,
2 configuration or schema problem, a flag the parser refuses or a value
out of range (any ValueError), each reported as "config error: ...",
3 an enumeration cap was exhausted (a partial report is still written),
4 a fast path disagreed with its defining enumeration at runtime.
"""

import argparse
import json
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial

# the subshift and skew-product modules load lazily (see the package
# docstring): binding them as modules and calling them qualified leaves
# them unloaded until a command reads a system
from . import cocycle, entropy, fiber, presets, skew, symbolic
from .reports import Report
from .sequence import (FAMILIES, Arithmetic, Explicit, Geometric,
                       folner_defect, goodwyn_check, hamming_ball_count,
                       hamming_exponent, k_estimate)
from .util import (DEFAULT_WORD_CAP, CapExceeded, ConfigError, OracleMismatch,
                   SturmianHorizonError, as_int, log_big)

# the self-check's greedy skew count stays within about half a second
SELF_CHECK_PAIRS = 2 ** 18

_REQUIRED = object()


# ---------------------------------------------------------------------------
# argument and config parsing


def parse_int_list(value):
    """Int list from "2,5,9", an inclusive range "2:6", or a JSON list."""
    if not isinstance(value, str):
        return [as_int(x) for x in value]
    text = value.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ConfigError("int range must be lo:hi, got %r" % text)
        lo, hi = (int(p) for p in parts)
        if hi < lo:
            raise ConfigError("empty int range %r" % text)
        return list(range(lo, hi + 1))
    out = [int(p) for p in text.split(",") if p.strip()]
    if not out:
        raise ConfigError("empty int list %r" % text)
    return out


def parse_t_grid(value):
    """Float grid from "0.3:1.1:0.05", an explicit "0.3,0.7,1.1", a JSON
    list, or a JSON {"start", "stop", "step"} object, of finite numbers."""
    bounds = None
    if isinstance(value, str):
        text = value.strip()
        parts = text.split(":")
        if len(parts) == 1:
            grid = [float(p) for p in text.split(",") if p.strip()]
            if not grid:
                raise ConfigError("empty t grid %r" % text)
        elif len(parts) == 3:
            bounds = [float(p) for p in parts]
        else:
            raise ConfigError("t grid must be start:stop:step, got %r" % text)
    elif isinstance(value, dict):
        bounds = [float(value[k]) for k in ("start", "stop", "step")]
    else:
        grid = [float(x) for x in value]
    # a NaN or infinite bound would never end the grid
    if not all(map(math.isfinite, bounds or grid)):
        raise ConfigError("t grid values must be finite, got %r" % (value,))
    if bounds is None:
        return grid
    start, stop, step = bounds
    if step <= 0 or stop < start:
        raise ConfigError("degenerate t grid %r" % (value,))
    return presets.float_grid(start, stop, step)


def fraction(value):
    """Exact rational from "1/4", "0.25" or a JSON number (0.1 is 1/10)."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,))


_SEQ_RE = re.compile(r"^(arithmetic|geometric|explicit)\s*[:(]\s*(.*?)\)?$")


def parse_sequence(text):
    """Sequence from "arithmetic(2,2)", "geometric:2", "explicit:1,4,9"."""
    m = _SEQ_RE.match(text.strip().lower())
    if not m:
        raise ConfigError("cannot parse sequence %r" % text)
    kind, body = m.groups()
    try:
        nums = [int(p) for p in body.split(",") if p.strip()]
    except ValueError:
        raise ConfigError("sequence arguments must be integers: %r" % text)
    if kind == "arithmetic":
        if len(nums) != 2:
            raise ConfigError("arithmetic takes (start, step)")
        return Arithmetic(nums[0], nums[1])
    if kind == "geometric":
        if len(nums) != 1:
            raise ConfigError("geometric takes (base)")
        return Geometric(nums[0])
    if not nums:
        raise ConfigError("explicit needs at least one term")
    return Explicit(nums)


# scale token -> the entropy class it names; the range scales read the
# counting plan of a base and a cocycle
SCALES = {"exp": "ExpScale", "poly": "PolyScale",
          "range-exp": "RangeExpScale", "range-inner": "RangeInnerScale"}


def make_scale(name, plan):
    """Scale object from its CLI token (one of PARAMS' scale choices)."""
    scale = getattr(entropy, SCALES[name])
    if not name.startswith("range-"):
        return scale()
    if plan is None:
        raise ConfigError("scale %r needs a base subshift and a cocycle"
                          % name)
    return scale(plan)


# config parameter -> its flag, the type that reads the flag's text and
# the parameter's config value alike, help text and choices
Param = namedtuple("Param", "flag kind help choices", defaults=(None, None))

PARAMS = {
    "epsilon": Param("--eps", fraction, "epsilon, e.g. 1/4 or 0.25"),
    "n_max": Param("--n-max", as_int),
    "n_range": Param("--n-range", parse_int_list,
                     "window sizes, e.g. 2:6 or 2,4,8"),
    "n_list": Param("--n-list", parse_int_list, "n values, e.g. 10,100,1000"),
    "t_grid": Param("--t-grid", parse_t_grid, "t grid, e.g. 0.3:1.1:0.05"),
    "scale": Param("--scale", str, choices=tuple(SCALES)),
    "threshold": Param("--threshold", float,
                       "ratio threshold for the slow-entropy estimate"),
    "word_cap": Param("--cap-words", as_int,
                      "word enumeration budget (default 2^20)"),
    "length": Param("--length", as_int),
    "n": Param("--n", as_int,
               "word length (goodwyn: number of sequence terms)"),
    "reach": Param("--reach", as_int, "level the sums must reach"),
    "sequence": Param("--sequence", str,
                      "arithmetic(a,d) | geometric(b) | explicit:v1,v2,..."),
    "k_symbols": Param("--k-symbols", as_int),
    "radius": Param("--radius", fraction, "relative radius, e.g. 3/10"),
    "family": Param("--family", str, choices=sorted(FAMILIES)),
    "m": Param("--m", as_int),
}

_CONFIG_KEYS = ("command", "preset", "system", "parameters", "output")


def read_param(key, value, where):
    """A config value or flag text read by the parameter's kind and
    checked against its choices; where names the source in errors."""
    p = PARAMS[key]
    try:
        value = p.kind(value)
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise ConfigError("bad value for %s: %s" % (where, exc))
    if p.choices is not None and value not in p.choices:
        raise ConfigError("bad value for %s: %r (choose from %s)"
                          % (where, value, ", ".join(p.choices)))
    return value


def apply_config(ctx, doc):
    """Merge one JSON config document into the context, validating keys."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ConfigError("unknown config key %r (known: %s)"
                              % (key, ", ".join(_CONFIG_KEYS)))
    if "preset" in doc:
        ctx.update(presets.get_preset(doc["preset"]))
    system = doc.get("system", {})
    if system:
        for key in system:
            if key not in ("base", "tau", "fiber"):
                raise ConfigError("unknown system key %r" % key)
        try:
            if "base" in system:
                ctx["base"] = symbolic.spec_from_json(system["base"])
            if "tau" in system:
                ctx["tau"] = cocycle.cocycle_from_json(system["tau"])
            if "fiber" in system:
                ctx["fiber"] = fiber.fiber_from_json(system["fiber"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError("bad system descriptor: %s" % exc)
    for key, value in doc.get("parameters", {}).items():
        if key not in PARAMS:
            raise ConfigError("unknown parameter %r (known: %s)"
                              % (key, ", ".join(sorted(PARAMS))))
        ctx[key] = read_param(key, value, "parameter %r" % key)
    if "output" in doc:
        ctx["out"] = str(doc["output"])
    if "command" in doc:
        ctx["command"] = str(doc["command"])


def load_context(args):
    """Context from preset, then config file, then flag overrides; then
    the command's one counting plan, ctx["plan"], which every count,
    self-check and summary of the command reads, and with a fiber the
    skew system over it, ctx["system"]."""
    ctx = {"word_cap": DEFAULT_WORD_CAP}
    if getattr(args, "preset", None):
        ctx.update(presets.get_preset(args.preset))
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        apply_config(ctx, doc)
    for key in (*PARAMS, "out"):
        value = getattr(args, key, None)
        if value is not None:
            ctx[key] = (read_param(key, value, PARAMS[key].flag)
                        if key in PARAMS else value)
    if ctx["word_cap"] < 1:
        raise ConfigError("word cap must be positive")
    for key in ("n_range", "n_list", "t_grid"):
        if key in ctx and not ctx[key]:
            raise ConfigError("%s must be nonempty" % key)
    if "base" in ctx and "tau" in ctx:
        ctx["plan"] = cocycle.counting_plan(ctx["base"], ctx["tau"],
                                            ctx["word_cap"])
        if "fiber" in ctx:
            ctx["system"] = skew.SkewSystem(ctx["plan"], ctx["fiber"])
    return ctx


def need(ctx, key, what):
    if key not in ctx or ctx[key] is None:
        raise ConfigError("this command needs %s; supply a preset or a "
                          "config file (missing: %s)" % (what, key))
    return ctx[key]


def need_plan(ctx):
    """The command's counting plan (see load_context)."""
    need(ctx, "base", "a base subshift")
    need(ctx, "tau", "a cocycle")
    return ctx["plan"]


def param(ctx, key, default=_REQUIRED):
    if key in ctx and ctx[key] is not None:
        return ctx[key]
    if default is _REQUIRED:
        raise ConfigError("missing parameter %r" % key)
    return default


def echo_params(ctx):
    """Re-runnable echo of the context for the report metadata."""
    out = {k: v for k, v in ctx.items() if k not in ("system", "plan")}
    # each codec is looked up only when its entry is there, so a command
    # without a system loads none of the system modules
    if "base" in out:
        out["base"] = symbolic.spec_to_json(out["base"])
    if "tau" in out:
        out["tau"] = cocycle.cocycle_to_json(out["tau"])
    if "fiber" in out:
        out["fiber"] = fiber.fiber_to_json(out["fiber"])
    return out


# ---------------------------------------------------------------------------
# runtime self-checks (fast path vs defining enumeration; exit 4)


def _compare(name, n, fast, oracle_name, oracle, skip):
    """The note of one self-check: fast() against oracle() at n.

    An exception of the skip types is noted as the check skipped, with
    the reason; a difference raises OracleMismatch.
    """
    try:
        got = fast()
        want = oracle()
    except skip as exc:
        return "%s@n=%d skipped (%s)" % (name, n, exc)
    if got != want:
        raise OracleMismatch("%s fast path %r != %s %r at n=%d"
                             % (name, got, oracle_name, want, n))
    return "%s@n=%d" % (name, n)


def self_check_skew(system, epsilon):
    """Recompute capacity_A and skew_sep_direct at n = 3 by enumeration.

    The enumeration is the same count on a system over the plan's oracle
    (cocycle.enumeration_plan), whose own memos hold no count of the
    fast path.  Where the plan has no interval steps, the fast path and
    the enumeration read the same visited sets, so skew_sep_direct is
    also compared with the independent skew_sep_greedy (on the narrowest
    hulls its scan allows, within SELF_CHECK_PAIRS representative
    pairs).  Returns a note per check.  A check out of reach (a cap, a
    Sturmian horizon, or a system without exact skew counts) is noted as
    skipped, with the reason.
    """
    n = 3
    plan = system.plan
    enumerated = skew.SkewSystem(
        cocycle.enumeration_plan(plan.spec, plan.tau, plan.word_cap),
        system.fiber)
    sep = partial(skew.skew_sep_direct, system, n, epsilon)
    checks = [("capacity", partial(skew.capacity_A, system, n, epsilon),
               "enumeration", partial(skew.capacity_A, enumerated, n,
                                      epsilon)),
              ("sep", sep, "enumeration",
               partial(skew.skew_sep_direct, enumerated, n, epsilon))]
    if plan.steps is None:
        checks.append(("greedy", sep, "greedy count",
                       partial(skew.skew_sep_greedy, system, n, epsilon,
                               margin=symbolic.rho(epsilon),
                               pair_cap=SELF_CHECK_PAIRS)))
    return [_compare(name, n, fast, oracle_name, oracle,
                     (CapExceeded, SturmianHorizonError, ConfigError))
            for name, fast, oracle_name, oracle in checks]


def self_check_birkhoff(plan):
    """Recompute birkhoff_sup at n = 3 and 8 over the plan's oracle.

    The plan's cell walk or graph pass is compared with the loop over the
    words of cocycle.enumeration_plan, with notes as self_check_skew's;
    a plan that loops over words has nothing to compare.  On a Sturmian
    base both read the same cut walk, so this checks the sums streamed
    along it; the walk's own oracle is in the tests.
    """
    if plan.sup == "enumeration":
        return []
    oracle = cocycle.enumeration_plan(plan.spec, plan.tau, plan.word_cap)
    return [_compare("birkhoff", n, partial(entropy.birkhoff_sup, plan, n),
                     "enumeration", partial(entropy.birkhoff_sup, oracle, n),
                     (CapExceeded, SturmianHorizonError))
            for n in (3, 8)]


def self_check_distribution(plan):
    """Recompute two counted range histograms independently and compare.

    The histograms are those of the counting plan (cocycle.counting_plan)
    where it says "images" or "strips"; A is its factor's alphabet.
    n = 6 is checked against brute-force enumeration of the base's own
    words (a product's raw pairs; cocycle.enumeration_plan), and the
    smallest n with |A|^n >= 2^31, where counts no longer fit 31 bits,
    against the extent DP (cocycle.walk_range_distribution, whose state
    is each walk's extent, on dicts of Python integers) on the factor
    times the dropped factors' words
    (n = 31 on two letters, 20 on three), and the images there against
    the strips as well.  Returns the checked n, or None when the
    histograms are enumerated.
    """
    if plan.histograms == "enumeration":
        return None
    tau = plan.tau
    n = 6
    n_big = 1
    while len(plan.factor.labels) ** n_big < 2 ** 31:
        n_big += 1
    hists = cocycle.plan_histograms(plan, [n, n_big])
    brute = cocycle.range_distribution(
        cocycle.enumeration_plan(plan.spec, tau, plan.word_cap), n)
    if hists[n] != brute:
        raise OracleMismatch("range distribution fast path %r != brute %r "
                             "at n=%d" % (hists[n], brute, n))
    k = cocycle.dropped_count(plan.dropped, n_big + 2 * tau.radius)
    oracles = [("extent DP", cocycle.walk_range_distribution(
        plan.factor, n_big - 1, plan.steps))]
    if plan.histograms == "images":
        oracles.append(("strips", cocycle._walk_pass(
            plan.factor, plan.steps, [n_big], 0)[n_big]))
    for name, got in oracles:
        oracle = {r: cnt * k for r, cnt in got.items()}
        if hists[n_big] != oracle:
            raise OracleMismatch("range distribution fast path %r != %s %r "
                                 "at n=%d" % (hists[n_big], name, oracle,
                                              n_big))
    return (n, n_big)


def _record_counting(report, plan, path="histograms"):
    """Write the counting plan a command ran into summary.json's meta.

    read_factor is the base the counts ran over, dropped_factors the
    factors the rule ignores, and path names the plan's engine: of the
    range histograms, or the Birkhoff sup's (see cocycle.counting_plan).
    """
    report.meta["counted_on"] = {
        path: getattr(plan, path),
        "read_factor": symbolic.spec_to_json(plan.factor),
        "dropped_factors": [symbolic.spec_to_json(f) for f in plan.dropped]}


def run_self_checks(args, ctx, report, skew_counts=False,
                    distribution=False, birkhoff=False):
    if getattr(args, "no_self_check", False):
        return
    notes = []
    if skew_counts and "system" in ctx:
        notes += self_check_skew(ctx["system"], param(ctx, "epsilon"))
    if distribution and "plan" in ctx:
        ns = self_check_distribution(ctx["plan"])
        if ns is not None:
            notes.append("distribution@n=%d,%d" % ns)
    if birkhoff:
        notes += self_check_birkhoff(ctx["plan"])
    if notes:
        # PASS when a check ran, OBSERVED when each one was skipped
        detail = ", ".join(notes)
        ran = detail.count(" skipped (") < len(notes)
        report.add_verdict("self-check", "PASS" if ran else "OBSERVED", detail)


# ---------------------------------------------------------------------------
# subcommand handlers


def _word_formatter(words):
    """One formatter for the whole listing, so the column stays uniform."""
    if all(isinstance(a, int) and 0 <= a <= 9 for w in words for a in w):
        return symbolic.word_to_str
    return lambda w: ",".join(str(a) for a in w)


def _cmd_language(args, ctx, report):
    base = need(ctx, "base", "a base subshift")
    length = param(ctx, "length")
    words = base.words(length, word_cap=ctx["word_cap"])
    fmt = _word_formatter(words)
    report.add_table("language", ("word",), [(fmt(w),) for w in words])
    report.add_verdict("language-count", "OBSERVED",
                       "length %d: %d words" % (length, len(words)))
    print("words of length %d: %d" % (length, len(words)))
    if ctx.get("out") is None and len(words) <= 200:
        for w in words:
            print(fmt(w))


def _cmd_cocycle_stats(args, ctx, report):
    plan = need_plan(ctx)
    ns = sorted(set(param(ctx, "n_range", [2, 3, 4, 5, 6])))
    n_top = param(ctx, "n", max(ns))
    _record_counting(report, plan)
    run_self_checks(args, ctx, report, distribution=True)
    # one request for both tables
    cocycle.plan_classes(plan, ns + [n_top])
    entries = []
    for n in ns:
        counts = cocycle.profile_counts(plan, n)
        for (r, q), count in sorted(counts.items()):
            entries.append((n, r, q, count))
    report.add_table("profiles", ("n", "r", "q", "count"), entries)
    dist = cocycle.range_distribution(plan, n_top)
    report.add_table("distribution", ("r", "count"), sorted(dist.items()))
    total = sum(dist.values())
    if not total:
        raise ValueError("empty language at n=%d" % n_top)
    mean_r = sum(r * c for r, c in dist.items()) / total
    report.add_verdict("cocycle-stats", "OBSERVED",
                       "n=%d: %d words, mean range %.3f" % (n_top, total,
                                                            mean_r))
    print("range distribution at n=%d over %d words, mean %.3f"
          % (n_top, total, mean_r))


def _cmd_unbounded(args, ctx, report):
    plan = need_plan(ctx)
    # default level: the smallest one a +-bound step walk cannot reach in a
    # two-step window, so the curve starts strictly below 1 and its climb
    # toward 1 is the visible evidence
    reach = param(ctx, "reach", 2 * max(1, plan.tau.bound) + 1)
    ns = param(ctx, "n_list", [4, 8, 12, 16])
    _record_counting(report, plan)
    run_self_checks(args, ctx, report, distribution=True)
    ev = cocycle.unbounded_evidence(plan, reach, ns)
    report.add_table("unbounded", ("n", "proportion"), ev["curve"])
    detail = ("reach %d, n up to %d, %snondecreasing from start"
              % (reach, ev["n_max"],
                 "" if ev["nondecreasing_from_start"] else "NOT "))
    report.add_verdict("unbounded-profile", "OBSERVED", detail)
    print(detail)
    for n, p in ev["curve"]:
        print("n=%d  proportion %s (%.4f)" % (n, p, float(p)))


def _cmd_sep(args, ctx, report):
    system = need(ctx, "system", "a full skew system")
    epsilon = param(ctx, "epsilon")
    ns = sorted(set(param(ctx, "n_range", [param(ctx, "n", 4)])))
    _record_counting(report, system.plan)
    run_self_checks(args, ctx, report, skew_counts=True)
    skew.request_histograms(system, ns, (epsilon, 2 * epsilon))
    rows = []
    for n in ns:
        sep = skew.skew_sep_direct(system, n, epsilon)
        sep2 = skew.skew_sep_direct(system, n, 2 * epsilon)
        cap = skew.capacity_A(system, n, epsilon)
        rows.append((n, epsilon, sep, sep2, cap.lower, cap.upper))
    report.add_table("sep", ("n", "epsilon", "sep", "sep_2eps",
                             "capacity_lower", "capacity_upper"), rows)
    for n, _e, sep, sep2, lo, hi in rows:
        # the skew spanning count at eps sits in [sep(2 eps), sep(eps)]
        if sep2 > sep:
            raise OracleMismatch("sep(2 eps)=%d exceeds sep(eps)=%d at n=%d"
                                 % (sep2, sep, n))
        print("n=%d  sep %d  spanning in [%d, %d]  capacity [%d, %d]"
              % (n, sep, sep2, sep, lo, hi))
    n, _e, sep, sep2, lo, hi = rows[-1]
    report.add_verdict("sep", "OBSERVED",
                       "n=%d: sep %d, spanning in [%d, %d]"
                       % (n, sep, sep2, sep))


def _cmd_sandwich(args, ctx, report):
    system = need(ctx, "system", "a full skew system")
    epsilon = param(ctx, "epsilon")
    ns = param(ctx, "n_range")
    _record_counting(report, system.plan)
    run_self_checks(args, ctx, report, skew_counts=True)
    result = skew.sandwich_check(system, ns, epsilon)
    # a SandwichRow's fields, in order
    report.add_table("sandwich", (
        "n", "epsilon", "a_lower_2eps", "a_upper_2eps", "skew_lower",
        "skew_upper", "a_lower_halfeps", "a_upper_halfeps", "e_inferred",
        "left_certified", "left_stated"), result["rows"])
    verdict = "PASS" if result["pass"] else "FAIL"
    detail = ("left certified %s, inferred E nonincreasing %s"
              % (result["left_certified_all"], result["e_nonincreasing"]))
    report.add_verdict("sandwich", verdict, detail)
    for row in result["rows"]:
        print("n=%d  lower[%d,%d]  sep[%d,%d]  upper[%d,%d]  E<=%s"
              % (row.n, row.a2_lower, row.a2_upper, row.skew_lo, row.skew_hi,
                 row.ahalf_lower, row.ahalf_upper, row.e_inferred))
    print("sandwich: %s (%s)" % (verdict, detail))


def _cmd_slow_entropy(args, ctx, report):
    target = ctx.get("system") or need(ctx, "fiber", "a fiber (or a full "
                                       "skew system)")
    scale = make_scale(param(ctx, "scale", "exp"), ctx.get("plan"))
    epsilon = param(ctx, "epsilon")
    n_max = param(ctx, "n_max")
    grid = param(ctx, "t_grid")
    threshold = param(ctx, "threshold", 1e-3)
    if isinstance(target, skew.SkewSystem):
        _record_counting(report, target.plan)
        run_self_checks(args, ctx, report, skew_counts=True,
                        distribution=True)
    rep = entropy.slow_entropy_report(target, scale, epsilon, n_max, grid,
                                      threshold=threshold)
    header = ("t", "n", "ratio_lower", "ratio_upper")
    report.add_table("ratios", header,
                     [row for row in rep.rows if row[1] == rep.n_max])
    report.add_table("ratios_ladder", header,
                     [row for row in rep.rows if row[1] in rep.ladder])
    detail = ("t_upper %.4g%s, t_lower %.4g%s at n=%d (%s)"
              % (rep.t_upper, " (empty)" if rep.empty_upper else "",
                 rep.t_lower, " (empty)" if rep.empty_lower else "",
                 rep.n_max, rep.label))
    report.add_verdict("slow-entropy", "OBSERVED", detail)
    print(detail)
    edges = ("grid %.4g..%.4g: t_upper %s, t_lower %s"
             % (min(grid), max(grid),
                _grid_edge(rep.saturated_upper, rep.empty_upper),
                _grid_edge(rep.saturated_lower, rep.empty_lower)))
    report.add_verdict("slow-entropy-grid", "OBSERVED", edges)
    print(edges)


def _grid_edge(saturated, empty):
    """Where a slow-entropy crossing sits relative to its t grid."""
    if saturated:
        return "saturated (crossing at or above the top)"
    if empty:
        return "empty (no grid t clears the threshold)"
    return "inside"


def _cmd_h_top(args, ctx, report):
    carrier = need(ctx, "fiber", "a fiber")
    epsilon = param(ctx, "epsilon")
    n_max = param(ctx, "n_max")
    lo, hi = entropy.h_top_estimate(carrier, epsilon, n_max)
    report.add_table("h_top", ("n_max", "epsilon", "lower", "upper"),
                     [(n_max, epsilon, lo, hi)])
    detail = "(1/n) log bracket [%.6f, %.6f] at n=%d" % (lo, hi, n_max)
    report.add_verdict("h-top", "OBSERVED", detail)
    print(detail)


def _cmd_k_estimate(args, ctx, report):
    seq = parse_sequence(param(ctx, "sequence"))
    ke = k_estimate(seq)
    report.add_table("k_estimate", ("m", "n", "value"), ke.rows)
    if ke.diverged:
        detail = "diverged (last value %s)" % ke.last
    else:
        detail = "value %s, stabilized at m=%d" % (ke.value, ke.stabilized_m)
    report.add_verdict("k-estimate", "OBSERVED", detail)
    print("%r: %s" % (seq, detail))


def _cmd_hamming(args, ctx, report):
    k = param(ctx, "k_symbols", 2)
    r = param(ctx, "radius", Fraction(3, 10))
    n = param(ctx, "n", 2000)
    count = hamming_ball_count(k, n, r)
    normalized = log_big(count) / n if count > 0 else float("-inf")
    exponent = hamming_exponent(k, r)
    report.add_table("hamming", ("n", "k", "radius", "log_count_over_n",
                                 "exponent"),
                     [(n, k, r, normalized, exponent)])
    detail = ("(1/n) log count %.6f vs exponent %.6f (gap %.2e)"
              % (normalized, exponent, abs(normalized - exponent)))
    report.add_verdict("hamming", "OBSERVED", detail)
    print(detail)


def _cmd_goodwyn(args, ctx, report):
    k = param(ctx, "k_symbols", 2)
    seq = parse_sequence(param(ctx, "sequence"))
    n = param(ctx, "n", 1000)
    res = goodwyn_check(k, seq, n=n)
    report.add_table("goodwyn", ("k", "n", "lhs", "rhs", "ok"),
                     [(k, n, res["lhs"], res["rhs"], res["ok"])])
    verdict = "PASS" if res["ok"] else "FAIL"
    detail = "lhs %.6f <= rhs %.6f" % (res["lhs"], res["rhs"])
    if res["k_estimate"].diverged:
        detail += " (K estimate diverged; bound taken at the largest m)"
    report.add_verdict("goodwyn", verdict, detail)
    print("goodwyn: %s (%s)" % (verdict, detail))


def _cmd_folner(args, ctx, report):
    family = param(ctx, "family", "interval")
    m = param(ctx, "m", 3)
    ns = param(ctx, "n_list", [10, 100, 1000, 10000])
    rows = folner_defect(FAMILIES[family], m, ns)
    report.add_table("folner", ("n", "defect"), rows)
    last = rows[-1]
    detail = "family %s, m=%d: defect %s at n=%d" % (family, m, last[1],
                                                     last[0])
    report.add_verdict("folner", "OBSERVED", detail)
    for n, d in rows:
        print("n=%d  defect %s (%.6f)" % (n, d, float(d)))


def _cmd_birkhoff(args, ctx, report):
    plan = need_plan(ctx)
    ns = sorted(set(param(ctx, "n_list", [8, 12, 16])))
    _record_counting(report, plan, "sup")
    run_self_checks(args, ctx, report, birkhoff=True)
    rows = [(n, v, float(v))
            for n, v in ((n, entropy.birkhoff_sup(plan, n)) for n in ns)]
    report.add_table("birkhoff", ("n", "sup", "sup_float"), rows)
    detail = "max |sum|/n at n=%d: %s" % (rows[-1][0], rows[-1][1])
    report.add_verdict("birkhoff", "OBSERVED", detail)
    for n, v, f in rows:
        print("n=%d  sup %s (%.6f)" % (n, v, f))


# subcommand -> its handler, help text, and the parameters that are its
# own flags; every other parameter is a flag of every command
Command = namedtuple("Command", "handler help flags", defaults=((),))

COMMANDS = {
    "language": Command(_cmd_language,
                        "enumerate the base language at one length",
                        ("length",)),
    "cocycle-stats": Command(_cmd_cocycle_stats,
                             "visited-set profiles and range distribution",
                             ("n",)),
    "unbounded-profile": Command(_cmd_unbounded,
                                 "proportion of words whose sums reach a "
                                 "level", ("reach",)),
    "sep": Command(_cmd_sep, "separated count and capacity bracket per n"),
    "sandwich": Command(_cmd_sandwich,
                        "certified two-sided capacity comparison"),
    "slow-entropy": Command(_cmd_slow_entropy,
                            "threshold-crossing scale estimates"),
    "h-top": Command(_cmd_h_top, "(1/n) log bracket for a fiber"),
    "k-estimate": Command(_cmd_k_estimate,
                          "sequence growth invariant estimate",
                          ("sequence",)),
    "hamming": Command(_cmd_hamming,
                       "normalized Hamming ball count vs its exponent",
                       ("k_symbols", "radius", "n")),
    "goodwyn": Command(_cmd_goodwyn, "sequence entropy vs K(A) upper bound",
                       ("k_symbols", "sequence", "n")),
    "folner": Command(_cmd_folner, "interval-cover defect of a set family",
                      ("family", "m")),
    "birkhoff": Command(_cmd_birkhoff,
                        "max |ergodic sum| / n over the language"),
}


def _cmd_run(args, ctx, report):
    command = ctx.get("command")
    if not command:
        raise ConfigError("run needs a config file with a \"command\" entry")
    if command not in COMMANDS:
        raise ConfigError("config names unknown command %r (known: %s)"
                          % (command, ", ".join(sorted(COMMANDS))))
    report.meta["command"] = command
    COMMANDS[command].handler(args, ctx, report)


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors read as config errors (exit 2)."""

    def error(self, message):
        self.exit(2, "config error: %s\n%s" % (message, self.format_usage()))


def _build_parser():
    def add_param(parser, key):
        # the text is read by load_context, as a config value is
        p = PARAMS[key]
        parser.add_argument(p.flag, dest=key, help=p.help, metavar=(
            p.choices and "{%s}" % ",".join(p.choices)))

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="preset name (see preset-list)")
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="directory for CSV tables and "
                        "summary.json")
    own = {key for command in COMMANDS.values() for key in command.flags}
    for key in PARAMS:
        if key not in own:
            add_param(common, key)
    common.add_argument("--no-self-check", action="store_true",
                        help="skip the fast-path vs enumeration cross-check")

    parser = _Parser(
        prog="entroscope",
        description="exact finite-scale invariants of subshifts, cocycles, "
                    "and skew products")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for key in command.flags:
            add_param(p, key)
    sub.add_parser("preset-list", help="list available presets")
    sub.add_parser("run", parents=[common],
                   help="dispatch on the command named in a config file")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    if args.cmd == "preset-list":
        for name in presets.preset_names():
            print("%s: %s" % (name, presets.get_preset(name)["summary"]))
        return 0
    report = None
    out = None
    try:
        if args.cmd == "run" and not getattr(args, "config", None):
            raise ConfigError("run needs --config")
        ctx = load_context(args)
        out = ctx.get("out")
        report = Report(args.cmd, echo_params(ctx))
        handler = _cmd_run if args.cmd == "run" else COMMANDS[args.cmd].handler
        handler(args, ctx, report)
    except ValueError as exc:
        # ConfigError, SturmianHorizonError, and every out-of-range value
        # (n < 1, eps <= 0, ...) that a library call rejects
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        if report is not None and out:
            report.meta["partial"] = True
            report.add_verdict("run", "FAIL", "cap exceeded: %s" % exc)
            for path in report.write(out):
                print("wrote %s (partial)" % path, file=sys.stderr)
        return 3
    except OracleMismatch as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 4
    if out:
        for path in report.write(out):
            print("wrote %s" % path)
    for check, verdict, detail in report.verdicts:
        print("CHECK %s: %s%s" % (check, verdict,
                                  " (%s)" % detail if detail else ""))
    return 0 if report.all_ok() else 1


if __name__ == "__main__":
    sys.exit(main())
