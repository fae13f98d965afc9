"""Command-line experiment runner.

One binary, one subcommand per library operation, configured by a
preset name and/or a JSON config file, with individual flags overriding
both.  Each command and parameter is declared once: PARAMS gives each
config parameter its flag, type, help and choices, and COMMANDS each
subcommand its handler, help and own flags (every other parameter is a
flag of every command).  The parser, the config reader, the flag merge
and the run dispatch read these tables, so a config parameter given as
text reads as its flag reads it.  The handlers of the commands that
read a system live in the handlers module, which only they load.
Results print as short summaries and, with --out, land as CSV tables
plus a summary.json (see reports).

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

# the subshift and skew-product modules load lazily (see the package
# docstring): binding them as modules and calling them qualified leaves
# them unloaded until a command reads a system
from . import cocycle, entropy, fiber, handlers, presets, skew, symbolic
from .reports import Report
from .sequence import (FAMILIES, Arithmetic, Explicit, Geometric,
                       folner_defect, goodwyn_check, hamming_ball_count,
                       hamming_exponent, k_estimate)
from .util import (DEFAULT_WORD_CAP, CapExceeded, ConfigError, OracleMismatch,
                   as_int, log_big)

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
    if plan is None and name.startswith("range-"):
        raise ConfigError("scale %r needs a base subshift and a cocycle"
                          % name)
    return getattr(entropy, SCALES[name])(plan)


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
# subcommand handlers: the sequence commands' here, the system commands'
# in the handlers module, which calls back into run_self_checks


def run_self_checks(args, ctx, report, skew_counts=False,
                    distribution=False, birkhoff=False):
    """Run the self-checks a system command asks for (see handlers) and
    add their notes to the report as one verdict, unless --no-self-check.
    It lives here, where perfbench/tracer.py wraps it by name."""
    if getattr(args, "no_self_check", False):
        return
    notes = []
    if skew_counts and "system" in ctx:
        notes += handlers.self_check_skew(ctx["system"],
                                          param(ctx, "epsilon"))
    if distribution and "plan" in ctx:
        notes += handlers.self_check_distribution(ctx["plan"])
    if birkhoff:
        notes += handlers.self_check_birkhoff(ctx["plan"])
    if notes:
        # PASS when a check ran, OBSERVED when each one was skipped
        detail = ", ".join(notes)
        ran = detail.count(" skipped (") < len(notes)
        report.add_verdict("self-check", "PASS" if ran else "OBSERVED", detail)


def _system(name):
    """A system command's handler, looked up in the handlers module only
    when the command runs, so no other command compiles that module."""
    return lambda args, ctx, report: getattr(handlers, name)(args, ctx,
                                                             report)


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



# subcommand -> its handler, help text, and the parameters that are its
# own flags; every other parameter is a flag of every command
Command = namedtuple("Command", "handler help flags", defaults=((),))

COMMANDS = {
    "language": Command(_system("language"),
                        "enumerate the base language at one length",
                        ("length",)),
    "cocycle-stats": Command(_system("cocycle_stats"),
                             "visited-set profiles and range distribution",
                             ("n",)),
    "unbounded-profile": Command(_system("unbounded_profile"),
                                 "proportion of words whose sums reach a "
                                 "level", ("reach",)),
    "sep": Command(_system("sep"),
                   "separated count and capacity bracket per n"),
    "sandwich": Command(_system("sandwich"),
                        "certified two-sided capacity comparison"),
    "slow-entropy": Command(_system("slow_entropy"),
                            "threshold-crossing scale estimates"),
    "h-top": Command(_system("h_top"), "(1/n) log bracket for a fiber"),
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
    "birkhoff": Command(_system("birkhoff"),
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
