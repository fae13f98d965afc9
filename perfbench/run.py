"""entroscope benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  A run repeats whole rounds of its workload's command list until
S seconds have passed.  Every command is a fresh process (launch.py),
run one at a time with ENTROSCOPE_THREADS unset, writing an --out
report that checks.py compares with reference.py.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds):
    wall_s       wall time of one round's command list
    setup_s      summed import + cli.load_context time of its processes
    peak_rss_mb  largest peak resident set among its processes
--trace 1 alternates untraced and traced rounds and reports per-layer
metrics from the traced ones, plus the tracing overhead.
A workload runs two of the four command groups; --workload all runs
both workloads in turn.  --size tiny shrinks every command for the smoke
test.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
from inputs import Inputs, T_GRID  # noqa: E402
from tracer import summarize  # noqa: E402

# The benchmark's workloads pair the four command groups (BUILD below).
# The speed of the 2-vCPU machine the benchmark was tuned on swings by
# over a third for tens of seconds at a time, so a run must last about a
# minute to be steady, and the run budget allows two such workloads, not
# four.  Each pairs a group that stresses some layers with one that
# bypasses them.
WORKLOADS = {"dp-sequence": ("slow-entropy-dp", "sequence-entropy"),
             "enum-sturmian": ("sandwich-enum", "sturmian-exact")}
QUARTER = Fraction(1, 4)


class Command:
    def __init__(self, label, argv, check):
        self.label = label
        self.argv = argv
        self.check = check
        self.group = None


# ---------------------------------------------------------------------------
# workloads: (label, CLI arguments, check) per command, in run order


def slow_entropy_dp(inp, tiny):
    """The range DP and scale evaluation; no words are enumerated."""
    tt = reference.SFTRef()
    sft = reference.SFTRef(inp.sft[0])
    n_tt, n_sft = (24, 16) if tiny else (200, 60)
    extra = ["--n-max", str(n_tt)] if tiny else []
    for base, n in ((tt, n_tt), (sft, n_sft)):
        base.hists([max(2, n >> k) for k in range(4)])
    cfg = inp.sft_config("slow-entropy-sft", 0, "slow-entropy", {
        "epsilon": "1/4", "n_max": n_sft, "t_grid": T_GRID,
        "scale": "range-exp"})
    return [
        Command("slow-entropy tt-inverse",
                ["slow-entropy", "--preset", "tt-inverse"] + extra,
                checks.check_slow_entropy(tt, QUARTER, n_tt)),
        Command("slow-entropy sft", ["run", "--config", cfg],
                checks.check_slow_entropy(sft, QUARTER, n_sft)),
    ]


def sandwich_enum(inp, tiny):
    """Enumeration of L_{n+2 rho} in skew_sep_direct, DP at small n."""
    tt = reference.SFTRef()
    n_tt = 5 if tiny else 13
    ns = list(range(2, n_tt + 1))
    out = [
        Command("sandwich tt-inverse",
                ["sandwich", "--preset", "tt-inverse", "--n-range",
                 "2:%d" % n_tt], checks.check_sandwich(tt, QUARTER, ns)),
        Command("sep tt-inverse",
                ["sep", "--preset", "tt-inverse", "--n-range", "2:%d" % n_tt],
                checks.check_sep(tt, QUARTER, ns)),
    ]
    ns = list(range(2, 6 if tiny else 11))
    for which, forbidden in enumerate(inp.sft):
        cfg = inp.sft_config("sep-sft%d" % which, which, "sep",
                             {"epsilon": "1/4", "n_range": ns})
        out.append(Command("sep sft%d" % which, ["run", "--config", cfg],
                           checks.check_sep(reference.SFTRef(forbidden),
                                            QUARTER, ns)))
    return out


def sturmian_exact(inp, tiny):
    """Sturmian cut walk and QuadExact comparisons; no DP runs."""
    walk = reference.SturmianRef()
    product = reference.ProductRef(walk)
    birk = [10, 100] if tiny else [10, 100, 1000]
    n_sep = 8 if tiny else 40
    n_slow = 20 if tiny else 200
    extra = ["--n-max", str(n_slow)] if tiny else []
    return [
        Command("birkhoff sturmian-walk",
                ["birkhoff", "--preset", "sturmian-walk", "--n-list",
                 ",".join(map(str, birk))],
                checks.check_birkhoff(walk, birk)),
        Command("sep sturmian-walk",
                ["sep", "--preset", "sturmian-walk", "--n-range",
                 "2:%d" % n_sep, "--eps", "1/4"],
                checks.check_sep(walk, QUARTER, range(2, n_sep + 1))),
        Command("slow-entropy sturmian-walk",
                ["slow-entropy", "--preset", "sturmian-walk"] + extra,
                checks.check_slow_entropy(walk, Fraction(1, 2), n_slow)),
        # exits 1 on every run: sandwich_check's PASS rule wants the
        # inferred E never to increase with n (here 48, 32, 88/3, 30)
        Command("sandwich sturmian-product",
                ["sandwich", "--preset", "sturmian-product"],
                checks.check_sandwich(product, QUARTER, [2, 3, 4, 5])),
    ]


def sequence_entropy(inp, tiny):
    """Hamming ball counts, K(A) estimates, Goodwyn, Folner defects."""
    n_ham = 200 if tiny else 10000
    radius = Fraction(3, 10)
    a, d = inp.arithmetic
    arith = reference.arithmetic_terms(a, d, 10 ** 4)
    geom = reference.geometric_terms(2, 10 ** 4)
    k = inp.k_symbols
    out = [Command("hamming k=%d" % kk,
                   ["hamming", "--k-symbols", str(kk), "--radius", "3/10",
                    "--n", str(n_ham)],
                   checks.check_hamming(kk, n_ham, radius))
           for kk in (2, 3)]
    out.append(Command(
        "goodwyn", ["run", "--config", inp.sequence_config(
            "goodwyn", "goodwyn", inp.arithmetic_text(), {"k_symbols": k})],
        checks.check_goodwyn(k, arith)))
    for name, text, terms, closed in (
            ("arithmetic", inp.arithmetic_text(), arith,
             lambda n, m: m + (n - 1) * min(d, m)),
            ("geometric", "geometric:2", geom, None),
            ("explicit", inp.explicit_text(), inp.explicit, None)):
        out.append(Command(
            "k-estimate " + name,
            ["run", "--config", inp.sequence_config("k-" + name,
                                                    "k-estimate", text)],
            checks.check_k_estimate(terms, closed)))
    for family, ns in (("interval", [10, 100, 1000, 10000]),
                       ("evens", [10, 100, 1000, 10000]),
                       ("powers", [10, 100, 1000])):
        out.append(Command(
            "folner " + family,
            ["folner", "--family", family, "--m", "3", "--n-list",
             ",".join(map(str, ns))],
            checks.check_folner(family, 3, ns)))
    return out


BUILD = {"slow-entropy-dp": slow_entropy_dp, "sandwich-enum": sandwich_enum,
         "sturmian-exact": sturmian_exact,
         "sequence-entropy": sequence_entropy}


def build_commands(name, inp, tiny):
    """Commands of both groups of a workload, in order."""
    out = []
    for group in WORKLOADS[name]:
        for cmd in BUILD[group](inp, tiny):
            cmd.group = group
            out.append(cmd)
    return out


# ---------------------------------------------------------------------------
# running commands


def child_env():
    env = dict(os.environ)
    env.pop("ENTROSCOPE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def launch(argv, record, trace, log_path):
    """Run one command to completion; (exit code, wall s)."""
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), record,
           "1" if trace else "0"] + argv
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        proc.wait()
        wall = time.perf_counter() - start
    return proc.returncode, wall


class Runner:
    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.serial = 0

    def run_round(self, commands, trace):
        rows = []
        for cmd in commands:
            self.serial += 1
            tag = "%04d" % self.serial
            outdir = os.path.join(self.run_dir, "out", tag)
            record = os.path.join(self.run_dir, "rec", tag + ".json")
            log = os.path.join(self.run_dir, "log", tag + ".txt")
            code, wall = launch(cmd.argv + ["--out", outdir], record, trace,
                                log)
            row = {"label": cmd.label, "group": cmd.group, "code": code,
                   "wall_s": wall, "rss_mb": 0.0, "setup_s": 0.0,
                   "problems": [], "layers": None}
            if os.path.exists(os.path.join(outdir, "summary.json")):
                try:
                    row["problems"] = cmd.check(outdir, code)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    row["problems"] = ["unreadable report: %r" % (exc,)]
            elif code == 0:
                row["problems"] = ["exit 0 without a report"]
            if os.path.exists(record):
                with open(record) as fh:
                    doc = json.load(fh)
                row["setup_s"] = doc["import_s"] + doc["load_context_s"]
                row["rss_mb"] = doc["peak_rss_mb"]
                if trace:
                    row["layers"] = summarize(doc["spans"])
            else:
                # the process died before launch.py wrote its record: its
                # set-up time and memory are unknown, so the run is wrong
                row["problems"].append("no record written (exit %d)" % code)
            rows.append(row)
        return rows


def round_metrics(rows):
    return {"wall_s": sum(r["wall_s"] for r in rows),
            "setup_s": sum(r["setup_s"] for r in rows),
            "peak_rss_mb": max(r["rss_mb"] for r in rows)}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (layer, field, unit); field "share" is distinct/calls
PER_LAYER = {
    "symbolic.words_calls": ("symbolic.words", "calls", "count"),
    "symbolic.words_s": ("symbolic.words", "self_s", "s"),
    "symbolic.words_emitted": ("symbolic.words", "amount", "count"),
    "symbolic.words_distinct_share": ("symbolic.words", "share", "share"),
    "cocycle.dp_calls": ("cocycle.dp", "calls", "count"),
    "cocycle.dp_s": ("cocycle.dp", "self_s", "s"),
    "cocycle.dp_distinct_share": ("cocycle.dp", "share", "share"),
    "cocycle.profile_s": ("cocycle.profile", "self_s", "s"),
    "fiber.sep_count_calls": ("fiber.sep_count", "calls", "count"),
    "fiber.sep_count_s": ("fiber.sep_count", "self_s", "s"),
    "skew.capacity_calls": ("skew.capacity", "calls", "count"),
    "skew.capacity_s": ("skew.capacity", "self_s", "s"),
    "skew.sep_direct_calls": ("skew.sep_direct", "calls", "count"),
    "skew.sep_direct_s": ("skew.sep_direct", "self_s", "s"),
    "skew.sep_direct_words": ("skew.sep_direct", "amount", "count"),
    "entropy.count_bracket_calls": ("entropy.count_bracket", "calls",
                                    "count"),
    "entropy.count_bracket_distinct_share": ("entropy.count_bracket",
                                             "share", "share"),
    "entropy.scale_eval_s": ("entropy.scale_eval", "self_s", "s"),
    "entropy.birkhoff_s": ("entropy.birkhoff", "self_s", "s"),
    "entropy.hamming_s": ("entropy.hamming", "self_s", "s"),
    "entropy.k_estimate_s": ("entropy.k_estimate", "self_s", "s"),
    "cli.self_check_s": ("cli.self_check", "total_s", "s"),
    "cli.load_context_s": ("cli.load_context", "total_s", "s"),
    "reports.write_s": ("reports.write", "total_s", "s"),
    "reports.csv_bytes": ("reports.write", "amount", "bytes"),
}


def layer_metrics(rows):
    """Per-layer values of one traced round, summed over its processes."""
    totals = {}
    for row in rows:
        for layer, vals in (row["layers"] or {}).items():
            acc = totals.setdefault(layer, dict.fromkeys(vals, 0))
            for key, value in vals.items():
                acc[key] += value
    out = {}
    for name, (layer, field, _unit) in PER_LAYER.items():
        acc = totals.get(layer, {})
        if field == "share":
            calls = acc.get("calls", 0)
            out[name] = acc.get("distinct", 0) / calls if calls else 0.0
        else:
            out[name] = acc.get(field, 0)
    return out


def median_of(rounds, name):
    return statistics.median(r[name] for r in rounds)


def run_workload(name, seed, seconds, trace, tiny):
    run_dir = os.path.join(HERE, "_run", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("out", "rec", "log", "cfg"):
        os.makedirs(os.path.join(run_dir, sub))
    t0 = time.perf_counter()
    commands = build_commands(name, Inputs(seed, os.path.join(run_dir, "cfg")),
                              tiny)
    print("# %s: %d commands, references built in %.2f s"
          % (name, len(commands), time.perf_counter() - t0), flush=True)
    runner = Runner(run_dir)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_round(commands, trace=False))
        if trace:
            traced.append(runner.run_round(commands, trace=True))
        # start another whole round only if it should end in time
        spent = time.perf_counter() - start
        if spent + spent / len(plain) > seconds:
            break
    all_rows = [row for rnd in plain + traced for row in rnd]
    failed = 0
    problems = []
    for row in all_rows:
        if row["code"] != 0 or row["problems"]:
            failed += 1
        for p in row["problems"]:
            problems.append("%s: %s" % (row["label"], p))
    for row in plain[-1]:
        print("#   %-28s exit %d  %7.3f s  setup %.3f s  %6.1f MB%s"
              % (row["label"], row["code"], row["wall_s"],
                 row["setup_s"], row["rss_mb"],
                 "  PROBLEMS %d" % len(row["problems"])
                 if row["problems"] else ""))
    for p in problems[:20]:
        print("# problem: " + p)
    for group in dict.fromkeys(cmd.group for cmd in commands):
        sub = [[row for row in rnd if row["group"] == group]
               for rnd in plain]
        rows = [row for rnd in sub for row in rnd]
        m = [round_metrics(rnd) for rnd in sub]
        print("# group %-17s %s  attempted %d failed %d" % (
            group, "  ".join("%s %.4g %s" % (key, median_of(m, key), unit)
                             for key, unit in E2E_UNITS.items()),
            len(rows), sum(1 for row in rows
                           if row["code"] != 0 or row["problems"])))
    plain_m = [round_metrics(r) for r in plain]
    print("# %d rounds: wall_s %s" % (len(plain), " ".join(
        "%.3f" % m["wall_s"] for m in plain_m)))
    if trace:
        layer_m = [layer_metrics(r) for r in traced]
        metrics = {key: {"value": median_of(layer_m, key), "unit": unit}
                   for key, (_l, _f, unit) in PER_LAYER.items()}
        traced_wall = median_of([round_metrics(r) for r in traced], "wall_s")
        plain_wall = median_of(plain_m, "wall_s")
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": traced_wall / plain_wall - 1.0, "unit": "share"}
    else:
        metrics = {key: {"value": median_of(plain_m, key), "unit": unit}
                   for key, unit in E2E_UNITS.items()}
    for key, m in metrics.items():
        print("# %-40s %.6g %s" % (key, m["value"], m["unit"]))
    return {"correct": not problems, "attempted": len(all_rows),
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    # the run length of BENCHMARK.json, which every reference figure used
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "entroscope", "cli.py")):
        print("no entroscope source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    # one untimed start writes the bytecode cache, as an installed
    # package would have it
    warm = os.path.join(HERE, "_run", "warm")
    os.makedirs(warm, exist_ok=True)
    code, _wall = launch(["preset-list"], os.path.join(warm, "rec.json"),
                          False, os.path.join(warm, "log.txt"))
    if code != 0:
        print("entroscope does not start (exit %d)" % code, file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace == 1, args.size == "tiny")
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps(dict(res, workload=name)))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, key): m
                        for name, res in results.items()
                        for key, m in res["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
