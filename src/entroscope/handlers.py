"""The system commands' handlers and their runtime self-checks.

cli declares every command and reads its parameters; the commands that
read a system (a base, a rule, a fiber) run here.  The package loads
this module lazily, as it does the system stack (see the package
docstring), so a sequence-entropy command never compiles it.  Each
handler takes (args, ctx, report) from cli.main.  The self-checks
compare a fast path with its defining enumeration (exit 4 on a
mismatch); cli.run_self_checks runs those a command asks for, and the
handlers call it through the cli module, where perfbench/tracer.py
wraps it.
"""

from functools import partial

from . import cli, cocycle, entropy, skew, symbolic
from .cli import make_scale, need, need_plan, param
from .util import (CapExceeded, ConfigError, OracleMismatch,
                   SturmianHorizonError)

# the self-check's greedy skew count stays within about half a second
SELF_CHECK_PAIRS = 2 ** 18


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
    where it says "images", "strips" or "prefixes"; A is its factor's
    alphabet.  n = 6 is checked against brute-force enumeration of the
    base's own words (a product's raw pairs; cocycle.enumeration_plan),
    and the smallest n with |A|^n >= 2^31, where counts no longer fit 31
    bits (n = 31 on two letters, 20 on three), against a count on the
    factor times the dropped factors' words: on an SFT the extent DP
    (cocycle.walk_range_distribution, whose state is each walk's
    extent, on dicts of Python integers), and the strips as well under
    the images; on a Sturmian coding the visited sets of its words.
    Returns the note of the check, none when the histograms are
    enumerated; a check out of reach (a cap, a Sturmian horizon) is
    noted as skipped, with the reason.
    """
    if plan.histograms == "enumeration":
        return []
    tau = plan.tau
    n, n_big = 6, 1
    while len(plan.factor.labels) ** n_big < 2 ** 31:
        n_big += 1
    note = "distribution@n=%d,%d" % (n, n_big)
    try:
        hists = cocycle.plan_histograms(plan, [n, n_big])
        checks = [(n, "brute", cocycle.range_distribution(
            cocycle.enumeration_plan(plan.spec, tau, plan.word_cap), n), 1)]
        k = cocycle.dropped_count(plan.dropped, n_big + 2 * tau.radius)
        if plan.histograms == "prefixes":
            checks.append((n_big, "enumeration", cocycle.range_distribution(
                cocycle.enumeration_plan(plan.factor, plan.rule,
                                         plan.word_cap), n_big), k))
        else:
            checks.append((n_big, "extent DP", cocycle.walk_range_distribution(
                plan.factor, n_big - 1, plan.steps), k))
        if plan.histograms == "images":
            checks.append((n_big, "strips", cocycle._walk_pass(
                plan.factor, plan.steps, [n_big], 0)[n_big], k))
    except (CapExceeded, SturmianHorizonError) as exc:
        return ["%s skipped (%s)" % (note, exc)]
    for m, name, got, k in checks:
        want = {r: cnt * k for r, cnt in got.items()}
        if hists[m] != want:
            raise OracleMismatch("range distribution fast path %r != %s %r "
                                 "at n=%d" % (hists[m], name, want, m))
    return [note]


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


# ---------------------------------------------------------------------------
# subcommand handlers


def _word_formatter(words):
    """One formatter for the whole listing, so the column stays uniform."""
    if all(isinstance(a, int) and 0 <= a <= 9 for w in words for a in w):
        return symbolic.word_to_str
    return lambda w: ",".join(str(a) for a in w)


def language(args, ctx, report):
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


def cocycle_stats(args, ctx, report):
    plan = need_plan(ctx)
    ns = sorted(set(param(ctx, "n_range", [2, 3, 4, 5, 6])))
    n_top = param(ctx, "n", max(ns))
    _record_counting(report, plan)
    cli.run_self_checks(args, ctx, report, distribution=True)
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


def unbounded_profile(args, ctx, report):
    plan = need_plan(ctx)
    # default level: the smallest one a +-bound step walk cannot reach in a
    # two-step window, so the curve starts strictly below 1 and its climb
    # toward 1 is the visible evidence
    reach = param(ctx, "reach", 2 * max(1, plan.tau.bound) + 1)
    ns = param(ctx, "n_list", [4, 8, 12, 16])
    _record_counting(report, plan)
    cli.run_self_checks(args, ctx, report, distribution=True)
    ev = cocycle.unbounded_evidence(plan, reach, ns)
    report.add_table("unbounded", ("n", "proportion"), ev["curve"])
    detail = ("reach %d, n up to %d, %snondecreasing from start"
              % (reach, ev["n_max"],
                 "" if ev["nondecreasing_from_start"] else "NOT "))
    report.add_verdict("unbounded-profile", "OBSERVED", detail)
    print(detail)
    for n, p in ev["curve"]:
        print("n=%d  proportion %s (%.4f)" % (n, p, float(p)))


def sep(args, ctx, report):
    system = need(ctx, "system", "a full skew system")
    epsilon = param(ctx, "epsilon")
    ns = sorted(set(param(ctx, "n_range", [param(ctx, "n", 4)])))
    _record_counting(report, system.plan)
    cli.run_self_checks(args, ctx, report, skew_counts=True)
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


def sandwich(args, ctx, report):
    system = need(ctx, "system", "a full skew system")
    epsilon = param(ctx, "epsilon")
    ns = param(ctx, "n_range")
    _record_counting(report, system.plan)
    cli.run_self_checks(args, ctx, report, skew_counts=True)
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


def slow_entropy(args, ctx, report):
    target = ctx.get("system") or need(ctx, "fiber", "a fiber (or a full "
                                       "skew system)")
    scale = make_scale(param(ctx, "scale", "exp"), ctx.get("plan"))
    epsilon = param(ctx, "epsilon")
    n_max = param(ctx, "n_max")
    grid = param(ctx, "t_grid")
    threshold = param(ctx, "threshold", 1e-3)
    if isinstance(target, skew.SkewSystem):
        _record_counting(report, target.plan)
        cli.run_self_checks(args, ctx, report, skew_counts=True,
                        distribution=True)
    rep = entropy.slow_entropy_report(target, scale, epsilon, n_max, grid,
                                      threshold=threshold)
    header = ("t", "n", "ratio_lower", "ratio_upper")
    report.add_table("ratios", header,
                     [row for row in rep.rows if row[1] == rep.n_max])
    report.add_table("ratios_ladder", header, rep.rows)
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


def h_top(args, ctx, report):
    carrier = need(ctx, "fiber", "a fiber")
    epsilon = param(ctx, "epsilon")
    n_max = param(ctx, "n_max")
    lo, hi = entropy.h_top_estimate(carrier, epsilon, n_max)
    report.add_table("h_top", ("n_max", "epsilon", "lower", "upper"),
                     [(n_max, epsilon, lo, hi)])
    detail = "(1/n) log bracket [%.6f, %.6f] at n=%d" % (lo, hi, n_max)
    report.add_verdict("h-top", "OBSERVED", detail)
    print(detail)


def birkhoff(args, ctx, report):
    plan = need_plan(ctx)
    ns = sorted(set(param(ctx, "n_list", [8, 12, 16])))
    _record_counting(report, plan, "sup")
    cli.run_self_checks(args, ctx, report, birkhoff=True)
    rows = [(n, v, float(v))
            for n, v in ((n, entropy.birkhoff_sup(plan, n)) for n in ns)]
    report.add_table("birkhoff", ("n", "sup", "sup_float"), rows)
    detail = "max |sum|/n at n=%d: %s" % (rows[-1][0], rows[-1][1])
    report.add_verdict("birkhoff", "OBSERVED", detail)
    for n, v, f in rows:
        print("n=%d  sup %s (%.6f)" % (n, v, f))
