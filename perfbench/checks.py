"""Checks of one command's --out report against the reference values.

Each check reads the CSV tables and summary.json a command wrote and
returns a list of problems (empty when the output is right).  Nothing
is compared with a stored copy of earlier output: exact quantities must
equal the reference, floats must agree to a relative 1e-9, and stated
properties (lhs <= rhs, a PASS verdict on exit 0) must hold.
"""

import csv
import json
import math
import os
import re
from fractions import Fraction

import mpmath

import reference as ref
from inputs import T_GRID

REL = 1e-9


def t_grid():
    """The t values of T_GRID, as the program steps through them."""
    start, stop, step = T_GRID["start"], T_GRID["stop"], T_GRID["step"]
    out = []
    k = 0
    while start + k * step <= stop + 1e-12:
        out.append(round(start + k * step, 10))
        k += 1
    return out


def read_table(outdir, name):
    with open(os.path.join(outdir, name + ".csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def read_verdicts(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        doc = json.load(fh)
    return {v["check"]: (v["verdict"], v["detail"]) for v in doc["verdicts"]}


def close(got, want, rel=REL):
    got = float(got)
    want = float(want)
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def ratio(count, log_scale):
    if count == 0:
        return 0.0
    return float(mpmath.exp(mpmath.log(mpmath.mpf(count)) - log_scale))


class Problems(list):
    def expect(self, ok, fmt, *args):
        if not ok:
            self.append(fmt % args)


def _self_check(verdicts, probs):
    probs.expect(verdicts.get("self-check", ("", ""))[0] == "PASS",
                 "self-check verdict missing or not PASS: %r",
                 verdicts.get("self-check"))


def check_slow_entropy(base, eps, n_max, threshold=1e-3):
    grid = t_grid()
    ladder = sorted({max(2, n_max >> k) for k in range(4)})
    want = {}  # (t, n) -> (ratio_lower, ratio_upper)
    for n in ladder:
        lo, hi = base.capacity(n, eps)
        for t in grid:
            scale = base.log_scale(n, t)
            want[t, n] = (ratio(lo, scale), ratio(hi, scale))
    crossing = {}
    for side, i in (("lower", 0), ("upper", 1)):
        values = [want[t, n_max][i] for t in grid]
        if any(abs(v - threshold) <= REL * threshold for v in values):
            # too close to call in floats: the verdict is not checked
            crossing[side] = None
        else:
            above = [t for t, v in zip(grid, values) if v > threshold]
            crossing[side] = ("%.4g" % (max(above) if above else grid[0]),
                              not above)

    def compare(probs, rows, table):
        for row in rows:
            t, n = float(row["t"]), int(row["n"])
            for side, value in zip(("lower", "upper"), want[t, n]):
                got = float(row["ratio_" + side])
                probs.expect(close(got, value), "%s ratio_%s t=%s n=%d: "
                             "%r != %r", table, side, t, n, got, value)

    def check(outdir, code):
        probs = Problems()
        verdicts = read_verdicts(outdir)
        _self_check(verdicts, probs)
        rows = read_table(outdir, "ratios")
        probs.expect([(float(r["t"]), int(r["n"])) for r in rows]
                     == [(t, n_max) for t in grid], "ratios rows %r",
                     [(r["t"], r["n"]) for r in rows])
        ladder_rows = read_table(outdir, "ratios_ladder")
        probs.expect([(float(r["t"]), int(r["n"])) for r in ladder_rows]
                     == [(t, n) for t in grid for n in ladder],
                     "ladder rows are not grid x %r", ladder)
        if not probs:
            compare(probs, rows, "ratios")
            compare(probs, ladder_rows, "ladder")
        _verdict, detail = verdicts.get("slow-entropy", ("", ""))
        m = re.match(r"t_upper (\S+)( \(empty\))?, t_lower (\S+)"
                     r"( \(empty\))? at n=(\d+)", detail)
        probs.expect(m is not None, "slow-entropy detail %r", detail)
        if m:
            probs.expect(int(m.group(5)) == n_max, "n_max in detail %r",
                         detail)
            for side, text, empty in (("upper", m.group(1), m.group(2)),
                                      ("lower", m.group(3), m.group(4))):
                if crossing[side] is not None:
                    probs.expect((text, bool(empty)) == crossing[side],
                                 "t_%s %r, reference %r", side, detail,
                                 crossing[side])
        return probs
    return check


def check_sandwich(base, eps, ns):
    want_rows = {n: base.sandwich_row(n, eps) for n in ns}

    def check(outdir, code):
        probs = Problems()
        verdicts = read_verdicts(outdir)
        _self_check(verdicts, probs)
        rows = read_table(outdir, "sandwich")
        probs.expect([int(r["n"]) for r in rows] == list(ns),
                     "sandwich n column %r", [r["n"] for r in rows])
        for row in rows:
            for key, value in want_rows.get(int(row["n"]), {}).items():
                if isinstance(value, bool):
                    got = row[key] == "true"
                else:
                    got = Fraction(row[key])
                probs.expect(got == value, "sandwich n=%s %s: %s != %s",
                             row["n"], key, row[key], value)
        if code == 0:
            probs.expect(verdicts.get("sandwich", ("",))[0] == "PASS",
                         "exit 0 without a sandwich PASS")
            probs.expect(all(r["left_certified"] == "true" for r in rows),
                         "exit 0 with an uncertified left inequality")
        return probs
    return check


def check_sep(base, eps, ns):
    eps = Fraction(eps)
    want_rows = {}
    for n in ns:
        lo, hi = base.capacity(n, eps)
        want_rows[n] = {"epsilon": eps, "sep": base.skew_sep(n, eps),
                        "sep_2eps": base.skew_sep(n, 2 * eps),
                        "capacity_lower": lo, "capacity_upper": hi}

    def check(outdir, code):
        probs = Problems()
        _self_check(read_verdicts(outdir), probs)
        rows = read_table(outdir, "sep")
        probs.expect([int(r["n"]) for r in rows] == list(ns),
                     "sep n column %r", [r["n"] for r in rows])
        for row in rows:
            n = int(row["n"])
            for key, value in want_rows.get(n, {}).items():
                probs.expect(Fraction(row[key]) == value,
                             "sep n=%d %s: %s != %s", n, key, row[key], value)
        return probs
    return check


def check_birkhoff(base, ns):
    want_sup = {n: base.birkhoff_sup(n) for n in ns}

    def check(outdir, code):
        probs = Problems()
        rows = read_table(outdir, "birkhoff")
        probs.expect([int(r["n"]) for r in rows] == sorted(ns),
                     "birkhoff n column %r", [r["n"] for r in rows])
        for row in rows:
            n = int(row["n"])
            want = want_sup.get(n)
            probs.expect(Fraction(row["sup"]) == want,
                         "birkhoff n=%d: %s != %s", n, row["sup"], want)
            probs.expect(close(row["sup_float"], want),
                         "birkhoff float n=%d", n)
        return probs
    return check


def check_hamming(k, n, r):
    count = ref.hamming_count(k, n, r)
    want_log = float(mpmath.log(count)) / n
    want_exp = float(ref.hamming_exponent(k, r))

    def check(outdir, code):
        probs = Problems()
        (row,) = read_table(outdir, "hamming")
        probs.expect((int(row["n"]), int(row["k"]), Fraction(row["radius"]))
                     == (n, k, Fraction(r)), "hamming echo %r", row)
        probs.expect(close(row["log_count_over_n"], want_log, 1e-12),
                     "hamming log count %s != %r", row["log_count_over_n"],
                     want_log)
        probs.expect(close(row["exponent"], want_exp, 1e-12),
                     "hamming exponent %s != %r", row["exponent"], want_exp)
        return probs
    return check


M_SCHEDULE = (1, 2, 4, 8, 16)


def check_k_estimate(terms, closed=None):
    rows_want = ref.k_rows(terms, M_SCHEDULE, closed)
    value, m = ref.k_value(rows_want)

    def check(outdir, code):
        probs = Problems()
        rows = read_table(outdir, "k_estimate")
        got = [(int(r["m"]), int(r["n"]), Fraction(r["value"])) for r in rows]
        probs.expect(got == rows_want, "k_estimate rows differ: %r", got)
        _verdict, detail = read_verdicts(outdir).get("k-estimate", ("", ""))
        if value is None:
            want = "diverged (last value %s)" % rows_want[-1][2]
        else:
            want = "value %s, stabilized at m=%d" % (value, m)
        probs.expect(detail == want, "k-estimate %r != %r", detail, want)
        return probs
    return check


def check_goodwyn(k, terms, n=1000):
    rows_k = ref.k_rows(terms, M_SCHEDULE)
    value, _m = ref.k_value(rows_k)
    kval = rows_k[-1][2] if value is None else value
    lhs = math.log(k)
    rhs = float(kval) * math.log(k)

    def check(outdir, code):
        probs = Problems()
        (row,) = read_table(outdir, "goodwyn")
        probs.expect(int(row["k"]) == k and int(row["n"]) == n,
                     "goodwyn echo %r", row)
        probs.expect(close(row["lhs"], lhs, 1e-12), "goodwyn lhs %s != log %d",
                     row["lhs"], k)
        probs.expect(close(row["rhs"], rhs, 1e-12), "goodwyn rhs %s != %r",
                     row["rhs"], rhs)
        probs.expect(float(row["lhs"]) <= float(row["rhs"]) + 1e-9
                     and row["ok"] == "true", "goodwyn lhs > rhs: %r", row)
        probs.expect(read_verdicts(outdir).get("goodwyn", ("",))[0] == "PASS",
                     "goodwyn verdict not PASS")
        return probs
    return check


def check_folner(family, m, ns):
    def check(outdir, code):
        probs = Problems()
        rows = read_table(outdir, "folner")
        got = [(int(r["n"]), Fraction(r["defect"])) for r in rows]
        want = [(n, ref.folner(family, m, n)) for n in ns]
        probs.expect(got == want, "folner %s rows %r != %r", family, got,
                     want)
        return probs
    return check
