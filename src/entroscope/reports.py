"""Deterministic CSV tables and JSON summaries for experiment runs.

A Report collects named tables plus PASS/FAIL/OBSERVED verdicts and
writes them under an output directory: one CSV per table and one
summary.json echoing the full configuration.  Identical inputs produce
byte-identical CSV payloads; wall time and timestamps live only in the
JSON metadata so they never break table determinism.
"""

import csv
import io
import json
import os
import time
from fractions import Fraction

__all__ = ["cell", "table_text", "Report",
           "sandwich_table", "k_table", "profile_table",
           "distribution_table", "words_table", "pairs_table"]

VERDICTS = ("PASS", "FAIL", "OBSERVED")


def cell(v):
    """Stable text form of one table value."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def table_text(header, rows):
    """Render one table as CSV text with a fixed line terminator."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([cell(v) for v in row])
    return buf.getvalue()


class Report:
    """Config echo, named tables, and per-check verdicts for one run."""

    def __init__(self, command, params):
        self.meta = {"command": command, "params": _jsonable(params)}
        self.tables = {}   # name -> (header, rows); insertion ordered
        self.verdicts = []  # (check, verdict, detail)
        self._t0 = time.time()

    def add_table(self, name, header, rows):
        self.tables[name] = (tuple(header), [tuple(r) for r in rows])

    def add_verdict(self, check, verdict, detail=""):
        if verdict not in VERDICTS:
            raise ValueError("verdict must be one of %s" % (VERDICTS,))
        self.verdicts.append((check, verdict, str(detail)))

    def all_ok(self):
        return all(v != "FAIL" for _c, v, _d in self.verdicts)

    def csv_text(self, name):
        header, rows = self.tables[name]
        return table_text(header, rows)

    def summary(self):
        from . import __version__
        return {
            "meta": dict(self.meta, version=__version__,
                         wall_seconds=round(time.time() - self._t0, 3)),
            "tables": sorted(self.tables),
            "verdicts": [{"check": c, "verdict": v, "detail": d}
                         for c, v, d in self.verdicts],
        }

    def write(self, outdir):
        """Write every table plus summary.json; returns the paths."""
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for name in self.tables:
            path = os.path.join(outdir, name + ".csv")
            with open(path, "w") as fh:
                fh.write(self.csv_text(name))
            paths.append(path)
        spath = os.path.join(outdir, "summary.json")
        with open(spath, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True,
                      default=str)
            fh.write("\n")
        paths.append(spath)
        return paths


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return cell(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


# ---------------------------------------------------------------------------
# table builders for the library result types


def sandwich_table(result):
    """Rows from a sandwich_check result dict."""
    header = ("n", "epsilon", "a_lower_2eps", "a_upper_2eps",
              "skew_lower", "skew_upper", "a_lower_halfeps",
              "a_upper_halfeps", "e_inferred", "left_certified",
              "left_stated")
    rows = [(r.n, r.epsilon, r.a2_lower, r.a2_upper, r.skew_lo, r.skew_hi,
             r.ahalf_lower, r.ahalf_upper, r.e_inferred, r.left_certified,
             r.left_stated) for r in result["rows"]]
    return header, rows


def k_table(ke):
    header = ("m", "n", "value")
    return header, [(m, n, v) for m, n, v in ke.rows]


def profile_table(entries):
    """Rows (n, visited, interval_count, value) from profile summaries."""
    header = ("n", "r", "q", "count")
    return header, [tuple(e) for e in entries]


def distribution_table(dist):
    header = ("r", "count")
    return header, sorted(dist.items())


def words_table(words, to_str):
    header = ("word",)
    return header, [(to_str(w),) for w in words]


def pairs_table(pairs, names=("n", "value")):
    return tuple(names), [tuple(p) for p in pairs]
