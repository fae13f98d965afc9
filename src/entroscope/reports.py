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

__all__ = ["cell", "table_text", "Report"]

VERDICTS = ("PASS", "FAIL", "OBSERVED")


def cell(v):
    """Stable text form of one table value."""
    if isinstance(v, bool):
        return "true" if v else "false"
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
        self.meta = {"command": command, "params": params}
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

