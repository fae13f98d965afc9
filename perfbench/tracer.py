"""Spans around entroscope's layers, recorded from outside the program.

Each layer is a set of public functions or methods.  The tracer swaps
each one for a wrapper in every entroscope module that bound the name
(`walk_range_distribution` lives in both `cocycle` and `skew`,
`capacity_A` in `skew`, `entropy` and `cli`), so every call path is
seen.  A span records its layer, its parent span, its start and end,
and where useful a key (to count distinct requests) and an amount (words
returned, CSV bytes written).  Spans stay in memory until the process
ends.

`exactnum` is not wrapped: its operations take microseconds, so a
wrapper would cost as much as the work.  Its time shows up in the self
time of the layers that call it.
"""

import os
import sys
import time


def _words_key(spec, length, *_a, **_k):
    return "%r|%d" % (spec, length)


def _dp_key(spec, steps, values, r_max=None):
    return "%r|%d|%r|%r" % (spec, steps, sorted(values.items()), r_max)


def _bracket_key(target, n, epsilon, *_a, **_k):
    return "%r|%d|%s" % (target, n, epsilon)


def _len(_args, result):
    return len(result)


def _csv_bytes(_args, paths):
    return sum(os.path.getsize(p) for p in paths if p.endswith(".csv"))


# layer -> [(module, attribute path)], key function, amount function
LAYERS = {
    "symbolic.words": ([("symbolic", "FullShift.words"),
                        ("symbolic", "SFT.words"),
                        ("symbolic", "Sturmian.words"),
                        ("symbolic", "Product.words")], _words_key, _len),
    "cocycle.dp": ([("cocycle", "walk_range_distribution")], _dp_key, None),
    "cocycle.profile": ([("cocycle", "profile_counts"),
                         ("cocycle", "range_distribution")], None, None),
    "fiber.sep_count": ([("fiber", "sep_count")], None, None),
    "skew.capacity": ([("skew", "capacity_A")], None, None),
    "skew.sep_direct": ([("skew", "skew_sep_direct")], None, None),
    "entropy.count_bracket": ([("entropy", "count_bracket")], _bracket_key,
                              None),
    "entropy.scale_eval": ([("entropy", "ExpScale.log_eval"),
                            ("entropy", "PolyScale.log_eval"),
                            ("entropy", "RangeExpScale.log_eval"),
                            ("entropy", "RangeInnerScale.log_eval")],
                           None, None),
    "entropy.birkhoff": ([("entropy", "birkhoff_sup")], None, None),
    "entropy.hamming": ([("entropy", "hamming_ball_count")], None, None),
    "entropy.k_estimate": ([("entropy", "k_estimate")], None, None),
    "cli.self_check": ([("cli", "run_self_checks")], None, None),
    "cli.load_context": ([("cli", "load_context")], None, None),
    "reports.write": ([("reports", "Report.write")], None, _csv_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, parent index, start, end, key, amount]
        self.stack = []

    def wrap(self, layer, fn, key_fn, amount_fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn else None
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0, key, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if amount_fn:
                span[5] = amount_fn(args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function wherever an entroscope module bound it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "entroscope"
                                         or name.startswith("entroscope."))]
        for layer, (targets, key_fn, amount_fn) in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules["entroscope." + mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.wrap(layer, cls.__dict__[meth],
                                                 key_fn, amount_fn))
                    continue
                original = getattr(owner, attr)
                traced = self.wrap(layer, original, key_fn, amount_fn)
                bound = 0
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, traced)
                            bound += 1
                if not bound:
                    raise RuntimeError("could not wrap %s.%s" % (mod_name,
                                                                 attr))


def summarize(spans):
    """Per-layer totals of one process: calls, self and inclusive time,
    distinct keys, amounts, and words returned directly to sep_direct."""
    child = [0.0] * len(spans)
    for layer, parent, t0, t1, _key, _amount in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (layer, parent, t0, t1, key, amount) in enumerate(spans):
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0, "keys": set(),
                                     "amount": 0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - child[i]
        if parent < 0 or spans[parent][0] != layer:
            row["total_s"] += t1 - t0
        if key is not None:
            row["keys"].add(key)
        if amount is not None:
            row["amount"] += amount
            # a parent is appended before its children, so its row exists
            if parent >= 0 and spans[parent][0] == "skew.sep_direct":
                out["skew.sep_direct"]["amount"] += amount
    for row in out.values():
        row["distinct"] = len(row.pop("keys"))
    return out
