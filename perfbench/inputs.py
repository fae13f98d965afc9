"""Seeded inputs: subshifts of finite type and explicit sequences.

Everything the program reads that depends on the seed is drawn here and
written as a config file for `entroscope run --config`.
"""

import itertools
import json
import os
import random

# An SFT base forbids a word w of length 5 over {-1, 1} and its negation
# -w, so the sign walk has no drift.  Words with a run of four equal
# letters are left out: forbidding those makes the walk far less
# diffusive and the range DP about three times cheaper than on the
# other thirteen pairs, which would make the workload's time depend on
# the seed much more than on the program.
SFT_WORD_LENGTH = 5


def has_run(w, k):
    return any(len(set(w[i:i + k])) == 1 for i in range(len(w) - k + 1))


SFT_WORDS = [w for w in itertools.product((-1, 1), repeat=SFT_WORD_LENGTH)
             if w[0] == -1 and not has_run(w, 4)]


# The slow-entropy t grid: the one the tt-inverse and sturmian-walk
# presets use, written into the seeded configs so that every slow-entropy
# command the benchmark checks runs on it (checks.t_grid reads it here).
T_GRID = {"start": 0.3, "stop": 1.1, "step": 0.05}


def draw_sft(rng):
    w = rng.choice(SFT_WORDS)
    return sorted([w, tuple(-a for a in w)])


def word_text(w):
    return ",".join(str(a) for a in w)


def sign_system(forbidden):
    """System block of a config: SFT base, sign step, full 2-shift fiber."""
    return {
        "base": {"variant": "sft", "alphabet": [-1, 1],
                 "forbidden": [word_text(f) for f in forbidden]},
        "tau": {"radius": 0, "rule": {"-1": -1, "1": 1}},
        "fiber": {"variant": "symbolic",
                  "spec": {"variant": "full", "alphabet": [-1, 1]}},
    }


def draw_explicit(rng, length):
    """A strictly increasing sequence with gaps from 1 to 6."""
    terms = []
    t = rng.randint(1, 9)
    for _ in range(length):
        terms.append(t)
        t += rng.randint(1, 6)
    return terms


class Inputs:
    """The seeded inputs of one run, with their config files."""

    def __init__(self, seed, cfg_dir):
        rng = random.Random(seed)
        self.cfg_dir = cfg_dir
        self.sft = [draw_sft(rng), draw_sft(rng)]
        self.arithmetic = (rng.randint(1, 20), rng.randint(1, 6))
        self.k_symbols = rng.choice((2, 3))
        self.explicit = draw_explicit(rng, 3000)
        os.makedirs(cfg_dir, exist_ok=True)

    def config(self, name, doc):
        path = os.path.join(self.cfg_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        return path

    def sft_config(self, name, which, command, parameters):
        return self.config(name, {"command": command,
                                  "system": sign_system(self.sft[which]),
                                  "parameters": parameters})

    def sequence_config(self, name, command, sequence, parameters=None):
        params = {"sequence": sequence}
        params.update(parameters or {})
        return self.config(name, {"command": command, "parameters": params})

    def arithmetic_text(self):
        return "arithmetic(%d,%d)" % self.arithmetic

    def explicit_text(self):
        return "explicit:" + ",".join(str(t) for t in self.explicit)
