"""A fixed task that measures how fast the machine runs emoscope-like work now.

On a shared host the work a process gets done per CPU second drifts by 20%
or more within minutes with the neighbours' load, so two sets of benchmark
runs an hour apart disagree by about as much as any usable bound. The
benchmark runs this task as a child process before every set-up, before
every cycle and once after the last one. Its work never changes with
emoscope, so the median of its wall times follows only the machine, and
the gated timings are scaled by that median to the speed of a nominal
quiet machine.

The task does what an emoscope invocation spends its time on, in small:
it imports numpy and scipy.stats, decodes and tokenises JSON lines into a
large dict, and runs a loop of small numpy reductions over permuted
arrays. A pure-Python loop alone slows down under contention by about
twice as much as emoscope does; this mix slows down by about as much.

    python3 bench/calibrate.py     # prints nothing, exits 0
"""

import json
import random
import re

# a nominal wall time for the task, spawn to exit, near what a quiet
# 2-vCPU 2.1 GHz machine with Python 3.11 takes; calibrated figures read
# as if measured on a machine that runs the task in exactly this time
REFERENCE_S = 0.7


def work() -> float:
    # imported here, so that the benchmark can read REFERENCE_S cheaply;
    # the import is part of the measured work, as in every CLI invocation
    import numpy as np
    import scipy.stats  # noqa: F401

    rng = random.Random(7)
    words = [f"w{rng.getrandbits(40):x}" for _ in range(50_000)]
    lines = [json.dumps({"id": i, "text": " ".join(rng.choice(words) for _ in range(10)),
                         "created_at": f"2021-03-{1 + i % 28:02d}T10:00:00Z"})
             for i in range(10_000)]
    token = re.compile(r"[a-z0-9']+")
    counts: dict[str, int] = {}
    for line in lines:
        rec = json.loads(line)
        day = rec["created_at"][:10]
        counts[day] = counts.get(day, 0) + 1
        for word in token.findall(rec["text"].lower()):
            counts[word] = counts.get(word, 0) + 1
    gen = np.random.default_rng(1)
    x = gen.standard_normal(160)
    y = gen.standard_normal(160)
    xc = np.cumsum(x - x.mean())
    total = 0.0
    for _ in range(1500):
        p = gen.permutation(y)
        yc = np.cumsum(p - p.mean())
        total += float(np.dot(xc, yc) / np.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))
    return total + len(counts)


if __name__ == "__main__":
    work()
