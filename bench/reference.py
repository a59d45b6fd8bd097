"""A fixed reference loop that measures the machine's speed next to each
timed step, so reported times do not move with the machine's drift.

On the 2-core machine this benchmark was built on, other tenants share the
cores. Two kinds of noise overlap there: the speed of the cores switches
between a fast and a slow state about 1.8x apart, for spans of under a
second to minutes, and the hypervisor now and then takes the vCPU away
for tens of milliseconds (steal time). Each timed step is reported at the
loop's nominal speed:

    adjusted = wall * NOMINAL_SECONDS / median(loop runs around the step)

The loop is timed in CPU time, which leaves steal out: a 15 ms loop hit
by one steal stall would read up to 4x slow, while a verb run of 0.1 to
2 s averages its stalls into its wall time. The median over the loop runs
nearest a step tracks drift that lasts seconds or more; faster switching
averages out in the medians over many verb runs.

The loop does the kinds of work the pipeline does, in roughly equal parts:
regex tokenizing and phrase counting, sparse dot products, and dict-based
hinge SGD, over fixed data with a pipeline-sized working set. It
shares no code with newsvalue, so a change to the program never changes it;
it must not change either, or adjusted times stop being comparable.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time

# About the loop's time on the machine the baseline was taken on (2 vCPU
# at 2.0 GHz, Python 3.11: 11 ms in the fast state, 20 to 23 ms in the
# slow one). It only sets the unit of adjusted times.
NOMINAL_SECONDS = 0.013

_TOKEN_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?|[^\W\d]+")


def _corpus() -> tuple[list[str], list[dict[str, float]], list[int]]:
    """Fixed texts and sparse rows over a 4000-word vocabulary, so the
    loop's working set is about the size of the pipeline's."""
    rng = random.Random(20170907)
    words = ["".join(rng.choice("bdfgklmnprstvz") + rng.choice("aeiou") for _ in range(3))
             for _ in range(4000)]
    texts = [" ".join(rng.choice(words) for _ in range(20)) + f", {rng.randint(1, 999)} dead"
             for _ in range(100)]
    rows = [{rng.choice(words): rng.random() for _ in range(25)} for _ in range(250)]
    labels = [1 if rng.random() < 0.5 else -1 for _ in rows]
    return texts, rows, labels


_TEXTS, _ROWS, _LABELS = _corpus()


def measure() -> float:
    """CPU seconds one run of the reference loop takes now."""
    # With the cyclic GC off, no collection started by the loop's own
    # allocations scans the program's heap, so the time depends only on
    # the machine's speed (the loop makes no cycles).
    gc.disable()
    try:
        start = time.process_time()
        # text: tokenize, count 1- to 3-token phrases, sort the table
        vectors = []
        for text in _TEXTS:
            toks = _TOKEN_RE.findall(text.lower())
            counts: dict[tuple[str, ...], int] = {}
            for i in range(len(toks)):
                for n in (3, 2, 1):
                    key = tuple(toks[i : i + n])
                    counts[key] = counts.get(key, 0) + 1
            sorted(counts)
            vectors.append({k[0]: float(c) for k, c in counts.items() if len(k) == 1})
        # sparse dot products, as in cosine matching
        total = 0.0
        for a in vectors[::4]:
            for b in vectors:
                total += sum(w * b[t] for t, w in a.items() if t in b)
        # dict-based hinge SGD, as in linear.train_binary_hinge
        weights: dict[str, float] = {}
        scale = 1.0
        for _ in range(3):
            for x, y in zip(_ROWS, _LABELS):
                margin = y * scale * sum(weights.get(f, 0.0) * v for f, v in x.items())
                scale *= 0.999
                if margin < 1.0:
                    step = 0.01 * y / scale
                    for f, v in x.items():
                        weights[f] = weights.get(f, 0.0) + step * v
        return time.process_time() - start
    finally:
        gc.enable()


def factor(loop_runs: list[float]) -> float:
    """What to multiply seconds by to bring them to the loop's nominal
    speed, given the loop runs around them."""
    return NOMINAL_SECONDS / statistics.median(loop_runs)


def adjust(wall: float, loop_runs: list[float]) -> float:
    """wall seconds at the reference loop's nominal speed, given the loop
    runs around them."""
    return wall * factor(loop_runs)
