"""Host speed, measured beside the workload, so that timings can be
read at one reference speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes: a fixed pure-Python loop's time does, and so
does every round of every workload, in step.  ``unit()`` is such a
fixed piece of interpreter work (hashing, small tuples, dicts, sorting,
string joins, integer arithmetic), written here and independent of
repro, so no change to the program moves it.  The benchmark times it
right beside each sample (around each round, job or fresh start) and
scales the sample by ``NOMINAL_UNIT_S / unit time``: a round measured
while ``unit()`` ran 20% slow is read 20% faster.  The result is still
in seconds, the seconds the sample would take on a host where
``unit()`` takes ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

import statistics
import time

#: ``unit()``'s typical time on the 2-vCPU x86-64 host the benchmark
#: was written on (Python 3.11).  Only a scale: it fixes the reference
#: speed at which normalised seconds are read.
NOMINAL_UNIT_S = 0.002
#: Sampling beside a piece of work: this share of the work's time, and
#: at least ``SAMPLE_MIN_S``.
SAMPLE_SHARE = 0.25
SAMPLE_MIN_S = 0.01


def unit() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    seen = {a * b ^ v for (a, b), v in ranked}
    text = ",".join(sorted(str(v) for v in seen))
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    return len(text) + acc


def sample(budget_s: float) -> list[float]:
    """Time ``unit()`` repeatedly for about ``budget_s`` (at least twice);
    the per-unit times."""
    times = []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times


def beside(work_s: float) -> list[float]:
    """Samples to flank a piece of work that took ``work_s``."""
    return sample(max(SAMPLE_MIN_S, SAMPLE_SHARE * work_s))


def factor(times) -> float:
    """The scale from this host's speed, as ``times`` measured it, to
    the reference speed."""
    return NOMINAL_UNIT_S / statistics.median(times)
