"""Host-speed correction of operation times.

The benchmark's host is a share of a machine whose speed moves between
levels for seconds to minutes: a fixed pure-Python loop runs up to 40%
slower at one time than at another, the same in process CPU time as in
wall time.  More operations in a run do not average that away, because
the levels last longer than a run.  So every stretch of about CHUNK_S of
timed operations is bracketed by runs of a fixed reference computation,
and each operation's time is scaled by REFERENCE_S over the mean of the
two reference times around it: a time "at reference pace" is what the
operation would take on this host when the reference takes REFERENCE_S.

The reference is the benchmark's own code (workloads.kostka_number over
all pairs of partitions of 8, pure-Python recursion over tuples and
integers, as nilcone's combinatorics is); it warms no nilcone cache.
"""

from __future__ import annotations

import statistics
import time

import workloads

# Median reference time on the host the baseline was taken on (2 vCPUs,
# Intel Xeon, CPython 3.11.7), so paced times read as seconds there.
REFERENCE_S = 0.009
CHUNK_S = 0.1


def reference() -> float:
    """Time one run of the reference computation, from a cold cache."""
    workloads.kostka_number.cache_clear()
    parts = workloads.partitions(8)
    start = time.perf_counter()
    for lam in parts:
        for mu in parts:
            workloads.kostka_number(lam, mu)
    return time.perf_counter() - start


def settled_reference(repeats: int = 3) -> float:
    """Median of a few reference runs after one discarded warm-up run."""
    reference()
    return statistics.median(reference() for _ in range(repeats))


class Pacer:
    """Collects operation latencies and scales them to reference pace."""

    def __init__(self) -> None:
        self.paced: list[float] = []
        self.pending: list[float] = []
        self.pending_s = 0.0
        self.before = settled_reference()

    def add(self, latency: float) -> None:
        self.pending.append(latency)
        self.pending_s += latency
        if self.pending_s >= CHUNK_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = reference()
        scale = REFERENCE_S / ((self.before + after) / 2)
        self.paced += [latency * scale for latency in self.pending]
        self.pending, self.pending_s, self.before = [], 0.0, after
