"""Seeded operation lists for the four benchmark workloads, and the small
amount of partition combinatorics the benchmark needs of its own.

Nothing here imports nilcone: inputs are plain tuples, so the program
under test receives only generated data, and the correctness checks in
check.py can use these helpers as a route independent of the package.

An operation is a tuple ``(kind, *args)``.  Library kinds name one call
into nilcone (see worker.LIBRARY_CALLS); the ``cli`` kind carries an argv
list for ``python -m nilcone.cli`` and the partition size whose Kostka
table it reads through the cache (0 when it uses no cache).
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import factorial, prod

WORKLOADS = ("kostka-table", "cone-series", "molien", "cli-cache")

# Largest n of the kostka-table workload: the n = 10 table is the largest
# that keeps one pass near two seconds (n = 12 alone takes 33 s).
KOSTKA_MAX_N = 10
# Truncation grid of the walg operations in cone-series.  Each truncation
# is paired with a Jordan type drawn once, with a fixed seed: a walg
# operation's cost depends on both, and fixed pairs keep the latency
# distribution the same for every seed, which then only orders them.
WALG_TRUNCATIONS = tuple(range(1000, 3000, 100))
CLI_FORMATS = ("text", "json", "latex")
# Partition sizes of the small CLI queries, and walg truncations.
CLI_SIZES = (3, 4, 5, 6) * 2
CLI_TRUNCATIONS = tuple(range(100, 300, 25))


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    out: list[tuple[int, ...]] = []

    def extend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            extend(remaining - p, p, prefix + (p,))

    extend(n, n, ())
    return tuple(out)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0))


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def n_stat(lam: tuple[int, ...]) -> int:
    return sum(i * p for i, p in enumerate(lam))


def orbit_dim(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    return n * n - sum(c * c for c in conjugate(lam))


def standard_count(lam: tuple[int, ...]) -> int:
    """f^lam by the hook-length formula."""
    conj = conjugate(lam)
    hooks = prod(lam[r] - c + conj[c] - r - 1 for r in range(len(lam)) for c in range(lam[r]))
    return factorial(sum(lam)) // hooks


def multinomial(mu: tuple[int, ...]) -> int:
    return factorial(sum(mu)) // prod(factorial(m) for m in mu)


@lru_cache(maxsize=None)
def kostka_number(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu, by
    peeling the largest letter off as a horizontal strip."""
    if not mu:
        return 1 if not lam else 0
    k = mu[-1]
    total = 0

    def strips(i: int, left: int, inner: list[int]) -> None:
        nonlocal total
        if i == len(lam):
            if left == 0:
                total += kostka_number(tuple(p for p in inner if p), mu[:-1])
            return
        floor = lam[i + 1] if i + 1 < len(lam) else 0
        for take in range(min(left, lam[i] - floor) + 1):
            inner.append(lam[i] - take)
            strips(i + 1, left - take, inner)
            inner.pop()

    strips(0, k, [])
    return total


def operations(workload: str, seed: int) -> list[tuple]:
    """The operation list of one workload pass; a pure function of its
    arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "kostka-table": _kostka_table,
        "cone-series": _cone_series,
        "molien": _molien,
        "cli-cache": _cli_cache,
    }[workload](rng)


def _kostka_table(rng: random.Random) -> list[tuple]:
    ops = [
        ("kostka", lam, mu)
        for n in range(1, KOSTKA_MAX_N + 1)
        for lam in partitions(n)
        for mu in partitions(n)
    ]
    rng.shuffle(ops)
    return ops


def _cone_series(rng: random.Random) -> list[tuple]:
    ops = [("springer", phi) for phi in partitions(8)]
    # No ih_orbit_closure operations of their own: proudfoot_check(lam)
    # calls it on the conjugate of lam, so it runs on every lam of 10 anyway,
    # and with them half the list would be cheap hp0/ih calls, putting the
    # median latency on the gap between those and the proudfoot calls.
    for kind in ("hp0", "proudfoot"):
        ops += [(kind, lam) for lam in partitions(10)]
    phis = random.Random("walg").sample(partitions(10), len(WALG_TRUNCATIONS))
    ops += [("walg", phi, t) for phi, t in zip(phis, WALG_TRUNCATIONS)]
    rng.shuffle(ops)
    # pn_series(10) goes first so the cold (1^10) column is paid by one
    # operation in every seed; the other n = 10 operations share it.
    return [("pn", 10)] + ops


MOLIEN_TYPES = (
    [("A", r) for r in range(1, 8)]
    + [(f, r) for f in ("B", "C") for r in range(2, 8)]
    + [("D", r) for r in range(3, 8)]
    + [("G2", 2), ("F4", 4)]
)
# Fake degrees by class averaging over S_n for 2 <= n <= MOLIEN_FD_MAX_N;
# n = 9 is included so that the operation list reaches 100 entries.
MOLIEN_FD_MAX_N = 9


def _molien(rng: random.Random) -> list[tuple]:
    ops = [("molien_pn", family, rank) for family, rank in MOLIEN_TYPES]
    ops += [
        ("molien_fd", lam) for n in range(2, MOLIEN_FD_MAX_N + 1) for lam in partitions(n)
    ]
    rng.shuffle(ops)
    return ops


def _csv(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def _cli_cache(rng: random.Random) -> list[tuple]:
    """A hundred small queries over every subcommand.  Kostka queries read
    their n = 7..9 table through the cache, so the first one per n misses
    and the rest hit.  Sizes and truncations are fixed; the seed picks
    partitions of a given size and formats, which leaves the cost of a
    query about the same, so that the latency percentiles barely depend
    on it."""

    def dominating_pair(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        parts = partitions(n)
        while True:
            lam, mu = rng.choice(parts), rng.choice(parts)
            if dominates(lam, mu):
                return lam, mu

    specs: list[tuple[list[str], int]] = []
    for n in (7, 8, 9):
        for _ in range(10):
            lam, mu = dominating_pair(n)
            specs.append((["kostka", "--lambda", _csv(lam), "--mu", _csv(mu)], n))
    for algorithm in ("all", "charge", "qhook", "molien") * 2 + ("all", "molien"):
        lam = rng.choice(partitions(5))
        specs.append((["fake-degree", "--lambda", _csv(lam), "--algorithm", algorithm], 0))
    for n in range(2, 7):
        specs.append((["pn", "--n", str(n)], 0))
    for family, rank in (("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G2", 2)):
        specs.append((["pn", "--type", family, "--rank", str(rank)], 0))
    for command, flag in (
        ("hp0", "--phi"), ("ih", "--lambda"), ("springer-fiber", "--phi"), ("proudfoot", "--lambda")
    ):
        specs += [([command, flag, _csv(rng.choice(partitions(n)))], 0) for n in CLI_SIZES]
    for truncate in CLI_TRUNCATIONS:
        phi = rng.choice(partitions(5))
        specs.append((["walg", "--phi", _csv(phi), "--truncate", str(truncate)], 0))
    for n in CLI_SIZES:
        nu, phi = dominating_pair(n)
        specs.append((["s3", "--nu", _csv(nu), "--phi", _csv(phi)], 0))
    specs.append((["verify", "--suite", "all", "--max-n", "5"], 0))
    # JSON, so that every seed reads verify's handler time from meta.ms.
    specs.append((["verify", "--suite", "fibers", "--max-n", "4", "--format", "json"], 0))

    # Every subcommand meets every format: formats cycle within each one.
    seen: dict[str, int] = {}
    ops = []
    for argv, cache_n in specs:
        if "--format" not in argv:
            i = seen.get(argv[0], rng.randrange(3))
            seen[argv[0]] = i + 1
            argv = argv + ["--format", CLI_FORMATS[i % 3]]
        ops.append(("cli", tuple(argv), cache_n))
    rng.shuffle(ops)
    return ops
