"""Kostka-Foulkes polynomials via the charge statistic, with the q-hook
fake-degree formula as an independent second route.

Charge convention (pinned; recorded in CONVENTION_TAG and in every cache
file): on a standard word the index of letter 1 is 0 and the index of r+1
increments exactly when r+1 occurs to the RIGHT of r; charge is the sum of
the indices.  Under this convention the single-row shape gets
K[(n),(1^n)] = q^(n(n-1)/2) and the single-column shape gets
K[(1^n),(1^n)] = 1, i.e. the trivial representation carries the top power.
The opposite (cocharge) convention is deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .laurent import LaurentPoly
from .partitions import Partition
from .tableaux import ssyt_enumerate

CONVENTION_TAG = "charge-c1=0-right-increment"
FORMAT_VERSION = 1


def _validate_partition_content(word: Sequence[int]) -> int:
    """Check the letter multiplicities form a partition; return the top letter."""
    counts: dict[int, int] = {}
    for v in word:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"word letters must be positive integers: {v!r}")
        counts[v] = counts.get(v, 0) + 1
    top = max(counts) if counts else 0
    previous = None
    for i in range(1, top + 1):
        c = counts.get(i, 0)
        if c == 0 or (previous is not None and c > previous):
            raise ValueError(f"word content is not a partition: {tuple(word)}")
        previous = c
    return top


def _standard_charge(subword: Sequence[int]) -> int:
    """Index-rule charge of a word with distinct letters 1..m."""
    position = {v: i for i, v in enumerate(subword)}
    index = 0
    total = 0
    for r in range(2, len(subword) + 1):
        if position[r] > position[r - 1]:
            index += 1
        total += index
    return total


def charge(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content.

    A word with distinct letters 1..m is scored directly by the index rule
    in the module docstring.  A general word is split into standard
    subwords, whose charges add, by circular right-to-left extraction:
    select the rightmost 1; then, scanning right-to-left from the previous
    pick and wrapping cyclically past the left end, the first 2, the first
    3, and so on up to the current top letter; remove the selected subword
    and repeat.
    """
    w = list(word)
    _validate_partition_content(w)
    total = 0
    while w:
        top = max(w)
        pick = next(i for i in range(len(w) - 1, -1, -1) if w[i] == 1)
        selected = [pick]
        for letter in range(2, top + 1):
            i = selected[-1]
            for step in range(1, len(w)):
                j = (i - step) % len(w)
                if w[j] == letter:
                    selected.append(j)
                    break
            else:  # partition content guarantees the letter exists
                raise AssertionError("extraction failed to find a letter")
        total += _standard_charge([w[j] for j in sorted(selected)])
        for j in sorted(selected, reverse=True):
            del w[j]
    return total


@lru_cache(maxsize=None)
def _kostka_foulkes_parts(
    lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]
) -> LaurentPoly:
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    terms: dict[int, int] = {}
    for t in ssyt_enumerate(lam, mu):
        c = charge(t.reading_word())
        terms[c] = terms.get(c, 0) + 1
    return LaurentPoly(terms, "t")


def kostka_foulkes(lam: Partition, mu: Partition) -> LaurentPoly:
    """K[lam,mu](t) = sum of t**charge(reading word) over the semistandard
    tableaux of shape lam and content mu; zero when no tableau exists."""
    if lam.size != mu.size:
        raise ValueError(
            f"Kostka polynomial needs equal sizes: |{lam}| != |{mu}|"
        )
    return _kostka_foulkes_parts(lam.parts, mu.parts)


def fake_degree_qhook(lam: Partition) -> LaurentPoly:
    """Graded multiplicity of the irreducible lam in the coinvariant algebra,
    by the q-analog of the hook-length formula:

        q**n_stat(lam) * prod_{k=1..n} (1-q**k) / prod_{cells} (1-q**hook).

    The division is exact by theorem; a failure raises ExactDivisionError
    and means an implementation bug.  Equals the major-index generating
    polynomial over standard tableaux of shape lam.
    """
    n = lam.size
    q = "q"
    numerator = LaurentPoly.monomial(lam.n_stat(), 1, q)
    for k in range(1, n + 1):
        numerator = numerator * LaurentPoly({0: 1, k: -1}, q)
    denominator = LaurentPoly.one(q)
    for h in lam.hooks():
        denominator = denominator * LaurentPoly({0: 1, h: -1}, q)
    return numerator.div_exact(denominator)


def kostka_from_fake_degree(lam: Partition) -> LaurentPoly:
    """K[lam,(1^n)](t) as the degree-reversal t**N * FD(1/t) of the fake
    degree, N = n(n-1)/2.  The series consumers take this closed form
    (springer.kostka_g); kostka_foulkes(lam, (1^n)) is the independent
    charge route the verify suites compare it with."""
    n = lam.size
    top = n * (n - 1) // 2
    fd = fake_degree_qhook(lam)
    return fd.substitute_power(-1).shift(top).with_var("t")


@dataclass
class KostkaTable:
    """All Kostka-Foulkes polynomials for partitions of a fixed n.

    Only nonzero entries are stored; an entry exists exactly when the shape
    dominates the content.  convention_tag and format_version make cache
    files self-describing.
    """

    n: int
    entries: dict[tuple[Partition, Partition], LaurentPoly] = field(default_factory=dict)
    convention_tag: str = CONVENTION_TAG
    format_version: int = FORMAT_VERSION

    def lookup(self, lam: Partition, mu: Partition) -> LaurentPoly:
        return self.entries.get((lam, mu), LaurentPoly.zero("t"))

    def to_payload(self) -> dict:
        entries = []
        for (lam, mu), poly in sorted(
            self.entries.items(), key=lambda kv: (kv[0][0].parts, kv[0][1].parts)
        ):
            entries.append(
                {
                    "lambda": list(lam.parts),
                    "mu": list(mu.parts),
                    "poly": {str(e): str(c) for e, c in sorted(poly.terms.items())},
                }
            )
        return {
            "format_version": self.format_version,
            "convention_tag": self.convention_tag,
            "n": self.n,
            "entries": entries,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "KostkaTable":
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported table format_version: {payload.get('format_version')!r}"
            )
        if payload.get("convention_tag") != CONVENTION_TAG:
            raise ValueError(
                f"table was built under convention {payload.get('convention_tag')!r},"
                f" expected {CONVENTION_TAG!r}"
            )
        n = int(payload["n"])
        entries: dict[tuple[Partition, Partition], LaurentPoly] = {}
        for item in payload["entries"]:
            lam = Partition(item["lambda"])
            mu = Partition(item["mu"])
            poly = LaurentPoly({int(e): int(c) for e, c in item["poly"].items()}, "t")
            entries[(lam, mu)] = poly
        return cls(n=n, entries=entries)


def compute_kostka_table(n: int) -> KostkaTable:
    """Compute every K[lam,mu] for lam, mu partitions of n (nonzero entries)."""
    from .partitions import partitions_of

    table = KostkaTable(n=n)
    parts = partitions_of(n)
    for lam in parts:
        for mu in parts:
            poly = kostka_foulkes(lam, mu)
            if poly:
                table.entries[(lam, mu)] = poly
    return table
