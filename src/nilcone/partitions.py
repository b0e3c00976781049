"""Integer partitions: the index set for symmetric-group irreducibles and
for nilpotent Jordan types.

Partitions are kept in normal form (weakly decreasing positive parts, no
trailing zeros); the empty partition is allowed and indexes the degenerate
n = 0 cases throughout the package.  A Partition's parts and size are
fixed at construction, the size summed once, and cannot be assigned.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import factorial
from operator import lt
from typing import Iterable, Iterator, Sequence

Shape = tuple[int, ...]  # the parts of a partition, as memo keys


class Partition:
    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            # no coercion: 2.7, True and "3" would silently become 2, 1 and 3
            if type(p) is not int:
                raise TypeError(f"partition parts must be ints, not {type(p).__name__}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"partition parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        _set_parts(self, parts)
        _set_size(self, sum(parts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Partition is immutable: cannot assign {name}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Partition, (self.parts,)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def dominates(self, other: "Partition") -> bool:
        """Dominance order: every partial sum of self >= that of other.

        Only defined between partitions of the same size, so the partial
        sums up to the end of the shorter one decide."""
        _check_partition(other, "Partition.dominates")
        if self.size != other.size:
            raise ValueError(f"dominance needs equal sizes: |{self}| != |{other}|")
        return not any(map(lt, accumulate(self.parts), accumulate(other.parts)))

    def n_stat(self) -> int:
        """The partition statistic sum_i (i-1) * parts[i] (1-indexed)."""
        return sum(i * p for i, p in enumerate(self.parts))

    def hooks(self) -> list[int]:
        """Hook lengths of all cells, in row-major order."""
        conj = self.conjugate().parts
        return [
            (self.parts[r] - c) + (conj[c] - r) - 1
            for r in range(len(self.parts))
            for c in range(self.parts[r])
        ]

    def num_standard_tableaux(self) -> int:
        """Count of standard Young tableaux, by the hook-length formula."""
        count = factorial(self.size)
        for h in self.hooks():
            count //= h
        return count


# __init__ writes through the slots' own setters, which bypass __setattr__
_set_parts, _set_size = Partition.parts.__set__, Partition.size.__set__


def _check_partition(lam: object, caller: str) -> None:
    """TypeError, naming caller and the type received, unless lam is a Partition."""
    if not isinstance(lam, Partition):
        raise TypeError(f"{caller} needs a Partition, not {type(lam).__name__}")


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse lexicographic order: (n) first,
    (1,...,1) last."""
    if type(n) is not int:  # True would partition 1, and 2.0 fails on range()
        raise TypeError(f"partitions_of needs an int, not {type(n).__name__}")
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out: list[Partition] = []

    def extend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            extend(remaining - p, p, prefix + (p,))

    extend(n, n, ())
    return out


def _trim(parts: Sequence[int]) -> Shape:
    parts = tuple(parts)
    return parts[: parts.index(0)] if 0 in parts else parts


@lru_cache(maxsize=None)
def _add_horizontal(shape: Shape, s: int) -> tuple[Shape, ...]:
    """Every nu with nu/shape a horizontal s-strip: row r > 0 (one past
    the last included) gains at most shape[r-1] - shape[r] cells, and the
    first row takes the rest."""
    rows = shape + (0,)
    caps = [rows[r - 1] - rows[r] for r in range(1, len(rows))]
    out = []
    for gains in product(*(range(c + 1) for c in caps)):
        rest = s - sum(gains)
        if rest >= 0:
            out.append(_trim([rows[0] + rest] + [p + g for p, g in zip(rows[1:], gains)]))
    return tuple(out)
