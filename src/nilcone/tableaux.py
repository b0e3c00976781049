"""Semistandard Young tableaux, enumerated for the charge route of kostka.py.

A tableau of content mu is a chain of shapes () = lam^0 < lam^1 < ... <
lam^k = shape in which lam^i / lam^(i-1) is a horizontal mu_i-strip, the
cells that hold letter i.  Enumeration grows these chains letter by
letter and keeps each strip that still fits inside the shape.  A tableau
is returned as its tuple of rows.  The output order is the lexicographic
order of the strip choices, letter 1 first, each letter's strips in
partitions._add_horizontal order; it is stable across runs.
"""

from __future__ import annotations

from .partitions import Partition, _add_horizontal, _check_partition

Rows = tuple[tuple[int, ...], ...]


def ssyt_enumerate(shape: Partition, content: Partition) -> list[Rows]:
    """All semistandard tableaux of the given shape in which letter i occurs
    content[i-1] times, as tuples of rows, in the strip order of the module
    docstring."""
    for arg in (shape, content):
        _check_partition(arg, "ssyt_enumerate")
    if shape.size != content.size:
        raise ValueError(
            f"shape and content must have equal size: |{shape}| != |{content}|"
        )
    target = shape.parts
    tableaux: list[Rows] = [()]
    for letter, m in enumerate(content.parts, 1):
        grown = []
        for rows in tableaux:
            for nu in _add_horizontal(tuple(map(len, rows)), m):
                if len(nu) <= len(target) and all(a <= b for a, b in zip(nu, target)):
                    padded = rows + ((),) * (len(nu) - len(rows))
                    grown.append(
                        tuple(row + (letter,) * (p - len(row)) for row, p in zip(padded, nu))
                    )
        tableaux = grown
    return tableaux
