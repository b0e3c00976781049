"""Weyl-group data: fundamental degrees, conjugacy-class Molien factors
det(1 - t w) on the reflection representation, graded characters of the
coinvariant algebra, symmetric-group characters, and the character-free
route to the bigraded flag-variety series.

Degrees here are the classical degrees d_i of the fundamental invariants
(prod d_i = |W|, sum (d_i - 1) = number of positive roots); formulas that
need the doubled grading of invariants on the ambient Lie algebra write
y**(2*d_i) explicitly.

Class data comes from closed-form cycle-type combinatorics in the classical
families and from explicit matrix enumeration in the exceptional ones.  For
D_n the classes are grouped by their ambient hyperoctahedral cycle type
(some of those sets split into two true conjugacy classes, but det(1 - t w)
and the class sums used here are constant on each set, which is all that
any formula in this package consumes).  Likewise the enumerated exceptional
classes are grouped by characteristic polynomial, which may merge true
classes (e.g. both reflection classes of G2) without affecting any sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Mapping

from .laurent import BiLaurentPoly, LaurentPoly
from .partitions import Partition, partitions_of

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6")

# Enumeration is affordable through F4 (1152 elements); E6 (51840) must be
# requested explicitly via the budget argument.
DEFAULT_ENUMERATION_BUDGET = 1200

Matrix = tuple[tuple[int, ...], ...]


class EnumerationBudgetError(ValueError):
    """The requested group is larger than the enumeration budget allows."""


@dataclass(frozen=True)
class WeylType:
    family: str
    rank: int
    degrees: tuple[int, ...]
    order: int
    num_positive_roots: int

    def __str__(self) -> str:
        """A3, B2, ...; an exceptional family name (G2, F4, E6) already
        carries the rank."""
        return self.family if self.family[-1].isdigit() else f"{self.family}{self.rank}"


@dataclass(frozen=True)
class ClassDatum:
    """One conjugacy class (or char-polynomial-constant union of classes):
    its size and the factor det(1 - t w) on the reflection representation."""

    label: str
    size: int
    char_factor: LaurentPoly


def _degrees(family: str, rank: int) -> tuple[int, ...]:
    if family == "A" and rank >= 1:
        return tuple(range(2, rank + 2))
    if family in ("B", "C") and rank >= 2:
        return tuple(2 * i for i in range(1, rank + 1))
    if family == "D" and rank >= 2:
        return tuple(sorted([2 * i for i in range(1, rank)] + [rank]))
    if family == "G2" and rank == 2:
        return (2, 6)
    if family == "F4" and rank == 4:
        return (2, 6, 8, 12)
    if family == "E6" and rank == 6:
        return (2, 5, 6, 8, 9, 12)
    raise ValueError(f"unsupported Weyl type {family}{rank}")


@lru_cache(maxsize=None)
def weyl_type(family: str, rank: int) -> WeylType:
    """Look up a supported Weyl type; for groups within the enumeration
    budget the degree table is validated against explicit enumeration
    (element count and reflection count)."""
    degrees = _degrees(family, rank)
    wt = WeylType(
        family=family,
        rank=rank,
        degrees=degrees,
        order=prod(degrees),
        num_positive_roots=sum(d - 1 for d in degrees),
    )
    if wt.order <= DEFAULT_ENUMERATION_BUDGET:
        counted, reflections = enumeration_counts(wt)
        if counted != wt.order or reflections != wt.num_positive_roots:
            raise AssertionError(
                f"degree table for {wt} contradicts enumeration: "
                f"|W|={counted}, reflections={reflections}"
            )
    return wt


# ---------------------------------------------------------------------------
# Reflection representation from the Cartan matrix, and group enumeration.
# ---------------------------------------------------------------------------


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """cartan[i][j] = 2 (a_i, a_j) / (a_j, a_j) for simple roots a_i."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family in ("B", "C"):
        for i in range(rank - 2):
            bond(i, i + 1)
        if family == "B":  # last simple root short
            bond(rank - 2, rank - 1, -2, -1)
        else:  # last simple root long
            bond(rank - 2, rank - 1, -1, -2)
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        if rank >= 3:
            # the forked node hangs off node rank-3
            bond(rank - 3, rank - 1)
        # rank == 2 is the disconnected A1 x A1 diagram
    elif family == "G2":
        bond(0, 1, -1, -3)
    elif family == "F4":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif family == "E6":
        for i, j in ((0, 2), (2, 3), (1, 3), (3, 4), (4, 5)):
            bond(i, j)
    else:
        raise ValueError(f"unsupported family {family!r}")
    return c


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def _simple_reflections(family: str, rank: int) -> tuple[Matrix, ...]:
    cartan = _cartan_matrix(family, rank)
    gens = []
    for j in range(rank):
        rows = [
            [1 if i == k else 0 for k in range(rank)] for i in range(rank)
        ]
        rows[j] = [(1 if i == j else 0) - cartan[i][j] for i in range(rank)]
        gens.append(tuple(tuple(row) for row in rows))
    return tuple(gens)


@lru_cache(maxsize=None)
def _enumerate(family: str, rank: int) -> tuple[Matrix, ...]:
    """All elements of W as integer matrices in the simple-root basis."""
    gens = _simple_reflections(family, rank)
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)
    )
    seen = {identity}
    frontier = [identity]
    while frontier:
        new: list[Matrix] = []
        for m in frontier:
            for g in gens:
                p = _mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return tuple(seen)


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _char_factor_of_matrix(m: Matrix) -> LaurentPoly:
    """det(1 - t m), exactly, by interpolation at t = 0..rank."""
    r = len(m)
    values = [
        _int_det([[(1 if i == j else 0) - k * m[i][j] for j in range(r)] for i in range(r)])
        for k in range(r + 1)
    ]
    # Newton divided differences on the nodes 0..r
    dd = [Fraction(v) for v in values]
    for j in range(1, r + 1):
        for i in range(r, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / j
    coeffs = [Fraction(0)] * (r + 1)
    coeffs[0] = dd[0]
    basis = [Fraction(1)]
    for i in range(1, r + 1):
        new = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            new[d + 1] += b
            new[d] -= b * (i - 1)
        basis = new
        for d, b in enumerate(basis):
            coeffs[d] += dd[i] * b
    terms: dict[int, int] = {}
    for e, c in enumerate(coeffs):
        if c.denominator != 1:
            raise AssertionError("characteristic polynomial interpolation failed")
        terms[e] = int(c)
    return LaurentPoly(terms, "t")


@lru_cache(maxsize=None)
def _grouped_char_factors(family: str, rank: int) -> tuple[tuple[LaurentPoly, int], ...]:
    groups: dict[LaurentPoly, int] = {}
    for m in _enumerate(family, rank):
        f = _char_factor_of_matrix(m)
        groups[f] = groups.get(f, 0) + 1
    return tuple(
        sorted(groups.items(), key=lambda kv: sorted(kv[0].terms.items()))
    )


def _check_budget(wt: WeylType, budget: int | None) -> None:
    limit = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    if wt.order > limit:
        raise EnumerationBudgetError(
            f"enumerating {wt} needs {wt.order} elements, over the budget of {limit}"
        )


def enumeration_counts(wt: WeylType, budget: int | None = None) -> tuple[int, int]:
    """(number of elements, number of reflections) by explicit enumeration.

    Validates the degree table: the counts must equal prod(d_i) and
    sum(d_i - 1) respectively.
    """
    _check_budget(wt, budget)
    groups = _grouped_char_factors(wt.family, wt.rank)
    reflection_char = LaurentPoly({0: 1, 1: -1}, "t") ** (wt.rank - 1) * LaurentPoly(
        {0: 1, 1: 1}, "t"
    )
    order = sum(count for _, count in groups)
    reflections = sum(count for f, count in groups if f == reflection_char)
    return order, reflections


# ---------------------------------------------------------------------------
# Conjugacy-class data.
# ---------------------------------------------------------------------------


def _zvalue(mu: Partition) -> int:
    """Centralizer order of cycle type mu in the symmetric group."""
    z = 1
    for part, mult in Counter(mu.parts).items():
        z *= part**mult * factorial(mult)
    return z


def _csv(parts: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in parts)


def _one_minus(k: int) -> LaurentPoly:
    return LaurentPoly({0: 1, k: -1}, "t")


def _one_plus(k: int) -> LaurentPoly:
    return LaurentPoly({0: 1, k: 1}, "t")


def conjugacy_data(wt: WeylType, budget: int | None = None) -> list[ClassDatum]:
    """Complete class list with sizes and det(1 - t w) factors.

    See the module docstring for the grouping caveats in type D and in the
    enumerated exceptional types.
    """
    if wt.family == "A":
        n = wt.rank + 1
        out = []
        for mu in partitions_of(n):
            size = factorial(n) // _zvalue(mu)
            perm_factor = LaurentPoly.one("t")
            for c in mu.parts:
                perm_factor = perm_factor * _one_minus(c)
            out.append(
                ClassDatum(
                    label=_csv(mu.parts),
                    size=size,
                    char_factor=perm_factor.div_exact(_one_minus(1)),
                )
            )
        return out
    if wt.family in ("B", "C", "D"):
        n = wt.rank
        even_only = wt.family == "D"
        hyperoctahedral_order = 2**n * factorial(n)
        out = []
        for k in range(n, -1, -1):
            for alpha in partitions_of(k):
                for beta in partitions_of(n - k):
                    if even_only and len(beta) % 2 != 0:
                        continue
                    z = 2 ** (len(alpha) + len(beta)) * _zvalue(alpha) * _zvalue(beta)
                    factor = LaurentPoly.one("t")
                    for a in alpha.parts:
                        factor = factor * _one_minus(a)
                    for b in beta.parts:
                        factor = factor * _one_plus(b)
                    out.append(
                        ClassDatum(
                            label=f"{_csv(alpha.parts)}|{_csv(beta.parts)}",
                            size=hyperoctahedral_order // z,
                            char_factor=factor,
                        )
                    )
        return out
    # exceptional types: enumerate and group by characteristic polynomial
    _check_budget(wt, budget)
    return [
        ClassDatum(label=str(f), size=count, char_factor=f)
        for f, count in _grouped_char_factors(wt.family, wt.rank)
    ]


def molien_graded_character(wt: WeylType, cd: ClassDatum) -> LaurentPoly:
    """Graded character of the coinvariant algebra at the class cd:

        f_cd(q) = prod_i (1 - q**d_i) / det(1 - q w).

    Always an honest polynomial of degree N with constant term 1 (the
    division is a correctness tripwire)."""
    numerator = LaurentPoly.one("q")
    for d in wt.degrees:
        numerator = numerator * LaurentPoly({0: 1, d: -1}, "q")
    f = numerator.div_exact(cd.char_factor).with_var("q")
    if f.degree != wt.num_positive_roots or f.coeff(0) != 1:
        raise AssertionError(f"malformed graded character for class {cd.label}")
    return f


# ---------------------------------------------------------------------------
# Symmetric-group characters (Murnaghan-Nakayama) and fake degrees.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mn_recursive(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]) -> int:
    if not mu_parts:
        return 1
    k = mu_parts[0]
    rest = mu_parts[1:]
    ell = len(lam_parts)
    betas = [lam_parts[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        parts = tuple(
            nb2 - (ell - 1 - i) for i, nb2 in enumerate(new_betas)
        )
        total += (-1) ** height * _mn_recursive(
            tuple(p for p in parts if p > 0), rest
        )
    return total


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric-group character value chi^lam(cycle_type), by
    recursive border-strip removal with sign (-1)**height."""
    if lam.size != cycle_type.size:
        raise ValueError(
            f"character needs equal sizes: |{lam}| != |{cycle_type}|"
        )
    return _mn_recursive(lam.parts, cycle_type.parts)


def sn_character_values(lam: Partition) -> dict[str, int]:
    """chi^lam on every class of S_n, keyed by the class labels used by
    conjugacy_data for type A."""
    return {
        _csv(mu.parts): mn_character(lam, mu) for mu in partitions_of(lam.size)
    }


def fake_degree_molien(
    wt: WeylType, character_values: Mapping[str, int]
) -> LaurentPoly:
    """Graded multiplicity of the character in the coinvariant algebra, by
    class averaging:  (1/|W|) sum_c size_c * chi(c) * f_c(q).

    The average must clear |W| exactly and land on nonnegative integers;
    anything else means the supplied values are not a character."""
    classes = conjugacy_data(wt)
    missing = [c.label for c in classes if c.label not in character_values]
    if missing:
        raise ValueError(f"character values missing for classes: {missing}")
    acc = LaurentPoly.zero("q")
    for cd in classes:
        chi = character_values[cd.label]
        if chi:
            acc = acc + cd.size * chi * molien_graded_character(wt, cd)
    terms: dict[int, int] = {}
    for e, c in acc.terms.items():
        if c % wt.order:
            raise ValueError(
                "class average is not integral: input is not a character"
            )
        terms[e] = c // wt.order
    fd = LaurentPoly(terms, "q")
    if any(c < 0 for c in fd.terms.values()):
        raise ValueError(
            "class average has negative multiplicities: input is not a character"
        )
    return fd


def pn_series_molien(wt: WeylType, budget: int | None = None) -> BiLaurentPoly:
    """Bigraded flag-variety series by class averaging, with no character
    table:

        x**2N * y**-2N * (1/|W|) * sum_c size_c * f_c(x**-2) * f_c(y**2).

    Agrees with the per-irreducible sum of Kostka-polynomial products
    because sum_chi FD_chi(a) FD_chi(b) class-averages f(a) f(b) for real
    characters."""
    npos = wt.num_positive_roots
    acc = BiLaurentPoly.zero()
    for cd in conjugacy_data(wt, budget=budget):
        f = molien_graded_character(wt, cd)
        fx = BiLaurentPoly.from_x(f.substitute_power(-2))
        fy = BiLaurentPoly.from_y(f.substitute_power(2))
        acc = acc + cd.size * (fx * fy)
    terms: dict[tuple[int, int], int] = {}
    for key, c in acc.terms.items():
        if c % wt.order:
            raise AssertionError("non-integral class average in the flag series")
        v = c // wt.order
        if v:
            terms[key] = v
    out = BiLaurentPoly(terms).shift(2 * npos, -2 * npos)
    for (xe, ye), c in out.terms.items():
        if not (0 <= xe <= 2 * npos and -2 * npos <= ye <= 0 and c > 0):
            raise AssertionError("flag series violates its exponent window")
    return out
