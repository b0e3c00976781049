"""Weyl-group data: fundamental degrees, conjugacy-class Molien factors
det(1 - t w) on the reflection representation, graded characters of the
coinvariant algebra, symmetric-group characters, and the character-free
route to the bigraded flag-variety series.

Degrees here are the classical degrees d_i of the fundamental invariants
(prod d_i = |W|, sum (d_i - 1) = number of positive roots); formulas that
need the doubled grading of invariants on the ambient Lie algebra write
y**(2*d_i) explicitly.

Class data comes from closed-form cycle-type combinatorics in the classical
families, where det(1 - t w) = prod (1 - t**a) / prod (1 - t**b), and from
explicit enumeration in the exceptional ones.  For D_n the classes are
grouped by their ambient hyperoctahedral cycle type (some of those sets
split into two true conjugacy classes, but det(1 - t w) and the class sums
used here are constant on each set, which is all that any formula in this
package consumes).  The exceptional groups are enumerated on index tables
and split into true conjugacy classes, det(1 - t w) coming from traces of
powers; only the returned class list groups them by det(1 - t w), which
may merge true classes (e.g. both reflection classes of G2) without
affecting any sum.

weyl_type validates a degree table up to order 1200 by counting, with no
element list: enumeration_counts multiplies orbit sizes of fundamental
weights and halves the root closure.  A classical group expands
prod (1 - q**d) once for all its graded characters, and pn_series_molien
is computed once per group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter, mul
from typing import Iterator, Mapping

from .laurent import BiLaurentPoly, LaurentPoly, q_quotient, q_quotient_coefficients
from .partitions import Partition, partitions_of

# Fundamental degrees of the exceptional types; the rank is their number.
EXCEPTIONAL_DEGREES = {"G2": (2, 6), "F4": (2, 6, 8, 12), "E6": (2, 5, 6, 8, 9, 12)}
SUPPORTED_FAMILIES = ("A", "B", "C", "D", *EXCEPTIONAL_DEGREES)

# weyl_type checks the degree table against enumeration_counts up to this
# order (F4 has 1152 elements); larger groups are looked up from the table.
_VALIDATED_ORDER = 1200
# enumeration_counts stops at E6 (51840 elements), the largest group the
# class split enumerates.
_ENUMERATED_ORDER = prod(EXCEPTIONAL_DEGREES["E6"])


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
    """One conjugacy class (or a union of classes on which det(1 - t w) is
    constant: an ambient cycle type in D_n, a characteristic polynomial in
    the exceptional types): its size and the factor det(1 - t w) on the
    reflection representation."""

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
    if family in EXCEPTIONAL_DEGREES:  # the name carries the rank
        if (named := len(EXCEPTIONAL_DEGREES[family])) == rank:
            return EXCEPTIONAL_DEGREES[family]
        raise ValueError(f"{family} has rank {named}, not {rank}")
    raise ValueError(f"unsupported Weyl type {family}{rank}")


def weyl_type(family: str, rank: int) -> WeylType:
    """Look up a supported Weyl type; for groups of order up to 1200 the
    degree table is validated against the element and reflection counts of
    enumeration_counts, taken from the Cartan matrix."""
    if type(family) is not str:
        raise TypeError(f"Weyl family must be a str, not {type(family).__name__}")
    if type(rank) is not int:  # bool is not a rank, and 2.0 would share 2's cache entry
        raise TypeError(f"Weyl rank must be an int, not {type(rank).__name__}")
    return _weyl_type(family, rank)


@lru_cache(maxsize=None)
def _weyl_type(family: str, rank: int) -> WeylType:
    """The table entry, validated up to order 1200 by enumeration_counts:
    |W| and its number of reflections must be prod d_i and N."""
    degrees = _degrees(family, rank)
    wt = WeylType(family, rank, degrees, prod(degrees), sum(d - 1 for d in degrees))
    if wt.order <= _VALIDATED_ORDER:
        counted, reflections = enumeration_counts(wt)
        if counted != wt.order or reflections != wt.num_positive_roots:
            raise AssertionError(
                f"degree table for {wt} contradicts enumeration: "
                f"|W|={counted}, reflections={reflections}"
            )
    return wt


# ---------------------------------------------------------------------------
# Root system and group order from the Cartan matrix, and group enumeration.
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


def _root_system(cartan: list[list[int]]) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """(roots, gens): the roots, in the simple-root basis, are the closure
    of the simple roots under the simple reflections, found breadth first,
    and gens[j][k] is the index of s_j roots[k]."""
    rank = len(cartan)
    roots = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    index = {r: k for k, r in enumerate(roots)}
    gens: list[list[int]] = [[] for _ in range(rank)]
    for v in roots:  # the list grows while it is read
        for j, images in enumerate(gens):
            w = v[:j] + (v[j] - sum(v[i] * cartan[i][j] for i in range(rank)),) + v[j + 1 :]
            images.append(index.setdefault(w, len(roots)))
            if images[-1] == len(roots):
                roots.append(w)
    return roots, gens


def _search(family: str, rank: int) -> tuple[list, list, list[int], list[tuple[int, int]]]:
    """(roots, elements, right, tree): each simple reflection of
    _root_system becomes a permutation of root indices, so a group element
    is a tuple (w[i] the index of w applied to roots[i]) and composition is
    tuple indexing (operator.itemgetter).  W is enumerated breadth first
    into a flat index table: right[k * rank + j] is the index of
    elements[k] s_j, and tree[m] = (k, j) when elements[m] was found as
    elements[k] s_j."""
    roots, gens = _root_system(_cartan_matrix(family, rank))
    # itemgetter(*g)(w)[i] = w[g[i]]: composition w s_j, done in C.  An
    # element is fixed by its images w[:rank] of the simple roots, its key.
    steps = [(itemgetter(*g), itemgetter(*g[:rank])) for g in gens]
    elements = [tuple(range(len(roots)))]
    found = {itemgetter(*range(rank))(elements[0]): 0}
    right: list[int] = []
    tree = [(0, 0)]
    for k, w in enumerate(elements):
        for i, (compose, key) in enumerate(steps):
            m = found.setdefault(key(w), len(elements))
            if m == len(elements):
                elements.append(compose(w))
                tree.append((k, i))
            right.append(m)
    return roots, elements, right, tree


@lru_cache(maxsize=None)
def _conjugacy_classes(family: str, rank: int) -> tuple[tuple[LaurentPoly, int], ...]:
    """The true conjugacy classes of W, each as (det(1 - t w), size).

    W comes from _search; left[k * rank + j], the index of s_j elements[k],
    is filled along its search tree.  The classes are the closures under
    conjugation s_j w s_j = right[left[w * rank + j] * rank + j], on ints
    alone."""
    roots, elements, right, tree = _search(family, rank)
    left = right[:rank]
    for k, i in tree[1:]:  # s_j (w s_i) = (s_j w) s_i
        left += [right[m * rank + i] for m in left[k * rank : (k + 1) * rank]]
    classed = bytearray(len(elements))
    classes = []
    for rep in range(len(elements)):
        if classed[rep]:
            continue
        classed[rep] = 1
        orbit = [rep]
        for w in orbit:
            for j in range(rank):
                if not classed[c := right[left[w * rank + j] * rank + j]]:
                    classed[c] = 1
                    orbit.append(c)
        w = power = elements[rep]
        sums = []
        for _ in range(rank):  # tr(w**k) = sum_j coordinate j of w**k(a_j)
            sums.append(sum(roots[power[j]][j] for j in range(rank)))
            power = itemgetter(*w)(power)  # power w
        classes.append((_det_from_power_sums(sums), len(orbit)))
    degrees = _degrees(family, rank)
    if len(elements) != prod(degrees) or len(roots) != 2 * sum(d - 1 for d in degrees):
        raise AssertionError(
            f"{family}{rank}: enumeration found {len(elements)} elements and "
            f"{len(roots)} roots, against the degrees {degrees}"
        )
    return tuple(classes)


def _det_from_power_sums(sums: list[int]) -> LaurentPoly:
    """det(1 - t w) of an integer r x r matrix w from its power sums
    sums[k - 1] = tr(w**k), k = 1..r, by Newton's identities: the
    coefficient of t**k is c_k = -(sum_i c_(k-i) tr(w**i)) / k, with
    c_0 = 1, a division that must be exact."""
    coeffs = [1]
    for k in range(1, len(sums) + 1):  # c_(k-1) tr(w) + ... + c_0 tr(w**k)
        c, remainder = divmod(-sum(map(mul, reversed(coeffs), sums)), k)
        if remainder:
            raise AssertionError(f"power sums {sums}: coefficient of t^{k} is not an integer")
        coeffs.append(c)
    return LaurentPoly(dict(enumerate(coeffs)), "t")


def _grouped_char_factors(family: str, rank: int) -> tuple[tuple[LaurentPoly, int], ...]:
    groups: Counter[LaurentPoly] = Counter()
    for f, size in _conjugacy_classes(family, rank):
        groups[f] += size
    return tuple(sorted(groups.items(), key=lambda kv: sorted(kv[0].terms.items())))


def enumeration_counts(wt: WeylType) -> tuple[int, int]:
    """(number of elements, number of reflections) from the Cartan matrix,
    with no element list.  For J = {0..k} the stabilizer in W_J of the
    fundamental weight w_k is W_(J - k) (Humphreys, Reflection Groups and
    Coxeter Groups, 1.12), so |W| is the product over k of the orbit sizes
    |W_J w_k|; the reflections are the positive roots, half the root closure.

    Validates the degree table: the counts must equal prod(d_i) and
    sum(d_i - 1).  Groups larger than E6 are refused."""
    if wt.order > _ENUMERATED_ORDER:
        raise ValueError(
            f"counting {wt} ({wt.order} elements) is refused above the {_ENUMERATED_ORDER} of E6"
        )
    cartan = _cartan_matrix(wt.family, wt.rank)
    order = 1
    for k in range(wt.rank):
        # on weight coordinates s_j lam = lam - lam_j * (row j of the Cartan matrix)
        orbit = [tuple(int(i == k) for i in range(wt.rank))]
        for lam in orbit:  # the list grows while it is read; it stays short (27 in E6)
            for j in range(k + 1):
                if (mu := tuple(a - lam[j] * c for a, c in zip(lam, cartan[j]))) not in orbit:
                    orbit.append(mu)
        order *= len(orbit)
    return order, len(_root_system(cartan)[0]) // 2


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


def _classical_classes(family: str, rank: int) -> Iterator[tuple[str, int, tuple, tuple]]:
    """(label, size, a, b) for every class of type A, B, C or D, where
    det(1 - t w) = prod (1 - t**a) / prod (1 - t**b)."""
    if family == "A":
        n = rank + 1
        for mu in partitions_of(n):
            # the permutation representation minus its trivial summand
            yield _csv(mu.parts), factorial(n) // _zvalue(mu), mu.parts, (1,)
        return
    hyperoctahedral_order = 2**rank * factorial(rank)
    for k in range(rank, -1, -1):
        for alpha in partitions_of(k):
            for beta in partitions_of(rank - k):
                if family == "D" and len(beta) % 2 != 0:
                    continue
                z = 2 ** (len(alpha) + len(beta)) * _zvalue(alpha) * _zvalue(beta)
                # prod (1 - t**a) * prod (1 + t**b); 1 + t**b = (1 - t**2b) / (1 - t**b)
                label = f"{_csv(alpha.parts)}|{_csv(beta.parts)}"
                doubled = tuple(2 * b for b in beta.parts)
                yield label, hyperoctahedral_order // z, alpha.parts + doubled, beta.parts


def conjugacy_data(wt: WeylType) -> list[ClassDatum]:
    """Complete class list with sizes and det(1 - t w) factors.

    See the module docstring for the grouping caveats in type D and in the
    enumerated exceptional types.
    """
    if wt.family in EXCEPTIONAL_DEGREES:  # enumerate and group by det(1 - t w)
        return [
            ClassDatum(label=str(f), size=count, char_factor=f)
            for f, count in _grouped_char_factors(wt.family, wt.rank)
        ]
    return [
        ClassDatum(label, size, q_quotient(num, den, "t"))
        for label, size, num, den in _classical_classes(wt.family, wt.rank)
    ]


def molien_graded_character(wt: WeylType, cd: ClassDatum) -> LaurentPoly:
    """Graded character of the coinvariant algebra at the class cd:

        f_cd(q) = prod_i (1 - q**d_i) / det(1 - q w).

    Always an honest polynomial of degree N with constant term 1 (the
    division is a correctness tripwire)."""
    f = q_quotient(wt.degrees, ()).div_exact(cd.char_factor)
    if f.degree != wt.num_positive_roots or f.coeff(0) != 1:
        raise AssertionError(f"malformed graded character for class {cd.label}")
    return f


@lru_cache(maxsize=None)
def _class_characters(family: str, rank: int) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """(label, size, coefficients of f_c) for every class, computed once per
    group; callers pass B for C, as B_n and C_n are one group with one class
    list.  The graded characters are kept as coefficient tuples, which are
    compact and immutable, so no caller can alter the cache.  A classical
    f_c is one q-quotient of the group's prod (1 - q**d), expanded once,
    checked as in molien_graded_character."""
    wt = weyl_type(family, rank)
    out = []
    if family in EXCEPTIONAL_DEGREES:
        for cd in conjugacy_data(wt):
            f = molien_graded_character(wt, cd)
            out.append((cd.label, cd.size, tuple(f.coeff(e) for e in range(f.degree + 1))))
        return tuple(out)
    degree_product = q_quotient_coefficients(wt.degrees, ())
    for label, size, num, den in _classical_classes(family, rank):
        f = q_quotient_coefficients(den, num, base=degree_product)  # / det(1 - q w)
        if len(f) != wt.num_positive_roots + 1 or f[0] != 1:
            raise AssertionError(f"malformed graded character for class {label}")
        out.append((label, size, tuple(f)))
    return tuple(out)


def _classes_of(wt: WeylType) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    return _class_characters("B" if wt.family == "C" else wt.family, wt.rank)


# ---------------------------------------------------------------------------
# Symmetric-group characters (Murnaghan-Nakayama) and fake degrees.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mn_beads(beads: int, mu_parts: tuple[int, ...]) -> int:
    """chi^lam(mu) on the bead mask of lam: bit p is set for each
    beta-number lam_i + l - 1 - i.  Removing a k-border strip moves a set
    bead b to a clear b - k, with sign (-1)**(beads strictly between); the
    trailing set bits, zero parts, are shifted off."""
    if not mu_parts:
        return 1
    k, rest = mu_parts[0], mu_parts[1:]
    total = 0
    between = (1 << (k - 1)) - 1
    for b in range(k, beads.bit_length()):
        if beads >> b & 1 and not beads >> (b - k) & 1:
            moved = beads ^ (1 << b) ^ (1 << (b - k))
            value = _mn_beads(moved >> (moved ^ (moved + 1)).bit_length() - 1, rest)
            total += -value if (beads >> (b - k + 1) & between).bit_count() & 1 else value
    return total


def _beads(parts: tuple[int, ...]) -> int:
    return sum(1 << (p + len(parts) - 1 - i) for i, p in enumerate(parts))


@lru_cache(maxsize=None)
def _cycle_types(n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    return tuple((_csv(mu.parts), mu.parts) for mu in partitions_of(n))


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric-group character value chi^lam(cycle_type), by
    recursive border-strip removal with sign (-1)**height, on bead masks."""
    if lam.size != cycle_type.size:
        raise ValueError(
            f"character needs equal sizes: |{lam}| != |{cycle_type}|"
        )
    return _mn_beads(_beads(lam.parts), cycle_type.parts)


def sn_character_values(lam: Partition) -> dict[str, int]:
    """chi^lam on every class of S_n, keyed by the class labels used by
    conjugacy_data for type A."""
    beads = _beads(lam.parts)
    return {label: _mn_beads(beads, parts) for label, parts in _cycle_types(lam.size)}


def fake_degree_molien(
    wt: WeylType, character_values: Mapping[str, int]
) -> LaurentPoly:
    """Graded multiplicity of the character in the coinvariant algebra, by
    class averaging:  (1/|W|) sum_c size_c * chi(c) * f_c(q).

    The average must clear |W| exactly and land on nonnegative integers;
    anything else means the supplied values are not a character."""
    classes = _classes_of(wt)
    missing = [label for label, _, _ in classes if label not in character_values]
    if missing:
        raise ValueError(f"character values missing for classes: {missing}")
    unknown = sorted(set(character_values) - {label for label, _, _ in classes})
    if unknown:
        raise ValueError(f"character values given for no class of {wt}: {unknown}")
    acc = [0] * (wt.num_positive_roots + 1)  # every f_c has degree N
    for label, size, coeffs in classes:
        chi = character_values[label]
        if type(chi) is not int:  # bool is not a character value
            raise TypeError(
                f"character value of class {label} must be an int, not {type(chi).__name__}"
            )
        if chi:
            for e, c in enumerate(coeffs):
                acc[e] += size * chi * c
    terms: dict[int, int] = {}
    for e, c in enumerate(acc):
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


def pn_series_molien(wt: WeylType) -> BiLaurentPoly:
    """Bigraded flag-variety series by class averaging, with no character
    table:

        x**2N * y**-2N * (1/|W|) * sum_c size_c * f_c(x**-2) * f_c(y**2).

    Agrees with the per-irreducible sum of Kostka-polynomial products
    because sum_chi FD_chi(a) FD_chi(b) class-averages f(a) f(b) for real
    characters.  Computed once per group (B_n and C_n are one); every call
    returns a fresh copy."""
    return BiLaurentPoly(_flag_series("B" if wt.family == "C" else wt.family, wt.rank))


@lru_cache(maxsize=None)
def _flag_series(family: str, rank: int) -> dict[tuple[int, int], int]:
    """The term map of pn_series_molien, which every caller copies."""
    wt = weyl_type(family, rank)
    npos = wt.num_positive_roots
    merged: Counter[tuple[int, ...]] = Counter()  # classes that share f_c add their sizes
    for _, size, coeffs in _class_characters(family, rank):
        merged[coeffs] += size
    acc = BiLaurentPoly.sum_of_products(
        (
            size,
            LaurentPoly({2 * (npos - e): c for e, c in enumerate(coeffs)}),
            LaurentPoly({2 * (e - npos): c for e, c in enumerate(coeffs)}),
        )
        for coeffs, size in merged.items()
    )
    terms: dict[tuple[int, int], int] = {}
    for (xe, ye), c in acc.terms.items():
        if c % wt.order:
            raise AssertionError("non-integral class average in the flag series")
        if v := c // wt.order:
            if not (0 <= xe <= 2 * npos and -2 * npos <= ye <= 0 and v > 0):
                raise AssertionError("flag series violates its exponent window")
            terms[xe, ye] = v
    return terms
