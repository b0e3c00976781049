"""Weyl-group data: fundamental degrees, conjugacy-class Molien factors
det(1 - t w) on the reflection representation, graded characters of the
coinvariant algebra, symmetric-group characters, and the character-free
route to the bigraded flag-variety series.

Degrees here are the classical degrees d_i of the fundamental invariants
(prod d_i = |W|, sum (d_i - 1) = number of positive roots); formulas that
need the doubled grading of invariants on the ambient Lie algebra write
y**(2*d_i) explicitly.

Every class of every type is one row (label, size, a, b) of _class_rows,
with det(1 - t w) = prod (1 - t**a) / prod (1 - t**b), so each graded
character is one q-quotient.  In the classical families the rows come from
closed-form cycle-type combinatorics.  For D_n the classes are grouped by
their ambient hyperoctahedral cycle type (some of those sets split into two
true conjugacy classes, but det(1 - t w) and the class sums used here are
constant on each set, which is all that any formula in this package
consumes).  The exceptional groups are enumerated as permutations of their
roots, each element a bytes string of root indices composed by
bytes.translate (so at most 256 roots; E6 has 72), built as distinct coset
products over descending orbit walks, and split into true conjugacy
classes; w has finite order, so det(1 - t w) is a product of factors
(1 - t**k)**e_k, and the e_k come from the traces of w**j for j up to
ord(w).  Only the returned class list groups the true classes by
(a, b), which may merge some (e.g. both reflection classes of G2) without
affecting any sum.

weyl_type validates a degree table up to order 1200 by counting, with no
element list: enumeration_counts multiplies the sizes of descending orbit
walks and halves the root closure.  The counts verify suite counts the
larger tables up to E6.  Every group evaluates its graded characters f_c
at q = B = 2**(8 * width) (Kronecker substitution), as
laurent.q_quotient_coefficients divides every q-quotient: F_c = f_c(B) is
one exact integer division of prod (1 - B**d) prod (1 - B**b) by
prod (1 - B**a), each product a laurent._at_base, and is decoded once, by
laurent._signed_digits, into the coefficients of f_c.  The width
(laurent._digit_bytes) holds the bounds under which that argument makes
the division exact in q (see _class_characters), and nothing more; unlike
q_quotient_coefficients, a group keeps one width for all its classes, so
that the F_c can be summed, and keeps each distinct f_c once, with the
summed size of the classes that share it.  Every class average is then one
kernel, _class_averages: a row of weights on the distinct f_c is one
big-int sum of their F_c, decoded by _signed_digits and checked for its
digit sum, integrality and sign.  A fake degree is one row,
sum_c size_c chi(c) F_c, and row i of the flag series, computed once per
group, is sum_c (size_c f_c[i]) F_c.  Each call bounds the digits of its
rows, and one that needs wider digits than the group's re-packs the
characters with laurent._packed: the flag series of B7 and of D8 do, once
per process.  Only the flag series' rows i <= N/2 are summed, and row
N - i is row i reversed.  That is exact: each f_c is a quotient of factors
(1 - q**k) of degree N (checked), so q**N f_c(1/q) = +-f_c(q), and class
data that passes that check, right or wrong, gives a symmetric sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from operator import mul
from typing import Iterator, Mapping

from .laurent import BiLaurentPoly, LaurentPoly, _at_base, _digit_bytes, _packed, _signed_digits
from .laurent import q_quotient
from .partitions import Partition, _check_partition, partitions_of

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


@lru_cache(maxsize=None)
def _root_system(family: str, rank: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
    """(roots, gens), once per type (B_n and C_n apart), as tuples that no
    caller can alter: the roots, in the simple-root basis, are the closure
    of the simple roots under the simple reflections, found breadth first,
    and gens[j][k] is the index of s_j roots[k]."""
    cartan = _cartan_matrix(family, rank)
    # s_j changes coordinate j only, by the nonzero entries of Cartan column j
    columns = [[(i, row[j]) for i, row in enumerate(cartan) if row[j]] for j in range(rank)]
    roots = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    index = {r: k for k, r in enumerate(roots)}
    gens: list[list[int]] = [[] for _ in range(rank)]
    for v in roots:  # the list grows while it is read
        for j, images in enumerate(gens):
            w = v[:j] + (v[j] - sum(v[i] * c for i, c in columns[j]),) + v[j + 1 :]
            images.append(index.setdefault(w, len(roots)))
            if images[-1] == len(roots):
                roots.append(w)
    return tuple(roots), tuple(map(tuple, gens))


def _descending_walk(family: str, rank: int, k: int) -> list[tuple[int, int]]:
    """The W_J-orbit of the weight w_k, J = {0..k}, one step (parent, j) per
    point after w_k: point i + 1 is s_j (point parent), on weight coordinates
    lam - lam_j * (row j of the Cartan matrix).  It steps down only, where
    lam_j > 0; every point lies on such a path from the dominant w_k."""
    cartan = _cartan_matrix(family, rank)
    orbit = [tuple(int(i == k) for i in range(rank))]
    seen, steps = {orbit[0]}, []
    for parent, lam in enumerate(orbit):  # the list grows while it is read
        for j in (j for j in range(k + 1) if lam[j] > 0):
            if (mu := tuple(a - lam[j] * c for a, c in zip(lam, cartan[j]))) not in seen:
                seen.add(mu)
                orbit.append(mu)
                steps.append((parent, j))
    return steps


def _conjugacy_classes(family: str, rank: int) -> tuple[tuple[tuple, tuple, int], ...]:
    """The true conjugacy classes of W, each as (a, b, size) with
    det(1 - t w) = prod (1 - t**a) / prod (1 - t**b).

    The simple reflections of _root_system permute root indices, so a group
    element is a bytes string (w[k] the index of w applied to roots[k]), of
    at most 256 roots, and composition is bytes.translate, done in C:
    w.translate(s + pad) is s w and s.translate(w + pad) is w s, with pad
    filling the table to 256 bytes.  W is built as coset products
    W_(0..k) = X_k W_(0..k-1) (see enumeration_counts), where X_k holds
    x = s_j x_parent for each step of _descending_walk, one translate per
    element x u; the products must be distinct and number prod d_i.  The
    classes are the closures under w -> s_j w s_j; only each class
    representative's powers are traced.  Not memoised: its one caller,
    _class_rows, runs under the memo of _class_characters."""
    roots, gens = _root_system(family, rank)
    name = family if family in EXCEPTIONAL_DEGREES else f"{family}{rank}"  # as WeylType prints it
    if len(roots) > 256:
        raise ValueError(f"{name} has {len(roots)} roots; enumeration takes at most 256")
    pad = bytes(range(len(roots), 256))
    reflections = [(bytes(g), bytes(g) + pad) for g in gens]
    identity = bytes(range(len(roots)))
    elements = [identity]
    for k in range(rank):
        reps = [identity]  # X_k
        for parent, j in _descending_walk(family, rank, k):
            reps.append(reps[parent].translate(reflections[j][1]))
        elements = [u.translate(x + pad) for x in reps for u in elements]  # x u
    unclassed, degrees = set(elements), _degrees(family, rank)
    counts = len(elements), len(unclassed), len(roots)
    if counts != (prod(degrees), prod(degrees), 2 * sum(d - 1 for d in degrees)):
        raise AssertionError(
            f"{name}: enumeration found {len(elements)} elements "
            f"({len(unclassed)} distinct) and {len(roots)} roots, against the degrees {degrees}"
        )
    classes = []
    for rep in elements:
        if rep not in unclassed:
            continue
        unclassed.remove(rep)
        orbit = [rep]
        for w in orbit:
            right = w + pad
            for s, left in reflections:
                if (c := s.translate(right).translate(left)) in unclassed:  # s w s
                    unclassed.remove(c)
                    orbit.append(c)
        power, step, traces = rep, rep + pad, []
        while True:  # tr(w**j) = sum_i coordinate i of w**j(a_i), j = 1..ord(w)
            traces.append(sum(roots[power[i]][i] for i in range(rank)))
            if power == identity:
                break
            power = power.translate(step)  # power w
        classes.append((*_cyclotomic_exponents(traces, rank), len(orbit)))
    return tuple(classes)


def _cyclotomic_exponents(traces: list[int], rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a, b) with det(1 - t w) = prod (1 - t**a) / prod (1 - t**b) for w of
    finite order in GL_rank(Z), from traces[j - 1] = tr(w**j), j = 1..ord(w).

    The characteristic polynomial of w is a product of cyclotomic factors
    (Carter, Conjugacy classes in the Weyl group, 1972), so
    det(1 - t w) = prod_k (1 - t**k)**e_k and tr(w**j) = sum_(k | j) k e_k:
    k e_k = tr(w**k) - sum_(d | k, d < k) d e_d, a division that must be
    exact, and the degree sum_k k e_k must be the rank."""
    e = [0]  # e[k]; the 0 pads k = 0
    for k, trace in enumerate(traces, 1):
        e_k, remainder = divmod(trace - sum(d * e[d] for d in range(1, k) if k % d == 0), k)
        if remainder:
            raise AssertionError(f"traces {traces}: {k} e_{k} is not divisible by {k}")
        e.append(e_k)
    if sum(k * e_k for k, e_k in enumerate(e)) != rank:
        raise AssertionError(f"traces {traces}: exponents {e[1:]} do not sum to the rank {rank}")
    a = tuple(k for k, e_k in enumerate(e) for _ in range(e_k))
    return a, tuple(k for k, e_k in enumerate(e) for _ in range(-e_k))


def enumeration_counts(wt: WeylType) -> tuple[int, int]:
    """(number of elements, number of reflections) from the Cartan matrix,
    with no element list.  For J = {0..k} the stabilizer in W_J of the
    fundamental weight w_k is W_(J - k) (Humphreys, Reflection Groups and
    Coxeter Groups, 1.12), so |W| is the product over k of the orbit sizes
    |W_J w_k|, each 1 + the steps of _descending_walk; the reflections are
    the positive roots, half the root closure.

    Validates the degree table: the counts must equal prod(d_i) and
    sum(d_i - 1).  Groups larger than E6 are refused."""
    _group(wt)  # TypeError unless wt is a WeylType
    if wt.order > _ENUMERATED_ORDER:
        raise ValueError(
            f"counting {wt} ({wt.order} elements) is refused above the {_ENUMERATED_ORDER} of E6"
        )
    order = prod(1 + len(_descending_walk(wt.family, wt.rank, k)) for k in range(wt.rank))
    return order, len(_root_system(wt.family, wt.rank)[0]) // 2


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


def _class_rows(family: str, rank: int) -> Iterator[tuple[str, int, tuple, tuple]]:
    """(label, size, a, b) for every class of a supported type, where
    det(1 - t w) = prod (1 - t**a) / prod (1 - t**b).  Types A-D read the
    rows off cycle types; in G2, F4 and E6 the true classes of
    _conjugacy_classes that share (a, b) make one row, labelled by
    det(1 - t w) and ordered by its terms."""
    if family in EXCEPTIONAL_DEGREES:
        groups: Counter[tuple[tuple, tuple]] = Counter()
        for a, b, size in _conjugacy_classes(family, rank):
            groups[a, b] += size
        factors = {ab: q_quotient(*ab, "t") for ab in groups}
        for ab in sorted(groups, key=lambda ab: sorted(factors[ab].terms.items())):
            yield str(factors[ab]), groups[ab], *ab
        return
    if family == "A":
        n = rank + 1
        for mu in partitions_of(n):
            # the permutation representation minus its trivial summand
            yield _csv(mu.parts), factorial(n) // _zvalue(mu), mu.parts, (1,)
        return
    hyperoctahedral_order = 2**rank * factorial(rank)
    # (mu, 2**len(mu) z_mu) for each mu of size m <= rank: each z once per group
    centralizers = [
        [(mu, 2 ** len(mu) * _zvalue(mu)) for mu in partitions_of(m)] for m in range(rank + 1)
    ]
    for k in range(rank, -1, -1):
        for alpha, z_alpha in centralizers[k]:
            for beta, z_beta in centralizers[rank - k]:
                if family == "D" and len(beta) % 2 != 0:
                    continue
                # prod (1 - t**a) * prod (1 + t**b); 1 + t**b = (1 - t**2b) / (1 - t**b)
                label = f"{_csv(alpha.parts)}|{_csv(beta.parts)}"
                doubled = tuple(2 * b for b in beta.parts)
                size = hyperoctahedral_order // (z_alpha * z_beta)
                yield label, size, alpha.parts + doubled, beta.parts


@lru_cache(maxsize=None)
def _class_characters(family: str, rank: int) -> tuple:
    """(width, classes, fs, packs, heights, at_one, sizes), once per group
    (see _group).  Each distinct graded character f_k of the coinvariant
    algebra is kept once, at index k of the parallel tuples: fs its
    coefficients, packs F_k = f_k(B), heights max|f_k|, at_one f_k(1) and
    sizes the total size of the classes that share it.  classes maps each
    label of _class_rows, in their order, to (k, class size).  The graded
    character f_c(q) = prod_i (1 - q**d_i) / det(1 - q w) at c is one exact
    big-int division at q = B = 2**(8 * width), decoded once; F_c is the
    quotient itself, so no class is packed twice.  The tuples are immutable
    and the label map is only read, so no caller alters the cache."""
    wt = weyl_type(family, rank)
    npos, order = wt.num_positive_roots, wt.order
    rows = list(_class_rows(family, rank))
    # A digit holds |W| 2**len(a) and 2**(rank + len(b)), the bounds of the
    # division below.  The class averages check their own bounds and re-pack
    # at a wider digit when they need more.
    bound = max(max(order << len(a), 1 << (rank + len(b))) for _, _, a, b in rows)
    width = _digit_bytes(bound)
    bits = 8 * width
    classes, merged = {}, {}  # label: (k, size); f_k: [k, F_k, max|f_k|, summed size]
    for label, size, a, b in rows:
        packed, remainder = divmod(_at_base((*wt.degrees, *b), bits), _at_base(a, bits))
        # Exact at B is exact in q by the argument of
        # laurent.q_quotient_coefficients: |f_c[i]| <= |W| (checked below,
        # as a trace is at most the dimension) and the width holds the two
        # bounds above.
        if remainder:
            raise AssertionError(f"det(1 - q w) of class {label} does not divide prod (1 - q^d)")
        try:
            f = tuple(_signed_digits(packed, width, npos + 1))
        except AssertionError:
            f = ()
        if f and f[0] != 1:
            raise AssertionError(f"graded character of class {label} has constant term {f[0]}")
        if not f or not f[-1]:
            raise AssertionError(f"graded character of class {label} is not of degree {npos}")
        if (height := max(map(abs, f))) > order:
            raise AssertionError(f"graded character of class {label} has a coefficient above |W|")
        entry = merged.setdefault(f, [len(merged), packed, height, 0])
        entry[3] += size
        classes[label] = entry[0], size
    _, packs, heights, sizes = zip(*merged.values())
    fs = tuple(merged)
    return width, classes, fs, packs, heights, tuple(map(sum, fs)), sizes


def _class_averages(wt: WeylType, table: tuple, rows: list[list[int]]) -> list[list[int]]:
    """(1/|W|) sum_k row[k] f_k, as N + 1 coefficients, for each row of
    weights on the distinct characters f_k of table (_class_characters of
    wt's group): one packed sum sum_k row[k] F_k, decoded once.  Its digits
    are at most sum_k |row[k]| max|f_k|, and rows that need wider digits
    than the group's re-pack the characters, uncached, once per call, with
    laurent._packed.  A decoded sum must total sum_k row[k] f_k(1), or a
    digit wrapped (AssertionError).  It must then clear |W| exactly and
    land on nonnegative integers; anything else means the weights are not
    those of a character (ValueError)."""
    width, _, fs, packs, heights, at_one, _ = table
    bound = max(sum(map(mul, map(abs, row), heights)) for row in rows)
    if (wide := _digit_bytes(bound)) > width:
        width, packs = wide, [_packed(f, wide) for f in fs]
    count, order, averages = wt.num_positive_roots + 1, wt.order, []
    for row in rows:
        digits = _signed_digits(sum(map(mul, row, packs)), width, count)
        if sum(digits) != sum(map(mul, row, at_one)):
            raise AssertionError("packed class sum wrapped a digit")
        if any(map(order.__rmod__, digits)):
            raise ValueError("class average is not integral: input is not a character")
        averages.append(list(map(order.__rfloordiv__, digits)))
        if min(averages[-1]) < 0:
            raise ValueError("class average has negative multiplicities: input is not a character")
    return averages


def _group(wt: WeylType) -> tuple[str, int]:
    """The cache key of wt: B_n and C_n share one group and its caches."""
    if not isinstance(wt, WeylType):
        raise TypeError(f"expected a WeylType (see weyl_type), not {type(wt).__name__}")
    return "B" if wt.family == "C" else wt.family, wt.rank


# ---------------------------------------------------------------------------
# Symmetric-group characters (Murnaghan-Nakayama) and fake degrees.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mn_beads(beads: int, mu_parts: tuple[int, ...]) -> int:
    """chi^lam(mu) on the bead mask of lam: bit p is set for each
    beta-number lam_i + l - 1 - i.  Removing a k-border strip moves a set
    bead p + k to a clear p, with sign (-1)**(beads strictly between); the
    movable p are the set bits of beads >> k & ~beads, and only they are
    visited.  The trailing set bits, zero parts, are shifted off."""
    if not mu_parts:
        return 1
    k, rest = mu_parts[0], mu_parts[1:]
    total = 0
    between = (1 << (k - 1)) - 1
    movable = beads >> k & ~beads
    while movable:
        low = movable & -movable
        movable ^= low
        moved = beads ^ low ^ low << k
        value = _mn_beads(moved >> (moved ^ (moved + 1)).bit_length() - 1, rest)
        total += -value if (beads >> low.bit_length() & between).bit_count() & 1 else value
    return total


def _beads(parts: tuple[int, ...]) -> int:
    return sum(1 << (p + len(parts) - 1 - i) for i, p in enumerate(parts))


@lru_cache(maxsize=None)
def _cycle_types(n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    return tuple((_csv(mu.parts), mu.parts) for mu in partitions_of(n))


def sn_character_values(lam: Partition) -> dict[str, int]:
    """chi^lam on every class of S_n, keyed by the class labels of
    _class_rows for type A (the cycle types, as "3,1,1")."""
    _check_partition(lam, "sn_character_values")
    beads = _beads(lam.parts)
    return {label: _mn_beads(beads, parts) for label, parts in _cycle_types(lam.size)}


def fake_degree_molien(
    wt: WeylType, character_values: Mapping[str, int]
) -> LaurentPoly:
    """Graded multiplicity of the character in the coinvariant algebra, by
    class averaging:  (1/|W|) sum_c size_c * chi(c) * f_c(q), one row of
    _class_averages, whose weight on each distinct f_c sums size_c chi(c)
    over the classes that share it.

    The average must clear |W| exactly and land on nonnegative integers;
    anything else means the supplied values are not a character."""
    group = _group(wt)
    if not isinstance(character_values, Mapping):
        kind = type(character_values).__name__
        raise TypeError(f"character values must be a Mapping of class labels, not {kind}")
    table = _class_characters(*group)
    classes = table[1]
    missing = [label for label in classes if label not in character_values]
    if missing:
        raise ValueError(f"character values missing for classes: {missing}")
    # in mapping order: keys of mixed types do not sort
    unknown = [key for key in character_values if key not in classes]
    if unknown:
        raise ValueError(f"character values given for no class of {wt}: {unknown}")
    weights = [0] * len(table[2])  # sum of size_c * chi(c) per character
    for label, (k, size) in classes.items():
        chi = character_values[label]
        if type(chi) is not int:  # bool is not a character value
            raise TypeError(
                f"character value of class {label} must be an int, not {type(chi).__name__}"
            )
        weights[k] += size * chi
    average = _class_averages(wt, table, [weights])[0]
    return LaurentPoly._from_clean({e: c for e, c in enumerate(average) if c}, "q")


def pn_series_molien(wt: WeylType) -> BiLaurentPoly:
    """Bigraded flag-variety series by class averaging, with no character
    table:

        x**2N * y**-2N * (1/|W|) * sum_c size_c * f_c(x**-2) * f_c(y**2).

    Agrees with the per-irreducible sum of Kostka-polynomial products
    because sum_chi FD_chi(a) FD_chi(b) class-averages f(a) f(b) for real
    characters.  Computed once per group (B_n and C_n are one), from packed
    rows of which only half are summed (see the module docstring), and
    shared by every call: a BiLaurentPoly is immutable."""
    return _flag_series(*_group(wt))


@lru_cache(maxsize=None)
def _flag_series(family: str, rank: int) -> BiLaurentPoly:
    """pn_series_molien of one group:
    x**(2N - 2i) y**(2j - 2N) has |W| M[i][j] = sum_c size_c f_c[i] f_c[j].
    Row i, for i <= N/2 (row N - i is row i reversed; see the module
    docstring), is one row of _class_averages, weighted size_k f_k[i] on
    the distinct characters of _class_characters.  The class data is the
    package's own, so a row that is not integral and nonnegative is a fault
    (AssertionError)."""
    wt = weyl_type(family, rank)
    npos = wt.num_positive_roots
    table = _class_characters(family, rank)
    _, _, fs, _, _, _, sizes = table
    weights = [[size * f[i] for size, f in zip(sizes, fs)] for i in range(npos // 2 + 1)]
    try:
        rows = _class_averages(wt, table, weights)
    except ValueError as exc:
        raise AssertionError(f"flag series of {wt}: {exc}") from exc
    rows += [row[::-1] for row in reversed(rows[: (npos + 1) // 2])]
    ys = range(-2 * npos, 1, 2)
    return BiLaurentPoly._from_clean(
        {(2 * (npos - i), y): v for i, row in enumerate(rows) for y, v in zip(ys, row) if v}
    )
