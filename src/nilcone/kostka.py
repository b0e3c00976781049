"""Kostka-Foulkes polynomials K[lam,mu](t): a whole-column route that
serves, a charge enumeration that verifies it, and the q-hook fake-degree
formula for the column mu = (1^n).

Which route serves: kostka_foulkes reads K[lam,mu] from the column
Q'_mu = sum_lam K[lam,mu](t) s_lam, built by Jing's Hall-Littlewood
vertex operator (Garsia's raising-operator formula in operator form):
Q'_() = 1 and, for mu = (m, mubar),

    Q'_mu = sum_{j >= 0} t**j B_(m+j) h_j^perp Q'_mubar,

with Bernstein's operator B_s = sum_i (-1)**i h_(s+i) e_i^perp (Jing 1991;
Macdonald, Symmetric Functions, I.3 and I.5 Ex. 29).  Per Schur term
s_lam of Q'_mubar that is one strip removal, lam/kappa, and one
straightening, B_s s_kappa = +-s_nu or 0 (_straighten).  The polynomials
travel packed into ints, one digit of _digit_bytes(n!) bytes per power of
t, and each finished entry is decoded in C by laurent._signed_digits, the
decoder of the packed Springer-fiber rows and Molien class sums.  One
column is memoised per mu; one that breaks dominance, K[mu,mu] = 1,
positivity or the column sum sum_lam f^lam K[lam,mu](1) = n!/prod mu_i!
raises AssertionError, and so does a coefficient that overflowed its digit.

Which route verifies: kostka_foulkes_charge sums t**charge over the
semistandard tableaux of shape lam and content mu; the verify suites and
the tests compare it with the column on every pair.  The tableaux are
chains of horizontal strips (tableaux.ssyt_enumerate) grown by
_add_horizontal, which the column does not read; the tableau tests check
them: every filling semistandard and distinct, and sum_lam f^lam
|SSYT(lam,mu)| = n!/prod mu_i!.  The series consumers of the (1^n) column
take the q-hook closed form (kostka_from_fake_degree).

Charge convention (pinned; recorded in CONVENTION_TAG, which the JSON
output of the command line prints): on a standard word the index of
letter 1 is 0 and the index of r+1 increments exactly when r+1 occurs to
the RIGHT of r; charge is the sum of the indices.  Under this convention
the single-row shape gets K[(n),(1^n)] = q^(n(n-1)/2) and the
single-column shape gets K[(1^n),(1^n)] = 1, i.e. the trivial
representation carries the top power.
The opposite (cocharge) convention is deliberately not offered.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial, prod
from operator import lt
from typing import Sequence

from .laurent import LaurentPoly, _digit_bytes, _signed_digits, q_quotient_coefficients
from .partitions import Partition, Shape, _check_partition, _trim, partitions_of
from .tableaux import ssyt_enumerate

CONVENTION_TAG = "charge-c1=0-right-increment"
_ZERO = LaurentPoly.zero("t")  # every miss of kostka_foulkes, shared: a LaurentPoly is immutable


def _validate_partition_content(word: Sequence[int]) -> int:
    """Check the letter multiplicities form a partition; return the top letter."""
    counts: dict[int, int] = {}
    for v in word:
        if type(v) is not int or v < 1:  # bool is not a letter
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
def _kostka_foulkes_charge_parts(
    lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]
) -> LaurentPoly:
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    terms: dict[int, int] = {}
    for rows in ssyt_enumerate(lam, mu):
        c = charge([v for row in reversed(rows) for v in row])  # bottom row first
        terms[c] = terms.get(c, 0) + 1
    return LaurentPoly._from_clean(terms, "t")  # counts, none zero


def kostka_foulkes_charge(lam: Partition, mu: Partition) -> LaurentPoly:
    """K[lam,mu](t) = sum of t**charge(reading word) over the semistandard
    tableaux of shape lam and content mu; zero when no tableau exists.
    The oracle that kostka_foulkes is checked against."""
    for arg in (lam, mu):
        _check_partition(arg, "kostka_foulkes_charge")
    if lam.size != mu.size:
        raise ValueError(f"Kostka polynomial needs equal sizes: |{lam}| != |{mu}|")
    return _kostka_foulkes_charge_parts(lam.parts, mu.parts)


@lru_cache(maxsize=None)
def _remove_horizontal(shape: Shape) -> tuple[tuple[int, Shape], ...]:
    """(j, kappa) for every kappa with shape/kappa a horizontal j-strip:
    shape[r+1] <= kappa[r] <= shape[r] row by row."""
    floors = shape[1:] + (0,)
    size = sum(shape)
    return tuple(
        (size - sum(kappa), _trim(kappa))
        for kappa in product(*(range(lo, p + 1) for lo, p in zip(floors, shape)))
    )


@lru_cache(maxsize=None)
def _straighten(s: int, kappa: Shape) -> tuple[int, Shape]:
    """(sign, nu) with B_s s_kappa = s_(s,kappa) = sign * s_nu, sign 0 for
    zero: the Jacobi-Trudi determinant of (s, kappa) straightened by moving
    its first entry p = s past each part k with p < k - 1.  The row swap
    (p, k) -> (k - 1, p + 1) flips the sign; p = k - 1 makes two equal rows."""
    sign, head = 1, []
    for r, k in enumerate(kappa):
        if s >= k:
            return sign, (*head, s, *kappa[r:])
        if s == k - 1:
            return 0, ()
        head.append(k - 1)
        s, sign = s + 1, -sign
    return sign, _trim((*head, s))


@lru_cache(maxsize=None)
def _standard_count(shape: Shape) -> int:
    """f^shape, the number of standard tableaux: the sum of f over the
    shapes with one corner cell removed."""
    if not shape:
        return 1
    last = len(shape) - 1
    return sum(
        _standard_count(shape[:r] + (p - 1,) + shape[r + 1 :] if p > 1 else shape[:r])
        for r, p in enumerate(shape)
        if r == last or shape[r + 1] < p
    )


@lru_cache(maxsize=None)
def _kostka_column(mu_parts: Shape) -> dict[Shape, LaurentPoly]:
    """The nonzero K[lam,mu] of one column, keyed by lam.parts, by Jing's
    operator on the column of mubar: each K[lam,mubar] and horizontal
    j-strip lam/kappa add +-t**j K[lam,mubar] into nu, where
    B_(m+j) s_kappa = +-s_nu.

    Each polynomial travels packed into one int, t -> 2**bits (Kronecker
    substitution), so a term costs one shift and one big-int addition.
    t -> 2**bits is a ring map, so the packed sums are exact whatever
    their digits; only the finished K[lam,mu] must fit a digit.  A
    K[lam,mu](1) counts tableaux, at most n!, so the digit is
    _digit_bytes(n!) bytes: 32 bits at n = 10, 64 bits from n = 13.  Each
    entry decodes in C (laurent._signed_digits) into as many digits as its
    packed int spans.

    Tripwires, raised and not asserted so that they survive python -O:
    every entry must dominate mu and have no negative coefficient,
    K[mu,mu] must be 1, and sum_lam f^lam K[lam,mu](1) must be
    n!/prod mu_i!.  A coefficient that overflowed its digit decodes with
    a carry into the next digit.  Unless that leaves a negative digit, it
    lowers the entry's digit sum by a multiple of 2**bits - 1 (carries
    into nonnegative coefficients are nonnegative), so the column sum
    trips."""
    if not mu_parts:
        return {(): LaurentPoly.one("t")}
    m = mu_parts[0]
    n = sum(mu_parts)
    width = _digit_bytes(factorial(n))
    bits = 8 * width
    summed: dict[Shape, int] = {}  # t**j B_(m+j) h_j^perp
    for lam, poly in _kostka_column(mu_parts[1:]).items():
        packed = sum(c << (bits * e) for e, c in poly.terms.items())
        for j, kappa in _remove_horizontal(lam):
            sign, nu = _straighten(m + j, kappa)
            if sign:
                term = packed << (bits * j)
                summed[nu] = summed.get(nu, 0) + (term if sign > 0 else -term)
    mu_sums = tuple(accumulate(mu_parts))
    column: dict[Shape, LaurentPoly] = {}
    total = 0
    for nu, packed in summed.items():
        if not packed:
            continue
        digits = _signed_digits(packed, width, abs(packed).bit_length() // bits + 1)
        if any(map(lt, accumulate(nu), mu_sums)):  # a partial sum of nu below mu's
            raise _column_error(mu_parts, nu, digits, "not dominating")
        if min(digits) < 0:
            raise _column_error(mu_parts, nu, digits, "a negative coefficient")
        column[nu] = LaurentPoly.from_coefficients(digits, "t")
        total += _standard_count(nu) * sum(digits)
    if column.get(mu_parts) != 1:
        mu = Partition(mu_parts)
        raise AssertionError(f"column {mu}: K[{mu},{mu}] = {column.get(mu_parts, 0)}, not 1")
    expected = factorial(n) // prod(map(factorial, mu_parts))
    if total != expected:
        mu = Partition(mu_parts)
        raise AssertionError(f"column {mu}: sum of f^lam K[lam,{mu}](1) is {total}, not {expected}")
    return column


def _column_error(mu_parts: Shape, nu: Shape, digits: list[int], what: str) -> AssertionError:
    mu, lam = Partition(mu_parts), Partition(nu)
    return AssertionError(
        f"column {mu}: K[{lam},{mu}] = {LaurentPoly.from_coefficients(digits, 't')}, {what}"
    )


def kostka_foulkes(lam: Partition, mu: Partition) -> LaurentPoly:
    """K[lam,mu](t), read from the memoised column of mu built by Jing's
    Hall-Littlewood operator in Bernstein's form (module docstring); zero
    unless lam dominates mu.  Equal to kostka_foulkes_charge, the
    tableau-and-charge oracle.

    The column is read first: it holds only keys of size |mu|, so the
    stored sizes are compared only on a miss, which returns one shared zero."""
    try:
        poly = _kostka_column(mu.parts).get(lam.parts)
    except AttributeError:
        for arg in (lam, mu):
            if not isinstance(arg, Partition):
                raise TypeError(
                    f"kostka_foulkes needs Partitions, not {type(arg).__name__}"
                ) from None
        raise
    if poly is not None:
        return poly
    if lam.size != mu.size:
        raise ValueError(f"Kostka polynomial needs equal sizes: |{lam}| != |{mu}|")
    return _ZERO


def _qhook_coefficients(lam: Partition, caller: str) -> list[int]:
    """prod_{k=1..n} (1-q**k) / prod_{cells} (1-q**hook), constant term
    first; exact by theorem, so ExactDivisionError means a bug."""
    _check_partition(lam, caller)
    return q_quotient_coefficients(range(1, lam.size + 1), lam.hooks())


def fake_degree_qhook(lam: Partition) -> LaurentPoly:
    """Graded multiplicity of the irreducible lam in the coinvariant algebra,
    by the q-analog of the hook-length formula:

        q**n_stat(lam) * prod_{k=1..n} (1-q**k) / prod_{cells} (1-q**hook).

    Equals the major-index generating polynomial over standard tableaux of
    shape lam (Stanley, EC2, Prop. 7.19.11); tests/test_kostka.py checks
    that against its own enumeration (test_matches_major_index_route)."""
    coeffs, low = _qhook_coefficients(lam, "fake_degree_qhook"), lam.n_stat()
    return LaurentPoly._from_clean({low + k: c for k, c in enumerate(coeffs) if c}, "q")


def kostka_from_fake_degree(lam: Partition) -> LaurentPoly:
    """K[lam,(1^n)](t) = t**N * FD(1/t), N = n(n-1)/2: the q-hook's q**k
    term at t**(N - n(lam) - k).  The series consumers take this closed
    form (springer.kostka_g); kostka_foulkes_charge(lam, (1^n)) is the
    independent charge route the verify suites compare it with."""
    coeffs = _qhook_coefficients(lam, "kostka_from_fake_degree")
    top = comb(lam.size, 2) - lam.n_stat()
    return LaurentPoly._from_clean({top - k: c for k, c in enumerate(coeffs) if c}, "t")


def compute_kostka_table(n: int) -> dict[tuple[Partition, Partition], LaurentPoly]:
    """Every nonzero K[lam,mu] for lam, mu partitions of n, keyed (lam, mu):
    the memoised columns of kostka_foulkes, which hold exactly those."""
    return {
        (Partition(lam), mu): poly
        for mu in partitions_of(n)
        for lam, poly in _kostka_column(mu.parts).items()
    }
