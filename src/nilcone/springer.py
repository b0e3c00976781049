"""The sl_n dictionary between partitions, nilpotent orbits and Weyl-group
irreducibles, and the bigraded Hilbert series it produces: the flag-variety
series, zeroth Poisson homology of W-algebra slices, intersection-cohomology
series of orbit closures, and Springer-fiber series.

Dictionary convention (pinned): the partition lam labels both the
irreducible of S_n and the orbit of Jordan type lam, with the trivial
representation at lam = (n) matching the regular orbit (its one-variable
series is t**(n(n-1)/2)) and the sign representation at lam = (1^n)
matching the zero orbit (series 1).  The inverse convention is rejected: it
breaks the degree bookkeeping of the slice/orbit duality check.

Closure order on orbits is dominance order on Jordan types.  Degenerate
inputs (n = 0 or 1) yield the constant series 1 everywhere, the geometry of
a point.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from math import comb, factorial, isqrt
from typing import Iterable, NamedTuple

from .kostka import _kostka_column, kostka_foulkes, kostka_from_fake_degree
from .laurent import (
    BiLaurentPoly,
    ExactDivisionError,
    LaurentPoly,
    TruncatedSeries,
    _at_base,
    _check_order,
    _digit_bytes,
    _digit_offset,
    _packed,
    _packed_rows,
    _signed_digits,
    divide_one_minus,
)
from .partitions import Partition, Shape, _check_partition, partitions_of


class BigradedSeries:
    """A bivariate Hilbert series: x tracks homological degree, y weight.
    Two series are equal when their polynomials are."""

    def __init__(self, poly: BiLaurentPoly):
        self.poly = poly

    def __eq__(self, other):
        return self.poly == other.poly if type(other) is BigradedSeries else NotImplemented

    def __hash__(self) -> int:
        return hash(self.poly)

    def __repr__(self) -> str:
        return f"BigradedSeries({self.poly!r})"

    def __str__(self) -> str:
        return str(self.poly)


class ProudfootReport(NamedTuple):
    """Both sides of the slice/orbit-closure duality check for one Jordan
    type: zeroth Poisson homology of the slice at lam versus intersection
    cohomology of the closed orbit of the transposed type."""

    jordan_type: Partition
    hp0_series: LaurentPoly
    ih_dual_series: LaurentPoly
    equal: bool


def orbit_dim(lam: Partition) -> int:
    """Dimension of the nilpotent orbit with Jordan type lam in sl_n:
    n**2 - sum of squared column lengths, which is n(n - 1) - 2 n(lam)
    because the squared column lengths sum to n + 2 n(lam); always even."""
    _check_partition(lam, "orbit_dim")
    n = lam.size
    return n * (n - 1) - 2 * lam.n_stat()


@lru_cache(maxsize=None)
def _fake_degree(nu: Shape) -> tuple[LaurentPoly, int, int]:
    """(K[nu], FD_nu(1), max |FD_nu|): the degree-reversed q-hook fake
    degree K[nu] = kostka_from_fake_degree(nu), whose coefficients are
    those of FD_nu, with their sum f^nu and the largest of them."""
    k = kostka_from_fake_degree(Partition(nu))
    coeffs = k.terms.values()
    return k, sum(coeffs), max(map(abs, coeffs))


@lru_cache(maxsize=None)
def _fake_degree_packed(nu: Shape, width: int) -> int:
    """FD_nu(2**(8 * width)): the fake degree FD_nu(q) = q**N K[nu](1/q),
    N = n(n - 1)/2, packed with its q**k coefficient as digit k of width
    bytes."""
    top, bits = comb(sum(nu), 2), 8 * width
    return sum(c << bits * (top - e) for e, c in _fake_degree(nu)[0].terms.items())


def _fiber_series(n: int, low: int, column: Iterable[tuple[Shape, LaurentPoly]]) -> BigradedSeries:
    """y**(-2 low) * sum of K(x**2) * FD_nu(y**2) over the (nu, K) of
    column, nu partitions of n: the series of a Springer fiber, with
    K = K[nu, phi] and low = n(phi).

    Every y-factor is a fake degree of degree at most N = n(n - 1)/2, so
    the y-exponents lie on the fixed lattice -2 low + 2k, k = 0..N, and
    each x-exponent sums one packed row of memoised FD_nu(2**(8 * width))
    (_fake_degree_packed).  A coefficient is at most
    sum_nu max|K| * max|FD_nu| in absolute value, and a digit holds one
    sign bit more than that bound (_digit_bytes).  _packed_rows decodes
    the rows, and checks each against its value at y = 1,
    sum_nu K * FD_nu(1)."""
    column = [(nu, k.terms, *_fake_degree(nu)[1:]) for nu, k in column]
    width = _digit_bytes(sum(max(map(abs, k.values())) * top for _, k, _, top in column))
    rows: dict[int, int] = {}
    sums: dict[int, int] = {}
    for nu, k, at_one, _ in column:
        packed = _fake_degree_packed(nu, width)
        for e, c in k.items():
            rows[2 * e] = rows.get(2 * e, 0) + c * packed
            sums[2 * e] = sums.get(2 * e, 0) + c * at_one
    return BigradedSeries(_packed_rows(rows, sums, width, -2 * low, 2, comb(n, 2) + 1))


def _reflected(k: LaurentPoly, d: int, var: str) -> LaurentPoly:
    """var**d * k(var**-2), in one term map: hp0 of a slice and IH of an
    orbit closure or of a slice of one."""
    return LaurentPoly._from_clean({d - 2 * e: c for e, c in k.terms.items()}, var)


def kostka_g(lam: Partition) -> LaurentPoly:
    """One-variable Kostka polynomial K[lam, (1^n)](t), the Hilbert series
    attached to the irreducible lam in the cohomological-degree convention
    (trivial rep (n) gets t**(n(n-1)/2), sign rep (1^n) gets 1).

    Every series in this module takes it from the closed form, the
    degree-reversed q-hook fake degree (kostka_from_fake_degree), memoised
    with its sum and largest coefficient (_fake_degree).  The charge
    enumeration kostka_foulkes_charge(lam, (1^n)) is the independent route
    that the verify suites and tests compare it with."""
    _check_partition(lam, "kostka_g")
    return _fake_degree(lam.parts)[0]


def pn_series(n: int) -> BigradedSeries:
    """Bigraded series of the nilpotent cone of sl_n:
    sum over partitions lam of n of K[lam](x**2) * K[lam](y**-2).

    K[lam](y**-2) = y**(-2N) FD_lam(y**2), N = n(n - 1)/2, so this is the
    Springer-fiber sum of phi = (1^n), summed by _fiber_series over the
    kostka_g(lam), whose memo hp0 and IH read too."""
    if type(n) is not int:  # bool is not a size
        raise TypeError(f"pn_series needs an int, not {type(n).__name__}")
    if n < 1:
        raise ValueError("the nilpotent-cone series needs n >= 1")
    return _fiber_series(n, comb(n, 2), ((lam.parts, kostka_g(lam)) for lam in partitions_of(n)))


def hp0_slice_series(phi: Partition) -> LaurentPoly:
    """Hilbert series of the zeroth Poisson homology of the centrally
    reduced W-algebra slice at Jordan type phi:

        y**dim(O_phi) * K[phi](y**-2).

    Constant term 1; value at 1 is the number of standard tableaux of
    shape phi."""
    _check_partition(phi, "hp0_slice_series")
    return _reflected(_fake_degree(phi.parts)[0], orbit_dim(phi), "y")


@lru_cache(maxsize=16)
def _degree_series(n: int, count: int) -> tuple[int, int]:
    """(width, P_n(B)), B = 2**(8 * width): the degree series
    P_n(u) = 1 / prod_{d=2..n} (1 - u**d) to count coefficients, packed
    by laurent._packed with the coefficient of u**k as digit k.
    1 / (1 - u**n) is 1 at the multiples of n, and the prefix sums of
    divide_one_minus divide that by the other degrees, the largest first.
    The width holds isqrt(n!) * max P, which bounds every coefficient of
    N_phi * P for every phi of n (hp0_walg_full_series)."""
    coeffs = [1] + [0] * (count - 1)
    if n >= 2:
        coeffs[::n] = [1] * len(range(0, count, n))
    coeffs = divide_one_minus(coeffs, range(n - 1, 1, -1))
    width = _digit_bytes(isqrt(factorial(n)) * max(coeffs))
    return width, _packed(coeffs, width)


def hp0_walg_full_series(phi: Partition, truncation: int) -> TruncatedSeries:
    """Hilbert series of the zeroth Poisson homology of the full (non
    centrally reduced) W-algebra at phi, truncated:

        hp0_slice_series(phi) * prod_i (1 - y**(2 d_i))**-1,

    with d_i = 2, ..., n the degrees for sl_n.  The filtered quantization
    has the same series.  In u = y**2 it is W = N_phi * P_n, where

        N_phi = prod_{d=2..n} (1 - u**d) / prod_h (1 - u**h),

    h over the hooks of phi less one h = 1, and P_n = 1 / prod_{d=2..n}
    (1 - u**d) is the same for every phi of n.  Derivation:
    hp0_slice_series(phi) is y**(-2 n(phi)) FD_phi(y**2), and the q-hook
    formula (Macdonald, Symmetric Functions, I.5) makes that prod_{k=1..n}
    (1 - u**k) / prod_h (1 - u**h) over all the hooks; 1 - u cancels the
    hook of one corner cell.  So N_phi = u**(-n(phi)) FD_phi(u), a
    polynomial with nonnegative coefficients summing to f^phi.

    One product at u = B = 2**(8 * width): N_phi(B) is the quotient of the
    two _at_base products, taken from the hooks (not from the q-hook
    coefficients, which the walg suite compares against), and its remainder
    must be zero.  P_n(B) is memoised by n and count, the power of two at
    or above the half = truncation // 2 + 1 coefficients needed
    (_degree_series), so nearby truncations share it.  Every coefficient
    of N_phi * (P_n mod u**half) is at most f^phi max P_n, and f^phi <=
    isqrt(n!) because the (f^lam)**2 sum to n!, so the memo's width holds
    every digit with its sign bit: no digit carries, and the product's
    digits are its coefficients.  Reduction mod B**half is a ring map from
    Z[u]/(u**half), so the product of the two residues, reduced, is
    W mod u**half.  A digit with its sign bit set, the mark of a wrapped
    one, raises AssertionError; _signed_digits decodes the rest."""
    _check_partition(phi, "hp0_walg_full_series")
    _check_order(truncation)
    n, half = phi.size, truncation // 2 + 1
    width, degrees = _degree_series(n, 1 << (half - 1).bit_length())
    bits = 8 * width
    hooks = sorted(phi.hooks(), reverse=True)[:-1]  # the last is a corner's 1
    numerator, remainder = divmod(_at_base(range(2, n + 1), bits), _at_base(hooks, bits))
    if remainder:
        raise ExactDivisionError(f"the hooks of {phi} do not divide prod (1 - u^d), d = 2..{n}")
    mask = (1 << bits * half) - 1
    product = numerator * (degrees & mask) & mask
    if product & _digit_offset(width, half):  # a digit's sign bit
        raise AssertionError(f"walg's packed product for {phi} wrapped a digit")
    digits = _signed_digits(product, width, half)
    coeffs = [0] * (truncation + 1)
    coeffs[::2] = digits
    return TruncatedSeries._from_clean(coeffs, "y")


def ih_orbit_closure(lam: Partition) -> LaurentPoly:
    """Intersection-cohomology Poincare polynomial of the closure of the
    orbit with Jordan type lam:  x**dim(O_lam) * K[lam](x**-2)."""
    _check_partition(lam, "ih_orbit_closure")
    return _reflected(_fake_degree(lam.parts)[0], orbit_dim(lam), "x")


def ih_s3_variety(nu: Partition, phi: Partition) -> LaurentPoly:
    """Intersection-cohomology series of the slice of the closed orbit of
    type nu transverse at type phi:

        x**(dim O_nu - dim O_phi) * K[nu, phi](x**-2).

    Empty (zero polynomial, with a warning) unless nu dominates phi."""
    for arg in (nu, phi):
        _check_partition(arg, "ih_s3_variety")
    if nu.size != phi.size:
        raise ValueError(f"need partitions of one n: |{nu}| != |{phi}|")
    if not nu.dominates(phi):
        warnings.warn(
            f"slice of orbit closure {nu} at {phi} is empty "
            f"({nu} does not dominate {phi}); returning 0"
        )
        return LaurentPoly.zero("x")
    return _reflected(kostka_foulkes(nu, phi), orbit_dim(nu) - orbit_dim(phi), "x")


def springer_fiber_series(phi: Partition) -> BigradedSeries:
    """Bigraded series of the slice of the nilpotent cone at Jordan type
    phi (equivalently, of the cohomology of the Springer fiber over phi):

        y**dim(O_phi) * sum over nu >= phi of K[nu,phi](x**2) * K[nu](y**-2).

    At phi = (1^n) this is the whole nilpotent cone, at phi = (n) a point.
    With dim(O_phi) = 2N - 2 n(phi) and K[nu](y**-2) = y**(-2N) FD_nu(y**2),
    N = n(n - 1)/2, it is

        y**(-2 n(phi)) * sum over nu >= phi of K[nu,phi](x**2) * FD_nu(y**2),

    summed by _fiber_series over the memoised column of phi, which holds
    exactly the nonzero K[nu,phi]."""
    _check_partition(phi, "springer_fiber_series")
    return _fiber_series(phi.size, phi.n_stat(), _kostka_column(phi.parts).items())


def slice_series_typeA_printed(mu: Partition) -> BigradedSeries:
    """The slice series in its alternative printed normalization, with
    prefactor y**(2 n_stat(mu)) in place of y**dim(O_mu).  One nu-sum
    serves both normalizations: this is springer_fiber_series shifted in
    y."""
    _check_partition(mu, "slice_series_typeA_printed")
    return BigradedSeries(
        springer_fiber_series(mu).poly.shift(0, 2 * mu.n_stat() - orbit_dim(mu))
    )


def proudfoot_check(lam: Partition) -> ProudfootReport:
    """Symplectic-duality check: the Poisson-homology series of the slice
    at lam must equal the intersection-cohomology series of the closed
    orbit of the transposed Jordan type."""
    _check_partition(lam, "proudfoot_check")
    hp0 = hp0_slice_series(lam)
    ih = ih_orbit_closure(lam.conjugate())
    return ProudfootReport(
        jordan_type=lam, hp0_series=hp0, ih_dual_series=ih, equal=hp0 == ih
    )
