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
from typing import NamedTuple

from .kostka import _kostka_column, kostka_foulkes, kostka_from_fake_degree
from .laurent import BiLaurentPoly, LaurentPoly, TruncatedSeries, divide_one_minus
from .partitions import Partition, partitions_of


class BigradedSeries:
    """A bivariate Hilbert series: x tracks homological degree, y weight.
    Two series are equal when their polynomials are."""

    def __init__(self, poly: BiLaurentPoly, x_meaning="homological degree", y_meaning="weight"):
        self.poly, self.x_meaning, self.y_meaning = poly, x_meaning, y_meaning

    def __eq__(self, other):
        return self.poly == other.poly if type(other) is BigradedSeries else NotImplemented

    def __hash__(self) -> int:
        return hash(self.poly)

    def __repr__(self) -> str:
        return f"BigradedSeries({self.poly!r})"

    def evaluate(self, xvalue, yvalue):
        return self.poly.evaluate(xvalue, yvalue)

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
    n**2 - sum of squared column lengths; always even."""
    n = lam.size
    return n * n - sum(p * p for p in lam.conjugate().parts)


@lru_cache(maxsize=None)
def _kostka_g_parts(lam_parts: tuple[int, ...]) -> LaurentPoly:
    return kostka_from_fake_degree(Partition(lam_parts))


def kostka_g(lam: Partition) -> LaurentPoly:
    """One-variable Kostka polynomial K[lam, (1^n)](t), the Hilbert series
    attached to the irreducible lam in the cohomological-degree convention
    (trivial rep (n) gets t**(n(n-1)/2), sign rep (1^n) gets 1).

    Every series in this module takes it from the closed form, the
    degree-reversed q-hook fake degree (kostka_from_fake_degree), memoised
    by parts.  The charge enumeration kostka_foulkes_charge(lam, (1^n)) is
    the independent route that the verify suites and tests compare it with."""
    return _kostka_g_parts(lam.parts)


def pn_series(n: int) -> BigradedSeries:
    """Bigraded series of the nilpotent cone of sl_n:
    sum over partitions lam of n of K[lam](x**2) * K[lam](y**-2)."""
    if n < 1:
        raise ValueError("the nilpotent-cone series needs n >= 1")
    return BigradedSeries(
        BiLaurentPoly.sum_of_products(
            (1, k.substitute_power(2), k.substitute_power(-2))
            for k in map(kostka_g, partitions_of(n))
        )
    )


def hp0_slice_series(phi: Partition) -> LaurentPoly:
    """Hilbert series of the zeroth Poisson homology of the centrally
    reduced W-algebra slice at Jordan type phi:

        y**dim(O_phi) * K[phi](y**-2).

    Constant term 1; value at 1 is the number of standard tableaux of
    shape phi."""
    return (
        kostka_g(phi).substitute_power(-2).shift(orbit_dim(phi)).with_var("y")
    )


def hp0_walg_full_series(phi: Partition, truncation: int) -> TruncatedSeries:
    """Hilbert series of the zeroth Poisson homology of the full (non
    centrally reduced) W-algebra at phi, truncated:

        hp0_slice_series(phi) * prod_i (1 - y**(2 d_i))**-1,

    with d_i = 2, ..., n the degrees for sl_n.  The filtered quantization
    has the same series.  Every exponent is even (dim O_phi and 2 d_i are),
    so the division runs in u = y**2, by 1 - u**d_i, on the even
    coefficients."""
    series = TruncatedSeries.from_poly(hp0_slice_series(phi), truncation)
    coeffs = series.coefficients
    coeffs[::2] = divide_one_minus(coeffs[::2], range(2, phi.size + 1))
    return series


def ih_orbit_closure(lam: Partition) -> LaurentPoly:
    """Intersection-cohomology Poincare polynomial of the closure of the
    orbit with Jordan type lam:  x**dim(O_lam) * K[lam](x**-2)."""
    return (
        kostka_g(lam).substitute_power(-2).shift(orbit_dim(lam)).with_var("x")
    )


def ih_s3_variety(nu: Partition, phi: Partition) -> LaurentPoly:
    """Intersection-cohomology series of the slice of the closed orbit of
    type nu transverse at type phi:

        x**(dim O_nu - dim O_phi) * K[nu, phi](x**-2).

    Empty (zero polynomial, with a warning) unless nu dominates phi."""
    if nu.size != phi.size:
        raise ValueError(f"need partitions of one n: |{nu}| != |{phi}|")
    if not nu.dominates(phi):
        warnings.warn(
            f"slice of orbit closure {nu} at {phi} is empty "
            f"({nu} does not dominate {phi}); returning 0"
        )
        return LaurentPoly.zero("x")
    return (
        kostka_foulkes(nu, phi)
        .substitute_power(-2)
        .shift(orbit_dim(nu) - orbit_dim(phi))
        .with_var("x")
    )


def springer_fiber_series(phi: Partition) -> BigradedSeries:
    """Bigraded series of the slice of the nilpotent cone at Jordan type
    phi (equivalently, of the cohomology of the Springer fiber over phi):

        y**dim(O_phi) * sum over nu >= phi of K[nu,phi](x**2) * K[nu](y**-2).

    At phi = (1^n) this is the whole nilpotent cone, at phi = (n) a point.
    The nu are the keys of the memoised column of phi, which holds exactly
    the nonzero K[nu,phi], and y**dim(O_phi) goes into each y factor."""
    d = orbit_dim(phi)
    return BigradedSeries(
        BiLaurentPoly.sum_of_products(
            (
                1,
                k.substitute_power(2),
                LaurentPoly({d - 2 * e: c for e, c in _kostka_g_parts(nu).terms.items()}),
            )
            for nu, k in _kostka_column(phi.parts).items()
        )
    )


def slice_series_typeA_printed(mu: Partition) -> BigradedSeries:
    """The slice series in its alternative printed normalization, with
    prefactor y**(2 n_stat(mu)) in place of y**dim(O_mu).  One nu-sum
    serves both normalizations: this is springer_fiber_series shifted in
    y."""
    return BigradedSeries(
        springer_fiber_series(mu).poly.shift(0, 2 * mu.n_stat() - orbit_dim(mu))
    )


def proudfoot_check(lam: Partition) -> ProudfootReport:
    """Symplectic-duality check: the Poisson-homology series of the slice
    at lam must equal the intersection-cohomology series of the closed
    orbit of the transposed Jordan type."""
    hp0 = hp0_slice_series(lam)
    ih = ih_orbit_closure(lam.conjugate())
    return ProudfootReport(
        jordan_type=lam, hp0_series=hp0, ih_dual_series=ih, equal=hp0 == ih
    )
