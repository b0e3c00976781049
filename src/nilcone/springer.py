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
from dataclasses import dataclass, field
from functools import lru_cache

from .kostka import kostka_foulkes, kostka_from_fake_degree
from .laurent import BiLaurentPoly, LaurentPoly, TruncatedSeries, series_invert_product
from .partitions import Partition, partitions_of
from .weyl import weyl_type


@dataclass(frozen=True)
class BigradedSeries:
    """A bivariate Hilbert series: x tracks homological degree, y weight."""

    poly: BiLaurentPoly
    x_meaning: str = field(default="homological degree", compare=False)
    y_meaning: str = field(default="weight", compare=False)

    def evaluate(self, xvalue, yvalue):
        return self.poly.evaluate(xvalue, yvalue)

    def total_dimension(self) -> int:
        value = self.poly.evaluate(1, 1)
        if not isinstance(value, int) or value <= 0:
            raise AssertionError("total dimension must be a positive integer")
        return value

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class ProudfootReport:
    """Both sides of the slice/orbit-closure duality check for one Jordan
    type: zeroth Poisson homology of the slice at lam versus intersection
    cohomology of the closed orbit of the transposed type."""

    jordan_type: Partition
    hp0_series: LaurentPoly
    ih_dual_series: LaurentPoly
    equal: bool


@dataclass(frozen=True)
class PrefactorAudit:
    """Measured discrepancy between the two published prefactor conventions
    for the slice series (y**(2 n_stat) versus y**(dim orbit)).

    The two series always differ by a pure power of y; this records the
    measured exponent next to the two candidate normalizations instead of
    asserting either one.
    """

    mu: Partition
    is_pure_power_of_y: bool
    ratio_y_exponent: int | None
    doubled_n_stat: int
    orbit_dimension: int


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
    by parts.  The charge enumeration kostka_foulkes(lam, (1^n)) is the
    independent route that the verify suites and tests compare it with."""
    return _kostka_g_parts(lam.parts)


def pn_series(n: int) -> BigradedSeries:
    """Bigraded series of the nilpotent cone of sl_n:
    sum over partitions lam of n of K[lam](x**2) * K[lam](y**-2)."""
    if n < 1:
        raise ValueError("the nilpotent-cone series needs n >= 1")
    acc = BiLaurentPoly.zero()
    for lam in partitions_of(n):
        k = kostka_g(lam)
        acc = acc + BiLaurentPoly.from_x(k.substitute_power(2)) * BiLaurentPoly.from_y(
            k.substitute_power(-2)
        )
    return BigradedSeries(acc)


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

    with d_i the degrees for sl_n.  The filtered quantization has the same
    series."""
    if truncation < 0:
        raise ValueError("truncation order must be nonnegative")
    n = phi.size
    degrees = weyl_type("A", n - 1).degrees if n >= 2 else ()
    expansion = series_invert_product([2 * d for d in degrees], truncation)
    return expansion * hp0_slice_series(phi)


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

    At phi = (1^n) this is the whole nilpotent cone, at phi = (n) a point."""
    n = phi.size
    acc = BiLaurentPoly.zero()
    for nu in partitions_of(n):
        if not nu.dominates(phi):
            continue
        acc = acc + BiLaurentPoly.from_x(
            kostka_foulkes(nu, phi).substitute_power(2)
        ) * BiLaurentPoly.from_y(kostka_g(nu).substitute_power(-2))
    return BigradedSeries(acc.shift(0, orbit_dim(phi)))


def slice_series_typeA_printed(mu: Partition) -> BigradedSeries:
    """The slice series in its alternative printed normalization, with
    prefactor y**(2 n_stat(mu)) in place of y**dim(O_mu).  One nu-sum
    serves both normalizations: this is springer_fiber_series shifted in
    y.  prefactor_audit compares the two."""
    return BigradedSeries(
        springer_fiber_series(mu).poly.shift(0, 2 * mu.n_stat() - orbit_dim(mu))
    )


def prefactor_audit(mu: Partition) -> PrefactorAudit:
    """Divide the printed-normalization slice series by the dimension
    normalization and record the resulting power of y (measured, never
    asserted equal to zero: the two prefactors genuinely disagree for some
    mu, e.g. (2,1))."""
    printed = slice_series_typeA_printed(mu).poly
    normative = springer_fiber_series(mu).poly
    ratio = printed.monomial_ratio(normative)
    pure = ratio is not None and ratio[0] == 0
    return PrefactorAudit(
        mu=mu,
        is_pure_power_of_y=pure,
        ratio_y_exponent=ratio[1] if pure else None,
        doubled_n_stat=2 * mu.n_stat(),
        orbit_dimension=orbit_dim(mu),
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
