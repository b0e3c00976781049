"""Identity-verification suites: every named suite re-derives one of the
package's structural identities over a parameter range and reports
pass/fail with a counterexample when something breaks.

These are the same checks the test suite pins at fixed sizes, packaged so
the command line can run them over user-chosen ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .kostka import fake_degree_qhook, kostka_foulkes, kostka_from_fake_degree
from .partitions import Partition, partitions_of
from .springer import (
    kostka_g,
    orbit_dim,
    pn_series,
    prefactor_audit,
    proudfoot_check,
    springer_fiber_series,
)
from .tableaux import ssyt_enumerate, syt_major_index_genfun
from .weyl import (
    enumeration_counts,
    fake_degree_molien,
    pn_series_molien,
    sn_character_values,
    weyl_type,
)


@dataclass
class CheckResult:
    name: str
    params: str
    passed: bool
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  [{self.counterexample}]" if self.counterexample else ""
        return f"[{status}] {self.name}: {self.params}{detail}"


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"overall: {'pass' if self.passed else 'fail'}")
        return out


def _single(name: str, params: str, failures: list[str]) -> CheckResult:
    return CheckResult(
        name=name,
        params=params,
        passed=not failures,
        counterexample="; ".join(failures[:3]) if failures else None,
    )


def suite_counts(max_n: int = 8) -> list[CheckResult]:
    """Total dimension of the bigraded flag series is |W|."""
    failures = []
    for n in range(1, max_n + 1):
        if pn_series(n).evaluate(1, 1) != factorial(n):
            failures.append(f"n={n}")
    out = [_single("counts: pn(1,1) = n!", f"n <= {max_n}", failures)]
    for family, rank in (("B", 2), ("B", 3), ("G2", 2), ("F4", 4)):
        wt = weyl_type(family, rank)
        value = pn_series_molien(wt).evaluate(1, 1)
        out.append(
            CheckResult(
                name="counts: molien series at (1,1) = |W|",
                params=f"{wt}",
                passed=value == wt.order,
                counterexample=None if value == wt.order else f"got {value}",
            )
        )
    return out


def suite_fake_degrees(max_n: int = 7) -> list[CheckResult]:
    """Charge, q-hook, major-index and Molien routes agree on every
    one-variable Kostka polynomial."""
    failures = []
    for n in range(1, max_n + 1):
        top = n * (n - 1) // 2
        wt = weyl_type("A", n - 1) if n >= 2 else None
        for lam in partitions_of(n):
            k_charge = kostka_foulkes(lam, Partition((1,) * n))
            k_hook = kostka_from_fake_degree(lam)
            k_maj = syt_major_index_genfun(lam).substitute_power(-1).shift(top)
            ok = k_charge == k_hook == k_maj
            if ok and wt is not None:
                fd = fake_degree_molien(wt, sn_character_values(lam))
                ok = fd.substitute_power(-1).shift(top) == k_charge
            if not ok:
                failures.append(f"lam={lam}")
    return [
        _single(
            "fake-degrees: charge = q-hook = major-index = molien",
            f"all partitions of n <= {max_n}",
            failures,
        )
    ]


def suite_cone_series(max_n: int = 6) -> list[CheckResult]:
    """Per-partition flag series equals the character-free class average."""
    failures = []
    for n in range(2, max_n + 1):
        if pn_series(n).poly != pn_series_molien(weyl_type("A", n - 1)):
            failures.append(f"n={n}")
    return [
        _single(
            "cone-series: per-partition pn = class-average pn", f"n <= {max_n}", failures
        )
    ]


def suite_duality(max_n: int = 7) -> list[CheckResult]:
    """t**dim(O_lam) K[lam](t**-2) is invariant under transposing lam."""
    failures = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            lhs = kostka_g(lam).substitute_power(-2).shift(orbit_dim(lam))
            conj = lam.conjugate()
            rhs = kostka_g(conj).substitute_power(-2).shift(orbit_dim(conj))
            if lhs != rhs:
                failures.append(f"lam={lam}")
    return [
        _single("duality: shifted series transpose-invariant", f"n <= {max_n}", failures)
    ]


def suite_proudfoot(max_n: int = 6) -> list[CheckResult]:
    """Slice Poisson homology equals intersection cohomology of the dual
    orbit closure."""
    failures = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            if not proudfoot_check(lam).equal:
                failures.append(f"lam={lam}")
    return [
        _single("proudfoot: hp0(slice lam) = ih(closure lam^t)", f"n <= {max_n}", failures)
    ]


def suite_fibers(max_n: int = 6) -> list[CheckResult]:
    """Slice series degenerations: the zero orbit recovers the full cone,
    the regular orbit a point; dimensions match brute-force tableau counts."""
    failures = []
    for n in range(1, max_n + 1):
        cone = pn_series_molien(weyl_type("A", n - 1)) if n >= 2 else 1
        if springer_fiber_series(Partition((1,) * n)).poly != cone:
            failures.append(f"zero-orbit n={n}")
        if springer_fiber_series(Partition((n,))).poly.terms != {(0, 0): 1}:
            failures.append(f"regular-orbit n={n}")
        for phi in partitions_of(n):
            total = springer_fiber_series(phi).evaluate(1, 1)
            oracle = sum(
                len(ssyt_enumerate(nu, phi)) * nu.num_standard_tableaux()
                for nu in partitions_of(n)
            )
            if total != oracle:
                failures.append(f"dimension phi={phi}")
    return [
        _single("fibers: slice series degenerations and dimensions", f"n <= {max_n}", failures)
    ]


def suite_weights(max_n: int = 8) -> list[CheckResult]:
    """Weight grading of the cone series is nonpositive (and homological
    degrees nonnegative, coefficients positive)."""
    failures = []
    for n in range(1, max_n + 1):
        poly = pn_series(n).poly
        if not all(ye <= 0 <= xe for (xe, ye) in poly.terms):
            failures.append(f"n={n}")
        if not all(c > 0 for c in poly.terms.values()):
            failures.append(f"n={n} coefficients")
    return [_single("weights: y-exponents <= 0 <= x-exponents", f"n <= {max_n}", failures)]


def suite_socle(max_n: int = 7) -> list[CheckResult]:
    """Twisted self-duality of the coinvariant algebra:
    FD of the transposed shape is q**N times the degree-reversed FD."""
    failures = []
    for n in range(1, max_n + 1):
        top = n * (n - 1) // 2
        for lam in partitions_of(n):
            fd = fake_degree_qhook(lam)
            if fake_degree_qhook(lam.conjugate()) != fd.substitute_power(-1).shift(top):
                failures.append(f"lam={lam}")
    return [_single("socle: FD(lam^t) = q^N FD(lam)(1/q)", f"n <= {max_n}", failures)]


_TABLE_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("D", 4), ("G2", 2), ("F4", 4),
)


def suite_tables(max_n: int = 0) -> list[CheckResult]:
    """Degree tables versus explicit enumeration: element count = prod d_i
    and reflection count = sum (d_i - 1)."""
    out = []
    for family, rank in _TABLE_TYPES:
        wt = weyl_type(family, rank)
        order, reflections = enumeration_counts(wt)
        ok = order == wt.order and reflections == wt.num_positive_roots
        out.append(
            CheckResult(
                name="tables: enumeration confirms degrees",
                params=f"{wt}: |W|={order}, reflections={reflections}",
                passed=ok,
                counterexample=None
                if ok
                else f"expected |W|={wt.order}, N={wt.num_positive_roots}",
            )
        )
    return out


def suite_printed_audit(max_n: int = 6) -> list[CheckResult]:
    """The printed slice normalization divided by the dimension
    normalization is a pure power of y; record the measured exponent next
    to both candidate prefactor exponents (this is a measurement, not an
    equality assertion)."""
    out = []
    for n in range(1, max_n + 1):
        for mu in partitions_of(n):
            audit = prefactor_audit(mu)
            out.append(
                CheckResult(
                    name="printed-audit: prefactor discrepancy",
                    params=(
                        f"mu={mu}: ratio=y^{audit.ratio_y_exponent}, "
                        f"2*n_stat={audit.doubled_n_stat}, dim_orbit={audit.orbit_dimension}"
                    ),
                    passed=audit.is_pure_power_of_y,
                    counterexample=None
                    if audit.is_pure_power_of_y
                    else "quotient is not a monomial in y",
                )
            )
    return out


SUITES = {
    "counts": suite_counts,
    "fake-degrees": suite_fake_degrees,
    "cone-series": suite_cone_series,
    "duality": suite_duality,
    "proudfoot": suite_proudfoot,
    "fibers": suite_fibers,
    "weights": suite_weights,
    "socle": suite_socle,
    "tables": suite_tables,
    "printed-audit": suite_printed_audit,
}


def run_suite(suite: str, max_n: int | None = None) -> VerificationReport:
    """Run one named suite, or all of them; max_n overrides each suite's
    default range."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)} or 'all'"
        )
    checks: list[CheckResult] = []
    for name in names:
        fn = SUITES[name]
        checks.extend(fn(max_n) if max_n is not None else fn())
    return VerificationReport(checks=checks)
