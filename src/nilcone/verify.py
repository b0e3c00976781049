"""Identity-verification suites: every named suite re-derives one of the
package's structural identities over a parameter range and reports
pass/fail with a counterexample when something breaks.  They are the
checks the test suite pins at fixed sizes, over user-chosen ranges.

A suite compares routes that compute their values separately.  The
routes are the rows of one table, _ROUTES: one row per compared quantity,
route name -> function of one input, and one loop (_check) runs every
route of a row on each input a suite feeds it.  The fake-degree row is
kostka._FAKE_DEGREE_ROUTES itself, which the command line's fake-degree
also reads.  A suite is kept only while it alone catches a defect of the
mutation catalogue (tests/test_mutations.py), its lone catch; a check or
a compared route that catches nothing alone is folded away.  Each suite's
rows, the kernels their routes share, and what it alone catches:

  counts        no row: pn_series, the Kostka table, Molien and the coset
                counts, each against a count or Partition.dominates;
                shared: none; alone: a B3 class size, a D5 degree table,
                the F4 orbit walk, the keys of compute_kostka_table
  fake-degrees  "fake degree" and "Kostka entry"; shared: _at_base and
                _signed_digits by the q-hook and Molien; alone: charge,
                ssyt_enumerate, _mn_beads
  cone-series   "cone series"; shared: _at_base and _signed_digits;
                alone: K[lam] read through kostka_g
  proudfoot     no row: a single-route identity, the q-hook on both
                sides, that tests _reflected and orbit_dim; alone:
                _reflected
  fibers        "zero-orbit fiber" and "fiber at y = 1"; shared: _at_base
                and _signed_digits by the zero orbit alone, as in
                cone-series; alone: the Jing column that springer reads,
                _flag_count
  walg          "walg"; shared: Partition.hooks, _at_base and
                _signed_digits, through which walg and the q-hook both
                divide and decode; alone: the prefix sums of walg's
                degree series P_n, its packed product

Every suite reads Partition.hooks, so a wrong hook trips them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable

from .kostka import (
    _FAKE_DEGREE_ROUTES,
    compute_kostka_table,
    kostka_foulkes,
    kostka_foulkes_charge,
)
from .laurent import BiLaurentPoly, LaurentPoly, TruncatedSeries
from .partitions import Partition, partitions_of
from .springer import (
    hp0_slice_series,
    hp0_walg_full_series,
    pn_series,
    proudfoot_check,
    springer_fiber_series,
)
from .weyl import enumeration_counts, pn_series_molien, weyl_type


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
    return CheckResult(name, params, not failures, "; ".join(failures[:3]) or None)


def _cone_molien(n: int) -> BiLaurentPoly | int:
    """The flag series of the nilpotent cone of gl_n, as the class average
    over A_(n-1); the cone of gl_1 is a point."""
    return pn_series_molien(weyl_type("A", n - 1)) if n >= 2 else 1


def _at_y_one(case: tuple[Partition, dict]) -> LaurentPoly:
    """S_phi(x, 1), the Springer series of phi summed over y."""
    at_y1: dict[int, int] = {}
    for (xe, _), c in springer_fiber_series(case[0]).poly.terms.items():
        at_y1[xe] = at_y1.get(xe, 0) + c
    return LaurentPoly(at_y1, "x")


def _flag_side(case: tuple[Partition, dict]) -> LaurentPoly:
    """x**(2 n(phi)) F_phi(x**-2), the flag count through the run's memo."""
    phi, memo = case
    return _flag_count(phi.parts, memo).substitute_power(-2).shift(2 * phi.n_stat())


def _walg_multiplied_back(case: tuple[Partition, int, LaurentPoly]) -> TruncatedSeries:
    """walg's series of phi to the order, multiplied back by the factor
    prod_d (1 - y**(2d)) over the degrees d of A_(n-1)."""
    phi, order, factor = case
    walg = hp0_walg_full_series(phi, order).coefficients
    return TruncatedSeries.from_poly(LaurentPoly(dict(enumerate(walg)), "y") * factor, order)


def _slice_side(case: tuple[Partition, int, LaurentPoly]) -> TruncatedSeries:
    """The q-hook slice series of phi, truncated to the order."""
    return TruncatedSeries.from_poly(hp0_slice_series(case[0]), case[1])


# Every compared quantity -> {route name -> function of one input}, the
# input named beside the row.  _check runs a row's routes in this order, so
# a planted defect raises from the first route it trips; the suites call
# no route themselves.
_ROUTES = {
    "fake degree": _FAKE_DEGREE_ROUTES,  # lam
    "Kostka entry": {  # (lam, mu)
        "column": lambda pair: kostka_foulkes(*pair),
        "charge": lambda pair: kostka_foulkes_charge(*pair),
    },
    "cone series": {"pn": lambda n: pn_series(n).poly, "molien": _cone_molien},  # n >= 2
    "zero-orbit fiber": {  # n
        "molien": _cone_molien,
        "springer": lambda n: springer_fiber_series(Partition((1,) * n)).poly,
    },
    "fiber at y = 1": {"springer": _at_y_one, "flag count": _flag_side},  # (phi, memo)
    "walg": {"walg": _walg_multiplied_back, "qhook": _slice_side},  # (phi, order, factor)
}


def _agree(quantity: str, x: object) -> bool:
    """Whether every route of the quantity gives one value on x.  A
    ValueError counts as a disagreement: each route is fed an input it
    accepts, so the fault is a route's (a class average that is no
    character's is not integral)."""
    try:
        first, *rest = [route(x) for route in _ROUTES[quantity].values()]
    except ValueError:
        return False
    return all(value == first for value in rest)


def _check(name: str, params: str, cases: Iterable[tuple[str, str, object]]) -> CheckResult:
    """The check over (quantity, label, input) cases, failed by the label of
    each case on which the routes of the quantity do not agree."""
    return _single(name, params, [label for quantity, label, x in cases if not _agree(quantity, x)])


def _kostka_table_failures(n: int) -> list[str]:
    """The table invariants of n, read through routes the Jing column does
    not use (Partition.dominates, f^lam by the hook formula): K[mu,mu] = 1;
    a nonzero K[lam,mu] has lam dominating mu and is monic of degree
    n(mu) - n(lam) with no negative coefficient; and for every mu,
    sum_lam f^lam K[lam,mu](1) = n!/prod mu_i! (Macdonald III.6)."""
    table = compute_kostka_table(n)
    syt = {p: p.num_standard_tableaux() for p in partitions_of(n)}
    totals = dict.fromkeys(syt, 0)
    failures = []
    for (lam, mu), poly in table.items():
        top = mu.n_stat() - lam.n_stat()
        if not lam.dominates(mu):
            failures.append(f"K[{lam},{mu}] != 0 but {lam} does not dominate {mu}")
        elif poly.degree != top or poly.coeff(top) != 1:
            failures.append(f"K[{lam},{mu}] = {poly} is not monic of degree {top}")
        elif min(poly.terms.values()) < 0:
            failures.append(f"K[{lam},{mu}] = {poly} has a negative coefficient")
        totals[mu] += syt[lam] * sum(poly.terms.values())
    for mu, total in totals.items():
        if table.get((mu, mu)) != 1:
            failures.append(f"K[{mu},{mu}] = {table.get((mu, mu), 0)}, not 1")
        expected = factorial(n) // prod(map(factorial, mu.parts))
        if total != expected:
            failures.append(f"sum of f^lam K[lam,{mu}](1) is {total}, not {expected}")
    return failures


# weyl_type validates every table up to order 1200 on lookup, so a row for
# A1-A5, B2-B4, D4, G2 or F4 could only pass: the counts check the larger
# ones, up to the E6 that enumeration_counts takes (C_n is B_n).
_TABLE_TYPES = (("A", 6), ("A", 7), ("B", 5), ("B", 6), ("D", 5), ("D", 6), ("E6", 6))


def suite_counts(max_n: int = 8) -> list[CheckResult]:
    """Total dimension of the bigraded flag series is |W|, the Kostka table
    of each n passes its invariants, and the degree tables that weyl_type
    does not validate on lookup agree with enumeration_counts, taken from
    the Cartan matrix: element count = prod d_i, reflection count =
    sum (d_i - 1).  No check shares a kernel with the route it tests.
    Lone catches: a wrong B3 class size, a wrong D5 degree table, a broken
    F4 orbit walk (tripped on lookup), a misassembled Kostka table."""
    failures, table_failures = [], []
    for n in range(1, max_n + 1):
        if sum(pn_series(n).poly.terms.values()) != factorial(n):
            failures.append(f"n={n}")
        table_failures += _kostka_table_failures(n)
    out = [
        _single("counts: pn(1,1) = n!", f"n <= {max_n}", failures),
        _single("counts: Kostka table invariants", f"n <= {max_n}", table_failures),
    ]
    for family, rank in (("B", 2), ("B", 3), ("G2", 2), ("F4", 4)):
        wt = weyl_type(family, rank)
        value = sum(pn_series_molien(wt).terms.values())
        failures = [] if value == wt.order else [f"got {value}"]
        out.append(_single("counts: molien series at (1,1) = |W|", f"{wt}", failures))
    for family, rank in _TABLE_TYPES:
        wt = weyl_type(family, rank)
        order, reflections = enumeration_counts(wt)
        ok = order == wt.order and reflections == wt.num_positive_roots
        failures = [] if ok else [f"expected |W|={wt.order}, N={wt.num_positive_roots}"]
        params = f"{wt}: |W|={order}, reflections={reflections}"
        out.append(_single("counts: enumeration confirms degrees", params, failures))
    return out


def suite_fake_degrees(max_n: int = 7) -> list[CheckResult]:
    """The rows "fake degree" and "Kostka entry": the three routes of
    kostka._FAKE_DEGREE_ROUTES, charge, q-hook and Molien, agree on every
    fake degree, and the column route agrees with charge on every
    K[lam,mu].  Charge alone reads ssyt_enumerate; the q-hook and Molien
    share _at_base and _signed_digits.  Lone catches: a wrong charge, a
    dropped tableau in ssyt_enumerate, a wrong _mn_beads character."""
    sizes = range(1, max_n + 1)
    lams = (("fake degree", f"lam={lam}", lam) for n in sizes for lam in partitions_of(n))
    pairs = (
        ("Kostka entry", f"K[{lam},{mu}]", (lam, mu))
        for n in sizes
        for mu in partitions_of(n)
        for lam in partitions_of(n)
    )
    return [
        _check("fake-degrees: charge = q-hook = molien", f"all partitions of n <= {max_n}", lams),
        _check("fake-degrees: column route = charge on every K[lam,mu]", f"n <= {max_n}", pairs),
    ]


def suite_cone_series(max_n: int = 6) -> list[CheckResult]:
    """The row "cone series": the per-partition flag series equals the
    character-free class average; the two share _at_base and
    _signed_digits.  Lone catch: a shifted K[lam] read through kostka_g,
    as only pn reads it."""
    cases = (("cone series", f"n={n}", n) for n in range(2, max_n + 1))
    return [_check("cone-series: per-partition pn = class-average pn", f"n <= {max_n}", cases)]


def suite_proudfoot(max_n: int = 7) -> list[CheckResult]:
    """Slice Poisson homology equals intersection cohomology of the dual
    orbit closure: a single-route identity, both sides reading K[lam] from
    the q-hook, so it tests _reflected and orbit_dim.  Lone catch: a wrong
    IH reflection (_reflected)."""
    failures = []
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            if not proudfoot_check(lam).equal:
                failures.append(f"lam={lam}")
    return [
        _single("proudfoot: hp0(slice lam) = ih(closure lam^t)", f"n <= {max_n}", failures)
    ]


def _flag_count(phi: tuple[int, ...], memo: dict) -> LaurentPoly:
    """F_phi(q), the complete flags over F_q stable under a nilpotent of
    Jordan type phi, by the flag's first line: F_() = 1 and
    F_phi = sum_i q**r_i [m_i]_q F_phi-, over the row lengths i of phi,
    with m_i rows of length i, r_i rows longer, and phi- the partition
    with one row of length i shortened by one."""
    if phi not in memo:
        total = LaurentPoly.zero("x") if phi else LaurentPoly.one("x")
        for j, i in enumerate(phi):
            if j + 1 < len(phi) and phi[j + 1] == i:
                continue  # shorten the last row of length i
            m = phi.count(i)
            shorter = phi[:j] + ((i - 1,) if i > 1 else ()) + phi[j + 1 :]
            q_int = LaurentPoly(dict.fromkeys(range(j + 1 - m, j + 1), 1), "x")
            total = total + q_int * _flag_count(shorter, memo)
        memo[phi] = total
    return memo[phi]


def suite_fibers(max_n: int = 6) -> list[CheckResult]:
    """The rows "zero-orbit fiber" and "fiber at y = 1", in turn for each n.
    Slice series degeneration: the zero orbit recovers the full cone
    (pn_series_molien).  A graded closed form, read through no Kostka
    route, pins the x side of every S_phi(x, y), and so its dimension:
    S_phi(x, 1) = x**(2 n(phi)) F_phi(x**-2), the Springer fiber's point
    count (_flag_count), through one memo per run.  Lone catches: a
    shifted entry of the Jing column that springer reads, a wrong
    _flag_count."""
    memo: dict = {}  # the flag counts of this run

    def cases():
        for n in range(1, max_n + 1):
            yield "zero-orbit fiber", f"zero-orbit n={n}", n
            for phi in partitions_of(n):
                yield "fiber at y = 1", f"x side phi={phi}", (phi, memo)

    return [_check("fibers: slice series degenerations and closed forms", f"n <= {max_n}", cases())]


def suite_walg(max_n: int = 8) -> list[CheckResult]:
    """The row "walg": the full W-algebra series, taken as one packed
    product of its hook numerator N_phi and the degree series P_n
    (hp0_walg_full_series), then multiplied back by prod_i (1 - y**(2 d_i)),
    built once per n, with LaurentPoly.__mul__ and truncated by from_poly,
    is the truncated q-hook slice series hp0_slice_series.  The two
    routes share Partition.hooks() and the kernels _at_base and
    _signed_digits: walg divides its hook product at B = 2**bits for N_phi
    and decodes its product, and the q-hook divides and decodes through
    q_quotient_coefficients, whose coefficients walg does not read.  P_n
    comes from the prefix sums of divide_one_minus, which nothing else
    calls, and the multiplication back shares no code with either.  Lone
    catches: a wrong stride in those prefix sums, cold or over a warm memo,
    and a shifted packed P_n."""

    def cases():
        for n in range(1, max_n + 1):
            order = 2 * n * (n - 1) + 8  # 4N + 8, N the number of positive roots
            factor = LaurentPoly.one("y")
            for d in weyl_type("A", n - 1).degrees if n >= 2 else ():
                factor = factor * LaurentPoly({0: 1, 2 * d: -1}, "y")
            for phi in partitions_of(n):
                yield "walg", f"phi={phi}", (phi, order, factor)

    return [_check("walg: walg * prod (1 - y^(2d)) = hp0(slice phi)", f"n <= {max_n}", cases())]


SUITES = {
    "counts": suite_counts,
    "fake-degrees": suite_fake_degrees,
    "cone-series": suite_cone_series,
    "proudfoot": suite_proudfoot,
    "fibers": suite_fibers,
    "walg": suite_walg,
}


def run_suite(suite: str, max_n: int | None = None) -> VerificationReport:
    """Run one named suite, or all of them; an int max_n >= 0 overrides
    each suite's default range."""
    if max_n is not None:
        if type(max_n) is not int:  # True would run every suite at n <= 1
            raise TypeError(f"max_n must be an int, not {type(max_n).__name__}")
        if max_n < 0:
            raise ValueError(f"max_n must be nonnegative, not {max_n}")
    if type(suite) is not str:  # a list would fail unworded on hashing
        raise TypeError(f"suite must be a str, not {type(suite).__name__}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)} or 'all'")
    names = list(SUITES) if suite == "all" else [suite]
    checks: list[CheckResult] = []
    for name in names:
        fn = SUITES[name]
        checks.extend(fn(max_n) if max_n is not None else fn())
    return VerificationReport(checks=checks)
