"""Correctness gates: every operation's output is checked by a route
independent of the one the operation took.

The checks run in the benchmark client after the timed passes, so they
warm no cache of the worker processes that ran the operations.  Routes:

  kostka      coefficient sum = number of tableaux (counted here); support,
              degree n(mu) - n(lam) and leading coefficient 1; the (1^n)
              column equals kostka_from_fake_degree (q-hook); and for each
              mu, sum over lam of f^lam K[lam,mu](1) = n!/prod mu_i!.
  pn          value n! at (1,1) and equality with pn_series_molien(A_{n-1}).
  springer    value n!/prod phi_i! at (1,1); at x = 1 the q-hook route
              weighted by Kostka numbers counted here.
  hp0,        the q-hook route shifted by the orbit dimension; proudfoot
  proudfoot   must also report equal.
  walg        the q-hook hp0 times prod (1 - y^(2d))^-1 expanded here.
  molien_pn   |W| at (1,1), products of q-integers of the degrees at x = 1
              and at y = 1, and for type A equality with pn_series(n).
  molien_fd   equality with fake_degree_qhook.
  cli         exit code 0 and output equal to the library value rendered
              in the requested format.
"""

from __future__ import annotations

import json
from collections import defaultdict
from math import factorial, prod

from workloads import (
    conjugate, dominates, kostka_number, multinomial, n_stat, orbit_dim, partitions,
    standard_count,
)
from worker import encode


def weyl_degrees(family: str, rank: int) -> tuple[int, ...]:
    """Degrees of the fundamental invariants, from the classification."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
    return {"G2": (2, 6), "F4": (2, 6, 8, 12)}[family]


def _q_integer_product(degrees, step: int) -> dict[int, int]:
    """prod_d (1 + q^step + ... + q^(step (d-1))) as {exponent: coeff}."""
    out = {0: 1}
    for d in degrees:
        new: dict[int, int] = defaultdict(int)
        for e, c in out.items():
            for k in range(d):
                new[e + step * k] += c
        out = dict(new)
    return out


def _sorted_terms(terms: dict) -> list:
    return sorted([e, c] for e, c in terms.items() if c)


class Checker:
    """Checks outputs against independent routes computed with the
    package in this (client) process; verdicts are memoised per
    (operation, output), because the same pass output recurs."""

    def __init__(self, nilcone, cli):
        self.nc = nilcone
        self.cli = cli
        self._memo: dict = {}
        self._kfd: dict = {}
        self._library: dict = {}

    def check_pass(self, workload: str, ops: list, outputs: list, errors: list) -> list[bool]:
        ok = []
        for op, out, err in zip(ops, outputs, errors):
            if err is not None or out is None:
                ok.append(False)
                continue
            key = (op, json.dumps(out))
            if key not in self._memo:
                try:
                    self._memo[key] = bool(self._check(op, out))
                except (ValueError, KeyError, TypeError, IndexError):
                    self._memo[key] = False
            ok.append(self._memo[key])
        if workload == "kostka-table":
            self._column_sums(ops, outputs, ok)
        return ok

    def _column_sums(self, ops, outputs, ok) -> None:
        """Sum over lam of f^lam K[lam,mu](1) = n!/prod mu_i!, per mu; a
        wrong sum fails every operation of that column."""
        columns: dict = defaultdict(list)
        for i, (op, out) in enumerate(zip(ops, outputs)):
            columns[op[2]].append((i, op[1], out))
        for mu, entries in columns.items():
            total = sum(
                standard_count(lam) * sum(c for _, c in out)
                for _, lam, out in entries if out is not None
            )
            if total != multinomial(mu):
                for i, _, _ in entries:
                    ok[i] = False

    # -- routes --------------------------------------------------------

    def kfd(self, lam: tuple) -> dict[int, int]:
        """K[lam,(1^n)] by the q-hook route, as {exponent: coeff}."""
        if lam not in self._kfd:
            self._kfd[lam] = dict(self.nc.kostka_from_fake_degree(self.nc.Partition(lam)).terms)
        return self._kfd[lam]

    def slice_terms(self, lam: tuple) -> list:
        """y^dim(O_lam) K[lam](y^-2), the hp0 slice and ih closure series."""
        d = orbit_dim(lam)
        return _sorted_terms({d - 2 * e: c for e, c in self.kfd(lam).items()})

    def _check(self, op: tuple, out) -> bool:
        kind = op[0]
        return getattr(self, "_check_" + kind)(*op[1:], out=out)

    def _check_kostka(self, lam, mu, out) -> bool:
        if not dominates(lam, mu):
            return out == []
        if not out or out[-1] != [n_stat(mu) - n_stat(lam), 1] or out[0][0] < 0:
            return False
        if any(c <= 0 for _, c in out) or sum(c for _, c in out) != kostka_number(lam, mu):
            return False
        if lam == mu and out != [[0, 1]]:
            return False
        if all(p == 1 for p in mu):
            return out == _sorted_terms(self.kfd(lam))
        return True

    def _check_pn(self, n, out) -> bool:
        if sum(c for _, _, c in out) != factorial(n):
            return False
        return out == encode(self.nc.pn_series_molien(self.nc.weyl_type("A", n - 1)))

    def _check_springer(self, phi, out) -> bool:
        if sum(c for _, _, c in out) != multinomial(phi):
            return False
        at_x1: dict[int, int] = defaultdict(int)
        for _, y, c in out:
            at_x1[y] += c
        n = sum(phi)
        expected: dict[int, int] = defaultdict(int)
        for nu in partitions(n):
            count = kostka_number(nu, phi)
            for e, c in self.kfd(nu).items():
                expected[orbit_dim(phi) - 2 * e] += count * c
        return _sorted_terms(at_x1) == _sorted_terms(expected)

    def _check_hp0(self, lam, out) -> bool:
        return out == self.slice_terms(lam)

    def _check_proudfoot(self, lam, out) -> bool:
        return out == [True, self.slice_terms(lam), self.slice_terms(conjugate(lam))]

    def _check_walg(self, phi, t, out) -> bool:
        expansion = [1] + [0] * t
        for d in range(2, sum(phi) + 1):
            for m in range(2 * d, t + 1):
                expansion[m] += expansion[m - 2 * d]
        coeffs = [0] * (t + 1)
        for e, c in self.slice_terms(phi):
            for m in range(e, t + 1):
                coeffs[m] += c * expansion[m - e]
        return out == coeffs

    def _check_molien_pn(self, family, rank, out) -> bool:
        degrees = weyl_degrees(family, rank)
        npos = sum(d - 1 for d in degrees)
        if any(c <= 0 for _, _, c in out) or sum(c for _, _, c in out) != prod(degrees):
            return False
        at_y1: dict[int, int] = defaultdict(int)
        at_x1: dict[int, int] = defaultdict(int)
        for x, y, c in out:
            at_y1[x] += c
            at_x1[y] += c
        q = _q_integer_product(degrees, 2)
        if _sorted_terms(at_y1) != _sorted_terms(q):
            return False
        if _sorted_terms(at_x1) != _sorted_terms({e - 2 * npos: c for e, c in q.items()}):
            return False
        if family == "A":
            return out == encode(self.nc.pn_series(rank + 1).poly)
        return True

    def _check_molien_fd(self, lam, out) -> bool:
        return out == encode(self.nc.fake_degree_qhook(self.nc.Partition(lam)))

    def _check_cli(self, argv, cache_n, out) -> bool:
        code, stdout = out
        if argv[0] == "proudfoot" and not self.library_value(argv).equal:
            return False
        expected = self.expected_cli_output(argv)
        if isinstance(expected, dict):
            return code == 0 and json.loads(stdout)["result"] == expected
        return code == 0 and stdout == expected

    # -- the command line ----------------------------------------------

    def library_value(self, argv: tuple):
        """The value a CLI query must print, computed with the library."""
        if argv not in self._library:
            nc, cmd = self.nc, argv[0]
            opts = dict(zip(argv[1::2], argv[2::2]))
            p = {k: nc.Partition(int(x) for x in v.split(","))
                 for k, v in opts.items() if k in ("--lambda", "--mu", "--nu", "--phi")}
            if cmd == "kostka":
                value = nc.kostka_foulkes(p["--lambda"], p["--mu"])
            elif cmd == "fake-degree":
                value = nc.fake_degree_qhook(p["--lambda"])
            elif cmd == "pn" and "--n" in opts:
                value = nc.pn_series(int(opts["--n"])).poly
            elif cmd == "pn":
                value = nc.pn_series_molien(nc.weyl_type(opts["--type"], int(opts["--rank"])))
            elif cmd == "hp0":
                value = nc.hp0_slice_series(p["--phi"])
            elif cmd == "ih":
                value = nc.ih_orbit_closure(p["--lambda"])
            elif cmd == "s3":
                value = nc.ih_s3_variety(p["--nu"], p["--phi"])
            elif cmd == "springer-fiber":
                value = nc.springer_fiber_series(p["--phi"]).poly
            elif cmd == "walg":
                value = nc.hp0_walg_full_series(p["--phi"], int(opts["--truncate"]))
            elif cmd == "proudfoot":
                value = nc.proudfoot_check(p["--lambda"])
            elif cmd == "verify":
                value = self.cli.run_suite(opts["--suite"], int(opts["--max-n"]))
            else:
                raise ValueError(f"no library route for {cmd}")
            self._library[argv] = value
        return self._library[argv]

    def expected_cli_output(self, argv: tuple) -> str | dict:
        """The stdout a query must print, or for JSON output the "result"
        member it must carry (query and timing metadata are not compared)."""
        cli, value = self.cli, self.library_value(argv)
        fmt = dict(zip(argv[1::2], argv[2::2]))["--format"]
        if argv[0] == "verify":
            if fmt == "json":
                return {"overall": "pass" if value.passed else "fail", "checks": [
                    {"name": c.name, "params": c.params, "passed": c.passed,
                     "counterexample": c.counterexample} for c in value.checks]}
            return "\n".join(value.lines()) + "\n"
        if argv[0] == "proudfoot":
            if fmt == "json":
                return {"equal": value.equal, "hp0_slice": cli.encode_poly(value.hp0_series),
                        "ih_dual_orbit": cli.encode_poly(value.ih_dual_series)}
            render = cli.latex_poly if fmt == "latex" else str
            lam = value.jordan_type
            return (f"hp0(slice {lam}): {render(value.hp0_series)}\n"
                    f"ih(closure {lam.conjugate()}): {render(value.ih_dual_series)}\n"
                    f"verdict: {'equal' if value.equal else 'NOT EQUAL'}\n")
        if fmt == "json":
            return cli.encode_poly(value)
        return (cli.latex_poly(value) if fmt == "latex" else str(value)) + "\n"
