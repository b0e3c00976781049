"""The mutation catalogue of the verify suites: one table of named defects,
each a monkeypatch planted in one route or kernel, and the suites that must
catch it at max_n = 4, by a reported FAIL or by a raised internal error
(ArithmeticError or AssertionError, the command line's exit 3).

Every memo of the package is emptied before each defect is planted and
after it is lifted, so that a memoised value neither hides the defect nor
outlives it.  A warm defect is planted after one clean run of the suite,
whose memos it keeps, so that the catch is shown not to rest on a cold
start.

The matrix decides which suites stay: each one must be the only suite to
catch at least one defect, and a check that catches nothing alone rides in
the suite that already computes its values.  tests/test_verify.py plants
some of these same patches and pins the counterexample each reports.
"""

from typing import Callable, NamedTuple

import pytest

from nilcone import kostka, laurent, springer, verify, weyl
from nilcone.partitions import Partition
from nilcone.verify import SUITES, run_suite

MAX_N = 4


def wrong_qhook(monkeypatch):
    """The q-hook of (2,1) with its constant coefficient raised by one, in
    the helper that fake_degree_qhook and kostka_from_fake_degree share."""
    right = kostka._qhook_coefficients

    def wrong(lam, caller):
        coeffs = right(lam, caller)
        return [coeffs[0] + 1, *coeffs[1:]] if lam == Partition((2, 1)) else coeffs

    monkeypatch.setattr(kostka, "_qhook_coefficients", wrong)


def shifted_column_entry(monkeypatch):
    """K[(3),(2,1)] times t in the Jing column that springer reads."""
    right = springer._kostka_column

    def shifted(parts):
        column = dict(right(parts))
        if parts == (2, 1):
            column[(3,)] = column[(3,)].shift(1)
        return column

    monkeypatch.setattr(springer, "_kostka_column", shifted)


def cocharge(monkeypatch):
    """Charge under the opposite convention: the index of r + 1 increments
    when it stands to the left of r."""
    right = kostka._standard_charge
    monkeypatch.setattr(kostka, "_standard_charge", lambda subword: right(subword[::-1]))


def _moved_class_size(monkeypatch, group, move):
    """Rewrite the class sizes of one group with move(sizes, identity),
    the index in the rows of _class_rows of the identity, the one class
    with det(1 - t w) = (1 - t)**rank."""
    right = weyl._class_rows

    def moved(family, rank):
        rows = list(right(family, rank))
        if (family, rank) == group:
            sizes = [size for _, size, _, _ in rows]
            move(sizes, next(i for i, (_, _, a, b) in enumerate(rows) if {*a, *b} == {1}))
            rows = [(label, size, a, b) for (label, _, a, b), size in zip(rows, sizes)]
        return iter(rows)

    monkeypatch.setattr(weyl, "_class_rows", moved)


def a2_class_size(monkeypatch):
    """The identity class of A2 counted twice."""

    def move(sizes, i):
        sizes[i] += 1

    _moved_class_size(monkeypatch, ("A", 2), move)


def b3_class_size(monkeypatch):
    """The identity class of B3 moved onto its neighbour in the class list."""

    def move(sizes, i):
        sizes[i - 1] += sizes[i]
        sizes[i] = 0

    _moved_class_size(monkeypatch, ("B", 3), move)


def raised_orbit_dim(monkeypatch):
    """orbit_dim + 2 away from the zero orbit, as springer reads it."""
    right = springer.orbit_dim
    monkeypatch.setattr(springer, "orbit_dim", lambda lam: right(lam) + 2 if right(lam) else 0)


def reflected_ih(monkeypatch):
    """_reflected two degrees high on the x side, the intersection
    cohomology of orbit closures; the y side, hp0, stays right."""
    right = springer._reflected

    def wrong(k, d, var):
        return right(k, d + 2 if var == "x" else d, var)

    monkeypatch.setattr(springer, "_reflected", wrong)


def shifted_packed_fake_degree(monkeypatch):
    """The packed fake degree of (2,1) moved up one power of y**2."""
    right = springer._fake_degree_packed

    def shifted(nu, width):
        return right(nu, width) << 8 * width if nu == (2, 1) else right(nu, width)

    monkeypatch.setattr(springer, "_fake_degree_packed", shifted)


def shifted_kostka_g(monkeypatch):
    """K[(2,1)] times t as pn_series reads it, through kostka_g; hp0, IH
    and the packed fake degrees read the memo behind it and stay right."""
    right = springer.kostka_g
    monkeypatch.setattr(
        springer, "kostka_g", lambda lam: right(lam).shift(int(lam == Partition((2, 1))))
    )


def raised_d5_degree(monkeypatch):
    """The D5 degree table (2, 4, 5, 6, 8) with its top degree raised by 2."""
    right = weyl._degrees

    def wrong(family, rank):
        degrees = right(family, rank)
        return (*degrees[:-1], degrees[-1] + 2) if (family, rank) == ("D", 5) else degrees

    monkeypatch.setattr(weyl, "_degrees", wrong)


def f4_orbit_walk(monkeypatch):
    """The last step of F4's descending walk of the orbit of w_3 dropped: one
    coset of W(B3) missing from both the count and the coset products."""
    right = weyl._descending_walk

    def dropped(family, rank, k):
        steps = right(family, rank, k)
        return steps[:-1] if (family, k) == ("F4", 3) else steps

    monkeypatch.setattr(weyl, "_descending_walk", dropped)


def _wrong_stride(coeffs, exponents, right=laurent.divide_one_minus):
    """Divide by 1 - y**(e + 1) in place of 1 - y**e."""
    return right(coeffs, [e + 1 for e in exponents])


def walg_stride(monkeypatch):
    """A wrong stride where walg's hook closed form calls the kernel, its
    one caller: springer reads divide_one_minus and no other module does."""
    monkeypatch.setattr(springer, "divide_one_minus", _wrong_stride)


def skipped_flip(monkeypatch):
    """Bernstein's straightening without the sign flip of its first swap:
    B_s s_kappa comes out negated whenever s < kappa[0]."""
    right = kostka._straighten

    def wrong(s, kappa):
        sign, nu = right(s, kappa)
        return (-sign if kappa and s < kappa[0] else sign), nu

    monkeypatch.setattr(kostka, "_straighten", wrong)


def dropped_factor(monkeypatch):
    """The shared kernel _at_base drops the last factor of each product, in
    both modules that divide through it: laurent (q_quotient_coefficients)
    and weyl (the class characters).  Every division loses a denominator
    factor, and its numerator one too."""
    right = laurent._at_base

    def dropped(exponents, bits):
        return right(list(exponents)[:-1], bits)

    monkeypatch.setattr(laurent, "_at_base", dropped)
    monkeypatch.setattr(weyl, "_at_base", dropped)


def dropped_tableau(monkeypatch):
    """The last tableau of shape (2,1) dropped from the enumeration that the
    charge route reads, whatever its content."""
    right = kostka.ssyt_enumerate

    def dropped(shape, content):
        found = right(shape, content)
        return found[:-1] if shape == Partition((2, 1)) else found

    monkeypatch.setattr(kostka, "ssyt_enumerate", dropped)


def negated_mn_beads(monkeypatch):
    """Every Murnaghan-Nakayama value on the cycle type (2,1) negated."""
    right = weyl._mn_beads
    monkeypatch.setattr(
        weyl, "_mn_beads", lambda beads, mu: -right(beads, mu) if mu == (2, 1) else right(beads, mu)
    )


def shifted_flag_count(monkeypatch):
    """The flag count F_(2,1)(q) of the fibers suite times q."""
    right = verify._flag_count
    monkeypatch.setattr(
        verify, "_flag_count", lambda phi, memo: right(phi, memo).shift(int(phi == (2, 1)))
    )


def raised_hook(monkeypatch):
    """The first hook of (2,1) raised by one, 3 -> 4, wherever the hooks are
    read: every q-hook, walg's closed form and the hook formula f^lam."""
    right = Partition.hooks

    def raised(lam):
        hooks = right(lam)
        return [hooks[0] + 1, *hooks[1:]] if lam.parts == (2, 1) else hooks

    monkeypatch.setattr(Partition, "hooks", raised)


def shifted_kostka_column_entry(monkeypatch):
    """K[(3),(2,1)] times t in the Jing column of kostka.py, which
    kostka_foulkes and compute_kostka_table read; springer's own reference
    to it stays right."""
    right = kostka._kostka_column

    def shifted(parts):
        column = dict(right(parts))
        if parts == (2, 1):
            column[(3,)] = column[(3,)].shift(1)
        return column

    monkeypatch.setattr(kostka, "_kostka_column", shifted)


class Defect(NamedTuple):
    plant: Callable  # plant(monkeypatch)
    suites: set  # the suites that catch it
    warm: bool = False


DEFECTS = {
    "q-hook coefficient": Defect(
        wrong_qhook, {"counts", "fake-degrees", "cone-series", "fibers", "walg"}
    ),
    "Jing column entry": Defect(shifted_column_entry, {"fibers"}),
    # each suite builds a column cold, and its column-sum tripwire trips
    "straightening sign": Defect(skipped_flip, {"counts", "fake-degrees", "fibers"}),
    "charge": Defect(cocharge, {"fake-degrees"}),
    "A2 class size": Defect(a2_class_size, {"fake-degrees", "cone-series", "fibers"}),
    "orbit_dim + 2": Defect(raised_orbit_dim, {"proudfoot", "walg"}),
    "_reflected": Defect(reflected_ih, {"proudfoot"}),
    "packed fake degree": Defect(shifted_packed_fake_degree, {"cone-series", "fibers"}),
    "kostka_g shift": Defect(shifted_kostka_g, {"cone-series"}),
    "B3 class size": Defect(b3_class_size, {"counts"}),
    "D5 degree table": Defect(raised_d5_degree, {"counts"}),
    "F4 orbit walk": Defect(f4_orbit_walk, {"counts"}),
    # every suite divides a q-quotient or a class character unmemoised, and
    # the exactness check rejects the short products before any comparison
    "_at_base factor": Defect(
        dropped_factor, {"counts", "fake-degrees", "cone-series", "proudfoot", "fibers", "walg"}
    ),
    "walg's stride": Defect(walg_stride, {"walg"}),
    # the same stride planted over the memos of a clean walg run: the hook
    # closed form is recomputed, so no memo hides it
    "divide_one_minus stride, warm": Defect(walg_stride, {"walg"}, warm=True),
    "ssyt_enumerate tableau": Defect(dropped_tableau, {"fake-degrees"}),
    "_mn_beads sign": Defect(negated_mn_beads, {"fake-degrees"}),
    "_flag_count shift": Defect(shifted_flag_count, {"fibers"}),
    # every suite divides the q-hook of (2,1) unmemoised, and its exactness
    # check raises ExactDivisionError before any comparison
    "Partition.hooks": Defect(
        raised_hook, {"counts", "fake-degrees", "cone-series", "proudfoot", "fibers", "walg"}
    ),
    "kostka's column entry": Defect(shifted_kostka_column_entry, {"counts", "fake-degrees"}),
}


def caught_by(defect: Defect, suite: str, clear) -> bool:
    """Whether the suite, run at MAX_N with the defect planted, reports a
    FAIL or raises an internal error; every memo is emptied around it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        clear()
        if defect.warm:
            run_suite(suite, MAX_N)
        defect.plant(monkeypatch)
        try:
            return not run_suite(suite, MAX_N).passed
        except (ArithmeticError, AssertionError):
            return True
        finally:
            clear()


@pytest.mark.parametrize("name", DEFECTS)
def test_every_defect_is_caught(name, clear_memos):
    assert any(caught_by(DEFECTS[name], suite, clear_memos) for suite in SUITES)


def test_matrix(clear_memos):
    matrix = {
        name: {suite for suite in SUITES if caught_by(defect, suite, clear_memos)}
        for name, defect in DEFECTS.items()
    }
    assert matrix == {name: defect.suites for name, defect in DEFECTS.items()}


def test_every_suite_catches_a_defect_alone():
    """The pinned matrix keeps no suite that another suite could replace."""
    alone = {next(iter(d.suites)) for d in DEFECTS.values() if len(d.suites) == 1}
    assert alone == set(SUITES)
