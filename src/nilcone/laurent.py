"""Exact arithmetic for integer Laurent polynomials and truncated power series.

Coefficients are Python ints throughout, so all operations are exact; there
is no floating point anywhere.  A polynomial is stored as a map from integer
exponent to nonzero coefficient, with zero coefficients stripped eagerly, so
equality of polynomials is equality of term maps.  Negative exponents are
allowed everywhere (the weight gradings computed downstream genuinely
produce them).

Products of cyclotomic-type factors, prod_a (1 - var**a) / prod_b
(1 - var**b), are built by q_quotient on one dense coefficient list: a
slice subtraction per numerator factor, then the strided prefix sums of
divide_one_minus, with no dict polynomial until the end.
Fake degrees, Weyl-group class factors and Molien numerators all take it.

Bivariate polynomials are built only as sums of products f(x) * g(y), by
BiLaurentPoly.sum_of_products, which packs each g(y) into one int
(Kronecker substitution) and sums one packed row per x-exponent; they have
no ring arithmetic, only shifts, specializations and evaluation.

One decoder, _signed_digits, serves every Kronecker-packed int: the rows
of sum_of_products and the t -> 2**bits entries of the Jing column in
kostka.py.  It decodes in C: an XOR with the digit offset leaves
two's-complement digits, which memoryview.cast reads from the value's
bytes in native byte order at 1, 2, 4 or 8 bytes a digit (int.from_bytes
slices for wider digits), and a value its digits cannot hold raises
AssertionError.  The caller sizes the digit (_digit_bytes) from a bound
on the coefficients it packs.

Grading convention used across the package: a graded vector space shifted
down by d (written V[-d]) has its Hilbert series multiplied by var**d.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

Scalar = "int | Fraction"  # an annotation: only _power imports fractions
Monomials = tuple[tuple[str, ...], list[tuple[tuple[int, ...], int]]]


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


def _clean(terms: Mapping[int, int]) -> dict[int, int]:
    return {e: c for e, c in terms.items() if c != 0}


def _power(value: Scalar, exponents: Iterable[int]) -> Callable[[int], Scalar]:
    """e -> value ** e for the given exponents, exactly: in ints when every
    such power is an int (value an int, and each e >= 0 or value 1 or -1,
    where value ** e = value ** (e & 1)), in Fractions otherwise."""
    if type(value) is int:  # a bool takes the Fraction route
        if value in (1, -1):
            return lambda e: value ** (e & 1)
        if min(exponents, default=0) >= 0:
            return value.__pow__
    from fractions import Fraction

    return Fraction(value).__pow__


def _check_exponents(exponents: list[int]) -> None:
    for e in exponents:
        if type(e) is not int:  # bool is not an exponent
            raise TypeError(f"factor exponents must be ints, not {type(e).__name__}")
        if e < 1:
            raise ValueError("all factor exponents must be positive")


# memoryview.cast formats of the signed machine ints, by width in bytes
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


def _digit_bytes(bound: int) -> int:
    """Bytes per packed digit for coefficients of absolute value at most
    bound: one sign bit more than the bound needs, in whole bytes, rounded
    up to a width in _SIGNED; a wider width stays exact."""
    exact = (bound.bit_length() + 8) // 8
    return exact if exact > 8 else 1 << (exact - 1).bit_length()


@lru_cache(maxsize=256)
def _digit_offset(width: int, count: int) -> int:
    """sum_k 2**(8 * width * k + 8 * width - 1) over k < count: the top bit
    of each of count digits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _signed_digits(value: int, width: int, count: int) -> list[int]:
    """The count digits d_k of value = sum_k d_k 2**(8 * width * k), lowest
    first, each in [-2**(8 * width - 1), 2**(8 * width - 1)); AssertionError
    if count such digits cannot hold value.

    Decoded in C: value + offset puts every digit d at d + 2**(bits - 1),
    in [0, 2**bits), and XOR with the offset flips each digit's top bit
    back, which leaves d in two's complement.  The bytes, in native order,
    then read as signed machine ints through memoryview.cast (width 1, 2, 4
    or 8), or by int.from_bytes slices for a wider width."""
    size = width * count
    offset = _digit_offset(width, count)
    value += offset
    if not 0 <= value < 1 << 8 * size:
        raise AssertionError(f"packed row overflows {count} digits of {width} bytes")
    buf = (value ^ offset).to_bytes(size, sys.byteorder)
    fmt = _SIGNED.get(width)
    if fmt:
        digits = memoryview(buf).cast(fmt).tolist()
    else:
        digits = [
            int.from_bytes(buf[i : i + width], sys.byteorder, signed=True)
            for i in range(0, size, width)
        ]
    if sys.byteorder == "big":  # the top digit's bytes came first
        digits.reverse()
    return digits


def render(
    poly: "LaurentPoly | BiLaurentPoly | TruncatedSeries", latex: bool = False
) -> str:
    """Human-readable form, or LaTeX, of anything with monomials():
    ascending exponent order, explicit signs, and an O(var^(order+1))
    suffix on a truncated series."""
    variables, terms = poly.monomials()
    sep, times, power = ("", "", "{}^{{{}}}") if latex else (" ", "*", "{}^{}")
    pieces: list[str] = []
    for exps, coeff in terms:
        mono = sep.join(
            v if e == 1 else power.format(v, e) for v, e in zip(variables, exps) if e != 0
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{times}{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    text = " ".join(pieces) if pieces else "0"
    if isinstance(poly, TruncatedSeries):
        text += f" + O({power.format(poly.var, poly.order + 1)})"
    return text


class LaurentPoly:
    """Integer Laurent polynomial in one variable.

    The variable name is display metadata only: arithmetic and equality look
    at the term map alone.
    """

    __slots__ = ("terms", "var")

    def __init__(self, terms: Mapping[int, int] | None = None, var: str = "t"):
        self.terms = _clean(terms) if terms else {}
        self.var = var

    @classmethod
    def zero(cls, var: str = "t") -> "LaurentPoly":
        return cls({}, var)

    @classmethod
    def one(cls, var: str = "t") -> "LaurentPoly":
        return cls({0: 1}, var)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[int], var: str = "t") -> "LaurentPoly":
        """sum_e coeffs[e] * var**e, constant term first; the zeros are
        skipped as the term map is built, so it is not cleaned twice."""
        poly = cls.__new__(cls)
        poly.terms = {e: c for e, c in enumerate(coeffs) if c}
        poly.var = var
        return poly

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, exponent: int) -> int:
        return self.terms.get(exponent, 0)

    @property
    def valuation(self) -> int:
        """Smallest exponent with a nonzero coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def with_var(self, var: str) -> "LaurentPoly":
        return LaurentPoly(self.terms, var)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()}, self.var)

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other}, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out, self.var)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms.items()}, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # a BiLaurentPoly or TruncatedSeries has no product
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out, self.var)

    __rmul__ = __mul__

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute var -> var**k, i.e. scale every exponent by k.

        k = 0 is rejected: collapsing all exponents is not a ring
        endomorphism of the Laurent polynomial ring.
        """
        if k == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        return LaurentPoly({k * e: c for e, c in self.terms.items()}, self.var)

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by var**d (the Hilbert series of a shift by -d)."""
        return LaurentPoly({e + d: c for e, c in self.terms.items()}, self.var)

    def evaluate(self, value: Scalar) -> Scalar:
        """Evaluate at an integer or Fraction, exactly (in ints where _power
        allows)."""
        power = _power(value, self.terms)
        total = sum(c * power(e) for e, c in self.terms.items())
        return int(total) if total.denominator == 1 else total

    __call__ = evaluate

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in the integer Laurent polynomial ring.

        Raises ExactDivisionError unless other * q == self for some integer
        Laurent polynomial q.  Used as a correctness tripwire: every
        division performed by this package is exact by theorem, so a failure
        means corrupted input or an upstream bug.
        """
        if not other.terms:
            raise ExactDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly.zero(self.var)
        bv = other.valuation
        b0 = other.terms[bv]
        hi = self.degree - other.degree
        rem = dict(self.terms)
        quot: dict[int, int] = {}
        while rem:
            v = min(rem)
            e = v - bv
            if e > hi:
                raise ExactDivisionError(f"{other} does not divide {self}")
            c, r = divmod(rem[v], b0)
            if r:
                raise ExactDivisionError(
                    f"quotient of {self} by {other} is not integral"
                )
            quot[e] = c
            for be, bc in other.terms.items():
                ne = e + be
                nc = rem.get(ne, 0) - c * bc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return LaurentPoly(quot, self.var)

    def monomials(self) -> Monomials:
        """Variable names and (exponents, coefficient) pairs, ascending."""
        return (self.var,), [((e,), c) for e, c in sorted(self.terms.items())]

    __str__ = render

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self.terms.items()))!r}, var={self.var!r})"


class BiLaurentPoly:
    """Integer Laurent polynomial in two variables (x and y by default).

    Every bigraded series in the package is a sum of products of a
    polynomial in x and a polynomial in y, so one is built from a term map
    or by sum_of_products, and there is no ring arithmetic."""

    __slots__ = ("terms", "xvar", "yvar")

    def __init__(
        self,
        terms: Mapping[tuple[int, int], int] | None = None,
        xvar: str = "x",
        yvar: str = "y",
    ):
        self.terms = {k: c for k, c in terms.items() if c != 0} if terms else {}
        self.xvar = xvar
        self.yvar = yvar

    @classmethod
    def sum_of_products(
        cls, triples: Iterable[tuple[int, LaurentPoly, LaurentPoly]]
    ) -> "BiLaurentPoly":
        """sum of c * f(x) * g(y) over (c, f, g) triples, by Kronecker packing.

        Every y-exponent of every g lies on the lattice ylo + step * k.  Each
        g becomes one int with a digit of 8 * width bits per lattice point,
        each x-exponent accumulates the row sum of c * f[xe] * G, and every
        row is decoded once, into signed digits, by _signed_digits.

        No digit can wrap: an output coefficient is at most
        sum |c| * max|f| * max|g| in absolute value, and a digit holds one
        sign bit more than that bound (_digit_bytes).  As a tripwire each row
        must lie in its digit range and its digits must sum to
        sum c * f[xe] * g(1): a wrapped digit carries into its neighbour,
        which moves the digit sum by a multiple of 2**(8 * width) - 1, and
        raises AssertionError.  (Carries of both signs could cancel in the
        sum; carries into nonnegative coefficients, as in every series of
        this package, cannot.)"""
        live = [(c, f.terms, g.terms) for c, f, g in triples if c and f.terms and g.terms]
        if not live:
            return cls()
        ys = set().union(*(g for _, _, g in live))
        ylo = min(ys)
        step = gcd(*(e - ylo for e in ys)) or 1
        length = (max(ys) - ylo) // step + 1
        width = _digit_bytes(
            sum(
                abs(c) * max(map(abs, f.values())) * max(map(abs, g.values()))
                for c, f, g in live
            )
        )
        bits = 8 * width
        rows: dict[int, int] = {}
        sums: dict[int, int] = {}
        for c, f, g in live:
            packed = sum(gc << bits * ((ye - ylo) // step) for ye, gc in g.items())
            g1 = sum(g.values())
            for xe, fc in f.items():
                k = c * fc
                rows[xe] = rows.get(xe, 0) + k * packed
                sums[xe] = sums.get(xe, 0) + k * g1
        ys = range(ylo, ylo + step * length, step)
        out: dict[tuple[int, int], int] = {}
        for xe, row in rows.items():
            digits = _signed_digits(row, width, length)
            if sum(digits) != sums[xe]:
                raise AssertionError(f"packed row of x^{xe} wrapped a digit")
            out.update(zip(zip(repeat(xe), ys), digits))
        return cls(out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiLaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def shift(self, dx: int, dy: int) -> "BiLaurentPoly":
        """Multiply by xvar**dx * yvar**dy."""
        return BiLaurentPoly(
            {(x + dx, y + dy): c for (x, y), c in self.terms.items()},
            self.xvar,
            self.yvar,
        )

    def evaluate(self, xvalue: Scalar, yvalue: Scalar) -> Scalar:
        xpower = _power(xvalue, (xe for xe, _ in self.terms))
        ypower = _power(yvalue, (ye for _, ye in self.terms))
        total = sum(c * xpower(xe) * ypower(ye) for (xe, ye), c in self.terms.items())
        return int(total) if total.denominator == 1 else total

    __call__ = evaluate

    def monomials(self) -> Monomials:
        """Variable names and (exponents, coefficient) pairs, ascending."""
        return (self.xvar, self.yvar), sorted(self.terms.items())

    __str__ = render

    def __repr__(self) -> str:
        return f"BiLaurentPoly({dict(sorted(self.terms.items()))!r})"


class TruncatedSeries:
    """Power series with nonnegative exponents, exact up to a truncation order.

    coefficients[m] is the coefficient of var**m for 0 <= m <= order.  A
    value type with no arithmetic: divide_one_minus works on the list.
    """

    __slots__ = ("coefficients", "var")

    def __init__(self, coefficients: Sequence[int], var: str = "y"):
        if len(coefficients) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        self.coefficients = list(coefficients)
        self.var = var

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def from_poly(cls, p: LaurentPoly, order: int, var: str | None = None) -> "TruncatedSeries":
        """Truncate a polynomial with nonnegative exponents to the given order."""
        if type(order) is not int:  # bool is not an order
            raise TypeError(f"truncation order must be an int, not {type(order).__name__}")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if p.terms and p.valuation < 0:
            raise ValueError("cannot truncate a polynomial with negative exponents")
        coeffs = [0] * (order + 1)
        for e, c in p.terms.items():
            if e <= order:
                coeffs[e] = c
        return cls(coeffs, var if var is not None else p.var)

    def coeff(self, m: int) -> int:
        if m < 0 or m > self.order:
            raise ValueError(f"coefficient {m} outside truncation order {self.order}")
        return self.coefficients[m]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coefficients == other.coefficients
        return NotImplemented

    def monomials(self) -> Monomials:
        """Variable name and the nonzero (exponent, coefficient) pairs, ascending."""
        return (self.var,), [((e,), c) for e, c in enumerate(self.coefficients) if c != 0]

    __str__ = render

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coefficients!r}, var={self.var!r})"


def divide_one_minus(coeffs: Iterable[int], exponents: Iterable[int]) -> list[int]:
    """The power series with coefficient list coeffs (constant term first)
    divided by prod_e (1 - var**e), to the same order, as a new list.

    Multiplying by 1/(1 - var**e) is a prefix sum along each residue
    class mod e, so each factor costs one accumulate per residue."""
    exponents = list(exponents)
    _check_exponents(exponents)
    coeffs = list(coeffs)
    for e in exponents:
        for r in range(min(e, len(coeffs))):
            coeffs[r::e] = accumulate(coeffs[r::e])
    return coeffs


def q_quotient_coefficients(
    numerator: Iterable[int], denominator: Iterable[int], var: str = "q", base: Sequence[int] = (1,)
) -> list[int]:
    """base * prod_a (1 - var**a) / prod_b (1 - var**b) over the two exponent
    multisets, as the coefficient list of a polynomial (constant term
    first); ExactDivisionError unless the quotient is one.

    The numerator is expanded on one dense coefficient list (the base, by
    default 1), one slice subtraction per factor, and divided as a power
    series to its own degree by divide_one_minus."""
    numerator, denominator = list(numerator), list(denominator)
    _check_exponents(numerator + denominator)
    t = len(base) - 1
    top = t + sum(numerator)
    coeffs = [*base] + [0] * (top - t)
    for a in numerator:  # times (1 - var**a): c[k] -= c[k - a], old values
        t += a
        coeffs[a : t + 1] = map(sub, coeffs[a : t + 1], coeffs[: t + 1 - a])
    series = divide_one_minus(coeffs, denominator)
    # S = N/D mod var**(deg N + 1).  If S has degree at most deg N - deg D,
    # then S * D has degree at most deg N and agrees with N mod
    # var**(deg N + 1), so S * D = N exactly; if D divides N, the quotient
    # is S and has that degree.  So a nonzero tail means D does not divide N.
    degree = top - sum(denominator)
    if degree < 0 or any(series[degree + 1 :]):
        raise ExactDivisionError(
            f"prod (1 - {var}^b), b in {denominator}, does not divide"
            f" {'the base times ' if len(base) > 1 else ''}prod (1 - {var}^a), a in {numerator}"
        )
    return series[: degree + 1]


def q_quotient(numerator: Iterable[int], denominator: Iterable[int], var: str = "q") -> LaurentPoly:
    """q_quotient_coefficients as a LaurentPoly in var."""
    return LaurentPoly.from_coefficients(q_quotient_coefficients(numerator, denominator, var), var)
