"""Exact arithmetic for integer Laurent polynomials and truncated power series.

Coefficients are Python ints throughout, so all operations are exact; there
is no floating point anywhere.  A polynomial is stored as a map from integer
exponent to nonzero coefficient, with zero coefficients stripped eagerly, so
equality of polynomials is equality of term maps.  Negative exponents are
allowed everywhere (the weight gradings computed downstream genuinely
produce them).

Grading convention used across the package: a graded vector space shifted
down by d (written V[-d]) has its Hilbert series multiplied by var**d.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Monomials = tuple[tuple[str, ...], list[tuple[tuple[int, ...], int]]]


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


def _clean(terms: Mapping[int, int]) -> dict[int, int]:
    return {e: c for e, c in terms.items() if c != 0}


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
    def monomial(cls, exponent: int, coeff: int = 1, var: str = "t") -> "LaurentPoly":
        return cls({exponent: coeff}, var)

    def is_zero(self) -> bool:
        return not self.terms

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
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()}, self.var)

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other}, self.var)
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
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPoly.one(self.var)
        for _ in range(n):
            result = result * self
        return result

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
        """Evaluate at an integer or Fraction, exactly."""
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * Fraction(value) ** e
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
            c = Fraction(rem[v], b0)
            if c.denominator != 1:
                raise ExactDivisionError(
                    f"quotient of {self} by {other} is not integral"
                )
            c = int(c)
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
    """Integer Laurent polynomial in two variables (x and y by default)."""

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
    def zero(cls) -> "BiLaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "BiLaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, xe: int, ye: int, coeff: int = 1) -> "BiLaurentPoly":
        return cls({(xe, ye): coeff})

    @classmethod
    def from_x(cls, p: LaurentPoly, xvar: str = "x", yvar: str = "y") -> "BiLaurentPoly":
        """Embed a univariate polynomial as a polynomial in the first variable."""
        return cls({(e, 0): c for e, c in p.terms.items()}, xvar, yvar)

    @classmethod
    def from_y(cls, p: LaurentPoly, xvar: str = "x", yvar: str = "y") -> "BiLaurentPoly":
        """Embed a univariate polynomial as a polynomial in the second variable."""
        return cls({(0, e): c for e, c in p.terms.items()}, xvar, yvar)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, xe: int, ye: int) -> int:
        return self.terms.get((xe, ye), 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiLaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "BiLaurentPoly":
        return BiLaurentPoly({k: -c for k, c in self.terms.items()}, self.xvar, self.yvar)

    def __add__(self, other: "BiLaurentPoly | int") -> "BiLaurentPoly":
        if isinstance(other, int):
            other = BiLaurentPoly({(0, 0): other})
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiLaurentPoly(out, self.xvar, self.yvar)

    __radd__ = __add__

    def __sub__(self, other: "BiLaurentPoly | int") -> "BiLaurentPoly":
        return self + (-other)

    def __mul__(self, other: "BiLaurentPoly | int") -> "BiLaurentPoly":
        if isinstance(other, int):
            return BiLaurentPoly(
                {k: c * other for k, c in self.terms.items()}, self.xvar, self.yvar
            )
        out: dict[tuple[int, int], int] = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                k = (x1 + x2, y1 + y2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiLaurentPoly(out, self.xvar, self.yvar)

    __rmul__ = __mul__

    def shift(self, dx: int, dy: int) -> "BiLaurentPoly":
        """Multiply by xvar**dx * yvar**dy."""
        return BiLaurentPoly(
            {(x + dx, y + dy): c for (x, y), c in self.terms.items()},
            self.xvar,
            self.yvar,
        )

    def set_x(self, value: Scalar = 1) -> LaurentPoly:
        """Specialize the first variable; a ring map onto polynomials in y."""
        out: dict[int, int] = {}
        for (xe, ye), c in self.terms.items():
            v = c * Fraction(value) ** xe
            if v.denominator != 1:
                raise ValueError("specialization produced a non-integer coefficient")
            out[ye] = out.get(ye, 0) + int(v)
        return LaurentPoly(out, self.yvar)

    def set_y(self, value: Scalar = 1) -> LaurentPoly:
        """Specialize the second variable; a ring map onto polynomials in x."""
        out: dict[int, int] = {}
        for (xe, ye), c in self.terms.items():
            v = c * Fraction(value) ** ye
            if v.denominator != 1:
                raise ValueError("specialization produced a non-integer coefficient")
            out[xe] = out.get(xe, 0) + int(v)
        return LaurentPoly(out, self.xvar)

    def evaluate(self, xvalue: Scalar, yvalue: Scalar) -> Scalar:
        total = Fraction(0)
        for (xe, ye), c in self.terms.items():
            total += c * Fraction(xvalue) ** xe * Fraction(yvalue) ** ye
        return int(total) if total.denominator == 1 else total

    __call__ = evaluate

    def monomial_ratio(self, other: "BiLaurentPoly") -> tuple[int, int] | None:
        """Exponent pair (dx, dy) with self == x**dx * y**dy * other, if one exists."""
        if len(self.terms) != len(other.terms):
            return None
        if not self.terms:
            return (0, 0)
        (sx, sy) = min(self.terms)
        (ox, oy) = min(other.terms)
        dx, dy = sx - ox, sy - oy
        shifted = {(x + dx, y + dy): c for (x, y), c in other.terms.items()}
        return (dx, dy) if shifted == self.terms else None

    def monomials(self) -> Monomials:
        """Variable names and (exponents, coefficient) pairs, ascending."""
        return (self.xvar, self.yvar), sorted(self.terms.items())

    __str__ = render

    def __repr__(self) -> str:
        return f"BiLaurentPoly({dict(sorted(self.terms.items()))!r})"


class TruncatedSeries:
    """Power series with nonnegative exponents, exact up to a truncation order.

    coefficients[m] is the coefficient of var**m for 0 <= m <= order.
    Arithmetic between two series truncates to the smaller order.
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
    def one(cls, order: int, var: str = "y") -> "TruncatedSeries":
        return cls([1] + [0] * order, var)

    @classmethod
    def from_poly(cls, p: LaurentPoly, order: int, var: str | None = None) -> "TruncatedSeries":
        """Truncate a polynomial with nonnegative exponents to the given order."""
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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        t = min(self.order, other.order)
        return TruncatedSeries(
            [self.coefficients[m] + other.coefficients[m] for m in range(t + 1)],
            self.var,
        )

    def __mul__(self, other: "TruncatedSeries | LaurentPoly | int") -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries([c * other for c in self.coefficients], self.var)
        if isinstance(other, LaurentPoly):
            other = TruncatedSeries.from_poly(other, self.order, self.var)
        t = min(self.order, other.order)
        # A polynomial operand has few nonzero terms: looping over them
        # outside costs terms * order, not order**2 / 2.
        outer = [(i, a) for i, a in enumerate(self.coefficients[: t + 1]) if a]
        inner = [(j, b) for j, b in enumerate(other.coefficients[: t + 1]) if b]
        if len(inner) < len(outer):
            outer, inner = inner, outer
        coeffs = [0] * (t + 1)
        for i, a in outer:
            for j, b in inner:
                if i + j > t:
                    break
                coeffs[i + j] += a * b
        return TruncatedSeries(coeffs, self.var)

    __rmul__ = __mul__

    def monomials(self) -> Monomials:
        """Variable name and the nonzero (exponent, coefficient) pairs, ascending."""
        return (self.var,), [((e,), c) for e, c in enumerate(self.coefficients) if c != 0]

    __str__ = render

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coefficients!r}, var={self.var!r})"


def series_invert_product(exponents: Iterable[int], truncation: int) -> TruncatedSeries:
    """Expand prod_i (1 - y**e_i)**(-1) up to the truncation order.

    The coefficient of y**m counts the multiset partitions of m into parts
    drawn from `exponents`, each part reusable (repeated exponents give
    independent part types).
    """
    if truncation < 0:
        raise ValueError("truncation order must be nonnegative")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    for e in exponents:
        if e < 1:
            raise ValueError("all factor exponents must be positive")
        for m in range(e, truncation + 1):
            coeffs[m] += coeffs[m - e]
    return TruncatedSeries(coeffs)
