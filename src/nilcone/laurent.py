"""Exact arithmetic for integer Laurent polynomials and truncated power series.

Coefficients are Python ints throughout, so all operations are exact; there
is no floating point anywhere.  A polynomial, LaurentPoly in one variable
or BiLaurentPoly in x and y, is a map from exponent (a pair of them in x
and y) to coefficient, and one value rule holds for both: the map holds no
zero coefficient, two polynomials of one class are equal when their maps
are, a LaurentPoly never equals a BiLaurentPoly, and a constant equals its
int and hashes like it.  A polynomial is immutable, its map read-only (a
MappingProxyType) and its attributes not rebindable, so no caller can
change a memoised value and the package shares them as they are.
Negative exponents are allowed everywhere (the weight gradings computed
downstream genuinely produce them).  Exponents and coefficients are ints,
not bools: the public constructors, and the methods that take an exponent
(coeff, shift, substitute_power), refuse anything else by name, and the
package builds its own values unchecked.

Products of cyclotomic-type factors, prod_a (1 - var**a) / prod_b
(1 - var**b), are divided once, as integers at var = B = 2**bits
(Kronecker substitution): _at_base builds each product by shifts and
subtractions, and _signed_digits decodes the quotient.  _at_base is a
shared kernel: q_quotient_coefficients (the q-hook fake degrees and the
labels of the exceptional Weyl-group classes), weyl._class_characters
and the hook numerator of springer.py's W-algebra series all divide
through it, and q_quotient_coefficients holds the argument
that makes an exact division at B exact in var.  divide_one_minus, the
strided prefix sums, builds the degree series 1 / prod_{d=2..n} (1 -
u**d), which springer.py memoises packed, once per n and length, and
shares across the W-algebra series of every Jordan type of n.

Bivariate polynomials are sums of products f(x) * g(y), and every one the
package builds is summed as packed rows: each g(y) is one int (Kronecker
substitution, a digit per y-exponent on a lattice) and one row is summed
per x-exponent.  springer.py packs the fake degrees of its Springer-fiber
and cone series, and _packed_rows decodes those rows into a BiLaurentPoly
with a digit-sum tripwire per row; weyl.py's one class-average kernel,
_class_averages, sums and decodes the rows of the Molien flag series
itself, as it does each fake degree.  They have no ring
arithmetic, only shifts; the value at (1, 1) is the sum of the
coefficients.

One codec, written here alone, serves every Kronecker-packed int: one
encoder, _packed, and one decoder, _signed_digits, its inverse.  Both
work in C on two's-complement digits in the value's bytes, in native byte
order, at 1, 2, 4 or 8 bytes a digit (array and memoryview.cast; to_bytes
and from_bytes slices for wider digits), and an XOR with the digit offset
turns those bytes into the value and back.  _packed packs springer.py's
degree series and the characters that weyl._class_averages re-packs at a
wider digit.  _signed_digits decodes the rows of _packed_rows, the
t -> 2**bits entries of the Jing column in kostka.py, every q-quotient
(q_quotient_coefficients and weyl.py's class characters), the W-algebra
series (one product of packed ints each), and the Molien class averages
of weyl._class_averages (each fake degree and each row of the flag
series); a value its digits cannot hold raises AssertionError.  The
caller sizes the digit (_digit_bytes) from a bound on the coefficients
it packs.

Grading convention used across the package: a graded vector space shifted
down by d (written V[-d]) has its Hilbert series multiplied by var**d.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import comb, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Monomials = tuple[tuple[str, ...], list[tuple[tuple[int, ...], int]]]


class ExactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


def _check_exponents(exponents: list[int]) -> None:
    for e in exponents:
        if type(e) is not int:  # bool is not an exponent
            raise TypeError(f"factor exponents must be ints, not {type(e).__name__}")
        if e < 1:
            raise ValueError("all factor exponents must be positive")


def _check_ints(owner: str, *values: object) -> None:
    for v in values:
        if type(v) is not int:  # bool is not an exponent
            raise TypeError(f"{owner} needs an int, not {type(v).__name__}")


def _check_var(owner: str, var: object) -> None:
    if type(var) is not str:
        raise TypeError(f"{owner} variable name must be a str, not {type(var).__name__}")


# array and memoryview.cast formats of the signed machine ints, by width in bytes
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


def _packed(digits: Sequence[int], width: int) -> int:
    """sum_k digits[k] 2**(8 * width * k), the inverse of _signed_digits on
    its digit range, in linear time: the digits are written as
    two's-complement machine ints, by an array of the _SIGNED format (by
    int.to_bytes for a wider width), and read back in native byte order as
    one unsigned U, which is value + offset with each digit's top bit
    flipped, so (U ^ offset) - offset is the value.  array is imported
    here, so that a process loads it only when it packs."""
    from array import array

    if sys.byteorder == "big":  # the top digit's bytes go first
        digits = digits[::-1]
    fmt = _SIGNED.get(width)
    if fmt:
        buf = array(fmt, digits)
    else:
        buf = b"".join(d.to_bytes(width, sys.byteorder, signed=True) for d in digits)
    offset = _digit_offset(width, len(digits))
    return (int.from_bytes(buf, sys.byteorder) ^ offset) - offset


def _packed_rows(
    rows: Mapping[int, int], sums: Mapping[int, int], width: int, ylo: int, step: int, count: int
) -> "BiLaurentPoly":
    """sum over xe of x**xe * sum_k d_k y**(ylo + step * k), where d_k
    are the count digits of width bytes of rows[xe] (_signed_digits).

    The caller sizes width from a bound on the coefficients it packs, so no
    digit can wrap.  As a tripwire each row must lie in its digit range and
    its digits must sum to sums[xe], the row's value at y = 1: a wrapped
    digit carries into its neighbour, which moves the digit sum by a
    multiple of 2**(8 * width) - 1, and raises AssertionError.  (Carries of
    both signs could cancel in the sum; carries into nonnegative
    coefficients, as in every series of this package, cannot.)"""
    ys = range(ylo, ylo + step * count, step)
    out: dict[tuple[int, int], int] = {}
    for xe, row in rows.items():
        digits = _signed_digits(row, width, count)
        if sum(digits) != sums[xe]:
            raise AssertionError(f"packed row of x^{xe} wrapped a digit")
        out.update(compress(zip(zip(repeat(xe), ys), digits), digits))
    return BiLaurentPoly._from_clean(out)


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


def _clean_terms(terms: object, owner: str, exponents: str, valid) -> dict:
    """terms, which enter from outside, less their zero coefficients:
    TypeError, naming owner and the type received, unless terms is None or
    a Mapping from exponents that valid accepts to ints (bool is neither)."""
    if terms is None:
        return {}
    if not isinstance(terms, Mapping):
        raise TypeError(f"{owner} terms must be a Mapping, not {type(terms).__name__}")
    for e, c in terms.items():
        if not valid(e):
            kind = type(e).__name__
            if kind == "tuple":  # name the entries' types: a pair of a float and an int
                kind = f"({', '.join(type(x).__name__ for x in e)})"
            raise TypeError(f"{owner} terms need {exponents} exponents, not {kind}")
        if type(c) is not int:
            raise TypeError(f"{owner} terms need int coefficients, not {type(c).__name__}")
    return {e: c for e, c in terms.items() if c}


def _is_pair(e: object) -> bool:
    return type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int


class _TermMap:
    """The value rule of the module docstring; _ONE keys the constant term."""

    __slots__ = ("terms",)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({self._ONE: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        if self.terms.keys() <= {self._ONE}:
            return hash(self.terms.get(self._ONE, 0))
        return hash(frozenset(self.terms.items()))

    __str__ = render


class LaurentPoly(_TermMap):
    """Integer Laurent polynomial in one variable.

    The variable name is display metadata only: arithmetic and equality look
    at the term map alone.  substitute_power, shift and with_var map the
    exponents one-to-one, so a clean term map stays clean: they build
    through _from_clean and strip no zeros again.  Only the constructor and
    from_coefficients check their terms, and the public builders their
    variable name; the arithmetic builds through _from_clean.
    """

    __slots__ = ("var",)
    _ONE = 0

    def __init__(self, terms: Mapping[int, int] | None = None, var: str = "t"):
        terms = _clean_terms(terms, "LaurentPoly", "int", lambda e: type(e) is int)
        _check_var("LaurentPoly", var)
        _set_terms(self, MappingProxyType(terms))
        _set_var(self, var)

    @classmethod
    def zero(cls, var: str = "t") -> "LaurentPoly":
        _check_var("LaurentPoly.zero", var)
        return cls._from_clean({}, var)

    @classmethod
    def one(cls, var: str = "t") -> "LaurentPoly":
        _check_var("LaurentPoly.one", var)
        return cls._from_clean({0: 1}, var)

    @classmethod
    def _from_clean(cls, terms: dict[int, int], var: str) -> "LaurentPoly":
        """A polynomial that owns terms, which must hold no zero coefficient."""
        poly = cls.__new__(cls)
        _set_terms(poly, MappingProxyType(terms))
        _set_var(poly, var)
        return poly

    def __reduce__(self):
        return LaurentPoly, (dict(self.terms), self.var)

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[int], var: str = "t") -> "LaurentPoly":
        """sum_e coeffs[e] * var**e, constant term first; the zeros are
        skipped as the term map is built, so it is not cleaned twice."""
        _check_var("LaurentPoly.from_coefficients", var)
        coeffs = list(coeffs)
        for c in coeffs:
            if type(c) is not int:  # bool is not a coefficient
                kind = type(c).__name__
                raise TypeError(f"LaurentPoly.from_coefficients needs int coefficients, not {kind}")
        return cls._from_clean({e: c for e, c in enumerate(coeffs) if c}, var)

    def coeff(self, exponent: int) -> int:
        _check_ints("LaurentPoly.coeff", exponent)
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
        _check_var("LaurentPoly.with_var", var)
        return LaurentPoly._from_clean(dict(self.terms), var)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._from_clean({e: -c for e, c in self.terms.items()}, self.var)

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly._from_clean({0: other}, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c  # an int, even where c is a bool
        return LaurentPoly._from_clean({e: c for e, c in out.items() if c}, self.var)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return LaurentPoly._from_clean(terms, self.var)
        if not isinstance(other, LaurentPoly):
            return NotImplemented  # a BiLaurentPoly or TruncatedSeries has no product
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._from_clean({e: c for e, c in out.items() if c}, self.var)

    __rmul__ = __mul__

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute var -> var**k, i.e. scale every exponent by k.

        k = 0 is rejected: collapsing all exponents is not a ring
        endomorphism of the Laurent polynomial ring.
        """
        _check_ints("LaurentPoly.substitute_power", k)
        if k == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        return LaurentPoly._from_clean({k * e: c for e, c in self.terms.items()}, self.var)

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by var**d (the Hilbert series of a shift by -d)."""
        _check_ints("LaurentPoly.shift", d)
        return LaurentPoly._from_clean({e + d: c for e, c in self.terms.items()}, self.var)

    def monomials(self) -> Monomials:
        """Variable names and (exponents, coefficient) pairs, ascending."""
        return (self.var,), [((e,), c) for e, c in sorted(self.terms.items())]

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self.terms.items()))!r}, var={self.var!r})"


class BiLaurentPoly(_TermMap):
    """Integer Laurent polynomial in x and y.

    Every bigraded series in the package is a sum of products of a
    polynomial in x and a polynomial in y, so one is built from a term map
    or from packed rows (_packed_rows), and there is no ring arithmetic."""

    __slots__ = ()
    _ONE = (0, 0)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        terms = _clean_terms(terms, "BiLaurentPoly", "(int, int)", _is_pair)
        _set_terms(self, MappingProxyType(terms))

    @classmethod
    def _from_clean(cls, terms: dict) -> "BiLaurentPoly":
        """A polynomial that owns terms, which must hold no zero coefficient."""
        poly = cls.__new__(cls)
        _set_terms(poly, MappingProxyType(terms))
        return poly

    def __reduce__(self):
        return BiLaurentPoly, (dict(self.terms),)

    def shift(self, dx: int, dy: int) -> "BiLaurentPoly":
        """Multiply by x**dx * y**dy."""
        _check_ints("BiLaurentPoly.shift", dx, dy)
        return BiLaurentPoly._from_clean({(x + dx, y + dy): c for (x, y), c in self.terms.items()})

    def monomials(self) -> Monomials:
        """Variable names and (exponents, coefficient) pairs, ascending."""
        return ("x", "y"), sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"BiLaurentPoly({dict(sorted(self.terms.items()))!r})"


# the constructors write through the slots' own setters, which bypass __setattr__
_set_terms, _set_var = _TermMap.terms.__set__, LaurentPoly.var.__set__


class TruncatedSeries:
    """Power series with nonnegative exponents, exact up to a truncation order.

    coefficients[m] is the coefficient of var**m for 0 <= m <= order.  A
    value type with no arithmetic: divide_one_minus works on the list.
    Immutable, as the polynomials are: no attribute can be rebound, and
    coefficients hands out a new list, so no reader alters the stored one.
    """

    __slots__ = ("_coefficients", "var")

    def __init__(self, coefficients: Sequence[int], var: str = "y"):
        if isinstance(coefficients, str) or not isinstance(coefficients, Sequence):
            kind = type(coefficients).__name__
            raise TypeError(f"TruncatedSeries coefficients must be a Sequence of ints, not {kind}")
        for c in coefficients:
            if type(c) is not int:  # bool is not a coefficient
                raise TypeError(f"TruncatedSeries coefficients must be ints, not {type(c).__name__}")
        if len(coefficients) == 0:
            raise ValueError("a truncated series needs at least its constant term")
        _check_var("TruncatedSeries", var)
        _set_coeffs(self, list(coefficients))
        _set_series_var(self, var)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TruncatedSeries is immutable: cannot assign {name}")

    @classmethod
    def _from_clean(cls, coefficients: list[int], var: str) -> "TruncatedSeries":
        """A series that owns coefficients, a nonempty list of ints."""
        series = cls.__new__(cls)
        _set_coeffs(series, coefficients)
        _set_series_var(series, var)
        return series

    def __reduce__(self):
        return TruncatedSeries, (self._coefficients, self.var)

    @property
    def coefficients(self) -> list[int]:
        """A new list of the coefficients, constant term first."""
        return list(self._coefficients)

    @property
    def order(self) -> int:
        return len(self._coefficients) - 1

    @classmethod
    def from_poly(cls, p: LaurentPoly, order: int) -> "TruncatedSeries":
        """Truncate a polynomial with nonnegative exponents to the given
        order, in its variable."""
        if not isinstance(p, LaurentPoly):
            raise TypeError(f"TruncatedSeries.from_poly needs a LaurentPoly, not {type(p).__name__}")
        _check_order(order)
        if p.terms and p.valuation < 0:
            raise ValueError("cannot truncate a polynomial with negative exponents")
        coeffs = [0] * (order + 1)
        for e, c in p.terms.items():
            if e <= order:
                coeffs[e] = c
        return cls._from_clean(coeffs, p.var)

    def coeff(self, m: int) -> int:
        _check_ints("TruncatedSeries.coeff", m)
        if m < 0 or m > self.order:
            raise ValueError(f"coefficient {m} outside truncation order {self.order}")
        return self._coefficients[m]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self._coefficients == other._coefficients
        return NotImplemented

    def monomials(self) -> Monomials:
        """Variable name and the nonzero (exponent, coefficient) pairs, ascending."""
        return (self.var,), [((e,), c) for e, c in enumerate(self._coefficients) if c != 0]

    __str__ = render

    def __repr__(self) -> str:
        return f"TruncatedSeries({self._coefficients!r}, var={self.var!r})"


# as for the polynomials, the constructors write through the slot setters
_set_coeffs, _set_series_var = TruncatedSeries._coefficients.__set__, TruncatedSeries.var.__set__


def _check_order(order: object) -> None:
    """A truncation order is a nonnegative int."""
    if type(order) is not int:  # bool is not an order
        raise TypeError(f"truncation order must be an int, not {type(order).__name__}")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")


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


def _at_base(exponents: Iterable[int], bits: int) -> int:
    """prod_e (1 - B**e) at B = 2**bits, one shift and subtraction per factor."""
    value = 1
    for e in exponents:
        value -= value << bits * e
    return value


def q_quotient_coefficients(
    numerator: Iterable[int], denominator: Iterable[int], var: str = "q"
) -> list[int]:
    """prod_a (1 - var**a) / prod_b (1 - var**b) over the two exponent
    multisets, as the coefficient list of a polynomial (constant term
    first); ExactDivisionError unless the quotient is one.

    One integer division at var = B = 2**(8 * width): S, the quotient of
    the two _at_base products, decoded once into degree + 1 digits by
    _signed_digits.  A remainder at B, or a negative degree, means that no
    quotient exists.  S is the quotient in var when max|S| 2**len(b) fits a
    digit: then S * prod (1 - var**b), with coefficients at most that, and
    prod (1 - var**a), with coefficients at most 2**len(a), have every
    coefficient below B/2 and agree at B, so they have the same base-B
    digits and are equal.

    The first width holds 2**len(a) and Q(1) 2**len(b), where Q(1) is
    prod a // prod b when the two multisets have equal length (the
    quotient's value at 1, f^lam for a q-hook, so the largest coefficient
    of a quotient with none negative) and 1 otherwise.  A width that fails
    is doubled until it holds top 2**len(b), top = 2**len(a)
    C(degree + len(b), len(b)): the coefficients of 1 / (1 - var)**len(b)
    bound those of 1 / prod (1 - var**b) termwise, so no quotient has a
    coefficient above top, and one would pass there."""
    numerator, denominator = list(numerator), list(denominator)
    _check_exponents(numerator + denominator)
    degree = sum(numerator) - sum(denominator)
    at_one = prod(numerator) // prod(denominator) if len(numerator) == len(denominator) else 1
    width = _digit_bytes(max(at_one << len(denominator), 1 << len(numerator)))
    while degree >= 0:
        bits = 8 * width
        quotient, remainder = divmod(_at_base(numerator, bits), _at_base(denominator, bits))
        if remainder:
            break
        try:
            digits = _signed_digits(quotient, width, degree + 1)
        except AssertionError:  # the quotient at B overflows degree + 1 digits
            digits = []
        if digits and _digit_bytes(max(map(abs, digits)) << len(denominator)) <= width:
            return digits
        top = comb(degree + len(denominator), len(denominator)) << len(numerator)
        if width >= _digit_bytes(top << len(denominator)):
            break
        width *= 2
    raise ExactDivisionError(
        f"prod (1 - {var}^b), b in {denominator}, does not divide"
        f" prod (1 - {var}^a), a in {numerator}"
    )


def q_quotient(numerator: Iterable[int], denominator: Iterable[int], var: str = "q") -> LaurentPoly:
    """q_quotient_coefficients as a LaurentPoly in var."""
    _check_var("q_quotient", var)
    coeffs = q_quotient_coefficients(numerator, denominator, var)
    return LaurentPoly._from_clean({e: c for e, c in enumerate(coeffs) if c}, var)
