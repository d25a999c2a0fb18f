"""Exact rational arithmetic, polynomials in u and v, and definite integration.

Everything in this package reduces to arithmetic over the rationals.  The
scalar type is :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator), serialized as ``p/q`` or ``p`` text:
ASCII digits with one optional leading ``-``, nothing else.

One polynomial type, :class:`Poly`, covers all parameter dependence that
occurs downstream: a dense polynomial in ``u`` and ``v`` with rational
coefficients, stored as rows of integer numerators over one common
denominator, so that its arithmetic runs on Python ints and builds no
Fraction per coefficient.  Integration runs on the same integer tables,
with one Fraction at the end of each integral.  That table format lives here
alone: ``_tables`` reads Poly and scalar coefficients as tables over one
denominator, and ``_affine``, the package's one test of "affine in u", as
(c0 + c1 u) / den in integers; ``_add_product``, the one product of tables,
serves ``Poly.__mul__`` and every pairing of :mod:`divstab.lattice`.  A
polynomial in one variable is the same type; ``p.coeffs`` and ``p(x)`` read it
along the variable it depends on.  Arithmetic takes ``int`` and ``Fraction``
operands directly.  Degrees stay tiny (at most 4), so dense storage is the
simple choice.

Chamber breakpoints are the roots of polynomials of degree <= 2 along their
one variable (:func:`rational_roots`, in closed form on the integer
numerators), and every breakpoint that legitimately occurs is rational; an
irrational one is reported as a hard error rather than approximated.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import chain, zip_longest
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Coeff = Union[Fraction, "Poly"]

_ZERO = Fraction(0)


class IrrationalBreakpointError(ArithmeticError):
    """A quadratic with real roots that are not rational (no breakpoint is)."""


class InvalidRegionError(ValueError):
    """Integration bounds are out of order somewhere on the u-interval."""


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` text: ASCII digits, one optional leading ``-``.

    Nothing else is a rational: no whitespace, ``+``, decimals, digit-group
    underscores, other scripts' digits or signed denominators.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"malformed rational {text!r}")
    return Fraction(int(num), int(den or 1))


def format_rational(q: Fraction) -> str:
    """Serialize an exact scalar as ``p/q`` or ``p``."""
    q = _as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


def _homogeneous(coeffs: Sequence[int], p: int, q: int) -> int:
    """``q^d * c(p/q)`` for integer coefficients c of length d + 1, by Horner's rule."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(map(operator.mul, a, b))


def _integers(rows) -> tuple[int, list[list[int]]]:
    """Rows of rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _lin(x: Sequence[int], a: int, y: Sequence[int], b: int) -> list[int]:
    """``a x + b y`` for integer sequences, the shorter padded with zeros."""
    return [c * a + d * b for c, d in zip_longest(x, y, fillvalue=0)]


def _combine(x, a: int, y, b: int) -> list[list[int]]:
    """``a x + b y`` for integer tables, row by row."""
    return [_lin(rx, a, ry, b) for rx, ry in zip_longest(x, y, fillvalue=())]


def _add_product(acc: list[list[int]], w: int, x, y) -> None:
    """``acc += w x y`` in place for integer tables (rows over u, entries over
    v), growing ``acc`` as the product needs."""
    for _ in range(len(x) + len(y) - 1 - len(acc)):
        acc.append([])
    for i, rx in enumerate(x):
        for j, a in enumerate(rx):
            if a:
                a *= w
                for k, ry in enumerate(y, i):
                    row = acc[k]
                    if len(row) < j + len(ry):
                        row.extend([0] * (j + len(ry) - len(row)))
                    for l, b in enumerate(ry, j):
                        row[l] += a * b


def _tables(coeffs: Sequence[Union[Scalar, "Poly"]]) -> tuple[int, list]:
    """Coefficients as integer tables over one denominator: ``Poly.num``, or
    ``[[numerator]]`` for a Fraction or int (no rows for 0); else TypeError."""
    pairs = []
    for c in coeffs:
        if isinstance(c, Poly):
            pairs.append((c.num, c.den))
        elif isinstance(c, (int, Fraction)):
            pairs.append(([[c.numerator]] if c else [], c.denominator))
        else:
            raise TypeError(f"expected an exact scalar or a Poly, got {type(c).__name__}")
    den = math.lcm(*(d for _, d in pairs))
    return den, [t if d == den else [[x * (den // d) for x in row] for row in t]
                 for t, d in pairs]


def _affine(coeffs: Sequence[Union[Scalar, "Poly"]]) -> tuple[int, list[int], list[int]]:
    """Coefficients as ``(c0 + c1 u) / den`` in integers over one denominator:
    ``(den, c0s, c1s)``.  Any u^2 or v term is a ValueError naming the coefficient."""
    den, tables = _tables(coeffs)
    for c, t in zip(coeffs, tables):
        if len(t) > 2 or any(len(row) > 1 for row in t):
            raise ValueError(f"{c} is not affine in u")
    return (den, *([t[i][0] if i < len(t) and t[i] else 0 for t in tables] for i in (0, 1)))


class Poly:
    """Dense polynomial over Q in u and v: integer numerators over one denominator.

    The u^i v^j coefficient is ``num[i][j] / den``.  Each row of ``num`` is
    trimmed of trailing zeros, trailing empty rows are dropped, ``den > 0``
    and ``gcd(den, *nums) == 1``; so equal polynomials have equal
    ``(num, den)`` and the zero polynomial has no rows and ``den`` 1.
    Arithmetic runs on the integers and reduces each result once.  ``rows``
    is the same table as Fractions.  Instances are immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, rows: Iterable[Iterable[Scalar]] = ()):
        den, ints = _integers([[_as_fraction(c) for c in row] for row in rows])
        _reduce(ints, den, self)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def of(cls, x: Union[Scalar, "Poly"]) -> "Poly":
        """``x`` itself if it is a Poly, else the constant polynomial ``x``."""
        if isinstance(x, Poly):
            return x
        x = _as_fraction(x)
        return _reduce([[x.numerator]], x.denominator)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name == "u":
            return cls([[0], [1]])
        if name == "v":
            return cls([[0, 1]])
        raise ValueError(f"variable must be 'u' or 'v', got {name!r}")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """``rows[i][j]`` is the u^i v^j coefficient, trimmed as ``num`` is."""
        den = self.den
        return tuple(tuple(Fraction(c, den) for c in row) for row in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        num = self.num
        return not num or (len(num) == 1 and len(num[0]) <= 1)

    def coefficient(self, i: int, j: int) -> Fraction:
        """The coefficient of u^i v^j."""
        num = self.num
        if 0 <= i < len(num) and 0 <= j < len(num[i]):
            return Fraction(num[i][j], self.den)
        return _ZERO

    def _numerators(self) -> Sequence[int]:
        """Numerators along the one variable this polynomial depends on."""
        num = self.num
        if len(num) <= 1:
            return num[0] if num else ()
        if any(len(row) > 1 for row in num):
            raise ValueError(f"{format_poly(self)} depends on both u and v")
        return tuple(row[0] if row else 0 for row in num)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients along the one variable this polynomial depends on."""
        den = self.den
        return tuple(Fraction(c, den) for c in self._numerators())

    def __call__(self, x: Scalar, y: Scalar | None = None) -> Fraction:
        """``p(u, v)`` at a rational point, or ``p(x)`` along the one variable.

        Horner's rule on the integers, with one Fraction at the end.  Any
        other argument, a float included, is a :class:`TypeError`.
        """
        if y is not None:
            return self.subs_v(y)(x)
        x = _as_fraction(x)
        cs, q = self._numerators(), x.denominator
        return Fraction(_homogeneous(cs, x.numerator, q), self.den * q ** max(len(cs) - 1, 0))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            num = self.num
            if not num:
                return other == 0
            return (len(num) == 1 and len(num[0]) == 1 and num[0][0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.coefficient(0, 0))
        return hash((self.num, self.den))

    def __neg__(self) -> "Poly":
        return _reduce([[-c for c in row] for row in self.num], self.den)

    def _plus(self, other, sign: int):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.of(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        da, db = self.den, other.den
        g = math.gcd(da, db)
        return _reduce(_combine(self.num, db // g, other.num, sign * (da // g)), da // g * db)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        if not self.num or not other:
            return _ZERO_POLY
        if isinstance(other, Poly):
            out: list[list[int]] = []
            _add_product(out, 1, self.num, other.num)
            return _reduce(out, self.den * other.den)
        n = other.numerator
        return _reduce([[c * n for c in row] for row in self.num], self.den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.of(1)
        for _ in range(n):
            result = result * self
        return result

    def subs_u(self, u0: Scalar) -> "Poly":
        """Evaluate u, leaving a polynomial in v."""
        u0 = _as_fraction(u0)
        a, b = u0.numerator, u0.denominator
        acc: list[int] = []
        for k, row in enumerate(reversed(self.num)):
            acc = _lin(acc, a, row, b ** k)
        return _reduce([acc], self.den * b ** max(len(self.num) - 1, 0))

    def subs_v(self, v0: Scalar) -> "Poly":
        """Evaluate v, leaving a polynomial in u."""
        v0 = _as_fraction(v0)
        c, d, num = v0.numerator, v0.denominator, self.num
        width = max(map(len, num), default=1)
        return _reduce([[_homogeneous(row, c, d) * d ** (width - len(row))] for row in num],
                       self.den * d ** (width - 1))

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


_set_num = Poly.num.__set__
_set_den = Poly.den.__set__


def _reduce(table: list[list[int]], den: int, p: Poly | None = None) -> Poly:
    """Fill ``p`` (or a new Poly) with ``table / den``, trimmed and in lowest terms.

    The lists of ``table`` are consumed.
    """
    rows = []
    for row in table:
        while row and not row[-1]:
            row.pop()
        rows.append(tuple(row))
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        den = 1
    else:
        g = math.gcd(den, *chain.from_iterable(rows))
        if den < 0:
            g = -g
        if g != 1:
            rows = [tuple(c // g for c in row) for row in rows]
            den //= g
    if p is None:
        p = object.__new__(Poly)
    _set_num(p, tuple(rows))
    _set_den(p, den)
    return p


_ZERO_POLY = Poly()


def _definite(cs: Sequence[int], den: int, a: Fraction, b: Fraction) -> Fraction:
    """The integral from a to b of ``sum cs[k] x^k / den``, as one Fraction."""
    n, scale = len(cs), math.lcm(*range(1, len(cs) + 1))
    anti = [0] + [c * (scale // k) for k, c in enumerate(cs, 1)]
    (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
    return Fraction(_homogeneous(anti, r, s) * q ** n - _homogeneous(anti, p, q) * s ** n,
                    den * scale * (q * s) ** n)


def integrate_univariate(p: Poly, a: Scalar, b: Scalar) -> Fraction:
    """Exact definite integral of p between rational bounds, on the integer
    numerators of p with one Fraction at the end.

    ``a > b`` is allowed and yields the signed value, so orientation bugs
    surface as sign flips in downstream golden comparisons.
    """
    return _definite(p._numerators(), p.den, _as_fraction(a), _as_fraction(b))


def integrate_region(f: Union[Poly, Scalar], u_lo: Scalar, u_hi: Scalar,
                     v_lo: Union[Scalar, Poly], v_hi: Union[Scalar, Poly]) -> Fraction:
    """Exact iterated integral of f over ``u in [u_lo, u_hi], v in [v_lo(u), v_hi(u)]``.

    The bounds must be affine in u (else ``ValueError``), so their order
    holds on the whole u-interval iff it holds at its two ends, where it is
    checked by cross-multiplying.  For bounds A/a and B/b (integer lines) and
    f of width J in v, the inner integral of v^j, ``(B^(j+1)/b^(j+1) -
    A^(j+1)/a^(j+1)) / (j+1)``, comes from integer power tables of A and B
    over ``lcm(1..J) a^J b^J``; the u integral is one Fraction, as in
    :func:`integrate_univariate`.
    """
    u_lo, u_hi = _as_fraction(u_lo), _as_fraction(u_hi)
    (a, (a0,), (a1,)), (b, (b0,), (b1,)) = _affine((v_lo,)), _affine((v_hi,))
    for u0 in (u_lo, u_hi):
        p, q = u0.numerator, u0.denominator
        low, high = a0 * q + a1 * p, b0 * q + b1 * p
        if low * b > high * a:
            raise InvalidRegionError(
                f"v bounds out of order at u={format_rational(u0)}: "
                f"{format_rational(Fraction(low, a * q))} > "
                f"{format_rational(Fraction(high, b * q))}")
    den, (rows,) = _tables((f,))
    width = max(map(len, rows), default=0)
    scale, aj, bj = math.lcm(*range(1, width + 1)), a ** width, b ** width
    inner = [0] * (len(rows) + width)
    apow, bpow = [1], [1]                 # A^k and B^k as coefficients in u
    for k in range(1, width + 1):
        apow, bpow = _lin(apow, a0, [0, *apow], a1), _lin(bpow, b0, [0, *bpow], b1)
        w = scale // k
        diff = _lin(bpow, w * aj * b ** (width - k), apow, -w * bj * a ** (width - k))
        for i, row in enumerate(rows):
            if k <= len(row) and row[k - 1]:
                for l, x in enumerate(diff, i):
                    inner[l] += row[k - 1] * x
    return _definite(inner, den * scale * aj * bj, u_lo, u_hi)


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial of degree <= 2 along its one
    variable, in increasing order and in closed form.

    Multiplicities are collapsed.  The roots are read off the integer
    numerators c0 + c1 x + c2 x^2 (the common denominator moves none), and a
    quadratic's roots are rational exactly when its integer discriminant is
    a square, found by ``math.isqrt``; one Fraction is formed per root.  A
    quadratic with real but irrational roots raises
    :class:`IrrationalBreakpointError`, and a negative discriminant (no real
    roots) yields an empty list.  Degree 3 or more is a :class:`ValueError`.
    """
    cs = p._numerators()
    if not cs:
        raise ValueError("zero polynomial has every point as a root")
    if len(cs) > 3:
        raise ValueError(f"rational_roots takes degree <= 2, got {format_poly(p)}")
    if len(cs) == 1:
        return []
    if len(cs) == 2:
        return [Fraction(-cs[0], cs[1])]
    c0, c1, c2 = cs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    sq = math.isqrt(disc)
    if sq * sq != disc:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: roots of {format_poly(p)} are not rational")
    return sorted({Fraction(-c1 - sq, 2 * c2), Fraction(-c1 + sq, 2 * c2)})


def format_terms(terms: Iterable[tuple[Sequence[int], Fraction]],
                 names: Sequence[str]) -> str:
    """Render nonzero ``(exponents, coefficient)`` terms over ``names`` as plain
    text, highest total degree first, e.g. ``-3/2*u + 5/2`` or ``x0^2 - s*x1``."""
    text = ""
    for exps, c in sorted(terms, key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(names, exps) if e]
        if not factors or abs(c) != 1:
            factors.insert(0, format_rational(abs(c)))
        text += f" {'-' if c < 0 else '+'} {'*'.join(factors)}"
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def format_poly(p: Union[Scalar, Poly]) -> str:
    """Render a polynomial as plain text, e.g. ``-3/2*u + 5/2`` or ``u*v^2``."""
    if isinstance(p, (int, Fraction)):
        return format_rational(_as_fraction(p))
    return format_terms((((i, j), c) for i, row in enumerate(p.rows)
                         for j, c in enumerate(row) if c), ("u", "v"))
