"""Exact rational arithmetic, polynomials in u and v, and definite integration.

Everything in this package reduces to arithmetic over the rationals.  The
scalar type is :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator), serialized as ``p/q`` or ``p`` text:
ASCII digits with one optional leading ``-``, nothing else.

One polynomial type, :class:`Poly`, covers all parameter dependence that
occurs downstream: a dense polynomial in ``u`` and ``v`` with rational
coefficients, stored as rows of integer numerators over one common
denominator, so that its arithmetic runs on Python ints and builds no
Fraction per coefficient.  A polynomial in one variable is the same type;
``p.coeffs`` and ``p(x)`` read it along the variable it depends on.
Arithmetic takes ``int`` and ``Fraction`` operands directly.  Degrees stay
tiny (at most 4), so dense storage is the simple choice.

Along its one variable a polynomial also divides with remainder (``divmod``,
``//``, ``%``), differentiates, and has a monic :func:`poly_gcd` and its
:func:`rational_roots`; this is the package's only univariate toolkit.
Chamber breakpoints are roots of degree <= 2, and every breakpoint that
legitimately occurs is rational; an irrational one is reported as a hard
error rather than approximated.
"""

from __future__ import annotations

import math
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


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


def _horner(coeffs: Sequence, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _homogeneous(coeffs: Sequence[int], p: int, q: int) -> int:
    """``q^d * c(p/q)`` for integer coefficients c of length d + 1, by Horner's rule."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _lin(x: Sequence[int], a: int, y: Sequence[int], b: int) -> list[int]:
    """``a x + b y`` for integer sequences, the shorter padded with zeros."""
    return [c * a + d * b for c, d in zip_longest(x, y, fillvalue=0)]


def _combine(x, a: int, y, b: int) -> list[list[int]]:
    """``a x + b y`` for integer tables, row by row."""
    return [_lin(rx, a, ry, b) for rx, ry in zip_longest(x, y, fillvalue=())]


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
        table = [[_as_fraction(c) for c in row] for row in rows]
        den = math.lcm(*(c.denominator for row in table for c in row))
        _reduce([[c.numerator * (den // c.denominator) for c in row] for row in table],
                den, self)

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

    @property
    def degree_u(self) -> int:
        return len(self.num) - 1

    @property
    def degree_v(self) -> int:
        return max(map(len, self.num), default=0) - 1

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

    @property
    def degree(self) -> int:
        """Degree along the one variable; the zero polynomial has degree -1."""
        return len(self._numerators()) - 1

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
        if isinstance(other, Poly):
            a, b = self.num, other.num
            if not a or not b:
                return _ZERO_POLY
            width = max(map(len, a)) + max(map(len, b)) - 1
            out = [[0] * width for _ in range(len(a) + len(b) - 1)]
            for i, ra in enumerate(a):
                for j, x in enumerate(ra):
                    if not x:
                        continue
                    for k, rb in enumerate(b):
                        row = out[i + k]
                        for l, y in enumerate(rb, j):
                            row[l] += x * y
            return _reduce(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            if not other or not self.num:
                return _ZERO_POLY
            n = other.numerator
            return _reduce([[c * n for c in row] for row in self.num],
                           self.den * other.denominator)
        return NotImplemented

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

    def subs_v(self, v0: Union[Scalar, "Poly"]) -> "Poly":
        """Substitute v by a rational or by a polynomial, by Horner's rule."""
        num = self.num
        if not isinstance(v0, Poly):
            v0 = _as_fraction(v0)
            c, d = v0.numerator, v0.denominator
            width = max(map(len, num), default=1)
            return _reduce([[_homogeneous(row, c, d) * d ** (width - len(row))] for row in num],
                           self.den * d ** (width - 1))
        out = _ZERO_POLY
        for j in range(self.degree_v, -1, -1):
            column = _reduce([[row[j]] if j < len(row) else [] for row in num], self.den)
            out = out * v0 + column
        return out

    def _along(self, nums: list[int], den: int, other: "Poly") -> "Poly":
        """``nums / den`` along the one variable of self and other, which must agree."""
        in_u = len(self.num) > 1 or len(other.num) > 1
        if in_u and any(len(p.num) == 1 and len(p.num[0]) > 1 for p in (self, other)):
            raise ValueError(f"{format_poly(self)} and {format_poly(other)} "
                             "depend on different variables")
        return _reduce([[c] for c in nums] if in_u else [list(nums)], den)

    def derivative(self) -> "Poly":
        """Derivative along the one variable."""
        return self._along([k * c for k, c in enumerate(self._numerators())][1:], self.den, self)

    def __divmod__(self, other):
        """Quotient and remainder along the one variable, ``deg r < deg other``.

        Pseudo-division on the numerators, ``l^k a = q b + r`` with l the
        leading numerator of b: every step divides exactly by l.
        """
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = Poly.of(other)
        b = other._numerators()
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        lead, k = b[-1], max(len(self._numerators()) - len(b) + 1, 0)
        rem = [c * lead ** k for c in self._numerators()]
        quot = [0] * k
        for shift in reversed(range(k)):
            factor = quot[shift] = rem[shift + len(b) - 1] // lead
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
        den = self.den * lead ** k
        return (self._along([c * other.den for c in quot], den, other),
                self._along(rem[:len(b) - 1], den, other))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def antiderivative_v(self) -> "Poly":
        scale = math.lcm(*range(1, self.degree_v + 2))
        return _reduce([[0] + [c * (scale // (j + 1)) for j, c in enumerate(row)]
                        for row in self.num], self.den * scale)

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


def combination(coeffs: Sequence[Union[Scalar, Poly]], weights: Sequence[int],
                den: int = 1) -> Poly:
    """``sum w_k c_k / den`` for rationals or Polys c_k and integers w_k.

    The sum runs on integer tables over one running denominator and is
    reduced once, where ``+`` and ``*`` would reduce every term.
    """
    table: list[list[int]] = []
    scale = 1
    for c, w in zip(coeffs, weights):
        if not (c and w):
            continue
        if isinstance(c, Poly):
            num, c_den = c.num, c.den
        else:
            c = _as_fraction(c)
            num, c_den = ((c.numerator,),), c.denominator
        common = scale // math.gcd(scale, c_den) * c_den
        table = _combine(table, common // scale, num, w * (common // c_den))
        scale = common
    return _reduce(table, scale * den)


def integrate_univariate(p: Poly, a: Scalar, b: Scalar) -> Fraction:
    """Exact definite integral of p between rational bounds.

    ``a > b`` is allowed and yields the signed value, so orientation bugs
    surface as sign flips in downstream golden comparisons.
    """
    anti = [_ZERO] + [c / (k + 1) for k, c in enumerate(p.coeffs)]
    return _horner(anti, _as_fraction(b)) - _horner(anti, _as_fraction(a))


def integrate_region(f: Union[Poly, Scalar], u_lo: Scalar, u_hi: Scalar,
                     v_lo: Union[Scalar, Poly], v_hi: Union[Scalar, Poly]) -> Fraction:
    """Exact iterated integral of f over ``u in [u_lo, u_hi], v in [v_lo(u), v_hi(u)]``.

    The inner antiderivative in v is evaluated at the bounds, which leaves a
    univariate polynomial in u.  The bounds must be affine in u (else
    ``ValueError``), so their order holds on the whole u-interval iff it
    holds at its two ends, which is where it is checked.
    """
    u_lo, u_hi = _as_fraction(u_lo), _as_fraction(u_hi)
    lo, hi = Poly.of(v_lo), Poly.of(v_hi)
    for bound in (lo, hi):
        if bound.degree_u > 1 or bound.degree_v > 0:
            raise ValueError(f"the v bound {bound} is not affine in u")
    for u0 in (u_lo, u_hi):
        if lo(u0) > hi(u0):
            raise InvalidRegionError(
                f"v bounds out of order at u={format_rational(u0)}: "
                f"{format_rational(lo(u0))} > {format_rational(hi(u0))}")
    anti = Poly.of(f).antiderivative_v()
    inner = anti.subs_v(hi) - anti.subs_v(lo)
    return integrate_univariate(inner, u_lo, u_hi)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor along the one variable; ``poly_gcd(0, 0)`` is 0."""
    while b:
        a, b = b, a % b
    return a * (1 / a.coeffs[-1]) if a else a


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, in increasing order.

    Multiplicities are collapsed.  Up to degree 2 the roots come in closed
    form: a quadratic with real but irrational roots raises
    :class:`IrrationalBreakpointError`, and a negative discriminant (no real
    roots) yields an empty list.  From degree 3 on, the candidates are the
    fractions p/q of the rational root theorem, and roots that are not
    rational are left out; a caller that needs the polynomial to split over
    the rationals compares the count with its squarefree degree.
    """
    coeffs = p.coeffs
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    if len(coeffs) > 3:
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        lowest = next(c for c in ints if c)    # the constant term once t^k is divided out
        roots = {_ZERO} if not ints[0] else set()
        for num in _factors(lowest):
            for den in _factors(ints[-1]):
                roots.update(r for r in (Fraction(num, den), Fraction(-num, den))
                             if not _horner(coeffs, r))
        return sorted(roots)
    if len(coeffs) == 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    sq = rational_sqrt(disc)
    if sq is None:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: roots of {format_poly(p)} are not rational")
    roots = sorted({(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)})
    return roots


def _factors(n: int) -> list[int]:
    """The positive divisors of a nonzero integer, possibly repeated."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if not n % d]
    return small + [n // d for d in small]


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
