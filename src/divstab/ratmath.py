"""Exact rational arithmetic, polynomials in u and v, and definite integration.

Everything in this package reduces to arithmetic over the rationals.  The
scalar type is :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator), serialized as ``p/q`` or ``p`` text
with no whitespace and no decimals.

One polynomial type, :class:`Poly`, covers all parameter dependence that
occurs downstream: a dense polynomial in ``u`` and ``v`` whose entries are
Fractions.  A polynomial in one variable is the same type; ``p.coeffs`` and
``p(x)`` read it along the variable it depends on.  Arithmetic takes ``int``
and ``Fraction`` operands directly.  Degrees stay tiny (at most 4), so dense
storage is the simple choice.

Along its one variable a polynomial also divides with remainder (``divmod``,
``//``, ``%``), differentiates, and has a monic :func:`poly_gcd` and its
:func:`rational_roots`; this is the package's only univariate toolkit.
Chamber breakpoints are roots of degree <= 2, and every breakpoint that
legitimately occurs is rational; an irrational one is reported as a hard
error rather than approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Coeff = Union[Fraction, "Poly"]

_ZERO = Fraction(0)


class IrrationalBreakpointError(ArithmeticError):
    """A quadratic with real roots that are not rational (no breakpoint is)."""


class InvalidRegionError(ValueError):
    """Integration bounds are out of order somewhere on the u-interval."""


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` text (no whitespace, no decimals)."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if not den or "/" in den:
            raise ValueError(f"malformed rational {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as ``p/q`` or ``p``."""
    q = Fraction(q)
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


class Poly:
    """Dense polynomial over Fraction in u and v: ``rows[i][j]`` is the u^i v^j coefficient.

    Each row is trimmed of trailing zeros and trailing empty rows are
    dropped, so equal polynomials have equal ``rows`` and the zero
    polynomial has none.  Instances are immutable.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]] = ()):
        object.__setattr__(self, "rows",
                           _trim([[_as_fraction(c) for c in row] for row in rows]))

    @classmethod
    def _trusted(cls, rows: list[list[Fraction]]) -> "Poly":
        """Build from rows whose entries are already Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "rows", _trim(rows))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def of(cls, x: Union[Scalar, "Poly"]) -> "Poly":
        """``x`` itself if it is a Poly, else the constant polynomial ``x``."""
        return x if isinstance(x, Poly) else cls._trusted([[_as_fraction(x)]])

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls([[value]])

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name == "u":
            return cls([[0], [1]])
        if name == "v":
            return cls([[0, 1]])
        raise ValueError(f"variable must be 'u' or 'v', got {name!r}")

    def is_zero(self) -> bool:
        return not self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def is_constant(self) -> bool:
        rows = self.rows
        return not rows or (len(rows) == 1 and len(rows[0]) <= 1)

    @property
    def degree_u(self) -> int:
        return len(self.rows) - 1

    @property
    def degree_v(self) -> int:
        return max(map(len, self.rows), default=0) - 1

    def coefficient(self, i: int, j: int) -> Fraction:
        """The coefficient of u^i v^j."""
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return _ZERO

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients along the one variable this polynomial depends on."""
        rows = self.rows
        if len(rows) <= 1:
            return rows[0] if rows else ()
        if any(len(row) > 1 for row in rows):
            raise ValueError(f"{format_poly(self)} depends on both u and v")
        return tuple(row[0] if row else _ZERO for row in rows)

    @property
    def degree(self) -> int:
        """Degree along the one variable; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __call__(self, x, y=None):
        """``p(u, v)`` at a point, or ``p(x)`` along the one variable.

        Horner's rule: exact for Fraction input, float for float input.
        """
        if y is None:
            return _horner(self.coeffs, x)
        return _horner([_horner(row, y) for row in self.rows], x)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.rows == other.rows
        if isinstance(other, (int, Fraction)):
            rows = self.rows
            if not rows:
                return other == 0
            return len(rows) == 1 and len(rows[0]) == 1 and rows[0][0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.coefficient(0, 0))
        return hash(self.rows)

    def __neg__(self) -> "Poly":
        return Poly._trusted([[-c for c in row] for row in self.rows])

    def __add__(self, other):
        if isinstance(other, Poly):
            a, b = self.rows, other.rows
            if len(a) < len(b):
                a, b = b, a
            out = [list(row) for row in a]
            for row, rb in zip(out, b):
                n = min(len(row), len(rb))
                row[:n] = [x + y for x, y in zip(row, rb)]
                row.extend(rb[n:])
            return Poly._trusted(out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            out = [list(row) for row in self.rows] or [[]]
            if out[0]:
                out[0][0] += other
            else:
                out[0].append(_as_fraction(other))
            return Poly._trusted(out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Poly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.rows, other.rows
            if not a or not b:
                return _ZERO_POLY
            width = max(map(len, a)) + max(map(len, b)) - 1
            out = [[_ZERO] * width for _ in range(len(a) + len(b) - 1)]
            for i, ra in enumerate(a):
                for j, x in enumerate(ra):
                    if not x:
                        continue
                    for k, rb in enumerate(b):
                        row = out[i + k]
                        for l, y in enumerate(rb, j):
                            row[l] += x * y
            return Poly._trusted(out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO_POLY
            return Poly._trusted([[c * other for c in row] for row in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def subs_u(self, u0: Scalar) -> "Poly":
        """Evaluate u, leaving a polynomial in v."""
        u0 = _as_fraction(u0)
        out = _ZERO_POLY
        for row in reversed(self.rows):
            out = out * u0 + Poly._trusted([list(row)])
        return out

    def subs_v(self, v0: Union[Scalar, "Poly"]) -> "Poly":
        """Substitute v by a rational or by a polynomial, by Horner's rule."""
        if not isinstance(v0, Poly):
            v0 = _as_fraction(v0)
            return Poly._trusted([[_horner(row, v0)] for row in self.rows])
        out = _ZERO_POLY
        for j in range(self.degree_v, -1, -1):
            column = Poly._trusted([[self.coefficient(i, j)] for i in range(len(self.rows))])
            out = out * v0 + column
        return out

    def _along(self, coeffs: list[Fraction], other: "Poly") -> "Poly":
        """``coeffs`` along the one variable of self and other, which must agree."""
        in_u = len(self.rows) > 1 or len(other.rows) > 1
        if in_u and any(len(p.rows) == 1 and len(p.rows[0]) > 1 for p in (self, other)):
            raise ValueError(f"{format_poly(self)} and {format_poly(other)} "
                             "depend on different variables")
        return Poly._trusted([[c] for c in coeffs] if in_u else [coeffs])

    def derivative(self) -> "Poly":
        """Derivative along the one variable."""
        return self._along([k * c for k, c in enumerate(self.coeffs)][1:], self)

    def __divmod__(self, other):
        """Quotient and remainder along the one variable, ``deg r < deg other``."""
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = Poly.of(other)
        rem, den = list(self.coeffs), other.coeffs
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [_ZERO] * max(len(rem) - len(den) + 1, 0)
        for shift in reversed(range(len(quot))):
            factor = rem[shift + len(den) - 1] / den[-1]
            quot[shift] = factor
            if factor:
                for i, c in enumerate(den):
                    rem[shift + i] -= factor * c
        return self._along(quot, other), self._along(rem[:len(den) - 1], other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def antiderivative_v(self) -> "Poly":
        return Poly._trusted([[_ZERO] + [c / (j + 1) for j, c in enumerate(row)]
                              for row in self.rows])

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _trim(table: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for row in table:
        w = len(row)
        while w and not row[w - 1]:
            w -= 1
        rows.append(tuple(row[:w]))
    while rows and not rows[-1]:
        rows.pop()
    return tuple(rows)


_ZERO_POLY = Poly()


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


def format_poly(p: Union[Scalar, Poly]) -> str:
    """Render a polynomial as plain text, e.g. ``-3/2*u + 5/2`` or ``u*v^2``."""
    if isinstance(p, (int, Fraction)):
        return format_rational(_as_fraction(p))
    items = [((i, j), c) for i, row in enumerate(p.rows) for j, c in enumerate(row) if c]
    if not items:
        return "0"
    items.sort(key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    terms = []
    for exps, c in items:
        factors = []
        for name, e in zip(("u", "v"), exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text
