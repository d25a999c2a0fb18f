"""Exact rational arithmetic, polynomials in u and v, and definite integration.

Everything in this package reduces to arithmetic over the rationals.  The
scalar type is :class:`fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator), serialized as ``p/q`` or ``p`` text
with no whitespace and no decimals.

Two polynomial types cover all parameter dependence that occurs downstream:

* :class:`Poly1` -- a dense univariate polynomial in ``u`` or ``v``.
* :class:`Poly2` -- a dense bivariate polynomial in ``u`` and ``v``.

Both are immutable value types; arithmetic promotes scalars and mixed
variables as needed (``Poly1('u') * Poly1('v')`` is a :class:`Poly2`).
Degrees stay tiny (at most 4), so dense storage is the simple choice.

Breakpoint discovery only ever needs roots of polynomials of degree <= 2,
and every breakpoint that legitimately occurs is rational; an irrational
root is reported as a hard error rather than approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Coeff = Union[Fraction, "Poly1", "Poly2"]


class IrrationalBreakpointError(ArithmeticError):
    """A degree-2 polynomial whose real roots are not rational."""


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


class Poly1:
    """Dense univariate polynomial over Fraction in variable ``u`` or ``v``."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Scalar] = ()):
        if var not in ("u", "v"):
            raise ValueError(f"variable must be 'u' or 'v', got {var!r}")
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly1 is immutable")

    @classmethod
    def constant(cls, var: str, value: Scalar) -> "Poly1":
        return cls(var, [value])

    @classmethod
    def variable(cls, var: str) -> "Poly1":
        return cls(var, [0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction input, float for float."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly1):
            if self.coeffs and other.coeffs and self.var != other.var:
                return False
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and self.coefficient(0) == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash((self.var, self.coeffs))

    def __neg__(self) -> "Poly1":
        return Poly1(self.var, [-c for c in self.coeffs])

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly1(self.var, [other])
        if isinstance(other, Poly1):
            if other.is_zero():
                return Poly1(self.var, [])
            if self.is_zero() or other.var == self.var:
                return other
            return None  # mixed variables: promote to Poly2
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return to_poly2(self) + to_poly2(other)
        if p is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(p.coeffs))
        return Poly1(p.var if self.is_zero() else self.var,
                     [self.coefficient(k) + p.coefficient(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly1) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return to_poly2(self) * to_poly2(other)
        if p is NotImplemented:
            return NotImplemented
        if self.is_zero() or p.is_zero():
            return Poly1(self.var, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(p.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(p.coeffs):
                out[i + j] += a * b
        return Poly1(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly1":
        if n < 0:
            raise ValueError("negative power")
        result = Poly1.constant(self.var, 1)
        for _ in range(n):
            result = result * self
        return result

    def antiderivative(self) -> "Poly1":
        return Poly1(self.var, [0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        return f"Poly1({self.var!r}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


class Poly2:
    """Dense bivariate polynomial over Fraction: ``rows[i][j]`` is the u^i v^j coefficient."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]] = ()):
        table = [[_as_fraction(c) for c in row] for row in rows]
        # canonical trimming of zero high-order rows/columns
        while table and all(c == 0 for c in table[-1]):
            table.pop()
        width = 0
        for row in table:
            w = len(row)
            while w and row[w - 1] == 0:
                w -= 1
            width = max(width, w)
        object.__setattr__(
            self, "rows",
            tuple(tuple(row[:width]) + (Fraction(0),) * (width - len(row[:width]))
                  for row in table))

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "Poly2":
        return cls([[value]])

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def degree_u(self) -> int:
        return len(self.rows) - 1

    @property
    def degree_v(self) -> int:
        return (len(self.rows[0]) - 1) if self.rows else -1

    def coefficient(self, i: int, j: int) -> Fraction:
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return Fraction(0)

    def __call__(self, u, v):
        acc = u * 0
        for row in reversed(self.rows):
            inner = u * 0
            for c in reversed(row):
                inner = inner * v + c
            acc = acc * u + inner
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly1)):
            other = to_poly2(other)
        if isinstance(other, Poly2):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self):
        return Poly2([[-c for c in row] for row in self.rows])

    def __add__(self, other):
        other = to_poly2(other)
        nu = max(len(self.rows), len(other.rows))
        nv = max(self.degree_v, other.degree_v) + 1
        return Poly2([[self.coefficient(i, j) + other.coefficient(i, j)
                       for j in range(nv)] for i in range(nu)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-to_poly2(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = to_poly2(other)
        if self.is_zero() or other.is_zero():
            return Poly2()
        nu = self.degree_u + other.degree_u + 1
        nv = self.degree_v + other.degree_v + 1
        out = [[Fraction(0)] * nv for _ in range(nu)]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if a == 0:
                    continue
                for k, orow in enumerate(other.rows):
                    for l, b in enumerate(orow):
                        if b:
                            out[i + k][j + l] += a * b
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative power")
        result = Poly2.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def subs_u(self, u0: Scalar) -> Poly1:
        """Evaluate u, leaving a polynomial in v."""
        u0 = _as_fraction(u0)
        out = Poly1("v", [])
        for i, row in enumerate(self.rows):
            out = out + Poly1("v", [c * u0 ** i for c in row])
        return out

    def subs_v(self, v0: Union[Scalar, Poly1]) -> Poly1:
        """Substitute v by a rational or by a polynomial in u, leaving a polynomial in u."""
        if isinstance(v0, Poly1):
            if not v0.is_zero() and v0.var != "u":
                raise ValueError("substitution polynomial must be in u")
            inner = Poly1("u", v0.coeffs)
        else:
            inner = Poly1.constant("u", v0)
        acc = Poly1("u", [])
        nv = self.degree_v
        for j in range(nv, -1, -1):
            col = Poly1("u", [self.coefficient(i, j) for i in range(len(self.rows))])
            acc = acc * inner + col
        return acc

    def antiderivative_v(self) -> "Poly2":
        return Poly2([[Fraction(0)] + [c / (j + 1) for j, c in enumerate(row)]
                      for row in self.rows])

    def __repr__(self):
        return f"Poly2({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def to_poly2(x: Union[Scalar, Poly1, Poly2]) -> Poly2:
    """Promote any coefficient kind to Poly2."""
    if isinstance(x, Poly2):
        return x
    if isinstance(x, Poly1):
        if x.var == "u":
            return Poly2([[c] for c in x.coeffs])
        return Poly2([list(x.coeffs)])
    return Poly2.constant(_as_fraction(x))


def demote(x: Coeff) -> Coeff:
    """Reduce a coefficient to its simplest kind (Poly2 -> Poly1 -> Fraction)."""
    if isinstance(x, Poly2):
        if x.degree_v <= 0:
            x = Poly1("u", [row[0] if row else 0 for row in x.rows])
        elif x.degree_u <= 0:
            x = Poly1("v", list(x.rows[0]) if x.rows else [])
        else:
            return x
    if isinstance(x, Poly1):
        if x.degree <= 0:
            return x.coefficient(0)
        return x
    return _as_fraction(x)


def integrate_univariate(p: Poly1, a: Scalar, b: Scalar) -> Fraction:
    """Exact definite integral of p between rational bounds.

    ``a > b`` is allowed and yields the signed value, so orientation bugs
    surface as sign flips in downstream golden comparisons.
    """
    anti = p.antiderivative()
    return anti(_as_fraction(b)) - anti(_as_fraction(a))


def integrate_region(f: Union[Poly2, Poly1, Scalar], u_lo: Scalar, u_hi: Scalar,
                     v_lo: Union[Scalar, Poly1], v_hi: Union[Scalar, Poly1]) -> Fraction:
    """Exact iterated integral of f over ``u in [u_lo, u_hi], v in [v_lo(u), v_hi(u)]``.

    The inner antiderivative in v is evaluated at the polynomial bounds,
    which leaves a univariate polynomial in u.  Bound order is checked at
    the endpoints and midpoint of the u-interval.
    """
    u_lo, u_hi = _as_fraction(u_lo), _as_fraction(u_hi)
    f2 = to_poly2(f)
    lo = v_lo if isinstance(v_lo, Poly1) else Poly1.constant("u", v_lo)
    hi = v_hi if isinstance(v_hi, Poly1) else Poly1.constant("u", v_hi)
    for u0 in (u_lo, (u_lo + u_hi) / 2, u_hi):
        if lo(u0) > hi(u0):
            raise InvalidRegionError(
                f"v bounds out of order at u={format_rational(u0)}: "
                f"{format_rational(lo(u0))} > {format_rational(hi(u0))}")
    anti = f2.antiderivative_v()
    inner = anti.subs_v(hi) - anti.subs_v(lo)
    return integrate_univariate(inner, u_lo, u_hi)


def rational_roots(p: Poly1) -> list[Fraction]:
    """All rational roots of a polynomial of degree <= 2, in increasing order.

    Multiplicities are collapsed.  A degree-2 polynomial with real but
    irrational roots raises :class:`IrrationalBreakpointError`; a negative
    discriminant (no real roots) yields an empty list.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    if p.degree > 2:
        raise ValueError(f"degree {p.degree} exceeds the supported bound 2")
    if p.degree == 0:
        return []
    if p.degree == 1:
        return [-p.coefficient(0) / p.coefficient(1)]
    c0, c1, c2 = p.coefficient(0), p.coefficient(1), p.coefficient(2)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    sq = rational_sqrt(disc)
    if sq is None:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: roots of {format_poly(p)} are not rational")
    roots = sorted({(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)})
    return roots


def format_poly(p: Union[Scalar, Poly1, Poly2]) -> str:
    """Render a polynomial as plain text, e.g. ``-3/2*u + 5/2`` or ``u*v^2``."""
    terms = []
    if isinstance(p, (int, Fraction)):
        return format_rational(_as_fraction(p))
    if isinstance(p, Poly1):
        items = [((k,), c) for k, c in enumerate(p.coeffs) if c != 0]
        names = (p.var,)
    else:
        items = [((i, j), p.rows[i][j])
                 for i in range(len(p.rows)) for j in range(len(p.rows[i]))
                 if p.rows[i][j] != 0]
        names = ("u", "v")
    if not items:
        return "0"
    items.sort(key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    for exps, c in items:
        factors = []
        for name, e in zip(names, exps):
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
