"""Plain-text expressions: the one tokenizer and parser of the package.

The polynomial grammar is small: signed sums of products of powers, where
an atom is a rational, a variable name or a parenthesized subexpression, and
``*`` may be left out between factors.  :func:`parse_expression` parses it
for any caller that says what a variable name means: :func:`parse_poly`
allows ``u`` and ``v``, and :func:`divstab.projgeo.parse_mpoly` allows any
name.

Divisor classes add one layer: signed sums of terms, where a term is an
optionally-coefficiented generator name and a coefficient is a rational or a
parenthesized polynomial in u and v.  ``4H - 2EC - EL``, ``l1 + 2*l2``,
``(u - 1)*R`` and ``0`` are all valid.  Errors carry the offending position.

Exact rationals only: ``3/2`` never ``1.5``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .lattice import DivisorClass, LatticeBasis
from .ratmath import Coeff, Poly


class ExprSyntaxError(ValueError):
    """Malformed expression; the message includes the character position."""


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*()^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


def _parse_number(text: str, at: int) -> Fraction:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ExprSyntaxError(f"malformed rational {text!r} at position {at}") from None


class _Parser:
    """Recursive descent for +, -, * and ^ over rationals and variables.

    ``variable(name, at)`` gives a name its value or raises
    :class:`ExprSyntaxError`.  Numbers are Fractions, so values only need
    ring arithmetic with Fractions.
    """

    def __init__(self, text: str, variable: Callable):
        self.tokens = _tokenize(text)
        self.end = len(text)
        self.variable = variable
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def signs(self) -> int:
        """Consume a run of ``+`` and ``-``; return its sign."""
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        return sign

    def sum(self):
        total = self.signed_product()
        while self.peek()[0] in ("+", "-"):
            total = total + self.signed_product()
        return total

    def signed_product(self):
        sign = self.signs()
        value = self.product()
        return value if sign > 0 else -value

    def product(self):
        value = self.power()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
            elif kind not in ("name", "(", "number"):
                return value
            value = value * self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        kind, txt, at = self.take()
        if kind != "number" or "/" in txt:
            raise ExprSyntaxError(f"exponent must be an integer at position {at}")
        return base ** int(txt)

    def atom(self):
        kind, txt, at = self.take()
        if kind == "number":
            return _parse_number(txt, at)
        if kind == "name":
            return self.variable(txt, at)
        if kind == "(":
            inner = self.sum()
            k, _, at2 = self.take()
            if k != ")":
                raise ExprSyntaxError(f"missing ')' at position {at2}")
            return inner
        if kind is None:
            raise ExprSyntaxError(f"unexpected end of input at position {at}")
        raise ExprSyntaxError(f"unexpected {txt!r} at position {at}")


def parse_expression(text: str, variable: Callable):
    """Parse a whole polynomial expression; ``variable(name, at)`` values each name."""
    if not text.strip():
        raise ExprSyntaxError("empty polynomial")
    parser = _Parser(text, variable)
    value = parser.sum()
    kind, txt, at = parser.peek()
    if kind is not None:
        raise ExprSyntaxError(f"trailing input {txt!r} at position {at}")
    return value


_UV = {"u": Poly.variable("u"), "v": Poly.variable("v")}


def _uv_variable(name: str, at: int) -> Poly:
    if name not in _UV:
        raise ExprSyntaxError(f"unknown variable {name!r} at position {at}; "
                              "polynomials may use u and v only")
    return _UV[name]


def parse_poly(text: str) -> Poly:
    """Parse a polynomial in u and v."""
    return Poly.of(parse_expression(text, _uv_variable))


def parse_divisor_expr(text: str, basis: LatticeBasis) -> DivisorClass:
    """Parse a signed sum of optionally-coefficiented generator names."""
    if not text.strip():
        raise ExprSyntaxError("empty expression")
    parser = _Parser(text, _uv_variable)
    coeffs: list[Coeff] = [Fraction(0)] * basis.rank
    constant: Coeff = Fraction(0)
    while parser.peek()[0] is not None:
        kind, txt, at = parser.peek()
        if kind not in ("+", "-") and parser.pos > 0:
            raise ExprSyntaxError(f"expected '+' or '-' before {txt!r} at position {at}")
        sign = parser.signs()
        kind, txt, at = parser.peek()
        # optional coefficient: a rational or a parenthesized polynomial
        have_coeff = kind in ("number", "(")
        coeff = parser.atom() if have_coeff else Fraction(1)
        if sign < 0:
            coeff = -coeff
        if have_coeff and parser.peek()[0] == "*":
            parser.take()
        kind, txt, at = parser.peek()
        if kind == "name":
            if txt in _UV:
                raise ExprSyntaxError(
                    f"{txt!r} at position {at}: u and v may only appear inside "
                    "a parenthesized coefficient")
            try:
                index = basis.index(txt)
            except KeyError:
                raise ExprSyntaxError(
                    f"unknown generator {txt!r} at position {at}; "
                    f"basis is {' '.join(basis.names)}") from None
            parser.take()
            coeffs[index] = coeffs[index] + coeff
        elif have_coeff:
            constant = constant + coeff
        else:
            raise ExprSyntaxError(f"expected a generator name at position {at}")
    if constant:
        raise ExprSyntaxError("a divisor expression cannot have a nonzero constant term")
    return DivisorClass(basis, coeffs)
