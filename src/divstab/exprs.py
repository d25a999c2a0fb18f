"""Plain-text expressions for divisor classes and u/v polynomials.

The grammar is deliberately small: signed sums of terms, where a term is an
optionally-coefficiented generator name and a coefficient is a rational or a
parenthesized polynomial in u and v.  ``4H - 2EC - EL``, ``l1 + 2*l2``,
``(u - 1)*R`` and ``0`` are all valid.  Errors carry the offending position.

Exact rationals only: ``3/2`` never ``1.5``.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, LatticeBasis
from .ratmath import Coeff, Poly1, demote, to_poly2


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


class _PolyParser:
    """Recursive descent for +,-,*,^ expressions in u and v."""

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Coeff:
        value = self.sum()
        kind, value_txt, at = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {value_txt!r} at position {at}")
        return demote(value)

    def sum(self):
        total = to_poly2(0)
        sign = 1
        kind, _, _ = self.peek()
        while kind in ("+", "-"):
            if kind == "-":
                sign = -sign
            self.take()
            kind, _, _ = self.peek()
        total = total + to_poly2(self.product()) * sign
        while True:
            kind, _, _ = self.peek()
            if kind not in ("+", "-"):
                return total
            sign = 1
            while kind in ("+", "-"):
                if kind == "-":
                    sign = -sign
                self.take()
                kind, _, _ = self.peek()
            total = total + to_poly2(self.product()) * sign

    def product(self):
        value = to_poly2(self.power())
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                self.take()
                value = value * to_poly2(self.power())
            elif kind in ("name", "(", "number"):
                value = value * to_poly2(self.power())
            else:
                return value

    def power(self):
        base = to_poly2(self.atom())
        kind, _, _ = self.peek()
        if kind == "^":
            self.take()
            k, txt, at = self.take()
            if k != "number" or "/" in txt:
                raise ExprSyntaxError(f"exponent must be an integer at position {at}")
            return base ** int(txt)
        return base

    def atom(self):
        kind, txt, at = self.take()
        if kind == "number":
            return _parse_number(txt, at)
        if kind == "name":
            if txt == "u":
                return Poly1.variable("u")
            if txt == "v":
                return Poly1.variable("v")
            raise ExprSyntaxError(f"unknown variable {txt!r} at position {at}; "
                                  "polynomials may use u and v only")
        if kind == "(":
            inner = self.sum()
            k, _, at2 = self.take()
            if k != ")":
                raise ExprSyntaxError(f"missing ')' at position {at2}")
            return inner
        raise ExprSyntaxError(f"unexpected {txt!r} at position {at}")


def parse_poly(text: str) -> Coeff:
    """Parse a polynomial in u and v to the simplest coefficient kind."""
    if not text.strip():
        raise ExprSyntaxError("empty polynomial")
    return _PolyParser(_tokenize(text), text).parse()


def parse_divisor_expr(text: str, basis: LatticeBasis) -> DivisorClass:
    """Parse a signed sum of optionally-coefficiented generator names."""
    if not text.strip():
        raise ExprSyntaxError("empty expression")
    tokens = _tokenize(text)
    coeffs: list[Coeff] = [Fraction(0)] * basis.rank
    constant = to_poly2(0)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    while pos < len(tokens):
        sign = 1
        kind, txt, at = peek()
        if kind in ("+", "-"):
            while kind in ("+", "-"):
                if kind == "-":
                    sign = -sign
                pos += 1
                kind, txt, at = peek()
        elif pos > 0:
            raise ExprSyntaxError(f"expected '+' or '-' before {txt!r} at position {at}")
        # optional coefficient
        coeff: Coeff = Fraction(1)
        have_coeff = False
        if kind == "number":
            coeff = _parse_number(txt, at)
            have_coeff = True
            pos += 1
            kind, txt, at = peek()
        elif kind == "(":
            depth = 0
            j = pos
            while j < len(tokens):
                if tokens[j][0] == "(":
                    depth += 1
                elif tokens[j][0] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= len(tokens):
                raise ExprSyntaxError(f"missing ')' for '(' at position {at}")
            sub = _PolyParser(tokens[pos + 1:j], text)
            coeff = sub.parse()
            have_coeff = True
            pos = j + 1
            kind, txt, at = peek()
        if kind == "*":
            pos += 1
            kind, txt, at = peek()
        if kind == "name":
            if txt in ("u", "v"):
                raise ExprSyntaxError(
                    f"{txt!r} at position {at}: u and v may only appear inside "
                    "a parenthesized coefficient")
            try:
                index = basis.index(txt)
            except KeyError:
                raise ExprSyntaxError(
                    f"unknown generator {txt!r} at position {at}; "
                    f"basis is {' '.join(basis.names)}") from None
            pos += 1
            coeffs[index] = demote(to_poly2(coeffs[index]) + to_poly2(coeff) * sign)
        elif have_coeff:
            constant = constant + to_poly2(coeff) * sign
        else:
            raise ExprSyntaxError(f"expected a generator name at position {at}")
    if not constant.is_zero():
        raise ExprSyntaxError("a divisor expression cannot have a nonzero constant term")
    return DivisorClass(basis, coeffs)
