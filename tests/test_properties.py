"""Property tests: the polynomial ring, the shared parser, the class canonical form.

Needs ``hypothesis`` (test-only; skipped where it is not installed).  Runs
are derandomized and keep no example database, so results are repeatable.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from divstab.exprs import parse_divisor_expr, parse_poly  # noqa: E402
from divstab.lattice import DivisorClass, LatticeBasis  # noqa: E402
from divstab.projgeo import MPoly, format_mpoly, parse_mpoly  # noqa: E402
from divstab.ratmath import Poly, format_poly  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
U, V = Poly.variable("u"), Poly.variable("v")
BASIS = LatticeBasis(["H", "EC", "EL"])

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
scalars = st.one_of(fractions, st.integers(-5, 5))
polys = st.lists(st.lists(fractions, max_size=3), max_size=3).map(Poly)
coeffs = st.one_of(fractions, polys)
mpolys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), fractions, max_size=5).map(
    lambda terms: MPoly(("x0", "x1", "s"), terms))


@SETTINGS
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a and a * 0 == 0
    assert -(a - b) == b - a


@SETTINGS
@given(polys, polys, scalars)
def test_poly_scalar_operands(a, b, q):
    """int and Fraction operands act as the constant polynomial, on either side."""
    p = Poly.of(q)
    assert a + q == q + a == a + p
    assert a - q == a - p and q - a == p - a
    assert a * q == q * a == a * p
    assert (a + q) * b == a * b + q * b


@SETTINGS
@given(polys, polys, fractions, fractions)
def test_poly_evaluation_is_a_ring_map(a, b, x, y):
    mixed = a * U + b * V
    assert (a * b)(x, y) == a(x, y) * b(x, y)
    assert (a + b)(x, y) == a(x, y) + b(x, y)
    assert mixed(x, y) == a(x, y) * x + b(x, y) * y
    assert a.subs_u(x).subs_v(y) == a.subs_v(y).subs_u(x) == a(x, y)


@SETTINGS
@given(polys)
def test_parse_poly_inverts_format_poly(p):
    assert parse_poly(format_poly(p)) == p


@SETTINGS
@given(mpolys)
def test_parse_mpoly_inverts_format_mpoly(p):
    assert parse_mpoly(format_mpoly(p)) == p


@SETTINGS
@given(st.lists(coeffs, min_size=3, max_size=3), polys)
def test_divisor_class_canonical_form(cs, noise):
    """Constants are stored as Fractions, and equal classes hash equally."""
    d = DivisorClass(BASIS, cs)
    for c in d.coeffs:
        assert type(c) is F or (type(c) is Poly and not c.is_constant())
    # the same class, built from coefficients of other kinds
    same = DivisorClass(BASIS, [Poly.of(c) + noise - noise for c in cs])
    assert same == d and hash(same) == hash(d)
    assert same.coeffs == d.coeffs
    assert parse_divisor_expr(str(d), BASIS) == d
