import random
import re
from fractions import Fraction as F

import pytest

from divstab.ratmath import (InvalidRegionError, IrrationalBreakpointError, Poly, combination,
                             format_poly, format_rational, integrate_region,
                             integrate_univariate, parse_rational, rational_roots)
from oracles import float_eval, midpoint_1d

U = Poly.variable("u")
V = Poly.variable("v")


def test_rational_text_round_trip():
    for text, value in [("3/2", F(3, 2)), ("-7", F(-7)), ("0", F(0)), ("-5/3", F(-5, 3))]:
        assert parse_rational(text) == value
        assert parse_rational(format_rational(value)) == value
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("1/2/3")


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", "5/-0"])
def test_zero_denominator_is_a_malformed_rational(text):
    with pytest.raises(ValueError, match=f"malformed rational '{re.escape(text)}'"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["2_27/4_48", "\u0663/2", "3/ 2", "-3/-2", "+3", " 3"])
def test_only_ascii_digits_and_a_leading_minus_make_a_rational(text):
    with pytest.raises(ValueError, match=f"malformed rational '{re.escape(text)}'"):
        parse_rational(text)


def test_integrate_univariate_examples():
    assert integrate_univariate(U, 0, 1) == F(1, 2)
    assert integrate_univariate(4 * (U - 1) * (6 - 4 * U), 1, F(3, 2)) == F(1, 3)
    assert integrate_univariate(28 * (1 - U) ** 3, 0, 1) == 7


def test_integrate_univariate_signed_reversal():
    p = 3 * U * U - U + 2
    assert integrate_univariate(p, 1, 0) == -integrate_univariate(p, 0, 1)


def test_integrate_region_examples():
    # value computed by term-wise antiderivative and pinned; the float
    # midpoint oracle below agrees
    f = (4 - U - V) ** 2 - 4
    assert integrate_region(f, 0, 1, 0, 2 - U) == F(71, 12)
    assert integrate_region(Poly.of(1), 0, 1, 0, 1) == 1
    g = 2 * (1 + U - V) * (3 - U - 3 * V)
    assert integrate_region(g, 0, 1, 0, (3 - U) * F(1, 3)) == F(131, 54)


def test_integrate_region_matches_float_quadrature():
    f = (4 - U - V) ** 2 - 4
    hi = 2 - U

    def slice_integral(u):
        return midpoint_1d(lambda v: float_eval(f, u, v), 0.0, float_eval(hi, u), 400)

    estimate = midpoint_1d(slice_integral, 0.0, 1.0, 400)
    exact = integrate_region(f, 0, 1, 0, hi)
    assert abs(estimate - float(exact)) < 1e-5


def test_integrate_region_bound_order_violation():
    with pytest.raises(InvalidRegionError):
        integrate_region(Poly.of(1), 0, 1, 1 + U, 2 - U)


def test_integrate_region_rejects_bounds_not_affine_in_u():
    """The bound order is checked at the two ends only, which is exact for
    affine bounds; u^2 lies above 0 on [0, 1] but is still refused."""
    for lo, hi in ((0, U * U), (U * U - 1, 1), (0, 1 + V)):
        with pytest.raises(ValueError, match="not affine in u"):
            integrate_region(Poly.of(1), 0, 1, lo, hi)


def test_rational_roots_examples():
    assert rational_roots(V * V - 4) == [F(-2), F(2)]
    assert rational_roots(2 * (2 * V - 2) * (V - 2)) == [F(1), F(2)]
    assert rational_roots(3 * V + 2) == [F(-2, 3)]
    assert rational_roots(V * V + 1) == []
    with pytest.raises(IrrationalBreakpointError):
        rational_roots(V * V - 2)
    with pytest.raises(ValueError):
        rational_roots(Poly())
    # double root collapses
    assert rational_roots((V - 3) ** 2) == [F(3)]


def _random_fraction(rng):
    return F(rng.randint(-8, 8), rng.randint(1, 6))


def _random_poly1(rng, var):
    x = Poly.variable(var)
    return sum((_random_fraction(rng) * x ** k for k in range(rng.randint(0, 4))), Poly())


def _random_poly2(rng):
    return Poly([[_random_fraction(rng) for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, 3))])


def test_ring_laws_poly1():
    rng = random.Random(2024)
    for _ in range(120):
        a, b, c = (_random_poly1(rng, "u") for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == Poly()


def test_ring_laws_poly2():
    rng = random.Random(77)
    for _ in range(80):
        a, b, c = (_random_poly2(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_combination_equals_the_sum_of_products():
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.choice([F(rng.randint(-5, 5), rng.randint(1, 6)),
                              F(rng.randint(-3, 3), 2) * U + F(rng.randint(-3, 3), 3) * V * V,
                              Poly()])
                  for _ in range(rng.randint(0, 5))]
        weights = [rng.randint(-4, 4) for _ in coeffs]
        den = rng.randint(1, 9)
        expected = sum((w * c for c, w in zip(coeffs, weights)), Poly()) * F(1, den)
        assert combination(coeffs, weights, den) == expected


def test_mixed_variable_promotion():
    """One type for every polynomial: no promotion between kinds."""
    p = U * V
    assert isinstance(p, Poly) and p.rows == ((), (0, 1))
    assert p(F(2), F(3)) == 6
    assert U + 1 - U == 1 and U + 1 - U == Poly.of(1)
    assert (3 - 2 * U).coeffs == (3, -2) and (3 - 2 * U)(F(1, 2)) == 2
    assert (V * V - 1).coeffs == (-1, 0, 1) and (V * V - 1)(F(3)) == 8
    with pytest.raises(ValueError, match="both u and v"):
        p.coeffs


def test_integral_additivity():
    rng = random.Random(5)
    for _ in range(60):
        p = _random_poly1(rng, "u")
        points = sorted(_random_fraction(rng) for _ in range(3))
        a, b, c = points
        whole = integrate_univariate(p, a, c)
        split = integrate_univariate(p, a, b) + integrate_univariate(p, b, c)
        assert whole == split


def test_fubini_on_rectangles():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_poly2(rng)
        flipped = Poly([[f.coefficient(i, j) for i in range(f.degree_u + 1)]
                        for j in range(f.degree_v + 1)])
        a, b = sorted(_random_fraction(rng) for _ in range(2))
        c, d = sorted(_random_fraction(rng) for _ in range(2))
        dv_first = integrate_region(f, a, b, c, d)
        du_first = integrate_region(flipped, c, d, a, b)
        assert dv_first == du_first


def test_exact_integrals_match_midpoint_oracle():
    cases = [
        (U, 0, 1),
        (4 * (U - 1) * (6 - 4 * U), 1, F(3, 2)),
        (28 * (1 - U) ** 3, 0, 1),
        ((2 - U) ** 3 - 3 * U + F(1, 2), F(-1, 2), F(7, 3)),
    ]
    for p, a, b in cases:
        exact = integrate_univariate(p, a, b)
        estimate = midpoint_1d(lambda x: float_eval(p, x), float(a), float(b), 10_000)
        scale = max(1.0, abs(float(exact)))
        assert abs(estimate - float(exact)) / scale < 1e-6


def test_format_poly_readable():
    assert format_poly((5 - 3 * U) * F(1, 2)) == "-3/2*u + 5/2"
    assert format_poly(Poly()) == "0"
    assert format_poly(U * V - 2) == "u*v - 2"


def test_poly_takes_no_float_argument():
    p = (2 - U) ** 3
    for call in (lambda: p(0.5), lambda: (U * V)(0.5, 1), lambda: (U * V)(1, 0.5)):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            call()
    assert p(F(1, 2)) == F(27, 8) and p(3) == -1 and (U * V)(2, F(1, 3)) == F(2, 3)
