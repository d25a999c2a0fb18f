import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from divstab.ratmath import (InvalidRegionError, IrrationalBreakpointError, Poly, _affine,
                             format_poly, format_rational, integrate_region,
                             integrate_univariate, parse_rational, rational_roots)
from oracles import (float_eval, integrate_region_oracle, integrate_univariate_oracle,
                     midpoint_1d, rational_roots_oracle)

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


def test_affine_reads_each_coefficient_over_one_denominator():
    """Seeded lists of ints, Fractions and Polys affine in u come back as
    (c0 + c1 u) / den in integers, den > 0; a list with one coefficient that
    has a u^2 or v term is refused, naming that coefficient."""
    rng = random.Random(37)

    def scalar():
        return F(rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(300):
        coeffs = [rng.choice([rng.randint(-5, 5), scalar(), scalar() + scalar() * U,
                              Poly.of(scalar())]) for _ in range(rng.randint(0, 5))]
        den, c0s, c1s = _affine(coeffs)
        assert den > 0 and len(c0s) == len(c1s) == len(coeffs)
        assert all(isinstance(c, int) for c in c0s + c1s)
        for c, c0, c1 in zip(coeffs, c0s, c1s):
            assert Poly.of(c) == (c0 + c1 * U) * F(1, den)
        bad = scalar() + scalar() * U + rng.choice([1, -2, F(1, 3)]) * rng.choice(
            [U * U, V, U * V, V * V, U * U * U])
        coeffs.insert(rng.randint(0, len(coeffs)), bad)
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not affine in u")):
            _affine(coeffs)


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


def test_rational_roots_refuse_degree_three():
    """Only the closed forms of degree <= 2 are kept; a cubic is refused by name."""
    for p in (V ** 3 - V, U ** 3, (V - 1) * (V - 2) * (V - 3) * (V - 4)):
        with pytest.raises(ValueError, match=re.escape(format_poly(p))):
            rational_roots(p)


def test_rational_roots_over_a_common_denominator_match_the_fraction_route():
    """The roots come from the integer numerators alone: a common denominator
    other than 1 and a negative leading coefficient move none of them."""
    p = -(3 * V - 2) * (V + 1) * F(1, 6)
    assert (p.den, p.num) == (6, ((2, -1, -3),))
    assert rational_roots(p) == rational_roots_oracle(p) == [F(-1), F(2, 3)]
    assert rational_roots(-(3 * U - 2) * (U + 1) * F(1, 6)) == [F(-1), F(2, 3)]  # along u
    assert rational_roots((3 * V + 2) * F(1, 5)) == [F(-2, 3)]
    rng, seen = random.Random("rational-roots"), Counter()
    for _ in range(400):
        c = [_random_fraction(rng) for _ in range(3)]
        if not c[2]:
            continue
        p = Poly([[c[0], c[1], c[2]]]) * F(rng.randint(1, 9), rng.randint(1, 9))
        try:
            expected = rational_roots_oracle(p)
        except IrrationalBreakpointError as exc:
            seen["irrational"] += 1
            with pytest.raises(IrrationalBreakpointError, match=re.escape(str(exc))):
                rational_roots(p)
        else:
            seen[len(expected)] += 1
            assert rational_roots(p) == expected
    assert set(seen) == {"irrational", 0, 1, 2}


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
        flipped = Poly([[f.coefficient(i, j) for i in range(len(f.rows))]
                        for j in range(max(map(len, f.rows), default=0))])
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


def test_integrate_region_takes_no_float_integrand_or_v_bound():
    """A float integrand or v bound is a TypeError, as a float u bound is."""
    for call in (lambda: integrate_region(U, 0, 1, 0.5, 1),
                 lambda: integrate_region(U, 0, 1, 0, 0.5),
                 lambda: integrate_region(0.5, 0, 1, 0, 1)):
        with pytest.raises(TypeError, match="expected an exact scalar"):
            call()


def _outcome(integral, *args):
    """The value of an integral, or the type and message of what it raises."""
    try:
        return integral(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_integer_integrals_match_the_poly_route():
    """Seeded integrands up to degree 4 in u and v (and 0, ints and
    Fractions), bounds that are affine with mixed denominators, constant,
    zero or not affine, and u-intervals in either order: the value, or the
    error type and message, is the Poly route's."""
    rng = random.Random(26)
    seen = Counter()

    def bound():
        kind = rng.choice(["zero", "int", "fraction", "constant", "affine", "affine",
                           "affine", "not affine"])
        seen[kind] += 1
        if kind == "zero":
            return rng.choice([0, F(0), Poly()])
        if kind == "int":
            return rng.randint(-3, 3)
        if kind in ("fraction", "constant"):
            c = _random_fraction(rng)
            return c if kind == "fraction" else Poly.of(c)
        line = _random_fraction(rng) + _random_fraction(rng) * U
        return line if kind == "affine" else line + rng.choice([U * U, V, U * V])

    def integrand():
        kind = rng.choice(["zero", "scalar", "poly", "poly", "poly", "poly"])
        seen[f"f {kind}"] += 1
        if kind == "zero":
            return rng.choice([0, Poly()])
        if kind == "scalar":
            return rng.choice([rng.randint(-5, 5), _random_fraction(rng)])
        return Poly([[_random_fraction(rng) for _ in range(rng.randint(0, 5))]
                     for _ in range(rng.randint(0, 5))])

    for _ in range(1500):
        f, lo, hi = integrand(), bound(), bound()
        a, b = _random_fraction(rng), rng.choice([_random_fraction(rng), rng.randint(-2, 2)])
        got = _outcome(integrate_region, f, a, b, lo, hi)
        assert got == _outcome(integrate_region_oracle, f, a, b, lo, hi)
        seen[got[0].__name__ if isinstance(got, tuple) else "reversed" if a > b else "value"] += 1
        assert isinstance(got, (tuple, F))
        p = rng.choice([_random_poly1(rng, "u"), _random_poly1(rng, "v"), _random_poly2(rng)])
        got = _outcome(integrate_univariate, p, a, b)
        assert got == _outcome(integrate_univariate_oracle, p, a, b)
        seen["both u and v" if isinstance(got, tuple) else "univariate"] += 1
    for case in ("zero", "int", "fraction", "constant", "affine", "not affine", "f zero",
                 "f scalar", "f poly", "InvalidRegionError", "ValueError", "reversed",
                 "value", "both u and v", "univariate"):
        assert seen[case] >= 20, (case, seen)


def test_integrals_form_one_fraction_and_no_poly(monkeypatch):
    """The integer path builds no Poly and one Fraction per integral."""
    from divstab import ratmath
    f = (4 - U - V) ** 2 - 4 * U * V * V
    lo, hi, a, b = F(1, 3) * U - 1, 2 - F(3, 7) * U, F(-1, 2), F(5, 3)
    made = Counter()
    fraction_new, reduce = F.__new__, ratmath._reduce

    def counted_fraction(cls, *args, **kwargs):
        made["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    def counted_reduce(*args):
        made["Poly"] += 1
        return reduce(*args)

    monkeypatch.setattr(F, "__new__", staticmethod(counted_fraction))
    monkeypatch.setattr(ratmath, "_reduce", counted_reduce)
    region, univariate = integrate_region(f, a, b, lo, hi), integrate_univariate(hi, a, b)
    counts = dict(made)
    monkeypatch.undo()
    assert counts == {"Fraction": 2}
    assert (region, univariate) == (integrate_region_oracle(f, a, b, lo, hi),
                                    integrate_univariate_oracle(hi, a, b))
