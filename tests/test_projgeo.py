import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest

from divstab import projgeo
from divstab.projgeo import (PROJ_VARS, LinearAction, MPoly, common_fixed_points,
                             contains_param_curve, equation_character, format_mpoly,
                             invariant_line, invariant_quadrics, line_containment_conditions,
                             parse_mpoly, pullback_under_quadric_map,
                             secant_condition_displays, secant_conic, standard_involutions,
                             transform_poly, twisted_cubic, verify_secant_lemma)
from divstab.ratmath import Poly
from oracles import (containment_rank_oracle, fixed_points_oracle, linear_coefficients, mpoly,
                     poly_kernel_oracle, subs_per_monomial, symbolic_conic_pullback, to_sympy,
                     unipoly)

SWAP, SIGNS = standard_involutions()
IDENTITY = LinearAction([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
QUADRICS = invariant_quadrics()

SYMBOLIC_PULLBACK_DISPLAY = (
    "a1*x3^2*x0^2 - a2*x2*x3*x0^2 + a4*x2^2*x0^2 + a2*x3*x0*x1^2 - 2*a4*x2*x0*x1^2"
    " + a2*x2^2*x0*x1 + (-2*a1 + a5)*x2*x3*x0*x1 - a3*x3^2*x0*x1 + a3*x3*x2^2*x0"
    " - a5*x2^3*x0 + a4*x1^4 - a2*x1^3*x2 - a5*x3*x1^3 + (a1 + a5)*x2^2*x1^2"
    " + a3*x2*x3*x1^2 + a6*x3^2*x1^2 - a3*x2^3*x1 - 2*a6*x2^2*x3*x1 + a6*x2^4")

CLEARED_QUARTIC_DISPLAY = (
    "x2^2*x0^2*s - x3^2*x0^2 - 2*x2*x0*x1^2*s + (s^2 + 3)*x2*x3*x0*x1"
    " + (-s^2 - 1)*x2^3*x0 + s*x1^4 + (-s^2 - 1)*x3*x1^3 + s^2*x1^2*x2^2"
    " + x3^2*x1^2*s - 2*x2^2*x3*x1*s + s*x2^4")


def test_quadrics_contain_the_twisted_cubic():
    cubic = twisted_cubic()
    for name in ("Q1", "Q2", "Q3"):
        assert contains_param_curve(QUADRICS[name], cubic)
    assert not contains_param_curve(parse_mpoly("x0"), cubic)


def test_line_family_on_the_swept_quadric():
    assert contains_param_curve(QUADRICS["Q4"], invariant_line("t"))
    assert not contains_param_curve(QUADRICS["Q1"], invariant_line("t"))


def test_twisted_cubic_components_are_coprime_binary_cubics():
    """The four components are binary cubic forms in x, y with no common
    factor, checked by sympy's gcd."""
    import sympy

    def to_sympy(p):
        return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in mono))
                           for mono, c in p.terms.items()))

    x, y = sympy.symbols("x y")
    forms = [sympy.Poly(to_sympy(c), x, y) for c in twisted_cubic()]
    assert len(forms) == 4
    assert all(f.is_homogeneous and f.total_degree() == 3 for f in forms)
    assert sympy.gcd_list([f.as_expr() for f in forms]) == 1
    # the same gcd sees a shared factor
    assert sympy.gcd_list([f.as_expr() * (x + y) for f in forms]) == x + y


def test_character_table():
    expected = {"Q1": (1, -1), "Q2": (1, 1), "Q3": (-1, 1)}
    seen = {}
    for name, want in expected.items():
        chars = (equation_character(SWAP, QUADRICS[name]),
                 equation_character(SIGNS, QUADRICS[name]))
        assert chars == want
        seen[name] = chars
    assert len(set(seen.values())) == 3


def test_identity_transform_fixes_everything():
    f = parse_mpoly("x0^2*x3 - 2*x1*x2*x3 + x2^3")
    assert transform_poly(IDENTITY, f) == f
    assert equation_character(IDENTITY, f) == 1


def test_transform_is_ring_homomorphism():
    rng = random.Random(53)
    variables = [MPoly.variable(v) for v in PROJ_VARS]

    def random_poly():
        out = MPoly.constant(0)
        for _ in range(rng.randint(1, 4)):
            term = MPoly.constant(F(rng.randint(-4, 4)))
            for v in variables:
                term = term * v ** rng.randint(0, 2)
            out = out + term
        return out

    for _ in range(20):
        f, h = random_poly(), random_poly()
        for action in (SWAP, SIGNS):
            assert (transform_poly(action, f * h)
                    == transform_poly(action, f) * transform_poly(action, h))
            assert (transform_poly(action, f + h)
                    == transform_poly(action, f) + transform_poly(action, h))


def test_common_fixed_points_of_the_involution_pair():
    report = common_fixed_points(SWAP, SIGNS)
    assert report.is_empty()


def test_fixed_locus_of_one_involution():
    report = common_fixed_points(SIGNS, IDENTITY)
    assert not report.points
    assert len(report.loci) == 2
    assert all(locus.dimension == 1 for locus in report.loci)
    spans = {frozenset(tuple(v) for v in locus.basis) for locus in report.loci}
    e = [tuple(F(1 if i == j else 0) for i in range(4)) for j in range(4)]
    assert frozenset((e[0], e[2])) in spans
    assert frozenset((e[1], e[3])) in spans


def test_fixed_locus_of_identity_pair():
    report = common_fixed_points(IDENTITY, IDENTITY)
    assert len(report.loci) == 1
    assert report.loci[0].dimension == 3


def test_non_commuting_actions_rejected():
    """Two involutions need not commute: G = [[1,0,0,0],[1,-1,0,0],...] (G G = 1,
    eigenspaces x0 = 2 x1 and span(e1)) and diag(1, -1, 1, 1) fix the point e1
    and the line span(e2, e3).  The shear is not an involution and is refused."""
    g = LinearAction([[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    h = diagonal(1, -1, 1, 1)
    gh, hg = ([[sum(a.matrix[i][k] * b.matrix[k][j] for k in range(4)) for j in range(4)]
               for i in range(4)] for a, b in ((g, h), (h, g)))
    assert gh != hg
    report = common_fixed_points(g, h)
    e = [tuple(F(1 if i == j else 0) for i in range(4)) for j in range(4)]
    assert report.points == (e[1],)
    assert [(locus.eigenvalues, locus.dimension, set(locus.basis))
            for locus in report.loci] == [((1, 1), 1, {e[2], e[3]})]
    shear = LinearAction([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="involutions only"):
        common_fixed_points(shear, SIGNS)


def test_irrational_eigenvalues_rejected():
    """The rotation by a quarter turn has eigenvalues +-i; it is refused as a
    non-involution (its square is diag(-1, -1, 1, 1)) before any eigenspace."""
    rotation = LinearAction([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="involutions only"):
        common_fixed_points(rotation, IDENTITY)


def test_only_involutions_have_their_fixed_points_computed():
    """g g = 1 is checked exactly on each matrix, first or second."""
    shear = LinearAction([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    rotation = LinearAction([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for g in (shear, rotation, diagonal(F(1, 2), 3, 5, 7)):
        for pair in ((g, IDENTITY), (SWAP, g)):
            with pytest.raises(ValueError, match=r"each action must satisfy g g = 1"):
                common_fixed_points(*pair)


def test_fixed_points_of_random_involutions_match_the_sympy_oracle():
    """Pairs of involutions P diag(+-1) P^-1, each conjugated by its own seeded
    rational P, most of them not commuting: the points, and each locus's
    eigenvalues and row space, equal sympy's eigenvects and nullspaces."""
    import sympy
    rng, seen = random.Random(36), Counter()

    def involution():
        while True:
            p = sympy.Matrix(4, 4, lambda i, j: sympy.Rational(rng.randint(-3, 3),
                                                               rng.choice((1, 1, 2, 3))))
            if p.det():
                break
        signs = sympy.diag(*(rng.choice((-1, 1)) for _ in range(4)))
        m = p * signs * p.inv()
        return LinearAction([[F(int(x.p), int(x.q)) for x in m.row(i)] for i in range(4)])

    def row_space(vectors):
        return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in v]
                             for v in vectors]).rref()[0]

    for _ in range(64):
        g1, g2 = involution(), involution()
        report = common_fixed_points(g1, g2)
        want = fixed_points_oracle(g1.matrix, g2.matrix)
        assert [row_space([p]) for p in report.points] == [
            space for _, space in want if space.rows == 1]
        assert [(locus.eigenvalues, row_space(locus.basis)) for locus in report.loci] == [
            (eigenvalues, space) for eigenvalues, space in want if space.rows > 1]
        assert all(locus.dimension == len(locus.basis) - 1 for locus in report.loci)
        m1, m2 = sympy.Matrix(g1.matrix), sympy.Matrix(g2.matrix)
        seen.update(["non-commuting"] * (m1 * m2 != m2 * m1) + ["points"] * bool(report.points)
                    + ["loci"] * bool(report.loci))
    assert seen["non-commuting"] >= 40 and seen["points"] >= 20 and seen["loci"] >= 20, seen


def test_six_intersection_points():
    """The restriction of the swept quadric to the cubic is exactly
    x*y*(x^4 - y^4), whose six linear factors are the six points."""
    x, y = MPoly.variable("x"), MPoly.variable("y")
    restricted = QUADRICS["Q4"].subs(dict(zip(PROJ_VARS, twisted_cubic())))
    assert restricted == x ** 5 * y - x * y ** 5


def test_swap_exchanges_the_first_two_points():
    """SWAP applied to the cubic's components gives the cubic with x and y
    exchanged, so it maps the point at (x:y) to the one at (y:x); in
    particular it exchanges (0:1) and (1:0)."""
    x, y = MPoly.variable("x"), MPoly.variable("y")
    components = twisted_cubic()
    cubic = dict(zip(PROJ_VARS, components))
    exchanged = [c.subs({"x": y, "y": x}) for c in components]
    swapped = [transform_poly(SWAP, MPoly.variable(v)).subs(cubic) for v in PROJ_VARS]
    assert swapped == exchanged
    assert swapped != list(components)


def test_transform_reads_each_image_off_its_matrix_row():
    """The image of x_i is sum_j m_ij x_j, zero entries left out."""
    rng = random.Random(31)
    variables = [MPoly.variable(v) for v in PROJ_VARS]
    for action in (SWAP, SIGNS, IDENTITY, diagonal(F(1, 2), 3, F(-5, 3), 7),
                   LinearAction([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                                 for _ in range(3)] + [[1, 0, 0, 1]])):
        for v, row in zip(PROJ_VARS, action.matrix):
            image = transform_poly(action, MPoly.variable(v))
            assert image == sum((c * x for c, x in zip(row, variables)), MPoly.constant(0))


def test_zero_equation_has_no_character_and_is_not_transformed(monkeypatch):
    calls = []
    original = projgeo.transform_poly

    def counted(g, f):
        calls.append(1)
        return original(g, f)

    monkeypatch.setattr(projgeo, "transform_poly", counted)
    assert equation_character(SWAP, MPoly.constant(0)) is None
    assert calls == []
    assert equation_character(SWAP, QUADRICS["Q1"]) == 1 and calls == [1]


def test_poly_kernel_is_a_normalized_basis():
    """One primitive vector per free column, each annihilated by the matrix:
    entries without a common factor, integer content 1, and a positive
    leading coefficient on the first nonzero entry."""
    import sympy
    x = sympy.Symbol("x")
    u = Poly.variable("u")
    rows = [[1 + u, 2 * u, Poly(), F(1, 2) * u * u],
            [2 + 2 * u, 4 * u, u, Poly()],
            [3 + 3 * u, 6 * u, u, F(1, 2) * u * u]]   # row 3 = row 1 + row 2
    kernel = poly_kernel_oracle(rows, 4)
    assert len(kernel) == 2
    for vec in kernel:
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), Poly()) == Poly()
        assert reduce(sympy.gcd, [to_sympy(p, x) for p in vec]) == 1
        coeffs = [c for p in vec for c in p.coeffs]
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
        assert next(p for p in vec if p).coeffs[-1] > 0
    one = Poly.of(1)
    assert poly_kernel_oracle([[one, Poly()], [Poly(), one]], 2) == []
    assert poly_kernel_oracle([], 3) == [[one, Poly(), Poly()], [Poly(), one, Poly()],
                                         [Poly(), Poly(), one]]


def test_line_parametrization_is_the_kernel_basis():
    """The closed-form point is a V1 + b V2 for the normalized kernel basis
    V1, V2 over Q[s] of the forms x0 - s x2 and x3 - s x1 that cut out the line."""
    a, b, s = (MPoly.variable(n) for n in ("a", "b", "s"))
    one, zero = MPoly.constant(1), MPoly.constant(0)
    rows = [[unipoly(p, "s") for p in row]
            for row in ([one, zero, -s, zero], [zero, -s, zero, one])]
    v1, v2 = poly_kernel_oracle(rows, 4)
    point = invariant_line("s")
    assert point == [mpoly(p, "s") * a + mpoly(q, "s") * b
                     for p, q in zip(v1, v2)]
    # x0 = s x2 and x3 = s x1, with the free columns x2 = a and x1 = b scaled
    # to polynomial vectors (s, 0, 1, 0) and (0, 1, 0, s)
    assert point == [s * a, b, a, s * b]


def test_secant_conic_is_the_normalized_kernel_over_q_s():
    """The closed form equals the one kernel vector over Q[s] of the
    containment system, scaled so that a4 is monic."""
    names = [f"a{k}" for k in range(1, 7)]
    for parameter in ("s", "t"):
        conditions = line_containment_conditions(symbolic_conic_pullback(),
                                                 invariant_line(parameter))
        rows = [[unipoly(p, parameter) for p in linear_coefficients(cond, names)]
                for cond in conditions]
        (vec,) = poly_kernel_oracle(rows, 6)
        want = [mpoly(p * (1 / vec[3].coeffs[-1]), parameter) for p in vec]
        assert secant_conic(parameter) == want
    s = MPoly.variable("s")
    assert secant_conic("s") == [-1, 0, 0, s, s * s + 1, s]


def test_containment_rank_at_integer_points():
    """Rank 5 away from s = +-1, where the line collapses onto one point of
    the plane and only one condition is left."""
    assert [projgeo._containment_rank(value) for value in (0, 2, 3)] == [5, 5, 5]
    assert [projgeo._containment_rank(value) for value in (1, -1)] == [1, 1]


def test_containment_rank_matches_the_symbolic_pullback():
    """The rank read off the quadric map composed with the line equals the
    rank of the conditions the whole symbolic pullback gives, at s = -3..3."""
    ranks = [projgeo._containment_rank(value) for value in range(-3, 4)]
    assert ranks == [containment_rank_oracle(value) for value in range(-3, 4)]
    assert ranks == [5, 5, 1, 5, 1, 5, 5]


def test_secant_conic_refuses_a_family_without_a_unique_conic(monkeypatch):
    """The line x0 = x2, x3 = x1 for every value of the parameter maps to one
    point of the plane, so every conic through that point contains it."""
    def collapsed(parameter):
        a, b = MPoly.variable("a"), MPoly.variable("b")
        return [a, b, a, b]

    monkeypatch.setattr(projgeo, "invariant_line", collapsed)
    with pytest.raises(ValueError, match="does not have a one-dimensional solution"):
        secant_conic("s")


def test_verify_secant_lemma_solves_the_conic_once(monkeypatch):
    calls = []
    original = projgeo._containment_rank

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(projgeo, "_containment_rank", counted)
    assert verify_secant_lemma().all_verified()
    assert calls == [2]


def test_pullback_symbolic_display():
    assert symbolic_conic_pullback() == parse_mpoly(SYMBOLIC_PULLBACK_DISPLAY)


def test_pullback_single_coefficient():
    assert (pullback_under_quadric_map([0, 0, 0, 0, 0, 1])
            == parse_mpoly("(x2^2 - x1*x3)^2"))


def test_solved_conic_coefficients():
    """Each a_k / a4 exactly, in lowest terms with a monic denominator."""
    solved = verify_secant_lemma().solved_coefficients
    s = MPoly.variable("s")
    one = MPoly.constant(1)
    expected = {
        "a1": (MPoly.constant(-1), s),
        "a2": (MPoly.constant(0), one),
        "a3": (MPoly.constant(0), one),
        "a4": (one, one),
        "a5": (s * s + 1, s),
        "a6": (one, one),
    }
    assert solved == expected


def test_reduced_by_a4_needs_a4_to_be_the_parameter():
    """a_k / s is read off the coefficients of a_k in s, so a4 must be s."""
    s, t = MPoly.variable("s"), MPoly.variable("t")
    conic = [s * s * t + s, MPoly.constant(0), 1 + s, s, MPoly.constant(3), s]
    solved = projgeo._reduced_by_a4(conic, "s")
    assert solved["a1"] == (s * t + 1, 1) and solved["a3"] == (1 + s, s)
    for a4 in (2 * s, s + 1, t):
        conic[3] = a4
        with pytest.raises(ValueError, match="is not s"):
            projgeo._reduced_by_a4(conic, "s")


def test_cleared_quartic_matches_display():
    assert verify_secant_lemma().quartic == parse_mpoly(CLEARED_QUARTIC_DISPLAY)


def test_two_display_forms_are_equivalent():
    """Substituting the solved conic into the symbolic pullback and clearing
    the parameter reproduces the cleared quartic."""
    solved = verify_secant_lemma().solved_coefficients
    s = MPoly.variable("s")
    # multiply each a-coefficient by s/denominator and substitute back
    cleared = []
    for k in range(1, 7):
        num, den = solved[f"a{k}"]
        factor = s if den == MPoly.constant(1) else MPoly.constant(1)
        cleared.append(num * factor)
    assert pullback_under_quadric_map(cleared) == parse_mpoly(CLEARED_QUARTIC_DISPLAY)


def test_line_containment_conditions_for_the_second_parameter():
    conditions = line_containment_conditions(verify_secant_lemma().quartic, invariant_line("t"))
    first, second = secant_condition_displays()
    assert len(conditions) == 2
    for target in (first.primitive(), second.primitive()):
        assert any(c == target or c == -target for c in conditions)


def test_linear_coefficients_reject_every_other_degree():
    names = [f"a{k}" for k in range(1, 7)]
    s = MPoly.variable("s")
    assert (linear_coefficients(parse_mpoly("s*a1 - a3 + a1"), names)
            == [s + 1, 0, -1, 0, 0, 0])
    for text in ("a1*a2 + a3", "s*a1 + 1", "a4^2"):
        with pytest.raises(ValueError, match="is not homogeneous linear in a1..a6"):
            linear_coefficients(parse_mpoly(text), names)


def test_trivial_containment():
    a, b = MPoly.variable("a"), MPoly.variable("b")
    # the line x2 = x3 = 0
    assert line_containment_conditions(parse_mpoly("x3"), [a, b, 0, 0]) == []


def test_secant_lemma_certificates():
    report = verify_secant_lemma()
    assert report.closure
    assert report.conditions_match
    assert report.factor_identity
    assert report.reciprocal_eliminated
    assert report.diagonal_checked
    assert report.all_verified()
    s = MPoly.variable("s")
    assert report.reciprocal_branch == (s * s - 1) ** 3


def test_factor_identity_display():
    s, t = MPoly.variable("s"), MPoly.variable("t")
    _, second = secant_condition_displays()
    assert second == (s - t) * (1 - s * t)


def test_diagonal_point_values():
    first, second = secant_condition_displays()
    assert first.subs({"s": F(2), "t": F(2)}).is_zero()
    assert second.subs({"s": F(2), "t": F(2)}).is_zero()
    assert first.subs({"s": F(2), "t": F(3)}) != 0


def test_mpoly_parse_format_round_trip():
    rng = random.Random(8)
    for _ in range(40):
        poly = MPoly.constant(0)
        for _ in range(rng.randint(1, 5)):
            term = MPoly.constant(F(rng.randint(-5, 5), rng.randint(1, 3)))
            for v in ("x0", "x1", "s"):
                term = term * MPoly.variable(v) ** rng.randint(0, 2)
            poly = poly + term
        assert parse_mpoly(format_mpoly(poly)) == poly


def test_mpoly_constant_equals_and_hashes_as_its_fraction():
    assert MPoly.constant(3) == 3 and hash(MPoly.constant(3)) == hash(3)
    assert hash(MPoly.constant(F(-1, 2))) == hash(F(-1, 2))
    assert hash(MPoly.constant(0)) == hash(0) and MPoly.constant(0).is_zero()
    assert len({MPoly.constant(3), 3, F(3)}) == 1


def test_mpoly_prints_in_sorted_variable_order():
    assert str(parse_mpoly("x0*x3*x1*x2")) == "x0*x1*x2*x3"
    assert MPoly(("t", "s"), {(2, 1): 1}) == MPoly(("s", "t"), {(1, 2): 1})


def test_mpoly_rejects_bad_exponent_tuples_and_negative_powers():
    with pytest.raises(ValueError, match="duplicate"):
        MPoly(("s", "s"), {(1, 1): 1})
    with pytest.raises(ValueError):
        MPoly(("s",), {(1, 2): 1})
    with pytest.raises(ValueError, match="negative power"):
        MPoly.variable("s") ** -1


def test_mpoly_rejects_non_integer_exponents():
    for exps in ((-1,), (F(3, 2),), (1.5,), ("2",)):
        with pytest.raises(ValueError, match="nonnegative ints"):
            MPoly(("x",), {exps: 1})
    p = MPoly(("x", "y"), {(True, False): 3})
    assert p == 3 * MPoly.variable("x")
    assert [type(e) for mono in p.terms for _, e in mono] == [int]


def test_no_float_enters_projgeo():
    x = MPoly.variable("x")
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0.5]]
    for build in (lambda: MPoly(("x",), {(1,): 0.5}), lambda: MPoly.constant(0.1),
                  lambda: LinearAction(rows), lambda: x.subs({"x": 0.5}),
                  lambda: MPoly.variable("y").subs({"x": 0.5})):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            build()
    for combine in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x,
                    lambda: x * 0.5, lambda: 0.5 * x, lambda: x + "1"):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()
    with pytest.raises(TypeError, match="got str"):
        x.subs({"x": "1"})


def diagonal(*entries):
    return LinearAction([[entries[i] if i == j else 0 for j in range(4)] for i in range(4)])


def _coefficients(value):
    """Every MPoly coefficient reachable from a report value."""
    if isinstance(value, MPoly):
        yield from value.terms.values()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _coefficients(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _coefficients(item)


def _is_canonical(c) -> bool:
    return type(c) is int or (type(c) is F and c.denominator > 1)


def test_coefficients_are_ints_when_integral():
    report = verify_secant_lemma()
    reached = list(_coefficients([report.solved_coefficients, report.quartic,
                                  report.conditions, report.reciprocal_branch]))
    assert reached and all(_is_canonical(c) for c in reached)
    rng = random.Random(29)
    actions = (SWAP, SIGNS, diagonal(F(1, 2), 3, F(-5, 3), 7),
               LinearAction([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                             for _ in range(3)] + [[F(1), 0, 0, F(2, 2)]]))
    for action in actions:
        assert all(_is_canonical(c) for row in action.matrix for c in row)
        for f in list(QUADRICS.values()) + [parse_mpoly("1/2*x0^3 - 3/4*x1*x2*x3 + x2^2")]:
            image = transform_poly(action, f)
            assert all(_is_canonical(c) for c in image.terms.values())
    assert LinearAction([[F(2, 1), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                         [0, 0, 0, 1]]).matrix[0][0] == 2
    assert type(diagonal(F(2, 1), 1, 1, 1).matrix[0][0]) is int
    assert type(MPoly.constant(F(4, 2)).terms[()]) is int
    assert (MPoly.variable("x") * F(1, 2) * 2).terms == {(("x", 1),): 1}


def test_character_and_fixed_points_are_fractions():
    chi = equation_character(diagonal(2, 3, 5, 7), parse_mpoly("x0*x1"))
    assert chi == 6 and type(chi) is F
    assert type(equation_character(SWAP, QUADRICS["Q1"])) is F
    # the sign pairs (-1, -1), (-1, 1), (1, -1), (1, 1) in turn fix e3, e2, e1, e0
    report = common_fixed_points(diagonal(1, 1, -1, -1), diagonal(1, -1, 1, -1))
    e = [tuple(F(1 if i == j else 0) for i in range(4)) for j in range(4)]
    assert report.points == tuple(reversed(e)) and not report.loci
    assert all(type(c) is F for point in report.points for c in point)
    locus = common_fixed_points(IDENTITY, IDENTITY).loci[0]
    assert all(type(c) is F for c in locus.eigenvalues + sum(locus.basis, ()))


def test_subs_matches_the_per_monomial_oracle():
    """Polynomial and scalar images, exponents repeated across monomials."""
    rng = random.Random(61)
    names = ("x0", "x1", "x2", "s")

    def random_poly(variables, terms, top):
        return MPoly(variables, {tuple(rng.randint(0, top) for _ in variables):
                                 F(rng.randint(-6, 6), rng.randint(1, 3))
                                 for _ in range(terms)})

    for _ in range(60):
        f = random_poly(names, rng.randint(1, 8), 4)
        mapping = {}
        for v in rng.sample(names, rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                mapping[v] = random_poly(("a", "b", "s"), rng.randint(1, 3), 2)
            elif kind == 1:
                mapping[v] = F(rng.randint(-3, 3), rng.randint(1, 2))
            else:
                mapping[v] = rng.randint(-2, 2)
        got = f.subs(mapping)
        assert got.terms == subs_per_monomial(f, mapping).terms
        assert all(_is_canonical(c) for c in got.terms.values())
