import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations

import pytest

from divstab.lattice import (BasisMismatchError, CurvePairing, DivisorClass,
                             LatticeBasis, RestrictionMap, SurfaceForm,
                             ThreefoldForm, pair_with_curve, restrict,
                             surface_pair, triple_product)
from divstab.ratmath import Poly, format_rational

U = Poly.variable("u")
V = Poly.variable("v")


def units(model):
    return tuple(model.basis.unit(n) for n in model.basis.names)


def test_shipped_tensor_values(model):
    h, ec, el = units(model)
    mk = model.anticanonical
    form = model.form
    assert triple_product(mk, mk, mk, form) == 28
    assert triple_product(h, h, h, form) == 1
    assert triple_product(h, ec, ec, form) == -3
    assert triple_product(h, el, el, form) == -1
    assert triple_product(ec, ec, ec, form) == -10
    assert triple_product(el, el, el, form) == -2
    stated = {("H", "H", "H"), ("H", "EC", "EC"), ("H", "EL", "EL"),
              ("EC", "EC", "EC"), ("EL", "EL", "EL")}
    by_name = dict(zip(model.basis.names, units(model)))
    for triple in combinations_with_replacement(model.basis.names, 3):
        if triple not in stated:
            value = triple_product(by_name[triple[0]], by_name[triple[1]],
                                   by_name[triple[2]], form)
            assert value == 0, triple


def test_mori_pairing_table(model):
    h, ec, el = units(model)
    table = {c.name: c for c in model.mori_curves}
    expected = {
        ("H", "lC"): 0, ("H", "lL"): 0, ("H", "lR"): 1,
        ("EL", "lC"): 0, ("EL", "lL"): -1, ("EL", "lR"): 1,
        ("EC", "lC"): -1, ("EC", "lL"): 0, ("EC", "lR"): 2,
    }
    by_name = {"H": h, "EC": ec, "EL": el}
    for (divisor, curve), value in expected.items():
        assert pair_with_curve(by_name[divisor], table[curve]) == value


def test_triple_product_parametric(model):
    el = model.basis.unit("EL")
    p = DivisorClass(model.basis, [8 - 4 * U, -(3 - 2 * U), -2])
    value = triple_product(p, p, el, model.form)
    assert value == 24 - 16 * U
    assert value == 4 * (6 - 4 * U)
    # restricted square on the quadric model matches the displayed integrand
    q = DivisorClass(model.basis, [2, -1, 0])
    p2 = DivisorClass(model.basis, [4 - 2 * U, 0, -1])
    assert triple_product(p2, p2, q, model.form) == 2 * (4 - 2 * U) ** 2 - 2


def test_surface_pair_examples(dp5, ruled):
    ell = dp5.basis.unit("l")
    assert surface_pair(ell, ell, dp5.form) == 1
    cls = DivisorClass(dp5.basis, [4 - U - V, -1, -1, -1, -1])
    assert surface_pair(cls, cls, dp5.form) == (4 - U - V) ** 2 - 4
    s, l = ruled.basis.unit("s"), ruled.basis.unit("l")
    assert surface_pair(s, l, ruled.form) == 1
    assert surface_pair(s, s, ruled.form) == 0


def test_restrict_examples(model, dp5, dp6):
    ec = model.basis.unit("EC")
    el = model.basis.unit("EL")
    image = restrict(ec, dp6.restriction)
    assert image == DivisorClass(dp6.basis, [1, 2, 0, 0])
    assert restrict(el, dp5.restriction) == dp5.basis.unit("E1")
    assert restrict(model.basis.zero(), dp5.restriction) == dp5.basis.zero()


def test_pair_with_curve_examples(model):
    table = {c.name: c for c in model.mori_curves}
    ec = model.basis.unit("EC")
    h = model.basis.unit("H")
    r = DivisorClass(model.basis, [4, -2, -1])
    assert pair_with_curve(ec, table["lR"]) == 2
    assert pair_with_curve(h, table["lC"]) == 0
    assert pair_with_curve(r, table["lR"]) == -1


def test_restriction_compatibility_with_displayed_pairings(model, dp6):
    """Restricted intersection tables for the quadric scenario."""
    curves = dict(dp6.extremal_curves)
    p0 = DivisorClass(model.basis, [4 - 2 * U, U - 1, -1])      # first chamber
    d = restrict(p0, dp6.restriction) - dp6.basis.unit("l1").scale(V)
    assert surface_pair(d, curves["F21"], dp6.form) == 2 - U - V
    assert surface_pair(d, curves["F11"], dp6.form) == 1
    assert surface_pair(d, curves["e1"], dp6.form) == 1
    p1 = DivisorClass(model.basis, [4 - 2 * U, 0, -1])          # second chamber
    d1 = restrict(p1, dp6.restriction) - dp6.basis.unit("l1").scale(V)
    assert surface_pair(d1, curves["F21"], dp6.form) == 3 - 2 * U - V
    assert surface_pair(d1, curves["F11"], dp6.form) == 3 - 2 * U


def _random_coeff(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def test_multilinearity_and_symmetry(model):
    rng = random.Random(42)
    basis = model.basis
    form = model.form
    for _ in range(25):
        classes = [DivisorClass(basis, [_random_coeff(rng) for _ in range(3)])
                   for _ in range(4)]
        a, b, c, d = classes
        lam = _random_coeff(rng)
        left = triple_product(a + b.scale(lam), c, d, form)
        right = triple_product(a, c, d, form) + lam * triple_product(b, c, d, form)
        assert left == right
        reference = triple_product(a, b, c, form)
        for perm in permutations((a, b, c)):
            assert triple_product(*perm, form) == reference


def test_surface_pair_symmetry_and_linearity(dp5):
    rng = random.Random(9)
    basis, form = dp5.basis, dp5.form
    for _ in range(25):
        a, b, c = (DivisorClass(basis, [_random_coeff(rng) for _ in range(5)])
                   for _ in range(3))
        lam = _random_coeff(rng)
        assert surface_pair(a, b, form) == surface_pair(b, a, form)
        assert (surface_pair(a + c.scale(lam), b, form)
                == surface_pair(a, b, form) + lam * surface_pair(c, b, form))


def test_coefficient_kind_promotion(model):
    """Each coefficient is a Fraction or a non-constant Poly, kept as given."""
    basis = model.basis
    mixed = DivisorClass(basis, [4 - U, V, 1])
    assert mixed.coeffs == (4 - U, V, F(1))
    assert [type(c) for c in mixed.coeffs] == [Poly, Poly, F]
    # a constant Poly is stored as its Fraction, so equality and hashing
    # are plain tuple comparisons
    collapsed = DivisorClass(basis, [4 - U + U, Poly.of(-1), 0 * V])
    assert [type(c) for c in collapsed.coeffs] == [F, F, F]
    assert collapsed == DivisorClass(basis, [4, -1, 0])
    assert hash(collapsed) == hash(DivisorClass(basis, [4, -1, 0]))
    # the input types decide the pairing's type, never the value
    parametric = DivisorClass(basis, [4 - U, -1, -1])
    value = triple_product(parametric, parametric, basis.unit("EL"), model.form)
    assert isinstance(value, Poly) and value.degree_v <= 0 < value.degree_u
    flat = LatticeBasis(["A", "B"])
    form = SurfaceForm(flat, {("A", "A"): F(1)})
    constant = surface_pair(DivisorClass(flat, [1, U]), flat.unit("A"), form)
    assert isinstance(constant, Poly) and constant == 1
    assert isinstance(surface_pair(flat.unit("A"), flat.unit("A"), form), F)


def test_basis_mismatch_errors(model, dp5):
    with pytest.raises(BasisMismatchError):
        triple_product(model.anticanonical, model.anticanonical,
                       dp5.basis.unit("l"), model.form)
    with pytest.raises(BasisMismatchError):
        restrict(dp5.basis.unit("l"), dp5.restriction)
    with pytest.raises(BasisMismatchError):
        pair_with_curve(dp5.basis.unit("l"), model.mori_curves[0])


def test_tensor_symmetry_validation():
    basis = LatticeBasis(["A", "B"])
    with pytest.raises(ValueError, match="symmetry"):
        ThreefoldForm(basis, {("A", "A", "B"): F(1), ("A", "B", "A"): F(2)})
    form = ThreefoldForm(basis, {("A", "A", "B"): F(1), ("B", "A", "A"): F(1)})
    a, b = basis.unit("A"), basis.unit("B")
    assert triple_product(a, a, b, form) == 1


def test_curve_table_requires_totality(model):
    with pytest.raises(ValueError, match="missing"):
        CurvePairing("broken", model.basis, {"H": F(1)})


def test_curve_table_rejects_names_outside_the_basis(model):
    table = {"H": F(1), "EC": F(2), "EL": F(1), "XY": F(7)}
    with pytest.raises(ValueError, match=r"names \['XY'\] outside the basis"):
        CurvePairing("lR", model.basis, table)


def test_restriction_map_rejects_names_outside_the_basis(model, dp6):
    images = dict(zip(model.basis.names, dp6.restriction.images))
    assert RestrictionMap(model.basis, dp6.basis, images) == dp6.restriction
    images["XX"] = dp6.basis.unit("e1")
    with pytest.raises(ValueError, match=r"names \['XX'\] outside the basis"):
        RestrictionMap(model.basis, dp6.basis, images)


def test_evaluate_parametric_class(model):
    p = DivisorClass(model.basis, [8 - 4 * U, -(3 - 2 * U), -2])
    at = p.evaluate(u=F(5, 4))
    assert at == DivisorClass(model.basis, [3, F(-1, 2), -2])


def test_lattice_takes_exact_scalars_only():
    """A float coefficient, table entry or evaluation point is a TypeError,
    never a binary fraction such as 3602879701896397/36028797018963968."""
    basis = LatticeBasis(["H", "E"])
    for build in (lambda: DivisorClass(basis, [F(1), 0.1]),
                  lambda: ThreefoldForm(basis, {("H", "H", "H"): 0.5}),
                  lambda: SurfaceForm(basis, {("H", "E"): 1.0}),
                  lambda: CurvePairing("C", basis, {"H": 1, "E": 0.5}),
                  lambda: DivisorClass(basis, [U, 0]).evaluate(u=0.5),
                  lambda: format_rational(0.1)):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            build()
    assert DivisorClass(basis, [1, F(1, 2)]).coeffs == (1, F(1, 2))
    assert DivisorClass(basis, [U, 0]).evaluate(u=2) == DivisorClass(basis, [2, 0])
    assert format_rational(-3) == "-3" and format_rational(F(6, 4)) == "3/2"
