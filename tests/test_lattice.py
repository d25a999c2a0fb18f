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
    assert isinstance(value, Poly) and len(value.rows) > 1
    assert all(len(row) <= 1 for row in value.rows)
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


def test_evaluate_substitutes_u_then_v(model):
    """u and v given together give the class that u, then v, gives: each
    coefficient at the point."""
    p = DivisorClass(model.basis, [8 - 4 * U + V * V, U * V - 3, F(1, 2)])
    u, v = F(5, 4), F(-2, 3)
    at = p.evaluate(u=u, v=v)
    assert at == p.evaluate(u=u).evaluate(v=v) == p.evaluate(v=v).evaluate(u=u)
    assert at == DivisorClass(model.basis, [c(u, v) for c in p.coeffs[:2]] + [F(1, 2)])
    assert at.rational


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


def _seeded_coeff(rng, kind):
    if kind == "zero":
        return F(0)
    if kind == "fraction":
        return _random_coeff(rng)
    rows = [[_random_coeff(rng)], [_random_coeff(rng)]]
    if kind == "u, v":
        rows[0].append(_random_coeff(rng))
    return Poly(rows)


def _seeded_class(rng, basis, kind):
    """A class of one kind: Fraction, u-only Poly or (u, v) Poly coefficients
    mixed with Fractions, or zero."""
    kinds = (kind, "fraction", "zero") if kind != "zero" else ("zero",)
    return DivisorClass(basis, [_seeded_coeff(rng, rng.choice(kinds)) for _ in basis.names])


def _same(got, expected):
    """Equal values of equal kinds: a constant comes back as a Fraction."""
    if isinstance(expected, DivisorClass):
        return (got == expected and got.rational == expected.rational
                and [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs])
    return got == expected and type(got) is type(expected)


def test_surface_pair_matches_the_fraction_oracle(dp5, dp6, ruled):
    """``surface_pair`` on integer tables equals the Fraction and Poly sum over
    the form's entries, in value and in type, on seeded classes of every
    coefficient kind; the ruled surface's form has off-diagonal entries."""
    from oracles import surface_pair_oracle
    assert any(i != j for i, j in ruled.form.values)
    rng = random.Random(28)
    kinds = ("zero", "fraction", "u", "u, v")
    for surface in (dp5, dp6, ruled):
        for _ in range(40):
            a, b = (_seeded_class(rng, surface.basis, rng.choice(kinds)) for _ in range(2))
            for x, y in ((a, b), (b, a), (a, a)):
                assert _same(surface_pair(x, y, surface.form),
                             surface_pair_oracle(x, y, surface.form))


def test_integer_lattice_paths_match_class_arithmetic(model, dp5, dp6, ruled):
    """``restrict``, ``triple_product``, ``pair_with_curve``, ``combination``
    and ``Schedule.positive_part`` on integer tables equal DivisorClass and
    Poly arithmetic on seeded classes of every coefficient kind."""
    from divstab.lattice import combination
    from divstab.sinv import Schedule, ScheduleChamber
    from oracles import (combination_oracle, pair_with_curve_oracle, restrict_oracle,
                         triple_product_oracle)
    rng = random.Random(25)
    basis, form = model.basis, model.form
    kinds = ("zero", "fraction", "u", "u, v")
    for _ in range(60):
        a, b, c = (_seeded_class(rng, basis, rng.choice(kinds)) for _ in range(3))
        for surface in (dp5, dp6, ruled):
            assert _same(restrict(a, surface.restriction),
                         restrict_oracle(a, surface.restriction))
        for curve in model.mori_curves:
            assert _same(pair_with_curve(a, curve), pair_with_curve_oracle(a, curve))
        for triple in ((a, a, a), (a, DivisorClass(basis, a.coeffs), b), (a, b, a), (a, b, c)):
            assert _same(triple_product(*triple, form), triple_product_oracle(*triple, form))
        terms = [(_seeded_coeff(rng, rng.choice(kinds)), cls) for cls in (a, b, c)]
        assert _same(combination(basis, terms), combination_oracle(basis, terms))
        negative = tuple((f"N{k}", cls, _seeded_coeff(rng, rng.choice(("u", "fraction"))))
                         for k, cls in enumerate((b, c)[:rng.randint(0, 2)]))
        chamber = ScheduleChamber(F(0), F(1), negative)
        expected = combination_oracle(basis, [(1, model.anticanonical), (-U, a),
                                              *((-coeff, cls) for _, cls, coeff in negative)])
        assert _same(Schedule((chamber,)).positive_part(a, model.anticanonical, chamber),
                     expected)
    zero = basis.zero()
    assert _same(triple_product(zero, zero, zero, form), F(0))
    assert _same(restrict(zero, dp5.restriction), dp5.basis.zero())
    assert _same(combination(basis, []), zero)


def _shipped_threefolds(scenarios):
    """The distinct models built from the bundled ``[threefold]`` sections."""
    models = []
    for scenario in scenarios.values():
        if scenario.model is not None and scenario.model not in models:
            models.append(scenario.model)
    return models


def test_shipped_tensor_follows_the_blowup_formulas(scenarios):
    """Blowing up P^3 along disjoint smooth curves of degree d and genus g:
    H^3 = 1, H^2.E = 0, H.E^2 = -d, E^3 = -(4d + 2g - 2), a product of two
    different exceptional divisors is 0, and (-K)^3 = 64 - sum(8d - 2g + 2)."""
    # (d, g) of the twisted cubic and of the line
    centers = {"EC": (3, 0), "EL": (1, 0)}
    models = _shipped_threefolds(scenarios)
    assert models
    for model in models:
        h = model.basis.unit("H")
        e = {name: model.basis.unit(name) for name in centers}
        form = model.form
        assert triple_product(h, h, h, form) == 1
        for name, (d, g) in centers.items():
            assert triple_product(h, h, e[name], form) == 0
            assert triple_product(h, e[name], e[name], form) == -d
            assert triple_product(e[name], e[name], e[name], form) == -(4 * d + 2 * g - 2)
        for first, second in permutations(centers, 2):
            for third in (h, e[first], e[second]):
                assert triple_product(e[first], e[second], third, form) == 0
        assert model.anticanonical == 4 * h - sum(e.values(), model.basis.zero())
        mk = model.anticanonical
        assert triple_product(mk, mk, mk, form) == 64 - sum(8 * d - 2 * g + 2
                                                            for d, g in centers.values())
        assert model.degree == 28


def test_anticanonical_class_is_positive_on_every_shipped_curve(scenarios):
    """Kleiman: -K = 4H - EC - EL pairs positively with every curve of the
    shipped ``[threefold]`` sections, 1 on lC, lL and lR and 12 on Z."""
    expected = {"lC": 1, "lL": 1, "lR": 1, "Z": 12}
    seen = set()
    for model in _shipped_threefolds(scenarios):
        for curve in model.mori_curves:
            assert pair_with_curve(model.anticanonical, curve) == expected[curve.name]
            seen.add(curve.name)
    assert seen == set(expected)
