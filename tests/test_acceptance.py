"""Acceptance gate: every criterion at its stated value/tolerance.

Each test prints one pass/fail line per criterion item (visible with -s or
in failure output).  Values are exact fractions unless a tolerance is part
of the criterion itself.
"""

import random
import time
from fractions import Fraction as F

import pytest

from divstab import linalg, projgeo, sinv
from divstab.cones import Decomposition, Infeasible, effective_decompose, \
    pseudoeffective_threshold
from divstab.lattice import DivisorClass, restrict, surface_pair, triple_product, \
    pair_with_curve
from divstab.ratmath import Poly
from divstab.zariski import NotPseudoEffectiveError, zariski_decompose
from conftest import curve_input
from oracles import grid_decompose, midpoint_1d, negative_term_oracle, \
    volume_term_oracle

U = Poly.variable("u")

# criterion 1 as stated: eight golden fractions, exact equality
CRITERION_1 = (
    ("S(W^S; l)", "lemma_4_1", "s_curve", F(753, 1120)),
    ("S(W^EL; s)", "lemma_4_2_s", "s_curve", F(13, 16)),
    ("S(W^EL; s+3l)", "lemma_4_2_r", "s_curve", F(19, 56)),
    ("S(W^Q; l1)", "lemma_4_3_l1", "s_curve", F(109, 112)),
    ("S(W^Q; l2)", "lemma_4_3_l2", "s_curve", F(89, 112)),
    ("S(W^Q; l1+l2-e1-e2)", "lemma_4_3_mixed", "s_curve", F(13, 16)),
    ("negative-part term for EC|Q", "lemma_4_3_ec_term", "negative_part", F(5, 224)),
    ("bound for EC|Q", "lemma_4_3_ec_bound", "bound", F(223, 224)),
)


@pytest.fixture(scope="session")
def golden_values(scenarios):
    start = time.perf_counter()
    values = {}
    for label, name, mode, _ in CRITERION_1:
        inp = curve_input(scenarios[name])
        if mode == "s_curve":
            values[label] = sinv.s_curve(inp).value
        elif mode == "negative_part":
            values[label] = sinv.negative_part_term(inp)
        else:
            values[label] = (sinv.negative_part_term(inp)
                             + sinv.dominance_bound(inp, inp.dominating).value)
    return values, time.perf_counter() - start


@pytest.mark.parametrize("label,name,mode,stated", CRITERION_1,
                         ids=[c[1] for c in CRITERION_1])
def test_criterion_1_golden_fractions(golden_values, label, name, mode, stated):
    values, _ = golden_values
    computed = values[label]
    ok = computed == stated
    print(f"criterion 1 [{label}]: computed {computed}, stated {stated} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"{label}: stated {stated}, computed {computed}"


def test_criterion_1_runtime(golden_values):
    _, elapsed = golden_values
    print(f"criterion 1 [runtime]: {elapsed:.2f}s for all eight values -> "
          f"{'PASS' if elapsed < 10 else 'FAIL'}")
    assert elapsed < 10


# The curve invariant of C = l1 + l2 - e1 - e2 on the quadric Q, by hand.
# Per schedule chamber, P(u)|_Q - vC splits at v = 1: below it the class is
# nef, above it e1 and e2 form the negative part.  Each piece is
# (u_lo, u_hi, v_lo(u), v_hi(u), support, vol(u, v)).
MIXED_PIECES = (
    # u in [0, 1]: P|_Q = (3-u) l1 + 2 l2 - e1 - e2
    (F(0), F(1), lambda u: 0, lambda u: 1, (),
     lambda u, v: 2 * (3 - u - v) * (2 - v) - 2 * (1 - v) ** 2),
    (F(0), F(1), lambda u: 1, lambda u: 2, ("e1", "e2"),
     lambda u, v: 2 * (3 - u - v) * (2 - v)),
    # u in [1, 3/2]: P|_Q = (4-2u)(l1 + l2) - e1 - e2
    (F(1), F(3, 2), lambda u: 0, lambda u: 1, (),
     lambda u, v: 2 * (4 - 2 * u - v) ** 2 - 2 * (1 - v) ** 2),
    (F(1), F(3, 2), lambda u: 1, lambda u: 4 - 2 * u, ("e1", "e2"),
     lambda u, v: 2 * (4 - 2 * u - v) ** 2),
)
# P(u)|_Q in the basis l1 l2 e1 e2, per schedule chamber
MIXED_RESTRICTED = (lambda u: (3 - u, 2, -1, -1),
                    lambda u: (4 - 2 * u, 4 - 2 * u, -1, -1))
# six (s, t) offsets into a piece; mapped to (u, v) they must lie on no conic
PIECE_OFFSETS = tuple((F(s, 4), F(t, 4))
                      for s, t in ((1, 1), (3, 1), (2, 2), (1, 3), (3, 3), (1, 2)))


def _on_no_conic(points):
    """True when the 6x6 matrix of 1, u, v, u^2, uv, v^2 is nonsingular."""
    rows = [[F(1), u, v, u * u, u * v, v * v] for u, v in points]
    for col in range(6):
        pivot = next((r for r in range(col, 6) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, 6):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return True


def _simpson(f, a, b):
    """Simpson's rule: exact for polynomials of degree <= 3."""
    a, b = F(a), F(b)
    return (b - a) * (f(a) + 4 * f((a + b) / 2) + f(b)) / 6


def test_criterion_1_mixed_class_derivation(scenarios):
    """13/16 for lemma_4_3_mixed, derived without the chart builder.

    Each piece's support and volume are checked against the pointwise
    decomposition at six points on no common conic.  On a fixed support the
    volume is a quadratic in (u, v), so six such points determine it.  The
    top of each upper piece is checked to be the pseudo-effective threshold.
    Nested Simpson's rule then integrates exactly: vol is quadratic in v, and
    with affine bounds the inner integral is a cubic in u.
    """
    scenario = scenarios["lemma_4_3_mixed"]
    model, surface, sched = scenario.model, scenario.surface, scenario.schedule
    assert [(ch.u_lo, ch.u_hi) for ch in sched.chambers] == [(0, 1), (1, F(3, 2))]
    restricted = [restrict(sched.positive_part(surface.cls, model.anticanonical, ch),
                           surface.restriction) for ch in sched.chambers]

    # negative-part term: N|_Q = (u-1)(l1 + 2 l2) on the upper chamber, not a
    # multiple of C, so ord_C(N|_Q) = 0 throughout
    (_, n_cls, n_coeff), = sched.chambers[1].negative
    n_q = restrict(n_cls.scale(n_coeff), surface.restriction)
    for u in (F(5, 4), F(4, 3)):
        assert n_q.evaluate(u=u).coeffs == (u - 1, 2 * (u - 1), 0, 0)
    assert sched.chambers[0].negative == ()
    assert sinv.negative_part_term(curve_input(scenario)) == 0

    integrals = []
    for u_lo, u_hi, v_lo, v_hi, support, vol in MIXED_PIECES:
        k = 0 if u_hi <= 1 else 1
        points = []
        for s, t in PIECE_OFFSETS:
            u = u_lo + s * (u_hi - u_lo)
            points.append((u, v_lo(u) + t * (v_hi(u) - v_lo(u))))
        assert _on_no_conic(points)
        for u, v in points:
            d0 = restricted[k].evaluate(u=u)
            assert d0.coeffs == MIXED_RESTRICTED[k](u)
            result = zariski_decompose(d0 - scenario.z.scale(v),
                                       surface.extremal_curves, surface.form)
            assert sorted(result.support) == list(support), (u, v)
            assert surface_pair(result.positive, result.positive,
                                surface.form) == vol(u, v), (u, v)
        if support:
            for u, _ in points:
                d0 = restricted[k].evaluate(u=u)
                top = zariski_decompose(d0 - scenario.z.scale(v_hi(u)),
                                        surface.extremal_curves, surface.form)
                assert surface_pair(top.positive, top.positive, surface.form) == 0
                with pytest.raises(NotPseudoEffectiveError):
                    zariski_decompose(d0 - scenario.z.scale(v_hi(u) + F(1, 64)),
                                      surface.extremal_curves, surface.form)
        integrals.append(_simpson(
            lambda u: _simpson(lambda v: vol(u, v), v_lo(u), v_hi(u)),
            u_lo, u_hi))

    lower, upper = integrals[0] + integrals[1], integrals[2] + integrals[3]
    assert (lower, upper) == (F(20, 3), F(11, 12))
    assert model.degree == 28
    s_value = 3 * (lower + upper) / model.degree
    assert s_value == F(13, 16)
    print(f"criterion 1 [mixed class, by hand]: 3/28 * ({lower} + {upper}) = "
          f"{s_value} -> PASS")


def test_criterion_2_thresholds(model):
    mk, cone = model.anticanonical, model.effective_cone
    targets = [("H", model.basis.unit("H")),
               ("EL", model.basis.unit("EL")),
               ("2H-EC", DivisorClass(model.basis, [2, -1, 0]))]
    for label, y in targets:
        tau = pseudoeffective_threshold(mk, y, cone)
        print(f"criterion 2 [tau(-K, {label})]: {tau} -> "
              f"{'PASS' if tau == F(3, 2) else 'FAIL'}")
        assert tau == F(3, 2)


def test_criterion_2_chart_bounds(scenarios):
    half = F(1, 2)
    plane = sinv.volume_charts(curve_input(scenarios["lemma_4_1"]))
    assert [ch.v_hi for ch in plane[0].chambers] == [2 - U]
    cells = plane[1].u_cells()
    assert cells == [(1, F(7, 5)), (F(7, 5), F(3, 2))]
    low, high = plane[1].stack(*cells[0]), plane[1].stack(*cells[1])
    assert [ch.v_hi for ch in low] == [3 - 2 * U, (5 - 3 * U) * half]
    assert [ch.v_hi for ch in high] == [3 - 2 * U, 6 - 4 * U]
    print("criterion 2 [plane chart]: bounds 2-u; 3-2u; (5-3u)/2 with u-break 7/5; "
          "6-4u -> PASS")
    ruled = sinv.volume_charts(curve_input(scenarios["lemma_4_2_s"]))
    assert [ch.v_hi for ch in ruled[0].chambers] == [1 + U]
    assert [ch.v_hi for ch in ruled[1].chambers] == [Poly.constant(2)]
    print("criterion 2 [ruled chart]: bounds 1+u; 2 -> PASS")
    mixed = sinv.volume_charts(curve_input(scenarios["lemma_4_3_mixed"]))
    one = Poly.constant(1)
    assert [ch.v_hi for ch in mixed[0].chambers] == [one, Poly.constant(2)]
    assert [ch.v_hi for ch in mixed[1].chambers] == [one, 4 - 2 * U]
    print("criterion 2 [quadric chart]: bounds 1; 2; 4-2u -> PASS")


def test_criterion_3_decomposition_instance(zcone_model):
    outcome = effective_decompose(zcone_model.anticanonical,
                                  zcone_model.effective_cone)
    assert isinstance(outcome, Decomposition)
    ok = outcome.coefficients == (2, 1, 0, 1, 0)
    print(f"criterion 3 [decomposition at (4,1,1)]: {outcome.coefficients} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.mark.parametrize("family", [
    [4 - 4 * U, 2 * U - 1, 0],
    [4 - 2 * U, -1, -(1 - 2 * U)],
    [4 - 2 * U, -1, -1 + 0 * U],
], ids=["quadric-multiple", "line-plane-multiple", "general-plane-multiple"])
def test_criterion_3_infeasible_families(model, family):
    cls = DivisorClass(model.basis, family)
    lo, hi = F(4, 3), F(10, 3)
    feasible = []
    for k in range(1, 21):
        a = lo + (hi - lo) * F(k, 20)
        outcome = effective_decompose(cls.evaluate(u=a), model.effective_cone)
        if not isinstance(outcome, Infeasible):
            feasible.append(a)
    print(f"criterion 3 [scan {family}]: "
          f"{'infeasible at all 20 samples -> PASS' if not feasible else f'feasible at {feasible} -> FAIL'}")
    assert not feasible


def test_criterion_4_character_table():
    swap, signs = projgeo.standard_involutions()
    quadrics = projgeo.invariant_quadrics()
    table = {name: (projgeo.equation_character(swap, quadrics[name]),
                    projgeo.equation_character(signs, quadrics[name]))
             for name in ("Q1", "Q2", "Q3")}
    ok = table == {"Q1": (1, -1), "Q2": (1, 1), "Q3": (-1, 1)}
    print(f"criterion 4 [character table]: {table} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_4_no_common_fixed_points():
    swap, signs = projgeo.standard_involutions()
    report = projgeo.common_fixed_points(swap, signs)
    print(f"criterion 4 [fixed points]: {'empty' if report.is_empty() else report}"
          f" -> {'PASS' if report.is_empty() else 'FAIL'}")
    assert report.is_empty()


def test_criterion_4_secant_lemma():
    report = projgeo.verify_secant_lemma()
    solved = report.solved_coefficients
    s = projgeo.MPoly.variable("s")
    expected = {"a1": (projgeo.MPoly.constant(-1), s),
                "a2": (projgeo.MPoly.constant(0), projgeo.MPoly.constant(1)),
                "a3": (projgeo.MPoly.constant(0), projgeo.MPoly.constant(1)),
                "a4": (projgeo.MPoly.constant(1), projgeo.MPoly.constant(1)),
                "a5": (s * s + 1, s),
                "a6": (projgeo.MPoly.constant(1), projgeo.MPoly.constant(1))}
    coeffs_ok = all(solved[k][0] * expected[k][1] == expected[k][0] * solved[k][1]
                    for k in expected)
    print(f"criterion 4 [solved conic]: {'PASS' if coeffs_ok else 'FAIL'}")
    print(f"criterion 4 [condition system]: "
          f"{'PASS' if report.conditions_match else 'FAIL'}")
    print(f"criterion 4 [factor identity (s-t)(1-st)]: "
          f"{'PASS' if report.factor_identity else 'FAIL'}")
    assert coeffs_ok and report.conditions_match and report.factor_identity
    assert report.all_verified()


SAMPLED_SCENARIOS = ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r", "lemma_4_3_l1",
                     "lemma_4_3_l2", "lemma_4_3_mixed", "lemma_4_3_ec_term")


@pytest.mark.parametrize("name", SAMPLED_SCENARIOS)
def test_criterion_5_zariski_invariants(scenarios, name):
    """Decomposition invariants at 10^3 random rational (u, v) samples, each
    agreeing with the chart chamber it was drawn from."""
    scenario = scenarios[name]
    surface = scenario.surface
    curves = dict(surface.extremal_curves)
    inp = curve_input(scenario)
    charts = sinv.volume_charts(inp)
    restricted = {}
    for chamber in scenario.schedule.chambers:
        p = scenario.schedule.positive_part(surface.cls,
                                            scenario.model.anticanonical, chamber)
        restricted[(chamber.u_lo, chamber.u_hi)] = restrict(p, surface.restriction)
    rng = random.Random(hash(name) % (2 ** 31))
    flat = [(chart, ch) for chart in charts for ch in chart.chambers]
    checked = 0
    while checked < 1000:
        chart, ch = flat[rng.randrange(len(flat))]
        u = ch.u_lo + (ch.u_hi - ch.u_lo) * F(rng.randint(1, 255), 256)
        lo, hi = ch.v_lo(u), ch.v_hi(u)
        if lo >= hi:
            continue
        v = lo + (hi - lo) * F(rng.randint(1, 255), 256)
        d0 = next(r for (a, b), r in restricted.items() if a <= u <= b)
        d = d0.evaluate(u=u) - scenario.z.scale(v)
        result = zariski_decompose(d, surface.extremal_curves, surface.form)
        assert set(result.support) == set(ch.support)
        assert ch.positive.evaluate(u=u, v=v) == result.positive
        assert result.positive + result.negative_class(curves) == d
        assert all(coeff >= 0 for _, coeff in result.negative)
        for cname, ccls in surface.extremal_curves:
            pairing = surface_pair(result.positive, ccls, surface.form)
            assert pairing == 0 if cname in result.support else pairing >= 0
        if result.support:
            gram = surface.form.gram([curves[c] for c in result.support])
            assert linalg.is_negative_definite(gram)
        checked += 1
    print(f"criterion 5 [zariski invariants, {name}]: {checked} samples -> PASS")


@pytest.mark.parametrize("name", SAMPLED_SCENARIOS[:6])
def test_criterion_5_curve_values_vs_quadrature(scenarios, name):
    inp = curve_input(scenarios[name])
    exact = float(sinv.s_curve(inp).value)
    estimate = negative_term_oracle(inp, 2000) + volume_term_oracle(inp, grid=200)
    ok = abs(exact - estimate) < 1e-3
    print(f"criterion 5 [quadrature, {name}]: exact {exact:.6f} vs grid "
          f"{estimate:.6f} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_one_dimensional_integrals(scenarios):
    cases = [("lemma_4_3_ec_term", F(5, 224)), ("lemma_4_2_r", F(1, 28))]
    for name, expected in cases:
        inp = curve_input(scenarios[name])
        exact = sinv.negative_part_term(inp)
        assert exact == expected
        estimate = negative_term_oracle(inp, 10_000)
        ok = abs(float(exact) - estimate) / float(exact) < 1e-6
        print(f"criterion 5 [1-D integral, {name}]: {exact} -> "
              f"{'PASS' if ok else 'FAIL'}")
        assert ok
    for name in ("sdiv_plane", "sdiv_line_exceptional", "sdiv_quadric",
                 "sdiv_anticanonical"):
        scenario = scenarios[name]
        exact = sinv.s_divisor(scenario.model, scenario.divisor, scenario.schedule)
        total = 0.0
        for chamber in scenario.schedule.chambers:
            p = scenario.schedule.positive_part(
                scenario.divisor, scenario.model.anticanonical, chamber)
            cube = triple_product(p, p, p, scenario.model.form)
            total += midpoint_1d(lambda x: cube(x), float(chamber.u_lo),
                                 float(chamber.u_hi), 10_000)
        estimate = total / float(scenario.model.degree)
        ok = abs(float(exact) - estimate) / float(exact) < 1e-6
        print(f"criterion 5 [1-D integral, {name}]: {exact} -> "
              f"{'PASS' if ok else 'FAIL'}")
        assert ok


def test_criterion_5_brute_force_decompositions(zcone_model):
    rng = random.Random(271828)
    cone = zcone_model.effective_cone
    generators = [list(g.coeffs) for g in cone.generators]
    agreements = 0
    for trial in range(100):
        if trial % 2 == 0:
            coeffs = [F(rng.randint(0, 2)) for _ in generators]
            target = [sum(c * g[i] for c, g in zip(coeffs, generators))
                      for i in range(3)]
        else:
            target = [F(rng.randint(-2, 4)), F(rng.randint(-3, 1)),
                      F(rng.randint(-3, 1))]
        outcome = effective_decompose(DivisorClass(cone.basis, target), cone)
        brute = grid_decompose(target, generators,
                               [F(k, 2) for k in range(13)])
        if isinstance(outcome, Infeasible):
            assert brute is None
        else:
            assert outcome.recombine().coeffs == tuple(target)
            if brute is not None:
                agreements += 1
        agreements += isinstance(outcome, Infeasible)
    print(f"criterion 5 [brute-force oracle]: 100 classes, "
          f"{agreements} cross-confirmed -> PASS")


def test_criterion_6_tensor_pin(model):
    mk = model.anticanonical
    degree = triple_product(mk, mk, mk, model.form)
    ok = degree == 28
    print(f"criterion 6 [(-K)^3]: {degree} -> {'PASS' if ok else 'FAIL'}")
    assert ok
    table = {c.name: c for c in model.mori_curves}
    expected = {("H", "lC"): 0, ("H", "lL"): 0, ("H", "lR"): 1,
                ("EL", "lC"): 0, ("EL", "lL"): -1, ("EL", "lR"): 1,
                ("EC", "lC"): -1, ("EC", "lL"): 0, ("EC", "lR"): 2}
    mismatches = {
        key: (pair_with_curve(model.basis.unit(key[0]), table[key[1]]), value)
        for key, value in expected.items()
        if pair_with_curve(model.basis.unit(key[0]), table[key[1]]) != value}
    print(f"criterion 6 [pairing table]: 9 entries -> "
          f"{'PASS' if not mismatches else f'FAIL {mismatches}'}")
    assert not mismatches
