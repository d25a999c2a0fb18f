import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from divstab import sinv
from divstab.lattice import DivisorClass
from divstab.ratmath import Poly
from divstab.scenario import (bundled_scenario_names, evaluate_scenario, load_bundled,
                              load_bundled_scenario, parse_scenario, run_verify)
from conftest import curve_input
from oracles import negative_term_oracle, volume_term_oracle

U = Poly.variable("u")

GOLDEN = {
    "lemma_4_1": F(753, 1120),
    "lemma_4_2_s": F(13, 16),
    "lemma_4_2_r": F(19, 56),
    "lemma_4_3_l1": F(109, 112),
    "lemma_4_3_l2": F(89, 112),
    # derived exactly in test_acceptance.test_criterion_1_mixed_class_derivation;
    # the grid oracle below agrees
    "lemma_4_3_mixed": F(13, 16),
}


@pytest.mark.parametrize("name,expected", sorted(GOLDEN.items()))
def test_s_curve_golden_values(scenarios, name, expected):
    assert sinv.s_curve(curve_input(scenarios[name])).value == expected


@pytest.mark.parametrize("at", ["139/100", "141/100", "31/24"])
def test_s_curve_unchanged_by_splitting_a_schedule_chamber(at):
    """Cutting a schedule chamber changes nothing geometric, so S must not move.

    The cuts sit near the ends of the chamber and on either side of the
    u = 7/5 wall crossover, where a sampled chart would miss the crossing.
    """
    text = load_bundled("lemma_4_1.scn")
    whole = "chamber 1 3/2 = (u - 1)*R\n"
    assert whole in text and "ord = 0, 0\n" in text
    text = text.replace(whole, f"chamber 1 {at} = (u - 1)*R\nchamber {at} 3/2 = (u - 1)*R\n")
    scenario = parse_scenario(text.replace("ord = 0, 0\n", "ord = 0, 0, 0\n"), "lemma_4_1")
    assert sinv.s_curve(curve_input(scenario)).value == F(753, 1120)


def test_negative_part_terms(scenarios):
    assert sinv.negative_part_term(curve_input(scenarios["lemma_4_3_ec_term"])) == F(5, 224)
    assert sinv.negative_part_term(curve_input(scenarios["lemma_4_2_r"])) == F(1, 28)
    assert sinv.negative_part_term(curve_input(scenarios["lemma_4_1"])) == 0


def test_dominance_bounds(scenarios):
    ec_case = curve_input(scenarios["lemma_4_3_ec_bound"])
    l1 = ec_case.surface.basis.unit("l1")
    bound = sinv.dominance_bound(ec_case, l1).value
    assert bound == F(109, 112)
    assert sinv.negative_part_term(ec_case) + bound == F(223, 224)
    # bounding a section-plus-fiber class through the bare section class
    el_case = curve_input(scenarios["lemma_4_2_s"])
    thick = el_case.replace(z=DivisorClass(el_case.surface.basis, [2, 1]))
    assert sinv.dominance_bound(thick, el_case.surface.basis.unit("s")).value == F(13, 16)
    # bounding by itself is exact
    r_case = curve_input(scenarios["lemma_4_2_r"])
    assert sinv.dominance_bound(r_case, r_case.z).value == sinv.s_curve(r_case).value == F(19, 56)


def test_curve_invariant_carries_its_terms_and_charts(scenarios):
    inp = curve_input(scenarios["lemma_4_2_r"])
    result = sinv.s_curve(inp)
    assert result.negative_term == F(1, 28)
    assert result.value == result.negative_term + result.volume_term == F(19, 56)
    assert len(result.charts) == len(inp.schedule.chambers)
    volume = sum((chart.volume_integral() for chart in result.charts), F(0))
    assert result.volume_term == 3 * volume / inp.model.degree
    # bounding by itself is exact, down to the charts
    assert sinv.dominance_bound(inp, inp.z) == result


@pytest.mark.parametrize("name,invariant", [
    ("lemma_4_1", lambda inp, scenario: sinv.s_curve(inp)),
    ("lemma_4_3_ec_bound",
     lambda inp, scenario: sinv.dominance_bound(inp, scenario.dominate_via)),
], ids=["s_curve", "s_curve_bound"])
def test_scenario_detail_renders_the_invariants_charts(scenarios, name, invariant):
    scenario = scenarios[name]
    charts = invariant(curve_input(scenario), scenario).charts
    detail = evaluate_scenario(scenario).detail
    assert detail == "\n".join(chart.describe() for chart in charts)


SCHEDULED = sorted(name.removesuffix(".scn") for name in bundled_scenario_names()
                   if load_bundled_scenario(name).schedule is not None)


@pytest.mark.parametrize("name", SCHEDULED)
def test_verify_validates_once_and_builds_one_chart_per_chamber(monkeypatch, name):
    calls = Counter()

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(sinv, "validate_schedule", counting(sinv.validate_schedule))
    monkeypatch.setattr(sinv, "build_chart", counting(sinv.build_chart))
    assert run_verify([(name, load_bundled(name + ".scn"))]).all_pass
    scenario = load_bundled_scenario(name + ".scn")
    charted = scenario.kind in ("s_curve", "s_curve_bound")
    charts = len(scenario.schedule.chambers) if charted else 0
    assert (calls["validate_schedule"], calls["build_chart"]) == (1, charts)


def test_verify_pass_computes_each_degree_once(monkeypatch):
    """One ``run_verify`` of the bundled scenarios from an empty section cache:
    (-K)^3 once per distinct model that needs it, and the 12 files that need it
    share one model (1 of the 27 triple products; 12 of 38 when every parse
    built its own model, 20 of 46 when it was recomputed per call), and
    ``effective_decompose`` only for the two feasible queries."""
    from divstab import scenario, zariski
    monkeypatch.setattr(scenario, "_BUILT", {})
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(sinv, "triple_product")
    for module in (scenario, sinv, zariski):
        counting(module, "effective_decompose")
    names = bundled_scenario_names()
    assert len(names) == 17
    assert run_verify([(n, load_bundled(n)) for n in names]).all_pass
    assert (calls["triple_product"], calls["effective_decompose"]) == (27, 2)


def test_dominance_violation(scenarios):
    inp = curve_input(scenarios["lemma_4_3_l1"])
    too_big = DivisorClass(inp.surface.basis, [1, 1, 0, 0])
    with pytest.raises(sinv.DominanceError):
        sinv.dominance_bound(inp, too_big)
    with pytest.raises(sinv.DominanceError):
        sinv.dominance_bound(inp, inp.surface.basis.zero())


def test_s_curve_monotone_under_domination(scenarios):
    rng = random.Random(17)
    for name in ("lemma_4_1", "lemma_4_2_r", "lemma_4_3_l1", "lemma_4_3_mixed"):
        inp = curve_input(scenarios[name])
        base = sinv.dominance_bound(inp, inp.z).value
        assert base >= 0
        for _ in range(4):
            scale = F(rng.randint(1, 7), 8)
            smaller = inp.z.scale(scale)
            value = sinv.dominance_bound(inp, smaller).value
            assert value >= base >= 0


def test_s_divisor_values(scenarios, model):
    for name, expected in [("sdiv_anticanonical", F(1, 4)),
                           ("sdiv_plane", F(227, 448)),
                           ("sdiv_line_exceptional", F(37, 56)),
                           ("sdiv_quadric", F(125, 224))]:
        scenario = scenarios[name]
        value = sinv.s_divisor(scenario.model, scenario.divisor, scenario.schedule)
        assert value == expected
        assert value < 1


def test_schedule_identity(scenarios):
    """P(u) + N(u) + u*Y reproduces the anticanonical class exactly."""
    for name in ("lemma_4_1", "lemma_4_2_s", "lemma_4_3_l1"):
        scenario = scenarios[name]
        y = scenario.surface.cls
        mk = scenario.model.anticanonical
        for chamber in scenario.schedule.chambers:
            p = scenario.schedule.positive_part(y, mk, chamber)
            total = p + y.scale(U)
            for _, cls, coeff in chamber.negative:
                total = total + cls.scale(coeff)
            assert total == mk


@pytest.mark.parametrize("bounds,message", [
    ((), "has no chambers"),
    (((1, 2),), "chambers must start at u = 0"),
    (((0, 1), (F(3, 2), 2)), "chambers are not contiguous at u = 1"),
    (((0, 1), (1, 1), (1, 2)), "the chamber [1, 1] is empty"),
    (((0, 1), (1, F(1, 2))), "the chamber [1, 1/2] is empty"),
])
def test_schedule_shape_is_checked_on_construction(bounds, message):
    with pytest.raises(sinv.ScheduleError, match=re.escape(message)):
        sinv.Schedule(tuple(sinv.ScheduleChamber(F(lo), F(hi)) for lo, hi in bounds))


def test_schedule_validation_negative_coefficient(scenarios, model):
    r = DivisorClass(model.basis, [4, -2, -1])
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),
                           sinv.ScheduleChamber(F(1), F(3, 2), (("R", r, 1 - U),))))
    with pytest.raises(sinv.ScheduleError, match="below zero"):
        sinv.validate_schedule(model, model.basis.unit("H"), sched)


def test_schedule_validation_threshold_mismatch(scenarios, model):
    r = DivisorClass(model.basis, [4, -2, -1])
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),
                           sinv.ScheduleChamber(F(1), F(7, 5), (("R", r, U - 1),))))
    with pytest.raises(sinv.ScheduleError, match="threshold"):
        sinv.validate_schedule(model, model.basis.unit("H"), sched)


def test_schedule_validation_mori_pairing(scenarios, model):
    ec = model.basis.unit("EC")
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),
                           sinv.ScheduleChamber(F(1), F(3, 2), (("EC", ec, 2 * (U - 1)),))))
    with pytest.raises(sinv.ScheduleError):
        sinv.validate_schedule(model, model.basis.unit("H"), sched)


def test_schedule_validation_rejects_a_coefficient_that_dips_between_samples(model):
    """Nonnegative at 1, 9/8, 5/4, 11/8 and 3/2, but -41/1024 at u = 17/16:
    a five-point sample passed this schedule, and s_divisor gave 13093/25872."""
    r = DivisorClass(model.basis, [4, -2, -1])
    product = Poly.of(1024)
    for s in (F(1), F(9, 8), F(5, 4), F(11, 8), F(3, 2)):
        product = product * (U - s)
    dip = U - 1 - product
    assert dip(F(17, 16)) == F(-41, 1024)
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),
                           sinv.ScheduleChamber(F(1), F(3, 2), (("R", r, dip),))))
    with pytest.raises(sinv.ScheduleError, match="not affine in u"):
        sinv.s_divisor(model, model.basis.unit("H"), sched)


def test_schedule_validation_rejects_a_negative_bernstein_coefficient(model):
    """With lR missing from the curve table, P(u) on [1, 3/2] is not nef: the
    cube's Bernstein coefficients are 189, -27/2, 0, 0.  Every five-point
    sample of the cube is nonnegative, and s_divisor used to give 571/448."""
    partial = model.replace(mori_curves=tuple(c for c in model.mori_curves
                                              if c.name != "lR"))
    h, ec = model.basis.unit("H"), model.basis.unit("EC")
    r = DivisorClass(model.basis, [4, -2, -1])
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),
                           sinv.ScheduleChamber(F(1), F(3, 2), (("R", r, U - 1),
                                                                ("D", h + ec, 6 - 4 * U)))))
    with pytest.raises(sinv.ScheduleError, match=r"189, -27/2, 0, 0 on \[1, 3/2\]"):
        sinv.s_divisor(partial, h, sched)


def test_ord_consistency_checked(scenarios):
    lying = curve_input(scenarios["lemma_4_1"]).replace(ord_coeffs=(Poly(), U - 1))
    with pytest.raises(sinv.OrdMismatchError):
        sinv.negative_part_term(lying)
    silent = curve_input(scenarios["lemma_4_3_ec_term"]).replace(ord_coeffs=(Poly(), Poly()))
    with pytest.raises(sinv.OrdMismatchError):
        sinv.negative_part_term(silent)


def test_expected_ord_matches_declared(scenarios):
    for name in ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r",
                 "lemma_4_3_l1", "lemma_4_3_ec_term"):
        inp = curve_input(scenarios[name])
        assert sinv.expected_ord_coeffs(inp) == inp.ord_coeffs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_s_curve_matches_grid_oracle(scenarios, name):
    """Exact values agree with a float 200x200 pointwise-decomposition oracle."""
    inp = curve_input(scenarios[name])
    exact = sinv.s_curve(inp).value
    estimate = negative_term_oracle(inp, 2000) + volume_term_oracle(inp, grid=200)
    assert abs(float(exact) - estimate) < 1e-3


def test_s_divisor_matches_quadrature(scenarios):
    from divstab.lattice import triple_product
    from oracles import float_eval, midpoint_1d
    scenario = scenarios["sdiv_line_exceptional"]
    exact = sinv.s_divisor(scenario.model, scenario.divisor, scenario.schedule)
    total = 0.0
    for chamber in scenario.schedule.chambers:
        p = scenario.schedule.positive_part(scenario.divisor,
                                            scenario.model.anticanonical, chamber)
        cube = triple_product(p, p, p, scenario.model.form)
        total += midpoint_1d(lambda u: float_eval(cube, u), float(chamber.u_lo),
                             float(chamber.u_hi), 10_000)
    estimate = total / float(scenario.model.degree)
    assert abs(float(exact) - estimate) / float(exact) < 1e-6
