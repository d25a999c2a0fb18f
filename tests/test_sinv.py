import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from divstab import sinv
from divstab.cones import ConeSpec
from divstab.lattice import DivisorClass
from divstab.ratmath import Poly, integrate_region, integrate_univariate
from divstab.scenario import (ScenarioFormatError, bundled_scenario_names, evaluate_scenario,
                              load_bundled, load_bundled_scenario, parse_scenario, run_verify)
from conftest import CURVE_SCENARIOS, curve_args, curve_input
from oracles import (integrate_region_oracle, integrate_univariate_oracle, negative_term_oracle,
                     validate_schedule_oracle, volume_term_oracle)

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
    assert sinv.negative_part_term(*curve_args(scenarios["lemma_4_3_ec_term"])) == F(5, 224)
    assert sinv.negative_part_term(*curve_args(scenarios["lemma_4_2_r"])) == F(1, 28)
    assert sinv.negative_part_term(*curve_args(scenarios["lemma_4_1"])) == 0


def test_dominance_bounds(scenarios):
    ec_case = curve_input(scenarios["lemma_4_3_ec_bound"])
    l1 = ec_case.surface.basis.unit("l1")
    bound = sinv.dominance_bound(ec_case, l1)
    assert bound.volume_term == F(109, 112)
    assert bound.value == F(223, 224)
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


@pytest.mark.parametrize("name", CURVE_SCENARIOS)
def test_bound_by_itself_is_the_curve_invariant(scenarios, name):
    inp = curve_input(scenarios[name])
    assert sinv.dominance_bound(inp, inp.z) == sinv.s_curve(inp)


def test_bound_scenario_counts_the_negative_term_once():
    """``lemma_4_3_ec_bound`` bounded through its own z gives S(Z) = 19/56:
    neg(Z) + vol(Z), not neg(Z) + neg(Z) + vol(Z) = 81/224."""
    text = load_bundled("lemma_4_3_ec_bound.scn")
    assert "z = l1 + 2*l2\n" in text and "dominate_via = l1\n" in text
    scenario = parse_scenario(text.replace("dominate_via = l1\n", "dominate_via = l1 + 2*l2\n"),
                              "lemma_4_3_ec_bound")
    assert sinv.s_curve(curve_input(scenario)).value == F(19, 56)
    assert evaluate_scenario(scenario).computed == "19/56"


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
    monkeypatch.setattr(sinv.Schedule, "positive_part", counting(sinv.Schedule.positive_part))
    assert run_verify([(name, load_bundled(name + ".scn"))]).all_pass
    scenario = load_bundled_scenario(name + ".scn")
    charted = scenario.kind in ("s_curve", "s_curve_bound")
    charts = len(scenario.schedule.chambers) if charted else 0
    assert (calls["validate_schedule"], calls["build_chart"]) == (1, charts)
    # P(u) is formed once per chamber, by validation, and every reader takes it
    assert calls["positive_part"] == len(scenario.schedule.chambers)


def test_verify_pass_computes_each_degree_once(monkeypatch):
    """One ``run_verify`` of the bundled scenarios from an empty section cache:
    (-K)^3 once per distinct model that needs it, and the 12 files that need it
    share one model (1 of the 27 triple products; 12 of 38 when every parse
    built its own model, 20 of 46 when it was recomputed per call), and
    ``effective_decompose`` only for the two feasible queries."""
    from divstab import scenario
    monkeypatch.setattr(scenario, "_BUILT", {})
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(sinv, "triple_product")
    for module in (scenario, sinv):
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
        exact = sinv.s_curve(inp).value
        base = sinv.dominance_bound(inp, inp.z).value
        assert base >= exact >= 0
        for _ in range(4):
            scale = F(rng.randint(1, 7), 8)
            smaller = inp.z.scale(scale)
            value = sinv.dominance_bound(inp, smaller).value
            assert value >= base >= 0
            assert value >= exact


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
    with pytest.raises(ValueError, match="not affine in u"):
        sinv.ScheduleChamber(F(1), F(3, 2), (("R", r, dip),))


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


def test_ord_consistency_checked():
    """A declared ``[curve] ord`` that is not the derived one fails to parse."""
    for name, declared, message in [
        ("lemma_4_1", "0, u - 1", "declared u - 1, but the restricted negative part gives 0"),
        ("lemma_4_3_ec_term", "0, 0", "declared 0, but the restricted negative part gives u - 1"),
        ("lemma_4_1", "0", "need exactly one coefficient per schedule chamber, 2 in all"),
    ]:
        text = load_bundled(name + ".scn")
        line = re.search(r"^ord = .*$", text, re.M)
        at = text.count("\n", 0, line.start()) + 1
        with pytest.raises(ScenarioFormatError,
                           match=re.escape(f"[curve] ord (line {at}): chamber 1: {message}")):
            parse_scenario(text.replace(line.group(), f"ord = {declared}"), name)


def test_expected_ord_matches_declared(scenarios):
    for name in ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r",
                 "lemma_4_3_l1", "lemma_4_3_ec_term"):
        inp = curve_input(scenarios[name])
        assert sinv.expected_ord_coeffs(inp) == scenarios[name].ord_coeffs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_s_curve_matches_grid_oracle(scenarios, name):
    """Exact values agree with a float 200x200 pointwise-decomposition oracle."""
    inp = curve_input(scenarios[name])
    exact = sinv.s_curve(inp).value
    estimate = (negative_term_oracle(inp, scenarios[name].ord_coeffs, 2000)
                + volume_term_oracle(inp, grid=200))
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


def test_bundled_integrals_match_the_poly_route(monkeypatch):
    """Every integral of a verify pass over the bundled scenarios: each
    chamber of each chart, each schedule cube and each negative-part
    integrand integrates to the Poly route's value."""
    from divstab import zariski
    calls = {"region": [], "univariate": []}

    def recording(kind, integral):
        def record(*args):
            calls[kind].append(args)
            return integral(*args)
        return record

    monkeypatch.setattr(zariski, "integrate_region",
                        recording("region", zariski.integrate_region))
    monkeypatch.setattr(sinv, "integrate_univariate",
                        recording("univariate", sinv.integrate_univariate))
    names = bundled_scenario_names()
    assert run_verify([(n, load_bundled(n)) for n in names]).all_pass
    monkeypatch.undo()
    assert (len(calls["region"]), len(calls["univariate"])) == (25, 10)
    for args in calls["region"]:
        assert integrate_region(*args) == integrate_region_oracle(*args)
    for args in calls["univariate"]:
        assert integrate_univariate(*args) == integrate_univariate_oracle(*args)


def test_schedule_validation_takes_a_chamber_where_the_positive_part_is_constant(model):
    """N(u) = u (-EL) on [0, 1] leaves P(u) = -K there, a rational class whose
    cube and pairings are Fractions: the chamber is checked like any other,
    and its cube comes back as a constant polynomial.  N(u) goes on
    continuously past u = 1, with an int coefficient read like any other;
    with N(u) = (u - 1) R there instead, P(u) jumps at u = 1 and the schedule
    is refused."""
    el = model.basis.unit("EL")
    r = DivisorClass(model.basis, [4, -2, -1])
    first = sinv.ScheduleChamber(F(0), F(1), (("M", -el, U),))
    jump = sinv.Schedule((first, sinv.ScheduleChamber(F(1), F(3, 2), (("R", r, U - 1),))))
    with pytest.raises(sinv.ScheduleError, match=re.escape("jumps at u = 1")):
        sinv.validate_schedule(model, el, jump)
    x = DivisorClass(model.basis, [4, -2, 1])
    sched = sinv.Schedule((first, sinv.ScheduleChamber(F(1), F(3, 2), (
        ("M", -el, 1), ("X", x, U - 1)))))
    chambers = sinv.validate_schedule(model, el, sched)
    assert [(ch.u_lo, ch.u_hi) for ch in chambers] == [(0, 1), (1, F(3, 2))]
    assert chambers[0].positive == model.anticanonical
    assert chambers[0].cube == Poly.of(model.degree)
    assert _checked(model, el, sched) == validate_schedule_oracle(model, el, sched)
    assert sinv.s_divisor(model, el, sched) == F(33, 28)


def test_schedule_validation_needs_the_cube_to_vanish_at_tau(model):
    """A declared effective cone narrower than the real one, generated by
    3H - EC - EL, H, EC and EL, puts the threshold of -K - uH at 1, where
    P(1) = 3H - EC - EL is nef with a nonzero cube.  The schedule [0, 1]
    passes every other check: nonnegative pairings and Bernstein
    coefficients, and its end is the threshold."""
    h, ec, el = (model.basis.unit(n) for n in ("H", "EC", "EL"))
    cone = ConeSpec([("G", h.scale(3) - ec - el), ("H", h), ("EC", ec), ("EL", el)])
    narrow = model.replace(effective_cone=cone)
    sched = sinv.Schedule((sinv.ScheduleChamber(F(0), F(1)),))
    assert sinv.pseudoeffective_threshold(model.anticanonical, h, cone) == 1
    with pytest.raises(sinv.ScheduleError,
                       match=re.escape("P(u)^3 does not vanish at the terminal u = 1")):
        sinv.validate_schedule(narrow, h, sched)


def _validated_schedules(monkeypatch) -> list[tuple]:
    """The arguments of every ``validate_schedule`` call of a verify pass."""
    calls = []
    validate = sinv.validate_schedule

    def record(*args):
        calls.append(args)
        return validate(*args)
    monkeypatch.setattr(sinv, "validate_schedule", record)
    names = bundled_scenario_names()
    assert run_verify([(n, load_bundled(n)) for n in names]).all_pass
    monkeypatch.undo()
    assert len(calls) == 12
    return calls


def _damaged(rng, model, y, sched):
    """One seeded damage to a schedule or its model, and the chamber it hits.

    Half the time a chamber is first cut in two, which damages nothing but
    gives chamber ends of larger denominators.  Then ``dip`` lowers a
    negative-part coefficient below zero at one end of its chamber and keeps
    it at the other; ``extra`` adds a negative-part component, and ``drop``
    also drops Mori curves, so P(u) may fail to be nef where no pairing
    shows it, and either may make P(u) jump at an end of its chamber;
    ``tau`` moves the last end; ``narrow`` ends the schedule inside
    a chamber and narrows the cone so that the end is the threshold; and
    ``none`` leaves the schedule as it is.
    """
    chambers = list(sched.chambers)
    if rng.random() < 0.5:
        k = rng.randrange(len(chambers))
        ch = chambers[k]
        at = ch.u_lo + (ch.u_hi - ch.u_lo) * F(rng.randint(1, 9), 10)
        chambers[k:k + 1] = [ch.replace(u_hi=at), ch.replace(u_lo=at)]
    k = rng.randrange(len(chambers))
    ch = chambers[k]
    lo, hi = ch.u_lo, ch.u_hi
    step, inside = F(rng.randint(1, 6), rng.randint(1, 4)), F(rng.randint(1, 7), 8)
    kind = rng.choice(["dip", "extra", "drop", "tau", "narrow", "none"])
    if kind == "dip" and ch.negative:
        end, other = rng.choice(((lo, hi), (hi, lo)))
        name, cls, coeff = ch.negative[0]
        dip = coeff - (coeff(end) + step) * (U - other) * (1 / (end - other))
        chambers[k] = ch.replace(negative=((name, cls, dip), *ch.negative[1:]))
    elif kind in ("extra", "drop"):
        cls = DivisorClass(model.basis, [rng.randint(-2, 2) for _ in model.basis.names])
        coeff = step * (U - lo if rng.random() < 0.5 else hi - U)
        chambers[k] = ch.replace(negative=(*ch.negative, ("X", cls, coeff)))
        if kind == "drop":
            model = model.replace(mori_curves=tuple(c for c in model.mori_curves
                                                    if rng.random() < 0.5))
    elif kind == "tau":
        last = chambers[-1]
        shift = rng.choice((-1, 1)) * (last.u_hi - last.u_lo) * inside
        chambers[-1] = last.replace(u_hi=last.u_hi + shift)
    elif kind == "narrow":
        t = lo + (hi - lo) * inside
        chambers[k:] = [ch.replace(u_hi=t)]
        cone = ConeSpec([("G", model.anticanonical - y.scale(t)), ("Y", y)])
        model = model.replace(effective_cone=cone)
    return model, sinv.Schedule(tuple(chambers)), ch


def _checked(model, y, sched) -> tuple[tuple[DivisorClass, Poly], ...]:
    """(P(u), P(u)^3) of each chamber ``validate_schedule`` returns."""
    return tuple((ch.positive, ch.cube) for ch in sinv.validate_schedule(model, y, sched))


def _validation(check, *args):
    try:
        return check(*args)
    except sinv.ScheduleError as error:
        return [type(error), str(error)]


def test_damaged_schedules_match_the_fraction_oracle(monkeypatch):
    """Validation on integer numerators returns the oracle's positive parts
    and cubes, or raises its ScheduleError with the same message, on seeded
    damage to the bundled schedules that reaches every check."""
    bundled = list({(id(m), y, s): (m, y, s) for m, y, s in _validated_schedules(monkeypatch)}
                   .values())
    rng = random.Random(27)
    seen = Counter()
    for _ in range(600):
        model, y, sched = rng.choice(bundled)
        model, sched, ch = _damaged(rng, model, y, sched)
        got = _validation(_checked, model, y, sched)
        assert got == _validation(validate_schedule_oracle, model, y, sched)
        message = got[1] if isinstance(got, list) else ""
        if "below zero" in message:
            at = message.rsplit("= ", 1)[1]
            seen[{str(ch.u_lo): "coefficient at lo", str(ch.u_hi): "coefficient at hi"}[at]] += 1
        elif "Bernstein" in message:
            values = re.search(r"coefficients (.*) on \[", message).group(1).split(", ")
            for i in (1, 2):
                seen[f"inner Bernstein {i}"] += values[i].startswith("-")
        for case, text in (("Mori pairing", "pairs negatively"), ("cube at tau", "vanish"),
                           ("threshold", "threshold is"), ("jump", "jumps at"),
                           ("passes", None)):
            seen[case] += text in message if text else not message
    for case in ("coefficient at lo", "coefficient at hi", "Mori pairing", "inner Bernstein 1",
                 "inner Bernstein 2", "cube at tau", "threshold", "jump", "passes"):
        assert seen[case] >= 3, (case, seen)


def test_validation_forms_fractions_only_for_the_threshold(monkeypatch):
    """Past the threshold (lo, hi and -lo at most) and the positive parts it
    reads (one Fraction per constant coefficient of each returned class),
    validating the bundled schedules forms no Fraction."""
    calls = _validated_schedules(monkeypatch)
    made, where, constants = Counter(), ["checks"], []
    fraction_new = F.__new__
    threshold, positive_part = sinv.pseudoeffective_threshold, sinv.Schedule.positive_part

    def counted(cls, *args, **kwargs):
        made[where[-1]] += 1
        return fraction_new(cls, *args, **kwargs)

    def inside(name, step):
        def run(*args):
            where.append(name)
            try:
                return step(*args)
            finally:
                where.pop()
        return run

    def part(*args):
        p = positive_part(*args)
        constants.append(sum(not isinstance(c, Poly) for c in p.coeffs))
        return p
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    monkeypatch.setattr(sinv, "pseudoeffective_threshold", inside("threshold", threshold))
    monkeypatch.setattr(sinv.Schedule, "positive_part", inside("positive parts", part))
    checked = [_checked(*args) for args in calls]
    monkeypatch.undo()
    assert made["checks"] == 0
    assert made["threshold"] <= 3 * len(calls)
    assert made["positive parts"] <= sum(constants)
    assert checked == [validate_schedule_oracle(*args) for args in calls]
