import functools
import random
from fractions import Fraction as F

import pytest

from divstab import cones as cones_module
from divstab.cones import (ConeSpec, Decomposition, Infeasible,
                           UnboundedThresholdError, effective_decompose,
                           pseudoeffective_threshold)
from divstab import linalg
from divstab.lattice import DivisorClass, LatticeBasis
from divstab.ratmath import Poly
from divstab.scenario import bundled_scenario_names, load_bundled, run_verify
from oracles import effective_decompose_oracle, grid_decompose, recombine

U = Poly.variable("u")


def test_effective_decompose_integral_cone(zcone_model):
    cone = zcone_model.effective_cone
    assert cone.names == ("H-EL", "2H-EC", "R", "EL", "EC")
    outcome = effective_decompose(zcone_model.anticanonical, cone)
    assert isinstance(outcome, Decomposition)
    assert outcome.coefficients == (2, 1, 0, 1, 0)
    assert recombine(outcome) == zcone_model.anticanonical


def test_effective_decompose_infeasible_with_witness(model):
    a = F(3, 2)
    cls = DivisorClass(model.basis, [4 - 2 * a, -1, -(1 - 2 * a)])
    outcome = effective_decompose(cls, model.effective_cone)
    assert isinstance(outcome, Infeasible)
    assert not outcome
    witness = outcome.witness
    assert witness is not None
    for g in model.effective_cone.generators:
        assert sum(w * c for w, c in zip(witness, g.coeffs)) >= 0
    assert sum(w * c for w, c in zip(witness, cls.coeffs)) < 0


def test_threefold_cone_facets(model, zcone_model):
    # the fifth generator 2H - EC of the lemma 3.8 cone is interior to a facet
    for m in (model, zcone_model):
        cone = m.effective_cone
        assert cone.equalities == ()
        assert cone.facets == ((2, 3, 2), (1, 0, 1), (1, 2, 0), (1, 0, 0))


def test_lower_dimensional_cone_has_equalities(model):
    h, el = model.basis.unit("H"), model.basis.unit("EL")
    plane = ConeSpec([("H", h), ("EL", el)])
    assert plane.equalities == ((0, 1, 0),)
    assert set(plane.facets) == {(1, 0, 0), (0, 0, 1)}
    assert pseudoeffective_threshold(h + el, h, plane) == 1
    # leaving the plane at once: the threshold is 0, not an error
    assert pseudoeffective_threshold(h + el, model.basis.unit("EC"), plane) == 0
    outcome = effective_decompose(model.basis.unit("EC").scale(2), plane)
    assert outcome.witness == (0, -1, 0)
    assert outcome.detail == ("functional (0, -1, 0) vanishes on every generator "
                              "but takes -2 on the class")


def test_cones_with_equal_data_share_one_h_representation(model):
    """Facets are computed once per basis and generator list, not per ConeSpec."""
    entries = list(zip(model.effective_cone.names, model.effective_cone.generators))
    again = ConeSpec([(name, DivisorClass(g.basis, g.coeffs)) for name, g in entries])
    assert again.facets is model.effective_cone.facets
    assert again.equalities is model.effective_cone.equalities
    renamed = LatticeBasis(["A", "B", "C"])
    other = ConeSpec([(name, DivisorClass(renamed, g.coeffs)) for name, g in entries])
    assert other.facets == again.facets and other.facets is not again.facets


def test_a_second_verify_pass_solves_no_facets(monkeypatch):
    """Every bundled scenario builds its own cones; their facets are solved
    only on the first pass in a process."""
    texts = [(name, load_bundled(name)) for name in bundled_scenario_names()]
    run_verify(texts)
    calls = []
    null_space = linalg.null_space

    def counted(matrix):
        calls.append(len(matrix))
        return null_space(matrix)
    monkeypatch.setattr(linalg, "null_space", counted)
    report = run_verify(texts)
    assert len(report.results) == 17 and report.all_pass
    assert calls == []


def test_the_first_verify_builds_each_h_representation_from_one_null_space(monkeypatch):
    """The equalities are one rational null space; each facet is an integer
    kernel vector, with no further null space per candidate subset."""
    fresh = functools.cache(cones_module._h_representation.__wrapped__)
    monkeypatch.setattr(cones_module, "_h_representation", fresh)
    calls = []
    null_space = linalg.null_space

    def counted(matrix):
        calls.append(len(matrix))
        return null_space(matrix)
    monkeypatch.setattr(linalg, "null_space", counted)
    report = run_verify([(name, load_bundled(name)) for name in bundled_scenario_names()])
    assert len(report.results) == 17 and report.all_pass
    built = fresh.cache_info().misses
    assert built > 0 and len(calls) == built


def _seeded_classes(cone, rng, count):
    """Integer classes near the cone: half are generator combinations plus noise."""
    rank = cone.basis.rank
    out = []
    for k in range(count):
        cls = DivisorClass(cone.basis, [rng.randint(-3, 3) if k % 2 else 0
                                        for _ in range(rank)])
        if k % 4 < 2:
            for g in cone.generators:
                cls = cls + g.scale(F(rng.randint(0, 4), 2))
        else:
            cls = cls + DivisorClass(cone.basis, [rng.randint(-6, 6) for _ in range(rank)])
        out.append(cls)
    return out


@pytest.mark.parametrize("which", ["lemma_4_1", "lemma_3_8", "dp6", "dp5"])
def test_effective_decompose_matches_the_enumeration_oracle(scenarios, which):
    """Facet-first membership gives what enumerating supports first gave:
    the same coefficients for a member, the same witness and detail otherwise."""
    if which.startswith("dp"):
        surface = scenarios["lemma_4_1" if which == "dp5" else "lemma_4_3_l1"].surface
        cone = ConeSpec(list(surface.extremal_curves))
    else:
        cone = scenarios[which].model.effective_cone
    rng = random.Random(which)
    outcomes = set()
    for cls in _seeded_classes(cone, rng, 40):
        outcome, expected = effective_decompose(cls, cone), effective_decompose_oracle(cls, cone)
        assert type(outcome) is type(expected)
        if isinstance(outcome, Decomposition):
            assert outcome.coefficients == expected.coefficients
        else:
            assert (outcome.witness, outcome.detail) == (expected.witness, expected.detail)
        outcomes.add(type(outcome))
    assert outcomes == {Decomposition, Infeasible}


def test_an_infeasible_class_is_decided_without_a_solve(zcone_model, monkeypatch):
    """H - 2EC is outside the lemma 3.8 cone: a violated facet answers at
    once, where enumerating its supports first took 25 solves."""
    cone = zcone_model.effective_cone
    cone.facets  # the H-representation is formed once per process, before this query
    calls = []
    solve_unique = linalg.solve_unique

    def counted(*args):
        calls.append(args)
        return solve_unique(*args)
    monkeypatch.setattr(linalg, "solve_unique", counted)
    h, ec = zcone_model.basis.unit("H"), zcone_model.basis.unit("EC")
    outcome = effective_decompose(h - ec.scale(2), cone)
    assert isinstance(outcome, Infeasible) and outcome.witness == (2, 3, 2)
    assert calls == []
    effective_decompose_oracle(h - ec.scale(2), cone)
    assert len(calls) == 25


def test_effective_decompose_zero_class(model):
    outcome = effective_decompose(model.basis.zero(), model.effective_cone)
    assert isinstance(outcome, Decomposition)
    assert all(c == 0 for c in outcome.coefficients)


def test_thresholds(model):
    mk = model.anticanonical
    cone = model.effective_cone
    h = model.basis.unit("H")
    el = model.basis.unit("EL")
    quadric = DivisorClass(model.basis, [2, -1, 0])
    assert pseudoeffective_threshold(mk, h, cone) == F(3, 2)
    assert pseudoeffective_threshold(mk, el, cone) == F(3, 2)
    assert pseudoeffective_threshold(mk, quadric, cone) == F(3, 2)
    assert pseudoeffective_threshold(mk, mk, cone) == 1


def test_threshold_unbounded(model):
    mk = model.anticanonical
    el = model.basis.unit("EL")
    with pytest.raises(UnboundedThresholdError):
        pseudoeffective_threshold(mk, el.scale(-1), model.effective_cone)


def test_threshold_requires_feasible_start(model):
    h = model.basis.unit("H")
    outside = DivisorClass(model.basis, [-1, 0, 0])
    with pytest.raises(ValueError, match="u = 0"):
        pseudoeffective_threshold(outside, h, model.effective_cone)


def test_feasibility_is_an_interval(model):
    """Feasibility of -K - u H in u is an interval containing 0."""
    mk, cone = model.anticanonical, model.effective_cone
    h = model.basis.unit("H")
    tau = F(3, 2)
    for k in range(50):
        u = F(k, 49) * 2  # sweep [0, 2]
        feasible = isinstance(effective_decompose(mk - h.scale(u), cone), Decomposition)
        assert feasible == (u <= tau)


def test_threshold_tightness(model):
    mk, cone = model.anticanonical, model.effective_cone
    for b in (model.basis.unit("H"), model.basis.unit("EL"),
              DivisorClass(model.basis, [2, -1, 0])):
        tau = pseudoeffective_threshold(mk, b, cone)
        assert isinstance(effective_decompose(mk - b.scale(tau), cone), Decomposition)
        bumped = mk - b.scale(tau + F(1, 1000))
        assert isinstance(effective_decompose(bumped, cone), Infeasible)


def test_round_trip_on_random_feasible_classes(zcone_model):
    rng = random.Random(31)
    cone = zcone_model.effective_cone
    for _ in range(50):
        coeffs = [F(rng.randint(0, 3), rng.choice((1, 2))) for _ in cone.generators]
        target = cone.basis.zero()
        for c, g in zip(coeffs, cone.generators):
            target = target + g.scale(c)
        outcome = effective_decompose(target, cone)
        assert isinstance(outcome, Decomposition)
        assert recombine(outcome) == target


def test_brute_force_oracle_agreement(zcone_model):
    """Exhaustive grid search agrees with the subset-enumeration solver."""
    rng = random.Random(1234)
    cone = zcone_model.effective_cone
    generators = [list(g.coeffs) for g in cone.generators]
    values = [F(k) for k in range(7)]
    half_values = [F(k, 2) for k in range(13)]
    for trial in range(100):
        if trial % 2 == 0:
            # feasible by construction, with integer coefficients
            coeffs = [F(rng.randint(0, 2)) for _ in generators]
            target = [sum(c * g[i] for c, g in zip(coeffs, generators))
                      for i in range(3)]
        else:
            target = [F(rng.randint(-2, 4)), F(rng.randint(-3, 1)), F(rng.randint(-3, 1))]
        cls = DivisorClass(cone.basis, target)
        outcome = effective_decompose(cls, cone)
        grid = values if trial % 4 else half_values
        brute = grid_decompose(target, generators, grid)
        if isinstance(outcome, Infeasible):
            assert brute is None
        elif brute is not None:
            recombined = [sum(c * g[i] for c, g in zip(brute, generators))
                          for i in range(3)]
            assert recombined == target


def test_parametric_class_scan_matches_closed_form(model):
    """The residual families leave the cone exactly past the stated multiple."""
    cone = model.effective_cone
    family = DivisorClass(model.basis, [4 - 2 * U, -1, -(1 - 2 * U)])
    for numerator in range(2, 30):
        a = F(numerator, 10)
        cls = family.evaluate(u=a)
        feasible = isinstance(effective_decompose(cls, cone), Decomposition)
        assert feasible == (a <= 1)


def test_decomposition_report_format(zcone_model):
    outcome = effective_decompose(zcone_model.anticanonical,
                                  zcone_model.effective_cone)
    text = str(outcome)
    assert "H-EL: 2" in text and "EC: 0" in text
