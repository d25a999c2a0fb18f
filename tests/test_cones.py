import random
from collections import Counter
from fractions import Fraction as F

import pytest

from divstab import cones as cones_module
from divstab import scenario as scenario_module
from divstab.cones import (ConeSpec, Decomposition, Infeasible,
                           UnboundedThresholdError, effective_decompose, feasible_interval,
                           pseudoeffective_threshold, separate)
from divstab import linalg
from divstab.lattice import DivisorClass, LatticeBasis
from divstab.ratmath import Poly
from divstab.scenario import bundled_scenario_names, load_bundled, run_verify
from oracles import (effective_decompose_oracle, feasible_interval_oracle, grid_decompose,
                     recombine, separate_oracle)

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
    assert outcome.detail == ("functional (H: 0, EC: -1, EL: 0) vanishes on every generator "
                              "but takes -2 on the class")


def test_each_cone_forms_its_h_representation_once(model, scenarios, monkeypatch):
    """A ConeSpec forms its equalities and facets when it is built, and a
    surface builds its curve cone once."""
    built = []
    build = cones_module._h_representation

    def recorded(rank, vectors):
        built.append(vectors)
        return build(rank, vectors)
    monkeypatch.setattr(cones_module, "_h_representation", recorded)
    entries = list(zip(model.effective_cone.names, model.effective_cone.generators))
    again = ConeSpec([(name, DivisorClass(g.basis, g.coeffs)) for name, g in entries])
    assert len(built) == 1
    assert (again.equalities, again.facets) == (model.effective_cone.equalities,
                                                model.effective_cone.facets)
    renamed = LatticeBasis(["A", "B", "C"])
    other = ConeSpec([(name, DivisorClass(renamed, g.coeffs)) for name, g in entries])
    assert len(built) == 2 and (other.equalities, other.facets) == (again.equalities,
                                                                     again.facets)
    surface = scenarios["lemma_4_1"].surface.replace()     # a fresh SurfaceData
    assert surface.curve_cone is surface.curve_cone
    assert len(built) == 3


def test_a_second_verify_pass_solves_no_facets(monkeypatch):
    """Every bundled scenario builds its own cones; their facets are solved
    only on the first pass in a process."""
    texts = [(name, load_bundled(name)) for name in bundled_scenario_names()]
    run_verify(texts)
    calls = []
    kernel = linalg.kernel

    def counted(matrix, ncols):
        calls.append(len(matrix))
        return kernel(matrix, ncols)
    monkeypatch.setattr(linalg, "kernel", counted)
    report = run_verify(texts)
    assert len(report.results) == 17 and report.all_pass
    assert calls == []


def test_the_first_verify_builds_each_h_representation_from_one_equality_kernel(monkeypatch):
    """The equalities are one kernel of the rational generators; each facet
    is a kernel vector of integer rows, with no further rational kernel per
    candidate subset."""
    monkeypatch.setattr(scenario_module, "_BUILT", {})
    built = []
    build = cones_module._h_representation

    def recorded(rank, vectors):
        built.append(vectors)
        return build(rank, vectors)
    monkeypatch.setattr(cones_module, "_h_representation", recorded)
    calls = []
    kernel = linalg.kernel

    def counted(matrix, ncols):
        calls.append(matrix)
        return kernel(matrix, ncols)
    monkeypatch.setattr(linalg, "kernel", counted)
    report = run_verify([(name, load_bundled(name)) for name in bundled_scenario_names()])
    assert len(report.results) == 17 and report.all_pass
    assert built and [sum(m is vectors for m in calls) for vectors in built] == [1] * len(built)
    facets = [m for m in calls if not any(m is vectors for vectors in built)]
    assert facets and all(type(x) is int for m in facets for row in m for x in row)


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


def test_feasible_interval_pins_the_first_facet_at_a_tie():
    """(u - 1)(A + B) meets both facets of the quadrant at u = 1, from below
    and, reversed, from above: the cut at each end is the first facet."""
    basis = LatticeBasis(["A", "B"])
    cone = ConeSpec([("A", basis.unit("A")), ("B", basis.unit("B"))])
    ones = DivisorClass(basis, [1, 1])
    assert len(cone.facets) == 2 and not cone.equalities
    rising = feasible_interval(ones.scale(-1), ones, cone)
    falling = feasible_interval(ones, ones.scale(-1), cone)
    assert (rising.lo, rising.hi, falling.lo, falling.hi) == (1, None, None, 1)
    assert rising.lo_cut == falling.hi_cut == cone.facets[0]


def _random_cone(rng):
    """A cone of 2 to rank + 2 small integer generators, a third of them flat
    (every generator in the hyperplane of a nonzero functional), so the cone
    has equalities."""
    rank = rng.choice((2, 3, 4))
    basis = LatticeBasis([f"g{i}" for i in range(rank)])
    flat = [rng.randint(-1, 1) for _ in range(rank)] if rng.random() < 0.3 else None
    generators = []
    while len(generators) < rng.randint(2, rank + 2):
        g = [rng.randint(-2, 2) for _ in range(rank)]
        if flat is not None and any(flat):
            i = next(i for i, c in enumerate(flat) if c)
            g[i] = 0
            g[i] = -sum(c * x for c, x in zip(flat, g)) * flat[i]   # flat . g = 0
        if any(g):
            generators.append((f"G{len(generators)}", DivisorClass(basis, g)))
    return ConeSpec(generators)


def _random_member(cone, rng, den):
    """A class with small numerators over ``den``: a generator combination
    plus noise, or noise alone."""
    rank = cone.basis.rank
    cls = DivisorClass(cone.basis, [F(rng.randint(-3, 3), den) for _ in range(rank)])
    if rng.random() < 0.5:
        for g in cone.generators:
            cls = cls + g.scale(F(rng.randint(0, 3), den))
    return cls


def test_cone_queries_match_the_fraction_oracles():
    """``feasible_interval``, ``pseudoeffective_threshold`` and
    ``separate`` on integer numerators give what summing and comparing
    Fractions gave: the same ends, cuts, ``never``, threshold or error,
    witness and detail."""
    rng = random.Random(27)
    seen = Counter()
    for _ in range(1500):
        cone = _random_cone(rng)
        dens = {"a": rng.choice((1, 2, 6, 10**12 + 39)), "b": rng.choice((1, 3, 4, 2**61 - 1))}
        a = _random_member(cone, rng, dens["a"])
        b = (_random_member(cone, rng, dens["b"]) if rng.random() < 0.8
             else rng.choice(cone.generators).scale(F(rng.choice((-1, 1)), dens["b"])))
        for name, den in dens.items():
            seen[f"{name} den {'large' if den > 10**6 else 'small'}"] += 1
        got, want = feasible_interval(a, b, cone), feasible_interval_oracle(a, b, cone)
        assert ((got.lo, got.hi, got.lo_cut, got.hi_cut, got.never)
                == (want.lo, want.hi, want.lo_cut, want.hi_cut, want.never))
        ray = feasible_interval_oracle(a, -b, cone)
        try:
            threshold = pseudoeffective_threshold(a, b, cone)
        except UnboundedThresholdError:
            threshold = "unbounded"
        except ValueError:
            threshold = "outside"
        assert threshold == ("outside" if 0 not in ray else
                             "unbounded" if ray.hi is None else ray.hi)
        assert separate(a, cone) == separate_oracle(a.coeffs, cone)
        outside = separate_oracle(a.coeffs, cone)
        seen["member" if outside is None else "outside an equality"
             if outside.witness in cone.equalities or tuple(-c for c in outside.witness)
             in cone.equalities else "outside a facet"] += 1
        if want.never is not None:
            seen["never: equality" if want.never in cone.equalities else "never: facet"] += 1
            continue
        seen["lo unbounded" if want.lo is None else "lo bounded"] += 1
        seen["hi unbounded" if want.hi is None else "hi bounded"] += 1
        roots = {"lo": [], "hi": []}
        for f in cone.equalities + cone.facets:
            fa = sum(x * y for x, y in zip(f, a.coeffs))
            fb = sum(x * y for x, y in zip(f, b.coeffs))
            if fb:
                if f in cone.equalities:
                    seen["equality pins a point"] += 1
                if f in cone.equalities or fb > 0:
                    roots["lo"].append(-fa / fb)
                if f in cone.equalities or fb < 0:
                    roots["hi"].append(-fa / fb)
        for end, value in (("lo", want.lo), ("hi", want.hi)):
            if value is not None and roots[end].count(value) > 1:
                seen[f"tie at {end}"] += 1
    for case in ("a den small", "a den large", "b den small", "b den large", "member",
                 "outside an equality", "outside a facet", "never: equality", "never: facet",
                 "lo unbounded", "lo bounded", "hi unbounded", "hi bounded",
                 "equality pins a point", "tie at lo", "tie at hi"):
        assert seen[case] >= 10, (case, seen)
