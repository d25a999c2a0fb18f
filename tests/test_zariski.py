import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from divstab.cones import ConeSpec, Decomposition, effective_decompose
from divstab.lattice import DivisorClass, LatticeBasis, SurfaceForm, restrict, surface_pair
from divstab.ratmath import IrrationalBreakpointError, Poly
from divstab.zariski import (IndefiniteSupportError, NotPseudoEffectiveError,
                             build_chart, v_sweep, zariski_decompose)
from conftest import curve_input
from oracles import chart_stack, negative_class, u_cells, zariski_decompose_oracle

U = Poly.variable("u")


def dp5_ray(dp5, u, v):
    """The restricted second-chamber class of the plane scenario at (u, v)."""
    return DivisorClass(dp5.basis,
                        [8 - 5 * u - v, u - 2, 2 * u - 3, 2 * u - 3, 2 * u - 3])


def test_decompose_in_the_line_support_chamber(dp5):
    u, v = F(5, 4), F(9, 16)
    result = zariski_decompose(dp5_ray(dp5, u, v), dp5.extremal_curves, dp5.form)
    assert set(result.support) == {"L12", "L13", "L14"}
    expected = 2 * u + v - 3
    assert all(coeff == expected for _, coeff in result.negative)
    curves = dict(dp5.extremal_curves)
    for name in result.support:
        assert surface_pair(result.positive, curves[name], dp5.form) == 0
    rebuilt = result.positive + negative_class(result, curves)
    assert rebuilt == dp5_ray(dp5, u, v)


def test_decompose_rejects_point_outside_the_effective_cone(dp5):
    # at (1, 3/2) the ray has already left the pseudo-effective cone
    bad = dp5_ray(dp5, F(1), F(3, 2))
    with pytest.raises(NotPseudoEffectiveError,
                       match=re.escape("functional (2, 1, 1, 1, 1)")):
        zariski_decompose(bad, dp5.extremal_curves, dp5.form)


def _quarter_l(scenarios):
    dp5 = scenarios["lemma_4_1"].surface
    return DivisorClass(dp5.basis, [F(1, 4), F(-3, 4), 0, 0, 0])


def _mixed_beyond_its_top(scenarios):
    """The mixed quadric's restricted class at u = 1/4, v = 129/64 (top 2)."""
    scenario = scenarios["lemma_4_3_mixed"]
    sched = scenario.schedule
    p = sched.positive_part(scenario.surface.cls, scenario.model.anticanonical,
                            sched.chambers[0])
    d0 = restrict(p, scenario.surface.restriction).evaluate(u=F(1, 4))
    return d0 - scenario.z.scale(F(129, 64))


@pytest.mark.parametrize("name,point,witness", [
    ("lemma_4_1", _quarter_l, "(1, 1, 0, 0, 0)"),
    ("lemma_4_3_mixed", _mixed_beyond_its_top, "(0, 1, 0, 0)"),
], ids=["quarter_l", "mixed_quadric"])
def test_out_of_cone_classes_raise_not_pseudo_effective(scenarios, name, point, witness):
    # each grows a support with an indefinite Gram matrix; membership in the
    # cone of the extremal curves decides the error, with a Farkas witness
    surface = scenarios[name].surface
    with pytest.raises(NotPseudoEffectiveError, match=re.escape(f"functional {witness}")):
        zariski_decompose(point(scenarios), surface.extremal_curves, surface.form)


def test_indefinite_support_inside_the_cone_means_wrong_curve_data():
    # C0 and C1 pair to -9 although both are negative curves: the class lies
    # in their cone, so the indefinite Gram matrix is blamed on the data
    basis = LatticeBasis(["A", "B"])
    form = SurfaceForm(basis, {("A", "A"): F(1), ("B", "B"): F(-2), ("A", "B"): F(1)})
    curves = [("C0", DivisorClass(basis, [1, 2])), ("C1", DivisorClass(basis, [-2, 1])),
              ("C2", DivisorClass(basis, [0, -1]))]
    d = DivisorClass(basis, [2, 3])
    assert isinstance(effective_decompose(d, ConeSpec(curves)), Decomposition)
    with pytest.raises(IndefiniteSupportError):
        zariski_decompose(d, curves, form)


def test_decompose_of_nef_class_is_trivial(dp5):
    cls = dp5_ray(dp5, F(9, 8), F(1, 4))  # inside the nef chamber
    result = zariski_decompose(cls, dp5.extremal_curves, dp5.form)
    assert result.support == ()
    assert result.negative == ()
    assert result.positive == cls


def test_decompose_not_pseudoeffective_on_ruled_surface(ruled):
    cls = DivisorClass(ruled.basis, [2, -1])
    with pytest.raises(NotPseudoEffectiveError, match="nef curve"):
        zariski_decompose(cls, ruled.extremal_curves, ruled.form)


def test_v_sweep_breakpoints_on_dp5(dp5, model):
    d0 = DivisorClass(dp5.basis, [8 - 5 * U, U - 2, 2 * U - 3, 2 * U - 3, 2 * U - 3])
    z = dp5.basis.unit("l")
    chambers = v_sweep(d0, z, F(5, 4), dp5.extremal_curves, dp5.form)
    assert [(c.v_lo, c.v_hi) for c in chambers] == [(0, F(1, 2)), (F(1, 2), F(5, 8))]
    assert chambers[0].support == ()
    assert set(chambers[1].support) == {"L12", "L13", "L14"}


def test_v_sweep_single_chamber_low_u(dp5):
    d0 = DivisorClass(dp5.basis, [4 - U, -1, -1, -1, -1])
    z = dp5.basis.unit("l")
    chambers = v_sweep(d0, z, F(1, 2), dp5.extremal_curves, dp5.form)
    assert len(chambers) == 1
    assert chambers[0].v_hi == F(3, 2)


def test_v_sweep_terminal_wall_on_quadric(dp6, model):
    p1 = DivisorClass(model.basis, [4 - 2 * U, 0, -1])
    d0 = restrict(p1, dp6.restriction)
    chambers = v_sweep(d0, dp6.basis.unit("l1"), F(29, 20),
                       dp6.extremal_curves, dp6.form)
    assert chambers[-1].v_hi == F(1, 5) == 6 - 4 * F(29, 20)


def test_v_sweep_errors_on_irrational_terminal():
    # contrived pairing data whose volume quadratic has irrational roots and
    # no wall intercedes: the sweep must fail loudly, never approximate
    basis = LatticeBasis(["A", "B"])
    form = SurfaceForm(basis, {("A", "A"): F(2), ("B", "B"): F(-1)})
    d0 = DivisorClass(basis, [3 + 0 * U, 0 * U])
    z = DivisorClass(basis, [1, 1])
    with pytest.raises(IrrationalBreakpointError):
        v_sweep(d0, z, F(1, 2), [("B", basis.unit("B"))], form)


V = Poly.variable("v")


@pytest.mark.parametrize("z,chambers", [
    ([1, 1, 0, 0, 0], [(0, 2, {"E1"}, (3 - V) ** 2), (2, F(5, 2), set(), 5 - 2 * V)]),
    ([0, 1, 0, 0, 0], [(0, 2, {"E1"}, Poly.of(9)), (2, 5, set(), (5 - V) * (1 + V))]),
], ids=["l+E1", "E1"])
def test_v_sweep_follows_a_shrinking_support(dp5, z, chambers):
    # along 3l + 2E1 - v z the negative part is (2 - v) E1 up to v = 2, where
    # E1 leaves the support; for z = l + E1 the volume at v = 9/4 is 5 - 9/2 = 1/2
    d0 = DivisorClass(dp5.basis, [3, 2, 0, 0, 0])
    z = DivisorClass(dp5.basis, z)
    sweep = v_sweep(d0, z, F(1), dp5.extremal_curves, dp5.form)
    assert [(c.v_lo, c.v_hi, set(c.support), c.vol) for c in sweep] == chambers
    for c in sweep:
        v = (c.v_lo + c.v_hi) / 2
        result = zariski_decompose(d0 - z.scale(v), dp5.extremal_curves, dp5.form)
        assert set(result.support) == set(c.support)
        assert result.positive == c.positive.evaluate(v=v)


def test_a_sweep_pairs_its_ray_with_each_curve_once(scenarios, dp5, monkeypatch):
    """Each chamber reads its pairings off one table for the ray: D.C_k per
    curve and D.D are the only pairings with a polynomial argument, however
    many chambers the sweep has.  The one rational pairing is the start's D.D
    in its own decomposition: the check for a start on the boundary reads vol
    off the first chamber's solve."""
    from divstab import zariski
    calls = Counter()

    def counted(a, b, form):
        calls[a.rational and b.rational] += 1
        return surface_pair(a, b, form)
    monkeypatch.setattr(zariski, "surface_pair", counted)
    rays = [(DivisorClass(dp5.basis, [3, -1, -1, -1, -1]),
             DivisorClass(dp5.basis, [2, 1, 1, -1, 0]), F(0), dp5),
            (DivisorClass(dp5.basis, [3, 2, 0, 0, 0]),
             DivisorClass(dp5.basis, [1, 1, 0, 0, 0]), F(1), dp5)]
    for name in ("lemma_4_1", "lemma_4_3_l1"):
        scenario = scenarios[name]
        sched = scenario.schedule
        for chamber in sched.chambers:
            p = sched.positive_part(scenario.surface.cls, scenario.model.anticanonical,
                                    chamber)
            rays.append((restrict(p, scenario.surface.restriction), scenario.z,
                         (chamber.u_lo + chamber.u_hi) / 2, scenario.surface))
    counts = Counter()
    for d0, z, u, surface in rays:
        calls.clear()
        sweep = v_sweep(d0, z, u, surface.extremal_curves, surface.form)
        assert 0 < calls[False] <= len(surface.extremal_curves) + 1
        assert calls[True] == 1
        counts[len(sweep)] += 1
    assert set(counts) == {1, 2, 3}


def test_a_sweep_starting_on_the_boundary_raises(dp5):
    # l - E1 is effective with volume 0, so the ray has no chamber
    l, e1 = dp5.basis.unit("l"), dp5.basis.unit("E1")
    with pytest.raises(NotPseudoEffectiveError,
                       match="at u=1 starts on the pseudo-effective boundary"):
        v_sweep(l - e1, e1, 1, dp5.extremal_curves, dp5.form)


def test_chart_follows_a_shrinking_support(dp5):
    d0 = DivisorClass(dp5.basis, [3 + 0 * U, 2 + U, 0, 0, 0])
    z = DivisorClass(dp5.basis, [1, 1, 0, 0, 0])
    chart = build_chart(d0, z, [0, 1], dp5.extremal_curves, dp5.form)
    assert chart.volume_integral() == F(431, 48)
    assert [set(ch.support) for ch in chart.chambers] == [{"E1"}, set()]


def test_chart_errors_on_non_affine_terminal_boundary():
    # the terminal root 10 - sqrt(9u^2 + 16) is rational at the midpoint u = 0
    # but not affine in u: the chart must fail loudly, never approximate
    basis = LatticeBasis(["A", "B", "C"])
    form = SurfaceForm(basis, {("A", "A"): F(1), ("B", "B"): F(-1), ("C", "C"): F(-1)})
    d0 = DivisorClass(basis, [10 + 0 * U, 3 * U, 4 + 0 * U])
    assert v_sweep(d0, basis.unit("A"), F(0), [], form)[-1].v_hi == 6
    with pytest.raises(IrrationalBreakpointError):
        build_chart(d0, basis.unit("A"), [-1, 1], [], form)


def test_chart_reproduces_displayed_walls(dp5):
    d0a = DivisorClass(dp5.basis, [4 - U, -1, -1, -1, -1])
    d0b = DivisorClass(dp5.basis, [8 - 5 * U, U - 2, 2 * U - 3, 2 * U - 3, 2 * U - 3])
    z = dp5.basis.unit("l")
    chart_a = build_chart(d0a, z, [0, 1], dp5.extremal_curves, dp5.form)
    assert [ch.v_hi for ch in chart_a.chambers] == [2 - U]
    chart_b = build_chart(d0b, z, [1, F(3, 2)], dp5.extremal_curves, dp5.form)
    cells = u_cells(chart_b)
    assert cells == [(1, F(7, 5)), (F(7, 5), F(3, 2))]
    first = chart_stack(chart_b, *cells[0])
    second = chart_stack(chart_b, *cells[1])
    assert [ch.v_hi for ch in first] == [3 - 2 * U, (5 - 3 * U) * F(1, 2)]
    assert [ch.v_hi for ch in second] == [3 - 2 * U, 6 - 4 * U]
    assert first[1].support == second[1].support == ("L12", "L13", "L14")


def test_chart_on_ruled_surface(ruled):
    d0a = DivisorClass(ruled.basis, [1 + U, 3 - U])
    d0b = DivisorClass(ruled.basis, [2, 6 - 4 * U])
    z = ruled.basis.unit("s")
    chart_a = build_chart(d0a, z, [0, 1], ruled.extremal_curves, ruled.form)
    chart_b = build_chart(d0b, z, [1, F(3, 2)], ruled.extremal_curves, ruled.form)
    assert [ch.v_hi for ch in chart_a.chambers] == [1 + U]
    assert [ch.v_hi for ch in chart_b.chambers] == [Poly.of(2)]
    assert all(ch.support == () for ch in chart_a.chambers + chart_b.chambers)


@pytest.mark.parametrize("coeffs,cell,cells", [
    # F11 is orthogonal to z, so its pairing with the positive part is the
    # same at every v; it changes sign at u = 1/2, where F11 leaves every
    # chamber's support at once and no two walls meet
    ([U + 6, U + 2, U - 3, -1 + 0 * U], (-1, 1), [(-1, F(1, 2)), (F(1, 2), 1)]),
    # two walls meet at u = -1/2 without changing any chamber: the pieces on
    # both sides are identical and are merged again
    ([2 - U, -U, -1 + 0 * U, 2 + 0 * U], (-2, 0), [(-2, -1), (-1, 0)]),
])
def test_chart_cells_are_exact_and_minimal(dp6, coeffs, cell, cells):
    d0 = DivisorClass(dp6.basis, coeffs)
    z = dp6.basis.unit("l1")
    chart = build_chart(d0, z, cell, dp6.extremal_curves, dp6.form)
    assert u_cells(chart) == cells
    for lo, hi in u_cells(chart):
        stack = chart_stack(chart, lo, hi)
        for u in (lo + (hi - lo) / 4, (lo + hi) / 2, lo + (hi - lo) * 3 / 4):
            sweep = v_sweep(d0, z, u, dp6.extremal_curves, dp6.form)
            assert stack[-1].v_hi(u) == sweep[-1].v_hi
            for ch in stack:
                v = (ch.v_lo(u) + ch.v_hi(u)) / 2
                result = zariski_decompose(d0.evaluate(u=u) - z.scale(v),
                                           dp6.extremal_curves, dp6.form)
                assert set(result.support) == set(ch.support)
                assert result.positive == ch.positive.evaluate(u=u, v=v)


def test_chart_trivial_when_z_has_positive_square(ruled):
    d0 = DivisorClass(ruled.basis, [2 + 0 * U, 3])
    z = DivisorClass(ruled.basis, [1, 1])
    chart = build_chart(d0, z, [0, 1], ruled.extremal_curves, ruled.form)
    assert len(chart.chambers) == 1
    assert chart.chambers[0].support == ()
    assert chart.chambers[0].v_hi == Poly.of(2)


def _charts_for(scenario):
    from divstab import sinv
    return sinv.volume_charts(curve_input(scenario))


def test_chart_invariants_at_random_samples(scenarios):
    rng = random.Random(99)
    for name in ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r",
                 "lemma_4_3_l1", "lemma_4_3_l2", "lemma_4_3_mixed"):
        scenario = scenarios[name]
        surface = scenario.surface
        curves = dict(surface.extremal_curves)
        for chart in _charts_for(scenario):
            for ch in chart.chambers:
                for _ in range(12):
                    u = ch.u_lo + (ch.u_hi - ch.u_lo) * F(rng.randint(1, 63), 64)
                    lo, hi = ch.v_lo(u), ch.v_hi(u)
                    if lo >= hi:
                        continue
                    v = lo + (hi - lo) * F(rng.randint(1, 63), 64)
                    d = _chamber_class(scenario, ch, u, v)
                    result = zariski_decompose(d, surface.extremal_curves, surface.form)
                    assert set(result.support) == set(ch.support)
                    assert result.positive == ch.positive.evaluate(u=u, v=v)
                    assert all(coeff >= 0 for _, coeff in result.negative)
                    assert surface_pair(result.positive, result.positive,
                                        surface.form) == ch.vol(u, v)
                    for cname, ccls in surface.extremal_curves:
                        pairing = surface_pair(result.positive, ccls, surface.form)
                        if cname in result.support:
                            assert pairing == 0
                        else:
                            assert pairing >= 0


def _chamber_class(scenario, chamber, u, v):
    from divstab.lattice import restrict
    sched_chamber = next(c for c in scenario.schedule.chambers
                         if c.u_lo <= u <= c.u_hi)
    p = scenario.schedule.positive_part(scenario.surface.cls,
                                        scenario.model.anticanonical, sched_chamber)
    return (restrict(p, scenario.surface.restriction).evaluate(u=u)
            - scenario.z.scale(v))


def test_volume_continuity_across_chambers(scenarios):
    """Adjacent chambers' volumes agree identically on the shared wall."""
    for name in ("lemma_4_1", "lemma_4_3_l1", "lemma_4_3_l2", "lemma_4_3_mixed"):
        for chart in _charts_for(scenarios[name]):
            for lo, hi in u_cells(chart):
                stack = chart_stack(chart, lo, hi)
                for below, above in zip(stack, stack[1:]):
                    assert below.v_hi == above.v_lo
                    wall = below.v_hi
                    assert below.vol.subs_v(wall) == above.vol.subs_v(wall)
                # outer boundary: volume vanishes identically
                assert stack[-1].vol.subs_v(stack[-1].v_hi).is_zero()


def test_charts_reproduce_displayed_integrands(scenarios):
    """Every chamber volume equals its displayed closed form, exactly."""
    u, v = U, Poly.variable("v")
    displayed = {
        "lemma_4_1": [
            (4 - u - v) ** 2 - 4,
            12 * u * u + 10 * u * v + v * v - 40 * u - 16 * v + 33,
            24 * u * u + 22 * u * v + 4 * v * v - 76 * u - 34 * v + 60,
        ],
        "lemma_4_2_s": [2 * (3 - u) * (1 + u - v), 4 * (v - 2) * (2 * u - 3)],
        "lemma_4_2_r": [2 * (1 + u - v) * (3 - u - 3 * v),
                        2 * (2 - v) * (6 - 4 * u - 3 * v)],
        "lemma_4_3_l1": [10 - 4 * u - 4 * v, 2 * (3 - u - v) ** 2,
                         8 * u * u + 4 * u * v - 32 * u - 8 * v + 30,
                         2 * (4 - 2 * u - v) * (6 - 4 * u - v)],
        "lemma_4_3_l2": [2 * u * v - 4 * u - 6 * v + 10, 2 * (v - 2) * (v - 3 + u),
                         8 * u * u + 4 * u * v - 32 * u - 8 * v + 30,
                         2 * (4 - 2 * u - v) * (6 - 4 * u - v)],
        "lemma_4_3_mixed": [2 * u * v - 4 * u - 6 * v + 10,
                            2 * (v - 2) * (-3 + u + v),
                            2 * (2 * u - 3) * (2 * u + 2 * v - 5),
                            2 * (-4 + 2 * u + v) ** 2],
    }
    for name, expected in displayed.items():
        vols = []
        for chart in _charts_for(scenarios[name]):
            for ch in chart.chambers:
                if ch.vol not in vols:
                    vols.append(ch.vol)
        assert vols == expected, name


def test_volume_monotone_in_v(scenarios):
    rng = random.Random(3)
    for name in ("lemma_4_1", "lemma_4_3_l1"):
        for chart in _charts_for(scenarios[name]):
            for ch in chart.chambers:
                for _ in range(8):
                    u = ch.u_lo + (ch.u_hi - ch.u_lo) * F(rng.randint(1, 15), 16)
                    lo, hi = ch.v_lo(u), ch.v_hi(u)
                    if lo >= hi:
                        continue
                    v1 = lo + (hi - lo) * F(1, 3)
                    v2 = lo + (hi - lo) * F(2, 3)
                    assert ch.vol(u, v1) >= ch.vol(u, v2)


def test_chart_requires_two_breakpoints(dp5):
    d0 = DivisorClass(dp5.basis, [4 - U, -1, -1, -1, -1])
    with pytest.raises(ValueError, match="two"):
        build_chart(d0, dp5.basis.unit("l"), [0], dp5.extremal_curves, dp5.form)


def test_chart_rejects_non_affine_family(ruled):
    """A family quadratic in u has curved walls: it must fail loudly, never be guessed."""
    d0 = DivisorClass(ruled.basis, [2 - U * U, 3])
    z = ruled.basis.unit("s")
    with pytest.raises(ValueError, match="affine in u"):
        build_chart(d0, z, [0, 1], ruled.extremal_curves, ruled.form)


def test_a_verify_pass_solves_each_chamber_once(monkeypatch):
    """One ``run_verify`` of the bundled scenarios makes 17 exact solves (26
    when each chart solved its supports a second time after the midpoint
    sweep), and every derived piece of a chart is read off one sweep."""
    from divstab import linalg, sinv, zariski
    from divstab.scenario import bundled_scenario_names, load_bundled, run_verify
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((linalg, "solve_unique"), (zariski, "v_sweep"),
                         (zariski, "_derive_cell"), (sinv, "build_chart")):
        counting(module, name)
    names = bundled_scenario_names()
    assert len(names) == 17
    assert run_verify([(n, load_bundled(n)) for n in names]).all_pass
    assert calls["solve_unique"] == 17
    assert calls["v_sweep"] == calls["_derive_cell"] > calls["build_chart"] > 0


def _random_class(rng, surface):
    """A seeded rational class: a nonnegative combination of the curves plus
    a small perturbation, so decompositions and errors both come up."""
    basis = surface.basis
    out = DivisorClass(basis, [F(rng.randint(-2, 2), rng.randint(1, 4))
                               for _ in basis.names])
    for _, cls in surface.extremal_curves:
        out = out + cls.scale(F(rng.randint(0, 6), rng.randint(1, 3)))
    return out


@pytest.mark.parametrize("surface_name", ["dp5", "dp6", "ruled"])
def test_decompose_matches_the_per_class_pairing_oracle(request, surface_name):
    """The shared surface table changes no decomposition and no error: at
    seeded rational classes, ``zariski_decompose`` equals the fixpoint that
    pairs every class and curve afresh through ``surface_pair``."""
    surface = request.getfixturevalue(surface_name)
    curves, form = surface.extremal_curves, surface.form
    rng = random.Random(f"table-{surface_name}")
    outcomes = Counter()
    for _ in range(150):
        d = _random_class(rng, surface)
        try:
            expected = zariski_decompose_oracle(d, curves, form)
        except (NotPseudoEffectiveError, IndefiniteSupportError) as exc:
            with pytest.raises(type(exc)):
                zariski_decompose(d, curves, form)
            outcomes["error"] += 1
            continue
        assert zariski_decompose(d, curves, form) == expected
        outcomes["support" if expected.support else "nef"] += 1
    # the quadric has no negative curve, so no class there has a support
    assert len(outcomes) == (2 if surface_name == "ruled" else 3)


@pytest.mark.parametrize("surface_name,count", [("dp5", 75), ("dp6", 17), ("ruled", 0)])
def test_negative_definite_supports_of_each_surface(request, surface_name, count):
    """Zariski chambers are indexed by the negative definite supports
    (Bauer-Kuronya-Szemberg 2004); the del Pezzo surfaces of degree 5 and 6
    have 76 and 18 chambers with the empty one (Bauer-Funke-Neumann 2010),
    and the quadric only the empty one.  The table's Gram is the form's."""
    from divstab.linalg import is_negative_definite
    from divstab.zariski import surface_table
    surface = request.getfixturevalue(surface_name)
    table = surface_table(surface.extremal_curves, surface.form)
    for a, ca in surface.extremal_curves:
        for b, cb in surface.extremal_curves:
            assert table.gram[a, b] == surface_pair(ca, cb, surface.form)
    names = [name for name, _ in surface.extremal_curves]
    supports = [s for k in range(1, len(names) + 1) for s in combinations(names, k)
                if is_negative_definite([[table.gram[a, b] for b in s] for a in s])]
    assert len(supports) == count


def test_a_fresh_parse_finds_its_surface_table(scenarios):
    """The table is found by identity for the same curve tuple, and by value
    for a form and curves built outside the parser or a list of the same
    curves.  A fresh parse of an equal [surface] text finds it either way."""
    from divstab.scenario import load_bundled_scenario
    from divstab.zariski import surface_table
    surface = scenarios["lemma_4_1"].surface
    table = surface_table(surface.extremal_curves, surface.form)
    fresh = load_bundled_scenario("lemma_4_1.scn").surface
    assert surface_table(fresh.extremal_curves, fresh.form) is table
    names = surface.basis.names
    form = SurfaceForm(surface.basis, {(names[i], names[j]): value
                                       for (i, j), value in surface.form.values.items()})
    curves = tuple((name, DivisorClass(surface.basis, cls.coeffs))
                   for name, cls in surface.extremal_curves)
    assert form is not surface.form and curves is not surface.extremal_curves
    assert surface_table(curves, form) is table
    assert surface_table(list(surface.extremal_curves), surface.form) is table
    assert surface_table(surface.extremal_curves[1:], surface.form) is not table


def test_a_second_verify_pass_pairs_no_two_curves(scenarios, monkeypatch):
    """C_i.C_j is formed once per surface, in its table: a second
    ``run_verify`` of the bundled scenarios calls ``surface_pair`` on no two
    listed curves."""
    from divstab import lattice, zariski
    from divstab.scenario import bundled_scenario_names, load_bundled, run_verify
    curves = {cls for sc in scenarios.values() if sc.surface is not None
              for _, cls in sc.surface.extremal_curves}
    calls = Counter()
    original = lattice.surface_pair

    def counted(a, b, form):
        calls[a in curves and b in curves] += 1
        return original(a, b, form)
    for module in (lattice, zariski):
        monkeypatch.setattr(module, "surface_pair", counted)
    items = [(n, load_bundled(n)) for n in bundled_scenario_names()]
    assert len(items) == 17
    assert run_verify(items).all_pass
    calls.clear()
    assert run_verify(items).all_pass
    assert calls[True] == 0
    assert calls[False] > 0
