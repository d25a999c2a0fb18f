import math
import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from divstab.cones import ConeSpec, Decomposition, effective_decompose
from divstab.lattice import DivisorClass, LatticeBasis, SurfaceForm, restrict, surface_pair
from divstab.ratmath import IrrationalBreakpointError, Poly
from divstab.zariski import (IndefiniteSupportError, NotPseudoEffectiveError, _terminal_root,
                             build_chart, v_sweep, zariski_decompose)
from conftest import CURVE_SCENARIOS, curve_args
from oracles import (branches_oracle, chart_stack, negative_class, ray_pairings_oracle,
                     subs_v_poly, surface_pair_oracle, terminal_root_oracle, u_cells,
                     zariski_decompose_oracle)

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
                       match=re.escape("functional (l: 2, E1: 1, E2: 1, E3: 1, E4: 1)")):
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
    ("lemma_4_1", _quarter_l, "(l: 1, E1: 1, E2: 0, E3: 0, E4: 0)"),
    ("lemma_4_3_mixed", _mixed_beyond_its_top, "(l1: 0, l2: 1, e1: 0, e2: 0)"),
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


def test_curves_that_pair_negatively_give_a_negative_coefficient_that_is_refused():
    """Two distinct irreducible curves never pair negatively, which is what
    keeps every support's solution nonnegative.  Here A.B = -1: both curves
    enter together and solve to N = -A + 3B, with P = H of square 1.  Only
    the final sign check on the coefficients refuses it."""
    basis = LatticeBasis(["H", "A", "B"])
    form = SurfaceForm(basis, {("H", "H"): F(1), ("A", "A"): F(-2), ("B", "B"): F(-2),
                               ("A", "B"): F(-1)})
    curves = [("CA", basis.unit("A")), ("CB", basis.unit("B"))]
    with pytest.raises(NotPseudoEffectiveError,
                       match="a negative-part coefficient came out negative"):
        zariski_decompose(DivisorClass(basis, [1, -1, 3]), curves, form)


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


def test_a_float_u_is_refused_by_sweeps_and_charts(dp5):
    """u enters as an exact scalar only, as in ``DivisorClass.evaluate``: a
    float is a TypeError, never a Fraction of its binary expansion."""
    d0 = DivisorClass(dp5.basis, [4 - U, -1, -1, -1, -1])
    z = dp5.basis.unit("l")
    for run in (lambda: v_sweep(d0, z, 0.1, dp5.extremal_curves, dp5.form),
                lambda: build_chart(d0, z, [0.0, 0.5], dp5.extremal_curves, dp5.form),
                lambda: d0.evaluate(u=0.1)):
        with pytest.raises(TypeError, match="expected an exact scalar, got float"):
            run()


def test_a_sweep_forms_positive_parts_only_on_read(dp5):
    """A chamber keeps its solution, u and basis; its positive part is formed
    on first read, equal to the class read off the solution at u, and the
    chamber compares and hashes the same before and after."""
    d0 = DivisorClass(dp5.basis, [8 - 5 * U, U - 2, 2 * U - 3, 2 * U - 3, 2 * U - 3])
    z, u = dp5.basis.unit("l"), F(5, 4)
    sweep = v_sweep(d0, z, u, dp5.extremal_curves, dp5.form)
    twins = v_sweep(d0, z, u, dp5.extremal_curves, dp5.form)
    assert len(sweep) == 2
    for ch, twin in zip(sweep, twins):
        assert "positive" not in vars(ch)
        assert (ch.u, ch.basis) == (u, dp5.basis)
        solution = ch.solution
        eager = DivisorClass(dp5.basis, [(p0 + p1 * u + p2 * V) * F(1, solution.positive_den)
                                         for p0, p1, p2 in solution.positive])
        assert ch.positive == eager
        assert "positive" in vars(ch) and "positive" not in vars(twin)
        assert ch == twin and hash(ch) == hash(twin)
    assert sweep[0].positive.evaluate(v=0) == d0.evaluate(u=u)


def _screen_case(rng):
    """A vol for the terminal screen: a line, a quadratic with rational
    roots or one with irrational roots, each scaled by a random rational."""
    r1, r2 = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
    kind = rng.choice(["linear", "rational", "irrational"])
    if kind == "linear":
        vol = V - r1
    elif kind == "rational":
        vol = (V - r1) * (V - r2)
    else:
        vol = (V - r1) ** 2 - rng.choice([2, 3, 5, F(1, 2), F(7, 9)])
    return vol * F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6)), [r1, r2]


def test_terminal_screen_agrees_with_the_fraction_oracle():
    """The integer screen of a sweep's last chamber returns the root the
    Fraction route returns, or raises as it does: over lines and quadratics,
    an open top, a root exactly at the top, the vertex inside and outside
    (after, at_most), and irrational roots.  The ends are unreduced pairs,
    as the sweep passes them."""
    rng, seen = random.Random("terminal-screen"), Counter()
    for _ in range(4000):
        vol, roots = _screen_case(rng)
        ((*c,),), den = vol.num, vol.den
        c0, c1, c2 = c + [0] * (3 - len(c))
        ends = roots + [F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(2)]
        if c2:
            ends.append(F(-c1, 2 * c2))
        after = rng.choice(ends)
        at_most = rng.choice([None, *(e for e in ends if e > after)])
        k = rng.randint(1, 3)
        lo = (after.numerator * k, after.denominator * k)
        hi = None if at_most is None else (at_most.numerator * k, at_most.denominator * k)
        try:
            expected = terminal_root_oracle(vol, after, at_most)
        except IrrationalBreakpointError as exc:
            expected = str(exc)
        try:
            got = _terminal_root(c0, c1, c2, den, lo, hi)
        except IrrationalBreakpointError as exc:
            got = str(exc)
        assert got == expected, (vol, after, at_most)
        seen["quadratic" if c2 else "linear"] += 1
        seen["irrational" if isinstance(got, str) else "found" if got is not None else None] += 1
        if at_most is None:
            seen["open top"] += 1
        elif got == at_most:
            seen["root at the top"] += 1
        elif c2 > 0 and vol(at_most) > 0:
            seen["vertex inside" if after < F(-c1, 2 * c2) < at_most else "vertex outside"] += 1
    assert {"linear", "quadratic", "irrational", "found", None, "open top", "root at the top",
            "vertex inside", "vertex outside"} <= set(seen), seen


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
    assert [(c.v_lo, c.v_hi, set(c.support)) for c in sweep] == [row[:3] for row in chambers]
    for c, (*_, vol) in zip(sweep, chambers):
        v = (c.v_lo + c.v_hi) / 2
        result = zariski_decompose(d0 - z.scale(v), dp5.extremal_curves, dp5.form)
        assert set(result.support) == set(c.support)
        assert result.positive == c.positive.evaluate(v=v)
        for x in (c.v_lo, v, c.v_hi):  # P.P is quadratic in v: three values fix it
            p = c.positive.evaluate(v=x)
            assert surface_pair(p, p, dp5.form) == vol(x)


def test_a_sweep_pairs_its_ray_with_each_curve_once(scenarios, dp5, monkeypatch):
    """The ray is paired with the curves once, as integer columns, and each
    chamber is one kernel solve of that one ray, however many chambers the
    sweep has.  No pairing has a polynomial argument; the one rational
    pairing is the start's D.D in its own decomposition: the check for a
    start on the boundary reads vol off the first chamber's solve."""
    from divstab import zariski
    calls, rays_solved = Counter(), []
    solve = zariski._solve

    def counted(a, b, form):
        calls[a.rational and b.rational] += 1
        return surface_pair(a, b, form)

    def counted_solve(d, support):
        if len(d.cols) > 1:  # the ray's columns (1, u, v); a rational class has one
            rays_solved.append(d)
        return solve(d, support)
    monkeypatch.setattr(zariski, "surface_pair", counted)
    monkeypatch.setattr(zariski, "_solve", counted_solve)
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
        rays_solved.clear()
        sweep = v_sweep(d0, z, u, surface.extremal_curves, surface.form)
        assert calls[False] == 0
        assert calls[True] == 1
        assert len(rays_solved) == len(sweep)
        assert len(set(map(id, rays_solved))) == 1
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
                assert surface_pair(result.positive, result.positive, dp6.form) == ch.vol(u, v)


def test_chart_trivial_when_z_has_positive_square(ruled):
    d0 = DivisorClass(ruled.basis, [2 + 0 * U, 3])
    z = DivisorClass(ruled.basis, [1, 1])
    chart = build_chart(d0, z, [0, 1], ruled.extremal_curves, ruled.form)
    assert len(chart.chambers) == 1
    assert chart.chambers[0].support == ()
    assert chart.chambers[0].v_hi == Poly.of(2)


def _charts_for(scenario):
    from divstab import sinv
    return sinv.volume_charts(*curve_args(scenario))


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
                    assert subs_v_poly(below.vol, wall) == subs_v_poly(above.vol, wall)
                # outer boundary: volume vanishes identically
                assert subs_v_poly(stack[-1].vol, stack[-1].v_hi).is_zero()


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
    """A chart is one schedule chamber: exactly two breakpoints, ascending."""
    d0 = DivisorClass(dp5.basis, [4 - U, -1, -1, -1, -1])
    for breaks in ([0], [1, 0], [0, 0], [0, F(1, 2), 1]):
        with pytest.raises(ValueError, match="two"):
            build_chart(d0, dp5.basis.unit("l"), breaks, dp5.extremal_curves, dp5.form)


def test_chart_rejects_non_affine_family(ruled, monkeypatch):
    """A family quadratic in u has curved walls: it must fail loudly, never be
    guessed.  A sweep refuses it too, before it decomposes anything, and so
    it does a z that is not rational."""
    from divstab import zariski
    d0 = DivisorClass(ruled.basis, [2 - U * U, 3])
    z = ruled.basis.unit("s")
    with pytest.raises(ValueError, match=re.escape("-u^2 + 2 is not affine in u")):
        build_chart(d0, z, [0, 1], ruled.extremal_curves, ruled.form)
    monkeypatch.setattr(zariski, "zariski_decompose", None)  # any call is a TypeError
    with pytest.raises(ValueError, match=re.escape("-u^2 + 2 is not affine in u")):
        v_sweep(d0, z, F(1, 2), ruled.extremal_curves, ruled.form)
    with pytest.raises(ValueError, match=re.escape("a ray needs z rational, got z = ")):
        v_sweep(d0, z.scale(U), F(1, 2), ruled.extremal_curves, ruled.form)


def test_a_verify_pass_solves_each_chamber_once(monkeypatch):
    """One ``run_verify`` of the bundled scenarios makes 27 kernel solves of
    a ray, one per chamber of its 16 sweeps (54 when each chamber was solved
    twice), and 16 of a rational class, one per sweep start; every derived
    piece of a chart is read off one sweep."""
    from divstab import sinv, zariski
    from divstab.scenario import bundled_scenario_names, load_bundled, run_verify
    calls = Counter()

    def counting(module, name, key=None):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key(*args) if key else name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(zariski, "_solve", lambda d, support: "ray" if len(d.cols) > 1 else "point")
    for module, name in ((zariski, "v_sweep"), (zariski, "_derive_cell"),
                         (sinv, "build_chart")):
        counting(module, name)
    names = bundled_scenario_names()
    assert len(names) == 17
    assert run_verify([(n, load_bundled(n)) for n in names]).all_pass
    assert calls["ray"] == 27
    assert calls["point"] == calls["v_sweep"] == 16
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


def _over_1_u_v(matrix, den):
    """sum matrix[t][s] m_t m_s / den over the monomials m = (1, u, v)."""
    mono = [Poly.of(1), U, V]
    return sum((x * mono[t] * mono[s] for t, row in enumerate(matrix)
                for s, x in enumerate(row)), Poly()) * F(1, den)


@pytest.mark.parametrize("surface_name", ["dp5", "dp6", "ruled"])
def test_the_integer_kernel_matches_the_poly_route(request, surface_name):
    """At seeded rays d0(u) - v z affine in u, the kernel's D.C_k and D.D
    equal the Fraction and Poly pairing oracle on the ray's Poly class, and
    each sweep chamber's forms and positive part, read at an interior (u, v),
    are the coefficients, pairings and positive part that
    ``zariski_decompose`` finds there."""
    from divstab.zariski import _ray, surface_table
    surface = request.getfixturevalue(surface_name)
    curves, form = surface.extremal_curves, surface.form
    table = surface_table(curves, form)
    rng = random.Random(f"kernel-{surface_name}")
    swept = 0
    for _ in range(40):
        a, b = _random_class(rng, surface), _random_class(rng, surface)
        d0 = DivisorClass(surface.basis, [x + (y - x) * U for x, y in zip(a.coeffs, b.coeffs)])
        z = surface.basis.zero()
        while z.is_zero():
            for _, cls in curves:
                z = z + cls.scale(rng.randint(0, 2))
        ray = _ray(table, d0, z)
        meets, square = ray_pairings_oracle(d0, z, curves, form)
        den = ray.den * table.form_den * table.class_den
        for (name, _), row in zip(curves, ray.meets):
            assert _over_1_u_v([row], den) == meets[name]
        assert _over_1_u_v(ray.square, ray.den ** 2 * table.form_den) == square
        u = F(rng.randint(1, 15), 16)
        try:
            sweep = v_sweep(d0, z, u, curves, form)
        except (NotPseudoEffectiveError, IrrationalBreakpointError):
            continue
        for ch in sweep:
            v = (ch.v_lo + ch.v_hi) / 2
            result = zariski_decompose(d0.evaluate(u=u) - z.scale(v), curves, form)
            assert set(result.support) == set(ch.support)
            negative, solution = dict(result.negative), ch.solution
            at = [F(1), u, v]
            for name, nums in solution.forms:
                value = sum(x * m for x, m in zip(nums, at)) / solution.positive_den
                if name in ch.support:
                    assert value * table.class_den == negative[name]
                else:
                    assert value / (table.form_den * table.class_den) == surface_pair_oracle(
                        result.positive, dict(curves)[name], form)
            assert result.positive == DivisorClass(surface.basis, [
                sum(x * m for x, m in zip(nums, at)) / solution.positive_den
                for nums in solution.positive])
            swept += 1
    assert swept >= 20


@pytest.mark.parametrize("surface_name,count", [("dp5", 75), ("dp6", 17), ("ruled", 0)])
def test_negative_definite_supports_of_each_surface(request, surface_name, count):
    """Zariski chambers are indexed by the negative definite supports
    (Bauer-Kuronya-Szemberg 2004); the del Pezzo surfaces of degree 5 and 6
    have 76 and 18 chambers with the empty one (Bauer-Funke-Neumann 2010),
    and the quadric only the empty one.  The table's integer Gram, over its
    one denominator, is the form's, as the Fraction pairing oracle sums it."""
    from divstab.linalg import is_negative_definite
    from divstab.zariski import surface_table
    surface = request.getfixturevalue(surface_name)
    table = surface_table(surface.extremal_curves, surface.form)
    den = table.form_den * table.class_den ** 2
    for (_, ca), row in zip(surface.extremal_curves, table.int_gram):
        for (_, cb), x in zip(surface.extremal_curves, row):
            assert F(x, den) == surface_pair_oracle(ca, cb, surface.form)
    indices = range(len(surface.extremal_curves))
    supports = [s for k in range(1, len(indices) + 1) for s in combinations(indices, k)
                if is_negative_definite([[table.int_gram[a][b] for b in s] for a in s])]
    assert len(supports) == count


def test_a_fresh_parse_finds_its_surface_table(scenarios):
    """The table is found by identity for the same curve tuple, and a fresh
    parse of an equal [surface] text finds it, since the parser hands out one
    surface per distinct section.  A form and curves built outside the
    parser, or a list of the same curves, get an equal table of their own."""
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
    for other in (surface_table(curves, form),
                  surface_table(list(surface.extremal_curves), surface.form)):
        assert [other.form, other.classes, other.rows, other.int_gram] == [
            table.form, table.classes, table.rows, table.int_gram]
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


def _vol_over(vol: Poly) -> tuple[list[list[int]], int]:
    """A volume of degree <= 2 as the 3 x 3 integer table ``_branches`` reads."""
    table = [[0] * 3 for _ in range(3)]
    for i, row in enumerate(vol.num):
        table[i][:len(row)] = row
    return table, vol.den


def _branch_lines(table, den):
    """The integer branches as Polys, or the message of the error they raise."""
    from divstab.zariski import _branches, _line
    try:
        return [_line(w) for w in _branches(table, den)]
    except IrrationalBreakpointError as exc:
        return str(exc)


def _oracle_lines(vol):
    try:
        return branches_oracle(vol)
    except IrrationalBreakpointError as exc:
        return str(exc)


def test_terminal_branches_of_the_bundled_charts_match_the_poly_route(scenarios):
    """Each terminal chamber of each bundled chart cell: the integer branches
    are the Poly route's lines, in its order (the chart picks the first line
    through the sweep's end)."""
    from divstab.ratmath import _reduce
    from divstab.zariski import _vol_table
    kinds = Counter()
    for name in CURVE_SCENARIOS:
        scenario = scenarios[name]
        surface, sched = scenario.surface, scenario.schedule
        for chamber, chart in zip(sched.chambers, _charts_for(scenario)):
            p = sched.positive_part(surface.cls, scenario.model.anticanonical, chamber)
            d0 = restrict(p, surface.restriction)
            for lo, hi in u_cells(chart):
                sweep = v_sweep(d0, scenario.z, (lo + hi) / 2, surface.extremal_curves,
                                surface.form)
                solution = sweep[-1].solution
                table = _vol_table(solution)
                vol = _reduce([row[:] for row in table], solution.vol_den)
                assert _branch_lines(table, solution.vol_den) == branches_oracle(vol)
                kinds["linear" if table[0][2] == 0 else "quadratic"] += 1
    assert kinds["linear"] > 0 and kinds["quadratic"] > 0


def test_seeded_branches_match_the_poly_route():
    """Seeded volumes: a square discriminant, a constant one (parallel
    branches), a non-square one, and the linear case a = 0 with b dividing c
    or not.  The lines, their order and the error message all agree."""
    rng = random.Random(25)

    def affine():
        return rng.randint(-5, 5) + F(rng.randint(-6, 6), rng.randint(1, 4)) * U

    def quadratic():
        return affine() + F(rng.randint(-3, 3), rng.randint(1, 3)) * U * U

    seen = Counter()
    for _ in range(500):
        kind = rng.choice(["square", "constant", "any", "linear", "linear any"])
        a = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        if kind == "square":
            vol = a * (V - affine()) * (V - affine())
        elif kind == "constant":
            r = affine()
            vol = a * (V - r) * (V - r - F(rng.randint(-4, 4), rng.randint(1, 3)))
        elif kind == "any":
            vol = a * V * V + affine() * V + quadratic()
        elif kind == "linear":
            vol = affine() * (V - affine())
        else:
            vol = affine() * V + quadratic()
        expected = _oracle_lines(vol)
        assert _branch_lines(*_vol_over(vol)) == expected
        seen[kind, isinstance(expected, str)] += 1
    for kind in ("square", "constant", "linear"):
        assert seen[kind, False] > 0
    assert seen["any", True] > 0 and seen["linear any", True] > 0
    # discriminants that fail one exactness check only: 4u + 9u^2 (s = 3 and
    # t = 0 fit u^2 and 1, but 2ts != 4), 4 + 4u (s = 0, t = 2, 2ts != 4),
    # 4 + 4u - u^2 (no square root of -1); and a volume constant in v
    for vol in (V * V + U * V - U - 2 * U * U, V * V - 1 - U,
                V * V - (4 + 4 * U - U * U) * F(1, 4), Poly.of(3) + U):
        expected = _oracle_lines(vol)
        assert isinstance(expected, str) and _branch_lines(*_vol_over(vol)) == expected


def test_cut_finder_matches_the_fraction_formula():
    """``_crossings`` on seeded integer lines v = (c0 + c1 u) / d, with
    denominators of either sign, parallel and equal pairs, and pairs that
    meet exactly at lo or hi, which are not cuts: it equals
    {(b0 - a0) / (a1 - b1)} inside (lo, hi) on the lines as Fractions."""
    from divstab.zariski import _crossings, _inside
    rng = random.Random(25)

    def scaled(c0, c1):
        d = math.lcm(c0.denominator, c1.denominator) * rng.choice([1, -1, 2, -3])
        return (int(c0 * d), int(c1 * d), d)

    def through(u, v):
        slope = F(rng.randint(-4, 4), rng.randint(1, 3))
        return scaled(v - slope * u, slope)

    seen = Counter()
    for _ in range(300):
        lo = F(rng.randint(-6, 6), rng.randint(1, 4))
        hi = lo + F(rng.randint(1, 8), rng.randint(1, 4))
        lines = [(rng.randint(-4, 4), rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 4]))
                 for _ in range(rng.randint(0, 4))]
        for u in (lo, hi, (lo + hi) / 2):
            v = F(rng.randint(-5, 5), rng.randint(1, 3))
            lines += [through(u, v), through(u, v)]
        lines.append(scaled(*(F(c, lines[0][2]) + 1 for c in lines[0][:2])))  # parallel
        lines.append(tuple(-c for c in lines[0]))                            # equal
        expected = set()
        for (a0, a1, ad), (b0, b1, bd) in combinations(lines, 2):
            a0, a1, b0, b1 = F(a0, ad), F(a1, ad), F(b0, bd), F(b1, bd)
            if a1 == b1:
                seen["parallel"] += 1
                continue
            u = (b0 - a0) / (a1 - b1)
            seen["at an end" if u in (lo, hi) else "inside" if lo < u < hi else "outside"] += 1
            if lo < u < hi:
                expected.add(u)
        assert _crossings(lines, lo, hi) == expected
        for num, den in ((lo.numerator, lo.denominator), (-hi.numerator, -hi.denominator),
                         (rng.randint(-40, 40), rng.choice([-7, -2, -1, 1, 3, 5]))):
            at = F(num, den)
            assert _inside(num, den, lo, hi) == (at if lo < at < hi else None)
    assert min(seen[k] for k in ("parallel", "at an end", "inside", "outside")) > 0
