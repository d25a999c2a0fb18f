"""Stability functionals: the divisor invariant and the curve invariant.

The divisor invariant of Y is the normalized integral of ``P(u)^3`` along
the ray ``-K - u Y``, where the positive part P(u) is supplied per u-chamber
by a :class:`Schedule` (the threefold-level decompositions are validated
input data, not computed: each negative part is stated explicitly, and
deciding such decompositions in general is out of scope).

The curve invariant of an irreducible curve Z inside a surface Y adds two
contributions: a line integral of ``(P(u)^2 . Y) * ord_Z(N(u)|_Y)`` over the
chambers where Z appears in the restricted negative part, and the double
integral of the chamber-chart volumes of ``P(u)|_Y - v Z``.  The ord
coefficient is scenario data with a consistency check: components of N(u)
whose restriction is an exact rational multiple of Z must reproduce the
declared coefficient (identifying Z inside an arbitrary restricted divisor
needs geometric input the lattice alone does not carry).

All eight golden fractions of the verification suite come out of
:func:`s_curve` / :func:`negative_part_term` / :func:`dominance_bound`.
Each evaluation computes every intermediate once: :func:`validate_schedule`
returns the cubes :func:`s_divisor` integrates, and a curve invariant comes
back as a :class:`CurveInvariant` carrying its two terms and the charts its
volume term was integrated from, so no caller rebuilds them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .cones import (ConeSpec, Decomposition, effective_decompose,
                    pseudoeffective_threshold)
from .lattice import (CurvePairing, DivisorClass, LatticeBasis, RestrictionMap,
                      SurfaceForm, ThreefoldForm, pair_with_curve, restrict,
                      triple_product)
from .ratmath import Poly, format_rational, integrate_univariate
from .record import Record
from .zariski import NamedCurve, ZariskiChart, build_chart

_U = Poly.variable("u")


class ScheduleError(ValueError):
    """Schedule data violates one of its invariants; names the chamber end or
    the chamber where it fails."""


class OrdMismatchError(ValueError):
    """Declared ord coefficient disagrees with the restricted negative part."""


class DominanceError(ValueError):
    """The bounding curve class is not componentwise dominated."""


class ThreefoldModel(Record):
    """The ambient threefold: basis, intersection tensor, cones, curve tables."""

    basis: LatticeBasis
    form: ThreefoldForm
    anticanonical: DivisorClass
    mori_curves: tuple[CurvePairing, ...]
    effective_cone: ConeSpec

    @cached_property
    def degree(self) -> Fraction:
        """``(-K)^3``, computed on first use and kept."""
        k = self.anticanonical
        return triple_product(k, k, k, self.form)


class SurfaceData(Record):
    """An embedded surface: its class on X, its own lattice, and restriction."""

    name: str
    cls: DivisorClass
    basis: LatticeBasis
    form: SurfaceForm
    restriction: RestrictionMap
    extremal_curves: tuple[NamedCurve, ...]


class ScheduleChamber(Record):
    u_lo: Fraction
    u_hi: Fraction
    # negative part on X: (divisor name, class, coefficient polynomial in u)
    negative: tuple[tuple[str, DivisorClass, Poly], ...] = ()


class Schedule(Record):
    """u-chambers of the threefold decomposition of ``-K - u Y``: nonempty,
    in increasing order and contiguous from u = 0, checked on construction."""

    chambers: tuple[ScheduleChamber, ...]

    def __post_init__(self):
        if not self.chambers:
            raise ScheduleError("has no chambers")
        end = Fraction(0)
        for ch in self.chambers:
            if ch.u_lo >= ch.u_hi:
                raise ScheduleError(f"the chamber [{format_rational(ch.u_lo)}, "
                                    f"{format_rational(ch.u_hi)}] is empty")
            if ch.u_lo != end:
                raise ScheduleError(f"chambers are not contiguous at u = {format_rational(end)}"
                                    if end else "chambers must start at u = 0")
            end = ch.u_hi

    @property
    def tau(self) -> Fraction:
        return self.chambers[-1].u_hi

    def positive_part(self, y: DivisorClass, anticanonical: DivisorClass,
                      chamber: ScheduleChamber) -> DivisorClass:
        p = anticanonical - y.scale(_U)
        for _, cls, coeff in chamber.negative:
            p = p - cls.scale(coeff)
        return p


class SCurveInput(Record):
    """Everything one curve-invariant evaluation needs."""

    model: ThreefoldModel
    surface: SurfaceData
    z: DivisorClass                       # curve class on the surface lattice
    schedule: Schedule
    ord_coeffs: tuple[Poly, ...]          # one per schedule chamber


def validate_schedule(model: ThreefoldModel, y: DivisorClass,
                      sched: Schedule) -> tuple[Poly, ...]:
    """Check every schedule invariant exactly; raise ScheduleError on the first failure.

    Each negative-part coefficient must be affine in u, so P(u) is affine
    too, and the coefficients and the Mori pairings are nonnegative on a
    chamber iff they are at its two ends.  With A = P(lo) and B = P(hi),
    the cube ``P(u)^3`` has the Bernstein coefficients A^3, A^2 B, A B^2 and
    B^3 on [lo, hi]; they are mixed products of nef classes when the curve
    table generates the Mori cone, hence nonnegative, and they bound the
    cube from below.  Returns ``P(u)^3`` per chamber, the polynomials the
    checks were made on.
    """
    mk = model.anticanonical
    tau = sched.tau
    recomputed = pseudoeffective_threshold(mk, y, model.effective_cone)
    if recomputed != tau:
        raise ScheduleError(
            f"schedule ends at u = {format_rational(tau)} but the pseudo-effective "
            f"threshold is {format_rational(recomputed)}")
    cubes = []
    for ch in sched.chambers:
        lo, hi = ch.u_lo, ch.u_hi
        for name, _, coeff in ch.negative:
            if coeff.degree_u > 1 or coeff.degree_v > 0:
                raise ScheduleError(
                    f"the negative-part coefficient {coeff} of {name} is not affine in u")
        p = sched.positive_part(y, mk, ch)
        cube = triple_product(p, p, p, model.form)
        pairings = [(curve.name, pair_with_curve(p, curve)) for curve in model.mori_curves]
        for u0 in (lo, hi):
            for _, _, coeff in ch.negative:
                if coeff(u0) < 0:
                    raise ScheduleError(
                        f"negative-part coefficient below zero at u = {format_rational(u0)}")
            for name, pairing in pairings:
                if pairing(u0) < 0:
                    raise ScheduleError(
                        f"P(u) pairs negatively with {name} at u = {format_rational(u0)}")
        slope, third = cube.derivative(), (hi - lo) / 3
        bernstein = (cube(lo), cube(lo) + third * slope(lo),
                     cube(hi) - third * slope(hi), cube(hi))
        if min(bernstein) < 0:
            raise ScheduleError(
                f"P(u)^3 has the Bernstein coefficients "
                f"{', '.join(map(format_rational, bernstein))} on "
                f"[{format_rational(lo)}, {format_rational(hi)}]: one is negative")
        cubes.append(cube)
    if cubes[-1](tau) != 0:
        raise ScheduleError(
            f"P(u)^3 does not vanish at the terminal u = {format_rational(tau)}")
    return tuple(cubes)


def s_divisor(model: ThreefoldModel, y: DivisorClass, sched: Schedule) -> Fraction:
    """Normalized volume integral of the ray ``-K - u Y``."""
    cubes = validate_schedule(model, y, sched)
    total = sum((integrate_univariate(cube, ch.u_lo, ch.u_hi)
                 for ch, cube in zip(sched.chambers, cubes)), Fraction(0))
    return total / model.degree


def _multiple_of(cls: DivisorClass, z: DivisorClass) -> Fraction | None:
    """m with cls = m * z, if the restricted class is an exact multiple."""
    m = None
    for a, b in zip(cls.coeffs, z.coeffs):
        if not b:
            if a:
                return None
            continue
        if not a:
            ratio = Fraction(0)
        elif isinstance(a, Poly) or isinstance(b, Poly):
            return None
        else:
            ratio = a / b
        if m is None:
            m = ratio
        elif m != ratio:
            return None
    return m


def expected_ord_coeffs(inp: SCurveInput) -> tuple[Poly, ...]:
    """ord coefficient per chamber, from components restricting to multiples of Z."""
    out = []
    for ch in inp.schedule.chambers:
        total = Poly()
        for _, cls, coeff in ch.negative:
            m = _multiple_of(restrict(cls, inp.surface.restriction), inp.z)
            if m:
                total = total + coeff * m
        out.append(total)
    return tuple(out)


def check_ord_coeffs(inp: SCurveInput) -> None:
    expected = expected_ord_coeffs(inp)
    if len(inp.ord_coeffs) != len(inp.schedule.chambers):
        raise OrdMismatchError("one ord coefficient per schedule chamber is required")
    for k, (declared, computed) in enumerate(zip(inp.ord_coeffs, expected)):
        if declared != computed:
            raise OrdMismatchError(
                f"chamber {k}: declared ord coefficient {declared} does not match "
                f"the restricted negative part ({computed})")


def negative_part_term(inp: SCurveInput) -> Fraction:
    """The line-integral contribution of Z sitting inside N(u)|_Y."""
    check_ord_coeffs(inp)
    model, sched = inp.model, inp.schedule
    total = Fraction(0)
    for ch, ord_coeff in zip(sched.chambers, inp.ord_coeffs):
        if ord_coeff.is_zero():
            continue
        p = sched.positive_part(inp.surface.cls, model.anticanonical, ch)
        p2y = triple_product(p, p, inp.surface.cls, model.form)
        total += integrate_univariate(p2y * ord_coeff, ch.u_lo, ch.u_hi)
    return 3 * total / model.degree


def volume_charts(inp: SCurveInput) -> tuple[ZariskiChart, ...]:
    """One chart per schedule chamber for ``P(u)|_Y - v Z``."""
    charts = []
    for ch in inp.schedule.chambers:
        p = inp.schedule.positive_part(inp.surface.cls, inp.model.anticanonical, ch)
        d0 = restrict(p, inp.surface.restriction)
        charts.append(build_chart(d0, inp.z, [ch.u_lo, ch.u_hi],
                                  inp.surface.extremal_curves, inp.surface.form))
    return tuple(charts)


class CurveInvariant(Record):
    """A curve invariant with the terms and the charts it was computed from."""

    value: Fraction
    negative_term: Fraction
    volume_term: Fraction
    charts: tuple[ZariskiChart, ...]      # one per schedule chamber


def s_curve(inp: SCurveInput) -> CurveInvariant:
    """The full curve invariant: negative-part term plus chart volumes.

    The schedule is validated and each chamber's chart built exactly once;
    the volume term is integrated from the charts the result carries.
    """
    validate_schedule(inp.model, inp.surface.cls, inp.schedule)
    negative = negative_part_term(inp)
    charts = volume_charts(inp)
    volume = 3 * sum((chart.volume_integral() for chart in charts),
                     Fraction(0)) / inp.model.degree
    return CurveInvariant(negative + volume, negative, volume, charts)


def dominance_bound(inp: SCurveInput, z_lower: DivisorClass) -> CurveInvariant:
    """Curve invariant of a dominated class.

    Volumes are monotone: replacing Z by a class it dominates (Z minus the
    replacement decomposes over the surface's extremal curves) can only grow
    every integrand, so the returned value is an upper bound for the curve
    invariant of Z.  The ord coefficients of the replacement are recomputed
    from the schedule (they belong to the replacement curve, not to Z).  The
    result is :func:`s_curve` of the replacement, charts included.
    """
    diff = inp.z - z_lower
    curve_cone = ConeSpec(list(inp.surface.extremal_curves))
    dominated = (not z_lower.is_zero()
                 and isinstance(effective_decompose(diff, curve_cone), Decomposition))
    if not dominated:
        raise DominanceError(
            "dominance violation: the bound class must be nonzero and dominated "
            "by Z over the surface's extremal curves")
    lowered = inp.replace(z=z_lower, ord_coeffs=())
    lowered = lowered.replace(ord_coeffs=expected_ord_coeffs(lowered))
    return s_curve(lowered)
