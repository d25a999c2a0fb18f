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
coefficient is derived from the schedule: it sums the coefficients of the
components of N(u) whose restriction is an exact rational multiple of Z,
times that multiple (:func:`expected_ord_coeffs`).  A scenario declares it
too, and the scenario reader checks the declaration against this derivation.

All eight golden fractions of the verification suite come out of
:func:`s_curve` / :func:`negative_part_term` / :func:`dominance_bound`.
Each evaluation computes every intermediate once: :func:`validate_schedule`
returns the :class:`Chamber` records (P(u) and P(u)^3) its checks read, and
every reader takes them, so the integrals and charts read the certified P(u);
a :class:`CurveInvariant` carries its two terms, chambers and charts, so no
caller rebuilds them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .cones import (ConeSpec, Decomposition, effective_decompose,
                    pseudoeffective_threshold)
from .lattice import (CurvePairing, DivisorClass, LatticeBasis, RestrictionMap,
                      SurfaceForm, ThreefoldForm, combination, pair_with_curve, restrict,
                      triple_product)
from .ratmath import Poly, _affine, _homogeneous, format_rational, integrate_univariate
from .record import Record
from .zariski import NamedCurve, ZariskiChart, build_chart

_MINUS_U = -Poly.variable("u")


class ScheduleError(ValueError):
    """Schedule data violates one of its invariants; names the chamber end or
    the chamber where it fails."""


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

    @cached_property
    def curve_cone(self) -> ConeSpec:
        """The cone of the extremal curves, built on first use and kept."""
        return ConeSpec(self.extremal_curves)


class ScheduleChamber(Record):
    u_lo: Fraction
    u_hi: Fraction
    # negative part on X: (divisor name, class, coefficient polynomial in u)
    negative: tuple[tuple[str, DivisorClass, Poly], ...] = ()

    def __post_init__(self):  # each coefficient affine in u, else ValueError
        _affine([coeff for _, _, coeff in self.negative])


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
        """``-K - u Y - N(u)`` on the chamber, as one combination."""
        return combination(anticanonical.basis, [
            (1, anticanonical), (_MINUS_U, y),
            *((-coeff, cls) for _, cls, coeff in chamber.negative)])


class Chamber(Record):
    """One validated schedule chamber: P(u) and P(u)^3 as validation checked them."""

    u_lo: Fraction
    u_hi: Fraction
    positive: DivisorClass                # P(u) = -K - u Y - N(u)
    cube: Poly                            # P(u)^3


class SCurveInput(Record):
    """Everything one curve-invariant evaluation needs."""

    model: ThreefoldModel
    surface: SurfaceData
    z: DivisorClass                       # curve class on the surface lattice
    schedule: Schedule


def validate_schedule(model: ThreefoldModel, y: DivisorClass,
                      sched: Schedule) -> tuple[Chamber, ...]:
    """Check every schedule invariant exactly; raise ScheduleError on the first failure.

    Each negative-part coefficient is affine in u (the chamber type checks),
    so P(u) is too, and the coefficients and the Mori pairings are
    nonnegative on a chamber iff they are at its two ends.  With A = P(lo)
    and B = P(hi), the cube ``P(u)^3`` has the Bernstein coefficients A^3,
    A^2 B, A B^2 and B^3 on [lo, hi]: mixed products of nef classes when the
    curve table generates the Mori cone, so nonnegative, and lower bounds of
    the cube.  P(u) is continuous (Nakayama 2004, III), so adjacent chambers
    agree at their common end.  Every check is on integers (``_affine``'s,
    or ``q^deg c(p/q)`` by :func:`_homogeneous`); a Fraction is formed only
    for an error message.  Returns one :class:`Chamber` per chamber, with
    the P(u) and ``P(u)^3`` the checks were made on.
    """
    mk = model.anticanonical
    tau = sched.tau
    recomputed = pseudoeffective_threshold(mk, y, model.effective_cone)
    if recomputed != tau:
        raise ScheduleError(
            f"schedule ends at u = {format_rational(tau)} but the pseudo-effective "
            f"threshold is {format_rational(recomputed)}")
    chambers = []
    for ch in sched.chambers:
        lo, hi = ch.u_lo, ch.u_hi
        p = sched.positive_part(y, mk, ch)
        cube = Poly.of(triple_product(p, p, p, model.form))
        pairings = [(curve.name, Poly.of(pair_with_curve(p, curve))._numerators())
                    for curve in model.mori_curves]
        _, c0s, c1s = _affine([coeff for _, _, coeff in ch.negative])
        for u0 in (lo, hi):
            n, d = u0.as_integer_ratio()
            if any(c0 * d + c1 * n < 0 for c0, c1 in zip(c0s, c1s)):
                raise ScheduleError(
                    f"negative-part coefficient below zero at u = {format_rational(u0)}")
            for name, pairing in pairings:
                if _homogeneous(pairing, n, d) < 0:
                    raise ScheduleError(
                        f"P(u) pairs negatively with {name} at u = {format_rational(u0)}")
        # c(lo), c(lo) + (hi - lo) c'(lo)/3, c(hi) - (hi - lo) c'(hi)/3, c(hi) as (num, den > 0)
        cs = cube._numerators()
        slope, deg = [k * c for k, c in enumerate(cs)][1:], max(len(cs) - 1, 0)
        (n0, d0), (n1, d1) = lo.as_integer_ratio(), hi.as_integer_ratio()
        w, m = n1 * d0 - n0 * d1, 3 * d0 * d1
        at_lo, at_hi = _homogeneous(cs, n0, d0), _homogeneous(cs, n1, d1)
        bernstein = ((at_lo, d0 ** deg),
                     (m * at_lo + w * d0 * _homogeneous(slope, n0, d0), m * d0 ** deg),
                     (m * at_hi - w * d1 * _homogeneous(slope, n1, d1), m * d1 ** deg),
                     (at_hi, d1 ** deg))
        if min(n for n, _ in bernstein) < 0:
            raise ScheduleError(
                f"P(u)^3 has the Bernstein coefficients "
                f"{', '.join(format_rational(Fraction(n, d * cube.den)) for n, d in bernstein)}"
                f" on [{format_rational(lo)}, {format_rational(hi)}]: one is negative")
        if chambers:                                      # P(lo) from both sides
            _, c0s, c1s = _affine(chambers[-1].positive.coeffs + p.coeffs)
            both = [c0 * d0 + c1 * n0 for c0, c1 in zip(c0s, c1s)]
            if both[:len(both) // 2] != both[len(both) // 2:]:
                raise ScheduleError(f"P(u) jumps at u = {format_rational(lo)}: the negative "
                                    f"parts of the two chambers differ there")
        chambers.append(Chamber(lo, hi, p, cube))
    if at_hi:                                             # the last cube at tau
        raise ScheduleError(
            f"P(u)^3 does not vanish at the terminal u = {format_rational(tau)}")
    return tuple(chambers)


def s_divisor(model: ThreefoldModel, y: DivisorClass, sched: Schedule) -> Fraction:
    """Normalized volume integral of the ray ``-K - u Y``."""
    total = sum((integrate_univariate(ch.cube, ch.u_lo, ch.u_hi)
                 for ch in validate_schedule(model, y, sched)), Fraction(0))
    return total / model.degree


def _multiple_of(cls: DivisorClass, z: DivisorClass) -> Fraction | None:
    """m with cls = m * z, if the restricted class is an exact rational multiple."""
    if not (cls.rational and z.rational) or z.is_zero():
        return None
    i = next(i for i, b in enumerate(z.coeffs) if b)
    m = cls.coeffs[i] / z.coeffs[i]
    return m if z.scale(m) == cls else None


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


def negative_part_term(inp: SCurveInput, chambers: tuple[Chamber, ...]) -> Fraction:
    """The line-integral contribution of Z sitting inside N(u)|_Y, on validated chambers."""
    model, y = inp.model, inp.surface.cls
    total = Fraction(0)
    for ch, ord_coeff in zip(chambers, expected_ord_coeffs(inp)):
        if ord_coeff.is_zero():
            continue
        p2y = triple_product(ch.positive, ch.positive, y, model.form)
        total += integrate_univariate(p2y * ord_coeff, ch.u_lo, ch.u_hi)
    return 3 * total / model.degree


def volume_charts(inp: SCurveInput, chambers: tuple[Chamber, ...]) -> tuple[ZariskiChart, ...]:
    """One chart per validated chamber for ``P(u)|_Y - v Z``."""
    surface = inp.surface
    return tuple(build_chart(restrict(ch.positive, surface.restriction), inp.z,
                             [ch.u_lo, ch.u_hi], surface.extremal_curves, surface.form)
                 for ch in chambers)


class CurveInvariant(Record):
    """A curve invariant with the terms, chambers and charts it was computed from."""

    value: Fraction
    negative_term: Fraction
    volume_term: Fraction
    chambers: tuple[Chamber, ...]         # the validated schedule
    charts: tuple[ZariskiChart, ...]      # one per schedule chamber


def s_curve(inp: SCurveInput) -> CurveInvariant:
    """The full curve invariant: negative-part term plus chart volumes.

    The schedule is validated once, both terms read its chambers, and the
    volume term is integrated from the charts the result carries.
    """
    chambers = validate_schedule(inp.model, inp.surface.cls, inp.schedule)
    negative = negative_part_term(inp, chambers)
    charts = volume_charts(inp, chambers)
    volume = 3 * sum((chart.volume_integral() for chart in charts),
                     Fraction(0)) / inp.model.degree
    return CurveInvariant(negative + volume, negative, volume, chambers, charts)


def dominance_bound(inp: SCurveInput, z_lower: DivisorClass) -> CurveInvariant:
    """An upper bound for the curve invariant of Z through a class it dominates.

    Volumes are monotone: replacing Z by a class it dominates (Z minus the
    replacement decomposes over the surface's extremal curves) can only grow
    every integrand, so the volume term of the replacement bounds the volume
    term of Z, and neg(Z) + vol(Z_lower) bounds S(Z).  The result carries
    the negative-part term of Z, the volume term of the replacement and the
    chambers (neg(Z) reads them too) and charts that term was integrated
    from; bounding Z by itself gives :func:`s_curve` of Z.
    """
    diff = inp.z - z_lower
    dominated = (not z_lower.is_zero()
                 and isinstance(effective_decompose(diff, inp.surface.curve_cone),
                                Decomposition))
    if not dominated:
        raise DominanceError(
            "dominance violation: the bound class must be nonzero and dominated "
            "by Z over the surface's extremal curves")
    lowered = s_curve(inp.replace(z=z_lower))
    negative = negative_part_term(inp, lowered.chambers)
    return CurveInvariant(negative + lowered.volume_term, negative,
                          lowered.volume_term, lowered.chambers, lowered.charts)
