"""Zariski decomposition on surfaces: pointwise, along a v-ray, and as charts.

``zariski_decompose`` is the classical fixpoint: repeatedly enlarge the
support by every extremal curve pairing negatively with the current positive
part, re-solving the square Gram system each round.  The decomposition
exists exactly when the input is pseudo-effective; two failure modes are
distinguished:

* a curve of nonnegative self-intersection pairing negatively (on these
  surfaces such curves are nef, so the class has left the effective cone),
  or a solved negative-part coefficient going negative, both reported as
  :class:`NotPseudoEffectiveError`;
* a candidate support whose Gram matrix is not negative definite: the class
  is then tested for membership in the cone of the extremal curves.  Outside
  it, the error is :class:`NotPseudoEffectiveError` with a Farkas witness;
  inside it, :class:`IndefiniteSupportError`, which means the curve data is
  wrong.

The lattice data of a surface is formed once, in one :class:`SurfaceTable`
per curve list and form: each curve's row of pairings with the basis
generators and the curve Gram matrix C_i.C_j.  ``zariski_decompose``,
``v_sweep`` and ``build_chart`` all read it (:func:`surface_table` finds it
by the identity of the curve tuple, else by value), so no C_i.C_j is formed
twice in a process.  Each pointwise decomposition and each sweep then pairs
its class D with the curves once, D.C_k as a dot product with a row, and
forms D.D.  A support S needs no further pairing with D.  Its coefficients
are n = G_S^-1 (D.C_S), with G_S the Gram matrix of S; the positive part is
P = D - sum n_i C_i, its pairings are P.C_k = D.C_k - sum n_i C_i.C_k, and
its volume is vol = P.P = D.D - sum n_i D.C_i, because P.C_i = 0 for every
C_i in S.  The definiteness test and the solve of G_S stay per call.

``v_sweep`` walks ``D0 - v Z`` upward in v from 0 at a fixed u, keeping u
symbolic as ``D0`` gives it.  Each chamber's support is solved once for all
(u, v): the positive part, the volume and the wall forms, each form affine
in v (a negative-part coefficient on the support, the pairing of the
positive part with a curve off it).  The next wall is the least root at u of
a form falling in v; every curve on it toggles: an off-support curve enters,
a support curve whose coefficient reaches 0 leaves.  The sweep terminates at
the smallest rational root of the quadratic ``vol(u, v)``.  On each chamber
every form is >= 0 and the support's Gram matrix is negative definite, which
is Zariski's characterization of the decomposition.

``build_chart`` derives the symbolic picture over each u-interval exactly
and reads its chambers off one sweep at the midpoint of each cell.  Every
wall is an affine line v = w(u); the terminal boundary is a factor of the
volume over Q[u] (a volume that does not factor raises
:class:`IrrationalBreakpointError`).  The cell is cut wherever two walls meet
in a chamber or a wall form constant in v vanishes, the pieces are swept
afresh, and adjacent pieces with identical chambers are merged again.
Chambers are locally polyhedral on a fixed support (Bauer--Kuronya--Szemberg,
*Zariski chambers, volumes, and stable base loci*, 2004), which is what
makes the cut points finite and rational.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .cones import ConeSpec, Infeasible, effective_decompose
from .lattice import BasisMismatchError, DivisorClass, SurfaceForm, surface_pair
from .ratmath import (Coeff, IrrationalBreakpointError, Poly, combination, format_poly,
                      format_rational, integrate_region, rational_roots, rational_sqrt)
from .record import Record

NamedCurve = tuple[str, DivisorClass]


class NotPseudoEffectiveError(ArithmeticError):
    """The class lies outside the pseudo-effective cone of the surface."""


class IndefiniteSupportError(ArithmeticError):
    """A candidate support's Gram matrix is not negative definite."""


class ZariskiResult(Record):
    positive: DivisorClass
    negative: tuple[tuple[str, Fraction], ...]  # curve name -> coefficient >= 0
    support: tuple[str, ...]


class SurfaceTable:
    """The lattice data of one curve list under one form: formed once, then read.

    ``rows`` holds each curve's pairings with the basis generators, as
    integer numerators over one denominator, so D.C_k is a dot product with
    no call to :func:`surface_pair`; ``gram[a, b]`` is C_a.C_b for every two
    listed curves.  :func:`surface_table` shares one table between every
    pairing table, sweep and chart on the surface, so nothing changes it
    after construction.
    """

    __slots__ = ("curves", "classes", "rows", "gram")

    def __init__(self, curves: Sequence[NamedCurve], form: SurfaceForm):
        self.curves = tuple(curves)
        self.classes = dict(self.curves)
        rank = form.basis.rank
        self.rows = {}
        for name, cls in self.curves:
            if cls.basis != form.basis:
                raise BasisMismatchError(f"curve {name!r} is not over the form's basis")
            if not cls.rational:
                raise ValueError(f"curve {name!r} needs rational coefficients, got {cls}")
            row = [sum((c * form.value(i, j) for i, c in enumerate(cls.coeffs) if c),
                       Fraction(0)) for j in range(rank)]
            den = math.lcm(*(x.denominator for x in row))
            self.rows[name] = (tuple(x.numerator * (den // x.denominator) for x in row), den)
        self.gram = {(a, b): value for a, cls in self.curves
                     for b, value in self.pairings(cls).items()}

    def pairings(self, d: DivisorClass) -> dict[str, Coeff]:
        """D.C_k for every listed curve, of the type :func:`surface_pair` returns."""
        if d.rational:
            den = math.lcm(*(c.denominator for c in d.coeffs))
            nums = [c.numerator * (den // c.denominator) for c in d.coeffs]
            return {name: Fraction(sum(map(operator.mul, nums, row)), den * row_den)
                    for name, (row, row_den) in self.rows.items()}
        return {name: combination(d.coeffs, row, row_den)
                for name, (row, row_den) in self.rows.items()}


# the tables by value, so a fresh parse of a surface finds its table again
_SURFACES: dict[tuple, SurfaceTable] = {}


def surface_table(curves: Sequence[NamedCurve], form: SurfaceForm) -> SurfaceTable:
    """The one :class:`SurfaceTable` of ``curves`` under ``form``.

    The form keeps the table of the last curve tuple it was asked for, found
    again by identity with no hashing: a scenario passes one tuple to every
    call.  Any other sequence is looked up by value, in a process-wide dict
    that holds one table per distinct surface.
    """
    memo = vars(form).get("_curve_table")
    if memo is not None and memo[0] is curves:
        return memo[1]
    key = (form.basis.names, tuple(sorted(form.values.items())),
           tuple((name, cls.coeffs) for name, cls in curves))
    table = _SURFACES.get(key)
    if table is None:
        table = _SURFACES[key] = SurfaceTable(curves, form)
    if type(curves) is tuple:  # immutable, so its identity stands for its value
        object.__setattr__(form, "_curve_table", (curves, table))
    return table


class _PairingTable:
    """D.C_k for every listed curve and D.D, for one class D, beside its
    surface's :class:`SurfaceTable`.

    :meth:`solve` reads a support's decomposition off them, as the module
    docstring derives.
    """

    def __init__(self, d: DivisorClass, curves: Sequence[NamedCurve], form: SurfaceForm):
        self.d = d
        self.surface = surface_table(curves, form)
        self.square = surface_pair(d, d, form)
        self.with_d = self.surface.pairings(d)

    def solve(self, support: Sequence[str]):
        """Coefficients n on ``support``, P, P.C_k for each curve off it, and vol."""
        between, classes = self.surface.gram, self.surface.classes
        coeffs = []
        if support:
            gram = [[between[a, b] for b in support] for a in support]
            if not linalg.is_negative_definite(gram):
                raise IndefiniteSupportError(
                    f"support {list(support)} has a Gram matrix that is not negative definite "
                    "(the input class is not pseudo-effective, or the curve data is wrong)")
            coeffs = linalg.solve_unique(gram, [self.with_d[a] for a in support])
            assert coeffs is not None  # negative definite => nonsingular
        p, vol = self.d, self.square
        for name, n in zip(support, coeffs):
            p = p - classes[name].scale(n)
            vol = vol - n * self.with_d[name]
        pairings = {}
        for name, _ in self.surface.curves:
            if name not in support:
                value = self.with_d[name]
                for a, n in zip(support, coeffs):
                    meet = between[a, name]
                    if meet:
                        value = value - n * meet
                pairings[name] = value
        return coeffs, p, pairings, vol


def zariski_decompose(d: DivisorClass, extremal_curves: Sequence[NamedCurve],
                      form: SurfaceForm) -> ZariskiResult:
    """Unique decomposition d = P + N for a pseudo-effective rational class."""
    if not d.rational:
        raise ValueError("pointwise decomposition needs rational coefficients")
    table = _PairingTable(d, extremal_curves, form)
    support: list[str] = []
    coeffs, p, pairings, vol = table.solve(support)
    for _ in range(len(extremal_curves) + 1):
        entering = []
        for name, value in pairings.items():
            if value < 0:
                if table.surface.gram[name, name] >= 0:
                    raise NotPseudoEffectiveError(
                        f"not pseudo-effective: pairing with the nef curve {name!r} "
                        f"is {format_rational(value)} < 0")
                entering.append(name)
        if not entering:
            break
        support.extend(entering)
        try:
            coeffs, p, pairings, vol = table.solve(support)
        except IndefiniteSupportError:
            outcome = effective_decompose(d, ConeSpec(list(extremal_curves)))
            if isinstance(outcome, Infeasible):
                raise NotPseudoEffectiveError(
                    "not pseudo-effective: outside the cone of the extremal curves; "
                    + outcome.detail) from None
            raise
    if any(n < 0 for n in coeffs):
        raise NotPseudoEffectiveError(
            "not pseudo-effective: a negative-part coefficient came out negative")
    if vol < 0:
        raise NotPseudoEffectiveError(
            f"not pseudo-effective: positive part has self-intersection {format_rational(vol)}")
    return ZariskiResult(positive=p, negative=tuple(zip(support, coeffs)),
                         support=tuple(support))


class SweepChamber(Record):
    """One v-interval of constant support along a sweep at fixed u.

    ``positive`` and ``vol`` are read at the sweep's u.  ``toggled`` names
    the curves that enter or leave the support at ``v_hi``; it is empty for
    the last chamber, which ends where vol vanishes.  The last three fields
    are the same support solved for all (u, v): ``forms`` lists ``(curve,
    form, slope)``, where the form is the curve's negative-part coefficient
    on the support and the pairing of the positive part with it off the
    support; each form is affine in v, with a constant slope as z is rational.
    """

    v_lo: Fraction
    v_hi: Fraction
    support: tuple[str, ...]
    positive: DivisorClass       # coefficients are affine in v
    vol: Poly                    # quadratic in v
    toggled: tuple[str, ...]
    positive_uv: DivisorClass    # coefficients in u, affine in v
    vol_uv: Poly
    forms: tuple[tuple[str, Poly, Fraction], ...]


def _terminal_root(vol: Poly, after: Fraction, at_most: Fraction | None):
    """Smallest root of vol in (after, at_most], or None.

    Screens with exact sign evaluations first, so root extraction (which
    errors on irrational roots) only runs when a root really is inside.
    """
    coeffs = vol.coeffs
    if len(coeffs) <= 1:
        return None
    if len(coeffs) == 2:
        root = -coeffs[0] / coeffs[1]
        if root > after and (at_most is None or root <= at_most):
            return root
        return None
    c0, c1, lead = coeffs
    disc = c1 ** 2 - 4 * lead * c0
    if disc < 0:
        return None
    if at_most is not None:
        hi = vol(at_most)
        if hi > 0:
            if lead < 0:
                return None  # concave, positive at both ends
            vertex = -c1 / (2 * lead)
            if not (after < vertex < at_most) or vol(vertex) > 0:
                return None
    roots = [r for r in rational_roots(vol) if r > after]
    if at_most is not None:
        roots = [r for r in roots if r <= at_most]
    return min(roots) if roots else None


def v_sweep(d0: DivisorClass, z: DivisorClass, u: Fraction,
            extremal_curves: Sequence[NamedCurve],
            form: SurfaceForm) -> list[SweepChamber]:
    """Chambers of the Zariski decomposition of ``d0(u) - v z`` for v >= 0."""
    u = Fraction(u)
    start = d0.evaluate(u=u)
    base = zariski_decompose(start, extremal_curves, form)  # validates v = 0
    v = Poly.variable("v")
    ray = DivisorClass(d0.basis, [a - v * b for a, b in zip(d0.coeffs, z.coeffs)])
    table = _PairingTable(ray, extremal_curves, form)
    support = tuple(name for name, _ in extremal_curves if name in base.support)
    chambers: list[SweepChamber] = []
    v0 = Fraction(0)
    # N is convex in the class, so each coefficient vanishes on one interval
    # of the ray: a curve toggles at most twice
    for step in range(2 * len(extremal_curves) + 2):
        positive, vol_uv, forms = _solve_chamber(table, support)
        if step == 0 and vol_uv(u, 0) == 0:  # the start's support: vol of the start
            raise NotPseudoEffectiveError(
                f"the ray at u={format_rational(u)} starts on the pseudo-effective boundary")
        walls = [(-f(u, 0) / slope, name) for name, f, slope in forms if slope < 0]
        wall_v = min((w for w, _ in walls if w >= v0), default=None)
        toggled = tuple(name for w, name in walls if w == wall_v)
        if wall_v != v0:  # else a form is 0 at the floor: toggle with no chamber
            vol = vol_uv.subs_u(u)
            terminal = _terminal_root(vol, v0, wall_v)
            if terminal is not None:
                wall_v, toggled = terminal, ()
            elif wall_v is None:
                raise NotPseudoEffectiveError(
                    "sweep does not terminate: the subtracted curve class is not constraining")
            chambers.append(SweepChamber(v0, wall_v, support, positive.evaluate(u=u), vol,
                                         toggled, positive, vol_uv, forms))
            if not toggled:
                return chambers
            v0 = wall_v
        support = (tuple(n for n in support if n not in toggled)
                   + tuple(n for n in toggled if n not in support))
    raise AssertionError("a curve toggled more than twice along one ray")


class ChartChamber(Record):
    """One chamber of a symbolic (u, v) chart."""

    u_lo: Fraction
    u_hi: Fraction
    v_lo: Poly                   # affine in u
    v_hi: Poly
    support: tuple[str, ...]
    positive: DivisorClass       # coefficients affine in u and v
    vol: Poly

    def describe(self) -> str:
        return (f"u in [{format_rational(self.u_lo)}, {format_rational(self.u_hi)}], "
                f"v in [{format_poly(self.v_lo)}, {format_poly(self.v_hi)}], "
                f"support {{{', '.join(self.support)}}}, "
                f"vol = {format_poly(self.vol)}")


class ZariskiChart(Record):
    chambers: tuple[ChartChamber, ...]

    def volume_integral(self) -> Fraction:
        total = Fraction(0)
        for ch in self.chambers:
            total += integrate_region(ch.vol, ch.u_lo, ch.u_hi, ch.v_lo, ch.v_hi)
        return total

    def describe(self) -> str:
        return "\n".join(ch.describe() for ch in self.chambers)


def build_chart(d0: DivisorClass, z: DivisorClass, u_breaks: Sequence[Fraction],
                extremal_curves: Sequence[NamedCurve], form: SurfaceForm) -> ZariskiChart:
    """Exact chamber chart of ``d0(u) - v z`` over consecutive u-intervals.

    ``d0`` must be affine in u and ``z`` rational.  ``u_breaks`` must include
    every u where the input family itself changes (the schedule's chamber
    endpoints).  Each cell between two breaks is cut wherever its chamber
    structure changes, at points derived exactly, and adjacent pieces with
    identical chamber stacks are merged again, so the chart is minimal.
    """
    if not z.rational or any(
            isinstance(c, Poly) and (c.degree_u > 1 or c.degree_v > 0) for c in d0.coeffs):
        raise ValueError(f"a chart needs d0 affine in u and z rational, got d0 = {d0}, z = {z}")
    breaks = sorted(set(Fraction(b) for b in u_breaks))
    if len(breaks) < 2:
        raise ValueError("need at least two u-breakpoints")
    chambers: list[ChartChamber] = []
    for lo, hi in zip(breaks, breaks[1:]):
        merged: list = []
        for u_lo, u_hi, stack in _derive_cell(d0, z, lo, hi, extremal_curves, form):
            if merged and merged[-1][2] == stack:
                u_lo = merged.pop()[0]
            merged.append((u_lo, u_hi, stack))
        for u_lo, u_hi, stack in merged:
            chambers.extend(ChartChamber(u_lo, u_hi, *row) for row in stack)
    return ZariskiChart(tuple(chambers))


def _derive_cell(d0, z, lo, hi, curves, form) -> list:
    """Pieces ``(u_lo, u_hi, stack)`` of [lo, hi], each of one chamber structure.

    A stack lists ``(v_lo, v_hi, support, positive, vol)`` per chamber, in
    sweep order, read off one ``v_sweep`` at the midpoint: each chamber comes
    with its support solved for all (u, v), so every wall is an affine line
    v = w(u).  A chamber's top is the line of a curve toggled there, and the
    last chamber's top is the branch of vol through the sweep's end.  The
    structure can only change where two walls of a chamber meet or where a
    wall form that is constant in v vanishes.  Any such u inside the cell
    cuts it, and the pieces are derived afresh.  The volume needs no cuts of
    its own: d vol/dv = -2 P.z <= 0 for effective z, so where it vanishes on
    a chamber boundary, the chambers above either close up (their walls
    meet) or have zero volume on that whole slice u = const, which changes
    nothing.
    """
    mid = (lo + hi) / 2
    stack: list = []
    found: list[Fraction] = []
    v_lo = Poly()
    for sw in v_sweep(d0, z, mid, curves, form):
        lines = {}
        for name, f, slope in sw.forms:
            base = f.subs_v(0)
            if slope:
                lines[name] = base * (-1 / slope)
            elif base.degree == 1:
                found.append(-base.coeffs[0] / base.coeffs[1])
        if sw.toggled:
            branches = []
            v_hi = lines[sw.toggled[0]]
        else:
            branches = _branches(sw.vol_uv)
            v_hi = next(w for w in branches if w(mid) == sw.v_hi)
        walls = [(w.coefficient(0, 0), w.coefficient(1, 0))
                 for w in (v_lo, v_hi, *lines.values(), *branches)]
        for (a0, a1), (b0, b1) in combinations(walls, 2):
            if a1 != b1:
                found.append((b0 - a0) / (a1 - b1))
        stack.append((v_lo, v_hi, sw.support, sw.positive_uv, sw.vol_uv))
        v_lo = v_hi
    cuts = sorted({u for u in found if lo < u < hi})
    if not cuts:
        return [(lo, hi, stack)]
    points = [lo, *cuts, hi]
    return [piece for a, b in zip(points, points[1:])
            for piece in _derive_cell(d0, z, a, b, curves, form)]


def _solve_chamber(table: _PairingTable, support):
    """Positive part, volume and wall forms of one support, for all (u, v) at once."""
    chosen = [name for name, _ in table.surface.curves if name in support]
    coeffs, p, pairings, vol = table.solve(chosen)
    forms = [(name, Poly.of(n)) for name, n in zip(chosen, coeffs)]
    forms += [(name, Poly.of(value)) for name, value in pairings.items()]
    return p, Poly.of(vol), tuple((name, f, f.coefficient(0, 1)) for name, f in forms)


def _branches(vol: Poly) -> list[Poly]:
    """The lines ``v = w(u)`` on which a terminal chamber's volume vanishes.

    The v^2 coefficient of a chamber volume is constant.  If it is zero the
    volume is linear in v and its root must divide out as an affine
    polynomial; otherwise the v-discriminant must be the square of one.
    """
    a = vol.coefficient(0, 2)
    b0, b1 = vol.coefficient(0, 1), vol.coefficient(1, 1)
    b = Poly([[b0], [b1]])
    c = vol.subs_v(0)
    if a == 0:
        # (b0 + b1 u)(t + s u) = -c, coefficient by coefficient
        ts = linalg.solve_unique([[b0, 0], [b1, b0], [0, b1]],
                                 [-vol.coefficient(k, 0) for k in range(3)])
        roots = None if ts is None else [Poly([[t] for t in ts])]
    else:
        root = _affine_sqrt(b * b - 4 * a * c)
        roots = None if root is None else [(-b - root) * (1 / (2 * a)),
                                           (-b + root) * (1 / (2 * a))]
    if roots is None:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: where {format_poly(vol)} vanishes is not affine in u")
    return roots


def _affine_sqrt(p: Poly) -> Poly | None:
    """An affine polynomial in u whose square is p, or None."""
    s = rational_sqrt(p.coefficient(2, 0))
    t = p.coefficient(1, 0) / (2 * s) if s else rational_sqrt(p.coefficient(0, 0))
    if s is None or t is None:
        return None
    root = Poly([[t], [s]])
    return root if root * root == p else None

