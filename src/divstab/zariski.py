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
per curve tuple and form: integer views, each over one denominator, of the
form matrix F (the form's ``matrix``), the curve classes, their pairings
with the basis generators and the curve Gram C_i.C_j.  ``zariski_decompose``,
``v_sweep`` and ``build_chart`` read it, kept on the form by curve tuple,
not by value (:func:`surface_table`).  One integer kernel solves every
support.  A class D is integer columns over one denominator, one column per
monomial: (1, u, v) for a ray d0(u) - v z, d0 affine in u, (1,) for a rational
class.  D.C_k (a dot product with each row) and D.D (the column Gram
c_t^T F c_s) are formed once per class.  For a support S with Gram matrix
G_S, one fraction-free elimination of [G_S | D.C_S] gives n = G_S^-1 (D.C_S)
for every column; the positive part is P = D - sum n_i C_i, its pairings are
P.C_k = D.C_k - sum n_i C_i.C_k, and vol = P.P = D.D - sum n_i D.C_i, as
P.C_i = 0 on S.  All come out as integers over one denominator each.

``v_sweep`` walks ``D0 - v Z`` upward in v from 0 at a fixed u, keeping u
symbolic.  Each chamber's support is solved once for all (u, v): the
positive part, the volume and the wall forms, each form affine in v (a
negative-part coefficient on the support, the pairing of the positive part
with a curve off it).  The next wall is the least root at u of a form falling
in v, an integer pair found by cross-multiplying; every curve on it toggles:
an off-support curve enters, a support curve whose coefficient reaches 0
leaves.  The sweep terminates at the smallest rational root of vol at u,
screened on its integer coefficients: a ``Poly`` goes to :func:`rational_roots`
only when a root can lie in the chamber.  Each chamber end is one Fraction,
and the positive part at u is formed only when read.  On each chamber every
form is >= 0 and the support's Gram matrix is negative definite, which is
Zariski's characterization of the decomposition.

``build_chart`` derives the symbolic picture over one u-interval exactly
and reads its chambers off one sweep at the midpoint of each cell.  Every
wall is an integer line v = (c0 + c1 u) / d, d != 0, read straight off
its form in the sweep's solution; each test on lines cross-multiplies, so
the sign of d never matters.  The terminal boundary is a factor of the
volume over Q[u], read off the integer volume table through its
discriminant and ``math.isqrt`` (a volume that does not factor raises
:class:`IrrationalBreakpointError`).  The cell is cut wherever two walls meet
in a chamber or a wall form constant in v vanishes.  Cuts are found and
tested against the cell by cross-multiplying integers, and only a cut inside
the cell becomes a Fraction.  The pieces are swept afresh; only the
chambers of a piece that is not cut again become ``Poly``, and adjacent
pieces with identical chambers are merged again.
Chambers are locally polyhedral on a fixed support (Bauer--Kuronya--Szemberg,
*Zariski chambers, volumes, and stable base loci*, 2004), which is what
makes the cut points finite and rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from . import linalg
from .cones import ConeSpec, separate
from .lattice import BasisMismatchError, DivisorClass, LatticeBasis, SurfaceForm, surface_pair
from .ratmath import (IrrationalBreakpointError, Poly, _affine, _as_fraction, _dot, _integers,
                      _reduce, format_poly, format_rational, integrate_region, rational_roots)
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

    Integer views, each over one denominator: ``form``, the form matrix, over
    ``form_den`` (the form's ``matrix``); ``classes[k]``, C_k, over ``class_den``;
    ``rows[k]``, C_k's pairings with the basis generators, over form_den *
    class_den; ``int_gram[a][b]`` = C_a.C_b over form_den * class_den^2.
    Every decomposition, sweep and chart on the surface shares the one table,
    so nothing changes it.
    """

    __slots__ = ("names", "form", "form_den", "classes", "class_den", "rows", "int_gram")

    def __init__(self, curves: Sequence[NamedCurve], form: SurfaceForm):
        for name, cls in curves:
            if cls.basis != form.basis:
                raise BasisMismatchError(f"curve {name!r} is not over the form's basis")
            if not cls.rational:
                raise ValueError(f"curve {name!r} needs rational coefficients, got {cls}")
        self.names = tuple(name for name, _ in curves)
        self.form_den, self.form = form.matrix
        self.class_den, self.classes = _integers([cls.coeffs for _, cls in curves])
        self.rows = [[_dot(f, c) for f in self.form] for c in self.classes]
        self.int_gram = [[_dot(row, c) for c in self.classes] for row in self.rows]


def surface_table(curves: Sequence[NamedCurve], form: SurfaceForm) -> SurfaceTable:
    """The :class:`SurfaceTable` of ``curves`` under ``form``.

    The form keeps the table of the last curve tuple it was asked for, found
    again by identity with no hashing: a scenario passes one tuple to every
    call, and the parser hands out one per distinct section.  Any other
    sequence gets a table of its own: there is no lookup by value.
    """
    memo = vars(form).get("_curve_table")
    if memo is not None and memo[0] is curves:
        return memo[1]
    table = SurfaceTable(curves, form)
    if type(curves) is tuple:  # immutable, so its identity stands for its value
        object.__setattr__(form, "_curve_table", (curves, table))
    return table


class _Columns:
    """A class D = sum_t cols[t] m_t / den, each column a coefficient vector.

    The monomials m_t are (1, u, v) for a ray, (1,) for a rational class.
    ``meets[k][t]`` is the m_t numerator of D.C_k over den * form_den *
    class_den, and ``square[t][s]`` that of m_t m_s in D.D over den^2 *
    form_den: the column Gram c_t^T F c_s.
    """

    __slots__ = ("table", "cols", "den", "meets", "square")

    def __init__(self, table: SurfaceTable, cols: list[list[int]], den: int,
                 square: list[list[int]] | None = None):
        self.table, self.cols, self.den = table, cols, den
        self.meets = [[_dot(row, col) for col in cols] for row in table.rows]
        if square is None:
            images = [[_dot(f, col) for f in table.form] for col in cols]
            square = [[_dot(image, col) for col in cols] for image in images]
        self.square = square


def _ray(table: SurfaceTable, d0: DivisorClass, z: DivisorClass) -> _Columns:
    """``d0(u) - v z`` as columns over (1, u, v), read off the coefficients of
    d0 and z as affine in u over one denominator (:func:`ratmath._affine`)."""
    if not z.rational:
        raise ValueError(f"a ray needs z rational, got z = {z}")
    den, c0s, c1s = _affine(d0.coeffs + z.coeffs)
    n = len(d0.coeffs)
    return _Columns(table, [c0s[:n], c1s[:n], [-c for c in c0s[n:]]], den)


class IntegerSolution(Record):
    """One support solved for every column of a class at once, in integers.

    ``forms`` lists ``(curve, numerators)``, one numerator per column: each
    n_i on the support, in the order solved, then P.C_k for each curve off
    it, in curve order.  Their denominators are positive (positive_den /
    class_den for n, positive_den * form_den * class_den for P.C_k), so the
    numerators give their signs and roots.  ``positive[g]`` is generator g's
    coefficient of P over ``positive_den``, one numerator per column, and
    ``vol[t][s]`` the m_t m_s numerator of P.P over ``vol_den``.
    """

    forms: tuple[tuple[str, tuple[int, ...]], ...]
    positive: tuple[tuple[int, ...], ...]
    positive_den: int
    vol: tuple[tuple[int, ...], ...]
    vol_den: int


def _solve(d: _Columns, support: Sequence[str]) -> IntegerSolution:
    """Coefficients, pairings, positive part and volume of one support, as the
    module docstring derives, from one elimination of [G_S | D.C_S]."""
    table = d.table
    chosen = [table.names.index(name) for name in support]
    m = [[table.int_gram[a][b] for b in chosen] + d.meets[a] for a in chosen]
    size = len(chosen)
    if m:
        if not linalg.is_negative_definite([row[:size] for row in m]):
            raise IndefiniteSupportError(
                f"support {list(support)} has a Gram matrix that is not negative definite "
                "(the input class is not pseudo-effective, or the curve data is wrong)")
        linalg._eliminate(m)
    # scale the solved rows to one positive pivot: n_i = coeffs[i] * class_den / (scale * den)
    scale = math.lcm(*(m[r][r] for r in range(size)))
    coeffs = [[x * (scale // m[r][r]) for x in m[r][size:]] for r in range(size)]
    ns = [[n[t] for n in coeffs] for t in range(len(d.cols))]    # n_S per column
    pairings = zip(*(_minus(scale, w, n, [table.int_gram[a] for a in chosen])
                     for w, n in zip(zip(*d.meets), ns)))       # P.C_k per curve
    forms = [*zip(support, map(tuple, coeffs)),
             *((name, p) for k, (name, p) in enumerate(zip(table.names, pairings))
               if k not in chosen)]
    positive = tuple(zip(*(_minus(scale, col, n, [table.classes[a] for a in chosen])
                           for col, n in zip(d.cols, ns))))
    vol = tuple(tuple(_minus(scale, row, n, [d.meets[a] for a in chosen]))
                for row, n in zip(d.square, ns))
    return IntegerSolution(tuple(forms), positive, scale * d.den, vol,
                           scale * d.den ** 2 * table.form_den)


def _minus(scale: int, base: Sequence[int], coeffs: Sequence[int],
           vectors: Sequence[Sequence[int]]) -> list[int]:
    """``scale * base - sum_i coeffs[i] * vectors[i]``, entry by entry."""
    out = [scale * x for x in base]
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [x - c * y for x, y in zip(out, vec)]
    return out


def zariski_decompose(d: DivisorClass, extremal_curves: Sequence[NamedCurve],
                      form: SurfaceForm) -> ZariskiResult:
    """Unique decomposition d = P + N for a pseudo-effective rational class."""
    if not d.rational:
        raise ValueError("pointwise decomposition needs rational coefficients")
    table = surface_table(extremal_curves, form)
    square = surface_pair(d, d, form)
    den, cols = _integers([d.coeffs])
    full = den * den * table.form_den
    columns = _Columns(table, cols, den, [[square.numerator * (full // square.denominator)]])
    support: list[str] = []
    solution = _solve(columns, support)
    for _ in range(len(table.names) + 1):
        entering = []
        for name, (value,) in solution.forms[len(support):]:
            if value < 0:
                k = table.names.index(name)
                if table.int_gram[k][k] >= 0:
                    value = Fraction(value, solution.positive_den * table.form_den
                                     * table.class_den)
                    raise NotPseudoEffectiveError(
                        f"not pseudo-effective: pairing with the nef curve {name!r} "
                        f"is {format_rational(value)} < 0")
                entering.append(name)
        if not entering:
            break
        support.extend(entering)
        try:
            solution = _solve(columns, support)
        except IndefiniteSupportError:
            outside = separate(d, ConeSpec(list(extremal_curves)))
            if outside is not None:
                raise NotPseudoEffectiveError(
                    "not pseudo-effective: outside the cone of the extremal curves; "
                    + outside.detail) from None
            raise
    negative = solution.forms[:len(support)]
    if any(n < 0 for _, (n,) in negative):
        raise NotPseudoEffectiveError(
            "not pseudo-effective: a negative-part coefficient came out negative")
    ((vol,),) = solution.vol
    if vol < 0:
        raise NotPseudoEffectiveError("not pseudo-effective: positive part has self-intersection "
                                      + format_rational(Fraction(vol, solution.vol_den)))
    p_den = solution.positive_den
    positive = (DivisorClass(d.basis, [Fraction(p, p_den) for (p,) in solution.positive])
                if support else d)
    return ZariskiResult(
        positive, tuple((name, Fraction(n * table.class_den, p_den)) for name, (n,) in negative),
        tuple(support))


class SweepChamber(Record):
    """One v-interval of constant support along a sweep at fixed u.

    ``toggled`` names the curves that enter or leave the support at ``v_hi``;
    it is empty for the last chamber, which ends where vol vanishes.
    ``solution`` is the support solved for all (u, v), over the ray's
    monomials (1, u, v).  ``positive``, over ``basis`` at the sweep's ``u``
    and affine in v, is formed from ``solution`` on first read (a chart reads none).
    """

    v_lo: Fraction
    v_hi: Fraction
    support: tuple[str, ...]
    toggled: tuple[str, ...]
    solution: IntegerSolution
    u: Fraction
    basis: LatticeBasis

    @cached_property
    def positive(self) -> DivisorClass:
        (a, b), den = self.u.as_integer_ratio(), self.solution.positive_den
        return DivisorClass(self.basis, [_reduce([[p0 * b + p1 * a, p2 * b]], den * b)
                                         for p0, p1, p2 in self.solution.positive])


def _terminal_root(c0: int, c1: int, c2: int, den: int, after: tuple[int, int],
                   at_most: tuple[int, int] | None) -> Fraction | None:
    """Smallest root in (after, at_most] of vol = (c0 + c1 v + c2 v^2) / den, den > 0,
    or None; each end is a pair (p, q), q > 0, ``at_most`` None leaves the top open,
    and after < at_most.  The screens (the discriminant's sign, vol's sign at
    ``at_most``, where the vertex lies) cross-multiply integers, so the Poly is built
    and its roots extracted (which errors on irrational roots) only when a root can
    lie inside.
    """
    (p, q), (m, n) = after, at_most or (1, 0)  # n = 0: no top
    if not (c1 or c2) or c1 * c1 < 4 * c2 * c0:
        return None
    if c2 and n and c0 * n * n + c1 * m * n + c2 * m * m > 0:  # vol(at_most) > 0
        # the vertex -c1 / (2 c2), where vol <= 0, must lie inside; both tests together
        # need c2 (at_most - after) > 0, so they also refuse a concave vol (c2 < 0)
        if not (2 * c2 * p < -c1 * q and -c1 * n < 2 * c2 * m):
            return None
    return min((r for r in rational_roots(_reduce([[c0, c1, c2]], den))
                if p * r.denominator < r.numerator * q and r.numerator * n <= m * r.denominator),
               default=None)


def v_sweep(d0: DivisorClass, z: DivisorClass, u: Fraction,
            extremal_curves: Sequence[NamedCurve],
            form: SurfaceForm) -> list[SweepChamber]:
    """Chambers of the Zariski decomposition of ``d0(u) - v z`` for v >= 0."""
    u = _as_fraction(u)
    table = surface_table(extremal_curves, form)
    ray = _ray(table, d0, z)
    base = zariski_decompose(d0.evaluate(u=u), extremal_curves, form)  # validates v = 0
    # u = a / b, so a column's value at u is a dot product with (b, a) over b
    a, b = u.numerator, u.denominator
    powers = (b, a)
    support = tuple(name for name in table.names if name in base.support)
    chambers: list[SweepChamber] = []
    v0, (p0, q0) = Fraction(0), (0, 1)  # the floor v0 = p0 / q0
    # N is convex in the class, so each coefficient vanishes on one interval
    # of the ray: a curve toggles at most twice
    for step in range(2 * len(table.names) + 2):
        solution = _solve(ray, [name for name in table.names if name in support])
        # vol at u is (c0 + c1 v + c2 v^2) / vol_den; c0 and c1 are scaled by b^2 and b
        head = solution.vol[:-1]
        vol_at_0 = _dot(powers, [_dot(row, powers) for row in head])
        if step == 0 and vol_at_0 == 0:  # the start's support: vol of the start
            raise NotPseudoEffectiveError(
                f"the ray at u={format_rational(u)} starts on the pseudo-effective boundary")
        # a form f0 + f1 u + f2 v, f2 < 0, falls to 0 at v = (f0 b + f1 a) / (-f2 b): the
        # least such wall num / den >= v0 and the curves on it, by cross-multiplying
        walls = [(_dot(f, powers), -f[-1] * b, name) for name, f in solution.forms if f[-1] < 0]
        wall = None
        for num, den, _ in walls:
            if num * q0 >= p0 * den and (wall is None or num * wall[1] < wall[0] * den):
                wall = num, den
        toggled = () if wall is None else tuple(
            name for num, den, name in walls if num * wall[1] == wall[0] * den)
        if wall is None or wall[0] * q0 != p0 * wall[1]:  # else toggle at v0, no chamber
            linear = _dot(powers, [row[-1] for row in head]) + _dot(solution.vol[-1], powers)
            terminal = _terminal_root(vol_at_0, linear * b, solution.vol[-1][-1] * b ** 2,
                                      solution.vol_den * b ** 2, (p0, q0), wall)
            if terminal is None and wall is None:
                raise NotPseudoEffectiveError(
                    "sweep does not terminate: the subtracted curve class is not constraining")
            v_hi, toggled = (Fraction(*wall), toggled) if terminal is None else (terminal, ())
            chambers.append(SweepChamber(v0, v_hi, support, toggled, solution, u, d0.basis))
            if not toggled:
                return chambers
            v0, (p0, q0) = v_hi, wall
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
    """Exact chamber chart of ``d0(u) - v z`` over one u-interval.

    ``u_breaks`` is the interval's two ends, ascending: a schedule chamber,
    on which the input family does not change.  ``d0`` must be affine in u
    and ``z`` rational (:func:`_ray` checks).  The interval is cut wherever
    its chamber structure changes, at points derived exactly, and adjacent
    pieces with identical chamber stacks are merged again, so the chart is
    minimal.
    """
    if len(u_breaks) != 2 or not u_breaks[0] < u_breaks[1]:
        raise ValueError(f"a chart needs two ascending u-breakpoints, got {list(u_breaks)}")
    merged: list = []
    for u_lo, u_hi, stack in _derive_cell(d0, z, *map(_as_fraction, u_breaks),
                                          extremal_curves, form):
        if merged and merged[-1][2] == stack:
            u_lo = merged.pop()[0]
        merged.append((u_lo, u_hi, stack))
    return ZariskiChart(tuple(ChartChamber(u_lo, u_hi, *row)
                              for u_lo, u_hi, stack in merged for row in stack))


def _derive_cell(d0, z, lo, hi, curves, form) -> list:
    """Pieces ``(u_lo, u_hi, stack)`` of [lo, hi], each of one chamber structure.

    A stack lists ``(v_lo, v_hi, support, vol)`` per chamber, in
    sweep order, read off one ``v_sweep`` at the midpoint: each chamber comes
    with its support solved for all (u, v), so every wall is an integer line
    v = (c0 + c1 u) / d read off its form.  A chamber's top is the line of a
    curve toggled there, and the last chamber's top is the branch of vol
    through the sweep's end.  The structure can only change where two walls
    of a chamber meet or where a wall form that is constant in v vanishes.
    Any such u inside the cell cuts it, and the pieces are derived afresh;
    only the chambers of a piece that is not cut again become ``Poly``.  The
    volume needs no cuts of its own: d vol/dv = -2 P.z <= 0 for effective z,
    so where it vanishes on a chamber boundary, the chambers above either
    close up (their walls meet) or have zero volume on that whole slice
    u = const, which changes nothing.
    """
    mid = (lo + hi) / 2
    rows = []
    cuts: set[Fraction] = set()
    v_lo = (0, 0, 1)
    for sw in v_sweep(d0, z, mid, curves, form):
        solution = sw.solution
        lines = {}
        for name, (f0, f1, slope) in solution.forms:  # f0 + f1 u + slope v
            if slope:
                lines[name] = (-f0, -f1, slope)
            elif f1:
                cut = _inside(-f0, f1, lo, hi)
                if cut is not None:
                    cuts.add(cut)
        vol = _vol_table(solution)
        if sw.toggled:
            branches = []
            v_hi = lines[sw.toggled[0]]
        else:
            branches = _branches(vol, solution.vol_den)
            a, b, top = mid.numerator, mid.denominator, sw.v_hi
            v_hi = next(w for w in branches  # (w0 + w1 mid) / w2 == top, cross-multiplied
                        if (w[0] * b + w[1] * a) * top.denominator == top.numerator * w[2] * b)
        cuts.update(_crossings([v_lo, v_hi, *lines.values(), *branches], lo, hi))
        rows.append((v_lo, v_hi, sw, vol))
        v_lo = v_hi
    if cuts:
        points = [lo, *sorted(cuts), hi]
        return [piece for a, b in zip(points, points[1:])
                for piece in _derive_cell(d0, z, a, b, curves, form)]
    stack = [(_line(v_lo), _line(v_hi), sw.support, _reduce(vol, sw.solution.vol_den))
             for v_lo, v_hi, sw, vol in rows]
    return [(lo, hi, stack)]


def _line(w: tuple[int, int, int]) -> Poly:
    """The integer line v = (c0 + c1 u) / d as a Poly in u."""
    c0, c1, d = w
    return _reduce([[c0], [c1]], d)


def _vol_table(solution: IntegerSolution) -> list[list[int]]:
    """A chart chamber's vol as ``table[i][j]``, the u^i v^j numerator over
    ``solution.vol_den``, from its m_t m_s table over the monomials (1, u, v)."""
    table = [[0] * 3 for _ in range(3)]
    for t, row in enumerate(solution.vol):
        for s, x in enumerate(row):
            table[(t == 1) + (s == 1)][(t == 2) + (s == 2)] += x
    return table


def _inside(num: int, den: int, lo: Fraction, hi: Fraction) -> Fraction | None:
    """``num / den`` as a Fraction if it lies strictly inside (lo, hi), else
    None; the test cross-multiplies integers.  ``den`` is nonzero."""
    if den < 0:
        num, den = -num, -den
    if lo.numerator * den < num * lo.denominator and num * hi.denominator < hi.numerator * den:
        return Fraction(num, den)
    return None


def _crossings(lines: Sequence[tuple[int, int, int]], lo: Fraction, hi: Fraction) -> set:
    """Each u strictly inside (lo, hi) where two of the integer lines
    v = (c0 + c1 u) / d meet; parallel and equal lines never cross."""
    found = set()
    for (a0, a1, ad), (b0, b1, bd) in combinations(lines, 2):
        den = a1 * bd - b1 * ad
        if den:
            cut = _inside(b0 * ad - a0 * bd, den, lo, hi)
            if cut is not None:
                found.add(cut)
    return found


def _branches(vol: list[list[int]], den: int) -> list[tuple[int, int, int]]:
    """The lines v = (c0 + c1 u) / d on which a terminal chamber's
    volume vanishes, from its integer table (:func:`_vol_table`) over ``den``.

    The volume is a v^2 + b(u) v + c(u) with a constant.  If a = 0 the root
    -c / b must be affine, so b divides c.  Otherwise the discriminant
    b^2 - 4ac must be the square of an affine t + s u, found by ``math.isqrt``
    and checked exactly, and the branches are (-b - (t + s u)) / 2a, then
    (-b + (t + s u)) / 2a.
    """
    (c0, b0, a), (c1, b1, _), (c2, _, _) = vol
    if a == 0:
        if b1:    # c vanishes at the root -b0/b1 of b
            ok = b1 * b1 * c0 - b0 * b1 * c1 + b0 * b0 * c2 == 0
            roots = [(b0 * c2 - b1 * c1, -b1 * c2, b1 * b1)]
        else:
            ok = b0 != 0 and c2 == 0
            roots = [(-c0, -c1, b0)]
    else:
        d0, d1, d2 = b0 * b0 - 4 * a * c0, 2 * b0 * b1 - 4 * a * c1, b1 * b1 - 4 * a * c2
        s = math.isqrt(d2) if d2 >= 0 else 0
        t = d1 // (2 * s) if s else math.isqrt(max(d0, 0))
        ok = s * s == d2 and 2 * t * s == d1 and t * t == d0
        roots = [(-b0 - t, -b1 - s, 2 * a), (-b0 + t, -b1 + s, 2 * a)]
    if not ok:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: where {format_poly(_reduce(vol, den))} vanishes "
            "is not affine in u")
    return roots
