"""Independent numeric and brute-force oracles used by the test suite.

These deliberately do not share code with the exact implementation: float
arithmetic, polynomials evaluated by a float Horner rule over their
coefficients, a hand-rolled Gaussian solve, midpoint-rule quadrature, an
exhaustive grid search, a threshold found by support enumeration instead
of the cone's facets, cone membership decided by support enumeration before
any facet is read, Gauss-Jordan solves and null spaces that divide by each
pivot instead of eliminating fraction-free, facets found as those rational
null spaces instead of integer kernels, the trilinear form expanded
over every permutation of its entries, surface pairings summed over the
form's entries as Fractions and Polys instead of integer tables, the
pointwise Zariski fixpoint with every pairing formed that way for one class
at a time, with no table shared between classes, the pairings of a ray
d0(u) - v z formed that way on its Poly class instead of integer columns, the
lines where a terminal chamber's volume vanishes by Poly arithmetic and a
linear solve instead of an integer discriminant, the roots of a quadratic
and a sweep's terminal root by Fraction coefficients, an exact rational
square root and Poly evaluation instead of integer numerators and
``math.isqrt``, linear combinations,
restrictions and curve pairings by DivisorClass and Poly arithmetic
instead of integer tables, region and univariate integrals by Poly
substitution of the bounds and a Fraction Horner rule instead of integer
power tables, cone membership, feasible intervals and schedule checks
summed and compared as Fractions instead of integer numerators, and
polynomial substitution that raises
each image to each monomial's exponent afresh instead of reading one table
of powers, the secant conic solved as a kernel over Q[s], normalized by
sympy's gcd and exact quotient, instead of written in closed form, and its
containment rank read off the whole symbolic pullback of a conic instead of
the quadric map composed with the line, and the common eigenspaces of two
actions from sympy's ``eigenvects`` and ``nullspace`` instead of the -1 and
+1 eigenspaces of involutions.
Agreement within coarse tolerances is evidence that the exact path computes
the right thing, not just a self-consistent thing.

The chart and decomposition readers at the end (:func:`recombine`,
:func:`negative_class`, :func:`u_cells`, :func:`chart_stack`) give tests
views that no command needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations

from divstab import linalg
from divstab.cones import (ConeSpec, Decomposition, FeasibleInterval, Infeasible,
                           UnboundedThresholdError, effective_decompose,
                           pseudoeffective_threshold)
from divstab.lattice import DivisorClass, pair_with_curve, triple_product
from divstab.projgeo import (MPoly, invariant_line, line_containment_conditions,
                             pullback_under_quadric_map)
from divstab.ratmath import (InvalidRegionError, IrrationalBreakpointError, Poly, _as_fraction,
                             format_poly, format_rational)
from divstab.sinv import ScheduleError
from divstab.zariski import IndefiniteSupportError, NotPseudoEffectiveError, ZariskiResult


def midpoint_1d(f, a: float, b: float, n: int = 10_000) -> float:
    h = (b - a) / n
    return sum(f(a + (k + 0.5) * h) for k in range(n)) * h


def float_eval(p: Poly, x: float, y: float | None = None) -> float:
    """``p(x)`` along its one variable, or ``p(x, y)`` at (u, v) = (x, y), by
    Horner's rule over float coefficients."""
    def horner(coeffs, t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    if y is None:
        return horner([float(c) for c in p.coeffs], x)
    return horner([horner([float(c) for c in row], y) for row in p.rows], x)


def solve_float(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    n = len(matrix)
    m = [row[:] + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-12:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


class FloatSurface:
    """Float mirror of a surface: pairing matrix and extremal curve vectors.

    Each curve c is kept with its image G c under the Gram matrix G, so that
    a pairing with a curve is one dot product."""

    def __init__(self, surface):
        rank = surface.basis.rank
        self.gram = [[float(surface.form.value(i, j)) for j in range(rank)]
                     for i in range(rank)]
        self.curves = []
        for name, cls in surface.extremal_curves:
            c = [float(x) for x in cls.coeffs]
            self.curves.append((name, c, self.image(c)))

    def image(self, b) -> list[float]:
        """G b, the Gram matrix times b."""
        return [sum(g * x for g, x in zip(row, b)) for row in self.gram]

    def pair(self, a, b) -> float:
        return _dot(a, self.image(b))

    def zariski_volume(self, d: list[float]) -> float | None:
        """vol of the positive part, or None once outside the effective cone."""
        support: list[tuple[str, list[float], list[float]]] = []
        for _ in range(len(self.curves) + 1):
            if support:
                gram = [[_dot(a, gb) for _, _, gb in support] for _, a, _ in support]
                rhs = [_dot(d, gc) for _, _, gc in support]
                coeffs = solve_float(gram, rhs)
                if coeffs is None:
                    return None
                p = d[:]
                for x, (_, c, _) in zip(coeffs, support):
                    p = [pi - x * ci for pi, ci in zip(p, c)]
                if any(x < -1e-9 for x in coeffs):
                    return None
            else:
                p = d[:]
            names = {n for n, _, _ in support}
            entering = [curve for curve in self.curves
                        if curve[0] not in names and _dot(p, curve[2]) < -1e-11]
            if not entering:
                vol = self.pair(p, p)
                return vol if vol > 1e-12 else None
            for _, c, gc in entering:
                if _dot(c, gc) >= -1e-12:
                    return None
            support.extend(entering)
        return None


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def surface_pair_oracle(a, b, form):
    """``lattice.surface_pair`` as a sum of Fraction and Poly products over the
    form's nonzero entries: a Fraction for two rational classes, else a Poly."""
    total = Fraction(0)
    for (i, j), t in form.values.items():
        x, y = a.coeffs[i], b.coeffs[j]
        if x and y:
            total += y * (x * t) if isinstance(y, Poly) else x * (y * t)
    return total if a.rational and b.rational else Poly.of(total)


def ray_pairings_oracle(d0, z, curves, form) -> tuple[dict[str, Poly], Poly]:
    """D.C_k for every curve, and D.D, of the ray D = d0(u) - v z as Polys in
    (u, v): :func:`surface_pair_oracle` on the ray's Poly class, one pairing
    at a time."""
    v = Poly.variable("v")
    ray = DivisorClass(d0.basis, [Poly.of(a) - v * b for a, b in zip(d0.coeffs, z.coeffs)])
    return ({name: Poly.of(surface_pair_oracle(ray, cls, form)) for name, cls in curves},
            Poly.of(surface_pair_oracle(ray, ray, form)))


def volume_term_oracle(inp, z=None, grid: int = 200, v_cap: float = 4.0) -> float:
    """Riemann-sum mirror of the chart volume term, 3/degree normalized."""
    z = inp.z if z is None else z
    surface = FloatSurface(inp.surface)
    zf = [float(c) for c in z.coeffs]
    total = 0.0
    for chamber in inp.schedule.chambers:
        lo, hi = float(chamber.u_lo), float(chamber.u_hi)
        p = inp.schedule.positive_part(inp.surface.cls, inp.model.anticanonical, chamber)
        from divstab.lattice import restrict
        from divstab.ratmath import Poly
        d0 = restrict(p, inp.surface.restriction)
        rows = [Poly.of(c) for c in d0.coeffs]
        du = (hi - lo) / grid
        dv = v_cap / grid
        for i in range(grid):
            u = lo + (i + 0.5) * du
            base = [float_eval(r, u, 0.0) for r in rows]
            for j in range(grid):
                v = (j + 0.5) * dv
                d = [b - v * zc for b, zc in zip(base, zf)]
                vol = surface.zariski_volume(d)
                if vol is None or vol <= 0:
                    break
                total += vol * du * dv
    return 3.0 * total / float(inp.model.degree)


def negative_term_oracle(inp, ord_coeffs, n: int = 10_000) -> float:
    """Midpoint-rule mirror of the negative-part line integral, weighted by
    the declared ord coefficients rather than the derived ones."""
    from divstab.lattice import triple_product
    total = 0.0
    for chamber, ord_coeff in zip(inp.schedule.chambers, ord_coeffs):
        if ord_coeff.is_zero():
            continue
        p = inp.schedule.positive_part(inp.surface.cls, inp.model.anticanonical, chamber)
        p2y = triple_product(p, p, inp.surface.cls, inp.model.form)
        total += midpoint_1d(lambda u: float_eval(p2y, u) * float_eval(ord_coeff, u),
                             float(chamber.u_lo), float(chamber.u_hi), n)
    return 3.0 * total / float(inp.model.degree)


def grid_decompose(target, generators, values: list[Fraction]):
    """Exhaustive search for a nonnegative decomposition on a coefficient grid.

    Prunes on coordinates whose remaining generators all point one way; with
    grid values sorted ascending this cuts the infeasible branches early.
    """
    count = len(generators)
    rank = len(target)
    # per suffix and coordinate: do all remaining generators have sign >= 0 / <= 0
    all_nonneg = [[True] * rank for _ in range(count + 1)]
    all_nonpos = [[True] * rank for _ in range(count + 1)]
    for idx in range(count - 1, -1, -1):
        for i in range(rank):
            all_nonneg[idx][i] = all_nonneg[idx + 1][i] and generators[idx][i] >= 0
            all_nonpos[idx][i] = all_nonpos[idx + 1][i] and generators[idx][i] <= 0

    def recurse(idx, remaining, chosen):
        for i in range(rank):
            if remaining[i] < 0 and all_nonneg[idx][i]:
                return None
            if remaining[i] > 0 and all_nonpos[idx][i]:
                return None
        if idx == count:
            if all(r == 0 for r in remaining):
                return list(chosen)
            return None
        for value in values:
            nxt = [r - value * g for r, g in zip(remaining, generators[idx])]
            found = recurse(idx + 1, nxt, chosen + [value])
            if found is not None:
                return found
        return None

    return recurse(0, list(target), [])


def threshold_oracle(a, b, cone) -> Fraction:
    """Largest rational u with ``a - u b`` in the cone, without the facets.

    Candidate breakpoints come from support-subset solves with u as an extra
    unknown (a basic optimal solution uses at most rank-1 generators); the
    largest candidate that passes a full feasibility check is the threshold.
    Feasibility in u is an interval containing 0, so this maximum is exact.
    """
    start = effective_decompose(a, cone)
    if isinstance(start, Infeasible):
        raise ValueError("a - u b is not in the cone at u = 0")
    if isinstance(effective_decompose(b.scale(-1), cone), Decomposition):
        raise UnboundedThresholdError(
            "threshold is unbounded: the subtracted class is not constraining")
    ta, tb = list(a.coeffs), list(b.coeffs)
    cols = [list(g.coeffs) for g in cone.generators]
    rank = a.basis.rank
    candidates = {Fraction(0)}
    for size in range(min(rank - 1, len(cols)) + 1):
        for subset in combinations(range(len(cols)), size):
            matrix = [[cols[j][i] for j in subset] + [tb[i]] for i in range(rank)]
            solution = linalg.solve_unique(matrix, ta)
            if solution is None:
                continue
            *xs, u = solution
            if u >= 0 and all(x >= 0 for x in xs):
                candidates.add(u)
    for u in sorted(candidates, reverse=True):
        shifted = a - b.scale(u)
        if isinstance(effective_decompose(shifted, cone), Decomposition):
            return u
    raise AssertionError("unreachable: u = 0 is always feasible")


def _gauss_jordan(m: list[list], b: list | None = None) -> list[int]:
    """Reduce ``m`` in place to reduced row echelon form, dividing by each
    pivot; return the pivot columns.  The same row operations go to ``b``."""
    nrows = len(m)
    pivots: list[int] = []
    for col in range(len(m[0]) if nrows else 0):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [inv * x for x in m[row]]
        if b is not None:
            b[row], b[pivot] = b[pivot], b[row]
            b[row] = b[row] * inv
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
                if b is not None:
                    b[r] = b[r] - b[row] * factor
        pivots.append(col)
    return pivots


def solve_unique_oracle(matrix, rhs) -> list | None:
    """The unique solution of M x = rhs by Gauss-Jordan with division, or None."""
    m = [list(row) for row in matrix]
    b = list(rhs)
    ncols = len(m[0]) if m else 0
    if len(_gauss_jordan(m, b)) < ncols:
        return None
    if any(x != 0 for x in b[ncols:]):
        return None
    return b[:ncols]


def null_space_oracle(matrix) -> list[list[Fraction]]:
    """The reduced-row-echelon null-space basis, one vector per free column."""
    m = [list(map(Fraction, row)) for row in matrix]
    ncols = len(m[0]) if m else 0
    pivots = _gauss_jordan(m)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def _primitive(y) -> tuple[int, ...]:
    scale = math.lcm(*(Fraction(c).denominator for c in y))
    ints = [int(c * scale) for c in y]
    g = math.gcd(*ints) or 1
    return tuple(i // g for i in ints)


@cache
def h_representation_oracle(rank: int, vectors: tuple[tuple, ...]) -> tuple[tuple, tuple]:
    """The equalities and facets of a cone, each facet a rational null space.

    Each (d - 1)-subset of generators stacked with the equalities whose null
    space is one-dimensional gives a candidate, kept when it has one sign on
    every generator; the same order and the same primitive integer vectors
    as ``cones.ConeSpec`` promises.
    """
    vectors = [[Fraction(c) for c in g] for g in vectors]
    equalities = tuple(map(_primitive, null_space_oracle(vectors)))
    dim = rank - len(equalities)
    if dim == 0:
        return equalities, ()
    found = []
    for subset in combinations(vectors, dim - 1):
        null = null_space_oracle([*subset, *equalities] or [[0] * rank])
        if len(null) != 1:
            continue
        y = null[0]
        values = [sum(a * b for a, b in zip(y, g)) for g in vectors]
        if all(x <= 0 for x in values):
            y = [-c for c in y]
        elif not all(x >= 0 for x in values):
            continue
        f = _primitive(y)
        if f not in found:
            found.append(f)
    return equalities, tuple(found)


def named_functional(f, names) -> str:
    """A functional as a witness detail prints it: ``(H: 1, EC: 0, EL: 1)``."""
    return "(" + ", ".join(f"{name}: {c}" for name, c in zip(names, f)) + ")"


def effective_decompose_oracle(d, cone):
    """Membership decided by support enumeration, before any facet is read.

    Supports of size up to the rank are solved exactly, largest first; the
    first nonnegative solution wins.  Only when none exists is a witness
    taken, from :func:`h_representation_oracle`: the first equality or
    facet the class violates, with the same detail text as
    ``cones.effective_decompose``.
    """
    target = list(d.coeffs)
    cols = [list(g.coeffs) for g in cone.generators]
    rank = d.basis.rank
    for size in range(min(rank, len(cols)), -1, -1):
        for subset in combinations(range(len(cols)), size):
            if not subset:
                if all(t == 0 for t in target):
                    return Decomposition(cone, tuple(Fraction(0) for _ in cols))
                continue
            matrix = [[cols[j][i] for j in subset] for i in range(rank)]
            solution = linalg.solve_unique(matrix, target)
            if solution is None or any(x < 0 for x in solution):
                continue
            full = [Fraction(0)] * len(cols)
            for x, j in zip(solution, subset):
                full[j] = x
            return Decomposition(cone, tuple(full))
    equalities, facets = h_representation_oracle(rank, tuple(map(tuple, cols)))
    for e in equalities:
        value = sum(a * b for a, b in zip(e, target))
        if value != 0:
            if value > 0:
                e, value = tuple(-c for c in e), -value
            return Infeasible(e, f"functional {named_functional(e, d.basis.names)} vanishes "
                                 f"on every generator but takes {format_rational(value)} "
                                 "on the class")
    for f in facets:
        value = sum(a * b for a, b in zip(f, target))
        if value < 0:
            return Infeasible(f, f"functional {named_functional(f, d.basis.names)} is "
                                 f"nonnegative on every generator but takes "
                                 f"{format_rational(value)} on the class")
    raise AssertionError("no decomposition and no violated facet")


def separate_oracle(target, cone) -> Infeasible | None:
    """``cones._separate`` summing Fractions: the first equality or facet the
    target violates, as a witness with the same detail text, or None."""
    for e in cone.equalities:
        value = sum(a * b for a, b in zip(e, target))
        if value != 0:
            if value > 0:
                e, value = tuple(-c for c in e), -value
            return Infeasible(e, f"functional {named_functional(e, cone.basis.names)} vanishes "
                                 f"on every generator but takes {format_rational(value)} "
                                 "on the class")
    for f in cone.facets:
        value = sum(a * b for a, b in zip(f, target))
        if value < 0:
            return Infeasible(f, f"functional {named_functional(f, cone.basis.names)} is "
                                 f"nonnegative on every generator but takes "
                                 f"{format_rational(value)} on the class")
    return None


def feasible_interval_oracle(a, b, cone) -> FeasibleInterval:
    """``cones.feasible_interval`` on Fractions: each root -f.a / f.b formed
    and compared as a Fraction, the first functional kept at a tie."""
    ta, tb = a.coeffs, b.coeffs
    lo = hi = lo_cut = hi_cut = None
    constraints = ([(e, True) for e in cone.equalities]
                   + [(f, False) for f in cone.facets])
    for f, equality in constraints:
        fa, fb = sum(x * y for x, y in zip(f, ta)), sum(x * y for x, y in zip(f, tb))
        if fb == 0:
            if fa < 0 or (equality and fa != 0):
                return FeasibleInterval(never=f)
            continue
        root = -fa / fb
        if (equality or fb > 0) and (lo is None or root > lo):
            lo, lo_cut = root, f
        if (equality or fb < 0) and (hi is None or root < hi):
            hi, hi_cut = root, f
    return FeasibleInterval(lo, hi, lo_cut, hi_cut)


def validate_schedule_oracle(model, y, sched) -> tuple[tuple[DivisorClass, Poly], ...]:
    """``sinv.validate_schedule`` on Fractions: every end value, pairing and
    Bernstein coefficient evaluated by ``Poly.__call__`` and compared as a
    Fraction, on P(u) formed by DivisorClass arithmetic.  The same checks in
    the same order, with the same messages; returns each chamber's
    (P(u), P(u)^3)."""
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
        p = combination_oracle(mk.basis, [(1, mk), (-Poly.variable("u"), y),
                                          *((-coeff, cls) for _, cls, coeff in ch.negative)])
        cube = Poly.of(triple_product(p, p, p, model.form))
        pairings = [(curve.name, Poly.of(pair_with_curve(p, curve)))
                    for curve in model.mori_curves]
        for u0 in (lo, hi):
            for _, _, coeff in ch.negative:
                if Poly.of(coeff)(u0) < 0:
                    raise ScheduleError(
                        f"negative-part coefficient below zero at u = {format_rational(u0)}")
            for name, pairing in pairings:
                if pairing(u0) < 0:
                    raise ScheduleError(
                        f"P(u) pairs negatively with {name} at u = {format_rational(u0)}")
        slope = Poly([[k * c] for k, c in enumerate(cube.coeffs)][1:])   # d/du of the cube
        third = (hi - lo) / 3
        bernstein = (cube(lo), cube(lo) + third * slope(lo),
                     cube(hi) - third * slope(hi), cube(hi))
        if min(bernstein) < 0:
            raise ScheduleError(
                f"P(u)^3 has the Bernstein coefficients "
                f"{', '.join(map(format_rational, bernstein))} on "
                f"[{format_rational(lo)}, {format_rational(hi)}]: one is negative")
        if chambers and chambers[-1][0].evaluate(u=lo) != p.evaluate(u=lo):
            raise ScheduleError(f"P(u) jumps at u = {format_rational(lo)}: the negative "
                                f"parts of the two chambers differ there")
        chambers.append((p, cube))
    if cube(tau) != 0:
        raise ScheduleError(
            f"P(u)^3 does not vanish at the terminal u = {format_rational(tau)}")
    return tuple(chambers)


def triple_product_oracle(d1, d2, d3, form):
    """The trilinear form expanded term by term: one product per permutation."""
    total = Fraction(0)
    for (i, j, k), t in form.values.items():
        for a, b, c in {(i, j, k), (i, k, j), (j, i, k),
                        (j, k, i), (k, i, j), (k, j, i)}:
            x, y, z = d1.coeffs[a], d2.coeffs[b], d3.coeffs[c]
            if x and y and z:
                total += t * x * y * z
    rational = all(isinstance(c, Fraction) for d in (d1, d2, d3) for c in d.coeffs)
    return total if rational else Poly.of(total)


def combination_oracle(basis, terms):
    """sum c_k D_k by DivisorClass arithmetic, one scaled class at a time."""
    out = basis.zero()
    for c, cls in terms:
        out = out + cls.scale(c)
    return out


def restrict_oracle(d, rmap):
    """The image of d on the surface, summed generator by generator."""
    return combination_oracle(rmap.target, zip(d.coeffs, rmap.images))


def pair_with_curve_oracle(d, curve):
    """The curve's table paired with d, one coefficient at a time."""
    total = Fraction(0)
    for coeff, value in zip(d.coeffs, curve.table):
        if coeff and value:
            total += value * coeff
    return total if d.rational else Poly.of(total)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def rational_roots_oracle(p: Poly) -> list[Fraction]:
    """The rational roots of p (degree 1 or 2 along its one variable), in
    increasing order, from its Fraction coefficients and a rational square
    root of the discriminant; irrational roots raise as the package does."""
    coeffs = p.coeffs
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    c0, c1, c2 = coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    sq = rational_sqrt(disc)
    if sq is None:
        raise IrrationalBreakpointError(
            f"irrational breakpoint: roots of {format_poly(p)} are not rational")
    return sorted({(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)})


def terminal_root_oracle(vol: Poly, after: Fraction, at_most: Fraction | None):
    """Smallest root of vol in (after, at_most], or None.

    Screens with exact sign evaluations of the Poly first, so root
    extraction (which errors on irrational roots) only runs when a root
    really is inside.
    """
    coeffs = vol.coeffs
    if len(coeffs) <= 1:
        return None
    if len(coeffs) == 3:
        c0, c1, lead = coeffs
        if c1 ** 2 - 4 * lead * c0 < 0:
            return None
        if at_most is not None and vol(at_most) > 0:
            if lead < 0:
                return None  # concave, positive at both ends
            vertex = -c1 / (2 * lead)
            if not after < vertex < at_most:  # vol(vertex) = -disc / (4 lead) <= 0
                return None
    return min((r for r in rational_roots_oracle(vol)
                if r > after and (at_most is None or r <= at_most)), default=None)


def branches_oracle(vol: Poly) -> list[Poly]:
    """The lines ``v = w(u)`` on which a terminal chamber's volume vanishes.

    The v^2 coefficient a is constant.  If it is zero the root must divide
    out as an affine polynomial, found by a linear solve; otherwise the
    v-discriminant must be the square of one, and the roots are
    (-b - root) / 2a, then (-b + root) / 2a.
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


def _horner(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _antiderivative_v(p: Poly) -> Poly:
    """The antiderivative in v with zero constant term, by Poly arithmetic."""
    return Poly([[0] + [c / (j + 1) for j, c in enumerate(row)] for row in p.rows])


def subs_v_poly(p: Poly, q: Poly) -> Poly:
    """``p(u, q)``: v substituted by a polynomial, by Horner's rule over the
    columns of p in Poly arithmetic."""
    out = Poly()
    for j in range(max(map(len, p.rows), default=0) - 1, -1, -1):
        out = out * q + Poly([[row[j]] if j < len(row) else [] for row in p.rows])
    return out


def integrate_univariate_oracle(p: Poly, a, b) -> Fraction:
    """``ratmath.integrate_univariate`` on Fraction coefficients: the
    antiderivative evaluated at both ends by a Fraction Horner rule."""
    anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)]
    return _horner(anti, _as_fraction(b)) - _horner(anti, _as_fraction(a))


def integrate_region_oracle(f, u_lo, u_hi, v_lo, v_hi) -> Fraction:
    """``ratmath.integrate_region`` through Poly arithmetic: the inner
    antiderivative in v has each bound substituted by :func:`subs_v_poly`, and
    the difference, a Poly in u, is integrated by the univariate oracle.
    The same checks in the same order, with the same messages."""
    u_lo, u_hi = _as_fraction(u_lo), _as_fraction(u_hi)
    lo, hi = Poly.of(v_lo), Poly.of(v_hi)
    for bound in (lo, hi):
        if len(bound.rows) > 2 or any(len(row) > 1 for row in bound.rows):
            raise ValueError(f"{bound} is not affine in u")
    for u0 in (u_lo, u_hi):
        if lo(u0) > hi(u0):
            raise InvalidRegionError(
                f"v bounds out of order at u={format_rational(u0)}: "
                f"{format_rational(lo(u0))} > {format_rational(hi(u0))}")
    anti = _antiderivative_v(Poly.of(f))
    inner = subs_v_poly(anti, hi) - subs_v_poly(anti, lo)
    return integrate_univariate_oracle(inner, u_lo, u_hi)


def zariski_decompose_oracle(d, curves, form) -> ZariskiResult:
    """``zariski.zariski_decompose`` with each pairing formed by
    :func:`surface_pair_oracle`.

    The same fixpoint, the same errors and the same order of the support:
    D.C_k and D.D per class, C_i.C_j on demand per class, nothing kept
    between calls.
    """
    if not d.rational:
        raise ValueError("pointwise decomposition needs rational coefficients")
    classes = dict(curves)
    with_d = {name: surface_pair_oracle(d, cls, form) for name, cls in curves}
    between = {}

    def meet(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in between:
            between[key] = surface_pair_oracle(classes[a], classes[b], form)
        return between[key]

    def solve(support):
        coeffs = []
        if support:
            gram = [[meet(a, b) for b in support] for a in support]
            if not linalg.is_negative_definite(gram):
                raise IndefiniteSupportError(f"support {list(support)}")
            coeffs = linalg.solve_unique(gram, [with_d[a] for a in support])
        p, vol = d, surface_pair_oracle(d, d, form)
        for name, n in zip(support, coeffs):
            p = p - classes[name].scale(n)
            vol = vol - n * with_d[name]
        pairings = {name: with_d[name] - sum((n * meet(a, name)
                                              for a, n in zip(support, coeffs)), Fraction(0))
                    for name, _ in curves if name not in support}
        return coeffs, p, pairings, vol

    support: list[str] = []
    coeffs, p, pairings, vol = solve(support)
    for _ in range(len(curves) + 1):
        entering = []
        for name, value in pairings.items():
            if value < 0:
                if meet(name, name) >= 0:
                    raise NotPseudoEffectiveError(f"nef curve {name!r}")
                entering.append(name)
        if not entering:
            break
        support.extend(entering)
        try:
            coeffs, p, pairings, vol = solve(support)
        except IndefiniteSupportError:
            if isinstance(effective_decompose(d, ConeSpec(list(curves))), Infeasible):
                raise NotPseudoEffectiveError("outside the curve cone") from None
            raise
    if any(n < 0 for n in coeffs) or vol < 0:
        raise NotPseudoEffectiveError("negative coefficient or volume")
    return ZariskiResult(positive=p, negative=tuple(zip(support, coeffs)),
                         support=tuple(support))


def subs_per_monomial(p: MPoly, mapping: dict) -> MPoly:
    """``p.subs(mapping)`` one monomial at a time: each image is raised to
    the monomial's exponent by repeated multiplication, with no table of
    powers kept between monomials."""
    out = MPoly.constant(0)
    for mono, c in p.terms.items():
        term = MPoly._of({tuple(pair for pair in mono if pair[0] not in mapping): c})
        for v, e in mono:
            if v in mapping:
                term = term * mapping[v] ** e
        out = out + term
    return out


def unipoly(p: MPoly, var: str) -> Poly:
    """A polynomial in the single variable ``var``, as a one-row :class:`Poly`."""
    coeffs: dict[int, Fraction] = {}
    for mono, c in p.terms.items():
        if any(v != var for v, _ in mono):
            raise ValueError(f"{p} is not univariate in {var}")
        coeffs[mono[0][1] if mono else 0] = c
    return Poly([[coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=0) + 1)]])


def mpoly(p: Poly, var: str) -> MPoly:
    """The inverse of :func:`unipoly`."""
    return MPoly._of({((var, k),) if k else (): c for k, c in enumerate(p.coeffs)})


def fixed_points_oracle(m1, m2) -> list[tuple[tuple[Fraction, Fraction], object]]:
    """The common eigenspaces of two rational 4x4 matrices by sympy: the
    eigenvalues of each from ``eigenvects``, and for each pair (l1, l2) in
    ascending order the nullspace of (m1 - l1) stacked on (m2 - l2), kept when
    nonzero as ``((l1, l2), rref)`` with rref the reduced row echelon form of
    its basis."""
    import sympy

    def matrix(m):
        return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                             for row in m])

    a, b = matrix(m1), matrix(m2)
    out = []
    for l1 in sorted(lam for lam, _, _ in a.eigenvects()):
        for l2 in sorted(lam for lam, _, _ in b.eigenvects()):
            space = (a - l1 * sympy.eye(4)).col_join(b - l2 * sympy.eye(4)).nullspace()
            if space:
                rref = sympy.Matrix.hstack(*space).T.rref()[0]
                out.append(((Fraction(int(l1.p), int(l1.q)), Fraction(int(l2.p), int(l2.q))),
                            rref))
    return out


def to_sympy(p: Poly, x):
    """p along its one variable as a sympy expression in the symbol x."""
    import sympy
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def symbolic_conic_pullback() -> MPoly:
    """The pullback of the conic with symbolic coefficients a1..a6: quartics
    in x0..x3 times a1..a6."""
    return pullback_under_quadric_map([MPoly.variable(f"a{k}") for k in range(1, 7)])


def linear_coefficients(p: MPoly, names) -> list[MPoly]:
    """The coefficient of each of ``names`` in p, which must be homogeneous
    linear in them: any monomial of another degree in ``names`` raises
    :class:`ValueError`."""
    rows = {v: {} for v in names}
    for mono, c in p.terms.items():
        picked = [pair for pair in mono if pair[0] in rows]
        if len(picked) != 1 or picked[0][1] != 1:
            raise ValueError(f"{p} is not homogeneous linear in {names[0]}..{names[-1]}")
        rows[picked[0][0]][tuple(pair for pair in mono if pair != picked[0])] = c
    return [MPoly._of(rows[v]) for v in names]


def containment_rank_oracle(value: int) -> int:
    """``projgeo._containment_rank`` through the whole symbolic pullback: the
    line's point substituted into the quartics in x times a1..a6, and the
    rank of the conditions' coefficients in a1..a6."""
    point = [p.subs({"c": value}) for p in invariant_line("c")]
    conditions = line_containment_conditions(symbolic_conic_pullback(), point)
    names = [f"a{k}" for k in range(1, 7)]
    return linalg.rank([[p.terms.get((), 0) for p in linear_coefficients(cond, names)]
                        for cond in conditions])


def poly_kernel_oracle(rows: list[list[Poly]], ncols: int) -> list[list[Poly]]:
    """A normalized basis of the kernel of a matrix with univariate polynomial
    entries, the solve that ``projgeo.secant_conic`` replaces by a closed form.

    Each :func:`linalg.kernel` vector is divided by the gcd of its entries
    (sympy's gcd and exact quotient, back in the vector's variable u or v),
    scaled to integer content 1, and signed so that its first nonzero entry
    has a positive leading coefficient.
    """
    import sympy
    x = sympy.Symbol("x")
    basis = []
    for vec in linalg.kernel(rows, ncols):
        vec = [Poly.of(p) for p in vec]
        var = Poly.variable("u" if any(len(p.rows) > 1 for p in vec) else "v")
        exprs = [to_sympy(p, x) for p in vec]
        g = reduce(sympy.gcd, exprs)
        vec = []
        for e in exprs:
            quotient = sympy.Poly(sympy.exquo(e, g, x, domain="QQ"), x).all_coeffs()
            vec.append(sum((Fraction(int(c.p), int(c.q)) * var ** k
                            for k, c in enumerate(reversed(quotient))), Poly()))
        coeffs = [c for p in vec for c in p.coeffs]
        scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                         math.gcd(*(c.numerator for c in coeffs)))
        if next(p for p in vec if p).coeffs[-1] < 0:
            scale = -scale
        basis.append([p * scale for p in vec])
    return basis


def recombine(decomposition: Decomposition):
    """sum x_i g_i of a cone decomposition, over the cone's generators."""
    cone = decomposition.cone
    out = cone.basis.zero()
    for c, g in zip(decomposition.coefficients, cone.generators):
        out = out + g.scale(c)
    return out


def negative_class(result: ZariskiResult, curves: dict):
    """N = sum n_i C_i of a decomposition, over ``curves`` by name."""
    out = result.positive.basis.zero()
    for name, coeff in result.negative:
        out = out + curves[name].scale(coeff)
    return out


def u_cells(chart) -> list[tuple[Fraction, Fraction]]:
    """The u-intervals of a chart's chambers, in order."""
    return sorted({(ch.u_lo, ch.u_hi) for ch in chart.chambers})


def chart_stack(chart, u_lo, u_hi) -> list:
    """The chambers over one u-interval, from the lowest v up."""
    column = [ch for ch in chart.chambers if (ch.u_lo, ch.u_hi) == (u_lo, u_hi)]
    return sorted(column, key=lambda ch: ch.v_lo((u_lo + u_hi) / 2))
