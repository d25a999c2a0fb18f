"""Independent numeric and brute-force oracles used by the test suite.

These deliberately do not share code with the exact implementation: float
arithmetic, polynomials evaluated by a float Horner rule over their
coefficients, a hand-rolled Gaussian solve, midpoint-rule quadrature, an
exhaustive grid search, a threshold found by support enumeration instead
of the cone's facets, cone membership decided by support enumeration before
any facet is read, Gauss-Jordan solves and null spaces that divide by each
pivot instead of eliminating fraction-free, facets found as those rational
null spaces instead of integer kernels, the trilinear form expanded
over every permutation of its entries, the pointwise Zariski fixpoint
with every pairing formed by ``surface_pair`` for one class at a time, with
no table shared between classes, and polynomial substitution that raises
each image to each monomial's exponent afresh instead of reading one table
of powers.  Agreement within coarse tolerances is
evidence that the exact path computes the right thing, not just a
self-consistent thing.

The chart and decomposition readers at the end (:func:`recombine`,
:func:`negative_class`, :func:`u_cells`, :func:`chart_stack`) give tests
views that no command needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations

from divstab import linalg
from divstab.cones import (ConeSpec, Decomposition, Infeasible, UnboundedThresholdError,
                           effective_decompose)
from divstab.lattice import surface_pair
from divstab.projgeo import MPoly
from divstab.ratmath import Poly, format_rational
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
    """Float mirror of a surface: pairing matrix and extremal curve vectors."""

    def __init__(self, surface):
        rank = surface.basis.rank
        self.gram = [[float(surface.form.value(i, j)) for j in range(rank)]
                     for i in range(rank)]
        self.curves = [(name, [float(c) for c in cls.coeffs])
                       for name, cls in surface.extremal_curves]

    def pair(self, a, b) -> float:
        return sum(a[i] * self.gram[i][j] * b[j]
                   for i in range(len(a)) for j in range(len(b)))

    def zariski_volume(self, d: list[float]) -> float | None:
        """vol of the positive part, or None once outside the effective cone."""
        support: list[tuple[str, list[float]]] = []
        for _ in range(len(self.curves) + 1):
            if support:
                gram = [[self.pair(a, b) for _, b in support] for _, a in support]
                rhs = [self.pair(d, c) for _, c in support]
                coeffs = solve_float(gram, rhs)
                if coeffs is None:
                    return None
                p = d[:]
                for x, (_, c) in zip(coeffs, support):
                    p = [pi - x * ci for pi, ci in zip(p, c)]
                if any(x < -1e-9 for x in coeffs):
                    return None
            else:
                p = d[:]
            entering = [(name, c) for name, c in self.curves
                        if name not in {n for n, _ in support}
                        and self.pair(p, c) < -1e-11]
            if not entering:
                vol = self.pair(p, p)
                return vol if vol > 1e-12 else None
            for name, c in entering:
                if self.pair(c, c) >= -1e-12:
                    return None
            support.extend(entering)
        return None


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


def negative_term_oracle(inp, n: int = 10_000) -> float:
    """Midpoint-rule mirror of the negative-part line integral."""
    from divstab.lattice import triple_product
    total = 0.0
    for chamber, ord_coeff in zip(inp.schedule.chambers, inp.ord_coeffs):
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
            return Infeasible(e, f"functional ({', '.join(map(str, e))}) vanishes on every "
                                 f"generator but takes {format_rational(value)} on the class")
    for f in facets:
        value = sum(a * b for a, b in zip(f, target))
        if value < 0:
            return Infeasible(f, f"functional ({', '.join(map(str, f))}) is nonnegative on "
                                 f"every generator but takes {format_rational(value)} "
                                 "on the class")
    raise AssertionError("no decomposition and no violated facet")


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


def zariski_decompose_oracle(d, curves, form) -> ZariskiResult:
    """``zariski.zariski_decompose`` with each pairing formed by ``surface_pair``.

    The same fixpoint, the same errors and the same order of the support:
    D.C_k and D.D per class, C_i.C_j on demand per class, nothing kept
    between calls.
    """
    if not d.rational:
        raise ValueError("pointwise decomposition needs rational coefficients")
    classes = dict(curves)
    with_d = {name: surface_pair(d, cls, form) for name, cls in curves}
    between = {}

    def meet(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in between:
            between[key] = surface_pair(classes[a], classes[b], form)
        return between[key]

    def solve(support):
        coeffs = []
        if support:
            gram = [[meet(a, b) for b in support] for a in support]
            if not linalg.is_negative_definite(gram):
                raise IndefiniteSupportError(f"support {list(support)}")
            coeffs = linalg.solve_unique(gram, [with_d[a] for a in support])
        p, vol = d, surface_pair(d, d, form)
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
