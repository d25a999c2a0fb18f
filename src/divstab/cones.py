"""Exact cone queries: nonnegative decomposition, feasible intervals, thresholds.

The effective cone is handed in as an explicit generator list; the scenario
is responsible for supplying a generating set.  Ranks never exceed 5; the
threefold cones have 4 to 6 generators and the extremal curves of the dP5
surface give a 10-generator cone.  Everything is exact: integer kernels and
small rational solves, no pivoting tolerances, no LP library.

A cone's H-representation (Minkowski--Weyl) is the equalities of its span
and its facet functionals, as primitive integer vectors.  The equalities are
the kernel of the generators; each facet is the one kernel vector of
d - 1 generators stacked with the equalities, taken in integers.  Each
:class:`ConeSpec` forms it once, when it is built, and keeps it.  One loop
reads it: the members of an affine family ``a + u b`` form an interval with
rational ends (:func:`feasible_interval`), and the pseudo-effective
threshold is its upper end.  Membership is the family with b = 0: by the
Farkas lemma a class is outside the cone iff it violates an equality or a
facet, and :func:`separate` returns the first one as the witness of an
:class:`Infeasible`, found with no solve.  The loop dots the functionals
with a class's integer numerators over one denominator, and a Fraction is
formed only for a value that is returned or printed.  Support enumeration
only produces the coefficients of a class already known to be a member.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .lattice import BasisMismatchError, DivisorClass
from .ratmath import _dot, _integers, format_rational
from .record import Record

Functional = tuple[int, ...]


class UnboundedThresholdError(ArithmeticError):
    """The subtracted class does not constrain: the threshold is +infinity."""


def _primitive(y: Sequence[Fraction]) -> Functional:
    """The primitive integer vector on the ray of a rational vector (0 for 0)."""
    _, (ints,) = _integers([y])
    g = math.gcd(*ints) or 1
    return tuple(i // g for i in ints)


def format_functional(f: Functional, names: Sequence[str]) -> str:
    """``(H: 1, EC: 0, EL: 1)``: each coordinate under its basis name."""
    return f"({', '.join(f'{n}: {c}' for n, c in zip(names, f))})"


class ConeSpec(Record):
    """Named generators of a cone over one basis, and the cone's equalities and facets."""

    names: tuple[str, ...]
    generators: tuple[DivisorClass, ...]

    def __init__(self, entries: Sequence[tuple[str, DivisorClass]]):
        if not entries:
            raise ValueError("a cone needs at least one generator")
        basis = entries[0][1].basis
        for _, g in entries:
            if g.basis != basis:
                raise BasisMismatchError("cone generators span several bases")
        object.__setattr__(self, "names", tuple(n for n, _ in entries))
        object.__setattr__(self, "generators", tuple(g for _, g in entries))
        equalities, facets = _h_representation(basis.rank,
                                               tuple(map(_vector_of, self.generators)))
        object.__setattr__(self, "equalities", equalities)
        object.__setattr__(self, "facets", facets)

    @property
    def basis(self):
        return self.generators[0].basis


def _h_representation(rank: int, vectors: tuple[tuple[Fraction, ...], ...]
                      ) -> tuple[tuple[Functional, ...], tuple[Functional, ...]]:
    """The equalities and facets of the cone spanned by ``vectors`` in Q^rank.

    A facet of a d-dimensional cone is spanned by d - 1 independent
    generators, so each (d - 1)-subset that, stacked with the equalities,
    has rank ``rank - 1`` gives a candidate: the one
    :func:`linalg.kernel` vector of those rows (a subset of smaller rank
    has more than one and is skipped).  It is a facet when it has one sign
    on every generator.  Generators are scaled to primitive integer vectors
    first, a positive multiple each, so the kernel and the sign test are
    exact integer arithmetic.
    """
    # a kernel vector's last nonzero entry carries the sign of the pivots'
    # product: orient each equality so that entry is positive
    equalities = tuple(_primitive(vec if next(x for x in reversed(vec) if x) > 0
                                  else [-x for x in vec])
                       for vec in linalg.kernel(vectors, rank))
    dim = rank - len(equalities)
    if dim == 0:
        return equalities, ()
    generators = [_primitive(g) for g in vectors]
    found: list[Functional] = []
    for subset in combinations(generators, dim - 1):
        normals = linalg.kernel([*subset, *equalities], rank)
        if len(normals) != 1:
            continue  # the rows are dependent: no facet
        normal = normals[0]
        values = [_dot(normal, g) for g in generators]
        if all(x <= 0 for x in values):
            normal = [-c for c in normal]
        elif not all(x >= 0 for x in values):
            continue
        f = _primitive(normal)
        if f not in found:
            found.append(f)
    return equalities, tuple(found)


class Decomposition(Record):
    """Nonnegative coefficients per cone generator, reconstructing the input."""

    cone: ConeSpec
    coefficients: tuple[Fraction, ...]

    def __str__(self):
        return "\n".join(f"{name}: {format_rational(c)}"
                         for name, c in zip(self.cone.names, self.coefficients))


class Infeasible(Record):
    """No nonnegative decomposition exists; carries a separating witness.

    ``witness`` is a primitive integer functional y with y(g) >= 0 on every
    generator and y(D) < 0: a facet of the cone, or an equality of its span.
    """

    witness: Functional
    detail: str


def _vector_of(d: DivisorClass) -> tuple[Fraction, ...]:
    if not d.rational:
        raise ValueError("decomposition needs rational coefficients")
    return d.coeffs


def _support_subsets(count: int, max_size: int):
    # largest supports first, so the fully supported canonical solutions
    # (all strict-inequality faces) are found before sparse alternatives
    for size in range(max_size, -1, -1):
        yield from combinations(range(count), size)


def separate(d: DivisorClass, cone: ConeSpec) -> Infeasible | None:
    """The first equality nonzero on ``d``, else the first facet negative on it
    (:func:`feasible_interval`'s ``never`` for the family ``d + u 0``), as the
    witness of an :class:`Infeasible`, an equality oriented negative on ``d``;
    None when ``d`` is in the cone."""
    f = feasible_interval(d, d.basis.zero(), cone).never
    if f is None:
        return None
    den, (ints,) = _integers([d.coeffs])
    value = Fraction(_dot(f, ints), den)
    if f in cone.facets:
        holds = "is nonnegative on every generator"
    else:
        holds = "vanishes on every generator"
        if value > 0:
            f, value = tuple(-c for c in f), -value
    return Infeasible(f, f"functional {format_functional(f, cone.basis.names)} {holds} "
                         f"but takes {format_rational(value)} on the class")


def effective_decompose(d: DivisorClass, cone: ConeSpec) -> Decomposition | Infeasible:
    """Exact nonnegative solution of ``sum x_i g_i = d``, or Infeasible.

    :func:`separate` decides membership: a violated equality or facet is the
    witness of an :class:`Infeasible`, and no system is solved.
    For a member, supports of size up to the basis rank are enumerated and
    each square (or overdetermined) subsystem is solved exactly; the first
    consistent nonnegative solution gives the coefficients.  One exists by
    Caratheodory: a member is a nonnegative combination of independent
    generators.
    """
    if d.basis != cone.basis:
        raise BasisMismatchError("class and cone are over different bases")
    outside = separate(d, cone)
    if outside is not None:
        return outside
    target = _vector_of(d)
    cols = [_vector_of(g) for g in cone.generators]
    rank = d.basis.rank
    for subset in _support_subsets(len(cols), min(rank, len(cols))):
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
    raise AssertionError("facets and generators disagree")


class FeasibleInterval:
    """The u with ``a + u b`` in a cone: a closed interval with rational ends.

    An end is None where the interval is unbounded; ``lo_cut`` and ``hi_cut``
    are the functionals attaining the ends.  ``never`` is a functional that
    excludes every u on its own (a facet negative, or an equality nonzero,
    on the whole family); the interval is then empty.
    """

    __slots__ = ("lo", "hi", "lo_cut", "hi_cut", "never")

    def __init__(self, lo: Fraction | None = None, hi: Fraction | None = None,
                 lo_cut: Functional | None = None, hi_cut: Functional | None = None,
                 never: Functional | None = None):
        self.lo, self.hi, self.lo_cut, self.hi_cut, self.never = lo, hi, lo_cut, hi_cut, never

    @property
    def empty(self) -> bool:
        return (self.never is not None
                or (self.lo is not None and self.hi is not None and self.lo > self.hi))

    def __contains__(self, u: Fraction) -> bool:
        return (not self.empty and (self.lo is None or self.lo <= u)
                and (self.hi is None or u <= self.hi))

    def __str__(self):
        lo, hi = self.lo, self.hi
        if self.empty:
            return "no u"
        if lo is None:
            return "all u" if hi is None else f"u <= {format_rational(hi)}"
        if hi is None:
            return f"u >= {format_rational(lo)}"
        if lo == hi:
            return f"u = {format_rational(lo)}"
        return f"{format_rational(lo)} <= u <= {format_rational(hi)}"


def feasible_interval(a: DivisorClass, b: DivisorClass, cone: ConeSpec) -> FeasibleInterval:
    """The u with ``a + u b`` in the cone, read off the equalities and facets.

    A facet f asks f.a + u f.b >= 0, a half-line (or every or no u when
    f.b = 0); an equality asks f.a + u f.b = 0, a point.  The interval is
    their intersection.
    """
    if a.basis != cone.basis or b.basis != cone.basis:
        raise BasisMismatchError("family and cone are over different bases")
    (da, (ta,)), (db, (tb,)) = _integers([_vector_of(a)]), _integers([_vector_of(b)])
    lo = hi = lo_cut = hi_cut = None
    constraints = ([(e, True) for e in cone.equalities]
                   + [(f, False) for f in cone.facets])
    for f, equality in constraints:
        fa, fb = _dot(f, ta), _dot(f, tb)
        if not fb:
            if fa < 0 or (equality and fa):
                return FeasibleInterval(never=f)
            continue
        n, d = (-fa, fb) if fb > 0 else (fa, -fb)      # the root is (n / d) (db / da), d > 0
        if (equality or fb > 0) and (lo is None or n * lo[1] > lo[0] * d):
            lo, lo_cut = (n, d), f
        if (equality or fb < 0) and (hi is None or n * hi[1] < hi[0] * d):
            hi, hi_cut = (n, d), f
    lo, hi = (None if end is None else Fraction(end[0] * db, end[1] * da) for end in (lo, hi))
    return FeasibleInterval(lo, hi, lo_cut, hi_cut)


def pseudoeffective_threshold(a: DivisorClass, b: DivisorClass,
                              cone: ConeSpec) -> Fraction:
    """Largest rational u with ``a - u b`` in the cone.

    Minus the lower end of :func:`feasible_interval` along ``b``: the
    minimum of f.a / f.b over the facets with f.b > 0, or 0 when an equality
    is nonzero on b.
    """
    if a.basis != b.basis or a.basis != cone.basis:
        raise BasisMismatchError("threshold arguments are over different bases")
    ray = feasible_interval(a, b, cone)
    if 0 not in ray:
        raise ValueError("a - u b is not in the cone at u = 0")
    if ray.lo is None:
        raise UnboundedThresholdError(
            "threshold is unbounded: the subtracted class is not constraining")
    return -ray.lo
