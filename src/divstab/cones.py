"""Exact cone queries: nef certificates, nonnegative decomposition, thresholds.

The effective cone is handed in as an explicit generator list and the Mori
cone as an explicit dual test set (curve tables or surface curve classes);
the scenario is responsible for supplying generating sets.  Ranks never
exceed 5 and generator counts never exceed 6, so membership questions are
settled by enumerating support subsets and solving square rational systems
exactly -- no pivoting tolerances, no LP library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from . import linalg
from .lattice import (BasisMismatchError, CurvePairing, DivisorClass, SurfaceForm,
                      pair_with_curve, surface_pair)
from .ratmath import format_rational


class UnboundedThresholdError(ArithmeticError):
    """The subtracted class does not constrain: the threshold is +infinity."""


@dataclass(frozen=True)
class ConeSpec:
    """Named generators of an effective cone, all over one basis."""

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

    @property
    def basis(self):
        return self.generators[0].basis

    def __len__(self):
        return len(self.generators)


@dataclass(frozen=True)
class Decomposition:
    """Nonnegative coefficients per cone generator, reconstructing the input."""

    cone: ConeSpec
    coefficients: tuple[Fraction, ...]

    def recombine(self) -> DivisorClass:
        out = self.cone.basis.zero()
        for c, g in zip(self.coefficients, self.cone.generators):
            out = out + g.scale(c)
        return out

    def __str__(self):
        return "\n".join(f"{name}: {format_rational(c)}"
                         for name, c in zip(self.cone.names, self.coefficients))


@dataclass(frozen=True)
class Infeasible:
    """No nonnegative decomposition exists; carries a separating witness.

    ``witness`` is a rational functional y with y(g) >= 0 on every generator
    and y(D) < 0, when one was found among the candidate dual rays.
    """

    witness: tuple[Fraction, ...] | None
    detail: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class NefCertificate:
    nef: bool
    violating_curve: str | None = None
    pairing: Fraction | None = None

    def __bool__(self):
        return self.nef


def is_nef(d: DivisorClass, curves: Sequence[Union[CurvePairing, tuple[str, DivisorClass]]],
           form: SurfaceForm | None = None) -> NefCertificate:
    """Check ``d . c >= 0`` for every supplied curve.

    Curves are either :class:`CurvePairing` tables (threefold) or named
    surface classes ``(name, class)`` paired through ``form``.  The result
    names a violating curve when there is one.
    """
    if not curves:
        raise ValueError("empty curve list")
    for entry in curves:
        if isinstance(entry, CurvePairing):
            name, value = entry.name, pair_with_curve(d, entry)
        else:
            name, cls = entry
            if form is None:
                raise ValueError("surface curve classes need the surface form")
            value = surface_pair(d, cls, form)
        if not isinstance(value, Fraction):
            raise ValueError("is_nef needs rational coefficients; "
                             "evaluate parametric classes at a point first")
        if value < 0:
            return NefCertificate(False, name, value)
    return NefCertificate(True)


def _vector_of(d: DivisorClass) -> list[Fraction]:
    if not all(isinstance(c, Fraction) for c in d.coeffs):
        raise ValueError("decomposition needs rational coefficients")
    return list(d.coeffs)


def _support_subsets(count: int, max_size: int):
    # largest supports first, so the fully supported canonical solutions
    # (all strict-inequality faces) are found before sparse alternatives
    for size in range(max_size, -1, -1):
        yield from combinations(range(count), size)


def _farkas_witness(cols: list[list[Fraction]], target: list[Fraction]
                    ) -> tuple[Fraction, ...] | None:
    """A functional nonnegative on all columns and negative on the target."""
    rank = len(target)
    # if the target is outside the linear span, some null functional separates
    for y in linalg.null_space(cols):
        val = sum(a * b for a, b in zip(y, target))
        if val != 0:
            return tuple(c if val < 0 else -c for c in y)
    # otherwise scan candidate extreme rays of the dual cone
    for size in range(len(cols) + 1):
        for subset in combinations(range(len(cols)), size):
            span = [cols[j] for j in subset]
            for y in linalg.null_space(span or [[Fraction(0)] * rank]):
                for cand in (y, [-c for c in y]):
                    if all(sum(a * b for a, b in zip(cand, col)) >= 0 for col in cols):
                        if sum(a * b for a, b in zip(cand, target)) < 0:
                            return tuple(cand)
    return None


def effective_decompose(d: DivisorClass, cone: ConeSpec) -> Decomposition | Infeasible:
    """Exact nonnegative solution of ``sum x_i g_i = d``, or Infeasible.

    Supports of size up to the basis rank are enumerated and each square
    (or overdetermined) subsystem is solved exactly; the first consistent
    nonnegative solution wins.
    """
    if d.basis != cone.basis:
        raise BasisMismatchError("class and cone are over different bases")
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
    witness = _farkas_witness(cols, target)
    detail = ""
    if witness is not None:
        pairing = sum(a * b for a, b in zip(witness, target))
        detail = (f"functional ({', '.join(map(format_rational, witness))}) is nonnegative "
                  f"on every generator but takes {format_rational(pairing)} on the class")
    return Infeasible(witness, detail)


def pseudoeffective_threshold(a: DivisorClass, b: DivisorClass,
                              cone: ConeSpec) -> Fraction:
    """Largest rational u with ``a - u b`` in the cone.

    Candidate breakpoints come from support-subset solves with u as an extra
    unknown (a basic optimal solution uses at most rank-1 generators); the
    largest candidate that passes a full feasibility check is the threshold.
    Feasibility in u is an interval containing 0, so this maximum is exact.
    """
    if a.basis != b.basis or a.basis != cone.basis:
        raise BasisMismatchError("threshold arguments are over different bases")
    start = effective_decompose(a, cone)
    if isinstance(start, Infeasible):
        raise ValueError("a - u b is not in the cone at u = 0")
    if isinstance(effective_decompose(b.scale(-1), cone), Decomposition):
        raise UnboundedThresholdError(
            "threshold is unbounded: the subtracted class is not constraining")
    ta, tb = _vector_of(a), _vector_of(b)
    cols = [_vector_of(g) for g in cone.generators]
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
