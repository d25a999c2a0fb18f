"""Divisor and curve classes with exact intersection pairings.

A :class:`LatticeBasis` fixes an ordered list of generator names (for the
threefold: the plane pullback and the two exceptional surfaces; for each
embedded surface: its own curve basis).  A :class:`DivisorClass` is a
coefficient vector over such a basis.  Each coefficient is a Fraction or a
non-constant :class:`~divstab.ratmath.Poly` in the parameters u, v; the
constructor stores a constant Poly as its Fraction, so equal classes have
equal coefficient tuples, and records in ``rational`` whether every
coefficient is a Fraction.  The pairings return a Fraction for rational
classes and a Poly otherwise: the input types decide, never the value.

The pairings and the linear maps run on the integer tables of
:mod:`divstab.ratmath`.  A class forms its tables once, on first use
(:meth:`DivisorClass.tables`); a :class:`CurvePairing` and a
:class:`SurfaceForm` form theirs when built.  :func:`triple_product`,
:func:`surface_pair`, :func:`pair_with_curve`, :func:`restrict` and
:func:`combination` (behind ``Schedule.positive_part``) sum products of such
tables on ints and reduce each coefficient of the result once.  The
trilinear form's weights are summed per symmetry pattern of the three
classes once per form, and kept on the form.

Intersection data is shipped as value tables:

* :class:`ThreefoldForm` -- symmetric trilinear form, nonzero triples only.
* :class:`SurfaceForm` -- symmetric bilinear form.
* :class:`RestrictionMap` -- threefold generator -> surface class.
* :class:`CurvePairing` -- intersection numbers of a fixed curve against the
  threefold generators (given directly as data: some of these curves are not
  divisor-class intersections in the modeled lattice).

All values are immutable and all operations are pure, so everything here may
be shared freely between concurrent workers.  The kept tables and weights
are derived values: two workers that form one at once store equal values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .ratmath import (Coeff, Poly, _add_product, _as_fraction, _integers, _reduce, _tables,
                      format_poly, format_rational)
from .record import Record

# a string, so the Union that typing caches does not keep this module's Poly alive
CoeffIn = Union[int, Fraction, "Poly"]


class BasisMismatchError(ValueError):
    """Classes from different bases were combined."""


class LatticeBasis(Record):
    """Ordered generator names; order is fixed for the lifetime of a scenario."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        object.__setattr__(self, "names", names)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}; basis is {self.names}") from None

    def unit(self, name: str) -> "DivisorClass":
        coeffs = [Fraction(0)] * self.rank
        coeffs[self.index(name)] = Fraction(1)
        return DivisorClass(self, coeffs)

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, [Fraction(0)] * self.rank)


class DivisorClass:
    """Exact coefficient vector over a named lattice basis.

    Its integer tables (:meth:`tables`) are formed on first use and kept.
    """

    __slots__ = ("basis", "coeffs", "rational", "_ints")

    def __init__(self, basis: LatticeBasis, coeffs: Sequence[CoeffIn]):
        cs = []
        rational = True
        for c in coeffs:
            if isinstance(c, Poly):
                if c.is_constant():
                    c = c.coefficient(0, 0)
                else:
                    rational = False
            elif not isinstance(c, Fraction):
                c = _as_fraction(c)
            cs.append(c)
        if len(cs) != basis.rank:
            raise ValueError(f"expected {basis.rank} coefficients, got {len(cs)}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "rational", rational)

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    def tables(self) -> tuple[int, list]:
        """The coefficients as integer tables over one denominator (see
        :func:`~divstab.ratmath._tables`), formed on first use and kept."""
        try:
            return self._ints
        except AttributeError:
            ints = _tables(self.coeffs)
            object.__setattr__(self, "_ints", ints)
            return ints

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "DivisorClass") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"basis mismatch: {self.basis.names} vs {other.basis.names}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.basis, self.coeffs))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.basis, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.basis, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis, [-c for c in self.coeffs])

    def scale(self, factor: CoeffIn) -> "DivisorClass":
        return DivisorClass(self.basis, [factor * c for c in self.coeffs])

    def __rmul__(self, factor) -> "DivisorClass":
        return self.scale(factor)

    def evaluate(self, u=None, v=None) -> "DivisorClass":
        """Substitute rational u, if given, then rational v, if given."""
        out = []
        for c in self.coeffs:
            if isinstance(c, Poly) and u is not None:
                c = c.subs_u(u)
            if isinstance(c, Poly) and v is not None:
                c = c.subs_v(v)
            out.append(c)
        return DivisorClass(self.basis, out)

    def __str__(self):
        terms = []
        for name, c in zip(self.basis.names, self.coeffs):
            if isinstance(c, Poly):
                terms.append(f"+ ({format_poly(c)})*{name}")
            elif c == 1:
                terms.append(f"+ {name}")
            elif c == -1:
                terms.append(f"- {name}")
            elif c < 0:
                terms.append(f"- {format_rational(-c)}*{name}")
            elif c > 0:
                terms.append(f"+ {format_rational(c)}*{name}")
        if not terms:
            return "0"
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"DivisorClass({self})"


def _sym_key(indices: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(indices))


class ThreefoldForm(Record):
    """Symmetric trilinear form given by its nonzero values on basis triples."""

    basis: LatticeBasis
    values: Mapping[tuple[int, int, int], Fraction]

    def __init__(self, basis: LatticeBasis,
                 entries: Mapping[tuple[str, str, str], Fraction]):
        table: dict[tuple[int, int, int], Fraction] = {}
        for names, value in entries.items():
            key = _sym_key(basis.index(n) for n in names)
            value = _as_fraction(value)
            if key in table and table[key] != value:
                raise ValueError(f"tensor symmetry violated at {names}: "
                                 f"{table[key]} vs {value}")
            table[key] = value
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", MappingProxyType(table))


class SurfaceForm(Record):
    """Symmetric bilinear form on a surface lattice.

    ``values`` holds each nonzero entry under both ``(i, j)`` and ``(j, i)``,
    and ``matrix`` the full matrix as integer rows over one denominator.
    """

    basis: LatticeBasis
    values: Mapping[tuple[int, int], Fraction]

    def __init__(self, basis: LatticeBasis, entries: Mapping[tuple[str, str], Fraction]):
        table: dict[tuple[int, int], Fraction] = {}
        for names, value in entries.items():
            i, j = (basis.index(n) for n in names)
            value = _as_fraction(value)
            if table.get((i, j), value) != value:
                raise ValueError(f"pairing symmetry violated at {names}")
            table[i, j] = table[j, i] = value
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", MappingProxyType(table))
        object.__setattr__(self, "matrix", _integers(
            [[table.get((i, j), 0) for j in range(basis.rank)] for i in range(basis.rank)]))

    def value(self, i: int, j: int) -> Fraction:
        return self.values.get((i, j), Fraction(0))


def _check_names(what: str, basis: LatticeBasis, table: Mapping[str, object]) -> None:
    """Raise ValueError unless ``table`` has exactly the generators of ``basis``."""
    missing, extra = set(basis.names) - set(table), set(table) - set(basis.names)
    if missing or extra:
        raise ValueError(f"{what} is missing generators {sorted(missing)}" if missing else
                         f"{what} names {sorted(extra)} outside the basis {basis.names}")


class RestrictionMap(Record):
    """Linear map from the threefold lattice to a surface lattice."""

    source: LatticeBasis
    target: LatticeBasis
    images: tuple[DivisorClass, ...]

    def __init__(self, source: LatticeBasis, target: LatticeBasis,
                 images: Mapping[str, DivisorClass]):
        _check_names("restriction map", source, images)
        ordered = []
        for name in source.names:
            img = images[name]
            if img.basis != target:
                raise BasisMismatchError(f"image of {name} is not over the target basis")
            ordered.append(img)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", tuple(ordered))


class CurvePairing(Record):
    """Intersection numbers of one named curve against the threefold generators,
    kept also as ``tables``, integer tables over one denominator."""

    name: str
    basis: LatticeBasis
    table: tuple[Fraction, ...]

    def __init__(self, name: str, basis: LatticeBasis, table: Mapping[str, Fraction]):
        _check_names(f"curve table {name!r}", basis, table)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table",
                           tuple(_as_fraction(table[n]) for n in basis.names))
        object.__setattr__(self, "tables", _tables(self.table))


def _weights(form: ThreefoldForm, same12: bool, same: bool) -> tuple[int, list]:
    """The form's values summed per distinct product of one symmetry pattern,
    as ``(a, b, c, numerator)`` over one denominator.

    Per sorted triple for a cube ``P^3`` (``same``), per sorted pair and third
    index for ``P^2.Y`` (``same12``), per ordered triple otherwise.  Formed
    once per form and pattern, and kept on the form.
    """
    memo = vars(form).setdefault("_weights", {})
    hit = memo.get((same12, same))
    if hit is None:
        weights: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), t in form.values.items():
            orders = {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}
            if same:
                weights[i, j, k] = t * len(orders)
                continue
            for a, b, c in orders:
                key = (min(a, b), max(a, b), c) if same12 else (a, b, c)
                weights[key] = weights.get(key, 0) + t
        den, (nums,) = _integers([weights.values()])
        hit = memo[same12, same] = (den, [(*key, num) for key, num in zip(weights, nums) if num])
    return hit


def triple_product(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass,
                   form: ThreefoldForm) -> Coeff:
    """Trilinear expansion of the intersection form; exact.

    The form's weights of the symmetry pattern of (d1, d2, d3) come from
    :func:`_weights`.  Each class is brought to integer tables once, each
    product of tables is summed on the integers, and the total is reduced
    once.
    """
    for d in (d1, d2, d3):
        if d.basis != form.basis:
            raise BasisMismatchError("class is not over the form's basis")
    same12 = d1 == d2
    same = same12 and d2 == d3
    den, weights = _weights(form, same12, same)
    den1, t1 = d1.tables()
    den2, t2 = d2.tables()
    den3, t3 = d3.tables()
    total: list[list[int]] = []
    for a, b, c, w in weights:
        if t1[a] and t2[b] and t3[c]:
            xy: list[list[int]] = []
            _add_product(xy, 1, t1[a], t2[b])
            _add_product(total, w, xy, t3[c])
    value = _reduce(total, den * den1 * den2 * den3)
    return value.coefficient(0, 0) if d1.rational and d2.rational and d3.rational else value


def surface_pair(a: DivisorClass, b: DivisorClass, form: SurfaceForm) -> Coeff:
    """Bilinear expansion of a surface intersection form on integer tables
    (the form's ``matrix`` and each class's), reduced once; exact."""
    if a.basis != form.basis or b.basis != form.basis:
        raise BasisMismatchError("class is not over the form's basis")
    form_den, matrix = form.matrix
    den_a, ta = a.tables()
    den_b, tb = b.tables()
    total: list[list[int]] = []
    for x, row in zip(ta, matrix):
        if x:
            for y, w in zip(tb, row):
                if w and y:
                    _add_product(total, w, x, y)
    value = _reduce(total, form_den * den_a * den_b)
    return value.coefficient(0, 0) if a.rational and b.rational else value


def combination(basis: LatticeBasis,
                terms: Iterable[tuple[CoeffIn, DivisorClass]]) -> DivisorClass:
    """``sum_k c_k D_k`` over ``basis``, for scalar or Poly coefficients c_k.

    Each coefficient of the result is summed on the integers, over one
    denominator, and reduced once.
    """
    parts = []
    for c, cls in terms:
        if cls.basis != basis:
            raise BasisMismatchError("class is not over the combination's basis")
        c_den, (x,) = _tables((c,))
        if x:
            den, tables = cls.tables()
            parts.append((c_den * den, x, tables))
    full = math.lcm(*(den for den, _, _ in parts))
    totals: list[list] = [[] for _ in range(basis.rank)]
    for den, x, tables in parts:
        for total, table in zip(totals, tables):
            if table:
                _add_product(total, full // den, x, table)
    return DivisorClass(basis, [_reduce(total, full) for total in totals])


def restrict(d: DivisorClass, rmap: RestrictionMap) -> DivisorClass:
    """Linear image of a threefold class on the surface."""
    if d.basis != rmap.source:
        raise BasisMismatchError("class is not over the restriction map's source basis")
    return combination(rmap.target, zip(d.coeffs, rmap.images))


def pair_with_curve(d: DivisorClass, curve: CurvePairing) -> Coeff:
    """Linear extension of a curve's intersection table."""
    if d.basis != curve.basis:
        raise BasisMismatchError("class is not over the curve table's basis")
    den, xs = d.tables()
    value_den, values = curve.tables
    total: list[list[int]] = []
    for x, value in zip(xs, values):
        if x and value:
            _add_product(total, 1, x, value)
    value = _reduce(total, den * value_den)
    return value.coefficient(0, 0) if d.rational else value
