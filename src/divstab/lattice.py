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

Intersection data is shipped as value tables:

* :class:`ThreefoldForm` -- symmetric trilinear form, nonzero triples only.
* :class:`SurfaceForm` -- symmetric bilinear form.
* :class:`RestrictionMap` -- threefold generator -> surface class.
* :class:`CurvePairing` -- intersection numbers of a fixed curve against the
  threefold generators (given directly as data: some of these curves are not
  divisor-class intersections in the modeled lattice).

All values are immutable and all operations are pure, so everything here may
be shared freely between concurrent workers.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .ratmath import Coeff, Poly, _as_fraction, format_poly, format_rational
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
    """Exact coefficient vector over a named lattice basis."""

    __slots__ = ("basis", "coeffs", "rational")

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

    def coefficient(self, name: str) -> Coeff:
        return self.coeffs[self.basis.index(name)]

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
        """Evaluate parametric coefficients at rational u and/or v."""
        out = []
        for c in self.coeffs:
            if isinstance(c, Poly):
                if u is not None and v is not None:
                    c = c(u, v)
                elif u is not None:
                    c = c.subs_u(u)
                elif v is not None:
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

    def value(self, i: int, j: int, k: int) -> Fraction:
        return self.values.get(_sym_key((i, j, k)), Fraction(0))


class SurfaceForm(Record):
    """Symmetric bilinear form on a surface lattice.

    ``values`` holds each nonzero entry under both ``(i, j)`` and ``(j, i)``.
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
    """Intersection numbers of one named curve against the threefold generators."""

    name: str
    basis: LatticeBasis
    table: tuple[Fraction, ...]

    def __init__(self, name: str, basis: LatticeBasis, table: Mapping[str, Fraction]):
        _check_names(f"curve table {name!r}", basis, table)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "table",
                           tuple(_as_fraction(table[n]) for n in basis.names))


def triple_product(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass,
                   form: ThreefoldForm) -> Coeff:
    """Trilinear expansion of the intersection form; exact.

    The form's values are summed per distinct product first: per sorted
    triple for a cube ``P^3``, per sorted pair and third index for
    ``P^2.Y``.  Each product is then formed once, scalar factors first.
    """
    for d in (d1, d2, d3):
        if d.basis != form.basis:
            raise BasisMismatchError("class is not over the form's basis")
    same12 = d1 == d2
    same = same12 and d2 == d3
    weights: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), t in form.values.items():
        orders = {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}
        if same:
            weights[i, j, k] = t * len(orders)
            continue
        for a, b, c in orders:
            key = (min(a, b), max(a, b), c) if same12 else (a, b, c)
            weights[key] = weights.get(key, 0) + t
    total = Fraction(0)
    for (a, b, c), w in weights.items():
        factors = (d1.coeffs[a], d2.coeffs[b], d3.coeffs[c])
        if all(factors):
            for x in sorted(factors, key=lambda x: isinstance(x, Poly)):
                w = x * w
            total += w
    return total if d1.rational and d2.rational and d3.rational else Poly.of(total)


def surface_pair(a: DivisorClass, b: DivisorClass, form: SurfaceForm) -> Coeff:
    """Bilinear expansion of a surface intersection form; exact."""
    if a.basis != form.basis or b.basis != form.basis:
        raise BasisMismatchError("class is not over the form's basis")
    total = Fraction(0)
    for (i, j), t in form.values.items():
        x, y = a.coeffs[i], b.coeffs[j]
        if x and y:
            total += y * (x * t) if isinstance(y, Poly) else x * (y * t)
    return total if a.rational and b.rational else Poly.of(total)


def restrict(d: DivisorClass, rmap: RestrictionMap) -> DivisorClass:
    """Linear image of a threefold class on the surface."""
    if d.basis != rmap.source:
        raise BasisMismatchError("class is not over the restriction map's source basis")
    out = rmap.target.zero()
    for coeff, image in zip(d.coeffs, rmap.images):
        out = out + image.scale(coeff)
    return out


def pair_with_curve(d: DivisorClass, curve: CurvePairing) -> Coeff:
    """Linear extension of a curve's intersection table."""
    if d.basis != curve.basis:
        raise BasisMismatchError("class is not over the curve table's basis")
    total = Fraction(0)
    for coeff, value in zip(d.coeffs, curve.table):
        if coeff and value:
            total += value * coeff
    return total if d.rational else Poly.of(total)
