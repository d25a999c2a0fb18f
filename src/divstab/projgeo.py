"""Exact multivariate polynomial geometry over the rationals.

Polynomials live in a sparse ring over Fraction whose variables are the
projective coordinates ``x0..x3`` together with whatever parameters a
computation needs (``s``, ``t``, the conic coefficients ``a1..a6``, and the
line/curve parametrization letters).  Homogeneity is a property of the
x-block only.  Everything is exact; the only extension beyond the rationals
is a Gaussian-rational value type used when *evaluating* at points whose
coordinates involve the imaginary unit (the polynomials themselves stay
rational).

The verification entry point is :func:`verify_secant_lemma`, which certifies
the whole containment story for the invariant-line family inside the secant
quartic: solving the conic coefficients, clearing denominators, extracting
the two-parameter condition system, the factorization that forces the
diagonal, and the elimination of the reciprocal branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .exprs import parse_expression
from .ratmath import Poly, format_rational, poly_gcd, rational_roots

Scalar = Union[int, Fraction]
PROJ_VARS = ("x0", "x1", "x2", "x3")


class DegenerateLineError(ValueError):
    """The two forms of a parametrized line are dependent."""


class IrrationalEigenvalueError(ArithmeticError):
    """A linear action has eigenvalues outside the rationals."""


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with rational a, b; only evaluation ever needs it."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_gauss(other))

    def __rsub__(self, other):
        return _gauss(other) + (-self)

    def __mul__(self, other):
        other = _gauss(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = GaussianRational(Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self):
        return f"{format_rational(self.re)}{'+' if self.im >= 0 else ''}{format_rational(self.im)}i"


I = GaussianRational(Fraction(0), Fraction(1))


def _gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x))


class MPoly:
    """Sparse multivariate polynomial over Fraction with named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[tuple[int, ...], Scalar] = ()):
        variables = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in dict(terms).items():
            c = Fraction(c)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls((), {(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return cls((name,), {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _aligned(self, other: "MPoly") -> tuple[tuple[str, ...], "MPoly", "MPoly"]:
        if self.vars == other.vars:
            return self.vars, self, other
        merged = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return tuple(merged), self._embed(merged), other._embed(merged)

    def _embed(self, variables: Sequence[str]) -> "MPoly":
        idx = [list(variables).index(v) for v in self.vars]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            key = [0] * len(variables)
            for i, e in zip(idx, exps):
                key[i] = e
            out[tuple(key)] = c
        return MPoly(variables, out)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        canon = tuple(sorted(
            (tuple(sorted((v, e) for v, e in zip(self.vars, exps) if e)), c)
            for exps, c in self.terms.items()))
        return hash(canon)

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        variables, a, b = self._aligned(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(variables, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        variables, a, b = self._aligned(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return MPoly(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        out = MPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def degree_in(self, names: Sequence[str]) -> int:
        picked = [i for i, v in enumerate(self.vars) if v in names]
        if not self.terms:
            return -1
        return max(sum(e[i] for i in picked) for e in self.terms)

    def is_homogeneous_in(self, names: Sequence[str]) -> bool:
        picked = [i for i, v in enumerate(self.vars) if v in names]
        degrees = {sum(e[i] for i in picked) for e in self.terms}
        return len(degrees) <= 1

    def subs(self, mapping: Mapping[str, Union["MPoly", Scalar]]) -> "MPoly":
        """Substitute polynomials (or scalars) for variables."""
        out = MPoly.constant(0)
        for exps, c in self.terms.items():
            term = MPoly.constant(c)
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                repl = mapping.get(v)
                if repl is None:
                    repl = MPoly.variable(v)
                elif not isinstance(repl, MPoly):
                    repl = MPoly.constant(repl)
                term = term * repl ** e
            out = out + term
        return out

    def evaluate(self, values: Mapping[str, Union[Scalar, GaussianRational]]):
        """Evaluate at a point; values may be Gaussian rationals."""
        total = None
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v not in values:
                    raise KeyError(f"no value supplied for {v}")
                term = term * values[v] ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def coefficients_in(self, names: Sequence[str]) -> dict[tuple[int, ...], "MPoly"]:
        """Collect coefficients of monomials in the given variables."""
        picked = [i for i, v in enumerate(self.vars) if v in names]
        order = {v: j for j, v in enumerate(names)}
        rest = [i for i, v in enumerate(self.vars) if v not in names]
        rest_vars = tuple(self.vars[i] for i in rest)
        grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            key = [0] * len(names)
            for i in picked:
                key[order[self.vars[i]]] = exps[i]
            inner = tuple(exps[i] for i in rest)
            grouped.setdefault(tuple(key), {})[inner] = c
        return {k: MPoly(rest_vars, inner) for k, inner in grouped.items()}

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        nums = gcd(*(abs(c.numerator) for c in self.terms.values()))
        dens = 1
        for c in self.terms.values():
            dens = dens * c.denominator // gcd(dens, c.denominator)
        return Fraction(nums, dens)

    def primitive(self) -> "MPoly":
        c = self.content()
        out = self * (1 / c)
        # canonical sign: leading term (graded lex) positive
        if out.terms and out.terms[_leading_key(out)] < 0:
            out = -out
        return out

    def __str__(self):
        return format_mpoly(self)

    def __repr__(self):
        return f"MPoly({format_mpoly(self)!r})"


def _leading_key(p: MPoly) -> tuple[int, ...]:
    return max(p.terms, key=lambda e: (sum(e), e))


def format_mpoly(p: MPoly) -> str:
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    parts = []
    for exps, c in items:
        factors = [f"{v}^{e}" if e > 1 else v
                   for v, e in zip(p.vars, exps) if e]
        if not factors:
            body = format_rational(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(abs(c))] + factors)
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def parse_mpoly(text: str) -> MPoly:
    """Parse a polynomial in the grammar of :mod:`divstab.exprs`; every name is a variable.

    Errors are :class:`divstab.exprs.ExprSyntaxError`.
    """
    value = parse_expression(text, lambda name, at: MPoly.variable(name))
    return value if isinstance(value, MPoly) else MPoly.constant(value)


@dataclass(frozen=True)
class ParamCurve:
    """Four homogeneous binary forms of equal degree, no common factor."""

    components: tuple[MPoly, MPoly, MPoly, MPoly]
    variables: tuple[str, str] = ("x", "y")

    def __post_init__(self):
        degs = {c.degree_in(self.variables) for c in self.components}
        if len(degs) != 1:
            raise ValueError("curve components must share one degree")
        for c in self.components:
            if not c.is_homogeneous_in(self.variables):
                raise ValueError("curve components must be homogeneous")
        if _common_binary_factor(self.components, self.variables):
            raise ValueError("curve components share a common factor")


def twisted_cubic() -> ParamCurve:
    """The degree-3 rational normal curve [x:y] -> [x^3 : x^2 y : x y^2 : y^3]."""
    x, y = MPoly.variable("x"), MPoly.variable("y")
    return ParamCurve((x ** 3, x ** 2 * y, x * y ** 2, y ** 3))


def _unipoly(p: MPoly, var: str) -> Poly:
    """A polynomial in the single variable ``var``, as a one-row :class:`Poly`."""
    coeffs: list[Fraction] = []
    for exps, c in p.terms.items():
        deg = 0
        for v, e in zip(p.vars, exps):
            if e and v != var:
                raise ValueError(f"{p} is not univariate in {var}")
            if v == var:
                deg = e
        while len(coeffs) <= deg:
            coeffs.append(Fraction(0))
        coeffs[deg] += c
    return Poly([coeffs])


def _mpoly(p: Poly, var: str) -> MPoly:
    """The inverse of :func:`_unipoly`."""
    return MPoly((var,), {(k,): c for k, c in enumerate(p.coeffs)})


def _common_binary_factor(components: Sequence[MPoly], variables: tuple[str, str]) -> bool:
    x, y = variables
    deg = components[0].degree_in(variables)
    # a common y-power: every component misses the pure x^deg monomial scale
    if all(p.degree_in((x,)) < deg for p in components):
        return True
    dehom = [_unipoly(p.subs({y: 1}), x) for p in components]
    return reduce(poly_gcd, dehom).degree > 0


def contains_param_curve(f: MPoly, curve: ParamCurve) -> bool:
    """Is the composite f(curve(x, y)) the zero polynomial?"""
    mapping = dict(zip(PROJ_VARS, curve.components))
    return f.subs(mapping).is_zero()


@dataclass(frozen=True)
class LinearAction:
    """An invertible 4x4 rational matrix acting on projective coordinates."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        m = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("need a 4x4 matrix")
        if linalg.rank(m) < 4:
            raise ValueError("action matrix must be invertible")
        object.__setattr__(self, "matrix", m)

    def apply(self, point: Sequence) -> list:
        return [sum((row[j] * point[j] for j in range(4)),
                    start=point[0] * 0) for row in self.matrix]


def identity_action() -> LinearAction:
    return LinearAction([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def transform_poly(g: LinearAction, f: MPoly) -> MPoly:
    """Compose f with the coordinate substitution x -> g(x)."""
    images = g.apply([MPoly.variable(v) for v in PROJ_VARS])
    return f.subs(dict(zip(PROJ_VARS, images)))


def equation_character(g: LinearAction, f: MPoly) -> Fraction | None:
    """The scalar by which g multiplies the equation f, or None."""
    gf = transform_poly(g, f)
    if f.is_zero():
        return None
    variables, a, b = f._aligned(gf)
    key = next(iter(a.terms))
    chi = b.terms.get(key, Fraction(0)) / a.terms[key]
    return chi if (gf - f * chi).is_zero() else None


def _char_poly(m) -> Poly:
    """det(t I - M) as a one-row :class:`Poly` (Faddeev-LeVerrier)."""
    n = 4
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [[Fraction(0)] * n for _ in range(n)]
    identity = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        # M_k = M (M_{k-1} + c_{k-1} I)
        shifted = [[mk[i][j] + c * identity[i][j] for j in range(n)] for i in range(n)]
        mk = [[sum(m[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return Poly([coeffs])


def _rational_eigenvalues(m) -> list[Fraction]:
    """The distinct eigenvalues; errors unless the char poly splits over Q.

    It splits iff its squarefree part ``char // gcd(char, char')`` has one
    root per degree, all of them rational.
    """
    char = _char_poly(m)
    roots = rational_roots(char)
    if (char // poly_gcd(char, char.derivative())).degree != len(roots):
        raise IrrationalEigenvalueError(
            "the action has irrational (or non-real) eigenvalues")
    return roots


@dataclass(frozen=True)
class FixedLocus:
    """A positive-dimensional common eigenspace, recorded by a basis."""

    eigenvalues: tuple[Fraction, Fraction]
    dimension: int                      # projective dimension
    basis: tuple[tuple[Fraction, ...], ...]

    def describe(self) -> str:
        if self.dimension >= 3:
            return "all of projective space"
        kind = {1: "line", 2: "plane"}.get(self.dimension, f"{self.dimension}-fold")
        return f"{kind} spanned by " + ", ".join(
            "[" + ":".join(format_rational(c) for c in vec) + "]" for vec in self.basis)


@dataclass(frozen=True)
class FixedPointReport:
    points: tuple[tuple[Fraction, ...], ...]
    loci: tuple[FixedLocus, ...]

    def is_empty(self) -> bool:
        return not self.points and not self.loci


def _normalize_point(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    lead = next(c for c in vec if c != 0)
    return tuple(c / lead for c in vec)


def common_fixed_points(g1: LinearAction, g2: LinearAction) -> FixedPointReport:
    """All points of projective 3-space fixed by both actions.

    Projective fixed points of a linear action are its eigenvectors, so the
    common fixed locus is the union of pairwise intersections of rational
    eigenspaces.  The two actions must commute up to scalar.
    """
    _check_projective_commute(g1, g2)
    report_points: list[tuple[Fraction, ...]] = []
    loci: list[FixedLocus] = []
    for lam1 in _rational_eigenvalues(g1.matrix):
        space1 = _eigen_matrix(g1.matrix, lam1)
        for lam2 in _rational_eigenvalues(g2.matrix):
            space2 = _eigen_matrix(g2.matrix, lam2)
            joint = linalg.null_space(space1 + space2)
            if not joint:
                continue
            if len(joint) == 1:
                report_points.append(_normalize_point(joint[0]))
            else:
                loci.append(FixedLocus((lam1, lam2), len(joint) - 1,
                                       tuple(_normalize_point(v) for v in joint)))
    return FixedPointReport(tuple(report_points), tuple(loci))


def _eigen_matrix(m, lam: Fraction):
    return [[m[i][j] - (lam if i == j else 0) for j in range(4)] for i in range(4)]


def _check_projective_commute(g1: LinearAction, g2: LinearAction) -> None:
    a = [[sum(g1.matrix[i][k] * g2.matrix[k][j] for k in range(4)) for j in range(4)]
         for i in range(4)]
    b = [[sum(g2.matrix[i][k] * g1.matrix[k][j] for k in range(4)) for j in range(4)]
         for i in range(4)]
    ratio = None
    for i in range(4):
        for j in range(4):
            if b[i][j] != 0:
                ratio = a[i][j] / b[i][j]
                break
        if ratio is not None:
            break
    if ratio is None or any(a[i][j] != ratio * b[i][j]
                            for i in range(4) for j in range(4)):
        raise ValueError("actions do not commute up to scalar")


# --- standard fixtures: the invariant quadrics and involutions ------------


def standard_involutions() -> tuple[LinearAction, LinearAction]:
    """The coordinate swap and the alternating sign change generating the
    Klein four-group that fixes the twisted cubic and the invariant line."""
    swap = LinearAction([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    signs = LinearAction([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return swap, signs


def invariant_quadrics() -> dict[str, MPoly]:
    """The three invariant quadrics through the twisted cubic, plus the
    quadric swept by the invariant lines."""
    return {
        "Q1": parse_mpoly("x0*x3 - x1*x2"),
        "Q2": parse_mpoly("x1^2 + x2^2 - x0*x2 - x1*x3"),
        "Q3": parse_mpoly("x1^2 - x2^2 - x0*x2 + x1*x3"),
        "Q4": parse_mpoly("x0*x1 - x2*x3"),
    }


def cubic_quadric_points() -> list[tuple[GaussianRational, ...]]:
    """The six points where the line-swept quadric meets the twisted cubic,
    as Gaussian-rational coordinate tuples."""
    one, zero = GaussianRational(Fraction(1)), GaussianRational(Fraction(0))
    params = [(zero, one), (one, zero), (one, one), (one, -one), (one, I), (one, -I)]
    return [(x ** 3, x ** 2 * y, x * y ** 2, y ** 3) for x, y in params]


# --- the quadric map and the secant quartic -------------------------------

def quadric_map_components() -> tuple[MPoly, MPoly, MPoly]:
    """The net of quadrics through the twisted cubic, as a map to the plane."""
    x0, x1, x2, x3 = (MPoly.variable(v) for v in PROJ_VARS)
    return (x0 * x3 - x1 * x2, x1 * x1 - x0 * x2, x2 * x2 - x1 * x3)


def pullback_under_quadric_map(conic: Sequence[Union[MPoly, Scalar]]) -> MPoly:
    """Substitute the quadric map into a plane conic with the given coefficients.

    Coefficient order follows ``X^2, XY, XZ, Y^2, YZ, Z^2``; coefficients may
    be symbolic (e.g. the variables a1..a6) or rational.
    """
    if len(conic) != 6:
        raise ValueError("a conic needs 6 coefficients")
    big_x, big_y, big_z = quadric_map_components()
    basis = (big_x * big_x, big_x * big_y, big_x * big_z,
             big_y * big_y, big_y * big_z, big_z * big_z)
    out = MPoly.constant(0)
    for c, monomial in zip(conic, basis):
        if not isinstance(c, MPoly):
            c = MPoly.constant(c)
        out = out + c * monomial
    return out


def symbolic_conic_pullback() -> MPoly:
    return pullback_under_quadric_map([MPoly.variable(f"a{k}") for k in range(1, 7)])


@dataclass(frozen=True)
class ParamLine:
    """A line cut out by two linear forms with coefficients in one parameter."""

    forms: tuple[MPoly, MPoly]
    parameter: str

    def coefficient_matrix(self) -> list[list[MPoly]]:
        rows = []
        for form in self.forms:
            coeffs = form.coefficients_in(PROJ_VARS)
            if any(sum(e) != 1 for e in coeffs):
                raise ValueError("line forms must be homogeneous linear in x0..x3")
            row = []
            for k in range(4):
                key = tuple(1 if i == k else 0 for i in range(4))
                row.append(coeffs.get(key, MPoly.constant(0)))
            rows.append(row)
        return rows

    def parametrization(self) -> list[MPoly]:
        """Point of the line as a * V1 + b * V2 with polynomial components.

        V1, V2 are primitive null vectors of the 2x4 coefficient matrix,
        computed by Cramer's rule on the first independent pivot pair.
        """
        m = self.coefficient_matrix()
        pivots = None
        for c1 in range(4):
            for c2 in range(c1 + 1, 4):
                det = m[0][c1] * m[1][c2] - m[0][c2] * m[1][c1]
                if not det.is_zero():
                    pivots = (c1, c2, det)
                    break
            if pivots:
                break
        if pivots is None:
            raise DegenerateLineError("the two forms are dependent")
        c1, c2, det = pivots
        free = [k for k in range(4) if k not in (c1, c2)]
        letters = ("a", "b")
        point = [MPoly.constant(0)] * 4
        for letter, j in zip(letters, free):
            # null vector: x_j = det, pivot entries by Cramer, then primitive
            vec = [MPoly.constant(0)] * 4
            vec[j] = det
            vec[c1] = -(m[1][c2] * m[0][j] - m[0][c2] * m[1][j])
            vec[c2] = -(m[0][c1] * m[1][j] - m[1][c1] * m[0][j])
            vec = _primitive_vector(vec, self.parameter)
            coord = MPoly.variable(letter)
            for k in range(4):
                point[k] = point[k] + vec[k] * coord
        return point


def _primitive_vector(vec: list[MPoly], parameter: str) -> list[MPoly]:
    """Divide a polynomial vector by its polynomial gcd and rational content."""
    polys = _primitive_polys([_unipoly(p, parameter) for p in vec])
    coeffs = [c for p in polys for c in p.coeffs]
    scale = Fraction(lcm(*(c.denominator for c in coeffs)),
                     gcd(*(c.numerator for c in coeffs)) or 1)
    if next((p.coeffs[-1] for p in polys if p), 1) < 0:
        scale = -scale
    return [_mpoly(p * scale, parameter) for p in polys]


def _primitive_polys(polys: list[Poly]) -> list[Poly]:
    """The polynomials divided by their monic gcd."""
    g = reduce(poly_gcd, polys, Poly())
    return [p // g for p in polys] if g.degree > 0 else polys


def line_containment_conditions(f: MPoly, line: ParamLine) -> list[MPoly]:
    """Vanishing conditions for the line to lie inside the hypersurface f.

    The line is parametrized by two free coordinates; the composite is a
    binary form whose coefficients (polynomials in the parameters) must all
    vanish.  Conditions are returned primitive and deduplicated.
    """
    point = line.parametrization()
    composed = f.subs(dict(zip(PROJ_VARS, point)))
    conditions = []
    for exps, coeff in composed.coefficients_in(("a", "b")).items():
        if coeff.is_zero():
            continue
        prim = coeff.primitive()
        if prim not in conditions:
            conditions.append(prim)
    return conditions


def invariant_line(parameter: str) -> ParamLine:
    """The invariant-line family, oriented so the solved data matches the
    displayed coefficients (the family coordinate c names the line
    ``x0 = c x2, x3 = c x1``)."""
    x0, x1, x2, x3 = (MPoly.variable(v) for v in PROJ_VARS)
    c = MPoly.variable(parameter)
    return ParamLine((x0 - c * x2, x3 - c * x1), parameter)


def solve_conic_through_line(parameter: str = "s") -> dict[str, tuple[MPoly, MPoly]]:
    """Conic coefficients forced by containment of the invariant line.

    Returns each of a1..a6 as a (numerator, denominator) pair of polynomials
    in the parameter, normalized so a4 = 1.
    """
    conditions = line_containment_conditions(symbolic_conic_pullback(),
                                             invariant_line(parameter))
    names = [f"a{k}" for k in range(1, 7)]
    rows = []
    for cond in conditions:
        grouped = cond.coefficients_in(names)
        row = [grouped.get(tuple(1 if i == k else 0 for i in range(6)),
                           MPoly.constant(0)) for k in range(6)]
        const = grouped.get((0,) * 6, MPoly.constant(0))
        if not const.is_zero():
            raise ValueError("containment conditions are not linear in a1..a6")
        rows.append([_unipoly(p, parameter) for p in row])
    kernel = _poly_kernel(rows)
    if kernel is None:
        raise ValueError("containment system does not have a one-dimensional solution")
    a4 = kernel[3]
    if not a4:
        raise ValueError("cannot normalize: the solved a4 vanishes identically")
    out = {}
    for name, num in zip(names, kernel):
        # lowest terms with a monic denominator
        g = poly_gcd(num, a4)
        num, den = num // g, a4 // g
        lead = 1 / den.coeffs[-1]
        out[name] = (_mpoly(num * lead, parameter), _mpoly(den * lead, parameter))
    return out


def _poly_kernel(rows: list[list[Poly]]) -> list[Poly] | None:
    """One-dimensional kernel of a matrix with univariate polynomial entries.

    Fraction-free elimination: eliminate with cross-multiplication, keep
    entries polynomial, and read the kernel vector off the echelon form.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][col]:
                lead_r, lead_p = m[r][col], m[row][col]
                m[r] = [lead_p * m[r][c] - lead_r * m[row][c] for c in range(ncols)]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if len(free) != 1:
        return None
    j = free[0]
    vec = [Poly()] * ncols
    det = Poly.constant(1)
    for r, c in pivots:
        det = det * m[r][c]
    vec[j] = det
    for r, c in pivots:
        # m[r][c] * x_c + m[r][j] * x_j = 0, with x_j = det
        quotient, rem = divmod(-(m[r][j] * det), m[r][c])
        if rem:
            return None
        vec[c] = quotient
    return _primitive_polys(vec)


def secant_quartic(parameter: str = "s") -> MPoly:
    """The quartic surface swept by the secants meeting the invariant line,
    with the parameter denominator cleared."""
    solved = solve_conic_through_line(parameter)
    conic = []
    p = MPoly.variable(parameter)
    common = MPoly.variable(parameter)  # every denominator divides the parameter
    for k in range(1, 7):
        num, den = solved[f"a{k}"]
        quotient, rem = divmod(_unipoly(common, parameter), _unipoly(den, parameter))
        if rem:
            raise ValueError("unexpected denominator in the solved conic")
        conic.append(num * _mpoly(quotient, parameter))
    return pullback_under_quadric_map(conic)


def secant_condition_displays() -> tuple[MPoly, MPoly]:
    """The two vanishing conditions for the second line parameter t."""
    s, t = MPoly.variable("s"), MPoly.variable("t")
    first = -(t ** 4) - 4 * t * s + (s * s + 3) * t * t + s * s
    second = s + (-(s * s) - 1) * t + t * t * s
    return first, second


@dataclass(frozen=True)
class SecantLemmaReport:
    """Certificates for the invariant-line containment analysis."""

    solved_coefficients: dict[str, tuple[MPoly, MPoly]]
    quartic: MPoly
    conditions: tuple[MPoly, ...]
    conditions_match: bool         # conditions = the two display polynomials (up to sign)
    factor_identity: bool          # second condition = (s - t)(1 - s t)
    closure: bool                  # the solved line family lies in the quartic
    reciprocal_branch: MPoly       # s^4 * first condition at t = 1/s
    reciprocal_eliminated: bool    # that value is (s^2 - 1)^3 up to sign
    diagonal_checked: bool         # (s, t) = (2, 2) satisfies both conditions

    def all_verified(self) -> bool:
        return (self.conditions_match and self.factor_identity and self.closure
                and self.reciprocal_eliminated and self.diagonal_checked)

    def describe(self) -> str:
        lines = ["secant-line containment certificates:"]
        solved = ", ".join(
            f"{name} = {num}" if den == MPoly.constant(1) else f"{name} = ({num})/({den})"
            for name, (num, den) in sorted(self.solved_coefficients.items()))
        lines.append(f"  solved conic: {solved}")
        lines.append(f"  containment closure in the family parameter: {self.closure}")
        lines.append(f"  condition system matches the two displays: {self.conditions_match}")
        lines.append(f"  factorization (s - t)(1 - s*t): {self.factor_identity}")
        lines.append(f"  reciprocal branch reduces to {self.reciprocal_branch}: "
                     f"eliminated = {self.reciprocal_eliminated}")
        lines.append(f"  diagonal point (2, 2) satisfies the system: {self.diagonal_checked}")
        return "\n".join(lines)


def verify_secant_lemma() -> SecantLemmaReport:
    """Run the full containment analysis and certify each algebraic step."""
    solved = solve_conic_through_line("s")
    quartic = secant_quartic("s")
    closure = line_containment_conditions(quartic, invariant_line("s")) == []
    conditions = line_containment_conditions(quartic, invariant_line("t"))
    s, t = MPoly.variable("s"), MPoly.variable("t")
    first, second = secant_condition_displays()
    matched = {id(c) for c in conditions
               for d in (first, second) if c == d.primitive() or c == -d.primitive()}
    conditions_match = (len(conditions) == 2 and len(matched) == 2)
    factor_identity = second == (s - t) * (1 - s * t)
    # substitute t = 1/s into the first condition and clear s^4
    branch = MPoly.constant(0)
    for exps, c in first._embed(("s", "t")).terms.items():
        ds, dt = exps
        branch = branch + MPoly(("s",), {(ds - dt + 4,): c})
    reciprocal_eliminated = (branch == (s * s - 1) ** 3) or (branch == -((s * s - 1) ** 3))
    two = Fraction(2)
    diagonal = (first.evaluate({"s": two, "t": two}) == 0
                and second.evaluate({"s": two, "t": two}) == 0)
    return SecantLemmaReport(
        solved_coefficients=solved,
        quartic=quartic,
        conditions=tuple(conditions),
        conditions_match=conditions_match,
        factor_identity=factor_identity,
        closure=closure,
        reciprocal_branch=branch,
        reciprocal_eliminated=reciprocal_eliminated,
        diagonal_checked=diagonal)
