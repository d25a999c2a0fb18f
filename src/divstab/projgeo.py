"""Exact multivariate polynomial geometry over the rationals.

Polynomials live in a sparse ring over the rationals whose variables are the
projective coordinates ``x0..x3`` together with whatever parameters a
computation needs (``s``, ``t``, the conic coefficients ``a1..a6``, and the
letters ``x, y`` of the twisted cubic and ``a, b`` of a line).  Homogeneity
is a property of the x-block only.  Everything is exact and rational: a
float never enters, as a coefficient, a matrix entry or a substituted value,
and :class:`TypeError` says so.

An :class:`MPoly` has one canonical form: ``terms`` maps each monomial, the
name-sorted tuple of its ``(name, exponent)`` pairs with exponent > 0, to a
nonzero coefficient that is an ``int`` when integral and otherwise a
Fraction with denominator > 1, so equal polynomials have equal ``terms``, no
operation aligns variable lists, and the arithmetic of integral coefficients
runs on Python ints.  :class:`LinearAction` stores its matrix by the same
rule, and :func:`_char_poly` clears its denominators to run over the ints.
:func:`format_mpoly` prints graded lex over the sorted names
(Cox-Little-O'Shea, section 2.2), leading term first.

The fixed objects are written in closed form: the twisted cubic's four
components (:func:`twisted_cubic`) and the point of each invariant line
(:func:`invariant_line`).

Two polynomial types meet here, and both stay.  :class:`MPoly` has no
division, gcd or root finding; :class:`divstab.ratmath.Poly` is the
package's one univariate toolkit and has all three.  :func:`_unipoly` and
:func:`_mpoly` are the only crossings, confined to the secant-conic steps:
the kernel over Q[s] of the containment conditions on a conic
(:func:`_poly_kernel`, which normalizes the kernel basis that the package's
one fraction-free elimination, :func:`divstab.linalg.kernel`, returns) and
the reduction of each a_k / a4 (:func:`_reduced_by_a4`).  Giving MPoly these
operations would be a second copy of Poly's.

The verification entry point is :func:`verify_secant_lemma`, which certifies
the whole containment story for the invariant-line family inside the secant
quartic: solving the conic coefficients once, pulling that conic back to the
quartic, extracting the two-parameter condition system, the factorization
that forces the diagonal, and the elimination of the reciprocal branch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .exprs import parse_expression
from .ratmath import Poly, format_terms, poly_gcd, rational_roots
from .record import Record

Scalar = Union[int, Fraction]
PROJ_VARS = ("x0", "x1", "x2", "x3")
Monomial = tuple[tuple[str, int], ...]


class IrrationalEigenvalueError(ArithmeticError):
    """A linear action has eigenvalues outside the rationals."""


def _exact(c) -> Scalar:
    """An exact scalar in canonical form: an int when integral, otherwise a
    Fraction with denominator > 1.  Anything else, a float included, raises
    :class:`TypeError`, as :mod:`divstab.ratmath` does."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an exact scalar, got {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def _lift(x) -> "MPoly | None":
    """An MPoly, or an exact scalar as a constant MPoly; None for anything else."""
    if isinstance(x, MPoly):
        return x
    return MPoly.constant(x) if isinstance(x, (int, Fraction)) else None


class MPoly:
    """Sparse multivariate polynomial over the rationals with named variables.

    ``terms`` maps each monomial to its nonzero coefficient, an ``int`` when
    integral and otherwise a Fraction with denominator > 1.  A monomial is
    the tuple of its ``(name, exponent)`` pairs, exponent > 0, sorted by
    name, so the constant monomial is ``()`` and ``x0^2*s`` is
    ``(("s", 1), ("x0", 2))``.  A constant equals and hashes as its Fraction.
    Arithmetic takes MPoly, int and Fraction operands; any other operand,
    a float included, is a :class:`TypeError`.
    """

    __slots__ = ("terms",)

    def __init__(self, variables: Iterable[str],
                 terms: Mapping[tuple[int, ...], Scalar] = ()):
        """From exponent tuples over ``variables``, e.g. ``MPoly(("x", "y"), {(2, 1): 3})``
        for 3*x^2*y.  Each exponent must be a nonnegative int."""
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        out: dict[Monomial, Scalar] = {}
        for exps, c in dict(terms).items():
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            mono = tuple(sorted((v, int(e)) for v, e in zip(variables, exps, strict=True) if e))
            out[mono] = out.get(mono, 0) + _exact(c)
        object.__setattr__(self, "terms", MPoly._of(out).terms)

    @classmethod
    def _of(cls, terms: Mapping[Monomial, Scalar]) -> "MPoly":
        """The polynomial with these terms, zero coefficients dropped and
        integral Fractions stored as ints."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", {m: c.numerator if c.denominator == 1 else c
                                        for m, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "MPoly":
        return cls._of({(): _exact(value)})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return cls._of({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its Fraction, which it equals
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return MPoly._of({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MPoly._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _lift(other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly._of({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _monomial_product(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return MPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def subs(self, mapping: Mapping[str, Union["MPoly", Scalar]]) -> "MPoly":
        """Substitute polynomials (or exact scalars) for variables.

        Each image's powers are formed once per call, x^e as x^(e-1)*x, and
        read by every monomial.
        """
        powers = {v: [x if isinstance(x, MPoly) else MPoly.constant(x)]
                  for v, x in mapping.items()}
        out: dict[Monomial, Scalar] = {}
        for mono, c in self.terms.items():
            term = MPoly._of({tuple(p for p in mono if p[0] not in powers): c})
            for v, e in mono:
                table = powers.get(v)
                if table is not None:
                    while len(table) < e:
                        table.append(table[-1] * table[0])
                    term = term * table[e - 1]
            for m, tc in term.terms.items():
                out[m] = out.get(m, 0) + tc
        return MPoly._of(out)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            for v, e in mono:
                if v not in values:
                    raise KeyError(f"no value supplied for {v}")
                c = c * _exact(values[v]) ** e
            total += c
        return total

    def coefficients_in(self, names: Sequence[str]) -> dict[tuple[int, ...], "MPoly"]:
        """Collect coefficients of monomials in the given variables, keyed by
        their exponent tuples over ``names``."""
        order = {v: j for j, v in enumerate(names)}
        grouped: dict[tuple[int, ...], dict[Monomial, Scalar]] = {}
        for mono, c in self.terms.items():
            key = [0] * len(names)
            for v, e in mono:
                if v in order:
                    key[order[v]] = e
            rest = tuple(p for p in mono if p[0] not in order)
            grouped.setdefault(tuple(key), {})[rest] = c
        return {k: MPoly._of(inner) for k, inner in grouped.items()}

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        coeffs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in coeffs)),
                        lcm(*(c.denominator for c in coeffs)))

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


def _monomial_product(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return a or b
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _degree(mono: Monomial, names: Sequence[str]) -> int:
    return sum(e for v, e in mono if v in names)


def _sorted_names(p: MPoly) -> list[str]:
    return sorted({v for mono in p.terms for v, _ in mono})


def _exponents(mono: Monomial, names: Sequence[str]) -> tuple[int, ...]:
    exps = dict(mono)
    return tuple(exps.get(v, 0) for v in names)


def _leading_key(p: MPoly) -> Monomial:
    """The graded-lex largest monomial over the sorted names, which
    :func:`format_mpoly` prints first."""
    names = _sorted_names(p)
    return max(p.terms, key=lambda m: (_degree(m, names), _exponents(m, names)))


def format_mpoly(p: MPoly) -> str:
    names = _sorted_names(p)
    return format_terms(((_exponents(m, names), c) for m, c in p.terms.items()), names)


def parse_mpoly(text: str) -> MPoly:
    """Parse a polynomial in the grammar of :mod:`divstab.exprs`; every name is a variable.

    Errors are :class:`divstab.exprs.ExprSyntaxError`.
    """
    value = parse_expression(text, lambda name, at: MPoly.variable(name))
    return value if isinstance(value, MPoly) else MPoly.constant(value)


def twisted_cubic() -> tuple[MPoly, MPoly, MPoly, MPoly]:
    """The components of the degree-3 rational normal curve
    [x:y] -> [x^3 : x^2 y : x y^2 : y^3], binary cubic forms with no
    common factor."""
    x, y = MPoly.variable("x"), MPoly.variable("y")
    return (x ** 3, x ** 2 * y, x * y ** 2, y ** 3)


def contains_param_curve(f: MPoly, components: Sequence[MPoly]) -> bool:
    """Is f composed with the curve's four components the zero polynomial?"""
    return f.subs(dict(zip(PROJ_VARS, components))).is_zero()


class LinearAction(Record):
    """An invertible 4x4 rational matrix acting on projective coordinates,
    its entries canonical as in :class:`MPoly`: int when integral, else
    Fraction."""

    matrix: tuple[tuple[Scalar, ...], ...]

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        m = tuple(tuple(_exact(x) for x in row) for row in rows)
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("need a 4x4 matrix")
        if linalg.rank(m) < 4:
            raise ValueError("action matrix must be invertible")
        object.__setattr__(self, "matrix", m)

    def apply(self, point: Sequence) -> list:
        return [sum((row[j] * point[j] for j in range(4)),
                    start=point[0] * 0) for row in self.matrix]


def transform_poly(g: LinearAction, f: MPoly) -> MPoly:
    """Compose f with the coordinate substitution x -> g(x)."""
    images = g.apply([MPoly.variable(v) for v in PROJ_VARS])
    return f.subs(dict(zip(PROJ_VARS, images)))


def equation_character(g: LinearAction, f: MPoly) -> Fraction | None:
    """The scalar by which g multiplies the equation f, or None."""
    gf = transform_poly(g, f)
    if f.is_zero():
        return None
    key = next(iter(f.terms))
    chi = Fraction(gf.terms.get(key, 0), f.terms[key])
    return chi if (gf - f * chi).is_zero() else None


def _char_poly(m) -> Poly:
    """det(t I - M) as a one-row :class:`Poly`, for a square rational M.

    Faddeev-LeVerrier runs on the integer matrix A = D M, D the lcm of the
    denominators of M: A_k = A (A_{k-1} + c_{k-1} I) and c_k = -tr(A_k) / k,
    an exact integer division since det(t I - A) = sum c_k t^(n-k) has
    integer coefficients.  Then det(t I - M) = sum (c_k / D^k) t^(n-k).
    """
    n = len(m)
    d = lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m]
    coeffs = [1] + [0] * n
    ak = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        shifted = [[ak[i][j] + (coeffs[k - 1] if i == j else 0) for j in range(n)]
                   for i in range(n)]
        ak = [[sum(a[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs[k] = -sum(ak[i][i] for i in range(n)) // k
    return Poly([[Fraction(coeffs[k], d ** k) for k in range(n, -1, -1)]])


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


class FixedLocus(Record):
    """A positive-dimensional common eigenspace, recorded by a basis."""

    eigenvalues: tuple[Fraction, Fraction]
    dimension: int                      # projective dimension
    basis: tuple[tuple[Fraction, ...], ...]


class FixedPointReport(Record):
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
    spaces2 = [(lam2, _eigen_matrix(g2.matrix, lam2))
               for lam2 in _rational_eigenvalues(g2.matrix)]
    for lam1 in _rational_eigenvalues(g1.matrix):
        space1 = _eigen_matrix(g1.matrix, lam1)
        for lam2, space2 in spaces2:
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
    return [[_exact(m[i][j] - (lam if i == j else 0)) for j in range(4)] for i in range(4)]


def _check_projective_commute(g1: LinearAction, g2: LinearAction) -> None:
    m1, m2 = g1.matrix, g2.matrix
    a, b = ([sum(p[i][k] * q[k][j] for k in range(4)) for i in range(4) for j in range(4)]
            for p, q in ((m1, m2), (m2, m1)))
    # both actions are invertible, so m2 m1 has a nonzero entry
    ratio = next(Fraction(x, y) for x, y in zip(a, b) if y)
    if any(x != ratio * y for x, y in zip(a, b)):
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
    return sum((c * monomial for c, monomial in zip(conic, basis)), MPoly.constant(0))


def symbolic_conic_pullback() -> MPoly:
    return pullback_under_quadric_map([MPoly.variable(f"a{k}") for k in range(1, 7)])


def _linear_coefficients(p: MPoly, names: Sequence[str]) -> list[MPoly]:
    """The coefficient of each of ``names`` in p, which must be homogeneous
    linear in them: any monomial of another degree in ``names`` raises
    :class:`ValueError`."""
    rows: dict[str, dict[Monomial, Scalar]] = {v: {} for v in names}
    for mono, c in p.terms.items():
        picked = [pair for pair in mono if pair[0] in rows]
        if len(picked) != 1 or picked[0][1] != 1:
            raise ValueError(f"{p} is not homogeneous linear in {names[0]}..{names[-1]}")
        rows[picked[0][0]][tuple(pair for pair in mono if pair != picked[0])] = c
    return [MPoly._of(rows[v]) for v in names]


def line_containment_conditions(f: MPoly, point: Sequence[MPoly]) -> list[MPoly]:
    """Vanishing conditions for the line to lie inside the hypersurface f.

    The line is given by its point in the two free coordinates a and b, as
    :func:`invariant_line` returns it; the composite is a binary form in a
    and b whose coefficients (polynomials in the parameters) must all
    vanish.  Conditions are returned primitive and deduplicated.
    """
    composed = f.subs(dict(zip(PROJ_VARS, point)))
    conditions = []
    for exps, coeff in composed.coefficients_in(("a", "b")).items():
        if coeff.is_zero():
            continue
        prim = coeff.primitive()
        if prim not in conditions:
            conditions.append(prim)
    return conditions


def invariant_line(parameter: str) -> list[MPoly]:
    """The point ``[c a : b : a : c b]`` of the invariant line
    ``x0 = c x2, x3 = c x1``, c the family coordinate named ``parameter``
    and a, b the free coordinates x2, x1."""
    a, b, c = MPoly.variable("a"), MPoly.variable("b"), MPoly.variable(parameter)
    return [c * a, b, a, c * b]


def _unipoly(p: MPoly, var: str) -> Poly:
    """A polynomial in the single variable ``var``, as a one-row :class:`Poly`."""
    coeffs: dict[int, Fraction] = {}
    for mono, c in p.terms.items():
        if any(v != var for v, _ in mono):
            raise ValueError(f"{p} is not univariate in {var}")
        coeffs[mono[0][1] if mono else 0] = c
    return Poly([[coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=0) + 1)]])


def _mpoly(p: Poly, var: str) -> MPoly:
    """The inverse of :func:`_unipoly`."""
    return MPoly._of({((var, k),) if k else (): c for k, c in enumerate(p.coeffs)})


def _poly_kernel(rows: list[list[Poly]], ncols: int) -> list[list[Poly]]:
    """A normalized basis of the kernel of a matrix with univariate polynomial entries.

    Each :func:`linalg.kernel` vector is divided by the monic gcd of its
    entries, scaled to integer content 1, and signed so that its first
    nonzero entry has a positive leading coefficient.
    """
    basis = []
    for vec in linalg.kernel(rows, ncols):
        vec = [Poly.of(x) for x in vec]
        g = reduce(poly_gcd, vec)
        vec = [p // g for p in vec]
        coeffs = [c for p in vec for c in p.coeffs]
        scale = Fraction(lcm(*(c.denominator for c in coeffs)),
                         gcd(*(c.numerator for c in coeffs)))
        if next(p for p in vec if p).coeffs[-1] < 0:
            scale = -scale
        basis.append([p * scale for p in vec])
    return basis


def _secant_conic(point: Sequence[MPoly], parameter: str) -> list[Poly]:
    """Coefficients a1..a6 of the conic whose pullback contains the invariant
    line, given as its parametrized ``point`` in ``parameter``: the one kernel
    vector of the containment system, scaled so that a4 is monic."""
    conditions = line_containment_conditions(symbolic_conic_pullback(), point)
    names = [f"a{k}" for k in range(1, 7)]
    rows = [[_unipoly(p, parameter) for p in _linear_coefficients(cond, names)]
            for cond in conditions]
    kernel = _poly_kernel(rows, 6)
    if len(kernel) != 1:
        raise ValueError("containment system does not have a one-dimensional solution")
    conic = kernel[0]
    if not conic[3]:
        raise ValueError("cannot normalize: the solved a4 vanishes identically")
    return [p * (1 / conic[3].coeffs[-1]) for p in conic]


def _reduced_by_a4(conic: list[Poly], parameter: str) -> dict[str, tuple[MPoly, MPoly]]:
    """Each a_k / a4 in lowest terms with a monic denominator."""
    out = {}
    for k, num in enumerate(conic, start=1):
        g = poly_gcd(num, conic[3])
        num, den = num // g, conic[3] // g
        lead = 1 / den.coeffs[-1]
        out[f"a{k}"] = (_mpoly(num * lead, parameter), _mpoly(den * lead, parameter))
    return out


def secant_condition_displays() -> tuple[MPoly, MPoly]:
    """The two vanishing conditions for the second line parameter t."""
    s, t = MPoly.variable("s"), MPoly.variable("t")
    first = -(t ** 4) - 4 * t * s + (s * s + 3) * t * t + s * s
    second = s + (-(s * s) - 1) * t + t * t * s
    return first, second


class SecantLemmaReport(Record):
    """Certificates for the invariant-line containment analysis."""

    solved_coefficients: dict[str, tuple[MPoly, MPoly]]  # a_k / a4 as (num, den) in s
    quartic: MPoly                 # pullback of the solved conic, no common factor in s
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
            f"{name} = {num}" if den == 1 else f"{name} = ({num})/({den})"
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
    point = invariant_line("s")
    conic = _secant_conic(point, "s")
    solved = _reduced_by_a4(conic, "s")
    quartic = pullback_under_quadric_map([_mpoly(p, "s") for p in conic])
    closure = line_containment_conditions(quartic, point) == []
    conditions = line_containment_conditions(quartic, invariant_line("t"))
    s, t = MPoly.variable("s"), MPoly.variable("t")
    first, second = secant_condition_displays()
    # primitive parts are canonical up to sign, so a match up to sign is equality
    conditions_match = (len(conditions) == 2
                        and all(d.primitive() in conditions for d in (first, second)))
    factor_identity = second == (s - t) * (1 - s * t)
    # substitute t = 1/s into the first condition and clear s^4
    branch = MPoly.constant(0)
    for mono, c in first.terms.items():
        ds, dt = _exponents(mono, ("s", "t"))
        branch = branch + MPoly(("s",), {(ds - dt + 4,): c})
    reciprocal_eliminated = branch in ((s * s - 1) ** 3, -((s * s - 1) ** 3))
    diagonal = all(d.evaluate({"s": 2, "t": 2}) == 0 for d in (first, second))
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
