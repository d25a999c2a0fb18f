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
rule.  :func:`format_mpoly` prints graded lex over the sorted names
(Cox-Little-O'Shea, section 2.2), leading term first.

The fixed objects are written in closed form: the twisted cubic's four
components (:func:`twisted_cubic`), the point of each invariant line
(:func:`invariant_line`) and the secant conic (:func:`secant_conic`).  A
linear action maps each coordinate to the linear form read off its matrix
row (:func:`transform_poly`).  The common fixed locus of two involutions is
the union of the four intersections of their -1 and +1 eigenspaces
(:func:`common_fixed_points`): g g = 1 makes t^2 - 1, with distinct rational
roots, annihilate g, so g is diagonalizable over Q.

Nothing here crosses to :class:`divstab.ratmath.Poly`: a4 of the closed-form
conic is s, so :func:`_reduced_by_a4` reads each a_k / a4 off a_k's
coefficients in s.

The verification entry point is :func:`verify_secant_lemma`, which certifies
the whole containment story for the invariant-line family inside the secant
quartic: certifying the closed-form conic as the only one up to scale (the
containment system has rank 5 at s = 2, read off the quadric map composed
with the line, and the conic satisfies it identically in s), pulling that
conic back to the quartic, extracting the two-parameter condition system,
the factorization that forces the diagonal, and the elimination of the
reciprocal branch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from . import linalg
from .exprs import parse_expression
from .ratmath import format_terms
from .record import Record

Scalar = Union[int, Fraction]
PROJ_VARS = ("x0", "x1", "x2", "x3")
Monomial = tuple[tuple[str, int], ...]


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

        Each image's powers are formed once per call, x^e as x^(e-1)*x, a
        scalar's as scalars, and read by every monomial.
        """
        powers = {v: [x if isinstance(x, MPoly) else _exact(x)] for v, x in mapping.items()}
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


def transform_poly(g: LinearAction, f: MPoly) -> MPoly:
    """Compose f with the coordinate substitution x -> g(x): the image of
    x_i is sum_j m_ij x_j, read straight off row i of the matrix."""
    images = [MPoly._of({((v, 1),): c for v, c in zip(PROJ_VARS, row)}) for row in g.matrix]
    return f.subs(dict(zip(PROJ_VARS, images)))


def equation_character(g: LinearAction, f: MPoly) -> Fraction | None:
    """The scalar by which g multiplies the equation f, or None."""
    if f.is_zero():
        return None
    gf = transform_poly(g, f)
    key = next(iter(f.terms))
    chi = Fraction(gf.terms.get(key, 0), f.terms[key])
    return chi if (gf - f * chi).is_zero() else None


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


def _normalize_point(vec: Sequence) -> tuple[Fraction, ...]:
    lead = next(c for c in vec if c != 0)
    return tuple(Fraction(c) / lead for c in vec)


def common_fixed_points(g1: LinearAction, g2: LinearAction) -> FixedPointReport:
    """All points of projective 3-space fixed by both involutions.

    Each action must satisfy g g = 1, else :class:`ValueError`.  Then t^2 - 1,
    with the distinct rational roots -1 and 1, annihilates g, so V = ker(g - 1)
    + ker(g + 1) over Q and every eigenvector of g, over any field of
    characteristic 0, lies in one of the two.  The common fixed locus is the
    union of the four intersections ker(g1 - l1) & ker(g2 - l2), l1, l2 = -1, 1;
    the actions need not commute.
    """
    for g in (g1, g2):
        m = g.matrix
        if any(sum(m[i][k] * m[k][j] for k in range(4)) != (i == j)
               for i in range(4) for j in range(4)):
            raise ValueError("common fixed points are computed for involutions only: "
                             "each action must satisfy g g = 1")
    report_points: list[tuple[Fraction, ...]] = []
    loci: list[FixedLocus] = []
    for lam1, lam2 in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        joint = linalg.kernel(_eigen_matrix(g1.matrix, lam1) + _eigen_matrix(g2.matrix, lam2), 4)
        if len(joint) == 1:
            report_points.append(_normalize_point(joint[0]))
        elif joint:
            loci.append(FixedLocus((Fraction(lam1), Fraction(lam2)), len(joint) - 1,
                                   tuple(_normalize_point(v) for v in joint)))
    return FixedPointReport(tuple(report_points), tuple(loci))


def _eigen_matrix(m, lam: int):
    return [[m[i][j] - (lam if i == j else 0) for j in range(4)] for i in range(4)]


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
    x, y, z = quadric_map_components()
    basis = (x * x, x * y, x * z, y * y, y * z, z * z)
    return sum((c * monomial for c, monomial in zip(conic, basis)), MPoly.constant(0))


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


def _containment_rank(value: int) -> int:
    """The rank of the containment conditions on a1..a6 for the invariant
    line at the family coordinate ``value``, the point ``[value a : b : a : value b]``:
    the quadric map sends it to (X, Y, Z), binary quadrics in a and b, and each
    monomial in a, b of a1 X^2 + ... + a6 Z^2 gives one condition."""
    point = dict(zip(PROJ_VARS, (p.subs({"c": value}) for p in invariant_line("c"))))
    x, y, z = (q.subs(point) for q in quadric_map_components())
    monomials = (x * x, x * y, x * z, y * y, y * z, z * z)
    keys = sorted(set().union(*(m.terms for m in monomials)))
    return linalg.rank([[m.terms.get(k, 0) for m in monomials] for k in keys])


def secant_conic(parameter: str) -> list[MPoly]:
    """Coefficients a1..a6 of the conic whose pullback contains the invariant
    line in ``parameter``, in closed form and scaled so that a4 is monic:
    ``(-1, 0, 0, s, s^2 + 1, s)``.

    It is the only such conic up to scale.  The containment system has rank 5
    at s = 2, and its rank over Q(s) is at least its rank at any value of s,
    so its kernel over Q(s) is one-dimensional; :func:`verify_secant_lemma`
    checks that this conic lies in it (its ``closure``).
    """
    if _containment_rank(2) != 5:
        raise ValueError("containment system does not have a one-dimensional solution")
    s = MPoly.variable(parameter)
    return [MPoly.constant(-1), MPoly.constant(0), MPoly.constant(0), s, s * s + 1, s]


def _reduced_by_a4(conic: Sequence[MPoly], parameter: str) -> dict[str, tuple[MPoly, MPoly]]:
    """Each a_k / a4 in lowest terms with a monic denominator: a4 is the
    parameter s, so (a_k / s, 1) when s divides a_k, 0 included, else (a_k, s)."""
    s = MPoly.variable(parameter)
    if conic[3] != s:
        raise ValueError(f"a4 = {conic[3]} is not {parameter}")
    out = {}
    for k, a in enumerate(conic, start=1):
        coeffs = a.coefficients_in((parameter,))
        out[f"a{k}"] = ((a, s) if (0,) in coeffs else
                        (sum((c * s ** (e - 1) for (e,), c in coeffs.items()), MPoly.constant(0)),
                         MPoly.constant(1)))
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
    """Run the full containment analysis and certify each algebraic step: one
    containment rank certifies the conic, and every check reads its one pullback."""
    point = invariant_line("s")
    conic = secant_conic("s")
    solved = _reduced_by_a4(conic, "s")
    quartic = pullback_under_quadric_map(conic)
    # with the rank check in secant_conic, closure makes the conic the kernel
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
    diagonal = all(d.subs({"s": 2, "t": 2}).is_zero() for d in (first, second))
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
