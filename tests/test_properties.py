"""Property tests: the polynomial ring and its integer representation against
a Fraction-dict reference; projgeo's multivariate ring against evaluation
and its canonical form; the shared parser, the class canonical form, the
trilinear form against its permutation expansion, the cones' two
representations (generators and facets) against support enumeration and a
rational null-space derivation of the facets, the fraction-free elimination
against a Gauss-Jordan that divides by each pivot, and the chamber walk
along a ray against the pointwise Zariski decomposition.

Needs ``hypothesis`` (test-only; skipped where it is not installed).  Runs
are derandomized and keep no example database, so results are repeatable.
"""

import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from divstab import cones as cones_module, linalg  # noqa: E402
from divstab.cones import (ConeSpec, Decomposition, Infeasible,  # noqa: E402
                           UnboundedThresholdError, effective_decompose,
                           feasible_interval, pseudoeffective_threshold)
from divstab.exprs import parse_divisor_expr, parse_poly  # noqa: E402
from divstab.lattice import (DivisorClass, LatticeBasis, ThreefoldForm,  # noqa: E402
                             surface_pair, triple_product)
from divstab.projgeo import MPoly, format_mpoly, parse_mpoly  # noqa: E402
from divstab.ratmath import IrrationalBreakpointError, Poly, format_poly  # noqa: E402
from divstab.scenario import load_bundled_scenario  # noqa: E402
from divstab.zariski import v_sweep, zariski_decompose  # noqa: E402
from oracles import (effective_decompose_oracle, h_representation_oracle,  # noqa: E402
                     named_functional, null_space_oracle, recombine, solve_unique_oracle,
                     subs_v_poly, threshold_oracle, triple_product_oracle)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
U, V = Poly.variable("u"), Poly.variable("v")
BASIS = LatticeBasis(["H", "EC", "EL"])

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
scalars = st.one_of(fractions, st.integers(-5, 5))
tables = st.lists(st.lists(fractions, max_size=3), max_size=3)
polys = tables.map(Poly)
coeffs = st.one_of(fractions, polys)
MPOLY_VARS = ("x0", "x1", "s")
mpoly_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), fractions, max_size=5)
mpolys = mpoly_terms.map(lambda terms: MPoly(MPOLY_VARS, terms))


@SETTINGS
@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a and a * 0 == 0
    assert -(a - b) == b - a


@SETTINGS
@given(polys, polys, scalars)
def test_poly_scalar_operands(a, b, q):
    """int and Fraction operands act as the constant polynomial, on either side."""
    p = Poly.of(q)
    assert a + q == q + a == a + p
    assert a - q == a - p and q - a == p - a
    assert a * q == q * a == a * p
    assert (a + q) * b == a * b + q * b


@SETTINGS
@given(polys, polys, fractions, fractions)
def test_poly_evaluation_is_a_ring_map(a, b, x, y):
    mixed = a * U + b * V
    assert (a * b)(x, y) == a(x, y) * b(x, y)
    assert (a + b)(x, y) == a(x, y) + b(x, y)
    assert mixed(x, y) == a(x, y) * x + b(x, y) * y
    assert a.subs_u(x).subs_v(y) == a.subs_v(y).subs_u(x) == a(x, y)


def _reference(table) -> dict:
    """A polynomial as {(i, j): nonzero Fraction coefficient of u^i v^j}."""
    return {(i, j): F(c) for i, row in enumerate(table) for j, c in enumerate(row) if c}


def _ref_of(p: Poly) -> dict:
    return {(i, j): F(c, p.den) for i, row in enumerate(p.num) for j, c in enumerate(row) if c}


def _ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
    return {k: c for k, c in out.items() if c}


def _ref_at(a: dict, x, y) -> F:
    return sum((c * F(x) ** i * F(y) ** j for (i, j), c in a.items()), F(0))


@SETTINGS
@given(tables, tables, fractions, fractions)
def test_integer_poly_matches_the_fraction_reference(ta, tb, x, y):
    a, b = Poly(ta), Poly(tb)
    ra, rb = _reference(ta), _reference(tb)
    assert _ref_of(a) == ra
    assert _ref_of(a + b) == _ref_add(ra, rb)
    assert _ref_of(a - b) == _ref_add(ra, rb, -1)
    assert _ref_of(a * b) == _ref_mul(ra, rb)
    assert _ref_of(a * x) == _ref_mul(ra, _reference([[x]]))
    assert a(x, y) == _ref_at(ra, x, y)
    at_u: dict = {}
    at_v: dict = {}
    for (i, j), c in ra.items():
        at_u = _ref_add(at_u, {(0, j): c * x ** i})
        at_v = _ref_add(at_v, {(i, 0): c * y ** j})
    assert _ref_of(a.subs_u(x)) == at_u
    assert _ref_of(a.subs_v(y)) == at_v
    composed: dict = {}
    for (i, j), c in ra.items():
        term = {(i, 0): c}
        for _ in range(j):
            term = _ref_mul(term, rb)
        composed = _ref_add(composed, term)
    assert _ref_of(subs_v_poly(a, b)) == composed
    assert a.rows == tuple(tuple(ra.get((i, j), 0) for j in range(len(row)))
                           for i, row in enumerate(a.num))
    assert all(type(c) is F for row in a.rows for c in row)


@SETTINGS
@given(st.lists(fractions, max_size=4), st.sampled_from("uv"), fractions)
def test_coeffs_and_evaluation_along_one_variable(cs, var, x):
    p = sum((c * Poly.variable(var) ** k for k, c in enumerate(cs)), Poly())
    trimmed = list(cs)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert p.coeffs == tuple(trimmed) and all(type(c) is F for c in p.coeffs)
    assert p(x) == sum((c * x ** k for k, c in enumerate(cs)), F(0))


@SETTINGS
@given(polys, polys, scalars)
def test_poly_canonical_form(a, b, q):
    """Rows trimmed, den > 0 and coprime to the numerators: equal values are equal data."""
    for p in (a, b, a * b, a + b, a * q):
        assert p.den > 0 and math.gcd(p.den, *(c for row in p.num for c in row)) == 1
        assert all(row[-1] for row in p.num if row) and (not p.num or p.num[-1])
        assert type(p.den) is int and all(type(c) is int for row in p.num for c in row)
    for same in ((a + b) - b, a * 2 * F(1, 2), Poly(a.rows), -(-a)):
        assert (same.num, same.den) == (a.num, a.den) and hash(same) == hash(a)
    assert (Poly().num, Poly().den) == ((), 1)
    assert Poly.of(q) == q and hash(Poly.of(q)) == hash(q) == hash(Poly.of(q) + b - b)


@SETTINGS
@given(polys)
def test_parse_poly_inverts_format_poly(p):
    assert parse_poly(format_poly(p)) == p


@SETTINGS
@given(mpolys)
def test_parse_mpoly_inverts_format_mpoly(p):
    assert parse_mpoly(format_mpoly(p)) == p


@SETTINGS
@given(mpoly_terms, mpolys, mpolys, st.permutations(MPOLY_VARS),
       st.lists(fractions, min_size=3, max_size=3))
def test_mpoly_ring_laws_and_canonical_form(terms, b, c, order, point):
    """Ring laws; substitution at a rational point is a ring map; the same
    polynomial built over permuted variables is equal, hashes equally and
    prints the same; a primitive part prints with a positive first term."""
    a = MPoly(MPOLY_VARS, terms)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0 and a + 0 == a and a * 1 == a and (a * 0).is_zero()
    at = dict(zip(MPOLY_VARS, point))
    assert (a + b).subs(at) == a.subs(at) + b.subs(at)
    assert (a - b).subs(at) == a.subs(at) - b.subs(at)
    assert (a * b).subs(at) == a.subs(at) * b.subs(at)
    assert all(p.subs(at).terms.keys() <= {()} for p in (a, b, c))  # a rational each
    picks = [MPOLY_VARS.index(v) for v in order]
    same = MPoly(order, {tuple(e[i] for i in picks): x for e, x in terms.items()})
    assert same == a and hash(same) == hash(a) and str(same) == str(a)
    assert str(b * a) == str(a * b)
    if not a.is_zero():
        assert not str(a.primitive()).startswith("-")
        assert a.primitive() * a.content() in (a, -a)


@SETTINGS
@given(st.lists(coeffs, min_size=3, max_size=3), polys)
def test_divisor_class_canonical_form(cs, noise):
    """Constants are stored as Fractions, and equal classes hash equally."""
    d = DivisorClass(BASIS, cs)
    for c in d.coeffs:
        assert type(c) is F or (type(c) is Poly and not c.is_constant())
    assert d.rational == all(type(c) is F for c in d.coeffs)
    # the same class, built from coefficients of other kinds
    same = DivisorClass(BASIS, [Poly.of(c) + noise - noise for c in cs])
    assert same == d and hash(same) == hash(d)
    assert same.coeffs == d.coeffs
    assert parse_divisor_expr(str(d), BASIS) == d


triples = st.tuples(*[st.sampled_from(BASIS.names)] * 3).map(lambda t: tuple(sorted(t)))
forms = st.dictionaries(triples, fractions, max_size=6).map(
    lambda entries: ThreefoldForm(BASIS, entries))
classes = st.lists(coeffs, min_size=3, max_size=3).map(lambda cs: DivisorClass(BASIS, cs))


@SETTINGS
@given(forms, classes, classes, classes)
def test_triple_product_matches_the_permutation_expansion(form, a, b, c):
    """Equal first classes (the cube, P^2.Y) and distinct ones alike."""
    for d1, d2, d3 in ((a, a, a), (a, DivisorClass(BASIS, a.coeffs), a), (a, a, b),
                       (a, b, a), (a, b, c)):
        value = triple_product(d1, d2, d3, form)
        expected = triple_product_oracle(d1, d2, d3, form)
        assert value == expected and type(value) is type(expected)


@st.composite
def cones(draw):
    """An integer cone of rank 2-4 with 1-6 generators.

    Few generators give lower-dimensional cones; a mirrored generator makes
    the cone contain a line, so it is not pointed.
    """
    rank = draw(st.integers(2, 4))
    basis = LatticeBasis([f"x{i}" for i in range(rank)])
    vectors = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    gens = draw(st.lists(vectors, min_size=1, max_size=6))
    if len(gens) < 6 and draw(st.booleans()):
        gens.append([-c for c in gens[0]])
    return ConeSpec([(f"g{k}", DivisorClass(basis, g)) for k, g in enumerate(gens)])


@st.composite
def cones_and_classes(draw, count):
    """A cone and classes near it: a generator combination plus small noise."""
    cone = draw(cones())
    rank = cone.basis.rank
    out = []
    for _ in range(count):
        weights = draw(st.lists(st.integers(0, 2), min_size=len(cone.generators),
                                   max_size=len(cone.generators)))
        noise = draw(st.one_of(st.just([0] * rank),
                               st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
        cls = DivisorClass(cone.basis, noise)
        for w, g in zip(weights, cone.generators):
            cls = cls + g.scale(w)
        out.append(cls)
    return cone, out


def _dot(f, cls):
    return sum(a * b for a, b in zip(f, cls.coeffs))


def _violated(cone, cls) -> bool:
    return (any(_dot(e, cls) != 0 for e in cone.equalities)
            or any(_dot(f, cls) < 0 for f in cone.facets))


@SETTINGS
@given(cones_and_classes(1))
def test_decomposition_exists_iff_no_facet_is_violated(case):
    cone, (cls,) = case
    for f in cone.facets:
        assert all(type(c) is int for c in f)
        assert all(_dot(f, g) >= 0 for g in cone.generators)
    assert all(_dot(e, g) == 0 for e in cone.equalities for g in cone.generators)
    outcome = effective_decompose(cls, cone)
    # existence decided independently of the facets: supports enumerated first
    exists = isinstance(effective_decompose_oracle(cls, cone), Decomposition)
    assert isinstance(outcome, Decomposition) == exists == (not _violated(cone, cls))
    if isinstance(outcome, Decomposition):
        assert recombine(outcome) == cls and min(outcome.coefficients) >= 0
    else:
        assert isinstance(outcome, Infeasible)
        assert all(_dot(outcome.witness, g) >= 0 for g in cone.generators)
        assert _dot(outcome.witness, cls) < 0
        named = named_functional(outcome.witness, cone.basis.names)
        assert f"functional {named}" in outcome.detail


@st.composite
def generator_lists(draw):
    """Integer generators of rank 2-5, 1-8 of them: few give lower-dimensional
    cones, a shared zero coordinate gives one inside a hyperplane, and a
    repeated or a parallel generator gives the same cone twice over."""
    rank = draw(st.integers(2, 5))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                         min_size=1, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        zero = draw(st.integers(0, rank - 1))
        gens = [[0 if i == zero else c for i, c in enumerate(g)] for g in gens]
    extra = draw(st.sampled_from([None, 1, 2, 3]))
    if extra is not None and len(gens) < 8:
        source = draw(st.sampled_from(gens))
        gens.append([extra * c for c in source])
    return rank, tuple(tuple(F(c) for c in g) for g in gens)


@settings(SETTINGS, max_examples=300)
@given(generator_lists())
def test_integer_facets_match_the_null_space_derivation(case):
    """The integer-kernel H-representation is the rational null-space one:
    the same equalities, and the same facets in the same order and sign."""
    rank, vectors = case
    assert cones_module._h_representation(rank, vectors) == h_representation_oracle(rank, vectors)


@st.composite
def exact_systems(draw):
    """An int or Fraction matrix of 0-6 rows and 1-6 columns, often rank
    deficient (a zero row, or a row that is a combination of two others),
    with a right-hand side of scalars or polynomials: M x for a drawn x
    about half the time, so that consistent systems occur."""
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-3, 3) if draw(st.booleans()) else st.one_of(
        st.just(F(0)), fractions)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    if rows and len(rows) < 6:
        k = draw(st.integers(0, 2))
        if k == 0:
            rows.append([0] * ncols)
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([k * x - y for x, y in zip(a, b)])
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        x = draw(st.lists(coeffs, min_size=ncols, max_size=ncols))
        rhs = [sum((c * xj for c, xj in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.one_of(fractions, polys), min_size=len(rows),
                            max_size=len(rows)))
    return rows, ncols, rhs


@st.composite
def poly_matrices(draw):
    """Up to 4 rows and 1-4 columns of polynomials in u of degree <= 2, with
    integer coefficients; a row may be u times one row minus another."""
    width = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2, 2), max_size=3).map(lambda cs: Poly([[c] for c in cs]))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=4))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows[-1] = [U * x - y for x, y in zip(a, b)]
    return rows, width


@settings(SETTINGS, max_examples=300)
@given(exact_systems(), poly_matrices())
def test_fraction_free_elimination_matches_gauss_jordan(system, poly_system):
    """kernel, each vector divided by its last nonzero entry, rank and
    solve_unique agree with a Gauss-Jordan that divides by each pivot: the
    same vectors in the same order, None in the same cases; and kernel on
    polynomial matrices is annihilated and has one vector per free column."""
    rows, ncols, rhs = system
    null = null_space_oracle(rows)
    if rows:
        assert [[F(x) / next(c for c in reversed(vec) if c) for x in vec]
                for vec in linalg.kernel(rows, ncols)] == null
    assert linalg.rank(rows) == (ncols - len(null) if rows else 0)
    assert linalg.solve_unique(rows, rhs) == solve_unique_oracle(rows, rhs)
    # the rank over Q(u) is the largest rank at 13 points: a nonzero minor
    # here has degree <= 12
    matrix, width = poly_system
    basis = linalg.kernel(matrix, width)
    generic = max(width - len(null_space_oracle([[p(F(x)) for p in row] for row in matrix]))
                  if matrix else 0 for x in range(-6, 7))
    assert len(basis) == width - generic
    for vec in basis:
        assert any(vec)
        for row in matrix:
            assert sum((p * c for p, c in zip(row, vec)), Poly()) == 0


def _threshold_outcome(threshold, a, b, cone):
    try:
        return threshold(a, b, cone)
    except UnboundedThresholdError:
        return "unbounded"
    except ValueError:
        return "outside at u = 0"


@SETTINGS
@given(cones_and_classes(2))
def test_threshold_matches_the_support_enumeration_oracle(case):
    cone, (a, b) = case
    assert (_threshold_outcome(pseudoeffective_threshold, a, b, cone)
            == _threshold_outcome(threshold_oracle, a, b, cone))


@SETTINGS
@given(cones_and_classes(2), fractions)
def test_feasible_interval_agrees_with_pointwise_membership(case, extra):
    """u is in the interval iff a + u b decomposes, at its ends and beside them."""
    cone, (a, b) = case
    interval = feasible_interval(a, b, cone)
    points = {extra}
    for end in (interval.lo, interval.hi):
        if end is not None:
            points |= {end, end - F(1, 7), end + F(1, 7)}
    for u in points:
        feasible = isinstance(effective_decompose(a + b.scale(u), cone), Decomposition)
        assert feasible == (u in interval)


# the three bundled surfaces, each with its anticanonical class -K_S
SURFACES = [(load_bundled_scenario(name + ".scn").surface, minus_k) for name, minus_k in (
    ("lemma_4_1", [3, -1, -1, -1, -1]), ("lemma_4_2_s", [2, 2]),
    ("lemma_4_3_l1", [2, 2, -1, -1]))]
weights = st.lists(st.one_of(st.just(0), st.fractions(min_value=0, max_value=3,
                                                      max_denominator=2)),
                   min_size=10, max_size=10)


@SETTINGS
@given(st.sampled_from(SURFACES), weights, weights)
def test_sweep_chambers_match_the_pointwise_decomposition(surface_and_k, a, b):
    """d0 = -K_S + sum a_i C_i and z = sum b_i C_i != 0: every chamber of the
    sweep is the pointwise decomposition at its midpoint, the chambers are
    contiguous from v = 0, and vol vanishes at the top."""
    surface, minus_k = surface_and_k
    curves, form = surface.extremal_curves, surface.form
    d0 = DivisorClass(surface.basis, minus_k)
    z = surface.basis.zero()
    for (_, cls), x, y in zip(curves, a, b):
        d0, z = d0 + cls.scale(x), z + cls.scale(y)
    if z.is_zero():
        return
    try:
        sweep = v_sweep(d0, z, F(0), curves, form)
    except IrrationalBreakpointError:
        return
    top = F(0)
    for chamber in sweep:
        assert chamber.v_lo == top < chamber.v_hi
        top = chamber.v_hi
        v = (chamber.v_lo + chamber.v_hi) / 2
        result = zariski_decompose(d0 - z.scale(v), curves, form)
        assert set(result.support) == set(chamber.support)
        assert result.positive == chamber.positive.evaluate(v=v)
    end = sweep[-1].positive.evaluate(v=top)
    assert surface_pair(end, end, form) == 0
