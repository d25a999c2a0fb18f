"""Scenario files: one self-contained description per verified computation.

The format is sectioned plain text: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Values are expressions in the notation of
:mod:`divstab.exprs`, rationals as ``p/q`` text, or small inline lists.
Chosen over a general-purpose format so rationals stay exact and diffs stay
reviewable.

Scenario kinds, with the sections each reads besides ``[scenario]``:

* ``s_curve``          -- full curve invariant, compared exactly
* ``s_curve_bound``    -- negative-part term plus a dominated volume bound
* ``negative_part``    -- the negative-part term alone
  (these three read ``[threefold]``, ``[surface]``, ``[schedule]`` and
  ``[curve]``, whose ``dominate_via`` only ``s_curve_bound`` reads)
* ``s_divisor``        -- divisor invariant for a schedule
  (``[threefold]``, ``[divisor]``, ``[schedule]``)
* ``effective_decomposition`` -- one exact cone membership query
  (``[threefold]``, ``[decompose]``)
* ``infeasible_scan``  -- an affine family D(u) = a + u b that must stay
  outside the cone on a u-range, decided exactly from the cone's facets
  (``[threefold]``, ``[decompose]`` with its ``range``)
* ``curve_pairing``    -- one exact curve intersection check
  (``[threefold]``, ``[pairing]``)

``[scenario]`` holds ``kind``, ``expected`` and an optional ``name``.  The
five kinds with a rational value pass iff it equals ``expected`` and meets
the bounds their kind reads: ``assert_less_than`` for the curve kinds and
``s_divisor``, ``assert_at_least`` and ``exceeds`` for ``curve_pairing``.

One reader takes every value: a :class:`_Section` maps each key to its text
and line, and reads a key at most once, through a parser whose ValueError
or KeyError it reports as ``[section] key: ...``.  Every ``name:value``
list (the tensor, a surface ``pairing``, a Mori curve table, the expected
cone coefficients) goes through :func:`_entries`.  A repeated section, key
or list name is an error, and so is a key no kind reads, in any section,
and a ``[threefold]`` ``cone`` or ``divisor`` name that gives a generator or
cone name another class.
A ``[surface]`` section must satisfy the projection formula
D1|_S . D2|_S = D1.D2.S for every two threefold generators; a failure is
reported under ``restrict``.
Every scenario is validated eagerly at parse time; evaluation failures in a
batch are recorded per scenario and never abort the run.

Equal section texts share one built object per process: the ``[threefold]``,
``[surface]`` and ``[schedule]`` builds are kept in one cache keyed by the
section's ``(key, value)`` pairs in file order, with no line numbers, and a
surface or schedule also by the threefold it is built over.  Every built
object is immutable, and a hit marks the same keys read as the build did.
Errors are never cached, so a damaged section is rebuilt on every parse and
names its line each time.
"""

from __future__ import annotations

import operator
import time
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import sinv
from .cones import (ConeSpec, Infeasible, effective_decompose, feasible_interval,
                    format_functional)
from .exprs import iter_terms, parse_divisor_expr, parse_poly
from .lattice import (CurvePairing, DivisorClass, LatticeBasis, RestrictionMap,
                      SurfaceForm, ThreefoldForm, pair_with_curve, surface_pair)
from .ratmath import Poly, format_poly, format_rational, parse_rational
from .record import Record

_CURVE = (("threefold", "surface", "schedule", "curve"), ("assert_less_than",))
# kind -> (the sections it reads besides [scenario], in the order their
# presence is checked; the bound keys of [scenario] it enforces on its
# rational value, or None when its value is not a rational)
KINDS: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    "s_curve": _CURVE, "s_curve_bound": _CURVE, "negative_part": _CURVE,
    "s_divisor": (("threefold", "divisor", "schedule"), ("assert_less_than",)),
    "effective_decomposition": (("threefold", "decompose"), None),
    "infeasible_scan": (("threefold", "decompose"), None),
    "curve_pairing": (("threefold", "pairing"), ("assert_at_least", "exceeds")),
}
CURVE_KINDS = tuple(kind for kind, (sections, _) in KINDS.items() if "curve" in sections)
# bound key -> the test a rational value must pass against the bound
_BOUND_TESTS = {"assert_less_than": operator.lt, "assert_at_least": operator.ge,
                "exceeds": operator.gt}


class ScenarioFormatError(ValueError):
    """A scenario file failed validation; the message locates the problem."""


class _Section:
    """One ``[name]`` section: each key with its value text and line.

    :meth:`value` and :meth:`each` read keys and mark them read; both go
    through :meth:`parse`, the one place a parser's error becomes a
    :class:`ScenarioFormatError`.
    """

    def __init__(self, name: str):
        self.name = name
        self.entries: dict[str, tuple[str, int]] = {}
        self.read: set[str] = set()

    def parse(self, key: str, text, fn: Callable):
        """``fn(text)``, its ValueError or KeyError reported under ``key``."""
        try:
            return fn(text)
        except (ValueError, KeyError) as exc:
            # str() of a KeyError quotes its message as if it were a key
            why = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            raise ScenarioFormatError(f"[{self.name}] {key}: {why}") from None

    def value(self, key: str, parse: Callable = str, required: bool = True):
        """The parsed value of ``key``; None when it is absent and optional."""
        self.read.add(key)
        if key in self.entries:
            return self.parse(key, self.entries[key][0], parse)
        if required:
            raise ScenarioFormatError(f"[{self.name}] is missing the key {key!r}")
        return None

    def each(self, prefix: str, parse: Callable) -> list[tuple[str, object]]:
        """``(name, parsed value)`` of every ``prefix name`` key, in file order."""
        prefix += " "
        out = []
        for key, (text, _) in self.entries.items():
            if key.startswith(prefix):
                self.read.add(key)
                out.append((key[len(prefix):], self.parse(key, text, parse)))
        return out


def _split_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ScenarioFormatError(f"duplicate section [{name}] at line {line_no}")
            current = sections.setdefault(name, _Section(name))
            continue
        if current is None:
            raise ScenarioFormatError(f"line {line_no} is outside any section")
        if "=" not in line:
            raise ScenarioFormatError(
                f"[{current.name}] line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current.entries:
            raise ScenarioFormatError(f"[{current.name}] line {line_no}: repeated key {key!r}, "
                                      f"first given at line {current.entries[key][1]}")
        current.entries[key] = (value.strip(), line_no)
    return sections


class Scenario(Record):
    """A fully validated scenario, ready to evaluate."""

    name: str
    kind: str
    expected_text: str
    expected: Fraction | None = None      # a rational kind's expected value
    bounds: tuple[tuple[str, Fraction], ...] = ()
    model: sinv.ThreefoldModel | None = None
    surface: sinv.SurfaceData | None = None
    schedule: sinv.Schedule | None = None
    z: DivisorClass | None = None
    ord_coeffs: tuple[Poly, ...] = ()
    dominate_via: DivisorClass | None = None
    divisor: DivisorClass | None = None
    decompose_class: DivisorClass | None = None
    expected_coeffs: tuple[tuple[str, Fraction], ...] | None = None
    scan_range: tuple[Fraction, Fraction] | None = None
    pairing_class: DivisorClass | None = None
    pairing_curve: CurvePairing | None = None


def _entries(text: str, arity: int) -> dict:
    """The rationals of a ``name.name...:value`` list with ``arity`` names an
    item, keyed by the tuple of names, or by the name alone for arity 1."""
    out = {}
    for item in text.split():
        names, _, value = item.partition(":")
        key = tuple(names.split("."))
        if len(key) != arity:
            raise ValueError(f"{item!r} is not {'.'.join(['name'] * arity)}:value")
        key = key if arity > 1 else names
        if key in out:
            raise ValueError(f"repeated entry {names!r}")
        out[key] = parse_rational(value)
    return out


def _lo_hi(text: str, form: str = "'<lo> <hi>'") -> tuple[Fraction, Fraction]:
    """The two rationals of a ``lo hi`` pair."""
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected {form}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _u_only(value: Poly) -> Poly:
    if value.degree_v > 0:
        raise ValueError("expected a polynomial in u only")
    return value


# every clean build by value: (the key of the [threefold] section it is built
# over, or None; the section name; its (key, value) pairs in file order) ->
# (the built object, the keys the build read)
_BUILT: dict[tuple, tuple[object, frozenset[str]]] = {}


def _build_once(section: _Section, build: Callable, *args, over: tuple | None = None):
    """``build(section, *args)`` and its cache key, built once per process for
    each distinct key; a hit marks the keys the build read."""
    key = (over, section.name, tuple((k, text) for k, (text, _) in section.entries.items()))
    hit = _BUILT.get(key)
    if hit is None:
        hit = _BUILT[key] = (build(section, *args), frozenset(section.read))
    else:
        section.read.update(hit[1])
    return hit[0], key


def _build_threefold(section: _Section
                     ) -> tuple[sinv.ThreefoldModel, Mapping[str, DivisorClass]]:
    basis = section.value("basis", lambda text: LatticeBasis(text.split()))
    form = section.value("tensor", lambda text: ThreefoldForm(basis, _entries(text, 3)))
    divisor = partial(parse_divisor_expr, basis=basis)
    anticanonical = section.value("anticanonical", divisor)
    curves = tuple(section.parse(f"curve {name}", table,
                                 lambda table: CurvePairing(name, basis, table))
                   for name, table in section.each("curve", lambda text: _entries(text, 1)))
    cone_entries = section.each("cone", divisor)
    if not cone_entries:
        raise ScenarioFormatError(f"[{section.name}] needs at least one cone generator")
    # a negative part may name a generator, a cone generator or a divisor; a
    # name given twice must name one class (``cone EC = EC`` restates EC)
    named = {n: basis.unit(n) for n in basis.names}
    for prefix, entries in (("cone", cone_entries), ("divisor", section.each("divisor", divisor))):
        for name, cls in entries:
            if named.setdefault(name, cls) != cls:
                line = section.entries[f"{prefix} {name}"][1]
                raise ScenarioFormatError(
                    f"[{section.name}] line {line}: {prefix} {name!r} is {cls}, but "
                    f"{name!r} already names {named[name]}")
    model = sinv.ThreefoldModel(basis, form, anticanonical, curves, ConeSpec(cone_entries))
    return model, MappingProxyType(named)


def _build_surface(section: _Section, model: sinv.ThreefoldModel) -> sinv.SurfaceData:
    basis = section.value("basis", lambda text: LatticeBasis(text.split()))
    form = section.value("pairing", lambda text: SurfaceForm(basis, _entries(text, 2)))
    cls = section.value("class", partial(parse_divisor_expr, basis=model.basis))
    divisor = partial(parse_divisor_expr, basis=basis)
    images = dict(section.each("restrict", divisor))
    restriction = section.parse("restrict", images,
                                lambda images: RestrictionMap(model.basis, basis, images))
    section.parse("restrict", restriction,
                  lambda restriction: _projection_formula(model, cls, form, restriction))
    curves = tuple(section.each("curve", divisor))
    if not curves:
        raise ScenarioFormatError(f"[{section.name}] needs at least one extremal curve")
    name = section.value("name", required=False)
    return sinv.SurfaceData("Y" if name is None else name, cls, basis, form,
                            restriction, curves)


def _projection_formula(model: sinv.ThreefoldModel, cls: DivisorClass, form: SurfaceForm,
                        restriction: RestrictionMap) -> None:
    """Raise ValueError unless D1|_S . D2|_S = D1.D2.S for every two generators."""
    names = model.basis.names
    for i, j in combinations_with_replacement(range(len(names)), 2):
        on_s = surface_pair(restriction.images[i], restriction.images[j], form)
        on_x = sum((c * model.form.value(i, j, k) for k, c in enumerate(cls.coeffs) if c),
                   Fraction(0))
        if on_s != on_x:
            a, b = names[i], names[j]
            raise ValueError(f"the projection formula fails: {a}|S.{b}|S = "
                             f"{format_poly(on_s)}, but {a}.{b}.S = {format_poly(on_x)}")


def _negative_part(text: str, named: Mapping[str, DivisorClass]
                   ) -> tuple[tuple[str, DivisorClass, Poly], ...]:
    out = []
    for coeff, name, at in iter_terms(text):
        if name is None:
            raise ValueError(f"expected a divisor name at position {at} in the negative part")
        if name not in named:
            raise ValueError(f"unknown divisor {name!r} in the negative part")
        out.append((name, named[name], _u_only(Poly.of(coeff))))
    return tuple(out)


def _build_schedule(section: _Section, named: Mapping[str, DivisorClass]) -> sinv.Schedule:
    chambers = []
    for bounds, negative in section.each("chamber", lambda text: _negative_part(text, named)):
        line = section.entries[f"chamber {bounds}"][1]
        form = f"'chamber <lo> <hi> = ...' at line {line}"
        lo, hi = section.parse("chamber", bounds, lambda text: _lo_hi(text, form))
        chambers.append(sinv.ScheduleChamber(lo, hi, negative))
    try:
        return sinv.Schedule(tuple(sorted(chambers, key=lambda ch: ch.u_lo)))
    except sinv.ScheduleError as exc:
        raise ScenarioFormatError(f"[{section.name}] {exc}") from None


def parse_scenario(text: str | bytes, name: str = "<scenario>") -> Scenario:
    """Parse and eagerly validate one scenario file, given as text or as
    UTF-8 bytes."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"not UTF-8 text: {exc}") from None
    sections = _split_sections(text)
    scenario = _build_scenario(sections, name)
    for section in sections.values():
        for key, (_, line) in section.entries.items():
            if key not in section.read:
                raise ScenarioFormatError(f"[{section.name}] line {line}: unknown key {key!r}")
    return scenario


def _build_scenario(sections: dict[str, _Section], name: str) -> Scenario:
    if "scenario" not in sections:
        raise ScenarioFormatError("missing the [scenario] section")
    head = sections["scenario"]
    kind = head.value("kind")
    if kind not in KINDS:
        raise ScenarioFormatError(
            f"[scenario] kind: unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    needs, bound_keys = KINDS[kind]
    scen_name = head.value("name", required=False)
    expected_text = head.value("expected")
    expected, bounds = None, ()
    if bound_keys is not None:
        expected = head.parse("expected", expected_text, parse_rational)
        bounds = tuple((key, bound) for key in bound_keys
                       if (bound := head.value(key, parse_rational, False)) is not None)
    for section_name in needs:
        if section_name not in sections:
            raise ScenarioFormatError(f"missing the [{section_name}] section")
    (model, named), threefold = _build_once(sections["threefold"], _build_threefold)
    common = dict(name=name if scen_name is None else scen_name, kind=kind,
                  expected_text=expected_text, expected=expected, bounds=bounds, model=model)
    threefold_class = partial(parse_divisor_expr, basis=model.basis)

    if kind in CURVE_KINDS:
        surface, _ = _build_once(sections["surface"], _build_surface, model, over=threefold)
        schedule, _ = _build_once(sections["schedule"], _build_schedule, named, over=threefold)
        curve_sec = sections["curve"]
        surface_class = partial(parse_divisor_expr, basis=surface.basis)
        z = curve_sec.value("z", surface_class)
        ord_coeffs = curve_sec.value("ord", lambda text: tuple(
            _u_only(parse_poly(item)) for item in text.split(",")))
        if len(ord_coeffs) != len(schedule.chambers):
            raise ScenarioFormatError(
                "[curve] ord: need exactly one coefficient per schedule chamber")
        via = None
        if kind == "s_curve_bound":
            via = curve_sec.value("dominate_via", surface_class)
        return Scenario(surface=surface, schedule=schedule, z=z,
                        ord_coeffs=ord_coeffs, dominate_via=via, **common)

    if kind == "s_divisor":
        divisor = sections["divisor"].value("class", threefold_class)
        schedule, _ = _build_once(sections["schedule"], _build_schedule, named, over=threefold)
        return Scenario(divisor=divisor, schedule=schedule, **common)

    if kind in ("effective_decomposition", "infeasible_scan"):
        dec = sections["decompose"]
        cls = dec.value("class", threefold_class)
        if kind == "infeasible_scan":
            if expected_text != "infeasible":
                raise ScenarioFormatError(
                    "[scenario] expected: an infeasible scan expects 'infeasible'")
            lo, hi = dec.value("range", _lo_hi)
            if not lo < hi:
                raise ScenarioFormatError("[decompose] range: expected lo < hi")
            if any(isinstance(c, Poly) and (c.degree_u > 1 or c.degree_v > 0)
                   for c in cls.coeffs):
                raise ScenarioFormatError(
                    "[decompose] class: an infeasible scan needs a class affine in u")
            return Scenario(decompose_class=cls, scan_range=(lo, hi), **common)
        coeffs = None
        if expected_text != "infeasible":
            coeffs = head.parse("expected", expected_text, lambda text: _entries(text, 1))
            if tuple(coeffs) != model.effective_cone.names:
                raise ScenarioFormatError(
                    "[scenario] expected: coefficients must list every cone generator in order")
            coeffs = tuple(coeffs.items())
        return Scenario(decompose_class=cls, expected_coeffs=coeffs, **common)

    # curve_pairing
    pairing = sections["pairing"]
    cls = pairing.value("class", threefold_class)
    curve_name = pairing.value("curve")
    curve = next((c for c in model.mori_curves if c.name == curve_name), None)
    if curve is None:
        raise ScenarioFormatError(f"[pairing] curve: unknown curve {curve_name!r}")
    return Scenario(pairing_class=cls, pairing_curve=curve, **common)


class ScenarioResult(Record):
    name: str
    kind: str
    status: str                  # PASS, FAIL, or ERROR
    computed: str
    expected: str
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        return f"{self.status:5s} {self.name}: computed {self.computed}, expected {self.expected}"


class Report(Record):
    results: tuple[ScenarioResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.status == "PASS" for r in self.results)

    def text(self, include_detail: bool = False) -> str:
        lines = [r.line() + (f"\n{r.detail}" if include_detail and r.detail else "")
                 for r in self.results]
        passed = sum(r.status == "PASS" for r in self.results)
        lines.append(f"{passed}/{len(self.results)} scenarios pass")
        return "\n".join(lines)

    def json_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "scenarios": [
                {"name": r.name, "kind": r.kind, "status": r.status,
                 "computed": r.computed, "expected": r.expected,
                 "detail": r.detail, "seconds": round(r.seconds, 6)}
                for r in self.results],
        }


def evaluate_scenario(scenario: Scenario) -> ScenarioResult:
    """Evaluate one scenario and compare against its expected value.

    A rational kind passes iff its value equals ``expected`` and meets every
    bound the scenario gives.
    """
    start = time.perf_counter()
    if scenario.kind == "effective_decomposition":
        computed, ok, detail = _evaluate_decomposition(scenario)
    elif scenario.kind == "infeasible_scan":
        computed, ok, detail = _evaluate_scan(scenario)
    else:
        value, detail = _rational_value(scenario)
        computed = format_rational(value)
        ok = value == scenario.expected and all(
            _BOUND_TESTS[key](value, bound) for key, bound in scenario.bounds)
    return ScenarioResult(scenario.name, scenario.kind, "PASS" if ok else "FAIL",
                          computed, scenario.expected_text, detail,
                          time.perf_counter() - start)


def _rational_value(scenario: Scenario) -> tuple[Fraction, str]:
    """The value of a rational kind and its detail."""
    kind = scenario.kind
    if kind == "s_divisor":
        return sinv.s_divisor(scenario.model, scenario.divisor, scenario.schedule), ""
    if kind == "curve_pairing":
        value = pair_with_curve(scenario.pairing_class, scenario.pairing_curve)
        exceeds = dict(scenario.bounds).get("exceeds")
        if exceeds is None:
            return value, ""
        verb = "exceeds" if value > exceeds else "does not exceed"
        return value, (f"value {format_rational(value)} {verb} the bound "
                       f"{format_rational(exceeds)}")
    inp = sinv.SCurveInput(scenario.model, scenario.surface, scenario.z,
                           scenario.schedule, scenario.ord_coeffs)
    if kind == "negative_part":
        sinv.validate_schedule(scenario.model, scenario.surface.cls, scenario.schedule)
        return sinv.negative_part_term(inp), ""
    # the invariant validates the schedule and carries its charts
    if kind == "s_curve":
        result = sinv.s_curve(inp)
        value = result.value
    else:
        result = sinv.dominance_bound(inp, scenario.dominate_via)
        value = sinv.negative_part_term(inp) + result.value
    return value, "\n".join(chart.describe() for chart in result.charts)


def _evaluate_decomposition(scenario: Scenario) -> tuple[str, bool, str]:
    """Computed text, verdict and detail of one cone membership query."""
    outcome = effective_decompose(scenario.decompose_class, scenario.model.effective_cone)
    if isinstance(outcome, Infeasible):
        return "infeasible", scenario.expected_coeffs is None, outcome.detail
    coeffs = tuple(zip(outcome.cone.names, outcome.coefficients))
    computed = " ".join(f"{n}:{format_rational(c)}" for n, c in coeffs)
    return computed, coeffs == scenario.expected_coeffs, str(outcome)


def _evaluate_scan(scenario: Scenario) -> tuple[str, bool, str]:
    """Computed text, verdict and detail of an infeasible scan.

    The class is affine, D(u) = a + u b, so the u with D(u) in the cone form
    an exact interval; the scan passes iff it misses (lo, hi].  The detail
    names the interval and the functionals that cut it, with their values.
    """
    lo, hi = scenario.scan_range
    cone = scenario.model.effective_cone
    a = scenario.decompose_class.evaluate(u=0)
    b = scenario.decompose_class.evaluate(u=1) - a
    feasible = feasible_interval(a, b, cone)
    parts = [f"feasible exactly for {feasible}"]
    cuts = [feasible.never] if feasible.never else [feasible.lo_cut, feasible.hi_cut]
    for f in dict.fromkeys(c for c in cuts if c is not None):
        what = "facet" if f in cone.facets else "equality"
        value = Poly([[sum(x * y for x, y in zip(f, a.coeffs))],
                      [sum(x * y for x, y in zip(f, b.coeffs))]])
        parts.append(f"the {what} {format_functional(f)} takes {format_poly(value)} "
                     "on the class")
    detail = "; ".join(parts)
    # the feasible u in (lo, hi]: closed on the left only at an end inside it
    closed = feasible.lo is not None and feasible.lo > lo
    start = feasible.lo if closed else lo
    end = hi if feasible.hi is None else min(hi, feasible.hi)
    if feasible.empty or end < start or (end == start and not closed):
        return (f"infeasible at all u in ({format_rational(lo)}, {format_rational(hi)}]",
                True, detail)
    return (f"feasible at u in {'[' if closed else '('}{format_rational(start)}, "
            f"{format_rational(end)}]", False, detail)


def run_verify(items: Sequence[tuple[str, str | bytes]]) -> Report:
    """Parse and evaluate a batch; failures are isolated per scenario."""
    results = []
    for name, text in items:
        start = time.perf_counter()
        try:
            scenario = parse_scenario(text, name)
        except ScenarioFormatError as exc:
            result = ScenarioResult(name, "?", "ERROR", "-", "-", str(exc))
        else:
            try:
                result = evaluate_scenario(scenario)
            except Exception as exc:                   # noqa: BLE001
                result = ScenarioResult(scenario.name, scenario.kind, "ERROR",
                                        "-", scenario.expected_text,
                                        f"{type(exc).__name__}: {exc}")
        results.append(result.replace(seconds=time.perf_counter() - start))  # parse time included
    return Report(tuple(results))


def bundled_scenario_names() -> list[str]:
    files = resources.files("divstab").joinpath("scenarios")
    return sorted(p.name for p in files.iterdir() if p.name.endswith(".scn"))


def load_bundled(name: str) -> str:
    files = resources.files("divstab").joinpath("scenarios")
    return files.joinpath(name).read_text(encoding="utf-8")


def load_bundled_scenario(name: str) -> Scenario:
    return parse_scenario(load_bundled(name), name.removesuffix(".scn"))
