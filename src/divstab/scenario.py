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
Every scenario is validated eagerly at parse time, and any other key, in
any section, is an error; evaluation failures in a batch are recorded per
scenario and never abort the run.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Sequence

from . import sinv
from .cones import (ConeSpec, Infeasible, effective_decompose, feasible_interval,
                    format_functional)
from .exprs import ExprSyntaxError, parse_divisor_expr, parse_poly
from .lattice import (CurvePairing, DivisorClass, LatticeBasis, RestrictionMap,
                      SurfaceForm, ThreefoldForm, pair_with_curve)
from .ratmath import Poly, format_poly, format_rational, parse_rational

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


@dataclass
class _Section:
    name: str
    entries: list[tuple[str, str, int]] = field(default_factory=list)
    read: set[str] = field(default_factory=set)

    def get(self, key: str, default: str | None = None) -> str | None:
        self.read.add(key)
        for k, v, _ in self.entries:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ScenarioFormatError(f"[{self.name}] is missing the key {key!r}")
        return value

    def all(self, prefix: str) -> list[tuple[str, str, int]]:
        out = []
        for k, v, line in self.entries:
            if k.startswith(prefix + " "):
                self.read.add(k)
                out.append((k[len(prefix) + 1:], v, line))
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
        current.entries.append((key.strip(), value.strip(), line_no))
    return sections


@dataclass(frozen=True)
class Scenario:
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


def _parse_rational_value(section: _Section, key: str, text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ScenarioFormatError(f"[{section.name}] {key}: {exc}") from None


def _parse_class(text: str, basis: LatticeBasis, where: str) -> DivisorClass:
    try:
        return parse_divisor_expr(text, basis)
    except ExprSyntaxError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None


def _parse_u_poly(text: str, where: str) -> Poly:
    try:
        value = parse_poly(text)
    except ExprSyntaxError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None
    if value.degree_v > 0:
        raise ScenarioFormatError(f"{where}: expected a polynomial in u only")
    return value


def _build_threefold(section: _Section) -> tuple[sinv.ThreefoldModel, dict[str, DivisorClass]]:
    basis = LatticeBasis(section.require("basis").split())
    entries = {}
    for triple in section.require("tensor").split():
        names, _, value = triple.partition(":")
        parts = tuple(names.split("."))
        if len(parts) != 3:
            raise ScenarioFormatError(
                f"[{section.name}] tensor: {triple!r} is not name.name.name:value")
        key = parts
        val = _parse_rational_value(section, "tensor", value)
        if key in entries and entries[key] != val:
            raise ScenarioFormatError(
                f"[{section.name}] tensor: tensor symmetry violated at {names}")
        entries[key] = val
    try:
        form = ThreefoldForm(basis, entries)
    except (ValueError, KeyError) as exc:
        raise ScenarioFormatError(f"[{section.name}] tensor: {exc}") from None
    anticanonical = _parse_class(section.require("anticanonical"), basis,
                                 f"[{section.name}] anticanonical")
    curves = []
    for name, value, line in section.all("curve"):
        table = {}
        for item in value.split():
            gen, _, num = item.partition(":")
            table[gen] = _parse_rational_value(section, f"curve {name}", num)
        try:
            curves.append(CurvePairing(name, basis, table))
        except (ValueError, KeyError) as exc:
            raise ScenarioFormatError(f"[{section.name}] curve {name}: {exc}") from None
    cone_entries = []
    named: dict[str, DivisorClass] = {n: basis.unit(n) for n in basis.names}
    for name, value, line in section.all("cone"):
        cls = _parse_class(value, basis, f"[{section.name}] cone {name}")
        cone_entries.append((name, cls))
        named.setdefault(name, cls)
    for name, value, line in section.all("divisor"):
        named[name] = _parse_class(value, basis, f"[{section.name}] divisor {name}")
    if not cone_entries:
        raise ScenarioFormatError(f"[{section.name}] needs at least one cone generator")
    model = sinv.ThreefoldModel(basis, form, anticanonical, tuple(curves),
                                ConeSpec(cone_entries))
    return model, named


def _build_surface(section: _Section, model: sinv.ThreefoldModel) -> sinv.SurfaceData:
    basis = LatticeBasis(section.require("basis").split())
    entries = {}
    for pair in section.require("pairing").split():
        names, _, value = pair.partition(":")
        parts = tuple(names.split("."))
        if len(parts) != 2:
            raise ScenarioFormatError(
                f"[{section.name}] pairing: {pair!r} is not name.name:value")
        entries[parts] = _parse_rational_value(section, "pairing", value)
    try:
        form = SurfaceForm(basis, entries)
    except (ValueError, KeyError) as exc:
        raise ScenarioFormatError(f"[{section.name}] pairing: {exc}") from None
    cls = _parse_class(section.require("class"), model.basis, f"[{section.name}] class")
    images = {}
    for name, value, line in section.all("restrict"):
        images[name] = _parse_class(value, basis, f"[{section.name}] restrict {name}")
    try:
        restriction = RestrictionMap(model.basis, basis, images)
    except (ValueError, KeyError) as exc:
        raise ScenarioFormatError(f"[{section.name}] restrict: {exc}") from None
    curves = []
    for name, value, line in section.all("curve"):
        curves.append((name, _parse_class(value, basis, f"[{section.name}] curve {name}")))
    if not curves:
        raise ScenarioFormatError(f"[{section.name}] needs at least one extremal curve")
    return sinv.SurfaceData(section.get("name", "Y"), cls, basis, form,
                            restriction, tuple(curves))


def _parse_negative_part(text: str, named: dict[str, DivisorClass],
                         where: str) -> tuple[tuple[str, DivisorClass, Poly], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split("+"):
        piece = piece.strip()
        coeff = Poly.constant(1)
        name = piece
        if "*" in piece:
            coeff_text, _, name = piece.rpartition("*")
            coeff = _parse_u_poly(coeff_text, where)
            name = name.strip()
        if name not in named:
            raise ScenarioFormatError(
                f"{where}: unknown divisor {name!r} in the negative part")
        out.append((name, named[name], coeff))
    return tuple(out)


def _build_schedule(section: _Section, named: dict[str, DivisorClass]) -> sinv.Schedule:
    chambers = []
    for bounds, value, line in section.all("chamber"):
        parts = bounds.split()
        if len(parts) != 2:
            raise ScenarioFormatError(
                f"[{section.name}] chamber: expected 'chamber <lo> <hi> = ...' at line {line}")
        lo = _parse_rational_value(section, "chamber", parts[0])
        hi = _parse_rational_value(section, "chamber", parts[1])
        negative = _parse_negative_part(value, named, f"[{section.name}] chamber {bounds}")
        chambers.append(sinv.ScheduleChamber(lo, hi, negative))
    try:
        return sinv.Schedule(tuple(sorted(chambers, key=lambda ch: ch.u_lo)))
    except sinv.ScheduleError as exc:
        raise ScenarioFormatError(f"[{section.name}] {exc}") from None


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    """Parse and eagerly validate one scenario file."""
    sections = _split_sections(text)
    scenario = _build_scenario(sections, name)
    for section in sections.values():
        for key, _, line in section.entries:
            if key not in section.read:
                raise ScenarioFormatError(f"[{section.name}] line {line}: unknown key {key!r}")
    return scenario


def _build_scenario(sections: dict[str, _Section], name: str) -> Scenario:
    if "scenario" not in sections:
        raise ScenarioFormatError("missing the [scenario] section")
    head = sections["scenario"]
    kind = head.require("kind")
    if kind not in KINDS:
        raise ScenarioFormatError(
            f"[scenario] kind: unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    needs, bound_keys = KINDS[kind]
    scen_name = head.get("name", name)
    expected_text = head.require("expected")
    expected, bounds = None, ()
    if bound_keys is not None:
        expected = _parse_rational_value(head, "expected", expected_text)
        bounds = tuple((key, _parse_rational_value(head, key, raw)) for key in bound_keys
                       if (raw := head.get(key)) is not None)
    for section_name in needs:
        if section_name not in sections:
            raise ScenarioFormatError(f"missing the [{section_name}] section")
    model, named = _build_threefold(sections["threefold"])
    common = dict(name=scen_name, kind=kind, expected_text=expected_text,
                  expected=expected, bounds=bounds, model=model)

    if kind in CURVE_KINDS:
        surface = _build_surface(sections["surface"], model)
        schedule = _build_schedule(sections["schedule"], named)
        curve_sec = sections["curve"]
        z = _parse_class(curve_sec.require("z"), surface.basis, "[curve] z")
        ord_items = [p.strip() for p in curve_sec.require("ord").split(",")]
        if len(ord_items) != len(schedule.chambers):
            raise ScenarioFormatError(
                "[curve] ord: need exactly one coefficient per schedule chamber")
        ord_coeffs = tuple(_parse_u_poly(p, "[curve] ord") for p in ord_items)
        via = None
        if kind == "s_curve_bound":
            via = _parse_class(curve_sec.require("dominate_via"), surface.basis,
                               "[curve] dominate_via")
        return Scenario(surface=surface, schedule=schedule, z=z,
                        ord_coeffs=ord_coeffs, dominate_via=via, **common)

    if kind == "s_divisor":
        divisor = _parse_class(sections["divisor"].require("class"), model.basis,
                               "[divisor] class")
        schedule = _build_schedule(sections["schedule"], named)
        return Scenario(divisor=divisor, schedule=schedule, **common)

    if kind in ("effective_decomposition", "infeasible_scan"):
        dec = sections["decompose"]
        cls = _parse_class(dec.require("class"), model.basis, "[decompose] class")
        if kind == "infeasible_scan":
            if expected_text != "infeasible":
                raise ScenarioFormatError(
                    "[scenario] expected: an infeasible scan expects 'infeasible'")
            parts = dec.require("range").split()
            if len(parts) != 2:
                raise ScenarioFormatError("[decompose] range: expected '<lo> <hi>'")
            lo = _parse_rational_value(dec, "range", parts[0])
            hi = _parse_rational_value(dec, "range", parts[1])
            if not lo < hi:
                raise ScenarioFormatError("[decompose] range: expected lo < hi")
            if any(isinstance(c, Poly) and (c.degree_u > 1 or c.degree_v > 0)
                   for c in cls.coeffs):
                raise ScenarioFormatError(
                    "[decompose] class: an infeasible scan needs a class affine in u")
            return Scenario(decompose_class=cls, scan_range=(lo, hi), **common)
        coeffs = None
        if expected_text != "infeasible":
            coeffs = []
            for item in expected_text.split():
                gen, _, num = item.partition(":")
                coeffs.append((gen, _parse_rational_value(head, "expected", num)))
            names = [n for n, _ in coeffs]
            if names != list(model.effective_cone.names):
                raise ScenarioFormatError(
                    "[scenario] expected: coefficients must list every cone generator in order")
            coeffs = tuple(coeffs)
        return Scenario(decompose_class=cls, expected_coeffs=coeffs, **common)

    # curve_pairing
    pairing = sections["pairing"]
    cls = _parse_class(pairing.require("class"), model.basis, "[pairing] class")
    curve_name = pairing.require("curve")
    curve = next((c for c in model.mori_curves if c.name == curve_name), None)
    if curve is None:
        raise ScenarioFormatError(f"[pairing] curve: unknown curve {curve_name!r}")
    return Scenario(pairing_class=cls, pairing_curve=curve, **common)


@dataclass
class ScenarioResult:
    name: str
    kind: str
    status: str                  # PASS, FAIL, or ERROR
    computed: str
    expected: str
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        return f"{self.status:5s} {self.name}: computed {self.computed}, expected {self.expected}"


@dataclass
class Report:
    results: list[ScenarioResult]

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
                           scenario.schedule, scenario.ord_coeffs, scenario.dominate_via)
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


def run_verify(items: Sequence[tuple[str, str]]) -> Report:
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
        result.seconds = time.perf_counter() - start   # parse time included
        results.append(result)
    return Report(results)


def bundled_scenario_names() -> list[str]:
    files = resources.files("divstab").joinpath("scenarios")
    return sorted(p.name for p in files.iterdir() if p.name.endswith(".scn"))


def load_bundled(name: str) -> str:
    files = resources.files("divstab").joinpath("scenarios")
    return files.joinpath(name).read_text(encoding="utf-8")


def load_bundled_scenario(name: str) -> Scenario:
    return parse_scenario(load_bundled(name), name.removesuffix(".scn"))
