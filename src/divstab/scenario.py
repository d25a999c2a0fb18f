"""Scenario files: one self-contained description per verified computation.

The format is sectioned plain text: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Values are expressions in the notation of
:mod:`divstab.exprs`, rationals as ``p/q`` text, or small inline lists.
Chosen over a general-purpose format so rationals stay exact and diffs stay
reviewable.

Scenario kinds:

* ``s_curve``          -- full curve invariant, compared exactly
* ``s_curve_bound``    -- negative-part term plus a dominated volume bound
* ``negative_part``    -- the negative-part term alone
* ``s_divisor``        -- divisor invariant for a schedule
* ``effective_decomposition`` -- one exact cone membership query
* ``infeasible_scan``  -- an affine family D(u) = a + u b that must stay
  outside the cone on a u-range, decided exactly from the cone's facets
* ``curve_pairing``    -- one exact curve intersection check

Every scenario is validated eagerly at parse time, and a key its kind does
not read is an error; evaluation failures in a batch are recorded per
scenario and never abort the run.
"""

from __future__ import annotations

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

KNOWN_KINDS = ("s_curve", "s_curve_bound", "negative_part", "s_divisor",
               "effective_decomposition", "infeasible_scan", "curve_pairing")


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
    assert_less_than: Fraction | None = None
    assert_at_least: Fraction | None = None
    exceeds: Fraction | None = None


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
    if not chambers:
        raise ScenarioFormatError("[schedule] has no chambers")
    chambers.sort(key=lambda ch: ch.u_lo)
    if chambers[0].u_lo != 0:
        raise ScenarioFormatError("[schedule] chambers must start at u = 0")
    for a, b in zip(chambers, chambers[1:]):
        if a.u_hi != b.u_lo:
            raise ScenarioFormatError(
                f"[schedule] chambers are not contiguous at u = {format_rational(a.u_hi)}")
    return sinv.Schedule(tuple(chambers))


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
    if kind not in KNOWN_KINDS:
        raise ScenarioFormatError(
            f"[scenario] kind: unknown kind {kind!r}; expected one of {', '.join(KNOWN_KINDS)}")
    scen_name = head.get("name", name)
    expected_text = head.require("expected")
    if kind not in ("effective_decomposition", "infeasible_scan"):
        _parse_rational_value(head, "expected", expected_text)   # parsed again to evaluate

    def missing(section_name: str) -> ScenarioFormatError:
        return ScenarioFormatError(f"missing the [{section_name}] section")

    if "threefold" not in sections:
        raise missing("threefold")
    model, named = _build_threefold(sections["threefold"])

    def bound(key: str) -> Fraction | None:
        raw = head.get(key)
        return None if raw is None else _parse_rational_value(head, key, raw)

    common = dict(name=scen_name, kind=kind, expected_text=expected_text,
                  model=model, assert_less_than=bound("assert_less_than"),
                  assert_at_least=bound("assert_at_least"), exceeds=bound("exceeds"))

    if kind in ("s_curve", "s_curve_bound", "negative_part"):
        if "surface" not in sections:
            raise missing("surface")
        if "schedule" not in sections:
            raise missing("schedule")
        if "curve" not in sections:
            raise missing("curve")
        surface = _build_surface(sections["surface"], model)
        schedule = _build_schedule(sections["schedule"], named)
        curve_sec = sections["curve"]
        z = _parse_class(curve_sec.require("z"), surface.basis, "[curve] z")
        ord_items = [p.strip() for p in curve_sec.require("ord").split(",")]
        if len(ord_items) != len(schedule.chambers):
            raise ScenarioFormatError(
                "[curve] ord: need exactly one coefficient per schedule chamber")
        ord_coeffs = tuple(_parse_u_poly(p, "[curve] ord") for p in ord_items)
        via_text = curve_sec.get("dominate_via")
        via = None
        if kind == "s_curve_bound":
            if via_text is None:
                raise ScenarioFormatError("[curve] dominate_via is required for s_curve_bound")
            via = _parse_class(via_text, surface.basis, "[curve] dominate_via")
        return Scenario(surface=surface, schedule=schedule, z=z,
                        ord_coeffs=ord_coeffs, dominate_via=via, **common)

    if kind == "s_divisor":
        if "divisor" not in sections:
            raise missing("divisor")
        if "schedule" not in sections:
            raise missing("schedule")
        divisor = _parse_class(sections["divisor"].require("class"), model.basis,
                               "[divisor] class")
        schedule = _build_schedule(sections["schedule"], named)
        return Scenario(divisor=divisor, schedule=schedule, **common)

    if kind in ("effective_decomposition", "infeasible_scan"):
        if "decompose" not in sections:
            raise missing("decompose")
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
    if "pairing" not in sections:
        raise missing("pairing")
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


def _curve_input(scenario: Scenario) -> sinv.SCurveInput:
    return sinv.SCurveInput(scenario.model, scenario.surface, scenario.z,
                            scenario.schedule, scenario.ord_coeffs,
                            scenario.dominate_via)


def evaluate_scenario(scenario: Scenario) -> ScenarioResult:
    """Evaluate one scenario and compare against its expected value."""
    start = time.perf_counter()
    kind = scenario.kind
    detail = ""

    def finish(computed: str, ok: bool) -> ScenarioResult:
        status = "PASS" if ok else "FAIL"
        return ScenarioResult(scenario.name, kind, status, computed,
                              scenario.expected_text, detail,
                              time.perf_counter() - start)

    if kind in ("s_curve", "s_curve_bound", "negative_part"):
        inp = _curve_input(scenario)
        if kind == "negative_part":
            sinv.validate_schedule(scenario.model, scenario.surface.cls, scenario.schedule)
            value = sinv.negative_part_term(inp)
        else:
            # the invariant validates the schedule and carries its charts
            if kind == "s_curve":
                result = sinv.s_curve(inp)
                value = result.value
            else:
                result = sinv.dominance_bound(inp, scenario.dominate_via)
                value = sinv.negative_part_term(inp) + result.value
            detail = "\n".join(chart.describe() for chart in result.charts)
        expected = parse_rational(scenario.expected_text)
        ok = value == expected
        if scenario.assert_less_than is not None:
            ok = ok and value < scenario.assert_less_than
        return finish(format_rational(value), ok)

    if kind == "s_divisor":
        value = sinv.s_divisor(scenario.model, scenario.divisor, scenario.schedule)
        expected = parse_rational(scenario.expected_text)
        ok = value == expected
        if scenario.assert_less_than is not None:
            ok = ok and value < scenario.assert_less_than
        return finish(format_rational(value), ok)

    if kind == "effective_decomposition":
        outcome = effective_decompose(scenario.decompose_class,
                                      scenario.model.effective_cone)
        if isinstance(outcome, Infeasible):
            computed = "infeasible"
            detail = outcome.detail
            ok = scenario.expected_coeffs is None
        else:
            computed = " ".join(f"{n}:{format_rational(c)}"
                                for n, c in zip(outcome.cone.names, outcome.coefficients))
            detail = str(outcome)
            ok = (scenario.expected_coeffs is not None
                  and tuple(zip(outcome.cone.names, outcome.coefficients))
                  == scenario.expected_coeffs)
        return finish(computed, ok)

    if kind == "infeasible_scan":
        computed, ok, detail = _evaluate_scan(scenario)
        return finish(computed, ok)

    # curve_pairing
    value = pair_with_curve(scenario.pairing_class, scenario.pairing_curve)
    expected = parse_rational(scenario.expected_text)
    ok = value == expected
    if scenario.assert_at_least is not None:
        ok = ok and value >= scenario.assert_at_least
    if scenario.exceeds is not None:
        ok = ok and value > scenario.exceeds
        detail = (f"value {format_rational(value)} exceeds the bound "
                  f"{format_rational(scenario.exceeds)}")
    return finish(format_rational(value), ok)


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
