"""Command line entry point.

Subcommands:

* ``verify [files...]``   -- evaluate scenarios (all bundled ones by default)
* ``s-curve <file>``      -- one curve-invariant scenario, with chart dump
* ``s-divisor <file>``    -- one divisor-invariant scenario
* ``zariski <file> --u p/q --v p/q`` -- pointwise decomposition on the
  scenario's surface at the given parameters
* ``effdec <file> --class "<expr>"`` -- cone membership of a class over the
  scenario's effective cone
* ``geo <check>``         -- named exact-geometry checks (``characters``,
  ``fixed-points``, ``invariant-lines``, ``secant-lemma``, or ``all``)

Exit codes: 0 all pass, 1 any failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import projgeo, zariski
from .cones import Infeasible, effective_decompose
from .exprs import ExprSyntaxError, parse_divisor_expr
from .lattice import restrict
from .ratmath import format_rational, parse_rational
from .scenario import (CURVE_KINDS, Report, ScenarioFormatError, bundled_scenario_names,
                       evaluate_scenario, load_bundled, parse_scenario, run_verify)

USAGE_ERROR = 2


def _read_scenario_text(path: str) -> tuple[str, str]:
    p = Path(path)
    if p.exists():
        return p.stem, p.read_text(encoding="utf-8")
    bundled = path if path.endswith(".scn") else path + ".scn"
    if bundled in bundled_scenario_names():
        return bundled.removesuffix(".scn"), load_bundled(bundled)
    raise FileNotFoundError(f"no scenario file or bundled scenario named {path!r}")


def _emit(args, report: Report) -> int:
    if args.json:
        print(json.dumps(report.json_dict(), indent=2, sort_keys=True))
    else:
        print(report.text())
    if args.report:
        Path(args.report).write_text(report.text(include_detail=True) + "\n",
                                     encoding="utf-8")
    return 0 if report.all_pass else 1


def _cmd_verify(args) -> int:
    if args.files:
        items = [_read_scenario_text(f) for f in args.files]
    else:
        items = [(n.removesuffix(".scn"), load_bundled(n))
                 for n in bundled_scenario_names()]
    return _emit(args, run_verify(items))


def _cmd_single(args, kinds: tuple[str, ...]) -> int:
    name, text = _read_scenario_text(args.file)
    scenario = parse_scenario(text, name)
    if scenario.kind not in kinds:
        print(f"{name}: expected a scenario of kind {' or '.join(kinds)}, "
              f"got {scenario.kind}", file=sys.stderr)
        return USAGE_ERROR
    result = evaluate_scenario(scenario)
    return _emit(args, Report([result]))


def _cmd_zariski(args) -> int:
    name, text = _read_scenario_text(args.file)
    scenario = parse_scenario(text, name)
    if scenario.surface is None or scenario.z is None:
        print(f"{name}: scenario has no surface/curve data", file=sys.stderr)
        return USAGE_ERROR
    u, v = parse_rational(args.u), parse_rational(args.v)
    chamber = next((ch for ch in scenario.schedule.chambers
                    if ch.u_lo <= u <= ch.u_hi), None)
    if chamber is None:
        print(f"u = {args.u} is outside the schedule", file=sys.stderr)
        return USAGE_ERROR
    p = scenario.schedule.positive_part(scenario.surface.cls,
                                        scenario.model.anticanonical, chamber)
    d0 = restrict(p, scenario.surface.restriction).evaluate(u=u)
    target = d0 - scenario.z.scale(v)
    result = zariski.zariski_decompose(target, scenario.surface.extremal_curves,
                                       scenario.surface.form)
    print(f"class: {target}")
    print(f"positive part: {result.positive}")
    if result.negative:
        for curve, coeff in result.negative:
            print(f"negative part: {format_rational(coeff)} * {curve}")
    else:
        print("negative part: 0")
    print(f"support: {{{', '.join(result.support)}}}")
    return 0


def _cmd_effdec(args) -> int:
    name, text = _read_scenario_text(args.file)
    scenario = parse_scenario(text, name)
    try:
        cls = parse_divisor_expr(args.cls, scenario.model.basis)
    except ExprSyntaxError as exc:
        print(f"--class: {exc}", file=sys.stderr)
        return USAGE_ERROR
    outcome = effective_decompose(cls, scenario.model.effective_cone)
    if isinstance(outcome, Infeasible):
        print("infeasible")
        print(outcome.detail)
        return 1
    print(outcome)
    return 0


GEO_CHECKS = ("characters", "fixed-points", "invariant-lines", "secant-lemma")


def _geo_characters() -> tuple[bool, str]:
    swap, signs = projgeo.standard_involutions()
    quadrics = projgeo.invariant_quadrics()
    expected = {"Q1": (1, -1), "Q2": (1, 1), "Q3": (-1, 1)}
    lines, ok = [], True
    cubic = projgeo.twisted_cubic()
    for name, want in expected.items():
        q = quadrics[name]
        chars = (projgeo.equation_character(swap, q),
                 projgeo.equation_character(signs, q))
        contains = projgeo.contains_param_curve(q, cubic)
        good = chars == want and contains
        ok = ok and good
        shown = "(" + ", ".join(format_rational(c) for c in chars) + ")"
        lines.append(f"  {name}: characters {shown}, contains the cubic: {contains}")
    distinct = len({(projgeo.equation_character(swap, quadrics[n]),
                     projgeo.equation_character(signs, quadrics[n]))
                    for n in expected}) == 3
    ok = ok and distinct
    lines.append(f"  characters pairwise distinct: {distinct}")
    return ok, "\n".join(lines)


def _geo_fixed_points() -> tuple[bool, str]:
    swap, signs = projgeo.standard_involutions()
    report = projgeo.common_fixed_points(swap, signs)
    ok = report.is_empty()
    return ok, f"  common fixed points: {'none' if ok else report}"


def _geo_invariant_lines() -> tuple[bool, str]:
    q4 = projgeo.invariant_quadrics()["Q4"]
    a, b, t = (projgeo.MPoly.variable(n) for n in ("a", "b", "t"))
    family = dict(zip(projgeo.PROJ_VARS, (-t * a, b, a, -t * b)))
    family_ok = q4.subs(family).is_zero()
    points_ok = True
    for point in projgeo.cubic_quadric_points():
        value = q4.evaluate(dict(zip(projgeo.PROJ_VARS, point)))
        if isinstance(value, projgeo.GaussianRational):
            points_ok = points_ok and value.is_zero()
        else:
            points_ok = points_ok and value == 0
    text = (f"  line family inside the swept quadric: {family_ok}\n"
            f"  all six cubic intersection points on it: {points_ok}")
    return family_ok and points_ok, text


def _geo_secant_lemma() -> tuple[bool, str]:
    report = projgeo.verify_secant_lemma()
    return report.all_verified(), "  " + report.describe().replace("\n", "\n  ")


def _cmd_geo(args) -> int:
    checks = GEO_CHECKS if args.check == "all" else (args.check,)
    runners = {"characters": _geo_characters, "fixed-points": _geo_fixed_points,
               "invariant-lines": _geo_invariant_lines,
               "secant-lemma": _geo_secant_lemma}
    all_ok = True
    for check in checks:
        ok, text = runners[check]()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  geo {check}")
        print(text)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divstab",
        description="Exact divisor-stability computations and scenario verification.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    parser.add_argument("--report", metavar="PATH",
                        help="write the full report (with chart dumps) to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate scenario files (default: all bundled)")
    p.add_argument("files", nargs="*")

    p = sub.add_parser("s-curve", help="evaluate one curve-invariant scenario")
    p.add_argument("file")

    p = sub.add_parser("s-divisor", help="evaluate one divisor-invariant scenario")
    p.add_argument("file")

    p = sub.add_parser("zariski", help="pointwise decomposition at (u, v)")
    p.add_argument("file")
    p.add_argument("--u", required=True, help="rational u, e.g. 5/4")
    p.add_argument("--v", required=True, help="rational v, e.g. 9/16")

    p = sub.add_parser("effdec", help="effective-cone membership of a class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True,
                   help="divisor expression over the scenario basis")

    p = sub.add_parser("geo", help="run a named geometry check")
    p.add_argument("check", choices=GEO_CHECKS + ("all",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "s-curve":
            return _cmd_single(args, CURVE_KINDS)
        if args.command == "s-divisor":
            return _cmd_single(args, ("s_divisor",))
        if args.command == "zariski":
            return _cmd_zariski(args)
        if args.command == "effdec":
            return _cmd_effdec(args)
        if args.command == "geo":
            return _cmd_geo(args)
    except (ScenarioFormatError, ExprSyntaxError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unknown command")


if __name__ == "__main__":
    sys.exit(main())
