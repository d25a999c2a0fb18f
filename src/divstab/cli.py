"""Command line entry point.

Subcommands:

* ``verify [files...]``   -- evaluate scenarios (all bundled ones by default)
* ``s-curve <file>``      -- one curve-invariant scenario
* ``s-divisor <file>``    -- one divisor-invariant scenario
* ``zariski <file> --u p/q --v p/q`` -- pointwise decomposition on the
  scenario's surface at the given parameters
* ``effdec <file> --class "<expr>"`` -- cone membership of a class over the
  scenario's effective cone
* ``geo <check>``         -- named exact-geometry checks (``characters``,
  ``fixed-points``, ``invariant-lines``, ``secant-lemma``, or ``all``)

``verify``, ``s-curve`` and ``s-divisor`` evaluate through ``run_verify``:
an evaluation error, and under ``verify`` a parse error, is an ERROR row
with its reason on the next line; ``--report`` adds every row's detail.
Exit codes: 0 all pass, 1 any failure, 2 usage or parse error (a parse error
or the wrong kind under ``s-curve``/``s-divisor``, an unwritable ``--report``,
``--json`` or ``--report`` with any other command).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import projgeo, sinv, zariski
from .cones import Infeasible, effective_decompose
from .lattice import restrict
from .ratmath import format_rational, parse_rational
from .scenario import (CURVE_KINDS, Report, ScenarioFormatError, _rational_class,
                       bundled_scenario_names, load_bundled, parse_scenario, run_verify)

USAGE_ERROR = 2


def _read_scenario(path: str) -> tuple[str, str | bytes]:
    """The name and content of a scenario file, as bytes that
    :func:`parse_scenario` decodes, or of a bundled scenario, as text.

    A path that is neither, or cannot be read, raises ScenarioFormatError:
    ``verify`` reports it as one ERROR row and goes on with the batch."""
    p = Path(path)
    if p.exists():
        try:
            return p.stem, p.read_bytes()
        except OSError as exc:
            raise ScenarioFormatError(f"cannot read {path!r}: {exc.strerror}") from None
    bundled = path if path.endswith(".scn") else path + ".scn"
    if bundled in bundled_scenario_names():
        return bundled.removesuffix(".scn"), load_bundled(bundled)
    raise ScenarioFormatError(f"no scenario file or bundled scenario named {path!r}")


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
        items = []
        for f in args.files:
            try:
                items.append(_read_scenario(f))
            except ScenarioFormatError as exc:  # an ERROR row, and the batch goes on
                items.append((f, exc))
    else:
        items = [(n.removesuffix(".scn"), load_bundled(n))
                 for n in bundled_scenario_names()]
    return _emit(args, run_verify(items))


def _cmd_single(args, kinds: tuple[str, ...]) -> int:
    name, text = _read_scenario(args.file)
    report = run_verify([(name, text)])
    (row,) = report.results
    if row.kind == "?":  # run_verify gives a parse error this kind
        print(f"error: {row.detail}", file=sys.stderr)
        return USAGE_ERROR
    if row.kind not in kinds:
        print(f"{name}: expected a scenario of kind {' or '.join(kinds)}, got {row.kind}",
              file=sys.stderr)
        return USAGE_ERROR
    return _emit(args, report)


def _cmd_zariski(args) -> int:
    name, text = _read_scenario(args.file)
    scenario = parse_scenario(text, name)
    if scenario.surface is None or scenario.z is None:
        print(f"{name}: scenario has no surface/curve data", file=sys.stderr)
        return USAGE_ERROR
    parsed = []
    for option, text in (("--u", args.u), ("--v", args.v)):
        try:
            parsed.append(parse_rational(text))
        except ValueError as exc:
            print(f"{option}: {exc}", file=sys.stderr)
            return USAGE_ERROR
    u, v = parsed
    try:
        chambers = sinv.validate_schedule(scenario.model, scenario.surface.cls,
                                          scenario.schedule)
    except (ArithmeticError, ValueError) as exc:  # as the ERROR row of s-curve gives it
        print(f"{type(exc).__name__}: {exc}")
        return 1
    chamber = next((ch for ch in chambers if ch.u_lo <= u <= ch.u_hi), None)
    if chamber is None:
        print(f"u = {args.u} is outside the schedule", file=sys.stderr)
        return USAGE_ERROR
    d0 = restrict(chamber.positive, scenario.surface.restriction).evaluate(u=u)
    target = d0 - scenario.z.scale(v)
    print(f"class: {target}")
    try:
        result = zariski.zariski_decompose(target, scenario.surface.extremal_curves,
                                           scenario.surface.form)
    except (zariski.NotPseudoEffectiveError, zariski.IndefiniteSupportError) as exc:
        print(exc)
        return 1
    print(f"positive part: {result.positive}")
    if result.negative:
        for curve, coeff in result.negative:
            print(f"negative part: {format_rational(coeff)} * {curve}")
    else:
        print("negative part: 0")
    print(f"support: {{{', '.join(result.support)}}}")
    return 0


def _cmd_effdec(args) -> int:
    name, text = _read_scenario(args.file)
    scenario = parse_scenario(text, name)
    try:
        cls = _rational_class(args.cls, scenario.model.basis)
    except ValueError as exc:
        print(f"--class: {exc}", file=sys.stderr)
        return USAGE_ERROR
    outcome = effective_decompose(cls, scenario.model.effective_cone)
    if isinstance(outcome, Infeasible):
        print("infeasible")
        print(outcome.detail)
        return 1
    print(outcome)
    return 0


def _geo_characters() -> tuple[bool, str]:
    swap, signs = projgeo.standard_involutions()
    quadrics = projgeo.invariant_quadrics()
    expected = {"Q1": (1, -1), "Q2": (1, 1), "Q3": (-1, 1)}
    lines, ok, seen = [], True, set()
    cubic = projgeo.twisted_cubic()
    for name, want in expected.items():
        q = quadrics[name]
        chars = (projgeo.equation_character(swap, q),
                 projgeo.equation_character(signs, q))
        seen.add(chars)
        contains = projgeo.contains_param_curve(q, cubic)
        good = chars == want and contains
        ok = ok and good
        shown = "(" + ", ".join(format_rational(c) for c in chars) + ")"
        lines.append(f"  {name}: characters {shown}, contains the cubic: {contains}")
    distinct = len(seen) == 3
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
    x, y = projgeo.MPoly.variable("x"), projgeo.MPoly.variable("y")
    family_ok = projgeo.contains_param_curve(q4, projgeo.invariant_line("t"))
    # Q4 restricted to the cubic is x*y*(x^4 - y^4); its six linear factors
    # are the six points where the cubic meets the swept quadric
    cubic = dict(zip(projgeo.PROJ_VARS, projgeo.twisted_cubic()))
    points_ok = q4.subs(cubic) == x ** 5 * y - x * y ** 5
    text = (f"  line family inside the swept quadric: {family_ok}\n"
            f"  all six cubic intersection points on it: {points_ok}")
    return family_ok and points_ok, text


def _geo_secant_lemma() -> tuple[bool, str]:
    report = projgeo.verify_secant_lemma()
    return report.all_verified(), "  " + report.describe().replace("\n", "\n  ")


# each geometry check by name, in the order ``geo all`` runs them
GEO_CHECKS = {"characters": _geo_characters, "fixed-points": _geo_fixed_points,
              "invariant-lines": _geo_invariant_lines, "secant-lemma": _geo_secant_lemma}


def _cmd_geo(args) -> int:
    checks = GEO_CHECKS if args.check == "all" else (args.check,)
    all_ok = True
    for check in checks:
        ok, text = GEO_CHECKS[check]()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  geo {check}")
        print(text)
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="divstab",
        description="Exact divisor-stability computations and scenario verification.")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    parser.add_argument("--report", metavar="PATH",
                        help="write the full report (with chart dumps) to a file")
    parser.set_defaults(reports=False)      # only the three commands below emit a report
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate scenario files (default: all bundled)")
    p.add_argument("files", nargs="*")
    p.set_defaults(run=_cmd_verify, reports=True)

    p = sub.add_parser("s-curve", help="evaluate one curve-invariant scenario")
    p.add_argument("file")
    p.set_defaults(run=functools.partial(_cmd_single, kinds=CURVE_KINDS), reports=True)

    p = sub.add_parser("s-divisor", help="evaluate one divisor-invariant scenario")
    p.add_argument("file")
    p.set_defaults(run=functools.partial(_cmd_single, kinds=("s_divisor",)), reports=True)

    p = sub.add_parser("zariski", help="pointwise decomposition at (u, v)")
    p.add_argument("file")
    p.add_argument("--u", required=True, help="rational u, e.g. 5/4")
    p.add_argument("--v", required=True, help="rational v, e.g. 9/16")
    p.set_defaults(run=_cmd_zariski)

    p = sub.add_parser("effdec", help="effective-cone membership of a class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True,
                   help="divisor expression over the scenario basis")
    p.set_defaults(run=_cmd_effdec)

    p = sub.add_parser("geo", help="run a named geometry check")
    p.add_argument("check", choices=(*GEO_CHECKS, "all"))
    p.set_defaults(run=_cmd_geo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, given in (("--json", args.json), ("--report", args.report)):
        if given and not args.reports:
            print(f"error: {flag} applies only to verify, s-curve and s-divisor",
                  file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.run(args)
    except BrokenPipeError:  # the reader closed stdout: exit quietly, flush to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # a usage or parse error, or an unwritable --report
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
