import argparse
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import divstab
from divstab import cli as cli_module
from divstab import scenario as scenario_module
from divstab.cli import GEO_CHECKS, build_parser, main
from divstab.exprs import MAX_POWER, ExprSyntaxError, parse_divisor_expr, parse_poly
from divstab.lattice import DivisorClass, LatticeBasis
from divstab.ratmath import Poly
from divstab.scenario import (ScenarioFormatError, bundled_scenario_names,
                              evaluate_scenario, load_bundled, parse_scenario,
                              run_verify)

X = LatticeBasis(["H", "EC", "EL"])
U = Poly.variable("u")
V = Poly.variable("v")

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify.json"
GOLDEN_GEO = Path(__file__).parent / "golden" / "geo_all.txt"

LEMMA_3_8_ROW = ("PASS  lemma_3_8: computed H-EL:2 2H-EC:1 R:0 EL:1 EC:0, "
                 "expected H-EL:2 2H-EC:1 R:0 EL:1 EC:0")

SECTION_FILES = ("lemma_4_1", "lemma_4_2_s", "lemma_4_2_r", "lemma_4_3_l1",
                 "lemma_4_3_l2", "lemma_4_3_mixed", "lemma_4_3_ec_term",
                 "lemma_4_3_ec_bound")


def test_parse_divisor_examples():
    assert parse_divisor_expr("4H - 2EC - EL", X).coeffs == (4, -2, -1)
    q = LatticeBasis(["l1", "l2", "e1", "e2"])
    assert parse_divisor_expr("l1 + 2*l2", q).coeffs == (1, 2, 0, 0)
    assert parse_divisor_expr("0", X) == X.zero()


def test_parse_divisor_errors_report_positions():
    with pytest.raises(ExprSyntaxError, match="position 5"):
        parse_divisor_expr("4H - Z", X)
    with pytest.raises(ExprSyntaxError, match="malformed rational"):
        parse_divisor_expr("4/0H", X)
    with pytest.raises(ExprSyntaxError, match="malformed rational '\u0663' at position 0"):
        parse_poly("\u0663*u")
    with pytest.raises(ExprSyntaxError):
        parse_divisor_expr("", X)


def test_a_star_needs_a_coefficient_before_it():
    for text, at in (("H +* EC", 3), ("* H", 0)):
        with pytest.raises(ExprSyntaxError,
                           match=f"expected a generator name at position {at}$"):
            parse_divisor_expr(text, X)
    assert parse_divisor_expr("2*H", X).coeffs == (2, 0, 0)
    assert parse_divisor_expr("(u - 1)*EC", X).coeffs == (0, U - 1, 0)


def test_parser_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(150):
        coeffs = []
        for _ in range(3):
            kind = rng.randint(0, 2)
            if kind == 0:
                coeffs.append(F(rng.randint(-9, 9), rng.randint(1, 8)))
            elif kind == 1:
                coeffs.append(rng.randint(-4, 4) + rng.randint(-4, 4) * U)
            else:
                coeffs.append(F(rng.randint(-4, 4), 2) + rng.randint(-4, 4) * V)
        d = DivisorClass(X, coeffs)
        assert parse_divisor_expr(str(d), X) == d


def test_parse_poly_kinds():
    assert parse_poly("3/2") == F(3, 2)
    assert parse_poly("u - 1") == U - 1
    assert parse_poly("(2 - u)*(2 + u)") == 4 - U * U
    with pytest.raises(ExprSyntaxError):
        parse_poly("w + 1")


def test_exponents_are_capped():
    """A power costs about the cube of its exponent, so one beyond the cap
    is refused at once instead of stalling the batch."""
    assert parse_poly(f"u^{MAX_POWER}") == U ** MAX_POWER
    with pytest.raises(ExprSyntaxError, match=f"exponent 400 is larger than {MAX_POWER} "
                                              "at position 12"):
        parse_poly("(1 + u + v)^400")


def test_parse_bundled_scenario():
    scenario = parse_scenario(load_bundled("lemma_4_1.scn"), "lemma_4_1")
    assert scenario.kind == "s_curve"
    assert scenario.expected_text == "753/1120"
    assert scenario.model.degree == 28
    assert scenario.surface.basis.names == ("l", "E1", "E2", "E3", "E4")


def test_missing_schedule_section_named():
    text = load_bundled("lemma_4_1.scn")
    stripped = []
    skipping = False
    for line in text.splitlines():
        if line.strip() == "[schedule]":
            skipping = True
        elif line.startswith("[") and skipping:
            skipping = False
        if not skipping:
            stripped.append(line)
    with pytest.raises(ScenarioFormatError, match="schedule"):
        parse_scenario("\n".join(stripped), "broken")


@pytest.mark.parametrize("old,new,why", [
    ("l.l:1", "l.l:2", "H|S.H|S = 2, but H.H.S = 1"),
    ("restrict EC = E2 + E3 + E4", "restrict EC = E2 + E3", "EC|S.EC|S = -2, but EC.EC.S = -3"),
], ids=["pairing", "restrict"])
def test_projection_formula_failure_named(old, new, why):
    """A surface whose pairing disagrees with D1.D2.S on the threefold is
    refused at its header, naming the first pair of generators that differs."""
    text = load_bundled("lemma_4_1.scn")
    assert old in text
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(text.replace(old, new), "broken")
    assert str(exc.value) == f"[surface] (line 23): the projection formula fails: {why}"


def test_tensor_symmetry_violation_reported():
    text = load_bundled("lemma_4_1.scn").replace(
        "tensor = H.H.H:1", "tensor = H.H.EC:2 H.EC.H:3 H.H.H:1")
    with pytest.raises(ScenarioFormatError, match="tensor symmetry violated"):
        parse_scenario(text, "broken")


def test_unknown_kind_rejected():
    text = load_bundled("lemma_4_1.scn").replace("kind = s_curve", "kind = mystery")
    with pytest.raises(ScenarioFormatError, match="unknown kind"):
        parse_scenario(text, "broken")


def test_bundled_section_scenarios_all_pass():
    items = [(name, load_bundled(name + ".scn")) for name in SECTION_FILES]
    report = run_verify(items)
    assert [r.status for r in report.results] == ["PASS"] * 8
    assert report.all_pass


def test_wrong_expected_value_fails_with_both_values():
    text = load_bundled("lemma_4_1.scn").replace("expected = 753/1120",
                                                 "expected = 1/2")
    report = run_verify([("tampered", text)])
    assert not report.all_pass
    line = report.results[0].line()
    assert "753/1120" in line and "1/2" in line and "FAIL" in line


def test_malformed_scenario_is_isolated():
    good = load_bundled("lemma_4_2_s.scn")
    report = run_verify([("good", good), ("bad", "not a scenario"),
                         ("good2", load_bundled("lemma_3_8.scn"))])
    statuses = {r.name: r.status for r in report.results}
    assert statuses == {"lemma_4_2_s": "PASS", "bad": "ERROR", "lemma_3_8": "PASS"}


@pytest.mark.parametrize("samples", ["abc", "0", "-3", "20"])
def test_bad_scan_samples_are_isolated_errors(samples):
    """A ``samples`` key, which no scan reads any more, is an ERROR, never a PASS."""
    good = load_bundled("lemma_4_5_a.scn")
    bad = good.replace("range = 4/3 10/3", f"range = 4/3 10/3\nsamples = {samples}")
    assert bad != good
    report = run_verify([("bad", bad), ("good", good)])
    first, second = report.results
    assert first.status == "ERROR"
    line = bad.splitlines().index(f"samples = {samples}") + 1
    assert first.detail == f"[decompose] samples (line {line}): unknown key"
    assert (second.name, second.status) == ("lemma_4_5_a", "PASS")


@pytest.mark.parametrize("section,anchor,line", [
    ("scenario", "kind = infeasible_scan", "kindd = s_curve"),
    ("threefold", "basis = H EC EL", "cuve lX = H:1 EC:0 EL:0"),
    ("decompose", "class = ", "rnage = 0 1"),
])
def test_unknown_keys_name_section_key_and_line(section, anchor, line):
    text = load_bundled("lemma_4_5_b.scn")
    lines = text.splitlines()
    at = next(i for i, row in enumerate(lines) if row.startswith(anchor)) + 1
    lines.insert(at, line)
    key = line.partition("=")[0].strip()
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario("\n".join(lines))
    assert str(info.value) == f"[{section}] {key} (line {at + 1}): unknown key"


def test_scan_passes_only_on_an_exact_argument():
    """Feasible on (7/10, 3/4] only, between the old sample points 7/10 and 4/5."""
    text = load_bundled("lemma_4_5_a.scn").replace("range = 4/3 10/3", "range = 7/10 27/10")
    result = run_verify([("narrow", text)]).results[0]
    assert (result.status, result.computed) == ("FAIL", "feasible at u in (7/10, 3/4]")
    assert result.detail == ("feasible exactly for u <= 3/4; "
                             "the facet (H: 1, EC: 0, EL: 1) takes -4*u + 3 on the class")
    bound = text.replace("range = 7/10 27/10", "range = 3/4 27/10")
    result = run_verify([("bound", bound)]).results[0]
    assert (result.status, result.computed) == ("PASS", "infeasible at all u in (3/4, 27/10]")


@pytest.mark.parametrize("key,line,message", [
    ("range", "range = 4/3 4/3", "[decompose] range (line {}): expected lo < hi"),
    ("range", "range = 10/3 4/3", "[decompose] range (line {}): expected lo < hi"),
    ("class", "class = (u*u)*H - EC", "[decompose] class (line {}): u^2 is not affine in u"),
    ("class", "class = (v)*H - EC", "[decompose] class (line {}): v is not affine in u"),
    ("class", "class = (4 - 4u^2)*H + (2u - 1)*EC - EL",
     "[decompose] class (line {}): -4*u^2 + 4 is not affine in u"),
    ("expected", "expected = 3/4",
     "[scenario] expected (line {}): an infeasible scan expects 'infeasible'"),
])
def test_scan_rejects_bad_ranges_classes_and_expectations(key, line, message):
    text = load_bundled("lemma_4_5_a.scn")
    rows = text.splitlines()
    at = next(i for i, row in enumerate(rows) if row.startswith(key + " = "))
    with pytest.raises(ScenarioFormatError, match=re.escape(message.format(at + 1))):
        parse_scenario(text.replace(rows[at], line))


@pytest.mark.parametrize("name,section,line", [
    ("lemma_4_2_r", "scenario", "exceeds = 100"),
    ("lemma_4_2_r", "scenario", "assert_at_least = 100"),
    ("corollary_4_7", "scenario", "assert_less_than = -100"),
    ("lemma_3_8", "scenario", "assert_less_than = -100"),
    ("lemma_4_5_a", "scenario", "exceeds = 100"),
    ("lemma_4_3_l1", "curve", "dominate_via = l1 - l2"),
])
def test_a_key_the_kind_does_not_enforce_is_an_error(name, section, line):
    """A bound or ``dominate_via`` given to a kind that never checks it is an
    ERROR row, not a vacuous PASS; the next scenario still passes."""
    lines = load_bundled(name + ".scn").splitlines()
    at = lines.index(f"[{section}]") + 1
    lines.insert(at, line)
    report = run_verify([(name, "\n".join(lines)),
                         ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    key = line.partition("=")[0].strip()
    assert (first.status, first.detail) == (
        "ERROR", f"[{section}] {key} (line {at + 1}): unknown key")
    assert second.status == "PASS"


@pytest.mark.parametrize("name,old,new,detail", [
    ("sdiv_plane", "assert_less_than = 1", "assert_less_than = 1/2", ""),
    ("lemma_4_2_r", "assert_less_than = 1", "assert_less_than = 1/4", None),
    ("corollary_4_7", "assert_at_least = 3", "assert_at_least = 4",
     "value 3 exceeds the bound 1"),
    ("corollary_4_7", "exceeds = 1", "exceeds = 3", "value 3 does not exceed the bound 3"),
])
def test_every_bound_a_kind_reads_is_enforced(name, old, new, detail):
    text = load_bundled(name + ".scn")
    assert old in text
    result = run_verify([(name, text.replace(old, new))]).results[0]
    assert result.status == "FAIL"
    assert result.computed == result.expected
    if detail is not None:
        assert result.detail == detail


@pytest.mark.parametrize("old,new,detail", [
    ("assert_less_than = 1\n", "assert_less_than = 1\nassert_less_than = 1/2\n",
     "[scenario] assert_less_than (line 8): repeated key, first given at line 7"),
    ("restrict EL = e1 + e2\n", "restrict EL = e1 + e2\nrestrict EL = e1\n",
     "[surface] restrict EL (line 30): repeated key, first given at line 29"),
    ("pairing = l1.l2:1", "pairing = l1.l2:1 l1.l2:2",
     "[surface] pairing (line 26): repeated entry 'l1.l2'"),
    ("curve lR = H:1 EC:2 EL:1", "curve lR = H:1 EC:2 EL:1 EC:3",
     "[threefold] curve lR (line 15): repeated entry 'EC'"),
    ("basis = l1 l2 e1 e2", "basis = l1 l2 e1 e2 l1",
     "[surface] basis (line 25): duplicate generator names in ('l1', 'l2', 'e1', 'e2', 'l1')"),
    ("curve lR = H:1 EC:2 EL:1", "curve lR = H:1 EC:2 EL:1 XY:7",
     "[threefold] curve lR (line 15): curve table 'lR' names ['XY'] outside the basis "
     "('H', 'EC', 'EL')"),
    ("restrict EL = e1 + e2\n", "restrict EL = e1 + e2\nrestrict XX = e1\n",
     "[surface] restrict XX (line 30): 'XX' is not a generator of the threefold basis "
     "H EC EL"),
    ("tensor = H.H.H:1", "tensor = H.H.X:1 H.H.H:1",
     "[threefold] tensor (line 12): unknown generator 'X'; basis is ('H', 'EC', 'EL')"),
], ids=["assert", "restrict", "pairing", "curve", "basis", "curve-name", "restrict-name",
        "tensor-name"])
def test_repeats_and_names_outside_a_basis_are_isolated_errors(old, new, detail):
    """A repeated key or list name, or a name outside the basis, is one ERROR
    row naming its section; before, each passed 109/112 or aborted the batch."""
    text = load_bundled("lemma_4_3_l1.scn")
    assert old in text
    report = run_verify([("lemma_4_3_l1", text.replace(old, new)),
                         ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    assert (first.status, first.detail) == ("ERROR", detail)
    assert second.status == "PASS"


RATIONAL = "expected a class with rational coefficients, got "


@pytest.mark.parametrize("name,old,new,detail", [
    ("sdiv_anticanonical", "class = 4H - EC - EL", "class = (4 - 2*u)*H - EC - EL",
     "[divisor] class (line 22): " + RATIONAL + "(-2*u + 4)*H - EC - EL"),
    ("lemma_4_1", "z = l", "z = (u)*l", "[curve] z (line 47): " + RATIONAL + "(u)*l"),
    ("lemma_4_1", "curve L34 = l - E3 - E4", "curve L34 = (u)*l - E3 - E4",
     "[surface] curve L34 (line 40): " + RATIONAL + "(u)*l - E3 - E4"),
    ("corollary_4_7", "class = H - EL", "class = (u)*H - EL",
     "[pairing] class (line 26): " + RATIONAL + "(u)*H - EL"),
    ("lemma_3_8", "class = 4H - EC - EL", "class = (4 - u)*H - EC - EL",
     "[decompose] class (line 23): " + RATIONAL + "(-u + 4)*H - EC - EL"),
    ("sdiv_anticanonical", "cone H-EL = H - EL", "cone H-EL = (u)*H - EL",
     "[threefold] cone H-EL (line 16): " + RATIONAL + "(u)*H - EL"),
], ids=["divisor", "z", "surface-curve", "pairing", "decompose", "cone"])
def test_a_class_key_with_u_or_v_is_an_isolated_error_at_its_key(name, old, new, detail):
    """Every class key but an infeasible scan's is rational, checked where it is
    parsed; before, each failed in evaluation, unlocated or at another key."""
    text = load_bundled(f"{name}.scn")
    assert text.count(old) == 1
    report = run_verify([(name, text.replace(old, new)),
                         ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    assert (first.status, first.detail) == ("ERROR", detail)
    assert second.status == "PASS"


DEEP = "(" * 400 + "1" + ")" * 400


def test_deep_parentheses_are_an_isolated_error():
    text = load_bundled("lemma_3_8.scn").replace("class = ", f"class = {DEEP}*H + ")
    report = run_verify([("lemma_3_8", text), ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    assert (first.status, first.detail) == (
        "ERROR", "[decompose] class (line 23): parentheses nested deeper than 50 at position 50")
    assert second.status == "PASS"


def test_cli_deep_parentheses_are_a_usage_error(capsys):
    assert main(["effdec", "lemma_3_8", "--class", f"{DEEP}*H"]) == 2
    assert "parentheses nested deeper than 50" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,detail", [
    ("chamber 1 3/2 = (u - 1)*R", "chamber 1 3/2 = (u^2 - 1)*R",
     "[schedule] chamber 1 3/2 (line 44): u^2 - 1 is not affine in u"),
    ("chamber 1 3/2 = (u - 1)*R", "chamber 1 3/2 = (v - 1)*R",
     "[schedule] chamber 1 3/2 (line 44): v - 1 is not affine in u"),
    ("ord = 0, 0", "ord = 0, v",
     "[curve] ord (line 48): chamber 1: declared v, but the restricted negative part gives 0"),
], ids=["u^2", "v", "ord"])
def test_a_schedule_coefficient_not_affine_in_u_is_an_error_at_its_line(old, new, detail):
    """The chamber type refuses a negative-part coefficient that is not
    affine in u, at the chamber's line; before, u^2 failed in evaluation and
    v as "expected a polynomial in u only".  An ord coefficient with v is
    compared with the derived one like any other."""
    text = load_bundled("lemma_4_1.scn")
    assert text.count(old) == 1
    (result,) = run_verify([("lemma_4_1", text.replace(old, new))]).results
    assert (result.status, result.detail) == ("ERROR", detail)


def test_a_schedule_whose_positive_part_jumps_is_an_error_row(tmp_path, capsys):
    """N(u) = R/2 on [1, 3/2] after N(u) = 0 on [0, 1] passed validation, and
    sdiv_plane computed 885/1792 against 227/448; P(u) is continuous, so the
    jump at u = 1 is now an evaluation error."""
    text = load_bundled("sdiv_plane.scn")
    assert text.count("chamber 1 3/2 = (u - 1)*R") == 1
    path = tmp_path / "sdiv_plane.scn"
    path.write_text(text.replace("chamber 1 3/2 = (u - 1)*R", "chamber 1 3/2 = (1/2)*R"),
                    encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ERROR sdiv_plane: computed -, expected 227/448",
        "ScheduleError: P(u) jumps at u = 1: the negative parts of the two chambers differ there",
        "0/1 scenarios pass"]


def test_cli_effdec_class_with_u_names_its_option(capsys):
    assert main(["effdec", "lemma_3_8", "--class", "(u)*H - EC"]) == 2
    assert capsys.readouterr().err == (
        "--class: expected a class with rational coefficients, got (u)*H - EC\n")


def test_cli_zariski_malformed_u_names_its_option(capsys):
    assert main(["zariski", "lemma_4_1", "--u", "0.5", "--v", "1"]) == 2
    assert capsys.readouterr().err == "--u: malformed rational '0.5'\n"
    assert main(["zariski", "lemma_4_1", "--u", "1/2", "--v", "1.5"]) == 2
    assert capsys.readouterr().err == "--v: malformed rational '1.5'\n"


@pytest.mark.parametrize("old,new,error", [
    ("chamber 0 1 =\n", "chamber 0 1 = (u)*EL\n",
     "ScheduleError: P(u) pairs negatively with lR at u = 1"),
    ("chamber 1 3/2 =", "chamber 1 2 =",
     "ScheduleError: schedule ends at u = 2 but the pseudo-effective threshold is 3/2"),
], ids=["pairing", "threshold"])
@pytest.mark.parametrize("u", ["1/2", "7/4"])
def test_cli_zariski_refuses_a_schedule_that_validation_refuses(tmp_path, capsys,
                                                                 old, new, error, u):
    """``zariski`` reads P(u) off the validated chambers: a schedule that
    ``verify`` refuses prints the ERROR row's reason and exits 1 (it printed
    a decomposition and exited 0, and took u = 7/4 past tau = 3/2 as inside)."""
    text = load_bundled("lemma_4_1.scn")
    assert text.count(old) == 1
    path = tmp_path / "lemma_4_1.scn"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["zariski", str(path), "--u", u, "--v", "1/4"]) == 1
    assert capsys.readouterr() == (error + "\n", "")


@pytest.mark.parametrize("flag", ["--json", "--report"])
@pytest.mark.parametrize("argv", [["zariski", "lemma_4_1", "--u", "1/2", "--v", "1/4"],
                                  ["effdec", "lemma_3_8", "--class", "H"],
                                  ["geo", "fixed-points"]], ids=["zariski", "effdec", "geo"])
def test_a_command_without_a_report_refuses_json_and_report(tmp_path, capsys, flag, argv):
    """Only ``verify``, ``s-curve`` and ``s-divisor`` emit a report: the
    other commands refuse ``--json`` and ``--report`` with exit code 2 and
    one stderr line, print nothing and write no file (each flag was ignored)."""
    report = tmp_path / "report.txt"
    assert main([flag, *([str(report)] if flag == "--report" else []), *argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: {flag} applies only to verify, s-curve and s-divisor\n")
    assert not report.exists()


def test_an_empty_chamber_is_a_parse_error():
    text = load_bundled("sdiv_plane.scn").replace("chamber 0 1 =",
                                                  "chamber 0 0 =\nchamber 0 1 =")
    with pytest.raises(ScenarioFormatError,
                       match=re.escape("[schedule] (line 24): the chamber [0, 0] is empty")):
        parse_scenario(text)


def test_a_negative_part_coefficient_may_hold_a_plus():
    """Terms of a negative part split only at a ``+`` outside parentheses."""
    text = load_bundled("sdiv_plane.scn").replace("(u - 1)*R", "(-1 + u)*R")
    result = run_verify([("sdiv_plane", text)]).results[0]
    assert (result.status, result.computed) == ("PASS", "227/448")


def test_a_rational_with_digit_group_underscores_is_an_error():
    text = load_bundled("sdiv_plane.scn").replace("expected = 227/448",
                                                  "expected = 2_27/4_48")
    report = run_verify([("sdiv_plane", text),
                         ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    assert (first.status, first.detail) == (
        "ERROR", "[scenario] expected (line 5): malformed rational '2_27/4_48'")
    assert second.status == "PASS"


def test_verify_seconds_include_parse_time(monkeypatch):
    """Each result's seconds run from before its parse, evaluated or not."""
    from divstab import scenario
    clock = [0.0]
    monkeypatch.setattr(scenario.time, "perf_counter", lambda: clock[0])
    parse = scenario.parse_scenario

    def slow_parse(text, name):
        clock[0] += 5.0
        return parse(text, name)

    monkeypatch.setattr(scenario, "parse_scenario", slow_parse)
    report = run_verify([("good", load_bundled("corollary_4_7.scn")),
                         ("bad", "not a scenario")])
    assert [r.status for r in report.results] == ["PASS", "ERROR"]
    assert [r.seconds for r in report.results] == [5.0, 5.0]


def test_report_is_deterministic():
    items = [("lemma_4_1", load_bundled("lemma_4_1.scn")),
             ("lemma_3_8", load_bundled("lemma_3_8.scn"))]
    first = run_verify(items)
    second = run_verify(items)
    assert first.text(include_detail=True) == second.text(include_detail=True)
    strip = lambda d: [{k: v for k, v in r.items() if k != "seconds"}
                       for r in d["scenarios"]]
    assert strip(first.json_dict()) == strip(second.json_dict())


def test_chart_summary_in_detail():
    scenario = parse_scenario(load_bundled("lemma_4_1.scn"), "lemma_4_1")
    result = evaluate_scenario(scenario)
    assert "support {L12, L13, L14}" in result.detail
    assert "-3/2*u + 5/2" in result.detail


def test_cli_verify_all_bundled(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert f"{len(bundled_scenario_names())}/{len(bundled_scenario_names())} scenarios pass" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "tampered.scn"
    bad.write_text(load_bundled("lemma_4_1.scn").replace("753/1120", "1/2"),
                   encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()
    malformed = tmp_path / "malformed.scn"
    malformed.write_text("[scenario]\n", encoding="utf-8")
    assert main(["verify", str(malformed)]) == 1  # recorded as ERROR, batch fails
    capsys.readouterr()
    assert main(["s-curve", "sdiv_plane"]) == 2  # wrong kind for the subcommand
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_reused(capsys):
    """Each argparse parser is a web of reference cycles: build one per process."""
    parser = build_parser()
    assert build_parser() is parser
    assert main(["s-curve", "sdiv_plane"]) == 2
    assert main(["geo", "characters"]) == 0
    capsys.readouterr()
    assert build_parser() is parser
    assert parser.parse_args(["verify"]).files == []


def test_cli_json_output(capsys):
    assert main(["--json", "verify", "lemma_4_1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    entry = payload["scenarios"][0]
    assert entry["computed"] == "753/1120"
    assert entry["status"] == "PASS"


def test_cli_json_verify_matches_golden(capsys):
    """``divstab --json verify`` over every bundled scenario, timings removed,
    is byte-identical to the recorded report; a change to any value, status or
    chart must update ``tests/golden/verify.json`` on purpose."""
    assert main(["--json", "verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    for entry in report["scenarios"]:
        del entry["seconds"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN_VERIFY.read_text(encoding="utf-8")


def test_cli_report_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["--report", str(target), "verify", "lemma_4_1"]) == 0
    capsys.readouterr()
    content = target.read_text(encoding="utf-8")
    assert "PASS" in content and "vol" in content


def test_cli_zariski_subcommand(capsys):
    assert main(["zariski", "lemma_4_1", "--u", "5/4", "--v", "9/16"]) == 0
    out = capsys.readouterr().out
    assert "support: {L12, L13, L14}" in out
    assert "1/16 * L12" in out


def test_cli_s_divisor_subcommand(capsys):
    assert main(["s-divisor", "sdiv_quadric"]) == 0
    out = capsys.readouterr().out
    assert "computed 125/224" in out
    assert main(["s-divisor", "lemma_4_1"]) == 2  # wrong kind
    assert "expected a scenario of kind" in capsys.readouterr().err


@pytest.mark.parametrize("command,name,old,new,error", [
    ("s-divisor", "sdiv_anticanonical", "class = 4H - EC - EL\n", "class = -EC\n",
     "UnboundedThresholdError: "),
    ("s-curve", "lemma_4_1", "curve L12 = l - E1 - E2\n", "", "IrrationalBreakpointError: "),
    ("s-divisor", "sdiv_plane", "chamber 1 3/2 =", "chamber 1 2 =", "ScheduleError: "),
], ids=["s-divisor", "s-curve", "schedule"])
def test_a_single_scenario_command_reports_an_evaluation_error_as_verify_does(
        tmp_path, capsys, command, name, old, new, error):
    """``s-divisor`` and ``s-curve`` evaluate through ``run_verify``: an error
    raised while evaluating is one ERROR row and exit code 1, the row that
    ``verify`` gives the same file, and neither a traceback nor a usage error
    (a ScheduleError exited 2)."""
    text = load_bundled(name + ".scn")
    assert old in text
    path = tmp_path / f"{name}.scn"
    path.write_text(text.replace(old, new), encoding="utf-8")
    rows = {}
    for cmd in (command, "verify"):
        assert main(["--json", cmd, str(path)]) == 1
        (rows[cmd],) = json.loads(capsys.readouterr().out)["scenarios"]
        del rows[cmd]["seconds"]
    assert rows[command]["status"] == "ERROR"
    assert rows[command]["detail"].startswith(error)
    assert rows[command] == rows["verify"]


def test_cli_zariski_at_nef_point(capsys):
    assert main(["zariski", "lemma_4_1", "--u", "1/2", "--v", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "negative part: 0" in out
    assert "support: {}" in out


def test_cli_zariski_outside_the_pseudo_effective_cone_prints_the_witness(capsys):
    assert main(["zariski", "lemma_4_1", "--u", "5/4", "--v", "100"]) == 1
    assert capsys.readouterr().out == (
        "class: -393/4*l - 3/4*E1 - 1/2*E2 - 1/2*E3 - 1/2*E4\n"
        "not pseudo-effective: outside the cone of the extremal curves; "
        "functional (l: 1, E1: 0, E2: 0, E3: 0, E4: 0) is nonnegative on every generator "
        "but takes -393/4 on the class\n")


def test_cli_effdec_subcommand(capsys):
    assert main(["effdec", "lemma_3_8", "--class", "4H - EC - EL"]) == 0
    out = capsys.readouterr().out
    assert "H-EL: 2" in out
    assert main(["effdec", "lemma_3_8", "--class", "H - EC - EL"]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_cli_effdec_prints_the_farkas_witness_as_rationals(capsys):
    assert main(["effdec", "lemma_3_8", "--class", "H - 2*EC"]) == 1
    assert capsys.readouterr().out == (
        "infeasible\n"
        "functional (H: 2, EC: 3, EL: 2) is nonnegative on every generator "
        "but takes -4 on the class\n")


def test_cli_geo_all(capsys):
    assert main(["geo", "all"]) == 0
    out = capsys.readouterr().out
    for check in ("characters", "fixed-points", "invariant-lines", "secant-lemma"):
        assert f"PASS  geo {check}" in out
    assert list(GEO_CHECKS) == ["characters", "fixed-points", "invariant-lines", "secant-lemma"]


def test_cli_geo_all_matches_golden(capsys):
    """``divstab geo all`` is byte-identical to the recorded output."""
    assert main(["geo", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN_GEO.read_text(encoding="utf-8")


def test_geo_characters_computes_each_character_once(monkeypatch, capsys):
    from divstab import projgeo
    calls = []
    original = projgeo.equation_character

    def counted(g, f):
        calls.append(1)
        return original(g, f)

    monkeypatch.setattr(projgeo, "equation_character", counted)
    assert main(["geo", "characters"]) == 0
    assert "characters pairwise distinct: True" in capsys.readouterr().out
    assert len(calls) == 6


def test_cli_zero_denominator_is_a_usage_error(capsys):
    assert main(["zariski", "lemma_4_1", "--u", "1/0", "--v", "0"]) == 2
    assert "malformed rational '1/0'" in capsys.readouterr().err


def test_a_non_utf8_scenario_file_is_one_error_row(tmp_path, capsys):
    """A file that is not UTF-8 is one ERROR row naming the decode error;
    the other files of the batch are still verified."""
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(load_bundled("lemma_3_8.scn").encode("utf-8") + b"# caf\xe9\n")
    crlf = tmp_path / "crlf.scn"
    crlf.write_bytes(load_bundled("lemma_3_8.scn").replace("\n", "\r\n").encode("utf-8"))
    assert main(["--json", "verify", str(bad), "lemma_3_8", str(crlf)]) == 1
    rows = json.loads(capsys.readouterr().out)["scenarios"]
    # a parsed file takes the name its [scenario] section gives
    assert [(r["name"], r["status"]) for r in rows] == [
        ("latin1", "ERROR"), ("lemma_3_8", "PASS"), ("lemma_3_8", "PASS")]
    assert rows[0]["detail"].startswith("not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")
    assert main(["effdec", str(bad), "--class", "H"]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_a_scenario_file_with_a_byte_order_mark_passes(tmp_path, capsys):
    """A UTF-8 file may start with the byte-order mark EF BB BF; before, the
    mark stayed on the first line, which was then outside any section."""
    path = tmp_path / "bom.scn"
    path.write_bytes(b"\xef\xbb\xbf" + load_bundled("sdiv_plane.scn").encode("utf-8"))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS  sdiv_plane: computed 227/448, expected 227/448", "1/1 scenarios pass"]


def test_an_unreadable_path_is_one_error_row(tmp_path, capsys, monkeypatch):
    """A directory or a file that cannot be read is one ERROR row naming the
    path in a batch, whose other files are still verified; a single-scenario
    command reports it as a usage error."""
    locked = tmp_path / "locked.scn"
    locked.write_text(load_bundled("lemma_3_8.scn"), encoding="utf-8")
    read_bytes = Path.read_bytes

    def refuse(path):
        if path.name == locked.name:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)
    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert main(["--json", "verify", str(tmp_path), "lemma_3_8", str(locked)]) == 1
    rows = json.loads(capsys.readouterr().out)["scenarios"]
    assert [(r["name"], r["status"]) for r in rows] == [
        (str(tmp_path), "ERROR"), ("lemma_3_8", "PASS"), (str(locked), "ERROR")]
    assert rows[0]["detail"] == f"cannot read {str(tmp_path)!r}: Is a directory"
    assert rows[2]["detail"] == f"cannot read {str(locked)!r}: Permission denied"
    for argv in (["s-curve", str(tmp_path)], ["zariski", str(locked), "--u", "1", "--v", "0"],
                 ["effdec", str(tmp_path), "--class", "H"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot read ")


def test_a_closed_stdout_ends_quietly():
    """A reader that closes the pipe before the report is written (as
    ``divstab --json verify | head -1`` can) gets exit code 1 and no
    traceback, and the flush at exit writes nothing to stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(divstab.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "divstab.cli", "--json", "verify"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_cli_usage_error_on_missing_file(capsys):
    """A single-scenario command stops on a missing path with a usage error
    and prints nothing on stdout; ``verify`` gives the path one ERROR row,
    with its reason, and goes on with its batch."""
    for argv in (["s-curve", "does-not-exist"], ["s-divisor", "does-not-exist"],
                 ["zariski", "does-not-exist", "--u", "1", "--v", "0"],
                 ["effdec", "does-not-exist", "--class", "H"]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: no scenario file or bundled scenario named 'does-not-exist'\n")
    error = ["ERROR does-not-exist: computed -, expected -",
             "no scenario file or bundled scenario named 'does-not-exist'"]
    for files, lines in ((["does-not-exist"], [*error, "0/1 scenarios pass"]),
                         (["does-not-exist", "lemma_3_8"], [*error, LEMMA_3_8_ROW,
                                                           "1/2 scenarios pass"])):
        assert main(["verify", *files]) == 1
        assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("argv,err", [
    (["s-curve", "sdiv_plane"], "sdiv_plane: expected a scenario of kind s_curve or "
                                "s_curve_bound or negative_part, got s_divisor\n"),
    (["s-divisor", "lemma_4_1"], "lemma_4_1: expected a scenario of kind s_divisor, "
                                 "got s_curve\n"),
    (["--json", "s-curve", "sdiv_plane"], "sdiv_plane: expected a scenario of kind "
                                          "s_curve or s_curve_bound or negative_part, "
                                          "got s_divisor\n"),
    (["s-curve", "{bad}"], "error: [scenario] (line 1): missing the key 'expected'\n"),
    (["s-divisor", "{bad}"], "error: [scenario] (line 1): missing the key 'expected'\n"),
], ids=["s-curve-kind", "s-divisor-kind", "json-kind", "s-curve-parse", "s-divisor-parse"])
def test_a_single_scenario_command_refuses_with_a_usage_error(tmp_path, capsys, argv, err):
    """The wrong kind or a parse error stops ``s-curve`` and ``s-divisor``
    with exit code 2, one line on stderr and nothing on stdout, and writes
    no ``--report``."""
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nkind = s_curve\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    argv = [a.replace("{bad}", str(bad)) for a in argv]
    assert main(["--report", str(report), *argv]) == 2
    assert capsys.readouterr() == ("", err)
    assert not report.exists()


def test_a_single_scenario_command_parses_its_file_once(monkeypatch, capsys):
    """``s-curve`` reads the kind off the one row ``run_verify`` gives, so the
    file is parsed once."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return parse(*args, **kwargs)
    parse = scenario_module.parse_scenario
    monkeypatch.setattr(scenario_module, "parse_scenario", counted)
    monkeypatch.setattr(cli_module, "parse_scenario", counted)
    assert main(["s-curve", "lemma_4_1"]) == 0
    assert calls == [("lemma_4_1",)]
    assert capsys.readouterr().out.startswith("PASS  lemma_4_1: computed 753/1120")


def test_every_subcommand_binds_its_handler():
    """The parser names each subcommand's handler, so ``main`` keeps no
    second list of the subcommand names."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["effdec", "geo", "s-curve", "s-divisor", "verify", "zariski"]
    for name, parser in sub.choices.items():
        assert callable(parser.get_default("run")), name


def test_an_error_row_gives_its_reason_in_text(tmp_path, capsys):
    """An ERROR row carries its reason on the next line of the text report,
    under ``s-divisor`` as under ``verify``; ``--report`` writes it once."""
    path = tmp_path / "sdiv_plane.scn"
    path.write_text(load_bundled("sdiv_plane.scn").replace("chamber 1 3/2 =", "chamber 1 2 ="),
                    encoding="utf-8")
    error = ["ERROR sdiv_plane: computed -, expected 227/448",
             "ScheduleError: schedule ends at u = 2 but the pseudo-effective threshold is 3/2"]
    report = tmp_path / "report.txt"
    for argv, lines in ((["s-divisor", str(path)], [*error, "0/1 scenarios pass"]),
                        (["verify", str(path), "lemma_3_8"],
                         [*error, LEMMA_3_8_ROW, "1/2 scenarios pass"])):
        assert main(["--report", str(report), *argv]) == 1
        assert capsys.readouterr() == ("\n".join(lines) + "\n", "")
    assert report.read_text(encoding="utf-8").splitlines()[:2] == error


def test_an_unwritable_report_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """A ``--report`` path that cannot be written (a directory, a missing
    parent, no permission) exits 2 with one ``error:`` line, no traceback."""
    assert main(["--report", str(tmp_path), "verify", "lemma_3_8"]) == 2
    out, err = capsys.readouterr()
    assert out == LEMMA_3_8_ROW + "\n1/1 scenarios pass\n"
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert main(["--report", str(tmp_path / "no" / "report.txt"), "verify", "lemma_3_8"]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))
    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["--report", str(tmp_path / "report.txt"), "s-curve", "lemma_4_1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 13] Permission denied") and err.count("\n") == 1


# keys whose absence is an error in every scenario that has the section
REQUIRED_KEYS = {"scenario": ("kind", "expected"),
                 "threefold": ("basis", "tensor", "anticanonical"),
                 "surface": ("basis", "pairing", "class"), "curve": ("z", "ord"),
                 "divisor": ("class",), "decompose": ("class",),
                 "pairing": ("class", "curve")}
# the [scenario] bounds each kind enforces (assert_less_than when not listed);
# the others, and dominate_via outside s_curve_bound, are misplaced keys
BOUND_KEYS = {"curve_pairing": ("assert_at_least", "exceeds"),
              "effective_decomposition": (), "infeasible_scan": ()}
# the keys whose value is a divisor expression, by section and first word
DIVISOR_KEYS = {"threefold": ("anticanonical", "cone", "divisor"),
                "surface": ("class", "restrict", "curve"), "curve": ("z", "dominate_via"),
                "divisor": ("class",), "decompose": ("class",), "pairing": ("class",)}
# a standalone rational: not part of a name like E1 or lemma_4_1, nor of 4H
RATIONAL = re.compile(r"(?<![\w./])-?\d+(?:/\d+)?(?![\w./])")


def _entries(lines):
    """(index, section, key) of every key line, comments dropped."""
    section, out = None, []
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            out.append((i, section, line.partition("=")[0].strip()))
    return out


def _damage(text, how, rng):
    """One seeded damage to a scenario: the damaged text and the section hit."""
    lines = text.splitlines()
    entries = _entries(lines)
    if how == "drop":
        i, section, _ = rng.choice([e for e in entries if e[2] in REQUIRED_KEYS.get(e[1], ())])
        del lines[i]
    elif how == "duplicate":
        section = rng.choice(sorted({s for _, s, _ in entries}))
        lines += [f"[{section}]"] + [lines[i] for i, s, _ in entries if s == section]
    elif how in ("abc", "zero"):
        # a rational replaced by abc, or its denominator by 0
        i, section, _ = rng.choice([e for e in entries
                                    if RATIONAL.search(lines[e[0]].split("#", 1)[0])])
        code, hash_, comment = lines[i].partition("#")
        spot = rng.choice(list(RATIONAL.finditer(code)))
        new = "abc" if how == "abc" else spot.group().partition("/")[0] + "/0"
        lines[i] = code[:spot.start()] + new + code[spot.end():] + hash_ + comment
    elif how == "misplaced":
        kind = re.search(r"^kind = (\w+)$", text, re.M).group(1)
        keys = [("scenario", f"{key} = 100")
                for key in ("assert_less_than", "assert_at_least", "exceeds")
                if key not in BOUND_KEYS.get(kind, ("assert_less_than",))]
        if "[curve]" in lines and kind != "s_curve_bound":
            z = next(line for line in lines if line.startswith("z = "))
            keys.append(("curve", z.replace("z = ", "dominate_via = ")))
        section, line = rng.choice(keys)
        lines.insert(lines.index(f"[{section}]") + 1, line)
    elif how == "repeat":
        i, section, _ = rng.choice(entries)
        lines.insert(i + 1, lines[i])
    elif how == "basis":
        i, section, _ = rng.choice([e for e in entries if e[2] == "basis"])
        code, hash_, comment = lines[i].partition("#")
        name = rng.choice(code.partition("=")[2].split())
        lines[i] = f"{code.rstrip()} {name} {hash_}{comment}"
    elif how == "power":
        # a zero constant term whose exponent is just beyond the cap
        i, section, _ = rng.choice([e for e in entries
                                    if e[2].split()[0] in DIVISOR_KEYS.get(e[1], ())])
        code, hash_, comment = lines[i].partition("#")
        k = rng.randint(MAX_POWER + 1, 3 * MAX_POWER)
        lines[i] = f"{code.rstrip()} + (u^{k} - u^{k}) {hash_}{comment}"
    elif how == "shadow":
        # a divisor line that gives a generator or cone name another class
        section = "threefold"
        values = {key: lines[i].split("#", 1)[0].partition("=")[2].strip()
                  for i, s, key in entries if s == section}
        generators = values["basis"].split()
        names = {g: g for g in generators}
        names.update((key.split()[1], value) for key, value in values.items()
                     if key.startswith("cone "))
        taken = {key.split()[1] for key in values if key.startswith("divisor ")}
        name = rng.choice(sorted(set(names) - taken))
        other = rng.choice([g for g in generators if g != names[name]])
        lines.insert(lines.index(f"[{section}]") + 1, f"divisor {name} = {other}")
    elif how == "ord":
        # one declared ord coefficient moved off the one the schedule gives
        section = "curve"
        i = next(i for i, line in enumerate(lines) if line.startswith("ord = "))
        items = lines[i].removeprefix("ord = ").split(",")
        k = rng.randrange(len(items))
        items[k] = f"{items[k].strip()} + {rng.randint(1, 5)}"
        lines[i] = "ord = " + ", ".join(items)
    elif how == "cone":
        # the cone generators that put -K in the cone (4H - EC - EL is R + EC,
        # or 2(H - EL) + (2H - EC) + EL) dropped, so -K is outside it
        section = "threefold"
        dropped = {i for i, s, key in entries if key in ("cone R", "cone 2H-EC")}
        lines = [line for i, line in enumerate(lines) if i not in dropped]
    elif how == "restrict":
        # one more surface generator in the image of a threefold generator
        i, section, _ = rng.choice([e for e in entries if e[2].startswith("restrict ")])
        basis = next(lines[j] for j, s, key in entries if s == section and key == "basis")
        code, hash_, comment = lines[i].partition("#")
        generator = rng.choice(basis.split("#", 1)[0].partition("=")[2].split())
        lines[i] = f"{code.rstrip()} + {generator} {hash_}{comment}"
    elif how == "header":
        # a section header misspelled: the kind reads no section of that name
        i = rng.choice([i for i, line in enumerate(lines)
                        if line.startswith("[") and line != "[scenario]"])
        section = lines[i][1:-2]
        lines[i] = f"[{section}]"
    elif how == "empty":
        section = "bogus"
        lines.append("[bogus]")
    elif how == "foreign":
        # a section that another kind reads, appended with a key it would read
        section = rng.choice([s for s in ("divisor", "decompose", "pairing")
                              if f"[{s}]" not in lines])
        lines += [f"[{section}]", "class = H"]
    else:
        i, section, _ = rng.choice(entries)
        lines.insert(i + 1, "bogus = 1")
    return "\n".join(lines) + "\n", section


# the damage that adds a section the scenario's kind does not read
UNKNOWN_SECTIONS = ("header", "empty", "foreign")


@pytest.mark.parametrize("how", ["drop", "duplicate", "abc", "zero", "unknown", "misplaced",
                                 "repeat", "basis", "power", "shadow", "restrict", "ord",
                                 "cone", *UNKNOWN_SECTIONS])
def test_damaged_scenarios_are_isolated_errors(how):
    """Seeded damage to a bundled scenario gives one ERROR row that names the
    damaged section; the next scenario in the batch still passes.  A section
    the kind does not read is reported at its header, before any missing
    section."""
    names = bundled_scenario_names()
    # a restrict or ord line is damaged only where there is one
    damageable = ([k for k, n in enumerate(names) if n.removesuffix(".scn") in SECTION_FILES]
                  if how in ("restrict", "ord") else range(len(names)))
    rng = random.Random(f"damage-{how}")
    for _ in range(12):
        k = rng.choice(damageable)
        neighbour = names[(k + 1) % len(names)]
        damaged, section = _damage(load_bundled(names[k]), how, rng)
        report = run_verify([("damaged", damaged), (neighbour, load_bundled(neighbour))])
        first, second = report.results
        assert first.status == "ERROR", (names[k], section, first)
        assert f"[{section}]" in first.detail, (names[k], first.detail)
        if how in UNKNOWN_SECTIONS:
            assert re.fullmatch(rf"\[{section}\] \(line \d+\): unknown section; kind \w+ "
                                r"reads \[\w+\](, \[\w+\])*", first.detail), first.detail
        assert second.status == "PASS", (neighbour, second)


# the parse errors that name no section, and the evaluation errors whose own
# message carries the context they arise in
SECTIONLESS = re.compile(r"missing the \[[^\]]*\] section|line \d+ is outside any section")
LOCATED = re.compile(r"\[.*?\] (?:.* )?\(line (\d+)\): ")
CONTEXT_ERRORS = ("ScheduleError", "IrrationalBreakpointError", "UnboundedThresholdError",
                  "NotPseudoEffectiveError")


def _edit(lines, rng):
    """One seeded edit of a file's lines: a line deleted or duplicated, a token
    of the file spliced into a line, or 1 to 4 characters cut from one."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    how = rng.choice(("delete", "duplicate", "splice", "cut"))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "splice":
        token = rng.choice(" ".join(lines).split())
        at = rng.randint(0, len(lines[i]))
        lines[i] = f"{lines[i][:at]} {token} {lines[i][at:]}"
    else:
        at = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:at] + lines[i][at + rng.randint(1, 4):]
    return lines


def test_seeded_line_edits_give_one_located_row_each():
    """1,000 seeded one-line edits of the bundled files each give one row
    through ``run_verify`` and both renderers.  A parse ERROR names its
    section and a line of the edited file, unless the error has no section
    to name; an evaluation ERROR is one whose message carries its context.
    An edit that still passes is not checked here."""
    files = {name: load_bundled(name).splitlines() for name in bundled_scenario_names()}
    rng = random.Random("reader-fuzz")
    for _ in range(1000):
        name = rng.choice(sorted(files))
        lines = _edit(files[name], rng)
        report = run_verify([(name, "\n".join(lines) + "\n")])
        report.text(include_detail=True)
        json.dumps(report.json_dict())
        (row,) = report.results
        if row.status != "ERROR":
            continue
        if row.kind != "?":
            assert row.detail.startswith(tuple(f"{e}: " for e in CONTEXT_ERRORS)), row.detail
        elif not SECTIONLESS.fullmatch(row.detail):
            located = LOCATED.match(row.detail)
            assert located and 1 <= int(located.group(1)) <= len(lines), row.detail


@pytest.fixture
def builds(monkeypatch):
    """An empty section cache, and a count of the section builds by kind."""
    from collections import Counter

    from divstab import scenario
    monkeypatch.setattr(scenario, "_BUILT", {})
    calls = Counter()
    for kind in ("threefold", "surface", "schedule"):
        def counted(*args, kind=kind, build=getattr(scenario, f"_build_{kind}")):
            calls[kind] += 1
            return build(*args)
        monkeypatch.setattr(scenario, f"_build_{kind}", counted)
    return calls


def test_each_distinct_section_is_built_once_per_process(builds):
    """The 17 files hold 3 distinct [threefold], [surface] and [schedule]
    texts: a first pass builds each once and a second builds none."""
    items = [(n, load_bundled(n)) for n in bundled_scenario_names()]
    assert len(items) == 17
    assert run_verify(items).all_pass
    assert dict(builds) == {"threefold": 3, "surface": 3, "schedule": 3}
    builds.clear()
    assert run_verify(items).all_pass
    assert not builds


def test_a_damaged_section_names_its_line_on_every_parse(builds):
    """An error is never cached: the same damaged section gives the same ERROR
    row, with the same line, each time it is parsed."""
    text = load_bundled("lemma_4_1.scn").replace(
        "divisor R = 4H - 2EC - EL", "divisor R = 4H - 2EC - EL\ndivisor EL = H")
    line = text.splitlines().index("divisor EL = H") + 1
    first, second = run_verify([("damaged", text), ("damaged", text)]).results
    assert first.status == "ERROR"
    assert f"[threefold] divisor EL (line {line}): 'EL' is" in first.detail
    assert first.line() == second.line() and first.detail == second.detail
    assert builds["threefold"] == 2


def test_a_section_moved_down_by_comments_is_found_again(builds):
    """The cache key holds no line numbers: a clean section further down the
    file finds the objects built for it before."""
    text = load_bundled("lemma_4_1.scn")
    moved = text.replace("[threefold]", "# a\n# b\n\n# c\n[threefold]")
    assert moved != text
    first = parse_scenario(text, "lemma_4_1")
    second = parse_scenario(moved, "lemma_4_1")
    assert dict(builds) == {"threefold": 1, "surface": 1, "schedule": 1}
    assert (second.model, second.surface, second.schedule) == (
        first.model, first.surface, first.schedule)
    assert second.model is first.model and second.surface is first.surface
    assert evaluate_scenario(second).status == "PASS"
