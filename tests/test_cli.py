import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

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
    assert first.detail == f"[decompose] line {line}: unknown key 'samples'"
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
    assert str(info.value) == f"[{section}] line {at + 1}: unknown key {key!r}"


def test_scan_passes_only_on_an_exact_argument():
    """Feasible on (7/10, 3/4] only, between the old sample points 7/10 and 4/5."""
    text = load_bundled("lemma_4_5_a.scn").replace("range = 4/3 10/3", "range = 7/10 27/10")
    result = run_verify([("narrow", text)]).results[0]
    assert (result.status, result.computed) == ("FAIL", "feasible at u in (7/10, 3/4]")
    assert result.detail == ("feasible exactly for u <= 3/4; "
                             "the facet (1, 0, 1) takes -4*u + 3 on the class")
    bound = text.replace("range = 7/10 27/10", "range = 3/4 27/10")
    result = run_verify([("bound", bound)]).results[0]
    assert (result.status, result.computed) == ("PASS", "infeasible at all u in (3/4, 27/10]")


@pytest.mark.parametrize("key,line,message", [
    ("range", "range = 4/3 4/3", "[decompose] range: expected lo < hi"),
    ("range", "range = 10/3 4/3", "[decompose] range: expected lo < hi"),
    ("class", "class = (u*u)*H - EC",
     "[decompose] class: an infeasible scan needs a class affine in u"),
    ("class", "class = (v)*H - EC",
     "[decompose] class: an infeasible scan needs a class affine in u"),
    ("expected", "expected = 3/4",
     "[scenario] expected: an infeasible scan expects 'infeasible'"),
])
def test_scan_rejects_bad_ranges_classes_and_expectations(key, line, message):
    text = load_bundled("lemma_4_5_a.scn")
    old = next(row for row in text.splitlines() if row.startswith(key + " = "))
    with pytest.raises(ScenarioFormatError, match=re.escape(message)):
        parse_scenario(text.replace(old, line))


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
        "ERROR", f"[{section}] line {at + 1}: unknown key {key!r}")
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
     "[scenario] line 8: repeated key 'assert_less_than', first given at line 7"),
    ("restrict EL = e1 + e2\n", "restrict EL = e1 + e2\nrestrict EL = e1\n",
     "[surface] line 30: repeated key 'restrict EL', first given at line 29"),
    ("pairing = l1.l2:1", "pairing = l1.l2:1 l1.l2:2",
     "[surface] pairing: repeated entry 'l1.l2'"),
    ("curve lR = H:1 EC:2 EL:1", "curve lR = H:1 EC:2 EL:1 EC:3",
     "[threefold] curve lR: repeated entry 'EC'"),
    ("basis = l1 l2 e1 e2", "basis = l1 l2 e1 e2 l1",
     "[surface] basis: duplicate generator names in ('l1', 'l2', 'e1', 'e2', 'l1')"),
    ("curve lR = H:1 EC:2 EL:1", "curve lR = H:1 EC:2 EL:1 XY:7",
     "[threefold] curve lR: curve table 'lR' names ['XY'] outside the basis "
     "('H', 'EC', 'EL')"),
    ("restrict EL = e1 + e2\n", "restrict EL = e1 + e2\nrestrict XX = e1\n",
     "[surface] restrict: restriction map names ['XX'] outside the basis "
     "('H', 'EC', 'EL')"),
    ("tensor = H.H.H:1", "tensor = H.H.X:1 H.H.H:1",
     "[threefold] tensor: unknown generator 'X'; basis is ('H', 'EC', 'EL')"),
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


DEEP = "(" * 400 + "1" + ")" * 400


def test_deep_parentheses_are_an_isolated_error():
    text = load_bundled("lemma_3_8.scn").replace("class = ", f"class = {DEEP}*H + ")
    report = run_verify([("lemma_3_8", text), ("lemma_4_2_s", load_bundled("lemma_4_2_s.scn"))])
    first, second = report.results
    assert (first.status, first.detail) == (
        "ERROR", "[decompose] class: parentheses nested deeper than 50 at position 50")
    assert second.status == "PASS"


def test_cli_deep_parentheses_are_a_usage_error(capsys):
    assert main(["effdec", "lemma_3_8", "--class", f"{DEEP}*H"]) == 2
    assert "parentheses nested deeper than 50" in capsys.readouterr().err


def test_an_empty_chamber_is_a_parse_error():
    text = load_bundled("sdiv_plane.scn").replace("chamber 0 1 =",
                                                  "chamber 0 0 =\nchamber 0 1 =")
    with pytest.raises(ScenarioFormatError,
                       match=re.escape("[schedule] the chamber [0, 0] is empty")):
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
        "ERROR", "[scenario] expected: malformed rational '2_27/4_48'")
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
        "functional (1, 0, 0, 0, 0) is nonnegative on every generator "
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
        "functional (2, 3, 2) is nonnegative on every generator "
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


def test_cli_usage_error_on_missing_file(capsys):
    assert main(["verify", "does-not-exist"]) == 2
    assert "no scenario file" in capsys.readouterr().err


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
    elif how == "restrict":
        # one more surface generator in the image of a threefold generator
        i, section, _ = rng.choice([e for e in entries if e[2].startswith("restrict ")])
        basis = next(lines[j] for j, s, key in entries if s == section and key == "basis")
        code, hash_, comment = lines[i].partition("#")
        generator = rng.choice(basis.split("#", 1)[0].partition("=")[2].split())
        lines[i] = f"{code.rstrip()} + {generator} {hash_}{comment}"
    else:
        i, section, _ = rng.choice(entries)
        lines.insert(i + 1, "bogus = 1")
    return "\n".join(lines) + "\n", section


@pytest.mark.parametrize("how", ["drop", "duplicate", "abc", "zero", "unknown", "misplaced",
                                 "repeat", "basis", "power", "shadow", "restrict"])
def test_damaged_scenarios_are_isolated_errors(how):
    """Seeded damage to a bundled scenario gives one ERROR row that names the
    damaged section; the next scenario in the batch still passes."""
    names = bundled_scenario_names()
    # a restrict line is damaged only where there is one
    damageable = ([k for k, n in enumerate(names) if n.removesuffix(".scn") in SECTION_FILES]
                  if how == "restrict" else range(len(names)))
    rng = random.Random(f"damage-{how}")
    for _ in range(12):
        k = rng.choice(damageable)
        neighbour = names[(k + 1) % len(names)]
        damaged, section = _damage(load_bundled(names[k]), how, rng)
        report = run_verify([("damaged", damaged), (neighbour, load_bundled(neighbour))])
        first, second = report.results
        assert first.status == "ERROR", (names[k], section, first)
        assert f"[{section}]" in first.detail, (names[k], first.detail)
        assert second.status == "PASS", (neighbour, second)


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
    assert f"[threefold] line {line}: divisor 'EL'" in first.detail
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
