"""The benchmark workloads: seeded inputs, items and exact oracles.

``BENCHMARK.json`` lists three of them.  The fourth, ``verify_resplit``, is
a diagnostic: it fails at this revision of the package (the chart builder
misses wall crossings near the ends of a cell), so a benchmark run of it
reports ``correct: false`` with the wrong fractions.  It stays runnable with
``--workload verify_resplit`` and is not filtered or re-seeded.

Each workload is built from a loaded ``divstab`` package (``ds``, a
namespace of its modules) and a seed.  One pass is a list of items; the
runner shuffles each pass and calls the items one at a time (a closed loop
with one caller).  An item's ``run`` calls the program through module
attributes looked up at call time, so a traced run sees the wrappers.  An
item's ``check`` returns None when the output is exactly right, or a note
naming the computed and expected values.

Each workload also lists its command-line runs (``cli_runs``): arguments
for ``python -m divstab.cli`` and an oracle for the exit code and output.
The runner times them in a fresh interpreter each.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


CLI_REPEATS = 21       # command-line runs per workload; the runner reports their median


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _header(text: str, key: str) -> str:
    """A ``key = value`` line of the [scenario] section, read without the program."""
    match = re.search(rf"^\[scenario\]$.*?^{key} = ([^\n]*)$", text, re.M | re.S)
    if match is None:
        raise ValueError(f"scenario text has no {key!r}")
    return match.group(1).strip()


def _coefficient_map(text: str) -> dict[str, Fraction]:
    return {gen: Fraction(num) for gen, _, num in
            (item.partition(":") for item in text.split())}


def _value_matches(kind: str, computed: str, expected: str) -> bool:
    try:
        if kind == "infeasible_scan":
            return expected == "infeasible" and computed.startswith("infeasible at all ")
        if kind == "effective_decomposition":
            if expected == "infeasible":
                return computed == "infeasible"
            return _coefficient_map(computed) == _coefficient_map(expected)
        return Fraction(computed) == Fraction(expected)
    except (ValueError, ZeroDivisionError):
        return False


def _check_results(results: list, golden: list[tuple[str, str, str, str]]) -> "str | None":
    """Compare rendered results with (label, name, kind, expected), in order."""
    if len(results) != len(golden):
        return f"{len(results)} results for {len(golden)} scenarios"
    notes = []
    for r, (label, name, kind, expected) in zip(results, golden):
        if (r["name"] != name or r["status"] != "PASS"
                or not _value_matches(kind, r["computed"], expected)):
            notes.append(f"{label}: computed {r['computed']}, expected {expected} "
                         f"({r['status']})")
    return "; ".join(notes) or None


def render_verify(ds, items: list[tuple[str, str]]) -> str:
    """``divstab --json verify`` in process: evaluate, then render the report."""
    report = ds.scenario.run_verify(items)
    return json.dumps(report.json_dict(), indent=2, sort_keys=True)


def _golden(label: str, name: str, text: str) -> tuple[str, str, str, str]:
    return label, name, _header(text, "kind"), _header(text, "expected")


class _Verify:
    """Shared item and CLI oracle for the two ``verify`` workloads."""

    def __init__(self, ds, inputs: list[tuple[str, str, str]]):
        # inputs: (label, scenario name, scenario text)
        self.ds = ds
        self.inputs = inputs
        self.items = [self._item(label, name, text) for label, name, text in inputs]

    def _item(self, label: str, name: str, text: str) -> Item:
        golden = [_golden(label, name, text)]
        return Item(label, lambda: render_verify(self.ds, [(name, text)]),
                    lambda out: _check_results(json.loads(out)["scenarios"], golden))

    def _check_cli(self, inputs, returncode: int, stdout: str) -> "str | None":
        golden = [_golden(*entry) for entry in inputs]
        try:
            results = json.loads(stdout)["scenarios"]
        except (ValueError, KeyError):
            return f"unreadable output (exit {returncode})"
        note = _check_results(results, golden)
        if note is None and returncode != 0:
            return f"exit code {returncode}"
        return note


class VerifyBundled(_Verify):
    """All bundled scenarios, each one item of ``run_verify``."""

    name = "verify_bundled"
    CLI_REPEATS = 11       # each command-line run takes about a second

    def __init__(self, ds, rng: random.Random):
        scn = ds.scenario
        inputs = []
        for file_name in scn.bundled_scenario_names():
            name = file_name.removesuffix(".scn")
            inputs.append((name, name, scn.load_bundled(file_name)))
        super().__init__(ds, inputs)

    def cli_runs(self, workdir) -> list:
        check = functools.partial(self._check_cli, self.inputs)
        return [(["--json", "verify"], check)] * self.CLI_REPEATS


def split_chamber(text: str, index: int, at: Fraction) -> str:
    """The scenario with schedule chamber ``index`` (in u order) cut at ``at``.

    Both halves keep the chamber's negative part; a curve scenario's ``ord``
    entry for the chamber is duplicated.  The geometry is unchanged, so the
    scenario's expected value stays the golden of the unsplit scenario.
    """
    lines = text.splitlines()
    chamber_rows = [k for k, line in enumerate(lines) if line.startswith("chamber ")]
    bounds = [tuple(Fraction(b) for b in lines[k].split("=")[0].split()[1:3])
              for k in chamber_rows]
    order = sorted(range(len(bounds)), key=lambda k: bounds[k][0])
    row = chamber_rows[order[index]]
    lo, hi = bounds[order[index]]
    if not lo < at < hi:
        raise ValueError(f"split point {at} is outside chamber ({lo}, {hi})")
    negative = lines[row].split("=", 1)[1].strip()
    lines[row:row + 1] = [f"chamber {lo} {at} = {negative}",
                          f"chamber {at} {hi} = {negative}"]
    for k, line in enumerate(lines):
        if line.startswith("ord = "):
            entries = [e.strip() for e in line[len("ord = "):].split(",")]
            entries.insert(index, entries[index])
            lines[k] = "ord = " + ", ".join(entries)
    return "\n".join(lines) + "\n"


class VerifyResplit(_Verify):
    """Every chamber of every scheduled bundled scenario, cut at seeded points.

    A diagnostic workload, not listed in ``BENCHMARK.json``: see the module
    docstring.

    Each chamber yields SPLITS variants, one cut in each of SPLITS equal
    strata of the chamber, at a seeded multiple of 1/GRID of its width; the
    strata keep the work per pass alike from seed to seed.
    """

    name = "verify_resplit"
    SPLITS = 3
    GRID = 120
    CLI_REPEATS = 3        # each command-line run verifies SPLITS cuts of every scenario

    def __init__(self, ds, rng: random.Random):
        scn = ds.scenario
        inputs = []
        self.cli_inputs = []
        for file_name in scn.bundled_scenario_names():
            text = scn.load_bundled(file_name)
            if "\n[schedule]\n" not in text:
                continue
            name = file_name.removesuffix(".scn")
            bounds = sorted(tuple(Fraction(b) for b in line.split()[1:3])
                            for line in text.splitlines() if line.startswith("chamber "))
            stratum = self.GRID // self.SPLITS
            for index, (lo, hi) in enumerate(bounds):
                for j in range(self.SPLITS):
                    k = j * stratum + rng.randint(1, stratum - 1)
                    at = lo + (hi - lo) * Fraction(k, self.GRID)
                    inputs.append((f"{name}@{at}", name, split_chamber(text, index, at)))
            # the command line gets every cut of each scenario's last chamber
            self.cli_inputs += inputs[-self.SPLITS:]
        super().__init__(ds, inputs)

    def cli_runs(self, workdir) -> list:
        paths = []
        for k, (_, name, text) in enumerate(self.cli_inputs):
            path = workdir / f"{k:02d}_{name}.scn"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        check = functools.partial(self._check_cli, self.cli_inputs)
        return [(["--json", "verify", *paths], check)] * self.CLI_REPEATS


# ---------------------------------------------------------------- point queries

def _pair(a, b, form) -> Fraction:
    """Surface intersection of two rational classes, straight from the form."""
    n = form.basis.rank
    return sum((a.coeffs[i] * b.coeffs[j] * form.value(i, j)
                for i in range(n) for j in range(n)), Fraction(0))


def _dot(y, x) -> Fraction:
    return sum((a * b for a, b in zip(y, x)), Fraction(0))


def _combination(columns: list[list[Fraction]], target: list[Fraction]):
    """The unique x with sum x_j columns[j] = target, or None (Gauss-Jordan)."""
    rows = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    ncols, pivot_row, pivots = len(columns), 0, []
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    if any(row[-1] != 0 for row in rows[pivot_row:]):
        return None
    return [rows[k][-1] for k in range(ncols)]


def _certify_decomposition(ds, cls, cone, outcome) -> "str | None":
    """A decomposition recombines to the class; an Infeasible carries a witness."""
    generators = [list(g.coeffs) for g in cone.generators]
    if isinstance(outcome, ds.cones.Infeasible):
        y = outcome.witness
        if y is None:
            return f"{cls}: infeasible without a witness"
        if any(_dot(y, g) < 0 for g in generators) or _dot(y, cls.coeffs) >= 0:
            return f"{cls}: witness {y} does not separate"
        return None
    coeffs = outcome.coefficients
    total = [sum((c * g[i] for c, g in zip(coeffs, generators)), Fraction(0))
             for i in range(len(cls.coeffs))]
    if any(c < 0 for c in coeffs) or total != list(cls.coeffs):
        return f"{cls}: decomposition {coeffs} does not recombine"
    return None


def _certify_zariski(curves, form, d, positive, negative) -> "str | None":
    """P + N = D, N >= 0 on the support, P . C = 0 there, P nef on every curve."""
    by_name = dict(curves)
    support = [name for name, _ in negative]
    n_class = [sum((c * by_name[name].coeffs[i] for name, c in negative), Fraction(0))
               for i in range(form.basis.rank)]
    if [p + n for p, n in zip(positive.coeffs, n_class)] != list(d.coeffs):
        return f"P + N != D for {d}"
    if any(c < 0 for _, c in negative):
        return f"negative coefficient in N for {d}"
    for name, cls in curves:
        value = _pair(positive, cls, form)
        if value < 0 or (name in support and value != 0):
            return f"P . {name} = {value} for {d}"
    return None


def _restricted_ray(ds, sc, u: Fraction):
    """P(u)|_Y of a curve scenario, from the schedule chamber containing u.

    The same steps as ``divstab zariski <file> --u --v``.
    """
    chamber = next(ch for ch in sc.schedule.chambers if ch.u_lo <= u <= ch.u_hi)
    p = sc.schedule.positive_part(sc.surface.cls, sc.model.anticanonical, chamber)
    return ds.lattice.restrict(p, sc.surface.restriction)


class PointQueries:
    """A seeded stream of single exact queries: the CLI effdec/zariski usage."""

    name = "point_queries"
    PER_KIND = 96
    COEFF_RANGE = 6
    SWEEP_GRID = 64      # u = tau * k / SWEEP_GRID
    V_GRID = 16          # v = v_max * j / V_GRID, below the terminal v

    def __init__(self, ds, rng: random.Random):
        self.ds = ds
        scn = ds.scenario
        models = [scn.load_bundled_scenario("lemma_3_8.scn").model,   # 5 generators
                  scn.load_bundled_scenario("lemma_4_1.scn").model]   # 4 generators
        surfaces = [sc for sc in map(scn.load_bundled_scenario, scn.bundled_scenario_names())
                    if sc.kind in ("s_curve", "s_curve_bound", "negative_part")]
        self.items = []
        # cones and surfaces take turns so every seed has the same mix of cases
        for k in range(self.PER_KIND):
            model, sc = models[k % len(models)], surfaces[k % len(surfaces)]
            self.items.append(self._effdec(k, model, rng))
            self.items.append(self._threshold(k, model, rng))
            u = sc.schedule.tau * Fraction(rng.randint(1, self.SWEEP_GRID - 1), self.SWEEP_GRID)
            self.items.append(self._sweep(k, sc, u))
            self.items.append(self._zariski(k, sc, u, rng))
        self.cli_model = models[0]
        self.cli_classes = [self._cone_class(self.cli_model, rng)
                            for _ in range(CLI_REPEATS)]

    def _effdec(self, k, model, rng) -> Item:
        cone = model.effective_cone
        r = self.COEFF_RANGE
        cls = self.ds.lattice.DivisorClass(
            model.basis, [rng.randint(-r, r) for _ in model.basis.names])
        return Item(f"effdec#{k}", lambda: self.ds.cones.effective_decompose(cls, cone),
                    lambda out: _certify_decomposition(self.ds, cls, cone, out))

    @staticmethod
    def _cone_class(model, rng):
        """A nonzero nonnegative integer combination of the cone generators."""
        while True:
            coeffs = [rng.randint(0, 3) for _ in model.effective_cone.generators]
            if any(coeffs):
                break
        out = model.basis.zero()
        for c, g in zip(coeffs, model.effective_cone.generators):
            out = out + g.scale(c)
        return out

    def _threshold(self, k, model, rng) -> Item:
        cone, mk = model.effective_cone, model.anticanonical
        y = self._cone_class(model, rng)

        def check(t) -> "str | None":
            decompose, infeasible = self.ds.cones.effective_decompose, self.ds.cones.Infeasible
            at, beyond = mk - y.scale(t), mk - y.scale(t + Fraction(1, 1000))
            at_out, beyond_out = decompose(at, cone), decompose(beyond, cone)
            if t < 0 or isinstance(at_out, infeasible):
                return f"threshold {t} for {y}: -K - tY is not in the cone"
            if not isinstance(beyond_out, infeasible):
                return f"threshold {t} for {y}: a class beyond it is in the cone"
            return (_certify_decomposition(self.ds, at, cone, at_out)
                    or _certify_decomposition(self.ds, beyond, cone, beyond_out))

        return Item(f"threshold#{k}",
                    lambda: self.ds.cones.pseudoeffective_threshold(mk, y, cone), check)

    def _sweep(self, k, sc, u: Fraction) -> Item:
        d0, z = _restricted_ray(self.ds, sc, u), sc.z
        curves, form = sc.surface.extremal_curves, sc.surface.form
        start = d0.evaluate(u=u)

        def check(chambers) -> "str | None":
            v0 = Fraction(0)
            for ch in chambers:
                if ch.v_lo != v0 or not ch.v_lo < ch.v_hi:
                    return f"{sc.name} u={u}: chambers are not contiguous at v={v0}"
                v0 = ch.v_hi
                mid = (ch.v_lo + ch.v_hi) / 2
                d = start - z.scale(mid)
                positive = ch.positive.evaluate(v=mid)
                n_coeffs = _combination(
                    [list(dict(curves)[n].coeffs) for n in ch.support],
                    [a - b for a, b in zip(d.coeffs, positive.coeffs)])
                if n_coeffs is None:
                    return f"{sc.name} u={u} v={mid}: N is not on the support"
                note = _certify_zariski(curves, form, d, positive,
                                        list(zip(ch.support, n_coeffs)))
                if note is not None:
                    return f"{sc.name} u={u}: {note}"
            last = chambers[-1].positive.evaluate(v=v0)
            if _pair(last, last, form) != 0:
                return f"{sc.name} u={u}: volume does not vanish at the terminal v={v0}"
            return None

        return Item(f"sweep#{k}:{sc.name}@{u}",
                    lambda: self.ds.zariski.v_sweep(d0, z, u, curves, form), check)

    def _zariski(self, k, sc, u: Fraction, rng) -> Item:
        curves, form = sc.surface.extremal_curves, sc.surface.form
        d0 = _restricted_ray(self.ds, sc, u)
        v_max = self.ds.zariski.v_sweep(d0, sc.z, u, curves, form)[-1].v_hi
        v = v_max * Fraction(rng.randint(0, self.V_GRID - 1), self.V_GRID)
        target = d0.evaluate(u=u) - sc.z.scale(v)

        def run():
            d = _restricted_ray(self.ds, sc, u).evaluate(u=u)
            return self.ds.zariski.zariski_decompose(d - sc.z.scale(v), curves, form)

        def check(result) -> "str | None":
            note = _certify_zariski(curves, form, target, result.positive, result.negative)
            return None if note is None else f"{sc.name} u={u} v={v}: {note}"

        return Item(f"zariski#{k}:{sc.name}@({u},{v})", run, check)

    def cli_runs(self, workdir) -> list:
        runs = []
        for cls in self.cli_classes:
            terms = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{n}"
                             for n, c in zip(cls.basis.names, cls.coeffs))
            runs.append((["effdec", "lemma_3_8", "--class", terms],
                         functools.partial(self._check_cli, cls)))
        return runs

    def _check_cli(self, cls, returncode: int, stdout: str) -> "str | None":
        if returncode != 0:
            return f"effdec {cls}: exit code {returncode}"
        cone = self.cli_model.effective_cone
        printed = dict(line.split(": ") for line in stdout.splitlines())
        if list(printed) != list(cone.names):
            return f"effdec {cls}: printed {list(printed)}"
        outcome = self.ds.cones.Decomposition(
            cone, tuple(Fraction(printed[n]) for n in cone.names))
        return _certify_decomposition(self.ds, cls, cone, outcome)


class GeoCertificates:
    """The four projective-geometry checks through the command line entry point."""

    name = "geo_certificates"

    def __init__(self, ds, rng: random.Random):
        self.ds = ds
        self.items = [self._item(check) for check in ds.cli.GEO_CHECKS]

    def _item(self, check: str) -> Item:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.ds.cli.main(["geo", check])
            return code, out.getvalue()

        def verdict(result) -> "str | None":
            code, text = result
            if code != 0 or text.splitlines()[0] != f"PASS  geo {check}":
                return f"geo {check}: exit {code}, {text.splitlines()[0]!r}"
            return None

        return Item(f"geo:{check}", run, verdict)

    def cli_runs(self, workdir) -> list:
        return [(["geo", "all"], self._check_cli)] * CLI_REPEATS

    def _check_cli(self, returncode: int, stdout: str) -> "str | None":
        passes = [line for line in stdout.splitlines() if line.startswith("PASS  geo ")]
        if returncode != 0 or len(passes) != len(self.ds.cli.GEO_CHECKS):
            return f"geo all: exit {returncode}, {len(passes)} PASS lines"
        return None


WORKLOADS = {w.name: w for w in (VerifyBundled, VerifyResplit, PointQueries,
                                 GeoCertificates)}
