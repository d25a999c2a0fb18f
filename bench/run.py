"""Benchmark of the divstab package: one seeded workload per run.

    python3 bench/run.py --workload verify_bundled --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``.  The package is imported from
``src/`` next to this directory, never from an installed copy.  A run sets
up the workload several times (fresh imports each time) and reports the
median, then calls the items in a closed loop with one caller until
``--seconds`` have passed and at least MIN_PASSES passes and MIN_SAMPLES
items are done, finishing the current pass.  Every output is checked
exactly; a failed or raising item is counted and the loop goes on.

``--trace 0`` reports the end-to-end metrics, including the wall time of a
fresh ``python -m divstab.cli`` process.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of ``tracing.py``.

Items are timed from outside, around the whole call into the package: the
``seconds`` field of a scenario result leaves out parsing, so it is not used.

Timings are scaled to one reference speed.  On shared hosts the speed of a
core changes by up to 2x for seconds at a time, which no amount of repetition
within one run averages out.  So the run is pinned to the allowed
core on which a fixed Fraction loop that does not use divstab runs fastest
(``quietest_core``), and every timed call is bracketed by that loop: its
wall time is multiplied by REF_NOMINAL_S over the mean of the two bracketing
reference times.  Items use the best of three loops on each side
(``reference_s``); set-up and command-line runs, which take longer and are
fewer, use the mean of fifty (``slow_reference_s``), a window long enough
to average over the host's short stalls.  A change to divstab moves the
scaled time exactly as it moves the wall time; a change in the host's speed
mostly cancels.  The unscaled figures are printed too.

The last line of standard output is the JSON result; the line before it
records the environment, sample counts, the unscaled figures and failures.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import RENDER_SPAN, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("scenario", "sinv", "zariski", "cones", "linalg", "lattice", "ratmath",
           "projgeo", "exprs", "cli")
SETUP_REPEATS = 11
MIN_SAMPLES = 100      # so the 90th percentile has ten samples above it
MIN_PASSES = 3         # so each item's median latency is one of its own samples
CLI_TIMEOUT_S = 120
MAX_NOTES = 20
REF_TERMS = 400
SLOW_REF_RUNS = 50
CORE_PROBE_RUNS = 100
MAX_CORES_PROBED = 8
# Time of the reference loop at the speed all timings are scaled to: its
# best time on a 2.1 GHz Xeon vCPU with Python 3.11, so scaled figures read
# as wall-clock times on that host when it runs at full speed.
REF_NOMINAL_S = 0.0009

# per-layer metrics: (span, field) read from a traced pass
LAYER_FIELDS = (
    ("scenario.parse_scenario", "calls"), ("scenario.parse_scenario", "self_ms"),
    ("exprs.parse_divisor_expr", "self_ms"),
    (RENDER_SPAN, "self_ms"),
    ("sinv.validate_schedule", "calls"), ("sinv.validate_schedule", "self_ms"),
    ("sinv.volume_charts", "calls"),
    ("zariski.build_chart", "calls"), ("zariski.build_chart", "self_ms"),
    ("zariski.v_sweep", "calls"), ("zariski.v_sweep", "self_ms"),
    ("zariski.zariski_decompose", "calls"), ("zariski.zariski_decompose", "self_ms"),
    ("cones.effective_decompose", "calls"), ("cones.effective_decompose", "self_ms"),
    ("cones.pseudoeffective_threshold", "calls"),
    ("cones.pseudoeffective_threshold", "self_ms"),
    ("linalg.solve_unique", "calls"), ("linalg.solve_unique", "self_ms"),
    ("linalg.is_negative_definite", "calls"),
    ("lattice.surface_pair", "calls"), ("lattice.surface_pair", "self_ms"),
    ("lattice.triple_product", "calls"), ("lattice.triple_product", "self_ms"),
    ("lattice.pair_with_curve", "calls"), ("lattice.restrict", "calls"),
    ("ratmath.integrate_region", "calls"), ("ratmath.integrate_region", "self_ms"),
    ("ratmath.integrate_univariate", "calls"),
    ("ratmath.rational_roots", "calls"), ("ratmath.rational_roots", "self_ms"),
    ("projgeo.verify_secant_lemma", "self_ms"), ("projgeo.common_fixed_points", "self_ms"),
    ("projgeo.contains_param_curve", "self_ms"),
    ("projgeo.invariant_quadrics", "calls"), ("projgeo.equation_character", "calls"),
    ("projgeo.parse_mpoly", "calls"),
)

UNITS = {"calls": "count", "self_ms": "ms"}
E2E_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms", "setup_s": "s",
             "cold_cli_s": "s", "peak_rss_mb": "MB"}


def reference_loop_s() -> float:
    """Wall time of one run of a fixed Fraction loop that does not use divstab."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def reference_s() -> float:
    """Best of three runs of the reference loop."""
    return min(reference_loop_s() for _ in range(3))


def slow_reference_s() -> float:
    """Mean of SLOW_REF_RUNS runs of the reference loop, for set-up and CLI runs."""
    return statistics.fmean(reference_loop_s() for _ in range(SLOW_REF_RUNS))


def quietest_core() -> int:
    """The allowed core on which the reference loop runs fastest, by median.

    On a shared host one core can run at about half the speed of another for
    minutes, because of what else runs on it and its sibling.
    """
    speeds = {}
    for core in sorted(os.sched_getaffinity(0))[:MAX_CORES_PROBED]:
        os.sched_setaffinity(0, {core})
        speeds[core] = statistics.median(reference_loop_s() for _ in range(CORE_PROBE_RUNS))
    return min(speeds, key=speeds.get)


def timed(fn, reference=reference_s):
    """(result, exception or None, scaled seconds, wall seconds) of one call."""
    before = reference()
    start = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:                           # noqa: BLE001 -- the caller reports it
        result, error = None, exc
    wall = perf_counter() - start
    return result, error, wall * 2 * REF_NOMINAL_S / (before + reference()), wall


def load_divstab() -> types.SimpleNamespace:
    """Import the package afresh from ``src/``."""
    for key in [k for k in sys.modules if k == "divstab" or k.startswith("divstab.")]:
        del sys.modules[key]
    ds = types.SimpleNamespace(**{m: importlib.import_module(f"divstab.{m}")
                                  for m in MODULES})
    where = Path(ds.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"divstab was imported from {where}, not from {SRC}")
    return ds


def set_up(workload_cls, seed: int):
    """Import and build the workload SETUP_REPEATS times; keep the last one.

    Returns the package, the workload, and median (scaled, wall) seconds of
    the import and of the whole set-up.
    """
    imports, totals = [], []
    for _ in range(SETUP_REPEATS):
        before = slow_reference_s()
        start = perf_counter()
        ds = load_divstab()
        imported = perf_counter() - start
        workload = workload_cls(ds, random.Random(seed))
        total = perf_counter() - start
        scale = 2 * REF_NOMINAL_S / (before + slow_reference_s())
        imports.append((imported * scale, imported))
        totals.append((total * scale, total))
    return ds, workload, _medians(imports), _medians(totals)


def _medians(pairs) -> tuple[float, float]:
    return tuple(statistics.median(column) for column in zip(*pairs))


class Tally:
    """Latencies per item, operations attempted, and notes for the failed ones."""

    def __init__(self):
        self.by_item: dict[int, list[tuple[float, float]]] = {}   # index -> (scaled, wall)
        self.passes: list[tuple[float, float]] = []              # (scaled, wall) busy time
        self.attempted = 0
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.notes)

    @property
    def samples(self) -> int:
        return sum(len(times) for times in self.by_item.values())

    def typical_latencies(self, column: int) -> list[float]:
        """Every sample, counted at its item's median latency over the run.

        A sample slowed by the host then cannot move a percentile by itself;
        the spread between items, which the percentiles describe, stays.
        """
        out = []
        for times in self.by_item.values():
            out += [statistics.median(t[column] for t in times)] * len(times)
        return out

    def typical_pass_s(self, column: int) -> float:
        """A pass at each item's median latency: one slow pass does not move it."""
        return sum(statistics.median(t[column] for t in times)
                   for times in self.by_item.values())

    def absorb(self, other: "Tally") -> None:
        for index, times in other.by_item.items():
            self.by_item.setdefault(index, []).extend(times)
        self.attempted += other.attempted
        self.notes += other.notes


def run_pass(items, order: random.Random, tally: Tally, tracer: Tracer | None = None):
    indexed = list(enumerate(items))
    order.shuffle(indexed)
    busy = [0.0, 0.0]
    for index, item in indexed:
        call = item.run if tracer is None else functools.partial(tracer.item, item.run)
        if tracer is not None:
            tracer.active = True
        output, error, scaled, wall = timed(call)
        if tracer is not None:
            tracer.active = False
        if error is not None:
            note = f"{item.label}: {type(error).__name__}: {error}"
        else:
            try:
                note = item.check(output)
            except Exception as exc:                   # noqa: BLE001 -- counted, run goes on
                note = f"{item.label}: oracle raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        tally.by_item.setdefault(index, []).append((scaled, wall))
        busy[0] += scaled
        busy[1] += wall
        if note is not None:
            tally.notes.append(note)
    tally.passes.append(tuple(busy))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, taking the upper sample at a tie."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload, seed: int, seconds: float, tally: Tally, cli: "ColdCli") -> None:
    """Run passes; the command-line runs are spread over the same stretch of time."""
    order = random.Random(f"order:{seed}")
    start = perf_counter()
    while True:
        run_pass(workload.items, order, tally)
        looped = perf_counter() - start - cli.spent
        cli.run_due(looped / seconds if seconds > 0 else math.inf)
        if looped >= seconds and len(tally.passes) >= MIN_PASSES and tally.attempted >= MIN_SAMPLES:
            cli.run_due(math.inf)
            return


class ColdCli:
    """The workload's command-line runs, each in a fresh interpreter, output checked."""

    def __init__(self, runs: list, tally: Tally):
        self.runs = runs
        self.tally = tally
        self.times: list[tuple[float, float]] = []      # (scaled, wall) per run
        self.spent = 0.0                                 # wall seconds, checks included
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run_due(self, progress: float) -> None:
        """Run those of the runs scheduled before ``progress`` (0 to 1) of the loop."""
        while len(self.times) < len(self.runs) and len(self.times) <= progress * len(self.runs):
            start = perf_counter()
            args, check = self.runs[len(self.times)]
            proc, error, scaled, wall = timed(functools.partial(
                subprocess.run, [sys.executable, "-m", "divstab.cli", *args], cwd=ROOT,
                env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S),
                slow_reference_s)
            if error is not None:
                raise error
            self.times.append((scaled, wall))
            self.tally.attempted += 1
            note = check(proc.returncode, proc.stdout)
            if note is not None:
                self.tally.notes.append(f"cli {' '.join(args[:2])}: {note}")
            self.spent += perf_counter() - start


def item_figures(tally: Tally, items: int, column: int) -> dict:
    """Throughput and latency from scaled (column 0) or wall (column 1) times."""
    latencies = tally.typical_latencies(column)
    correct_share = 1 - tally.failed / tally.attempted
    return {
        "items_per_s": items * correct_share / tally.typical_pass_s(column),
        "item_p50_ms": 1000 * percentile(latencies, 0.5),
        "item_p90_ms": 1000 * percentile(latencies, 0.9),
    }


def measure_traced(ds, workload, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced passes; return scaled span snapshots."""
    tracer, order = Tracer(), random.Random(f"order:{seed}")
    traced, snapshots = Tally(), []
    start = perf_counter()
    while True:
        run_pass(workload.items, order, tally)
        tracer.install(ds)
        try:
            tracer.reset()
            run_pass(workload.items, order, traced, tracer)
        finally:
            tracer.uninstall()
        scaled, wall = traced.passes[-1]
        snapshots.append({name: (s.calls, s.self_s * scaled / wall, s.outcomes)
                          for name, s in tracer.stats.items()})
        if perf_counter() - start >= seconds:
            break
    overhead = traced.typical_pass_s(0) / tally.typical_pass_s(0)
    tally.absorb(traced)
    return snapshots, overhead


def layer_metrics(snapshots: list[dict], import_s: float, overhead: float) -> dict:
    first = snapshots[0]

    def calls(span):
        return first.get(span, (0, 0.0, 0))[0]

    def outcomes(span):
        return first.get(span, (0, 0.0, 0))[2]

    metrics = {}
    for span, field in LAYER_FIELDS:
        if field == "calls":
            value = calls(span)
        else:
            value = 1000 * statistics.median(s.get(span, (0, 0.0, 0))[1] for s in snapshots)
        metrics[f"{span}.{field}"] = {"value": value, "unit": UNITS[field]}
    solves, chambers = calls("linalg.solve_unique"), outcomes("zariski.build_chart")
    metrics["linalg.solve_unique.none_ratio"] = {
        "value": outcomes("linalg.solve_unique") / solves if solves else 0.0, "unit": "ratio"}
    metrics["zariski.sweeps_per_chamber"] = {
        "value": calls("zariski.v_sweep") / chambers if chambers else 0.0, "unit": "ratio"}
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "divstab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scn"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "divstab" / "__init__.py").is_file():
        print(f"error: no divstab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one core for the whole run, command-line children included, so the
    # reference loop always measures the core the timed code runs on
    core = quietest_core()
    os.sched_setaffinity(0, {core})

    ds, workload, import_s, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    tally = Tally()
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_rev": git_rev(),
        "src_sha256": source_digest(), "nproc": os.cpu_count(),
        "setup_repeats": SETUP_REPEATS, "items_per_pass": len(workload.items),
        "ref_nominal_s": REF_NOMINAL_S, "core": core,
    }
    if args.trace:
        snapshots, overhead = measure_traced(ds, workload, args.seed, args.seconds, tally)
        metrics = layer_metrics(snapshots, import_s[0], overhead)
        env["traced_passes"] = len(snapshots)
    else:
        cli_tally = Tally()
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
            cli = ColdCli(workload.cli_runs(Path(tmp)), cli_tally)
            measure(workload, args.seed, args.seconds, tally, cli)
        figures = [item_figures(tally, len(workload.items), column) for column in (0, 1)]
        tally.absorb(cli_tally)
        cli_times = cli.times
        for column, figure in enumerate(figures):
            figure["setup_s"] = setup_s[column]
            figure["cold_cli_s"] = statistics.median(t[column] for t in cli_times)
        figures[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in figures[0].items()}
        env.update(passes=len(tally.passes), cli_samples=len(cli_times),
                   wall_clock=figures[1])
    env["item_samples"] = tally.samples
    env["fail_frac"] = tally.failed / tally.attempted
    env["failures"] = dict(list(Counter(tally.notes).items())[:MAX_NOTES])
    print(json.dumps(env))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
