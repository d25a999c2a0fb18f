"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Checks that tracing changes no output, that every span fires on the
workloads the per-layer table reads it from, that nested spans do not count
self time twice, that the bindings are restored, and that the metric names
printed match BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run                                              # noqa: E402
from tracing import ITEM_SPAN, RENDER_SPAN, SPANS, Tracer   # noqa: E402
from workloads import WORKLOADS                         # noqa: E402

VERIFY = ("verify_bundled", "verify_resplit")

# span -> workloads whose traced pass must call it (the per-layer table)
SPAN_WORKLOADS = {
    "scenario.parse_scenario": VERIFY,
    "exprs.parse_divisor_expr": VERIFY,
    RENDER_SPAN: VERIFY,
    "sinv.validate_schedule": VERIFY,
    "sinv.volume_charts": VERIFY,
    "sinv.s_curve": VERIFY,
    "sinv.dominance_bound": ("verify_bundled",),
    "zariski.build_chart": VERIFY,
    "zariski.v_sweep": VERIFY + ("point_queries",),
    "zariski.zariski_decompose": VERIFY + ("point_queries",),
    "cones.effective_decompose": VERIFY + ("point_queries",),
    "cones.pseudoeffective_threshold": VERIFY + ("point_queries",),
    "linalg.solve_unique": VERIFY + ("point_queries",),
    "linalg.is_negative_definite": VERIFY + ("point_queries",),
    "lattice.surface_pair": VERIFY + ("point_queries",),
    "lattice.triple_product": VERIFY,
    "lattice.pair_with_curve": VERIFY,
    "lattice.restrict": VERIFY + ("point_queries",),
    "ratmath.integrate_region": VERIFY,
    "ratmath.integrate_univariate": VERIFY,
    "ratmath.rational_roots": VERIFY + ("point_queries",),
    "projgeo.verify_secant_lemma": ("geo_certificates",),
    "projgeo.common_fixed_points": ("geo_certificates",),
    "projgeo.contains_param_curve": ("geo_certificates",),
    "projgeo.invariant_quadrics": ("geo_certificates",),
    "projgeo.equation_character": ("geo_certificates",),
    "projgeo.parse_mpoly": ("geo_certificates",),
}


def _comparable(output):
    """Outputs with the run-dependent timing fields removed."""
    if isinstance(output, str) and output.startswith("{"):
        report = json.loads(output)
        for entry in report["scenarios"]:
            entry.pop("seconds")
        return report
    return output


def _items(workload):
    # one cut per resplit chamber keeps the test short and still covers every scenario
    if workload.name == "verify_resplit":
        return workload.items[::workload.SPLITS]
    return workload.items


@pytest.fixture(scope="module")
def ds():
    return run.load_divstab()


def test_span_table_covers_every_span():
    assert set(SPAN_WORKLOADS) == set(SPANS) | {RENDER_SPAN}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced_and_spans_fire(ds, name):
    workload = WORKLOADS[name](ds, random.Random(7))
    items = _items(workload)
    plain = [_comparable(item.run()) for item in items]
    tracer = Tracer()
    tracer.install(ds)
    try:
        tracer.active = True
        traced = [_comparable(tracer.item(item.run)) for item in items]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == plain
    fired = {span for span, stat in tracer.stats.items() if stat.calls}
    expected = {span for span, names in SPAN_WORKLOADS.items() if name in names}
    assert expected <= fired, sorted(expected - fired)


def test_nested_spans_count_self_time_once(ds):
    workload = WORKLOADS["verify_bundled"](ds, random.Random(7))
    (item,) = [i for i in workload.items if i.label == "lemma_4_3_ec_bound"]
    tracer = Tracer()
    tracer.install(ds)
    try:
        tracer.active = True
        start = perf_counter()
        tracer.item(item.run)
        outer = perf_counter() - start
    finally:
        tracer.active = False
        tracer.uninstall()
    stats = tracer.stats
    assert stats["sinv.dominance_bound"].calls == stats["sinv.s_curve"].calls == 1
    assert all(stat.self_s >= 0 for stat in stats.values())
    # the bound's own time excludes the s_curve (and its charts) it calls
    assert stats["sinv.dominance_bound"].self_s < 0.5 * outer
    total_self = sum(stat.self_s for stat in stats.values())
    assert total_self <= outer
    assert total_self > 0.9 * outer
    assert stats[ITEM_SPAN].calls == 1


def test_uninstall_restores_every_binding(ds):
    originals = (ds.sinv.build_chart, ds.scenario.effective_decompose,
                 ds.zariski.integrate_region, ds.scenario.Report.text)
    tracer = Tracer()
    tracer.install(ds)
    try:
        assert ds.sinv.build_chart is not originals[0]
        assert ds.scenario.effective_decompose is not originals[1]
        assert ds.zariski.integrate_region is not originals[2]
        assert ds.scenario.Report.text is not originals[3]
        assert ds.sinv.build_chart.__wrapped__ is ds.zariski.build_chart.__wrapped__
    finally:
        tracer.uninstall()
    assert (ds.sinv.build_chart, ds.scenario.effective_decompose,
            ds.zariski.integrate_region, ds.scenario.Report.text) == originals


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(capsys, trace, key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "geo_certificates", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]}
