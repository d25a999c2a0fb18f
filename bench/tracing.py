"""Per-layer spans recorded from outside the program.

A traced run replaces each public function listed in ``SPANS`` with a
wrapper at every place the package binds it: the defining module and every
``from .x import name`` in the other divstab modules.  ``Tracer.uninstall``
puts the original objects back.  Nothing in ``src/`` knows about tracing.

Spans nest on a stack.  A span's self time is its duration minus the time
covered by its direct child spans, so a span entered from inside another
(``dominance_bound`` calling ``s_curve``) is counted once, in its own entry.
Only per-name totals are kept: calls, self time, and one outcome counter.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _none_result(result) -> int:
    return result is None


def _chart_chambers(result) -> int:
    return len(result.chambers)


# span name -> (module, attribute, outcome counter or None)
SPANS = {
    "scenario.parse_scenario": ("scenario", "parse_scenario", None),
    "exprs.parse_divisor_expr": ("exprs", "parse_divisor_expr", None),
    "sinv.validate_schedule": ("sinv", "validate_schedule", None),
    "sinv.volume_charts": ("sinv", "volume_charts", None),
    "sinv.s_curve": ("sinv", "s_curve", None),
    "sinv.dominance_bound": ("sinv", "dominance_bound", None),
    "zariski.build_chart": ("zariski", "build_chart", _chart_chambers),
    "zariski.v_sweep": ("zariski", "v_sweep", None),
    "zariski.zariski_decompose": ("zariski", "zariski_decompose", None),
    "cones.effective_decompose": ("cones", "effective_decompose", None),
    "cones.pseudoeffective_threshold": ("cones", "pseudoeffective_threshold", None),
    "linalg.solve_unique": ("linalg", "solve_unique", _none_result),
    "linalg.is_negative_definite": ("linalg", "is_negative_definite", None),
    "lattice.surface_pair": ("lattice", "surface_pair", None),
    "lattice.triple_product": ("lattice", "triple_product", None),
    "lattice.pair_with_curve": ("lattice", "pair_with_curve", None),
    "lattice.restrict": ("lattice", "restrict", None),
    "ratmath.integrate_region": ("ratmath", "integrate_region", None),
    "ratmath.integrate_univariate": ("ratmath", "integrate_univariate", None),
    "ratmath.rational_roots": ("ratmath", "rational_roots", None),
    "projgeo.verify_secant_lemma": ("projgeo", "verify_secant_lemma", None),
    "projgeo.common_fixed_points": ("projgeo", "common_fixed_points", None),
    "projgeo.contains_param_curve": ("projgeo", "contains_param_curve", None),
    "projgeo.invariant_quadrics": ("projgeo", "invariant_quadrics", None),
    "projgeo.equation_character": ("projgeo", "equation_character", None),
    "projgeo.parse_mpoly": ("projgeo", "parse_mpoly", None),
}

# span name -> methods of scenario.Report that render a report
RENDER_SPAN = "scenario.render"
RENDER_METHODS = ("text", "json_dict")

ITEM_SPAN = "item"


class SpanStat:
    __slots__ = ("calls", "self_s", "outcomes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outcomes = 0


class Tracer:
    """Span stack plus per-name totals; records only while ``active``."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.active = False
        self._stack: list[float] = []     # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.item = self.wrap(ITEM_SPAN, lambda run: run())   # root span of one item

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.self_s, stat.outcomes = 0, 0.0, 0

    def wrap(self, name: str, fn, outcome=None):
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if outcome is not None:
                stat.outcomes += outcome(result)
            return result

        return traced

    def install(self, ds) -> None:
        """Wrap every binding of every listed function in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "divstab" or key.startswith("divstab.")]
        for name, (module, attr, outcome) in SPANS.items():
            original = getattr(getattr(ds, module), attr)
            wrapper = self.wrap(name, original, outcome)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        report = ds.scenario.Report
        for method in RENDER_METHODS:
            self._patch(report, method, self.wrap(RENDER_SPAN, getattr(report, method)))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
