"""Spans and counts at the package's layer boundaries, recorded from outside.

Each public function is wrapped where the layer above looks it up (for
example ``pilotplan.power.nct_cdf``, which ``power_at`` reads from its module
globals at call time), so the package itself is unchanged.  A span records
its layer, start, end and parent; a layer's self time is its span minus its
child spans.  Spans are folded into per-layer totals after each traced pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, attribute looked up by the layer above, layer name)
TARGETS = [
    ("pilotplan.power", "nct_cdf", "distributions.nct_cdf"),
    ("pilotplan.power", "t_quantile", "distributions.t_quantile"),
    ("pilotplan.power", "norm_quantile", "distributions.norm_quantile"),
    ("pilotplan.power", "power_at", "power.power_at"),
    ("pilotplan.power", "required_n", "power.required_n"),
    ("pilotplan.variance", "chisq_cdf", "distributions.chisq_cdf"),
    ("pilotplan.variance", "norm_quantile", "distributions.norm_quantile"),
    ("pilotplan.variance", "required_n", "power.required_n"),
    ("pilotplan.variance", "pilot_n_exact", "variance.pilot_n_exact"),
    ("pilotplan.variance", "plan_variance_pilot", "variance.plan_variance_pilot"),
    ("pilotplan.effect", "norm_quantile", "distributions.norm_quantile"),
    ("pilotplan.effect", "required_n", "power.required_n"),
    ("pilotplan.effect", "effect_pilot_n", "effect.effect_pilot_n"),
    ("pilotplan.effect", "plan_effect_pilot", "effect.plan_effect_pilot"),
    ("pilotplan.simulation", "norm_quantile", "distributions.norm_quantile"),
    ("pilotplan.simulation", "effect_for_n", "power.effect_for_n"),
    ("pilotplan.simulation", "main_sample_size", "power.main_sample_size"),
    ("pilotplan.simulation", "simulate_variance_pipeline", "simulation.simulate"),
    ("pilotplan.simulation", "simulate_effect_pipeline", "simulation.simulate"),
    ("pilotplan.cli", "simulate_variance_pipeline", "simulation.simulate"),
    ("pilotplan.cli", "simulate_effect_pipeline", "simulation.simulate"),
]

# calls of a layer made on behalf of an ancestor layer: (ancestor, layer)
NESTED = [
    ("power.effect_for_n", "distributions.nct_cdf"),
    ("variance.pilot_n_exact", "distributions.chisq_cdf"),
    ("power.main_sample_size", "power.power_at"),
]

_ELEMS = {"distributions.norm_quantile"}


class Tracer:
    """Records spans while installed; ``fold`` adds them to the totals."""

    def __init__(self):
        self.spans: list[list] = []      # [layer, start_ns, end_ns, parent, elems]
        self._stack: list[int] = []
        self.totals = {"calls": {}, "self_ns": {}, "elems": {}, "nested": {}}

    def call(self, layer: str, fn, *args, **kwargs):
        idx = len(self.spans)
        elems = int(np.size(args[0])) if layer in _ELEMS else 0
        span = [layer, 0, 0, self._stack[-1] if self._stack else -1, elems]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def fold(self) -> list[list]:
        """Add the recorded spans to the totals and return them."""
        spans, self.spans = self.spans, []
        child_ns = [0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        t = self.totals
        for i, (layer, start, end, parent, elems) in enumerate(spans):
            t["calls"][layer] = t["calls"].get(layer, 0) + 1
            t["self_ns"][layer] = t["self_ns"].get(layer, 0) + (end - start - child_ns[i])
            t["elems"][layer] = t["elems"].get(layer, 0) + elems
            for ancestor, inner in NESTED:
                if layer != inner:
                    continue
                p = parent
                while p >= 0 and spans[p][0] != ancestor:
                    p = spans[p][3]
                if p >= 0:
                    key = f"{ancestor}>{inner}"
                    t["nested"][key] = t["nested"].get(key, 0) + 1
        return spans


def install(tracer: Tracer):
    """Wrap every target of an imported module; returns the undo function."""
    saved = []
    for modname, attr, layer in TARGETS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        fn = getattr(mod, attr)

        def wrapper(*args, _fn=fn, _layer=layer, **kwargs):
            return tracer.call(_layer, _fn, *args, **kwargs)

        setattr(mod, attr, functools.wraps(fn)(wrapper))
        saved.append((mod, attr, fn))

    def undo():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return undo


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w") as fh:
        for i, (layer, start, end, parent, elems) in enumerate(spans):
            fh.write(json.dumps({"id": i, "layer": layer, "start_ns": start,
                                 "end_ns": end, "parent": parent, "elems": elems}) + "\n")


def merge_totals(into: dict, other: dict) -> None:
    for kind, table in other.items():
        dest = into.setdefault(kind, {})
        for key, value in table.items():
            dest[key] = dest.get(key, 0) + value


def layer_metrics(totals: dict, ops: int, cli_startup_ns: int = 0) -> dict:
    """Per-op layer metrics from folded totals over ``ops`` traced ops."""
    calls, self_ns = totals.get("calls", {}), totals.get("self_ns", {})
    elems, nested = totals.get("elems", {}), totals.get("nested", {})

    def per_op(x):
        return x / ops

    def ms(layer):
        return per_op(self_ns.get(layer, 0)) / 1e6

    def ratio(ancestor, inner):
        n = calls.get(ancestor, 0)
        return nested.get(f"{ancestor}>{inner}", 0) / n if n else 0.0

    q_elems = per_op(elems.get("distributions.norm_quantile", 0))
    return {
        "distributions.nct_cdf.calls": (per_op(calls.get("distributions.nct_cdf", 0)), "count"),
        "distributions.nct_cdf.self_ms": (ms("distributions.nct_cdf"), "ms"),
        "distributions.t_quantile.calls": (per_op(calls.get("distributions.t_quantile", 0)), "count"),
        "power.effect_for_n.calls": (per_op(calls.get("power.effect_for_n", 0)), "count"),
        "power.effect_for_n.nct_per_call": (ratio("power.effect_for_n", "distributions.nct_cdf"), "count"),
        "power.effect_for_n.self_ms": (ms("power.effect_for_n"), "ms"),
        "distributions.norm_quantile.elems": (q_elems, "count"),
        "distributions.norm_quantile.bytes_computed": (8.0 * q_elems, "B"),
        "distributions.norm_quantile.self_ms": (ms("distributions.norm_quantile"), "ms"),
        "simulation.simulate.self_ms": (ms("simulation.simulate"), "ms"),
        "distributions.chisq_cdf.calls": (per_op(calls.get("distributions.chisq_cdf", 0)), "count"),
        "distributions.chisq_cdf.self_ms": (ms("distributions.chisq_cdf"), "ms"),
        "variance.pilot_n_exact.chisq_per_call": (ratio("variance.pilot_n_exact", "distributions.chisq_cdf"), "count"),
        "power.required_n.calls": (per_op(calls.get("power.required_n", 0)), "count"),
        "power.power_at.calls": (per_op(calls.get("power.power_at", 0)), "count"),
        "power.power_at.self_ms": (ms("power.power_at"), "ms"),
        "power.main_sample_size.power_at_per_call": (ratio("power.main_sample_size", "power.power_at"), "count"),
        "variance.plan_variance_pilot.self_ms": (ms("variance.plan_variance_pilot"), "ms"),
        "effect.plan_effect_pilot.self_ms": (ms("effect.plan_effect_pilot"), "ms"),
        "effect.effect_pilot_n.calls": (per_op(calls.get("effect.effect_pilot_n", 0)), "count"),
        "cli.startup_ms": (per_op(cli_startup_ns) / 1e6, "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
    }
