"""In-process workload runner for grid-warm.

Started by run.py as its own process, so that its peak memory is that of the
package under test alone (scipy is never imported here).  It sets up, prints
READY, runs whole passes of the op sequence until ``--seconds`` of op time
have passed, and prints one JSON line with the latencies and outputs.

With ``--trace 1`` it alternates untraced and traced passes; layer metrics
come from the traced passes and the overhead from comparing the two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads
from tracing import Tracer, install, write_spans

import pilotplan
from pilotplan import effect, power, simulation, variance


def _plan_outputs(plan, threshold_attr: str) -> dict:
    return {k: getattr(plan, k) for k in (
        "main_n_under", "main_n_over", f"{threshold_attr}_under",
        f"{threshold_attr}_over", "pilot_n_under", "pilot_n_over", "pilot_n")}


def _simulated(report) -> dict:
    return {"empirical_underpower": report.empirical_underpower,
            "mc_standard_error": report.mc_standard_error,
            "replicates": report.replicates,
            "nonpositive_effects": report.nonpositive_effects,
            "main_n_quantiles": report.main_n_quantiles}


def run_op(op: dict) -> dict:
    kind = op["op"]
    common = dict(kind=op["kind"], alpha=op["alpha"], power_target=op["power_target"],
                  underpower_threshold=op["underpower_threshold"],
                  seed=op["seed"], replicates=op["replicates"])
    bounds = variance.PowerBounds(op["underpower_prob"], op["underpower_threshold"])
    test = power.TestDesign(op["kind"], op["alpha"])
    if kind == "grid-variance":
        plan = variance.plan_variance_pilot(power.EffectSpec(op["delta"], op["sigma"]),
                                            test, op["power_target"], bounds)
        # the exact-mode pilot for the same bound, whose chi-square scan the
        # published (approx) grid never runs
        exact = variance.pilot_n_exact((plan.sigma_under / plan.sigma) ** 2,
                                       op["underpower_prob"])
        report = simulation.simulate_variance_pipeline(simulation.SimulationConfig(
            scenario="variance", effect=op["delta"], sigma=op["sigma"],
            pilot_n=plan.pilot_n, **common))
        return dict(_plan_outputs(plan, "sigma"), exact_pilot_n=exact, **_simulated(report))
    if kind == "grid-effect":
        plan = effect.plan_effect_pilot(op["effect"], 1.0, test, op["power_target"], bounds)
        report = simulation.simulate_effect_pipeline(simulation.SimulationConfig(
            scenario="effect", effect=op["effect"], sigma=1.0,
            pilot_n=plan.pilot_n, **common))
        return dict(_plan_outputs(plan, "mu"), **_simulated(report))
    raise ValueError(f"unknown op {kind!r}")


def warm_up() -> None:
    """Bring the package's caches to the state every timed op then sees.

    One simulation whose estimates span every main-study size the grid can
    reach (a 2-subject pilot gives estimates from near 0 to far past any real
    effect), so the exact sizing table holds n = 2 .. 600 for the grid design
    before the first timed op and no timed op adds to it.
    """
    simulation.simulate_effect_pipeline(simulation.SimulationConfig(
        scenario="effect", effect=0.5, sigma=1.0, pilot_n=2, seed=0,
        replicates=workloads.REPLICATES, kind=workloads.TWO,
        alpha=workloads.GRID_ALPHA, power_target=workloads.GRID_POWER,
        underpower_threshold=workloads.GRID_THRESHOLD))


def run_pass(ops, record) -> float:
    busy = 0.0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out, err = run_op(op), None
        except Exception as exc:          # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        busy += dt
        record.append((i, dt * 1e3, out, err))
    return busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("grid-warm",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replicates", type=int, default=workloads.REPLICATES)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    ops = workloads.make_ops(args.workload, args.seed, args.replicates)
    warm_up()
    print("READY " + os.path.abspath(pilotplan.__file__), flush=True)
    if args.setup_only:
        return 0

    record: list = []
    traced: list = []
    tracer = Tracer()
    busy = {"untraced": 0.0, "traced": 0.0}
    ops_done = {"untraced": 0, "traced": 0}
    start = time.perf_counter()
    while True:
        busy["untraced"] += run_pass(ops, record)
        ops_done["untraced"] += len(ops)
        if args.trace:
            undo = install(tracer)
            try:
                busy["traced"] += run_pass(ops, traced)
            finally:
                undo()
            ops_done["traced"] += len(ops)
            spans = tracer.fold()
            if args.spans_out and ops_done["traced"] == len(ops):
                write_spans(args.spans_out, spans)
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "ops": record + traced,
        "timed_ops": len(record),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "busy_s": busy, "ops_done": ops_done,
        "totals": tracer.totals if args.trace else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
