"""The op sequence of each workload, generated from the benchmark seed.

Standard library only: the load generator and the oracle import this module
without importing the package under test, and the worker imports it without
importing scipy.

Every workload runs a fixed list of cells per pass.  The seed chooses the
per-cell simulation seeds and the order of the pass; it never changes which
cells a pass holds, so the cost of a pass is the same for every seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("simulate-cold", "grid-warm")
REPLICATES = 10_000

TWO, ONE = "two-sample", "one-sample"

# reference-grid design shared by every grid-warm cell
GRID_ALPHA, GRID_POWER, GRID_THRESHOLD = 0.05, 0.8, 0.6
GRID_VARIANCE = [(p, delta, sigma) for p in (0.1, 0.2, 0.3)
                 for delta in (1, 2, 3, 4) for sigma in (2, 3, 4, 5, 6)]
GRID_EFFECT = [(p, eff) for p in (0.2, 0.25, 0.3, 0.35, 0.4) for eff in (0.2, 0.5, 0.8)]

# simulate-cold cells: both scenarios, one- and two-sample designs and both
# estimators of the effect scenario.  Each cell's estimates reach main-study
# sizes past the 600 cap, so every op builds a sizing table of about 550
# entries on average and the cells cost about the same.
_COLD_CELLS = [
    dict(scenario="variance", effect=1.0, sigma=4.0, pilot_n=12, design="two",
         estimator="pooled-sd"),
    dict(scenario="variance", effect=1.0, sigma=4.0, pilot_n=12, design="one",
         estimator="pooled-sd"),
    dict(scenario="effect", effect=0.5, sigma=1.0, pilot_n=32, design="two",
         estimator="pooled-sd"),
    dict(scenario="effect", effect=0.5, sigma=1.0, pilot_n=17, design="one",
         estimator="known-sigma"),
]


def _cell_seeds(rng: random.Random, n: int) -> list[int]:
    return [rng.getrandbits(63) for _ in range(n)]


def grid_warm_ops(seed: int, replicates: int = REPLICATES) -> list[dict]:
    rng = random.Random(f"grid-warm:{seed}")
    ops = [dict(op="grid-variance", underpower_prob=p, delta=delta, sigma=sigma)
           for p, delta, sigma in GRID_VARIANCE]
    ops += [dict(op="grid-effect", underpower_prob=p, effect=eff)
            for p, eff in GRID_EFFECT]
    for op, cell_seed in zip(ops, _cell_seeds(rng, len(ops))):
        op.update(seed=cell_seed, replicates=replicates, kind=TWO, alpha=GRID_ALPHA,
                  power_target=GRID_POWER, underpower_threshold=GRID_THRESHOLD)
    rng.shuffle(ops)
    return ops


def simulate_cold_ops(seed: int, replicates: int = REPLICATES) -> list[dict]:
    rng = random.Random(f"simulate-cold:{seed}")
    ops = [dict(cell, op="simulate", kind=TWO if cell["design"] == "two" else ONE,
                seed=cell_seed, replicates=replicates, alpha=0.05, power_target=0.8,
                underpower_threshold=0.6, sizing_mode="t-iterative")
           for cell, cell_seed in zip(_COLD_CELLS, _cell_seeds(rng, len(_COLD_CELLS)))]
    rng.shuffle(ops)
    return ops


def cli_args(op: dict) -> list[str]:
    """``pilotplan simulate`` arguments for a simulate-cold op."""
    return ["simulate", "--scenario", op["scenario"], "--effect", repr(op["effect"]),
            "--sigma", repr(op["sigma"]), "--pilot-n", str(op["pilot_n"]),
            "--design", op["design"], "--estimator", op["estimator"],
            "--seed", str(op["seed"]), "--reps", str(op["replicates"]),
            "--alpha", repr(op["alpha"]), "--power", repr(op["power_target"]),
            "--underpower-threshold", repr(op["underpower_threshold"]),
            "--sizing-mode", op["sizing_mode"], "--format", "json"]


# the untimed CLI call that compiles the package's bytecode and pages in the
# interpreter and numpy before simulate-cold's first timed op
WARMUP_PLAN = dict(op="plan-variance", mode="approx", pooled_pilot=False, delta=1.0,
                   sigma=4.0, kind=TWO, alpha=0.05, power_target=0.8,
                   underpower_prob=0.2, underpower_threshold=0.6,
                   overpower_prob=None, overpower_threshold=None)
WARMUP_ARGS = ["plan-variance", "--sigma", "4", "--delta", "1", "--design", "two",
               "--alpha", "0.05", "--power", "0.8", "--underpower-prob", "0.2",
               "--underpower-threshold", "0.6", "--format", "json"]


def make_ops(workload: str, seed: int, replicates: int = REPLICATES) -> list[dict]:
    if workload == "grid-warm":
        return grid_warm_ops(seed, replicates)
    if workload == "simulate-cold":
        return simulate_cold_ops(seed, replicates)
    raise ValueError(f"unknown workload {workload!r}")
