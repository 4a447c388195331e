"""The benchmark's grid-warm ops: their outputs against a frozen file, and
the critical values and z terms they compute, counted.

``golden/grid_ops_seeds_7_8_121.json`` holds what ``perfbench/worker.py``'s
``run_op`` returns for every grid-warm op of the benchmark seeds 7, 8 and 121
(75 reference-grid cells each, 10,000 replicates per cell): the planned
sizes, the exact-mode pilot, the flag fraction and the main-size quantiles.
A change that is meant only to speed the program up must leave every byte
of it alone.  Regenerate it only for a change meant to move these outputs:

    python tests/test_grid_ops.py --write

Only ``perfbench/workloads.py`` and ``perfbench/worker.py`` are imported
from the benchmark, which stays unchanged.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

import pilotplan.effect as effect_module  # noqa: E402
import pilotplan.power as power_module  # noqa: E402
import pilotplan.simulation as simulation  # noqa: E402
import pilotplan.variance as variance_module  # noqa: E402

GOLDEN = os.path.join(HERE, "golden", "grid_ops_seeds_7_8_121.json")
SEEDS = (7, 8, 121)


def grid_ops_text() -> str:
    """One JSON line per op, in the order of each seed's op sequence."""
    lines = [json.dumps({"seed": seed, "op": i, "output": worker.run_op(op)})
             for seed in SEEDS
             for i, op in enumerate(workloads.make_ops("grid-warm", seed))]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_grid_ops_match_golden():
    with open(GOLDEN) as fh:
        want = fh.read()
    got = grid_ops_text()
    differ = [(a, b) for a, b in zip(want.splitlines(), got.splitlines()) if a != b]
    assert got == want, f"{len(differ)} ops differ, first: {differ[:1]}"


def test_one_critical_value_per_size_a_run_reads(monkeypatch):
    # counted, not timed, over the 75 cells of seed 121: a simulation run's
    # sizer computes one t critical value per distinct size (df) it reads,
    # its flag boundary solves on the very power curve the threshold's sizing
    # built at m = n_crit - 1, and a whole op (planners included) computes at
    # most 13.5 critical values on average, 15.0 when each search built its own
    dfs, runs, shared = [], [], []
    t_quantile, report = power_module.t_quantile, simulation._report
    boundary = simulation._flag_boundary

    def run(*args):
        start = len(dfs)
        out = report(*args)
        runs.append(dfs[start:])
        return out

    def checked_boundary(sizer, config, n_crit):
        built = dict(sizer._curves)
        out = boundary(sizer, config, n_crit)
        shared.append(sizer._curves[n_crit - 1] is built.get(n_crit - 1))
        return out

    monkeypatch.setattr(power_module, "t_quantile",
                        lambda p, df: dfs.append(df) or t_quantile(p, df))
    monkeypatch.setattr(simulation, "_report", run)
    monkeypatch.setattr(simulation, "_flag_boundary", checked_boundary)
    ops = workloads.make_ops("grid-warm", 121)
    for op in ops:
        worker.run_op(op)
    assert len(runs) == len(shared) == len(ops) == 75
    assert all(len(seen) == len(set(seen)) for seen in runs)
    assert all(shared)
    assert len(dfs) / len(ops) <= 13.5


def test_z_terms_per_op(monkeypatch):
    # counted over the 75 ops of seed 121: the plan's one sizer and the run's
    # one sizer each compute a z term once per level, so an op makes at most
    # 7.0 normal quantiles through the power layer and the planners, 10.0
    # when each sizing and z sum of a plan computed its own
    calls = []
    for module in (power_module, variance_module, effect_module):
        monkeypatch.setattr(module, "norm_quantile",
                            lambda p, _fn=module.norm_quantile: calls.append(p) or _fn(p))
    ops = workloads.make_ops("grid-warm", 121)
    for op in ops:
        worker.run_op(op)
    assert len(calls) / len(ops) <= 7.0


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as fh:
        fh.write(grid_ops_text())
