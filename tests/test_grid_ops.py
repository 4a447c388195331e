"""The benchmark's grid-warm ops: their outputs against a frozen file, and
the critical values, z terms and series terms they compute, counted.

``golden/grid_ops_seeds_7_8_121.json`` holds what ``perfbench/worker.py``'s
``run_op`` returns for every grid-warm op of the benchmark seeds 7, 8 and 121
(75 reference-grid cells each, 10,000 replicates per cell): the planned
sizes, the exact-mode pilot, the flag fraction and the main-size quantiles.
A change that is meant only to speed the program up must leave every byte
of it alone, unless it also moves the random stream on purpose (a new
sampler that draws the same laws from other uniforms) and says so in
CHANGES.md.  Regenerate it only for a change meant to move these outputs:

    python tests/test_grid_ops.py --write

Only ``perfbench/workloads.py`` and ``perfbench/worker.py`` are imported
from the benchmark, which stays unchanged.
"""

import inspect
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

import pilotplan.distributions as distributions  # noqa: E402
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
    edge = power_module._Sizer.edge

    def run(*args):
        start = len(dfs)
        out = report(*args)
        runs.append(dfs[start:])
        return out

    def checked_edge(sizer, m, *args):
        built = dict(sizer._curves)
        out = edge(sizer, m, *args)
        shared.append(sizer._curves[m] is built.get(m))
        return out

    monkeypatch.setattr(power_module, "t_quantile",
                        lambda p, df: dfs.append(df) or t_quantile(p, df))
    monkeypatch.setattr(simulation, "_report", run)
    monkeypatch.setattr(power_module._Sizer, "edge", checked_edge)
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


def _upward_terms(call) -> int:
    """The terms that the upward sweeps of ``call()`` add to a total, counted
    as runs of the line of ``_mixture_sum``'s upward loop that adds one."""
    code = distributions._mixture_sum.__code__
    lines, first = inspect.getsourcelines(distributions._mixture_sum)
    line = first + next(k for k, text in enumerate(lines) if text.strip() == "total += c * i")
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == line
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_power_sweeps_stop_on_the_total(monkeypatch):
    # the power evaluations of the 75 ops of seed 121, each distinct one
    # summed again with and without the density: the sweep that reads no
    # slope stops on the total's tests alone, never later than the one that
    # does, and over all the calls sooner (351.4 upward terms an op in these
    # evaluations, against 364.0 with the density)
    calls = []
    abs_sf = power_module._nct_abs_sf
    monkeypatch.setattr(power_module, "_nct_abs_sf",
                        lambda *args: calls.append(args[:3]) or abs_sf(*args))
    ops = workloads.make_ops("grid-warm", 121)
    for op in ops:
        worker.run_op(op)
    assert len(calls) > 10 * len(ops)
    pairs = [[_upward_terms(lambda: distributions._nct_fold(*args, density=density))
              for density in (True, False)] for args in dict.fromkeys(calls)]
    assert all(off <= on for on, off in pairs)
    assert sum(off for _, off in pairs) < sum(on for on, _ in pairs)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(GOLDEN, "w") as fh:
        fh.write(grid_ops_text())
