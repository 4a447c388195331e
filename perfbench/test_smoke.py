"""Smoke tests of the benchmark itself.

Each workload runs a single pass at small scale; a traced run must give the
same counts twice; the oracle must pass its self-test and must reject wrong
answers; and the benchmark must refuse to run without the package.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = 1000   # replicates per simulation in these tests


def _names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_oracle_self_test():
    assert oracle.self_test() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass(workload):
    result = run.run_workload(workload, seed=3, seconds=0, trace=0,
                              replicates=SMALL, setups=1)
    assert result["correct"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat():
    a, b = (run.run_workload("grid-warm", seed=3, seconds=0, trace=1,
                             replicates=SMALL, setups=1) for _ in range(2))
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == _names("per_layer")
    counts = [k for k, m in a["metrics"].items() if m["unit"] == "count"]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert a["metrics"]["distributions.chisq_cdf.calls"]["value"] > 0
    assert a["metrics"]["power.effect_for_n.calls"]["value"] == 0   # table warm


def _program_output(op):
    sys.path.insert(0, run.SRC)
    import worker
    return worker.run_op(op)


def _grid_op(kind):
    return next(op for op in workloads.grid_warm_ops(3, SMALL) if op["op"] == kind)


@pytest.mark.parametrize("kind", ["grid-variance", "grid-effect"])
def test_oracle_rejects_wrong_plans(kind):
    op = _grid_op(kind)
    out = _program_output(op)
    assert oracle.check(op, out) == []
    keys = ["pilot_n_under", "main_n_under"]
    if kind == "grid-variance":
        keys.append("exact_pilot_n")
    for key in keys:
        for delta in (1, -1):
            wrong = dict(out, **{key: out[key] + delta})
            wrong["pilot_n"] = wrong["pilot_n_under"]
            assert oracle.check(op, wrong), (key, delta)


def test_oracle_rejects_wrong_underpower():
    op = _grid_op("grid-variance")
    out = _program_output(op)
    se = max(out["mc_standard_error"], 1.0 / SMALL)
    p = out["empirical_underpower"] + 6 * se
    wrong = dict(out, empirical_underpower=p,
                 mc_standard_error=(p * (1 - p) / SMALL) ** 0.5)
    assert oracle.check(op, wrong)


def test_refuses_without_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
