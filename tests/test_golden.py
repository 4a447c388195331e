"""Fixed-seed outputs compared byte for byte with frozen files.

Each JSON file directly under ``golden/`` is what a fixed-seed run printed:
both reference grids at 200 replicates per cell, and four ``pilotplan
simulate`` cells at 2,000 replicates covering both scenarios, both designs
and both estimators.  Any change to planned sizes, exact main-study sizing,
underpower flags or the random stream shows up here as a difference.

``golden/cli/`` holds the stdout of the README's commands in every output
format (``.txt`` is the human table), plus plans with an overpower bound so
the over-side lines are pinned too.  CSV output ends its lines in CRLF, as
the csv module writes them, so the files are read without newline
translation.
"""

import os
import subprocess
import sys

import pytest

from pilotplan.cli import emit, main
from pilotplan.simulation import reproduce_table

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SIMULATE_CELLS = {
    "simulate_variance_two": ["--scenario", "variance", "--effect", "1.0", "--sigma", "4.0",
                              "--pilot-n", "12", "--design", "two"],
    "simulate_variance_one": ["--scenario", "variance", "--effect", "1.0", "--sigma", "4.0",
                              "--pilot-n", "12", "--design", "one"],
    "simulate_effect_two_pooled": ["--scenario", "effect", "--effect", "0.5", "--sigma", "1.0",
                                   "--pilot-n", "32", "--design", "two",
                                   "--estimator", "pooled-sd"],
    "simulate_effect_one_known": ["--scenario", "effect", "--effect", "0.5", "--sigma", "1.0",
                                  "--pilot-n", "17", "--design", "one",
                                  "--estimator", "known-sigma"],
}


_PLAN_VARIANCE = ["plan-variance", "--sigma", "4", "--delta", "1", "--design", "two",
                  "--alpha", ".05", "--power", ".8",
                  "--underpower-prob", ".2", "--underpower-threshold", ".6"]
_PLAN_EFFECT = ["plan-effect", "--mu0", "2", "--sigma", "4",
                "--underpower-prob", ".3", "--underpower-threshold", ".6"]
_OVERPOWER = ["--overpower-prob", ".2", "--overpower-threshold", ".9"]

# name -> argv without --format; each is pinned as .txt, .csv and .json
CLI_COMMANDS = {
    "plan_variance": _PLAN_VARIANCE,
    "plan_variance_over": _PLAN_VARIANCE + _OVERPOWER,
    "plan_variance_over_exact": _PLAN_VARIANCE + _OVERPOWER + ["--mode", "exact"],
    "plan_effect": _PLAN_EFFECT,
    "plan_effect_over": _PLAN_EFFECT + _OVERPOWER,
    "plan_effect_proportions": ["plan-effect", "--p1", ".5", "--p2", ".4",
                                "--underpower-prob", ".3", "--underpower-threshold", ".6"],
    "simulate": ["simulate", "--scenario", "effect", "--effect", ".5", "--pilot-n", "32",
                 "--underpower-threshold", ".6", "--reps", "1000", "--seed", "7"],
}
_FORMAT_FLAGS = {"txt": [], "csv": ["--format", "csv"], "json": ["--format", "json"]}

CLI_CASES = {f"{name}.{ext}": argv + flags
             for name, argv in CLI_COMMANDS.items()
             for ext, flags in _FORMAT_FLAGS.items()}
CLI_CASES.update({
    "tables_id1_reps1000_seed7.csv": ["tables", "--id", "1", "--reps", "1000", "--seed", "7",
                                      "--format", "csv"],
    **{f"tables_id{i}_reps200_seed9.{ext}": ["tables", "--id", str(i), "--reps", "200",
                                             "--seed", "9", *_FORMAT_FLAGS[ext]]
       for i in (1, 2) for ext in ("txt", "csv")},
})


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("table_id", [1, 2])
def test_reference_grid(table_id, capsys):
    emit(reproduce_table(table_id, 200, seed=9), "json")
    assert capsys.readouterr().out == _golden(f"table{table_id}_reps200_seed9.json") + "\n"


def _simulate_argv(cell: str) -> list:
    return ["simulate", *SIMULATE_CELLS[cell], "--seed", "9", "--reps", "2000",
            "--sizing-mode", "t-iterative", "--format", "json"]


@pytest.mark.parametrize("cell", sorted(SIMULATE_CELLS))
def test_simulate_cell(cell, capsys):
    assert main(_simulate_argv(cell)) == 0
    assert capsys.readouterr().out == _golden(f"{cell}_reps2000_seed9.json")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output(name, capsys):
    assert main(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == _golden(os.path.join("cli", name))


# runs the CLI with argv, then reports on stderr whether numpy was imported
_NUMPY_PROBE = ("import sys\nfrom pilotplan.cli import main\ncode = main()\n"
                "print('numpy' in sys.modules, file=sys.stderr)\nsys.exit(code)")


def _probe(*code_and_args: str) -> tuple[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", *code_and_args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr.strip()


def test_planning_never_imports_numpy():
    # each in a fresh process, printing its golden: importing the package,
    # the README's planning commands, variance and known-sigma simulations and
    # table 1 leave numpy unloaded; a pooled-SD simulation and table 2, whose
    # estimates need numpy's samplers, load it
    assert _probe("import sys, pilotplan; print('numpy' in sys.modules)")[0] == "False\n"
    cases = [(CLI_COMMANDS[name], f"cli/{name}.txt", name == "simulate")
             for name in ("plan_variance", "plan_effect", "simulate")]
    cases += [(_simulate_argv(cell), f"{cell}_reps2000_seed9.json", cell.endswith("pooled"))
              for cell in sorted(SIMULATE_CELLS)]
    cases += [(CLI_CASES[f"tables_id{i}_reps200_seed9.txt"], f"cli/tables_id{i}_reps200_seed9.txt",
               i == 2) for i in (1, 2)]
    for argv, golden, numpy_loaded in cases:
        out, loaded = _probe(_NUMPY_PROBE, *argv)
        assert out == _golden(golden), golden
        assert loaded.splitlines()[-1] == str(numpy_loaded), golden
