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
translation.  The cases are listed in ``golden_cases.py``, which CI also runs
without numpy installed.
"""

import os
import subprocess
import sys

import pytest

from golden_cases import (
    CLI_CASES, CLI_COMMANDS, GOLDEN, NUMPY_FREE, SIMULATE_CELLS, golden, simulate_argv)
from pilotplan.cli import emit, main
from pilotplan.simulation import reproduce_table


@pytest.mark.parametrize("table_id", [1, 2])
def test_reference_grid(table_id, capsys):
    emit(reproduce_table(table_id, 200, seed=9), "json")
    assert capsys.readouterr().out == golden(f"table{table_id}_reps200_seed9.json") + "\n"


@pytest.mark.parametrize("cell", sorted(SIMULATE_CELLS))
def test_simulate_cell(cell, capsys):
    assert main(simulate_argv(cell)) == 0
    assert capsys.readouterr().out == golden(f"{cell}_reps2000_seed9.json")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output(name, capsys):
    assert main(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == golden(os.path.join("cli", name))


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
    cases += [(simulate_argv(cell), f"{cell}_reps2000_seed9.json", cell.endswith("pooled"))
              for cell in sorted(SIMULATE_CELLS)]
    cases += [(CLI_CASES[f"tables_id{i}_reps200_seed9.txt"], f"cli/tables_id{i}_reps200_seed9.txt",
               i == 2) for i in (1, 2)]
    for argv, name, numpy_loaded in cases:
        out, loaded = _probe(_NUMPY_PROBE, *argv)
        assert out == golden(name), name
        assert loaded.splitlines()[-1] == str(numpy_loaded), name


def test_numpy_free_goldens_run_without_numpy():
    # the CI job that checks these goldens on every supported Python has no
    # numpy; here an import of it fails instead
    assert len(NUMPY_FREE) == 24
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cases.py")
    out, _ = _probe("import runpy, sys; sys.modules['numpy'] = None; "
                    f"runpy.run_path({script!r}, run_name='__main__')")
    assert out.startswith("24 of 24 numpy-free goldens match; numpy imported: False"), out
