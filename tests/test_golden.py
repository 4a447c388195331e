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
without numpy installed: no command imports it.
"""

import os
import subprocess
import sys

import pytest

from golden_cases import CASES, CLI_CASES, GOLDEN, SIMULATE_CELLS, golden, simulate_argv
from pilotplan.cli import emit, main
from pilotplan.tables import reproduce_table


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


def _probe(code: str) -> str:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cases.py")


def test_no_golden_command_imports_numpy():
    # in a fresh process with numpy importable, every golden command in turn
    # prints its golden and leaves numpy unloaded
    assert len(CASES) == 30
    out = _probe(f"import runpy; runpy.run_path({_SCRIPT!r}, run_name='__main__')")
    assert out.startswith("30 of 30 goldens match; numpy imported: False"), out


def test_goldens_run_without_numpy():
    # the CI job that checks the goldens on every supported Python has no
    # numpy; here an import of it fails instead
    out = _probe("import runpy, sys; sys.modules['numpy'] = None; "
                 f"runpy.run_path({_SCRIPT!r}, run_name='__main__')")
    assert out.startswith("30 of 30 goldens match; numpy imported: False"), out
