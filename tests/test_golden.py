"""Fixed-seed outputs compared byte for byte with frozen files.

Each file under ``golden/`` is the JSON a fixed-seed run printed: both
reference grids at 200 replicates per cell, and four ``pilotplan simulate``
cells at 2,000 replicates covering both scenarios, both designs and both
estimators.  Any change to planned sizes, exact main-study sizing, underpower
flags or the random stream shows up here as a difference.
"""

import os

import pytest

from pilotplan.cli import main
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


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("table_id", [1, 2])
def test_reference_grid(table_id):
    got = reproduce_table(table_id, 200, seed=9).to_json()
    assert got == _golden(f"table{table_id}_reps200_seed9.json")


@pytest.mark.parametrize("cell", sorted(SIMULATE_CELLS))
def test_simulate_cell(cell, capsys):
    code = main(["simulate", *SIMULATE_CELLS[cell], "--seed", "9", "--reps", "2000",
                 "--sizing-mode", "t-iterative", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == _golden(f"{cell}_reps2000_seed9.json")
