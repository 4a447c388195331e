"""The fixed-seed commands whose output is frozen under ``golden/``.

Standard library only, as the package is, so that the goldens can be checked
on an interpreter without numpy:

    python tests/golden_cases.py

runs each case of ``CASES`` through the CLI in this process, compares its
stdout with the golden byte for byte, and exits 1 if any differs or if numpy
was imported.  ``test_golden.py`` takes its cases from here too.
"""

import contextlib
import io
import os
import sys

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


def simulate_argv(cell: str) -> list:
    return ["simulate", *SIMULATE_CELLS[cell], "--seed", "9", "--reps", "2000",
            "--sizing-mode", "t-iterative", "--format", "json"]


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
FORMAT_FLAGS = {"txt": [], "csv": ["--format", "csv"], "json": ["--format", "json"]}

# file name under golden/cli/ -> argv
CLI_CASES = {f"{name}.{ext}": argv + flags
             for name, argv in CLI_COMMANDS.items()
             for ext, flags in FORMAT_FLAGS.items()}
CLI_CASES.update({
    "tables_id1_reps1000_seed7.csv": ["tables", "--id", "1", "--reps", "1000", "--seed", "7",
                                      "--format", "csv"],
    **{f"tables_id{i}_reps200_seed9.{ext}": ["tables", "--id", str(i), "--reps", "200",
                                             "--seed", "9", *FORMAT_FLAGS[ext]]
       for i in (1, 2) for ext in ("txt", "csv")},
})

# golden path under golden/ -> argv, for every command
CASES = {
    **{os.path.join("cli", name): argv for name, argv in CLI_CASES.items()},
    **{f"{cell}_reps2000_seed9.json": simulate_argv(cell) for cell in SIMULATE_CELLS},
}


def golden(name: str) -> str:
    # CSV output ends its lines in CRLF, so no newline translation
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        return fh.read()


def main() -> int:
    from pilotplan.cli import main as cli

    differ = []
    for name, argv in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(argv)
        if code != 0 or out.getvalue() != golden(name):
            differ.append(name)
    numpy_loaded = sys.modules.get("numpy") is not None
    print(f"{len(CASES) - len(differ)} of {len(CASES)} goldens match; "
          f"numpy imported: {numpy_loaded}; python {sys.version.split()[0]}")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ or numpy_loaded else 0


if __name__ == "__main__":
    sys.exit(main())
