"""Planned integers compared with a frozen sweep.

``golden/planned_sizes.json`` holds 1,548 integer sizes:

- ``main_sample_size`` and the planners' nearest size (keyed ``_nearest_n``)
  over both designs, alpha 0.01 / 0.05 / 0.1, power 0.6 / 0.8 / 0.9, 17
  effect sizes from 0.01 to 3 and both modes (1,224 sizes);
- ``pilot_n_exact`` on the ratios and probabilities of the variance-pilot
  tests, both sides, pooled or not (144);
- ``effect_pilot_n`` for prior effects 0.2 / 0.5 / 0.8, both designs, both
  sides and 15 probabilities from 0.05 to 0.49 (180).

A change to a special function or a search that moves any planned size shows
up here.  To rewrite the file after a deliberate change, run

    PYTHONPATH=src python tests/test_planned_sizes.py
"""

import itertools
import json
import os

from pilotplan.effect import effect_pilot_n
from pilotplan.power import (
    ONE_SAMPLE,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    EffectSpec,
    TestDesign,
    _Sizer,
    main_sample_size,
)
from pilotplan.variance import pilot_n_exact

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "planned_sizes.json")

KINDS = (ONE_SAMPLE, TWO_SAMPLE)
EFFECTS = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0,
           1.25, 1.5, 2.0, 3.0)
VARIANCE_RATIOS = {"under": (0.05, 0.3, 0.5, 0.6241331421337069, 0.8, 0.95),
                   "over": (1.01, 1.05, 1.3, 1.6, 2.5, 6.0)}
VARIANCE_PS = (0.05, 0.1, 0.2, 0.3, 0.32, 0.45)
EFFECT_PS = (0.05, 0.08, 0.1, 0.12, 0.15, 0.18, 0.2, 0.22, 0.25, 0.28, 0.3, 0.35,
             0.4, 0.45, 0.49)
MU_RATIO = 1.2657891760958229  # threshold-to-prior effect ratio on the z chain


def _nearest_n(effect, design, power, mode):
    """The planners' main size, the integer nearest the requirement; the
    golden keys its sizes by this name."""
    return _Sizer(design).size(effect, power, mode, 0.5)


def planned_sizes() -> dict:
    """Every size of the sweep, keyed by the call that plans it."""
    sizes = {}
    for solve, kind, alpha, power, d, mode in itertools.product(
            (main_sample_size, _nearest_n), KINDS, (0.01, 0.05, 0.1), (0.6, 0.8, 0.9),
            EFFECTS, (Z_APPROX, T_ITERATIVE)):
        key = f"{solve.__name__} {kind} {alpha} {power} {d} {mode}"
        sizes[key] = solve(EffectSpec(d), TestDesign(kind, alpha), power, mode)
    for side, ratios in VARIANCE_RATIOS.items():
        for ratio, p, pooled in itertools.product(ratios, VARIANCE_PS, (False, True)):
            sizes[f"pilot_n_exact {ratio} {p} {side} {pooled}"] = pilot_n_exact(
                ratio, p, side, pooled)
    for mu0, kind, side, p in itertools.product((0.2, 0.5, 0.8), KINDS,
                                                ("under", "over"), EFFECT_PS):
        threshold = mu0 * MU_RATIO if side == "under" else mu0 / MU_RATIO
        sizes[f"effect_pilot_n {mu0} {threshold} {p} {kind} {side}"] = effect_pilot_n(
            mu0, threshold, 1.0, p, TestDesign(kind, 0.05), side)
    return sizes


def test_planned_sizes_match_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = planned_sizes()
    assert len(got) == 1548
    assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(planned_sizes(), fh, indent=0, sort_keys=True)
        fh.write("\n")
