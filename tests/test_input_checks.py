"""Argument checks across the package, as one table.

Each row is a call with one bad argument and the error it must raise, with
the message that names the argument.  The rows cover the checks that no
other test reaches.
"""

import pytest

from pilotplan.effect import effect_pilot_n, effect_underpower_prob, plan_effect_pilot
from pilotplan.power import (
    EffectSpec, TestDesign, effect_for_n, main_sample_size, mu_for_n)
from pilotplan.simulation import (
    ConfigError, SimulationConfig, reproduce_table, simulate_effect_pipeline)
from pilotplan.variance import (
    PowerBounds, pilot_n_approx, pilot_n_exact, plan_variance_pilot,
    variance_underpower_prob)

TWO = TestDesign()
BOUNDS = PowerBounds(0.2, 0.6)


def _effect_config(**kw):
    return SimulationConfig(**{**dict(scenario="effect", effect=0.5, pilot_n=32, seed=1), **kw})


CHECKS = {
    "design-kind": (lambda: TestDesign("three-sample"), ValueError,
                    r"kind must be one of .* got 'three-sample'"),
    "effect-negative": (lambda: EffectSpec(-1.0), ValueError,
                        r"effect must be finite and >= 0, got -1\.0"),
    "effect-sigma": (lambda: EffectSpec(1.0, 0.0), ValueError,
                     r"sigma must be finite and > 0, got 0\.0"),
    "bounds-overpower-prob": (lambda: PowerBounds(0.2, 0.6, 1.5, 0.9), ValueError,
                              r"overpower_prob must be in \(0, 1\), got 1\.5"),
    "bounds-overpower-threshold": (lambda: PowerBounds(0.2, 0.6, 0.2, 1.0), ValueError,
                                   r"overpower_threshold \(a power level\) must be in "
                                   r"\(0, 1\), got 1\.0"),
    "bounds-overpower-below-target": (
        lambda: PowerBounds(0.2, 0.6, 0.2, 0.7).check_against_target(0.8), ValueError,
        r"overpower threshold \(0\.7\) must lie above the target power \(0\.8\)"),
    "plan-variance-mode": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, BOUNDS, mode="bogus"),
        ValueError, r"mode must be 'exact' or 'approx', got 'bogus'"),
    "plan-variance-power-target": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 1.0, BOUNDS),
        ValueError, r"power_target must be in \(0, 1\), got 1\.0"),
    "plan-variance-zero-effect": (
        lambda: plan_variance_pilot(EffectSpec(0, 4), TWO, 0.8, BOUNDS),
        ValueError, "effect of 0 means an infinite main study"),
    "plan-effect-power-target": (
        lambda: plan_effect_pilot(0.5, 1.0, TWO, 0.0, BOUNDS),
        ValueError, r"power_target must be in \(0, 1\), got 0\.0"),
    "pilot-exact-p": (lambda: pilot_n_exact(0.5, 0.0), ValueError,
                      r"probability must be in \(0, 1\), got 0\.0"),
    "pilot-approx-p": (lambda: pilot_n_approx(0.5, 1.0), ValueError,
                       r"probability must be in \(0, 1\), got 1\.0"),
    "pilot-approx-ratio": (lambda: pilot_n_approx(-0.5, 0.2), ValueError,
                           r"variance ratio must be positive, got -0\.5"),
    "variance-underpower-ratio": (lambda: variance_underpower_prob(12, 0.0), ValueError,
                                  r"variance ratio must be positive, got 0\.0"),
    "variance-underpower-fractional-pilot-n": (
        lambda: variance_underpower_prob(12.7, 0.6), ValueError,
        r"pilot size must be an integer, got 12\.7"),
    "effect-underpower-pilot-n": (lambda: effect_underpower_prob(0, 0.5, 0.7, 1.0),
                                  ValueError, "pilot size must be >= 1, got 0"),
    "effect-underpower-fractional-pilot-n": (
        lambda: effect_underpower_prob(2.9, 0.5, 0.6, 1.0), ValueError,
        r"pilot size must be an integer, got 2\.9"),
    "effect-pilot-p": (lambda: effect_pilot_n(0.5, 0.7, 1.0, 0.0), ValueError,
                       r"probability must be in \(0, 1\), got 0\.0"),
    "effect-pilot-sigma": (lambda: effect_pilot_n(0.5, 0.7, 0.0, 0.2), ValueError,
                           r"sigma must be positive, got 0\.0"),
    "effect-pilot-side": (lambda: effect_pilot_n(0.5, 0.7, 1.0, 0.2, side="both"),
                          ValueError, "side must be 'under' or 'over', got 'both'"),
    "sizing-mode": (lambda: main_sample_size(EffectSpec(0.5), TWO, 0.8, "bogus"),
                    ValueError, r"mode must be one of .* got 'bogus'"),
    "effect-for-n-mode": (lambda: effect_for_n(10, TWO, 0.8, "bogus"),
                          ValueError, r"mode must be one of .* got 'bogus'"),
    "mu-for-n-sigma": (lambda: mu_for_n(10, 0.0, TWO, 0.8), ValueError,
                       r"sigma must be finite and > 0, got 0\.0"),
    "config-power-target": (lambda: _effect_config(power_target=1.0).validate(),
                            ConfigError, r"power_target must be in \(0, 1\), got 1\.0"),
    "config-effect": (lambda: _effect_config(effect=0.0).validate(),
                      ConfigError, r"true effect must be positive, got 0\.0"),
    "config-sizing-mode": (lambda: _effect_config(sizing_mode="x").validate(),
                           ConfigError, "sizing_mode must be 'z-approx' or 't-iterative'"),
    "config-estimator": (lambda: _effect_config(estimator="x").validate(),
                         ConfigError, "estimator must be 'pooled-sd' or 'known-sigma'"),
    "simulate-pooled-sd-noncentrality": (
        lambda: simulate_effect_pipeline(_effect_config(effect=1000.0, pilot_n=2)), ValueError,
        r"effect 1000\.0 over sigma 1\.0 with pilot_n 2 puts the pilot's t statistic past "
        r"noncentrality 1000, the largest a pooled-sd simulation takes"),
    "simulate-known-sigma-pilot-n": (
        lambda: simulate_effect_pipeline(
            _effect_config(estimator="known-sigma", pilot_n=10 ** 400)),
        ValueError, "past noncentrality inf, the largest a known-sigma simulation takes"),
    "table-id-fractional": (lambda: reproduce_table(1.7, 3), ConfigError,
                            r"table_id must be 1 or 2, got 1\.7"),
    "table-id-bool": (lambda: reproduce_table(True, 3), ConfigError,
                      "table_id must be 1 or 2, got True"),
    "table-replicates-fractional": (lambda: reproduce_table(1, 2.5, seed=3), ConfigError,
                                    r"replicates must be an integer >= 1, got 2\.5"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_argument_named(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message):
        call()
