"""Argument checks across the package, as one table.

Each row is a call with one bad argument and the error it must raise, with
the message that names the argument: a ``ConfigError`` where the argument
breaks one of the package's rules, a plain ``ValueError`` where it fails a
computation.  The rows cover the checks that no other test reaches.  A sweep
then puts each of a set of bad numbers into each numeric argument of every
public entry point, and no call may raise anything but the package's errors;
another puts bad texts into each numeric flag of the command line, and no run
may end but with an exit code.
"""

import math

import numpy as np
import pytest

from pilotplan.cli import main
from pilotplan.distributions import ConvergenceError, _choice, _point, norm_cdf
from pilotplan.effect import effect_pilot_n, effect_underpower_prob, plan_effect_pilot
from pilotplan.power import (
    EffectSpec, TestDesign, arcsine_effect, effect_for_n, main_sample_size, mu_for_n,
    power_at, required_n, sigma_for_n)
from pilotplan.simulation import (
    ConfigError, SimulationConfig, simulate_effect_pipeline, simulate_variance_pipeline)
from pilotplan.tables import reproduce_table
from pilotplan.variance import (
    PowerBounds, pilot_n_approx, pilot_n_exact, plan_variance_pilot,
    variance_underpower_prob)

TWO = TestDesign()
BOUNDS = PowerBounds(0.2, 0.6)


def _effect_config(**kw):
    return SimulationConfig(**{**dict(scenario="effect", effect=0.5, pilot_n=32, seed=1), **kw})


def _variance_config(**kw):
    return SimulationConfig(
        **{**dict(scenario="variance", effect=1.0, sigma=4.0, pilot_n=12, seed=1), **kw})


# a count past sys.maxsize, whose float() overflows
HUGE = 10 ** 400


CHECKS = {
    "design-kind": (lambda: TestDesign("three-sample"), ConfigError,
                    r"kind must be 'one-sample' or 'two-sample', got 'three-sample'"),
    "design-alpha-zero": (lambda: TestDesign(alpha=0.0), ConfigError,
                          r"alpha must be in \(0, 1\), got 0\.0"),
    # below the floor alpha is a probability, but 1 - alpha / 2 rounds to 1
    "design-alpha-floor": (lambda: TestDesign(alpha=1e-300), ConfigError,
                           r"alpha must be in \(1\.11e-16, 1\), got 1e-300"),
    "arcsine-p2-above-p1": (
        lambda: arcsine_effect(0.4, 0.5), ConfigError,
        r"need 0 <= p2 <= p1 <= 1, proportions as decimals \(0\.3, not 30\), "
        r"got p1=0\.4, p2=0\.5"),
    "effect-negative": (lambda: EffectSpec(-1.0), ConfigError,
                        r"effect must be finite and >= 0, got -1\.0"),
    "effect-sigma": (lambda: EffectSpec(1.0, 0.0), ConfigError,
                     r"sigma must be finite and > 0, got 0\.0"),
    "bounds-overpower-prob": (lambda: PowerBounds(0.2, 0.6, 1.5, 0.9), ConfigError,
                              r"overpower_prob must be in \(0, 1\), got 1\.5"),
    "bounds-overpower-threshold": (lambda: PowerBounds(0.2, 0.6, 0.2, 1.0), ConfigError,
                                   r"overpower_threshold must be in \(0, 1\), got 1\.0"),
    "bounds-pair": (lambda: PowerBounds(0.2, 0.6, 0.2), ConfigError,
                    "overpower_prob and overpower_threshold must be given together"),
    "bounds-percentage": (
        lambda: PowerBounds(30, 0.6), ConfigError,
        r"underpower_prob must be in \(0, 1\), got 30\.0; give a decimal, not a percentage "
        r"\(e\.g\. 0\.3\)"),
    "bounds-overpower-below-target": (
        lambda: PowerBounds(0.2, 0.6, 0.2, 0.7).check_against_target(0.8), ConfigError,
        r"overpower_threshold must be above the target power 0\.8, got 0\.7"),
    "bounds-underpower-above-target": (
        lambda: PowerBounds(0.2, 0.8).check_against_target(0.8), ConfigError,
        r"underpower_threshold must be below the target power 0\.8, got 0\.8"),
    "plan-variance-mode": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, BOUNDS, mode="bogus"),
        ConfigError, r"mode must be 'exact' or 'approx', got 'bogus'"),
    "plan-variance-power-target": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 1.0, BOUNDS),
        ConfigError, r"power_target must be in \(0, 1\), got 1\.0"),
    "plan-variance-zero-effect": (
        lambda: plan_variance_pilot(EffectSpec(0, 4), TWO, 0.8, BOUNDS),
        ConfigError, "effect of 0 means an infinite study"),
    "plan-effect-power-target": (
        lambda: plan_effect_pilot(0.5, 1.0, TWO, 0.0, BOUNDS),
        ConfigError, r"power_target must be in \(0, 1\), got 0\.0"),
    "pilot-exact-p": (lambda: pilot_n_exact(0.5, 0.0), ConfigError,
                      r"^p must be in \(0, 1\), got 0\.0"),
    "pilot-approx-p": (lambda: pilot_n_approx(0.5, 1.0), ConfigError,
                       r"^p must be in \(0, 1\), got 1\.0"),
    "pilot-approx-ratio": (lambda: pilot_n_approx(-0.5, 0.2), ConfigError,
                           r"sigma_ratio_sq must be finite and > 0, got -0\.5"),
    "variance-underpower-ratio": (lambda: variance_underpower_prob(12, 0.0), ConfigError,
                                  r"sigma_ratio_sq must be finite and > 0, got 0\.0"),
    "variance-underpower-fractional-pilot-n": (
        lambda: variance_underpower_prob(12.7, 0.6), ConfigError,
        r"pilot_n must be an integer >= 2, got 12\.7"),
    "effect-underpower-pilot-n": (lambda: effect_underpower_prob(0, 0.5, 0.7, 1.0),
                                  ConfigError, "pilot_n must be an integer >= 1, got 0"),
    "effect-underpower-fractional-pilot-n": (
        lambda: effect_underpower_prob(2.9, 0.5, 0.6, 1.0), ConfigError,
        r"pilot_n must be an integer >= 1, got 2\.9"),
    "effect-pilot-p": (lambda: effect_pilot_n(0.5, 0.7, 1.0, 0.0), ConfigError,
                       r"^p must be in \(0, 1\), got 0\.0"),
    "effect-pilot-sigma": (lambda: effect_pilot_n(0.5, 0.7, 0.0, 0.2), ConfigError,
                           r"sigma must be finite and > 0, got 0\.0"),
    "effect-pilot-side": (lambda: effect_pilot_n(0.5, 0.7, 1.0, 0.2, side="both"),
                          ConfigError, "side must be 'under' or 'over', got 'both'"),
    "sizing-mode": (lambda: main_sample_size(EffectSpec(0.5), TWO, 0.8, "bogus"),
                    ConfigError, r"mode must be 'z-approx' or 't-iterative', got 'bogus'"),
    "effect-for-n-mode": (lambda: effect_for_n(10, TWO, 0.8, "bogus"),
                          ConfigError, r"mode must be 'z-approx' or 't-iterative', got 'bogus'"),
    "mu-for-n-sigma": (lambda: mu_for_n(10, 0.0, TWO, 0.8), ConfigError,
                       r"sigma must be finite and > 0, got 0\.0"),
    "config-power-target": (lambda: _effect_config(power_target=1.0),
                            ConfigError, r"power_target must be in \(0, 1\), got 1\.0"),
    "config-threshold-above-target": (
        lambda: _effect_config(power_target=0.7, underpower_threshold=0.75), ConfigError,
        r"underpower_threshold must be below the target power 0\.7, got 0\.75"),
    "config-effect": (lambda: _effect_config(effect=0.0),
                      ConfigError, r"effect must be finite and > 0, got 0\.0"),
    "config-sizing-mode": (lambda: _effect_config(sizing_mode="x"),
                           ConfigError, "sizing_mode must be 'z-approx' or 't-iterative'"),
    "config-estimator": (lambda: _effect_config(estimator="x"),
                         ConfigError, "estimator must be 'pooled-sd' or 'known-sigma'"),
    "simulate-pooled-sd-noncentrality": (
        lambda: simulate_effect_pipeline(_effect_config(effect=1000.0, pilot_n=2)), ValueError,
        r"effect 1000\.0 over sigma 1\.0 with pilot_n 2 puts the pilot's t statistic past "
        r"noncentrality 1000, the largest a pooled-sd simulation takes"),
    "simulate-known-sigma-pilot-n": (
        lambda: simulate_effect_pipeline(
            _effect_config(estimator="known-sigma", pilot_n=10 ** 400)),
        ConfigError,
        r"pilot_n with the known-sigma estimator must be <= \d+, got one of 1329 bits"),
    "table-id-fractional": (lambda: reproduce_table(1.7, 3), ConfigError,
                            r"table_id must be 1 or 2, got 1\.7"),
    "table-id-bool": (lambda: reproduce_table(True, 3), ConfigError,
                      "table_id must be 1 or 2, got True"),
    "table-replicates-fractional": (lambda: reproduce_table(1, 2.5, seed=3), ConfigError,
                                    r"replicates must be an integer >= 1, got 2\.5"),
    "simulate-known-sigma-noncentrality": (
        lambda: simulate_effect_pipeline(
            _effect_config(estimator="known-sigma", effect=1e300, sigma=1e-300)), ValueError,
        r"effect 1e\+300 over sigma 1e-300 is an effect size of inf, past the largest this "
        "package plans for"),
    # a count too large to be a length, rather than an OverflowError or a
    # ZeroDivisionError from the arithmetic on it
    "simulate-variance-huge-pilot-n": (
        lambda: simulate_variance_pipeline(_variance_config(pilot_n=HUGE)), ConfigError,
        r"pilot_n of a variance pilot must be <= \d+, got one of 1329 bits"),
    "simulate-huge-replicates": (
        lambda: simulate_variance_pipeline(_variance_config(replicates=2 ** 63)), ConfigError,
        r"replicates must be <= \d+, got one of 64 bits"),
    "variance-underpower-huge-pilot-n": (
        lambda: variance_underpower_prob(HUGE, 0.5), ConfigError,
        r"pilot_n must be <= \d+, got one of 1329 bits"),
    "effect-underpower-huge-pilot-n": (
        lambda: effect_underpower_prob(HUGE, 1, 2, 1), ConfigError,
        r"pilot_n must be <= \d+, got one of 1329 bits"),
    # each non-finite effect or ratio is named, not the function it reaches
    "effect-pilot-mu0-nan": (lambda: effect_pilot_n(math.nan, 0.7, 1.0, 0.2), ConfigError,
                             "mu0 must be finite, got nan"),
    "effect-pilot-threshold-inf": (lambda: effect_pilot_n(0.5, math.inf, 1.0, 0.2), ConfigError,
                                   "mu_threshold must be finite, got inf"),
    "effect-underpower-mu0-inf": (lambda: effect_underpower_prob(12, -math.inf, 0.7, 1.0),
                                  ConfigError, "mu0 must be finite, got -inf"),
    "effect-underpower-threshold-nan": (
        lambda: effect_underpower_prob(12, 0.5, math.nan, 1.0), ConfigError,
        "mu_threshold must be finite, got nan"),
    "pilot-exact-ratio-inf": (lambda: pilot_n_exact(math.inf, 0.2, "over"), ConfigError,
                              "sigma_ratio_sq must be finite and > 0, got inf"),
    # a flag is a bool and a cap an integer: neither is read as some other value
    "plan-variance-pooled-pilot-str": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, BOUNDS, pooled_pilot="no"),
        ConfigError, "pooled_pilot must be False or True, got 'no'"),
    "config-pooled-pilot-str": (lambda: _variance_config(pooled_pilot="yes"),
                                ConfigError, "pooled_pilot must be False or True, got 'yes'"),
    "pilot-approx-pooled-int": (lambda: pilot_n_approx(0.5, 0.2, pooled=1), ConfigError,
                                "pooled must be False or True, got 1"),
    "pilot-exact-cap-bool": (lambda: pilot_n_exact(0.5, 0.2, cap=True), ConfigError,
                             "cap must be an integer >= 2, got True"),
    "pilot-exact-cap-fractional": (lambda: pilot_n_exact(0.5, 0.2, cap=10.5), ConfigError,
                                   r"cap must be an integer >= 2, got 10\.5"),
    # a power level at or below alpha / 2 gives z_{1-a/2} + z_p <= 0, and no
    # effect gives an exact power below alpha, its value at effect 0
    "plan-variance-threshold-below-half-alpha": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, PowerBounds(0.2, 0.01)),
        ValueError, r"underpower_threshold must be above alpha / 2 = 0\.025 at alpha 0\.05, "
                    r"got 0\.01"),
    "plan-variance-threshold-half-alpha": (
        lambda: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, PowerBounds(0.2, 0.025)),
        ValueError, r"underpower_threshold must be above alpha / 2 = 0\.025 at alpha 0\.05, "
                    r"got 0\.025"),
    "plan-effect-threshold-half-alpha": (
        lambda: plan_effect_pilot(2.0, 4.0, TWO, 0.8, PowerBounds(0.2, 0.025)),
        ValueError, r"underpower_threshold must be above alpha / 2 = 0\.025 at alpha 0\.05, "
                    r"got 0\.025"),
    # the threshold effect mu0 z_target / z_threshold overflows: a failed
    # computation, not an infinite mu_threshold argument of effect_pilot_n
    "plan-effect-threshold-overflow": (
        lambda: plan_effect_pilot(1e307, 1e307, TWO, 0.8, PowerBounds(0.2, 0.0251)), ValueError,
        r"mu0 1e\+307 at underpower_threshold 0\.0251 puts the threshold effect past the "
        "largest float"),
    "effect-for-n-power-below-half-alpha": (
        lambda: effect_for_n(10, TWO, 0.01), ValueError,
        r"power must be above alpha / 2 = 0\.025 at alpha 0\.05, got 0\.01"),
    "sigma-for-n-power-below-half-alpha": (
        lambda: sigma_for_n(10, EffectSpec(1.0), TWO, 0.01), ValueError,
        r"power must be above alpha / 2 = 0\.025 at alpha 0\.05, got 0\.01"),
    "effect-for-n-t-power-below-alpha": (
        lambda: effect_for_n(10, TWO, 0.04, "t-iterative"), ValueError,
        r"power must be above alpha 0\.05 in t-iterative mode, got 0\.04"),
    # a choice matches in kind as in value: True is not 1, and 0 is not False
    "table-id-true": (lambda: reproduce_table(True, 3), ConfigError,
                      r"table_id must be 1 or 2, got True"),
    "pooled-zero": (lambda: variance_underpower_prob(12, 0.6, pooled=0), ConfigError,
                    r"pooled must be False or True, got 0"),
    "table-id-float": (lambda: reproduce_table(1.0, 3), ConfigError,
                       r"table_id must be 1 or 2, got 1\.0"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_bad_argument_named(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message) as raised:
        call()
    # a computation's error is no usage error: the CLI exits 1 on it, not 2
    assert issubclass(raised.type, ConfigError) == (error is ConfigError)


class _Float(float):
    """A float subclass: not the plain float that ``_point`` passes through."""


# one point in each form the kernels take, and the plain float it reads as
POINTS = {
    "float": (0.75, 0.75),
    "float-subclass": (_Float(0.75), 0.75),
    "numpy-scalar": (np.float64(0.75), 0.75),
    "0-d-array": (np.array(0.75), 0.75),
    "true": (True, 1.0),
    "int": (3, 3.0),
    "huge-int": (-HUGE, -math.inf),
}


@pytest.mark.parametrize("name", sorted(POINTS))
def test_point_reads_one_plain_float(name):
    x, plain = POINTS[name]
    got = _point("norm_cdf", x)
    assert type(got) is float and got == plain
    if math.isfinite(plain):
        assert norm_cdf(x).hex() == norm_cdf(plain).hex()


@pytest.mark.parametrize("x,choices,want", [
    (1, (True, 1), 1), (True, (1, True), True), (0, (False, 0), 0),
    (False, (0, False), False), (np.int64(2), (1, 2), 2), (np.float64(2.0), (2, 2.0), 2.0),
    ("over", ("under", "over"), "over"),
])
def test_choice_returns_the_choice_of_its_kind(x, choices, want):
    got = _choice("x", x, choices)
    assert got == want and type(got) is type(want)


def test_huge_pilot_size_is_an_error_line(capsys):
    code = main(["simulate", "--scenario", "variance", "--effect", "1", "--sigma", "4",
                 "--pilot-n", str(HUGE), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2        # a configuration rejected before any sampling
    assert captured.out == ""
    assert captured.err.startswith("error: pilot_n of a variance pilot must be <= ")


def test_power_level_at_half_alpha_is_an_error_line(capsys):
    # its z sum is 0, which the effect planner divided by
    code = main(["plan-effect", "--mu0", "2", "--sigma", "4", "--underpower-prob", ".2",
                 "--underpower-threshold", ".025"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: underpower_threshold must be above alpha / 2 = 0.025 "
                            "at alpha 0.05, got 0.025\n")


def test_power_level_at_alpha_is_legal():
    assert plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, PowerBounds(0.2, 0.05)).pilot_n >= 2
    assert plan_effect_pilot(2.0, 4.0, TWO, 0.8, PowerBounds(0.2, 0.05)).pilot_n >= 1
    assert effect_for_n(10, TWO, 0.05) > 0.0


# an infinite standardized gap, from an overflowing difference or a tiny
# sigma, gives the limit of the normal tail, not an error from norm_cdf
LIMITS = {
    "underpower-tiny-sigma": (lambda: effect_underpower_prob(12, 0.5, 0.7, 1e-320), 0.0),
    "underpower-overflowing-gap": (lambda: effect_underpower_prob(12, -1e308, 1e308, 1.0), 0.0),
    "pilot-overflowing-gap": (lambda: effect_pilot_n(-1e308, 1e308, 1.0, 0.2), 1),
    "pilot-tiny-sigma": (lambda: effect_pilot_n(0.5, 0.7, 1e-320, 0.2), 1),
    # sigma sqrt(2 / n) underflows to 0: no ZeroDivisionError either
    "underpower-zero-sd": (lambda: effect_underpower_prob(10 ** 9, 0.0, 1.0, 5e-324), 0.0),
}


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_infinite_gap_takes_the_limit(name):
    call, want = LIMITS[name]
    got = call()
    assert got == want and type(got) is type(want)


def test_huge_ratio_takes_the_df_limit():
    # (ratio - 1)^2 would overflow; the pilot of the df -> 0 limit is 2
    assert pilot_n_approx(1e150, 0.2) == pilot_n_approx(1e300, 0.2) == 2


# every public entry point, and valid values of its numeric arguments
ENTRIES = {
    "TestDesign": (TestDesign, dict(alpha=0.05)),
    "EffectSpec": (EffectSpec, dict(effect=1.0, sigma=4.0)),
    "arcsine_effect": (arcsine_effect, dict(p1=0.5, p2=0.4)),
    "required_n": (lambda **kw: required_n(EffectSpec(0.5), TWO, **kw), dict(power=0.8)),
    "required_n-z": (lambda **kw: required_n(EffectSpec(0.5), TWO, mode="z-approx", **kw),
                     dict(power=0.8)),
    "main_sample_size": (lambda **kw: main_sample_size(EffectSpec(0.5), TWO, **kw),
                         dict(power=0.8)),
    "power_at": (lambda **kw: power_at(effect=EffectSpec(0.5), design=TWO, **kw), dict(n=10)),
    "effect_for_n": (lambda **kw: effect_for_n(design=TWO, **kw), dict(n=10, power=0.8)),
    "effect_for_n-t": (lambda **kw: effect_for_n(design=TWO, mode="t-iterative", **kw),
                       dict(n=10, power=0.8)),
    "sigma_for_n": (lambda **kw: sigma_for_n(effect=EffectSpec(1.0, 4.0), design=TWO, **kw),
                    dict(n=10, power=0.8)),
    "mu_for_n": (lambda **kw: mu_for_n(design=TWO, **kw), dict(n=10, sigma=4.0, power=0.8)),
    "PowerBounds": (PowerBounds, dict(underpower_prob=0.2, underpower_threshold=0.6,
                                      overpower_prob=0.2, overpower_threshold=0.9)),
    "variance_underpower_prob": (variance_underpower_prob,
                                 dict(pilot_n=12, sigma_ratio_sq=0.6)),
    "pilot_n_exact": (pilot_n_exact, dict(sigma_ratio_sq=0.6, p=0.2, cap=10 ** 6)),
    "pilot_n_exact-over": (lambda **kw: pilot_n_exact(side="over", **kw),
                           dict(sigma_ratio_sq=1.6, p=0.2, cap=10 ** 6)),
    "pilot_n_approx": (pilot_n_approx, dict(sigma_ratio_sq=0.6, p=0.2)),
    "plan_variance_pilot": (
        lambda **kw: plan_variance_pilot(EffectSpec(1.0, 4.0), TWO, bounds=BOUNDS,
                                         mode="exact", **kw), dict(power_target=0.8)),
    "effect_underpower_prob": (effect_underpower_prob,
                               dict(pilot_n=12, mu0=0.5, mu_threshold=0.7, sigma=1.0)),
    "effect_pilot_n": (effect_pilot_n, dict(mu0=0.5, mu_threshold=0.7, sigma=1.0, p=0.2)),
    "effect_pilot_n-over": (lambda **kw: effect_pilot_n(side="over", **kw),
                            dict(mu0=0.5, mu_threshold=0.3, sigma=1.0, p=0.2)),
    "plan_effect_pilot": (lambda **kw: plan_effect_pilot(design=TWO, bounds=BOUNDS, **kw),
                          dict(mu0=0.5, sigma=1.0, power_target=0.8)),
    "reproduce_table": (reproduce_table, dict(table_id=1, replicates=3, seed=0)),
}
_CONFIG = dict(effect=1.0, pilot_n=12, seed=1, replicates=200, sigma=4.0, alpha=0.05,
               power_target=0.8, underpower_threshold=0.6)
for _name, _run, _fixed in (
        ("variance", simulate_variance_pipeline, dict(scenario="variance")),
        ("variance-pooled", simulate_variance_pipeline,
         dict(scenario="variance", pooled_pilot=True)),
        ("variance-z", simulate_variance_pipeline,
         dict(scenario="variance", sizing_mode="z-approx")),
        ("pooled-sd", simulate_effect_pipeline, dict(scenario="effect")),
        ("known-sigma", simulate_effect_pipeline,
         dict(scenario="effect", estimator="known-sigma"))):
    ENTRIES[f"simulate-{_name}"] = (
        lambda run=_run, fixed=_fixed, **kw: run(SimulationConfig(**fixed, **kw)), _CONFIG)

BAD_NUMBERS = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e300, HUGE, True)


@pytest.mark.parametrize("entry,arg", [(e, a) for e, (_, kw) in ENTRIES.items() for a in kw])
def test_bad_number_raises_a_package_error(entry, arg):
    # each call returns or raises ValueError (ConfigError is one) or
    # ConvergenceError; never OverflowError, ZeroDivisionError or TypeError
    call, valid = ENTRIES[entry]
    escaped = []
    for bad in BAD_NUMBERS:
        try:
            call(**{**valid, arg: bad})
        except (ValueError, ConvergenceError):
            pass
        except Exception as exc:    # reported below, value by value
            escaped.append(f"{arg}={'10**400' if bad is HUGE else bad!r}: {exc!r}")
    assert not escaped, escaped


# every numeric flag of each command form, and a valid value for it
_PLAN = ("--alpha", ".05", "--power", ".8", "--underpower-prob", ".2",
         "--underpower-threshold", ".6", "--overpower-prob", ".2", "--overpower-threshold", ".9")
_SIMULATE = ("simulate", "--effect", "1", "--sigma", "4", "--pilot-n", "12", "--seed", "1",
             "--reps", "50", "--alpha", ".05", "--power", ".8", "--underpower-threshold", ".6")
CLI_FORMS = {
    "plan-variance": ("plan-variance", "--sigma", "4", "--delta", "1", *_PLAN),
    "plan-effect-mu0": ("plan-effect", "--mu0", "2", "--sigma", "4", *_PLAN),
    "plan-effect-p": ("plan-effect", "--p1", ".5", "--p2", ".4", *_PLAN),
    "simulate-variance": (*_SIMULATE, "--scenario", "variance"),
    "simulate-effect": (*_SIMULATE, "--scenario", "effect"),
}
BAD_TEXTS = ("nan", "inf", "-inf", "0", "-1", "2.5", "1e300", "1e-320", "30", "x")


def _exit_code(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # argparse's own usage errors
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("form", sorted(CLI_FORMS))
def test_bad_flag_is_an_exit_code(form, capsys):
    # each bad text in each numeric flag ends the run with an exit code and,
    # unless it is 0, an error line; no other exception escapes main
    argv = CLI_FORMS[form]
    flags = [i for i, a in enumerate(argv) if a.startswith("--") and a != "--scenario"]
    for i in flags:
        for text in BAD_TEXTS:
            # --flag=text, so that argparse reads "-inf" as a value, not a flag
            code, captured = _exit_code(
                (*argv[:i], f"{argv[i]}={text}", *argv[i + 2:]), capsys)
            assert code in (0, 1, 2), (argv[i], text, code)
            assert (code == 0) == (captured.err == ""), (argv[i], text, captured.err)


@pytest.mark.parametrize("argv", [
    # the entry line is built from the checked plan, not by dividing the flags
    ("plan-effect", "--mu0", "2", "--sigma", "0"),
    # the library's proportion rule, not a computation that fails
    ("plan-effect", "--p1", ".4", "--p2", ".5"),
])
def test_bad_entry_is_a_usage_error(argv, capsys):
    code, captured = _exit_code((*argv, "--underpower-prob", ".3",
                                 "--underpower-threshold", ".6"), capsys)
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ")
