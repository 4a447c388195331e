"""Command-line surface tests: flags, formats, exit codes, reproducibility."""

import argparse
import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pilotplan.cli import _HANDLERS, _build_parser, emit, main
from pilotplan.simulation import SimulationReport
from pilotplan.tables import TableReport
from pilotplan.variance import _PlanRecord


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("plan-effect", "--mu0", "1e-300", "--sigma", "1",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("plan-variance", "--delta", "1e-170", "--sigma", "1",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("plan-variance", "--delta", "1e-300", "--sigma", "1e300",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("simulate", "--scenario", "effect", "--effect", "1e-170", "--pilot-n", "10",
     "--seed", "1"),
])
def test_tiny_effect_is_computational_error(capsys, argv):
    # the effect's square, or the effect size itself, underflows to 0; the
    # size guard fires first
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "exceeds 1e9" in err


@pytest.mark.parametrize("argv,inputs", [
    (("plan-variance", "--sigma", "1e-300", "--delta", "1",
      "--underpower-prob", "0.2", "--underpower-threshold", "0.6"), "effect 1.0 over sigma 1e-300"),
    (("plan-variance", "--sigma", "1e-320", "--delta", "1",
      "--underpower-prob", "0.2", "--underpower-threshold", "0.6"), "effect 1.0 over sigma 1e-320"),
    (("plan-effect", "--mu0", "1e300", "--sigma", "1",
      "--underpower-prob", "0.2", "--underpower-threshold", "0.6"), "effect 1e+300 over sigma 1.0"),
    (("simulate", "--scenario", "effect", "--effect", "1e300", "--sigma", "1",
      "--pilot-n", "12", "--reps", "100", "--seed", "1"), "effect 1e+300 over sigma 1.0"),
    (("simulate", "--scenario", "effect", "--estimator", "known-sigma", "--effect", "1e300",
      "--sigma", "1e-300", "--pilot-n", "12", "--reps", "100", "--seed", "1"),
     "effect 1e+300 over sigma 1e-300 is an effect size of inf"),
])
def test_huge_effect_is_computational_error(capsys, argv, inputs):
    # the effect size's square would overflow (or, at 1e-320, the effect size
    # itself): an error line that names the inputs, not a traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and inputs in err and "ncp" not in err


@pytest.mark.parametrize("bound", [
    ("--underpower-threshold", ".79999999"),
    ("--underpower-threshold", ".6", "--overpower-prob", ".2", "--overpower-threshold", ".8000001"),
])
def test_approx_variance_pilot_past_1e9_is_computational_error(capsys, bound):
    # a threshold this near the target puts the variance ratio within 3e-7 of
    # 1, and the closed-form pilot past 1e9 (2.2e15 under, 2.2e13 over)
    code, out, err = run_cli(capsys, "plan-variance", "--sigma", "4", "--delta", "1",
                             "--underpower-prob", ".2", *bound)
    assert code == 1
    assert out == ""
    assert err.startswith("error: pilot size exceeds 1e9; the variance ratio ")
    assert err.endswith(" is too close to 1\n")


def test_alpha_without_critical_value_is_usage_error(capsys):
    # 1 - alpha / 2 rounds to 1.0 there: an error line that names alpha
    code, out, err = run_cli(capsys, "plan-variance", "--sigma", "4", "--delta", "1",
                             "--alpha", "1e-300", "--underpower-prob", ".2",
                             "--underpower-threshold", ".6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: alpha must be in") and "1e-300" in err


_COMMANDS = (
    ("plan-variance", "--sigma", "4", "--delta", "1", "--underpower-prob", ".2"),
    ("plan-effect", "--mu0", "1", "--sigma", "4", "--underpower-prob", ".2"),
    ("simulate", "--scenario", "variance", "--effect", "1", "--sigma", "4",
     "--pilot-n", "12", "--seed", "7"),
)


@pytest.mark.parametrize("flags,message", [
    (("--alpha", "1e-300", "--underpower-threshold", ".6"),
     "error: alpha must be in (1.11e-16, 1), got 1e-300\n"),
    (("--power", ".8", "--underpower-threshold", ".9"),
     "error: underpower_threshold must be below the target power 0.8, got 0.9\n"),
    (("--power", "2", "--underpower-threshold", ".6"),
     "error: power_target must be in (0, 1), got 2.0; give a decimal, not a percentage "
     "(e.g. 0.02)\n"),
], ids=["alpha-floor", "threshold-above-target", "power-out-of-range"])
def test_rule_reads_alike_in_every_subcommand(capsys, flags, message):
    for command in _COMMANDS:
        assert run_cli(capsys, *command, *flags) == (2, "", message)


def test_large_effect_is_planned_quickly(capsys):
    # effect size 1e5: main studies of 2, pilots as at any effect size
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "plan-variance", "--sigma", "1e-5", "--delta", "1",
                           "--underpower-prob", "0.2", "--underpower-threshold", "0.6")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out.endswith("pilot sample size: 12\n")


@pytest.mark.parametrize("argv", [
    ("plan-variance", "--sigma", "inf", "--delta", "1",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("plan-variance", "--sigma", "1", "--delta", "nan",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("plan-effect", "--mu0", "inf", "--sigma", "1",
     "--underpower-prob", "0.2", "--underpower-threshold", "0.6"),
    ("simulate", "--scenario", "variance", "--effect", "1", "--sigma", "inf",
     "--pilot-n", "12", "--seed", "1"),
    ("simulate", "--scenario", "effect", "--effect", "inf", "--pilot-n", "12",
     "--seed", "1"),
])
def test_non_finite_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite and" in err


_PLAN_TAIL = ("--underpower-prob", ".3", "--underpower-threshold", ".6")


@pytest.mark.parametrize("argv,message", [
    (("plan-effect", "--mu0", "2", *_PLAN_TAIL),
     "give either --mu0 with --sigma, or --p1 with --p2"),
    (("plan-effect", "--p1", ".5", *_PLAN_TAIL),
     "give either --mu0 with --sigma, or --p1 with --p2"),
    (("plan-effect", "--p1", "-0.1", "--p2", ".4", *_PLAN_TAIL),
     "need 0 <= p2 <= p1 <= 1, proportions as decimals (0.3, not 30), got p1=-0.1, p2=0.4"),
    (("plan-variance", "--sigma", "4", "--delta", "1", "--alpha", "0", *_PLAN_TAIL),
     "alpha must be in (0, 1), got 0.0"),
    (("plan-variance", "--sigma", "x", "--delta", "1", *_PLAN_TAIL), "invalid float value: 'x'"),
    (("plan-variance", "--sigma", "4", "--delta", "1", "--overpower-prob", ".2", *_PLAN_TAIL),
     "error: overpower_prob and overpower_threshold must be given together"),
    (("plan-effect", "--mu0", "2", "--sigma", "4", "--overpower-threshold", ".9", *_PLAN_TAIL),
     "error: overpower_prob and overpower_threshold must be given together"),
    # a flag that breaks a rule beats one that would fail the computation
    # (equal proportions), whichever the CLI reads first
    (("plan-effect", "--p1", "1e-6", "--p2", "1e-6", "--underpower-prob", "2",
      "--underpower-threshold", ".6"), "error: underpower_prob must be in (0, 1), got 2.0"),
    (("plan-variance", "--sigma", "nan", "--delta", "1", "--alpha", "1e-300", *_PLAN_TAIL),
     "error: alpha must be in (1.11e-16, 1), got 1e-300"),
    # the target power too, which no record the CLI builds holds
    (("plan-effect", "--p1", ".5", "--p2", ".5", "--power", "2", *_PLAN_TAIL),
     "error: power_target must be in (0, 1), got 2.0"),
    (("plan-effect", "--p1", ".5", "--p2", ".5", "--power", ".5", *_PLAN_TAIL),
     "error: underpower_threshold must be below the target power 0.5, got 0.6"),
], ids=["mu0-alone", "p1-alone", "negative-proportion", "zero-alpha", "sigma-not-a-number",
        "overpower-prob-alone", "overpower-threshold-alone", "rule-before-equal-proportions",
        "alpha-floor-with-nan-sigma", "power-before-equal-proportions",
        "threshold-above-power-before-equal-proportions"])
def test_flag_misuse_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv,kind", [
    (("plan-variance", "--sigma", "4", "--delta", "1", *_PLAN_TAIL), _PlanRecord),
    (("plan-effect", "--p1", ".5", "--p2", ".4", *_PLAN_TAIL), _PlanRecord),
    (("simulate", "--scenario", "effect", "--effect", ".5", "--pilot-n", "32",
      "--reps", "100", "--seed", "7"), SimulationReport),
    (("tables", "--id", "2", "--reps", "20", "--seed", "3"), TableReport),
])
def test_handler_returns_record_and_text(capsys, argv, kind):
    # main alone prints: a handler returns the record and its text, and
    # main writes the text, or the record in another format
    record, text = _HANDLERS[argv[0]](_build_parser().parse_args(argv))
    assert capsys.readouterr() == ("", "")
    assert isinstance(record, kind) and text.endswith("\n")
    assert run_cli(capsys, *argv) == (0, text, "")
    emit(record, "json")
    as_json = capsys.readouterr().out
    assert run_cli(capsys, *argv, "--format", "json") == (0, as_json, "")


def test_every_option_has_help():
    # argparse %-formats help text only when it prints it, so a bare % in a
    # help string would fail only there: format each subcommand's help too
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == sorted(_HANDLERS)
    for name, sub in subs.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.option_strings)
        assert "usage: pilotplan " + name in sub.format_help()


class TestPlanVariance:
    def test_low_back_pain_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--design", "two", "--alpha", ".05", "--power", ".8",
            "--underpower-prob", ".2", "--underpower-threshold", ".6")
        assert code == 0
        assert "pilot sample size: 12" in out
        assert "158" in out

    def test_tighter_bound_gives_25(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--alpha", ".05", "--power", ".8",
            "--underpower-prob", ".1", "--underpower-threshold", ".6")
        assert code == 0
        assert "pilot sample size: 25" in out

    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--mode", "exact",
            "--underpower-prob", ".1", "--underpower-threshold", ".6")
        assert code == 0
        assert "pilot sample size: 22" in out

    @pytest.mark.parametrize("mode,want", [("approx", 13), ("exact", 12)])
    def test_pooled_pilot(self, capsys, mode, want):
        # unpooled: 25 (approx) and 22 (exact)
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--underpower-prob", ".1", "--underpower-threshold", ".6",
            "--mode", mode, "--pooled-pilot")
        assert code == 0
        assert f"pilot N for the underpower bound ({mode}): {want}\n" in out
        assert out.endswith(f"pilot sample size: {want}\n")

    def test_zero_sigma_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "plan-variance", "--sigma", "0", "--delta", "1",
            "--underpower-prob", ".2", "--underpower-threshold", ".6")
        assert code == 2
        assert "must be finite and > 0" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "plan-variance", "--sigma", "4")
        assert code == 2

    def test_threshold_above_target_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--power", ".8", "--underpower-prob", ".2",
            "--underpower-threshold", ".9")
        assert code == 2
        assert "below" in err

    def test_json_output_echoes_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--underpower-prob", ".2", "--underpower-threshold", ".6",
            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "results"}
        assert doc["config"]["alpha"] == 0.05       # default echoed
        assert doc["config"]["power_target"] == 0.8
        assert doc["results"]["pilot_n"] == 12

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-variance", "--sigma", "4", "--delta", "1",
            "--underpower-prob", ".2", "--underpower-threshold", ".6",
            "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        cols = header.split(",")
        vals = row.split(",")
        rec = dict(zip(cols, vals))
        assert rec["pilot_n"] == "12"
        assert rec["alpha"] == "0.05"
        assert "." in rec["sigma_under"]


class TestPlanEffect:
    def test_effect_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-effect", "--mu0", "2", "--sigma", "4",
            "--design", "two",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 0
        assert "pilot sample size per group: 32" in out

    def test_proportions_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-effect", "--p1", ".5", "--p2", ".4",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 0
        assert "pilot sample size per group: 193" in out
        # within five percent of the published 195
        assert abs(193 - 195) / 195 < 0.05

    def test_both_entry_forms_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "plan-effect", "--mu0", "2", "--sigma", "4",
            "--p1", ".5", "--p2", ".4",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 2
        assert "either" in err

    def test_equal_proportions_rejected(self, capsys):
        # a zero arcsine effect: the message names the flags given, not --mu0
        code, _, err = run_cli(
            capsys, "plan-effect", "--p1", ".5", "--p2", ".5",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 1
        assert "--p1" in err and "--p2" in err and "zero effect" in err
        assert "mu0" not in err

    def test_neither_entry_form_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "plan-effect",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 2

    def test_proportion_above_one_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "plan-effect", "--p1", "1.2", "--p2", ".4",
            "--underpower-prob", ".3", "--underpower-threshold", ".6")
        assert code == 2
        assert "decimal" in err

    def test_percentage_hint_for_probability(self, capsys):
        code, _, err = run_cli(
            capsys, "plan-effect", "--mu0", "2", "--sigma", "4",
            "--underpower-prob", "30", "--underpower-threshold", ".6")
        assert code == 2
        assert "0.3" in err


class TestSimulate:
    def test_effect_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "effect", "--effect", ".5",
            "--pilot-n", "32", "--underpower-threshold", ".6",
            "--reps", "1000", "--seed", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["empirical_underpower"] == pytest.approx(0.30, abs=0.05)
        assert doc["config"]["seed"] == 7

    def test_same_seed_identical_output(self, capsys):
        args = ("simulate", "--scenario", "variance", "--delta", "1",
                "--sigma", "4", "--pilot-n", "12", "--reps", "400",
                "--seed", "11", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("scale,flags", [
        ("1e300", ("--power", ".5", "--underpower-threshold", "1e-300")),
        ("1e-320", ("--alpha", ".4")),
    ])
    def test_variance_run_at_extreme_sigma(self, capsys, scale, flags):
        # the estimates come from the standardized effect, so an effect and
        # sigma at either end of the double range run as effect size 1: sigma
        # is never squared into an overflow or an underflow to 0
        argv = ("simulate", "--scenario", "variance", "--pilot-n", "12", "--seed", "1",
                "--reps", "20", *flags)
        code, out, err = run_cli(capsys, *argv, "--effect", scale, "--sigma", scale)
        assert (code, err) == (0, "")
        assert out.startswith("simulated variance pipeline: 20 replicates, seed 1")
        assert out == run_cli(capsys, *argv, "--effect", "1", "--sigma", "1")[1]

    def test_seed_required(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "effect", "--effect", ".5",
            "--pilot-n", "32")
        assert code == 2

    @pytest.mark.parametrize("scenario,flags,want", [
        ("effect", ["--pooled-pilot"], 2),
        ("variance", ["--estimator", "known-sigma"], 2),
        ("variance", ["--estimator", "pooled-sd"], 0),   # the default, spelled out
    ])
    def test_other_scenario_flags_rejected(self, capsys, scenario, flags, want):
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", scenario, "--effect", ".5",
            "--pilot-n", "12", "--reps", "50", "--seed", "1", *flags)
        assert code == want
        assert ("scenario only" in err) == (want == 2)

    def test_bad_scenario_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "bayes", "--effect", ".5",
            "--pilot-n", "32", "--seed", "1")
        assert code == 2


class TestTables:
    def test_csv_grid(self, capsys):
        args = ("tables", "--id", "1", "--reps", "40", "--seed", "7",
                "--format", "csv")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 61  # header + 60 cells
        assert "underpower_prob" in lines[0] and "pilot_n" in lines[0]
        _, out2, _ = run_cli(capsys, *args)
        assert out == out2

    def test_text_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--id", "2", "--reps", "20", "--seed", "3")
        assert code == 0
        assert "main study N" in out
        assert "394" in out and "64" in out and "26" in out

    def test_bad_id_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "--id", "9", "--seed", "3")
        assert code == 2


# JSON config key -> CLI flag, where the flag is not the key with dashes
_FLAGS = {"kind": "--design", "power_target": "--power", "replicates": "--reps"}
_DESIGN_NAMES = {"one-sample": "one", "two-sample": "two"}


def argv_from_config(command, config):
    """The command line that a JSON ``config`` block echoes."""
    argv = [command]
    for key, value in config.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, _DESIGN_NAMES.get(value, str(value))]
    return argv


def json_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue()) if code == 0 else None


_BOUND_PROB = st.floats(0.05, 0.45)


@st.composite
def plan_config(draw):
    power = draw(st.floats(0.7, 0.95))
    config = {"kind": draw(st.sampled_from(sorted(_DESIGN_NAMES))),
              "alpha": draw(st.floats(0.01, 0.1)), "power_target": power,
              "underpower_prob": draw(_BOUND_PROB),
              "underpower_threshold": draw(st.floats(0.3, power - 0.05))}
    if draw(st.booleans()):
        config.update(overpower_prob=draw(_BOUND_PROB),
                      overpower_threshold=draw(st.floats(power + 0.02, 0.99)))
    return config


class TestRecordRoundTrip:
    """Feeding a JSON config block back through the CLI reproduces the record."""

    def check(self, command, argv):
        code, first = json_run(argv)
        assume(code == 0)
        assert json_run(argv_from_config(command, first["config"])) == (0, first)

    @given(plan_config(), st.floats(0.5, 3.0), st.floats(0.5, 5.0),
           st.sampled_from(["approx", "exact"]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_plan_variance(self, config, delta, sigma, mode, pooled):
        config.update(delta=delta, sigma=sigma, mode=mode, pooled_pilot=pooled)
        self.check("plan-variance", argv_from_config("plan-variance", config))

    @given(plan_config(), st.floats(0.3, 3.0), st.floats(0.5, 5.0),
           st.none() | st.tuples(st.floats(0.05, 0.8), st.floats(0.05, 0.2)))
    @settings(max_examples=40, deadline=None)
    def test_plan_effect(self, config, mu0, sigma, proportions):
        if proportions is None:
            config.update(mu0=mu0, sigma=sigma)
        argv = argv_from_config("plan-effect", config)
        if proportions is not None:
            p2, gap = proportions
            argv += ["--p1", str(p2 + gap), "--p2", str(p2)]
        self.check("plan-effect", argv)

    @given(st.sampled_from(["variance", "effect"]), st.floats(0.3, 1.5),
           st.integers(2, 30), st.integers(0, 2**31), st.floats(0.5, 3.0),
           st.sampled_from(sorted(_DESIGN_NAMES)), st.just(0.05),
           st.sampled_from([0.8, 0.9]), st.booleans(),
           st.sampled_from(["z-approx", "t-iterative"]),
           st.sampled_from(["pooled-sd", "known-sigma"]))
    @settings(max_examples=20, deadline=None)
    def test_simulate(self, scenario, effect, pilot_n, seed, sigma, kind, alpha,
                      power, pooled, sizing_mode, estimator):
        # each scenario takes the other's option only at its default
        if scenario == "variance":
            estimator = "pooled-sd"
        else:
            pooled = False
        config = dict(scenario=scenario, effect=effect, pilot_n=pilot_n, seed=seed,
                      replicates=200, sigma=sigma, kind=kind, alpha=alpha,
                      power_target=power, underpower_threshold=0.6,
                      pooled_pilot=pooled, sizing_mode=sizing_mode, estimator=estimator)
        self.check("simulate", argv_from_config("simulate", config))



def _log_uniform(lo: float, hi: float):
    """A flag value 10^e, e uniform on [lo, hi], as the command line spells it."""
    return st.floats(lo, hi).map(lambda e: repr(10.0 ** e))


def _count():
    """An integer flag from 1 to 1e9, log-uniform, as the command line spells it."""
    return st.floats(0.0, 9.0).map(lambda e: str(round(10.0 ** e)))


_SCALE = _log_uniform(-12.0, 12.0)
_SHARE = st.floats(0.001, 0.999)


@st.composite
def command_line(draw) -> list:
    """A command line of any subcommand, drawn as a user might type it:
    log-uniform scales, alpha from 1e-15 to 0.3, pilots and replicates up to
    1e9, and power levels mostly on their side of the target power, so that
    most runs compute and some break a rule."""
    command = draw(st.sampled_from(["plan-variance", "plan-effect", "simulate", "tables"]))
    seed = ["--seed", str(draw(st.integers(0, 2 ** 32)))]
    if command == "tables":
        return [command, "--id", draw(st.sampled_from(["1", "2"])), "--reps", draw(_count())] + seed
    power = draw(st.floats(0.5, 0.999))
    argv = [command, "--alpha", draw(_log_uniform(-15.0, math.log10(0.3))),
            "--power", repr(power), "--design", draw(st.sampled_from(["one", "two"]))]
    under = ["--underpower-threshold", repr(power * draw(_SHARE))]
    if command == "simulate":
        scenario = draw(st.sampled_from(["variance", "effect"]))
        argv += ["--scenario", scenario, "--effect", draw(_SCALE), "--sigma", draw(_SCALE),
                 "--pilot-n", draw(_count()), "--reps", draw(_count()), *seed, *under,
                 "--sizing-mode", draw(st.sampled_from(["t-iterative", "z-approx"]))]
        if scenario == "effect":
            return argv + ["--estimator", draw(st.sampled_from(["pooled-sd", "known-sigma"]))]
        return argv + (["--pooled-pilot"] if draw(st.booleans()) else [])
    if command == "plan-variance":
        argv += ["--sigma", draw(_SCALE), "--delta", draw(_SCALE),
                 "--mode", draw(st.sampled_from(["approx", "exact"]))]
        if draw(st.booleans()):
            argv.append("--pooled-pilot")
    elif draw(st.booleans()):
        argv += ["--mu0", draw(_SCALE), "--sigma", draw(_SCALE)]
    else:
        argv += ["--p1", repr(draw(_SHARE)), "--p2", repr(draw(_SHARE))]
    argv += ["--underpower-prob", repr(draw(_SHARE)), *under]
    if draw(st.booleans()):
        argv += ["--overpower-prob", repr(draw(_SHARE)),
                 "--overpower-threshold", repr(power + (1.0 - power) * draw(_SHARE))]
    return argv


# the result fields that are sizes (a nested dict's values too), with the least
# each takes: a known-sigma effect pilot may be one subject a group, a main
# study takes two; and the fields that are probabilities
_SIZES = {"pilot_n": 1, "pilot_n_under": 1, "pilot_n_over": 1, "main_n_under": 2,
          "main_n_over": 2, "main_n_quantiles": 2, "main_study_n": 2}
_PROBABILITIES = {"empirical_underpower", "mc_standard_error", "underpower_prob"}


def _leaves(value, key=None):
    """(field, value) for every number in a JSON result; the values of a size
    dict are read under its own field, those of any other dict under theirs."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, key if key in _SIZES else k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key)
    elif value is not None:
        yield key, value


# a run's bound: the slowest run of a two-minute fuzz took 1.15 s, a variance
# simulation with a pilot of 1.2e8 to 3e8 in the incomplete gamma's series
_SECONDS = 2.0


@given(command_line())
# reachable cases of the FOUND lines in CHANGES.md: the incomplete gamma's
# series cap at huge variance pilots, the slow tiny-alpha flag edge, the
# incomplete beta's fraction cap at a pooled-SD pilot of 1e7, and the
# noncentral t series' upward cap at a huge effect and at tiny alpha
@example(["simulate", "--scenario", "variance", "--effect", "1", "--sigma", "4",
          "--pilot-n", "1000000000", "--seed", "7", "--reps", "10000"])
@example(["simulate", "--scenario", "variance", "--effect", "1", "--sigma", "4",
          "--pilot-n", "300000000", "--seed", "7", "--reps", "10000"])
@example(["simulate", "--scenario", "variance", "--effect", "1000", "--sigma", "1",
          "--pilot-n", "20", "--design", "one", "--alpha", "1e-15", "--seed", "7",
          "--reps", "1000"])
@example(["simulate", "--scenario", "effect", "--effect", "0.447", "--sigma", "1",
          "--pilot-n", "10000000", "--seed", "0"])
@example(["plan-effect", "--mu0", "1e5", "--sigma", "1", "--design", "one", "--alpha", "1e-6",
          "--underpower-prob", ".2", "--underpower-threshold", ".6"])
@example(["simulate", "--scenario", "variance", "--effect", "1000", "--sigma", "1",
          "--pilot-n", "12", "--design", "one", "--alpha", "1e-9", "--power", ".5",
          "--underpower-threshold", ".3", "--seed", "7"])
@example(["tables", "--id", "1", "--reps", "1000000000", "--seed", "1"])
@settings(max_examples=150, deadline=None)
def test_every_command_exits_cleanly_and_quickly(argv):
    # each run answers (exit 0) with sizes that are integers up to 1e9 and
    # probabilities in [0, 1], or refuses with one error line, exit 2 for a
    # flag that breaks a rule and 1 for a computation that fails; never a
    # traceback, and within the bound
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--format", "json"])
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    assert time.perf_counter() - start < _SECONDS
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        for key, value in _leaves(json.loads(out.getvalue())["results"]):
            if key in _SIZES:
                assert type(value) is int and _SIZES[key] <= value <= 10 ** 9, (key, value)
            elif key in _PROBABILITIES:
                assert 0.0 <= value <= 1.0, (key, value)
            else:
                assert math.isfinite(value), (key, value)
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert sum("error: " in line for line in lines) == 1, lines
        assert code == 2 or lines == [lines[0]] and lines[0].startswith("error: ")
