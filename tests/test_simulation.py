"""Monte Carlo harness tests.

Loose numeric expectations here come from the chi-square / noncentral-t form
of each pipeline's flagging event (worked out independently of the harness);
the tight ones are frozen determinism checks.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from pilotplan.cli import emit
from pilotplan.distributions import chisq_quantile, nct_cdf, norm_quantile
from pilotplan.power import (
    EffectSpec,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    effect_for_n,
    main_sample_size,
    power_at,
)
from pilotplan.cli import main
from pilotplan.simulation import (
    ConfigError,
    KNOWN_SIGMA,
    SimulationConfig,
    _main_n_quantiles,
    reproduce_table,
    simulate_effect_pipeline,
    simulate_variance_pipeline,
)
from pilotplan.simulation import _rng, _uniforms
import pilotplan.simulation as simulation

TWO = TestDesign(TWO_SAMPLE, 0.05)


def variance_cfg(**kw):
    base = dict(scenario="variance", effect=1.0, sigma=4.0, pilot_n=12,
                seed=20260810, replicates=2000)
    base.update(kw)
    return SimulationConfig(**base)


def effect_cfg(**kw):
    base = dict(scenario="effect", effect=0.5, sigma=1.0, pilot_n=32,
                seed=20260810, replicates=2000)
    base.update(kw)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            variance_cfg(scenario="bootstrap").validate()

    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            variance_cfg(replicates=0).validate()

    def test_variance_needs_two(self):
        with pytest.raises(ConfigError):
            variance_cfg(pilot_n=1).validate()

    def test_effect_pooled_sd_needs_two(self):
        with pytest.raises(ConfigError):
            effect_cfg(pilot_n=1).validate()
        effect_cfg(pilot_n=1, estimator=KNOWN_SIGMA).validate()

    def test_other_scenario_options_rejected(self):
        # each scenario rejects the other's option unless it is the default,
        # which a config cannot tell from an explicit value
        with pytest.raises(ConfigError, match="pooled_pilot"):
            effect_cfg(pooled_pilot=True).validate()
        with pytest.raises(ConfigError, match="estimator"):
            variance_cfg(estimator=KNOWN_SIGMA).validate()
        effect_cfg(pooled_pilot=False).validate()
        variance_cfg(estimator="pooled-sd").validate()

    def test_threshold_must_be_below_target(self):
        with pytest.raises(ConfigError):
            variance_cfg(underpower_threshold=0.8).validate()

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_variance_pipeline(effect_cfg())

    def test_fails_before_sampling(self):
        # validation errors must not depend on the RNG being usable
        with pytest.raises(ConfigError):
            simulate_effect_pipeline(effect_cfg(sigma=-1.0))


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        a = simulate_variance_pipeline(variance_cfg(replicates=500))
        b = simulate_variance_pipeline(variance_cfg(replicates=500))
        assert a == b

    def test_seed_changes_result(self):
        a = simulate_variance_pipeline(variance_cfg(replicates=500, seed=1))
        b = simulate_variance_pipeline(variance_cfg(replicates=500, seed=2))
        assert a.empirical_underpower != b.empirical_underpower

    def test_table_runs_identical(self):
        a = reproduce_table(1, replicates=60, seed=9)
        b = reproduce_table(1, replicates=60, seed=9)
        assert a == b

    @pytest.mark.parametrize("sim,cfg", [
        (simulate_variance_pipeline, variance_cfg(pooled_pilot=True)),
        (simulate_variance_pipeline, variance_cfg(kind="one-sample")),
        (simulate_effect_pipeline, effect_cfg()),
        (simulate_effect_pipeline, effect_cfg(kind="one-sample", estimator=KNOWN_SIGMA)),
    ], ids=["variance-pooled", "variance-one-sample", "effect-pooled-sd", "effect-known-sigma"])
    def test_short_run_is_prefix_of_long_run(self, monkeypatch, sim, cfg):
        # replicate r reads row r of the uniform block, so the first m
        # replicates of a run are exactly an m-replicate run
        long_run, short_run = (_estimates(monkeypatch, sim, cfg, reps)[1] for reps in (300, 120))
        assert short_run.tolist() == long_run[:120].tolist()


def _estimates(monkeypatch, sim, cfg, replicates):
    """The report of a run and the effect-size estimates it was built from."""
    seen = []
    report = simulation._report

    def recording(config, d, nonpositive):
        seen.append(d.copy())
        return report(config, d, nonpositive)

    monkeypatch.setattr(simulation, "_report", recording)
    rep = sim(SimulationConfig(**{**asdict(cfg), "replicates": replicates}))
    monkeypatch.setattr(simulation, "_report", report)
    return rep, seen[0]


class TestSampler:
    def test_normal_moments(self):
        rng = _rng(123, 99)
        x = norm_quantile(_uniforms(rng, 1000, 1000)).ravel()
        n = x.size
        assert abs(x.mean()) < 4.0 / math.sqrt(n)
        assert abs(x.std(ddof=1) - 1.0) < 4.0 / math.sqrt(2 * n)

    def test_open_interval(self):
        rng = _rng(5, 1)
        u = _uniforms(rng, 10000, 2)
        assert u.min() > 0.0 and u.max() < 1.0


QS = (5, 25, 50, 75, 95)


class TestSizingVector:
    """Main-size quantiles come from sizing five order statistics of the
    estimates; each must equal the quantile of every estimate's own size."""

    def _brute_force(self, ds, mode):
        sizes = [main_sample_size(EffectSpec(float(d)), TWO, 0.8, mode) for d in ds]
        return {str(q): int(v) for q, v in
                zip(QS, np.percentile(sizes, QS, method="inverted_cdf"))}

    def test_matches_scalar_sizing_exact_mode(self):
        # a dense grid (sizes 2 to about 580), plus the boundary effects
        # themselves, where the size steps from n + 1 to n
        edges = [effect_for_n(n, TWO, 0.8, T_ITERATIVE) for n in (2, 3, 9, 64, 394, 590)]
        ds = np.concatenate([np.geomspace(0.165, 4.0, 150), edges])
        for sub in (ds, ds[::7], ds[-6:], ds[:1]):
            assert (_main_n_quantiles(sub, TWO, 0.8, T_ITERATIVE)
                    == self._brute_force(sub, T_ITERATIVE))

    def test_past_600_is_exact(self):
        # a weak estimate gets its exact size, which differs from the closed form
        q = _main_n_quantiles(np.array([0.08]), TWO, 0.8, T_ITERATIVE)
        n = main_sample_size(EffectSpec(0.08), TWO, 0.8, T_ITERATIVE)
        assert q == {str(k): n for k in QS}
        assert power_at(n, EffectSpec(0.08), TWO) >= 0.8 > power_at(n - 1, EffectSpec(0.08), TWO)
        assert n != main_sample_size(EffectSpec(0.08), TWO, 0.8, Z_APPROX)

    def test_matches_scalar_sizing_z_mode(self):
        ds = np.array([0.05, 0.3, 0.9, 2.0])
        assert _main_n_quantiles(ds, TWO, 0.8, Z_APPROX) == self._brute_force(ds, Z_APPROX)

    def test_zero_effect_sentinel(self):
        # a zero estimate has no size; it is left out, and with nothing left
        # every quantile is None
        n = main_sample_size(EffectSpec(0.5), TWO, 0.8)
        assert _main_n_quantiles(np.array([0.0, 0.5]), TWO, 0.8, T_ITERATIVE) == {
            str(k): n for k in QS}
        assert _main_n_quantiles(np.zeros(3), TWO, 0.8, T_ITERATIVE) == {
            str(k): None for k in QS}


class TestBruteForceOracle:
    """Size every replicate with main_sample_size and flag it by evaluating
    the true power at that size: the five quantiles and the flag count must
    be the reported ones, in both scenarios, designs and sizing modes."""

    CELLS = [
        (simulate_variance_pipeline, dict(scenario="variance", effect=1.0, sigma=4.0, pilot_n=12)),
        (simulate_effect_pipeline, dict(scenario="effect", effect=0.5, sigma=1.0, pilot_n=32)),
    ]

    @pytest.mark.parametrize("mode", [T_ITERATIVE, Z_APPROX])
    @pytest.mark.parametrize("kind", ["one-sample", TWO_SAMPLE])
    @pytest.mark.parametrize("cell", [0, 1], ids=["variance", "effect"])
    def test_every_replicate_sized(self, monkeypatch, cell, kind, mode):
        sim, base = self.CELLS[cell]
        cfg = SimulationConfig(**base, kind=kind, sizing_mode=mode, seed=11, replicates=300)
        rep, d = _estimates(monkeypatch, sim, cfg, cfg.replicates)
        design, truth = cfg.design(), EffectSpec(cfg.effect, cfg.sigma)
        d = d[d > 0.0]
        sizes = [main_sample_size(EffectSpec(float(x)), design, cfg.power_target, mode)
                 for x in d]
        flags = [power_at(n, truth, design) < cfg.underpower_threshold for n in sizes]
        want = {str(q): int(v) for q, v in
                zip(QS, np.percentile(sizes, QS, method="inverted_cdf"))}
        assert rep.main_n_quantiles == want
        assert rep.empirical_underpower == sum(flags) / cfg.replicates
        assert 0 < sum(flags) < cfg.replicates
        if cell == 1 and kind == TWO_SAMPLE:
            assert want["95"] > 600          # large sizes are exact too

    def test_order_statistic_past_1e9_raises(self, capsys):
        # the true effect needs 3.1e8 per group at the threshold, but the
        # largest variance estimates of a 2-subject pilot ask for over 1e9
        cfg = variance_cfg(effect=1.8e-4, sigma=1.0, pilot_n=2, replicates=200)
        with pytest.raises(ValueError, match="exceeds 1e9"):
            simulate_variance_pipeline(cfg)
        assert main_sample_size(EffectSpec(1.8e-4), TWO, cfg.underpower_threshold) < 1e9
        code = main(["simulate", "--scenario", "variance", "--effect", "1.8e-4",
                     "--pilot-n", "2", "--reps", "200", "--seed", "1"])
        assert code == 1
        assert "exceeds 1e9" in capsys.readouterr().err


class TestVariancePipeline:
    def test_reference_cell(self):
        # canonical cell: sigma 4, delta 1, pilot 12; flagging event is
        # chi2_11 below 11 * B / 16 with B = 1/d(157)^2 -> about 0.189
        rep = simulate_variance_pipeline(variance_cfg(replicates=10000))
        assert rep.empirical_underpower == pytest.approx(0.18, abs=0.04)

    def test_small_pilot_cell(self):
        rep = simulate_variance_pipeline(
            variance_cfg(effect=1.0, sigma=2.0, pilot_n=5, replicates=10000))
        assert rep.empirical_underpower == pytest.approx(0.34, abs=0.05)

    def test_huge_pilot_never_underpowers(self):
        rep = simulate_variance_pipeline(
            variance_cfg(pilot_n=100_000, replicates=40))
        assert rep.empirical_underpower == 0.0

    def test_quantiles_bracket_truth(self):
        rep = simulate_variance_pipeline(variance_cfg(replicates=4000))
        q = rep.main_n_quantiles
        order = [q[k] for k in ("5", "25", "50", "75", "95")]
        assert order == sorted(order)
        # the target-power size from the true sd sits inside the spread
        n_true = main_sample_size(EffectSpec(1, 4), TWO, 0.8)
        assert q["5"] <= n_true <= q["95"]

    def test_flags_match_power_evaluation(self):
        # the boundary comparison must agree with literally evaluating the
        # power at each replicate's main size
        cfg = variance_cfg(replicates=400)
        rep = simulate_variance_pipeline(cfg)
        df = cfg.pilot_n - 1
        u = _uniforms(_rng(cfg.seed, 1), cfg.replicates, 1)[:, 0]
        s2 = cfg.sigma ** 2 * chisq_quantile(u, df) / df
        d_hat = cfg.effect / np.sqrt(s2)
        main_n = [main_sample_size(EffectSpec(float(d)), TWO, cfg.power_target, cfg.sizing_mode)
                  for d in d_hat]
        flags = [power_at(int(n), EffectSpec(cfg.effect, cfg.sigma), TWO)
                 < cfg.underpower_threshold for n in main_n]
        assert np.mean(flags) == pytest.approx(rep.empirical_underpower, abs=1e-12)

    def test_mc_standard_error(self):
        rep = simulate_variance_pipeline(variance_cfg(replicates=2000))
        p = rep.empirical_underpower
        assert rep.mc_standard_error == pytest.approx(math.sqrt(p * (1 - p) / 2000))

    def test_pooled_pilot_runs_lower(self):
        # at the same nominal per-group size, the pooled pilot has twice the
        # df and so misses the sd threshold less often
        single = simulate_variance_pipeline(variance_cfg(replicates=4000))
        pooled = simulate_variance_pipeline(
            variance_cfg(replicates=4000, pooled_pilot=True))
        assert pooled.empirical_underpower < single.empirical_underpower


class TestEffectPipeline:
    def test_reference_cell(self):
        rep = simulate_effect_pipeline(effect_cfg(replicates=10000))
        assert rep.empirical_underpower == pytest.approx(0.308, abs=0.045)

    def test_tiny_pilot_cell(self):
        rep = simulate_effect_pipeline(
            effect_cfg(effect=0.8, pilot_n=3, underpower_threshold=0.6,
                       replicates=10000))
        assert rep.empirical_underpower == pytest.approx(0.487, abs=0.05)

    def test_nonpositive_tally(self):
        # share of nonpositive estimates matches the noncentral-t mass at 0
        cfg = effect_cfg(effect=0.8, pilot_n=3, replicates=10000)
        rep = simulate_effect_pipeline(cfg)
        expected = nct_cdf(0.0, 2 * 3 - 2, 0.8 * math.sqrt(3 / 2))
        assert rep.nonpositive_effects / cfg.replicates == pytest.approx(expected, abs=0.03)
        assert rep.nonpositive_effects > 0

    def test_known_sigma_matches_normal_model(self):
        # with sigma known the estimate is exactly normal, so the empirical
        # flag rate must sit on the planning formula evaluated at the
        # pipeline's own boundary effect
        from pilotplan.effect import effect_underpower_prob
        mu_true = 0.6328945880479114
        n_crit = main_sample_size(EffectSpec(mu_true), TWO, 0.6)
        boundary = effect_for_n(n_crit - 1, TWO, 0.8, T_ITERATIVE)
        expected = effect_underpower_prob(32, mu_true, boundary, 1.0, TWO)
        rep = simulate_effect_pipeline(effect_cfg(
            effect=mu_true, pilot_n=32, estimator=KNOWN_SIGMA, replicates=10000))
        assert rep.empirical_underpower == pytest.approx(expected, abs=0.015)

    def test_one_sample_runs(self):
        rep = simulate_effect_pipeline(effect_cfg(kind="one-sample", replicates=500))
        assert 0.0 <= rep.empirical_underpower <= 1.0


def _raw_draw_d_hat(cfg: SimulationConfig) -> np.ndarray:
    """Effect-size estimates from whole pilots of n (or 2n) normal draws.

    The reference the sufficient-statistic sampler replaced: every pilot
    observation goes through the package's inverse normal CDF, and the
    estimate is formed from the sample means and variances.  It reads its
    own substream, so its runs are independent of the package's.
    """
    rng = _rng(cfg.seed, 99)
    n, sigma = cfg.pilot_n, cfg.sigma
    if cfg.scenario == "variance":
        groups = 2 if cfg.pooled_pilot else 1
    else:
        groups = cfg.design().groups
    out = []
    for start in range(0, cfg.replicates, 5000):
        m = min(5000, cfg.replicates - start)
        x = norm_quantile(_uniforms(rng, m, groups * n)).reshape(m, groups, n) * sigma
        sd = np.sqrt(x.var(axis=2, ddof=1).mean(axis=1))
        if cfg.scenario == "variance":
            out.append(cfg.effect / sd)
            continue
        x[:, -1, :] += cfg.effect
        mean = x[:, -1, :].mean(axis=1) - (x[:, 0, :].mean(axis=1) if groups == 2 else 0.0)
        out.append(mean / (sd if cfg.estimator != KNOWN_SIGMA else sigma))
    return np.concatenate(out)


class TestRawDrawOracle:
    @pytest.mark.parametrize("sim,cfg", [
        (simulate_variance_pipeline, variance_cfg()),
        (simulate_variance_pipeline, variance_cfg(pooled_pilot=True)),
        (simulate_effect_pipeline, effect_cfg(pilot_n=12)),
        (simulate_effect_pipeline, effect_cfg(kind="one-sample", pilot_n=17,
                                              estimator=KNOWN_SIGMA)),
    ], ids=["variance", "variance-pooled", "effect-pooled-sd", "effect-one-sample-known-sigma"])
    def test_sufficient_statistics_match_raw_pilots(self, sim, cfg):
        # 100,000 replicates each way: the underpower rates agree within 4
        # combined Monte Carlo standard errors
        cfg = SimulationConfig(**{**asdict(cfg), "replicates": 100_000})
        rep = sim(cfg)
        design = cfg.design()
        n_crit = main_sample_size(EffectSpec(cfg.effect, cfg.sigma), design,
                                  cfg.underpower_threshold)
        boundary = effect_for_n(n_crit - 1, design, cfg.power_target, T_ITERATIVE)
        raw = float(np.mean(np.abs(_raw_draw_d_hat(cfg)) >= boundary))
        se = math.sqrt(rep.mc_standard_error ** 2 + raw * (1 - raw) / cfg.replicates)
        assert abs(rep.empirical_underpower - raw) <= 4 * se
        assert 0.05 < raw < 0.6     # a cell where the rate says something


class TestTableReports:
    def test_variability_grid_layout(self):
        rep = reproduce_table(1, replicates=50, seed=3)
        assert len(rep.cells) == 60
        sizes = {c["pilot_n"] for c in rep.cells}
        assert sizes == {5, 12, 25}
        probs = {c["underpower_prob"] for c in rep.cells}
        assert probs == {0.1, 0.2, 0.3}

    def test_effect_grid_layout(self):
        rep = reproduce_table(2, replicates=50, seed=3)
        assert len(rep.cells) == 15
        assert rep.extra["main_study_n"] == {"0.2": 394, "0.5": 64, "0.8": 26}
        by_cell = {(c["underpower_prob"], c["effect"]): c["pilot_n"] for c in rep.cells}
        assert by_cell[(0.3, 0.5)] == 32
        assert by_cell[(0.4, 0.8)] == 3

    def test_csv_layout(self, capsys):
        emit(reproduce_table(2, replicates=20, seed=3), "csv")
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16  # header + 15 cells
        header = lines[0].split(",")
        for col in ("seed", "replicates", "underpower_prob", "effect",
                    "pilot_n", "empirical_underpower"):
            assert col in header
        assert "." in lines[1]  # decimal separator

    def test_json_layout(self, capsys):
        import json
        emit(reproduce_table(2, replicates=20, seed=3), "json")
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"config", "results"}
        assert doc["config"]["seed"] == 3

    def test_format_text_mirrors_grid(self):
        text = reproduce_table(1, replicates=20, seed=3).format_text()
        assert "s=2" in text and "10%" in text and "30%" in text

    def test_bad_table_id(self):
        with pytest.raises(ConfigError):
            reproduce_table(3, replicates=10, seed=0)
