"""Monte Carlo harness tests.

Loose numeric expectations here come from the chi-square / noncentral-t form
of each pipeline's flagging event (worked out independently of the harness);
the tight ones are frozen determinism checks.
"""

import math

import numpy as np
import pytest

from pilotplan.distributions import nct_cdf
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
from pilotplan.simulation import (
    ConfigError,
    KNOWN_SIGMA,
    SimulationConfig,
    _size_mains,
    reproduce_table,
    simulate_effect_pipeline,
    simulate_variance_pipeline,
)
from pilotplan.simulation import _rng, _standard_normals
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
        assert a.to_json() == b.to_json()

    def test_seed_changes_result(self):
        a = simulate_variance_pipeline(variance_cfg(replicates=500, seed=1))
        b = simulate_variance_pipeline(variance_cfg(replicates=500, seed=2))
        assert a.empirical_underpower != b.empirical_underpower

    def test_table_runs_identical(self):
        a = reproduce_table(1, replicates=60, seed=9)
        b = reproduce_table(1, replicates=60, seed=9)
        assert a.to_json() == b.to_json()

    def test_block_size_does_not_change_reports(self, monkeypatch):
        runs = [(simulate_variance_pipeline, variance_cfg(replicates=300, pooled_pilot=True)),
                (simulate_effect_pipeline, effect_cfg(replicates=300))]
        default = [sim(cfg).to_json() for sim, cfg in runs]
        monkeypatch.setattr(simulation, "_BLOCK_ELEMS", 1000)
        assert [sim(cfg).to_json() for sim, cfg in runs] == default


class TestSampler:
    def test_normal_moments(self):
        rng = _rng(123, 99)
        x = _standard_normals(rng, (1000, 1000)).ravel()
        n = x.size
        assert abs(x.mean()) < 4.0 / math.sqrt(n)
        assert abs(x.std(ddof=1) - 1.0) < 4.0 / math.sqrt(2 * n)

    def test_open_interval(self):
        rng = _rng(5, 1)
        u = rng.integers(1, 1 << 53, size=10000).astype(float) / float(1 << 53)
        assert u.min() > 0.0 and u.max() < 1.0


class TestSizingVector:
    def test_matches_scalar_sizing_exact_mode(self):
        # a dense grid over the whole table (sizes 2 to about 580), plus the
        # boundary effects themselves, where the size steps from n + 1 to n
        edges = [effect_for_n(n, TWO, 0.8, T_ITERATIVE) for n in (2, 3, 9, 64, 394, 590)]
        ds = np.concatenate([np.geomspace(0.165, 4.0, 150), edges])
        got = _size_mains(ds, TWO, 0.8, T_ITERATIVE)
        want = [main_sample_size(EffectSpec(float(d)), TWO, 0.8, T_ITERATIVE)
                for d in ds]
        assert got.tolist() == want

    def test_beyond_table_cap_uses_closed_form(self):
        # past the exact-boundary cap the closed form stands in; it is within
        # a few per mille of the exact requirement out there
        d = 0.08
        got = int(_size_mains(np.array([d]), TWO, 0.8, T_ITERATIVE)[0])
        want = main_sample_size(EffectSpec(d), TWO, 0.8, T_ITERATIVE)
        assert abs(got - want) / want < 0.005

    def test_matches_scalar_sizing_z_mode(self):
        ds = np.array([0.05, 0.3, 0.9, 2.0])
        got = _size_mains(ds, TWO, 0.8, Z_APPROX)
        want = [main_sample_size(EffectSpec(float(d)), TWO, 0.8, Z_APPROX)
                for d in ds]
        assert got.tolist() == want

    def test_zero_effect_sentinel(self):
        got = _size_mains(np.array([0.0, 0.5]), TWO, 0.8, T_ITERATIVE)
        assert got[0] > 10**15

    def test_table_is_one_small_array_per_design(self, monkeypatch):
        # every run reaches the 600 cap; 15 designs keep 15 arrays of at most
        # 599 floats, not a growing per-size map
        monkeypatch.setattr(simulation, "_boundary_cache", {})
        for i in range(15):
            simulate_variance_pipeline(
                variance_cfg(pilot_n=6, replicates=200, power_target=0.7 + 0.01 * i))
        tables = list(simulation._boundary_cache.values())
        assert len(tables) == 15
        assert {len(t) for t in tables} == {simulation._TABLE_N_CAP - 1}
        assert sum(t.nbytes for t in tables) <= 15 * 600 * 8


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
        rng = _rng(cfg.seed, 1)
        draws = _standard_normals(rng, (cfg.replicates, cfg.pilot_n)) * cfg.sigma
        s2 = draws.var(axis=1, ddof=1)
        d_hat = cfg.effect / np.sqrt(s2)
        main_n = _size_mains(d_hat, TWO, cfg.power_target, cfg.sizing_mode)
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

    def test_csv_layout(self):
        rep = reproduce_table(2, replicates=20, seed=3)
        lines = rep.to_csv().strip().splitlines()
        assert len(lines) == 16  # header + 15 cells
        header = lines[0].split(",")
        for col in ("seed", "replicates", "underpower_prob", "effect",
                    "pilot_n", "empirical_underpower"):
            assert col in header
        assert "." in lines[1]  # decimal separator

    def test_json_layout(self):
        import json
        rep = reproduce_table(2, replicates=20, seed=3)
        doc = json.loads(rep.to_json())
        assert set(doc) == {"config", "results"}
        assert doc["config"]["seed"] == 3

    def test_format_text_mirrors_grid(self):
        text = reproduce_table(1, replicates=20, seed=3).format_text()
        assert "s=2" in text and "10%" in text and "30%" in text

    def test_bad_table_id(self):
        with pytest.raises(ConfigError):
            reproduce_table(3, replicates=10, seed=0)
