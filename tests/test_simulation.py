"""Monte Carlo harness tests.

Loose numeric expectations here come from the chi-square / noncentral-t form
of each pipeline's flagging event (worked out independently of the harness);
the tight ones are frozen determinism checks.
"""

import contextlib
import functools
import math
import random
import re
import statistics
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pilotplan.cli import emit
from pilotplan.distributions import ConvergenceError, nct_cdf, norm_cdf
from pilotplan.power import (
    EffectSpec,
    ONE_SAMPLE,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    _Sizer,
    effect_for_n,
    main_sample_size,
    power_at,
)
from pilotplan.cli import main
from pilotplan.simulation import (
    ConfigError,
    KNOWN_SIGMA,
    SimulationConfig,
    SimulationReport,
    _main_n_quantiles,
    simulate_effect_pipeline,
    simulate_variance_pipeline,
)
from pilotplan.simulation import _OrderStats, _binomial
from pilotplan.tables import reproduce_table
import pilotplan.power as power_module
import pilotplan.simulation as simulation

scipy_stats = pytest.importorskip("scipy.stats")

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
            variance_cfg(scenario="bootstrap")

    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            variance_cfg(replicates=0)

    def test_variance_needs_two(self):
        with pytest.raises(ConfigError):
            variance_cfg(pilot_n=1)

    def test_effect_pooled_sd_needs_two(self):
        with pytest.raises(ConfigError):
            effect_cfg(pilot_n=1)
        effect_cfg(pilot_n=1, estimator=KNOWN_SIGMA)

    def test_other_scenario_options_rejected(self):
        # each scenario rejects the other's option unless it is the default,
        # which a config cannot tell from an explicit value
        with pytest.raises(ConfigError, match="pooled_pilot"):
            effect_cfg(pooled_pilot=True)
        with pytest.raises(ConfigError, match="estimator"):
            variance_cfg(estimator=KNOWN_SIGMA)
        effect_cfg(pooled_pilot=False)
        variance_cfg(estimator="pooled-sd")

    def test_alpha_without_critical_value_rejected(self):
        # the design's own bound, reported before any sampling
        with pytest.raises(ConfigError, match="alpha must be in .* got 1e-300"):
            effect_cfg(alpha=1e-300)

    def test_threshold_must_be_below_target(self):
        with pytest.raises(ConfigError):
            variance_cfg(underpower_threshold=0.8)

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            simulate_variance_pipeline(effect_cfg())
        with pytest.raises(ConfigError, match="expected an 'effect' scenario, got 'variance'"):
            simulate_effect_pipeline(variance_cfg())

    @pytest.mark.parametrize("build,kw", [
        (effect_cfg, dict(sigma=-1.0)),
        # counts and seeds that are not integers would run as other integers
        # than the ones echoed, and random.seed takes -3 as 3
        (variance_cfg, dict(replicates=2.5)),
        (variance_cfg, dict(pilot_n=12.7)),
        (effect_cfg, dict(pilot_n=12.7)),
        (effect_cfg, dict(replicates=2.5, estimator=KNOWN_SIGMA)),
        (variance_cfg, dict(seed=1.5)),
        (variance_cfg, dict(seed=True)),
        (variance_cfg, dict(seed=-3)),
        (effect_cfg, dict(seed=-3)),
        (effect_cfg, dict(seed=1.5, estimator=KNOWN_SIGMA)),
    ])
    def test_fails_before_sampling(self, monkeypatch, build, kw):
        # validation errors must not depend on the RNG being usable
        def no_draws(*args):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(simulation, "_OrderStats", no_draws)
        with pytest.raises(ConfigError):
            build(**kw)

    def test_table_seed_must_be_a_count(self):
        for seed in (-3, 1.5, True):
            with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
                reproduce_table(1, 10, seed=seed)


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


class TestCompletedSample:
    """A run that draws order statistics on demand reads only a few of them.
    Reading every item after the report is built completes its sample, and
    sizing and flagging every replicate of that sample by brute force must
    give the same report, exactly."""

    @pytest.mark.parametrize("sim,cfg", [
        (simulate_variance_pipeline, variance_cfg(pooled_pilot=True, replicates=300)),
        (simulate_variance_pipeline, variance_cfg(kind="one-sample", replicates=300)),
        (simulate_effect_pipeline, effect_cfg(kind="one-sample", pilot_n=4,
                                              estimator=KNOWN_SIGMA, replicates=300)),
        (simulate_effect_pipeline, effect_cfg(effect=0.2, pilot_n=3, sizing_mode=Z_APPROX,
                                              estimator=KNOWN_SIGMA, replicates=300)),
        (simulate_effect_pipeline, effect_cfg(replicates=300)),
        (simulate_effect_pipeline, effect_cfg(kind="one-sample", pilot_n=2, replicates=300)),
        (simulate_effect_pipeline, effect_cfg(effect=0.2, pilot_n=3, sizing_mode=Z_APPROX,
                                              replicates=300)),
    ], ids=["variance-pooled", "variance-one-sample", "effect-known-sigma",
            "effect-known-sigma-z", "effect-pooled-sd", "effect-pooled-sd-df1",
            "effect-pooled-sd-z"])
    def test_report_is_brute_force(self, sim, cfg):
        # an effect run's nonpositive count is drawn from the skeleton, not
        # from the completed magnitudes, so it is taken from the report; its
        # law is checked by TestEffectLaw.  With the flag bracket widened by
        # 1.5 on either side, many replicates fall inside it and are tested
        # by the bisection, each sized by ``main_sample_size``, and the
        # report is still the completed sample's
        edge = _Sizer.edge
        for widen in (1.0, 1.5):
            def widened(sizer, *args):
                x_lo, x_hi = edge(sizer, *args)
                return x_lo / widen, x_hi * widen

            with mock.patch.object(_Sizer, "edge", widened):
                rep, d = _completed(sim, cfg)
            assert rep == _brute_force_report(cfg, d, rep.nonpositive_effects)
            assert 0 < rep.empirical_underpower < 1
            if cfg.scenario == "effect":
                assert 0 < rep.nonpositive_effects < cfg.replicates


    def test_oracle_takes_a_size_past_1e9_as_never_flagged(self):
        # the smallest estimate of this sample needs a main study past 1e9
        # per group; the oracle counts it as one with a smaller estimate whose
        # size is in range, since neither is flagged nor read as a percentile
        cfg = effect_cfg(effect=0.2, pilot_n=3, sizing_mode=Z_APPROX, replicates=300)
        rest = [0.002 * k for k in range(1, 300)]
        with pytest.raises(ValueError, match="exceeds 1e9"):
            main_sample_size(EffectSpec(1e-5), cfg.design(), cfg.power_target, Z_APPROX)
        rep = _brute_force_report(cfg, [1e-5] + rest, 0)
        assert rep == _brute_force_report(cfg, [1e-3] + rest, 0)
        assert 0 < rep.empirical_underpower < 1


def _completed(sim, cfg):
    """The report of a run and its completed sample: every replicate's
    estimate (an effect run's magnitude) in ascending order.  The items are
    read from the run's own container after ``_report`` returns, so the
    report's reads draw as in any other run."""
    seen = []
    report = simulation._report

    def recording(config, d, *rest):
        rep = report(config, d, *rest)
        seen.append(d)
        return rep

    with mock.patch.object(simulation, "_report", recording):
        rep = sim(cfg)
    d, = seen
    d = [float(x) for x in d]
    assert len(d) == cfg.replicates and d == sorted(d) and d[0] > 0.0
    return rep, d


def _brute_force_report(cfg: SimulationConfig, d: list, nonpositive: int) -> SimulationReport:
    """The report of a completed sample ``d``: every estimate sized by
    ``main_sample_size`` and flagged by the true power at that size, and the
    ``inverted_cdf`` percentiles of the sizes.  An estimate so small that
    its size passes 1e9, which ``main_sample_size`` rejects, is sized as
    infinite and never flagged, as the run's cuts count it."""
    design, truth = cfg.design(), EffectSpec(cfg.effect, cfg.sigma)

    def size(x):
        try:
            return main_sample_size(EffectSpec(x), design, cfg.power_target, cfg.sizing_mode)
        except ValueError as e:
            if str(e) != power_module._TOO_LARGE:
                raise
            return math.inf

    sizes = [size(x) for x in d]
    power = functools.lru_cache(maxsize=None)(lambda n: power_at(n, truth, design))
    p_hat = sum(n < math.inf and power(n) < cfg.underpower_threshold
                for n in sizes) / cfg.replicates
    picks = np.percentile(sizes, QS, method="inverted_cdf")
    return SimulationReport(
        empirical_underpower=p_hat,
        mc_standard_error=math.sqrt(p_hat * (1.0 - p_hat) / cfg.replicates),
        nonpositive_effects=nonpositive,
        main_n_quantiles={str(q): int(n) for q, n in zip(QS, picks)},
        config=dict(vars(cfg)))


def _same(v):
    return v


class TestSampler:
    def test_open_interval(self):
        # item k is the k-th largest uniform, each in (0, 1), even where the
        # Beta draw is exactly 0 or 1 (ties with a neighbour are allowed);
        # reads outside [0, R) raise IndexError, so list() stops at R
        u = _OrderStats(3000, 5, _same, _same)
        xs = list(u)
        assert len(xs) == 3000 and xs == sorted(xs, reverse=True)
        assert 0.0 < xs[-1] and xs[0] < 1.0
        for k in (-1, 3000):
            with pytest.raises(IndexError):
                u[k]
        for beta in (0.0, 1.0):
            u = _OrderStats(5, 1, _same, _same)
            u.rng.betavariate = lambda a, b: beta
            xs = [u[k] for k in (2, 0, 4, 1, 3)]
            assert all(0.0 < x < 1.0 for x in xs)
            xs = list(u)
            assert all(0.0 < x < 1.0 for x in xs) and xs == sorted(xs, reverse=True)
        # a cut at 0.25 counts the uniforms at or below it, and the completed
        # sample has exactly that many there
        u = _OrderStats(3000, 5, _same, _same)
        c = u.cut(0.25)
        xs = list(u)
        assert 600 < c < 900 and sum(x <= 0.25 for x in xs) == c
        # cuts at 0 and at 1, each twice, count none and all
        u = _OrderStats(5, 1, _same, _same)
        assert [u.cut(v) for v in (0.0, 0.0, 1.0, 1.0)] == [0, 0, 5, 5]
        assert all(0.0 < x < 1.0 for x in u)

    @pytest.mark.parametrize("order", [range(9), (4, 0, 8, 2, 6, 1, 7, 3, 5),
                                       (4, 0.3, 0, 8, 0.45, 2, 6, 1, 7, 3, 5)],
                             ids=["top-down", "halving", "cuts"])
    def test_ranks_are_beta_distributed(self, order):
        # over 4,000 fixed seeds, the uniform at rank i of R = 9 has the mean
        # and variance of Beta(i, R + 1 - i) within 4 standard errors, in
        # any order of reads; a float in the order is a cut there, which
        # counts the uniforms at or below it, and every rank is then drawn on
        # its side of the cut
        reps, seeds = 9, 4000
        draws = np.empty((seeds, reps))
        for seed in range(seeds):
            u = _OrderStats(reps, seed, _same, _same)
            cuts = {}
            for k in order:
                if isinstance(k, float):
                    cuts[k] = u.cut(k)
                else:
                    draws[seed, reps - 1 - k] = u[k]       # column i - 1 holds rank i
            for v, c in cuts.items():
                assert (draws[seed, :c] <= v).all() and (draws[seed, c:] > v).all()
        assert (np.diff(draws, axis=1) >= 0.0).all()
        for i in range(1, reps + 1):
            x = draws[:, i - 1]
            mean = i / (reps + 1)
            var = i * (reps + 1 - i) / ((reps + 1) ** 2 * (reps + 2))
            assert abs(x.mean() - mean) <= 4 * math.sqrt(var / seeds)
            m4 = np.mean((x - x.mean()) ** 4)
            assert abs(x.var(ddof=1) - var) <= 4 * math.sqrt((m4 - var ** 2) / seeds)


QS = (5, 25, 50, 75, 95)


def _ascending(d) -> list:
    """The positive estimates in ascending order, as the pipelines hand them
    to ``_report``."""
    d = np.asarray(d, dtype=float)
    return np.sort(d[d > 0.0]).tolist()


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
            assert (_main_n_quantiles(_ascending(sub), _Sizer(TWO), 0.8, T_ITERATIVE)
                    == self._brute_force(sub, T_ITERATIVE))

    def test_past_600_is_exact(self):
        # a weak estimate gets its exact size, which differs from the closed form
        q = _main_n_quantiles([0.08], _Sizer(TWO), 0.8, T_ITERATIVE)
        n = main_sample_size(EffectSpec(0.08), TWO, 0.8, T_ITERATIVE)
        assert q == {str(k): n for k in QS}
        assert power_at(n, EffectSpec(0.08), TWO) >= 0.8 > power_at(n - 1, EffectSpec(0.08), TWO)
        assert n != main_sample_size(EffectSpec(0.08), TWO, 0.8, Z_APPROX)

    def test_matches_scalar_sizing_z_mode(self):
        ds = np.array([0.05, 0.3, 0.9, 2.0])
        assert (_main_n_quantiles(_ascending(ds), _Sizer(TWO), 0.8, Z_APPROX)
                == self._brute_force(ds, Z_APPROX))

    def test_power_at_most_alpha_half_sizes_the_floor(self):
        # at a target at or below alpha / 2 every size reaches it, so every
        # estimate gets the floor in both modes (z-approx squared a negative
        # z sum, and its 95th percentile read 10)
        for mode in (Z_APPROX, T_ITERATIVE):
            report = simulate_effect_pipeline(effect_cfg(
                pilot_n=10, seed=7, replicates=1000, power_target=0.02,
                underpower_threshold=0.01, sizing_mode=mode))
            assert report.main_n_quantiles == {str(q): 2 for q in QS}, mode


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
    def test_every_replicate_sized(self, cell, kind, mode):
        sim, base = self.CELLS[cell]
        cfg = SimulationConfig(**base, kind=kind, sizing_mode=mode, seed=11, replicates=300)
        rep, e = _completed(sim, cfg)
        design, truth = cfg.design(), EffectSpec(cfg.effect, cfg.sigma)
        # every replicate's estimate, nonzero, by magnitude
        d = sorted(abs(x) for x in e)
        assert len(d) == cfg.replicates and d[0] > 0.0
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


def _flag_bracket(design: TestDesign, m: int, target: float, mode: str):
    """The flag bracket at m = n_crit - 1 subjects and the flag test, as
    ``_underpower_count`` reads them from its sizer: (x_lo, x_hi, flagged)."""
    sizer = _Sizer(design)
    return (*sizer.edge(m, target, mode),
            lambda x: sizer.size(x, target, mode) <= m)


class TestFlagBoundary:
    """The flag boundary at m = n_crit - 1 subjects and the public
    ``effect_for_n(m)`` solve one root with one solver: the t-iterative
    bracket holds the public root, and each mode's bracket straddles the
    step of its own sizing rule from above m to m."""

    @given(kind=st.sampled_from([ONE_SAMPLE, TWO_SAMPLE]),
           alpha=st.floats(-15.0, math.log10(0.2)).map(lambda e: 10.0 ** e),
           target=st.floats(0.3, 0.99),
           m=st.one_of(st.integers(2, 100), st.integers(2, 10 ** 6)))
    @settings(max_examples=150, deadline=None)
    def test_both_callers_solve_the_same_root(self, kind, alpha, target, m):
        design = TestDesign(kind, alpha)
        # past 1e6, or where the root's noncentrality takes the noncentral-t
        # series past its cap (tiny alpha, few subjects), both raise alike
        try:
            x = effect_for_n(m, design, target, T_ITERATIVE)
        except (ValueError, ConvergenceError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _flag_bracket(design, m, target, T_ITERATIVE)
        else:
            x_lo, x_hi, flagged = _flag_bracket(design, m, target, T_ITERATIVE)
            assert x_lo < x <= x_hi
            assert (power_at(m, EffectSpec(x_lo), design) < target
                    <= power_at(m, EffectSpec(x_hi), design))
            assert not flagged(x_lo) and flagged(x_hi)
        x_lo, x_hi, flagged = _flag_bracket(design, m, target, Z_APPROX)
        assert (main_sample_size(EffectSpec(x_lo), design, target, Z_APPROX) > m
                >= main_sample_size(EffectSpec(x_hi), design, target, Z_APPROX))
        assert not flagged(x_lo) and flagged(x_hi)


class TestEstimatesOnDemand:
    """A variance run computes its estimates only at the ranks it reads, each
    through the float chi-square quantile; its report must be the one its
    completed sample gives by brute force."""

    @given(reps=st.integers(1, 60), pilot_n=st.integers(2, 40),
           pooled=st.booleans(), kind=st.sampled_from([ONE_SAMPLE, TWO_SAMPLE]),
           mode=st.sampled_from([T_ITERATIVE, Z_APPROX]),
           effect=st.floats(0.5, 4.0), sigma=st.floats(1.0, 6.0),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_report_matches_completed_sample(self, reps, pilot_n, pooled, kind, mode,
                                             effect, sigma, seed):
        cfg = variance_cfg(replicates=reps, pilot_n=pilot_n, pooled_pilot=pooled, kind=kind,
                           sizing_mode=mode, effect=effect, sigma=sigma, seed=seed)
        rep, d = _completed(simulate_variance_pipeline, cfg)
        assert rep == _brute_force_report(cfg, d, 0)

    @given(st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.25, 0.5, 1.0])),
                    min_size=1, max_size=500))
    @settings(max_examples=200, deadline=None)
    def test_rank_picks_are_inverted_cdf_percentiles(self, xs):
        # with a sizer stubbed to echo its estimate, the five picks from the
        # ascending estimates are numpy's inverted_cdf percentiles, from the
        # top (a size never rises with the estimate)
        xs = sorted(xs)
        echo = mock.Mock(spec=_Sizer, size=lambda e, *_: e)
        got = _main_n_quantiles(xs, echo, 0.8, T_ITERATIVE)
        want = -np.percentile(-np.array(xs), QS, method="inverted_cdf")
        assert [got[str(q)] for q in QS] == want.tolist()

    def test_quantile_dicts_share_one_key_table(self):
        # what a report keeps of its quantiles is a plain dict, in percentile
        # order, that shares one key table with every other: 2,000 of them
        # take about 127 B each (list slot included, Python 3.11), where
        # dicts with tables of their own take about 192 B
        import tracemalloc
        echo = mock.Mock(spec=_Sizer, size=lambda e, *_: e)
        xs = [float(x) for x in range(100)]
        tracemalloc.start()
        try:
            kept = [_main_n_quantiles(xs, echo, 0.8, T_ITERATIVE) for _ in range(2000)]
            size = tracemalloc.get_traced_memory()[0] / len(kept)
        finally:
            tracemalloc.stop()
        assert type(kept[0]) is dict and list(kept[0]) == [str(q) for q in QS]
        assert size < 160, size

    @pytest.mark.parametrize("reps", [10_000, 100_000, 10 ** 9])
    def test_chisq_quantile_calls_are_five_and_the_bracket(self, monkeypatch, reps):
        # the flags are two cuts, so the chi-square is inverted at the five
        # sizings and once per replicate inside the flag bracket (none here)
        args, seen = [], []
        quantile, report = simulation.chisq_quantile, simulation._report
        monkeypatch.setattr(simulation, "chisq_quantile",
                            lambda p, df: args.append(p) or quantile(p, df))
        monkeypatch.setattr(simulation, "_report",
                            lambda c, d, *rest: seen.append(d) or report(c, d, *rest))
        rep = simulate_variance_pipeline(variance_cfg(replicates=reps))
        d, = seen
        cuts, inside, items = _known_ranks(d)
        assert all(type(p) is float for p in args)
        assert len(inside) == cuts[1] - cuts[0] and len(args) == 5 + len(inside)
        assert items == {reps - k for k in simulation._quantile_items(reps).values()}
        assert 0.1 < rep.empirical_underpower < 0.3

    @pytest.mark.parametrize("estimator,kind,pilot_n", [
        (KNOWN_SIGMA, "one-sample", 17), ("pooled-sd", "one-sample", 17),
        ("pooled-sd", TWO_SAMPLE, 32)], ids=["known-sigma", "pooled-sd", "pooled-sd-two-sample"])
    def test_effect_reads_are_items_and_the_bracket(self, monkeypatch, estimator, kind, pilot_n):
        # a billion replicates: the known ranks are the five quantile items,
        # the two flag cuts and the replicates inside the bracket that the
        # bisection reads, at most ceil(log2(b + 1)) of the b there (b is 0
        # in the one-sample cells and 15 in the two-sample one, which reads
        # 4), and |T| is inverted at the items and those reads alone; the
        # signs draw Binomials instead
        inverted, seen = [], []
        isf, report = simulation._nct_abs_isf, simulation._report
        monkeypatch.setattr(simulation, "_nct_abs_isf", lambda *a: inverted.append(a) or isf(*a))
        monkeypatch.setattr(simulation, "_report",
                            lambda c, d, *rest: seen.append(d) or report(c, d, *rest))
        reps = 10 ** 9
        cfg = effect_cfg(kind=kind, pilot_n=pilot_n, estimator=estimator, replicates=reps)
        rep = simulate_effect_pipeline(cfg)
        d, = seen
        cuts, inside, items = _known_ranks(d)
        assert items == {reps - k for k in simulation._quantile_items(reps).values()}
        assert len(inside) <= math.ceil(math.log2(cuts[1] - cuts[0] + 1))
        assert len(inverted) == 5 + len(inside)
        assert 0.2 < rep.empirical_underpower < 0.35
        # the nonpositive count is Binomial(R, P(T < 0)), P(T < 0) = Phi(-mu sqrt(n / g))
        p = norm_cdf(-0.5 * math.sqrt(pilot_n / cfg.design().groups))
        assert abs(rep.nonpositive_effects - reps * p) <= 5 * math.sqrt(reps * p * (1 - p))

    def test_flag_power_calls_on_the_variance_grid(self, monkeypatch):
        # the 60 variance cells at 10k replicates: the flag boundary is solved
        # once per cell, and counting the flags calls power only at replicates
        # inside its bracket (none at these seeds), 7.45 power evaluations a
        # cell on average and at most 9 at seeds 0, 9 and 121 (13.4 and 14
        # when every probe of a rank bisection called power); counted, not
        # timed, from the start of the sizer's edge to the end of the count
        calls = []
        abs_sf, edge, count = power_module._nct_abs_sf, _Sizer.edge, simulation._underpower_count

        def counted_sf(*args):
            calls[-1] += 1
            return abs_sf(*args)

        def counted_edge(*args):
            calls.append(0)
            monkeypatch.setattr(power_module, "_nct_abs_sf", counted_sf)
            return edge(*args)

        def counted_count(*args):
            try:
                return count(*args)
            finally:
                monkeypatch.setattr(power_module, "_nct_abs_sf", abs_sf)

        monkeypatch.setattr(_Sizer, "edge", counted_edge)
        monkeypatch.setattr(simulation, "_underpower_count", counted_count)
        reproduce_table(1, replicates=10_000, seed=9)
        assert len(calls) == 60
        assert 0 < max(calls) <= 10 and sum(calls) <= 8 * 60

    @pytest.mark.parametrize("table_id", [1, 2])
    def test_one_sizer_per_table(self, monkeypatch, table_id):
        # a table's plans, runs and main-study row all size through the one
        # sizer it makes, where each plan and each run once made its own (120
        # sizers for table 1, 31 for table 2)
        made, init = [], _Sizer.__init__
        monkeypatch.setattr(_Sizer, "__init__",
                            lambda self, design: made.append(design) or init(self, design))
        reproduce_table(table_id, replicates=50, seed=9)
        assert made == [TestDesign(TWO_SAMPLE, 0.05)]


def _known_ranks(d):
    """The ranks a run's ``d`` knows besides its sentinels: the two flag
    cuts, the ranks read between them and the set of the other ranks read."""
    ranks = [rank for rank, _, _ in d.points[1:-1]]
    cuts = [rank for rank in ranks if rank % 1]
    assert len(cuts) == 2
    inside = [rank for rank in ranks if cuts[0] < rank < cuts[1] and not rank % 1]
    return cuts, inside, {rank for rank in ranks if not rank % 1} - set(inside)


def _moments(xs):
    """Mean, variance and each one's standard error over independent runs."""
    n, mean = len(xs), statistics.fmean(xs)
    sq = [(x - mean) ** 2 for x in xs]
    var = statistics.fmean(sq) * n / (n - 1)
    return mean, math.sqrt(var / n), var, statistics.stdev(sq) / math.sqrt(n)


def _covariance(xs, ys):
    """The sample covariance over independent runs and its standard error."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    prods = [(x - mx) * (y - my) for x, y in zip(xs, ys)]
    return statistics.fmean(prods), statistics.stdev(prods) / math.sqrt(len(prods))


@contextlib.contextmanager
def _cached_sizing(design: TestDesign):
    """Patches under which every run of one cell shares one sizer, whose
    threshold sizing and flag boundary are cached, and sizes no quantile."""
    sizer = _Sizer(design)
    sizer.size = functools.lru_cache()(sizer.size)
    sizer.edge = functools.lru_cache()(sizer.edge)
    with mock.patch.object(simulation, "_Sizer", lambda _: sizer), \
            mock.patch.object(simulation, "_main_n_quantiles", lambda *args: {}):
        yield


class TestEffectLaw:
    """An effect run's flag count and nonpositive count over 2,000 seeds at 40
    replicates, against their law replicate by replicate: a replicate is
    flagged where its magnitude reaches x*, with chance q = P(|T| >= m*) at
    m* = x* / spread, negative with P(T < 0) = Phi(-ncp), and both with
    P(T <= -m*).  The flag count is Binomial(R, q) and the nonpositive count
    Binomial(R, Phi(-ncp)), with covariance R (P(T <= -m*) - q Phi(-ncp)),
    which a brute-force sampler of (Z, chi-square) pairs from Python's
    ``random`` matches too.  Sizing, which these counts do not read, is left
    out, and the threshold size and flag boundary are cached per cell, so the
    2,000 runs of a cell take one to two seconds."""

    SEEDS, REPS = 2000, 40
    CELLS = {"pooled-sd": effect_cfg(pilot_n=4, replicates=REPS),
             KNOWN_SIGMA: effect_cfg(pilot_n=4, replicates=REPS, estimator=KNOWN_SIGMA)}

    @pytest.fixture(scope="class", params=sorted(CELLS))
    def runs(self, request):
        cfg = self.CELLS[request.param]
        design = cfg.design()
        with _cached_sizing(design):
            reports = [simulate_effect_pipeline(cfg.replace(seed=seed))
                       for seed in range(self.SEEDS)]
        flags = [round(r.empirical_underpower * self.REPS) for r in reports]
        negatives = [r.nonpositive_effects for r in reports]
        # the closed form at the exact boundary
        n_crit = main_sample_size(EffectSpec(cfg.effect, cfg.sigma), design,
                                  cfg.underpower_threshold)
        x_star = effect_for_n(n_crit - 1, design, cfg.power_target, T_ITERATIVE)
        spread = math.sqrt(design.groups / cfg.pilot_n)
        ncp, df, m = cfg.effect / (cfg.sigma * spread), design.df(cfg.pilot_n), x_star / spread
        law = (scipy_stats.norm(ncp) if cfg.estimator == KNOWN_SIGMA
               else scipy_stats.nct(df, ncp))
        q, both, neg = law.sf(m) + law.cdf(-m), law.cdf(-m), scipy_stats.norm.cdf(-ncp)
        # the brute-force sampler: every replicate's (Z, chi-square) pair
        brute_flags, brute_negatives = [], []
        rng = random.Random(20261019)
        for _ in range(self.SEEDS):
            est = []
            for _ in range(self.REPS):
                s = (1.0 if cfg.estimator == KNOWN_SIGMA
                     else math.sqrt(2.0 * rng.gammavariate(0.5 * df, 1.0) / df))
                est.append((ncp + rng.gauss(0.0, 1.0)) / s)
            brute_flags.append(sum(abs(t) >= m for t in est))
            brute_negatives.append(sum(t <= 0.0 for t in est))
        return dict(flags=flags, negatives=negatives, q=q, both=both, neg=neg,
                    brute_flags=brute_flags, brute_negatives=brute_negatives)

    def test_flag_z_is_standard(self, runs):
        r, q = self.REPS, runs["q"]
        zs = [(c - r * q) / math.sqrt(r * q * (1.0 - q)) for c in runs["flags"]]
        assert 0.2 < q < 0.8
        assert abs(statistics.fmean(zs)) <= 4.0 / math.sqrt(self.SEEDS)
        assert abs(statistics.stdev(zs) - 1.0) <= 4.0 / math.sqrt(2 * self.SEEDS)

    def test_nonpositive_count_is_binomial(self, runs):
        r, p = self.REPS, runs["neg"]
        mean, se_mean, var, se_var = _moments(runs["negatives"])
        assert abs(mean - r * p) <= 4 * se_mean
        assert abs(var - r * p * (1.0 - p)) <= 4 * se_var

    def test_covariance_with_flags(self, runs):
        cov, se = _covariance(runs["flags"], runs["negatives"])
        brute, brute_se = _covariance(runs["brute_flags"], runs["brute_negatives"])
        want = self.REPS * (runs["both"] - runs["q"] * runs["neg"])
        assert want < -8 * se           # the signs do depend on the magnitudes
        assert abs(cov - want) <= 4 * se
        assert abs(cov - brute) <= 4 * math.hypot(se, brute_se)


class TestVarianceLaw:
    """A variance run's flag count over 2,000 seeds at 40 replicates, against
    its law: a replicate is flagged where its estimate reaches x*, which its
    pilot's chi-square on df does where it is at most df (delta / (sigma
    x*))^2, with chance q, so the count is Binomial(R, q).  Sizing is left out
    and the threshold size and flag boundary are cached, as in
    ``TestEffectLaw``."""

    SEEDS, REPS = 2000, 40

    def test_flag_count_is_binomial(self):
        cfg = variance_cfg(replicates=self.REPS)
        design = cfg.design()
        with _cached_sizing(design):
            flags = [round(simulate_variance_pipeline(cfg.replace(seed=seed))
                           .empirical_underpower * self.REPS) for seed in range(self.SEEDS)]
        n_crit = main_sample_size(EffectSpec(cfg.effect, cfg.sigma), design,
                                  cfg.underpower_threshold)
        x_star = effect_for_n(n_crit - 1, design, cfg.power_target, T_ITERATIVE)
        df = cfg.pilot_n - 1            # one pilot group
        q = scipy_stats.chi2.cdf(df * (cfg.effect / (cfg.sigma * x_star)) ** 2, df)
        r = self.REPS
        mean, se_mean, var, se_var = _moments(flags)
        assert 0.1 < q < 0.9
        assert abs(mean - r * q) <= 4 * se_mean
        assert abs(var - r * q * (1.0 - q)) <= 4 * se_var


class TestBinomial:
    """The exact Binomial sampler that draws every count of a run: the two
    flag cuts and an effect run's gap negatives."""

    @given(n=st.integers(0, 10 ** 9), p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32))
    @example(n=1, p=5e-324, seed=0)     # a skip past any float: the loop ends
    @settings(max_examples=60, deadline=None)
    def test_support_and_mean(self, n, p, seed):
        rng = random.Random(seed)
        draws = [_binomial(rng, n, p) for _ in range(40)]
        assert all(0 <= x <= n for x in draws)
        if p in (0.0, 1.0):
            assert set(draws) == {round(n * p)}
        # 6 sd, and two draws' worth for the Poisson regime of a tiny n p
        sd = math.sqrt(n * p * (1.0 - p) / len(draws))
        assert abs(statistics.fmean(draws) - n * p) <= 6 * sd + 2 / len(draws)

    @pytest.mark.parametrize("n,p", [(17, 0.3), (1000, 0.02), (10 ** 9, 0.4)])
    def test_variance(self, n, p):
        rng = random.Random(n)
        mean, _, var, se_var = _moments([_binomial(rng, n, p) for _ in range(4000)])
        assert abs(var - n * p * (1.0 - p)) <= 4 * se_var

    @pytest.mark.parametrize("n,p", [
        (200, 0.03),        # a mean under 10: geometric skips
        (40, 0.25),         # a mean of 10: BTRS from there on
        (10000, 0.04),      # BTRS
        (100, 0.93),        # p > 1/2, reflected into the skips
        (500, 0.7),         # p > 1/2, reflected into BTRS
        (0, 0.3),
        (1, 0.3),
        (10 ** 9, 0.4),
    ])
    def test_fits_the_exact_pmf(self, n, p):
        # a chi-square test against scipy's pmf, over 20 cells of about equal
        # mass cut at the law's quantiles
        rng = random.Random(n)
        draws = [_binomial(rng, n, p) for _ in range(20000)]
        law = scipy_stats.binom(n, p)
        edges = np.unique(law.ppf(np.linspace(0.0, 1.0, 21)[1:-1]))
        expected = np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]])) * len(draws)
        observed = np.bincount(np.searchsorted(edges, draws), minlength=len(expected))
        assert not observed[expected == 0.0].any()
        if (expected > 0.0).sum() > 1:
            fit = scipy_stats.chisquare(observed[expected > 0.0], expected[expected > 0.0])
            assert fit.pvalue > 1e-3
        else:
            assert draws == [0] * len(draws) and rng.getstate() == random.Random(n).getstate()

    @pytest.mark.parametrize("p", [1e-18, 1e-15, 0.19, 0.5, 1.0 - 2.0 ** -53])
    def test_largest_n(self, p):
        # every regime at n = sys.maxsize: counts in the support, microseconds each
        rng = random.Random(11)
        start = time.perf_counter()
        draws = [_binomial(rng, sys.maxsize, p) for _ in range(500)]
        assert time.perf_counter() - start < 0.5
        assert all(type(x) is int and 0 <= x <= sys.maxsize for x in draws)


class TestRobustness:
    """Any pooled-SD configuration that can be built returns a well-formed
    report, or raises ConvergenceError or a ValueError with a message, within
    a second: nothing silently best-effort and no unbounded cost.  Past a
    noncentrality of 1e3 a run refuses at once."""

    LOG_UNIFORM = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)

    @given(effect=LOG_UNIFORM, sigma=LOG_UNIFORM,
           pilot_n=st.one_of(st.integers(2, 100), st.integers(2, 10 ** 9)),
           kind=st.sampled_from([ONE_SAMPLE, TWO_SAMPLE]), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_pooled_sd_runs_answer_or_refuse_quickly(self, effect, sigma, pilot_n, kind, seed):
        try:
            cfg = effect_cfg(effect=effect, sigma=sigma, pilot_n=pilot_n, kind=kind, seed=seed,
                             replicates=1000)
        except ConfigError:
            assume(False)
        start = time.perf_counter()
        try:
            rep = simulate_effect_pipeline(cfg)
        except (ConvergenceError, ValueError) as exc:
            assert str(exc)
        else:
            sizes = list(rep.main_n_quantiles.values())
            assert 0.0 <= rep.empirical_underpower <= 1.0
            assert all(type(n) is int and n >= 2 for n in sizes) and sizes == sorted(sizes)
            assert 0 <= rep.nonpositive_effects <= cfg.replicates
        assert time.perf_counter() - start < 1.0


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
        # power at each replicate's main size, over the completed sample
        cfg = variance_cfg(replicates=400)
        rep, d = _completed(simulate_variance_pipeline, cfg)
        assert rep == _brute_force_report(cfg, d, 0)
        assert 0.1 < rep.empirical_underpower < 0.3

    @pytest.mark.parametrize("mode", [T_ITERATIVE, Z_APPROX])
    def test_zero_d_array_levels_run_as_floats(self, mode):
        # the config takes 0-d arrays for its power levels, and a run's sizer
        # keys its z terms by their float values
        cfg = variance_cfg(replicates=1000, sizing_mode=mode)
        arrays = cfg.replace(power_target=np.array(cfg.power_target),
                             underpower_threshold=np.array(cfg.underpower_threshold))
        want, got = simulate_variance_pipeline(cfg), simulate_variance_pipeline(arrays)
        assert (got.empirical_underpower, got.main_n_quantiles) == (
            want.empirical_underpower, want.main_n_quantiles)

    def test_threshold_size_of_two_flags_nothing(self):
        # effect 10 against sigma 1 reaches the threshold power with the
        # smallest main study, 2 per group, so no sized study falls below it
        cfg = variance_cfg(effect=10.0, sigma=1.0, replicates=200)
        n_crit = main_sample_size(EffectSpec(10.0, 1.0), TWO, cfg.underpower_threshold)
        assert n_crit == 2
        with mock.patch.object(_Sizer, "edge") as edge:
            assert simulation._underpower_count([], _Sizer(TWO), cfg) == 0
        edge.assert_not_called()
        assert simulate_variance_pipeline(cfg).empirical_underpower == 0.0

    def test_million_subject_pilot(self):
        # a pilot of 1e6 reads chi-square quantiles on df 999,999, just above
        # the median, where the incomplete gamma takes its series: the sample
        # SD is within 0.3% of sigma, so every main size is within a subject
        # of the one the true effect needs, and the threshold flags nothing
        cfg = variance_cfg(pilot_n=1_000_000, seed=7, replicates=10_000)
        rep = simulate_variance_pipeline(cfg)
        n_true = main_sample_size(EffectSpec(1.0, 4.0), TWO, cfg.power_target)
        assert rep.empirical_underpower == 0.0
        assert all(abs(n - n_true) <= 1 for n in rep.main_n_quantiles.values())
        assert list(rep.main_n_quantiles.values()) == [252, 252, 253, 253, 253]

    @pytest.mark.parametrize("effect", [1000.0, 3000.0])
    def test_tiny_alpha_returns_a_report(self, effect):
        # at alpha 1e-15 the threshold needs 6 subjects, and the flag
        # boundary x* = e(5) is 4816 against a z value of 3.97; Guenther's
        # factor there is 4.2 a step, and squared each step it overshoots
        # x* into the noncentral-t series' cap unless it stops at the
        # provable bound.  The flag count is Binomial(R, q), q = P(chi2_19
        # <= 19 (delta / x*)^2)
        design = TestDesign(ONE_SAMPLE, 1e-15)
        cfg = variance_cfg(effect=effect, sigma=1.0, pilot_n=20, kind=ONE_SAMPLE,
                           alpha=1e-15, seed=7, replicates=1000)
        rep = simulate_variance_pipeline(cfg)
        n_crit = main_sample_size(EffectSpec(effect), design, cfg.underpower_threshold)
        x_star = effect_for_n(n_crit - 1, design, cfg.power_target, T_ITERATIVE)
        q = scipy_stats.chi2.cdf(19 * (effect / x_star) ** 2, 19)
        r = cfg.replicates
        assert abs(rep.empirical_underpower * r - r * q) <= 5 * math.sqrt(r * q * (1 - q)) + 1e-9
        sizes = list(rep.main_n_quantiles.values())
        assert sizes == sorted(sizes) and sizes[0] >= 2

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
    observation is a numpy normal deviate, and the estimate is formed from
    the sample means and variances.  It draws from numpy's generator, so its
    runs are independent of the package's.
    """
    rng = np.random.default_rng([cfg.seed, 99])
    n, sigma = cfg.pilot_n, cfg.sigma
    if cfg.scenario == "variance":
        groups = 2 if cfg.pooled_pilot else 1
    else:
        groups = cfg.design().groups
    out = []
    for start in range(0, cfg.replicates, 5000):
        m = min(5000, cfg.replicates - start)
        x = rng.standard_normal((m, groups * n)).reshape(m, groups, n) * sigma
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
        cfg = cfg.replace(replicates=100_000)
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

    def test_no_replicates_rejected(self):
        with pytest.raises(ConfigError, match="replicates must be an integer >= 1, got 0"):
            reproduce_table(1, 0)

    def test_numpy_integers_echo_as_ints(self, capsys):
        rep = reproduce_table(np.int64(1), np.int64(20), seed=np.int64(3))
        assert [type(rep.config[k]) for k in ("table_id", "replicates", "seed")] == [int] * 3
        assert rep.format_text() == reproduce_table(1, 20, seed=3).format_text()
        emit(rep, "json")       # serializes


KERNELS = ("norm_cdf", "norm_quantile", "chisq_quantile")


class TestScalarKernels:
    """The special functions take one point per call, and an array is a
    ValueError: package code passes them 0-d values alone."""

    def test_package_passes_only_0d_values(self, monkeypatch):
        ndims = {name: [] for name in KERNELS}

        def recording(f, seen):
            def call(x, *args):
                seen.append(np.ndim(x))
                return f(x, *args)
            return call

        # every package module's own name, which its functions look up when
        # called (importing pilotplan.tables above loaded them all)
        for module in [m for n, m in sys.modules.items()
                       if n == "pilotplan" or n.startswith("pilotplan.")]:
            for name in KERNELS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        recording(getattr(module, name), ndims[name]))
        reproduce_table(1, 50, seed=3)
        reproduce_table(2, 50, seed=3)
        simulate_variance_pipeline(variance_cfg(replicates=500))
        simulate_effect_pipeline(effect_cfg(replicates=500))
        simulate_effect_pipeline(effect_cfg(replicates=500, estimator=KNOWN_SIGMA))
        assert {name: set(seen) for name, seen in ndims.items()} == {
            name: {0} for name in KERNELS}
