"""End-to-end acceptance suite.

Each test is one numbered acceptance criterion, checked at its pinned
tolerance against the published reference values for this methodology
(worked examples, both reference grids, and the heuristic ladders), plus the
package's own property contracts.  One PASS line prints per criterion (run
with ``pytest -s`` to see them alongside the verdicts).

Errata: two published values are corrected, each from an independent
computation frozen at the test that uses it.
  - The arcsine effect of (0.5, 0.4) is printed as 0.2003.  The formula
    2 asin(sqrt p1) - 2 asin(sqrt p2) gives 0.2013579, and Cohen's (1988)
    phi table gives 1.5708 - 1.3694 = 0.2014; no usual variant gives 0.2003
    (pooled-SD difference 0.2010, unpooled 0.2020).  The walkthrough plans
    from the rounded 0.20, which criterion 6 stages explicitly.
  - Variability-grid cell (p=.3, delta=4, sigma=2) is printed as 34.0%.  The
    closed form of the simulated pipeline, chi2.cdf((n-1)(delta/(e sigma))^2,
    n-1), gives 20.9% (scipy), and the simulation agrees at both seeds.  At
    the printed pilot sizes 24 and 11 the same form gives 0.7% and 6.4% for
    this (delta, sigma) at p=.1 and .2, printed as 1.2% and 7.2%; the
    planner's nominal chi-square model gives 35.5% here but 8.4% and 20.5%
    there.  No convention fits the column, and the printed 34.0 repeats
    cell (.3, 1, 2).
"""

import math

import numpy as np
import pytest

from pilotplan.distributions import (
    _nct_abs_sf, chisq_cdf, chisq_quantile, nct_cdf, t_cdf, t_quantile)
from pilotplan.power import (
    EffectSpec,
    TWO_SAMPLE,
    T_ITERATIVE,
    TestDesign,
    arcsine_effect,
    effect_for_n,
    main_sample_size,
)
from pilotplan.variance import (
    EXACT,
    PowerBounds,
    pilot_n_approx,
    pilot_n_exact,
    plan_variance_pilot,
    variance_underpower_prob,
)
from pilotplan.effect import effect_pilot_n, effect_underpower_prob, plan_effect_pilot
from pilotplan.simulation import SimulationConfig, reproduce_table, simulate_variance_pipeline

TWO = TestDesign(TWO_SAMPLE, 0.05)
SEED_A = 20260810
SEED_B = 914

# ------------------------- published reference values ----------------------
# variability grid: pilot sizes (left) and 1000-replicate underpower (right),
# indexed [underpower_prob][delta] across sigma = 2..6
REF_T1_SIZES = {
    0.1: {1: [25, 25, 25, 25, 25], 2: [25, 25, 25, 25, 25],
          3: [24, 25, 25, 25, 25], 4: [24, 25, 25, 25, 25]},
    0.2: {1: [12, 12, 12, 12, 12], 2: [11, 12, 12, 12, 12],
          3: [11, 11, 12, 12, 12], 4: [11, 11, 11, 12, 12]},
    0.3: {1: [5, 5, 5, 5, 5], 2: [5, 5, 5, 5, 5],
          3: [5, 5, 5, 5, 5], 4: [5, 5, 5, 5, 5]},
}
REF_T1_UNDERPOWER = {
    0.1: {1: [8.7, 8.3, 9.1, 6.9, 7.3], 2: [4.3, 8.7, 7.3, 7.2, 7.8],
          3: [4.0, 4.1, 6.5, 7.9, 7.0], 4: [1.2, 4.5, 4.2, 6.8, 6.5]},
    0.2: {1: [16.5, 22.1, 18.0, 17.2, 19.5], 2: [13.9, 19.4, 20.2, 21.1, 19.8],
          3: [14.8, 13.9, 16.9, 19.6, 18.5], 4: [7.2, 14.2, 15.5, 16.7, 19.8]},
    0.3: {1: [34.0, 37.9, 32.9, 34.4, 36.9], 2: [32.4, 35.9, 39.6, 35.3, 36.2],
          3: [29.1, 29.0, 35.7, 35.0, 35.5], 4: [20.9, 29.7, 30.0, 33.7, 36.8]},
}
# Erratum: cell (p=.3, delta=4, sigma=2) is printed as 34.0.  With integer
# sizing, a replicate is underpowered when its main study is below n_crit,
# the smallest size with 60% power at the true delta/sigma.  That happens
# when the estimated effect delta/S reaches e(n_crit - 1), the effect at
# which n_crit - 1 subjects give 80% power.  So S^2 <= (delta / e)^2, and
# with (n-1) S^2 / sigma^2 ~ chi2(n-1) the probability is
#   chi2.cdf((n-1) * (delta / (e * sigma))^2, n-1).
# scipy (noncentral t power, brentq): n_crit = 4 at d = 2, e(3) =
# 3.0708922663636873; with the planned pilot n = 5,
# chi2.cdf(4 * (4 / (2 * 3.0708922663636873))^2, 4) = 0.2086729124701518.
T1_ERRATUM_CELL = (0.3, 4, 2)
T1_ERRATUM_PILOT_N = 5
T1_ERRATUM_CLOSED_FORM = 0.2086729124701518
SIGMAS = (2, 3, 4, 5, 6)

# effect grid: per-group pilot sizes and 1000-replicate underpower,
# indexed [underpower_prob][effect size]
REF_T2_SIZES = {
    0.2: {0.2: 501, 0.5: 81, 0.8: 32},
    0.25: {0.2: 322, 0.5: 52, 0.8: 21},
    0.3: {0.2: 195, 0.5: 32, 0.8: 13},
    0.35: {0.2: 106, 0.5: 17, 0.8: 7},
    0.4: {0.2: 46, 0.5: 8, 0.8: 3},
}
REF_T2_UNDERPOWER = {
    0.2: {0.2: 19.2, 0.5: 20.3, 0.8: 20.4},
    0.25: {0.2: 25.0, 0.5: 25.4, 0.8: 28.1},
    0.3: {0.2: 32.0, 0.5: 30.8, 0.8: 33.5},
    0.35: {0.2: 34.7, 0.5: 37.5, 0.8: 36.5},
    0.4: {0.2: 42.8, 0.5: 42.5, 0.8: 48.7},
}
REF_T2_MAIN_ROW = {0.2: 394, 0.5: 64, 0.8: 26}


def _cells_by_key(report, *keys):
    return {tuple(c[k] for k in keys): c for c in report.cells}


@pytest.fixture(scope="module")
def table1_run_a():
    return reproduce_table(1, replicates=10_000, seed=SEED_A)


@pytest.fixture(scope="module")
def table1_run_b():
    return reproduce_table(1, replicates=10_000, seed=SEED_B)


@pytest.fixture(scope="module")
def table2_run():
    return reproduce_table(2, replicates=10_000, seed=SEED_A)


def test_criterion_01_variability_worked_example():
    plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, PowerBounds(0.2, 0.6))
    assert plan.main_n_under == 158
    assert plan.sigma_under == pytest.approx(3.16, abs=0.02)
    assert plan.pilot_n == 12
    print("\n[criterion 1] PASS - worked example: N=158, sd 3.160, pilot 12")


def test_criterion_02_heuristic_ladder():
    plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, PowerBounds(0.2, 0.6))
    ratio = (plan.sigma_under / plan.sigma) ** 2
    ladder = {p: pilot_n_approx(ratio, p) for p in (0.3, 0.2, 0.1)}
    assert ladder == {0.3: 5, 0.2: 12, 0.1: 25}
    print("[criterion 2] PASS - pilot ladder 5/12/25 at 30/20/10 percent")


def test_criterion_03_variability_grid_sizes(table1_run_a):
    cells = _cells_by_key(table1_run_a, "underpower_prob", "delta", "sigma")
    off = []
    for p, by_delta in REF_T1_SIZES.items():
        for delta, row in by_delta.items():
            for sigma, want in zip(SIGMAS, row):
                got = cells[(p, delta, sigma)]["pilot_n"]
                if abs(got - want) > 1:
                    off.append((p, delta, sigma, got, want))
    assert not off, f"cells beyond +/-1: {off}"
    print("[criterion 3] PASS - all 60 variability-grid sizes within +/-1")


def test_criterion_04_variability_grid_underpower(table1_run_a, table1_run_b):
    cells_a = _cells_by_key(table1_run_a, "underpower_prob", "delta", "sigma")
    cells_b = _cells_by_key(table1_run_b, "underpower_prob", "delta", "sigma")
    drift = []
    off = []
    for p, by_delta in REF_T1_UNDERPOWER.items():
        for delta, row in by_delta.items():
            for sigma, want_pct in zip(SIGMAS, row):
                a = cells_a[(p, delta, sigma)]["empirical_underpower"]
                b = cells_b[(p, delta, sigma)]["empirical_underpower"]
                if abs(a - b) > 0.03:
                    drift.append((p, delta, sigma, a, b))
                if abs(a - want_pct / 100.0) > 0.06:
                    off.append((p, delta, sigma, round(a, 4), want_pct / 100.0))
    assert not drift, f"fresh-run drift beyond +/-0.03: {drift}"
    assert not off, f"cells beyond +/-0.06 of the reference: {off}"
    # the corrected cell sits within 4 Monte Carlo standard errors of its
    # closed form at both seeds
    q = T1_ERRATUM_CLOSED_FORM
    for run in (table1_run_a, table1_run_b):
        cell = _cells_by_key(run, "underpower_prob", "delta", "sigma")[T1_ERRATUM_CELL]
        assert cell["pilot_n"] == T1_ERRATUM_PILOT_N
        se = math.sqrt(q * (1.0 - q) / run.replicates)
        assert abs(cell["empirical_underpower"] - q) <= 4.0 * se, (
            f"seed {run.seed}: {cell['empirical_underpower']:.4f} against "
            f"closed form {q:.4f} +/- 4 x {se:.4f}")
    print("[criterion 4] PASS - variability-grid underpower reproduced")


def test_criterion_05_effect_worked_example():
    plan = plan_effect_pilot(2.0, 4.0, TWO, 0.8, PowerBounds(0.3, 0.6))
    assert plan.main_n_under == 40
    assert plan.mu_under / plan.sigma == pytest.approx(0.63, abs=0.01)
    assert abs(plan.pilot_n - 32) <= 1
    print("[criterion 5] PASS - worked example: N=40, effect 0.633, pilot 32")


def _published_proportions_plan():
    # the fall-prevention walkthrough as published: p1, p2 -> arcsine
    # transform -> rounded to 2 dp -> effect pilot plan
    spec = arcsine_effect(0.5, 0.4)
    return plan_effect_pilot(round(spec.effect, 2), spec.sigma, TWO, 0.8,
                             PowerBounds(0.3, 0.6))


def test_criterion_06a_arcsine_transform_value():
    effect = arcsine_effect(0.5, 0.4).effect
    # erratum: printed as 0.2003.  2 asin(sqrt .5) - 2 asin(sqrt .4) =
    # 0.20135792079033088 (math.asin); Cohen's phi table: 1.5708 - 1.3694
    assert effect == pytest.approx(0.2013579, abs=1e-7)
    assert effect == pytest.approx(1.5708 - 1.3694, abs=1e-4)
    assert round(effect, 2) == 0.20
    print("[criterion 6a] PASS - arcsine transform 0.2014, planned as 0.20")


def test_criterion_06b_proportions_pipeline_main_size():
    # scipy: noncentral-t requirement for 60% power is 245.89237592142 at
    # d = 0.20 and 242.6000519713654 at d = 0.2013579; nearest 246 and 243
    assert _published_proportions_plan().main_n_under == 246
    spec = arcsine_effect(0.5, 0.4)
    unrounded = plan_effect_pilot(spec.effect, spec.sigma, TWO, 0.8, PowerBounds(0.3, 0.6))
    assert unrounded.main_n_under == 243
    print("[criterion 6b] PASS - proportions pipeline main size 246")


def test_criterion_06c_proportions_pipeline_threshold_effect():
    plan = _published_proportions_plan()
    assert plan.mu_under == pytest.approx(0.253, abs=0.002)
    print("[criterion 6c] PASS - threshold effect 0.253 +/- 0.002")


def test_criterion_06d_proportions_pipeline_pilot_size():
    plan = _published_proportions_plan()
    assert abs(plan.pilot_n - 195) <= 0.05 * 195
    print("[criterion 6d] PASS - pilot size within 5% of 195")


def test_criterion_06e_effect_grid_main_row():
    got = {eff: main_sample_size(EffectSpec(eff), TWO, 0.8) for eff in REF_T2_MAIN_ROW}
    for eff, want in REF_T2_MAIN_ROW.items():
        assert abs(got[eff] - want) <= 1
    print("[criterion 6e] PASS - main-study row 394/64/26")


def test_published_worked_example_from_rounded_transform():
    # the published fall-prevention walkthrough plans from the rounded
    # transform value 0.20; that staging reproduces it exactly
    plan = plan_effect_pilot(0.20, 1.0, TWO, 0.8, PowerBounds(0.3, 0.6))
    assert plan.main_n_under == 246
    assert plan.mu_under == pytest.approx(0.253, abs=0.002)
    assert plan.pilot_n == 195
    print("[criterion 6 companion] PASS - rounded-transform staging gives 246/0.253/195")


def test_criterion_07_effect_grid_sizes(table2_run):
    cells = _cells_by_key(table2_run, "underpower_prob", "effect")
    off = []
    for p, by_eff in REF_T2_SIZES.items():
        for eff, want in by_eff.items():
            got = cells[(p, eff)]["pilot_n"]
            if abs(got - want) > max(2, 0.05 * want):
                off.append((p, eff, got, want))
    assert not off, f"cells beyond +/-max(2, 5%): {off}"
    print("[criterion 7] PASS - all 15 effect-grid sizes reproduced")


def test_criterion_08_effect_grid_underpower(table2_run):
    cells = _cells_by_key(table2_run, "underpower_prob", "effect")
    off = []
    for p, by_eff in REF_T2_UNDERPOWER.items():
        for eff, want_pct in by_eff.items():
            got = cells[(p, eff)]["empirical_underpower"]
            if abs(got - want_pct / 100.0) > 0.05:
                off.append((p, eff, round(got, 4), want_pct / 100.0))
    assert not off, f"cells beyond +/-0.05 of the reference: {off}"
    print("[criterion 8] PASS - effect-grid underpower reproduced")


def test_criterion_08b_effect_grid_closed_form(table2_run):
    # a replicate is underpowered exactly when its |estimate| reaches
    # e = e(n_crit - 1), the effect at which n_crit - 1 subjects give 80%
    # power, and the estimate times sqrt(n / 2) is noncentral t on 2n - 2 df
    # with ncp d sqrt(n / 2); so each cell's rate is the two-sided tail
    # P(|T| > e sqrt(n / 2)), and it lies within 4 Monte Carlo SEs of that
    off = []
    for cell in table2_run.cells:
        n, d = cell["pilot_n"], cell["effect"]
        n_crit = main_sample_size(EffectSpec(d), TWO, 0.6)
        e = effect_for_n(n_crit - 1, TWO, 0.8, T_ITERATIVE)
        q = _nct_abs_sf(e * math.sqrt(n / 2), 2 * n - 2, d * math.sqrt(n / 2))
        z = (cell["empirical_underpower"] - q) / math.sqrt(q * (1 - q) / table2_run.replicates)
        if abs(z) > 4.0:
            off.append((cell["underpower_prob"], d, cell["empirical_underpower"], q, z))
    assert not off, f"cells beyond 4 Monte Carlo SEs of the closed form: {off}"
    print("[criterion 8b] PASS - effect-grid underpower on its closed form")


def test_criterion_09_property_suite():
    # distribution round trips at 1e-8
    for df in (1, 2, 5, 11, 24, 100):
        for p in np.linspace(0.001, 0.999, 21):
            assert chisq_cdf(chisq_quantile(float(p), df), df) == pytest.approx(
                float(p), abs=1e-8)
            assert t_cdf(t_quantile(float(p), df), df) == pytest.approx(
                float(p), abs=1e-8)
    # central noncentral-t consistency at 1e-10
    for df in (1, 5, 24, 314):
        for x in (-2.5, -0.3, 0.0, 1.1, 3.0):
            assert nct_cdf(x, df, 0.0) == pytest.approx(t_cdf(x, df), abs=1e-10)
    # effect-size scale invariance of both planners (exact integers)
    bounds_v = PowerBounds(0.2, 0.6)
    bounds_e = PowerBounds(0.3, 0.6)
    base_v = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, bounds_v)
    base_e = plan_effect_pilot(0.5, 1.0, TWO, 0.8, bounds_e)
    for c in (0.5, 2.0, 7.5):
        pv = plan_variance_pilot(EffectSpec(c, 4 * c), TWO, 0.8, bounds_v)
        pe = plan_effect_pilot(0.5 * c, c, TWO, 0.8, bounds_e)
        assert (pv.pilot_n, pv.main_n_under) == (base_v.pilot_n, base_v.main_n_under)
        assert (pe.pilot_n, pe.main_n_under) == (base_e.pilot_n, base_e.main_n_under)
    # planner outputs monotone in the underpower probability
    v_sizes = [plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                   PowerBounds(p, 0.6)).pilot_n
               for p in (0.05, 0.1, 0.2, 0.3, 0.4)]
    e_sizes = [plan_effect_pilot(0.5, 1.0, TWO, 0.8, PowerBounds(p, 0.6)).pilot_n
               for p in (0.2, 0.25, 0.3, 0.35, 0.4)]
    assert all(a >= b for a, b in zip(v_sizes, v_sizes[1:]))
    assert all(a >= b for a, b in zip(e_sizes, e_sizes[1:]))
    # exact-mode post-condition audit on both sides of the search
    ratio = (plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, bounds_v).sigma_under / 4) ** 2
    for p in (0.1, 0.2, 0.3):
        n = pilot_n_exact(ratio, p)
        assert variance_underpower_prob(n, ratio) < p
        assert variance_underpower_prob(n - 1, ratio) >= p
    for p in (0.25, 0.3, 0.4):
        mu_thr = 0.5 * 1.2657891760958229
        n = effect_pilot_n(0.5, mu_thr, 1.0, p, TWO)
        assert effect_underpower_prob(n, 0.5, mu_thr, 1.0, TWO) < p
    print("[criterion 9] PASS - property suite")


def test_criterion_10_exact_mode_calibration():
    reps = 100_000
    for p in (0.1, 0.2, 0.3):
        plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                   PowerBounds(p, 0.6), mode=EXACT)
        rep = simulate_variance_pipeline(SimulationConfig(
            scenario="variance", effect=1.0, sigma=4.0, pilot_n=plan.pilot_n,
            seed=SEED_A + int(100 * p), replicates=reps))
        bound = p + 3.0 * math.sqrt(p * (1 - p) / reps)
        assert rep.empirical_underpower <= bound, (
            f"p={p}: empirical {rep.empirical_underpower:.4f} above {bound:.4f}")
    print("[criterion 10] PASS - exact-mode plans calibrated at 100k replicates")
