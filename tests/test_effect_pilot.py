"""Effect-driven pilot sizing tests.

The threshold effect on the z-quantile chain is mu0 * 1.2657891761 (threshold
power 0.6, target 0.8, alpha 0.05); per-group sizes below are frozen from the
closed form evaluated with scipy's normal quantiles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from pilotplan.power import ONE_SAMPLE, TWO_SAMPLE, TestDesign, arcsine_effect
from pilotplan.variance import PowerBounds
from pilotplan.effect import (
    effect_pilot_n,
    effect_underpower_prob,
    plan_effect_pilot,
)
from test_variance_pilot import assert_same_plan, plan_inputs

TWO = TestDesign(TWO_SAMPLE, 0.05)
ONE = TestDesign(ONE_SAMPLE, 0.05)
MU_RATIO = 1.2657891760958229  # threshold-to-prior effect ratio on the z chain


class TestUnderpowerProb:
    def test_threshold_equal_to_prior_is_half(self):
        for n in (3, 32, 500):
            assert effect_underpower_prob(n, 0.5, 0.5, 1.0, TWO) == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_with_large_pilots(self):
        assert effect_underpower_prob(10**6, 0.5, 0.63, 1.0, TWO) < 1e-15

    def test_reference_case(self):
        # 1 - Phi((mu_L - mu0) sqrt(n/2)) = 0.2975090307 at n=32, gap 0.13289
        v = effect_underpower_prob(32, 0.5, 0.5 * MU_RATIO, 1.0, TWO)
        assert v == pytest.approx(0.2975090307, abs=1e-9)
        assert v < 0.30

    def test_one_sample_scaling(self):
        # one-sample estimate has half the variance of a two-sample difference
        v2 = effect_underpower_prob(16, 0.5, 0.6, 1.0, TWO)
        v1 = effect_underpower_prob(8, 0.5, 0.6, 1.0, ONE)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            effect_underpower_prob(10, 0.5, 0.6, 0.0, TWO)


class TestPilotSize:
    def test_medium_effect_reference(self):
        assert effect_pilot_n(0.5, 0.5 * MU_RATIO, 1.0, 0.30, TWO) == 32

    def test_small_effect_reference(self):
        assert effect_pilot_n(0.2, 0.2 * MU_RATIO, 1.0, 0.30, TWO) == 195

    def test_large_effect_reference(self):
        assert effect_pilot_n(0.8, 0.8 * MU_RATIO, 1.0, 0.40, TWO) == 3

    def test_reference_grid(self):
        # closed-form grid (ceilings frozen from scipy quantiles)
        want = {
            (0.2, 0.2): 502, (0.25, 0.2): 322, (0.3, 0.2): 195,
            (0.35, 0.2): 106, (0.4, 0.2): 46,
            (0.2, 0.5): 81, (0.25, 0.5): 52, (0.3, 0.5): 32,
            (0.35, 0.5): 17, (0.4, 0.5): 8,
            (0.2, 0.8): 32, (0.25, 0.8): 21, (0.3, 0.8): 13,
            (0.35, 0.8): 7, (0.4, 0.8): 3,
        }
        for (p, eff), n in want.items():
            assert effect_pilot_n(eff, eff * MU_RATIO, 1.0, p, TWO) == n

    def test_post_condition_audit(self):
        for p in (0.2, 0.25, 0.3, 0.35, 0.4):
            for eff in (0.2, 0.5, 0.8):
                n = effect_pilot_n(eff, eff * MU_RATIO, 1.0, p, TWO)
                assert effect_underpower_prob(n, eff, eff * MU_RATIO, 1.0, TWO) < p

    def test_inverse_square_scaling(self):
        base_gap = 0.1
        n1 = effect_pilot_n(0.5, 0.5 + base_gap, 1.0, 0.2, TWO)
        n2 = effect_pilot_n(0.5, 0.5 + 2 * base_gap, 1.0, 0.2, TWO)
        assert n2 == pytest.approx(n1 / 4, abs=1.0)

    def test_decreasing_in_p(self):
        sizes = [effect_pilot_n(0.5, 0.63, 1.0, p, TWO) for p in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("p,n", [(1e-16, 13521), (1e-17, 14429)])
    def test_tiny_miss_probability(self, p, n):
        # 2 z_{1-p}^2 / 0.1^2 with scipy's norm.isf: 13520.53 and 14428.90;
        # z comes from the tail p itself, since 1 - p keeps few of its digits
        # and is 1 at 1e-17
        assert effect_pilot_n(0.5, 0.6, 1.0, p, TWO) == n

    @pytest.mark.parametrize("mu0,mu_threshold", [
        (1e-200, 2e-200),       # the closed form's square overflows
        (0.5, 0.5 + 1e-9),      # about 1.4e18 per group
    ])
    def test_past_1e9_raises(self, mu0, mu_threshold):
        with pytest.raises(ValueError, match="exceeds 1e9"):
            effect_pilot_n(mu0, mu_threshold, 1.0, 0.2, TWO)

    def test_equal_threshold_rejected(self):
        with pytest.raises(ValueError):
            effect_pilot_n(0.5, 0.5, 1.0, 0.3, TWO)

    def test_wrong_side_rejected(self):
        with pytest.raises(ValueError):
            effect_pilot_n(0.5, 0.4, 1.0, 0.3, TWO, side="under")
        with pytest.raises(ValueError):
            effect_pilot_n(0.5, 0.6, 1.0, 0.3, TWO, side="over")


class TestPlan:
    def bounds(self, p=0.3):
        return PowerBounds(underpower_prob=p, underpower_threshold=0.6)

    def test_medium_effect_trace(self):
        plan = plan_effect_pilot(2.0, 4.0, TWO, 0.8, self.bounds())
        assert plan.main_n_under == 40
        assert plan.mu_under / plan.sigma == pytest.approx(0.63, abs=0.01)
        assert plan.mu_under == pytest.approx(2.0 * MU_RATIO, rel=1e-12)
        assert plan.pilot_n == 32

    def test_small_effect_trace(self):
        plan = plan_effect_pilot(0.2, 1.0, TWO, 0.8, self.bounds())
        assert plan.main_n_under == 246
        assert plan.mu_under == pytest.approx(0.2531578352, abs=1e-9)
        assert plan.pilot_n == 195

    def test_arcsine_pipeline_trace(self):
        # exact transform of (0.5, 0.4): effect 0.2013579, requirement 242.6
        spec = arcsine_effect(0.5, 0.4)
        plan = plan_effect_pilot(spec.effect, spec.sigma, TWO, 0.8, self.bounds())
        assert plan.main_n_under == 243
        assert plan.mu_under == pytest.approx(0.2548766767, abs=1e-9)
        assert plan.pilot_n == 193

    def test_effect_size_reduction(self):
        # (mu0, sigma) and (mu0/sigma, 1) are the same plan
        a = plan_effect_pilot(2.0, 4.0, TWO, 0.8, self.bounds())
        b = plan_effect_pilot(0.5, 1.0, TWO, 0.8, self.bounds())
        assert (a.pilot_n, a.main_n_under) == (b.pilot_n, b.main_n_under)
        assert a.mu_under / a.sigma == pytest.approx(b.mu_under, rel=1e-12)

    def test_pilot_share_of_main_study(self):
        # pilot about half the main study at p=.30 and about a quarter at .35
        for eff, main_n in ((0.2, 394), (0.5, 64), (0.8, 26)):
            half = plan_effect_pilot(eff, 1.0, TWO, 0.8, self.bounds(0.30)).pilot_n
            quarter = plan_effect_pilot(eff, 1.0, TWO, 0.8, self.bounds(0.35)).pilot_n
            assert half / main_n == pytest.approx(0.50, abs=0.07)
            assert quarter / main_n == pytest.approx(0.25, abs=0.07)

    def test_two_sided_takes_max(self):
        plan = plan_effect_pilot(
            0.5, 1.0, TWO, 0.8,
            PowerBounds(0.3, 0.6, overpower_prob=0.3, overpower_threshold=0.9))
        assert plan.mu_over < plan.mu0 < plan.mu_under
        assert plan.pilot_n == max(plan.pilot_n_under, plan.pilot_n_over)

    def test_monotone_in_underpower_prob(self):
        sizes = [plan_effect_pilot(0.5, 1.0, TWO, 0.8, self.bounds(p)).pilot_n
                 for p in (0.2, 0.25, 0.3, 0.35, 0.4)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_nonpositive_mu0_rejected(self):
        with pytest.raises(ValueError):
            plan_effect_pilot(0.0, 1.0, TWO, 0.8, self.bounds())

    def test_serializes_flat(self):
        plan = plan_effect_pilot(2.0, 4.0, TWO, 0.8, self.bounds())
        (rec,) = plan.csv_rows()
        assert rec["pilot_n"] == 32
        assert set(plan.config) | set(plan.results) == set(rec)


class TestPlanProperties:
    def plan(self, x, scale=1.0, **over):
        x = {**x, **over}
        return plan_effect_pilot(x["d"] * x["sigma"] * scale, x["sigma"] * scale,
                                 TestDesign(TWO_SAMPLE, x["alpha"]), x["power"],
                                 PowerBounds(x["p"], x["threshold"]))

    @given(plan_inputs(), st.floats(0.05, 0.45))
    @settings(max_examples=15, deadline=None)
    def test_tighter_bound_never_shrinks_pilot(self, x, p2):
        tight, loose = sorted((x["p"], p2))
        assert self.plan(x, p=tight).pilot_n >= self.plan(x, p=loose).pilot_n

    @given(plan_inputs(), st.floats(0.3, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_threshold_nearer_target_never_shrinks_pilot(self, x, t2):
        far, near = sorted((x["threshold"], min(t2, x["power"] - 0.05)))
        assert self.plan(x, threshold=near).pilot_n >= self.plan(x, threshold=far).pilot_n

    @given(plan_inputs(), st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_scaling_mu0_and_sigma_keeps_plan(self, x, scale):
        assert_same_plan(self.plan(x), self.plan(x, scale), scale)
