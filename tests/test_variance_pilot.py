"""Variance-driven pilot sizing tests.

The canonical variance ratio (threshold power 0.6, target 0.8, alpha 0.05)
is ((z_.975 + z_.6) / (z_.975 + z_.8))^2 = 0.6241331421.  Chi-square search
values on it are frozen from scipy.stats.chi2 scans; the approximation values
from the closed form.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pilotplan import variance
from pilotplan.distributions import chisq_cdf
from pilotplan.power import EffectSpec, TWO_SAMPLE, TestDesign
from pilotplan.variance import (
    APPROX,
    EXACT,
    SEARCH_CAP,
    PowerBounds,
    pilot_n_approx,
    pilot_n_exact,
    plan_variance_pilot,
    variance_underpower_prob,
)

TWO = TestDesign(TWO_SAMPLE, 0.05)
CANONICAL_RATIO = 0.6241331421337069


def _miss(n, ratio, side, pooled):
    df = 2 * n - 2 if pooled else n - 1
    under = chisq_cdf(df * ratio, df)
    return under if side == "under" else 1.0 - under


def linear_scan(ratio, p, side="under", pooled=False, cap=SEARCH_CAP):
    """Reference exact search: the first n = 2, 3, ... whose miss is below p."""
    for n in range(2, cap + 1):
        if _miss(n, ratio, side, pooled) < p:
            return n
    raise ValueError(f"search cap ({cap})")


class TestUnderpowerProb:
    def test_reference_case(self):
        # pilot of 12 on the canonical ratio: 0.19012857634773 (scipy scan),
        # i.e. under the 20% bound
        v = variance_underpower_prob(12, CANONICAL_RATIO)
        assert v == pytest.approx(0.1901285763, abs=1e-9)
        assert v < 0.20
        # the published rounded threshold sd gives the same picture
        assert variance_underpower_prob(12, (3.16 / 4) ** 2) == pytest.approx(0.19, abs=0.005)

    def test_tiny_pilot_near_unit_ratio(self):
        # ratio -> 1 with two observations: chisq_cdf(1, 1) = 0.682689
        assert variance_underpower_prob(2, 1.0 - 1e-9) == pytest.approx(0.6826894921, abs=1e-6)

    def test_vanishing_ratio(self):
        assert variance_underpower_prob(12, 1e-12) < 1e-10

    def test_matches_chisq_directly(self):
        assert variance_underpower_prob(9, 0.5) == chisq_cdf(8 * 0.5, 8)

    def test_pooled_doubles_df(self):
        assert variance_underpower_prob(9, 0.5, pooled=True) == chisq_cdf(16 * 0.5, 16)

    def test_too_small_pilot_rejected(self):
        with pytest.raises(ValueError):
            variance_underpower_prob(1, 0.5)


class TestExactSearch:
    def test_canonical_ratio_values(self):
        # frozen scans: 22 / 12 / 7 at p = .1 / .2 / .3
        assert pilot_n_exact(CANONICAL_RATIO, 0.2) == 12
        assert pilot_n_exact(CANONICAL_RATIO, 0.1) == 22
        assert pilot_n_exact(CANONICAL_RATIO, 0.3) == 7

    def test_median_bound_is_tiny(self):
        assert pilot_n_exact(0.6245, 0.5) in (2, 3)

    def test_post_condition_audit(self):
        for p in (0.05, 0.1, 0.2, 0.3, 0.45):
            for ratio in (0.5, CANONICAL_RATIO, 0.8):
                n = pilot_n_exact(ratio, p)
                assert variance_underpower_prob(n, ratio) < p
                if n > 2:
                    assert variance_underpower_prob(n - 1, ratio) >= p

    def test_over_side(self):
        n = pilot_n_exact(1.6, 0.2, side="over")
        df = n - 1
        assert 1.0 - chisq_cdf(df * 1.6, df) < 0.2
        assert 1.0 - chisq_cdf((df - 1) * 1.6, df - 1) >= 0.2

    def test_monotone_in_p(self):
        sizes = [pilot_n_exact(CANONICAL_RATIO, p) for p in (0.05, 0.1, 0.2, 0.3, 0.4)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_cap_error_names_cap(self):
        with pytest.raises(ValueError, match="50"):
            pilot_n_exact(0.999999, 0.01, cap=50)

    def test_cap_error_at_large_df(self):
        # the search probes df near 1e6, where the over-side miss reads the
        # chi-square just above its mean; the incomplete gamma answers there,
        # so the search reaches its cap instead of failing to converge
        with pytest.raises(ValueError, match=r"search cap \(1000000\)"):
            pilot_n_exact(1.00004, 0.2, "over")

    # the over-side miss rises before it falls (peaks at df 67 for ratio 1.01),
    # so 1.01 at p = .3 and .32 checks both branches of that shape
    @pytest.mark.parametrize("side,ratios", [
        ("under", (0.05, 0.3, 0.5, CANONICAL_RATIO, 0.8, 0.95)),
        ("over", (1.01, 1.05, 1.3, 1.6, 2.5, 6.0)),
    ])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_linear_scan(self, side, ratios, pooled):
        for ratio in ratios:
            for p in (0.05, 0.1, 0.2, 0.3, 0.32, 0.45):
                if ratio == 1.01 and p < 0.3:
                    continue  # tens of thousands of scan steps
                want = linear_scan(ratio, p, side, pooled)
                assert pilot_n_exact(ratio, p, side, pooled) == want, (ratio, p)

    @pytest.mark.parametrize("ratio,p,side", [(CANONICAL_RATIO, 0.1, "under"),
                                              (0.8, 0.05, "under"), (1.6, 0.2, "over")])
    def test_cap_boundary(self, ratio, p, side):
        n = linear_scan(ratio, p, side)
        assert pilot_n_exact(ratio, p, side, cap=n) == n
        with pytest.raises(ValueError, match=f"search cap \\({n - 1}\\)"):
            pilot_n_exact(ratio, p, side, cap=n - 1)

    def test_logarithmic_chisq_calls(self, monkeypatch):
        calls = []

        def counting(x, df):
            calls.append(df)
            return chisq_cdf(x, df)

        monkeypatch.setattr(variance, "chisq_cdf", counting)
        assert pilot_n_exact(0.99, 0.2) == 14206
        assert len(calls) <= 64

    @given(gap=st.floats(0.04, 0.95), p=st.floats(0.01, 0.49),
           side=st.sampled_from(["under", "over"]), pooled=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_post_condition_property(self, gap, p, side, pooled):
        ratio = 1.0 - gap if side == "under" else 1.0 + 4.0 * gap
        n = pilot_n_exact(ratio, p, side, pooled)
        assert _miss(n, ratio, side, pooled) < p
        assert n == 2 or _miss(n - 1, ratio, side, pooled) >= p

    def test_side_validation(self):
        with pytest.raises(ValueError):
            pilot_n_exact(1.2, 0.2, side="under")
        with pytest.raises(ValueError):
            pilot_n_exact(0.8, 0.2, side="over")
        with pytest.raises(ValueError):
            pilot_n_exact(0.8, 0.2, side="sideways")


class TestApproximation:
    def test_heuristic_rule(self):
        # the 5 / 12 / 25 ladder on the canonical ratio
        assert pilot_n_approx(CANONICAL_RATIO, 0.3) == 5
        assert pilot_n_approx(CANONICAL_RATIO, 0.2) == 12
        assert pilot_n_approx(CANONICAL_RATIO, 0.1) == 25

    def test_closed_form_value(self):
        # 2 * z_.8^2 / (r-1)^2 + 1 = 11.027560633632 on the canonical ratio
        z = 0.8416212335729143
        raw = 2 * z * z / (CANONICAL_RATIO - 1.0) ** 2 + 1.0
        assert raw == pytest.approx(11.0275606336, abs=1e-8)
        assert pilot_n_approx(CANONICAL_RATIO, 0.2) == math.ceil(raw)

    def test_pooled_ladder(self):
        # df = 2 z^2 / (r - 1)^2 pooled over two groups of n: n = df / 2 + 1,
        # 13 / 7 / 3 at p = .1 / .2 / .3 (exact search: 12 / 7 / 4)
        ps = (0.1, 0.2, 0.3)
        assert [pilot_n_approx(CANONICAL_RATIO, p, pooled=True) for p in ps] == [13, 7, 3]
        assert [pilot_n_approx(CANONICAL_RATIO, p, pooled=False) for p in ps] == [25, 12, 5]

    @pytest.mark.parametrize("p,n", [(1e-16, 847), (1e-17, 903)])
    def test_tiny_miss_probability(self, p, n):
        # 2 z_{1-p}^2 / 0.4^2 + 1 with scipy's norm.isf: 846.03 and 902.81;
        # z comes from the tail p itself, since 1 - p keeps few of its digits
        # and is 1 at 1e-17
        assert pilot_n_approx(0.6, p) == n

    @pytest.mark.parametrize("ratio,pooled", [(1.0 - 1e-5, False), (1.0 + 1e-5, False),
                                              (1.0 - 2e-5, True)])
    def test_size_past_1e9_raises(self, ratio, pooled):
        # df = 2 z^2 / (ratio - 1)^2 is 1.4e10 at 1e-5 from 1, and 3.5e9 at
        # 2e-5, so the pooled pilot needs 1.8e9 per group
        with pytest.raises(ValueError, match="pilot size exceeds 1e9; the variance ratio"):
            pilot_n_approx(ratio, 0.2, pooled=pooled)

    def test_cap_is_per_group(self):
        # at 3e-5 from 1, df = 1.57e9: past the cap for one pilot, and 7.9e8
        # per group pooled; sizes below the cap keep every digit
        with pytest.raises(ValueError, match="exceeds 1e9"):
            pilot_n_approx(1.0 - 3e-5, 0.2)
        assert pilot_n_approx(1.0 - 3e-5, 0.2, pooled=True) == 787_029_225
        assert pilot_n_approx(0.9999, 0.2) == 141_665_262

    def test_unit_ratio_rejected(self):
        with pytest.raises(ValueError):
            pilot_n_approx(1.0, 0.2)

    def test_monotone_in_p(self):
        sizes = [pilot_n_approx(CANONICAL_RATIO, p) for p in (0.05, 0.1, 0.2, 0.3, 0.4)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestPlan:
    def bounds(self, p=0.2):
        return PowerBounds(underpower_prob=p, underpower_threshold=0.6)

    def test_low_back_pain_trace(self):
        plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, self.bounds())
        assert plan.main_n_under == 158
        assert plan.sigma_under == pytest.approx(3.1600839030, abs=1e-9)
        assert plan.pilot_n_under == 12
        assert plan.pilot_n == 12
        assert plan.mode == APPROX

    def test_exact_mode_trace(self):
        plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                   self.bounds(0.1), mode=EXACT)
        assert plan.pilot_n == 22
        ratio = (plan.sigma_under / plan.sigma) ** 2
        assert variance_underpower_prob(plan.pilot_n, ratio) < 0.1

    def test_scale_invariance_exact_integers(self):
        base = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, self.bounds())
        for sigma in (2, 3, 5, 6):
            for delta in (1, 2, 3, 4):
                plan = plan_variance_pilot(EffectSpec(delta, sigma), TWO, 0.8, self.bounds())
                assert plan.pilot_n == base.pilot_n

    def test_monotone_in_underpower_prob(self):
        sizes = [plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, self.bounds(p)).pilot_n
                 for p in (0.05, 0.1, 0.2, 0.3)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_grows_as_threshold_approaches_target(self):
        sizes = [plan_variance_pilot(
            EffectSpec(1, 4), TWO, 0.8,
            PowerBounds(0.2, thr)).pilot_n for thr in (0.5, 0.6, 0.7)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_two_sided_takes_max(self):
        plan = plan_variance_pilot(
            EffectSpec(1, 4), TWO, 0.8,
            PowerBounds(0.2, 0.6, overpower_prob=0.2, overpower_threshold=0.9))
        assert plan.sigma_under < plan.sigma < plan.sigma_over
        assert plan.pilot_n == max(plan.pilot_n_under, plan.pilot_n_over)

    def test_threshold_above_target_rejected(self):
        with pytest.raises(ValueError, match="below"):
            plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                PowerBounds(0.2, 0.85))

    def test_pooled_pilot_needs_fewer_subjects(self):
        # pooling two groups doubles the variance df, so the per-group
        # requirement drops but stays above half the single-sample size
        single = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                     self.bounds(0.1), mode=EXACT)
        pooled = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8,
                                     self.bounds(0.1), mode=EXACT,
                                     pooled_pilot=True)
        assert pooled.pilot_n < single.pilot_n
        assert 2 * pooled.pilot_n >= single.pilot_n
        ratio = (pooled.sigma_under / pooled.sigma) ** 2
        assert variance_underpower_prob(pooled.pilot_n, ratio, pooled=True) < 0.1

    @pytest.mark.parametrize("mode,pooled,ladder", [
        (APPROX, False, [25, 12, 5]), (APPROX, True, [13, 7, 3]),
        (EXACT, False, [22, 12, 7]), (EXACT, True, [12, 7, 4]),
    ])
    def test_pooling_honoured_in_both_modes(self, mode, pooled, ladder):
        plans = [plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, self.bounds(p),
                                     mode=mode, pooled_pilot=pooled) for p in (0.1, 0.2, 0.3)]
        assert [plan.pilot_n for plan in plans] == ladder
        assert all(plan.config["pooled_pilot"] is pooled for plan in plans)

    def test_serializes_flat(self):
        plan = plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, self.bounds())
        (rec,) = plan.csv_rows()
        assert rec["pilot_n"] == 12
        assert rec["kind"] == "two-sample"
        assert set(plan.config) | set(plan.results) == set(rec)


@st.composite
def plan_inputs(draw):
    """A two-sample design, an underpower bound, an effect size d and a sigma."""
    power = draw(st.floats(0.7, 0.95))
    return dict(power=power, alpha=draw(st.floats(0.01, 0.1)),
                p=draw(st.floats(0.05, 0.45)),
                threshold=draw(st.floats(0.3, power - 0.05)),
                d=draw(st.floats(0.1, 1.5)), sigma=draw(st.floats(0.5, 8.0)))


def assert_same_plan(a, b, scale):
    """Equal sizes, and every real-valued result in proportion to ``scale``."""
    for key, va in a.results.items():
        vb = b.results[key]
        if isinstance(va, float):
            assert vb == pytest.approx(va * scale, rel=1e-9), key
        else:
            assert vb == va, key


class TestPlanProperties:
    def plan(self, x, mode, pooled, scale=1.0, **over):
        x = {**x, **over}
        return plan_variance_pilot(
            EffectSpec(x["d"] * x["sigma"] * scale, x["sigma"] * scale),
            TestDesign(TWO_SAMPLE, x["alpha"]), x["power"],
            PowerBounds(x["p"], x["threshold"]), mode=mode, pooled_pilot=pooled)

    @given(plan_inputs(), st.floats(0.05, 0.45), st.sampled_from([APPROX, EXACT]),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_tighter_bound_never_shrinks_pilot(self, x, p2, mode, pooled):
        tight, loose = sorted((x["p"], p2))
        assert (self.plan(x, mode, pooled, p=tight).pilot_n
                >= self.plan(x, mode, pooled, p=loose).pilot_n)

    @given(plan_inputs(), st.floats(0.3, 0.9), st.sampled_from([APPROX, EXACT]),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_threshold_nearer_target_never_shrinks_pilot(self, x, t2, mode, pooled):
        far, near = sorted((x["threshold"], min(t2, x["power"] - 0.05)))
        assert (self.plan(x, mode, pooled, threshold=near).pilot_n
                >= self.plan(x, mode, pooled, threshold=far).pilot_n)

    @given(plan_inputs(), st.floats(0.1, 10.0), st.sampled_from([APPROX, EXACT]),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_scaling_delta_and_sigma_keeps_plan(self, x, scale, mode, pooled):
        assert_same_plan(self.plan(x, mode, pooled), self.plan(x, mode, pooled, scale),
                         scale)


class TestBounds:
    def test_partial_overpower_rejected(self):
        with pytest.raises(ValueError):
            PowerBounds(0.2, 0.6, overpower_prob=0.2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PowerBounds(0.0, 0.6)
        with pytest.raises(ValueError):
            PowerBounds(0.2, 1.0)
