"""Power-core tests.

Size and power expectations are frozen from root-finding on the quadrature /
scipy noncentral-t power function (independent of this package); entries note
the frozen value where it is not a published one.
"""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pilotplan.distributions as distributions
import pilotplan.power as power_module
from pilotplan.distributions import (ConfigError, ConvergenceError, _nct_abs_sf, _t_mass, nct_cdf,
                                     t_quantile)
from pilotplan.effect import plan_effect_pilot
from pilotplan.power import (
    _first_true,
    _Sizer,
    _solve_increasing,
    EffectSpec,
    ONE_SAMPLE,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    arcsine_effect,
    effect_for_n,
    main_sample_size,
    mu_for_n,
    power_at,
    required_n,
    sigma_for_n,
)
from pilotplan.variance import PowerBounds, plan_variance_pilot

TWO = TestDesign(TWO_SAMPLE, 0.05)
ONE = TestDesign(ONE_SAMPLE, 0.05)


def _nearest_n(effect, design, power, mode=T_ITERATIVE):
    """The planners' main size: the integer nearest the requirement."""
    return _Sizer(design).size(effect, power, mode, 0.5)


class TestMainSampleSize:
    def test_low_back_pain_design(self):
        # exact requirement 157.7199 -> smallest adequate N is 158
        assert main_sample_size(EffectSpec(1, 4), TWO, 0.6) == 158

    def test_medium_effect_at_threshold_power(self):
        # exact requirement 40.1695: power(40) = 0.59815 < 0.6, so the
        # smallest adequate N is 41 (40 is the nearest-integer report)
        assert main_sample_size(EffectSpec(2, 4), TWO, 0.6) == 41
        assert round(required_n(EffectSpec(2, 4), TWO, 0.6)) == 40

    def test_small_effect_main_sizes(self):
        assert main_sample_size(EffectSpec(0.2), TWO, 0.6) == 246
        assert main_sample_size(EffectSpec(0.2), TWO, 0.8) == 394

    def test_reference_sizes_at_target_power(self):
        assert main_sample_size(EffectSpec(0.5), TWO, 0.8) == 64
        assert main_sample_size(EffectSpec(0.8), TWO, 0.8) == 26

    def test_z_mode_closed_form(self):
        # ceil(2 * (1.959964 + 0.841621)^2 * 16) = ceil(156.76) = 157
        assert main_sample_size(EffectSpec(1, 4), TWO, 0.6, Z_APPROX) == 157
        assert main_sample_size(EffectSpec(0.5), TWO, 0.8, Z_APPROX) == 63

    def test_required_n_fractional(self):
        # frozen root of the exact power curve: 157.71990592864
        assert required_n(EffectSpec(1, 4), TWO, 0.6) == pytest.approx(
            157.719906, abs=1e-4)
        assert required_n(EffectSpec(0.5), TWO, 0.6) == pytest.approx(
            40.169528, abs=1e-4)

    def test_required_n_z_mode_is_the_closed_form(self):
        # 2 (z_.975 + z_.8)^2 / 0.5^2 with scipy's quantiles 1.959963984540054
        # and 0.8416212335729143 is 62.7910378748
        assert required_n(EffectSpec(0.5), TWO, 0.8, Z_APPROX) == pytest.approx(
            62.7910378748, rel=1e-11)

    def test_zero_effect_rejected(self):
        with pytest.raises(ValueError):
            main_sample_size(EffectSpec(0.0, 1.0), TWO, 0.8)

    def test_size_guard_applies_before_bracketing(self):
        # the closed form alone says 1.57e9 per group: rejected in both modes
        for mode in (T_ITERATIVE, Z_APPROX):
            with pytest.raises(ValueError, match="exceeds 1e9"):
                required_n(EffectSpec(1e-4), TWO, 0.8, mode)
        # 1.57e7 per group is large but within the guard
        assert required_n(EffectSpec(1e-3), TWO, 0.8) == pytest.approx(1.57e7, rel=0.01)

    @pytest.mark.parametrize("mode", [T_ITERATIVE, Z_APPROX])
    @pytest.mark.parametrize("effect", [1e-170, 1e-300, 5e-324])
    def test_effect_whose_square_underflows(self, effect, mode):
        # d^2 is 0 here: the 1e9 guard must fire before the closed form divides
        for solve in (required_n, main_sample_size, _nearest_n):
            with pytest.raises(ValueError, match="exceeds 1e9"):
                solve(EffectSpec(effect), TWO, 0.8, mode)

    @pytest.mark.parametrize("mode", [T_ITERATIVE, Z_APPROX])
    @pytest.mark.parametrize("effect,sigma", [(1e-300, 1e300), (1e-200, 1e200)])
    def test_effect_size_that_underflows(self, effect, sigma, mode):
        # a positive effect whose size underflows to 0 breaks no rule: the
        # study it needs passes 1e9, a computation's error, not the usage
        # error of an effect of 0
        for solve in (required_n, main_sample_size, _nearest_n):
            with pytest.raises(ValueError, match="exceeds 1e9") as raised:
                solve(EffectSpec(effect, sigma), TWO, 0.8, mode)
            assert not isinstance(raised.value, ConfigError)
        # at a power at or below alpha / 2 every size reaches it, at effect 0 too
        assert main_sample_size(EffectSpec(effect, sigma), TWO, 0.01, mode) == 2

    @pytest.mark.parametrize("mode", [T_ITERATIVE, Z_APPROX])
    @pytest.mark.parametrize("effect,sigma", [(1e7, 1.0), (1e160, 1.0), (1e300, 1.0),
                                              (1.0, 1e-300), (1.0, 1e-320)])
    def test_huge_effect_rejected(self, effect, sigma, mode):
        # the square of the effect size overflows from 1.3e154 on, and at
        # 1 / 1e-320 the effect size itself does; the guard fires before either
        # and names the inputs, not the noncentrality
        for solve in (required_n, main_sample_size, _nearest_n):
            with pytest.raises(ValueError,
                               match=re.escape(f"effect {effect!r} over sigma {sigma!r}")):
                solve(EffectSpec(effect, sigma), TWO, 0.8, mode)

    def test_largest_effect_is_the_minimum_size(self):
        start = time.perf_counter()
        for design in (ONE, TWO):
            assert main_sample_size(EffectSpec(1e6), design, 0.8) == 2
            assert main_sample_size(EffectSpec(1.0, 1e-6), design, 0.8) == 2
        with pytest.raises(ValueError, match="effect size of 1e\\+10"):
            main_sample_size(EffectSpec(1e10), TWO, 0.8)
        assert time.perf_counter() - start < 2.0

    def test_power_at_huge_effect_names_ncp(self):
        # power_at has no effect-size guard of its own: at ncp 1.4e20 the
        # noncentral t's Poisson weight overflows, at 1.4e160 so does
        # ncp^2 / 2, and an effect size that overflows to inf makes ncp inf;
        # each is a failed computation, a ValueError naming ncp, not a usage error
        for effect in (EffectSpec(1e20), EffectSpec(1e160), EffectSpec(1e300, 1e-300)):
            with pytest.raises(ValueError, match="ncp .* is too large") as caught:
                power_at(2, effect, ONE)
            assert not isinstance(caught.value, ConfigError), effect

    @pytest.mark.parametrize("effect,power",
                             [(0.5, 1e-6), (0.5, 1e-3), (1e-6, 1e-6), (1e-300, 1e-6)])
    def test_power_at_most_alpha_half_is_the_minimum_size(self, effect, power):
        # at a power at or below alpha / 2, z_{1-a/2} + z_power <= 0: every
        # size reaches it, so both modes give the floor, not the square of a
        # negative sum (63 at 1e-6 in z-approx mode, and past 1e9 at effect 1e-6),
        # nor 0 / 0 where the effect's square underflows (at 1e-300)
        for mode in (Z_APPROX, T_ITERATIVE):
            for solve in (main_sample_size, _nearest_n, required_n):
                assert solve(EffectSpec(effect), TWO, power, mode) == 2, (mode, solve)

    def test_power_bounds_rejected(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                main_sample_size(EffectSpec(0.5), TWO, bad)


class TestPowerAt:
    def test_threshold_design_power(self):
        assert power_at(158, EffectSpec(0.25), TWO) == pytest.approx(0.60, abs=0.01)
        # frozen exact value 0.6007633
        assert power_at(158, EffectSpec(0.25), TWO) == pytest.approx(0.6007633, abs=1e-6)

    def test_target_design_power(self):
        assert power_at(64, EffectSpec(0.5), TWO) == pytest.approx(0.80, abs=0.01)

    def test_saturates(self):
        assert power_at(1e6, EffectSpec(0.25), TWO) > 0.999

    def test_increasing_in_n(self):
        vals = [power_at(n, EffectSpec(0.3), TWO) for n in range(5, 400, 7)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            power_at(1, EffectSpec(0.5), TWO)

    def test_alpha_without_critical_value_rejected(self):
        # below about 1.1e-16, 1 - alpha / 2 rounds to 1.0: the design names alpha
        with pytest.raises(ValueError, match="alpha must be in .* got 1e-300"):
            power_at(3, EffectSpec(0.7), TestDesign(ONE_SAMPLE, 1e-300))
        with pytest.raises(ValueError, match="alpha"):
            TestDesign(ONE_SAMPLE, 2.0 ** -53)
        assert 1.0 - TestDesign(ONE_SAMPLE, math.nextafter(2.0 ** -53, 1.0)).alpha / 2.0 < 1.0


class TestTwoSidedPower:
    """_nct_abs_sf sums P(|T| > c) as one noncentral-F Poisson series; it agrees
    with the two tails (1 - nct_cdf(c)) + nct_cdf(-c) and with scipy."""

    @given(df=st.floats(1.0, 2000.0) | st.floats(1.0, 3.0),
           alpha=st.floats(1e-6, 0.5) | st.just(1e-6), ncp=st.floats(0.0, 40.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_nct_cdf_tails(self, df, alpha, ncp):
        # df 1 at alpha 1e-6 puts 1 - y under 2^-26, the series' far branch
        c = t_quantile(1.0 - alpha / 2.0, df)
        lower = nct_cdf(-c, df, ncp)
        want = (1.0 - nct_cdf(c, df, ncp)) + lower
        # nct_cdf clips a lower tail that rounding made negative at 0, and so
        # drops that error from `want` (about 5e-13 at most seen, at df under 4
        # and ncp near 40)
        assert abs(_nct_abs_sf(c, df, ncp) - want) <= (1e-13 if lower > 0.0 else 1e-12)

    def test_matches_scipy_noncentral_f(self):
        # T^2 is noncentral F(1, df, ncp^2); scipy's ncf is off at nc = 0
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        for _ in range(400):
            df = float(np.exp(rng.uniform(0.0, math.log(2000.0))))
            alpha = float(np.exp(rng.uniform(math.log(1e-6), math.log(0.5))))
            ncp = float(rng.uniform(1e-9, 40.0))
            c = t_quantile(1.0 - alpha / 2.0, df)
            want = scipy_stats.ncf.sf(c * c, 1.0, df, ncp * ncp)
            assert _nct_abs_sf(c, df, ncp) == pytest.approx(want, abs=1e-11), (df, alpha, ncp)
        for df in (1.0, 1.5, 2.0):      # 1 - y is under 2^-26 (the far branch) at df 1
            c = t_quantile(1.0 - 5e-7, df)
            for ncp in (0.5, 5.0, 40.0):
                want = scipy_stats.ncf.sf(c * c, 1.0, df, ncp * ncp)
                assert _nct_abs_sf(c, df, ncp) == pytest.approx(want, abs=1e-11), (df, ncp)

    @pytest.mark.parametrize("df", [1.0, 2.0, 7.5, 62.0, 1e4])
    @pytest.mark.parametrize("alpha", [1e-15, 1e-6, 0.05, 0.5])
    def test_central_bits(self, df, alpha):
        # at ncp 0, twice the t tail from its own mass, to the bit, and within
        # 1e-13 of scipy's: the sum (1 - F(c)) + F(-c) rounded the upper tail
        # away, 5.5% of it at alpha 1e-15
        c = t_quantile(1.0 - alpha / 2.0, df)
        assert _nct_abs_sf(c, df, 0.0) == 2.0 * _t_mass(c, df)
        scipy_stats = pytest.importorskip("scipy.stats")
        assert _nct_abs_sf(c, df, 0.0) == pytest.approx(2.0 * scipy_stats.t.sf(c, df),
                                                        rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,alpha", [(5, 1e-15), (31, 1e-12)])
    def test_power_at_zero_effect_is_alpha(self, n, alpha):
        # the critical value meets its tail to _INVERT_TOL, relative
        assert power_at(n, EffectSpec(0.0), TestDesign(ONE_SAMPLE, alpha)) == pytest.approx(
            alpha, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("df,alpha", [(62.0, 0.05), (1.0, 1e-6)])
    def test_series_cap_raises(self, df, alpha, monkeypatch):
        # at ncp 20 the sweep up from the Poisson mode (200) stops where the
        # weights fall under 1e-18, over 100 terms on, or where its ratio is 0.
        # At 20 times the critical value, and 4 ulps either side, the ratio it
        # carries (I_y(a, df/2), or in the far branch at df 1 its upper tail)
        # stays over 1e-9 for the first 50 terms, so rounding cannot stop the
        # sweep there (at the critical value itself it is under 1e-200, and
        # whether it stopped early turned on c's last bits).  With the cap cut
        # to 50 it raises instead of returning a partial sum.
        scipy_special = pytest.importorskip("scipy.special")
        cs = [20.0 * t_quantile(1.0 - alpha / 2.0, df)]
        for _ in range(4):
            cs = [math.nextafter(cs[0], 0.0), *cs, math.nextafter(cs[-1], math.inf)]
        for c in cs:
            y, w = c * c / (c * c + df), df / (c * c + df)
            for a in (200.5, 250.5):
                ratio = (scipy_special.betainc(0.5 * df, a, w) if w < distributions._FAR
                         else scipy_special.betainc(a, 0.5 * df, y))
                assert ratio > 1e-9, (c, a)
            assert 0.0 < _nct_abs_sf(c, df, 20.0) <= 1.0
        monkeypatch.setattr(distributions, "_MAX_SERIES", 50)
        for c in cs:
            with pytest.raises(ConvergenceError, match="upward"):
                _nct_abs_sf(c, df, 20.0)


class TestInverseSolves:
    def test_sigma_for_low_back_pain(self):
        # both quantile modes stay inside the published 3.16 +/- 0.02
        assert sigma_for_n(158, EffectSpec(1), TWO, 0.8) == pytest.approx(3.16, abs=0.02)
        assert sigma_for_n(158, EffectSpec(1), TWO, 0.8, T_ITERATIVE) == pytest.approx(
            3.16, abs=0.02)

    def test_sigma_inverse_consistency(self):
        for sigma, delta, power in ((4.0, 1.0, 0.8), (2.5, 1.5, 0.7), (1.0, 0.4, 0.9)):
            n = main_sample_size(EffectSpec(delta, sigma), TWO, power, Z_APPROX)
            back = sigma_for_n(n, EffectSpec(delta), TWO, power)
            n_back = main_sample_size(EffectSpec(delta, back), TWO, power, Z_APPROX)
            assert abs(n_back - n) <= 1

    def test_sigma_scale_equivariance(self):
        a = sigma_for_n(40, EffectSpec(1.0), TWO, 0.8)
        b = sigma_for_n(40, EffectSpec(2.0), TWO, 0.8)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_mu_for_reference_sizes(self):
        assert mu_for_n(40, 1.0, TWO, 0.8) == pytest.approx(0.63, abs=0.01)
        assert mu_for_n(246, 1.0, TWO, 0.8) == pytest.approx(0.253, abs=0.002)
        assert mu_for_n(246, 1.0, TWO, 0.8, T_ITERATIVE) == pytest.approx(0.253, abs=0.002)

    def test_mu_monotone_in_power(self):
        assert mu_for_n(40, 1.0, TWO, 0.8) > mu_for_n(40, 1.0, TWO, 0.6)

    def test_effect_for_n_matches_power(self, monkeypatch):
        # the solve gallops from the z effect by Guenther's correction, then
        # narrows by Illinois: 9, 8 and 7 power evaluations; counted, not
        # timed
        calls = []
        abs_sf = power_module._nct_abs_sf

        def counted_sf(*args):
            calls[-1] += 1
            return abs_sf(*args)

        monkeypatch.setattr(power_module, "_nct_abs_sf", counted_sf)
        for n in (10, 64, 246):
            calls.append(0)
            d = effect_for_n(n, TWO, 0.8, T_ITERATIVE)
            assert calls[-1] <= 10, (n, calls)
            assert power_at(n, EffectSpec(d), TWO) == pytest.approx(0.8, abs=1e-9)

    def test_effect_for_n_evaluates_each_mode_once(self, monkeypatch):
        # the solve's power curve keeps the series terms of each Poisson mode
        # int(ncp^2 / 2) it visits: one _beta_term call (only the series makes
        # them) per distinct mode, 3, 2 and 1 here against 9, 8 and 7 power
        # evaluations, and each reused value has the bits of a fresh call
        beta_calls, seen = [0], []
        beta_term, abs_sf = distributions._beta_term, power_module._nct_abs_sf

        def counted_beta(*args):
            beta_calls[0] += 1
            return beta_term(*args)

        def recorded_sf(*args):
            got = abs_sf(*args)
            seen.append((args[:3], got))
            return got

        monkeypatch.setattr(distributions, "_beta_term", counted_beta)
        monkeypatch.setattr(power_module, "_nct_abs_sf", recorded_sf)
        modes = []
        for n in (10, 64, 246):
            beta_calls[0], first = 0, len(seen)
            effect_for_n(n, TWO, 0.8, T_ITERATIVE)
            visited = {int(0.5 * ncp * ncp) for (_, _, ncp), _ in seen[first:]}
            assert beta_calls[0] == len(visited), (n, beta_calls, visited)
            modes.append(len(visited))
        assert modes == [3, 2, 1]
        monkeypatch.undo()
        assert all(abs_sf(*args).hex() == got.hex() for args, got in seen)

    @pytest.mark.parametrize("kind", [ONE_SAMPLE, TWO_SAMPLE])
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("power", [0.6, 0.8, 0.9])
    def test_effect_for_n_array_matches_scalar(self, kind, alpha, power):
        # an array of sizes is solved one size per call: each t-iterative
        # effect is the exact power root, and the z-approx effects are the
        # closed form evaluated over the whole array at once
        design = TestDesign(kind, alpha)
        ns = np.array([2, 3, 4, 5, 7, 10, 16, 25, 40, 64, 100, 158, 250, 400, 600])
        with pytest.raises(ConfigError, match="scalar arguments"):
            effect_for_n(ns, design, power, T_ITERATIVE)
        for n in ns:
            d = effect_for_n(int(n), design, power, T_ITERATIVE)
            assert power_at(n, EffectSpec(d), design) == pytest.approx(power, abs=1e-9)
        z = _Sizer(design).zsum(power) * np.sqrt(design.groups / ns)
        assert z.tolist() == [effect_for_n(int(n), design, power) for n in ns]

    def test_effect_for_n_at_tiny_alpha(self):
        # scipy: c = t.isf(5e-16, 4) = 8801.117, and ncf.sf(c^2, 1, 4, 5 d^2)
        # reaches 0.8 at d = 4815.9955 (brentq); an absolute stop on the t
        # CDF gave c = 469.0 and d = 256.6, and doubling from the z effect
        # outran the noncentral series' cap at d = 8110
        design = TestDesign(ONE_SAMPLE, 1e-15)
        assert effect_for_n(5, design, 0.8, T_ITERATIVE) == pytest.approx(4815.9955, rel=1e-7)
        # at df 1 the critical value is about 6e14, and the bound on the
        # effect that reaches the power passes 1e6
        with pytest.raises(ValueError, match="no finite effect"):
            effect_for_n(2, design, 0.8, T_ITERATIVE)

    def test_effect_bound_reads_its_curves_critical_value(self, monkeypatch):
        # the bracket's provable bound at n = 5 reads the critical value the
        # power curve at n holds, not a second solve at df 4
        dfs, t_quantile_ = [], power_module.t_quantile
        monkeypatch.setattr(power_module, "t_quantile",
                            lambda p, df: dfs.append(df) or t_quantile_(p, df))
        design = TestDesign(ONE_SAMPLE, 1e-15)
        assert effect_for_n(5, design, 0.8, T_ITERATIVE).hex() == "0x1.2cffecd1808cep+12"
        assert dfs == [4.0]

    def test_z_effect_at_tiny_alpha(self):
        # scipy: norm.isf(5e-16) = 8.02685888253454; from 1 - 5e-16, which
        # rounds to 1 - 5.55e-16, z was 8.0140
        design = TestDesign(ONE_SAMPLE, 1e-15)
        assert effect_for_n(4, design, 0.5) == pytest.approx(8.02685888253454 / 2.0, rel=1e-13)

    def test_effect_for_n_array_rejects_small_n(self):
        # one size per call: arrays are rejected whatever they hold
        with pytest.raises(ConfigError, match="scalar arguments"):
            effect_for_n(np.array([1.5, 10.0]), TWO, 0.8, T_ITERATIVE)
        with pytest.raises(ValueError, match=">= 2"):
            effect_for_n(1.5, TWO, 0.8, T_ITERATIVE)


class TestRootSolver:
    def test_iteration_cap_raises(self):
        # with xtol = 0 the bracket never collapses to zero width: lo and hi
        # keep f(lo) < target <= f(hi), so the solve must hit its cap
        f = lambda x: x ** 3
        with pytest.raises(ConvergenceError):
            _solve_increasing(f, 0.3, 0.0, 1.0, f(0.0), f(1.0), 0.0)


class TestArcsineEffect:
    def test_fall_prevention_value(self):
        # 2 asin(sqrt(.5)) - 2 asin(sqrt(.4)) = 0.2013579208 exactly
        spec = arcsine_effect(0.5, 0.4)
        assert spec.sigma == 1.0
        assert spec.effect == pytest.approx(0.2013579208, abs=1e-9)

    def test_equal_proportions(self):
        assert arcsine_effect(0.3, 0.3).effect == 0.0

    def test_endpoint_identity(self):
        assert arcsine_effect(1.0, 0.0).effect == pytest.approx(math.pi, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            arcsine_effect(1.2, 0.4)
        with pytest.raises(ValueError):
            arcsine_effect(0.4, 0.5)
        with pytest.raises(ValueError):
            arcsine_effect(0.5, -0.1)


class TestInvariants:
    GRID = [(0.2, 0.8), (0.25, 0.6), (0.4, 0.7), (0.5, 0.8), (0.8, 0.9), (1.2, 0.75)]

    def test_inverse_pair_property(self):
        # smallest adequate N: power(N) >= target, power(N-1) < target
        for d, power in self.GRID:
            n = main_sample_size(EffectSpec(d), TWO, power)
            assert power_at(n, EffectSpec(d), TWO) >= power
            assert power_at(n - 1, EffectSpec(d), TWO) < power

    def test_scale_invariance_exact(self):
        for d, power in self.GRID:
            base = main_sample_size(EffectSpec(d, 1.0), TWO, power)
            for c in (0.25, 3.0, 17.5):
                assert main_sample_size(EffectSpec(c * d, c), TWO, power) == base

    def test_two_sample_about_twice_one_sample(self):
        for d, power in self.GRID:
            # pure rounding in z mode; t mode also carries the df gap
            # (the one-sample design has half the degrees of freedom)
            nz2 = main_sample_size(EffectSpec(d), TWO, power, Z_APPROX)
            nz1 = main_sample_size(EffectSpec(d), ONE, power, Z_APPROX)
            assert abs(nz2 - 2 * nz1) <= 1
            nt2 = main_sample_size(EffectSpec(d), TWO, power)
            nt1 = main_sample_size(EffectSpec(d), ONE, power)
            assert abs(nt2 - 2 * nt1) <= 5

    def test_z_vs_t_within_two(self):
        for d, power in self.GRID:
            nt = main_sample_size(EffectSpec(d), TWO, power)
            nz = main_sample_size(EffectSpec(d), TWO, power, Z_APPROX)
            if nt >= 20:
                assert abs(nt - nz) <= 2

    def test_one_sided_quantile_convention(self):
        # the sizing uses the alpha/2 quantile: halving alpha to alpha/2
        # directly must give a larger study than the alpha/2-quantile size
        n = main_sample_size(EffectSpec(0.5), TestDesign(TWO_SAMPLE, 0.05), 0.8)
        n_tighter = main_sample_size(EffectSpec(0.5), TestDesign(TWO_SAMPLE, 0.025), 0.8)
        assert n_tighter > n


class TestIntegerSearch:
    """main_sample_size and the planners' nearest-integer size search over
    integers on power_at instead of rounding a real root."""

    @given(st.sampled_from([ONE_SAMPLE, TWO_SAMPLE]), st.sampled_from([0.01, 0.05, 0.1]),
           st.floats(0.1, 0.95), st.floats(0.02, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_post_conditions(self, kind, alpha, power, d):
        design = TestDesign(kind, alpha)
        effect = EffectSpec(d)
        n = main_sample_size(effect, design, power)
        assert power_at(n, effect, design) >= power
        assert n == 2 or power_at(n - 1, effect, design) < power
        # both planners report max(2, floor(required_n + 1/2)) at the threshold
        nearest = max(2, math.floor(required_n(effect, design, power) + 0.5))
        assert _nearest_n(effect, design, power) == nearest
        target, bounds = power + 0.5 * (1.0 - power), PowerBounds(0.3, power)
        assert plan_variance_pilot(effect, design, target, bounds).main_n_under == nearest
        assert plan_effect_pilot(d, 1.0, design, target, bounds).main_n_under == nearest

    def test_logarithmic_power_calls(self, monkeypatch):
        # about 1.6e7 per group: the search costs O(log n) power evaluations,
        # each on the sizer's power curve at its size
        calls = []
        curve, power_at_ = power_module._Sizer.curve, power_module.power_at
        monkeypatch.setattr(power_module._Sizer, "curve", lambda self, n: (
            lambda d, pw=curve(self, n): calls.append(n) or pw(d)))
        effect = EffectSpec(1e-3)
        n = main_sample_size(effect, TWO, 0.8)
        assert 1.5e7 < n < 1.6e7
        assert len(calls) <= 2 * math.log2(n)
        assert power_at_(n, effect, TWO) >= 0.8 > power_at_(n - 1, effect, TWO)
        calls.clear()
        assert _nearest_n(effect, TWO, 0.8) in (n - 1, n)
        assert len(calls) <= 2 * math.log2(n)

    def test_gallop_stops_at_1e9(self, monkeypatch):
        # a power curve that never reaches the target: the gallop gives up
        # at 1e9 per group, after O(log n) evaluations
        calls = []
        monkeypatch.setattr(power_module._Sizer, "curve",
                            lambda self, n: lambda d: calls.append(n) or 0.0)
        with pytest.raises(ValueError, match="exceeds 1e9"):
            main_sample_size(EffectSpec(0.5), TWO, 0.8)
        assert max(calls) == 10 ** 9
        assert len(calls) <= 32

    @given(threshold=st.integers(1, 3000), lo=st.sampled_from([0, 1]),
           start=st.integers(-5, 6000), cap_shift=st.sampled_from([None, 0, -1]),
           cap=st.integers(-2, 7000))
    @settings(max_examples=300, deadline=None)
    def test_first_true_matches_linear_scan(self, threshold, lo, start, cap_shift, cap):
        # ok fails below the threshold and holds from it on; lo must fail
        threshold = max(threshold, lo + 1)
        if cap_shift is not None:
            cap = threshold + cap_shift     # the answer itself, or one below it
        calls = []

        def ok(n):
            assert n > lo
            calls.append(n)
            return n >= threshold

        want = next((n for n in range(lo + 1, cap + 1) if n >= threshold), None)
        if want is None:
            with pytest.raises(ValueError, match="too large"):
                _first_true(ok, lo, start, cap, "too large")
        else:
            assert _first_true(ok, lo, start, cap, "too large") == want
        # O(log n): a gallop and a bisection over the distance from the start
        assert len(calls) <= 2 * math.log2(abs(start - threshold) + 1) + 3

    @given(kind=st.sampled_from([ONE_SAMPLE, TWO_SAMPLE]),
           alpha=st.floats(-6.0, math.log10(0.5)).map(lambda e: 10.0 ** e),
           effects=st.lists(st.one_of(st.floats(1e-5, 4.0), st.sampled_from([0.0, 2e6, -1.0])),
                            min_size=1, max_size=3),
           powers=st.lists(st.one_of(st.floats(1e-8, 1.0 - 1e-8), st.sampled_from([1.0, 80])),
                           min_size=1, max_size=2),
           sizes=st.lists(st.one_of(st.integers(2, 300), st.floats(2.0, 1e4)),
                          min_size=1, max_size=3),
           calls=st.lists(st.tuples(st.sampled_from(["size", "nearest", "required", "bracket"]),
                                    st.integers(0, 2), st.integers(0, 1),
                                    st.sampled_from([T_ITERATIVE] * 3 + [Z_APPROX, "exact"])),
                          min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_shared_sizer_answers_as_fresh_calls(self, kind, alpha, effects, powers, sizes,
                                                 calls):
        # one sizer answers an interleaved run of sizings and effect brackets,
        # reusing its z terms and power curves, exactly as a fresh public call
        # answers each: the same number to the bit, or the same error.  A
        # bracket is t-iterative ``effect_for_n`` at a size n, whose checks
        # (n >= 2, power in (alpha, 1)) come before its bracket.  The effects,
        # powers and sizes come from short lists, so that later calls read what
        # earlier ones built, as a reference table's cells do
        design = TestDesign(kind, alpha)
        sizer = power_module._Sizer(design)
        shared = {"size": lambda *a: sizer.size(*a, 0.0),
                  "nearest": lambda *a: sizer.size(*a, 0.5), "required": sizer.required,
                  "bracket": lambda n, power, _: sizer.bracket(n, power, 1e-12)[1]}
        fresh = {"size": main_sample_size, "nearest": _nearest_n, "required": required_n,
                 "bracket": lambda n, d, power, _: effect_for_n(n, d, power, T_ITERATIVE)}

        def outcome(f, *args):
            try:
                got = f(*args)
            except (ValueError, ConvergenceError) as exc:
                return type(exc), str(exc)
            return type(got), got.hex() if isinstance(got, float) else got

        for name, i, j, mode in calls:
            d, power = effects[i % len(effects)], powers[j % len(powers)]
            if name == "bracket":
                if not alpha < power < 1.0:
                    continue
                d = sizes[i % len(sizes)]
            assert (outcome(shared[name], d, power, mode)
                    == outcome(fresh[name], d, design, power, mode)), (name, d, power, mode)


@pytest.mark.parametrize("plan", [
    lambda bounds: plan_variance_pilot(EffectSpec(1, 4), TWO, 0.8, bounds),
    lambda bounds: plan_effect_pilot(2.0, 4.0, TWO, 0.8, bounds),
])
def test_plan_computes_each_z_level_once(monkeypatch, plan):
    # a plan's one sizer computes z_{1-a/2}, the target's z and each
    # threshold's z once, however many sizings and z sums read them
    levels, norm_quantile = [], power_module.norm_quantile
    monkeypatch.setattr(power_module, "norm_quantile",
                        lambda p: levels.append(p) or norm_quantile(p))
    plan(PowerBounds(0.2, 0.6, 0.2, 0.95))
    assert sorted(levels) == [0.025, 0.6, 0.8, 0.95]


@pytest.mark.parametrize("design", [TestDesign(), TestDesign(ONE_SAMPLE, 0.01)])
@pytest.mark.parametrize("d", [0.05, 0.5, 2.0, 3])
def test_plain_effect_size_sizes_as_its_effect_spec(design, d):
    # a plain number is an effect size: the sizes and powers of EffectSpec(d),
    # to the bit, in every mode
    spec = EffectSpec(d)
    for mode in (T_ITERATIVE, Z_APPROX):
        assert main_sample_size(d, design, 0.8, mode) == main_sample_size(spec, design, 0.8, mode)
        assert required_n(d, design, 0.8, mode) == required_n(spec, design, 0.8, mode)
        assert _nearest_n(d, design, 0.6, mode) == _nearest_n(spec, design, 0.6, mode)
    assert power_at(12.5, d, design) == power_at(12.5, spec, design)


def test_plain_effect_size_keeps_the_effect_rules():
    with pytest.raises(ConfigError, match="effect size must be finite and >= 0, got -0.5"):
        main_sample_size(-0.5, TestDesign(), 0.8)
    with pytest.raises(ConfigError, match="effect size must be finite and >= 0, got nan"):
        power_at(10, math.nan)
    with pytest.raises(ConfigError, match="effect of 0 means an infinite study"):
        required_n(0.0, TestDesign(), 0.8)
    with pytest.raises(ConfigError, match="scalar"):
        main_sample_size([0.5], TestDesign(), 0.8)
    with pytest.raises(ValueError, match="effect 2000000.0 is an effect size of 2e"):
        main_sample_size(2e6, TestDesign(), 0.8)
    assert power_at(10, 0) == pytest.approx(0.05, abs=1e-12)
