"""Distribution layer tests.

Expected values are frozen from two independent sources:
  - scipy.stats reference evaluations (cross-implementation check), and
  - direct numerical integration (scipy.integrate.quad over the explicit
    density/mixture forms written out in this file), which is the oracle the
    noncentral-t accuracy target is stated against.
The implementations under test share no code with either.
"""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pilotplan.distributions as distributions
from pilotplan.distributions import (
    ConvergenceError,
    _gammainc_lower,
    _log_beta,
    chisq_cdf,
    chisq_quantile,
    nct_cdf,
    norm_cdf,
    norm_quantile,
    t_cdf,
    t_quantile,
)

scipy_stats = pytest.importorskip("scipy.stats")
scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_special = pytest.importorskip("scipy.special")


def nct_cdf_by_quadrature(t, df, ncp):
    """Independent oracle: P(T <= t) = E_V[Phi(t sqrt(V/df) - ncp)], V ~ chi2_df."""
    f = lambda v: scipy_stats.norm.cdf(t * math.sqrt(v / df) - ncp) * scipy_stats.chi2.pdf(v, df)
    lo = max(0.0, df - 12 * math.sqrt(2 * df) - 12)
    hi = df + 14 * math.sqrt(2 * df) + 20
    val, _ = scipy_integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12,
                                  points=[df - 2, df, df + 2] if df > 4 else None)
    return val


def nct_by_quadrature_in_s(t, df, ncp, density=False):
    """Independent oracle over S = sqrt(V/df), V ~ chi2_df, whose density is
    smooth at 0 for every df >= 1: P(T <= t) = E[Phi(t S - ncp)], and with
    ``density`` f(t) = E[S phi(t S - ncp)]."""
    root, log_c = math.sqrt(df), (0.5 * df - 1.0) * math.log(2.0) + math.lgamma(0.5 * df)

    def f(s):
        x, z = s * root, t * s - ncp
        g = (s * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) if density
             else 0.5 * math.erfc(-z / math.sqrt(2.0)))
        return g * root * math.exp((df - 1.0) * math.log(x) - 0.5 * x * x - log_c) if x else 0.0

    width = 14.0 / math.sqrt(2.0 * df)
    val, _ = scipy_integrate.quad(f, max(0.0, 1.0 - width), 2.0 + width, limit=400,
                                  epsabs=1e-15, epsrel=1e-12, points=[1.0])
    return val


def norm_cdf_by_quadrature(x):
    val, _ = scipy_integrate.quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi), -40.0, x,
        limit=200, epsabs=1e-14)
    return val


class TestNormCdf:
    def test_zero_is_half(self):
        assert norm_cdf(0.0) == 0.5

    def test_upper_point(self):
        # high-resolution quadrature of the density: 0.9750000009035...
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-7)
        assert norm_cdf(1.959964) == pytest.approx(norm_cdf_by_quadrature(1.959964), abs=1e-12)

    def test_lower_point(self):
        assert norm_cdf(-1.281552) == pytest.approx(0.10, abs=1e-7)

    def test_scipy_cross_check(self):
        xs = np.linspace(-8, 8, 401).tolist()
        assert max(abs(norm_cdf(x) - scipy_stats.norm.cdf(x)) for x in xs) < 1e-14

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.33, 5.5):
            assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_far_tails(self):
        assert norm_cdf(-30.0) == pytest.approx(4.906713927147908e-198, rel=1e-12, abs=0.0)
        assert norm_cdf(30.0) == 1.0

    def test_subnormal_tail(self):
        # a subnormal: mpmath's ncdf(-38) at 30 digits is
        # 2.88542836006878430835e-316, where scipy's ndtr returns 0
        assert norm_cdf(-38.0) == pytest.approx(2.885428360068784e-316, rel=1e-6, abs=0.0)

    def test_array_shape(self):
        # one point per call: an array of any shape is a ValueError
        zeros = np.zeros((3, 2))
        with pytest.raises(ValueError, match="scalar"):
            norm_cdf(zeros)
        assert all(norm_cdf(x) == 0.5 for x in zeros.ravel().tolist())

    def test_nonfinite_rejected(self):
        for x in (float("nan"), np.inf):
            with pytest.raises(ValueError, match="finite"):
                norm_cdf(x)
        with pytest.raises(ValueError, match="scalar"):
            norm_cdf(np.array([0.0, np.inf]))


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_points(self):
        # bisection on the quadrature CDF gives 0.8416212335729...
        assert norm_quantile(0.8) == pytest.approx(0.841621, abs=1e-5)
        assert norm_quantile(0.7) == pytest.approx(0.524401, abs=1e-5)
        # scipy: 0.8416212335729143, 1.959963984540054
        assert norm_quantile(0.8) == pytest.approx(0.8416212335729143, rel=1e-12)
        assert norm_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)

    def test_round_trip_tight(self):
        ps = np.linspace(1e-9, 1 - 1e-9, 811).tolist() + [1e-12, 1e-10, 1 - 1e-10]
        assert max(abs(norm_cdf(norm_quantile(p)) - p) for p in ps) < 1e-10

    def test_endpoints_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_quantile(p)

    def test_against_ndtri(self):
        # p log-uniform over [5e-324, 0.5], down into the subnormals, and the
        # mirror 1 - q for q log-uniform over [2^-53, 0.5]
        rng = np.random.default_rng(18)
        low = np.exp(rng.uniform(math.log(5e-324), math.log(0.5), 2000))
        high = 1.0 - np.exp(rng.uniform(-53.0 * math.log(2.0), math.log(0.5), 2000))
        ps = np.concatenate([low, high, [5e-324, sys.float_info.min, 1.0 - 2.0 ** -53]])
        got = np.array([norm_quantile(p) for p in ps.tolist()])
        assert np.abs(got / scipy_special.ndtri(ps) - 1.0).max() <= 2e-15


class TestChiSquare:
    def test_cdf_at_zero(self):
        for df in (1, 2, 7, 24.5):
            assert chisq_cdf(0.0, df) == 0.0

    def test_df2_closed_form(self):
        # df=2 is exponential with mean 2: cdf = 1 - exp(-x/2)
        for x in (0.1, 1.386294, 2.772589, 9.0):
            assert chisq_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2), abs=1e-9)

    def test_example_behind_variance_bound(self):
        v = chisq_cdf(6.87, 11)
        assert 0.18 < v < 0.20
        # scipy: 0.19048869723783374
        assert v == pytest.approx(0.19048869723783374, rel=1e-12)

    def test_scipy_cross_check(self):
        for df in (1, 2, 5, 11, 24, 100, 313.5, 1000):
            for x in (0.001, 0.3, 1.0, 6.87, 15.0, 40.0, 900.0):
                assert chisq_cdf(x, df) == pytest.approx(
                    scipy_stats.chi2.cdf(x, df), abs=1e-13)

    def test_monotone_in_x_and_df(self):
        xs = np.linspace(0.01, 40, 120)
        vals = [chisq_cdf(float(x), 11) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert chisq_cdf(5.0, 4) > chisq_cdf(5.0, 5) > chisq_cdf(5.0, 6)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            chisq_cdf(-0.1, 3)

    def test_huge_x_takes_the_limit(self):
        # past about x = 1e15 the continued fraction's step stays an ulp from
        # 1; the factor scaling the tail has underflowed there, so the kernel
        # returns the limit P = 1, Q = 0, as scipy does
        x = 10.0 ** np.random.default_rng(7).uniform(15.0, 19.0, 3000)
        p, q, pre = zip(*(_gammainc_lower(5.5, v) for v in x.tolist()))
        assert list(p) == scipy_special.gammainc(5.5, x).tolist() == [1.0] * x.size
        assert list(q) == scipy_special.gammaincc(5.5, x).tolist() == [0.0] * x.size
        assert list(pre) == [0.0] * x.size
        assert [chisq_cdf(v, 11) for v in 2.0 * x] == [1.0] * x.size
        assert chisq_cdf(3.668e18, 11) == 1.0

    @pytest.mark.parametrize("a", [2.5e5, 1e6, 1e7])
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.3, 0.99])
    def test_large_a_just_above_the_mean(self, a, k):
        # from a of about 2.5e5 on, the continued fraction needs more than
        # _MAX_FRACTION steps between a + 1 and about a + 0.3 sqrt(a), so the
        # series serves up to a + sqrt(a); above 1e6 the prefactor's
        # cancellation limits the digits, not the expansion
        x = a + 1.0 + k * math.sqrt(a)
        p, q, _ = _gammainc_lower(a, x)
        assert q == pytest.approx(scipy_special.gammaincc(a, x), rel=1e-8 if a <= 1e6 else 1e-6)
        assert p + q == pytest.approx(1.0, abs=1e-15)

    def test_quantile_known_points(self):
        assert chisq_quantile(0.0, 7) == 0.0
        assert chisq_quantile(0.5, 2) == pytest.approx(1.386294, abs=1e-6)
        assert chisq_quantile(0.5, 2) == pytest.approx(2 * math.log(2), rel=1e-12)
        # classical table value; scipy: 15.658684052512827
        assert chisq_quantile(0.1, 24) == pytest.approx(15.659, abs=1e-2)
        assert chisq_quantile(0.1, 24) == pytest.approx(15.658684052512827, rel=1e-10)

    def test_quantile_p_one_rejected(self):
        with pytest.raises(ValueError):
            chisq_quantile(1.0, 5)

    @pytest.mark.parametrize("fn,args", [
        (chisq_cdf, (1.0, 1.7e308)),        # lgamma(df / 2) overflows
        (chisq_quantile, (0.5, 1e308)),
        (chisq_cdf, (1e300, 1e300)),        # x + 1 - a rounds to 0 in the fraction
        (chisq_quantile, (0.5, 1e300)),
        (chisq_cdf, (1e20, 1e20)),
    ])
    def test_huge_df_raises_a_named_error(self, fn, args):
        # each call returns scipy's value or raises one of the package's
        # errors, never a bare OverflowError or ZeroDivisionError
        want = (scipy_stats.chi2.cdf if fn is chisq_cdf else scipy_stats.chi2.ppf)(*args)
        try:
            got = fn(*args)
        except ValueError as exc:
            assert "degrees of freedom" in str(exc)
        except ConvergenceError:
            pass
        else:
            assert got == pytest.approx(want, rel=1e-8)

    def test_round_trip(self):
        # spec'd grid: cdf(quantile(p)) = p within 1e-8
        dfs = (1, 2, 5, 11, 24, 100)
        ps = np.linspace(0.001, 0.999, 41)
        for df in dfs:
            for p in ps:
                x = chisq_quantile(float(p), df)
                assert chisq_cdf(x, df) == pytest.approx(float(p), abs=1e-8)


class TestStudentT:
    def test_median(self):
        for df in (1, 3, 30):
            assert t_quantile(0.5, df) == 0.0
            assert t_cdf(0.0, df) == 0.5

    def test_quantile_where_y_is_subnormal(self):
        # at df 1e290 next to the median t^2 / (df + t^2) is subnormal, with
        # about 7 bits: the law of |T| at ncp 0 keeps the central mass there,
        # where the noncentral series' underflow shortcut reads 0 and would
        # end the quantile at 1.5e-9 in place of 2.8e-16
        for p in (0.5 + 2.0 ** -53, 0.5 - 2.0 ** -54):
            assert t_quantile(p, 1e290) == pytest.approx(norm_quantile(p), rel=1e-2)

    def test_cauchy_closed_form(self):
        assert t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-9)
        assert t_quantile(0.9, 1) == pytest.approx(math.tan(math.pi * 0.4), rel=1e-12)

    def test_table_value(self):
        assert t_quantile(0.975, 30) == pytest.approx(2.042, abs=5e-3)
        # scipy: 2.0422724563012373
        assert t_quantile(0.975, 30) == pytest.approx(2.0422724563012373, rel=1e-10)

    def test_scipy_cross_check(self):
        for df in (1, 2, 5, 11, 24, 100, 314):
            for x in (-6.0, -1.2, 0.4, 2.5, 8.0):
                assert t_cdf(x, df) == pytest.approx(scipy_stats.t.cdf(x, df), abs=1e-12)

    def test_round_trip(self):
        dfs = (1, 2, 5, 11, 24, 100)
        ps = np.linspace(0.001, 0.999, 41)
        for df in dfs:
            for p in ps:
                x = t_quantile(float(p), df)
                assert t_cdf(x, df) == pytest.approx(float(p), abs=1e-9)

    @pytest.mark.parametrize("df", [1e5, 1e7, 3.1e7])
    def test_large_df_against_scipy(self, df):
        # main studies of 1e7 per group have t critical values at these df;
        # lgamma(a + b) - lgamma(b) would cancel away digits of the beta factor
        for p in (0.975, 0.025):
            q = scipy_stats.t.ppf(p, df)
            assert abs(t_cdf(q, df) - p) <= 1e-10
            assert t_quantile(p, df) == pytest.approx(q, rel=1e-12)

    def test_beta_argument_near_one_keeps_its_digits(self):
        # at df 1e9, 1 - t^2 / (df + t^2) rounded keeps about 7 digits of
        # t^2 / (df + t^2); I_y(1/2, 5e8) was off by 2.8e-9 when the fraction
        # ran on it, t_cdf at scipy's 0.975 quantile by 1.4e-9 and the
        # quantile itself by 7.6e-9 relative
        df = 1e9
        for t in (1.959963986, 2.5, 4.0):
            y, w = t * t / (df + t * t), df / (df + t * t)
            want = scipy_special.betainc(0.5, 0.5 * df, y)
            assert abs(distributions._betainc(0.5, 0.5 * df, y, w)[0] - want) <= 1e-13
        q = scipy_stats.t.ppf(0.975, df)
        assert abs(t_cdf(q, df) - 0.975) <= 1e-14
        assert t_quantile(0.975, df) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-10, 1e-12, 1e-15])
    def test_small_alpha_critical_values(self, alpha):
        # the inversion stops on the tail relative to itself: at df 4 and
        # alpha 1e-12 an absolute stop gave 448.0 for scipy's 1565.05
        for df in (4.0, 30.0, 1e6):
            p = 1.0 - alpha / 2.0
            want = scipy_stats.t.isf(1.0 - p, df)
            assert t_quantile(p, df) == pytest.approx(want, rel=1e-9)
            assert t_quantile(alpha / 2.0, df) == pytest.approx(
                -scipy_stats.t.isf(alpha / 2.0, df), rel=1e-9)

    def test_quantile_past_the_double_range_raises(self):
        # near 1e162 (df 1.17, p 5.7e-200) the beta argument df / (df + x^2)
        # is subnormal, and an answer from it would be off 6.5e8-fold
        with pytest.raises(ConvergenceError, match="normal double"):
            t_quantile(5.733912479154068e-200, 1.1736978126447697)
        assert t_quantile(1e-160, 1.0) == pytest.approx(-1.0 / (math.pi * 1e-160), rel=1e-12)

    @pytest.mark.parametrize("big", [39.0, 40.0, 41.0, 816.0, 999.0, 9999.0, 1e4, 1e7, 5e8])
    def test_log_beta_closed_forms(self, big):
        # B(1, b) = 1 / b and B(2, b) = 1 / (b (b + 1)), either side of the
        # switch to Stirling's series (40); the worst, 1.6e-14, is B(2, 39),
        # where lgamma differences round at about 1e2; past the switch they
        # would lose 1.4e-12 at 999 and about 1e-8 at 1e7
        for small, want in ((1.0, -math.log(big)), (2.0, -math.log(big) - math.log1p(big))):
            assert _log_beta(small, big) == pytest.approx(want, abs=3e-14)
            assert _log_beta(big, small) == _log_beta(small, big)

    def test_normal_limit(self):
        for x in np.linspace(-4, 4, 17):
            assert abs(t_cdf(float(x), 1e6) - norm_cdf(float(x))) < 1e-5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_cdf(float("inf"), 5)
        with pytest.raises(ValueError):
            t_cdf(1.0, -2)


class TestNoncentralT:
    # frozen from the quadrature oracle (recomputed in-test for a subset)
    ORACLE_POINTS = [
        (1.96, 100, 1.96, 0.49805390827995005),
        (0.0, 7, 1.5, 0.06680720126885681),
        (2.5, 11, 1.0, 0.8997269037494119),
        (-1.0, 4, 2.0, 0.0025732321748442913),
        (1.9674978, 314, 2.2220486, 0.399232366975512),
        (3.1, 50, 2.2, 0.8009269545087947),
        (0.5, 3, 0.5, 0.4843726868206822),
        (5.0, 200, 4.0, 0.8325046182404985),
    ]

    def test_frozen_oracle_points(self):
        for x, df, ncp, want in self.ORACLE_POINTS:
            assert nct_cdf(x, df, ncp) == pytest.approx(want, abs=1e-8)

    def test_against_live_quadrature(self):
        for df in (2, 11, 62, 314):
            for ncp in (-1.5, 0.7, 2.2220486, 5.0):
                for x in (-2.0, 0.3, 1.9675, 4.0):
                    want = nct_cdf_by_quadrature(x, df, ncp)
                    assert nct_cdf(x, df, ncp) == pytest.approx(want, abs=1e-8)

    def test_symmetric_at_noncentrality(self):
        # at x == ncp the mass sits just below one half
        assert nct_cdf(1.96, 100, 1.96) == pytest.approx(0.5, abs=0.01)

    def test_power_anchor(self):
        # a 158-per-group two-sample design at effect size 0.25 leaves about
        # 0.40 below the alpha/2 critical value, i.e. 60% power
        tcrit = t_quantile(0.975, 314)
        val = nct_cdf(tcrit, 314, 0.25 * math.sqrt(158 / 2))
        assert val == pytest.approx(0.40, abs=0.005)

    def test_central_case_matches_t(self):
        for df in (1, 5, 24, 314):
            for x in (-3.0, -0.4, 0.0, 0.9, 2.5):
                assert nct_cdf(x, df, 0.0) == pytest.approx(t_cdf(x, df), abs=1e-10)

    def test_decreasing_in_ncp(self):
        vals = [nct_cdf(1.96, 50, float(nc)) for nc in np.linspace(0, 5, 26)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_extreme_noncentrality(self):
        # power at huge sizes saturates: essentially no mass below the cutoff
        assert nct_cdf(1.96, 2e6 - 2, 0.25 * math.sqrt(5e5)) < 1e-12

    # P(T <= -0.5) far below the mean, to 40 digits by mpmath from the
    # Poisson-mixture series; 1 - P(T <= 0.5) at -ncp would cancel
    LOWER_TAIL = [
        (-0.5, 30, 8, 1.1379733103147325e-17),
        (-0.5, 5, 6, 7.3447417931070355e-11),
        (-0.5, 200, 6, 4.0872696120382238e-11),
    ]

    @pytest.mark.parametrize("x,df,ncp,want", LOWER_TAIL)
    def test_lower_tail_keeps_relative_digits(self, x, df, ncp, want):
        assert nct_cdf(x, df, ncp) == pytest.approx(want, rel=1e-9, abs=0.0)

    # the negative-ncp mirror past x = ncp, to 40 digits by mpmath quadrature
    # over the chi law: Phi(-ncp) - (E - O) / 2 would cancel here, and P(T <= x)
    # is read as P(-T >= -x) at -ncp instead, from the sums' upper tails
    @pytest.mark.parametrize("x,df,ncp,want", [
        (-14.0, 200, -4.0, 5.7504669672846197e-17),
        (-12.0, 1000, -5.0, 6.8567451357973795e-12),
    ])
    def test_lower_tail_at_negative_ncp(self, x, df, ncp, want):
        assert nct_cdf(x, df, ncp) == pytest.approx(want, rel=1e-7, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nct_cdf(float("nan"), 5, 1.0)
        with pytest.raises(ValueError):
            nct_cdf(1.0, 5, float("inf"))
        with pytest.raises(ValueError, match="scalar"):
            nct_cdf(np.array([1.0, float("nan")]), 5, 1.0)
        with pytest.raises(ValueError, match="scalar"):
            nct_cdf(1.0, np.array([5.0, 0.0]), 1.0)

    def test_underflowing_square_is_the_normal_mass(self):
        # t * t underflows to 0 or to a subnormal: P(T <= t) = Phi(-ncp)
        for t in (5e-324, 1e-155, 1.7e-159):
            for ncp in (0.5, -2.0, 2.0):
                assert nct_cdf(t, 1.0, ncp) == norm_cdf(-ncp)

    def test_huge_t(self):
        # t * t dwarfs df (the beta argument t^2 / (t^2 + df) rounds to 1) or
        # overflows: P(T <= t) is the tail series or its limit, as scipy has it
        ts = np.array([1e8, -1e8, 1e10, -1e10, 1e200, -1e200])
        for df in (1.0, 3.0, 30.0):
            for ncp in (-1.0, 0.0, 1.0):
                got = [nct_cdf(float(t), df, ncp) for t in ts]
                want = scipy_stats.nct.cdf(ts, df, ncp) if ncp else scipy_stats.t.cdf(ts, df)
                assert np.isfinite(want).all()
                assert np.abs(np.array(got) - want).max() <= 1e-10, (df, ncp)

    def test_huge_noncentrality_is_cheap(self):
        # at the mode of the Poisson weights both beta ratios and both steps are
        # 0, so neither sweep runs on; walking the downward one through ~9
        # sqrt(lam) zero terms took about 7 s at ncp 1e6
        start = time.perf_counter()
        for ncp in (1e4, 1e5, 1e6, 1e10, 1e50):
            assert nct_cdf(12.7, 2.0, ncp) == 0.0
            assert nct_cdf(-12.7, 2.0, -ncp) == 1.0
        assert time.perf_counter() - start < 1.0

    def test_downward_sweep_cap_raises(self, monkeypatch):
        # at (0.5, 10, 20) the downward sweep is the longer one: with the cap
        # cut to 50 terms it raises instead of returning a partial sum
        want = scipy_stats.nct.cdf(0.5, 10.0, 20.0)
        assert nct_cdf(0.5, 10.0, 20.0) == pytest.approx(want, abs=1e-12)
        monkeypatch.setattr(distributions, "_MAX_SERIES", 50)
        with pytest.raises(ConvergenceError, match="downward"):
            nct_cdf(0.5, 10.0, 20.0)

    def test_huge_noncentrality_raises_value_error(self):
        # ncp = 1e6 .. 1e300 at x = +-1, 10, 1e3 and df = 1, 10, 1e3: each
        # call returns a probability or raises one of the package's errors;
        # where ncp^2 / 2 or the Poisson weight at its mode overflows (from
        # ncp 1e38 at x = 1) that is a ValueError naming ncp, not a bare
        # OverflowError
        overflowed = 0
        for e in range(6, 301, 2):
            for x in (1.0, -1.0, 10.0, 1e3):
                for df in (1.0, 10.0, 1e3):
                    try:
                        assert 0.0 <= nct_cdf(x, df, 10.0 ** e) <= 1.0
                    except ValueError as exc:
                        assert str(exc).startswith(f"ncp {10.0 ** e!r} is too large")
                        overflowed += 1
                    except ConvergenceError:
                        pass
        assert overflowed > 0
        with pytest.raises(ValueError, match=r"ncp 1e\+38"):
            nct_cdf(1.0, 1.0, 1e38)
        assert nct_cdf(1.0, 1.0, 1e6) == 0.0

    def test_array_rejected(self):
        # one point per call; a 1-element array is an array too
        for args in ((np.array([1.0]), 12.0, 1.5), (1.0, np.array([12.0]), 1.5),
                     (1.0, 12.0, np.array([0.0, 1.5]))):
            with pytest.raises(ValueError, match="scalar"):
                nct_cdf(*args)


def _ulps_around(points, spread):
    """A point of ``points`` moved by up to ``spread`` ulps either way."""
    return st.tuples(st.sampled_from(points), st.integers(-spread, spread)).map(
        lambda t: t[0] + t[1] * math.ulp(t[0]))


# points where the normal kernels once switched approximations, kept as
# inputs: Cody's erfc regions (in its argument and in x = -sqrt(2) * argument)
# and the edges of Acklam's central region
_CDF_EDGES = [sign * edge * scale for edge in (0.46875, 4.0, 26.5)
              for scale in (1.0, math.sqrt(2.0)) for sign in (1.0, -1.0)]
_ACKLAM_SPLITS = [0.02425, 1.0 - 0.02425]


def _same_bits(got, want):
    return type(got) is float and got.hex() == float(want).hex()


def _one_point_forms(x):
    """x as a float, a numpy scalar and a 0-d array: each is one point."""
    return (x, np.float64(x), np.array(x))


class TestProperties:
    # the kernels take one point per call: a float, a numpy scalar and a 0-d
    # array give the same bits, and a 1-element array is a ValueError
    @given(st.one_of(st.floats(-40.0, 40.0), _ulps_around(_CDF_EDGES, 4)))
    @settings(max_examples=400, deadline=None)
    def test_norm_cdf_scalar_path_matches_array(self, x):
        want = norm_cdf(x)
        for arg in _one_point_forms(x):
            assert _same_bits(norm_cdf(arg), want)
        with pytest.raises(ValueError, match="scalar"):
            norm_cdf(np.array([x]))

    @given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats(-300.0, -0.01).map(lambda e: 10.0 ** e),
                     st.floats(-16.0, -0.01).map(lambda e: 1.0 - 10.0 ** e),
                     _ulps_around(_ACKLAM_SPLITS, 4)).filter(lambda p: 0.0 < p < 1.0))
    @settings(max_examples=400, deadline=None)
    def test_norm_quantile_scalar_path_matches_array(self, p):
        want = norm_quantile(p)
        for arg in _one_point_forms(p):
            assert _same_bits(norm_quantile(arg), want)
        with pytest.raises(ValueError, match="scalar"):
            norm_quantile(np.array([p]))

    def test_scalar_paths_raise_as_arrays_do(self):
        for x in (math.nan, math.inf, -math.inf):
            for arg in _one_point_forms(x):
                with pytest.raises(ValueError, match="finite"):
                    norm_cdf(arg)
            for arg in (np.array([x]), [x], (x,)):
                with pytest.raises(ValueError, match="scalar"):
                    norm_cdf(arg)
        for p in (0.0, 1.0, math.nan, -0.1, 1.1):
            for arg in _one_point_forms(p):
                with pytest.raises(ValueError, match="0 < p < 1"):
                    norm_quantile(arg)
            for arg in (np.array([p]), [p], (p,)):
                with pytest.raises(ValueError, match="scalar"):
                    norm_quantile(arg)

    @given(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.floats(-300.0, -0.01).map(lambda e: 10.0 ** e),
                     st.floats(-16.0, -0.01).map(lambda e: 1.0 - 10.0 ** e),
                     st.integers(1, 2 ** 53 - 1).map(lambda k: k / 2.0 ** 53)
                     ).filter(lambda p: 0.0 <= p < 1.0),
           st.one_of(st.floats(0.05, 5000.0), st.integers(1, 200).map(float)))
    @settings(max_examples=400, deadline=None)
    def test_chisq_quantile_scalar_path_matches_array(self, p, df):
        # a float and the 0-d forms return the same bits; where the quantile
        # is below the smallest double all raise
        with pytest.raises(ValueError, match="scalar"):
            chisq_quantile(np.array([p]), df)
        try:
            want = chisq_quantile(p, df)
        except ConvergenceError:
            for arg in _one_point_forms(p):
                with pytest.raises(ConvergenceError, match="200-iteration cap"):
                    chisq_quantile(arg, df)
            return
        for arg in _one_point_forms(p):
            assert _same_bits(chisq_quantile(arg, df), want)

    def test_chisq_quantile_scalar_raises_as_arrays_do(self):
        for p in (1.0, math.nan, -0.1, 1.1, math.inf):
            for arg in _one_point_forms(p):
                with pytest.raises(ValueError, match="0 <= p < 1"):
                    chisq_quantile(arg, 3.0)
            with pytest.raises(ValueError, match="scalar"):
                chisq_quantile(np.array([p]), 3.0)
        for df in (0.0, -1.0, math.nan, math.inf):
            for arg in _one_point_forms(0.5):
                with pytest.raises(ValueError, match="degrees of freedom"):
                    chisq_quantile(arg, df)

    @pytest.mark.parametrize("fn,args,at", [
        (norm_cdf, (0.5,), 0), (norm_quantile, (0.5,), 0),
        (chisq_cdf, (1.0, 3.0), 0), (chisq_cdf, (1.0, 3.0), 1),
        (chisq_quantile, (0.5, 3.0), 0), (chisq_quantile, (0.5, 3.0), 1),
        (t_cdf, (1.0, 5.0), 0), (t_cdf, (1.0, 5.0), 1),
        (t_quantile, (0.9, 5.0), 0), (t_quantile, (0.9, 5.0), 1),
        (nct_cdf, (1.0, 5.0, 1.5), 0), (nct_cdf, (1.0, 5.0, 1.5), 1),
        (nct_cdf, (1.0, 5.0, 1.5), 2),
    ])
    @pytest.mark.parametrize("wrap", [np.array, list, tuple], ids=["array", "list", "tuple"])
    def test_one_element_sequence_is_not_a_point(self, fn, args, at, wrap):
        # every argument of every public kernel goes through one scalar check:
        # a 1-element array, list or tuple is the package's ValueError naming
        # the function, not float()'s TypeError
        bad = list(args)
        bad[at] = wrap([args[at]])
        with pytest.raises(ValueError, match=f"{fn.__name__} takes scalar arguments"):
            fn(*bad)
        assert fn(*args) == fn(*map(np.float64, args))

    @given(st.one_of(st.floats(-300.0, -100.0).map(lambda e: 10.0 ** e),
                     st.floats(0.0, math.log(1e-10 * 2.0 ** 53)).map(
                         lambda e: 1.0 - math.exp(e) * 2.0 ** -53)),
           st.floats(0.5, 50.0))
    @example(1e-162, 1.0)
    @example(0.5, 1e-110)
    @example(1e-200, 1e-300)
    @settings(max_examples=300, deadline=None)
    def test_chisq_quantile_far_tails(self, p, df):
        # lower tails of 1e-300 to 1e-100, and upper tails of 2^-53 to 1e-10
        # (as near 1 as a double gets).  There the step meets a tail of 0, a
        # density that underflows or an exponent that overflows, and falls
        # back to its bracket: the quantile meets the tolerance on its smaller
        # tail or raises ConvergenceError (it is below the smallest double),
        # never a bare ValueError, OverflowError or ZeroDivisionError.  So
        # does the start below df 1e-102, where the Wilson-Hilferty cube of a
        # negative base overflows
        upper = p > 0.5
        tail = 1.0 - p if upper else p
        try:
            x = chisq_quantile(p, df)
        except ConvergenceError:
            return
        got = _gammainc_lower(0.5 * df, 0.5 * x)[upper]
        assert abs(got - tail) <= distributions._INVERT_TOL * tail

    @given(st.floats(0.001, 0.999), st.sampled_from([1.0, 2.0, 5.0, 11.0, 24.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_chisq_quantile_round_trip(self, p, df):
        assert chisq_cdf(chisq_quantile(p, df), df) == pytest.approx(p, abs=1e-8)

    @given(st.floats(0.001, 0.999), st.sampled_from([1.0, 2.0, 5.0, 11.0, 24.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_t_quantile_round_trip(self, p, df):
        assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-9)

    @given(st.floats(0.0, math.log(1e9)).map(math.exp), st.floats(-100.0, 100.0))
    @example(1.0, 6.209776750102033e-08)
    @settings(max_examples=400, deadline=None)
    def test_t_cdf_against_scipy(self, df, x):
        # P(|T| < |x|) is I_{x^2/(df+x^2)}(1/2, df/2); scipy.stats.t.cdf is off
        # by 3.6e-10 at df 1, x 6.2e-8 (0.5 + atan(x)/pi is 0.50000001977)
        half = 0.5 * scipy_special.betainc(0.5, 0.5 * df, x * x / (df + x * x))
        want = 0.5 + math.copysign(half, x)
        assert abs(t_cdf(x, df) - want) <= 1e-11

    @given(st.floats(0.0, math.log(1e9)).map(math.exp),
           st.floats(math.log(1e-15), math.log(0.5)).map(math.exp))
    @settings(max_examples=300, deadline=None)
    def test_t_quantile_against_scipy(self, df, alpha):
        # within 1e-9 of scipy's quantile on either tail; for tails past 1/4
        # the central mass, from scipy's incomplete beta, is checked instead,
        # since scipy's quantile loses relative digits near the median
        for p in (alpha, 1.0 - alpha):
            x, q = abs(t_quantile(p, df)), min(p, 1.0 - p)
            if q <= 0.25:
                assert x == pytest.approx(scipy_stats.t.isf(q, df), rel=1e-9)
            else:
                central = 0.5 * scipy_special.betainc(0.5, 0.5 * df, x * x / (df + x * x))
                assert central == pytest.approx(0.5 - q, rel=1e-9)

    @given(st.floats(math.log(0.05), math.log(0.9)).map(math.exp), st.floats(0.55, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_t_quantile_below_one_df(self, df, p):
        # under df 0.4 the Cornish-Fisher start can come out negative near
        # the median; the quantile keeps its sign and its tail
        for prob in (p, 1.0 - p):
            x = t_quantile(prob, df)
            assert (x > 0.0) == (prob > 0.5)
            assert scipy_stats.t.sf(abs(x), df) == pytest.approx(1.0 - p, rel=1e-9)

    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
    @settings(max_examples=150, deadline=None)
    def test_norm_cdf_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert norm_cdf(lo) <= norm_cdf(hi)

    @given(st.lists(st.one_of(st.floats(1e-12, 1.0 - 1e-12),
                              st.floats(-12.0, -0.3).map(lambda e: 10.0 ** e),
                              st.floats(-12.0, -0.3).map(lambda e: 1.0 - 10.0 ** e)),
                    min_size=1, max_size=20),
           st.floats(1.0, 2000.0))
    @settings(max_examples=50, deadline=None)
    def test_chisq_quantile_array(self, ps, df):
        # one scalar call per point, within 1e-9 relative of scipy into both
        # far tails, and monotone in p to that accuracy; the array itself is
        # a ValueError
        p = np.array(ps)
        got = np.array([chisq_quantile(v, df) for v in ps])
        want = scipy_stats.chi2.ppf(p, df)
        assert np.abs(got / want - 1.0).max() <= 1e-9
        order = np.argsort(p, kind="stable")
        assert (np.diff(got[order]) >= -2e-9 * got[order][1:]).all()
        assert chisq_quantile(0.0, df) == 0.0
        with pytest.raises(ValueError, match="scalar"):
            chisq_quantile(np.zeros(2), df)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.sampled_from([2.0, 11.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_quantiles_monotone_in_p(self, p1, p2, df):
        lo, hi = sorted((p1, p2))
        assert chisq_quantile(lo, df) <= chisq_quantile(hi, df) + 1e-12
        assert t_quantile(lo, df) <= t_quantile(hi, df) + 1e-12


class TestKernelCost:
    """Counts of work, not wall-clock time, so a slower kernel fails here
    without timing noise."""

    def test_t_quantile_takes_about_one_cdf(self, monkeypatch):
        # the grid's critical values: df = 2 (n - 1), n = 10 .. 700, p = 0.975
        calls = []
        betainc = distributions._betainc

        def counted(*args):
            calls.append(args)
            return betainc(*args)

        monkeypatch.setattr(distributions, "_betainc", counted)
        dfs = [2.0 * (n - 1) for n in range(10, 701)]
        for df in dfs:
            t_quantile(0.975, df)
        assert len(calls) / len(dfs) <= 1.2

    def test_betacf_steps_at_critical_values(self, monkeypatch):
        # at alpha 0.05 the fraction runs on t^2 / (df + t^2): 9 steps; on
        # df / (df + t^2) it took 35-47 for df 78 to 1e4
        monkeypatch.setattr(distributions, "_MAX_FRACTION", 15)
        for df in np.geomspace(18.0, 1e9, 60):
            c = t_quantile(0.975, float(df))
            assert abs(t_cdf(c, float(df)) - 0.975) <= 1e-12

    def test_betacf_cap_raises(self):
        # at a = b = 1e6 and x = 1/2 the fraction does not settle within its
        # cap of 500 steps (at 5e5 it does): it raises, in well under a
        # millisecond, rather than return a best-effort ratio
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="incomplete beta continued fraction"):
            distributions._betacf(1e6, 1e6, 0.5, 0.5)
        assert time.perf_counter() - start < 0.05


class TestFoldedT:
    """The law of |T| that effect simulations draw from: T noncentral t, or
    normal N(ncp, 1) at df = inf, its inverse survival function and the
    chance of each sign at a given magnitude."""

    DOMAIN = dict(df=st.one_of(st.floats(1.0, 1e5), st.just(math.inf)),
                  ncp=st.floats(1e-3, 1e3))

    @pytest.mark.parametrize("df", [1.0, 6.0, 62.0, 2e3, math.inf])
    @pytest.mark.parametrize("ncp", [0.05, 0.7, 2.0, 9.0])
    def test_law_matches_quadrature(self, df, ncp):
        # scipy's nct pdf loses digits in the tails and overflows at df 2e3,
        # so the finite-df oracle is quadrature
        def cdf(t):
            return (scipy_stats.norm.cdf(t - ncp) if df == math.inf
                    else nct_by_quadrature_in_s(t, df, ncp))

        def pdf(t):
            return (scipy_stats.norm.pdf(t - ncp) if df == math.inf
                    else nct_by_quadrature_in_s(t, df, ncp, density=True))

        for t in (0.05, 1.0, 2.5, 11.0):
            got_cdf, sf, xf, below, share = distributions._nct_fold(t, df, ncp, True)
            f_pos, f_neg = pdf(t), pdf(-t)
            assert got_cdf == pytest.approx(cdf(t) - cdf(-t), rel=1e-9, abs=1e-12)
            assert sf == pytest.approx(1.0 - cdf(t) + cdf(-t), rel=1e-9, abs=1e-12)
            assert below == pytest.approx(cdf(-t), rel=1e-9, abs=1e-12)
            # the third slot is the x f(x) of |T|, t (f(t) + f(-t))
            assert xf == pytest.approx(t * (f_pos + f_neg), rel=1e-9, abs=1e-12)
            if f_pos + f_neg > 1e-10:
                # where |T| has next to no density the share is a ratio of
                # two sums each good to about 1e-18 absolute
                assert share == pytest.approx(f_neg / (f_pos + f_neg), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("ncp", [0.0, 1e-170])
    @pytest.mark.parametrize("df", [0.5, 1.0, 6.0, 62.0, 8e5])
    def test_central_law_reads_the_mass_factor(self, df, ncp):
        # ncp^2 / 2 is 0: the density of |T| is 2 f(t), so its x f(x) is twice
        # the factor t f(t) that scales the t tail; where t^2 underflows
        # against df, t = 0 among them, |T| lies above t as at any ncp
        for t in (1e-3, 0.7, 2.5, 40.0):
            got_cdf, sf, xf, below, share = distributions._nct_fold(t, df, ncp, True)
            assert xf == pytest.approx(2.0 * t * scipy_stats.t.pdf(t, df), rel=1e-11)
            assert sf == 2.0 * below and share == 0.5
        for t in (0.0, 1e-170):
            assert distributions._nct_fold(t, df, ncp, True) == (0.0, 1.0, 0.0, 0.5, 0.5)

    @given(v=st.floats(1e-12, 1.0 - 1e-9), **DOMAIN)
    @settings(max_examples=100, deadline=None)
    def test_inverse_round_trip(self, v, df, ncp):
        # within 1e-9 of the smaller tail, relative, or where a normal lower
        # tail is a difference of two normal CDFs, within its rounding, 1e-16
        t = distributions._nct_abs_isf(v, df, ncp)
        upper = v <= 0.5
        cdf, sf, _ = distributions._nct_fold(t, df, ncp, upper=upper)
        got, want = (sf, v) if upper else (cdf, 1.0 - v)
        assert abs(got - want) <= 1e-9 * want + 1e-16

    @given(vs=st.lists(st.floats(1e-12, 1.0 - 1e-9), min_size=2, max_size=2, unique=True),
           **DOMAIN)
    @settings(max_examples=60, deadline=None)
    def test_inverse_is_monotone(self, vs, df, ncp):
        lo, hi = sorted(vs)
        t_lo, t_hi = (distributions._nct_abs_isf(v, df, ncp) for v in (lo, hi))
        assert t_lo >= t_hi * (1.0 - 1e-9)
