"""Distribution layer tests.

Expected values are frozen from two independent sources:
  - scipy.stats reference evaluations (cross-implementation check), and
  - direct numerical integration (scipy.integrate.quad over the explicit
    density/mixture forms written out in this file), which is the oracle the
    noncentral-t accuracy target is stated against.
The implementations under test share no code with either.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilotplan.distributions import (
    _gammainc_array,
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
        xs = np.linspace(-8, 8, 401)
        assert np.max(np.abs(norm_cdf(xs) - scipy_stats.norm.cdf(xs))) < 1e-14

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.33, 5.5):
            assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_far_tails(self):
        assert norm_cdf(-30.0) == pytest.approx(4.906713927147908e-198, rel=1e-12)
        assert norm_cdf(30.0) == 1.0

    def test_array_shape(self):
        out = norm_cdf(np.zeros((3, 2)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            norm_cdf(float("nan"))
        with pytest.raises(ValueError):
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
        ps = np.concatenate([np.linspace(1e-9, 1 - 1e-9, 811),
                             [1e-12, 1e-10, 1 - 1e-10]])
        err = np.abs(norm_cdf(norm_quantile(ps)) - ps)
        assert err.max() < 1e-10

    def test_endpoints_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_quantile(p)


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
        # 1; the factor scaling the tail has underflowed there, so both
        # kernels return the limit P = 1, Q = 0, as scipy does
        x = 10.0 ** np.random.default_rng(7).uniform(15.0, 19.0, 3000)
        p, q = _gammainc_array(5.5, x)
        assert p.tolist() == scipy_special.gammainc(5.5, x).tolist() == [1.0] * x.size
        assert q.tolist() == scipy_special.gammaincc(5.5, x).tolist() == [0.0] * x.size
        assert [chisq_cdf(v, 11) for v in 2.0 * x] == [1.0] * x.size
        assert chisq_cdf(3.668e18, 11) == 1.0

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

    @pytest.mark.parametrize("big", [9999.0, 1e4, 1e7, 5e8])
    def test_log_beta_closed_forms(self, big):
        # B(1, b) = 1 / b and B(2, b) = 1 / (b (b + 1)), either side of the
        # switch to Stirling's series; lgamma differences lose about 1e-8 at 1e7
        for small, want in ((1.0, -math.log(big)), (2.0, -math.log(big) - math.log1p(big))):
            assert _log_beta(small, big) == pytest.approx(want, abs=3e-11)
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

    def test_array_rejected(self):
        # one point per call; a 1-element array is an array too
        for args in ((np.array([1.0]), 12.0, 1.5), (1.0, np.array([12.0]), 1.5),
                     (1.0, 12.0, np.array([0.0, 1.5]))):
            with pytest.raises(ValueError, match="scalar"):
                nct_cdf(*args)


class TestProperties:
    @given(st.floats(0.001, 0.999), st.sampled_from([1.0, 2.0, 5.0, 11.0, 24.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_chisq_quantile_round_trip(self, p, df):
        assert chisq_cdf(chisq_quantile(p, df), df) == pytest.approx(p, abs=1e-8)

    @given(st.floats(0.001, 0.999), st.sampled_from([1.0, 2.0, 5.0, 11.0, 24.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_t_quantile_round_trip(self, p, df):
        assert t_cdf(t_quantile(p, df), df) == pytest.approx(p, abs=1e-9)

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
        # each entry is its own scalar call, within 1e-9 relative of scipy
        # into both far tails, and monotone in p to that accuracy
        p = np.array(ps)
        got = chisq_quantile(p, df)
        assert got.tolist() == [chisq_quantile(v, df) for v in ps]
        want = scipy_stats.chi2.ppf(p, df)
        assert np.abs(got / want - 1.0).max() <= 1e-9
        order = np.argsort(p, kind="stable")
        assert (np.diff(got[order]) >= -2e-9 * got[order][1:]).all()
        assert chisq_quantile(0.0, df) == 0.0
        assert chisq_quantile(np.zeros(2), df).tolist() == [0.0, 0.0]

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.sampled_from([2.0, 11.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_quantiles_monotone_in_p(self, p1, p2, df):
        lo, hi = sorted((p1, p2))
        assert chisq_quantile(lo, df) <= chisq_quantile(hi, df) + 1e-12
        assert t_quantile(lo, df) <= t_quantile(hi, df) + 1e-12
