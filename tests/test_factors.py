"""The factors that scale the incomplete functions, against frozen mpmath.

Each incomplete function returns, beside its two tails, the factor that
scales them, and the Newton steps and the noncentral-t series' mode read it
there:

- ``_nct_fold(x, df, 0.0)[2]`` is 2 x f(x), f the t density: the law of
  |T| at ncp 0 is the Student t's;
- ``_betainc(a, b, x, y)[2]`` is x^a y^b / B(a, b);
- ``_gammainc_lower(a, x)[2]`` is x^a e^-x / Gamma(a).

The beta factor reads log B(a, b) from ``_log_beta``, which takes
Stirling's correction to log Gamma from ``_stirling_tail``, the one the
Binomial sampler's exact test reads too; both are checked here as well.

``golden/factors.json`` holds their 30-digit mpmath values at 738 points,
written by

    python tests/make_factor_golden.py

which needs mpmath; this module imports none.

The laws ``_invert`` reads, the chi-square, t and |T|, return (lower tail,
upper tail, x f(x)); a check here holds each to that shape: the tails sum to
the law's mass and x f(x) is the slope of the smaller one in log x.
"""

import json
import math
import os
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from pilotplan.distributions import (_betainc, _gammainc_lower, _log_beta, _nct_fold,
                                     _stirling_tail, nct_cdf, t_cdf)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "factors.json")
EPS = sys.float_info.epsilon


def load(kind: str) -> list:
    with open(GOLDEN) as fh:
        return [([float.fromhex(h) for h in args], float(value))
                for k, args, value in json.load(fh) if k == kind]


def rel(got: float, want: float) -> float:
    return abs(got - want) / want


def test_golden_covers_its_ranges():
    with open(GOLDEN) as fh:
        rows = json.load(fh)
    assert Counter(kind for kind, _, _ in rows) == {"t": 79, "beta": 445, "gamma": 69,
                                                    "stirling": 95, "log_beta": 50}
    dfs = [args[1] for args, _ in load("t")]
    assert min(dfs) == 0.1 and max(dfs) == 1e6 and 8e5 in dfs
    params = [p for args, _ in load("beta") for p in args[:2]]
    assert min(params) == 0.01 and max(params) == 1e4
    shapes = [args[0] for args, _ in load("gamma")]
    assert min(shapes) == 0.01 and max(shapes) == 1e8
    zs = [args[0] for args, _ in load("stirling")]
    assert min(zs) == 1.0 and max(zs) == 1e15 and {39.5, 40.0, 40.5} <= set(zs)
    assert sum(10.0 <= z <= 45.0 for z in zs) == 73
    pairs = [args for args, _ in load("log_beta")]
    assert {a for a, _ in pairs} == {0.5, 1.0, 2.5, 31.5, 1e3}
    assert {39.0, 40.0, 41.0, 816.0} <= {b for _, b in pairs} and max(b for _, b in pairs) == 1e9


def test_t_factor():
    # x f(x) = y^(1/2) w^(df/2) / B(1/2, df/2), half the factor of |T| at
    # ncp 0; the density formula it replaced was off by 1e-9 at df 8e5.
    # The worst point is 5.2e-14, at x 30 and df 1e3
    for (x, df), want in load("t"):
        assert rel(0.5 * _nct_fold(x, df, 0.0)[2], want) <= 1e-13, (x, df)


def test_beta_factor():
    # the worst point, 2.6e-12, is at a = 1e4 and b = 3e3, where a log x,
    # b log y and log B(a, b) are each thousands and round at that size
    for (a, b, x, y), want in load("beta"):
        assert rel(_betainc(a, b, x, y)[2], want) <= 3e-12, (a, b, x, y)


def test_gamma_factor():
    # exp(-x + a log x - lgamma a) cancels terms of these sizes, so its
    # relative error grows with them: about 2e-7 at a = 1e8
    for (a, x), want in load("gamma"):
        bound = 4.0 * EPS * (x + a * abs(math.log(x)) + abs(math.lgamma(a)))
        assert rel(_gammainc_lower(a, x)[2], want) <= bound, (a, x)


def test_stirling_tail():
    # below 40 lgamma less Stirling's form cancels terms near 100 to a few
    # hundredths; the worst point, 2.6e-14, is z = 38.5, just under the switch
    for (z,), want in load("stirling"):
        assert abs(_stirling_tail(z) - want) <= 5e-14, z


def test_log_beta():
    # relative to log B where it passes 1 in size: the worst point, 3.0e-15,
    # is (1/2, 39), under the switch, where lgamma differences round at 1e2
    for (a, b), want in load("log_beta"):
        for got in (_log_beta(a, b), _log_beta(b, a)):
            assert abs(got - want) <= 6e-15 * max(1.0, abs(want)), (a, b)


def test_factors_vanish_at_the_ends():
    assert _gammainc_lower(2.5, 0.0) == (0.0, 1.0, 0.0)
    assert _betainc(2.0, 3.0, 0.0, 1.0) == (0.0, 1.0, 0.0)
    assert _betainc(2.0, 3.0, 1.0, 0.0) == (1.0, 0.0, 0.0)
    assert _nct_fold(0.0, 5.0, 0.0) == (0.0, 1.0, 0.0)


@given(st.floats(-1.0, 6.0).map(lambda e: 10.0 ** e), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
@example(0.1, 1e-6)
@example(1e6, 1e6)
@example(15555.464068270618, 3.564696625864599)
@settings(max_examples=300, deadline=None)
def test_tiny_ncp_gives_the_t_law(df, x):
    # where ncp^2 / 2 underflows, nct_cdf reads the law of |T| at ncp 0, as
    # t_cdf does, both tails from one incomplete beta, so the two agree to
    # rounding (1.1e-16 at worst over 100,000 draws); at ncp 1e-150 the series
    # starts from the ratio I_y(1/2, df/2) at its mode, which past 63/64 is 1
    # less the tail's own fraction (3.6e-15 at worst).  At the pinned point
    # the fraction on y reads I_y 1.6e-13 off, past both bounds
    for v in (x, -x):
        want = t_cdf(v, df)
        assert abs(nct_cdf(v, df, 1e-170) - want) <= 4.5e-16, v
        assert abs(nct_cdf(v, df, 1e-150) - want) <= 1e-14, v


# each law as its quantile passes it to _invert, the mass its two tails sum
# to, and a point where it is evaluated
LAWS = {
    "chi-square series": (lambda x: _gammainc_lower(3.0, 0.5 * x), 1.0, 4.0),
    "chi-square fraction": (lambda x: _gammainc_lower(3.0, 0.5 * x), 1.0, 18.0),
    "chi-square series, df 100": (lambda x: _gammainc_lower(50.0, 0.5 * x), 1.0, 90.0),
    "chi-square fraction, df 100": (lambda x: _gammainc_lower(50.0, 0.5 * x), 1.0, 140.0),
    "t tail": (lambda x: _nct_fold(x, 5.0, 0.0), 1.0, 2.0),
    "t central near 0": (lambda x: _nct_fold(x, 62.0, 0.0), 1.0, 0.2),
    "t tail far out": (lambda x: _nct_fold(x, 5.0, 0.0), 1.0, 40.0),
    "t tail, guarded": (lambda x: _nct_fold(x, 15555.464068270618, 0.0), 1.0, 3.564696625864599),
    "|T| lower": (lambda t: _nct_fold(t, 6.0, 0.7), 1.0, 1.0),
    "|T| upper": (lambda t: _nct_fold(t, 6.0, 0.7, upper=True), 1.0, 1.0),
    "|T| lower, far out": (lambda t: _nct_fold(t, 62.0, 2.0), 1.0, 4.5),
    "|T| upper, far out": (lambda t: _nct_fold(t, 62.0, 2.0, upper=True), 1.0, 4.5),
    "|T| normal": (lambda t: _nct_fold(t, math.inf, 2.0), 1.0, 4.5),
    "|T| normal near 0": (lambda t: _nct_fold(t, math.inf, 0.05), 1.0, 0.01),
}


@pytest.mark.parametrize("name", LAWS)
def test_law_shape(name):
    # (lower tail, upper tail, x f(x)): the tails sum to the law's mass within
    # 2 ulps, and x f(x) is the slope in log x of the smaller tail, + for the
    # lower and - for the upper, as a centred difference with h = 1e-5 gives
    # it (5.5e-9 at worst here, the difference's own truncation and rounding)
    law, total, x = LAWS[name]
    lower, upper, xf = law(x)
    assert abs(lower + upper - total) <= 2.0 * math.ulp(total)
    k, h = int(upper < lower), 1e-5
    slope = (law(x * math.exp(h))[k] - law(x * math.exp(-h))[k]) / (2.0 * h)
    assert xf > 0.0 and rel(-slope if k else slope, xf) <= 1e-6
