"""The factors that scale the incomplete functions, against frozen mpmath.

Each incomplete function returns, beside its mass, the factor that scales
it, and the Newton steps and the noncentral-t series' mode read it there:

- ``_t_mass(x, df, central)[2]`` is x f(x), f the t density, from either
  branch;
- ``_betainc(a, b, x, y)[1]`` is x^a y^b / B(a, b);
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
                                     _stirling_tail, _t_mass)

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


def test_t_factor_from_either_branch():
    # x f(x) = y^(1/2) w^(df/2) / B(1/2, df/2) from the tail and from the
    # central mass; the density formula it replaced was off by 1e-9 at df 8e5.
    # The worst point is 5.2e-14, at x 30 and df 1e3
    for (x, df), want in load("t"):
        for central in (False, True):
            assert rel(_t_mass(x, df, central)[2], want) <= 1e-13, (x, df, central)


def test_beta_factor():
    # the worst point, 2.6e-12, is at a = 1e4 and b = 3e3, where a log x,
    # b log y and log B(a, b) are each thousands and round at that size
    for (a, b, x, y), want in load("beta"):
        assert rel(_betainc(a, b, x, y)[1], want) <= 3e-12, (a, b, x, y)


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
    assert _betainc(2.0, 3.0, 0.0, 1.0) == (0.0, 0.0)
    assert _betainc(2.0, 3.0, 1.0, 0.0) == (1.0, 0.0)
    assert _t_mass(0.0, 5.0) == _t_mass(0.0, 5.0, True) == (0.0, 0.5, 0.0)


@given(st.floats(-1.0, 6.0).map(lambda e: 10.0 ** e), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
@example(0.1, 1e-6)
@example(1e6, 1e6)
@settings(max_examples=300, deadline=None)
def test_both_t_branches_give_one_factor(df, x):
    # the tail I_w(df/2, 1/2) and the central mass I_y(1/2, df/2) are scaled
    # by the same y^(1/2) w^(df/2) / B(1/2, df/2), each computed from its own
    # argument order; both are 0 where the factor underflows.  Each branch
    # computes one mass and takes the other as 1/2 less it, and the two
    # agree within 3e-13 absolute (1.4e-13 at worst over 200,000 draws, at df
    # near 1e5; from df 80 on log B(1/2, df/2) reads Stirling's series in
    # place of an lgamma difference, which would cancel)
    tail, central = _t_mass(x, df), _t_mass(x, df, True)
    assert tail[2] == central[2] or abs(tail[2] - central[2]) <= 1e-12 * max(tail[2], central[2])
    assert abs(tail[0] - central[0]) <= 3e-13 and abs(tail[1] - central[1]) <= 3e-13


# each law as its quantile passes it to _invert, the mass its two tails sum
# to, and a point where it is evaluated
LAWS = {
    "chi-square series": (lambda x: _gammainc_lower(3.0, 0.5 * x), 1.0, 4.0),
    "chi-square fraction": (lambda x: _gammainc_lower(3.0, 0.5 * x), 1.0, 18.0),
    "chi-square series, df 100": (lambda x: _gammainc_lower(50.0, 0.5 * x), 1.0, 90.0),
    "chi-square fraction, df 100": (lambda x: _gammainc_lower(50.0, 0.5 * x), 1.0, 140.0),
    "t tail": (lambda x: _t_mass(x, 5.0), 0.5, 2.0),
    "t central": (lambda x: _t_mass(x, 5.0, True), 0.5, 2.0),
    "t tail near 0": (lambda x: _t_mass(x, 62.0), 0.5, 0.2),
    "t central near 0": (lambda x: _t_mass(x, 62.0, True), 0.5, 0.2),
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
