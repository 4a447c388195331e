"""The noncentral-t sweep's values compared bit for bit with a frozen grid.

``golden/nct_sweep_bits.json`` holds ``_nct_abs_sf(c, df, ncp)`` and
``nct_cdf(c, df, ncp)`` as ``float.hex`` strings at 180 points, each row
``[df, c, ncp, abs_sf, cdf]`` with c in hex too, so the pin does not depend on
``t_quantile``:

- df 1, 2, 7.5, 62, 1e3 and 1e6;
- c at the two-sided alpha 0.05 and 1e-6 critical values, and at 3 and 1e4
  times each, as ``t_quantile`` gave them when the grid was frozen, which
  puts 40 of the points in the sweep's upper-tail branch (``w < _FAR``);
- ncp 1e-3, 0.1, 2.8, 30 and 1e3.

Both columns come from the one sweep, ``_mixture_sum``, as ``_nct_fold``
sums it: ``_nct_abs_sf`` reads its Poisson half, ``nct_cdf`` both halves with
the signs.  A rewrite of the sweep that is meant to keep its arithmetic must
keep every bit here.  To rewrite the two value columns at the frozen points
after a deliberate change, run

    PYTHONPATH=src python tests/test_sweep_bits.py

The grid pins few points, so a Hypothesis property also compares
``_mixture_sum`` bit for bit with ``_reference_sum``, a copy of the sweep as it
was before its upward half learnt to stop where its terms round away: both
sums, both tails, lam from 1e-3 to 1e4, df from 0.5 to 1e6 and y across (0, 1).
Another compares each sum's total, and ``_nct_fold``'s masses, without the
density against the same call with it, over the same ranges, with and
without a modes dict.
"""

import json
import math
import os

from hypothesis import example, given, settings, strategies as st

from pilotplan import distributions
from pilotplan.distributions import (_FAR, _MAX_SERIES, ConvergenceError, _betainc, _mixture_sum,
                                     _nct_abs_sf, _nct_fold, nct_cdf)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "nct_sweep_bits.json")


def load() -> list:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_sweep_bits_match_golden():
    rows = load()
    assert len(rows) == 180
    far = 0
    for df, c_hex, ncp, abs_hex, cdf_hex in rows:
        c = float.fromhex(c_hex)
        far += df / (c * c + df) < distributions._FAR
        assert _nct_abs_sf(c, df, ncp).hex() == abs_hex, (df, c, ncp)
        assert nct_cdf(c, df, ncp).hex() == cdf_hex, (df, c, ncp)
    # both branches of the sweep are pinned
    assert 0 < far < len(rows)


def _reference_sum(lam, a0, scale, y, w, half_df, upper=False):
    """``_mixture_sum`` with the 1e-18 weight stop alone, and no mode reuse."""
    far = upper or w < _FAR
    sign = -1.0 if far else 1.0
    b = a0 + 0.5
    m = int(lam)
    c_m = scale * math.exp(-lam + m * math.log(lam) - math.lgamma(m + b))
    a = m + a0
    i_m, _, bt = _betainc(half_df, a, w, y) if far else _betainc(a, half_df, y, w)
    t_m = sign * bt / a
    total = c_m * i_m
    slope = c_m * a * t_m
    c, i, t, j = c_m, i_m, t_m, m
    while True:
        i -= t
        if not 0.0 < i < 1.0:
            i = 1.0 if i > 0.0 else 0.0
        t *= y * (a + half_df) / (a + 1.0)
        a += 1.0
        c *= lam / (j + b)
        j += 1
        total += c * i
        slope += c * a * t
        if -1e-18 < c < 1e-18 or i == 0.0:
            break
        if j - m > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (upward) hit the iteration cap")
    c, i, t, a = c_m, i_m, t_m, m + a0
    j = 0 if i == t == 0.0 else m
    while j > 0:
        if m - j > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (downward) hit the iteration cap")
        t *= a / (y * (a - 1.0 + half_df))
        a -= 1.0
        i += t
        if not 0.0 < i < 1.0:
            i = 0.0 if i <= 0.0 else 1.0
        c *= (j + b - 1.0) / lam
        j -= 1
        total += c * i
        slope += c * a * t
        if -1e-18 < c < 1e-18:
            break
    return total, slope


def _bits(fn, *args):
    """``(total, slope)`` as hex strings, or the error ``fn`` raised."""
    try:
        return tuple(v.hex() for v in fn(*args))
    except (ConvergenceError, OverflowError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(a0=st.sampled_from([0.5, 1.0]), upper=st.booleans(),
       log_lam=st.floats(-3.0, 4.0), log_df=st.floats(math.log10(0.5), 6.0),
       log_odds=st.floats(-12.0, 12.0))
def test_sweep_matches_reference_bit_for_bit(a0, upper, log_lam, log_df, log_odds):
    # the reference decides the upper tails from ``upper`` and w itself, and
    # passing it ``far`` decides them alike
    args = _sum_args(a0, upper, log_lam, log_df, log_odds)
    assert _bits(_mixture_sum, *args) == _bits(_reference_sum, *args)


def _sum_args(a0, upper, log_lam, log_df, log_odds):
    """``_mixture_sum``'s first seven arguments.  y = r / (1 + r) and w = 1 - y
    = 1 / (1 + r) for odds r = t^2 / df, each without subtraction as
    ``_nct_fold`` forms them; ``far`` is ``upper`` or w < _FAR, as
    ``_nct_fold`` decides it, so r past 2^26 takes the upper-tail branch with
    ``upper`` False too.  The odd sum scales by ncp / sqrt(2) = sqrt(lam), as
    in ``_nct_fold``."""
    lam, r = 10.0 ** log_lam, 10.0 ** log_odds
    w = 1.0 / (1.0 + r)
    return (lam, a0, 1.0 if a0 == 0.5 else math.sqrt(lam), r / (1.0 + r), w,
            0.5 * 10.0 ** log_df, upper or w < _FAR)


@settings(max_examples=400, deadline=None)
@given(a0=st.sampled_from([0.5, 1.0]), upper=st.booleans(), with_modes=st.booleans(),
       log_lam=st.floats(-3.0, 4.0), log_df=st.floats(math.log10(0.5), 6.0),
       log_odds=st.floats(-12.0, 12.0))
@example(a0=0.5, upper=False, with_modes=True, log_lam=0.6, log_df=1.8, log_odds=-1.2)
@example(a0=1.0, upper=False, with_modes=False, log_lam=0.6, log_df=1.8, log_odds=9.0)
# upper tails whose ratio rises from near 0 while the weights fall: a stop on
# c i rather than c, the bound of (3) there, loses the last subnormal bits
@example(a0=0.5, upper=True, with_modes=True, log_lam=-0.3892186388977703,
         log_df=3.945146604003056, log_odds=-0.7325993374759836)
@example(a0=0.5, upper=False, with_modes=False, log_lam=0.045755566473411946,
         log_df=1.7756537134802914, log_odds=10.91817622594175)
def test_total_without_density_keeps_every_bit(a0, upper, with_modes, log_lam, log_df,
                                               log_odds):
    # the upward sweep without the density stops on the total's own tests,
    # (1) and (3) of _mixture_sum's proof, and its total keeps every bit.
    # With a modes dict, the second call reads the mode the first one kept,
    # and the third computes it afresh.  Odds past 2^26 put w under _FAR
    args = _sum_args(a0, upper, log_lam, log_df, log_odds)
    modes = {} if with_modes else None
    try:
        total, slope = _mixture_sum(*args, modes)
    except (ConvergenceError, OverflowError):
        return      # the sweep without the density stops no later
    for kept in (modes, {} if with_modes else None):
        got, no_slope = _mixture_sum(*args, kept, False)
        assert got.hex() == total.hex()
        assert math.isnan(no_slope)


@settings(max_examples=300, deadline=None)
@given(signs=st.booleans(), upper=st.booleans(), with_modes=st.booleans(),
       log_ncp=st.floats(-3.0, 2.5), df=st.floats(0.5, 1e6), normal=st.booleans(),
       log_t=st.floats(-3.0, 4.0))
def test_fold_without_density_keeps_every_mass(signs, upper, with_modes, log_ncp, df, normal,
                                               log_t):
    # P(|T| <= t), P(|T| > t) and P(T < -t) keep their bits, at df = inf
    # (the normal law) too; the density and the share the slopes give read NaN
    t, ncp, df = 10.0 ** log_t, 10.0 ** log_ncp, math.inf if normal else df
    modes = {} if with_modes else None
    try:
        on = _nct_fold(t, df, ncp, signs, upper, modes)
    except (ConvergenceError, ValueError):
        return
    off = _nct_fold(t, df, ncp, signs, upper, modes, False)
    assert len(off) == len(on)
    for k in (0, 1, 3) if signs else (0, 1):
        assert off[k].hex() == on[k].hex(), k
    # where t^2 under- or overflows against df the density is the constant 0
    assert math.isnan(off[2]) or off[2] == on[2] == 0.0
    assert not signs or math.isnan(off[4]) or off[4] == on[4]


if __name__ == "__main__":
    rows = [[df, c_hex, ncp, _nct_abs_sf(float.fromhex(c_hex), df, ncp).hex(),
             nct_cdf(float.fromhex(c_hex), df, ncp).hex()] for df, c_hex, ncp, _, _ in load()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
