"""Pilot sizing for effect estimation: how many pilot subjects are needed so
that sizing the main study from the pilot's estimated effect rarely yields an
under- (or over-) powered design.

The outcome standard deviation is treated as known here; the pilot's job in
this scenario is to pin down the effect.  A plan for (mu0, sigma) is then
identical to the plan for (mu0 / sigma, 1).
"""

from __future__ import annotations

import math

from .distributions import (_choice, _count, _probability, _require_finite, _scale, norm_cdf,
                            norm_quantile)
from .power import _MAX_N, T_ITERATIVE, EffectSpec, TestDesign, _first_true, _Sizer
from .power import required_n  # noqa: F401  unused here; perfbench's tracer wraps it by this name
from .variance import PowerBounds, _PlanRecord, _plan_fields

__all__ = [
    "EffectPilotPlan",
    "effect_underpower_prob",
    "effect_pilot_n",
    "plan_effect_pilot",
]


def _beyond(gap: float, sd: float) -> float:
    """Phi(-gap / sd), the chance the estimate passes a threshold ``gap``
    above its mean; where gap / sd is infinite (sd 0 too) its limit, 0 or 1."""
    z = -gap / sd if sd else -gap * math.inf      # 0 * inf is nan, read as 0
    return norm_cdf(z) if math.isfinite(z) else float(z > 0.0)


def effect_underpower_prob(pilot_n: int, mu0: float, mu_threshold: float,
                           sigma: float, design: TestDesign = TestDesign()) -> float:
    """Chance the pilot's estimated effect exceeds ``mu_threshold``.

    The estimate is normal with mean mu0 and variance sigma^2/n (one-sample)
    or 2 sigma^2/n per group (two-sample), sigma known.
    """
    fn = "effect_underpower_prob"
    gap = _require_finite(fn, "mu_threshold", mu_threshold) - _require_finite(fn, "mu0", mu0)
    return _beyond(gap, _scale("sigma", sigma) * design.spread(_count("pilot_n", pilot_n, 1)))


def effect_pilot_n(mu0: float, mu_threshold: float, sigma: float, p: float,
                   design: TestDesign = TestDesign(), side: str = "under") -> int:
    """Smallest pilot size keeping the effect-miss probability below p.

    under: threshold above mu0, miss event is overestimating past it.
    over:  threshold below mu0, miss event is underestimating past it.
    Searched from the closed form ceil(z_{1-p}^2 * sd_factor^2 * sigma^2 /
    gap^2) by the package's integer search; sizes past 1e9 raise.
    """
    mu0 = _require_finite("effect_pilot_n", "mu0", mu0)
    mu_threshold = _require_finite("effect_pilot_n", "mu_threshold", mu_threshold)
    sigma = _scale("sigma", sigma)
    p = _probability("p", p)
    side = _choice("side", side, ("under", "over"))
    gap = mu_threshold - mu0 if side == "under" else mu0 - mu_threshold
    if gap == 0.0:
        raise ValueError("threshold equal to the prior effect gives an unbounded pilot size")
    if gap < 0.0:
        raise ValueError(
            f"{side} side needs the threshold on the "
            f"{'high' if side == 'under' else 'low'} side of mu0")
    r = -norm_quantile(p) * sigma / gap     # the closed form is groups r^2
    start = math.ceil(design.groups * r ** 2 - 1e-9) if abs(r) < _MAX_N else _MAX_N
    return _first_true(lambda n: _beyond(gap, sigma * design.spread(n)) < p,
                       0, start, _MAX_N,
                       "pilot size exceeds 1e9; the threshold is too close to mu0")


class EffectPilotPlan(_PlanRecord):
    """Full trace of an effect-driven pilot plan (sizes are per group)."""

    kind: str
    alpha: float
    power_target: float
    mu0: float
    sigma: float
    underpower_prob: float
    underpower_threshold: float
    overpower_prob: float | None
    overpower_threshold: float | None
    main_n_under: int
    main_n_over: int | None
    mu_under: float
    mu_over: float | None
    pilot_n_under: int
    pilot_n_over: int | None
    pilot_n: int

    _CONFIG_KEYS = ("kind", "alpha", "power_target", "mu0", "sigma",
                    "underpower_prob", "underpower_threshold",
                    "overpower_prob", "overpower_threshold")


def plan_effect_pilot(mu0: float, sigma: float, design: TestDesign,
                      power_target: float, bounds: PowerBounds) -> EffectPilotPlan:
    """Run the effect-driven pilot sizing algorithm end to end.

    Steps: main sizes at the threshold powers (nearest integer to the
    noncentral-t requirement), the effect levels at which the target-power
    design is exactly adequate (z-quantile chain, scale invariant), pilot
    sizes per side from the closed form, and their maximum.
    """
    return _plan_effect(_Sizer(design), mu0, sigma, power_target, bounds)


def _plan_effect(sizer: _Sizer, mu0: float, sigma: float, power_target: float,
                 bounds: PowerBounds) -> EffectPilotPlan:
    mu0, sigma = _scale("mu0", mu0), _scale("sigma", sigma)
    effect = EffectSpec(mu0, sigma)

    def side(threshold: float, prob: float, which: str, zs_target: float):
        mu_thr = mu0 * zs_target / sizer.zsum(threshold, f"{which}power_threshold")
        if mu_thr == math.inf:      # a failed computation, not an argument of effect_pilot_n
            raise ValueError(f"mu0 {mu0!r} at {which}power_threshold {threshold!r} puts the "
                             "threshold effect past the largest float")
        n_main = sizer.size(effect, threshold, T_ITERATIVE, 0.5)
        n_pilot = effect_pilot_n(mu0, mu_thr, sigma, prob, sizer.design, which)
        return n_main, mu_thr, n_pilot

    return EffectPilotPlan(**_plan_fields(sizer, power_target, bounds, "mu", side),
                           mu0=mu0, sigma=sigma)
