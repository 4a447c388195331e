"""Pilot sizing for effect estimation: how many pilot subjects are needed so
that sizing the main study from the pilot's estimated effect rarely yields an
under- (or over-) powered design.

The outcome standard deviation is treated as known here; the pilot's job in
this scenario is to pin down the effect.  A plan for (mu0, sigma) is then
identical to the plan for (mu0 / sigma, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import norm_cdf, norm_quantile
from .power import _MAX_N, EffectSpec, TestDesign, _first_true, _nearest_n, _zsum
from .power import required_n  # noqa: F401  unused here; perfbench's tracer wraps it by this name
from .variance import PowerBounds, _PlanRecord, _plan_sides

__all__ = [
    "EffectPilotPlan",
    "effect_underpower_prob",
    "effect_pilot_n",
    "plan_effect_pilot",
]


def _effect_sd(sigma: float, design: TestDesign, pilot_n: float) -> float:
    # sd of the estimated effect: sigma/sqrt(n) one-sample, sigma*sqrt(2/n)
    # per-group for a two-sample difference of means
    return sigma * math.sqrt(design.groups / pilot_n)


def effect_underpower_prob(pilot_n: int, mu0: float, mu_threshold: float,
                           sigma: float, design: TestDesign = TestDesign()) -> float:
    """Chance the pilot's estimated effect exceeds ``mu_threshold``.

    The estimate is normal with mean mu0 and variance sigma^2/n (one-sample)
    or 2 sigma^2/n per group (two-sample), sigma known.
    """
    pilot_n = int(pilot_n)
    if pilot_n < 1:
        raise ValueError(f"pilot size must be >= 1, got {pilot_n}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    z = (float(mu_threshold) - float(mu0)) / _effect_sd(sigma, design, pilot_n)
    return norm_cdf(-z)


def effect_pilot_n(mu0: float, mu_threshold: float, sigma: float, p: float,
                   design: TestDesign = TestDesign(), side: str = "under") -> int:
    """Smallest pilot size keeping the effect-miss probability below p.

    under: threshold above mu0, miss event is overestimating past it.
    over:  threshold below mu0, miss event is underestimating past it.
    Searched from the closed form ceil(z_{1-p}^2 * sd_factor^2 * sigma^2 /
    gap^2) by the package's integer search; sizes past 1e9 raise.
    """
    mu0 = float(mu0)
    mu_threshold = float(mu_threshold)
    sigma = float(sigma)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0, 1), got {p!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if side not in ("under", "over"):
        raise ValueError(f"side must be 'under' or 'over', got {side!r}")
    gap = mu_threshold - mu0 if side == "under" else mu0 - mu_threshold
    if gap == 0.0:
        raise ValueError("threshold equal to the prior effect gives an unbounded pilot size")
    if gap < 0.0:
        raise ValueError(
            f"{side} side needs the threshold on the "
            f"{'high' if side == 'under' else 'low'} side of mu0")
    r = -norm_quantile(p) * sigma / gap     # the closed form is groups r^2
    start = math.ceil(design.groups * r ** 2 - 1e-9) if abs(r) < _MAX_N else _MAX_N
    return _first_true(lambda n: norm_cdf(-gap / _effect_sd(sigma, design, n)) < p,
                       0, start, _MAX_N,
                       "pilot size exceeds 1e9; the threshold is too close to mu0")


@dataclass(frozen=True)
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
    mu0 = float(mu0)
    sigma = float(sigma)
    if not (math.isfinite(mu0) and mu0 > 0.0):
        raise ValueError(f"mu0 must be positive, got {mu0!r}")
    if not (0.0 < power_target < 1.0):
        raise ValueError(f"power_target must be in (0, 1), got {power_target!r}")
    bounds.check_against_target(power_target)
    effect = EffectSpec(mu0, sigma)

    zs_target = _zsum(design.alpha, power_target)

    def side(threshold: float, prob: float, which: str):
        n_main = _nearest_n(effect, design, threshold)
        mu_thr = mu0 * zs_target / _zsum(design.alpha, threshold)
        n_pilot = effect_pilot_n(mu0, mu_thr, sigma, prob, design, which)
        return n_main, mu_thr, n_pilot

    (main_u, mu_u, pilot_u), (main_o, mu_o, pilot_o), pilot_n = _plan_sides(bounds, side)

    return EffectPilotPlan(
        kind=design.kind, alpha=design.alpha, power_target=power_target,
        mu0=mu0, sigma=sigma,
        underpower_prob=bounds.underpower_prob,
        underpower_threshold=bounds.underpower_threshold,
        overpower_prob=bounds.overpower_prob,
        overpower_threshold=bounds.overpower_threshold,
        main_n_under=main_u, main_n_over=main_o,
        mu_under=mu_u, mu_over=mu_o,
        pilot_n_under=pilot_u, pilot_n_over=pilot_o,
        pilot_n=pilot_n,
    )
