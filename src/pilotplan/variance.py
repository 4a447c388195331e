"""Pilot sizing for variance estimation: how many pilot subjects are needed
so that sizing the main study from the pilot's sample variance rarely yields
an under- (or over-) powered design.

Two routes to the pilot size are provided: the exact search on the
chi-square distribution of the sample variance, and the closed form
``df + 1`` with ``df = 2 z^2 / (ratio - 1)^2`` (``df / 2 + 1`` per group for
a pilot variance pooled over two groups).  The approximation is the default
because it is what generates the published reference grid and the 5/12/25
heuristic; the exact search is the statistically faithful variant and the
two disagree away from p = 0.2 (e.g. 22 vs 25 at p = 0.1 on the standard
ratio).  Plans surface whichever mode produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .distributions import chisq_cdf, norm_quantile
from .power import (
    EffectSpec,
    T_ITERATIVE,
    TestDesign,
    _first_true,
    _nearest_n,
    _zsum,
    required_n,  # noqa: F401  unused here; perfbench's tracer wraps it by this name
)

__all__ = [
    "EXACT",
    "APPROX",
    "PowerBounds",
    "VariancePilotPlan",
    "variance_underpower_prob",
    "pilot_n_exact",
    "pilot_n_approx",
    "plan_variance_pilot",
]

EXACT = "exact"
APPROX = "approx"

# exact mode searches pilot sizes up to this cap; past it the constraint is
# declared unsatisfiable (the threshold ratio is too close to 1)
SEARCH_CAP = 1_000_000


@dataclass(frozen=True)
class PowerBounds:
    """Underpower (and optional overpower) probability bounds.

    ``underpower_threshold`` / ``overpower_threshold`` are power levels: the
    plan limits to ``underpower_prob`` the chance that the main study's true
    power falls below ``underpower_threshold`` (mirrored above for the
    overpower side).
    """

    underpower_prob: float
    underpower_threshold: float
    overpower_prob: float | None = None
    overpower_threshold: float | None = None

    def __post_init__(self):
        if not (0.0 < self.underpower_prob < 1.0):
            raise ValueError(f"underpower_prob must be in (0, 1), got {self.underpower_prob!r}")
        if not (0.0 < self.underpower_threshold < 1.0):
            raise ValueError(
                f"underpower_threshold (a power level) must be in (0, 1), got {self.underpower_threshold!r}")
        has_p = self.overpower_prob is not None
        has_t = self.overpower_threshold is not None
        if has_p != has_t:
            raise ValueError("overpower_prob and overpower_threshold must be given together")
        if has_p:
            if not (0.0 < self.overpower_prob < 1.0):
                raise ValueError(f"overpower_prob must be in (0, 1), got {self.overpower_prob!r}")
            if not (0.0 < self.overpower_threshold < 1.0):
                raise ValueError(
                    f"overpower_threshold (a power level) must be in (0, 1), got {self.overpower_threshold!r}")

    @property
    def has_overpower(self) -> bool:
        return self.overpower_prob is not None

    def check_against_target(self, power_target: float) -> None:
        if self.underpower_threshold >= power_target:
            raise ValueError(
                f"underpower threshold ({self.underpower_threshold}) must lie below "
                f"the target power ({power_target})")
        if self.has_overpower and self.overpower_threshold <= power_target:
            raise ValueError(
                f"overpower threshold ({self.overpower_threshold}) must lie above "
                f"the target power ({power_target})")


def _pilot_df(pilot_n: int, pooled: bool) -> int:
    return 2 * pilot_n - 2 if pooled else pilot_n - 1


def variance_underpower_prob(pilot_n: int, sigma_ratio_sq: float,
                             pooled: bool = False) -> float:
    """Chance the pilot sample variance falls below ``sigma_ratio_sq * sigma^2``.

    With normal data, df * S^2 / sigma^2 is chi-square with df = N_p - 1
    (2 N_p - 2 when the pilot variance is pooled across two groups), so this
    is chisq_cdf(df * ratio, df).
    """
    pilot_n = int(pilot_n)
    if pilot_n < 2:
        raise ValueError(f"pilot size must be >= 2 to estimate a variance, got {pilot_n}")
    sigma_ratio_sq = float(sigma_ratio_sq)
    if not (math.isfinite(sigma_ratio_sq) and sigma_ratio_sq > 0.0):
        raise ValueError(f"variance ratio must be positive, got {sigma_ratio_sq!r}")
    df = _pilot_df(pilot_n, pooled)
    return chisq_cdf(df * sigma_ratio_sq, df)


def pilot_n_exact(sigma_ratio_sq: float, p: float, side: str = "under",
                  pooled: bool = False, cap: int = SEARCH_CAP) -> int:
    """Smallest pilot size keeping the variance-miss probability below p.

    under: ratio < 1, miss event is S^2 < ratio * sigma^2.
    over:  ratio > 1, miss event is S^2 > ratio * sigma^2.
    Found by the package's one integer search (galloping, then bisection),
    in O(log n) chi-square evaluations; sizes past ``cap`` raise.
    """
    sigma_ratio_sq = float(sigma_ratio_sq)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0, 1), got {p!r}")
    if side not in ("under", "over"):
        raise ValueError(f"side must be 'under' or 'over', got {side!r}")
    if side == "under" and not (0.0 < sigma_ratio_sq < 1.0):
        raise ValueError(f"under side needs ratio in (0, 1), got {sigma_ratio_sq!r}")
    if side == "over" and not sigma_ratio_sq > 1.0:
        raise ValueError(f"over side needs ratio > 1, got {sigma_ratio_sq!r}")

    def meets(n: int) -> bool:
        df = _pilot_df(n, pooled)
        under = chisq_cdf(df * sigma_ratio_sq, df)
        return (under if side == "under" else 1.0 - under) < p

    # the sizes that meet the bound are n = 2 or every n from some n0 on (the
    # over-side miss rises to one peak, then falls), so the search starts at
    # 2 and climbs past the peak; a pilot of 1 has no variance
    return _first_true(
        meets, 1, 2, cap,
        f"no pilot size up to the search cap ({cap}) meets the bound; "
        f"the variance ratio {sigma_ratio_sq} is too close to 1")


def pilot_n_approx(sigma_ratio_sq: float, p: float, pooled: bool = False) -> int:
    """Closed-form pilot size from df = 2 z_{1-p}^2 / (ratio - 1)^2.

    ceil(df + 1) for a single pilot; ceil(df / 2 + 1) per group when the
    pilot variance is pooled over two groups (2 N_p - 2 degrees of freedom).
    """
    sigma_ratio_sq = float(sigma_ratio_sq)
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0, 1), got {p!r}")
    if not (math.isfinite(sigma_ratio_sq) and sigma_ratio_sq > 0.0):
        raise ValueError(f"variance ratio must be positive, got {sigma_ratio_sq!r}")
    if sigma_ratio_sq == 1.0:
        raise ValueError("variance ratio of exactly 1 gives an unbounded pilot size")
    z = -norm_quantile(p)
    df = 2.0 * z * z / (sigma_ratio_sq - 1.0) ** 2
    raw = (df / 2.0 if pooled else df) + 1.0
    return max(2, math.ceil(raw - 1e-9))


class _PlanRecord:
    """A plan as a two-part record: ``config`` holds the inputs named in
    ``_CONFIG_KEYS`` and ``results`` every other field.  ``csv_rows`` is the
    plan as one flat row in field order."""

    _CONFIG_KEYS: tuple = ()

    @property
    def config(self) -> dict:
        full = asdict(self)
        return {k: full[k] for k in self._CONFIG_KEYS}

    @property
    def results(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in self._CONFIG_KEYS}

    def csv_rows(self) -> list[dict]:
        return [asdict(self)]


@dataclass(frozen=True)
class VariancePilotPlan(_PlanRecord):
    """Full trace of a variance-driven pilot plan.

    main_n_* are the main-study per-group sizes whose power equals the
    respective threshold; sigma_* the standard deviations at which the target
    design is exactly adequate; pilot_n_* the per-side pilot sizes and
    pilot_n their maximum.
    """

    kind: str
    alpha: float
    power_target: float
    delta: float
    sigma: float
    underpower_prob: float
    underpower_threshold: float
    overpower_prob: float | None
    overpower_threshold: float | None
    main_n_under: int
    main_n_over: int | None
    sigma_under: float
    sigma_over: float | None
    pilot_n_under: int
    pilot_n_over: int | None
    pilot_n: int
    mode: str
    pooled_pilot: bool

    _CONFIG_KEYS = ("kind", "alpha", "power_target", "delta", "sigma",
                    "underpower_prob", "underpower_threshold",
                    "overpower_prob", "overpower_threshold", "mode", "pooled_pilot")


def _plan_sides(bounds: PowerBounds, rule):
    """The (main size, threshold parameter, pilot size) that a planner's
    ``rule(threshold, prob, side)`` gives for the under side and the over side
    (all None without an overpower bound), and the larger pilot size."""
    under = rule(bounds.underpower_threshold, bounds.underpower_prob, "under")
    if not bounds.has_overpower:
        return under, (None, None, None), under[2]
    over = rule(bounds.overpower_threshold, bounds.overpower_prob, "over")
    return under, over, max(under[2], over[2])


def plan_variance_pilot(effect: EffectSpec, design: TestDesign, power_target: float,
                        bounds: PowerBounds, mode: str = APPROX,
                        pooled_pilot: bool = False) -> VariancePilotPlan:
    """Run the variance-driven pilot sizing algorithm end to end.

    Steps: main sizes at the threshold powers (reported as the integer nearest
    the exact noncentral-t requirement), the standard deviations at which the
    target-power design is exactly adequate (z-quantile chain, so the
    resulting variance ratio is scale invariant), pilot sizes per side in the
    chosen mode, and their maximum.
    """
    if mode not in (EXACT, APPROX):
        raise ValueError(f"mode must be '{EXACT}' or '{APPROX}', got {mode!r}")
    if not (0.0 < power_target < 1.0):
        raise ValueError(f"power_target must be in (0, 1), got {power_target!r}")
    bounds.check_against_target(power_target)
    if effect.effect_size == 0.0:
        raise ValueError("effect of 0 means an infinite main study; nothing to plan")

    zs_target = _zsum(design.alpha, power_target)

    def side(threshold: float, prob: float, which: str):
        n_main = _nearest_n(effect, design, threshold, T_ITERATIVE)
        sigma_thr = effect.sigma * _zsum(design.alpha, threshold) / zs_target
        ratio = (sigma_thr / effect.sigma) ** 2
        if mode == APPROX:
            n_pilot = pilot_n_approx(ratio, prob, pooled_pilot)
        else:
            n_pilot = pilot_n_exact(ratio, prob, which, pooled_pilot)
        return n_main, sigma_thr, n_pilot

    (main_u, sigma_u, pilot_u), (main_o, sigma_o, pilot_o), pilot_n = _plan_sides(bounds, side)

    return VariancePilotPlan(
        kind=design.kind, alpha=design.alpha, power_target=power_target,
        delta=effect.effect, sigma=effect.sigma,
        underpower_prob=bounds.underpower_prob,
        underpower_threshold=bounds.underpower_threshold,
        overpower_prob=bounds.overpower_prob,
        overpower_threshold=bounds.overpower_threshold,
        main_n_under=main_u, main_n_over=main_o,
        sigma_under=sigma_u, sigma_over=sigma_o,
        pilot_n_under=pilot_u, pilot_n_over=pilot_o,
        pilot_n=pilot_n, mode=mode, pooled_pilot=pooled_pilot,
    )
