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

from .distributions import (ConfigError, _choice, _count, _Output, _probability, _Record,
                            _scale, _threshold, chisq_cdf, norm_quantile)
from .power import (
    APPROX,
    EXACT,
    EffectSpec,
    T_ITERATIVE,
    TestDesign,
    _first_true,
    _pilot_df,
    _Sizer,
    required_n,  # noqa: F401  unused here; perfbench's tracer wraps it by this name
)

__all__ = [
    "PowerBounds",
    "VariancePilotPlan",
    "variance_underpower_prob",
    "pilot_n_exact",
    "pilot_n_approx",
    "plan_variance_pilot",
]

# exact mode searches pilot sizes up to this cap; past it the constraint is
# declared unsatisfiable (the threshold ratio is too close to 1)
SEARCH_CAP = 1_000_000


class PowerBounds(_Record):
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
        if (self.overpower_prob is None) != (self.overpower_threshold is None):
            raise ConfigError("overpower_prob and overpower_threshold must be given together")
        for name, value in vars(self).items():
            if value is not None:
                _probability(name, value)

    @property
    def has_overpower(self) -> bool:
        return self.overpower_prob is not None

    def check_against_target(self, power_target: float) -> None:
        _threshold("underpower_threshold", self.underpower_threshold, power_target)
        if self.has_overpower:
            _threshold("overpower_threshold", self.overpower_threshold, power_target, "over")


def variance_underpower_prob(pilot_n: int, sigma_ratio_sq: float,
                             pooled: bool = False) -> float:
    """Chance the pilot sample variance falls below ``sigma_ratio_sq * sigma^2``.

    With normal data, df * S^2 / sigma^2 is chi-square with df = N_p - 1
    (2 N_p - 2 when the pilot variance is pooled across two groups), so this
    is chisq_cdf(df * ratio, df).
    """
    df = _pilot_df(_count("pilot_n", pilot_n, 2), _choice("pooled", pooled, (False, True)))
    return chisq_cdf(df * _scale("sigma_ratio_sq", sigma_ratio_sq), df)


def pilot_n_exact(sigma_ratio_sq: float, p: float, side: str = "under",
                  pooled: bool = False, cap: int = SEARCH_CAP) -> int:
    """Smallest pilot size keeping the variance-miss probability below p.

    under: ratio < 1, miss event is S^2 < ratio * sigma^2.
    over:  ratio > 1, miss event is S^2 > ratio * sigma^2.
    Found by the package's one integer search (galloping, then bisection),
    in O(log n) chi-square evaluations; sizes past ``cap`` raise.
    """
    sigma_ratio_sq = _scale("sigma_ratio_sq", sigma_ratio_sq)
    p = _probability("p", p)
    side = _choice("side", side, ("under", "over"))
    pooled = _choice("pooled", pooled, (False, True))
    cap = _count("cap", cap, 2)
    if side == "under" and not sigma_ratio_sq < 1.0:
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
    p = _probability("p", p)
    sigma_ratio_sq = _scale("sigma_ratio_sq", sigma_ratio_sq)
    pooled = _choice("pooled", pooled, (False, True))
    if sigma_ratio_sq == 1.0:
        raise ValueError("variance ratio of exactly 1 gives an unbounded pilot size")
    z = -norm_quantile(p)
    # the quotient squared: (ratio - 1)^2 overflows at a huge ratio, where df -> 0
    df = 2.0 * (z / (sigma_ratio_sq - 1.0)) ** 2
    raw = (df / 2.0 if pooled else df) + 1.0
    return max(2, math.ceil(raw - 1e-9))


class _PlanRecord(_Output):
    """A plan, whose ``config`` is its input fields, named in
    ``_CONFIG_KEYS``.  ``csv_rows`` is the plan as one flat row in field
    order."""

    @property
    def config(self) -> dict:
        return {k: vars(self)[k] for k in self._CONFIG_KEYS}

    def csv_rows(self) -> list[dict]:
        return [dict(vars(self))]


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


def _plan_fields(sizer: _Sizer, power_target: float, bounds: PowerBounds,
                 param: str, rule) -> dict:
    """The fields both plan records share: the design of the plan's one
    ``sizer``, the target, the bounds, per side the main size at the
    threshold power, the threshold's ``param`` (sigma or mu) and the pilot
    size that ``rule(threshold, prob, side, zs_target)`` gives (all None
    without an overpower bound), then the larger pilot size.  ``rule`` takes
    its z sums and sizes from the same sizer, so each z term is computed once."""
    power_target = _probability("power_target", power_target)
    bounds.check_against_target(power_target)
    zs_target, design = sizer.zsum(power_target), sizer.design
    # the bounds' four fields, under the names the records use too
    fields = dict(kind=design.kind, alpha=design.alpha, power_target=power_target,
                  **vars(bounds))
    for side in ("under", "over"):
        threshold = fields[f"{side}power_threshold"]
        sizes = (None, None, None) if threshold is None else rule(
            threshold, fields[f"{side}power_prob"], side, zs_target)
        fields.update(zip((f"main_n_{side}", f"{param}_{side}", f"pilot_n_{side}"), sizes))
    fields["pilot_n"] = max(fields["pilot_n_under"], fields["pilot_n_over"] or 0)
    return fields


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
    mode = _choice("mode", mode, (EXACT, APPROX))
    pooled_pilot = _choice("pooled_pilot", pooled_pilot, (False, True))
    sizer = _Sizer(design)

    def side(threshold: float, prob: float, which: str, zs_target: float):
        zs = sizer.zsum(threshold, f"{which}power_threshold")
        sigma_thr = effect.sigma * zs / zs_target
        n_main = sizer.size(effect, threshold, T_ITERATIVE, 0.5)
        ratio = (sigma_thr / effect.sigma) ** 2
        if mode == APPROX:
            n_pilot = pilot_n_approx(ratio, prob, pooled_pilot)
        else:
            n_pilot = pilot_n_exact(ratio, prob, which, pooled_pilot)
        return n_main, sigma_thr, n_pilot

    return VariancePilotPlan(
        **_plan_fields(sizer, power_target, bounds, "sigma", side),
        delta=effect.effect, sigma=effect.sigma, mode=mode, pooled_pilot=pooled_pilot)
