"""Monte Carlo verification of the pilot plans.

Each replicate plays out the whole workflow an analyst would run: draw a
pilot, estimate the quantity the pilot is for (standard deviation or effect
size), size the main study from that estimate, evaluate the true power of the
resulting design, and flag the replicate when that power falls below the
underpower threshold.  The reported fraction of flagged replicates is the
empirical counterpart of the planner's underpower probability.

A pilot is drawn as its sufficient statistics, not its observations: under
normal data the sample mean (or difference of means) is N(mu, g sigma^2 / n)
and independent of df S^2 / sigma^2, which is chi-square on df (Cochran's
theorem).  So an effect replicate takes one normal and one chi-square
deviate, a variance replicate one chi-square deviate, whatever the pilot size.

Nor is every replicate's main study sized.  The main size never increases as
the estimate grows, so the reported size quantiles are the exact sizes of
five order statistics of the estimates, by the integer search of
``main_sample_size`` (any size up to 1e9 per group).  A replicate is
underpowered exactly when n_crit - 1 subjects, one fewer than the threshold
power needs at the true effect, already reach the target power at its
estimate; that holds from some estimate on, so ``bisect`` counts the flags.

Nor is every replicate drawn where one uniform orders the estimates: a
variance estimate falls as its chi-square uniform u rises, and so does a
known-sigma estimate, mu / sigma - sqrt(g / n) Phi^-1(u).  Those runs read
order statistics of R uniforms, each drawn when first read (``_OrderStats``;
Devroye 1986, Non-Uniform Random Variate Generation, ch. V), about
5 + log2 R of them (known sigma, which merges its signs, reads about
(log2 R)^2), and never import numpy.  A pooled-SD estimate takes two
deviates, so no one uniform orders it: every replicate is drawn, the normal
from numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) and
the chi-square from its gamma sampler (Marsaglia & Tsang, ACM TOMS 26, 2000).

Randomness: one seed per run.  The order statistics come from
``random.Random(seed).betavariate`` in the order they are read: ``_report``
reads the flags first, then the quantiles, and changing that order changes
the stream.  Replicate r of a pooled-SD run reads entry r of two Philox
streams (numpy SeedSequence spawn keys 2 and 3), so such a run alone is a
prefix of any longer run with the same seed.  A table cell's seed is drawn
from (seed, table, cell).
"""

from __future__ import annotations

import bisect
import math
import numbers
import random
from dataclasses import dataclass, field, asdict, replace
from typing import TYPE_CHECKING

from .distributions import chisq_quantile, norm_quantile
from .power import (
    EffectSpec,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    _power_curve,
    _zsum,
    effect_for_n,  # noqa: F401  unused here; perfbench's tracer wraps it by this name
    main_sample_size,
)
from .variance import PowerBounds, _pilot_df, plan_variance_pilot
from .effect import plan_effect_pilot

# numpy is imported inside ``_rng`` alone, which only a pooled-SD run calls
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConfigError",
    "SimulationConfig",
    "SimulationReport",
    "TableReport",
    "simulate_variance_pipeline",
    "simulate_effect_pipeline",
    "reproduce_table",
    "POOLED_SD",
    "KNOWN_SIGMA",
]

VARIANCE = "variance"
EFFECT = "effect"

POOLED_SD = "pooled-sd"
KNOWN_SIGMA = "known-sigma"


class ConfigError(ValueError):
    """Simulation configuration is invalid; raised before any sampling."""


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs for one simulated planning pipeline."""

    scenario: str
    effect: float                  # true delta (variance) or mu0 (effect)
    pilot_n: int
    seed: int
    replicates: int = 1000
    sigma: float = 1.0
    kind: str = TWO_SAMPLE
    alpha: float = 0.05
    power_target: float = 0.8
    underpower_threshold: float = 0.6
    pooled_pilot: bool = False     # variance scenario only: pool two pilot groups
    sizing_mode: str = T_ITERATIVE
    estimator: str = POOLED_SD     # effect scenario only

    def validate(self) -> None:
        if self.scenario not in (VARIANCE, EFFECT):
            raise ConfigError(f"scenario must be '{VARIANCE}' or '{EFFECT}', got {self.scenario!r}")
        try:
            self.design()       # checks kind and alpha
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _require_count("seed", self.seed, 0)
        _require_count("replicates", self.replicates, 1)
        if not (0.0 < self.power_target < 1.0):
            raise ConfigError(f"power_target must be in (0, 1), got {self.power_target!r}")
        if not (0.0 < self.underpower_threshold < self.power_target):
            raise ConfigError(
                "underpower_threshold must be a power level below power_target, "
                f"got {self.underpower_threshold!r} against {self.power_target!r}")
        if not (math.isfinite(self.effect) and self.effect > 0.0):
            raise ConfigError(f"true effect must be positive, got {self.effect!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigError(f"sigma must be positive, got {self.sigma!r}")
        if self.sizing_mode not in (Z_APPROX, T_ITERATIVE):
            raise ConfigError(f"sizing_mode must be '{Z_APPROX}' or '{T_ITERATIVE}'")
        if self.scenario == VARIANCE:
            _require_count("pilot_n of a variance pilot", self.pilot_n, 2)
            if self.estimator != POOLED_SD:
                raise ConfigError(f"estimator applies to the '{EFFECT}' scenario only, "
                                  f"got {self.estimator!r}")
        else:
            if self.pooled_pilot:
                raise ConfigError(f"pooled_pilot applies to the '{VARIANCE}' scenario only")
            if self.estimator not in (POOLED_SD, KNOWN_SIGMA):
                raise ConfigError(f"estimator must be '{POOLED_SD}' or '{KNOWN_SIGMA}'")
            _require_count(f"pilot_n with the {self.estimator} estimator", self.pilot_n,
                           2 if self.estimator == POOLED_SD else 1)

    def design(self) -> TestDesign:
        return TestDesign(self.kind, self.alpha)


def _require_count(what: str, value, least: int) -> None:
    # an int (not a bool) of at least ``least``: a float or a negative seed
    # would run as some other integer than the one echoed
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of a simulated pipeline run; its inputs are in ``config``."""

    empirical_underpower: float
    mc_standard_error: float
    nonpositive_effects: int
    main_n_quantiles: dict
    config: dict = field(repr=False)

    scenario = property(lambda self: self.config["scenario"])
    replicates = property(lambda self: self.config["replicates"])
    seed = property(lambda self: self.config["seed"])

    @property
    def results(self) -> dict:
        return {"empirical_underpower": self.empirical_underpower,
                "mc_standard_error": self.mc_standard_error,
                "nonpositive_effects": self.nonpositive_effects,
                "main_n_quantiles": self.main_n_quantiles}

    def csv_rows(self) -> list[dict]:
        """One row: the config, the scalar results, then main_n_q5..q95."""
        row = {**self.config, **self.results}
        del row["main_n_quantiles"]
        row.update({f"main_n_q{k}": v for k, v in self.main_n_quantiles.items()})
        return [row]


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------

def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in spawn_key))))


# the open interval (0, 1) that every drawn uniform is clamped into
_TINY, _BELOW_ONE = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)


class _OrderStats:
    """Item k is f at the k-th largest of ``reps`` uniforms, drawn when first
    read (ascending for a falling f).  Rank i is drawn between the nearest
    drawn ranks lo < i < hi (sentinels 0.0 at rank 0 and 1.0 at rank reps + 1)
    as v_lo + (v_hi - v_lo) Beta(i - lo, hi - i), so the draws depend on the
    order of reads."""

    def __init__(self, reps: int, seed: int, f):
        self._reps, self._f = reps, f
        self._beta = random.Random(seed).betavariate
        self._ranks, self._u = [0, reps + 1], [0.0, 1.0]
        self._items: dict = {}

    def __len__(self) -> int:
        return self._reps

    def __getitem__(self, k: int) -> float:
        if k in self._items:
            return self._items[k]
        if not 0 <= k < self._reps:
            raise IndexError(k)
        i = self._reps - k
        j = bisect.bisect_left(self._ranks, i)
        (lo, hi), (v_lo, v_hi) = self._ranks[j - 1:j + 1], self._u[j - 1:j + 1]
        v = v_lo + (v_hi - v_lo) * self._beta(i - lo, hi - i)
        v = min(max(v, v_lo, _TINY), v_hi, _BELOW_ONE)    # ties are allowed
        self._ranks.insert(j, i)
        self._u.insert(j, v)
        item = self._items[k] = self._f(v)
        return item


class _Magnitudes:
    """The magnitudes of the nonzero items of the ascending sequence ``e``,
    ascending: the negative items reversed, merged with the positive ones.
    Item k is found by two-sequence selection in about 2 log2 len(e) reads."""

    def __init__(self, e):
        self.e = e
        self._neg = bisect.bisect_left(e, 0.0)
        self.nonpositive = bisect.bisect_right(e, 0.0, lo=self._neg)
        self._pos = len(e) - self.nonpositive

    def __len__(self) -> int:
        return self._neg + self._pos

    def _a(self, i: int) -> float:      # the i-th smallest negative magnitude
        return -float(self.e[self._neg - 1 - i])

    def _b(self, j: int) -> float:      # the j-th smallest positive item
        return float(self.e[self.nonpositive + j])

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < len(self):
            raise IndexError(k)
        # i of the k + 1 smallest are negative: the first i at which taking
        # one more negative would pass the positive it displaces
        lo = max(0, k + 1 - self._pos)
        i = lo + bisect.bisect_left(range(lo, min(k + 1, self._neg)), True,
                                    key=lambda t: self._a(t) >= self._b(k - t))
        return max(self._a(i - 1) if i else 0.0, self._b(k - i) if i <= k else 0.0)


# ---------------------------------------------------------------------------
# Main-study sizes and underpower flags from the estimated effect sizes
# ---------------------------------------------------------------------------

# each percentile under its key in ``main_n_quantiles``; every report shares
# these key strings
_QUANTILES = {"5": 5, "25": 25, "50": 50, "75": 75, "95": 95}


def _main_n_quantiles(d, design: TestDesign, power: float, mode: str) -> dict:
    """Quantiles (``inverted_cdf``) of the main sizes the positive estimates
    get, from the estimates in ascending order (any sequence).

    The size never increases as the estimate grows, so the q-th percentile
    of the sizes is the size of the estimate at the q-th percentile counted
    from the top, -np.percentile(-d, q, method="inverted_cdf"), which is
    d[n - ceil(n q / 100)]: five sizings, not one per replicate.
    """
    n = len(d)
    return {key: main_sample_size(EffectSpec(d[n - (n * q + 99) // 100]), design, power, mode)
            if n else None for key, q in _QUANTILES.items()}


def _underpower_count(d, design: TestDesign, config: SimulationConfig,
                      n_crit: int) -> int:
    """Replicates whose sized main study has true power below the threshold.

    True power rises with N, so that happens exactly when the main size is
    below n_crit (the threshold's own requirement), that is when n_crit - 1
    subjects already reach the target power at the estimate.  That holds
    from some estimate on, so over the ascending positive estimates ``d``
    the count is a bisection.
    """
    if n_crit <= 2:
        return 0
    m = n_crit - 1
    target = config.power_target
    if config.sizing_mode == Z_APPROX:
        zs = _zsum(design.alpha, target)
        g_zz = design.groups * zs * zs

        def reaches(x: float) -> bool:
            return g_zz / (x * x) - 1e-9 <= m
    else:
        power = _power_curve(m, design)

        def reaches(x: float) -> bool:
            return power(x) >= target

    return len(d) - bisect.bisect_left(d, True, key=reaches)


def _report(config: SimulationConfig, d, nonpositive: int) -> SimulationReport:
    """Size, flag and summarize a run from its positive estimated effect
    sizes (magnitudes) ``d`` in ascending order; it reads 5 + log2(len(d)) or so."""
    design = config.design()
    true_effect = EffectSpec(config.effect, config.sigma)
    n_crit = main_sample_size(true_effect, design, config.underpower_threshold, T_ITERATIVE)
    r = config.replicates
    # the flags are read first, then the quantiles: a lazily drawn ``d``
    # draws in this order
    p_hat = _underpower_count(d, design, config, n_crit) / r
    return SimulationReport(
        empirical_underpower=p_hat,
        mc_standard_error=math.sqrt(p_hat * (1.0 - p_hat) / r),
        nonpositive_effects=nonpositive,
        main_n_quantiles=_main_n_quantiles(d, design, config.power_target,
                                           config.sizing_mode),
        config=asdict(config),
    )


def simulate_variance_pipeline(config: SimulationConfig) -> SimulationReport:
    """Pilot -> sample SD -> main-study size -> true power, per replicate.

    The pilot is a single normal sample of size pilot_n (two pooled groups of
    pilot_n each when ``pooled_pilot``); the main study is sized for the
    target power using the estimated SD and the planner's practically
    meaningful effect; the replicate is flagged when the design's true power
    (at the true sigma) is below the underpower threshold.
    """
    config.validate()
    if config.scenario != VARIANCE:
        raise ConfigError(f"expected a '{VARIANCE}' scenario, got {config.scenario!r}")

    # (df) S^2 / sigma^2 is chi-square on df = n - 1, or 2n - 2 pooled
    df = _pilot_df(config.pilot_n, config.pooled_pilot)

    def estimate(p: float) -> float:
        return config.effect / math.sqrt(config.sigma ** 2 * chisq_quantile(p, df) / df)

    return _report(config, _OrderStats(config.replicates, config.seed, estimate),
                   nonpositive=0)


def simulate_effect_pipeline(config: SimulationConfig) -> SimulationReport:
    """Pilot -> estimated effect size -> main-study size -> true power.

    Two pilot groups of pilot_n each (one group for one-sample designs); the
    effect size estimate divides by the pooled sample SD, or by the known
    sigma under the ``known-sigma`` estimator.  Sizing uses the magnitude of
    the estimate (two-sided power is symmetric in its sign).  Replicates with
    a nonpositive estimate are tallied separately in the report; the headline
    fraction counts the power-based flags.
    """
    config.validate()
    if config.scenario != EFFECT:
        raise ConfigError(f"expected an '{EFFECT}' scenario, got {config.scenario!r}")
    design = config.design()
    reps, npil = config.replicates, config.pilot_n
    spread = math.sqrt(design.groups / npil)

    # the mean (two-sample: difference of means) is N(mu, g sigma^2 / n) and
    # independent of the pooled S^2, which is sigma^2 chi2(g (n - 1)) / df
    if config.estimator == KNOWN_SIGMA:
        mu = config.effect / config.sigma
        e = _OrderStats(reps, config.seed, lambda u: mu - spread * norm_quantile(u))
    else:
        # the estimates are built in place, one array at a time
        e = _rng(config.seed, 2).standard_normal(reps)
        e *= config.sigma * spread
        e += config.effect
        df = design.df(npil)
        s = _rng(config.seed, 3).chisquare(df, reps)
        s /= df
        s **= 0.5
        s *= config.sigma
        e /= s
        del s
        e.sort()
    d = _Magnitudes(e)
    return _report(config, d, nonpositive=d.nonpositive)


# ---------------------------------------------------------------------------
# Reference-table reproduction
# ---------------------------------------------------------------------------

TABLE1_UNDERPOWER_PROBS = (0.1, 0.2, 0.3)
TABLE1_DELTAS = (1, 2, 3, 4)
TABLE1_SIGMAS = (2, 3, 4, 5, 6)

TABLE2_UNDERPOWER_PROBS = (0.2, 0.25, 0.3, 0.35, 0.4)
TABLE2_EFFECTS = (0.2, 0.5, 0.8)


@dataclass(frozen=True)
class TableReport:
    """Computed pilot sizes plus simulated underpower fractions for the
    reference grids (sizes on the left, probabilities on the right)."""

    cells: list          # dicts: grid coordinates + pilot_n + empirical_underpower
    extra: dict          # e.g. the main-study row of the effect grid
    config: dict

    table_id = property(lambda self: self.config["table_id"])
    replicates = property(lambda self: self.config["replicates"])
    seed = property(lambda self: self.config["seed"])

    @property
    def results(self) -> dict:
        return {"cells": self.cells, "extra": self.extra}

    def csv_rows(self) -> list[dict]:
        """One row per cell: the config, then the cell."""
        return [{**self.config, **cell} for cell in self.cells]

    def format_text(self) -> str:
        lines = []
        if self.table_id == 1:
            head = ("underpower  delta |" +
                    "".join(f"  s={s}" for s in TABLE1_SIGMAS) + "   |" +
                    "".join(f"   s={s}" for s in TABLE1_SIGMAS))
            lines.append("pilot size (left) / simulated underpower (right)")
            lines.append(head)
            for p in TABLE1_UNDERPOWER_PROBS:
                for d in TABLE1_DELTAS:
                    row = [c for c in self.cells
                           if c["underpower_prob"] == p and c["delta"] == d]
                    row.sort(key=lambda c: c["sigma"])
                    sizes = "".join(f"{c['pilot_n']:5d}" for c in row)
                    probs = "".join(f" {c['empirical_underpower']:5.1%}" for c in row)
                    lines.append(f"{p:10.0%}  {d:5d} |{sizes}   |{probs}")
        else:
            lines.append("pilot size (left) / simulated underpower (right)")
            lines.append("underpower |" +
                         "".join(f"  d={e}" for e in TABLE2_EFFECTS) + "   |" +
                         "".join(f"   d={e}" for e in TABLE2_EFFECTS))
            for p in TABLE2_UNDERPOWER_PROBS:
                row = [c for c in self.cells if c["underpower_prob"] == p]
                row.sort(key=lambda c: c["effect"])
                sizes = "".join(f"{c['pilot_n']:6d}" for c in row)
                probs = "".join(f" {c['empirical_underpower']:6.1%}" for c in row)
                lines.append(f"{p:10.0%} |{sizes}   |{probs}")
            main = self.extra.get("main_study_n", {})
            lines.append("main study N |" +
                         "".join(f"{main[str(e)]:6d}" for e in TABLE2_EFFECTS))
        return "\n".join(lines) + "\n"


def reproduce_table(table_id: int, replicates: int = 1000, seed: int = 0) -> TableReport:
    """Recompute a reference grid: planned pilot sizes and their simulated
    underpower fractions, cell for cell, in the published layout."""
    table_id = int(table_id)
    if table_id not in (1, 2):
        raise ConfigError(f"table_id must be 1 or 2, got {table_id!r}")
    replicates = int(replicates)
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates!r}")
    _require_count("seed", seed, 0)
    cells = []
    extra: dict = {}
    cell_idx = 0
    if table_id == 1:
        for p in TABLE1_UNDERPOWER_PROBS:
            for delta in TABLE1_DELTAS:
                for sigma in TABLE1_SIGMAS:
                    plan = plan_variance_pilot(
                        EffectSpec(delta, sigma), TestDesign(TWO_SAMPLE, 0.05),
                        0.8, PowerBounds(p, 0.6))
                    cfg = SimulationConfig(
                        scenario=VARIANCE, effect=delta, sigma=sigma,
                        pilot_n=plan.pilot_n, seed=seed, replicates=replicates)
                    rep = simulate_variance_pipeline(
                        _respawn(cfg, table_id, cell_idx))
                    cell_idx += 1
                    cells.append({
                        "underpower_prob": p, "delta": delta, "sigma": sigma,
                        "pilot_n": plan.pilot_n,
                        "empirical_underpower": rep.empirical_underpower,
                    })
    else:
        for p in TABLE2_UNDERPOWER_PROBS:
            for eff in TABLE2_EFFECTS:
                plan = plan_effect_pilot(eff, 1.0, TestDesign(TWO_SAMPLE, 0.05),
                                         0.8, PowerBounds(p, 0.6))
                cfg = SimulationConfig(
                    scenario=EFFECT, effect=eff, sigma=1.0,
                    pilot_n=plan.pilot_n, seed=seed, replicates=replicates)
                rep = simulate_effect_pipeline(_respawn(cfg, table_id, cell_idx))
                cell_idx += 1
                cells.append({
                    "underpower_prob": p, "effect": eff,
                    "pilot_n": plan.pilot_n,
                    "empirical_underpower": rep.empirical_underpower,
                })
        extra["main_study_n"] = {
            str(eff): main_sample_size(EffectSpec(eff), TestDesign(TWO_SAMPLE, 0.05), 0.8)
            for eff in TABLE2_EFFECTS}
    return TableReport(
        cells=cells, extra=extra,
        config={"table_id": table_id, "replicates": replicates, "seed": int(seed),
                "sizing_mode": T_ITERATIVE, "alpha": 0.05, "power_target": 0.8,
                "underpower_threshold": 0.6, "kind": TWO_SAMPLE},
    )


def _respawn(cfg: SimulationConfig, table_id: int, cell_idx: int) -> SimulationConfig:
    # per-cell substream: a child seed drawn from (seed, table, cell); the
    # child is a plain 63-bit int so the cell config remains a self-contained
    # reproducible record
    child = random.Random(f"{cfg.seed}:{table_id}:{cell_idx}").getrandbits(63)
    return replace(cfg, seed=child)
