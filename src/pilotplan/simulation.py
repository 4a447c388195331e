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
A variance replicate's chi-square deviate inverts a uniform.  An effect
replicate's deviates, which every estimate needs, come from numpy's samplers:
the ziggurat for the normal (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000)
and the gamma sampler for the chi-square (Marsaglia & Tsang, ACM TOMS 26,
2000).

Nor is every replicate's main study sized.  The main size never increases as
the estimate grows, so the reported size quantiles are the exact sizes of
five order statistics of the estimates, by the integer search of
``main_sample_size`` (any size up to 1e9 per group).  A replicate is
underpowered exactly when n_crit - 1 subjects, one fewer than the threshold
power needs at the true effect, already reach the target power at its
estimate; that holds from some estimate on, so ``bisect`` counts the flags.
A variance estimate falls as its uniform rises, so of R replicates only the
5 + log2 R or so estimates read are computed, at their ranks in the uniforms.

Randomness: one logical seed per run; each scenario/cell derives its
streams through numpy's SeedSequence spawn keys, each drawn from a
counter-based (Philox) generator.  Replicate r reads entry r of each of its
cell's streams: the variance uniforms (spawn key 1), the effect's normal
deviates (spawn key 2) and its chi-square deviates (spawn key 3).  So
results do not depend on execution order, and a run is a prefix of any
longer run with the same seed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .distributions import chisq_quantile
from .distributions import norm_quantile  # noqa: F401  unused here; perfbench's tracer wraps it by this name
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
        if int(self.replicates) < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates!r}")
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
            if int(self.pilot_n) < 2:
                raise ConfigError(f"variance pilots need pilot_n >= 2, got {self.pilot_n!r}")
            if self.estimator != POOLED_SD:
                raise ConfigError(f"estimator applies to the '{EFFECT}' scenario only, "
                                  f"got {self.estimator!r}")
        else:
            if self.pooled_pilot:
                raise ConfigError(f"pooled_pilot applies to the '{VARIANCE}' scenario only")
            if self.estimator not in (POOLED_SD, KNOWN_SIGMA):
                raise ConfigError(f"estimator must be '{POOLED_SD}' or '{KNOWN_SIGMA}'")
            min_n = 2 if self.estimator == POOLED_SD else 1
            if int(self.pilot_n) < min_n:
                raise ConfigError(
                    f"effect pilots need pilot_n >= {min_n} with the {self.estimator} "
                    f"estimator, got {self.pilot_n!r}")

    def design(self) -> TestDesign:
        return TestDesign(self.kind, self.alpha)


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
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in spawn_key))))


def _uniforms(rng: np.random.Generator, reps: int) -> np.ndarray:
    # uniforms on the open interval (0, 1): integers 1 .. 2^53 - 1 over 2^53;
    # replicate r reads entry r, so a run is a prefix of any longer run
    return rng.integers(1, 1 << 53, size=reps).astype(float) / float(1 << 53)


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
    r = int(config.replicates)
    p_hat = _underpower_count(d, design, config, n_crit) / r
    return SimulationReport(
        empirical_underpower=p_hat,
        mc_standard_error=math.sqrt(p_hat * (1.0 - p_hat) / r),
        nonpositive_effects=int(nonpositive),
        main_n_quantiles=_main_n_quantiles(d, design, config.power_target,
                                           config.sizing_mode),
        config=asdict(config),
    )


class _Ascending:
    """Item k is f at the k-th largest of u, computed when read: ascending for a falling f."""

    def __init__(self, u: np.ndarray, f):
        self._u, self._f = np.sort(u)[::-1], f

    def __len__(self) -> int:
        return self._u.size

    def __getitem__(self, k: int) -> float:
        return self._f(float(self._u[k]))


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
    npil = int(config.pilot_n)

    # (df) S^2 / sigma^2 is chi-square on df = n - 1, or 2n - 2 pooled
    df = _pilot_df(npil, config.pooled_pilot)
    u = _uniforms(_rng(config.seed, 1), int(config.replicates))

    def estimate(p: float) -> float:
        return config.effect / math.sqrt(config.sigma ** 2 * chisq_quantile(p, df) / df)

    return _report(config, _Ascending(u, estimate), nonpositive=0)


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
    reps = int(config.replicates)
    npil = int(config.pilot_n)

    # the mean (two-sample: difference of means) is N(mu, g sigma^2 / n) and
    # independent of the pooled S^2, which is sigma^2 chi2(g (n - 1)) / df
    z = _rng(config.seed, 2).standard_normal(reps)
    mean = config.effect + config.sigma * math.sqrt(design.groups / npil) * z
    if config.estimator == POOLED_SD:
        df = design.df(npil)
        d_hat = mean / (config.sigma * np.sqrt(_rng(config.seed, 3).chisquare(df, reps) / df))
    else:
        d_hat = mean / config.sigma

    return _report(config, np.sort(np.abs(d_hat[d_hat != 0.0])).tolist(),
                   nonpositive=np.count_nonzero(d_hat <= 0.0))


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
    # per-cell substream: fold the cell index into the spawn chain by deriving
    # a child seed from (seed, table, cell); the child is a plain 63-bit int
    # so the cell config remains a self-contained reproducible record
    child = np.random.SeedSequence(cfg.seed, spawn_key=(table_id, cell_idx))
    sub_seed = int(child.generate_state(1, np.uint64)[0] >> np.uint64(1))
    return SimulationConfig(**{**asdict(cfg), "seed": sub_seed})
