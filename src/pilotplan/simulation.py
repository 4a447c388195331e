"""Monte Carlo verification of the pilot plans.

Each replicate plays out the whole workflow an analyst would run: generate
pilot data, estimate the quantity the pilot is for (standard deviation or
effect size), size the main study from that estimate, evaluate the true power
of the resulting design, and flag the replicate when that power falls below
the underpower threshold.  The reported fraction of flagged replicates is the
empirical counterpart of the planner's underpower probability.

Randomness: one logical seed per run; each scenario/cell derives its stream
through numpy's SeedSequence spawn keys, and within a cell replicate r reads a
fixed, index-determined block of a counter-based (Philox) stream, so results
do not depend on execution order or parallelism.  Normal deviates come from
the package's own inverse normal CDF.
"""

from __future__ import annotations

import io
import json
import math
import csv as _csv
from dataclasses import dataclass, field, asdict

import numpy as np

from .distributions import norm_quantile
from .power import (
    EffectSpec,
    ONE_SAMPLE,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    _zsum,
    effect_for_n,
    main_sample_size,
)
from .variance import PowerBounds, plan_variance_pilot
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

# the exact sizing table stops at this n; estimates weaker than its last
# boundary effect get the closed-form size instead, and at these sizes the
# exact and closed-form requirements differ by a couple of subjects out of
# hundreds.  The cap also bounds the table at 599 floats (4.8 KB) per design.
# Underpower flags never go through this fallback: they compare the estimate
# against the exact threshold effect directly.
_TABLE_N_CAP = 600


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
    pooled_pilot: bool = False     # variance scenario: pool two pilot groups
    sizing_mode: str = T_ITERATIVE
    estimator: str = POOLED_SD     # effect scenario only

    def validate(self) -> None:
        if self.scenario not in (VARIANCE, EFFECT):
            raise ConfigError(f"scenario must be '{VARIANCE}' or '{EFFECT}', got {self.scenario!r}")
        if self.kind not in (ONE_SAMPLE, TWO_SAMPLE):
            raise ConfigError(f"kind must be '{ONE_SAMPLE}' or '{TWO_SAMPLE}', got {self.kind!r}")
        if int(self.replicates) < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha!r}")
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
        else:
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
    """Outcome of a simulated pipeline run."""

    scenario: str
    replicates: int
    seed: int
    empirical_underpower: float
    mc_standard_error: float
    nonpositive_effects: int
    main_n_quantiles: dict
    config: dict = field(repr=False)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "results": {
            "empirical_underpower": self.empirical_underpower,
            "mc_standard_error": self.mc_standard_error,
            "nonpositive_effects": self.nonpositive_effects,
            "main_n_quantiles": self.main_n_quantiles,
        }}, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        row = dict(self.config)
        row.update({
            "empirical_underpower": self.empirical_underpower,
            "mc_standard_error": self.mc_standard_error,
            "nonpositive_effects": self.nonpositive_effects,
        })
        for k, v in self.main_n_quantiles.items():
            row[f"main_n_q{k}"] = v
        buf = io.StringIO()
        writer = _csv.DictWriter(buf, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue()


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------

def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in spawn_key))))


def _standard_normals(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    # uniforms on the open interval (0, 1): integers 1 .. 2^53 - 1 over 2^53,
    # mapped through the package's inverse normal CDF; replicate r is row r
    u = rng.integers(1, 1 << 53, size=shape).astype(float) / float(1 << 53)
    return norm_quantile(u)


# replicate blocks bound peak memory: the inverse normal CDF holds about a
# dozen temporaries the size of its input, so a block of 2**16 draws (512 KB)
# keeps them near 6 MB.  Blocks are whole rows, so blocking never changes
# which counter positions a replicate reads and results do not depend on the
# block size
_BLOCK_ELEMS = 1 << 16


def _replicate_blocks(reps: int, per_rep: int):
    step = max(1, _BLOCK_ELEMS // max(per_rep, 1))
    start = 0
    while start < reps:
        yield start, min(step, reps - start)
        start += step


# ---------------------------------------------------------------------------
# Main-study sizing of a vector of estimated effect sizes
# ---------------------------------------------------------------------------

# (kind, alpha, power) -> array of boundary effects e(2), e(3), ..., e(k);
# e(n) is the effect size at which a study of size n has exactly the target
# power, so the exact sizing of an estimate d is the smallest n with
# e(n) <= d.  Each table is extended, never rebuilt, up to _TABLE_N_CAP; the
# number of keys is not bounded.
_boundary_cache: dict = {}


def _boundary_table(design: TestDesign, power: float, n_hi: int) -> np.ndarray:
    """e(2..k) for the design, extended to k >= n_hi in one batched solve."""
    key = (design.kind, design.alpha, power)
    table = _boundary_cache.get(key, np.empty(0))
    k = len(table) + 1
    if n_hi > k:
        more = effect_for_n(np.arange(k + 1, n_hi + 1), design, power, T_ITERATIVE)
        table = _boundary_cache[key] = np.concatenate([table, more])
    return table


def _boundary_effect(n: int, design: TestDesign, power: float) -> float:
    """e(n): read from the table when it reaches n, else solved on its own."""
    table = _boundary_cache.get((design.kind, design.alpha, power), ())
    if n - 2 < len(table):
        return float(table[n - 2])
    return effect_for_n(n, design, power, T_ITERATIVE)


def _size_mains(d_hat: np.ndarray, design: TestDesign, power: float,
                mode: str) -> np.ndarray:
    """Per-replicate main-study size from estimated effect sizes (vectorized).

    Two-sided sizing is symmetric in the sign of the estimate; callers pass
    magnitudes.  Zero estimates get a sentinel far beyond any threshold.
    """
    d = np.asarray(d_hat, dtype=float)
    zs = _zsum(design.alpha, power)
    zero = d <= 0.0
    with np.errstate(divide="ignore", over="ignore"):
        n_z = design.groups * zs * zs / np.where(zero, 1.0, d) ** 2
    n_z_int = np.ceil(np.minimum(n_z, 2**62 - 8.0) - 1e-9).astype(np.int64)
    if mode == Z_APPROX:
        out = np.maximum(n_z_int, 2)
        out[zero] = 2**62
        return out

    # exact boundaries cover n = 2..n_hi; weaker estimates (huge studies) fall
    # back to the closed form, which is within a few per mille out there
    n_hi = min(int(n_z_int.max()) + 6, _TABLE_N_CAP)
    bounds = _boundary_table(design, power, n_hi)[:n_hi - 1]
    # bounds is decreasing in n: smallest adequate n via searchsorted on -bounds
    idx = np.searchsorted(-bounds, -d, side="left")
    out = np.where(idx < len(bounds), idx + 2, np.maximum(n_z_int, 2))
    out[zero] = 2**62
    return out


def _underpower_flags(d_mag: np.ndarray, main_n: np.ndarray, design: TestDesign,
                      config: SimulationConfig, n_crit: int) -> np.ndarray:
    """Replicates whose sized main study has true power below the threshold.

    True power is increasing in N, so power_at(main_n) < threshold exactly
    when main_n < n_crit (the threshold's own requirement).  Under exact
    sizing, main_n <= n_crit - 1 in turn means the estimate reached the
    boundary effect of n_crit - 1, which dodges the capped sizing table.
    """
    if n_crit <= 2:
        return np.zeros(d_mag.shape, dtype=bool)
    if config.sizing_mode == Z_APPROX:
        return main_n < n_crit
    return d_mag >= _boundary_effect(n_crit - 1, design, config.power_target)


def _main_n_quantiles(main_n: np.ndarray) -> dict:
    qs = (5, 25, 50, 75, 95)
    finite = main_n[main_n < 2**61]
    if finite.size == 0:
        return {str(q): None for q in qs}
    vals = np.percentile(finite, qs, method="inverted_cdf")
    return {str(q): int(v) for q, v in zip(qs, vals)}


def _report(config: SimulationConfig, flags: np.ndarray, main_n: np.ndarray,
            nonpositive: int) -> SimulationReport:
    r = int(config.replicates)
    p_hat = float(np.count_nonzero(flags)) / r
    se = math.sqrt(p_hat * (1.0 - p_hat) / r)
    return SimulationReport(
        scenario=config.scenario,
        replicates=r,
        seed=int(config.seed),
        empirical_underpower=p_hat,
        mc_standard_error=se,
        nonpositive_effects=int(nonpositive),
        main_n_quantiles=_main_n_quantiles(main_n),
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
    design = config.design()
    reps = int(config.replicates)
    npil = int(config.pilot_n)

    rng = _rng(config.seed, 1)
    s2 = np.empty(reps)
    per_rep = 2 * npil if config.pooled_pilot else npil
    for start, m in _replicate_blocks(reps, per_rep):
        if config.pooled_pilot:
            draws = _standard_normals(rng, (m, 2, npil)) * config.sigma
            s2[start:start + m] = draws.var(axis=2, ddof=1).mean(axis=1)
        else:
            draws = _standard_normals(rng, (m, npil)) * config.sigma
            s2[start:start + m] = draws.var(axis=1, ddof=1)

    d_hat = config.effect / np.sqrt(s2)
    main_n = _size_mains(d_hat, design, config.power_target, config.sizing_mode)

    true_effect = EffectSpec(config.effect, config.sigma)
    n_crit = main_sample_size(true_effect, design, config.underpower_threshold, T_ITERATIVE)
    flags = _underpower_flags(d_hat, main_n, design, config, n_crit)
    return _report(config, flags, main_n, nonpositive=0)


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

    rng = _rng(config.seed, 2)
    d_hat = np.empty(reps)
    if design.kind == TWO_SAMPLE:
        for start, m in _replicate_blocks(reps, 2 * npil):
            draws = _standard_normals(rng, (m, 2, npil)) * config.sigma
            draws[:, 1, :] += config.effect
            diff = draws[:, 1, :].mean(axis=1) - draws[:, 0, :].mean(axis=1)
            if config.estimator == POOLED_SD:
                sd = np.sqrt(draws.var(axis=2, ddof=1).mean(axis=1))
            else:
                sd = config.sigma
            d_hat[start:start + m] = diff / sd
    else:
        for start, m in _replicate_blocks(reps, npil):
            draws = _standard_normals(rng, (m, npil)) * config.sigma + config.effect
            mean = draws.mean(axis=1)
            if config.estimator == POOLED_SD:
                sd = np.sqrt(draws.var(axis=1, ddof=1))
            else:
                sd = config.sigma
            d_hat[start:start + m] = mean / sd

    nonpositive = int(np.count_nonzero(d_hat <= 0.0))
    d_mag = np.abs(d_hat)
    main_n = _size_mains(d_mag, design, config.power_target, config.sizing_mode)

    true_effect = EffectSpec(config.effect, config.sigma)
    n_crit = main_sample_size(true_effect, design, config.underpower_threshold, T_ITERATIVE)
    flags = _underpower_flags(d_mag, main_n, design, config, n_crit)
    return _report(config, flags, main_n, nonpositive=nonpositive)


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

    table_id: int
    replicates: int
    seed: int
    cells: list          # dicts: grid coordinates + pilot_n + empirical_underpower
    extra: dict          # e.g. the main-study row of the effect grid
    config: dict

    def to_json(self) -> str:
        return json.dumps({"config": self.config,
                           "results": {"cells": self.cells, "extra": self.extra}},
                          indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = list(self.config) + list(self.cells[0])
        writer = _csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for cell in self.cells:
            row = dict(self.config)
            row.update(cell)
            writer.writerow(row)
        return buf.getvalue()

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


def reproduce_table(table_id: int, replicates: int = 1000, seed: int = 0,
                    sizing_mode: str = T_ITERATIVE) -> TableReport:
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
                        pilot_n=plan.pilot_n, seed=seed, replicates=replicates,
                        sizing_mode=sizing_mode)
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
                    pilot_n=plan.pilot_n, seed=seed, replicates=replicates,
                    sizing_mode=sizing_mode)
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
        table_id=table_id, replicates=replicates, seed=int(seed),
        cells=cells, extra=extra,
        config={"table_id": table_id, "replicates": replicates, "seed": int(seed),
                "sizing_mode": sizing_mode, "alpha": 0.05, "power_target": 0.8,
                "underpower_threshold": 0.6, "kind": TWO_SAMPLE},
    )


def _respawn(cfg: SimulationConfig, table_id: int, cell_idx: int) -> SimulationConfig:
    # per-cell substream: fold the cell index into the spawn chain by deriving
    # a child seed from (seed, table, cell); the child is a plain 63-bit int
    # so the cell config remains a self-contained reproducible record
    child = np.random.SeedSequence(cfg.seed, spawn_key=(table_id, cell_idx))
    sub_seed = int(child.generate_state(1, np.uint64)[0] >> np.uint64(1))
    return SimulationConfig(**{**asdict(cfg), "seed": sub_seed})
