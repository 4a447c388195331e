"""The reference grids: each cell's planned pilot size and its simulated
underpower.  The one module that imports both the planners and the pipelines,
so a ``simulate`` command loads neither planner.  A table cell's seed is
drawn from (seed, table, cell)."""

from __future__ import annotations

import random

from .distributions import _choice, _count, _Output
from .power import TWO_SAMPLE, T_ITERATIVE, EffectSpec, TestDesign, _Sizer
from .variance import PowerBounds, plan_variance_pilot
from .effect import plan_effect_pilot
from .simulation import (EFFECT, VARIANCE, SimulationConfig, simulate_effect_pipeline,
                         simulate_variance_pipeline)

__all__ = ["TableReport", "reproduce_table"]

TABLE1_UNDERPOWER_PROBS = (0.1, 0.2, 0.3)
TABLE1_DELTAS = (1, 2, 3, 4)
TABLE1_SIGMAS = (2, 3, 4, 5, 6)

TABLE2_UNDERPOWER_PROBS = (0.2, 0.25, 0.3, 0.35, 0.4)
TABLE2_EFFECTS = (0.2, 0.5, 0.8)


class TableReport(_Output):
    """Computed pilot sizes plus simulated underpower fractions for the
    reference grids (sizes on the left, probabilities on the right)."""

    cells: list          # dicts: grid coordinates + pilot_n + empirical_underpower
    extra: dict          # e.g. the main-study row of the effect grid
    config: dict

    table_id = property(lambda self: self.config["table_id"])
    replicates = property(lambda self: self.config["replicates"])
    seed = property(lambda self: self.config["seed"])

    def csv_rows(self) -> list[dict]:
        """One row per cell: the config, then the cell."""
        return [{**self.config, **cell} for cell in self.cells]

    def format_text(self) -> str:
        # ``cells`` come in row order with the column axis varying fastest,
        # as ``reproduce_table`` builds them, so each row is the next
        # len(columns) cells
        if self.table_id == 1:
            stub, label, columns, width = "underpower  delta |", "s", TABLE1_SIGMAS, 5
        else:
            stub, label, columns, width = "underpower |", "d", TABLE2_EFFECTS, 6
        lines = ["pilot size (left) / simulated underpower (right)",
                 stub + "".join(f"  {label}={v}" for v in columns) + "   |"
                 + "".join(f"   {label}={v}" for v in columns)]
        for i in range(0, len(self.cells), len(columns)):
            row = self.cells[i:i + len(columns)]
            delta = f"  {row[0]['delta']:5d}" if "delta" in row[0] else ""
            sizes = "".join(f"{c['pilot_n']:{width}d}" for c in row)
            probs = "".join(f" {c['empirical_underpower']:{width}.1%}" for c in row)
            lines.append(f"{row[0]['underpower_prob']:10.0%}{delta} |{sizes}   |{probs}")
        if self.table_id == 2:
            main = self.extra["main_study_n"]
            lines.append("main study N |" +
                         "".join(f"{main[str(e)]:6d}" for e in TABLE2_EFFECTS))
        return "\n".join(lines) + "\n"


def reproduce_table(table_id: int, replicates: int = 1000, seed: int = 0) -> TableReport:
    """Recompute a reference grid: planned pilot sizes and their simulated
    underpower fractions, cell for cell, in the published layout."""
    table_id = _choice("table_id", table_id, (1, 2))
    replicates, seed = _count("replicates", replicates, 1), _count("seed", seed, 0)
    # the published grids' main study, shared by every cell's plan and
    # simulation, in the report config's column order
    grid = {"sizing_mode": T_ITERATIVE, "alpha": 0.05, "power_target": 0.8,
            "underpower_threshold": 0.6, "kind": TWO_SAMPLE}
    design, target = TestDesign(grid["kind"], grid["alpha"]), grid["power_target"]
    extra: dict = {}
    if table_id == 1:
        scenario, key, run = VARIANCE, "delta", simulate_variance_pipeline
        cells = [{"underpower_prob": p, "delta": delta, "sigma": sigma}
                 for p in TABLE1_UNDERPOWER_PROBS for delta in TABLE1_DELTAS
                 for sigma in TABLE1_SIGMAS]
    else:
        scenario, key, run = EFFECT, "effect", simulate_effect_pipeline
        cells = [{"underpower_prob": p, "effect": eff}
                 for p in TABLE2_UNDERPOWER_PROBS for eff in TABLE2_EFFECTS]
        sizer = _Sizer(design)
        extra["main_study_n"] = {str(eff): sizer.size(EffectSpec(eff), target)
                                 for eff in TABLE2_EFFECTS}
    for cell_idx, cell in enumerate(cells):
        effect, sigma = cell[key], cell.get("sigma", 1.0)
        bounds = PowerBounds(cell["underpower_prob"], grid["underpower_threshold"])
        plan = (plan_variance_pilot(EffectSpec(effect, sigma), design, target, bounds)
                if scenario == VARIANCE
                else plan_effect_pilot(effect, sigma, design, target, bounds))
        # per-cell substream: a child seed drawn from (seed, table, cell); the
        # child is a plain 63-bit int so the cell config remains a
        # self-contained reproducible record
        child = random.Random(f"{seed}:{table_id}:{cell_idx}").getrandbits(63)
        cfg = SimulationConfig(scenario=scenario, effect=effect, sigma=sigma,
                               pilot_n=plan.pilot_n, seed=child, replicates=replicates, **grid)
        cell["pilot_n"] = plan.pilot_n
        cell["empirical_underpower"] = run(cfg).empirical_underpower
    return TableReport(cells=cells, extra=extra, config={
        "table_id": table_id, "replicates": replicates, "seed": seed, **grid})
