"""Command-line surface: pilot planning, simulation, and table reproduction.

Subcommands
-----------
plan-variance   pilot size so the estimated SD rarely misleads the main study
plan-effect     pilot size so the estimated effect rarely misleads it
simulate        Monte Carlo check of either pipeline at a given pilot size
tables          recompute a full reference grid (sizes + simulated underpower)

The parser only reads each number as a float or an integer; the library's
rules check it, and a value that breaks one raises ``ConfigError``, a usage
error.  Each subcommand's handler returns its record and its text, or
raises; ``main`` alone prints them, in the chosen format, and maps errors to
exit codes: 0 success, 1 computational failure (including unsatisfiable
plans), 2 usage error.  Probabilities are decimals (0.2, not 20); the error
for one in (1, 100] names the decimal it likely meant.  Each command imports
what only it runs (planners, tables, json, csv), so a cold ``simulate``
loads only ``distributions``, ``power`` and ``simulation``.
"""

from __future__ import annotations

import argparse
import sys

from .distributions import ConfigError, ConvergenceError, _probability
from .power import (
    APPROX,
    EXACT,
    EffectSpec,
    ONE_SAMPLE,
    TWO_SAMPLE,
    T_ITERATIVE,
    Z_APPROX,
    TestDesign,
    arcsine_effect,
)
from .simulation import (EFFECT, KNOWN_SIGMA, POOLED_SD, VARIANCE, SimulationConfig,
                         simulate_effect_pipeline, simulate_variance_pipeline)

_FORMATS = ("table", "csv", "json")
_DESIGNS = {"one": ONE_SAMPLE, "two": TWO_SAMPLE}
# the flags several commands take, each with its one set of keywords
_SHARED = {
    "--alpha": dict(type=float, default=0.05,
                    help="two-sided type I error of the main study (default 0.05)"),
    "--power": dict(type=float, default=0.8, help="target power of the main study (default 0.8)"),
    "--design": dict(choices=sorted(_DESIGNS), default="two",
                     help="one- or two-sample main study (default two)"),
    "--seed": dict(type=int, required=True, help="RNG seed (results are reproducible from it)"),
    "--format": dict(choices=_FORMATS, default="table", help="output format (default table)"),
}


def _add_shared(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_SHARED[flag])


def _add_common_plan_flags(sub: argparse.ArgumentParser) -> None:
    _add_shared(sub, "--alpha", "--power")
    sub.add_argument("--underpower-prob", type=float, required=True,
                     help="allowed chance of landing below the power threshold")
    sub.add_argument("--underpower-threshold", type=float, required=True,
                     help="power level counted as underpowered (e.g. 0.6)")
    sub.add_argument("--overpower-prob", type=float,
                     help="allowed chance of landing above the overpower threshold")
    sub.add_argument("--overpower-threshold", type=float,
                     help="power level counted as overpowered (e.g. 0.9)")
    _add_shared(sub, "--design", "--format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotplan",
        description="Pilot-study sample sizes that bound the chance of an "
                    "under- or over-powered main study.")
    subs = parser.add_subparsers(dest="command", required=True)

    pv = subs.add_parser("plan-variance",
                         help="pilot size for a reliable SD estimate")
    pv.add_argument("--sigma", type=float, required=True,
                    help="outcome SD from prior knowledge")
    pv.add_argument("--delta", type=float, required=True,
                    help="practically meaningful effect")
    pv.add_argument("--mode", choices=(EXACT, APPROX), default=APPROX,
                    help="pilot-size rule: exact chi-square search or the "
                         "closed-form approximation (default approx)")
    pv.add_argument("--pooled-pilot", action="store_true",
                    help="pilot variance pooled over two groups of the given size")
    _add_common_plan_flags(pv)

    pe = subs.add_parser("plan-effect",
                         help="pilot size for a reliable effect estimate")
    pe.add_argument("--mu0", type=float, help="study effect from prior knowledge")
    pe.add_argument("--sigma", type=float, help="known outcome SD")
    pe.add_argument("--p1", type=float,
                    help="baseline proportion (arcsine effect entry)")
    pe.add_argument("--p2", type=float,
                    help="treated proportion (arcsine effect entry)")
    _add_common_plan_flags(pe)

    sim = subs.add_parser("simulate", help="Monte Carlo check of a pipeline")
    sim.add_argument("--scenario", choices=(VARIANCE, EFFECT), required=True,
                     help="pipeline whose pilot estimates the SD or the effect")
    sim.add_argument("--effect", "--delta", dest="effect", type=float, required=True,
                     help="true effect (delta for the variance scenario, "
                          "prior effect for the effect scenario)")
    sim.add_argument("--sigma", type=float, default=1.0,
                     help="true outcome SD (default 1)")
    sim.add_argument("--pilot-n", type=int, required=True,
                     help="pilot size per group")
    _add_shared(sim, "--seed")
    sim.add_argument("--reps", type=int, default=1000,
                     help="number of replicates (default 1000)")
    _add_shared(sim, "--alpha", "--power")
    sim.add_argument("--underpower-threshold", type=float, default=0.6,
                     help="power level counted as underpowered (default 0.6)")
    _add_shared(sim, "--design")
    sim.add_argument("--sizing-mode", choices=(Z_APPROX, T_ITERATIVE),
                     default=T_ITERATIVE,
                     help="how the simulated analyst sizes the main study")
    sim.add_argument("--estimator", choices=(POOLED_SD, KNOWN_SIGMA), default=POOLED_SD,
                     help="effect scenario: divide by the pooled SD or the known sigma")
    sim.add_argument("--pooled-pilot", action="store_true",
                     help="variance scenario: pool two pilot groups")
    _add_shared(sim, "--format")

    tab = subs.add_parser("tables", help="recompute a reference grid")
    tab.add_argument("--id", type=int, choices=(1, 2), required=True,
                     help="1 = variability grid, 2 = effect-size grid")
    tab.add_argument("--reps", type=int, default=1000,
                     help="number of replicates per cell (default 1000)")
    _add_shared(tab, "--seed", "--format")
    return parser


def _bounds_from(args: argparse.Namespace):
    from .variance import PowerBounds
    return PowerBounds(args.underpower_prob, args.underpower_threshold,
                       args.overpower_prob, args.overpower_threshold)


def emit(record, fmt: str) -> None:
    """Write a result to stdout as JSON or CSV; ``main`` writes the text.

    JSON is the ``{"config": ..., "results": ...}`` record with sorted keys;
    CSV is a header and the result's ``csv_rows()``, columns in row order.
    """
    if fmt == "json":
        import json
        sys.stdout.write(json.dumps({"config": record.config, "results": record.results},
                                    indent=2, sort_keys=True) + "\n")
        return
    import csv      # only here: a cold process with another format never loads it

    rows = record.csv_rows()
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _pct(x: float) -> str:
    return f"{100.0 * x:g}%"


def _plan_text(plan, driver: str, entry: str, noun: str, param: str,
               per_group: str = "", mode: str = "", under_note: str = "") -> str:
    """A plan of either kind as text; the two kinds' texts differ only in the
    strings passed here.  ``param`` names the record's threshold fields."""
    lines = [
        f"{driver}-driven pilot plan ({plan.kind}, alpha={plan.alpha:g}, "
        f"target power {_pct(plan.power_target)})",
        f"  {entry}",
    ]
    for side, where, note in (("under", "below", under_note), ("over", "above", "")):
        threshold = getattr(plan, f"{side}power_threshold")
        if threshold is None:
            continue
        lines += [
            f"  goal: < {_pct(getattr(plan, f'{side}power_prob'))} chance of true power "
            f"{where} {_pct(threshold)}",
            f"  main-study N per group at {_pct(threshold)} power: "
            f"{getattr(plan, f'main_n_{side}')}",
            f"  {noun} at which the {_pct(plan.power_target)}-power design is adequate: "
            f"{getattr(plan, f'{param}_{side}'):.4g}{note}",
            f"  pilot N{per_group} for the {side}power bound{mode}: "
            f"{getattr(plan, f'pilot_n_{side}')}",
        ]
    lines.append(f"  pilot sample size{per_group}: {plan.pilot_n}")
    return "\n".join(lines) + "\n"


def _cmd_plan_variance(args: argparse.Namespace) -> tuple:
    from .variance import plan_variance_pilot
    design = TestDesign(_DESIGNS[args.design], args.alpha)
    plan = plan_variance_pilot(EffectSpec(args.delta, args.sigma), design,
                               args.power, _bounds_from(args),
                               mode=args.mode, pooled_pilot=args.pooled_pilot)
    return plan, _plan_text(plan, "variance", f"effect {plan.delta:g}, prior sd {plan.sigma:g}",
                            "sd", "sigma", mode=f" ({plan.mode})")


def _cmd_plan_effect(args: argparse.Namespace) -> tuple:
    from .effect import plan_effect_pilot
    given = [v is not None for v in (args.mu0, args.sigma, args.p1, args.p2)]
    if given not in ([True, True, False, False], [False, False, True, True]):
        raise ConfigError("give either --mu0 with --sigma, or --p1 with --p2")
    # checked first, as the planner checks them, so that a flag breaking a
    # rule is a usage error even where the entry form would fail the computation
    design, bounds = TestDesign(_DESIGNS[args.design], args.alpha), _bounds_from(args)
    bounds.check_against_target(_probability("power_target", args.power))
    by_props = args.p1 is not None
    if by_props:
        spec = arcsine_effect(args.p1, args.p2)
        if args.p1 == args.p2:
            raise ValueError("--p1 and --p2 are equal, and equal proportions give a zero effect")
        mu0, sigma = spec.effect, spec.sigma
    else:
        mu0, sigma = args.mu0, args.sigma
    plan = plan_effect_pilot(mu0, sigma, design, args.power, bounds)
    # from the plan, whose inputs the library has checked: sigma 0 never divides
    entry = (f"proportions {args.p1:g} vs {args.p2:g} -> arcsine effect size "
             f"{plan.mu0:.4f} (sd 1)" if by_props else
             f"effect {plan.mu0:g}, known sd {plan.sigma:g} "
             f"(effect size {plan.mu0 / plan.sigma:g})")
    return plan, _plan_text(plan, "effect", entry, "effect", "mu", " per group",
                            under_note=f" (effect size {plan.mu_under / plan.sigma:.4g})")


def _cmd_simulate(args: argparse.Namespace) -> tuple:
    cfg = SimulationConfig(
        scenario=args.scenario, effect=args.effect, sigma=args.sigma,
        pilot_n=args.pilot_n, seed=args.seed, replicates=args.reps,
        kind=_DESIGNS[args.design], alpha=args.alpha,
        power_target=args.power, underpower_threshold=args.underpower_threshold,
        pooled_pilot=args.pooled_pilot, sizing_mode=args.sizing_mode,
        estimator=args.estimator)
    rep = (simulate_variance_pipeline if args.scenario == VARIANCE
           else simulate_effect_pipeline)(cfg)
    lines = [
        f"simulated {rep.scenario} pipeline: {rep.replicates} replicates, "
        f"seed {rep.seed}",
        f"  empirical underpower: {rep.empirical_underpower:.4f} "
        f"(MC se {rep.mc_standard_error:.4f})",
        f"  main-study N percentiles ({'/'.join(rep.main_n_quantiles)}): "
        + "/".join(str(v) for v in rep.main_n_quantiles.values()),
    ]
    if rep.scenario == EFFECT:
        lines.append(f"  nonpositive effect estimates: {rep.nonpositive_effects}")
    return rep, "\n".join(lines) + "\n"


def _cmd_tables(args: argparse.Namespace) -> tuple:
    from .tables import reproduce_table
    report = reproduce_table(args.id, replicates=args.reps, seed=args.seed)
    return report, report.format_text()


_HANDLERS = {
    "plan-variance": _cmd_plan_variance,
    "plan-effect": _cmd_plan_effect,
    "simulate": _cmd_simulate,
    "tables": _cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        record, text = _HANDLERS[args.command](args)
    except ConfigError as exc:  # a flag breaks a rule, found before any computation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "table":
        print(text, end="")
    else:
        emit(record, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
