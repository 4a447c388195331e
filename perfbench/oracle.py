"""Independent checks of every op's output, built on scipy.

Nothing here compares against stored output of the package: main sizes come
from scipy's noncentral t, pilot sizes from the chi-square and normal bounds
the planners promise, and simulated underpower from its closed form under
the package's integer-sizing convention.  A later change that alters the
random stream, or corrects the method, still passes when it is right.

Closed forms (e = e(n_crit - 1) is the effect at which n_crit - 1 subjects
give the target power, n_crit the smallest size with threshold power at the
true effect; a replicate is underpowered when its estimate reaches e):
  variance cells      chi2.cdf(df * (delta / (e * sigma))^2, df)
  pooled-sd effect    two-sided noncentral-t tail at e * sqrt(n / g)
  known-sigma effect  two-sided normal tail at e, sd sqrt(g / n)
with df = n - 1 (2n - 2 for a pooled or two-sample pilot) and g the groups.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy import optimize, stats

Z_MAX = 4.0          # simulated underpower within this many Monte Carlo SEs
REL = 1e-9           # relative tolerance on real-valued plan outputs
SLACK = 1e-9         # tolerance on the probability bounds in n / n-1 audits


class OracleError(RuntimeError):
    """scipy produced no usable value (NaN, or no sign change)."""


def _groups(kind: str) -> int:
    return 2 if kind == "two-sample" else 1


@lru_cache(maxsize=None)
def zsum(alpha: float, power: float) -> float:
    return stats.norm.ppf(1.0 - alpha / 2.0) + stats.norm.ppf(power)


def power_at(n: float, d: float, kind: str, alpha: float) -> float:
    g = _groups(kind)
    df = g * (n - 1.0)
    tcrit = stats.t.ppf(1.0 - alpha / 2.0, df)
    ncp = d * math.sqrt(n / g)
    p = stats.nct.sf(tcrit, df, ncp) + stats.nct.cdf(-tcrit, df, ncp)
    if not math.isfinite(p):
        raise OracleError(f"noncentral t power is {p} at n={n}, d={d}")
    return float(p)


@lru_cache(maxsize=None)
def requirement(d: float, kind: str, alpha: float, power: float) -> float:
    """Fractional per-group size at which the test reaches ``power``."""
    if power_at(2.0, d, kind, alpha) >= power:
        return 2.0
    n_z = _groups(kind) * zsum(alpha, power) ** 2 / d ** 2
    lo, hi = 2.0, max(4.0, 1.5 * n_z + 8.0)
    while power_at(hi, d, kind, alpha) < power:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(lambda n: power_at(n, d, kind, alpha) - power,
                           lo, hi, xtol=1e-10, rtol=1e-13)


@lru_cache(maxsize=None)
def n_crit(d: float, kind: str, alpha: float, threshold: float) -> int:
    """Smallest integer size whose power reaches the threshold."""
    n = max(2, math.ceil(requirement(d, kind, alpha, threshold) - 1e-9))
    while power_at(n, d, kind, alpha) < threshold:
        n += 1
    while n > 2 and power_at(n - 1, d, kind, alpha) >= threshold:
        n -= 1
    return n


@lru_cache(maxsize=None)
def boundary_effect(n: int, kind: str, alpha: float, power: float) -> float:
    """Effect size at which n subjects per group give exactly ``power``.

    Solved on a bracket around the normal approximation: scipy's nct can
    return NaN far out in noncentrality, so the bracket is widened in small
    steps only while it does not yet hold the root.
    """
    d_z = zsum(alpha, power) * math.sqrt(_groups(kind) / n)

    def f(d):
        return power_at(n, d, kind, alpha) - power

    lo, hi = 0.9 * d_z, 1.1 * d_z
    for _ in range(60):
        if f(lo) < 0.0 < f(hi):
            return optimize.brentq(f, lo, hi, xtol=1e-14, rtol=1e-13)
        if f(lo) >= 0.0:
            lo *= 0.9
        if f(hi) <= 0.0:
            hi *= 1.1
    raise OracleError(f"no bracket for e({n})")


def variance_underpower(delta, sigma, kind, alpha, power, threshold, pilot_n, pooled):
    nc = n_crit(delta / sigma, kind, alpha, threshold)
    if nc <= 2:
        return 0.0
    e = boundary_effect(nc - 1, kind, alpha, power)
    df = 2 * pilot_n - 2 if pooled else pilot_n - 1
    return float(stats.chi2.cdf(df * (delta / (e * sigma)) ** 2, df))


def effect_underpower(mu, sigma, kind, alpha, power, threshold, pilot_n, estimator):
    d = mu / sigma
    nc = n_crit(d, kind, alpha, threshold)
    if nc <= 2:
        return 0.0
    e = boundary_effect(nc - 1, kind, alpha, power)
    g = _groups(kind)
    if estimator == "pooled-sd":
        df, root = g * (pilot_n - 1), math.sqrt(pilot_n / g)
        return float(stats.nct.sf(e * root, df, d * root)
                     + stats.nct.cdf(-e * root, df, d * root))
    sd = math.sqrt(g / pilot_n)
    return float(stats.norm.sf((e - d) / sd) + stats.norm.cdf((-e - d) / sd))


# ---------------------------------------------------------------------------
# per-op checks: each returns a list of failure descriptions (empty = pass)
# ---------------------------------------------------------------------------

def _close(a, b, rel=REL):
    return a is not None and abs(a - b) <= rel * max(abs(b), 1.0)


def _main_size(errs, label, got, d, kind, alpha, threshold):
    req = requirement(d, kind, alpha, threshold)
    if not (isinstance(got, int) and abs(got - max(req, 2.0)) <= 0.5 + 1e-9):
        errs.append(f"{label} {got} is not the integer nearest the requirement {req:.6f}")


def _approx_pilot(ratio, p):
    z = stats.norm.ppf(1.0 - p)
    return max(2, math.ceil(2.0 * z * z / (ratio - 1.0) ** 2 + 1.0 - 1e-9))


def _exact_pilot(errs, n, ratio, p):
    """n meets the chi-square bound P(S^2 < ratio sigma^2) < p; n - 1 does not."""
    def miss(m):
        return stats.chi2.cdf((m - 1) * ratio, m - 1)

    if not miss(n) < p + SLACK:
        errs.append(f"exact pilot {n} misses the chi-square bound {p}")
    if n > 2 and not miss(n - 1) >= p - SLACK:
        errs.append(f"exact pilot {n}: n-1 already meets the bound {p}")


def _plan_common(errs, op, out, d):
    # every plan here has underpower bounds only
    _main_size(errs, "main_n_under", out["main_n_under"], d, op["kind"], op["alpha"],
               op["underpower_threshold"])
    if out["main_n_over"] is not None or out["pilot_n_over"] is not None:
        errs.append("overpower fields set without overpower bounds")
    if out["pilot_n"] != out["pilot_n_under"]:
        errs.append(f"pilot_n {out['pilot_n']} != pilot_n_under {out['pilot_n_under']}")
    return zsum(op["alpha"], op["underpower_threshold"]) / zsum(op["alpha"], op["power_target"])


def _variance_plan(errs, op, out):
    """Approx-mode variance plan; returns the variance ratio it plans for."""
    shrink = _plan_common(errs, op, out, op["delta"] / op["sigma"])
    if not _close(out["sigma_under"], op["sigma"] * shrink):
        errs.append(f"sigma_under {out['sigma_under']} != {op['sigma'] * shrink}")
    ratio = shrink ** 2
    want = _approx_pilot(ratio, op["underpower_prob"])
    if out["pilot_n_under"] != want:
        errs.append(f"approx pilot {out['pilot_n_under']} != ceil(2z^2/(r-1)^2 + 1) = {want}")
    return ratio


def _effect_plan(errs, op, out, mu0, sigma):
    mu_thr = mu0 / _plan_common(errs, op, out, mu0 / sigma)
    if not _close(out["mu_under"], mu_thr):
        errs.append(f"mu_under {out['mu_under']} != {mu_thr}")
    g = _groups(op["kind"])
    p = op["underpower_prob"]

    def miss(n):
        return stats.norm.sf((mu_thr - mu0) / (sigma * math.sqrt(g / n)))

    n = out["pilot_n_under"]
    if not miss(n) < p + SLACK:
        errs.append(f"effect pilot {n} misses the normal-tail bound {p}")
    if n > 1 and not miss(n - 1) >= p - SLACK:
        errs.append(f"effect pilot {n}: n-1 already meets the bound {p}")


def arcsine(p1: float, p2: float) -> float:
    return 2.0 * math.asin(math.sqrt(p1)) - 2.0 * math.asin(math.sqrt(p2))


def _simulation(errs, q, out, replicates):
    p_hat = out["empirical_underpower"]
    if out["replicates"] != replicates:
        errs.append(f"replicates {out['replicates']} != {replicates}")
    se_hat = math.sqrt(p_hat * (1.0 - p_hat) / replicates)
    if not _close(out["mc_standard_error"], se_hat, 1e-12):
        errs.append(f"mc_standard_error {out['mc_standard_error']} != {se_hat}")
    se = math.sqrt(q * (1.0 - q) / replicates)
    if abs(p_hat - q) > Z_MAX * se:
        errs.append(f"underpower {p_hat:.5f} is more than {Z_MAX:g} SE "
                    f"({se:.5f}) from its closed form {q:.5f}")
    qs = [v for _, v in sorted(out["main_n_quantiles"].items(), key=lambda kv: int(kv[0]))]
    if None not in qs and qs != sorted(qs):
        errs.append(f"main-study size quantiles not ordered: {qs}")


def check(op: dict, out: dict) -> list[str]:
    """Failures of one op's output against the oracle."""
    errs: list[str] = []
    kind = op["op"]
    if kind == "plan-variance":
        _variance_plan(errs, op, out)
    elif kind == "grid-variance":
        ratio = _variance_plan(errs, op, out)
        _exact_pilot(errs, out["exact_pilot_n"], ratio, op["underpower_prob"])
        q = variance_underpower(op["delta"], op["sigma"], op["kind"], op["alpha"],
                                op["power_target"], op["underpower_threshold"],
                                out["pilot_n"], False)
        _simulation(errs, q, out, op["replicates"])
    elif kind == "grid-effect":
        _effect_plan(errs, op, out, op["effect"], 1.0)
        q = effect_underpower(op["effect"], 1.0, op["kind"], op["alpha"],
                              op["power_target"], op["underpower_threshold"],
                              out["pilot_n"], "pooled-sd")
        _simulation(errs, q, out, op["replicates"])
    elif kind == "simulate":
        _check_cli(errs, op, out)
    else:
        errs.append(f"unknown op {kind!r}")
    return errs


def _check_cli(errs, op, doc):
    cfg, res = doc["config"], doc["results"]
    for key in ("scenario", "effect", "sigma", "pilot_n", "seed", "replicates", "kind",
                "alpha", "power_target", "underpower_threshold", "sizing_mode"):
        if cfg.get(key) != op[key]:
            errs.append(f"config {key} {cfg.get(key)!r} != {op[key]!r}")
    if op["scenario"] == "variance":
        q = variance_underpower(op["effect"], op["sigma"], op["kind"], op["alpha"],
                                op["power_target"], op["underpower_threshold"],
                                op["pilot_n"], False)
    else:
        if cfg.get("estimator") != op["estimator"]:
            errs.append(f"config estimator {cfg.get('estimator')!r} != {op['estimator']!r}")
        q = effect_underpower(op["effect"], op["sigma"], op["kind"], op["alpha"],
                              op["power_target"], op["underpower_threshold"],
                              op["pilot_n"], op["estimator"])
    _simulation(errs, q, dict(res, replicates=cfg["replicates"]), op["replicates"])


def self_test() -> list[str]:
    """The oracle against independent values frozen in the acceptance suite."""
    errs = []
    q = variance_underpower(4.0, 2.0, "two-sample", 0.05, 0.8, 0.6, 5, False)
    if abs(q - 0.2086729124701518) > 1e-6:
        errs.append(f"cell (0.3, 4, 2) closed form {q} != 0.20867")
    rounded = requirement(0.20, "two-sample", 0.05, 0.6)
    unrounded = requirement(arcsine(0.5, 0.4), "two-sample", 0.05, 0.6)
    if round(rounded) != 246 or abs(rounded - 245.89237592142) > 1e-3:
        errs.append(f"walkthrough requirement {rounded} does not round to 246")
    if round(unrounded) != 243 or abs(unrounded - 242.6000519713654) > 1e-3:
        errs.append(f"unrounded requirement {unrounded} does not round to 243")
    return errs
