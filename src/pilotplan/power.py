"""Main-study machinery: sample-size and power for the one- and two-sample
t-test, inverse solves (the standard deviation or effect that makes a given
size adequate), and the arcsine effect transform for proportions.

Conventions follow the planning literature this toolkit implements: the test
is one-sided in form but uses the two-sided alpha/2 quantile, two-sample sizes
are per group with equal allocation, and returned sample sizes are ceilings of
the real-valued requirement (the smallest adequate integer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ConvergenceError, nct_cdf, norm_quantile, t_quantile

__all__ = [
    "ONE_SAMPLE",
    "TWO_SAMPLE",
    "Z_APPROX",
    "T_ITERATIVE",
    "TestDesign",
    "EffectSpec",
    "arcsine_effect",
    "required_n",
    "main_sample_size",
    "power_at",
    "effect_for_n",
    "sigma_for_n",
    "mu_for_n",
]

ONE_SAMPLE = "one-sample"
TWO_SAMPLE = "two-sample"

# Quantile modes: z-approx uses normal quantiles in the closed forms (the
# planning default); t-iterative solves against the exact noncentral-t power.
Z_APPROX = "z-approx"
T_ITERATIVE = "t-iterative"

_MODES = (Z_APPROX, T_ITERATIVE)
_KINDS = (ONE_SAMPLE, TWO_SAMPLE)


@dataclass(frozen=True)
class TestDesign:
    """Test kind and two-sided significance level of the main study."""

    __test__ = False  # despite the name, not a pytest collectable

    kind: str = TWO_SAMPLE
    alpha: float = 0.05

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")

    @property
    def groups(self) -> int:
        return 2 if self.kind == TWO_SAMPLE else 1

    def df(self, n: float) -> float:
        """t degrees of freedom at per-group size n."""
        return self.groups * (n - 1.0)

    def ncp(self, n: float, effect_size: float) -> float:
        """Noncentrality of the t statistic at per-group size n."""
        return effect_size * math.sqrt(n / self.groups)


@dataclass(frozen=True)
class EffectSpec:
    """A raw effect together with the outcome standard deviation.

    ``effect / sigma`` is the effect size (Cohen's d scale).  A zero effect is
    representable (the arcsine transform of equal proportions produces one)
    but is rejected by the solvers, where it would mean an infinite study.
    """

    effect: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.effect) and self.effect >= 0.0):
            raise ValueError(f"effect must be finite and >= 0, got {self.effect!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")

    @property
    def effect_size(self) -> float:
        return self.effect / self.sigma


def arcsine_effect(p1: float, p2: float) -> EffectSpec:
    """Variance-stabilized effect for comparing two proportions.

    Returns ``2*arcsin(sqrt(p1)) - 2*arcsin(sqrt(p2))`` on the unit-sd scale,
    so a proportions comparison can be planned as an effect-size problem.
    Requires 0 <= p2 <= p1 <= 1.
    """
    p1 = float(p1)
    p2 = float(p2)
    if not (0.0 <= p2 <= p1 <= 1.0):
        raise ValueError(f"need 0 <= p2 <= p1 <= 1, got p1={p1!r}, p2={p2!r}")
    effect = 2.0 * math.asin(math.sqrt(p1)) - 2.0 * math.asin(math.sqrt(p2))
    return EffectSpec(effect=effect, sigma=1.0)


def _require_power(power: float) -> float:
    power = float(power)
    if not (0.0 < power < 1.0):
        raise ValueError(f"power must be in (0, 1), got {power!r}")
    return power


def _zsum(alpha: float, power: float) -> float:
    return norm_quantile(1.0 - alpha / 2.0) + norm_quantile(power)


def power_at(n: float, effect: EffectSpec, design: TestDesign = TestDesign()) -> float:
    """Exact power of the main study at per-group size n (noncentral t).

    n may be fractional; n < 2 has no degrees of freedom and is an error.
    """
    n = float(n)
    if not (math.isfinite(n) and n >= 2.0):
        raise ValueError(f"per-group size must be >= 2, got {n!r}")
    d = effect.effect_size
    df = design.df(n)
    tcrit = t_quantile(1.0 - design.alpha / 2.0, df)
    ncp = design.ncp(n, d)
    return (1.0 - nct_cdf(tcrit, df, ncp)) + nct_cdf(-tcrit, df, ncp)


_TOO_LARGE = "required size exceeds 1e9; effect is effectively zero"


def _require_nonzero_effect(effect: EffectSpec) -> None:
    if effect.effect_size == 0.0:
        raise ValueError("effect of 0 means an infinite study; no sample size exists")


def required_n(effect: EffectSpec, design: TestDesign, power: float,
               mode: str = T_ITERATIVE) -> float:
    """Real-valued per-group size at which the study reaches ``power``.

    z-approx: the closed form  groups * (z_{1-a/2} + z_{power})^2 / d^2.
    t-iterative: the exact noncentral-t requirement, found by bracketed
    bisection/secant on :func:`power_at` (floored at 2).
    """
    power = _require_power(power)
    _require_nonzero_effect(effect)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    d = effect.effect_size
    n_z = design.groups * _zsum(design.alpha, power) ** 2 / d ** 2
    if n_z > 1e9:
        raise ValueError(_TOO_LARGE)
    if mode == Z_APPROX:
        return max(2.0, n_z)
    f_lo = power_at(2.0, effect, design)
    if f_lo >= power:
        return 2.0
    lo, hi = 2.0, max(4.0, 1.6 * n_z + 8.0)
    f_hi = power_at(hi, effect, design)
    while f_hi < power:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = power_at(hi, effect, design)
        if hi > 1e9:
            raise ValueError(_TOO_LARGE)
    return _solve_increasing(lambda n: power_at(n, effect, design),
                             power, lo, hi, f_lo, f_hi, 1e-10)


def main_sample_size(effect: EffectSpec, design: TestDesign, power: float,
                     mode: str = T_ITERATIVE) -> int:
    """Smallest adequate per-group size: the ceiling of the requirement.

    In t-iterative mode the returned N satisfies power_at(N) >= power and
    power_at(N - 1) < power; in z-approx mode it is the ceiling of the
    closed form.
    """
    n_star = required_n(effect, design, power, mode)
    n = max(2, math.ceil(n_star - 1e-9))
    if mode == T_ITERATIVE:
        while power_at(n, effect, design) < power:
            n += 1
        while n > 2 and power_at(n - 1, effect, design) >= power:
            n -= 1
    return n


def _solve_increasing(f, target: float, lo: float, hi: float,
                      f_lo: float, f_hi: float, xtol: float) -> float:
    """Smallest x in [lo, hi] with f(x) >= target, f increasing (Illinois)."""
    f_lo -= target
    f_hi -= target
    side = 0
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x) - target
        if fx >= 0.0:
            hi, f_hi = x, fx
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, fx
            if side == -1:
                f_hi *= 0.5
            side = -1
        if hi - lo <= xtol * max(abs(hi), 1.0):
            return hi
    raise ConvergenceError("root solve hit the 200-iteration cap")


def _solve_increasing_batch(f, target: float, lo: np.ndarray, hi: np.ndarray,
                            f_lo: np.ndarray, f_hi: np.ndarray, xtol: float) -> np.ndarray:
    """:func:`_solve_increasing` for every entry at once, in lockstep.

    ``f(x, k)`` evaluates entries ``k`` at ``x``; each pass evaluates only the
    entries whose brackets have not yet collapsed.
    """
    root = np.empty_like(lo)
    k = np.arange(lo.size)
    f_lo = f_lo - target
    f_hi = f_hi - target
    side = np.zeros(lo.size)
    for _ in range(200):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        fx = f(x, k) - target
        up = fx >= 0.0
        f_lo = np.where(up & (side == 1.0), f_lo * 0.5, f_lo)
        f_hi = np.where(~up & (side == -1.0), f_hi * 0.5, f_hi)
        hi, f_hi = np.where(up, x, hi), np.where(up, fx, f_hi)
        lo, f_lo = np.where(up, lo, x), np.where(up, f_lo, fx)
        side = np.where(up, 1.0, -1.0)
        done = hi - lo <= xtol * np.maximum(np.abs(hi), 1.0)
        root[k[done]] = hi[done]
        if done.all():
            return root
        k, lo, hi, f_lo, f_hi, side = (v[~done] for v in (k, lo, hi, f_lo, f_hi, side))
    raise ConvergenceError("root solve hit the 200-iteration cap")


def effect_for_n(n, design: TestDesign, power: float, mode: str = Z_APPROX):
    """Effect size at which a study of per-group size n has exactly ``power``.

    ``n`` may be an array of sizes; all of them are then solved in lockstep
    (one root-solve pass evaluates the noncentral t for every entry still
    converging) and an array of effect sizes comes back.
    """
    if np.ndim(n):
        return _effect_for_ns(np.asarray(n, dtype=float), design, power, mode)
    n = float(n)
    if not (math.isfinite(n) and n >= 2.0):
        raise ValueError(f"per-group size must be >= 2, got {n!r}")
    power = _require_power(power)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    d_z = _zsum(design.alpha, power) * math.sqrt(design.groups / n)
    if mode == Z_APPROX:
        return d_z
    df = design.df(n)
    tcrit = t_quantile(1.0 - design.alpha / 2.0, df)
    root_n = math.sqrt(n / design.groups)

    def pw(d: float) -> float:
        ncp = d * root_n
        return (1.0 - nct_cdf(tcrit, df, ncp)) + nct_cdf(-tcrit, df, ncp)

    lo, f_lo = 0.0, pw(0.0)
    hi = max(2.0 * d_z, 1e-3)
    f_hi = pw(hi)
    while f_hi < power:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = pw(hi)
        if hi > 1e6:
            raise ValueError("no finite effect reaches the requested power")
    return _solve_increasing(pw, power, lo, hi, f_lo, f_hi, 1e-12)


def _effect_for_ns(n: np.ndarray, design: TestDesign, power: float,
                   mode: str) -> np.ndarray:
    """:func:`effect_for_n` over an array of sizes: the same bracket and
    Illinois solve per entry, with every pass a single noncentral-t call."""
    if not (np.isfinite(n) & (n >= 2.0)).all():
        raise ValueError("per-group sizes must be >= 2")
    power = _require_power(power)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    d_z = _zsum(design.alpha, power) * np.sqrt(design.groups / n)
    if mode == Z_APPROX:
        return d_z
    df = design.df(n)
    tcrit = np.array([t_quantile(1.0 - design.alpha / 2.0, v) for v in df.tolist()])
    root_n = np.sqrt(n / design.groups)

    def pw(d: np.ndarray, k: np.ndarray) -> np.ndarray:
        ncp = d * root_n[k]
        return (1.0 - nct_cdf(tcrit[k], df[k], ncp)) + nct_cdf(-tcrit[k], df[k], ncp)

    every = np.arange(n.size)
    lo = np.zeros_like(n)
    f_lo = pw(lo, every)
    hi = np.maximum(2.0 * d_z, 1e-3)
    f_hi = pw(hi, every)
    short = np.flatnonzero(f_hi < power)
    while short.size:
        lo[short], f_lo[short] = hi[short], f_hi[short]
        hi[short] *= 2.0
        f_hi[short] = pw(hi[short], short)
        if (hi[short] > 1e6).any():
            raise ValueError("no finite effect reaches the requested power")
        short = np.flatnonzero(f_hi < power)
    return _solve_increasing_batch(pw, power, lo, hi, f_lo, f_hi, 1e-12)


def sigma_for_n(n: float, effect: EffectSpec, design: TestDesign, power: float,
                mode: str = Z_APPROX) -> float:
    """Standard deviation at which per-group size n is what ``power`` requires.

    Inverse of :func:`main_sample_size` in sigma for a fixed raw effect
    (up to integer rounding of the size).
    """
    _require_nonzero_effect(effect)
    return effect.effect / effect_for_n(n, design, power, mode)


def mu_for_n(n: float, sigma: float, design: TestDesign, power: float,
             mode: str = Z_APPROX) -> float:
    """Raw effect at which an n-per-group study has exactly ``power``."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    return sigma * effect_for_n(n, design, power, mode)
