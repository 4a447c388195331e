"""Main-study machinery: sample-size and power for the one- and two-sample
t-test, inverse solves (the standard deviation or effect that makes a given
size adequate), and the arcsine effect transform for proportions.

Conventions follow the planning literature this toolkit implements: the test
is one-sided in form but uses the two-sided alpha/2 quantile, two-sample sizes
are per group with equal allocation, and returned sample sizes are ceilings of
the real-valued requirement (the smallest adequate integer).
"""

from __future__ import annotations

import bisect
import math

from .distributions import (ConfigError, ConvergenceError, _choice, _nct_abs_sf, _point,
                            _probability, _Record, _scale, chisq_quantile, norm_quantile,
                            t_quantile)
from .distributions import nct_cdf  # noqa: F401  unused here; perfbench's tracer wraps it by this name

__all__ = [
    "ONE_SAMPLE",
    "TWO_SAMPLE",
    "Z_APPROX",
    "T_ITERATIVE",
    "EXACT",
    "APPROX",
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

# pilot-size modes of the variance planner: exact chi-square search, closed form
EXACT = "exact"
APPROX = "approx"

_MODES = (Z_APPROX, T_ITERATIVE)
_KINDS = (ONE_SAMPLE, TWO_SAMPLE)
# at this alpha and below, 1 - alpha / 2 rounds to 1.0, whose quantile is infinite
_MIN_ALPHA = 2.0 ** -53


class TestDesign(_Record):
    """Test kind and two-sided significance level of the main study."""

    __test__ = False  # despite the name, not a pytest collectable

    kind: str = TWO_SAMPLE
    alpha: float = 0.05

    def __post_init__(self):
        _choice("kind", self.kind, _KINDS)
        if not _probability("alpha", self.alpha) > _MIN_ALPHA:
            raise ConfigError(f"alpha must be in ({_MIN_ALPHA:.4g}, 1), got {self.alpha!r}")

    @property
    def groups(self) -> int:
        return 2 if self.kind == TWO_SAMPLE else 1

    def df(self, n: float) -> float:
        """t degrees of freedom at per-group size n."""
        return self.groups * (n - 1.0)

    def ncp(self, n: float, effect_size: float) -> float:
        """Noncentrality of the t statistic at per-group size n."""
        return effect_size * math.sqrt(n / self.groups)

    def spread(self, n: float) -> float:
        """sqrt(groups / n), the effect size of noncentrality 1 at per-group size n."""
        return math.sqrt(self.groups / n)


def _pilot_df(pilot_n: int, pooled: bool) -> int:
    return 2 * pilot_n - 2 if pooled else pilot_n - 1


class EffectSpec(_Record):
    """A raw effect together with the outcome standard deviation.

    ``effect / sigma`` is the effect size (Cohen's d scale).  A zero effect is
    representable (the arcsine transform of equal proportions produces one)
    but is rejected by the solvers, where it would mean an infinite study.
    """

    effect: float
    sigma: float = 1.0

    def __post_init__(self):
        _effect("effect", self.effect)
        _scale("sigma", self.sigma)

    @property
    def effect_size(self) -> float:
        return self.effect / self.sigma


def _effect(name: str, x) -> float:
    x = _point(name, x)
    if not (math.isfinite(x) and x >= 0.0):
        raise ConfigError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def _effect_size(effect: EffectSpec | float) -> float:
    """The effect size of an EffectSpec, or of a plain number, which is one."""
    return effect.effect_size if isinstance(effect, EffectSpec) else _effect("effect size", effect)


def arcsine_effect(p1: float, p2: float) -> EffectSpec:
    """Variance-stabilized effect for comparing two proportions.

    Returns ``2*arcsin(sqrt(p1)) - 2*arcsin(sqrt(p2))`` on the unit-sd scale,
    so a proportions comparison can be planned as an effect-size problem.
    Requires 0 <= p2 <= p1 <= 1.
    """
    p1, p2 = _point("p1", p1), _point("p2", p2)
    if not (0.0 <= p2 <= p1 <= 1.0):
        raise ConfigError("need 0 <= p2 <= p1 <= 1, proportions as decimals (0.3, not 30), "
                          f"got p1={p1!r}, p2={p2!r}")
    effect = 2.0 * math.asin(math.sqrt(p1)) - 2.0 * math.asin(math.sqrt(p2))
    return EffectSpec(effect=effect, sigma=1.0)


def power_at(n: float, effect: EffectSpec | float,
             design: TestDesign = TestDesign()) -> float:
    """Exact power of the main study at per-group size n (noncentral t).

    n may be fractional; n < 2 has no degrees of freedom and is an error.
    ``effect`` is an EffectSpec or a plain effect size (effect / sigma),
    here as in ``required_n`` and ``main_sample_size``.
    """
    return _Sizer(design).curve(_size(n))(_effect_size(effect))


def _size(n) -> float:
    n = _point("n", n)
    if not (math.isfinite(n) and n >= 2.0):
        raise ValueError(f"per-group size must be >= 2, got {n!r}")
    return n


_TOO_LARGE = "required size exceeds 1e9; effect is effectively zero"
_MAX_N = 10 ** 9
# past this effect size the main study has the minimum size at any usual
# alpha, and the Poisson weights of the noncentral-t series, around
# ncp^2 / 2 > 5e11, lose digits to cancellation
_MAX_EFFECT_SIZE = 1e6


def _nonzero_effect_size(effect: EffectSpec | float) -> float:
    # a nonzero effect whose size underflows to 0 is no usage error: the 1e9 cap rejects it
    d = _effect_size(effect)
    if not (effect.effect if isinstance(effect, EffectSpec) else d):
        raise ConfigError("effect of 0 means an infinite study; no sample size exists")
    return d


class _Sizer:
    """The z sums, sizing searches and effect brackets of one TestDesign, kept
    by the entry point that owns the work, a call, plan, run or whole reference
    table, and dropped with it.  It computes z_{1-a/2} once, z_power once per
    power level and one power curve (one t critical value) per size n, when
    a search or a bracket first reads n.  Its sizings check their arguments as
    the public functions do, in the same order and with the same errors."""

    def __init__(self, design: TestDesign):
        self.design = design
        # z_{1-a/2} from the tail a/2 itself: 1 - a/2 would round it at small a
        self.z_a = -norm_quantile(0.5 * design.alpha)
        self._zsums, self._curves = {}, {}

    def curve(self, n: float):
        """Exact power at per-group size n >= 2 as a function of the effect size,
        built on first read: one critical value, ``tcrit``, and the series terms
        of each Poisson mode once, for every effect size tried on it."""
        pw = self._curves.get(n)
        if pw is None:
            design, modes = self.design, {}
            df = design.df(n)
            tcrit = -t_quantile(0.5 * design.alpha, df)

            def pw(d):
                return _nct_abs_sf(tcrit, df, design.ncp(n, d), modes)
            pw.tcrit = tcrit
            self._curves[n] = pw
        return pw

    def zsum(self, power: float, name: str | None = "power") -> float:
        """z_{1-a/2} + z_power at a checked power level (a 0-d array too); with
        a ``name`` it must be positive, that is the power above alpha / 2, and
        else it is an error naming the power level ``name``."""
        zs = self._zsums.get(p := float(power))
        if zs is None:
            zs = self._zsums[p] = self.z_a + norm_quantile(p)
        if name is not None and not zs > 0.0:
            raise ValueError(f"{name} must be above alpha / 2 = {0.5 * self.design.alpha!r} "
                             f"at alpha {self.design.alpha!r}, got {power!r}")
        return zs

    def _requirement(self, effect: EffectSpec | float, power: float,
                     mode: str) -> tuple[float, float, float]:
        """The checked effect size d and power, and the closed form  groups *
        (z_{1-a/2} + z_{power})^2 / d^2; past 1e9 it raises."""
        power = _probability("power", power)
        d = _nonzero_effect_size(effect)
        _choice("mode", mode, _MODES)
        # compared before squaring: the square of a tiny effect underflows to 0,
        # of a huge one overflows
        if d > _MAX_EFFECT_SIZE:
            given = (f"effect {effect.effect!r} over sigma {effect.sigma!r}"
                     if isinstance(effect, EffectSpec) else f"effect {d!r}")
            raise ValueError(f"{given} is an effect size of {d:g}, past the largest this "
                             f"package plans for, {_MAX_EFFECT_SIZE:g}")
        # at a power at or below alpha / 2 the sum is not positive: the floor, 2
        zs, groups = max(0.0, self.zsum(power, None)), self.design.groups
        # an effect size that underflowed to 0 needs past 1e9 too, at a positive zs
        if zs and (not d or zs / d > math.sqrt(_MAX_N / groups)):
            raise ValueError(_TOO_LARGE)
        # zs 0 over a d^2 that underflows to 0 is the floor too, not 0 / 0
        return d, power, (groups * zs ** 2 / d ** 2 if zs else 0.0)

    def _search(self, d: float, power: float, n_z: float, shift: float) -> int:
        """Smallest integer N >= 2 with power(N + shift) >= power, searched
        from the closed form n_z plus Guenther's t correction z_a^2 / (2 groups),
        z_a = z_{1-a/2}: rarely a subject off, two power evaluations when right."""
        return _first_true(lambda n: self.curve(n + shift)(d) >= power, 1,
                           math.ceil(n_z + self.z_a * self.z_a / (2 * self.design.groups) - shift),
                           _MAX_N, _TOO_LARGE)

    def size(self, effect: EffectSpec | float, power: float, mode: str = T_ITERATIVE,
             shift: float = 0.0) -> int:
        """``main_sample_size``; with ``shift`` 1/2 the planners' main size, the
        integer nearest the requirement, max(2, floor(``required`` + 1/2))."""
        d, power, n_z = self._requirement(effect, power, mode)
        if mode == Z_APPROX:
            return max(2, math.floor(n_z + 0.5) if shift else math.ceil(n_z - 1e-9))
        return self._search(d, power, n_z, shift)

    def edge(self, m: int, power: float, mode: str, xtol: float) -> tuple[float, float]:
        """[lo, hi] around the effect size from which ``size`` at ``power`` is at
        most m: ``bracket``, or in z-approx mode the closed form at m + 1e-9, where
        ceil(n_z - 1e-9) reaches m, widened by xtol on each side."""
        if mode == Z_APPROX:
            x = self.zsum(power) * self.design.spread(m + 1e-9)
            return x * (1.0 - xtol), x * (1.0 + xtol)
        return self.bracket(m, power, xtol)

    def required(self, effect: EffectSpec | float, power: float, mode: str) -> float:
        """``required_n``."""
        d, power, n_z = self._requirement(effect, power, mode)
        if mode == Z_APPROX:
            return max(2.0, n_z)
        n = self._search(d, power, n_z, 0.0)
        if n == 2:
            return 2.0
        return _solve_increasing(lambda x: self.curve(x)(d), power, n - 1.0, float(n),
                                 self.curve(n - 1)(d), self.curve(n)(d), 1e-10)[1]

    def bracket(self, n: float, power: float, xtol: float) -> tuple[float, float]:
        """[lo, hi] with power(lo) < ``power`` <= power(hi) at per-group size n,
        hi - lo <= xtol min(d_z, 1) max(hi, 1): a gallop from the z effect d_z by
        Guenther's factor 1 + z_a^2 / (4 groups n), floored above 1 and squared
        each step, then Illinois.  An upward step of 2 or more goes instead to a
        provable bound; past 1e6 no finite effect reaches ``power``."""
        pw, design = self.curve(n), self.design
        lo = hi = x = self.zsum(power) * design.spread(n)
        f_lo = f_hi = pw(x)
        step = 1.0 + max(self.z_a * self.z_a / (4.0 * design.groups * n), 1e-9)
        while f_lo >= power:
            hi, f_hi, lo = lo, f_lo, lo / step
            f_lo, step = pw(lo), step * step
        while f_hi < power:
            lo, f_lo = hi, f_hi
            if step < 2.0:
                hi, step = hi * step, step * step
            else:
                # T = (Z + ncp) / S, S^2 ~ chi2(df) / df, passes c where Z > -a and S < b
                # once ncp >= c b + a, each at probability sqrt(power): power there >= ``power``
                df, r = design.df(n), math.sqrt(power)
                ncp = pw.tcrit * math.sqrt(chisq_quantile(r, df) / df) + norm_quantile(r)
                hi = max(ncp / math.sqrt(n / design.groups), 2.0 * hi)
                if hi > _MAX_EFFECT_SIZE:
                    raise ValueError("no finite effect reaches the requested power")
            f_hi = pw(hi)
        return _solve_increasing(pw, power, lo, hi, f_lo, f_hi, xtol * min(x, 1.0))


def required_n(effect: EffectSpec | float, design: TestDesign, power: float,
               mode: str = T_ITERATIVE) -> float:
    """Real-valued per-group size at which the study reaches ``power``.

    z-approx: the closed form  groups * (z_{1-a/2} + z_{power})^2 / d^2.
    t-iterative: the exact noncentral-t requirement, floored at 2, solved on
    [N - 1, N] around the integer size N of :func:`main_sample_size`.
    """
    return _Sizer(design).required(effect, power, mode)


def _first_true(ok, lo: int, start: int, cap: int, too_large: str) -> int:
    """Smallest integer n > lo with ok(n), given that ok fails at lo (it is
    never called there) and holds from some n on.

    Gallops from ``start`` (clamped into (lo, cap]) in steps of 1, 2, 4, ...,
    down while ok holds or up while it fails, then bisects the bracket: two
    calls when ``start`` is the answer or one below it, O(log n) at most.
    When no n up to ``cap`` is ok it raises ValueError(too_large).
    """
    if cap <= lo:
        raise ValueError(too_large)
    n, step = min(max(start, lo + 1), cap), 1
    if ok(n):
        hi = n
        while hi - step > lo and ok(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    else:
        lo = n
        while lo < cap and not ok(hi := min(lo + step, cap)):
            lo, step = hi, 2 * step
        if lo == cap:
            raise ValueError(too_large)
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=ok)


def main_sample_size(effect: EffectSpec | float, design: TestDesign, power: float,
                     mode: str = T_ITERATIVE) -> int:
    """Smallest adequate per-group size.

    In t-iterative mode the returned N is the smallest integer >= 2 with
    power_at(N) >= power, so power_at(N - 1) < power; it is found by an
    integer search on the exact power from the closed form, in O(log N)
    power evaluations.  In z-approx mode it is the ceiling of the closed
    form.  Sizes past 1e9 raise.
    """
    return _Sizer(design).size(effect, power, mode)


def _solve_increasing(f, target: float, lo: float, hi: float, f_lo: float,
                      f_hi: float, xtol: float) -> tuple[float, float]:
    """The bracket [lo, hi] of the smallest x with f(x) >= target, f
    increasing (Illinois): f(lo) < target <= f(hi) and hi - lo <= xtol max(|hi|, 1)."""
    f_lo -= target
    f_hi -= target
    side = 0
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x) - target
        if fx >= 0.0:
            if side == 1:
                f_lo *= 0.5
            hi, f_hi, side = x, fx, 1
        else:
            if side == -1:
                f_hi *= 0.5
            lo, f_lo, side = x, fx, -1
        if hi - lo <= xtol * max(abs(hi), 1.0):
            return lo, hi
    raise ConvergenceError("root solve hit the 200-iteration cap")


def effect_for_n(n: float, design: TestDesign, power: float, mode: str = Z_APPROX) -> float:
    """Effect size at which a study of per-group size n has exactly ``power``.

    ``power`` lies above alpha / 2, and in t-iterative mode above alpha, the
    exact power at effect 0.  t-iterative: the top of ``_Sizer.bracket``,
    of relative width 1e-12, galloped from the z-approx closed form.
    """
    n, power, sizer = _size(n), _probability("power", power), _Sizer(design)
    if _choice("mode", mode, _MODES) == Z_APPROX:
        return sizer.zsum(power) * design.spread(n)
    if not power > design.alpha:
        raise ValueError(f"power must be above alpha {design.alpha!r} in {T_ITERATIVE} "
                         f"mode, got {power!r}")
    return sizer.bracket(n, power, 1e-12)[1]


def sigma_for_n(n: float, effect: EffectSpec, design: TestDesign, power: float,
                mode: str = Z_APPROX) -> float:
    """Standard deviation at which per-group size n is what ``power`` requires.

    Inverse of :func:`main_sample_size` in sigma for a fixed raw effect
    (up to integer rounding of the size).
    """
    _nonzero_effect_size(effect)
    return effect.effect / effect_for_n(n, design, power, mode)


def mu_for_n(n: float, sigma: float, design: TestDesign, power: float,
             mode: str = Z_APPROX) -> float:
    """Raw effect at which an n-per-group study has exactly ``power``."""
    return _scale("sigma", sigma) * effect_for_n(n, design, power, mode)
