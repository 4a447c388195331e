"""CDFs and quantile functions for the normal, chi-square, Student t and
noncentral t distributions.

Everything downstream of this module (power solves, pilot sizing, simulation)
calls only these functions.  The normal comes from the standard library:
``norm_cdf`` from libm's ``math.erfc``, ``norm_quantile`` from the kernel
of ``statistics.NormalDist.inv_cdf`` in CPython's ``_statistics`` accelerator
(from ``statistics`` where that is missing).  The rest is written here: the
incomplete gamma and beta functions are evaluated by series / continued
fraction with region switching, the noncentral t CDF by a Poisson-mixture
series over incomplete beta ratios, and the chi-square, t and |T| quantiles
by one guarded Newton iteration with bracket fallback, ``_invert``.

The incomplete beta takes x and y = 1 - x, each computed by its caller
without subtraction, as DiDonato & Morris's BRATIO does (ACM TOMS 18, 1992).

Every function takes one point per call and computes on floats with the
``math`` module and that normal quantile alone, so the package never imports
numpy.  A numpy scalar or 0-d array is one point; an array, list or tuple
in any argument is a ConfigError.  Nothing in the package needs more: the
variance simulation calls ``chisq_quantile`` only at the replicates it
reads, and the effect simulation ``_nct_abs_isf`` only at the five it
sizes and at the replicates inside its flag bracket, almost always none.

Every noncentral-t quantity comes from ``_nct_fold``, the law of |T|, which
alone calls the mode-outward sweep ``_mixture_sum``.  The power layer reads
the two-sided tail P(|T| > t) through ``_nct_abs_sf``: T^2 is noncentral
F(1, df, ncp^2), so that tail is the Poisson-weighted half of the series
alone.  The effect simulation reads the law of |T| and of T's sign, both
halves of the series with their slopes in t, and ``nct_cdf`` the same law
with P(T < -t), with no reflection that would cancel in the lower tail.
"""

from __future__ import annotations

import math
import numbers
import sys

try:    # what NormalDist.inv_cdf calls; statistics loads fractions and decimal
    from _statistics import _normal_dist_inv_cdf
except ImportError:     # an interpreter without the accelerator
    from statistics import NormalDist

    def _normal_dist_inv_cdf(p, mu, sigma):
        return NormalDist(mu, sigma).inv_cdf(p)

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "norm_cdf",
    "norm_quantile",
    "chisq_cdf",
    "chisq_quantile",
    "t_cdf",
    "t_quantile",
    "nct_cdf",
]

# _invert's relative tolerance and iteration cap
_INVERT_TOL = 1e-10
_MAX_NEWTON = 200
_MAX_FRACTION = 500
_MAX_SERIES = 100000
_TINY = 1e-300
# below the smallest normal double the noncentral-t series is dropped: its
# terms are under 1e-154 there, and the downward recursion, which divides by
# the beta argument, would overflow
_MIN_NORMAL = sys.float_info.min
# where 1 - t^2 / (t^2 + df) keeps under half its bits, the noncentral-t
# series sums upper tails instead
_FAR = 2.0 ** -26
# a term of the noncentral-t series at most this share of its sum, followed
# only by terms at most half as large each, leaves the sum's bits unchanged
_ROUND_AWAY = 2.0 ** -55


class ConvergenceError(RuntimeError):
    """An iterative evaluation hit its iteration cap before converging."""


class ConfigError(ValueError):
    """An argument breaks one of the package's rules; raised before any computation."""


def _point(fn: str, x) -> float:
    """x as one float; an array (ndim >= 1), list or tuple is a ConfigError,
    and an integer past the largest float reads as an infinity."""
    if getattr(x, "ndim", 0) or isinstance(x, (list, tuple)):
        raise ConfigError(f"{fn} takes scalar arguments; call it once per point")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _require_finite(fn: str, name: str, x) -> float:
    x = _point(fn, x)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {x!r}")
    return x


# The argument rules of the whole package; each error is a ConfigError that
# reads "{name} must be ..., got {x!r}", in the argument's own name.

def _probability(name: str, x) -> float:
    x = _point(name, x)
    if not 0.0 < x < 1.0:
        # a number in (1, 100] is most likely a percentage
        hint = f"; give a decimal, not a percentage (e.g. {x / 100:g})" if 1.0 < x <= 100.0 else ""
        raise ConfigError(f"{name} must be in (0, 1), got {x!r}{hint}")
    return x


def _scale(name: str, x) -> float:
    x = _point(name, x)
    if not (math.isfinite(x) and x > 0.0):
        raise ConfigError(f"{name} must be finite and > 0, got {x!r}")
    return x


def _count(name: str, x, least: int) -> int:
    # any integer type but bool: int() would run True or 2.5 as another count;
    # at most sys.maxsize, the longest a sequence gets, which a float holds
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {x!r}")
    if x > sys.maxsize:
        raise ConfigError(f"{name} must be <= {sys.maxsize}, got one of {int(x).bit_length()} bits")
    return int(x)


def _choice(name: str, x, choices: tuple):
    # matched in kind as in value: True is not 1, nor 1.0, and 0 is not False
    def kind(v):
        return isinstance(v, bool), isinstance(v, numbers.Integral)
    for c in choices:
        if kind(x) == kind(c) and x == c:
            return c
    raise ConfigError(f"{name} must be {' or '.join(map(repr, choices))}, got {x!r}")


def _threshold(name: str, x, target: float, side: str = "under") -> float:
    # a power level on its side of the target power, which is checked already
    x = _probability(name, x)
    if not (x < target if side == "under" else x > target):
        where = "below" if side == "under" else "above"
        raise ConfigError(f"{name} must be {where} the target power {target!r}, got {x!r}")
    return x


class _Record:
    """A frozen record.  Its fields are the annotated names of its class and
    bases, in order, each defaulting to the class value of that name where
    there is one; ``dict(vars(r))`` is the fields in order.  It is built by
    position or keyword, compares, hashes and prints by type and fields, and
    runs ``__post_init__``, its checks, when built and in ``replace``."""

    def __init_subclass__(cls):
        names = {}
        for c in reversed(cls.__mro__):
            names.update(c.__dict__.get("__annotations__", {}))
        cls._fields, cls._field_set = tuple(names), frozenset(names)
        cls._defaults = {k: getattr(cls, k) for k in names if hasattr(cls, k)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **kwargs}
        values.update(zip(names, args))
        if (len(args) > len(names) or values.keys() != self._field_set
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            problems = [f"{what} {', '.join(map(repr, keys))}" for what, keys in (
                ("missing", [k for k in names if k not in values]),
                ("unknown", [k for k in kwargs if k not in names]),
                ("doubled", [k for k in kwargs if k in names[:len(args)]])) if keys]
            raise TypeError(f"{type(self).__name__}: " + ("; ".join(problems) or
                            f"{len(args)} fields by position, past its {len(names)}"))
        vars(self).update({k: values[k] for k in names})
        self.__post_init__()

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, checked again."""
        return type(self)(**{**vars(self), **changes})

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class _Output(_Record):
    """A record the CLI prints, in two parts: ``config``, its inputs, and
    ``results``, every field not named in ``_CONFIG_KEYS``.  A report keeps
    its inputs in one ``config`` field."""

    _CONFIG_KEYS = ("config",)

    @property
    def results(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._CONFIG_KEYS}


def _invert(newton, x: float, target: float, rising: bool, what: str) -> float:
    """The x > 0 where a mass monotone in x (rising with x, or falling) meets
    target > 0, from the start x; ``newton(x)`` gives the mass at x and a
    Newton step h in log x, or NaN where it has none.

    The step to x e^h is taken when |h| < 700 and it lands inside the
    bracket that the masses seen so far give; otherwise the bracket is
    bisected, in log x once its lower end is positive, or while it is open
    above x doubles to 2 max(x, 1).  The loop stops within ``_INVERT_TOL`` of
    the target, relative, or at bracket collapse (the mass's own rounding can
    pass the tolerance very close to the median); ``_MAX_NEWTON`` steps raise.
    """
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_NEWTON):
        mass, h = newton(x)
        if abs(mass - target) <= _INVERT_TOL * target or hi - lo <= 1e-15 * x:
            return x
        lo, hi = (x, hi) if (mass < target) == rising else (lo, x)
        x_new = x * math.exp(h) if abs(h) < 700.0 else math.nan
        if not lo < x_new < hi:
            x_new = ((math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi) if math.isfinite(hi)
                     else 2.0 * max(x, 1.0))
        x = x_new
    raise ConvergenceError(f"{what} inversion hit the 200-iteration cap")


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x):
    """Standard normal CDF, from libm's erfc."""
    x = _point("norm_cdf", x)
    if not math.isfinite(x):
        raise ValueError("norm_cdf requires finite input")
    return 0.5 * math.erfc(-x * _SQRT1_2)


def norm_quantile(p):
    """Standard normal quantile (inverse CDF) for 0 < p < 1; p in {0, 1}
    raises ValueError.  Wichura's AS241 (Appl. Statist. 37, 1988), as
    ``statistics.NormalDist`` has it."""
    p = _point("norm_quantile", p)
    if not 0.0 < p < 1.0:
        raise ValueError("norm_quantile requires 0 < p < 1")
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma (chi-square backbone)
# ---------------------------------------------------------------------------

def _gammainc_lower(a: float, x: float) -> tuple[float, float]:
    """P(a, x) and Q(a, x) = 1 - P(a, x), a > 0, x >= 0."""
    if x == 0.0:
        return 0.0, 1.0
    pre = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if pre == 0.0:
        # the factor that scales either tail underflows, so each is its limit;
        # far out the fraction below cannot settle within 1e-16 of 1 either
        return (0.0, 1.0) if x < a + 1.0 else (1.0, 0.0)
    if x < a + 1.0:
        # series representation
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_SERIES):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * 1e-17:
                return total * pre, 1.0 - total * pre
        raise ConvergenceError("incomplete gamma series hit the iteration cap")
    # continued fraction for Q(a, x), modified Lentz
    # x >= a + 1, but past 2^53 b can round to 0: it takes the floor c and d do
    b = max(x + 1.0 - a, _TINY)
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_FRACTION + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 - h * pre, h * pre
    raise ConvergenceError("incomplete gamma continued fraction hit the iteration cap")


def chisq_cdf(x: float, df: float) -> float:
    """Chi-square CDF: regularized lower incomplete gamma P(df/2, x/2)."""
    x = _require_finite("chisq_cdf", "x", x)
    df = _scale("degrees of freedom", _point("chisq_cdf", df))
    if x < 0.0:
        raise ValueError(f"chi-square CDF requires x >= 0, got {x!r}")
    try:
        return min(1.0, max(0.0, _gammainc_lower(0.5 * df, 0.5 * x)[0]))
    except OverflowError:
        raise ValueError(_df_too_large(df)) from None


def _df_too_large(df: float) -> str:
    # lgamma(df / 2) overflows, or the log of the factor scaling the tails
    # cancels from terms so large that its exp does
    return f"degrees of freedom {df!r} are too large for the incomplete gamma function"


def _chisq_start(p: float, df: float) -> float:
    """Wilson-Hilferty start for p > 0; where it is not positive, the leading
    term of the series, P(a, x / 2) ~ (x / 2)^a / Gamma(a + 1)."""
    a, c = 0.5 * df, 2.0 / (9.0 * df)
    w = 1.0 - c + norm_quantile(p) * math.sqrt(c)
    # w <= 0 gives no start, and its cube would overflow below df of about 1e-102
    x = df * w ** 3 if w > 0.0 else 0.0
    if x > 0.0:
        return x
    return max(2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a), 1e-280)


def chisq_quantile(p, df: float):
    """Chi-square quantile for 0 <= p < 1 (p = 1 is a domain error).

    From the Wilson-Hilferty start, ``_invert`` solves for g = log(got /
    tail) of the smaller tail, concave in u = log x for every df, so Newton's
    step cannot run away: g / g', g' = sign x pdf / got (sign -1 on the upper
    tail) and g'' = g' r2, by series reversion to third order once it is
    short, NaN where got or the density is 0 or the exponent overflows.  A
    quantile below the smallest double raises ``ConvergenceError``.
    """
    p = _point("chisq_quantile", p)
    df = _scale("degrees of freedom", _point("chisq_quantile", df))
    if not 0.0 <= p < 1.0:
        raise ValueError("chi-square quantile requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    a, upper = 0.5 * df, p > 0.5
    tail, sign = (1.0 - p, -1.0) if upper else (p, 1.0)

    def newton(x):
        try:
            got = _gammainc_lower(a, 0.5 * x)[upper]     # Q on the upper tail
        except OverflowError:
            raise ValueError(_df_too_large(df)) from None
        try:
            slope = sign * math.exp(a * math.log(0.5 * x) - 0.5 * x - math.lgamma(a)) / got
            h = math.log(got / tail) / slope
            r2 = a - 0.5 * x - slope
            rev = h * (1.0 + h * (0.5 * r2 + h * (r2 * r2 / 3.0 + (0.5 * x + slope * r2) / 6.0)))
            return got, -(rev if abs(h) < 0.5 else h)
        except (ZeroDivisionError, ValueError, OverflowError):
            return got, math.nan

    return _invert(newton, _chisq_start(p, df), tail, not upper, "chi-square quantile")


# ---------------------------------------------------------------------------
# Regularized incomplete beta (t backbone)
# ---------------------------------------------------------------------------

# from this larger argument on, lgamma(a + b) - lgamma(b) loses log B(a, b)
# to cancellation (an error of about 1e-12 at 1e3, 1e-11 at 1e4 and 3e-8 at
# 1.5e7), so _log_beta takes that difference from Stirling's series instead
_STIRLING_FROM = 1e3


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b) for a, b > 0."""
    s, l = min(a, b), max(a, b)
    if l < _STIRLING_FROM:
        return -(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    # lgamma(l) - lgamma(l + s) from Stirling's series; of its correction
    # only the 1/(12 x) terms matter here, the next ones are under 3e-12, and
    # under 1e-13 while s < 10
    t = l + s
    return (math.lgamma(s) - ((l - 0.5) * math.log1p(s / l) + s * math.log(t) - s)
            + s / (12.0 * l * t))


def _betacf(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) over x^a y^b / B(a, b): the even part of the continued
    fraction as BFRAC sums it, with lam = a - (a + b) x from whichever of x
    and y = 1 - x keeps its digits; an exact 0 denominator becomes _TINY."""
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c, c0, c1, yp1 = 1.0 + lam or _TINY, b / a, 1.0 + 1.0 / a, 1.0 + y
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_FRACTION + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1 or _TINY
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ConvergenceError("incomplete beta continued fraction hit the iteration cap")


def _logs(x: float, y: float) -> tuple[float, float]:
    """log x and log y for y = 1 - x, each from whichever argument is exact."""
    return (math.log(x), math.log1p(-x)) if x < 0.5 else (math.log1p(-y), math.log(y))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 <= x <= 1 and
    y = 1 - x, which keeps the digits a rounded 1 - x would lose."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    ln_x, ln_y = _logs(x, y)
    bt = math.exp(-_log_beta(a, b) + a * ln_x + b * ln_y)
    # the switch (a + 1) / s, moved 5 (b - a) / s^2 toward the smaller
    # parameter: for the t tail (a = 1/2) the direct fraction runs to t^2
    # near 13 in 6-17 steps, where the one on y takes up to 150
    s = a + b + 2.0
    # a complement under 1/64 has lost 6 or more of bt's bits; the direct fraction keeps them
    if s * (s * x - a - 1.0) >= 5.0 * (b - a) and (c := 1.0 - bt * _betacf(b, a, y, x)) >= 1 / 64:
        return c
    return bt * _betacf(a, b, x, y)


def _t_mass(x: float, df: float, central: bool = False) -> float:
    """P(T > x), or P(0 < T < x) if ``central``, for x >= 0: half of
    I_w(df/2, 1/2) or of I_y(1/2, df/2), w = df / (df + x^2) = 1 - y."""
    xx = x * x
    w, y = df / (df + xx), xx / (df + xx)
    return 0.5 * (_betainc(0.5, 0.5 * df, y, w) if central else _betainc(0.5 * df, 0.5, w, y))


def t_cdf(x: float, df: float) -> float:
    """Student t CDF via the incomplete beta function, from the tail P(T > |x|)."""
    x = _require_finite("t_cdf", "x", x)
    df = _scale("degrees of freedom", _point("t_cdf", df))
    return _t_mass(-x, df) if x < 0.0 else 1.0 - _t_mass(x, df)


def _t_pdf(x: float, df: float) -> float:
    return math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi)
                    - 0.5 * (df + 1.0) * math.log1p(x * x / df))


def t_quantile(p: float, df: float) -> float:
    """Student t quantile for 0 < p < 1.

    From the Cornish-Fisher expansion to order df^-4 (Abramowitz & Stegun
    26.7.5), ``_invert``'s Newton steps in log x solve for the log of the tail
    q = min(p, 1 - p), a power of x far out, or past q = 1/4 of the central
    mass 1/2 - q.  A quantile past about 1e154 (df under 2) raises.
    """
    p = _point("t_quantile", p)
    df = _scale("degrees of freedom", _point("t_quantile", df))
    if not (0.0 < p < 1.0):
        raise ValueError(f"t quantile requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    q, sign = (1.0 - p, 1.0) if p > 0.5 else (p, -1.0)
    if df == 1.0:
        # each form where its argument is exact
        return sign * (math.tan(math.pi * (0.5 - q)) if q >= 0.25 else 1.0 / math.tan(math.pi * q))
    if df == 2.0:
        return sign * (1.0 - 2.0 * q) * math.sqrt(2.0 / (4.0 * (1.0 - q) * q))
    z = -norm_quantile(q)
    zz = z * z
    g = ((zz + 1.0) / 4.0,
         ((5.0 * zz + 16.0) * zz + 3.0) / 96.0,
         (((3.0 * zz + 19.0) * zz + 17.0) * zz - 15.0) / 384.0,
         ((((79.0 * zz + 776.0) * zz + 1482.0) * zz - 1920.0) * zz - 945.0) / 92160.0)
    x = z * (1.0 + (g[0] + (g[1] + (g[2] + g[3] / df) / df) / df) / df)
    if not x > 0.0:
        # under df 0.4 the negative df^-3 and df^-4 terms can outweigh the rest
        x = z
    central = q > 0.25
    target, slope = (0.5 - q, -1.0) if central else (q, 1.0)

    def newton(x):
        got, pdf = _t_mass(x, df, central), _t_pdf(x, df)
        return got, (slope * math.log(got / target) * got / (x * pdf)
                     if got > 0.0 and x * pdf > 0.0 else math.nan)

    x = _invert(newton, x, target, central, "t quantile")
    if _MIN_NORMAL * x * x > df:
        raise ConvergenceError("t quantile is past where df / (df + x^2) is a normal double")
    return sign * x


# ---------------------------------------------------------------------------
# Noncentral t CDF
# ---------------------------------------------------------------------------

def _beta_term(a: float, b: float, ln_y: float, ln_1my: float) -> float:
    """x^a (1-x)^b / (a B(a, b)): the step between I_x(a, b) and I_x(a+1, b)."""
    return math.exp(a * ln_y + b * ln_1my - math.log(a) - _log_beta(a, b))


def _mixture_sum(lam: float, a0: float, scale: float, y: float, w: float,
                 half_df: float, upper: bool = False, modes: dict | None = None
                 ) -> tuple[float, float]:
    """Sum over j >= 0 of scale e^-lam lam^j / Gamma(j + a0 + 1/2) I(a0 + j),
    from the mode of the weights outward, so large lam stays cheap and stable;
    and its slope, the same sum with each I(a) replaced by t/2 times its
    derivative in t, y = t^2 / (t^2 + df), which is a term(a).

    I(a) is I_y(a, df/2), or where w = 1 - y < _FAR or ``upper`` asks for
    it the upper tail I_w(df/2, a) = 1 - I_y(a, df/2), which keeps the digits
    a total near 1 would lose.

    Each sweep stops where its weights fall under 1e-18; the upward one stops
    sooner where every later term rounds away (below).  ``modes`` maps a mode
    m to its I(m + a0) and signed term(m + a0), which depend on lam only
    through m: a caller that sums at one y, w, half_df, a0 and ``upper`` for
    many lam passes one dict to every call, and each mode's incomplete beta
    ratio and step are computed once.
    """
    # the ratios step by I(a+1) = I(a) - term(a); the upper tails step the
    # other way, so their terms change sign.  The ratio is clamped into [0, 1]
    # by comparisons, to the bit as by min/max (NaN to 0 up, 1 down) but faster
    far = upper or w < _FAR
    sign = -1.0 if far else 1.0
    b = a0 + 0.5
    m = int(lam)
    c_m = scale * math.exp(-lam + m * math.log(lam) - math.lgamma(m + b))
    a = m + a0
    mode = modes.get(m) if modes is not None else None
    if mode is None:
        ln_y, ln_1my = _logs(y, w)
        mode = (_betainc(half_df, a, w, y) if far else _betainc(a, half_df, y, w),
                sign * _beta_term(a, half_df, ln_y, ln_1my))
        if modes is not None:
            modes[m] = mode
    i_m, t_m = mode
    total = c_m * i_m
    slope = c_m * a * t_m

    # upward sweep: beyond the mode the weights decrease, so the loop may stop
    # once they are negligible, or once the (decreasing) ratio is 0.  It stops
    # sooner, with the same bits, right after a term where
    #   (1) the next weight factor, the float lam / (j + b), is <= 1/2,
    #   (2) the next slope term over this one, lam y (a + half_df) / ((j + b) a),
    #       is <= 1/2,
    #   (3) the term just added to the total, c i (c on upper tails), is at
    #       most 2^-55 of the total, and
    #   (4) the term just added to the slope, c a t, is at most 2^-55 of it.
    # Both factors fall as a grows, so (1) and (2) hold at every later step:
    # each later c is at most half the one before (exactly, c being >= 1e-18
    # while the loop runs), each later slope term at most (1/2)(1 + 16 eps) of
    # the one before, its roundings counted.  i falls on lower tails and rises
    # to at most 1 on upper ones, so the k-th later term of the total is at
    # most 2^-k c i, or 2^-k c.  Every later term of either sum is then under
    # 2^-55.9 of it.  The terms of a sum share one sign, so its magnitude
    # never falls, and a term under 2^-54 of a sum is under half an ulp of
    # it: adding it rounds back to the same sum, and so on, term by term.
    # (A subnormal product rounds up by at most 2^-1075, still under half an
    # ulp of any sum above 2^-1020; a smaller sum makes the term in (3) or
    # (4) 0, and every later one 0 too.)  The test opens with (3) in the
    # form it takes for positive terms, as the condition that holds last.
    c, i, t, j = c_m, i_m, t_m, m
    while True:
        i -= t
        if not 0.0 < i < 1.0:
            i = 1.0 if i > 0.0 else 0.0
        t *= y * (a + half_df) / (a + 1.0)
        a += 1.0
        c *= lam / (j + b)
        j += 1
        total += c * i
        slope += c * a * t
        if -1e-18 < c < 1e-18 or i == 0.0:
            break
        if j - m > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (upward) hit the iteration cap")
        if (c * i <= _ROUND_AWAY * total and 2.0 * lam <= j + b
                and 2.0 * lam * y * (a + half_df) <= (j + b) * a
                and abs(c if far else c * i) <= _ROUND_AWAY * abs(total)
                and abs(c * a * t) <= _ROUND_AWAY * abs(slope)):
            break

    # downward sweep: I(a) = I(a+1) + term(a).  Where the ratio and its term
    # are 0 at the mode every later term is 0 too, so it is skipped (at large
    # ncp it would walk ~9 sqrt(lam) such terms); otherwise it stops at the
    # upward sweep's cap.
    c, i, t, a = c_m, i_m, t_m, m + a0
    j = 0 if i == t == 0.0 else m
    while j > 0:
        if m - j > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (downward) hit the iteration cap")
        t *= a / (y * (a - 1.0 + half_df))
        a -= 1.0
        i += t
        if not 0.0 < i < 1.0:
            i = 0.0 if i <= 0.0 else 1.0
        c *= (j + b - 1.0) / lam
        j -= 1
        total += c * i
        slope += c * a * t
        if -1e-18 < c < 1e-18:
            break
    return total, slope


def _nct_abs_sf(t: float, df: float, ncp: float, modes: dict | None = None) -> float:
    """P(|T| > t) for t >= 0, T noncentral t(df, ncp).  T^2 is noncentral
    F(1, df, ncp^2), so this is sum_j Pois(j; ncp^2 / 2) I_w(df/2, j + 1/2),
    the Poisson half of the series, as ``_nct_fold`` sums it, with ``modes``."""
    return _nct_fold(t, df, ncp, False, False, modes)[1]


def _nct_fold(t: float, df: float, ncp: float, signs: bool = False,
              upper: bool = False, modes: dict | None = None) -> tuple:
    """The law of |T| at t >= 0, T noncentral t(df, ncp), normal N(ncp, 1)
    at df = inf: P(|T| <= t), P(|T| > t) and the density of |T| at t; with
    ``signs`` also P(T < -t) and, for ncp >= 0, f(-t) / (f(t) + f(-t)), the
    chance that T is negative given |T| = t.

    P(T <= t) = Phi(-ncp) + (E + O) / 2 and P(T < -t) = Phi(-ncp) - (E - O) / 2
    over the even (Poisson) and odd sums, so the density of |T| is E'(t) and
    the share is (E' - O') / 2 E', each E' = 2 / t times the sum's slope.
    Each sum stops at weights under 1e-18, so the share loses digits where
    the density of |T| falls toward that; the upward sweep stops sooner,
    with the same bits, once every later term rounds away (``_mixture_sum``).
    With ``upper`` the sums run over upper tails, which keeps P(|T| > t) to
    its last digits where it is small.  ``modes`` goes to the even sum: one
    dict passed to every call at one t, df and ``upper``, whatever the ncp,
    computes the terms of each Poisson mode once (``_mixture_sum``).
    """
    if df == math.inf:
        below = norm_cdf(-t - ncp)
        density = (math.exp(-0.5 * (t - ncp) ** 2) + math.exp(-0.5 * (t + ncp) ** 2)) / _SQRT2PI
        law = (norm_cdf(t - ncp) - below, norm_cdf(ncp - t) + below, density)
        # f(-t) / f(t) = e^(-2 t ncp), so the share is (1 - tanh(t ncp)) / 2
        return law + ((below, 0.5 - 0.5 * math.tanh(t * ncp)) if signs else ())
    lam = 0.5 * ncp * ncp
    if lam == 0.0:
        # T is the central t, each tail from its own mass
        below = _t_mass(t, df)
        law = (2.0 * _t_mass(t, df, True), 2.0 * below, 2.0 * _t_pdf(t, df))
        return law + ((below, 0.5) if signs else ())
    tt = t * t
    y, w = tt / (tt + df), df / (tt + df)
    if y < _MIN_NORMAL:
        # t^2 underflows against df: |T| lies above t surely (density given as 0)
        return (0.0, 1.0, 0.0) + ((norm_cdf(-ncp), 0.5) if signs else ())
    if w < _MIN_NORMAL:
        # t^2 overflows, or dwarfs df past the double range: |T| lies below t
        return (1.0, 0.0, 0.0) + ((0.0, 0.0) if signs else ())
    half_df, far = 0.5 * df, upper or w < _FAR
    try:
        even, d_even = _mixture_sum(lam, 0.5, 1.0, y, w, half_df, far, modes)
        odd, d_odd = (_mixture_sum(lam, 1.0, ncp * _SQRT1_2, y, w, half_df, far) if signs
                      else (0.0, 0.0))
    except OverflowError:
        # lam = ncp^2 / 2 is infinite, or the Poisson weight at its mode is
        raise ValueError(f"ncp {ncp!r} is too large for the noncentral t series") from None
    # far out the sums run over upper tails, whose slopes are negative
    even = min(1.0, max(0.0, even))
    law = ((1.0 - even, even, -2.0 * d_even / t) if far
           else (even, 1.0 - even, 2.0 * d_even / t))
    if not signs:
        return law
    below = 0.5 * (even - odd) if far else norm_cdf(-ncp) - 0.5 * (even - odd)
    share = 0.5 - 0.5 * d_odd / d_even if d_even else 0.0
    # below is left unclamped: rounding can put it about 1e-13 under 0, and
    # nct_cdf adds it to P(|T| <= t) before it clamps
    return law + (below, min(1.0, max(0.0, share)))


def _nct_abs_isf(v: float, df: float, ncp: float) -> float:
    """The t > 0 with P(|T| > t) = v for 0 < v < 1, T as in ``_nct_fold``.

    From the normal approximation of Abramowitz & Stegun 26.7.10,
    ``_invert``'s Newton steps in log t solve for the log of the smaller
    tail, v or 1 - v, with the density of |T| as the slope (about 3.5
    evaluations at the quantiles of a grid cell).
    """
    upper = v <= 0.5
    target, sign = (v, 1.0) if upper else (1.0 - v, -1.0)

    def newton(t):
        cdf, sf, density = _nct_fold(t, df, ncp, upper=upper)
        got = sf if upper else cdf
        return got, (sign * math.log(got / target) * got / (t * density)
                     if got > 0.0 and t * density > 0.0 else math.nan)

    return _invert(newton, _abs_start(v, df, ncp), target, not upper, "|T| quantile")


def _abs_start(v: float, df: float, ncp: float) -> float:
    """Where P(|T| > t) = v if T's lower tail is ignored and P(T <= t) is
    Phi((t k - ncp) / sqrt(1 + t^2 / (2 df))), k = 1 - 1 / (4 df): a root of
    a quadratic.  Where it has no positive root, ncp + |z|."""
    z = -norm_quantile(v)
    k = 1.0 - 0.25 / df
    a = k * k - 0.5 * z * z / df
    disc = k * k + 0.5 * (ncp * ncp - z * z) / df
    t = (k * ncp + z * math.sqrt(disc)) / a if a > 0.0 and disc >= 0.0 else math.nan
    return t if t > 0.0 else ncp + abs(z)


def nct_cdf(x: float, df: float, ncp: float) -> float:
    """Noncentral t CDF with noncentrality ``ncp``, from the law of |T|:
    P(T <= x) is P(T < -|x|) for x < 0 and P(|T| <= x) + P(T < -x) for x >= 0,
    at ncp > 0; at ncp < 0 it is P(|T'| > |x|) - P(T' < -|x|) and 1 - P(T' < -x)
    for T' = -T.

    Matches ``t_cdf`` exactly at ncp = 0 and is evaluated to ~1e-12 absolute
    accuracy (target 1e-8) against direct numerical integration.  Scalars
    only: an array argument is a ConfigError.
    """
    x = _require_finite("nct_cdf", "x", x)
    df = _scale("degrees of freedom", _point("nct_cdf", df))
    ncp = _require_finite("nct_cdf", "ncp", ncp)
    if ncp == 0.0:
        return t_cdf(x, df)
    t = abs(x)
    if ncp > 0.0:
        cdf, _, _, below, _ = _nct_fold(t, df, ncp, signs=True)
        return min(1.0, max(0.0, below if x < 0.0 else cdf + below))
    # T' = -T at -ncp: P(T <= x) = P(T' >= -x), from upper tails past |ncp|
    _, sf, _, below, _ = _nct_fold(t, df, -ncp, signs=True, upper=t > -ncp)
    return min(1.0, max(0.0, sf - below if x < 0.0 else 1.0 - below))
