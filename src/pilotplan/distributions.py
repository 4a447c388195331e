"""CDFs and quantile functions for the normal, chi-square, Student t and
noncentral t distributions.

Everything downstream of this module (power solves, pilot sizing, simulation)
calls only these functions.  The implementations are self-contained: the
incomplete gamma and beta functions are evaluated by series / continued
fraction with region switching, the noncentral t CDF by a Poisson-mixture
series over incomplete beta ratios, and quantiles by guarded Newton iteration
with bracket fallback.

``norm_cdf``, ``norm_quantile`` and ``chisq_quantile`` are each one scalar
kernel.  ``_entrywise`` lets each take an array as its first argument too:
every entry is its own scalar call, with the same bits, in the array's
shape.  Nothing in the package passes them an array: the variance
simulation calls ``chisq_quantile`` only at the replicates it reads, and the
effect simulation draws its normal and chi-square deviates from numpy's
samplers.  ``chisq_cdf``, the t functions and ``nct_cdf`` are scalar; no
caller needs the noncentral t at more than a few dozen points at once.

The power layer reaches the noncentral t only through ``_nct_abs_sf``, the
two-sided tail P(|T| > t): T^2 is noncentral F(1, df, ncp^2), so that tail
is the Poisson-weighted half of the series alone.  ``nct_cdf`` and
``_nct_abs_sf`` share the one mode-outward sweep, ``_mixture_sum``.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = [
    "ConvergenceError",
    "norm_cdf",
    "norm_quantile",
    "chisq_cdf",
    "chisq_quantile",
    "t_cdf",
    "t_quantile",
    "nct_cdf",
]

# Quantile inversions stop at |cdf(x) - p| <= _INVERT_TOL, at bracket
# collapse (the CDF's own evaluation noise can exceed the tolerance very
# close to the median), or at _MAX_NEWTON iterations; hitting the cap raises
# instead of returning.
_INVERT_TOL = 1e-10
_MAX_NEWTON = 200
_MAX_LENTZ = 500
_MAX_SERIES = 100000
_TINY = 1e-300
# below the smallest normal double the noncentral-t series is dropped: its
# terms are under 1e-154 there, and the downward recursion, which divides by
# the beta argument, would overflow
_MIN_NORMAL = sys.float_info.min
# where 1 - t^2 / (t^2 + df) keeps under half its bits, the noncentral-t
# series sums upper tails instead
_FAR = 2.0 ** -26


class ConvergenceError(RuntimeError):
    """An iterative evaluation hit its iteration cap before converging."""


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _require_df(df: float) -> float:
    df = float(df)
    if not (math.isfinite(df) and df > 0):
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    return df


def _entrywise(kernel):
    """A scalar kernel that also takes an array first argument: each entry is
    its own scalar call, and the floats come back in the array's shape."""
    @functools.wraps(kernel)
    def call(x, *args):
        if isinstance(x, float) or np.ndim(x) == 0:
            return kernel(x, *args)
        arr = np.asarray(x, dtype=float)
        return np.array([kernel(v, *args) for v in arr.ravel().tolist()],
                        dtype=float).reshape(arr.shape)
    return call


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

# Coefficients for erfc on [0.46875, 4] and (4, inf), and erf on [0, 0.46875]
# (Cody's rational minimax approximations, double precision).
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02,
           8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346047e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


_ONE_OVER_SQRT_PI = 0.5641895835477563

# Each erfc region and Acklam branch is one helper on a float.  They call
# numpy's exp, log and floor, not math's, which round differently in the last
# bit on some arguments: the frozen quantiles and goldens hold numpy's bits.


def _erfc_small(s):
    """erfc(s) = 1 - erf(s) for 0 <= s <= 0.46875."""
    z = s * s
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return 1.0 - s * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _exp_neg_square(s, val):
    """exp(-s^2) * val, with s^2 split at a multiple of 1/16 to keep its bits."""
    ysq = np.floor(s * 16.0) / 16.0
    del2 = (s - ysq) * (s + ysq)
    return np.exp(-ysq * ysq) * np.exp(-del2) * val


def _erfc_mid(s):
    """erfc(s) for 0.46875 < s <= 4."""
    num = _ERFC_C[8] * s
    den = s
    for i in range(7):
        num = (num + _ERFC_C[i]) * s
        den = (den + _ERFC_D[i]) * s
    return _exp_neg_square(s, (num + _ERFC_C[7]) / (den + _ERFC_D[7]))


def _erfc_big(s):
    """erfc(s) for 4 < s <= 26.5; past 26.5 Cody's algorithm returns 0."""
    z = 1.0 / (s * s)
    num = _ERFC_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERFC_P[i]) * z
        den = (den + _ERFC_Q[i]) * z
    val = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
    return _exp_neg_square(s, (_ONE_OVER_SQRT_PI - val) / s)


def _erfc_scalar(x: float) -> float:
    """Complementary error function of one float, ~1 ulp accuracy."""
    s = abs(x)
    v = float(_erfc_small(s) if s <= 0.46875 else _erfc_mid(s) if s <= 4.0
              else _erfc_big(s) if s <= 26.5 else 0.0)
    return 2.0 - v if x < 0.0 else v


@_entrywise
def norm_cdf(x):
    """Standard normal CDF."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("norm_cdf requires finite input")
    return 0.5 * _erfc_scalar(-x * _SQRT1_2)


# Acklam's rational approximation to the normal quantile (start value; one
# Halley step against the erfc-based CDF polishes it to ~1e-16).
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_SPLIT = 0.02425


def _acklam_central(q):
    """Acklam's start at p = 0.5 + q, for _ACK_SPLIT <= p <= 1 - _ACK_SPLIT."""
    a, b = _ACK_A, _ACK_B
    r = q * q
    num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return q * num / den


def _acklam_tail(p):
    """Acklam's start at p < _ACK_SPLIT; at 1 - p it is the negative."""
    c, d = _ACK_C, _ACK_D
    q = np.sqrt(-2.0 * np.log(p))
    num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    return num / den


@_entrywise
def norm_quantile(p):
    """Standard normal quantile (inverse CDF) for 0 < p < 1; p in {0, 1}
    raises ValueError."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("norm_quantile requires 0 < p < 1")
    if p < _ACK_SPLIT:
        x = float(_acklam_tail(p))
    elif p > 1.0 - _ACK_SPLIT:
        x = -float(_acklam_tail(1.0 - p))
    else:
        x = _acklam_central(p - 0.5)
    # one Halley step on Phi(x) = p, with the density floored at _TINY
    pdf = max(float(np.exp(-0.5 * (x * x)) * _INV_SQRT_2PI), _TINY)
    u = (0.5 * _erfc_scalar(-x * _SQRT1_2) - p) / pdf
    return x - u / (1.0 + 0.5 * x * u)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma (chi-square backbone)
# ---------------------------------------------------------------------------

def _gammainc_lower(a: float, x: float) -> tuple[float, float]:
    """P(a, x) and Q(a, x) = 1 - P(a, x), a > 0, x >= 0."""
    if x == 0.0:
        return 0.0, 1.0
    pre = float(np.exp(-x + a * np.log(x) - math.lgamma(a)))
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
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_LENTZ + 1):
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
    x = _require_finite("x", x)
    df = _require_df(df)
    if x < 0.0:
        raise ValueError(f"chi-square CDF requires x >= 0, got {x!r}")
    return min(1.0, max(0.0, _gammainc_lower(0.5 * df, 0.5 * x)[0]))


# The start and the step of ``chisq_quantile`` call numpy's exp, log and
# power, not math's, which round differently in the last bit on some
# arguments: the frozen quantiles and goldens hold numpy's bits.

def _chisq_start(p: float, df: float) -> float:
    """Wilson-Hilferty start for p > 0; where it is not positive, the leading
    term of the series, P(a, x / 2) ~ (x / 2)^a / Gamma(a + 1)."""
    a, c = 0.5 * df, 2.0 / (9.0 * df)
    x = float(df * np.power(1.0 - c + norm_quantile(p) * math.sqrt(c), 3))
    if x > 0.0:
        return x
    return max(float(2.0 * np.exp((np.log(p) + math.lgamma(a + 1.0)) / a)), 1e-280)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _chisq_step(x: float, got: float, tail: float, sign: float, a: float,
                lo: float, hi: float) -> float:
    """The next x within (lo, hi), from g = log(got / tail) in u = log x, sign
    -1 on the upper tail: g' = sign x pdf / got and g'' = g' r2; Newton's step
    h = g / g', and once it is short the series reversion to third order.  A
    step out of the bracket bisects it, or doubles x while hi is infinite."""
    slope = sign * np.exp(a * np.log(0.5 * x) - 0.5 * x - math.lgamma(a)) / got
    h = np.log(got / tail) / slope
    r2 = a - 0.5 * x - slope
    rev = h * (1.0 + h * (0.5 * r2 + h * (r2 * r2 / 3.0 + (0.5 * x + slope * r2) / 6.0)))
    x_new = x * np.exp(-(rev if abs(h) < 0.5 else h))
    if lo < x_new < hi:
        return float(x_new)
    return 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(x, 1.0)


@_entrywise
def chisq_quantile(p, df: float):
    """Chi-square quantile for 0 <= p < 1 (p = 1 is a domain error).

    From the Wilson-Hilferty start, steps in log x solve for the log of the
    smaller tail, which is concave in log x for every df, so Newton's step
    cannot run away; a step that leaves the bracket bisects it instead.  The
    inversion stops when that tail is within ``_INVERT_TOL`` of its target,
    relative, or when its bracket collapses; reaching ``_MAX_NEWTON``
    iterations raises, as it does when the quantile is below the smallest
    double.
    """
    df = _require_df(df)
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError("chi-square quantile requires 0 <= p < 1")
    if p == 0.0:
        return 0.0
    a = 0.5 * df
    x, upper, lo, hi = _chisq_start(p, df), p > 0.5, 0.0, math.inf
    tail, sign = (1.0 - p, -1.0) if upper else (p, 1.0)
    for _ in range(_MAX_NEWTON):
        got = _gammainc_lower(a, 0.5 * x)[upper]     # Q on the upper tail
        if abs(got - tail) <= _INVERT_TOL * tail or hi - lo <= 1e-15 * x:
            return x
        short = (got < tail) != upper       # x lies below the quantile
        lo, hi = (x, hi) if short else (lo, x)
        x = _chisq_step(x, got, tail, sign, a, lo, hi)
    raise ConvergenceError("chi-square quantile inversion hit the 200-iteration cap")


# ---------------------------------------------------------------------------
# Regularized incomplete beta (t backbone)
# ---------------------------------------------------------------------------

# from this larger argument on, lgamma(a + b) - lgamma(b) loses log B(a, b)
# to cancellation (an error of about 2e-11 at 1e4 and 3e-8 at 1.5e7), so
# _log_beta takes that difference from Stirling's series instead
_STIRLING_FROM = 1e4


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b) for a, b > 0."""
    s, l = min(a, b), max(a, b)
    if l < _STIRLING_FROM:
        return -(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    # lgamma(l) - lgamma(l + s) from Stirling's series; of its correction
    # only the 1/(12 x) terms matter here, the next ones are under 3e-15
    t = l + s
    return (math.lgamma(s) - ((l - 0.5) * math.log1p(s / l) + s * math.log(t) - s)
            + s / (12.0 * l * t))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_LENTZ + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError("incomplete beta continued fraction hit the iteration cap")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = -_log_beta(a, b) + a * math.log(x) + b * math.log1p(-x)
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """Student t CDF via the incomplete beta function.

    Evaluated from whichever end of the beta integral keeps the argument
    away from 1, so small |x| does not lose precision to rounding in
    df / (df + x^2).
    """
    x = _require_finite("x", x)
    df = _require_df(df)
    if x == 0.0:
        return 0.5
    xx = x * x
    if xx > df:
        w = _betainc(0.5 * df, 0.5, df / (df + xx))
        return 1.0 - 0.5 * w if x > 0.0 else 0.5 * w
    w = _betainc(0.5, 0.5 * df, xx / (df + xx))
    return 0.5 + 0.5 * w if x > 0.0 else 0.5 - 0.5 * w


def _t_pdf(x: float, df: float) -> float:
    return math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi)
                    - 0.5 * (df + 1.0) * math.log1p(x * x / df))


def t_quantile(p: float, df: float) -> float:
    """Student t quantile for 0 < p < 1."""
    p = float(p)
    df = _require_df(df)
    if not (0.0 < p < 1.0):
        raise ValueError(f"t quantile requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    if df == 1.0:
        return math.tan(math.pi * (p - 0.5))
    if df == 2.0:
        return (2.0 * p - 1.0) * math.sqrt(2.0 / (4.0 * p * (1.0 - p)))
    # Cornish-Fisher style start from the normal quantile
    z = norm_quantile(p)
    g1 = (z ** 3 + z) / 4.0
    g2 = (5.0 * z ** 5 + 16.0 * z ** 3 + 3.0 * z) / 96.0
    x = z + g1 / df + g2 / df ** 2
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_NEWTON):
        f = t_cdf(x, df) - p
        if abs(f) <= _INVERT_TOL or hi - lo <= 1e-15 * max(1.0, abs(x)):
            return x
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        deriv = _t_pdf(x, df)
        x_new = x - f / deriv if deriv > 0.0 else math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(x, 1.0)
        x = x_new
    raise ConvergenceError("t quantile inversion hit the 200-iteration cap")


# ---------------------------------------------------------------------------
# Noncentral t CDF
# ---------------------------------------------------------------------------

def _beta_term(a: float, b: float, ln_y: float, ln_1my: float) -> float:
    """x^a (1-x)^b / (a B(a, b)): the step between I_x(a, b) and I_x(a+1, b)."""
    return math.exp(a * ln_y + b * ln_1my - math.log(a) - _log_beta(a, b))


def _mixture_sum(lam: float, a0: float, scale: float, y: float, w: float,
                 half_df: float) -> float:
    """Sum over j >= 0 of scale e^-lam lam^j / Gamma(j + a0 + 1/2) I(a0 + j),
    from the mode of the weights outward, so large lam stays cheap and stable.

    I(a) is I_y(a, df/2), or where w = 1 - y < _FAR the upper tail
    I_w(df/2, a) = 1 - I_y(a, df/2), which keeps the digits 1 - y has lost.
    """
    # the ratios step by I(a+1) = I(a) - term(a); the upper tails step the
    # other way, so their terms change sign
    far = w < _FAR
    sign, ln_y, ln_1my = (-1.0, math.log1p(-w), math.log(w)) if far else (
        1.0, math.log(y), math.log1p(-y))
    b = a0 + 0.5
    m = int(lam)
    c_m = scale * math.exp(-lam + m * math.log(lam) - math.lgamma(m + b))
    a = m + a0
    i_m = _betainc(half_df, a, w) if far else _betainc(a, half_df, y)
    t_m = sign * _beta_term(a, half_df, ln_y, ln_1my)
    total = c_m * i_m

    # upward sweep: beyond the mode the weights decrease, so the loop may stop
    # once they are negligible, or once the (decreasing) ratio is 0
    c, i, t, j = c_m, i_m, t_m, m
    while True:
        a = j + a0
        i = min(1.0, max(0.0, i - t))
        t *= y * (a + half_df) / (a + 1.0)
        c *= lam / (j + b)
        j += 1
        total += c * i
        if -1e-18 < c < 1e-18 or i == 0.0:
            break
        if j - m > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (upward) hit the iteration cap")

    # downward sweep: I(a) = I(a+1) + term(a).  Where the ratio and its term
    # are 0 at the mode every later term is 0 too, so it is skipped (at large
    # ncp it would walk ~9 sqrt(lam) such terms); otherwise it stops at the
    # upward sweep's cap.
    c, i, t = c_m, i_m, t_m
    j = 0 if i == t == 0.0 else m
    while j > 0:
        if m - j > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (downward) hit the iteration cap")
        a = j + a0
        t *= a / (y * (a - 1.0 + half_df))
        i = max(0.0, min(1.0, i + t))
        c *= (j + b - 1.0) / lam
        j -= 1
        total += c * i
        if -1e-18 < c < 1e-18:
            break
    return total


def _nct_cdf_nonneg(t: float, df: float, delta: float) -> float:
    """P(T <= t) for t >= 0, T noncentral t(df, delta); Poisson-mixture series."""
    base = norm_cdf(-delta)
    tt = t * t
    y, w = tt / (tt + df), df / (tt + df)
    if y < _MIN_NORMAL:
        # t == 0, or t * t underflows against df: only the normal mass is left
        return base
    if w < _MIN_NORMAL:
        # t * t overflows, or dwarfs df past the double range: only the limit 1
        # is left
        return 1.0
    lam = 0.5 * delta * delta
    if lam == 0.0:
        return t_cdf(t, df)
    half_df = 0.5 * df
    # the Poisson weights over I(j + 1/2), and the odd half over I(j + 1)
    total = (_mixture_sum(lam, 0.5, 1.0, y, w, half_df)
             + _mixture_sum(lam, 1.0, delta / math.sqrt(2.0), y, w, half_df))
    # far out the sums run over upper tails: P(T <= t) = 1 - total / 2
    return min(1.0, max(0.0, 1.0 - 0.5 * total if w < _FAR else base + 0.5 * total))


def _nct_abs_sf(t: float, df: float, ncp: float) -> float:
    """P(|T| > t) for t >= 0, T noncentral t(df, ncp).  T^2 is noncentral
    F(1, df, ncp^2), so this is sum_j Pois(j; ncp^2 / 2) I_w(df/2, j + 1/2),
    the Poisson half of the nct_cdf series.  At ncp = 0: (1 - t_cdf(t)) + t_cdf(-t).
    """
    ncp = _require_finite("ncp", ncp)
    lam = 0.5 * ncp * ncp
    if lam == 0.0:
        return (1.0 - t_cdf(t, df)) + t_cdf(-t, df)
    tt = t * t
    y, w = tt / (tt + df), df / (tt + df)
    if y < _MIN_NORMAL:
        return 1.0
    if w < _MIN_NORMAL:
        return 0.0
    try:
        total = _mixture_sum(lam, 0.5, 1.0, y, w, 0.5 * df)
    except OverflowError:
        raise ValueError(_ncp_too_large(ncp)) from None
    return min(1.0, max(0.0, total if w < _FAR else 1.0 - total))


def _ncp_too_large(ncp: float) -> str:
    # lam = ncp^2 / 2 is infinite, or the Poisson weight at its mode is
    return f"ncp {ncp!r} is too large for the noncentral t series"


def nct_cdf(x: float, df: float, ncp: float) -> float:
    """Noncentral t CDF with noncentrality ``ncp``.

    Matches ``t_cdf`` exactly at ncp = 0 and is evaluated to ~1e-12 absolute
    accuracy (target 1e-8) against direct numerical integration.  Scalars
    only: an array argument is a ValueError.
    """
    if np.ndim(x) or np.ndim(df) or np.ndim(ncp):
        raise ValueError("nct_cdf takes scalar arguments; call it once per point")
    x = _require_finite("x", x)
    df = _require_df(df)
    ncp = _require_finite("ncp", ncp)
    if ncp == 0.0:
        return t_cdf(x, df)
    try:
        if x >= 0.0:
            return _nct_cdf_nonneg(x, df, ncp)
        return min(1.0, max(0.0, 1.0 - _nct_cdf_nonneg(-x, df, -ncp)))
    except OverflowError:
        raise ValueError(_ncp_too_large(ncp)) from None
