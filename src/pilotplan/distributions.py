"""CDFs and quantile functions for the normal, chi-square, Student t and
noncentral t distributions.

Everything downstream of this module (power solves, pilot sizing, simulation)
calls only these functions.  The implementations are self-contained: the
incomplete gamma and beta functions are evaluated by series / continued
fraction with region switching, the noncentral t CDF by a Poisson-mixture
series over incomplete beta ratios, and quantiles by guarded Newton iteration
with bracket fallback.

``norm_cdf`` and ``norm_quantile`` accept numpy arrays as well as scalars
(the simulation harness draws normal deviates through the inverse CDF in
bulk).  ``nct_cdf`` does too: array inputs run an array kernel of the same
series, start index, stopping rules and iteration caps, with every
transcendental function taken elementwise from ``math``, so each entry equals
the scalar result; scalar inputs keep the plain-float kernel, which is far
cheaper per call.  The chi-square and t functions are scalar.
"""

from __future__ import annotations

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


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, ~1 ulp accuracy."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    out = np.empty_like(ax)

    # |x| <= 0.46875: erfc = 1 - erf via the erf rational approximation
    small = ax <= 0.46875
    if small.any():
        s = ax[small]
        z = s * s
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        erf_small = s * (num + _ERF_A[3]) / (den + _ERF_B[3])
        out[small] = 1.0 - erf_small

    # 0.46875 < |x| <= 4
    mid = (ax > 0.46875) & (ax <= 4.0)
    if mid.any():
        s = ax[mid]
        num = _ERFC_C[8] * s
        den = s
        for i in range(7):
            num = (num + _ERFC_C[i]) * s
            den = (den + _ERFC_D[i]) * s
        val = (num + _ERFC_C[7]) / (den + _ERFC_D[7])
        ysq = np.floor(s * 16.0) / 16.0
        del2 = (s - ysq) * (s + ysq)
        out[mid] = np.exp(-ysq * ysq) * np.exp(-del2) * val

    # |x| > 4
    big = ax > 4.0
    if big.any():
        s = ax[big]
        z = 1.0 / (s * s)
        num = _ERFC_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERFC_P[i]) * z
            den = (den + _ERFC_Q[i]) * z
        val = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
        val = (_ONE_OVER_SQRT_PI - val) / s
        with np.errstate(under="ignore"):
            ysq = np.floor(s * 16.0) / 16.0
            del2 = (s - ysq) * (s + ysq)
            out[big] = np.exp(-ysq * ysq) * np.exp(-del2) * val
        out[big] = np.where(s > 26.5, 0.0, out[big])

    return np.where(x < 0, 2.0 - out, out)


def norm_cdf(x):
    """Standard normal CDF. Scalar in, scalar out; arrays pass through."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("norm_cdf requires finite input")
    with np.errstate(under="ignore"):
        res = 0.5 * _erfc(-arr * _SQRT1_2)
    if np.ndim(x) == 0:
        return float(res[0])
    return res.reshape(arr.shape)


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) * _INV_SQRT_2PI


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


def norm_quantile(p):
    """Standard normal quantile (inverse CDF) for 0 < p < 1.

    Accepts scalars or numpy arrays.  Raises ValueError at p in {0, 1}.
    """
    orig = np.asarray(p, dtype=float)
    if not np.all((orig > 0.0) & (orig < 1.0)):
        raise ValueError("norm_quantile requires 0 < p < 1")
    arr = np.atleast_1d(orig).ravel()

    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    x = np.empty_like(arr)

    lo = arr < 0.02425
    hi = arr > 1.0 - 0.02425
    mid = ~(lo | hi)
    if mid.any():
        q = arr[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        x[mid] = q * num / den
    if lo.any():
        q = np.sqrt(-2.0 * np.log(arr[lo]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        x[lo] = num / den
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - arr[hi]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        x[hi] = -num / den

    # one Halley refinement against the high-accuracy CDF
    with np.errstate(under="ignore"):
        err = 0.5 * _erfc(-x * _SQRT1_2) - arr
        u = err / np.maximum(_norm_pdf(x), _TINY)
        x = x - u / (1.0 + 0.5 * x * u)

    if np.ndim(p) == 0:
        return float(x[0])
    return x.reshape(orig.shape)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma (chi-square backbone)
# ---------------------------------------------------------------------------

def _gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0, x >= 0."""
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        # series representation
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_SERIES):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
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
            q = h * math.exp(-x + a * math.log(x) - math.lgamma(a))
            return 1.0 - q
    raise ConvergenceError("incomplete gamma continued fraction hit the iteration cap")


def chisq_cdf(x: float, df: float) -> float:
    """Chi-square CDF: regularized lower incomplete gamma P(df/2, x/2)."""
    x = _require_finite("x", x)
    df = _require_df(df)
    if x < 0.0:
        raise ValueError(f"chi-square CDF requires x >= 0, got {x!r}")
    return min(1.0, max(0.0, _gammainc_lower(0.5 * df, 0.5 * x)))


def _chisq_pdf(x: float, df: float) -> float:
    if x <= 0.0:
        return 0.0
    a = 0.5 * df
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0) - math.lgamma(a))


def chisq_quantile(p: float, df: float) -> float:
    """Chi-square quantile for 0 <= p < 1 (p = 1 is a domain error)."""
    p = float(p)
    df = _require_df(df)
    if not (0.0 <= p < 1.0):
        raise ValueError(f"chi-square quantile requires 0 <= p < 1, got {p!r}")
    if p == 0.0:
        return 0.0
    # Wilson-Hilferty start
    zp = norm_quantile(p)
    c = 2.0 / (9.0 * df)
    x = df * (1.0 - c + zp * math.sqrt(c)) ** 3
    if x <= 0.0:
        x = 0.5 * math.exp((math.log(p) + math.lgamma(0.5 * df) + 0.5 * df * math.log(2.0)) / (0.5 * df)) * 2.0
        x = max(x, 1e-280)
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_NEWTON):
        f = _gammainc_lower(0.5 * df, 0.5 * x) - p
        if abs(f) <= _INVERT_TOL or hi - lo <= 1e-15 * max(1.0, abs(x)):
            return x
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        deriv = _chisq_pdf(x, df)
        if deriv > 0.0:
            step = f / deriv
            x_new = x - step
        else:
            x_new = math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(x, 1.0)
        x = x_new
    raise ConvergenceError("chi-square quantile inversion hit the 200-iteration cap")


# ---------------------------------------------------------------------------
# Regularized incomplete beta (t backbone)
# ---------------------------------------------------------------------------

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
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
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
    return math.exp(a * ln_y + b * ln_1my - math.log(a)
                    + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


def _nct_cdf_nonneg(t: float, df: float, delta: float) -> float:
    """P(T <= t) for t >= 0, T noncentral t(df, delta); Poisson-mixture series.

    The series is summed outward from the mode of the Poisson weights so that
    large noncentrality parameters stay cheap and stable.
    """
    base = norm_cdf(-delta)
    tt = t * t
    y = tt / (tt + df)
    if y < _MIN_NORMAL:
        # t == 0, or t * t underflows against df: only the normal mass is left
        return base
    ln_y = math.log(y)
    ln_1my = math.log1p(-y)
    lam = 0.5 * delta * delta
    half_df = 0.5 * df

    if lam == 0.0:
        return t_cdf(t, df)

    m = int(lam)
    ln_lam = math.log(lam)

    # Poisson-style weights at the starting index:
    #   p_j = exp(-lam) lam^j / j!
    #   q_j = exp(-lam) lam^j * delta / (sqrt(2) Gamma(j + 3/2))
    def p_weight(j: int) -> float:
        return math.exp(-lam + j * ln_lam - math.lgamma(j + 1.0))

    def q_weight(j: int) -> float:
        return math.exp(-lam + j * ln_lam - math.lgamma(j + 1.5)) * delta / math.sqrt(2.0)

    # incomplete beta ratios and their increment terms at the starting index
    def ibeta_state(a: float):
        return _betainc(a, half_df, y), _beta_term(a, half_df, ln_y, ln_1my)

    p_m = p_weight(m)
    q_m = q_weight(m)
    ip_m, tp_m = ibeta_state(m + 0.5)
    iq_m, tq_m = ibeta_state(m + 1.0)

    total = p_m * ip_m + q_m * iq_m

    # upward sweep: I_x(a+1, b) = I_x(a, b) - term(a, b).  Beyond the Poisson
    # mode both the weights and the beta ratios decrease, so the loop may stop
    # once the weights themselves are negligible.
    p_j, q_j, ip, tp, iq, tq = p_m, q_m, ip_m, tp_m, iq_m, tq_m
    j = m
    while True:
        a_p = j + 0.5
        a_q = j + 1.0
        ip = max(0.0, ip - tp)
        iq = max(0.0, iq - tq)
        tp *= y * (a_p + half_df) / (a_p + 1.0)
        tq *= y * (a_q + half_df) / (a_q + 1.0)
        p_j *= lam / (j + 1.0)
        q_j *= lam / (j + 1.5)
        j += 1
        total += p_j * ip + q_j * iq
        if (p_j < 1e-18 and abs(q_j) < 1e-18) or ip + abs(iq) == 0.0:
            break
        if j - m > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (upward) hit the iteration cap")

    # downward sweep: I_x(a, b) = I_x(a+1, b) + term(a, b)
    p_j, q_j, ip, tp, iq, tq = p_m, q_m, ip_m, tp_m, iq_m, tq_m
    j = m
    while j > 0:
        a_p = j + 0.5
        a_q = j + 1.0
        tp *= a_p / (y * (a_p - 1.0 + half_df))
        tq *= a_q / (y * (a_q - 1.0 + half_df))
        ip = min(1.0, ip + tp)
        iq = min(1.0, iq + tq)
        p_j *= j / lam
        q_j *= (j + 0.5) / lam
        j -= 1
        total += p_j * ip + q_j * iq
        if p_j < 1e-18 and abs(q_j) < 1e-18:
            break

    return min(1.0, max(0.0, base + 0.5 * total))


def nct_cdf(x, df, ncp):
    """Noncentral t CDF with noncentrality ``ncp``.

    Matches ``t_cdf`` exactly at ncp = 0 and is evaluated to ~1e-12 absolute
    accuracy (target 1e-8) against direct numerical integration.  If any
    argument is an array, the three broadcast together and an array of the
    same values the scalar calls would give comes back.
    """
    if np.ndim(x) or np.ndim(df) or np.ndim(ncp):
        return _nct_cdf_array(x, df, ncp)
    x = _require_finite("x", x)
    df = _require_df(df)
    ncp = _require_finite("ncp", ncp)
    if ncp == 0.0:
        return t_cdf(x, df)
    if x >= 0.0:
        return _nct_cdf_nonneg(x, df, ncp)
    return min(1.0, max(0.0, 1.0 - _nct_cdf_nonneg(-x, df, -ncp)))


# ---------------------------------------------------------------------------
# Array kernel of the noncentral t CDF
# ---------------------------------------------------------------------------
#
# Each function below is its scalar namesake run over 1-D arrays: the same
# operations in the same order (``np.fmin``/``np.fmax`` pass over NaN as the
# builtin ``min``/``max`` do), with every entry leaving an iteration on the
# scalar test and an iteration cap still raising.  Entries that have stopped
# are dropped from the working arrays, so a pass only computes the ones left.

def _elementwise(fn):
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: ufunc(x).astype(float)


# ``math`` functions entry by entry: numpy has no lgamma, and its exp and log
# may round differently from ``math`` in the last bit
_exp, _log, _log1p, _lgamma = map(_elementwise, (math.exp, math.log, math.log1p, math.lgamma))


def _floor_tiny(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _betacf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    d = 1.0 / _floor_tiny(1.0 - qab * x / qap)
    state = (np.arange(x.size), a, b, x, qab, qap, qam, np.ones_like(x), d, d)
    for m in range(1, _MAX_LENTZ + 1):
        i, a, b, x, qab, qap, qam, c, d, h = state
        if not i.size:
            return out
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _floor_tiny(1.0 + aa * d)
        c = _floor_tiny(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        out[i[done]] = h[done]
        state = tuple(v[~done] for v in (i, a, b, x, qab, qap, qam, c, d, h))
    if state[0].size:
        raise ConvergenceError("incomplete beta continued fraction hit the iteration cap")
    return out


def _betainc_array(a, b, x) -> np.ndarray:
    a, b, x = np.broadcast_arrays(a, b, x)
    out = np.where(x <= 0.0, 0.0, 1.0)
    inner = (x > 0.0) & (x < 1.0)
    a, b, x = a[inner], b[inner], x[inner]
    bt = _exp(_lgamma(a + b) - _lgamma(a) - _lgamma(b) + a * _log(x) + b * _log1p(-x))
    res = np.empty_like(x)
    lo = x < (a + 1.0) / (a + b + 2.0)
    up = ~lo
    res[lo] = bt[lo] * _betacf_array(a[lo], b[lo], x[lo]) / a[lo]
    res[up] = 1.0 - bt[up] * _betacf_array(b[up], a[up], 1.0 - x[up]) / b[up]
    out[inner] = res
    return out


def _t_cdf_array(x: np.ndarray, df: np.ndarray) -> np.ndarray:
    xx = x * x
    tail = xx > df
    core = ~tail
    w = np.empty_like(x)
    w[tail] = _betainc_array(0.5 * df[tail], 0.5, df[tail] / (df[tail] + xx[tail]))
    w[core] = _betainc_array(0.5, 0.5 * df[core], xx[core] / (df[core] + xx[core]))
    pos = x > 0.0
    return np.where(tail, np.where(pos, 1.0 - 0.5 * w, 0.5 * w),
                    np.where(pos, 0.5 + 0.5 * w, 0.5 - 0.5 * w))


def _beta_term_array(a, b, ln_y, ln_1my) -> np.ndarray:
    return _exp(a * ln_y + b * ln_1my - _log(a)
                + _lgamma(a + b) - _lgamma(a) - _lgamma(b))


def _nct_cdf_nonneg_array(t: np.ndarray, df: np.ndarray, delta: np.ndarray) -> np.ndarray:
    out = norm_cdf(-delta)
    tt = t * t
    y = tt / (tt + df)
    lam = 0.5 * delta * delta
    series = y >= _MIN_NORMAL
    central = series & (lam == 0.0)
    out[central] = _t_cdf_array(t[central], df[central])
    s = series & (lam > 0.0)
    if not s.any():
        return out
    y, df, delta, lam, base = y[s], df[s], delta[s], lam[s], out[s]
    ln_y = _log(y)
    ln_1my = _log1p(-y)
    half_df = 0.5 * df
    m = np.floor(lam)
    ln_lam = _log(lam)
    p_m = _exp(-lam + m * ln_lam - _lgamma(m + 1.0))
    q_m = _exp(-lam + m * ln_lam - _lgamma(m + 1.5)) * delta / math.sqrt(2.0)
    ip_m = _betainc_array(m + 0.5, half_df, y)
    tp_m = _beta_term_array(m + 0.5, half_df, ln_y, ln_1my)
    iq_m = _betainc_array(m + 1.0, half_df, y)
    tq_m = _beta_term_array(m + 1.0, half_df, ln_y, ln_1my)
    total = p_m * ip_m + q_m * iq_m
    start = (np.arange(total.size), p_m, q_m, ip_m, tp_m, iq_m, tq_m, m, y, half_df, lam)

    # upward sweep
    state = start
    for steps in range(1, _MAX_SERIES + 2):
        i, p_j, q_j, ip, tp, iq, tq, j, y, half_df, lam = state
        a_p = j + 0.5
        a_q = j + 1.0
        ip = np.fmax(0.0, ip - tp)
        iq = np.fmax(0.0, iq - tq)
        tp = tp * (y * (a_p + half_df) / (a_p + 1.0))
        tq = tq * (y * (a_q + half_df) / (a_q + 1.0))
        p_j = p_j * (lam / (j + 1.0))
        q_j = q_j * (lam / (j + 1.5))
        j = j + 1.0
        total[i] += p_j * ip + q_j * iq
        go = ~(((p_j < 1e-18) & (np.abs(q_j) < 1e-18)) | (ip + np.abs(iq) == 0.0))
        if not go.any():
            break
        if steps > _MAX_SERIES:
            raise ConvergenceError("noncentral t series (upward) hit the iteration cap")
        state = tuple(v[go] for v in (i, p_j, q_j, ip, tp, iq, tq, j, y, half_df, lam))

    # downward sweep
    state = tuple(v[m > 0] for v in start)
    while state[0].size:
        i, p_j, q_j, ip, tp, iq, tq, j, y, half_df, lam = state
        a_p = j + 0.5
        a_q = j + 1.0
        tp = tp * (a_p / (y * (a_p - 1.0 + half_df)))
        tq = tq * (a_q / (y * (a_q - 1.0 + half_df)))
        ip = np.fmin(1.0, ip + tp)
        iq = np.fmin(1.0, iq + tq)
        p_j = p_j * (j / lam)
        q_j = q_j * ((j + 0.5) / lam)
        j = j - 1.0
        total[i] += p_j * ip + q_j * iq
        go = (j > 0.0) & ~((p_j < 1e-18) & (np.abs(q_j) < 1e-18))
        state = tuple(v[go] for v in (i, p_j, q_j, ip, tp, iq, tq, j, y, half_df, lam))

    out[s] = np.fmin(1.0, np.fmax(0.0, base + 0.5 * total))
    return out


def _nct_cdf_array(x, df, ncp) -> np.ndarray:
    x, df, ncp = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, df, ncp)))
    if not (np.isfinite(x).all() and np.isfinite(ncp).all()):
        raise ValueError("x and ncp must be finite")
    if not (np.isfinite(df) & (df > 0.0)).all():
        raise ValueError("degrees of freedom must be positive and finite")
    shape = x.shape
    x, df, ncp = (v.ravel() for v in (x, df, ncp))
    out = np.empty(x.size)
    central = ncp == 0.0
    out[central] = _t_cdf_array(x[central], df[central])
    up = ~central & (x >= 0.0)
    out[up] = _nct_cdf_nonneg_array(x[up], df[up], ncp[up])
    down = ~central & (x < 0.0)
    low = _nct_cdf_nonneg_array(-x[down], df[down], -ncp[down])
    out[down] = np.fmin(1.0, np.fmax(0.0, 1.0 - low))
    return out.reshape(shape)
