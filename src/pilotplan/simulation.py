"""Monte Carlo verification of the pilot plans; ``tables`` runs it over the reference grids.

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

Nor is every replicate's main study sized.  The main size never increases as
the estimate grows, so the reported size quantiles are the exact sizes of
five order statistics of the estimates, by the integer search of
``main_sample_size`` (any size up to 1e9 per group).  A replicate is
underpowered exactly when it is sized at most m = n_crit - 1, one fewer
than the threshold power needs at the true effect: from the estimate x* on
at which m subjects reach the target power.  ``_underpower_count`` sizes the
threshold and reads the sizer's ``edge`` at m, which brackets x* once per run
to 1e-7 (``effect_for_n``'s solver; z-approx: the closed form).  The caller's
sizer (``power._Sizer``: a pipeline call's own, or a reference table's one)
serves every sizing of a run and that bracket, and builds each size's power
curve, its t critical value and Poisson-mode terms, once, so the bracket at m
solves on the curve the threshold's sizing built.  So the flags are counted,
not tested one by one: with u(x) = P(estimate >= x), a = Binomial(R, u(x_hi))
replicates lie past the bracket and b = Binomial(R - a, (u(x_lo) - u(x_hi)) /
(1 - u(x_hi))) inside it, and only those b, almost always none, are inverted
and sized (by bisection).

Nor is every replicate drawn: one uniform orders the estimates.  A variance
estimate falls as its chi-square uniform rises.  An effect estimate is
spread T, T noncentral t on the pilot's df with ncp mu / (sigma spread) (the
normal N(ncp, 1) when sigma is known), so its magnitude falls as the uniform
P(|T| > |t|) rises.  A run reads order statistics of R uniforms, each drawn
when first read given the two flag counts (``_OrderStats``; Devroye 1986,
Non-Uniform Random Variate Generation, ch. V): the five quantile items and
the in-bracket replicates, and |T| or the chi-square is inverted at those
alone.  The signs of an effect run are drawn after the fact: given the flag
counts and the items read, the replicates between two of them are i.i.d. on
that gap, so the gap's negatives are one Binomial draw, and each item is
negative with its conditional chance.  So every field of the report
keeps its exact joint law, a billion replicates take milliseconds, and no
run imports numpy.

Randomness: one seed per run, one ``random.Random(seed)``, read in this
order: the flags' two Binomials (and the Beta draws of any in-bracket
replicate), then the quantiles' Beta draws, then the signs, gap by gap from
the largest magnitude down, each gap's Binomial and then the item that
closes it.  A Binomial count reads ``random()`` alone (``_binomial``), an
order statistic one ``betavariate``.  Changing that order, or how a count
reads its uniforms, changes the stream.
"""

from __future__ import annotations

import bisect
import math
import random

from .distributions import (ConfigError, _choice, _count, _nct_abs_isf, _nct_abs_sf,
                            _nct_fold, _Output, _probability, _Record, _scale,
                            _stirling_tail, _threshold, chisq_cdf, chisq_quantile)
from .distributions import norm_quantile  # noqa: F401  unused here; perfbench's tracer wraps it by this name
from .power import (
    _MODES,
    EffectSpec,
    TWO_SAMPLE,
    T_ITERATIVE,
    TestDesign,
    _pilot_df,
    _Sizer,
    effect_for_n,  # noqa: F401  unused here; perfbench's tracer wraps it by this name
    main_sample_size,  # noqa: F401  unused here; perfbench's tracer wraps it by this name
)

__all__ = [
    "SimulationConfig",
    "SimulationReport",
    "simulate_variance_pipeline",
    "simulate_effect_pipeline",
    "POOLED_SD",
    "KNOWN_SIGMA",
]

VARIANCE = "variance"
EFFECT = "effect"

POOLED_SD = "pooled-sd"
KNOWN_SIGMA = "known-sigma"
# past this noncentrality a pooled-SD run's noncentral-t series takes over
# 0.1 s a cell and lengthens with it
_MAX_NCP = 1e3


class SimulationConfig(_Record):
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

    def __post_init__(self):
        # every field, before any sampling
        _choice("scenario", self.scenario, (VARIANCE, EFFECT))
        self.design()                   # checks kind and alpha
        _count("seed", self.seed, 0)
        _count("replicates", self.replicates, 1)
        _threshold("underpower_threshold", self.underpower_threshold,
                   _probability("power_target", self.power_target))
        _scale("effect", self.effect)
        _scale("sigma", self.sigma)
        _choice("sizing_mode", self.sizing_mode, _MODES)
        if (_choice("pooled_pilot", self.pooled_pilot, (False, True))
                and self.scenario == EFFECT):
            raise ConfigError(f"pooled_pilot applies to the '{VARIANCE}' scenario only")
        if self.scenario == VARIANCE:
            _count("pilot_n of a variance pilot", self.pilot_n, 2)
            if self.estimator != POOLED_SD:
                raise ConfigError(f"estimator applies to the '{EFFECT}' scenario only, "
                                  f"got {self.estimator!r}")
        else:
            _choice("estimator", self.estimator, (POOLED_SD, KNOWN_SIGMA))
            _count(f"pilot_n with the {self.estimator} estimator", self.pilot_n,
                   2 if self.estimator == POOLED_SD else 1)

    def design(self) -> TestDesign:
        return TestDesign(self.kind, self.alpha)


class SimulationReport(_Output):
    """Outcome of a simulated pipeline run; its inputs are in ``config``."""

    empirical_underpower: float
    mc_standard_error: float
    nonpositive_effects: int
    main_n_quantiles: dict
    config: dict

    scenario = property(lambda self: self.config["scenario"])
    replicates = property(lambda self: self.config["replicates"])
    seed = property(lambda self: self.config["seed"])

    def csv_rows(self) -> list[dict]:
        """One row: the config, the scalar results, then main_n_q5..q95."""
        row = {**self.config, **self.results}
        del row["main_n_quantiles"]
        row.update({f"main_n_q{k}": v for k, v in self.main_n_quantiles.items()})
        return [row]


# the open interval (0, 1) that every drawn uniform is clamped into
_TINY, _BELOW_ONE = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)


class _OrderStats:
    """Item k is f at the k-th largest of ``reps`` uniforms (ascending for a
    falling f), each uniform drawn when first read.  Its known points are
    (rank, uniform, f there): the drawn ranks and the cuts, a cut at rank
    c + 1/2 saying that exactly c uniforms lie at or below its uniform; the
    sentinels are the cuts (1/2, 0.0) and (reps + 1/2, 1.0).  Rank i is drawn
    between the nearest known points lo < i < hi as v_lo + (v_hi - v_lo)
    Beta(i - floor(lo), ceil(hi) - i), so the draws depend on the order of
    reads.  ``tail(x)``, the chance that an item reaches x, places a cut."""

    def __init__(self, reps: int, seed: int, f, tail):
        self._reps, self._f, self._tail = reps, f, tail
        self.rng = random.Random(seed)
        self.points = [(0.5, 0.0, math.inf), (reps + 0.5, 1.0, 0.0)]

    def __len__(self) -> int:
        return self._reps

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < self._reps:
            raise IndexError(k)
        i = self._reps - k
        j = bisect.bisect_left(self.points, i, key=lambda p: p[0])
        if self.points[j][0] != i:
            (lo, v_lo, _), (hi, v_hi, _) = self.points[j - 1:j + 1]
            v = v_lo + (v_hi - v_lo) * self.rng.betavariate(i - math.floor(lo), math.ceil(hi) - i)
            v = min(max(v, v_lo, _TINY), v_hi, _BELOW_ONE)    # ties are allowed
            self.points.insert(j, (i, v, self._f(v)))
        return self.points[j][2]

    def cut(self, x: float) -> int:
        """How many items reach x, that is how many uniforms lie at or below
        u = tail(x): those known to, plus a Binomial of the ones between the
        known points around u.  The count is kept as a cut at u."""
        u = self._tail(x)
        j = bisect.bisect_right(self.points, u, 1, len(self.points) - 1, key=lambda p: p[1])
        (lo, v_lo, _), (hi, v_hi, _) = self.points[j - 1:j + 1]
        c = math.floor(lo) + _binomial(self.rng, math.ceil(hi) - math.floor(lo) - 1,
                                       (u - v_lo) / (v_hi - v_lo) if v_hi > v_lo else 1.0)
        self.points.insert(j, (c + 0.5, u, x))
        return c


# ---------------------------------------------------------------------------
# Main-study sizes and underpower flags from the estimated effect sizes
# ---------------------------------------------------------------------------

# each percentile under its key in ``main_n_quantiles``; every report shares
# these key strings, and one table of them (``_Quantiles``)
_QUANTILES = {"5": 5, "25": 25, "50": 50, "75": 75, "95": 95}


class _Quantiles:
    """A run's main sizes at its percentiles, as attributes named by the keys
    of ``_QUANTILES``.  A report keeps the attribute dict alone: every
    instance sets the keys in one order, so CPython keeps one key table for
    all of them, and each dict holds its five values (about 120 B, against
    190 B for a dict with a table of its own)."""


def _quantile_items(n: int) -> dict:
    """Each percentile's item among n ascending estimates.  The size never
    increases as the estimate grows, so the q-th percentile (``inverted_cdf``)
    of the sizes is the size of the estimate at the q-th percentile counted
    from the top, -np.percentile(-d, q, method="inverted_cdf"), which is
    d[n - ceil(n q / 100)]."""
    return {key: n - (n * q + 99) // 100 for key, q in _QUANTILES.items()}


def _main_n_quantiles(d, sizer: _Sizer, power: float, mode: str) -> dict:
    """Quantiles of the main sizes the estimates get, from the estimates in
    ascending order (any sequence): five sizings by the run's sizer, not one
    per replicate."""
    q = _Quantiles()
    for key, k in _quantile_items(len(d)).items():
        setattr(q, key, sizer.size(d[k], power, mode))
    return vars(q)


def _underpower_count(d, sizer: _Sizer, config: SimulationConfig) -> int:
    """Replicates sized below n_crit, the threshold's own requirement, over the
    ascending estimates ``d``; none where n_crit <= 2.  A size of at most m =
    n_crit - 1 holds from some estimate x* on, which the sizer's ``edge`` at m
    brackets to about 1e-7 x*: those past the bracket and those inside it are
    each one cut, and a bisection sizes only the estimates inside it."""
    n_crit = sizer.size(EffectSpec(config.effect, config.sigma),
                        config.underpower_threshold, T_ITERATIVE)
    if n_crit <= 2:
        return 0
    m, target, mode = n_crit - 1, config.power_target, config.sizing_mode
    x_lo, x_hi = sizer.edge(m, target, mode)
    r, past, near = len(d), d.cut(x_hi), d.cut(x_lo)
    return r - bisect.bisect_left(range(r), True, r - near, r - past,
                                  key=lambda k: sizer.size(d[k], target, mode) <= m)


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """Binomial(n, p), exactly, from ``rng.random()`` alone, in O(1) draws
    expected.  A p past 1/2 is reflected, n - Binomial(n, 1 - p).  Below a mean
    n p of 10 the count is the number of successes whose geometric waiting
    times, floor(log U / log(1 - p)) + 1 each, fit in n trials (Devroye 1986,
    Non-Uniform Random Variate Generation, ch. X.4): n p + 1 uniforms
    expected.  From 10 on it is Hormann's BTRS (1993, "The generation of
    binomial random variates", J. Stat. Comput. Simul. 46), a transformed
    rejection with a squeeze: two uniforms a try, 1.1 to 1.4 tries, and the
    exact ratio to the mode's mass, by log1p and ``distributions``'s Stirling
    tail, only outside the squeeze.  Exact up to rounding while n p is below
    2^53; any n up to sys.maxsize takes microseconds.  No draw where n or p is 0."""
    p = min(1.0, max(0.0, p))
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n == 0 or p == 0.0:
        return 0
    if n * p < 10.0:
        step, count, trials = math.log1p(-p), 0, 0
        while True:
            # the failures before the next success; an infinite skip ends the loop
            skip = math.log(1.0 - rng.random()) / step
            if skip >= n - trials:
                return count
            count, trials = count + 1, trials + math.floor(skip) + 1
    q = 1.0 - p
    spread = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spread
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c, v_r, alpha = n * p + 0.5, 0.92 - 4.2 / b, (2.83 + 5.1 / b) * spread
    m = math.floor((n + 1) * p)
    while True:
        u, v = rng.random() - 0.5, rng.random()
        us = 0.5 - abs(u)
        if us == 0.0:       # u = -1/2 puts k at -infinity: a rejection
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        # f(k) / f(m), each log k! = log Gamma(k + 1) as Stirling's form plus its tail
        j = k - m
        if v * alpha / (a / (us * us) + b) <= math.exp(
                (n - m + 0.5) * math.log1p(j / (n - k + 1)) - (m + 0.5) * math.log1p(j / (m + 1))
                + j * math.log(p * (n - k + 1) / (q * (k + 1)))
                + _stirling_tail(m + 1) + _stirling_tail(n - m + 1)
                - _stirling_tail(k + 1) - _stirling_tail(n - k + 1)):
            return k


def _nonpositive(d, law) -> int:
    """The negative estimates of an effect run, drawn given every point the
    run's ``d`` knows: the flag counts' cuts and the items it read.  Given
    those, the replicates between two neighbouring points have uniforms
    i.i.d. on the gap, so each gap's negatives are a Binomial of its count
    and P(estimate in -gap) / P(magnitude in gap), and a drawn item is
    negative with f(-x) / (f(x) + f(-x)), both from ``law(x, upper)``, the
    signed law of ``_nct_fold``.  Every report field keeps its exact joint law."""
    count, (rank_a, v_a, _), f_a = 0, d.points[0], 0.0
    for rank, v, x in d.points[1:]:
        _, _, _, f_b, share = law(x, v <= 0.5)
        gap = math.ceil(rank) - math.floor(rank_a) - 1
        if gap > 0:
            count += _binomial(d.rng, gap, (f_b - f_a) / (v - v_a) if v > v_a else 0.0)
        if rank == math.floor(rank):
            count += d.rng.random() < share
        rank_a, v_a, f_a = rank, v, f_b
    return count


def _report(config: SimulationConfig, d, sizer: _Sizer,
            nonpositive=lambda: 0) -> SimulationReport:
    """Size, flag and summarize a run through ``sizer``, from its estimated
    effect sizes (magnitudes) ``d`` in ascending order; it reads the five
    quantile items and the replicates inside the flag bracket that its
    bisection tests.  The flags are counted first (``_underpower_count`` sizes
    the threshold and reads the sizer's edge), then the quantiles are read,
    then ``nonpositive()`` counts the negative estimates (an effect run draws
    its signs there): a lazily drawn ``d`` draws in this order."""
    r = config.replicates
    p_hat = _underpower_count(d, sizer, config) / r
    quantiles = _main_n_quantiles(d, sizer, config.power_target, config.sizing_mode)
    return SimulationReport(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / r), nonpositive(),
                            quantiles, dict(vars(config)))


def _run(config: SimulationConfig, sizer: _Sizer) -> SimulationReport:
    """The pipeline ``config.scenario`` names, sized through ``sizer``, made for its design."""
    if config.scenario == VARIANCE:
        # (df) S^2 / sigma^2 is chi-square on df = n - 1, or 2n - 2 pooled, and
        # the estimate delta / S is the standardized effect delta / sigma over
        # sqrt(chi-square / df), whatever the scale of sigma
        df = _pilot_df(config.pilot_n, config.pooled_pilot)
        standardized = config.effect / config.sigma

        def estimate(p: float) -> float:
            return standardized / math.sqrt(chisq_quantile(p, df) / df)

        def tail(x: float) -> float:
            # the estimate reaches x where the chi-square is at most df (delta / (sigma x))^2
            return chisq_cdf(df * (standardized / x) ** 2, df)

        return _report(config, _OrderStats(config.replicates, config.seed, estimate, tail), sizer)
    spread = sizer.design.spread(config.pilot_n)
    # the mean (two-sample: difference of means) is N(mu, g sigma^2 / n) and
    # independent of the pooled S^2, which is sigma^2 chi2(df) / df, so an
    # estimate is spread T, T noncentral t on df with ncp mu / (sigma spread);
    # with sigma known, T is normal, the noncentral t at df = inf, which takes
    # any finite ncp (an effect size that overflows is the sizer's error)
    if config.estimator == POOLED_SD and not config.effect / config.sigma < _MAX_NCP * spread:
        raise ValueError(
            f"effect {config.effect!r} over sigma {config.sigma!r} with pilot_n "
            f"{config.pilot_n!r} puts the pilot's t statistic past noncentrality "
            f"{_MAX_NCP:g}, the largest a {POOLED_SD} simulation takes")
    ncp = config.effect / config.sigma / spread
    df = math.inf if config.estimator == KNOWN_SIGMA else sizer.design.df(config.pilot_n)

    d = _OrderStats(config.replicates, config.seed, lambda v: spread * _nct_abs_isf(v, df, ncp),
                    lambda x: _nct_abs_sf(x / spread, df, ncp))
    return _report(config, d, sizer, lambda: _nonpositive(
        d, lambda x, upper: _nct_fold(x / spread, df, ncp, True, upper)))


def simulate_variance_pipeline(config: SimulationConfig) -> SimulationReport:
    """Pilot -> sample SD -> main-study size -> true power, per replicate.

    The pilot is a single normal sample of size pilot_n (two pooled groups of
    pilot_n each when ``pooled_pilot``); the main study is sized for the
    target power using the estimated SD and the planner's practically
    meaningful effect; the replicate is flagged when the design's true power
    (at the true sigma) is below the underpower threshold.
    """
    if config.scenario != VARIANCE:
        raise ConfigError(f"expected a '{VARIANCE}' scenario, got {config.scenario!r}")
    return _run(config, _Sizer(config.design()))


def simulate_effect_pipeline(config: SimulationConfig) -> SimulationReport:
    """Pilot -> estimated effect size -> main-study size -> true power.

    Two pilot groups of pilot_n each (one group for one-sample designs); the
    effect size estimate divides by the pooled sample SD, or by the known
    sigma under the ``known-sigma`` estimator.  Sizing uses the magnitude of
    the estimate (two-sided power is symmetric in its sign).  Replicates with
    a nonpositive estimate are tallied separately in the report; the headline
    fraction counts the power-based flags.
    """
    if config.scenario != EFFECT:
        raise ConfigError(f"expected an '{EFFECT}' scenario, got {config.scenario!r}")
    return _run(config, _Sizer(config.design()))
