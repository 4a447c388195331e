"""The three quantile inversions compared bit for bit with a frozen grid.

``golden/quantile_bits.json`` holds rows ``[name, args, value]``, with every
argument and the value as ``float.hex`` strings, at 195 points:

- ``chisq_quantile(p, df)`` at 60 of the ranks that the variance cells of
  the seed-7 grid-warm benchmark read;
- ``t_quantile(1 - alpha / 2, 2 (n - 1))`` at alpha 0.05, 1e-3 and 1e-6 for
  25 group sizes n from 2 to 700;
- ``_nct_abs_isf(v, df, ncp)`` at 50 of the quantile items that the effect
  cells of the same benchmark read;
- ten far tails where ``_invert`` bisects: the chi-square at p near 1e-298
  and df 1039, the t at p 1.82e-4 and df 280 to 1310, and |T| at
  v = 1 - 1e-14.

Beside the bits, it checks the loop's contract: each quantile's ``law(x)``
returns (lower tail, upper tail, x f(x)), ``_invert`` computes the one Newton
step from its tail and x f(x) only when it takes one (exact on a mass that is
a power of x), within a ceiling of evaluations over the golden rows, and
bisects past a step that fails.

A change to the inversion or to the masses under it that is meant to keep
its arithmetic must keep every bit here.  Each inversion starts from
``norm_quantile``, so every bit holds too where CPython's ``_statistics``
accelerator is missing and ``statistics.NormalDist`` gives the quantile.
To rewrite the value column at the frozen points after a deliberate change,
run

    PYTHONPATH=src python tests/test_quantile_bits.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

from pilotplan import distributions

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "quantile_bits.json")
NAMES = ("chisq_quantile", "t_quantile", "_nct_abs_isf")


def load() -> list:
    with open(GOLDEN) as fh:
        return json.load(fh)


def value(name: str, args: list) -> str:
    return getattr(distributions, name)(*map(float.fromhex, args)).hex()


def test_quantile_bits_match_golden():
    rows = load()
    assert len(rows) == 195
    assert {name for name, _, _ in rows} == set(NAMES)
    for name, args, want in rows:
        assert value(name, args) == want, (name, [float.fromhex(a) for a in args])


def test_statistics_fallback_keeps_every_bit():
    # a fresh process with the accelerator blocked takes the quantile from
    # statistics.NormalDist's pure-Python AS241, which must give the bits of
    # the C one at log-spaced p from 0.5 down to 1e-300, their mirrors, and
    # 1 - 2^-53, and keep the golden above
    assert distributions._normal_dist_inv_cdf.__module__ == "_statistics"
    ps = [0.5 * 10.0 ** (-299.7 * i / 1999) for i in range(2000)]
    ps += [1.0 - p for p in ps if 1.0 - p < 1.0] + [1.0 - 2.0 ** -53]
    code = ("import json, sys\n"
            "sys.modules['_statistics'] = None\n"
            "from pilotplan.distributions import _normal_dist_inv_cdf, norm_quantile\n"
            "assert _normal_dist_inv_cdf.__module__ == 'pilotplan.distributions'\n"
            "import test_quantile_bits\n"
            "test_quantile_bits.test_quantile_bits_match_golden()\n"
            "print(json.dumps([norm_quantile(float.fromhex(p)).hex() "
            "for p in json.load(sys.stdin)]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(HERE, os.pardir, "src"), HERE, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps([p.hex() for p in ps]),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert len(got) == len(ps) > 2100
    assert [p for p, g in zip(ps, got) if g != distributions.norm_quantile(p).hex()] == []


def _count_steps(monkeypatch) -> dict:
    """Counts, for the inversions run after this call: ``_invert``'s
    evaluations of ``law(x)``; its Newton steps, the ``log`` calls it
    makes outside them; every ``lgamma`` the module calls; and the
    ``lgamma`` and ``log1p`` calls ``_invert`` makes outside them."""
    counts = dict.fromkeys(("evals", "steps", "lgamma", "outside"), 0)
    invert, where = distributions._invert, [None]

    class CountedMath:
        def __getattr__(self, name):
            fn = getattr(math, name)
            if name not in ("lgamma", "log", "log1p"):
                return fn

            def counted(*args):
                counts["lgamma"] += name == "lgamma"
                if where[0] == "invert":
                    counts["steps" if name == "log" else "outside"] += 1
                return fn(*args)
            return counted

    def counted_invert(law, *args):
        def counted_law(x):
            counts["evals"] += 1
            where[0] = "law"
            try:
                return law(x)
            finally:
                where[0] = "invert"
        where[0] = "invert"
        try:
            return invert(counted_law, *args)
        finally:
            where[0] = None

    monkeypatch.setattr(distributions, "math", CountedMath())
    monkeypatch.setattr(distributions, "_invert", counted_invert)
    return counts


def test_t_step_reads_the_mass_factor(monkeypatch):
    # the critical values the sizer reads, t_quantile(alpha / 2, 2 (n - 1)) at
    # alpha 0.05: each evaluation past the first is one Newton step, and a
    # step divides by the factor x f(x) its evaluation returned, so _invert
    # calls no lgamma or log1p.  The Cornish-Fisher start meets the tolerance
    # at once in most calls (644 of the 698 past df 2, whose quantile is a
    # closed form), which then take no step at all
    counts = _count_steps(monkeypatch)
    at_once = steps = 0
    for n in range(2, 701):
        counts.update(evals=0, steps=0, outside=0)
        distributions.t_quantile(0.025, 2.0 * (n - 1))
        assert counts["steps"] == max(counts["evals"] - 1, 0), n
        assert counts["outside"] == 0, n
        at_once += counts["evals"] == 1
        steps += counts["steps"]
    assert at_once > 600 and steps > 0


def test_chisq_step_reads_the_gamma_factor(monkeypatch):
    # at the golden chi-square points each evaluation past the first is one
    # Newton step, also in the far tails where the loop bisects, and a step
    # reads the factor x^a e^-x / Gamma(a) its incomplete gamma returned, so
    # _invert calls no lgamma or log1p: each evaluation calls lgamma once,
    # and no start here calls it
    counts = _count_steps(monkeypatch)
    rows = [row for row in load() if row[0] == "chisq_quantile"]
    assert len(rows) == 62
    evals = 0
    for name, args, want in rows:
        counts.update(evals=0, steps=0, lgamma=0, outside=0)
        assert value(name, args) == want
        assert counts["steps"] == counts["evals"] - 1, args
        assert counts["lgamma"] == counts["evals"] and counts["outside"] == 0, args
        evals += counts["evals"]
    assert evals > len(rows)


def test_abs_t_step_reads_the_law(monkeypatch):
    # at the golden |T| points a step divides by the t f(t) of |T| its
    # evaluation of the law returned, so _invert calls no lgamma or log1p
    counts = _count_steps(monkeypatch)
    rows = [row for row in load() if row[0] == "_nct_abs_isf"]
    assert len(rows) == 55
    for name, args, want in rows:
        counts.update(evals=0, steps=0, outside=0)
        assert value(name, args) == want
        assert counts["steps"] == counts["evals"] - 1 and counts["outside"] == 0, args
    assert counts["lgamma"] > 0


def test_golden_rows_take_at_most_their_evaluations(monkeypatch):
    # a step with a wrong sign or factor falls back to bisection, which a
    # regenerated bit golden would hold; the evaluations over its rows show it
    counts = _count_steps(monkeypatch)
    evals = dict.fromkeys(NAMES, 0)
    for name, args, _ in load():
        counts["evals"] = 0
        value(name, args)
        evals[name] += counts["evals"]
    assert evals["chisq_quantile"] <= 195
    assert evals["t_quantile"] <= 130
    assert evals["_nct_abs_isf"] <= 198


@pytest.mark.parametrize("k", [3.0, -3.0], ids=["rising", "falling"])
def test_one_step_is_exact_on_a_power(k):
    # log x^k is linear in log x, so from x = 1 one Newton step on the mass
    # x^k, with x f(x) = |k| x^k, lands on 5^(1/3), where x^3 meets 5 and
    # x^-3 meets 1/5; a step of the wrong sign or size would not.  The fake
    # law puts the mass in both tail slots, and _invert reads the one asked
    seen = []

    def law(x):
        seen.append(x)
        return x ** k, x ** k, abs(k) * x ** k

    x = distributions._invert(law, 1.0, 5.0 ** (k / 3.0), k < 0.0, "test")
    assert len(seen) == 2 and x == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-15)


@pytest.mark.parametrize("rising", [True, False])
@pytest.mark.parametrize("xf", [0.0, math.nan, 5e-324],
                         ids=["ZeroDivisionError", "nan", "subnormal"])
def test_invert_bisects_past_a_failed_step(rising, xf):
    # x^3 meets 5, and x^-3 meets 1/5, at x = 5^(1/3); with x f(x) of 0
    # (the step divides by zero), NaN (a NaN step) or subnormal (an infinite
    # one) no step is taken, so the bracket is bisected down to the root
    seen = []

    def law(x):
        seen.append(x)
        mass = x ** 3 if rising else x ** -3
        return mass, mass, xf

    x = distributions._invert(law, 1.0, 5.0 if rising else 0.2, not rising, "test")
    assert x == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-10)
    assert 10 < len(seen) < distributions._MAX_NEWTON


@pytest.mark.parametrize("rising", [True, False])
def test_invert_bisects_past_a_zero_mass(rising):
    # from a start where x^3 or x^-3 underflows to 0, log(mass / target) is a
    # domain error: no step is taken until the bracket reaches a positive mass
    def law(x):
        mass = x ** 3 if rising else x ** -3
        return mass, mass, 3.0 * mass

    start = 1e-110 if rising else 1e110
    assert law(start)[0] == 0.0
    x = distributions._invert(law, start, 5.0 if rising else 0.2, not rising, "test")
    assert x == pytest.approx(5.0 ** (1.0 / 3.0), rel=1e-10)


def test_mass_errors_propagate():
    # the mass's own error is raised by law(x), outside the step
    with pytest.raises(ValueError, match="degrees of freedom 1.7e[+]308 are too large"):
        distributions.chisq_quantile(0.3, 1.7e308)


if __name__ == "__main__":
    rows = [[name, args, value(name, args)] for name, args, _ in load()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
