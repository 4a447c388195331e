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

A change to the inversion or to the masses under it that is meant to keep
its arithmetic must keep every bit here.  Each inversion starts from
``norm_quantile``, so every bit holds too where CPython's ``_statistics``
accelerator is missing and ``statistics.NormalDist`` gives the quantile.
To rewrite the value column at the frozen points after a deliberate change,
run

    PYTHONPATH=src python tests/test_quantile_bits.py
"""

import json
import os
import subprocess
import sys

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


if __name__ == "__main__":
    rows = [[name, args, value(name, args)] for name, args, _ in load()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
