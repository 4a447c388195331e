"""Writes ``golden/factors.json``: the factors that scale the incomplete
functions, in 30-digit mpmath, at a fixed grid of points.

    python tests/make_factor_golden.py

needs mpmath, which the tests themselves never import.  Each row is
``[kind, args, value]``, every argument a ``float.hex`` string and the value
a decimal string:

- ``t``: x f(x), f the Student t density on df, for df from 0.1 to 1e6 and
  x from 1e-3 to 1e3; ``_nct_fold(x, df, 0.0)`` returns twice it, for |T|;
- ``beta``: x^a y^b / B(a, b), y = 1 - x, for a and b from 1e-2 to 1e4, at
  the mode of the beta law and 1 and 3 of its standard deviations either
  side, and at 1e-3, 1/4 and 3/4; the smaller of x and y is the argument the
  kernel reads, so the value is taken from it alone;
- ``gamma``: x^a e^-x / Gamma(a), for a from 1e-2 to 1e8 at x = a + k sqrt(a),
  k from -3 to 3;
- ``stirling``: log Gamma(z) less Stirling's (z - 1/2) log z - z + log(2 pi)
  / 2, the correction ``_stirling_tail`` returns, for z from 1 to 1e15,
  densely over 10 to 45, where it switches from lgamma to the series at 40;
- ``log_beta``: log B(a, b), for a from 1/2 to 1e3 and b from 2 to 1e9, on
  either side of that switch.

Factor rows whose value lies under 1e-280 are left out: there the factor
has underflowed or is near it, and the masses read it as 0.
"""

import json
import os

import mpmath as mp

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "factors.json")
FLOOR = mp.mpf("1e-280")


def t_rows():
    for df in (0.1, 0.3, 1.0, 2.5, 7.0, 30.0, 100.0, 1e3, 1e4, 1e5, 8e5, 1e6):
        for x in (1e-3, 0.1, 0.7, 1.96, 5.0, 30.0, 1e3):
            v, n = mp.mpf(x), mp.mpf(df)
            yield "t", (x, df), v * mp.exp(mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2)
                                           - mp.log(n * mp.pi) / 2
                                           - (n + 1) / 2 * mp.log1p(v * v / n))


def beta_rows():
    params = (0.01, 0.1, 0.5, 1.0, 3.0, 30.0, 300.0, 3e3, 1e4)
    for a in params:
        for b in params:
            pa, pb = mp.mpf(a), mp.mpf(b)
            mode = pa / (pa + pb)
            sd = mp.sqrt(pa * pb / ((pa + pb) ** 2 * (pa + pb + 1)))
            points = [mode + k * sd for k in (-3, -1, 0, 1, 3)] + [mp.mpf("1e-3"), 0.25, 0.75]
            for p in points:
                if not 0 < p < 1:
                    continue
                if p < 0.5:
                    x = float(p)
                    y, u = 1.0 - x, mp.mpf(x)
                else:
                    y = float(1 - p)
                    x, u = 1.0 - y, 1 - mp.mpf(y)
                if not 0.0 < x < 1.0 or y <= 0.0:
                    continue
                yield "beta", (a, b, x, y), mp.exp(pa * mp.log(u) + pb * mp.log1p(-u)
                                                   - mp.log(mp.beta(pa, pb)))


def gamma_rows():
    for a in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        for k in (-3.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            x = a + k * a ** 0.5
            if x > 0.0:
                pa, px = mp.mpf(a), mp.mpf(x)
                yield "gamma", (a, x), mp.exp(pa * mp.log(px) - px - mp.loggamma(pa))


def stirling_rows():
    dense = [10.0 + 0.5 * i for i in range(71)] + [39.9, 40.1]
    for z in (1.0, 1.5, 2.0, 3.0, 5.0, 7.5, *dense, 50.0, 100.0, 816.0,
              *(10.0 ** e for e in range(3, 16))):
        v = mp.mpf(z)
        form = (v - 0.5) * mp.log(v) - v + mp.log(2 * mp.pi) / 2
        yield "stirling", (z,), mp.loggamma(v) - form


def log_beta_rows():
    for a in (0.5, 1.0, 2.5, 31.5, 1e3):
        for b in (2.0, 39.0, 40.0, 41.0, 100.0, 816.0, 1e3, 1e4, 1e7, 1e9):
            yield "log_beta", (a, b), mp.log(mp.beta(mp.mpf(a), mp.mpf(b)))


def main():
    mp.mp.dps = 40
    rows, seen = [], set()
    for kind, args, value in (*t_rows(), *beta_rows(), *gamma_rows(),
                              *stirling_rows(), *log_beta_rows()):
        key = (kind, args)
        # a log or a correction takes any sign; only a factor can underflow
        if (kind in ("stirling", "log_beta") or value >= FLOOR) and key not in seen:
            seen.add(key)
            rows.append([kind, [float(v).hex() for v in args], mp.nstr(value, 30)])
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"{len(rows)} rows written to {GOLDEN}")


if __name__ == "__main__":
    main()
