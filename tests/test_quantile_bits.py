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
its arithmetic must keep every bit here.  To rewrite the value column at the
frozen points after a deliberate change, run

    PYTHONPATH=src python tests/test_quantile_bits.py
"""

import json
import os

from pilotplan import distributions

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "quantile_bits.json")
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


if __name__ == "__main__":
    rows = [[name, args, value(name, args)] for name, args, _ in load()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
