"""The noncentral-t sweep's values compared bit for bit with a frozen grid.

``golden/nct_sweep_bits.json`` holds ``_nct_abs_sf(c, df, ncp)`` and
``nct_cdf(c, df, ncp)`` as ``float.hex`` strings at 180 points, each row
``[df, c, ncp, abs_sf, cdf]`` with c in hex too, so the pin does not depend on
``t_quantile``:

- df 1, 2, 7.5, 62, 1e3 and 1e6;
- c at the two-sided alpha 0.05 and 1e-6 critical values, and at 3 and 1e4
  times each, as ``t_quantile`` gave them when the grid was frozen, which
  puts 40 of the points in the sweep's upper-tail branch (``w < _FAR``);
- ncp 1e-3, 0.1, 2.8, 30 and 1e3.

Both columns come from the one sweep, ``_mixture_sum``, as ``_nct_fold``
sums it: ``_nct_abs_sf`` reads its Poisson half, ``nct_cdf`` both halves with
the signs.  A rewrite of the sweep that is meant to keep its arithmetic must
keep every bit here.  To rewrite the two value columns at the frozen points
after a deliberate change, run

    PYTHONPATH=src python tests/test_sweep_bits.py
"""

import json
import os

from pilotplan import distributions
from pilotplan.distributions import _nct_abs_sf, nct_cdf

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "nct_sweep_bits.json")


def load() -> list:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_sweep_bits_match_golden():
    rows = load()
    assert len(rows) == 180
    far = 0
    for df, c_hex, ncp, abs_hex, cdf_hex in rows:
        c = float.fromhex(c_hex)
        far += df / (c * c + df) < distributions._FAR
        assert _nct_abs_sf(c, df, ncp).hex() == abs_hex, (df, c, ncp)
        assert nct_cdf(c, df, ncp).hex() == cdf_hex, (df, c, ncp)
    # both branches of the sweep are pinned
    assert 0 < far < len(rows)


if __name__ == "__main__":
    rows = [[df, c_hex, ncp, _nct_abs_sf(float.fromhex(c_hex), df, ncp).hex(),
             nct_cdf(float.fromhex(c_hex), df, ncp).hex()] for df, c_hex, ncp, _, _ in load()]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
