"""Write ``reference_rho.csv``: the rate table the ``rate_table`` workload
checks its ``rho-table`` output against.

Covers every (d, ell, n) the workload can draw: d = 3..8, ell = 8..80 and
n = 1..3, computed serially with one BLAS thread.  Run from the repository
root after a change that is meant to alter the rate quantities:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import csv
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from spheresos.rho import rate_table  # noqa: E402
from workloads import ELL_MAX, ELL_MIN, RATE_D, RATE_N, REFERENCE_CSV  # noqa: E402

COLUMNS = ["d", "ell", "n", "rho2", "rho4", "rho_tilde", "rho_bound"]


def main():
    rows = rate_table(list(RATE_D), list(range(ELL_MIN, ELL_MAX + 1)), list(RATE_N))
    with open(REFERENCE_CSV, "w") as fh:
        fh.write("# rate_table(d=3..8, ell=8..80, n=1..3), serial; see make_reference.py\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for r in rows:
            writer.writerow(["" if r[c] is None else repr(r[c]) for c in COLUMNS])


if __name__ == "__main__":
    main()
