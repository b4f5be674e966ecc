"""Write tests/data/range_reference.json, the reference ranges of
test_certificate.test_witness_bounds_contain_multistart_range.

For each of the RANGE_INPUTS seeded inputs of each family in RANGE_FAMILIES
it stores sup_norm_sphere's max_est and min_est at RANGE_RESTARTS restarts,
with the input's seed as the search seed.  Run from the repository root
(about a minute on one core):

    python tests/make_range_reference.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from spheresos.poly import sup_norm_sphere  # noqa: E402
from test_certificate import (  # noqa: E402
    RANGE_FAMILIES, RANGE_INPUTS, RANGE_REFERENCE, RANGE_RESTARTS, range_input)


def main():
    families = {}
    for family in sorted(RANGE_FAMILIES):
        ests = [sup_norm_sphere(range_input(family, seed), restarts=RANGE_RESTARTS, seed=seed)
                for seed in range(RANGE_INPUTS)]
        families[family] = {"max": [e.max_est for e in ests], "min": [e.min_est for e in ests]}
    with open(RANGE_REFERENCE, "w") as fh:
        json.dump({"restarts": RANGE_RESTARTS, "families": families}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
