"""Johnson scheme spectra: exact integer predictions against brute force.

The distance-d relation on r-subsets of [m] has integer eigenvalues given
by an alternating binomial sum; the degree-q commutation graph is the
union of the odd-distance relations.  This is what makes the exact theta
linear program possible.

Run:  python3 demos/07_johnson_scheme.py
"""

from fermitheta import dual_hahn, johnson_adjacency, verify_scheme_spectrum
from fermitheta.scheme import HahnTable

import numpy as np

# predicted table for subsets of size 2 in a 6-element ground set
print("eigenvalue table (m=6, r=2), rows d = 0..2, columns x = 0..2:")
print(HahnTable(6, 2).to_csv())

# the distance-1 relation is the triangular graph: spectrum {8, 2, -2}
w = np.linalg.eigvalsh(johnson_adjacency(6, 2, 1))
print("brute-force distance-1 spectrum:", sorted(set(np.round(w).astype(int))))
print("predicted:", [dual_hahn(6, 2, 1, x) for x in (0, 1, 2)])

# full verification: every spectrum against the closed-form multiplicities
# C(m, x) - C(m, x - 1) of the eigenspaces x <= m - r
for m, r in [(6, 2), (8, 3), (10, 4)]:
    report = verify_scheme_spectrum(m, r)
    print(f"\n(m={m}, r={r}): ok={report.ok}, eigenspace multiplicities",
          report.multiplicities)
