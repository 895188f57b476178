"""Ansatz-size thresholds from energy concentration plus union bounds.

Any fixed state reaches energy t*sqrt(n) on the random degree-q fermionic
Hamiltonian with probability at most exp(-t^2 n / (2 sigma^2)), where
sigma^2 is the commutation index (upper-bounded exactly via theta).  A
family of exp(B) states therefore fails with high probability unless B
exceeds the concentration exponent: counting circuits, matrix product
states, neural networks, or a Gaussian-state net turns that into explicit
size thresholds.  Spin Hamiltonians admit no such obstruction: a product
state always achieves a 3^-k fraction of the top eigenvalue.

Run:  python3 demos/06_circuit_lower_bounds.py
"""

import numpy as np

from fermitheta import (
    ansatz_bounds_report,
    depolarized_energy_identity,
    enumerate_set,
    h_comm_count,
    lambda_max_lower_bound,
    sample_spectra,
)
from fermitheta.algebra import pauli_matrix
from fermitheta.kernel import RandomStream, gaussian_stream
from math import comb

# --- thresholds grow like t^2 n^{q/2+1} / log n --------------------------

print(f"{'n':>5} {'t':>5} {'gates':>9} {'mps chi':>8} {'nn weights':>11}  gaussian ruled out")
for n in (50, 100, 200):
    for t in (0.25, 0.5):
        rep = ansatz_bounds_report(n, 4, t, 64, 1e-3)
        print(f"{n:>5} {t:>5} {rep.circuit_gate_threshold:>9} {rep.mps_bond_threshold:>8} "
              f"{rep.nn_weight_threshold:>11}  {rep.gaussian_states_ruled_out}")

# --- guaranteed maximal eigenvalue from the commutation degree -----------

n, q = 16, 4
m = comb(n, q)
hc = h_comm_count("majorana", n, q)
res = lambda_max_lower_bound(m, hc, delta_upper=28 / m)
print(f"\nn={n}, q={q}: commutation degree {hc}, "
      f"guaranteed E[lam_max] >= {res.bound:.4f} at beta_max = {res.beta_max:.3f}")
emp = np.mean([w[-1] for w in sample_spectra("syk", n, q, 9, range(20))])
print(f"empirical mean lam_max over 20 draws: {emp:.4f}")

# --- spin Hamiltonians always have good product states -------------------

ops = enumerate_set("pauli", 4, 2)
coeffs = gaussian_stream(RandomStream(11, 0), len(ops))
terms = list(zip(coeffs, ops.members))
H = sum(c * pauli_matrix(P) for c, P in terms)
w, U = np.linalg.eigh(H)
lhs, rhs = depolarized_energy_identity(terms, U[:, -1])
print(f"\nrandom 2-local spin model: lam_max = {w[-1]:.4f}; depolarized top "
      f"eigenvector certifies a product ensemble at {lhs:.4f} = lam_max / 9")
