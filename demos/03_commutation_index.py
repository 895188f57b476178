"""Bracketing the commutation index from both sides.

The commutation index of a family {A_i} is the largest mean squared
expectation any single pure state can achieve.  Upper bounds come from
theta of the commutation graph over the family size; lower bounds come
from commuting subfamilies, whose simultaneous eigenstates reach them; a
monotone see-saw ascent closes the gap numerically.

Run:  python3 demos/03_commutation_index.py
"""

import numpy as np

from fermitheta import (
    best_commuting_family,
    commuting_majorana_family,
    enumerate_set,
    index_estimate,
    index_pauli_product,
    index_lower_family,
    index_seesaw,
    joint_eigenstate,
    pauli_index_weak_bound,
)
from fermitheta.algebra import term_bank
from fermitheta.graphs import extended_hamming_family
from fermitheta.kernel import RandomStream, random_state

# --- Majorana families: the sandwich closes exactly ---------------------

for n, q in [(6, 2), (8, 4)]:
    est = index_estimate("majorana", n, q, seed=7)
    print(f"degree-{q} on {n} modes: lower = {est.lower}, upper = {est.upper}, "
          f"see-saw = {est.heuristic:.9f}, exact = {est.exact}")

# The (8, 4) closure needs more than the 6 pair-product operators: the 14
# extended-Hamming quadruples are pairwise commuting and match theta.
print("\npair products at (8,4):", len(commuting_majorana_family(8, 4)), "members")
print("Hamming quadruples:    ", len(extended_hamming_family()), "members")
# a joint eigenstate of the commuting family reaches the exact family bound
psi, _ = joint_eigenstate(best_commuting_family(8, 4))
witness = float(np.mean(term_bank("majorana", 8, 4).expectations(psi) ** 2))
print("family bound:", index_lower_family(8, 4), "  joint-eigenstate witness:",
      round(witness, 12))

# --- Pauli families: the index is size-independent ----------------------

for n, k in [(2, 1), (3, 2), (5, 3)]:
    psi = [random_state(RandomStream(5, j), 2) for j in range(n)]
    print(f"\nweight-{k} Paulis on {n} qubits, random product state:",
          f"{index_pauli_product(n, k, psi):.15f} (= 3^-{k} = {3.0**-k:.15f})")
    print(f"   unconditional bound (2/3)^{k} =", float(pauli_index_weak_bound(n, k)))

# see-saw on the triangle {X, Y, Z}: best possible is 1/3 of the Bloch ball
xyz = enumerate_set("pauli", 1, 1)
print("\nsee-saw on {X, Y, Z}:", index_seesaw(xyz, seed=3).value, "-> 1/3")
