"""Tour of the operator algebra: Pauli strings, Majorana monomials, and
why their commutation structures differ.

Run:  python3 demos/01_operator_algebra.py
"""

import numpy as np

from fermitheta import (
    MajoranaMonomial,
    PauliString,
    enumerate_set,
    jordan_wigner_majorana,
    majorana_anticommutes,
    majorana_to_pauli,
    multiply_paulis,
    pauli_anticommutes,
)
from fermitheta.algebra import pauli_matrix

# --- Pauli strings are bit masks plus a quarter phase ------------------

X = PauliString.from_label("X")
Z = PauliString.from_label("Z")
print("X Z =", multiply_paulis(X, Z))          # -i*Y
print("X, Z anticommute:", pauli_anticommutes(X, Z))

# Two anticommuting sites cancel: XX vs ZZ commute overall.
print("XX, ZZ anticommute:", pauli_anticommutes(
    PauliString.from_label("XX"), PauliString.from_label("ZZ")))

# --- Majorana generators via Jordan-Wigner ------------------------------

n = 6
print("\ngenerators on", n, "modes:")
for j in (1, 2, 3):
    print(f"  gamma_{j} ->", jordan_wigner_majorana(j, n))

# Monomials anticommute iff (degree product - overlap) is odd.
a = MajoranaMonomial(n, (1, 2))
b = MajoranaMonomial(n, (2, 3))
c = MajoranaMonomial(n, (3, 4))
print("\n{1,2} vs {2,3}: anticommute =", majorana_anticommutes(a, b))
print("{1,2} vs {3,4}: anticommute =", majorana_anticommutes(a, c))

# Hermitized monomials square to the identity (dense matrix of the
# Jordan-Wigner image, which carries the Hermitizing phase i**(q/2)).
M = pauli_matrix(majorana_to_pauli(MajoranaMonomial(n, (1, 2, 3, 4))))
print("\nhermitized quartic: ||M - M^dag|| =", np.abs(M - M.conj().T).max(),
      " ||M^2 - I|| =", np.abs(M @ M - np.eye(M.shape[0])).max())

# --- Full families ------------------------------------------------------

for kind, loc in (("majorana", 2), ("pauli", 1)):
    ops = enumerate_set(kind, 4, loc)
    print(f"\n|{kind} family| at n=4, locality {loc}:", len(ops))
print("\nweight-2 Paulis on 4 qubits:", len(enumerate_set("pauli", 4, 2)), "= C(4,2)*9")
