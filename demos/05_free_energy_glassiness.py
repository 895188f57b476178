"""Quenched versus annealed free energy: fermions against classical spins.

A gap between ln E[Z] and E[ln Z] (per site) signals a glassy phase.  For
the degree-4 fermionic ensemble the gap is bounded by 4 beta^2 times the
commutation index and shrinks with system size; for the classical 4-spin
model the gap opens at a finite temperature and stays open.

Run:  python3 demos/05_free_energy_glassiness.py   (about a minute)
"""

import math

from fermitheta.lab import (
    classical_overlap_experiment,
    free_energy_experiment,
    glassiness_contrast,
)

# --- fermionic gaps sit far below the 4 beta^2 Delta bound --------------

rep = free_energy_experiment("syk", 12, 4, [0.5, 1.0, 2.0], 400, seed=1)
print("degree-4 fermions, n = 12:")
for row in rep.summary["per_beta"]:
    bound = 4 * row["beta"] ** 2 * rep.summary["delta_upper"]
    print(f"  beta={row['beta']}: gap = {row['gap']:.5f} +- {row['gap_se']:.5f}"
          f"   (bound {bound:.4f})")

# --- classical spins develop a persistent gap ----------------------------

rep = free_energy_experiment("classical", 16, 4, [0.5, 2.0], 200, seed=2)
print("\nclassical 4-spin model, n = 16:")
for row in rep.summary["per_beta"]:
    print(f"  beta={row['beta']}: gap = {row['gap']:.4f} +- {row['gap_se']:.4f}"
          f"   annealed ref = {row['annealed_reference']:.4f}")

# --- side-by-side trend ---------------------------------------------------

contrast = glassiness_contrast([8, 12, 16], 2.0, 200, seed=3)
print("\ngap trend at beta = 2:")
for fr, cr in zip(contrast.summary["syk"], contrast.summary["classical"]):
    print(f"  n={fr['n']:>2}: fermionic {fr['gap']:.5f}   classical {cr['gap']:.4f}")

# --- replica overlaps freeze only for the classical model ----------------

rep = classical_overlap_experiment(12, 4, [0.0, 0.5, 1.0, 1.5, 2.0], 64, seed=4)
print("\nclassical overlap second moment (n = 12):")
print("  glass threshold window:",
      f"[{rep.summary['glass_threshold_lower']:.3f}, {rep.summary['glass_threshold']:.3f}]")
for row in rep.summary["rows"]:
    print(f"  beta={row['beta']}: <R^2> = {row['mean_r2']:.4f}")
print("  ( <R^2> = 1/n =", round(1 / 12, 4), "at beta = 0 )")
