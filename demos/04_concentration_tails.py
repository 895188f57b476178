"""Concentration of disorder-averaged quantities, tested empirically.

Because the degree-4 commutation index decays with system size, spectral
and thermal quantities of the random fermionic Hamiltonian concentrate
sharply.  Each experiment draws thousands of disorder samples, measures
exceedance frequencies, and compares them against the closed-form
sub-Gaussian curves evaluated at the rigorous index upper bound.

Run:  python3 demos/04_concentration_tails.py
"""

from fermitheta.lab import mgf_check, tail_experiment, variance_identity_experiment

PARAMS = {"n": 10, "q": 4, "beta": 1.0, "tau": 0.5}
SAMPLES = 1000

for quantity in ("lambda_max", "fixed_state_energy", "obs_expectation",
                 "thermal_energy", "two_point"):
    rep = tail_experiment(quantity, PARAMS, SAMPLES, seed=1)
    worst = max(
        (row["frequency"] / row["bound"] for row in rep.summary["grid"] if row["bound"] > 0),
        default=0.0,
    )
    status = "ok" if rep.all_passed else "VIOLATED"
    print(f"{quantity:>20}: {len(rep.summary['grid'])} grid points, "
          f"worst freq/bound = {worst:.3f}  [{status}]")

# the energy of a fixed state is exactly Gaussian across the disorder
rep = variance_identity_experiment("random", 10, 4, SAMPLES, seed=2)
print(f"\nfixed-state energy: empirical variance {rep.summary['empirical_variance']:.6f} "
      f"vs exact {rep.summary['exact_variance']:.6f} (z = {rep.summary['z']:.2f})")

# the max-eigenvalue moment generating function sits under exp(4 D t^2)
rep = mgf_check(10, 4, SAMPLES, seed=3)
for row in rep.summary["rows"]:
    print(f"MGF t={row['t']}: {row['mgf']:.4f} <= bound {row['bound']:.4f}")
