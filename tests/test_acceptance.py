"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.  Heavier Monte Carlo
criteria pin their sample counts and tolerances here; nothing is deferred
to later calibration.
"""

import math
import time
from fractions import Fraction
from math import comb, log

import numpy as np
import pytest

from fermitheta.algebra import PauliString, enumerate_set
from fermitheta.graphs import (
    best_commuting_family,
    commutation_graph,
    joint_eigenstate,
    ternary_tree_paulis,
)
from fermitheta.index import (
    index_estimate,
    index_lower_family,
    index_pauli_product,
    index_seesaw,
)
from fermitheta.kernel import RandomStream, gaussian_stream, random_state
from fermitheta.lab import (
    free_energy_experiment,
    glassiness_contrast,
    gradcheck_logZ,
    mgf_check,
    tail_experiment,
    variance_identity_experiment,
)
from fermitheta.models import ansatz_bounds_report, depolarized_energy_identity, term_bank
from fermitheta.scheme import verify_scheme_spectrum
from fermitheta.theta import round_half_up, theta_johnson_lp, theta_sdp


def _announce(k: int, message: str):
    print(f"\n[criterion {k:02d}] PASS: {message}")


def test_criterion_01_theta_table_reproduction():
    # golden theta values frozen from the exact LP; < 1 s per cell.
    # The (28, 8) cell is 61201855/50279 = 1217.24, strictly above the
    # half-binomial 1001 = C(14, 4).
    expected = {
        (6, 2): Fraction(3),
        (8, 4): Fraction(14),
        (10, 4): Fraction(102, 7),
        (12, 4): Fraction(15),
        (14, 4): Fraction(21),
        (12, 6): Fraction(52),
        (14, 6): Fraction(11869, 207),
        (20, 10): Fraction(22828, 29),
        (26, 6): Fraction(286),
        (28, 8): Fraction(61201855, 50279),
    }
    two_dp = {(10, 4): 14.57, (14, 6): 57.34, (20, 10): 787.17, (28, 8): 1217.24}
    for (n, q), value in expected.items():
        res = theta_johnson_lp(n, q)
        assert res.value == value, (n, q, res.value)
        assert res.wall_time < 1.0, f"cell ({n},{q}) took {res.wall_time:.2f}s"
        if (n, q) in two_dp:
            assert abs(round_half_up(res.value) - two_dp[(n, q)]) <= 0.005
    _announce(1, f"{len(expected)} table cells reproduced exactly, all under 1 s")


def test_criterion_02_binomial_equality_regime():
    # (n, q) cells where theta equals C(n/2, q/2) exactly
    equality_rows = (
        [(n, 2) for n in range(2, 41, 2)]
        + [(4, 4), (6, 4)]
        + [(n, 4) for n in range(12, 41, 2)]
        + [(6, 6), (8, 6)]
        + [(n, 6) for n in range(26, 41, 2)]
        + [(8, 8), (10, 8), (12, 8), (32, 8)]
        + [(10, 10), (12, 10), (14, 10)]
    )
    for n, q in equality_rows:
        value = theta_johnson_lp(n, q).value
        assert value == comb(n // 2, q // 2), (n, q, value)
    _announce(2, f"theta == C(n/2, q/2) exactly on {len(equality_rows)} table rows")


def test_criterion_03_lp_sdp_cross_validation():
    t0 = time.perf_counter()
    for n, q in [(6, 2), (8, 2), (8, 4)]:
        lp = float(theta_johnson_lp(n, q).value)
        sdp = theta_sdp(commutation_graph(enumerate_set("majorana", n, q))).value
        assert abs(sdp - lp) <= 1e-3 * lp, (n, q, sdp, lp)
    c5 = np.zeros((5, 5))
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = 1
    assert abs(theta_sdp(c5).value - math.sqrt(5)) <= 1e-4
    k3 = 1.0 - np.eye(3)
    assert abs(theta_sdp(k3).value - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(3, f"SDP matches exact LP on 3 graphs; C5 and K3 analytic ({elapsed:.1f}s)")


def test_criterion_04_scheme_spectra():
    checked = 0
    for m in range(2, 11):
        for r in range(1, min(4, m) + 1):
            report = verify_scheme_spectrum(m, r)
            assert report.ok, (m, r, report.notes)
            checked += 1
    _announce(4, f"integer eigenvalue multisets match brute force for {checked} (m, r) pairs")


def test_criterion_05_pauli_index():
    for n, k in [(2, 1), (3, 2), (5, 3)]:
        for trial in range(20):
            state = [random_state(RandomStream(1000 + trial, j), 2) for j in range(n)]
            value = index_pauli_product(n, k, state)
            assert abs(value - 3.0 ** (-k)) <= 1e-12, (n, k, trial, value)
    ops = enumerate_set("pauli", 4, 2)
    sdp = theta_sdp(commutation_graph(ops)).value
    assert abs(sdp / 54 - 1 / 9) <= 1e-3
    _announce(5, "product states give exactly 3^-k; theta(P^4_2)/54 = 1/9 within 1e-3")


def test_criterion_06_ternary_tree():
    from fermitheta.algebra import pauli_anticommutes

    for k in (1, 2, 3):
        fam = ternary_tree_paulis(k)
        assert len(fam) == 3**k
        assert fam.n == (3**k - 1) // 2
        assert all(p.weight <= k for p in fam.members)
        for i, a in enumerate(fam.members):
            for b in fam.members[i + 1 :]:
                assert pauli_anticommutes(a, b)
    _announce(6, "3^k mutually anticommuting weight-<=k Paulis for k in {1,2,3}")


def test_criterion_07_sandwich_closure():
    for n, q in [(6, 2), (8, 4)]:
        est = index_estimate("majorana", n, q, seed=7)
        assert est.upper == Fraction(1, 5), (n, q, est.upper)
        lower = index_lower_family(n, q)
        assert lower == Fraction(1, 5), (n, q, lower)
        psi, _ = joint_eigenstate(best_commuting_family(n, q))
        witness = float(np.mean(term_bank("majorana", n, q).expectations(psi) ** 2))
        assert witness >= 0.2 - 1e-9
        seesaw = index_seesaw(enumerate_set("majorana", n, q), seed=7)
        assert abs(seesaw.value - 0.2) <= 1e-6, (n, q, seesaw.value)
    _announce(7, "lower = upper = 1/5 exactly at (6,2) and (8,4); see-saw within 1e-6")


def test_criterion_08_gradient_check():
    for beta in (0.5, 1.0):
        err = gradcheck_logZ(8, 4, beta, seed=2).summary["max_rel_error"]
        assert err <= 1e-5, (beta, err)
    _announce(8, "analytic log-partition gradient matches finite differences to 1e-5")


def test_criterion_09_variance_identity():
    for spec in ("stabilized", "random"):
        rep = variance_identity_experiment(spec, 8, 4, 2000, seed=21)
        z = rep.summary["z"]
        assert abs(z) <= 4.0, (spec, z)
        ks = next(v for v in rep.verdicts if v.name == "gaussian_ks")
        assert ks.passed, ks.details
    _announce(9, "variance z-scores within 4 SE and KS Gaussianity at the 1% level")


def test_criterion_10_free_energy_bounds():
    rep = free_energy_experiment("syk", 12, 4, [0.5, 1.0, 2.0], 500, seed=31)
    assert rep.all_passed, [(v.name, v.details) for v in rep.verdicts if not v.passed]
    # single-coupling analytic case against Gauss-Hermite quadrature
    single = free_energy_experiment("syk", 4, 4, [1.0], 120_000, seed=32)
    row = single.summary["per_beta"][0]
    err = abs(row["quenched"] - row["quenched_quadrature"])
    assert err <= 1e-3 + 4 * row["quenched_se"], (err, row["quenched_se"])
    lnz = np.asarray(single.records["ln_z"])[:, 0]
    bank = term_bank("majorana", 4, 4)
    for i in (0, 999, 77_777):
        g = gaussian_stream(RandomStream(32, i), len(bank))[0]
        direct = math.log(4) + math.log(math.cosh(2.0 * g))
        assert abs(lnz[i] - direct) <= 1e-10
    _announce(10, "Jensen + gap bound at (12,4); single-term case matches quadrature")


@pytest.mark.parametrize(
    "quantity", ["lambda_max", "fixed_state_energy", "obs_expectation", "thermal_energy", "two_point"]
)
def test_criterion_11_tail_suites(quantity):
    rep = tail_experiment(
        quantity,
        {"n": 10, "q": 4, "beta": 1.0, "tau": 0.5},
        2000,
        seed=41,
    )
    failures = [(v.name, v.details) for v in rep.verdicts if not v.passed]
    assert not failures, failures
    assert rep.verdicts, "no grid points were evaluated"
    _announce(11, f"tails[{quantity}]: zero bound violations across the t grid")


def test_criterion_11_mgf_supplement():
    rep = mgf_check(12, 4, 2000, seed=42)
    assert rep.all_passed
    _announce(11, "moment generating function within exp(4 Delta t^2) on the grid")


def test_criterion_12_depolarizing_identity():
    rng_idx = 0
    for k in (1, 2):
        for trial in range(50):
            n = 2 + (trial % 5)  # system sizes 2..6
            if n < k:
                continue
            ops = enumerate_set("pauli", n, k)
            coeffs = gaussian_stream(RandomStream(5000 + rng_idx, trial), len(ops))
            rng_idx += 1
            terms = list(zip(coeffs, ops.members))
            phi = random_state(RandomStream(6000 + rng_idx, trial), 1 << n)
            lhs, rhs = depolarized_energy_identity(terms, phi)
            assert abs(lhs - rhs) <= 1e-12
    _announce(12, "Tr(H E^(xn)(phi)) = 3^-k <phi|H|phi> to 1e-12 on 100 random Hamiltonians")


def test_criterion_13_glassiness_contrast():
    rep = glassiness_contrast([8, 12, 16], 2.0, 300, seed=51)
    failures = [(v.name, v.details) for v in rep.verdicts if not v.passed]
    assert not failures, failures
    gaps = [row["gap"] for row in rep.summary["syk"]]
    classical = rep.summary["classical"][-1]
    _announce(
        13,
        f"fermionic gap trend {gaps[0]:.4f} -> {gaps[-1]:.4f}; "
        f"classical gap {classical['gap']:.3f} = {classical['gap']/classical['se']:.1f} SE",
    )


def test_criterion_14_nlts_calculator():
    golden = {
        (100, 0.25): 789,
        (100, 0.5): 3158,
        (100, 1.0): 12635,
        (50, 0.5): 425,
    }
    reports = {}
    for (n, t), expect in golden.items():
        rep = ansatz_bounds_report(n, 4, t, 64, 1e-3)
        assert rep.circuit_gate_threshold == expect, (n, t, rep.circuit_gate_threshold)
        # deterministic arithmetic regression against the closed form
        budget = t * t * n / (2 * rep.sigma_sq) + log(1e-3)
        assert rep.circuit_gate_threshold == math.floor(budget / log(64 * comb(n, 2)))
        assert rep.nn_weight_threshold == math.floor(budget)
        assert rep.mps_bond_threshold == math.floor(math.sqrt(budget - log(n)))
        reports[(n, t)] = rep
    for t_lo, t_hi in [(0.25, 0.5), (0.5, 1.0)]:
        ratio = reports[(100, t_hi)].circuit_gate_threshold / reports[(100, t_lo)].circuit_gate_threshold
        assert abs(ratio / 4.0 - 1.0) <= 0.10, ratio
    n_ratio = reports[(100, 0.5)].circuit_gate_threshold / reports[(50, 0.5)].circuit_gate_threshold
    predicted = 2 ** (4 / 2 + 1) * log(50) / log(100)
    assert abs(n_ratio / predicted - 1.0) <= 0.10, (n_ratio, predicted)
    assert ansatz_bounds_report(100, 4, 1e-9, 64, 1e-3).circuit_gate_threshold == 0
    _announce(14, "gate thresholds match the union-bound closed form; t^2 and n-scalings within 10%")
