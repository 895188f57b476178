"""Monte Carlo experiments: estimator identities and bound verdicts."""

import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scipy.special import logsumexp, ndtri
from scipy.stats import kstest, kstwo

import fermitheta.lab as lab
import fermitheta.models as models
from fermitheta.algebra import MajoranaMonomial, _walsh_hadamard, majorana_to_pauli, pauli_matrix
from fermitheta.graphs import commuting_majorana_family, stabilized_state
from fermitheta.kernel import InputError, RandomStream, gaussian_stream, random_state
from fermitheta.lab import (
    classical_overlap_experiment,
    delta_upper_bound,
    exp_moment_check,
    free_energy_experiment,
    glassiness_contrast,
    gradcheck_logZ,
    mgf_check,
    tail_experiment,
    variance_identity_experiment,
    _logsumexp,
)
from fermitheta.models import sample_classical_pspin, term_bank
from fermitheta.reports import _atomic_write


class TestFreeEnergy:
    def test_beta_zero_exact(self):
        rep = free_energy_experiment("syk", 8, 4, [0.0], 32, seed=1)
        row = rep.summary["per_beta"][0]
        expected = math.log(1 << 4) / 8
        assert abs(row["quenched"] - expected) < 1e-12
        assert abs(row["annealed"] - expected) < 1e-10
        assert rep.all_passed

    def test_syk_small_run_passes(self):
        rep = free_energy_experiment("syk", 10, 4, [0.5, 1.0], 64, seed=2, threads=2)
        assert rep.all_passed
        gaps = [row["gap"] for row in rep.summary["per_beta"]]
        assert all(g >= -1e-9 for g in gaps)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(InputError):
            free_energy_experiment("syk", 8, 4, [1.0], 8, seed=0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: free_energy_experiment("syk", 8, 4, [], 16, 0),
            lambda: exp_moment_check(8, 4, [], 16),
            lambda: classical_overlap_experiment(8, 4, [], 16),
        ],
        ids=["free-energy", "exp-moment", "overlap"],
    )
    def test_empty_beta_list_refused(self, monkeypatch, run):
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for an empty beta list")

        monkeypatch.setattr(lab, "_chunks", refuse)
        with pytest.raises(InputError, match="beta list must be nonempty"):
            run()

    def test_single_term_against_quadrature(self):
        # one-coupling model: ln Z = ln dim + ln cosh(beta sqrt(n) g) exactly
        beta, n = 1.0, 4
        rep = free_energy_experiment("syk", n, n, [beta], 4000, seed=3)
        row = rep.summary["per_beta"][0]
        lnz = np.asarray(rep.records["ln_z"])[:, 0]
        bank = term_bank("majorana", n, n)
        for i in [0, 17, 1001]:
            g = gaussian_stream(RandomStream(3, i), len(bank))[0]
            direct = math.log(1 << (n // 2)) + math.log(math.cosh(beta * math.sqrt(n) * g))
            assert abs(lnz[i] - direct) < 1e-10
        mc_err = abs(row["quenched"] - row["quenched_quadrature"])
        assert mc_err <= 4 * row["quenched_se"] + 1e-3
        assert abs(row["annealed_analytic"] - (math.log(2) / 2 + beta**2 / 2)) < 1e-12

    def test_classical_reports_reference(self):
        rep = free_energy_experiment("classical", 8, 4, [0.5], 32, seed=4)
        row = rep.summary["per_beta"][0]
        assert abs(row["annealed_reference"] - (math.log(2) + 0.125)) < 1e-12

    def test_thread_count_does_not_change_results(self):
        a = free_energy_experiment("syk", 8, 4, [0.7], 24, seed=5, threads=1)
        b = free_energy_experiment("syk", 8, 4, [0.7], 24, seed=5, threads=4)
        assert np.array_equal(np.asarray(a.records["ln_z"]), np.asarray(b.records["ln_z"]))


    @pytest.mark.parametrize("model,kind,n,loc", [("sg", "pauli", 4, 2), ("syk", "majorana", 8, 4)])
    def test_batched_beta_reduction_matches_per_beta_loop(self, model, kind, n, loc):
        betas = [0.0, 0.5, 1.0, 2.0]
        lnz = free_energy_experiment(model, n, loc, betas, 16, seed=5).records["ln_z"]
        bank = term_bank(kind, n, loc)
        for i in range(16):
            w = bank.eigvalsh(gaussian_stream(RandomStream(5, i), len(bank)))
            loop = [logsumexp(-b * math.sqrt(n) * w) for b in betas]
            assert np.abs(lnz[i] - loop).max() <= 1e-13

    # per-sample ln Z at beta = 0.5, 1, 2 (seed 7, 16 samples), frozen from
    # the scatter-add assembly and full-matrix eigensolve
    GOLDEN_LN_Z = {
        ("syk", 10, 4): {
            0: (4.37982536290587, 6.37158271150955, 11.090671056884819),
            5: (4.448880016417859, 6.616455532989813, 11.731141408838583),
            15: (4.600116535466727, 6.942393695296213, 12.36301328395559),
        },
        ("sg", 4, 2): {
            0: (3.1548061941888337, 4.122808492679275, 6.770393000431372),
            5: (3.1297371815917203, 3.9958754274361055, 6.328112019670895),
            15: (3.1738207270481302, 4.074670625227284, 6.3773572855596345),
        },
    }

    @pytest.mark.parametrize("family", sorted(GOLDEN_LN_Z))
    def test_golden_ln_z(self, family):
        rep = free_energy_experiment(*family, [0.5, 1.0, 2.0], 16, seed=7)
        for i, want in self.GOLDEN_LN_Z[family].items():
            assert np.abs(rep.records["ln_z"][i] - np.array(want)).max() <= 1e-10


def _chunk_widths(monkeypatch, run):
    """Widths of the spectrum chunks that ``run()`` reduces."""
    widths = []
    spectrum_chunks = lab._spectrum_chunks

    def spy(*args):
        for w in spectrum_chunks(*args):
            widths.append(len(w))
            yield w

    monkeypatch.setattr(lab, "_spectrum_chunks", spy)
    run()
    return widths


def _traced_peak(run) -> int:
    """Peak bytes that ``run()`` allocates through the traced allocators
    (numpy's array data included), after one untraced warm-up run."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkWidths:
    """Every chunk width comes from one budget over each path's own count
    of the bytes that one sample adds to a chunk."""

    def test_classical_free_energy_takes_two_to_four_samples(self, monkeypatch):
        # the log-sum-exp over three temperatures triples the working set
        # of a classical (12, 4) sample; b = 8 ran about 60% slower
        widths = _chunk_widths(monkeypatch, lambda: free_energy_experiment(
            "classical", 12, 4, [0.5, 1.0, 2.0], 16, seed=0))
        assert 2 <= widths[0] <= 4 and sum(widths) == 16

    @pytest.mark.parametrize("run", [
        lambda: free_energy_experiment("syk", 8, 4, [0.5, 1.0, 2.0], 250, seed=1),
        lambda: free_energy_experiment("sg", 4, 2, [0.5, 1.0, 2.0], 250, seed=1),
        lambda: free_energy_experiment("classical", 12, 4, [0.5, 1.0, 2.0], 16, seed=1),
        lambda: tail_experiment("thermal_energy", {"n": 10, "q": 4}, 120, seed=1),
        lambda: tail_experiment("obs_expectation", {"n": 10, "q": 4}, 64, seed=1),
        lambda: tail_experiment("two_point", {"n": 10, "q": 4}, 64, seed=1),
    ], ids=["free-energy-syk-8-4", "free-energy-sg-4-2", "free-energy-classical-12-4",
            "thermal-energy-10", "obs-expectation-10", "two-point-10"])
    def test_full_chunks_fill_the_budget(self, run):
        # runs of at least two full chunks: the traced peak is the working
        # set of one chunk, so a count that is off by half shows here
        assert 0.6 <= _traced_peak(run) / models._CHUNK_BYTES <= 1.5

    @pytest.mark.parametrize("run", [
        lambda samples: tail_experiment("lambda_max", {"n": 14, "q": 4}, samples, seed=1),
        lambda samples: mgf_check(14, 4, samples, seed=1),
    ], ids=["tails-lambda-max", "mgf"])
    def test_lambda_max_keeps_no_chunk_spectrum(self, run):
        # the top eigenvalue of each chunk is copied out, so each (b, d)
        # spectrum is freed with its chunk: about 1 MiB at 4000 samples
        # (32 KB of records), 5.4 MiB when a view of every chunk was kept
        run(16)  # builds the cached term bank
        tracemalloc.start()
        try:
            run(4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


# Runs the mc-small-d free-energy calls (full size) once to warm up, frees a
# 16 MB array when asked, then prints the minor page faults of each call of
# a second round.
_FAULT_PROBE = """
import resource, sys
import numpy as np
from fermitheta.lab import free_energy_experiment

def round_of_calls():
    faults = []
    for model, n, loc in (("syk", 8, 4), ("sg", 4, 2), ("classical", 12, 4)):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        free_energy_experiment(model, n, loc, [0.5, 1.0, 2.0], 250, seed=3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults

round_of_calls()
if sys.argv[1] == "free":
    big = np.ones(2 << 20)
    del big
print(round_of_calls())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="minor page faults under glibc's malloc")
class TestAllocatorIndependence:
    """A warm process runs the chunked free energy without page faults,
    whatever the allocator's state: every chunk reuses the call's one
    workspace, and freeing it leaves glibc's mmap threshold above every
    per-chunk array, where scattered chunk temporaries were mapped and
    faulted in again on every chunk."""

    @pytest.mark.parametrize("prior", ["keep", "free"])
    def test_second_round_takes_no_faults(self, prior):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, prior], env=env,
                             capture_output=True, text=True, check=True).stdout
        faults = json.loads(out)
        assert len(faults) == 3 and max(faults) <= 50, faults


class TestDeltaUpper:
    def test_values(self):
        assert abs(delta_upper_bound("syk", 6, 2) - 0.2) < 1e-15
        assert abs(delta_upper_bound("sg", 5, 2) - 4 / 9) < 1e-15
        assert delta_upper_bound("classical", 10, 4) == 1.0

    def test_family_of_each_model(self):
        # the model-to-family map is the models layer's own
        for model, family in models._KINDS.items():
            assert delta_upper_bound(model, 6, 2) == lab._upper_bound_float(family, 6, 2)
        with pytest.raises(InputError, match="unknown model 'spins'"):
            delta_upper_bound("spins", 6, 2)


# sha256 of the JSON of the records of gradcheck_logZ(n, q, beta, seed),
# recorded when each finite difference took its own eigensolve: the one
# stacked eigensolve of all 40 shifted couplings changed no byte
_GRADCHECK_GOLDEN = {
    (10, 2, 1.0, 3): "b4b4dea423a28fb3d5510435910aa808853d8797315bf43503d1f9fd8d6f2109",
    (12, 4, 2.0, 4): "46c1fbf656bd304e2eaa64f9a520d9b4f38be126ed183a8f779786abb6329305",
}


class TestGradcheck:
    @pytest.mark.parametrize("case", list(_GRADCHECK_GOLDEN))
    def test_records_golden(self, case):
        records = gradcheck_logZ(*case).to_dict()["records"]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == _GRADCHECK_GOLDEN[case]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_small_systems(self, beta):
        res = gradcheck_logZ(8, 4, beta, seed=2)
        assert res.summary["max_rel_error"] <= 1e-5

    def test_beta_zero(self):
        res = gradcheck_logZ(8, 2, 0.0, seed=2)
        assert res.summary["max_rel_error"] <= 1e-8

    def test_eight_two(self):
        assert gradcheck_logZ(8, 2, 2.0, seed=4).summary["max_rel_error"] <= 1e-5

    def test_report(self):
        rep = gradcheck_logZ(6, 2, 0.5, seed=3)
        assert rep.experiment == "gradcheck"
        assert rep.params == {"n": 6, "q": 2, "beta": 0.5} and rep.seed == 3
        coords, an, fd = (rep.records[k] for k in ("coords", "analytic", "finite_diff"))
        assert len(coords) == len(set(coords.tolist())) == 15  # all C(6, 2) terms
        err = rep.summary["max_rel_error"]
        assert err == np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-2 * np.abs(an).max()))
        (verdict,) = rep.verdicts
        assert verdict.name == "gradient_match"
        assert verdict.passed == (err <= 1e-5) and rep.all_passed
        json.loads(rep.to_json())


class TestVarianceIdentity:
    def test_stabilized_62_exact_value(self):
        rep = variance_identity_experiment("stabilized", 6, 2, 400, seed=1)
        assert abs(rep.summary["exact_variance"] - 0.2) < 1e-12
        assert rep.all_passed

    def test_basis_state_62(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rep = variance_identity_experiment(psi, 6, 2, 400, seed=2)
        bank = term_bank("majorana", 6, 2)
        direct = float(np.mean(bank.expectations(psi) ** 2))
        assert abs(rep.summary["exact_variance"] - direct) < 1e-12
        assert rep.all_passed

    def test_random_84(self):
        rep = variance_identity_experiment("random", 8, 4, 400, seed=3)
        assert rep.all_passed

    def test_ks_pass_bits_are_scipys(self):
        # gaussian_ks is a 1%-level test: a correct program fails it on about
        # 1% of seeds, and seed 108 is one of them at (8, 4) with 1000 samples
        bits = {}
        for seed in range(100, 112):
            rep = variance_identity_experiment("random", 8, 4, 1000, seed)
            z = rep.records["energy"] / math.sqrt(rep.summary["exact_variance"])
            (ks,) = (v for v in rep.verdicts if v.name == "gaussian_ks")
            assert ks.passed == (kstest(z, "norm").pvalue >= 0.01), seed
            bits[seed] = ks.passed
        assert not bits[108] and sum(bits.values()) == len(bits) - 1


def _ks_sample(n: int, d: float) -> np.ndarray:
    """n points whose KS distance to the normal law is d: the normal
    quantiles of c (i + 1/2) / n, so D = D+ = 1 - c (1 - 1/(2n))."""
    c = (1.0 - d) / (1.0 - 0.5 / n)
    return ndtri(c * (np.arange(n) + 0.5) / n)


class TestKsNormal:
    """lab's numpy KS test against scipy's ``kstest(x, "norm")``.

    D is a difference of CDF values in [0, 1], computed from math.erfc
    here and from scipy's ndtr there, so it matches to 4 units in the last
    place of 1.  The p-values match to a relative 1e-10.  The cases put
    D in every region of the method selection; a comment names the region
    of each group."""

    CASES = [
        (16, 0.5 / 16),  # n d = 1/2: p = 1
        (16, 0.75 / 16),  # Ruben-Gambino, n d <= 1
        (1000, 0.8 / 1000),  # the same for n > 140, through log(n!/n^n)
        (16, 15.5 / 16),  # Ruben-Gambino, n d >= n - 1
        (141, 140.5 / 141),
        (17, 0.6),  # d >= 1/2: twice the one-sided sum, exactly
        (141, 0.55),
        (16, 1.3 / 16),  # Durbin's smallest matrices, with its corner term (n d = k - h, h > 1/2)
        (141, 1.4 / 141),
        (16, math.sqrt(0.5 / 16)),  # n <= 140, n d^2 <= 0.754693: Durbin
        (140, math.sqrt(0.7 / 140)),
        (17, math.sqrt(2.0 / 17)),  # n <= 140, n d^2 <= 4: Durbin
        (100, math.sqrt(3.9 / 100)),
        (140, math.sqrt(1.0 / 140)),
        (100, math.sqrt(5.0 / 100)),  # n <= 140, n d^2 > 4: one-sided sum
        (140, math.sqrt(18.5 / 140)),
        (141, math.sqrt(2.5 / 141)),  # n > 140, n d^2 >= 2.2: one-sided sum
        (1000, math.sqrt(3.0 / 1000)),
        (10**4, math.sqrt(20.0 / 10**4)),  # n d^2 >= 18
        (10**5, math.sqrt(2.3 / 10**5)),
        (10**4, math.sqrt(400.0 / 10**4)),  # n d^2 >= 370: p = 0
        (141, math.sqrt(0.3 / 141)),  # n d^1.5 <= 1.4: Durbin
        (10**4, math.sqrt(0.05 / 10**4)),
        (10**5, math.sqrt(0.02 / 10**5)),
        (1000, math.sqrt(1.0 / 1000)),  # n d^1.5 > 1.4: Pelz-Good
        (10**5, math.sqrt(1.0 / 10**5)),
        (10**6, math.sqrt(0.5 / 10**6)),  # n > 10^5: Pelz-Good
    ]

    @pytest.mark.parametrize("n,d", CASES)
    def test_matches_scipy(self, n, d):
        x = _ks_sample(n, d)
        got_d, got_p = lab._ks_normal(x)
        want = kstest(x, "norm")
        assert abs(got_d - d) < 1e-9  # the case sits in the region it names
        assert abs(got_d - want.statistic) <= 4 * np.finfo(float).eps
        assert abs(got_p - want.pvalue) <= 1e-10 * want.pvalue

    @settings(max_examples=60, deadline=None)
    @given(
        x=hnp.arrays(np.float64, st.integers(16, 300), elements=st.floats(-4.0, 4.0)),
        shift=st.floats(-1.0, 1.0),
        scale=st.floats(0.25, 4.0),
    )
    def test_random_samples(self, x, shift, scale):
        x = x * scale + shift
        got_d, got_p = lab._ks_normal(x)
        assert abs(got_d - kstest(x, "norm").statistic) <= 4 * np.finfo(float).eps
        # the p-value against scipy's law at the same D: at D near 1 the
        # p-value moves by n/(1 - D) per unit of D, more than the few-ulp
        # difference of the statistics allows for; below 1e-300 (subnormal
        # or zero) both are zero to double precision
        want = float(kstwo.sf(got_d, x.size))
        assert math.isclose(got_p, want, rel_tol=1e-10, abs_tol=1e-300)


class TestTails:
    def test_lambda_max_small(self):
        rep = tail_experiment("lambda_max", {"n": 10, "q": 4}, 400, seed=1, threads=2)
        assert rep.all_passed
        assert len(rep.summary["grid"]) == 10

    def test_fixed_state_gaussian(self):
        rep = tail_experiment("fixed_state_energy", {"n": 10, "q": 4}, 400, seed=2)
        assert rep.all_passed
        assert "sigma_sq_exact" in rep.summary

    def test_obs_expectation(self):
        rep = tail_experiment(
            "obs_expectation", {"n": 10, "q": 4, "beta": 1.0}, 200, seed=3
        )
        assert rep.all_passed

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_obs_expectation_vanishes_for_q_4(self, n):
        # P = M K with M the image of g1 g3 ... g_{n-1} commutes with every
        # q = 4 Hamiltonian and sends i g1 g2 to -i g1 g2, so <i g1 g2> = 0
        # in every Gibbs state: the recorded series is rounding noise
        rep = tail_experiment("obs_expectation", {"n": n, "q": 4, "beta": 1.0}, 32, seed=n)
        assert np.abs(rep.records["obs"]).max() <= 1e-12

    def test_thermal_energy_pilot_split(self):
        rep = tail_experiment(
            "thermal_energy", {"n": 10, "q": 4, "beta": 1.0}, 200, seed=4
        )
        assert rep.all_passed
        assert len(np.asarray(rep.records["lambda_max_pilot"])) == 20
        assert len(np.asarray(rep.records["thermal_energy"])) == 180

    def test_two_point_parts(self):
        rep = tail_experiment(
            "two_point", {"n": 10, "q": 4, "beta": 1.0, "tau": 0.5}, 200, seed=5
        )
        assert rep.all_passed
        series = {row["series"] for row in rep.summary["grid"]}
        assert series == {"two_point_hermitian", "two_point_antihermitian"}

    def test_beta_zero_skips_scaled_bounds(self):
        rep = tail_experiment(
            "obs_expectation", {"n": 8, "q": 4, "beta": 0.0}, 32, seed=6
        )
        assert rep.verdicts == []
        assert rep.summary["notes"]

    def test_underflowing_scale_skips_like_beta_zero(self):
        # at beta = 1e-200, beta^2 is 0: each Gibbs curve's scale is 0, so
        # its points are skipped, where the curves divided by zero
        for quantity in ("obs_expectation", "thermal_energy"):
            rep = tail_experiment(quantity, {"n": 6, "q": 2, "beta": 1e-200}, 16, seed=6)
            assert rep.verdicts == [] and rep.summary["grid"] == []
            assert rep.summary["notes"] == [f"{quantity}: bound undefined at t={t}; skipped"
                                            for t in lab.T_GRID]
        rep = tail_experiment("two_point", {"n": 6, "q": 2, "beta": 1e-200, "tau": 0.0}, 16)
        assert rep.verdicts == [] and len(rep.summary["notes"]) == 20

    def test_unknown_quantity(self):
        with pytest.raises(InputError):
            tail_experiment("nonsense", {"n": 8, "q": 4}, 32, seed=0)


# sha256 of the JSON of each tail report without duration_ms, 64 samples at
# seed 3, recorded before tail_experiment branched on its quantity once: the
# restructure changed no byte of any report
_TAIL_GOLDEN = {
    ((8, 4, 1.0, 0.5), "lambda_max"): "49299033fc13af29a945a61a49eae654d2983b0cecd81b495ec30cd5aa107209",
    ((8, 4, 1.0, 0.5), "fixed_state_energy"): "1c3e096d567815efda0cda39ee3e424504c7ca8c71c1906976419e06db8e65e9",
    ((8, 4, 1.0, 0.5), "obs_expectation"): "29965247249bbabce7ffdd4a37dfcaa978a97f1b9fd76d71e49787acc05b5b0a",
    ((8, 4, 1.0, 0.5), "thermal_energy"): "385828de86508b77d3f48366e4eb11759f6972fdd5841d00e84a89019b9eac4b",
    ((8, 4, 1.0, 0.5), "two_point"): "892c1c78611567bb17481f8e6171b648a98617484b86cc0937310cd58759c206",
    ((10, 4, 0.0, 0.0), "lambda_max"): "4858c966a3e5d52d7b70a1527b76103e7f5825c2c2f1043d052dd606fcd4af12",
    ((10, 4, 0.0, 0.0), "fixed_state_energy"): "44265433ebf086a6831c36478fe2fcbc88408a0876fc83335198ace8a9548d5a",
    ((10, 4, 0.0, 0.0), "obs_expectation"): "e82d7b47a4164ccfc107fa047ae1132fed34b382694e006e81b1b0d787350c8c",
    ((10, 4, 0.0, 0.0), "thermal_energy"): "c5cddc3da2e561f00eb58a0c765a00f9acca3613d6bd0e7486b0187eac272fb6",
    ((10, 4, 0.0, 0.0), "two_point"): "fecb84dd3ac658d865ec742ce6409718066175a6806c19036a6c161fb61827d3",
    ((6, 2), "lambda_max"): "5bf43c8249b30c53acd10363f905a703d6232155f3745a5b951ebbe8eb569460",
    ((6, 2), "fixed_state_energy"): "bcbb458492439568ff2c48d4e9eb840aa0106a27acafd2fe2630b8f2365db0cb",
    ((6, 2), "obs_expectation"): "156781d15c1179a5d7f086c15aa33f3c5d8aadb05a1c6ef6cb80cc731db257a2",
    ((6, 2), "thermal_energy"): "1b44e6d972e85976c590230a647b6cc50b2dc3997df2fdb1299fdbc697f89279",
    ((6, 2), "two_point"): "f34abe6bfb5e09897de369e32c59d86bf96f260c41c8dc5bdb01bf42da39d2af",
}


@pytest.mark.parametrize("point,quantity", list(_TAIL_GOLDEN))
def test_tail_report_golden(point, quantity):
    params = dict(zip(("n", "q", "beta", "tau"), point))  # (6, 2) at the default beta and tau
    report = tail_experiment(quantity, params, 64, seed=3).to_dict()
    del report["duration_ms"]
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == _TAIL_GOLDEN[point, quantity]


class TestMgf:
    def test_standard_grid(self):
        rep = mgf_check(10, 4, 400, seed=2, threads=2)
        assert rep.all_passed

    def test_single_term_quadrature(self):
        # lam_max = |g|: E exp(t(|g| - E|g|)) has a closed quadrature value
        rep = mgf_check(4, 4, 4000, seed=3)
        x, w = np.polynomial.hermite.hermgauss(201)
        g = np.sqrt(2.0) * x
        mean_abs = float(np.sum(w * np.abs(g)) / np.sqrt(np.pi))
        t = 0.5
        quad = float(np.sum(w * np.exp(t * (np.abs(g) - mean_abs))) / np.sqrt(np.pi))
        row = rep.summary["rows"][0]
        assert abs(row["mgf"] - quad) <= 6 * row["se"]


class TestExpMoment:
    def test_beta_zero_normalization(self):
        rep = exp_moment_check(8, 4, [0.0, 0.1], 64, seed=1)
        assert rep.all_passed

    def test_taylor_and_fit(self):
        rep = exp_moment_check(12, 4, [0.0, 0.1, 0.5, 1.0], 200, seed=2, threads=2)
        assert rep.all_passed
        assert rep.summary["fitted_c1"] >= 0.0
        rows = {r["beta"]: r for r in rep.summary["rows"]}
        assert abs(rows[0.1]["mean"] - 1.005) < 5e-3

    def test_negative_beta_fits_c1(self):
        rep = exp_moment_check(4, 2, [-1.0], 16, seed=0)
        assert rep.all_passed
        assert [v.name for v in rep.verdicts] == []
        row = rep.summary["rows"][0]
        ln_est = math.log(row["mean"])
        m, hc = rep.summary["m"], rep.summary["h_comm"]
        assert row["c1_required"] == max(0.0, (0.5 - ln_est) * 4.0 * m / hc)
        assert rep.summary["fitted_c1"] == row["c1_required"]

    def test_reference_overflow_refused(self):
        # exp(40^2 / 2) overflows a float
        with pytest.raises(InputError):
            exp_moment_check(8, 4, [0.5, 40.0], 64, seed=1)


class TestOverlap:
    def test_beta_zero_exact(self):
        rep = classical_overlap_experiment(8, 4, [0.0], 32, seed=1)
        assert rep.all_passed
        assert abs(rep.summary["rows"][0]["mean_r2"] - 1 / 8) < 1e-12

    def test_monotone_in_beta(self):
        rep = classical_overlap_experiment(10, 4, [0.0, 0.5, 1.0, 2.0], 48, seed=2, threads=2)
        assert rep.all_passed

    def test_threshold_constants(self):
        rep = classical_overlap_experiment(8, 4, [0.5], 32, seed=3)
        assert abs(rep.summary["glass_threshold"] - math.sqrt(2 * math.log(2))) < 1e-12
        assert abs(
            rep.summary["glass_threshold_lower"]
            - (1 - 2**-4) * math.sqrt(2 * math.log(2))
        ) < 1e-12

    def test_large_beta_ground_pair(self):
        # deep in the frozen regime the Gibbs weight sits on +-sigma*
        rep = classical_overlap_experiment(6, 4, [30.0], 24, seed=4)
        assert rep.summary["rows"][0]["mean_r2"] > 0.9


class TestContrast:
    def test_small_contrast(self):
        rep = glassiness_contrast([8, 12], 2.0, 48, seed=1, threads=2)
        names = [v.name for v in rep.verdicts]
        assert any("syk_gap_nonincreasing" in s for s in names)
        assert any("classical_gap_positive" in s for s in names)

    def test_empty_size_list_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for a refused size list")

        monkeypatch.setattr(lab, "_log_partition", refuse)
        with pytest.raises(InputError, match="size list must be nonempty and strictly increasing"):
            glassiness_contrast([], 1.0, 16)

    def test_beta_zero_gaps_vanish(self):
        rep = glassiness_contrast([8], 0.0, 32, seed=2)
        assert abs(rep.summary["syk"][0]["gap"]) < 1e-10
        assert abs(rep.summary["classical"][0]["gap"]) < 1e-10


class TestReportPlumbing:
    def test_round_trip_and_schema(self, tmp_path):
        import json

        rep = free_energy_experiment("syk", 8, 4, [0.5], 24, seed=9)
        path = tmp_path / "report.json"
        _atomic_write(str(path), (rep.to_json(),))
        payload = json.loads(path.read_text())
        for key in ("schema_version", "experiment", "params", "seed", "records", "summary", "verdicts", "duration_ms"):
            assert key in payload
        assert payload["experiment"] == "free_energy"

    def test_records_csv(self, tmp_path):
        rep = free_energy_experiment("syk", 8, 4, [0.5, 1.0], 24, seed=9)
        path = tmp_path / "records.csv"
        rep.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "sample,ln_z_0,ln_z_1"
        assert len(lines) == 25


class TestSpinGlassPath:
    def test_free_energy_sg(self):
        rep = free_energy_experiment("sg", 4, 1, [0.5, 1.0], 32, seed=3)
        assert rep.all_passed
        assert abs(rep.summary["delta_upper"] - 2 / 3) < 1e-15


# Per-sample dense references: each record is recomputed from the sample's
# assembled matrix (or from a product over subsets for classical spins),
# sharing none of the experiments' reductions.
SEED = 3
SAMPLES = 32
INDICES = (1, 17, 31)
BETAS = [0.0, 0.5, 1.0, 2.0]


def dense_hamiltonian(n, q, i, seed=SEED):
    bank = term_bank("majorana", n, q)
    return bank.assemble(gaussian_stream(RandomStream(seed, i), len(bank)))


def dense_spectrum(n, q, i, seed=SEED):
    return np.linalg.eigh(dense_hamiltonian(n, q, i, seed))[0]


def brute_force_energies(n, p, i, seed=SEED):
    subsets = list(itertools.combinations(range(n), p))
    g = gaussian_stream(RandomStream(seed, i), len(subsets)) / math.sqrt(len(subsets))
    spins = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    return np.stack([spins[:, list(T)].prod(axis=1) for T in subsets], axis=1) @ g


def gibbs(w, scale):
    p = np.exp(-scale * (w - w.min()))
    return p / p.sum()


def butterfly(a):
    """Radix-2 butterfly Walsh-Hadamard transform of a 1-D array."""
    out = a.copy()
    h = 1
    size = len(out)
    while h < size:
        out = out.reshape(-1, 2, h)
        out = np.stack([out[:, 0, :] + out[:, 1, :], out[:, 0, :] - out[:, 1, :]], axis=1)
        out = out.reshape(size)
        h *= 2
    return out


class TestDenseReferences:
    def test_mgf_lambda_max(self):
        lam = mgf_check(8, 4, SAMPLES, seed=SEED).records["lambda_max"]
        for i in INDICES:
            assert abs(lam[i] - dense_spectrum(8, 4, i)[-1]) <= 1e-12

    def test_exp_moment_traces(self):
        tr = exp_moment_check(8, 4, BETAS, SAMPLES, seed=SEED).records["trace_exp"]
        for i in INDICES:
            w = dense_spectrum(8, 4, i)
            want = [np.mean(np.exp(b * w)) for b in BETAS]
            assert np.abs(tr[i] - want).max() <= 1e-12

    def test_tail_lambda_max(self):
        rep = tail_experiment("lambda_max", {"n": 8, "q": 4}, SAMPLES, seed=SEED)
        for i in INDICES:
            assert abs(rep.records["lambda_max"][i] - dense_spectrum(8, 4, i)[-1]) <= 1e-12

    def test_tail_thermal_energy_pilot_and_main(self):
        beta = 1.0
        rep = tail_experiment("thermal_energy", {"n": 8, "q": 4, "beta": beta}, SAMPLES, seed=SEED)
        pilot = len(rep.records["lambda_max_pilot"])
        assert pilot == SAMPLES // 10
        for i in (0, *INDICES):
            w = dense_spectrum(8, 4, i)
            if i < pilot:
                assert abs(rep.records["lambda_max_pilot"][i] - w[-1]) <= 1e-12
            else:
                energy = np.sum(w * gibbs(w, beta * math.sqrt(8)))
                assert abs(rep.records["thermal_energy"][i - pilot] - energy) <= 1e-12

    @pytest.mark.parametrize("n,beta,tau", [(8, 2.0, 1.3), (10, 1.0, 0.5), (12, 0.0, 0.7),
                                            (14, 1.0, 0.5)])
    def test_tail_gibbs_observables(self, n, beta, tau):
        """obs_expectation and two_point against the dense trace formulas
        Tr(X rho) and Tr(X U_t Y U_t^dag rho), X = i g1 g2 and Y = i g3 g4.
        53 samples end in a short chunk at n = 8, 10 and 12 (48, 12 and 3
        samples per chunk); n = 14 is mirrored with sectors of side 64."""
        params = {"n": n, "q": 4, "beta": beta, "tau": tau}
        obs = tail_experiment("obs_expectation", params, 53, seed=SEED).records["obs"]
        two = tail_experiment("two_point", params, 53, seed=SEED).records
        X, Y = (pauli_matrix(majorana_to_pauli(MajoranaMonomial(n, s))) for s in ((1, 2), (3, 4)))
        for i in (*INDICES, 52):
            w, U = np.linalg.eigh(dense_hamiltonian(n, 4, i))
            rho = (U * gibbs(w, beta * math.sqrt(n))) @ U.conj().T
            Ut = (U * np.exp(1j * tau * math.sqrt(n) * w)) @ U.conj().T
            assert abs(obs[i] - np.real(np.trace(X @ rho))) <= 1e-12
            val = np.trace(X @ Ut @ Y @ Ut.conj().T @ rho)
            assert abs(two["two_point_hermitian"][i] - val.real) <= 1e-12
            assert abs(two["two_point_antihermitian"][i] - val.imag) <= 1e-12

    def test_tail_fixed_state_energy(self):
        rep = tail_experiment("fixed_state_energy", {"n": 8, "q": 4}, SAMPLES, seed=SEED)
        psi = random_state(RandomStream(SEED, 1 << 32), 16)
        for i in INDICES:
            want = np.real(np.vdot(psi, dense_hamiltonian(8, 4, i) @ psi))
            assert abs(rep.records["energy"][i] - want) <= 1e-12

    @pytest.mark.parametrize("state", ["stabilized", "random"])
    def test_variance_identity_energies(self, state):
        rep = variance_identity_experiment(state, 8, 4, SAMPLES, seed=SEED)
        if state == "stabilized":
            psi = stabilized_state(commuting_majorana_family(8, 4))
        else:
            psi = random_state(RandomStream(SEED, 1 << 32), 16)
        for i in INDICES:
            want = np.real(np.vdot(psi, dense_hamiltonian(8, 4, i) @ psi))
            assert abs(rep.records["energy"][i] - want) <= 1e-12

    def test_classical_overlap(self):
        n = 8
        r2 = classical_overlap_experiment(n, 4, BETAS, SAMPLES, seed=SEED).records["r2"]
        spins = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
        for i in INDICES:
            e = brute_force_energies(n, 4, i)
            for bi, b in enumerate(BETAS):
                corr = spins.T @ (gibbs(e, b * math.sqrt(n))[:, None] * spins)  # <s_j s_k>
                assert abs(r2[i, bi] - np.sum(corr**2) / n**2) <= 1e-12

    def test_classical_free_energy(self):
        n = 8
        lnz = free_energy_experiment("classical", n, 4, BETAS, SAMPLES, seed=SEED).records["ln_z"]
        for i in INDICES:
            e = brute_force_energies(n, 4, i)
            want = [logsumexp(-b * math.sqrt(n) * e) for b in BETAS]
            assert np.abs(lnz[i] - want).max() <= 1e-12

    @pytest.mark.parametrize("n,p", [(1, 1), (6, 2), (8, 4), (10, 3), (10, 10)])
    def test_classical_energies_brute_force(self, n, p):
        for i in INDICES:
            got = sample_classical_pspin(n, p, SEED, stream=i)
            assert np.abs(got - brute_force_energies(n, p, i)).max() <= 1e-12


class TestWalshHadamard:
    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(0, 12),
        batch=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_butterfly(self, bits, batch, seed):
        table = np.random.default_rng(seed).standard_normal((*batch, 1 << bits))
        got = _walsh_hadamard(table)
        assert got.shape == table.shape
        want = np.stack([butterfly(row) for row in table.reshape(-1, 1 << bits)])
        atol = 1e-14 * (1 << bits) * max(1.0, np.abs(table).max())
        assert np.abs(got.reshape(want.shape) - want).max() <= atol


class TestLogSumExp:
    """lab's numpy logsumexp against scipy's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
            elements=st.floats(-1.0, 1.0),
        ),
        spread=st.sampled_from([1.0, 40.0, 1e3, 1e300]),
        data=st.data(),
    )
    def test_bit_equal_to_scipy(self, x, spread, data):
        x = x * spread
        ties = data.draw(hnp.arrays(np.bool_, x.shape))
        x = np.where(ties, x.max(axis=-1, keepdims=True), x)  # repeated maxima
        before = x.copy()
        got = _logsumexp(x)
        want = np.asarray(logsumexp(x, axis=-1))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()  # the reduction works on its own temporary

    def test_all_ties(self):
        x = np.full((2, 5), 3.0)
        assert _logsumexp(x).tobytes() == np.asarray(logsumexp(x, axis=-1)).tobytes()
        assert np.array_equal(x, np.full((2, 5), 3.0))
