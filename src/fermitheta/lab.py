"""Disorder Monte Carlo experiments: concentration, free energy, overlaps.

Each experiment draws independent disorder realizations (one random stream
per sample index, so runs are reproducible bit-for-bit from the base seed),
aggregates summary statistics, and checks the relevant closed-form bound.
Samples come from :mod:`fermitheta.models`, which checks the model and its
caps before anything is built, in index order.  Every eigenvalue-only
quantity is a reduction over the spectra of
:func:`~fermitheta.models.sample_spectra` (SYK, spin glass or classical
p-spin), taken chunk by chunk: each (samples, d) chunk is reduced by
whole-array operations, such as one log-sum-exp over (samples, beta, d),
that do the same arithmetic per sample as a loop over samples, so every
record is bit-identical to it.  The free energy and the glassiness
contrast take the log-sum-exp's arrays from the call's chunk workspace
(:class:`~fermitheta.kernel.Workspace`), as the models layer takes the
stacks and the eigensolve's.  The log-sum-exp is a numpy function that
repeats ``scipy.special.logsumexp`` step by step; scipy's fixed cost per
call dominated small-d runs.  A fixed state's energy is linear in the
couplings of :func:`~fermitheta.models.sample_couplings`,
g . <psi|A_i|psi> / sqrt(m).  Only the Gibbs-state observables need
eigenvectors, and only inside each parity sector: H, X = i g1 g2 and
Y = i g3 g4 all preserve fermion parity.  They take the couplings in
chunks sized by the same budget over their own, larger working set,
diagonalize each chunk with one ``TermBank.sector_eigh`` call and apply
X and Y to the sector eigenvectors as signed row permutations, so every
trace is a sum over the sectors' eigenbases, reduced over the chunk at
once, and neither a full eigenvector matrix nor an observable matrix is
built.  The
``threads`` argument of every experiment is recorded in the report's
params and does not change the computation.  Bound verdicts always use a
rigorous upper bound on the commutation index (theta/m for Majorana
families, the (2/3)^k bound for Pauli families), rounded up to the least
float at or above it by :mod:`fermitheta.index`, never the heuristic
see-saw value; statistical slack enters through one-sided 99% confidence
limits, so a verdict fails only when the data are confidently above the
curve.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from math import comb, log

import numpy as np

from .algebra import MajoranaMonomial, OperatorSet, TermBank, _walsh_hadamard
from .graphs import commuting_majorana_family, stabilized_state
from .index import _upper_bound_float
from .kernel import CapacityError, InputError, RandomStream, Workspace, random_state
from .models import (
    _KINDS,
    _check,
    _check_q_below_n,
    _coupling_chunks,
    _spectrum_chunks,
    h_comm_count,
    model_bank,
    sample_couplings,
)
from .reports import (
    Z99,
    ExperimentReport,
    Verdict,
    jackknife_log_mean_exp,
    wilson_interval,
)

__all__ = [
    "free_energy_experiment",
    "gradcheck_logZ",
    "variance_identity_experiment",
    "tail_experiment",
    "mgf_check",
    "exp_moment_check",
    "classical_overlap_experiment",
    "glassiness_contrast",
    "TAIL_QUANTITIES",
]

MIN_SAMPLES = 16
# the records of a run hold a few floats per sample; beyond this count a
# run is refused before any sample is drawn
MAX_SAMPLES = 10**6
T_GRID = tuple(round(0.2 * k, 10) for k in range(1, 11))
MGF_T_GRID = (0.5, 1.0, 2.0)
TAIL_QUANTITIES = (
    "lambda_max",
    "fixed_state_energy",
    "obs_expectation",
    "thermal_energy",
    "two_point",
)

# stream indices >= _AUX_STREAM_BASE are reserved for non-sample randomness
_AUX_STREAM_BASE = 1 << 32
# largest x with a finite math.exp(x)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Bytes per spectrum entry and temperature that a chunk's reduction holds
# at its peak (see models._spectrum_chunks).  The log-sum-exp over
# temperatures: the scaled copy -beta sqrt(n) w (8), its shift in
# _logsumexp (8) and the tie mask (1), all three in the call's chunk
# workspace (_log_partition).  The Gibbs weights of the classical
# overlap: three float arrays at once (8 each), both in _gibbs_weights
# (-scale w, its exponential, the normalized weights) and in their
# Walsh-Hadamard transform (the weights and the two matrix products).
_LOGSUMEXP_BYTES = 17
_GIBBS_BYTES = 24
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# stirlerr(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi) for k < 16;
# stirlerr(0) is never read
_STIRLERR = np.array([0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
                              for k in range(1, 16)])


def delta_upper_bound(model: str, n: int, loc: int) -> float:
    """Rigorous upper bound on the commutation index of the term family,
    rounded up to a float (:func:`fermitheta.index._upper_bound_float`)."""
    if model == "classical":
        return 1.0  # commuting family
    if model not in _KINDS:
        raise InputError(f"unknown model {model!r}")
    return _upper_bound_float(_KINDS[model], n, loc)


def _check_samples(samples: int):
    if samples < MIN_SAMPLES:
        raise InputError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if samples > MAX_SAMPLES:
        raise CapacityError(f"{samples} samples exceed the cap of {MAX_SAMPLES}")


def _beta_list(values) -> list[float]:
    """The inverse temperatures as floats; an empty list is refused
    before any sample is drawn."""
    betas = [float(b) for b in values]
    if not betas:
        raise InputError("beta list must be nonempty")
    return betas


def _chunks(model: str, n: int, loc: int, seed: int, samples: int, reduce_bytes: int = 0,
            work: Workspace | None = None):
    """Spectra of samples 0..samples-1 as (b, d) chunks (see
    :func:`fermitheta.models.sample_spectra`), after the sample count is
    checked.  ``reduce_bytes`` per spectrum entry are the temporaries of
    the caller's reduction of a chunk, which its width makes room for (in
    ``work``, when the caller takes them from it)."""
    _check_samples(samples)
    return _spectrum_chunks(model, n, loc, seed, range(samples), reduce_bytes, work)


def _log_partition(model: str, n: int, loc: int, seed: int, samples: int, betas) -> np.ndarray:
    """ln Z of the rescaled model sqrt(n) H for samples 0..samples-1 at
    each of ``betas``, (samples, temperatures): the log-sum-exp of
    -beta sqrt(n) w over each spectrum w.  The scaled spectra, their shift
    and the tie mask of :func:`_logsumexp` (``_LOGSUMEXP_BYTES`` per entry
    and temperature) are taken from the call's chunk workspace, so every
    chunk reuses the same memory."""
    work = Workspace()
    chunks = _chunks(model, n, loc, seed, samples, _LOGSUMEXP_BYTES * len(betas), work)
    scale = -np.asarray(betas)[:, None] * math.sqrt(n)
    lnz = []
    for w in chunks:
        shape = (len(w), len(scale), w.shape[1])
        x = np.multiply(scale, w[:, None, :], out=work.take("scaled", shape))
        lnz.append(_logsumexp(x, work.take("shift", shape), work.take("ties", shape, bool)))
    return np.concatenate(lnz)


def _logsumexp(x: np.ndarray, shift=None, ties=None) -> np.ndarray:
    """log sum exp over the last axis of a finite real array.

    The arithmetic of ``scipy.special.logsumexp`` (scipy 1.17), step by
    step, so results are bit-identical to it: the maxima are taken out of
    the sum and counted, and the sum of the rest is scaled by the count.
    One call reduces a whole (samples, betas, d) chunk, where scipy's
    per-call overhead dominated at small d.  The shift x - max is the one
    full-size float temporary, besides the boolean tie mask: x - max is
    exactly 0 where x is a maximum, and the exponential, the zeroing of
    the ties and the sum all work in place on the shift, so ``x`` itself
    is left unchanged.  ``shift`` and ``ties``, arrays of x's shape, hold
    the two when given; new ones are allocated otherwise.
    """
    top = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, top, out=shift)
    ties = np.equal(e, 0, out=ties)
    count = ties.sum(axis=-1, keepdims=True, dtype=x.dtype)
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=ties)
    rest = e.sum(axis=-1, keepdims=True) / count
    return (np.log1p(rest) + np.log(count) + top)[..., 0]


def _gap(col: np.ndarray, n: int):
    """Per-site annealed minus quenched ln Z of one column of per-sample
    ln Z, its jackknife standard error, and the per-site annealed value
    with and without the bias correction."""
    ann, ann_raw, pseudo = jackknife_log_mean_exp(col)
    annealed = ann / n
    se = (pseudo / n - col / n).std(ddof=1) / math.sqrt(len(col))
    return annealed - col.mean() / n, se, annealed, ann_raw / n


def _fixed_state_energies(bank, psi: np.ndarray, n: int, q: int, seed: int, samples: int):
    """<psi|H|psi> of every SYK sample, g . <psi|A_i|psi> / sqrt(m), and its
    exact disorder variance (1/m) sum_i <psi|A_i|psi>^2."""
    a = bank.expectations(psi)
    e = np.array([g @ a for g in sample_couplings("syk", n, q, seed, range(samples))])
    return e / math.sqrt(len(a)), float(np.mean(a**2))


def _sector_pair(bank: TermBank, n: int) -> tuple[np.ndarray, np.ndarray]:
    """X = i g1 g2 and Y = i g3 g4 inside the sectors of ``bank``, as
    signed row permutations: (A v)[r] = sign[a, s, r] v[perm[a, s, r]] for
    a vector v of sector s in the coordinates of ``bank.sector_rows``
    (a = 0 for X, 1 for Y; both arrays (2, sectors, side)).

    Both operators have even-popcount x-masks, so they map each parity
    sector into itself; the signs and source rows are those of
    ``TermBank.apply``, read at the sector rows.
    """
    ops = OperatorSet("majorana", n, 2, (MajoranaMonomial(n, (1, 2)), MajoranaMonomial(n, (3, 4))))
    source, sign = TermBank.from_set(ops)._signed_permutation()
    rows = bank.sector_rows
    pos = np.empty(bank.dim, dtype=np.int64)  # index of each basis state within its sector
    pos[rows] = np.arange(rows.shape[1])
    return pos[source[:, rows]], sign[:, rows]


def _gibbs_weights(w: np.ndarray, scale) -> np.ndarray:
    """Gibbs weights exp(-scale w) / Z of the spectra along the last axis."""
    shifted = -scale * w
    p = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def _sector_gibbs(bank: TermBank, n: int, q: int, seed: int, samples: int, scale: float,
                  held: int):
    """SYK samples 0..samples-1 in chunks, each as its sector spectra w
    (b, sectors, side), sector eigenvectors v (b, sectors, side, side) and
    Gibbs weights p = exp(-scale w) / Z over all sectors (w's shape).  The
    chunk width makes room for ``held`` complex (side, side) arrays per
    sector and sample, the caller's own, besides the couplings and the
    eigensolve."""
    sectors, side = bank.sector_rows.shape
    for g in _coupling_chunks("syk", n, q, seed, range(samples), bank,
                              held * 16 * sectors * side * side):
        w, v = bank.sector_eigh(g)
        yield w, v, _gibbs_weights(w.reshape(len(g), -1), scale).reshape(w.shape)


def _gauss_hermite_expect(f, nodes: int = 301) -> float:
    """E[f(g)] for standard normal g by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return float(np.sum(w * f(np.sqrt(2.0) * x)) / np.sqrt(np.pi))


def _ln_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh that never overflows."""
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def free_energy_experiment(
    model: str,
    n: int,
    loc: int,
    beta_list,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Quenched versus annealed free energy with jackknife errors.

    Per-site quantities for the rescaled model sqrt(n) H: quenched is the
    sample mean of ln Z / n, annealed the bias-corrected log of the sample
    mean of Z over n.  Checks Jensen's ordering and the gap bound
    gap <= 4 beta^2 Delta_ub within confidence slack.
    """
    t0 = time.perf_counter()
    betas = _beta_list(beta_list)
    lnz = _log_partition(model, n, loc, seed, samples, betas)
    sqrt_n = math.sqrt(n)
    delta_ub = delta_upper_bound(model, n, loc)
    verdicts = []
    summary = {"beta": betas, "delta_upper": delta_ub, "model": model}
    per_beta = []
    for bi, b in enumerate(betas):
        col = lnz[:, bi]
        gap, se_gap, annealed, annealed_raw = _gap(col, n)
        entry = {
            "beta": b,
            "quenched": col.mean() / n,
            "quenched_se": col.std(ddof=1) / math.sqrt(samples) / n,
            "annealed": annealed,
            "annealed_raw": annealed_raw,
            "gap": gap,
            "gap_se": se_gap,
        }
        if model == "classical":
            entry["annealed_reference"] = log(2.0) + b * b / 2.0
        if model == "syk" and comb(n, loc) == 1:
            dim_log = (n // 2) * log(2.0)
            quad = _gauss_hermite_expect(lambda g: _ln_cosh(b * sqrt_n * g))
            entry["quenched_quadrature"] = (dim_log + quad) / n
            entry["annealed_analytic"] = (dim_log + b * b * n / 2.0) / n
        per_beta.append(entry)
        bound = 4.0 * b * b * delta_ub
        if b == 0.0:
            verdicts.append(
                Verdict(
                    name="zero_beta_gap[beta=0]",
                    passed=abs(gap) <= 1e-10,
                    bound_formula="gap == 0 at beta = 0",
                    details={"gap": gap},
                )
            )
            continue
        verdicts.append(
            Verdict(
                name=f"jensen_order[beta={b}]",
                passed=gap >= -3.0 * se_gap,
                bound_formula="annealed >= quenched within 3 SE",
                details={"gap": gap, "gap_se": se_gap},
            )
        )
        verdicts.append(
            Verdict(
                name=f"quenched_annealed_gap[beta={b}]",
                passed=gap <= bound + 3.0 * se_gap,
                bound_formula="gap <= 4*beta^2*Delta_ub + 3*SE",
                details={"gap": gap, "gap_se": se_gap, "bound": bound},
            )
        )
    summary["per_beta"] = per_beta
    return ExperimentReport(
        experiment="free_energy",
        params={
            "model": model,
            "n": n,
            "loc": loc,
            "beta_list": betas,
            "samples": samples,
            "threads": threads,
        },
        seed=seed,
        records={"ln_z": lnz},
        summary=summary,
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def gradcheck_logZ(n: int, q: int, beta: float, seed: int) -> ExperimentReport:
    """Analytic coupling-derivatives of ln Z versus central finite differences.

    The analytic form is d ln Z / d g_i = -beta sqrt(n/m) Tr(A_i rho_beta)
    for Z = Tr exp(-beta sqrt(n) H), at the couplings of sample 0.
    Checked on a seeded random subset of 20 coordinates with step 1e-5;
    the ``gradient_match`` verdict asks for a worst relative error of at
    most 1e-5.  Refused above n = 16 before sample 0 is drawn.
    """
    t0 = time.perf_counter()
    step = 1e-5
    couplings = sample_couplings("syk", n, q, seed, (0,))
    if n > 16:
        raise InputError("gradient check limited to dimension 2^8")
    (g0,) = couplings
    bank = model_bank("syk", n, q)
    m = len(bank)
    sqrt_n = math.sqrt(n)

    # rho keeps each parity sector: build it block by block from the sector pairs
    w, v = bank.sector_eigh(g0)
    p = _gibbs_weights(w.reshape(-1), beta * sqrt_n).reshape(w.shape)
    rho = np.zeros((bank.dim, bank.dim), dtype=complex)
    for rows, ps, vs in zip(bank.sector_rows, p, v):
        rho[np.ix_(rows, rows)] = (vs * ps) @ vs.conj().T
    # Tr(A_i rho) from rho[c, c ^ x_k] of every x-mask group k
    tr_arho = bank._traces(rho[np.arange(bank.dim), bank._targets])
    analytic_all = -beta * math.sqrt(n / m) * tr_arho
    picker = np.random.Generator(RandomStream(seed, 1)._bit_generator())
    coords = picker.permutation(m)[:20]
    # the couplings moved up (row 0) and down (row 1) along each coordinate,
    # solved in one stacked eigensolve
    shifted = np.tile(g0, (2, len(coords), 1))
    picked = np.arange(len(coords))
    shifted[0, picked, coords] += step
    shifted[1, picked, coords] -= step
    up, down = _logsumexp(-beta * sqrt_n * bank.eigvalsh(shifted))
    fd = (up - down) / (2 * step)
    an = analytic_all[coords]
    scale = np.abs(an).max()
    if scale == 0.0:
        max_rel = float(np.abs(fd).max())
    else:
        denom = np.maximum(np.abs(an), 1e-2 * scale)
        max_rel = float((np.abs(fd - an) / denom).max())
    return ExperimentReport(
        experiment="gradcheck",
        params={"n": n, "q": q, "beta": beta},
        seed=seed,
        records={"coords": coords, "analytic": an, "finite_diff": fd},
        summary={"max_rel_error": max_rel},
        verdicts=[
            Verdict(
                name="gradient_match",
                passed=max_rel <= 1e-5,
                bound_formula="max_i |fd_i - an_i| / max(|an_i|, 1e-2 max_j |an_j|) <= 1e-5",
                details={"max_rel_error": max_rel},
            )
        ],
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def _resolve_state(state_spec, n: int, q: int, seed: int) -> np.ndarray:
    dim = 1 << (n // 2)
    if isinstance(state_spec, str):
        if state_spec == "stabilized":
            return stabilized_state(commuting_majorana_family(n, q))
        if state_spec == "random":
            return random_state(RandomStream(seed, _AUX_STREAM_BASE), dim)
        raise InputError(f"unknown state spec {state_spec!r}")
    psi = np.asarray(state_spec, dtype=complex)
    if psi.shape != (dim,) or abs(np.vdot(psi, psi) - 1) > 1e-10:
        raise InputError("state must be a normalized vector of the model dimension")
    return psi


def _stirlerr(k) -> np.ndarray:
    """The error of Stirling's formula, log k! - log(sqrt(2 pi k) (k/e)^k),
    for integers k >= 1: exact from lgamma below 16, its asymptotic series
    above (the first omitted term is below 2e-16 there)."""
    k = np.asarray(k, dtype=float)
    small = k < _STIRLERR.size
    r = 1.0 / np.maximum(k, _STIRLERR.size)
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    return np.where(small, _STIRLERR[np.minimum(k, _STIRLERR.size - 1).astype(np.int64)], series)


def _log_factorial_ratio(n: int) -> float:
    """log(n! / n^n)."""
    return float(_LOG_SQRT_2PI + 0.5 * math.log(n) - n + _stirlerr(n))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n+ >= d), the one-sided Kolmogorov-Smirnov survival function,
    by the Birnbaum-Tingey sum over j = 0 .. n(1 - d):

        d sum_j C(n, j) (d + j/n)^(j-1) (1 - d - j/n)^(n-j).

    Term j > 0 is d/u times the binomial probability of j at u = d + j/n,
    evaluated in Loader's saddle-point form (Stirling errors and the
    deviances bd0, with log1p), so no term is the difference of two
    logarithms of size n.
    """
    nd = n * d
    j = np.arange(1.0, math.floor(n - nd) + 1)
    j = j[n - j > nd]  # u < 1
    rest = n - j
    bd0 = (nd - j * np.log1p(nd / j)) - (rest * np.log1p(-nd / rest) + nd)
    log_terms = (math.log(nd) - np.log(nd + j) + _stirlerr(n) - _stirlerr(j) - _stirlerr(rest)
                 - bd0 + 0.5 * np.log(n / (2.0 * math.pi * j * rest)))
    return math.exp(n * math.log1p(-d)) + float(np.exp(log_terms).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by Durbin's matrix: n!/n^n times the central entry of
    H^n, H of side 2k - 1 for k = ceil(n d) (Marsaglia, Tsang & Wang 2003).
    The power is taken by squaring, each square rescaled by a power of 2."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1.0, m + 1))))
    lag = np.arange(m)[:, None] - np.arange(m) + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    h_pow = h ** np.arange(1, m + 1) * inv_fact[1:]
    H[:, 0] -= h_pow
    H[-1] -= h_pow[::-1]
    H[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m * inv_fact[m]
    power, exponent, h_exponent, bits = None, 0, 0, n
    while True:
        if bits & 1:
            power = H if power is None else power @ H
            exponent += h_exponent
        bits >>= 1
        if not bits:
            break
        H = H @ H
        scale = int(np.frexp(np.abs(H).max())[1])
        H, h_exponent = np.ldexp(H, -scale), 2 * h_exponent + scale
    entry = power[k - 1, k - 1]
    if n <= 140:  # n!/n^n >= 1e-60: the product, as the Ruben-Gambino edge takes it
        return float(np.ldexp(entry * np.prod(np.arange(1, n + 1) / n), exponent))
    return float(entry * math.exp(_log_factorial_ratio(n) + exponent * math.log(2.0)))


def _pelz_good_sf(n: int, d: float) -> float:
    """P(D_n >= d) by the Pelz-Good (1976) expansion: the Li-Chien and
    Korolyuk series K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z = d sqrt(n),
    each term transformed by Jacobi's theta identity to sums over
    exp(-pi^2 (2k-1)^2 / (8 z^2)) and exp(-pi^2 k^2 / (2 z^2))."""
    z2 = n * d * d
    z = math.sqrt(z2)
    pi2 = math.pi ** 2
    if pi2 / (8.0 * z2) > 708.0:  # every term underflows
        return 1.0
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1)
    ksq, msq = k * k, (2.0 * k - 1.0) ** 2
    odd = np.exp(-pi2 / (8.0 * z2) * msq)
    even = np.exp(-pi2 / (2.0 * z2) * ksq) * ksq
    c1 = pi2 / 4 * msq - z2
    c2 = (6 * z2**3 + 2 * z2**2 + pi2 / 4 * (2 * z2**2 - 5 * z2) * msq
          + pi2**2 / 16 * (1 - 2 * z2) * msq**2)
    c3 = (-30 * z2**3 - 90 * z2**4 + pi2 / 4 * (135 * z2**2 - 96 * z2**3) * msq
          + pi2**2 / 16 * (212 * z2**2 - 60 * z2) * msq**2 + pi2**3 / 64 * (5 - 30 * z2) * msq**3)
    s = math.sqrt(2.0 * math.pi)
    k0 = s / z * odd.sum()
    k1 = s / (6 * z2**2) * (c1 @ odd)
    k2 = s / (72 * z2**3 * z) * (c2 @ odd) - pi2 * s / (36 * z2 * z) * even.sum()
    k3 = s / (6480 * z2**5) * (c3 @ odd) + pi2 * s / (216 * z2**3) * ((3 * z2 - pi2 * ksq) @ even)
    root = math.sqrt(n)
    return (1.0 - k0) - k1 / root - k2 / n - k3 / (n * root)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d), the two-sided one-sample Kolmogorov survival function.

    The method follows Simard & L'Ecuyer (2011) region by region, as
    ``scipy.stats.kstwo.sf`` does: the Ruben-Gambino closed forms at
    n d <= 1 and n d >= n - 1; twice the one-sided Smirnov sum where the
    two one-sided events cannot both happen (d >= 1/2) or where the
    chance that both happen is negligible (n d^2 > 4 for n <= 140, under
    1e-12 of p; n d^2 >= 2.2 above, under 2e-6 of p; 0 from n d^2 >= 370);
    Durbin's exact matrix for n <= 140 and where n d^1.5 <= 1.4
    (n <= 10^5); the Pelz-Good expansion in the rest of the body.
    """
    t = n * d
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        if n <= 140:
            return 1.0 - float(np.prod(np.arange(1, n + 1) / n * (2.0 * t - 1.0)))
        return 1.0 - math.exp(_log_factorial_ratio(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if d < 0.5 and n > 140 and nd2 >= 370.0:
        return 0.0
    if d >= 0.5 or nd2 > 4.0 or (n > 140 and nd2 >= 2.2):
        return min(2.0 * _smirnov_sf(n, d), 1.0)
    if n <= 140 or (n <= 100000 and n * d**1.5 <= 1.4):
        return 1.0 - _durbin_cdf(n, d)
    return _pelz_good_sf(n, d)


def _ks_normal(x: np.ndarray) -> tuple[float, float]:
    """Kolmogorov-Smirnov test of a sample against the standard normal law:
    the statistic D = max(D+, D-) and its two-sided p-value P(D_n >= D),
    the values of ``scipy.stats.kstest(x, "norm")``."""
    x = np.sort(x)
    n = x.size
    cdf = 0.5 * np.fromiter(map(math.erfc, (x * -math.sqrt(0.5)).tolist()), float, n)
    d = float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))
    return d, min(max(_kolmogorov_sf(n, d), 0.0), 1.0)


def variance_identity_experiment(
    state_spec,
    n: int,
    q: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ExperimentReport:
    """Disorder variance of a fixed state's energy against the exact sum.

    For a state psi independent of the couplings, <psi|H|psi> is Gaussian
    with variance (1/m) sum_i <psi|A_i|psi>^2 exactly; the experiment
    checks the empirical variance (z-score) and Gaussianity: a
    Kolmogorov-Smirnov test of the standardized energies against the
    normal law (:func:`_ks_normal`, the statistic and exact p-value of
    ``scipy.stats.kstest(x, "norm")`` in numpy).  ``gaussian_ks`` is a
    statistical verdict at the 1% level, so a correct program fails it on
    about 1% of seeds (seed 108 of the random state at (8, 4) with 1000
    samples is one).
    """
    t0 = time.perf_counter()
    _check_samples(samples)
    bank = model_bank("syk", n, q)
    psi = _resolve_state(state_spec, n, q, seed)
    e, exact_var = _fixed_state_energies(bank, psi, n, q, seed, samples)
    emp_var = float(e.var(ddof=1))
    se_var = exact_var * math.sqrt(2.0 / (samples - 1))
    z = (emp_var - exact_var) / se_var
    ks_stat, ks_p = _ks_normal(e / math.sqrt(exact_var))
    verdicts = [
        Verdict(
            name="variance_identity",
            passed=abs(z) <= 4.0,
            bound_formula="|empirical var - (1/m) sum <A_i>^2| <= 4 SE",
            details={"z": z, "empirical": emp_var, "exact": exact_var},
        ),
        Verdict(
            name="gaussian_ks",
            passed=bool(ks_p >= 0.01),
            bound_formula="KS test vs exact normal law at the 1% level",
            details={"statistic": float(ks_stat), "pvalue": float(ks_p)},
        ),
    ]
    return ExperimentReport(
        experiment="variance_identity",
        params={
            "state": state_spec if isinstance(state_spec, str) else "explicit",
            "n": n,
            "q": q,
            "samples": samples,
            "threads": threads,
        },
        seed=seed,
        records={"energy": e},
        summary={"exact_variance": exact_var, "empirical_variance": emp_var, "z": z},
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def _check_tail(quantity: str, n: int):
    """Refuse an unknown tail quantity, or a Gibbs observable on fewer
    than the 4 modes that X = i g1 g2 and Y = i g3 g4 act on."""
    if quantity not in TAIL_QUANTITIES:
        raise InputError(f"unknown tail quantity {quantity!r}")
    if quantity in ("obs_expectation", "two_point") and n < 4:
        raise InputError(f"{quantity} needs n >= 4: X = i g1 g2 and Y = i g3 g4 act on modes 1 to 4")


def _gaussian_curve(prefactor: float):
    """The sub-Gaussian curve prefactor exp(-t^2 / s) at scale s."""
    return lambda t, s: prefactor * math.exp(-t * t / s)


def tail_experiment(
    quantity: str,
    params: dict,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical exceedance frequencies against a concentration curve.

    Quantities: lambda_max, fixed_state_energy, obs_expectation,
    thermal_energy, two_point.  ``params`` holds ``n`` and ``q`` and,
    optionally, ``beta`` (default 1) and ``tau`` (default 0.5); the
    fixed state is the seeded random one.  The deviations t run over the
    fixed grid 0.2, 0.4, ..., 2.0 (``T_GRID``).  Each grid point passes
    when the one-sided 99% lower confidence limit of the exceedance
    frequency sits at or below the theorem curve evaluated with the
    rigorous index bound.  Each curve has a scale s, the denominator of
    its exponent (for thermal_energy, 4 beta^2 n); where s = 0 (beta = 0
    for the Gibbs quantities, beta = tau = 0 for two_point) the curve is
    undefined and each of its grid points is skipped with a note.

    obs_expectation is vacuous for q = 0 mod 4: the antiunitary P = M K
    (M the image of g1 g3 ... g_{n-1}) sends every g_j to +-g_j, so it
    leaves H unchanged and sends X = i g1 g2 to -X, and <X> = 0 in every
    Gibbs state; the recorded values are rounding noise (below 1e-15 at
    n = 8 to 14).
    """
    t0 = time.perf_counter()
    n = int(params["n"])
    q = int(params["q"])
    _check_tail(quantity, n)
    _check_samples(samples)
    beta = float(params.get("beta", 1.0))
    tau = float(params.get("tau", 0.5))
    bank = model_bank("syk", n, q)
    delta_ub = delta_upper_bound("syk", n, q)
    sqrt_n = math.sqrt(n)
    grid: list[dict] = []
    notes: list[str] = []
    summary = {"quantity": quantity, "delta_upper": delta_ub, "grid": grid, "notes": notes}

    # each branch names its records and its series: (label, values, the
    # curve's scale s, the curve at deviation t and scale s, its formula)
    if quantity == "lambda_max":
        # a copy per chunk, so no view keeps its chunk's (b, d) spectrum alive
        lam = np.concatenate([w[:, -1].copy() for w in _chunks("syk", n, q, seed, samples)])
        records = {"lambda_max": lam}
        series = [("lambda_max", lam, 2.0 * delta_ub, _gaussian_curve(2.0),
                   "P(|lam - mean| >= t) <= 2 exp(-t^2 / (2 Delta_ub))")]
    elif quantity == "fixed_state_energy":
        psi = _resolve_state("random", n, q, seed)
        energy, sigma_sq = _fixed_state_energies(bank, psi, n, q, seed, samples)
        records = {"energy": energy}
        summary["sigma_sq_exact"] = sigma_sq
        series = [("fixed_state_energy", energy, 2.0 * sigma_sq, _gaussian_curve(1.0),
                   "P(|E - mean| >= t) <= exp(-t^2 / (2 sigma^2)), sigma^2 exact")]
    elif quantity == "thermal_energy":
        lam, energy = [], []
        for w in _chunks("syk", n, q, seed, samples, _GIBBS_BYTES + 8):  # the weights, w p
            lam.append(w[:, -1].copy())
            energy.append(np.sum(w * _gibbs_weights(w, beta * sqrt_n), axis=-1))
        pilot = max(1, samples // 10)
        records = {"lambda_max_pilot": np.concatenate(lam)[:pilot],
                   "thermal_energy": np.concatenate(energy)[pilot:]}
        lam_bar = float(records["lambda_max_pilot"].mean())

        def thermal_curve(t, s):  # s = 4 beta^2 n
            alpha = 0.5 * (1.0 / s + lam_bar**2)
            return 4.0 * math.exp(-(math.sqrt(t * t / (12.0 * beta * beta * n) + alpha * alpha)
                                    - alpha) / (2.0 * delta_ub))

        series = [("thermal_energy", records["thermal_energy"], 4.0 * beta * beta * n,
                   thermal_curve,
                   "P(|Tr(H rho) - mean| >= t) <= 4 exp(-(sqrt(t^2/(12 b^2 n) + a^2) - a)/(2 Delta_ub))")]
    elif quantity == "obs_expectation":
        perm, sign = _sector_pair(bank, n)
        at = np.arange(perm.shape[1])[:, None]
        # <X> = sum_sk p_sk <v_sk|X|v_sk>; held at the peak: v, X v and v^dagger
        obs = np.concatenate([
            np.einsum("bsrk,bsrk,bsk->b", v.conj(), sign[0, :, :, None] * v[:, at, perm[0]], p).real
            for _, v, p in _sector_gibbs(bank, n, q, seed, samples, beta * sqrt_n, 3)
        ])
        records = {"obs": obs}
        series = [("obs_expectation", obs, 18.0 * beta * beta * delta_ub, _gaussian_curve(2.0),
                   "P(|Tr(X rho) - mean| >= t) <= 2 exp(-t^2 / (18 beta^2 |X|^2 Delta_ub))")]
    else:  # two_point
        perm, sign = _sector_pair(bank, n)
        at = np.arange(perm.shape[1])[:, None]
        traces = []
        # held at the peak, the product X~, Y~ = v^dagger (X v, Y v): 5.0
        # arrays per sample at n = 10 and 4.9 at n = 12 by tracemalloc
        for w, v, p in _sector_gibbs(bank, n, q, seed, samples, beta * sqrt_n, 5):
            # X and Y keep each sector, so Tr(X Y(tau) rho) is a sum over
            # sectors of sum_jk p_k X~_kj e^{i tau sqrt(n) w_j} Y~_jk e^{-i tau sqrt(n) w_k}
            av = sign[:, None, :, :, None] * np.moveaxis(v[:, at, perm], 1, 0)
            Xt, Yt = np.swapaxes(v.conj(), -1, -2) @ av
            del av
            e = np.exp(1j * tau * sqrt_n * w)
            # one temporary, multiplied in place in left-to-right order: same bits
            val = (p * e.conj())[..., None] * Xt
            val *= e[..., None, :]
            val *= np.swapaxes(Yt, -1, -2)
            traces.append(np.sum(val, axis=(1, 2, 3)))
        trace = np.concatenate(traces)
        records = {"two_point_hermitian": trace.real, "two_point_antihermitian": trace.imag}
        scale = 6.0 * n * (5.0 * beta * beta + 16.0 * tau * tau) * delta_ub
        formula = ("P(|part(Tr(X Y(tau) rho)) - mean| >= t) <= "
                   "2 exp(-t^2 / (6 n (5 beta^2 + 16 tau^2) Delta_ub))")
        series = [(label, part, scale, _gaussian_curve(2.0), formula)
                  for label, part in records.items()]

    verdicts = []
    for label, values, scale, curve, formula in series:
        dev = np.abs(values - values.mean())
        for t in T_GRID:
            if scale == 0.0:
                notes.append(f"{label}: bound undefined at t={t}; skipped")
                continue
            bound = curve(t, scale)
            k = int(np.sum(dev >= t))
            freq = k / len(values)
            lo, hi = wilson_interval(k, len(values))
            grid.append({"series": label, "t": t, "exceedances": k, "frequency": freq,
                         "wilson_lower": lo, "wilson_upper": hi, "bound": bound})
            verdicts.append(Verdict(name=f"{label}[t={t}]", passed=lo <= bound,
                                    bound_formula=formula,
                                    details={"frequency": freq, "wilson_lower": lo, "bound": bound}))
    return ExperimentReport(
        experiment="tails",
        params={
            "quantity": quantity,
            "n": n,
            "q": q,
            "beta": beta,
            "tau": tau,
            "samples": samples,
            "t_grid": list(T_GRID),
            "threads": threads,
        },
        seed=seed,
        records=records,
        summary=summary,
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def mgf_check(
    n: int,
    q: int,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Moment generating function of the centered maximal eigenvalue.

    Sub-Gaussian concentration at rate Delta implies
    E exp(t (lam - E lam)) <= exp(4 Delta t^2); checked against the sample
    MGF with one-sided confidence slack at each t of ``MGF_T_GRID``.  The
    stability cutoff t_max = 2/sqrt(Delta) is reported; Delta <= 1 (theta
    <= m), so t_max >= 2 and no grid point lies beyond it.
    """
    t0 = time.perf_counter()
    chunks = _chunks("syk", n, q, seed, samples)
    delta_ub = delta_upper_bound("syk", n, q)
    lam = np.concatenate([w[:, -1].copy() for w in chunks])
    centered = lam - lam.mean()
    t_max = 2.0 / math.sqrt(delta_ub)
    rows = []
    verdicts = []
    for t in MGF_T_GRID:
        vals = np.exp(t * centered)
        mgf = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(samples))
        bound = math.exp(4.0 * delta_ub * t * t)
        rows.append({"t": t, "mgf": mgf, "se": se, "bound": bound})
        verdicts.append(
            Verdict(
                name=f"mgf[t={t}]",
                passed=mgf - Z99 * se <= bound,
                bound_formula="E exp(t(lam - mean)) <= exp(4 Delta_ub t^2) + CI slack",
                details={"mgf": mgf, "se": se, "bound": bound},
            )
        )
    return ExperimentReport(
        experiment="mgf",
        params={"n": n, "q": q, "samples": samples, "t_grid": list(MGF_T_GRID), "threads": threads},
        seed=seed,
        records={"lambda_max": lam},
        summary={"delta_upper": delta_ub, "rows": rows, "notes": [], "t_max": t_max},
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def exp_moment_check(
    n: int,
    q: int,
    beta_grid,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Normalized-trace exponential moments of the unrescaled Hamiltonian.

    Compares E tr exp(beta H) / dim against exp(beta^2/2) and fits the
    smallest constant c1 for which the lower bound
    exp(beta^2/2 (1 - c1 beta^2 h_comm / (2 m))) holds across the grid.
    The fitted c1 is reported as a diagnostic, not asserted; it is fitted
    at every nonzero beta, and beta == 0 checks the normalization instead.
    A beta whose reference exp(beta^2/2) overflows a float is refused, and
    so is q = n, where h_comm = 0 leaves c1 undefined.
    """
    t0 = time.perf_counter()
    _check_q_below_n(n, q)
    betas = _beta_list(beta_grid)
    for b in betas:
        if b * b / 2.0 > _LOG_FLOAT_MAX:
            raise InputError(f"exp(beta^2/2) overflows a float at beta={b}")
    chunks = _chunks("syk", n, q, seed, samples, 16 * len(betas))  # beta w and its exponential
    m = comb(n, q)
    hc = h_comm_count("majorana", n, q)
    grid = np.array(betas)[:, None]
    tr_exp = np.concatenate([np.mean(np.exp(grid * w[:, None, :]), axis=-1) for w in chunks])
    rows = []
    c1_fit = 0.0
    verdicts = []
    for bi, b in enumerate(betas):
        col = tr_exp[:, bi]
        est = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(samples))
        gauss = math.exp(b * b / 2.0)
        row = {"beta": b, "mean": est, "se": se, "gaussian_reference": gauss}
        if b != 0.0:  # the bound depends on beta only through b^2 and b^4
            ln_est = math.log(est)
            row["c1_required"] = max(0.0, (b * b / 2.0 - ln_est) * 4.0 * m / (b**4 * hc))
            c1_fit = max(c1_fit, row["c1_required"])
        else:
            verdicts.append(
                Verdict(
                    name="zero_beta_normalization",
                    passed=abs(est - 1.0) <= 1e-12,
                    bound_formula="tr exp(0)/dim == 1",
                    details={"mean": est},
                )
            )
        rows.append(row)
    positive = [b for b in betas if b > 0.0]
    if positive:
        b_small = min(positive)
        col = tr_exp[:, betas.index(b_small)]
        est = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(samples))
        taylor = 1.0 + b_small * b_small / 2.0
        verdicts.append(
            Verdict(
                name=f"small_beta_taylor[beta={b_small}]",
                passed=abs(est - taylor) <= b_small**4 + 4.0 * se,
                bound_formula="E tr exp(bH)/dim = 1 + b^2/2 + O(b^4) (unit tr H^2)",
                details={"mean": est, "taylor": taylor, "se": se},
            )
        )
    return ExperimentReport(
        experiment="exp_moment",
        params={"n": n, "q": q, "beta_grid": betas, "samples": samples, "threads": threads},
        seed=seed,
        records={"trace_exp": tr_exp},
        summary={"rows": rows, "fitted_c1": c1_fit, "h_comm": hc, "m": m},
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def classical_overlap_experiment(
    n: int,
    p: int,
    beta_grid,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Gibbs second moment of the replica overlap, exactly per sample.

    For each disorder draw the 2^n-configuration Gibbs measure is computed
    exactly, giving <R^2> = (1/n^2) sum_ij <s_i s_j>^2; the report tracks
    its disorder mean across temperatures together with the classical
    threshold constants sqrt(2 ln 2) and (1 - 2^-p) sqrt(2 ln 2).
    """
    t0 = time.perf_counter()
    if n > 20:
        raise InputError("exact Gibbs enumeration limited to 20 spins")
    betas = _beta_list(beta_grid)
    chunks = _chunks("classical", n, p, seed, samples, _GIBBS_BYTES * len(betas))
    scales = np.array([b * math.sqrt(n) for b in betas])[:, None]
    # <s_j s_k> is the Walsh-Hadamard coefficient of the Gibbs weights at
    # mask (1 << j) | (1 << k); the n diagonal terms are 1
    pairs = np.array([(1 << j) | (1 << k) for j, k in itertools.combinations(range(n), 2)],
                     dtype=np.int64)

    def r2_of(energies: np.ndarray) -> np.ndarray:
        w = _gibbs_weights(energies[:, None, :], scales)
        corr = _walsh_hadamard(w)[..., pairs]
        return (n + 2.0 * np.sum(corr**2, axis=-1)) / (n * n)

    r2 = np.concatenate([r2_of(e) for e in chunks])
    rows = []
    verdicts = []
    for bi, b in enumerate(betas):
        col = r2[:, bi]
        rows.append(
            {
                "beta": b,
                "mean_r2": float(col.mean()),
                "se": float(col.std(ddof=1) / math.sqrt(samples)),
            }
        )
        if b == 0.0:
            verdicts.append(
                Verdict(
                    name="independent_spins[beta=0]",
                    passed=bool(np.abs(col - 1.0 / n).max() <= 1e-10),
                    bound_formula="<R^2> = 1/n at infinite temperature",
                    details={"max_deviation": float(np.abs(col - 1.0 / n).max())},
                )
            )
    increasing = np.all(np.diff(r2, axis=1) >= -1e-12)
    if len(betas) > 1 and sorted(betas) == betas:
        verdicts.append(
            Verdict(
                name="overlap_monotone_in_beta",
                passed=bool(increasing),
                bound_formula="<R^2> nondecreasing in beta per sample",
                details={"fraction_monotone": float(np.mean(np.all(np.diff(r2, axis=1) >= -1e-12, axis=1)))},
            )
        )
    summary = {
        "rows": rows,
        "glass_threshold": math.sqrt(2.0 * math.log(2.0)),
        "glass_threshold_lower": (1.0 - 2.0 ** (-p)) * math.sqrt(2.0 * math.log(2.0)),
    }
    return ExperimentReport(
        experiment="classical_overlap",
        params={"n": n, "p": p, "beta_grid": betas, "samples": samples, "threads": threads},
        seed=seed,
        records={"r2": r2},
        summary=summary,
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )


def glassiness_contrast(
    n_list,
    beta: float,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Quenched/annealed gap trend: fermionic ensemble versus classical spins.

    At matched inverse temperature the degree-4 fermionic gap should not
    grow with system size (within 2 SE between consecutive sizes) while
    the classical 4-spin gap stays bounded away from zero (5 SE at the
    largest size).  This is a finite-size trend check, not an asymptotic
    statement.  A size list that is empty or not strictly increasing, the
    sample count and the rules and caps of both models at every size are
    all checked before the first sample is drawn.
    """
    t0 = time.perf_counter()
    n_list = [int(v) for v in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError(f"size list must be nonempty and strictly increasing, got {n_list}")
    _check_samples(samples)
    syk_rows, cl_rows, p = [], [], 4
    runs = ((syk_rows, "syk", seed), (cl_rows, "classical", seed + 1))
    for n in n_list:
        for _, model, _ in runs:
            _check(model, n, p)
    for n in n_list:
        for rows, model, model_seed in runs:
            lnz = _log_partition(model, n, p, model_seed, samples, [beta])[:, 0]
            gap, se = _gap(lnz, n)[:2]
            rows.append({"n": n, "gap": gap, "se": se})
    verdicts = []
    for a, b in zip(syk_rows, syk_rows[1:]):
        tol = 2.0 * math.hypot(a["se"], b["se"])
        verdicts.append(
            Verdict(
                name=f"syk_gap_nonincreasing[{a['n']}->{b['n']}]",
                passed=b["gap"] <= a["gap"] + tol,
                bound_formula="gap(n') <= gap(n) + 2 SE for n' > n",
                details={"gap_from": a["gap"], "gap_to": b["gap"], "slack": tol},
            )
        )
    last = cl_rows[-1]
    verdicts.append(
        Verdict(
            name=f"classical_gap_positive[n={last['n']}]",
            passed=last["gap"] >= 5.0 * last["se"],
            bound_formula="classical gap exceeds 5 SE above zero",
            details=last,
        )
    )
    return ExperimentReport(
        experiment="glassiness_contrast",
        params={"n_list": n_list, "beta": beta, "samples": samples, "threads": threads},
        seed=seed,
        records={
            "syk_gap": np.array([r["gap"] for r in syk_rows]),
            "classical_gap": np.array([r["gap"] for r in cl_rows]),
        },
        summary={"syk": syk_rows, "classical": cl_rows, "beta": beta},
        verdicts=verdicts,
        duration_ms=(time.perf_counter() - t0) * 1e3,
    )
