"""Random Hamiltonian ensembles and the associated bound calculators.

Every ensemble draws i.i.d. standard normal couplings over a fixed,
lexicographically enumerated term family and normalizes by the square root
of the term count, so the normalized trace of H^2 has unit expectation.
Sample i of (model, n, loc, seed) is defined in one place:
:func:`sample_couplings` draws its couplings from stream i and
:func:`sample_spectra` its spectrum.  Both check the model rules and the
caps once per call, before any term bank or 2^n array exists: a SYK or
spin-glass model as its term bank's family (``algebra._admit_bank``: its
dense dimension, size and term-bank entries), a classical one against its
spin count; the CLI ``model`` command and every lab experiment draw their
samples through them.
Samples are assembled and diagonalized by the term kernel
:class:`fermitheta.algebra.TermBank` (re-exported here with
:func:`term_bank`): grouping a family by x-mask turns the coefficients of
one group, over all columns c, into the Walsh-Hadamard transform of its
couplings placed at their z-masks, so a sample is assembled by one small
transform and one plain assignment.  When every x-mask has even popcount
(even-degree Majorana families), H also preserves the parity of
popcount(c) and its spectrum is computed from two half-size blocks.  At
n = 2 mod 4 the particle-hole antiunitary of the bank maps one block onto
the other (``TermBank.mirror``), so only one is solved: the SYK banks at
n = 10 and 18 are mirrored, those at n = 8 and 12 are not, and the
spin-glass (Pauli) banks, which have no parity blocks, never are.
Classical p-spin energies over all 2^n configurations are the same
Walsh-Hadamard transform, applied to the couplings placed at the spin
masks of their subsets.

Spectra are produced in chunks of b consecutive samples
(:func:`_spectrum_chunks`): at small dimension the cost of a sample is
the fixed cost of each numpy, LAPACK and reduction call, which one call
per chunk shares among b samples.  Each stream's couplings and each
classical sample are still drawn on their own, and the batched
eigensolve gives every sample the arithmetic it gets alone, so chunking
changes no bit of any spectrum.  One byte budget, ``_CHUNK_BYTES``, sizes
every chunk: the spectra's, and the couplings' of the eigenvector path
of the Gibbs observables (:func:`_coupling_chunks`).  Each path counts
the bytes that one sample adds to its chunk from the arrays it holds:
the couplings, the eigensolve's table, transform and blocks, the
spectrum, and the temporaries of the caller's reduction (the (beta, d)
arrays of lab's log-sum-exp, or the sector eigenvectors and transformed
operators of the Gibbs observables).  The same counts size one
workspace per call (:class:`~fermitheta.kernel.Workspace`): the stacks,
the eigensolve's arrays and the log-sum-exp's are carved from one buffer
allocated once, and every chunk of the call writes into it in place, so
no chunk array is allocated, zero-filled or faulted in again.  The
budget, chosen by the sweep recorded beside ``_CHUNK_BYTES``, gives the
d = 16 free energy 50 to 80 samples per chunk and classical (12, 4)
three, and makes b = 1 at d = 512, where a chunk would only add memory.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, log

import numpy as np

from .algebra import (
    TermBank,
    _admit_bank,
    _pauli_masks,
    _walsh_hadamard,
    term_bank,
)
from .kernel import CapacityError, InputError, RandomStream, Workspace, gaussian_stream
from .index import _upper_bound_float

__all__ = [
    "TermBank",
    "term_bank",
    "model_bank",
    "sample_couplings",
    "sample_spectra",
    "sample_classical_pspin",
    "h_comm_count",
    "lambda_max_lower_bound",
    "BoundsReport",
    "ansatz_bounds_report",
    "depolarized_energy_identity",
]

MAX_CLASSICAL_SPINS = 22
# Working-set budget of one chunk of samples: every chunk of spectra
# (_spectrum_chunks) and every chunk of couplings on the eigenvector path
# (lab.tail_experiment) holds at most this many bytes of per-sample arrays,
# as each path counts them (at least one sample).  The same counts size the
# one workspace of a sampling call, so the budget also bounds the buffer
# that a call allocates once and every chunk reuses.  Interleaved sweep, median
# ms of 21 runs, one BLAS thread on a 2-core Intel Xeon (2 MiB L2 per core);
# free energy over 250 samples at three betas, Gibbs observables over 600
# samples at n = 10 (samples per chunk in brackets):
#
#   budget  syk (8,4)   sg (4,2)   classical (12,4)  obs_expectation  two_point
#   256 KiB 15.0 [28]   17.6 [21]  44.1 [1]          106 [5]          142 [3]
#   384 KiB 14.2 [42]   16.8 [31]  42.6 [1]           94 [7]          134 [4]
#   512 KiB 14.4 [56]   17.5 [42]  40.7 [2]           93 [10]         116 [6]
#   640 KiB 14.2 [70]   16.8 [52]  41.3 [2]           89 [12]         110 [7]
#   768 KiB 14.2 [84]   16.8 [63]  42.5 [3]           93 [15]         113 [9]
#     1 MiB 14.7 [112]  16.8 [84]  43.9 [4]           88 [20]         108 [12]
#   1.5 MiB 14.5 [168]  17.7 [126] 43.4 [6]           86 [30]         104 [18]
#     2 MiB 15.1 [224]  16.9 [169] 67.6 [8]           89 [40]         102 [24]
#
# The benchmark's pass_rel (median of 3-4 interleaved runs) was 52.9 / 51.7 /
# 52.6 on mc-small-d and 69.1 / 68.5 / 70.9 on mc-observables at 640 KiB /
# 768 KiB / 1 MiB, with peak RSS rising by about 0.4 MB per step.  768 KiB
# is the smallest budget at that flat optimum.  Classical chunks slow down
# sharply from b = 5 on (their working set nears the 2 MiB L2 cache), and
# the budget must stay below the 3.6 MiB of one syk (18, 4) sample so that
# d = 512 runs one sample at a time.  The bracketed widths are those of the
# sweep's counts; with the couplings counted once, two_point holding 5
# sector arrays and the eigensolve's table, transform and transform step
# counted at 8 bytes per table entry each, 768 KiB gives 76, 54, 3, 13 and 10.
_CHUNK_BYTES = 768 << 10
_KINDS = {"syk": "majorana", "sg": "pauli"}


def _check(model: str, n: int, loc: int) -> int:
    """Term count m of (model, n, loc), checked against the rules and caps
    (SYK and spin glass by ``algebra._admit_bank``) before anything is allocated."""
    if model in _KINDS:
        return _admit_bank(_KINDS[model], n, loc)
    if model != "classical":
        raise InputError(f"unknown model {model!r}")
    if not 0 < loc <= n:
        raise InputError("p must lie in 1..n")
    if n > MAX_CLASSICAL_SPINS:
        raise CapacityError(f"{n} spins exceed the enumeration budget of {MAX_CLASSICAL_SPINS}")
    return comb(n, loc)


def model_bank(model: str, n: int, loc: int) -> TermBank:
    """Term bank of a quantum model (``syk`` or ``sg``), built only after
    the checks of :func:`sample_couplings` pass."""
    _check(model, n, loc)
    if model == "classical":
        raise InputError("the classical model has no term bank")
    return term_bank(_KINDS[model], n, loc)


def sample_couplings(model: str, n: int, loc: int, seed: int, streams):
    """Gaussian couplings of the samples at the given stream indices.

    Sample i of (model, n, loc, seed) is ``gaussian_stream(RandomStream(seed,
    i), m)``, ordered like the lexicographic term enumeration.  The model
    rules and the caps are checked once, before the generator is returned.
    """
    m = _check(model, n, loc)
    return (gaussian_stream(RandomStream(seed, i), m) for i in streams)


def sample_spectra(model: str, n: int, loc: int, seed: int, streams):
    """Spectrum of each sample at the given stream indices, in order.

    SYK and spin-glass samples give their ascending eigenvalues
    (``bank.eigvalsh``), classical p-spin samples their energies in
    configuration order.  Everything is checked, and the term bank built,
    before the generator is returned.  The spectra are copies of the rows
    of :func:`_spectrum_chunks`, which reuse their memory from chunk to
    chunk, so each is the caller's own array, bit-identical to one
    ``bank.eigvalsh`` call per sample.
    """
    return (w.copy() for chunk in _spectrum_chunks(model, n, loc, seed, streams) for w in chunk)


def _chunk_size(sample_bytes: int) -> int:
    """Samples per chunk: as many as fit ``_CHUNK_BYTES``, at least one."""
    return max(1, _CHUNK_BYTES // sample_bytes)


def _spectrum_chunks(model: str, n: int, loc: int, seed: int, streams, reduce_bytes: int = 0,
                     work: Workspace | None = None):
    """The spectra of :func:`sample_spectra` as (b, d) arrays of b
    consecutive samples.

    A SYK or spin-glass chunk stacks the b streams' couplings, each still
    drawn by its own ``gaussian_stream``, and solves every parity block of
    every sample in one ``bank.eigvalsh`` call; a classical chunk stacks b
    ``sample_classical_pspin`` energy arrays.  b is bounded by
    ``_CHUNK_BYTES`` over the bytes that one sample adds to a chunk:

    - its spectrum, 8 bytes per entry (a new array per chunk);
    - the temporaries of the caller's reduction of the chunk,
      ``reduce_bytes`` per spectrum entry (lab's log-sum-exp over the
      temperatures, for example);
    - for SYK and spin-glass samples, its couplings and eigensolve, 8 bytes
      per term and ``bank.sample_bytes``; for classical samples the row of
      energies, 8 bytes per entry.

    So large dimensions run one sample at a time.  The stacks and the
    eigensolve's arrays are taken from one :class:`Workspace` per call,
    allocated before the generator is returned, so each chunk reuses the
    memory of the one before: a chunk is valid until the next is drawn.
    The workspace has room for the reduction's ``reduce_bytes`` too: a
    caller that passes its own unallocated ``work`` takes those arrays from
    it.  Checked like :func:`sample_spectra`, before the generator is
    returned.
    """
    work = Workspace() if work is None else work
    if model == "classical":
        _check(model, n, loc)
        size = _chunk_size((8 + reduce_bytes) << n)
        work.allocate(size * ((8 + reduce_bytes) << n))
        energies = (sample_classical_pspin(n, loc, seed, stream=i) for i in streams)
        return _stacks(energies, work.take("stack", (size, 1 << n)))
    bank = model_bank(model, n, loc)
    m, d = len(bank), bank.dim
    size = _chunk_size(8 * m + bank.sample_bytes + (8 + reduce_bytes) * d)
    work.allocate(size * (8 * m + bank.sample_bytes + reduce_bytes * d))
    stacks = _stacks(sample_couplings(model, n, loc, seed, streams), work.take("stack", (size, m)))
    return (bank._eigvalsh(g, work.take) for g in stacks)


def _coupling_chunks(model: str, n: int, loc: int, seed: int, streams, bank: TermBank,
                     held_bytes: int):
    """The couplings of :func:`sample_couplings` as (b, m) stacks of b
    consecutive samples, for an eigensolve by ``bank``; the last one may
    be shorter.  b is bounded by ``_CHUNK_BYTES`` over the bytes that one
    sample adds to a chunk:

    - its couplings, 8 bytes per term, in one (b, m) array per call that
      every chunk reuses (see :func:`_stacks`);
    - the eigensolve's working set, ``bank.sample_bytes``;
    - ``held_bytes`` of the caller's own arrays per sample.

    Checked before the generator is returned.
    """
    couplings = sample_couplings(model, n, loc, seed, streams)
    size = _chunk_size(8 * len(bank) + bank.sample_bytes + held_bytes)
    return _stacks(couplings, np.empty((size, len(bank))))


def _stacks(rows, stack: np.ndarray):
    """Runs of ``len(stack)`` consecutive rows, each copied into the
    leading rows of ``stack`` as it is drawn; the last run may be shorter.
    Every run overwrites the one before, so the consumer is done with a
    run before it draws the next."""
    rows = iter(rows)
    while True:
        k = 0
        for k, row in enumerate(itertools.islice(rows, len(stack)), 1):
            stack[k - 1] = row
        if not k:
            return
        yield stack[:k]


@lru_cache(maxsize=16)
def _pspin_masks(n: int, p: int) -> np.ndarray:
    """Spin bitmask of every p-subset of n spins, in lexicographic order."""
    masks = np.array(
        [sum(1 << i for i in T) for T in itertools.combinations(range(n), p)], dtype=np.int64
    )
    masks.setflags(write=False)
    return masks


def sample_classical_pspin(n: int, p: int, seed: int, stream: int = 0) -> np.ndarray:
    """Classical p-spin energies of every configuration, indexed by spin
    bitmask (bit set means sigma = -1).

    The multilinear form evaluates over all sign patterns via a fast
    Walsh-Hadamard transform of the sparse coupling vector.
    """
    (g,) = sample_couplings("classical", n, p, seed, (stream,))
    masks = _pspin_masks(n, p)
    coef = np.zeros(1 << n)
    coef[masks] = g / math.sqrt(len(masks))
    return _walsh_hadamard(coef)


def h_comm_count(kind: str, n: int, locality: int) -> int:
    """Exact maximal number of family members anticommuting with any one term.

    Closed forms by vertex-transitivity (tests check them against the
    degree of the commutation graph).
    """
    q = locality
    if kind == "majorana":
        if n % 2 != 0:
            raise InputError("majorana counting requires even n")
        val = sum(
            comb(q, s) * comb(n - q, q - s) for s in range(1, q + 1, 2)
        )
    elif kind == "pauli":
        val = 0
        for j in range(1, q + 1):
            odd_words = (3**j - (-1) ** j) // 2
            val += comb(q, j) * comb(n - q, q - j) * 3 ** (q - j) * odd_words
    else:
        raise InputError(f"unknown kind {kind!r}")
    return val


@dataclass(frozen=True)
class EigenvalueBound:
    bound: float
    beta_max: float
    vacuous: bool


def lambda_max_lower_bound(m: int, h_comm: int, delta_upper: float) -> EigenvalueBound:
    """Guaranteed expected maximal eigenvalue and the temperature realizing it.

    bound = sqrt(m) / (4 sqrt(c1 h_comm)) * (1 - 16 delta_upper), clamped at
    zero;  beta_max = sqrt(m / (c1 h_comm)), with the constant c1 = 1, for
    which no claim of rigor is made.
    """
    if h_comm <= 0:
        raise InputError("h_comm must be positive: no term anticommutes with another")
    raw = math.sqrt(m) / (4 * math.sqrt(h_comm)) * (1 - 16 * delta_upper)
    return EigenvalueBound(
        bound=max(0.0, raw),
        # m is rounded to a float before the division, as the bounds report has it:
        # above 2^53 the exact integer quotient can differ in the last digit
        beta_max=math.sqrt(m / float(h_comm)),
        vacuous=raw <= 0,
    )


@dataclass(frozen=True)
class BoundsReport:
    """Ansatz-size thresholds implied by energy concentration plus counting."""

    n: int
    q: int
    t: float
    gate_set_size: int
    delta: float
    c1: float
    sigma_sq: float
    concentration_exponent: float
    circuit_gate_threshold: int
    mps_bond_threshold: int
    nn_weight_threshold: int
    gaussian_states_ruled_out: bool
    gaussian_net_exponent: float
    lambda_max_lower: float
    beta_max: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def _check_q_below_n(n: int, q: int):
    """Refuse q = n, where h_comm = 0 leaves the bounds that divide by it
    undefined."""
    if q == n:
        raise InputError("q = n leaves a single term, which anticommutes with none: q must be below n")


def ansatz_bounds_report(n: int, q: int, t: float, M: int, delta: float) -> BoundsReport:
    """Largest ansatz sizes whose union bound stays below failure prob delta.

    A state family of cardinality exp(B) can only reach energy t*sqrt(n)
    with probability exp(B - E) where E = t^2 n / (2 sigma^2) and sigma^2
    is the commutation index's upper bound theta/C(n, q) of the full
    degree-q Majorana family, rounded up to a float.  Circuit counting
    uses (M * C(n,2))^G configurations, matrix product states
    exp(chi^2 + ln n), neural networks exp(W), and Gaussian states an
    n^2-scale net.  The
    eigenvalue bound takes c1 = 1.  An exponent E that is not a finite
    float is refused, and so is q = n, whose single term gives the
    eigenvalue bound no anticommuting pair (h_comm = 0).
    """
    if t <= 0:
        raise InputError("t must be positive")
    if M < 2:
        raise InputError("gate set must contain at least 2 gates")
    if not 0 < delta < 1:
        raise InputError("delta must lie in (0, 1)")
    _check_q_below_n(n, q)
    sigma_sq = _upper_bound_float("majorana", n, q)
    exponent = t * t * n / (2 * sigma_sq)
    if not math.isfinite(exponent):
        raise InputError(f"the exponent t^2 n / (2 sigma^2) = {exponent} is not a finite float")
    budget = exponent + log(delta)
    ln_circ = log(M * comb(n, 2))
    g_star = max(0, math.floor(budget / ln_circ))
    chi_star = max(0, math.floor(math.sqrt(max(0.0, budget - log(n)))))
    w_star = max(0, math.floor(budget))
    net_exp = float(n * n)
    eig = lambda_max_lower_bound(comb(n, q), h_comm_count("majorana", n, q), sigma_sq)
    return BoundsReport(
        n=n,
        q=q,
        t=t,
        gate_set_size=M,
        delta=delta,
        c1=1.0,
        sigma_sq=sigma_sq,
        concentration_exponent=exponent,
        circuit_gate_threshold=g_star,
        mps_bond_threshold=chi_star,
        nn_weight_threshold=w_star,
        gaussian_states_ruled_out=exponent > net_exp,
        gaussian_net_exponent=net_exp,
        lambda_max_lower=eig.bound,
        beta_max=eig.beta_max,
    )


def _depolarize_qubit(rho: np.ndarray, j: int, n: int, p: float) -> np.ndarray:
    """Single-qubit depolarizing channel on qubit j (index bit j)."""
    low = 1 << j
    high = 1 << (n - 1 - j)
    r = rho.reshape(high, 2, low, high, 2, low)
    traced = np.einsum("hilHiL->hlHL", r)
    out = p * r.copy()
    half = (1 - p) / 2
    out[:, 0, :, :, 0, :] += half * traced
    out[:, 1, :, :, 1, :] += half * traced
    return out.reshape(rho.shape)


def depolarized_energy_identity(terms, phi: np.ndarray) -> tuple[float, float]:
    """Check Tr(H E^(x n)(|phi><phi|)) = 3^(-k) <phi|H|phi> for exactly
    k-local H.

    ``terms`` is a sequence of (coefficient, PauliString) pairs whose
    strings all have the same weight k; coefficients must be real.  The
    left side applies the p = 1/3 depolarizing map qubit by qubit to the
    projector; the identity is asserted to 1e-12 and both sides returned.
    """
    terms = list(terms)
    if not terms:
        raise InputError("empty Hamiltonian")
    weights = {P.weight for _, P in terms}
    if len(weights) != 1:
        raise InputError(f"terms are not exactly k-local: weights {sorted(weights)}")
    k = weights.pop()
    if k == 0:
        raise InputError("terms must be traceless (nonzero weight)")
    nq = terms[0][1].n_qubits
    if any(P.n_qubits != nq for _, P in terms):
        raise InputError("terms act on different qubit counts")
    if 1 << nq > 1 << 10:
        raise CapacityError("dimension exceeds the 2^10 identity-check cap")
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (1 << nq,) or abs(np.vdot(phi, phi) - 1) > 1e-10:
        raise InputError("phi must be a normalized state of matching dimension")
    for c, P in terms:
        if abs(complex(c).imag) > 0:
            raise InputError("coefficients must be real")
        if not P.is_hermitian:
            raise InputError("terms must be Hermitian Pauli strings")
    coefs = np.array([float(np.real(c)) for c, _ in terms])
    bank = TermBank(_pauli_masks(P for _, P in terms), 1 << nq)
    H = bank.assemble(coefs) * math.sqrt(len(terms))
    rho = np.outer(phi, phi.conj())
    for j in range(nq):
        rho = _depolarize_qubit(rho, j, nq, 1.0 / 3.0)
    lhs = float(np.real(np.trace(H @ rho)))
    rhs = float(np.real(np.vdot(phi, H @ phi))) / 3**k
    if abs(lhs - rhs) > 1e-12:
        raise RuntimeError(f"depolarizing identity violated: lhs={lhs!r} rhs={rhs!r}")
    return lhs, rhs
