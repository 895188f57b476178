"""Independent reference for the per-sample records of the lab experiments.

Rebuilt from the definitions alone, sharing no code with fermitheta:
couplings are Philox-4x64 uniforms keyed by (seed, sample) turned into
normals by Box-Muller; terms act on computational basis states through
Jordan-Wigner (generator 2t-1 is Z..Z X on qubit t-1, generator 2t is
Z..Z Y, qubit 0 the lowest index bit) or as weight-k Pauli strings with
sites in lexicographic order and letters X, Y, Z; H is the sum of g_i A_i
over sqrt(m).  Each checker returns a list of mismatch descriptions.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

AUX_STREAM = 1 << 32
STATE_SEED = 2024


def normals(seed: int, stream: int, count: int) -> np.ndarray:
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(2 * ((count + 1) // 2))
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    z = np.empty(len(u))
    z[0::2] = r * np.cos(2.0 * np.pi * u[1::2])
    z[1::2] = r * np.sin(2.0 * np.pi * u[1::2])
    return z[:count]


def unit_vector(seed: int, stream: int, dim: int) -> np.ndarray:
    z = normals(seed, stream, 2 * dim)
    v = z[0::2] + 1j * z[1::2]
    return v / np.linalg.norm(v)


def _apply(idx, coef, qubit, letter):
    """Single-qubit Pauli on ``qubit`` (arrays broadcast over terms)."""
    bit = (idx >> qubit) & 1
    if letter in "YZ":
        coef = coef * np.where(bit == 1, -1.0, 1.0)
    if letter == "Y":
        coef = coef * 1j
    if letter in "XY":
        idx = idx ^ (1 << qubit)
    return idx, coef


def _monomial(n: int, support):
    idx = np.arange(1 << (n // 2))
    coef = np.full(len(idx), 1j ** (len(support) // 2))
    for j in reversed(support):  # the rightmost generator acts first
        t = (j - 1) // 2
        for z in range(t):
            idx, coef = _apply(idx, coef, z, "Z")
        idx, coef = _apply(idx, coef, t, "X" if j % 2 else "Y")
    return idx, coef


def _pauli_word(n: int, sites, letters):
    idx, coef = np.arange(1 << n), np.ones(1 << n, dtype=complex)
    for site, letter in zip(sites, letters):
        idx, coef = _apply(idx, coef, site, letter)
    return idx, coef


@lru_cache(maxsize=8)
def term_actions(kind: str, n: int, k: int):
    """(rows, vals): term i sends basis state c to vals[i, c] |rows[i, c]>."""
    if kind == "syk":
        actions = [_monomial(n, s) for s in itertools.combinations(range(1, n + 1), k)]
    else:
        actions = [_pauli_word(n, sites, letters)
                   for sites in itertools.combinations(range(n), k)
                   for letters in itertools.product("XYZ", repeat=k)]
    return np.stack([a[0] for a in actions]), np.stack([a[1] for a in actions])


def operator(rows, vals, g) -> np.ndarray:
    m, d = rows.shape
    H = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    for i in range(m):
        H[rows[i], cols] += g[i] * vals[i]
    return H / math.sqrt(m)


def hamiltonian(kind, n, k, seed, sample) -> np.ndarray:
    rows, vals = term_actions(kind, n, k)
    return operator(rows, vals, normals(seed, sample, rows.shape[0]))


def majorana(n: int, support) -> np.ndarray:
    """Dense Hermitized monomial i^(q/2) gamma_j1 ... gamma_jq."""
    idx, coef = _monomial(n, support)
    return operator(idx[None, :], coef[None, :], np.ones(1))


def _lse(x: np.ndarray) -> float:
    top = x.max()
    return float(top + np.log(np.exp(x - top).sum()))


def classical_energies(n, p, seed, sample) -> np.ndarray:
    subsets = list(itertools.combinations(range(n), p))
    g = normals(seed, sample, len(subsets)) / math.sqrt(len(subsets))
    spins = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    prods = np.stack([spins[:, list(T)].prod(axis=1) for T in subsets], axis=1)
    return prods @ g


def _spectrum(model, n, loc, seed, sample):
    if model == "classical":
        return classical_energies(n, loc, seed, sample)
    return np.linalg.eigvalsh(hamiltonian(model, n, loc, seed, sample))


def _compare(label, got, want, atol, rtol, out):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.allclose(got, want, atol=atol, rtol=rtol):
        out.append(f"{label}: got {got.tolist()} want {want.tolist()}")


def check_free_energy(records, model, n, loc, betas, seed, indices, atol, rtol):
    out = []
    for i in indices:
        w = _spectrum(model, n, loc, seed, i)
        want = [_lse(-b * math.sqrt(n) * w) for b in betas]
        _compare(f"ln_z[{i}]", records["ln_z"][i], want, atol, rtol, out)
    return out


def stabilized(n: int, q: int) -> np.ndarray:
    """Projection of seeded trial vectors onto the +1 space of the
    pair-product family, as the seed commit defines the state."""
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(n // 2)]
    mats = [majorana(n, tuple(sorted(j for pr in chosen for j in pr)))
            for chosen in itertools.combinations(pairs, q // 2)]
    d = 1 << (n // 2)
    for attempt in range(16):
        psi = unit_vector(STATE_SEED, attempt, d)
        for B in mats:
            psi = (psi + B @ psi) / 2
        norm = np.linalg.norm(psi)
        if norm > 1e-8:
            psi = psi / norm
            if max(abs(np.vdot(psi, B @ psi) - 1.0) for B in mats) <= 1e-9:
                return psi
    raise RuntimeError("no stabilized state")


def check_variance(records, state, n, q, seed, indices, atol, rtol):
    psi = stabilized(n, q) if state == "stabilized" else unit_vector(seed, AUX_STREAM, 1 << (n // 2))
    out = []
    for i in indices:
        H = hamiltonian("syk", n, q, seed, i)
        want = float(np.real(np.vdot(psi, H @ psi)))
        _compare(f"energy[{i}]", records["energy"][i], want, atol, rtol, out)
    return out


def check_tail(records, quantity, n, q, beta, tau, samples, seed, indices, atol, rtol):
    out = []
    sqrt_n = math.sqrt(n)
    X, Y = majorana(n, (1, 2)), majorana(n, (3, 4))
    psi = unit_vector(seed, AUX_STREAM, 1 << (n // 2))
    pilot = max(1, samples // 10)
    for i in indices:
        H = hamiltonian("syk", n, q, seed, i)
        if quantity == "fixed_state_energy":
            _compare(f"energy[{i}]", records["energy"][i],
                     np.real(np.vdot(psi, H @ psi)), atol, rtol, out)
            continue
        w, U = np.linalg.eigh(H)
        p = np.exp(-beta * sqrt_n * (w - w[0]))
        p /= p.sum()
        rho = (U * p) @ U.conj().T
        if quantity == "lambda_max":
            _compare(f"lambda_max[{i}]", records["lambda_max"][i], w[-1], atol, rtol, out)
        elif quantity == "thermal_energy":
            if i < pilot:
                _compare(f"pilot[{i}]", records["lambda_max_pilot"][i], w[-1], atol, rtol, out)
            else:
                _compare(f"thermal[{i}]", records["thermal_energy"][i - pilot],
                         np.sum(w * p), atol, rtol, out)
        elif quantity == "obs_expectation":
            _compare(f"obs[{i}]", records["obs"][i], np.real(np.trace(X @ rho)), atol, rtol, out)
        else:
            Ut = (U * np.exp(1j * tau * sqrt_n * w)) @ U.conj().T
            val = np.trace(X @ Ut @ Y @ Ut.conj().T @ rho)
            _compare(f"two_point[{i}]",
                     [records["two_point_hermitian"][i], records["two_point_antihermitian"][i]],
                     [val.real, val.imag], atol, rtol, out)
    return out
