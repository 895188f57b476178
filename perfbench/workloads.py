"""The four workloads: their operations, set-up caches and reference checks.

Every operation goes through the public fermitheta API as a module
attribute looked up at call time, so that the tracer's wrappers apply.  ``run`` returns the operation's
output; ``failures`` lists why an output counts as a failed operation
(a failed verdict or a nonzero exit); ``check`` compares an output with
its reference and lists mismatches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import fermitheta.cli
import fermitheta.lab as lab
import numpy as np

import oracle

BETAS = (0.5, 1.0, 2.0)
TAIL = {"n": 10, "q": 4, "beta": 1.0, "tau": 0.5}
TAIL_TINY = {"n": 8, "q": 4, "beta": 1.0, "tau": 0.5}

THETA_INDEX = (
    "theta johnson --n 8 --q 4",
    "theta johnson --n 10 --q 4 --exact-output",
    "theta sdp --set pauli --n 4 --loc 2 --tol 1e-6",
    "theta sdp --set majorana --n 8 --loc 4",
    "theta sdp --set pauli --n 4 --loc 3",
    "index --set majorana --n 8 --loc 4",
    "index --set majorana --n 12 --loc 4",
    "index --set pauli --n 4 --loc 2",
    "table --max-n 40",
    "hahn --m 8 --r 4 --verify",
    "graph --set majorana --n 12 --loc 4 --format csv",
    "graph --set pauli --n 8 --loc 3 --format json",
    "ternary --k 2",
    "bounds --n 100 --q 4 --t 0.5 --gateset 64 --delta 1e-3",
)
# The tiny size drops the commands that take over 0.25 s.
THETA_INDEX_TINY = tuple(c for c in THETA_INDEX if c not in (
    "theta sdp --set pauli --n 4 --loc 3",
    "index --set majorana --n 12 --loc 4",
    "table --max-n 40",
    "graph --set majorana --n 12 --loc 4 --format csv",
    "graph --set pauli --n 8 --loc 3 --format json",
))

with open(os.path.join(os.path.dirname(__file__), "references.json"), encoding="utf-8") as _fh:
    REFERENCES = json.load(_fh)
ATOL = REFERENCES["mc"]["abs_tol"]
RTOL = REFERENCES["mc"]["rel_tol"]


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    failures: Callable[[Any], list]
    check: Callable[[Any], list]
    digest: Callable[[Any], bytes]
    samples: int = 0


@dataclass
class Workload:
    name: str
    ops: list
    banks: tuple  # term_bank keys built at set-up


def _pick(samples: int, count: int, seed: int) -> list[int]:
    """Sample indices the oracle recomputes: first, last and seeded picks."""
    rng = np.random.default_rng(seed % (1 << 63))  # SeedSequence rejects negatives
    extra = rng.choice(np.arange(1, samples - 1), size=max(0, min(count, samples) - 2),
                       replace=False)
    return sorted({0, samples - 1, *map(int, extra)})


def _report_failures(rep) -> list:
    return [f"verdict {v.name} failed" for v in rep.verdicts if not v.passed]


def _report_digest(rep) -> bytes:
    h = hashlib.sha256()
    for key in sorted(rep.records):
        h.update(key.encode())
        h.update(np.ascontiguousarray(rep.records[key], dtype=float).tobytes())
    h.update(bytes(v.passed for v in rep.verdicts))
    return h.digest()


def free_energy(model, n, loc, samples, seed, checked) -> Op:
    def run():
        return lab.free_energy_experiment(model, n, loc, BETAS, samples, seed, threads=1)

    def check(rep):
        return oracle.check_free_energy(rep.records, model, n, loc, BETAS, seed,
                                        _pick(samples, checked, seed), ATOL, RTOL)

    return Op(f"free_energy {model} ({n},{loc})", run, _report_failures, check,
              _report_digest, samples)


def tail(quantity, params, samples, seed, checked) -> Op:
    def run():
        return lab.tail_experiment(quantity, params, samples, seed=seed, threads=1)

    def check(rep):
        return oracle.check_tail(rep.records, quantity, params["n"], params["q"], params["beta"],
                                 params["tau"], samples, seed, _pick(samples, checked, seed),
                                 ATOL, RTOL)

    return Op(f"tail {quantity} ({params['n']},{params['q']})", run, _report_failures, check,
              _report_digest, samples)


def variance(state, n, q, samples, seed, checked) -> Op:
    def run():
        return lab.variance_identity_experiment(state, n, q, samples, seed, threads=1)

    def check(rep):
        return oracle.check_variance(rep.records, state, n, q, seed,
                                     _pick(samples, checked, seed), ATOL, RTOL)

    return Op(f"variance {state} ({n},{q})", run, _report_failures, check,
              _report_digest, samples)


def _rational(field):
    return field["rational"] if isinstance(field, dict) else None


def check_cli(key: str, out) -> list:
    """Compare one command's stdout with its frozen reference."""
    rc, text = out
    ref = REFERENCES["theta-index"][key]
    bad = []
    if "stdout" in ref and text != ref["stdout"]:
        bad.append(f"{key}: stdout {text!r} != {ref['stdout']!r}")
    if "sha256" in ref and hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        bad.append(f"{key}: stdout digest differs from the reference")
    if "value" in ref and abs(float(text) - ref["value"]) > ref["abs_tol"]:
        bad.append(f"{key}: value {text.strip()} != {ref['value']}")
    if key.startswith("index"):
        est = json.loads(text)
        upper = est["upper"]["float"] if isinstance(est["upper"], dict) else est["upper"]
        for field in ("upper", "lower", "exact"):
            if field in ref and isinstance(ref[field], str) and _rational(est[field]) != ref[field]:
                bad.append(f"{key}: {field} {est[field]} != {ref[field]}")
        if isinstance(ref.get("upper"), float) and abs(upper - ref["upper"]) > ref["abs_tol"]:
            bad.append(f"{key}: upper {upper} != {ref['upper']}")
        lower = est["lower"]["float"] if isinstance(est["lower"], dict) else est["lower"]
        if not 0 < lower <= upper + 1e-9 or not est["heuristic"] <= upper + 1e-9:
            bad.append(f"{key}: bracket {lower} <= {est['heuristic']} <= {upper} violated")
    if "fields" in ref:
        got = json.loads(text)
        for name, want in ref["fields"].items():
            if got[name] != want:
                bad.append(f"{key}: {name} {got[name]} != {want}")
        for name, want in ref["floats"].items():
            if abs(got[name] - want) > ref["rel_tol"] * abs(want):
                bad.append(f"{key}: {name} {got[name]} != {want}")
    return bad


def command(key: str, seed: int) -> Op:
    argv = key.split() + (["--seed", str(seed)] if key.startswith("index") else [])

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fermitheta.cli.dispatch(argv)
        return rc, buf.getvalue()

    def failures(out):
        return [f"exit {out[0]}"] if out[0] != 0 else []

    def digest(out):
        return hashlib.sha256(f"{out[0]}\n{out[1]}".encode()).digest()

    return Op(key, run, failures, lambda out: check_cli(key, out), digest)


def build(name: str, seed: int, tiny: bool) -> Workload:
    if name == "mc-small-d":
        # each model as four 250-sample experiments with their own seeds, so
        # that the calibration beside every operation is sampled often
        s, chunks = (16, 1) if tiny else (250, 4)
        return Workload(name, [
            free_energy(model, n, loc, s, seed * chunks + c, checked)
            for model, n, loc, checked in (("syk", 8, 4, 8), ("sg", 4, 2, 8),
                                            ("classical", 12, 4, 3))
            for c in range(chunks)
        ], (("majorana", 8, 4), ("pauli", 4, 2)))
    if name == "mc-large-d":
        syk, sg = ((12, 4), (6, 2)) if tiny else ((18, 4), (9, 2))
        return Workload(name, [
            free_energy("syk", *syk, 16, seed, 3),
            free_energy("sg", *sg, 16, seed, 3),
        ], (("majorana", *syk), ("pauli", *sg)))
    if name == "mc-observables":
        params = TAIL_TINY if tiny else TAIL
        s_tail, s_var = (32, 32) if tiny else (600, 1000)
        quantities = lab.TAIL_QUANTITIES
        return Workload(name, [
            *(tail(q, params, s_tail, seed, 6) for q in quantities),
            variance("stabilized", 8, 4, s_var, seed, 8),
            variance("random", 8, 4, s_var, seed, 8),
        ], (("majorana", params["n"], params["q"]), ("majorana", 8, 4)))
    if name == "theta-index":
        keys = THETA_INDEX_TINY if tiny else THETA_INDEX
        return Workload(name, [command(k, seed) for k in keys], ())
    raise ValueError(f"unknown workload {name!r}")
