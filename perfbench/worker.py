"""One fresh benchmark process: set up, print READY, run timed passes.

Started by run.py with BLAS pinned to one thread in its environment, from
the checkout root, with ``src`` on PYTHONPATH.  With ``--setup-only`` it
exits after READY, so the caller can time set-up alone.  Otherwise it
runs whole passes over the workload's operations while another pass fits
in ``--seconds``, then checks outputs and prints one JSON line.

With ``--trace 1`` passes alternate untraced and traced (even and odd
pass numbers), so both sets see the same warm process, and set-up is
traced too.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

MIN_PASSES = 3  # per set: untraced, and traced when tracing


def blas_info() -> dict:
    """Build string and live thread count of every loaded OpenBLAS."""
    info = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            entry = {"threads": threads(), "config": config().decode()}
            break
        info[os.path.basename(path)] = entry
    return info


class Calibration:
    """A fixed kernel that shares no code with fermitheta, timed beside
    every operation.

    A shared 2-core virtual machine switches between a fast and a slow
    regime for tens of seconds at a time (the same pass took 1.1 s and
    1.8 s in one process).
    The kernel spends about 1 ms on each kind of work the workloads do
    (LAPACK on a large and on a small complex matrix, small numpy calls,
    scipy's logsumexp, interpreted Python), so its time tracks the regime:
    an operation's time over the kernel time on its two sides changes much
    less with the regime than the operation's time does.
    """

    def __init__(self):
        import numpy as np
        from scipy.special import logsumexp

        a = np.cos(np.arange(96 * 96, dtype=float)).reshape(96, 96)
        c = np.cos(np.arange(256.0)).reshape(16, 16) * (1 + 1j)
        self.real, self.complex = a + a.T, c + c.conj().T
        self.vector, self.small = np.arange(64.0), np.linspace(-1.0, 1.0, 16)
        # bound now, so that the tracer's wrappers never see the kernel
        self.eigvalsh, self.sqrt, self.logsumexp = np.linalg.eigvalsh, np.sqrt, logsumexp

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            self.eigvalsh(self.real)
        for _ in range(30):
            self.eigvalsh(self.complex)
        x = self.vector
        for _ in range(500):
            x = self.sqrt(x + 1.0)
        for _ in range(8):
            self.logsumexp(self.small)
        total = 0
        for i in range(10000):
            total += i * i % 7
        return time.perf_counter() - start


def run_pass(ops, tracer, number, calibrate):
    """Run every operation once, with calibration before, between and after.

    Returns (seconds, calibrated, outputs, failures): the operations'
    summed wall time, the sum of each operation's time over the mean of
    the calibration times on its two sides, and per operation its
    (output, None) or (None, [error]) and its failure reasons."""
    span = tracer.span if tracer is not None else lambda op: contextlib.nullcontext()
    outputs, times, cal = [], [], [calibrate()]
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = (number, j)
        with span("bench.op"):
            start = time.perf_counter()
            outputs.append(_attempt(op))
            times.append(time.perf_counter() - start)
        cal.append(calibrate())
    calibrated = sum(2.0 * t / (c0 + c1) for t, c0, c1 in zip(times, cal, cal[1:]))
    failures = [err if err is not None else op.failures(out)
                for op, (out, err) in zip(ops, outputs)]
    return sum(times), calibrated, outputs, failures


def _attempt(op):
    try:
        return op.run(), None
    except Exception as exc:  # a raising operation is a failed operation
        return None, [f"raised {type(exc).__name__}: {exc}"]


def digest(ops, outputs) -> str:
    h = hashlib.sha256()
    for op, (out, err) in zip(ops, outputs):
        h.update(op.digest(out) if err is None else repr(err).encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    root = Path.cwd().resolve()
    import fermitheta

    if Path(fermitheta.__file__).resolve().parent != root / "src" / "fermitheta":
        sys.exit(f"fermitheta imported from {fermitheta.__file__}, not from {root / 'src'}")
    import workloads

    bank_cache = fermitheta.models.term_bank
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work = workloads.build(args.workload, args.seed, args.tiny)
    for key in work.banks:
        fermitheta.models.term_bank(*key)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return

    ops = work.ops
    calibrate = Calibration()
    deadline = time.perf_counter() + args.seconds
    times, rel = {0: [], 1: []}, {0: [], 1: []}
    failures_per_pass, digests = [], {0: set(), 1: set()}
    first = None
    number = 0
    while True:
        traced = int(args.trace == 1 and number % 2 == 1)
        if traced:
            tracer.install()
        seconds, calibrated, outputs, failures = run_pass(
            ops, tracer if traced else None, number, calibrate)
        if traced:
            tracer.uninstall()
        times[traced].append(seconds)
        rel[traced].append(calibrated)
        failures_per_pass.append(failures)
        digests[traced].add(digest(ops, outputs))
        if first is None:
            first = outputs
        number += 1
        enough = len(times[0]) >= MIN_PASSES and (not args.trace or len(times[1]) >= MIN_PASSES)
        if enough and time.perf_counter() + seconds > deadline:  # the next pass would overrun
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatches = []
    for op, (out, err) in zip(ops, first):
        if err is None:
            mismatches += [f"{op.name}: {m}" for m in op.check(out)]
    if len(digests[0] | digests[1]) != 1:
        mismatches.append(f"outputs differ between passes: {len(digests[0])} untraced and "
                          f"{len(digests[1])} traced digests")
    # an output off its reference is a failed operation in every pass
    mismatched = {m.split(": ")[0] for m in mismatches}
    failed = sum(1 for failures in failures_per_pass for op, fs in zip(ops, failures)
                 if fs or op.name in mismatched)
    result = {
        "pass_s": times[0],
        "traced_pass_s": times[1],
        "ops_per_pass": len(ops),
        "samples_per_pass": sum(op.samples for op in ops),
        "attempted": len(ops) * number,
        "failed": failed,
        "failures": sorted({f"{op.name}: {f}" for failures in failures_per_pass
                            for op, fs in zip(ops, failures) for f in fs}),
        "mismatches": mismatches,
        "checked_ops": sum(1 for _, err in first if err is None),
        "digest": sorted(digests[0] | digests[1])[0],
        "peak_rss_mb": peak_rss_mb,
        "pass_rel": rel[0],
        "traced_pass_rel": rel[1],
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "blas": blas_info(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, sorted(range(1, number, 2)), times, rel,
                                         bank_cache)
        result["wrapped"] = tracer.reach()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result), flush=True)


def layer_metrics(tracer, traced_passes, times, rel, bank_cache) -> dict:
    """Per-layer metrics as means over the traced passes."""
    totals = tracer.layer_totals(set(traced_passes))
    k = len(traced_passes)
    out = {name: value / k for name, value in totals.items()}
    for name in ("theta.sdp_max_duality_gap", "theta.sdp_max_edge_residual"):
        out[name] = totals.get(name, 0.0)  # maxima, not means
    out["trace.unattributed_s"] = out.pop("bench.self_s", 0.0)
    out["trace.pass_s"] = sum(s[4] - s[3] for s in tracer.spans
                              if s[2] == "bench.op") / k
    # the calibrated ratio cancels the machine's speed regime between the
    # untraced and the traced passes
    slowdown = statistics.median(rel[1]) / statistics.median(rel[0]) - 1.0
    out["trace.overhead_s"] = slowdown * statistics.median(times[0])
    setup = tracer.layer_totals({"setup"})
    out["models.bank_build_s"] = setup.get("models.bank_build_s", 0.0)
    out["models.bank_misses"] = bank_cache.cache_info().misses
    return out


if __name__ == "__main__":
    main()
