"""fermitheta benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload mc-small-d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fermitheta is imported from ``src``.
Each invocation starts fresh worker processes (worker.py) one at a time,
with BLAS pinned to one thread before numpy is imported:

* ``--trace 0``: SETUP_PROBES set-up-only processes, then one process that
  sets up and runs whole passes of the workload for ``--seconds``.  It
  reports ``setup_s`` (median start-to-ready wall time over every process),
  ``pass_rel`` (median pass time in units of the calibration kernel timed
  beside every operation, see worker.Calibration) and ``peak_rss_mb`` (the
  timing process); the wall-clock ``pass_s`` is printed beside them.
* ``--trace 1``: one process whose passes alternate untraced and traced;
  it reports the per-layer metrics of metrics.PER_LAYER and writes its
  spans to perfbench/out/<workload>.spans.json, replacing the last run's.

Every output is checked against references.json or oracle.py.  The last
stdout line is the result object; the line before it carries the
environment fingerprint and the figures reported beside the metrics.
Exit code 2 means the program or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole invocation, probes included


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FERMITHETA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra, deadline):
    """Run one worker; return (start-to-READY seconds, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    out, ready = b"", None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                fail("worker exceeded the time limit")
            if not select.select([proc.stdout], [], [], remaining)[0]:
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready is None and out.startswith(b"READY\n"):
                ready = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        fail(f"worker exited with code {proc.returncode} (output {out[-500:]!r})")
    lines = out.decode().strip().splitlines()[1:]
    return ready, (json.loads(lines[-1]) if lines else None)


def fingerprint(args) -> dict:
    src = ROOT / "src" / "fermitheta"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"git_revision": rev, "source_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fermitheta" / "__init__.py").is_file():
        fail(f"no fermitheta sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        spans = OUT / f"{args.workload}.spans.json"  # one file per workload bounds the disk used
        _, res = start_worker(args, ["--spans", str(spans)], deadline)
        values = {name: res["layers"].get(name, 0.0) for name, *_ in metrics.PER_LAYER}
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        extra = {"wrapped": res["wrapped"], "spans_file": str(spans.relative_to(ROOT))}
    else:
        setups = [start_worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup, res = start_worker(args, [], deadline)
        setups.append(setup)
        values = {"setup_s": statistics.median(setups),
                  "pass_rel": statistics.median(res["pass_rel"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        q1, q3 = quartiles(res["pass_s"])
        rel_q1, rel_q3 = quartiles(res["pass_rel"])
        reported = {"pass_s": statistics.median(res["pass_s"]), "pass_s_q1": q1, "pass_s_q3": q3,
                    "pass_rel_q1": rel_q1, "pass_rel_q3": rel_q3, "passes": len(res["pass_s"]),
                    "fail_frac": res["failed"] / res["attempted"]}
        if res["samples_per_pass"]:
            reported["samples_per_s"] = (res["samples_per_pass"] * len(res["pass_s"])
                                         / sum(res["pass_s"]))
        extra = {"reported": {k: {"value": v, "unit": dict(metrics.REPORTED)[k]}
                              for k, v in reported.items()},
                 "setup_samples_s": setups, "pass_samples_s": res["pass_s"],
                 "pass_samples_rel": res["pass_rel"]}

    correct = not res["mismatches"] and res["checked_ops"] > 0
    detail = {"detail": {"fingerprint": fingerprint(args), "environment": res["environment"],
                         "failures": res["failures"], "mismatches": res["mismatches"],
                         "checked_ops": res["checked_ops"], "digest": res["digest"], **extra}}
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
