"""Interleaved parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload mc-small-d --pairs 10 --first-seed 101 --out BENCH_chunks.json

Each side is a ``git archive`` copy of a revision (any tree-ish, so the
output of ``git write-tree`` works for uncommitted changes), unpacked in
``--workdir``.  Pair i runs ``perfbench/run.py --workload W --seed S
--seconds N --trace 0`` once in each copy, one process at a time, with
seed S = first_seed + i; even pairs run the parent first, odd pairs the
change first, so that a drift of the machine does not favour one side.

The file records, per workload, every run of both sides (seed, order,
the end-to-end metrics, the failure share and the output digest), and per
metric each side's median and quartiles and the number of pairs the change
wins.  The environment block is the workers' own fingerprint (Python,
numpy, scipy, BLAS build and threads) plus the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def unpack(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into dest; return the full object name."""
    name = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", name],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return name


def run_once(copy: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark invocation; its result and detail lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {copy} exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-500:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"detail": detail["detail"], "result": result}


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="tree-ish of the parent side")
    ap.add_argument("--change", required=True, help="tree-ish of the change side")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--workdir", help="where the copies go (default: a new temporary directory)")
    ap.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = ap.parse_args()

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    copies, names = {}, {}
    for side in SIDES:
        copies[side] = work / side
        names[side] = unpack(getattr(args, side), copies[side])

    workloads, environment = {}, None
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                out = run_once(copies[side], workload, seed, args.seconds)
                res = out["result"]
                environment = environment or out["detail"]["environment"]
                pair[side] = {
                    "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                    "correct": res["correct"],
                    "failed": res["failed"],
                    "attempted": res["attempted"],
                    "digest": out["detail"]["digest"],
                }
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
            pairs.append(pair)
        metrics = {}
        for name in pairs[0]["parent"]["metrics"]:
            metrics[name] = {side: summary([p[side]["metrics"][name] for p in pairs])
                             for side in SIDES}
            metrics[name]["change_lower"] = sum(
                p["change"]["metrics"][name] < p["parent"]["metrics"][name] for p in pairs)
        workloads[workload] = {
            "pairs": pairs,
            "metrics": metrics,
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed_share": {s: sum(p[s]["failed"] for p in pairs)
                             / sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "same_digest": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs),
        }

    bench = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds} --trace 0",
        "parent": names["parent"],
        "change": names["change"],
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "order": "even pairs parent first, odd pairs change first",
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {**environment, "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
