"""Interleaved parent/change pairs of the benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload mc-small-d --pairs 10 --first-seed 101 --out BENCH_chunks.json

Each side is a ``git archive`` copy of a revision (any tree-ish, so the
output of ``git write-tree`` works for uncommitted changes), unpacked in
``--workdir``.  Pair i runs ``perfbench/run.py --workload W --seed S
--seconds N --trace 0`` once in each copy, one process at a time, with
seed S = first_seed + i; even pairs run the parent first, odd pairs the
change first, so that a drift of the machine does not favour one side.
A workload given as ``NAME:PAIRS`` runs PAIRS pairs instead of ``--pairs``.

The file records, per workload, every run of both sides (seed, order,
the end-to-end metrics, the failure share, the output digest and the
minor page faults of the run), each side's mean per-run failure share
(:func:`failed_share`) and median minor faults (:func:`fault_medians`),
and per metric
each side's median and quartiles, the number of pairs the change wins
and, for the end-to-end metrics of BENCHMARK.json, a verdict
(:func:`verdict`).  At the end, one stderr line per workload sums these
verdicts up (:func:`verdict_line`).  The environment block is the
workers' own fingerprint (Python, numpy, scipy, BLAS build and threads)
plus the core count.
Without ``--workdir`` the copies go to a temporary directory that is
deleted at the end.

Probes run beside the pairs, interleaved the same way:

- ``--cold "ARGV"`` runs the CLI command ARGV in ``COLD_RUNS`` fresh
  processes per side (:func:`cold_run`) and records each one's wall time
  from start to exit, its peak RSS and the number of scipy modules it
  loaded;
- ``--timeit SETUP STMT`` times the Python statement STMT after SETUP,
  as ``timeit.repeat(STMT, SETUP, number=1, repeat=TIMEIT_REPEAT)`` does,
  in ``COLD_RUNS`` fresh processes per side (:func:`timeit_run`) and
  records each process's minimum;
- ``--pass-faults W`` sets workload W up in one process per side as the
  benchmark worker does and records the minor page faults of each of
  ``FAULT_PASSES`` passes (:func:`pass_faults`);
- ``--trace W`` runs workload W once per side with ``--trace 1`` at the
  first seed and records its per-layer metrics (:func:`run_once`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
COLD_RUNS = 5
FAULT_PASSES = 5
TIMEIT_REPEAT = 7

# one CLI command, its output written to the null device (a buffer would add
# the whole text to the peak RSS); prints its exit code, peak RSS and the
# number of scipy modules it loaded
COLD_SCRIPT = """\
import contextlib, json, os, resource, sys
import fermitheta.cli as cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.dispatch(sys.argv[1:])
print(json.dumps({"code": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "scipy_modules": sum(name.split(".")[0] == "scipy" for name in sys.modules)}))
"""

# the worker's set-up and calibration kernel, then passes as worker.run_pass
# runs them; prints the minor page faults of each pass
FAULT_SCRIPT = """\
import json, resource, sys
import fermitheta.models
import worker, workloads
name, seed, passes, tiny = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
work = workloads.build(name, seed, tiny)
for key in work.banks:
    fermitheta.models.term_bank(*key)
calibrate = worker.Calibration()
faults = []
for number in range(passes):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    worker.run_pass(work.ops, None, number, calibrate)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


# timeit.repeat of argv[2] after argv[1], run argv[3] times; prints the
# seconds of each run
TIMEIT_SCRIPT = """\
import json, sys, timeit
print(json.dumps(timeit.repeat(sys.argv[2], sys.argv[1], number=1, repeat=int(sys.argv[3]))))
"""


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


def counted_run(cmd: list, cwd: Path) -> tuple[subprocess.CompletedProcess, int]:
    """Run ``cmd`` to completion; the process and the minor page faults
    (``ru_minflt``) of it and of every descendant it waited for.  Faults
    follow the allocator's state, which a pass time alone does not show."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    return proc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def run_once(copy: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark invocation, untraced unless ``trace``; its result and
    detail lines and its minor page faults (set-up and the worker
    processes included)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc, faults = counted_run(cmd, copy)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {copy} exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-500:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"detail": detail["detail"], "result": result, "minor_faults": faults}


def probe_env(copy: Path) -> dict:
    """The environment of a probe process in ``copy``: BLAS pinned to one
    thread and ``src`` and ``perfbench`` on the path, as the benchmark
    starts its workers."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy / "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FERMITHETA_THREADS", None)
    return env


def probe(copy: Path, script: str, args: list) -> tuple[str, float]:
    """Run ``script`` with ``args`` in a fresh process in ``copy``; its
    last stdout line and its wall time from start to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=copy, env=probe_env(copy),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: probe {args} in {copy} exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1], wall


def cold_run(copy: Path, argv: str) -> dict:
    """One fresh process of the CLI command ``argv`` in ``copy``: its exit
    code, wall time (s), peak RSS (MB, ru_maxrss) and the number of scipy
    modules it loaded."""
    line, wall = probe(copy, COLD_SCRIPT, argv.split())
    return {"wall_s": wall, **json.loads(line)}


def timeit_run(copy: Path, setup: str, stmt: str) -> float:
    """The least of ``TIMEIT_REPEAT`` timings (s) of ``stmt``, each after
    its own run of ``setup``, in one fresh process in ``copy``."""
    line, _ = probe(copy, TIMEIT_SCRIPT, [setup, stmt, str(TIMEIT_REPEAT)])
    return min(json.loads(line))


def workload_pairs(spec: str, default: int) -> tuple[str, int]:
    """``NAME`` or ``NAME:PAIRS`` -> (NAME, number of pairs)."""
    name, _, pairs = spec.partition(":")
    return name, int(pairs) if pairs else default


def pass_faults(copy: Path, workload: str, seed: int, passes: int, tiny: bool = False) -> list:
    """The minor page faults of each of ``passes`` passes of ``workload``
    in one process, after the worker's set-up and calibration kernel."""
    line, _ = probe(copy, FAULT_SCRIPT, [workload, str(seed), str(passes), str(int(tiny))])
    return json.loads(line)


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict on one metric from paired runs (parent[i] and change[i] ran
    as pair i).

    - "gain": the change is better in at least nine tenths of the pairs
      (ties count for neither side) and its median is better than the
      parent's by more than the parent's interquartile range;
    - "unresolved": the parent's interquartile range exceeds ``bound``
      times its median, unless every change run is better than every
      parent run;
    - "within bound": the change's median is worse than the parent's by at
      most ``bound`` times the parent's median;
    - "regressed": it is worse by more.

    ``better`` is "lower" or "higher"; ``bound`` is the share of the
    parent's median given in BENCHMARK.json.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = summary(parent)
    spread = base["q3"] - base["q1"]
    limit = bound * abs(base["median"])
    margin = sign * (base["median"] - statistics.median(change))  # > 0: the change's median is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and margin > spread:
        return "gain"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > limit and not every_run_better:
        return "unresolved"
    return "within bound" if -margin <= limit else "regressed"


def failed_share(pairs: list) -> dict:
    """Each side's mean per-run failure share and the number of pairs in
    which the change's share exceeds the parent's.

    A run's share is its own failed / attempted, so a side that runs more
    passes per run weighs no more than the other.
    """
    shares = {s: [p[s]["failed_share"] for p in pairs] for s in SIDES}
    return {**{s: statistics.fmean(shares[s]) for s in SIDES},
            "change_higher": sum(c > p for p, c in zip(shares["parent"], shares["change"]))}


def fault_medians(pairs: list) -> dict:
    """Each side's median of the minor page faults per run."""
    return {s: statistics.median(p[s]["minor_faults"] for p in pairs) for s in SIDES}


def verdict_line(workload: str, entry: dict) -> str:
    """One line on a workload of the BENCH file: each end-to-end verdict,
    both sides' mean failure shares, ``all_correct`` and ``same_digest``."""
    verdicts = ", ".join(f"{name} {metric['verdict']}"
                         for name, metric in entry["metrics"].items() if "verdict" in metric)
    share = entry["failed_share"]
    return (f"{workload}: {verdicts}; failed share {share['parent']:.4g} -> {share['change']:.4g};"
            f" all_correct {str(entry['all_correct']).lower()};"
            f" same_digest {str(entry['same_digest']).lower()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="tree-ish of the parent side")
    ap.add_argument("--change", required=True, help="tree-ish of the change side")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME[:PAIRS]")
    ap.add_argument("--cold", action="append", default=[], metavar="ARGV",
                    help=f"a CLI command to time in {COLD_RUNS} fresh processes per side,"
                         " e.g. 'lab variance --n 8 --loc 4'")
    ap.add_argument("--timeit", nargs=2, action="append", default=[], metavar=("SETUP", "STMT"),
                    help=f"a Python statement to time, min of {TIMEIT_REPEAT}, in {COLD_RUNS}"
                         " fresh processes per side")
    ap.add_argument("--pass-faults", action="append", default=[], metavar="WORKLOAD",
                    help=f"a workload whose minor page faults to count over {FAULT_PASSES} passes")
    ap.add_argument("--trace", action="append", default=[], metavar="WORKLOAD",
                    help="a workload to run once per side with --trace 1")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload without :PAIRS")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--workdir", help="where the copies go (default: a new temporary directory)")
    ap.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = ap.parse_args()

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        bench = run_pairs(args, work)
    finally:
        if not args.workdir:
            shutil.rmtree(work)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    for workload, entry in bench["workloads"].items():
        print(verdict_line(workload, entry), file=sys.stderr)


def run_pairs(args, work: Path) -> dict:
    """Unpack both sides into ``work``, run the pairs and return the BENCH
    file's content."""
    end_to_end = {e["name"]: e for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    copies, names = {}, {}
    for side in SIDES:
        copies[side] = work / side
        names[side] = unpack(getattr(args, side), copies[side])

    workloads, environment, counts = {}, None, {}
    for spec in args.workload:
        workload, counts[workload] = workload_pairs(spec, args.pairs)
        pairs = []
        for i in range(counts[workload]):
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
                    "failed_share": res["failed"] / res["attempted"],
                    "digest": out["detail"]["digest"],
                    "minor_faults": out["minor_faults"],
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
            if name in end_to_end:
                metrics[name]["verdict"] = verdict(
                    metrics[name]["parent"]["runs"], metrics[name]["change"]["runs"],
                    end_to_end[name]["better"], end_to_end[name]["bound"])
        workloads[workload] = {
            "pairs": pairs,
            "metrics": metrics,
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed_share": failed_share(pairs),
            "minor_faults": fault_medians(pairs),
            "same_digest": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs),
        }

    cold = {}
    for argv in args.cold:
        runs = {side: [] for side in SIDES}
        for i in range(COLD_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(cold_run(copies[side], argv))
        cold[argv] = {side: {key: summary([r[key] for r in runs[side]])
                             for key in ("wall_s", "peak_rss_mb", "scipy_modules")}
                      | {"codes": [r["code"] for r in runs[side]]} for side in SIDES}
        print(f"cold {argv}: " + json.dumps({side: {key: cold[argv][side][key]["median"]
                                                     for key in ("wall_s", "peak_rss_mb")}
                                               for side in SIDES}), file=sys.stderr, flush=True)
    timings = []
    for setup, stmt in args.timeit:
        mins = {side: [] for side in SIDES}
        for i in range(COLD_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                mins[side].append(timeit_run(copies[side], setup, stmt))
        timings.append({"setup": setup, "stmt": stmt,
                        **{side: summary(mins[side]) for side in SIDES}})
        print(f"timeit {stmt}: " + json.dumps({side: min(mins[side]) for side in SIDES}),
              file=sys.stderr, flush=True)
    faults = {workload: {side: pass_faults(copies[side], workload, args.first_seed, FAULT_PASSES)
                         for side in SIDES} for workload in args.pass_faults}
    traces = {}
    for workload in args.trace:
        traces[workload] = {}
        for side in SIDES:
            res = run_once(copies[side], workload, args.first_seed, args.seconds, trace=1)["result"]
            traces[workload][side] = {k: v["value"] for k, v in res["metrics"].items()}

    return {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds} --trace 0",
        "parent": names["parent"],
        "change": names["change"],
        "pairs": counts,
        "first_seed": args.first_seed,
        "order": "even pairs parent first, odd pairs change first",
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {**environment, "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
        "workloads": workloads,
        "cold": {"method": f"{COLD_RUNS} fresh processes per side, interleaved as the"
                           " pairs; wall time from start to exit", "commands": cold},
        "pass_faults": {"method": f"one process per side: the worker's set-up and calibration"
                                  f" kernel, then {FAULT_PASSES} passes of seed {args.first_seed};"
                                  " minor page faults of each pass", "workloads": faults},
        "timeit": {"method": f"{COLD_RUNS} fresh processes per side, interleaved as the pairs;"
                             f" per process the least of {TIMEIT_REPEAT} timings of stmt, each"
                             " after its own run of setup", "statements": timings},
        "trace": {"method": f"one --trace 1 run per side, parent first, at seed {args.first_seed};"
                            " the per-layer metrics", "workloads": traces},
    }


if __name__ == "__main__":
    main()
