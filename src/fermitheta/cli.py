"""Command-line entry point.

Subcommands: theta, index, hahn, graph, ternary, model, bounds, lab, table.
Exit codes: 0 success, 1 a theorem-bound verdict failed, 2 usage error,
3 capacity error.  An optional key=value config file supplies defaults
that explicit flags override; FERMITHETA_THREADS is the fallback for
--threads.  Every float option must be finite, and --tol positive,
whether it comes from a flag or from the config file.  Every emitted
report embeds the resolved configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from math import comb

import numpy as np

from . import lab as lab_mod
from .algebra import enumerate_set, family_size
from .graphs import _check_graph_vertices, commutation_graph, ternary_tree_paulis
from .index import _check_estimate, index_estimate
from .kernel import CapacityError, InputError
from .models import ansatz_bounds_report, sample_spectra
from .reports import ExperimentReport, _atomic_write, _finite_json
from .scheme import HahnTable, verify_scheme_spectrum
from .theta import _check_sdp_vertices, round_half_up, theta_johnson_lp, theta_sdp

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
        raise InputError(f"cannot read config {path}: {reason}") from None
    cfg = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _threads(args) -> int:
    source, threads = "--threads", args.threads
    if threads is None:
        source, env = "FERMITHETA_THREADS", os.environ.get("FERMITHETA_THREADS") or "1"
        try:
            threads = int(env)
        except ValueError:
            raise InputError(f"{source} must be an integer, got {env!r}") from None
    if threads < 1:
        raise InputError(f"{source} must be at least 1, got {threads}")
    return threads


def _check_floats(args):
    """Refuse a non-finite float option, or a --tol that is not positive."""
    for key, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise InputError(f"--{key} must be finite, got {v}")
    if getattr(args, "tol", 1.0) <= 0:
        raise InputError(f"--tol must be positive, got {args.tol}")


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, text)
    else:
        print(text)


def _report_text(args, report: ExperimentReport) -> str:
    """The report's JSON with the run's config; refused (InputError) when
    a value is not a finite float."""
    payload = report.to_dict()
    payload["config"] = {
        k: v for k, v in vars(args).items() if k != "func" and v is not None
    }
    return _finite_json(payload)


def _write_report(args, report: ExperimentReport, text: str) -> int:
    if args.out:
        _atomic_write(args.out, text)
    if args.csv:
        report.write_csv(args.csv)
    print(f"report written to {args.out}" if args.out else text)
    return EXIT_OK if report.all_passed else EXIT_VERDICT


def _quantity_path(path: str, quantity: str) -> str:
    """``t.json`` -> ``t.<quantity>.json`` (``t`` -> ``t.<quantity>``)."""
    stem, dot, ext = path.rpartition(".")
    return f"{stem}.{quantity}.{ext}" if dot else f"{path}.{quantity}"


def reproduce_table(max_n: int, q_list) -> str:
    """CSV of exact theta values against the half-binomial, all even n <= max_n."""
    if max_n > 40:
        raise InputError("table capped at n = 40")
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "q", "theta_exact_rational", "theta_2dp", "binom_half", "equal_flag"])
    for q in q_list:
        for n in range(q, max_n + 1, 2):
            if n % 2 or q % 2:
                raise InputError("table rows require even n and q")
            val = theta_johnson_lp(n, q).value
            half = comb(n // 2, q // 2)
            w.writerow([n, q, str(val), f"{round_half_up(val):.2f}", half, val == half])
    return buf.getvalue()


def _family(args, *caps):
    """The enumerated family of ``--set/--n/--loc``.  Its closed-form size
    is checked first against each cap that the command would otherwise
    apply only after enumerating it, so that an over-cap family is refused
    with the same message before any member exists."""
    m = family_size(args.set, args.n, args.loc)
    for cap in caps:
        cap(m)
    return enumerate_set(args.set, args.n, args.loc)


def _cmd_theta(args) -> int:
    if args.mode == "johnson":
        if args.table:
            print(reproduce_table(args.n, [args.q]))
            return EXIT_OK
        res = theta_johnson_lp(args.n, args.q)
        if args.exact_output:
            print(str(res.value))
        else:
            print(f"{round_half_up(res.value):.2f}")
        _emit_json_if_out(args, res.to_json())
        return EXIT_OK
    ops = _family(args, _check_graph_vertices, _check_sdp_vertices)
    res = theta_sdp(commutation_graph(ops), tol=args.tol)
    print(f"{res.value_float:.6f}")
    _emit_json_if_out(args, res.to_json())
    return EXIT_OK if res.converged else EXIT_VERDICT


def _emit_json_if_out(args, text: str):
    if getattr(args, "out", None):
        _atomic_write(args.out, text)


def _cmd_index(args) -> int:
    ops = _family(args, lambda m: _check_estimate(args.set, args.n, args.loc, m))
    est = index_estimate(ops, seed=args.seed)
    if args.method == "upper":
        print(float(est.upper))
    elif args.method == "lower":
        print(float(est.lower))
    elif args.method == "seesaw":
        print(est.heuristic)
    else:
        print(est.to_json())
    _emit_json_if_out(args, est.to_json())
    return EXIT_OK


def _cmd_hahn(args) -> int:
    if args.verify:
        report = verify_scheme_spectrum(args.m, args.r)
        _emit(args, report.to_json())
        return EXIT_OK if report.ok else EXIT_VERDICT
    _emit(args, HahnTable(args.m, args.r).to_csv())
    return EXIT_OK


def _cmd_graph(args) -> int:
    ops = _family(args, _check_graph_vertices)
    g = commutation_graph(ops)
    if args.format == "csv":
        _emit(args, g.to_edge_csv())
    else:
        _emit(args, g.to_json())
    return EXIT_OK


def _cmd_ternary(args) -> int:
    fam = ternary_tree_paulis(args.k)
    for p in fam.members:
        print(str(p))
    if args.out:
        _atomic_write(args.out, fam.to_json())
    return EXIT_OK


def _cmd_model(args) -> int:
    (spec,) = sample_spectra(args.kind, args.n, args.loc, args.seed, (0,))
    if args.kind == "classical":
        spec = np.sort(spec)
    payload = {
        "kind": args.kind,
        "n": args.n,
        "loc": args.loc,
        "seed": args.seed,
        "dim": len(spec),
        "lambda_min": float(spec[0]),
        "lambda_max": float(spec[-1]),
    }
    if args.spectrum:
        payload["eigenvalues"] = [float(v) for v in spec]
        _atomic_write(args.spectrum, json.dumps(payload))
        print(f"spectrum written to {args.spectrum}")
    else:
        print(json.dumps(payload))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    rep = ansatz_bounds_report(args.n, args.q, args.t, args.gateset, args.delta)
    _emit(args, rep.to_json())
    return EXIT_OK


def _cmd_lab(args) -> int:
    # A float that overflows at the given parameters ends up as a non-finite
    # report value, which _finite_json refuses; numpy's warnings would only
    # announce it on stderr first.
    with np.errstate(all="ignore"):
        return _run_lab(args)


def _run_lab(args) -> int:
    threads = _threads(args)
    betas = args.beta if args.beta else [1.0]
    if args.experiment == "free-energy":
        rep = lab_mod.free_energy_experiment(
            args.model, args.n, args.loc, betas, args.samples, args.seed, threads
        )
    elif args.experiment == "gradcheck":
        res = lab_mod.gradcheck_logZ(args.n, args.loc, betas[0], args.seed)
        print(_finite_json({"max_rel_error": res.max_rel_error, "beta": res.beta}))
        return EXIT_OK if res.max_rel_error <= 1e-5 else EXIT_VERDICT
    elif args.experiment == "variance":
        rep = lab_mod.variance_identity_experiment(
            args.state, args.n, args.loc, args.samples, args.seed, threads
        )
    elif args.experiment == "tails":
        quantities = [args.quantity] if args.quantity else list(lab_mod.TAIL_QUANTITIES)
        for quantity in quantities:  # refuse before the first quantity runs
            lab_mod._check_tail(quantity, args.n)
        done = []
        for quantity in quantities:
            rep = lab_mod.tail_experiment(
                quantity,
                {"n": args.n, "q": args.loc, "beta": betas[0], "tau": args.tau},
                args.samples,
                seed=args.seed,
                threads=threads,
            )
            paths = {"out": args.out, "csv": args.csv}
            if len(quantities) > 1:  # each quantity gets its own report and CSV
                paths = {k: p and _quantity_path(p, quantity) for k, p in paths.items()}
            qargs = argparse.Namespace(**{**vars(args), **paths})
            done.append((qargs, rep, _report_text(qargs, rep)))
        # every report was checked before any is written
        return max([_write_report(*entry) for entry in done])
    elif args.experiment == "mgf":
        rep = lab_mod.mgf_check(args.n, args.loc, args.samples, seed=args.seed, threads=threads)
    elif args.experiment == "expmoment":
        rep = lab_mod.exp_moment_check(
            args.n, args.loc, betas, args.samples, seed=args.seed, threads=threads
        )
    elif args.experiment == "overlap":
        rep = lab_mod.classical_overlap_experiment(
            args.n, args.loc, betas, args.samples, seed=args.seed, threads=threads
        )
    elif args.experiment == "contrast":
        n_list = args.n_list if args.n_list else [8, 12, 16]
        rep = lab_mod.glassiness_contrast(
            n_list, betas[0], args.samples, seed=args.seed, threads=threads
        )
    else:
        raise InputError(f"unknown experiment {args.experiment!r}")
    return _write_report(args, rep, _report_text(args, rep))


def _cmd_table(args) -> int:
    q_list = args.q_list if args.q_list else [2, 4, 6, 8, 10]
    _emit(args, reproduce_table(args.max_n, q_list))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermitheta",
        description="Commutation indices, Lovasz theta, and disorder experiments",
    )
    ap.add_argument("--config", help="key=value config file; flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("theta", help="Lovasz theta of a commutation graph")
    tsub = t.add_subparsers(dest="mode", required=True)
    tj = tsub.add_parser("johnson", help="exact LP for the full Majorana family")
    tj.add_argument("--n", type=int, required=True)
    tj.add_argument("--q", type=int, required=True)
    tj.add_argument("--exact-output", action="store_true")
    tj.add_argument("--table", action="store_true")
    tj.add_argument("--out")
    tj.set_defaults(func=_cmd_theta)
    ts = tsub.add_parser("sdp", help="numeric SDP for an enumerated family")
    ts.add_argument("--set", choices=["majorana", "pauli"], required=True)
    ts.add_argument("--n", type=int, required=True)
    ts.add_argument("--loc", type=int, required=True)
    ts.add_argument("--tol", type=float, default=1e-6)
    ts.add_argument("--out")
    ts.set_defaults(func=_cmd_theta)

    ix = sub.add_parser("index", help="commutation index bracket")
    ix.add_argument("--set", choices=["majorana", "pauli"], required=True)
    ix.add_argument("--n", type=int, required=True)
    ix.add_argument("--loc", type=int, required=True)
    ix.add_argument("--method", choices=["upper", "lower", "seesaw", "all"], default="all")
    ix.add_argument("--seed", type=int, default=7)
    ix.add_argument("--out")
    ix.set_defaults(func=_cmd_index)

    h = sub.add_parser("hahn", help="dual Hahn table / scheme verification")
    h.add_argument("--m", type=int, required=True)
    h.add_argument("--r", type=int, required=True)
    h.add_argument("--verify", action="store_true")
    h.add_argument("--out")
    h.set_defaults(func=_cmd_hahn)

    g = sub.add_parser("graph", help="export a commutation graph")
    g.add_argument("--set", choices=["majorana", "pauli"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--loc", type=int, required=True)
    g.add_argument("--format", choices=["json", "csv"], default="json")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_graph)

    tt = sub.add_parser("ternary", help="mutually anticommuting Pauli family")
    tt.add_argument("--k", type=int, required=True)
    tt.add_argument("--out")
    tt.set_defaults(func=_cmd_ternary)

    mo = sub.add_parser("model", help="draw one disorder realization")
    mo.add_argument("kind", choices=["syk", "sg", "classical"])
    mo.add_argument("--n", type=int, required=True)
    mo.add_argument("--loc", type=int, required=True)
    mo.add_argument("--seed", type=int, default=0)
    mo.add_argument("--spectrum", help="write full spectrum JSON here")
    mo.set_defaults(func=_cmd_model)

    bo = sub.add_parser("bounds", help="ansatz-size thresholds from concentration")
    bo.add_argument("--n", type=int, required=True)
    bo.add_argument("--q", type=int, required=True)
    bo.add_argument("--t", type=float, required=True)
    bo.add_argument("--gateset", type=int, required=True)
    bo.add_argument("--delta", type=float, required=True)
    bo.add_argument("--out")
    bo.set_defaults(func=_cmd_bounds)

    la = sub.add_parser("lab", help="disorder Monte Carlo experiments")
    la.add_argument(
        "experiment",
        choices=[
            "free-energy",
            "gradcheck",
            "variance",
            "tails",
            "mgf",
            "expmoment",
            "overlap",
            "contrast",
        ],
    )
    la.add_argument("--model", choices=["syk", "sg", "classical"], default="syk")
    la.add_argument("--n", type=int, default=12)
    la.add_argument("--loc", type=int, default=4)
    la.add_argument("--beta", type=float, action="append")
    la.add_argument("--tau", type=float, default=0.5)
    la.add_argument("--samples", type=int, default=500)
    la.add_argument("--seed", type=int, default=0)
    la.add_argument("--threads", type=int)
    la.add_argument("--state", default="random")
    la.add_argument("--quantity", choices=list(lab_mod.TAIL_QUANTITIES))
    la.add_argument("--n-list", type=int, action="append", dest="n_list")
    la.add_argument("--out", help="write the report JSON here")
    la.add_argument("--csv", help="write per-sample records CSV here")
    la.set_defaults(func=_cmd_lab)

    tb = sub.add_parser("table", help="exact theta table as CSV")
    tb.add_argument("--max-n", type=int, default=40, dest="max_n")
    tb.add_argument("--q", type=int, action="append", dest="q_list")
    tb.add_argument("--out")
    tb.set_defaults(func=_cmd_table)
    return ap


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_flags(args, argv) -> list[str]:
    """Config values as flags for every option of the chosen command that
    the command line leaves unset, so the parser applies each flag's type."""
    flags = []
    for key, value in _load_config(args.config).items():
        attr = key.replace("-", "_")
        flag = "--" + key.replace("_", "-")
        explicit = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if explicit or not hasattr(args, attr):
            continue
        if isinstance(getattr(args, attr), bool):  # a switch: present or absent
            if value.lower() not in _TRUE + _FALSE:
                raise InputError(f"config {key}={value!r} is not a boolean")
            if value.lower() in _TRUE:
                flags.append(flag)
        else:
            flags.append(f"{flag}={value}")
    return flags


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; every ``parse_args`` on it returns a new
    Namespace, so no state crosses calls."""
    return build_parser()


def dispatch(argv=None) -> int:
    parser = _parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = parser.parse_args(argv)
        flags = _config_flags(args, argv)
        if flags:
            args = parser.parse_args([*argv, *flags])
        _check_floats(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SystemExit as exc:
        # argparse signals usage problems with its own exit
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
