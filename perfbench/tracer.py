"""In-memory span tracer that wraps fermitheta's public entry points from
outside the package.

Each entry of ``WRAPS`` names a callable by its defining module and
attribute.  ``install`` replaces it at every name through which callers
reach it: the defining module, and every ``fermitheta`` module that bound
the same object by ``from .x import y``.  Methods are replaced on their
class.  A span is (id, parent id, op, start, end, operation id); spans
stay in memory until ``dump``.

A layer's self time is the time its spans cover minus the time their
child spans cover; the benchmark's own operation spans form the layer
``bench``, whose self time is time no layer span covers.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "fermitheta"


def _eig_gflop(values_only):
    # Computed from the dimension, not measured: Hermitian tridiagonal
    # reduction is 4/3 d^3 flops, a full decomposition with vectors about
    # 9 d^3 (Golub & Van Loan); complex arithmetic costs 4 real flops each.
    per_d3 = 4.0 / 3.0 if values_only else 9.0

    def count(args, kwargs, result, c):
        a = args[0]
        d = a.shape[-1]
        scale = 4.0 if a.dtype.kind == "c" else 1.0
        c["kernel.eig_gflop"] += scale * per_d3 * d**3 / 1e9

    return count


def _rng(args, kwargs, result, c):
    c["kernel.rng_normals"] += int(args[1])


def _assemble(args, kwargs, result, c):
    # Computed bytes of TermBank.assemble: rows (8 B), values (16 B) and the
    # scaled-value temporary written and read (2 x 16 B) per term and
    # column, plus zero-fill and rescale of the d x d complex result.
    m, d = args[0].rows.shape
    c["models.assemble_mbytes"] += (m * d * 56 + 3 * d * d * 16) / 1e6


def _members(args, kwargs, result, c):
    c["algebra.members"] += len(result)


def _graph(args, kwargs, result, c):
    m = len(result.adjacency)
    c["graphs.pairs"] += m * (m - 1) // 2
    c["graphs.edges"] += sum(b.bit_count() for b in result.adjacency) // 2


def _sdp(args, kwargs, result, c):
    c["theta.sdp_unconverged"] += 0 if result.converged else 1
    gap = result.residuals.get("duality_gap", 0.0)
    res = result.residuals.get("edge_residual", 0.0)
    c["theta.sdp_max_duality_gap"] = max(c["theta.sdp_max_duality_gap"], gap)
    c["theta.sdp_max_edge_residual"] = max(c["theta.sdp_max_edge_residual"], res)


def _exit_code(args, kwargs, result, c):
    c["cli.exit_nonzero"] += 1 if result else 0


def _samples(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result, c):
        c["lab.samples"] += int(sig.bind(*args, **kwargs).arguments["samples"])

    return count


# (defining module, attribute, op, counter).  The op's prefix is its layer.
WRAPS = (
    ("numpy.linalg", "eigvalsh", "kernel.eig", _eig_gflop(True)),
    ("numpy.linalg", "eigh", "kernel.eig", _eig_gflop(False)),
    ("fermitheta.kernel", "eigh", "kernel.eigh", None),
    ("fermitheta.kernel", "gaussian_stream", "kernel.rng", _rng),
    ("fermitheta.algebra", "enumerate_set", "algebra.enumerate", _members),
    ("fermitheta.algebra", "OperatorSet.hermitized_matrices", "algebra.matrices", None),
    ("fermitheta.models", "TermBank.__init__", "models.bank_build", None),
    ("fermitheta.models", "TermBank.assemble", "models.assemble", _assemble),
    ("fermitheta.models", "TermBank.expectations", "models.expectations", None),
    ("fermitheta.models", "term_bank", "models.term_bank", None),
    ("fermitheta.models", "sample_classical_pspin", "models.classical_sample", None),
    ("fermitheta.models", "ansatz_bounds_report", "models.bounds", None),
    ("fermitheta.models", "h_comm_count", "models.h_comm", None),
    ("scipy.special", "logsumexp", "lab.reduce", None),
    ("fermitheta.lab", "free_energy_experiment", "lab.experiment", "samples"),
    ("fermitheta.lab", "tail_experiment", "lab.experiment", "samples"),
    ("fermitheta.lab", "variance_identity_experiment", "lab.experiment", "samples"),
    ("fermitheta.graphs", "commutation_graph", "graphs.build", _graph),
    ("fermitheta.graphs", "CommutationGraph.adjacency_matrix", "graphs.adjacency", None),
    ("fermitheta.graphs", "CommutationGraph.to_edge_csv", "graphs.export", None),
    ("fermitheta.graphs", "CommutationGraph.to_json", "graphs.export", None),
    ("fermitheta.graphs", "stabilized_state", "graphs.state", None),
    ("fermitheta.graphs", "joint_eigenstate", "graphs.state", None),
    ("fermitheta.graphs", "commuting_majorana_family", "graphs.family", None),
    ("fermitheta.graphs", "best_commuting_family", "graphs.family", None),
    ("fermitheta.graphs", "ternary_tree_paulis", "graphs.ternary", None),
    ("fermitheta.scheme", "HahnTable.__post_init__", "scheme.hahn", None),
    ("fermitheta.scheme", "verify_scheme_spectrum", "scheme.verify", None),
    ("fermitheta.theta", "theta_johnson_lp", "theta.lp", None),
    ("fermitheta.theta", "theta_sdp", "theta.sdp", _sdp),
    ("fermitheta.index", "index_estimate", "index.estimate", None),
    ("fermitheta.index", "index_seesaw", "index.seesaw", None),
    ("fermitheta.index", "index_lower_family", "index.lower", None),
    ("fermitheta.cli", "dispatch", "cli.dispatch", _exit_code),
)

# op -> metric name of its inclusive time and call count
_OP_TIME = {
    "kernel.rng": ("kernel.rng_s", "kernel.rng_calls"),
    "kernel.eig": ("kernel.eig_s", "kernel.eig_calls"),
    "models.assemble": ("models.assemble_s", "models.assemble_calls"),
    "models.bank_build": ("models.bank_build_s", None),
    "models.classical_sample": ("models.classical_sample_s", None),
    "lab.reduce": ("lab.reduce_s", "lab.reduce_calls"),
    "graphs.build": ("graphs.build_s", None),
    "graphs.export": ("graphs.export_s", None),
    "graphs.state": ("graphs.state_s", None),
    "algebra.enumerate": ("algebra.enumerate_s", None),
    "scheme.hahn": ("scheme.hahn_s", None),
    "scheme.verify": ("scheme.verify_s", None),
    "theta.lp": ("theta.lp_s", "theta.lp_calls"),
    "theta.sdp": ("theta.sdp_s", "theta.sdp_calls"),
    "index.seesaw": ("index.seesaw_s", "index.seesaw_calls"),
}


def _resolve(owner, dotted):
    obj = owner
    for part in dotted.split(".")[:-1]:
        obj = getattr(obj, part)
    return obj, dotted.split(".")[-1]


class Tracer:
    """Span recorder plus the attribute patches that feed it.

    ``op_id`` is (phase, operation index): the phase is ``"setup"`` or a
    pass number.  Counters are kept per phase.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, start, end, op_id)
        self.counters = defaultdict(lambda: defaultdict(float))
        self.op_id = ("setup", None)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (namespace, attr, original, wrapper)
        self._build()

    def _wrapper(self, fn, op, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, op, start, end, self.op_id)
            if counter is not None:
                counter(args, kwargs, result, self.counters[self.op_id[0]])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", op)
        return traced

    def _build(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None]
        for mod_name, dotted, op, counter in WRAPS:
            owner, attr = _resolve(importlib.import_module(mod_name), dotted)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if counter == "samples":
                counter = _samples(original)
            wrapper = self._wrapper(original, op, counter)
            targets = [owner]
            if not isinstance(owner, type):
                targets += [m for m in modules
                            if m is not owner and m.__dict__.get(attr) is original]
            for ns in targets:
                self._patches.append((ns, attr, original, wrapper))

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    def reach(self) -> list[str]:
        """Every patched name, as ``module.attribute``."""
        return sorted(f"{ns.__module__}.{ns.__qualname__}.{attr}" if isinstance(ns, type)
                      else f"{ns.__name__}.{attr}" for ns, attr, _, _ in self._patches)

    @contextlib.contextmanager
    def span(self, op):
        """Record one benchmark-level span around a with-block."""
        sid, parent = len(self.spans), self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, op, start, end, self.op_id)

    def layer_totals(self, phases) -> dict[str, float]:
        """Self time per layer, inclusive time and calls per operation, and
        counters, summed over the given phases."""
        child = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        out: dict[str, float] = defaultdict(float)
        for sid, parent, op, start, end, op_id in self.spans:
            if op_id[0] not in phases:
                continue
            layer = op.split(".")[0]
            out[f"{layer}.self_s"] += (end - start) - child[sid]
            # inclusive time only for the outermost span of an op
            p = parent
            while p >= 0 and self.spans[p][2] != op:
                p = self.spans[p][1]
            if p < 0 and op in _OP_TIME:
                t_name, c_name = _OP_TIME[op]
                out[t_name] += end - start
                if c_name:
                    out[c_name] += 1
            out["trace.spans"] += 1
        for phase in phases:
            for name, value in self.counters[phase].items():
                if name.startswith("theta.sdp_max"):
                    out[name] = max(out[name], value)
                else:
                    out[name] += value
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "start", "end", "op_id"],
                       "spans": self.spans}, fh)
