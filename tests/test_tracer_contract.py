"""The benchmark tracer must resolve every name it wraps.

``perfbench/tracer.py`` looks up each ``WRAPS`` entry when a ``Tracer`` is
constructed, so a library rename or deletion that breaks a traced benchmark
run fails here first.  Its counters read the arguments and results of the
calls they wrap, so every benchmark operation also runs once under the
installed tracer at its tiny size.  The installed runs uninstall in
``finally`` so no patch outlives them.
"""

import importlib.util
import sys
from pathlib import Path

import fermitheta.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (the benchmark's operations)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_wrapped_name():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()  # raises if a wrapped name is gone
    patched = {(id(ns), attr) for ns, attr, _, _ in tracer._patches}
    for mod_name, dotted, _, _ in tracer_mod.WRAPS:
        owner, attr = tracer_mod._resolve(importlib.import_module(mod_name), dotted)
        assert (id(owner), attr) in patched, (mod_name, dotted)


def test_graph_counter_reads_a_real_graph():
    from collections import Counter

    from fermitheta.algebra import enumerate_set
    from fermitheta.graphs import commutation_graph

    g = commutation_graph(enumerate_set("pauli", 3, 2))
    m = len(g)
    counts = Counter()
    _load_tracer()._graph((), {}, g, counts)
    assert counts["graphs.edges"] == sum(g.degrees()) // 2 > 0
    assert counts["graphs.pairs"] == m * (m - 1) // 2


def test_installed_tracer_counts_sampling_layers():
    # disorder couplings come from the chunk draw, which the tracer does not
    # wrap, so the free energies trace no normals and no per-sample classical
    # span; only the variance phase's random state goes through the wrapped
    # gaussian_stream, with its 2 * dim normals
    from collections import Counter

    from fermitheta import lab

    tracer = _load_tracer().Tracer()
    samples, n, loc = 16, 6, 2
    runs = {
        "classical": lambda: lab.free_energy_experiment("classical", n, loc, [1.0], samples, 1),
        "syk": lambda: lab.free_energy_experiment("syk", n, loc, [1.0], samples, 1),
        "variance": lambda: lab.variance_identity_experiment("random", n, loc, samples, 1),
    }
    tracer.install()
    try:
        for phase, run in runs.items():
            tracer.op_id = (phase, None)
            run()
    finally:
        tracer.uninstall()
    normals = {phase: tracer.counters[phase]["kernel.rng_normals"] for phase in runs}
    assert normals == {"classical": 0, "syk": 0, "variance": 2 * 2 ** (n // 2)}
    classical = Counter(s[5][0] for s in tracer.spans if s[2] == "models.classical_sample")
    assert classical["classical"] == 0 and classical["syk"] == 0
    assert {phase: tracer.counters[phase]["lab.samples"] for phase in runs} == dict.fromkeys(runs, samples)


def test_installed_tracer_runs_every_tiny_operation():
    # a counter that reads what the library no longer has fails here
    tracer = _load_tracer().Tracer()
    names = ("mc-small-d", "mc-large-d", "mc-observables", "theta-index")
    tracer.install()
    try:
        for name in names:
            for j, op in enumerate(workloads.build(name, 5, tiny=True).ops):
                tracer.op_id = (name, j)
                assert op.failures(op.run()) == [], op.name
    finally:
        tracer.uninstall()
    for name in names:
        assert tracer.layer_totals({name})["trace.spans"] > 0, name


def test_installed_tracer_spans_each_index_estimate():
    # the benchmark's index.* layer metrics read these spans: one estimate
    # per index command, and the commuting-family bound of a Majorana one
    from collections import Counter

    tracer = _load_tracer().Tracer()
    ops = [op for op in workloads.build("theta-index", 5, tiny=True).ops
           if op.name.startswith("index")]
    assert {op.name.split()[2] for op in ops} == {"majorana", "pauli"}
    tracer.install()
    try:
        for j, op in enumerate(ops):
            tracer.op_id = ("index", j)
            assert op.failures(op.run()) == [], op.name
    finally:
        tracer.uninstall()
    for j, op in enumerate(ops):
        spans = Counter(s[2] for s in tracer.spans if s[5] == ("index", j))
        assert spans["index.estimate"] == 1, op.name
        assert spans["index.lower"] == (op.name.split()[2] == "majorana"), op.name
