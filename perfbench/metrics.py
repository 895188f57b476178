"""Metric catalogue of the benchmark: names, units, direction, and for each
per-layer metric the end-to-end metric it should move and on which workload.

``BENCHMARK.json`` may only carry name, unit and direction, so the
layer-to-end-to-end map lives here; ``test_perfbench.py`` checks that the
two agree.  A later change that claims a gain names its metric and its
expected no-change workloads against this table.
"""

WORKLOADS = ("mc-small-d", "mc-large-d", "mc-observables", "theta-index")
LAYERS = ("algebra", "kernel", "models", "lab", "graphs", "scheme", "theta", "index", "cli")

# name, unit, better, bound (share of the parent's median).
# pass_rel is the median over passes of the pass time in units of a fixed
# calibration kernel timed beside every operation (worker.Calibration).
# The wall-clock pass_s is printed beside it but not bounded: a shared
# 2-core virtual machine switches between speed regimes for tens of seconds
# at a time.
# In two sets of ten runs per workload (2 cores, OpenBLAS 0.3.31 on one
# thread) the interquartile range of the runs' values, as a share of their
# median, was 0.08-0.22 for the wall-clock pass_s, 0.04-0.08 for pass_rel
# and 0.11-0.28 for setup_s; the sets' medians of pass_rel differed by at
# most 2.7%.  pass_rel's bound keeps that spread under a third of it.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_rel", "ratio", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Printed beside the end-to-end metrics of an untraced run, without a
# bound: pass_s (median wall time of a pass) drifts with the machine;
# samples_per_s does not exist on theta-index, and fail_frac is 0 on the
# mc-* workloads, where a bounded metric must be nonzero.
REPORTED = (
    ("pass_s", "s"),
    ("pass_s_q1", "s"),
    ("pass_s_q3", "s"),
    ("pass_rel_q1", "ratio"),
    ("pass_rel_q3", "ratio"),
    ("passes", "count"),
    ("samples_per_s", "1/s"),
    ("fail_frac", "ratio"),
)

_MC = "mc-small-d, mc-large-d, mc-observables"

# name, unit, better, moves, mostly on, ~no change on.
# Every per-pass value is the mean over the traced passes of one run;
# "_s" of an operation is inclusive of its child spans, "self_s" of a
# layer excludes them.  bank_build_s and bank_misses describe set-up.
PER_LAYER = (
    ("kernel.rng_s", "s", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("kernel.rng_calls", "count", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("kernel.rng_normals", "count", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("kernel.eig_s", "s", "lower", "samples_per_s", "mc-large-d", "mc-small-d"),
    ("kernel.eig_calls", "count", "lower", "samples_per_s", "mc-large-d", "mc-small-d"),
    ("kernel.eig_gflop", "GFLOP", "lower", "samples_per_s", "mc-large-d", "mc-small-d"),
    ("models.assemble_s", "s", "lower", "samples_per_s", "mc-large-d (syk)", "theta-index"),
    ("models.assemble_calls", "count", "lower", "samples_per_s", "mc-large-d (syk)", "theta-index"),
    ("models.assemble_mbytes", "MB", "lower", "samples_per_s", "mc-large-d (syk)", "theta-index"),
    ("models.bank_build_s", "s", "lower", "setup_s", "mc-large-d", "theta-index"),
    ("models.bank_misses", "count", "lower", "setup_s", "mc-large-d", "theta-index"),
    ("models.classical_sample_s", "s", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("lab.reduce_s", "s", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("lab.reduce_calls", "count", "lower", "samples_per_s", "mc-small-d", "mc-large-d"),
    ("lab.samples", "count", "higher", "pass_rel", "mc-small-d, mc-observables", "theta-index"),
    ("graphs.build_s", "s", "lower", "pass_rel", "theta-index", _MC),
    ("graphs.pairs", "count", "lower", "pass_rel", "theta-index", _MC),
    ("graphs.edges", "count", "lower", "pass_rel", "theta-index", _MC),
    ("graphs.export_s", "s", "lower", "pass_rel", "theta-index", _MC),
    ("graphs.state_s", "s", "lower", "pass_rel", "mc-observables, theta-index", "mc-large-d"),
    ("algebra.enumerate_s", "s", "lower", "pass_rel, setup_s", "theta-index", _MC + " (cached)"),
    ("algebra.members", "count", "lower", "pass_rel, setup_s", "theta-index", _MC + " (cached)"),
    ("scheme.hahn_s", "s", "lower", "pass_rel", "theta-index", _MC),
    ("scheme.verify_s", "s", "lower", "pass_rel", "theta-index", _MC),
    ("theta.lp_s", "s", "lower", "pass_rel", "theta-index", _MC),
    ("theta.lp_calls", "count", "lower", "pass_rel", "theta-index", _MC),
    ("theta.sdp_s", "s", "lower", "pass_rel, fail_frac", "theta-index", _MC),
    ("theta.sdp_calls", "count", "lower", "pass_rel, fail_frac", "theta-index", _MC),
    ("theta.sdp_unconverged", "count", "lower", "pass_rel, fail_frac", "theta-index", _MC),
    ("theta.sdp_max_duality_gap", "1", "lower", "pass_rel, fail_frac", "theta-index", _MC),
    ("theta.sdp_max_edge_residual", "1", "lower", "pass_rel, fail_frac", "theta-index", _MC),
    ("index.seesaw_s", "s", "lower", "pass_rel, peak_rss_mb", "theta-index", _MC),
    ("index.seesaw_calls", "count", "lower", "pass_rel, peak_rss_mb", "theta-index", _MC),
    ("cli.exit_nonzero", "count", "lower", "pass_rel, fail_frac", "theta-index", _MC),
) + tuple(
    (f"{layer}.self_s", "s", "lower", "pass_rel", "(layer self time)", "")
    for layer in LAYERS
) + (
    ("trace.unattributed_s", "s", "lower", "(coverage)", "all", ""),
    ("trace.overhead_s", "s", "lower", "(coverage)", "all", ""),
    ("trace.pass_s", "s", "lower", "(coverage)", "all", ""),
    ("trace.spans", "count", "lower", "(coverage)", "all", ""),
)
