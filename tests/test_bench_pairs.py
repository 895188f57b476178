"""The verdict, failure share, fault count and summary line of
tools/bench_pairs.py on synthetic paired runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import (  # noqa: E402
    ROOT,
    cold_run,
    counted_run,
    failed_share,
    fault_medians,
    pass_faults,
    timeit_run,
    verdict,
    verdict_line,
    workload_pairs,
)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def shifted(runs, by):
    return [r + by for r in runs]


class TestVerdict:
    def test_clear_gain(self):
        assert verdict(PARENT, shifted(PARENT, -20.0), "lower", 0.24) == "gain"

    def test_gain_in_the_higher_direction(self):
        assert verdict(PARENT, shifted(PARENT, 20.0), "higher", 0.05) == "gain"
        assert verdict(PARENT, shifted(PARENT, -30.0), "higher", 0.24) == "regressed"

    def test_eight_wins_of_ten_is_no_gain(self):
        change = shifted(PARENT, -20.0)
        change[0] = change[1] = 200.0
        assert verdict(PARENT, change, "lower", 0.24) == "within bound"

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, -20.0)
        change[0] = PARENT[0]
        change[1] = PARENT[1]
        assert verdict(PARENT, change, "lower", 0.24) == "within bound"
        change[1] = PARENT[1] - 20.0
        assert verdict(PARENT, change, "lower", 0.24) == "gain"

    def test_median_difference_must_exceed_the_parent_iqr(self):
        # the change wins every pair by a margin below the parent's spread
        wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        assert verdict(wide, shifted(wide, -1.0), "lower", 0.5) == "within bound"

    def test_same_runs_are_within_bound(self):
        assert verdict(PARENT, list(PARENT), "lower", 0.05) == "within bound"

    def test_regression_beyond_the_bound(self):
        assert verdict(PARENT, shifted(PARENT, 30.0), "lower", 0.24) == "regressed"
        assert verdict(PARENT, shifted(PARENT, 20.0), "lower", 0.24) == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
        assert verdict(wide, list(wide), "lower", 0.05) == "unresolved"
        # unless every change run is better than every parent run
        better = [r - 50.0 for r in wide]
        better[0] = better[1] = 200.0  # two lost pairs: no gain, yet the median is better
        assert verdict(wide, better, "lower", 0.05) == "unresolved"
        assert verdict(wide, [60.0] * 10, "lower", 0.05) == "gain"
        assert verdict(wide, [79.0] * 10, "lower", 0.05) == "within bound"

    @pytest.mark.parametrize("better", ["lower", "higher"])
    def test_a_single_pair(self, better):
        assert verdict([1.0], [1.0], better, 0.1) == "within bound"


def run(failed, attempted):
    return {"failed": failed, "attempted": attempted, "failed_share": failed / attempted}


class TestFailedShare:
    def test_equal_per_run_shares_read_equal(self):
        # the change runs twice the passes of the parent at the same share
        pairs = [{"parent": run(1, 7), "change": run(2, 14)},
                 {"parent": run(0, 7), "change": run(0, 21)}]
        share = failed_share(pairs)
        assert share["parent"] == share["change"] == pytest.approx(1 / 14)
        assert share["change_higher"] == 0

    def test_pairs_where_the_change_fails_more(self):
        pairs = [{"parent": run(0, 10), "change": run(1, 10)},
                 {"parent": run(2, 10), "change": run(1, 20)},
                 {"parent": run(1, 10), "change": run(3, 20)}]
        share = failed_share(pairs)
        assert share["parent"] == pytest.approx(0.1)
        assert share["change"] == pytest.approx((0.1 + 0.05 + 0.15) / 3)
        assert share["change_higher"] == 2


class TestVerdictLine:
    ENTRY = {
        "metrics": {
            "setup_s": {"verdict": "within bound"},
            "pass_rel": {"verdict": "gain"},
            "peak_rss_mb": {"verdict": "within bound"},
            "calib_ns": {"change_lower": 4},  # not an end-to-end metric: no verdict
        },
        "failed_share": {"parent": 0.0, "change": 1 / 7, "change_higher": 1},
        "all_correct": True,
        "same_digest": False,
    }

    def test_names_every_verdict_and_both_failure_shares(self):
        assert verdict_line("mc-small-d", self.ENTRY) == (
            "mc-small-d: setup_s within bound, pass_rel gain, peak_rss_mb within bound;"
            " failed share 0 -> 0.1429; all_correct true; same_digest false")


class TestMinorFaults:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt of children")
    def test_counts_the_pages_a_child_touches(self, tmp_path):
        # the child writes 64 MB of 4 KiB pages (a bytearray is not advised
        # into huge pages): 16384 faults more than an empty child
        touch = "b = bytearray(b'x') * (64 << 20)"
        proc, faults = counted_run([sys.executable, "-c", touch], tmp_path)
        empty, base = counted_run([sys.executable, "-c", "pass"], tmp_path)
        assert proc.returncode == empty.returncode == 0
        assert 0 < base and faults - base >= 16000

    def test_medians_per_side(self):
        pairs = [{"parent": {"minor_faults": f}, "change": {"minor_faults": c}}
                 for f, c in [(900, 10), (1000, 12), (950, 8)]]
        assert fault_medians(pairs) == {"parent": 950, "change": 10}


class TestProbes:
    def test_cold_run_of_a_command_without_scipy(self):
        run = cold_run(ROOT, "ternary --k 2")
        assert run["code"] == 0 and run["scipy_modules"] == 0
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 1

    def test_pass_faults_count_each_pass(self):
        faults = pass_faults(ROOT, "mc-observables", 1, 2, tiny=True)
        assert len(faults) == 2 and all(isinstance(f, int) and f >= 0 for f in faults)

    def test_timeit_run_takes_the_least_timing(self):
        # the setup runs before each timing, so the statement sees a fresh list
        best = timeit_run(ROOT, "from fermitheta.graphs import ternary_tree_paulis; xs = []",
                          "xs.append(len(ternary_tree_paulis(2))); assert xs == [9]")
        assert 0 < best < 1


class TestWorkloadPairs:
    def test_default_and_own_count(self):
        assert workload_pairs("theta-index", 10) == ("theta-index", 10)
        assert workload_pairs("mc-large-d:3", 10) == ("mc-large-d", 3)
