"""Command-line surface: exit codes, outputs, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fermitheta.algebra
import fermitheta.cli
import fermitheta.graphs
import fermitheta.index
import fermitheta.models
import fermitheta.scheme
import fermitheta.theta
from fermitheta import lab
from fermitheta.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    dispatch,
    reproduce_table,
)
from fermitheta.kernel import InputError
from fermitheta.reports import _atomic_write

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (the benchmark's commands and reference checks)


_EVERY_LAB_EXPERIMENT = pytest.mark.parametrize(
    "args",
    [
        ["free-energy", "--n", "8", "--loc", "4"],
        ["free-energy", "--model", "classical", "--n", "8", "--loc", "4"],
        ["variance", "--n", "8", "--loc", "4"],
        ["tails", "--n", "8", "--loc", "4"],
        ["mgf", "--n", "8", "--loc", "4"],
        ["expmoment", "--n", "8", "--loc", "4"],
        ["overlap", "--n", "8", "--loc", "4"],
        ["contrast", "--n-list", "8"],
    ],
    ids=["free-energy", "free-energy-classical", "variance", "tails", "mgf", "expmoment",
         "overlap", "contrast"],
)


class TestDispatch:
    def test_theta_johnson(self, capsys):
        assert dispatch(["theta", "johnson", "--n", "8", "--q", "4"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "14.00"

    def test_theta_exact_output(self, capsys):
        dispatch(["theta", "johnson", "--n", "10", "--q", "4", "--exact-output"])
        assert capsys.readouterr().out.strip() == "102/7"

    def test_theta_writes_result_json(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        dispatch(["theta", "johnson", "--n", "8", "--q", "4", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["value"] == "14"
        assert payload["method"] == "johnson-lp-exact"

    def test_theta_odd_n_usage_error(self):
        assert dispatch(["theta", "johnson", "--n", "9", "--q", "4"]) == EXIT_USAGE

    def test_unknown_flag_usage_error(self, capsys):
        assert dispatch(["theta", "johnson", "--n", "8", "--q", "4", "--bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_ternary_k1(self, capsys):
        assert dispatch(["ternary", "--k", "1"]) == EXIT_OK
        assert capsys.readouterr().out.split() == ["X", "Y", "Z"]

    def test_capacity_exit(self):
        assert dispatch(["model", "syk", "--n", "26", "--loc", "4"]) == EXIT_CAPACITY

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["model", "syk", "--n", "20000", "--loc", "10000"], "2^10000"),
            (["model", "sg", "--n", "1000000000", "--loc", "999999999"], "2^1000000000"),
            (["index", "--set", "pauli", "--n", "1000000000", "--loc", "999999999"], "2^1000000000"),
        ],
        ids=["model-syk", "model-sg", "index-pauli"],
    )
    def test_huge_family_refused_before_its_size(self, monkeypatch, capsys, argv, line):
        # the dense dimension depends on n alone and is checked first, so a
        # family far over it is never counted (its size would not print)
        def refuse(*args):
            raise AssertionError("family counted before its dense dimension was checked")

        monkeypatch.setattr(fermitheta.algebra, "_family_count", refuse)
        assert dispatch(argv) == EXIT_CAPACITY
        assert capsys.readouterr().err.splitlines() == [
            f"capacity error: dense dimension {line} exceeds the requested cap 4096"
        ]

    def test_theta_sdp(self, capsys):
        assert dispatch(
            ["theta", "sdp", "--set", "majorana", "--n", "6", "--loc", "2", "--tol", "1e-6"]
        ) == EXIT_OK
        assert abs(float(capsys.readouterr().out.strip()) - 3.0) < 1e-3

    def test_hahn_verify(self, capsys):
        assert dispatch(["hahn", "--m", "6", "--r", "2", "--verify"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_graph_csv(self, capsys):
        dispatch(["graph", "--set", "majorana", "--n", "6", "--loc", "2", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 1 + 15 * 8 // 2

    def test_model_spectrum_file(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code = dispatch(
            ["model", "syk", "--n", "8", "--loc", "4", "--seed", "3", "--spectrum", str(out)]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["eigenvalues"]) == 16
        capsys.readouterr()

    @pytest.mark.parametrize("kind,n,loc", [("syk", 10, 4), ("sg", 4, 2), ("classical", 8, 4)])
    def test_model_spectrum_is_lab_sample_zero(self, capsys, tmp_path, kind, n, loc):
        out = tmp_path / "spec.json"
        argv = ["model", kind, "--n", str(n), "--loc", str(loc), "--seed", "5"]
        assert dispatch([*argv, "--spectrum", str(out)]) == EXIT_OK
        capsys.readouterr()
        want = np.sort(next(lab._chunks(kind, n, loc, 5, lab.MIN_SAMPLES))[0])
        assert json.loads(out.read_text())["eigenvalues"] == [float(v) for v in want]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lab", "free-energy", "--model", "syk", "--n", "26", "--loc", "4"],
            ["lab", "free-energy", "--model", "sg", "--n", "13", "--loc", "2"],
            ["lab", "variance", "--n", "26", "--loc", "4"],
            ["lab", "tails", "--n", "26", "--loc", "4"],
            ["lab", "mgf", "--n", "26", "--loc", "4"],
            ["lab", "expmoment", "--n", "26", "--loc", "4"],
            ["lab", "gradcheck", "--n", "26", "--loc", "4"],
            ["model", "syk", "--n", "26", "--loc", "4"],
            ["model", "sg", "--n", "13", "--loc", "2"],
            ["model", "classical", "--n", "23", "--loc", "4"],
        ],
        ids=["free-energy-syk", "free-energy-sg", "variance", "tails", "mgf", "expmoment",
             "gradcheck", "model-syk", "model-sg", "model-classical"],
    )
    def test_over_cap_refused_before_any_bank(self, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("term bank built for an input over the caps")

        monkeypatch.setattr(fermitheta.algebra.TermBank, "__init__", refuse)
        monkeypatch.setattr(fermitheta.algebra, "term_bank", refuse)
        monkeypatch.setattr(fermitheta.models, "term_bank", refuse)
        assert dispatch(argv) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("capacity error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["hahn", "--m", "800", "--r", "400"],
            ["hahn", "--m", "500", "--r", "250", "--verify"],
            ["theta", "johnson", "--n", "800", "--q", "400"],
        ],
        ids=["hahn", "hahn-verify", "theta-johnson"],
    )
    def test_hahn_cap_refused_before_any_entry(self, monkeypatch, capsys, argv):
        def refuse(*args):
            raise AssertionError("binomial computed for a Hahn table over the cap")

        monkeypatch.setattr(fermitheta.scheme, "binom0", refuse)
        assert dispatch(argv) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("capacity error: Hahn table")

    def test_johnson_lp_cap_refused_before_the_hahn_table(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("Hahn table built for an LP over the cap")

        monkeypatch.setattr(fermitheta.theta, "HahnTable", refuse)
        assert dispatch(["theta", "johnson", "--n", "160", "--q", "80"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("capacity error: Johnson LP (160, 80)")

    def test_expmoment_negative_beta(self, capsys):
        argv = ["lab", "expmoment", "--n", "4", "--loc", "2", "--samples", "16", "--beta=-1"]
        assert dispatch(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["rows"][0]["c1_required"] >= 0.0

    def test_bounds(self, capsys):
        assert dispatch(
            ["bounds", "--n", "100", "--q", "4", "--t", "0.5", "--gateset", "64", "--delta", "0.001"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["circuit_gate_threshold"] == 3158

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_bounds_refuse_q_equal_to_n(self, capsys, n):
        # a single term anticommutes with none (h_comm = 0): refused in one
        # line, where the eigenvalue bound divided by zero
        argv = ["bounds", "--n", str(n), "--q", str(n), "--t", "0.5", "--gateset", "64",
                "--delta", "1e-3"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: q = n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["expmoment", "--n", "4", "--loc", "4", "--samples", "16"], "q = n leaves a single term"),
            (["expmoment", "--n", "2", "--loc", "2"], "q = n leaves a single term"),
            (["expmoment", "--n", "6", "--loc", "6", "--beta", "0.5"], "q = n leaves a single term"),
            (["tails", "--n", "2", "--loc", "2", "--quantity", "obs_expectation"],
             "obs_expectation needs n >= 4: X = i g1 g2 and Y = i g3 g4"),
            (["tails", "--n", "2", "--loc", "2", "--quantity", "two_point"],
             "two_point needs n >= 4: X = i g1 g2 and Y = i g3 g4"),
            (["tails", "--n", "2", "--loc", "2"], "obs_expectation needs n >= 4"),
        ],
        ids=["expmoment-4", "expmoment-2", "expmoment-6", "obs_expectation", "two_point",
             "every-quantity"],
    )
    def test_degenerate_lab_input_refused_before_any_sample(self, monkeypatch, capsys, argv,
                                                             message):
        # expmoment divided by h_comm = 0 after every sample; the Gibbs
        # observables at n = 2 failed inside their sector operators
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for a refused input")

        for name in ("_chunks", "_coupling_chunks", "sample_couplings"):
            monkeypatch.setattr(lab, name, refuse)
        assert dispatch(["lab", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("model", ["sg", "classical"])
    @pytest.mark.parametrize("experiment", ["gradcheck", "variance", "tails", "mgf", "expmoment"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_syk_only_experiment_refuses_other_models(self, monkeypatch, capsys, tmp_path,
                                                      experiment, model, via_config):
        # these experiments draw SYK samples only, so they take no --model:
        # the flag is refused before any sample, and a config key is skipped,
        # so the run is the SYK run and its report names no model
        argv = ["lab", experiment, "--n", "8", "--loc", "4"]
        if experiment == "tails":
            argv += ["--quantity", "lambda_max"]
        if experiment != "gradcheck":
            argv += ["--samples", "16"]
        if via_config:
            assert dispatch(argv) in (EXIT_OK, EXIT_VERDICT)
            syk = json.loads(capsys.readouterr().out)
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"model={model}\n")
            assert dispatch(["--config", str(cfg), *argv]) in (EXIT_OK, EXIT_VERDICT)
            payload = json.loads(capsys.readouterr().out)
            assert "model" not in payload.get("config", {})
            for report in (syk, payload):
                report.pop("duration_ms", None)
                report.pop("config", None)
            assert payload == syk
            return

        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for a refused model")

        for name in ("_chunks", "_coupling_chunks", "sample_couplings", "gradcheck_logZ",
                     "variance_identity_experiment", "tail_experiment", "mgf_check",
                     "exp_moment_check"):
            monkeypatch.setattr(lab, name, refuse)
        assert dispatch([*argv, "--model", model]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert lines == [f"error: unrecognized arguments: --model {model}"]

    def test_index_all(self, capsys):
        assert dispatch(
            ["index", "--set", "majorana", "--n", "6", "--loc", "2", "--method", "all"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper"]["rational"] == "1/5"

    def test_lab_report_and_seed_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = [
            "lab",
            "variance",
            "--n",
            "6",
            "--loc",
            "2",
            "--samples",
            "64",
            "--seed",
            "11",
            "--state",
            "random",
        ]
        assert dispatch(base + ["--out", str(out1)]) == EXIT_OK
        assert dispatch(base + ["--out", str(out2)]) == EXIT_OK
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["records"] == b["records"]
        assert a["config"]["seed"] == 11
        capsys.readouterr()

    def test_lab_tails_csv_per_quantity(self, capsys, tmp_path):
        argv = ["lab", "tails", "--n", "4", "--loc", "2", "--samples", "16",
                "--csv", str(tmp_path / "t.csv"), "--out", str(tmp_path / "t.json")]
        assert dispatch(argv) in (EXIT_OK, EXIT_VERDICT)
        capsys.readouterr()
        assert not (tmp_path / "t.csv").exists()
        for quantity in lab.TAIL_QUANTITIES:
            report = json.loads((tmp_path / f"t.{quantity}.json").read_text())
            assert report["config"]["csv"] == str(tmp_path / f"t.{quantity}.csv")
            rows = list(csv.reader(io.StringIO((tmp_path / f"t.{quantity}.csv").read_text())))
            assert rows[0] == ["sample", *report["records"]], quantity
            assert len(rows) > 1
        # a single quantity keeps the given paths
        argv = ["lab", "tails", "--n", "4", "--loc", "2", "--samples", "16", "--quantity",
                "two_point", "--csv", str(tmp_path / "s.csv"), "--out", str(tmp_path / "s.json")]
        assert dispatch(argv) in (EXIT_OK, EXIT_VERDICT)
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO((tmp_path / "s.csv").read_text())))
        assert rows[0] == ["sample", "two_point_hermitian", "two_point_antihermitian"]

    def test_lab_gradcheck(self, capsys):
        assert dispatch(
            ["lab", "gradcheck", "--n", "8", "--loc", "4", "--beta", "1.0", "--seed", "2"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["max_rel_error"] <= 1e-5
        assert [v["name"] for v in payload["verdicts"]] == ["gradient_match"]

    def test_lab_gradcheck_refuses_n_above_16_before_any_sample(self, monkeypatch, capsys):
        def couplings(*args, **kwargs):
            def draw():
                raise AssertionError("sample drawn for a refused size")
                yield

            return draw()

        monkeypatch.setattr(lab, "sample_couplings", couplings)
        assert dispatch(["lab", "gradcheck", "--n", "18", "--loc", "4"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["error: gradient check limited to dimension 2^8"]

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\nloc=2\nsamples=24\nseed=13\n")
        code = dispatch(
            ["--config", str(cfg), "lab", "variance", "--n", "6", "--samples", "32"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # explicit flag beats config; config beats parser default
        assert payload["params"]["samples"] == 32
        assert payload["seed"] == 13
        assert payload["params"]["q"] == 2
        # a key the experiment does not take is skipped
        assert payload["params"]["threads"] == 1
        assert "threads" not in payload["config"]

    def test_config_float_list_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=1.0\nsamples=16\n")
        code = dispatch(
            ["--config", str(cfg), "lab", "free-energy", "--model", "sg", "--n", "2", "--loc", "1"]
        )
        assert code in (EXIT_OK, EXIT_VERDICT)
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["beta_list"] == [1.0]
        assert payload["config"]["beta"] == [1.0]

    def test_config_value_typed_like_its_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=1.0\nsamples=16\n")
        code = dispatch(["--config", str(cfg), "lab", "expmoment", "--n", "6", "--loc", "2"])
        assert code in (EXIT_OK, EXIT_VERDICT)
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["beta"] == [1.0]
        assert payload["config"]["samples"] == 16

    def test_explicit_list_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=1.0\n")
        dispatch(["--config", str(cfg), "lab", "expmoment", "--n", "6", "--loc", "2",
                  "--samples", "16", "--beta", "0.5"])
        assert json.loads(capsys.readouterr().out)["config"]["beta"] == [0.5]

    @pytest.mark.parametrize("line", ["samples=abc", "beta=hot", "seed=1.5"])
    def test_config_bad_value_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = ["--config", str(cfg), "lab", "expmoment", "--n", "6", "--loc", "2"]
        assert dispatch(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_config_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verify=true\nsamples=16\n")
        assert dispatch(["--config", str(cfg), "hahn", "--m", "6", "--r", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True
        cfg.write_text("verify=maybe\n")
        assert dispatch(["--config", str(cfg), "hahn", "--m", "6", "--r", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_threads_below_one_usage_error(self, capsys, value):
        # no experiment takes --threads, whatever its value
        argv = ["lab", "mgf", "--n", "6", "--loc", "2", "--samples", "16", "--threads", value]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: unrecognized arguments: --threads {value}"
        ]

    @_EVERY_LAB_EXPERIMENT
    def test_too_few_samples_usage_error(self, capsys, args):
        assert dispatch(["lab", *args, "--samples", "15"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["error: need at least 16 samples, got 15"]

    @_EVERY_LAB_EXPERIMENT
    def test_too_many_samples_capacity_error(self, capsys, args):
        assert dispatch(["lab", *args, "--samples", "1000001"]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "capacity error: 1000001 samples exceed the cap of 1000000"
        ]


# Each lab experiment: a small run, and for every option the experiment
# takes, a value other than the run's.
_LAB_SHARED = {"--samples": "17", "--seed": "1", "--out": "{}/r.json", "--csv": "{}/r.csv"}
_LAB_READS = {
    "free-energy": (["--n", "6", "--loc", "2", "--samples", "16"],
                    {"--model": "sg", "--n": "4", "--loc": "4", "--beta": "0.5", **_LAB_SHARED}),
    "gradcheck": (["--n", "6", "--loc", "2"],
                  {"--n": "4", "--loc": "4", "--beta": "0.5", "--seed": "1"}),
    "variance": (["--n", "6", "--loc", "2", "--samples", "16"],
                 {"--n": "4", "--loc": "4", "--state": "stabilized", **_LAB_SHARED}),
    "tails": (["--n", "6", "--loc", "2", "--samples", "16", "--quantity", "two_point"],
              {"--n": "4", "--loc": "4", "--beta": "0.5", "--tau": "0.25",
               "--quantity": "lambda_max", **_LAB_SHARED}),
    "mgf": (["--n", "6", "--loc", "2", "--samples", "16"],
            {"--n": "4", "--loc": "4", **_LAB_SHARED}),
    "expmoment": (["--n", "6", "--loc", "2", "--samples", "16"],
                  {"--n": "4", "--loc": "4", "--beta": "0.5", **_LAB_SHARED}),
    "overlap": (["--n", "6", "--loc", "2", "--samples", "16"],
                {"--n": "4", "--loc": "4", "--beta": "0.5", **_LAB_SHARED}),
    "contrast": (["--n-list", "4", "--samples", "16"],
                 {"--n-list": "6", "--beta": "0.5", **_LAB_SHARED}),
}
# Every option of the lab command before each experiment had its own,
# --threads included, with a value that an experiment taking it accepts.
_LAB_FLAGS = {"--model": "sg", "--n": "8", "--loc": "4", "--beta": "1.0", "--tau": "0.5",
              "--samples": "16", "--seed": "1", "--threads": "1", "--state": "random",
              "--quantity": "lambda_max", "--n-list": "8", "--out": "{}/r.json",
              "--csv": "{}/r.csv"}


class TestLabOptions:
    """Each lab experiment takes exactly the options its library function
    reads: every other option is refused before any sample is drawn, and
    every option it takes changes what it reports or writes, and only
    those options are in the report's config."""

    def test_accepted_pairs(self):
        assert sum(len(reads) for _, reads in _LAB_READS.values()) == 54

    @pytest.mark.parametrize("experiment,flag", [
        (name, flag) for name, (_, reads) in _LAB_READS.items()
        for flag in _LAB_FLAGS if flag not in reads
    ])
    def test_refused(self, monkeypatch, capsys, tmp_path, experiment, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for a refused option")

        for name in ("_chunks", "_coupling_chunks", "sample_couplings"):
            monkeypatch.setattr(lab, name, refuse)
        base, _ = _LAB_READS[experiment]
        value = _LAB_FLAGS[flag].format(tmp_path)
        assert dispatch(["lab", experiment, *base, flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert lines == [f"error: unrecognized arguments: {flag} {value}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment", list(_LAB_READS))
    def test_stdout_report_embeds_config(self, capsys, experiment):
        # every option of the experiment that has a value, given or default
        base, _ = _LAB_READS[experiment]
        assert dispatch(["lab", experiment, *base]) in (EXIT_OK, EXIT_VERDICT)
        config = json.loads(capsys.readouterr().out)["config"]
        want = {"command": "lab", "experiment": experiment}
        for option in fermitheta.cli._LAB_EXPERIMENTS[experiment]:
            spec = fermitheta.cli._LAB_OPTIONS[option]
            if "default" in spec:
                want[option[2:].removesuffix("...").replace("-", "_")] = spec["default"]
        for flag, value in zip(base[::2], base[1::2]):
            key = flag[2:].replace("-", "_")
            want[key] = [int(value)] if flag == "--n-list" else int(value) if value.isdigit() else value
        assert config == want

    @pytest.mark.parametrize("experiment,flag", [
        (name, flag) for name, (_, reads) in _LAB_READS.items() for flag in reads
    ])
    def test_read(self, capsys, tmp_path, experiment, flag):
        base, reads = _LAB_READS[experiment]
        value = reads[flag].format(tmp_path)
        assert dispatch(["lab", experiment, *base]) in (EXIT_OK, EXIT_VERDICT)
        before = json.loads(capsys.readouterr().out)
        assert dispatch(["lab", experiment, *base, flag, value]) in (EXIT_OK, EXIT_VERDICT)
        out = capsys.readouterr().out
        if flag in ("--out", "--csv"):
            assert Path(value).is_file()
            return
        after = json.loads(out)
        # the report's config names no option that the experiment does not read
        names = {f[2:].replace("-", "_") for f in reads} | {"command", "experiment"}
        assert set(after.get("config", {})) <= names
        for report in (before, after):
            report.pop("duration_ms", None)
            report.pop("config", None)
        assert after != before


class TestContrastSizes:
    """lab contrast compares consecutive sizes n < n': a size list that
    is not strictly increasing is a usage error, before any sample."""

    @pytest.mark.parametrize("sizes", [["8", "4"], ["4", "4"]], ids=["decreasing", "repeated"])
    def test_refused(self, monkeypatch, capsys, sizes):
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn for a refused size list")

        monkeypatch.setattr(lab, "_log_partition", refuse)
        argv = ["lab", "contrast", "--samples", "16"]
        for n in sizes:
            argv += ["--n-list", n]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: size list must be nonempty and strictly increasing, got [{', '.join(sizes)}]"
        ]

    @pytest.mark.parametrize(
        "sizes,samples,code,message",
        [
            (["8", "12", "23"], "200", EXIT_USAGE, "error: majorana enumeration requires even mode count"),
            (["8", "24"], "200", EXIT_CAPACITY,
             "capacity error: 24 spins exceed the enumeration budget of 22"),
            (["8", "12"], "8", EXIT_USAGE, "error: need at least 16 samples, got 8"),
        ],
        ids=["odd-size", "classical-cap", "samples"],
    )
    def test_every_size_checked_before_the_first_sample(self, monkeypatch, capsys, sizes, samples,
                                                        code, message):
        def refuse(*args, **kwargs):
            raise AssertionError("sample drawn before every size was checked")

        monkeypatch.setattr(lab, "_log_partition", refuse)
        argv = ["lab", "contrast", "--samples", samples]
        for n in sizes:
            argv += ["--n-list", n]
        assert dispatch(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [message]


class TestParserReuse:
    """dispatch parses with one parser per process, and no state crosses calls."""

    def test_one_parser_per_process(self, monkeypatch, capsys):
        built = []
        build = fermitheta.cli.build_parser

        def counting():
            built.append(1)
            return build()

        fermitheta.cli._parser.cache_clear()
        monkeypatch.setattr(fermitheta.cli, "build_parser", counting)
        try:
            for _ in range(3):
                assert dispatch(["ternary", "--k", "1"]) == EXIT_OK
        finally:
            fermitheta.cli._parser.cache_clear()
        assert len(built) == 1
        assert build() is not build()
        capsys.readouterr()

    def test_appended_list_starts_empty_each_call(self, capsys):
        argv = ["lab", "free-energy", "--model", "sg", "--n", "2", "--loc", "1",
                "--samples", "16", "--beta", "0.5", "--beta", "1.0"]
        for _ in range(2):
            assert dispatch(argv) in (EXIT_OK, EXIT_VERDICT)
            payload = json.loads(capsys.readouterr().out)
            assert payload["params"]["beta_list"] == [0.5, 1.0]
            assert payload["config"]["beta"] == [0.5, 1.0]

    def test_config_values_do_not_reach_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=13\nbeta=0.5\n")
        argv = ["lab", "expmoment", "--n", "4", "--loc", "2", "--samples", "16"]
        assert dispatch(["--config", str(cfg), *argv]) in (EXIT_OK, EXIT_VERDICT)
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["seed"], config["beta"]) == (13, [0.5])
        assert dispatch(argv) in (EXIT_OK, EXIT_VERDICT)
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["seed"] == 0
        assert "beta" not in config and "config" not in config

    def test_usage_error_then_valid_command(self, capsys):
        assert dispatch(["theta", "johnson", "--n", "8", "--q", "4", "--bogus"]) == EXIT_USAGE
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert dispatch(["theta", "johnson", "--n", "8", "--q", "4"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.strip() == "14.00"
        assert captured.err == ""


class TestColdStart:
    """No command loads scipy: the theta LPs run on the simplex solvers of
    ``simplex.py`` and ``lab variance`` runs its Kolmogorov-Smirnov test in
    numpy.  An odd-degree Majorana ``index`` is refused before any work."""

    SCRIPT = """
import contextlib, io, json, sys
import fermitheta.cli as cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in ("ternary --k 2", "theta johnson --n 8 --q 4",
                 "index --set majorana --n 8 --loc 4", "index --set majorana --n 8 --loc 3",
                 "lab variance --n 8 --loc 4 --samples 64", "index --set pauli --n 4 --loc 2",
                 "theta sdp --set pauli --n 4 --loc 2 --tol 1e-6"):
        codes.append(cli.dispatch(argv.split()))
print(json.dumps({"codes": codes,
                  "loaded": sorted(name for name in sys.modules if name.startswith("scipy"))}))
"""

    def test_no_command_loads_scipy(self):
        src = str(Path(fermitheta.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout)
        assert out["codes"] == [EXIT_OK] * 3 + [EXIT_USAGE] + [EXIT_OK] * 3
        assert out["loaded"] == []


class TestReproduceTable:
    def test_columns_and_rows(self):
        text = reproduce_table(12, [2, 4])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "q", "theta_exact_rational", "theta_2dp", "binom_half", "equal_flag"]
        table = {(int(r[0]), int(r[1])): r for r in rows[1:]}
        assert table[(6, 2)][2] == "3" and table[(6, 2)][5] == "True"
        assert table[(8, 4)][2] == "14" and table[(8, 4)][5] == "False"
        assert table[(10, 4)][3] == "14.57"

    def test_q2_all_equal(self):
        text = reproduce_table(20, [2])
        for row in csv.reader(io.StringIO(text)):
            if row[0] != "n":
                assert row[5] == "True"

    @pytest.mark.parametrize("max_n,q", [("2", "3"), ("4", "5"), ("4", "3")])
    def test_odd_q_refused_whatever_max_n(self, capsys, max_n, q):
        # q > max_n gives no row, yet the q is still checked
        assert dispatch(["table", "--max-n", max_n, "--q", q]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["error: table rows require even n and q"]

    @pytest.mark.parametrize("max_n", ["-4", "0", "1"])
    def test_max_n_below_two_refused(self, capsys, monkeypatch, max_n):
        # below the smallest even n there is no row, so no LP may run
        def no_lp(n, q):
            raise AssertionError("theta_johnson_lp ran")

        monkeypatch.setattr(fermitheta.cli, "theta_johnson_lp", no_lp)
        assert dispatch(["table", "--max-n", max_n, "--q", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["error: table starts at n = 2"]

    def test_max_n_two_prints_its_row(self, capsys):
        assert dispatch(["table", "--max-n", "2", "--q", "2"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out.strip())))
        assert rows[1:] == [["2", "2", "1", "1.00", "1", "True"]]


class TestBenchmarkContract:
    @pytest.mark.parametrize("key", workloads.THETA_INDEX)
    def test_theta_index_command(self, key):
        # each benchmark command, run as the benchmark runs it, against its
        # frozen reference output
        rc, text = workloads.command(key, seed=5).run()
        assert rc == EXIT_OK
        assert workloads.check_cli(key, (rc, text)) == []

    @pytest.mark.parametrize("key,stdout", [
        pytest.param(key, stdout, id=key) for key, stdout in (
            ("theta sdp --set pauli --n 4 --loc 2 --tol 1e-6", "6.000000\n"),
            ("theta sdp --set majorana --n 8 --loc 4", "14.000000\n"),
            ("theta sdp --set pauli --n 4 --loc 3", "8.000000\n"),
        )
    ])
    def test_theta_sdp_stdout(self, key, stdout):
        # the benchmark's reference checks these by value within 1e-4 only
        assert workloads.command(key, seed=5).run() == (EXIT_OK, stdout)

    @pytest.mark.parametrize("name,index", [
        pytest.param(name, index, id=f"{name}: {op.name}")
        for name in ("mc-small-d", "mc-large-d", "mc-observables")
        for index, op in enumerate(workloads.build(name, 5, tiny=True).ops)
    ])
    def test_mc_operation(self, name, index):
        # each Monte Carlo operation at the benchmark's tiny size: no failed
        # verdict, and its records match the oracle's recomputation
        op = workloads.build(name, 5, tiny=True).ops[index]
        out = op.run()
        assert op.failures(out) == []
        assert op.check(out) == []


class TestPathErrors:
    """A path that cannot be read or written exits 2 with one line that
    names it, and leaves no temp file behind."""

    @pytest.mark.parametrize(
        "argv,path",
        [
            (["--config", "{}/missing.cfg", "theta", "johnson", "--n", "8", "--q", "4"],
             "missing.cfg"),
            (["--config", "{}/adir", "theta", "johnson", "--n", "8", "--q", "4"], "adir"),
            (["--config", "{}/latin1.cfg", "theta", "johnson", "--n", "8", "--q", "4"],
             "latin1.cfg"),
            (["hahn", "--m", "8", "--r", "4", "--out", "{}/afile/h.csv"], "afile/h.csv"),
            (["hahn", "--m", "8", "--r", "4", "--out", "{}/adir"], "adir"),
            (["lab", "mgf", "--n", "4", "--loc", "2", "--samples", "16", "--out",
              "{}/afile/r.json"], "afile/r.json"),
            (["lab", "mgf", "--n", "4", "--loc", "2", "--samples", "16", "--csv",
              "{}/afile/r.csv"], "afile/r.csv"),
            (["model", "syk", "--n", "8", "--loc", "4", "--spectrum", "{}/afile/s.json"],
             "afile/s.json"),
        ],
        ids=["config-missing", "config-directory", "config-not-utf8", "hahn-out",
             "hahn-out-directory", "lab-out", "lab-csv", "model-spectrum"],
    )
    def test_exit_2_with_one_line(self, capsys, tmp_path, argv, path):
        (tmp_path / "afile").write_text("a regular file\n")
        (tmp_path / "adir").mkdir()
        (tmp_path / "latin1.cfg").write_bytes("n=8 # caf\xe9\n".encode("latin-1"))
        assert dispatch([a.format(tmp_path) for a in argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{tmp_path}/{path}" in lines[0]
        assert list(tmp_path.rglob("*.tmp")) == []


class _Discard:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


class TestGraphStream:
    """``graph`` streams its export: the bytes are those of the library's
    whole-text methods, and neither stdout nor --out holds the whole text."""

    @pytest.mark.parametrize("kind,n,loc", [("pauli", 3, 2), ("majorana", 6, 2)])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_and_out_match_the_library(self, capsys, tmp_path, kind, n, loc, fmt):
        g = fermitheta.graphs.commutation_graph(fermitheta.algebra.enumerate_set(kind, n, loc))
        text = g.to_edge_csv() if fmt == "csv" else g.to_json()
        argv = ["graph", "--set", kind, "--n", str(n), "--loc", str(loc), "--format", fmt]
        assert dispatch(argv) == EXIT_OK
        assert capsys.readouterr().out == text + "\n"
        path = tmp_path / f"g.{fmt}"
        assert dispatch([*argv, "--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == text.encode()

    def test_out_is_atomic_when_pieces_raise(self, tmp_path):
        target = tmp_path / "g.json"
        target.write_bytes(b"old contents\r\n")

        def pieces():
            for i in range(3):
                yield f"piece {i}\n"
            raise RuntimeError("export failed")

        with pytest.raises(RuntimeError, match="export failed"):
            _atomic_write(str(target), pieces())
        assert target.read_bytes() == b"old contents\r\n"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unwritable_out_is_refused_before_any_piece(self, tmp_path):
        (tmp_path / "afile").write_text("a regular file\n")
        taken = []

        def pieces():
            taken.append(1)
            yield "never written"

        path = f"{tmp_path}/afile/g.json"
        with pytest.raises(InputError) as err:
            _atomic_write(path, pieces())
        assert str(err.value) == f"cannot write {path}: Not a directory"
        assert taken == []
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("fmt,chars", [("json", 5_904_651), ("csv", 5_289_210)])
    def test_stdout_export_holds_one_row(self, fmt, chars):
        # pauli (8,3): 1512 vertices, 5.9 MB of JSON; the whole text would
        # take more than the bound several times over
        sink = _Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = dispatch(["graph", "--set", "pauli", "--n", "8", "--loc", "3",
                                 "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert sink.chars == chars
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _readme_commands() -> list[list[str]]:
    """The lines of README's ``## Command line`` sh block, continuations
    joined and comments dropped, each without its ``fermitheta``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split("#", 1)[0].split()
        if words:
            assert words[0] == "fermitheta", line
            commands.append(words[1:])
    return commands


class TestReadme:
    def test_block_is_found(self):
        assert len(_readme_commands()) >= 10

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_runs(self, monkeypatch, capsys, tmp_path, argv):
        # every advertised command runs, and writes the files it names
        monkeypatch.chdir(tmp_path)
        assert dispatch(argv) == EXIT_OK
        capsys.readouterr()
        for flag in ("--out", "--spectrum"):
            if flag in argv:
                assert (tmp_path / argv[argv.index(flag) + 1]).is_file()


class TestFamilyCaps:
    """Over-cap families are refused from their closed-form size, before
    enumeration, with the message of the cap that refused them after it;
    an odd-degree Majorana family, which the see-saw cannot hermitize, is
    refused by ``index`` before its graph is built."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["index", "--set", "majorana", "--n", "24", "--loc", "8", "--method", "seesaw"],
             EXIT_CAPACITY,
             "capacity error: 735471 terms x 4096 columns exceed the term-bank budget of 67108864"),
            (["graph", "--set", "majorana", "--n", "24", "--loc", "8"],
             EXIT_CAPACITY, "capacity error: 735471 vertices exceed the graph cap 10000"),
            (["theta", "sdp", "--set", "majorana", "--n", "24", "--loc", "8"],
             EXIT_CAPACITY, "capacity error: 735471 vertices exceed the graph cap 10000"),
            (["index", "--set", "pauli", "--n", "9", "--loc", "3"],
             EXIT_CAPACITY, "capacity error: 2268 vertices exceed the SDP cap 600"),
            (["theta", "sdp", "--set", "pauli", "--n", "9", "--loc", "3"],
             EXIT_CAPACITY, "capacity error: 2268 vertices exceed the SDP cap 600"),
            (["graph", "--set", "pauli", "--n", "12", "--loc", "5"],
             EXIT_CAPACITY, "capacity error: 192456 vertices exceed the graph cap 10000"),
            (["graph", "--set", "pauli", "--n", "20", "--loc", "5"],
             EXIT_CAPACITY, "capacity error: enumeration of 3767472 members exceeds cap"),
            (["index", "--set", "majorana", "--n", "26", "--loc", "2"],
             EXIT_CAPACITY, "capacity error: dense dimension 8192 exceeds the requested cap 4096"),
            (["index", "--set", "pauli", "--n", "13", "--loc", "1"],
             EXIT_CAPACITY, "capacity error: dense dimension 8192 exceeds the requested cap 4096"),
            (["index", "--set", "majorana", "--n", "8", "--loc", "3"],
             EXIT_USAGE, "error: hermitization requires even degree"),
            (["index", "--set", "majorana", "--n", "24", "--loc", "9"],
             EXIT_USAGE, "error: hermitization requires even degree"),
        ],
        ids=["index-majorana", "graph-majorana", "sdp-majorana", "index-pauli", "sdp-pauli",
             "graph-pauli", "enumeration", "index-majorana-seesaw-dim", "index-pauli-seesaw-dim",
             "index-majorana-odd-degree", "index-majorana-odd-degree-over-enumeration-cap"],
    )
    def test_refused_before_enumeration(self, monkeypatch, capsys, argv, code, message):
        def refuse(*args, **kwargs):
            raise AssertionError("family enumerated or its graph built before it was checked")

        monkeypatch.setattr(fermitheta.cli, "enumerate_set", refuse)
        monkeypatch.setattr(fermitheta.algebra, "enumerate_set", refuse)
        monkeypatch.setattr(fermitheta.index, "enumerate_set", refuse)
        monkeypatch.setattr(fermitheta.cli, "commutation_graph", refuse)
        monkeypatch.setattr(fermitheta.index, "commutation_graph", refuse)
        assert dispatch(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [message]

    def test_bad_family_input_is_usage_error(self, capsys):
        assert dispatch(["index", "--set", "majorana", "--n", "23", "--loc", "4"]) == EXIT_USAGE
        assert dispatch(["graph", "--set", "pauli", "--n", "4", "--loc", "0"]) == EXIT_USAGE
        capsys.readouterr()


# sha256 of the stdout of ``index --set KIND --n N --loc LOC --seed 7``:
# every even-degree Majorana family with n <= 12 and every Pauli family
# with n <= 6 and at most 200 members.
_INDEX_GOLDEN = {
    ("majorana", 2, 2): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("majorana", 4, 2): "4ab15170f413d15f3043d5d5c0eb9b8985f35f3fa4fd15ff85a62c8abb62bc6a",
    ("majorana", 4, 4): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("majorana", 6, 2): "87942c1119b3920e41578ad9d657d0f6972bab6a18cb80804328579e49d83006",
    ("majorana", 6, 4): "29a66992a328b8d7b1934624214256347d090413268ad92ab1332c7ce0a7fdc7",
    ("majorana", 6, 6): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("majorana", 8, 2): "3865b3b0131736ee81a4864776997ee1e25b6deb5f51bcd5050c705e13a41b79",
    ("majorana", 8, 4): "fe364c9d221c5159c44c9b495d6acfb4219eb172aa259cd7b3eb20cefb396344",
    ("majorana", 8, 6): "acd76f049d0781c665de1cd38f4c2951badcdf51c6769ff015fec6262e11bc86",
    ("majorana", 8, 8): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("majorana", 10, 2): "9397483b0e1d5edae41690e4886fbd4e0e4e5e264595474832e68837e9949c19",
    ("majorana", 10, 4): "6fcd389a6fa7a332514279e1ad9c05b57915c8dc0c57c2ad854ea80acf792bac",
    ("majorana", 10, 6): "0dc33abf000d176930a2adfdcc24ebf16ca7d3cbcd872223eca256ae7a957f14",
    ("majorana", 10, 8): "13ebdf92cfe3e9f9ad28da5b9e4bcc5e1eddd6d6ff4f0ec587ae7bf90a68b690",
    ("majorana", 10, 10): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("majorana", 12, 2): "4e10e1e458f7352eee518261a9292d24d97089635e910e31d8594accec6dc530",
    ("majorana", 12, 4): "9a1b0dde33b5101d2cf3236580a26b516df4287e7e687f83a866f3758e6e568b",
    ("majorana", 12, 6): "aa461be5b2beb72fefd488b5620ef9ec66740efd4cd82a35fa3f0f66b3a76e54",
    ("majorana", 12, 8): "1a3694824cb2c5b684b9b418e97dc2ba0ecc541432bc36c77f7fe5f13c6732fe",
    ("majorana", 12, 10): "90895bcee219348a6e591ca5a2d33f9f2a7f1f59004b5337a86faa1f62d552a0",
    ("majorana", 12, 12): "b0d28ff0cabece4dccfefe06fe2500390b7ea95cb1fae178a8f7cb357c5c4949",
    ("pauli", 1, 1): "ef975107876615370805383a393bff9de27a871e274f6a4c767e0fe7b44723b2",
    ("pauli", 2, 1): "bcdd9c82cda1d84ec9ed5a9e53860bb2e426fd6c866e677c20b446fd46a5fc2c",
    ("pauli", 2, 2): "b6e4bdf66ff4bbb44d767dfebaff4337191a72713c7bbbc3c682dc3e0054df61",
    ("pauli", 3, 1): "af64eaf6426fbb1d4790c3990a3aef50e2ad04c13e07c8e29c4ffc9d08f05f21",
    ("pauli", 3, 2): "5603c9f6cb5f821a8ced80e0d05e835a4dd5eb69e2ed4a4595a53a7a36495847",
    ("pauli", 3, 3): "e63992531108ee8e2fd9b79226034dd671657bf14b5543f578804319b643d2bb",
    ("pauli", 4, 1): "c888ca4045668e102f09ee011567383751ddd512b7e576146475c2c168e74f6e",
    ("pauli", 4, 2): "37409d06f7ed2a4c41df1da3744bcdcebf883ce5a5cf6a2399614dab864b3fe3",
    ("pauli", 4, 3): "169a80b6b36fd61fda33a44fa8d1441b8b645e9bf490c6d9251022fcef032f08",
    ("pauli", 4, 4): "c803f30eb46c84d86be11941887f4e476b3d13ab62b987475d3d010a24ba2a55",
    ("pauli", 5, 1): "35e6026ff32824084727f696a5b55280efb5fd098aad53d59886cfb1ab6acb0d",
    ("pauli", 5, 2): "af5e5c99debfae49927da2842d341ae9ff95050a96c86ea80e99bc1fae9e389d",
    ("pauli", 6, 1): "f93eb187cd47cfe6a19d534e2812debb0e0985926092ac4e886e135c0df0248c",
    ("pauli", 6, 2): "4609715fe7a8c7b80f128740f3c5727589825d04c9afc1689b05c82452ca05de",
}


@pytest.mark.parametrize("family", list(_INDEX_GOLDEN))
def test_index_stdout_golden(capsys, family):
    kind, n, loc = family
    assert dispatch(["index", "--set", kind, "--n", str(n), "--loc", str(loc),
                     "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _INDEX_GOLDEN[family]


# Every subcommand at its smallest size, with the int and float options it
# accepts.  The fuzz grid sets one option at a time to an edge value.
_LAB_INTS = ["--n", "--loc", "--samples", "--seed"]
_FUZZ_COMMANDS = {
    "theta-johnson": (["theta", "johnson", "--n", "4", "--q", "2"], ["--n", "--q"], []),
    "theta-sdp": (["theta", "sdp", "--set", "pauli", "--n", "1", "--loc", "1"],
                  ["--n", "--loc"], ["--tol"]),
    "index": (["index", "--set", "majorana", "--n", "4", "--loc", "2"],
              ["--n", "--loc", "--seed"], []),
    "hahn": (["hahn", "--m", "2", "--r", "1"], ["--m", "--r"], []),
    "hahn-verify": (["hahn", "--m", "2", "--r", "1", "--verify"], ["--m", "--r"], []),
    "graph": (["graph", "--set", "pauli", "--n", "1", "--loc", "1"], ["--n", "--loc"], []),
    "ternary": (["ternary", "--k", "1"], ["--k"], []),
    "model-syk": (["model", "syk", "--n", "2", "--loc", "2"], ["--n", "--loc", "--seed"], []),
    "model-sg": (["model", "sg", "--n", "1", "--loc", "1"], ["--n", "--loc", "--seed"], []),
    "model-classical": (["model", "classical", "--n", "1", "--loc", "1"],
                        ["--n", "--loc", "--seed"], []),
    "bounds": (["bounds", "--n", "4", "--q", "2", "--t", "0.5", "--gateset", "2", "--delta", "0.5"],
               ["--n", "--q", "--gateset"], ["--t", "--delta"]),
    "table": (["table", "--max-n", "2", "--q", "2"], ["--max-n", "--q"], []),
    **{
        f"lab-{name}": (["lab", name, "--n", "4", "--loc", "2", "--samples", "16"],
                        _LAB_INTS, floats)
        for name, floats in [
            ("free-energy", ["--beta"]), ("variance", []), ("tails", ["--beta", "--tau"]),
            ("mgf", []), ("expmoment", ["--beta"]), ("overlap", ["--beta"]),
        ]
    },
    "lab-gradcheck": (["lab", "gradcheck", "--n", "4", "--loc", "2"],
                      ["--n", "--loc", "--seed"], ["--beta"]),
    "lab-contrast": (["lab", "contrast", "--n-list", "4", "--samples", "16"],
                     ["--n-list", "--samples", "--seed"], ["--beta"]),
}
_FUZZ_INTS = ["-1", "0", str(10**9)]
_FUZZ_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308"]


def _with_option(argv, flag, value):
    """argv with ``flag`` set to ``value`` as one ``--flag=value`` token, so
    that a value such as -inf is never read as an option."""
    argv = list(argv)
    if flag in argv:
        del argv[argv.index(flag) : argv.index(flag) + 2]
    return [*argv, f"{flag}={value}"]


class TestFuzz:
    @pytest.mark.parametrize("name", list(_FUZZ_COMMANDS))
    def test_edge_values(self, capsys, name):
        base, ints, floats = _FUZZ_COMMANDS[name]
        assert dispatch(base) in (EXIT_OK, EXIT_VERDICT), base
        capsys.readouterr()
        grid = [(f, v) for f in ints for v in _FUZZ_INTS]
        grid += [(f, v) for f in floats for v in _FUZZ_FLOATS]
        bad = []
        for flag, value in grid:
            argv = _with_option(base, flag, value)
            try:
                code = dispatch(argv)
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                bad.append((argv, f"raised {type(exc).__name__}: {exc}"))
                continue
            out, err = capsys.readouterr()
            if value in ("nan", "inf", "-inf"):
                if code != EXIT_USAGE:
                    bad.append((argv, f"exit {code} for a non-finite float"))
                elif err.strip().splitlines() != [f"error: {flag} must be finite, got {float(value)}"]:
                    bad.append((argv, f"stderr {err!r}"))
            if code in (EXIT_USAGE, EXIT_CAPACITY) and out:
                bad.append((argv, f"exit {code} with stdout {out[:80]!r}"))
        assert not bad, bad

    @pytest.mark.parametrize(
        "name,flag",
        [("lab-free-energy", "--beta"), ("lab-gradcheck", "--beta"), ("lab-tails", "--beta"),
         ("lab-overlap", "--beta"), ("lab-contrast", "--beta"), ("lab-tails", "--tau")],
    )
    def test_overflowing_float_refused(self, capsys, tmp_path, name, flag):
        """A finite option that overflows inside the run (Gibbs weights,
        log-sum-exp, phases) leaves a non-finite value: the result is refused
        with one error line and no warning, and nothing is written."""
        out = tmp_path / "report.json"
        argv = list(_FUZZ_COMMANDS[name][0])
        if name != "lab-gradcheck":  # gradcheck takes no --out
            argv += ["--out", str(out)]
        argv = _with_option(argv, flag, "1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith("not a finite float, so no result is written")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-1e-6"])
    def test_tol_must_be_positive(self, capsys, value):
        argv = ["theta", "sdp", "--set", "pauli", "--n", "1", "--loc", "1", f"--tol={value}"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: --tol must be positive, got {float(value)}"]

    @pytest.mark.parametrize("line", ["beta=nan", "tau=inf", "beta=-inf"])
    def test_config_float_must_be_finite(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        experiment = "tails" if line.startswith("tau") else "expmoment"
        argv = ["--config", str(cfg), "lab", experiment, "--n", "4", "--loc", "2",
                "--samples", "16"]
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
