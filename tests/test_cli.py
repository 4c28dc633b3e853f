from __future__ import annotations

import ast
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicewalk
from slicewalk import cli
from slicewalk.cli import UsageError, _build_parser, _effective_args, load_config_file, main
from slicewalk.reports import to_csv, to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenGraph:
    def test_writes_valid_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, out, _ = run_cli(capsys, "gen-graph", "--bipartite", "--n", "10",
                               "--delta", "3", "--seed", "7", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "bipartite 10 3"
        report = json.loads(out)
        assert report["reproducibility"]["seed"] == 7
        assert report["reproducibility"]["version"]

    def test_regular_variant(self, tmp_path, capsys):
        path = tmp_path / "r.txt"
        code, out, _ = run_cli(capsys, "gen-graph", "--regular", "--n", "12",
                               "--delta", "3", "--seed", "1", "--out", str(path))
        assert code == 0
        from slicewalk.graphs import load_graph
        g = load_graph(path)
        g.validate()

    def test_report_honours_timing_and_csv(self, tmp_path, capsys):
        argv = ["gen-graph", "--bipartite", "--n", "8", "--delta", "3", "--seed", "1",
                "--out", str(tmp_path / "g.txt")]
        code, out, _ = run_cli(capsys, *argv, "--timing")
        assert code == 0 and 0 <= json.loads(out)["wall_time"] < 600
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header, row = out.splitlines()
        assert code == 0 and "reproducibility.seed" in header.split(",")
        assert (tmp_path / "g.txt").read_text().startswith("bipartite 8 3")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--n", "10", "--delta", "3"])  # missing kind
        assert exc.value.code == 2

    def test_infeasible_parameters_exit_3(self, tmp_path, capsys):
        # an exhausted rejection budget is a runtime failure, not a usage error
        code, _, err = run_cli(capsys, "gen-graph", "--bipartite", "--n", "8",
                               "--delta", "7", "--seed", "0",
                               "--max-retries", "2", "--out", str(tmp_path / "x"))
        assert code == 3
        assert err.startswith("error: runtime failure:") and "pairing" in err


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["gen-graph", "--bipartite", "--n", "8", "--delta", "3",
                 "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestSample:
    def test_stream_format(self, graph_file, tmp_path, capsys):
        stream = tmp_path / "s.txt"
        code, out, _ = run_cli(capsys, "sample", "--in", graph_file, "--family",
                               "one-sided", "--k", "3", "--lambda", "0.4",
                               "--steps", "3000", "--seed", "5",
                               "--stream-out", str(stream))
        assert code == 0
        lines = stream.read_text().splitlines()
        assert lines and all(line.endswith("|") or " | " in line or line[0] == "x"
                             for line in lines)
        first = lines[0].split(" |")[0].split()
        assert all(tok.startswith("x") for tok in first)
        assert first == sorted(first, key=lambda t: int(t[1:]))

    def test_two_sided_stream_tags(self, graph_file, tmp_path, capsys):
        stream = tmp_path / "s2.txt"
        code, _, _ = run_cli(capsys, "sample", "--in", graph_file, "--family",
                             "two-sided", "--kx", "2", "--ky", "2",
                             "--steps", "3000", "--seed", "5",
                             "--stream-out", str(stream))
        assert code == 0
        line = stream.read_text().splitlines()[0]
        left, right = line.split(" | ")
        assert all(t.startswith("x") for t in left.split())
        assert all(t.startswith("y") for t in right.split())

    def test_negative_burn_in_exit_2(self, graph_file, capsys):
        code, out, err = run_cli(capsys, "sample", "--in", graph_file, "--family",
                                 "one-sided", "--k", "3", "--steps", "10",
                                 "--burn-in", "-5")
        assert code == 2 and out == "" and "burn_in" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_oracle_survives_an_underflowed_law(self, tmp_path, capsys):
        # at fugacity 1e300 some facet probabilities underflow to 0; the gap
        # oracle once divided by their square roots and exited 2 with
        # "Eigenvalues did not converge"
        path = tmp_path / "g6.txt"
        assert main(["gen-graph", "--bipartite", "--n", "6", "--delta", "2",
                     "--seed", "0", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, err = run_cli(capsys, "sample", "--in", str(path), "--family",
                                 "one-sided", "--k", "3", "--lambda", "1e300",
                                 "--steps", "400")
        assert code == 0 and err == ""
        gap = json.loads(out)["mixing"]["exact_gap"]
        assert gap is not None and 0.0 <= gap <= 1.0

    def test_infeasible_slice_exit_3(self, tmp_path, capsys):
        # greedy restarts find no facet of a (6, 6) slice at side 12, degree 3
        path = tmp_path / "g12.txt"
        assert main(["gen-graph", "--bipartite", "--n", "12", "--delta", "3",
                     "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, err = run_cli(capsys, "sample", "--in", str(path), "--family",
                                 "two-sided", "--kx", "6", "--ky", "6",
                                 "--steps", "10", "--seed", "1")
        assert code == 3 and out == ""
        assert err.startswith("error: runtime failure: no facet found")


class TestEstimateZ:
    def test_report_schema(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "estimate-z", "--in", graph_file,
                               "--lambda", "0.25", "--eps", "0.2", "--delta", "0.3",
                               "--seed", "2")
        assert code == 0
        report = json.loads(out)
        for key in ("estimate_log", "epsilon", "delta", "bands", "trace", "seed"):
            assert key in report
        kinds = [b["kind"] for b in report["bands"]]
        assert kinds == ["two-sided", "one-sided-x", "one-sided-y"]
        assert "wall_time" not in report

    def test_trace_holds_one_record_per_term(self, graph_file, capsys):
        from slicewalk.counting import ThresholdParams, _banded_terms
        from slicewalk.graphs import load_graph
        code, out, _ = run_cli(capsys, "estimate-z", "--in", graph_file,
                               "--lambda", "0.25", "--eps", "0.2", "--delta", "0.3",
                               "--seed", "2")
        assert code == 0
        report = json.loads(out)
        thr = ThresholdParams(report["thresholds"]["alpha"], report["thresholds"]["beta"])
        terms = _banded_terms(load_graph(graph_file), 0.25, thr, seed=2)
        trace = report["trace"]
        assert [(t["band"], t["k"]) for t in trace] == [
            (band, list(k) if band == "two-sided" else k) for band, k, *_ in terms]
        assert sum(t["samples"] for t in trace) == sum(b["samples"] for b in report["bands"])
        levels = [level for t in trace for level in t["levels"]]
        assert levels and all(set(level) == {"pinned", "marginal", "samples", "method",
                                             "burn_in"} for level in levels)

    def test_wall_time_only_with_timing(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "estimate-z", "--in", graph_file,
                               "--lambda", "0.25", "--eps", "0.2", "--delta", "0.3",
                               "--seed", "2", "--timing")
        assert code == 0
        # elapsed seconds of the command, not a raw clock reading
        assert 0 <= json.loads(out)["wall_time"] < 600

    def test_one_threshold_override_is_validated_with_the_other_default(self, tmp_path,
                                                                         capsys):
        # the default beta 0.04 of lambda 0.01 lies below alpha; --beta replaces it
        path = tmp_path / "g1.txt"
        assert main(["gen-graph", "--bipartite", "--n", "8", "--delta", "3",
                     "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "estimate-z", "--in", str(path), "--lambda", "0.01",
                               "--beta", "0.5", "--eps", "0.3", "--delta", "0.3")
        assert code == 0
        thr = json.loads(out)["thresholds"]
        assert thr["beta"] == 0.5 and thr["alpha"] == pytest.approx(math.log(3) / 6.3)
        assert "ell" not in thr

    def test_default_threshold_needs_degree_three(self, tmp_path, capsys):
        path = tmp_path / "g2.txt"
        assert main(["gen-graph", "--bipartite", "--n", "8", "--delta", "2",
                     "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["estimate-z", "--in", str(path), "--lambda", "0.1", "--eps", "0.3",
                "--delta", "0.3"]
        for extra in ([], ["--beta", "0.5"]):
            code, _, err = run_cli(capsys, *argv, *extra)
            assert code == 2 and "degree must be at least 3" in err
        code, out, _ = run_cli(capsys, *argv, "--alpha", "0.2", "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["thresholds"] == {"alpha": 0.2, "beta": 0.5, "gamma": 0.1}

    def test_zero_delta_exit_2(self, graph_file, capsys):
        # splitting delta = 0 over the terms used to divide by zero
        code, out, err = run_cli(capsys, "estimate-z", "--in", graph_file,
                                 "--lambda", "0.25", "--eps", "0.2", "--delta", "0")
        assert code == 2 and out == ""
        assert err == "error: epsilon and delta must lie in (0, 1)\n"

    @pytest.mark.parametrize("lam", ["0", "-1"])
    def test_nonpositive_fugacity_with_explicit_thresholds_exit_2(self, graph_file, capsys,
                                                                  lam):
        # with both thresholds given no default is computed, and log(lambda)
        # used to fail with "math domain error"
        code, out, err = run_cli(capsys, "estimate-z", "--in", graph_file, "--lambda", lam,
                                 "--alpha", "0.1", "--beta", "0.5")
        assert code == 2 and out == ""
        assert err == "error: fugacity must be positive\n"


class TestVerifySpectral:
    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_sample_count_below_one_exit_2(self, graph_file, capsys, count):
        # a sample count below one used to check one face per sampled kind
        code, out, err = run_cli(capsys, "verify-spectral", "--two-sided", "--in", graph_file,
                                 "--face-cap", "0", "--sample-count", count)
        assert code == 2 and out == ""
        assert err == "error: sample_count must be positive\n"

    def test_exit_zero_on_pass(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "verify-spectral", "--two-sided",
                               "--kx", "2", "--ky", "2", "--in", graph_file)
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True

    def test_one_sided_includes_identity_sweep(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "verify-spectral", "--one-sided",
                               "--k", "3", "--lambda", "0.3", "--in", graph_file)
        assert code == 0
        names = [s["name"] for s in json.loads(out)["sweeps"]]
        assert any("identities" in n for n in names)

    def test_csv_format(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "verify-spectral", "--regular", "--k", "3",
                               "--in", graph_file, "--format", "csv")
        # regular verifier on a bipartite file is a usage error
        assert code == 2


class TestExperimentCommand:
    def test_concentration_runs(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--name",
                               "neighborhood-concentration", "--n", "500",
                               "--delta", "8", "--samples", "10", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["experiment"] == "neighborhood-concentration"
        assert "notes" in report

    def test_negative_steps_exit_2(self, capsys):
        # matrix_power(P_S, -1) inverted the matrix and reported a negative
        # stay probability
        code, out, err = run_cli(capsys, "experiment", "--name", "slow-mixing", "--n", "4",
                                 "--delta", "2", "--steps", "-1")
        assert code == 2 and out == ""
        assert err == "error: samples and runs must be positive, steps nonnegative\n"

    @pytest.mark.parametrize("lam", ["-1", "-0.5", "0"])
    def test_nonpositive_fugacity_exits_2(self, capsys, lam):
        # -1 divided by zero, -0.5 reached NumPy's binomial, and 0 reported
        # a size event fraction of 1.0
        code, out, err = run_cli(capsys, "experiment", "--name", "independent-set-size",
                                 "--n", "50", "--delta", "3", "--lambda", lam)
        assert code == 2 and out == ""
        assert err == "error: fugacity must be positive\n"

    @pytest.mark.parametrize("argv,message", [
        (["neighborhood-concentration", "--delta", "1"], "degree must be at least 2"),
        (["neighborhood-concentration", "--delta", "3", "--gamma", "-2"],
         "gamma must be nonnegative"),
        (["large-set-expansion", "--delta", "3", "--gamma", "-2"],
         "gamma must be nonnegative"),
        (["independent-set-size", "--delta", "3", "--gamma", "-2.5", "--samples", "5"],
         "gamma must be nonnegative"),
    ], ids=["concentration-degree-1", "concentration-gamma", "expansion-gamma",
            "size-gamma"])
    def test_degenerate_thresholds_exit_2(self, capsys, argv, message):
        # degree 1 divided by log 1 and gamma = -2 by 2 + gamma; gamma = -2.5
        # ran and reported a negative alpha
        name, *rest = argv
        code, out, err = run_cli(capsys, "experiment", "--name", name, "--n", "50", *rest)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestDeterminismAndConfig:
    def test_byte_identical_reports(self, graph_file, capsys):
        args = ["verify-spectral", "--one-sided", "--k", "3", "--lambda", "0.3",
                "--in", graph_file, "--seed", "9"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_config_file_defaults_and_flag_precedence(self, graph_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment defaults\nsteps=2000\nseed=4\nk=3\nlam=0.4\n")
        code, out1, _ = run_cli(capsys, "sample", "--in", graph_file, "--family",
                                "one-sided", "--config", str(cfg),
                                "--stream-out", str(tmp_path / "a.txt"))
        assert code == 0
        assert json.loads(out1)["reproducibility"]["config"]["steps"] == 2000
        # every form argparse accepts wins over the file
        for steps in (["--steps", "1000"], ["--steps=1000"], ["--ste", "1000"]):
            code, out2, _ = run_cli(capsys, "sample", "--in", graph_file, "--family",
                                    "one-sided", "--config", str(cfg), *steps,
                                    "--stream-out", str(tmp_path / "b.txt"))
            report = json.loads(out2)
            assert report["reproducibility"]["config"]["steps"] == 1000
            assert report["mixing"]["steps"] == 1000

    def test_config_does_not_replace_an_explicit_input_file(self, graph_file, tmp_path,
                                                            capsys):
        cfg = tmp_path / "in.cfg"
        cfg.write_text(f"graph_in = {tmp_path / 'missing.txt'}\n")
        code, out, err = run_cli(capsys, "sample", "--in", graph_file, "--family",
                                 "one-sided", "--k", "3", "--steps", "100",
                                 "--config", str(cfg))
        assert code == 0, err
        assert json.loads(out)["reproducibility"]["config"]["graph_in"] == graph_file

    def test_config_leaves_the_family_group_to_the_command_line(self, graph_file, tmp_path,
                                                                capsys):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("two_sided = true\n")
        argv = ["verify-spectral", "--in", graph_file, "--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv, "--two-sided")
        assert code == 0, err
        assert [s["name"] for s in json.loads(out)["sweeps"]] == ["two-sided k_x=2 k_y=2"]
        code, out, err = run_cli(capsys, *argv, "--one-sided", "--k", "3", "--lambda", "0.3")
        assert code == 0, err
        names = [s["name"] for s in json.loads(out)["sweeps"]]
        assert names == ["one-sided k=3 fugacity=0.3", "one-sided identities k=3 fugacity=0.3"]

    @pytest.mark.parametrize("argv,key,given,other", [
        (["gen-graph", "--n", "8", "--delta", "3"], "bipartite", "--bipartite", "--regular"),
        (["verify-spectral", "--in", "g.txt"], "two_sided", "--two-sided", "--one-sided"),
    ])
    def test_config_member_of_an_exclusive_group_loses_to_any_flag(self, tmp_path, argv,
                                                                   key, given, other):
        cfg = tmp_path / "family.cfg"
        cfg.write_text(f"{key} = true\n")
        args = _effective_args([*argv, given, "--config", str(cfg)])
        assert getattr(args, key) is True
        args = _effective_args([*argv, other, "--config", str(cfg)])
        assert getattr(args, key) is False
        assert getattr(args, other[2:].replace("-", "_")) is True

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("not_a_real_option=3", "command=sample"):
            cfg.write_text(line + "\n")
            with pytest.raises(UsageError):
                _effective_args(["experiment", "--name", "slow-mixing", "--n", "8",
                                 "--delta", "2", "--config", str(cfg)])

    def test_config_values_outside_the_choices_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line, argv in (("format = xml", ["gen-graph", "--bipartite", "--n", "8",
                                             "--delta", "3"]),
                           ("family = three-sided", ["sample", "--in", "g.txt",
                                                     "--family", "one-sided"]),
                           ("format = yaml", ["verify-spectral", "--in", "g.txt",
                                              "--two-sided"])):
            cfg.write_text(line + "\n")
            code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
            assert code == 2 and out == "" and line.split()[0] in err

    @pytest.mark.parametrize("argv,config,unused", [
        (["sample", "--family", "two-sided", "--lambda", "7"], "", "--lambda"),
        (["sample", "--family", "two-sided", "--k", "3"], "", "--k"),
        (["sample", "--family", "one-sided", "--kx", "2"], "", "--kx"),
        (["sample", "--family", "regular", "--ky", "2", "--lambda", "0.5"], "", "--ky, --lambda"),
        (["verify-spectral", "--two-sided", "--lambda", "0.25"], "", "--lambda"),
        (["verify-spectral", "--one-sided", "--kx", "2", "--ky", "2"], "", "--kx, --ky"),
        (["verify-spectral", "--regular"], "lam = 0.25", "--lambda"),
        (["verify-spectral", "--two-sided"], "k = 3", "--k"),
    ], ids=["sample-two-sided-lambda", "sample-two-sided-k", "sample-one-sided-kx",
            "sample-regular-ky-lambda", "verify-two-sided-lambda", "verify-one-sided-kx-ky",
            "verify-regular-config-lam", "verify-two-sided-config-k"])
    def test_options_the_family_does_not_read_exit_2(self, graph_file, tmp_path, capsys,
                                                     argv, config, unused):
        cfg = tmp_path / "family.cfg"
        cfg.write_text(config + "\n")
        code, out, err = run_cli(capsys, *argv, "--in", graph_file, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"{unused} not read by the" in err

    @pytest.mark.parametrize("argv,config,unused", [
        (["experiment", "--name", "neighborhood-concentration", "--control", "--runs", "3",
          "--steps", "5"], "", "--control, --runs, --steps"),
        (["experiment", "--name", "slow-mixing", "--steps", "10", "--runs", "1", "--ell", "1"],
         "", "--ell"),
        (["experiment", "--name", "independent-set-size"], "a = 0.5", "--a"),
        (["estimate-z", "--in", None, "--alpha", "0.2", "--beta", "0.5", "--gamma", "0.3"],
         "", "--gamma"),
        (["estimate-z", "--in", None, "--alpha", "0.2", "--beta", "0.5"], "gamma = 0.3",
         "--gamma"),
        (["estimate-z", "--in", None, "--alpha", "0.2", "--gamma", "0.3"], "", "--gamma"),
    ], ids=["concentration-control-runs-steps", "slow-mixing-ell",
            "independent-set-size-config-a", "estimate-z-gamma", "estimate-z-config-gamma",
            "estimate-z-alpha-gamma"])
    def test_options_the_variant_does_not_read_exit_2(self, graph_file, tmp_path, capsys,
                                                      argv, config, unused):
        cfg = tmp_path / "variant.cfg"
        cfg.write_text(config + "\n")
        argv = [graph_file if a is None else a for a in argv]
        if argv[0] == "experiment":
            argv += ["--n", "8", "--delta", "3"]
        else:
            argv += ["--lambda", "0.25", "--eps", "0.3", "--delta", "0.3"]
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"{unused} not read by the" in err

    def test_gamma_sets_the_default_alpha(self, graph_file, capsys):
        argv = ["estimate-z", "--in", graph_file, "--lambda", "0.25", "--eps", "0.3",
                "--delta", "0.3", "--beta", "0.5", "--gamma", "0.3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        thr = json.loads(out)["thresholds"]
        assert thr["alpha"] == pytest.approx(math.log(3) / 6.9) and thr["gamma"] == 0.3

    def test_options_the_family_reads_still_run(self, graph_file, tmp_path, capsys):
        cfg = tmp_path / "family.cfg"
        cfg.write_text("kx = 1\nky = 1\n")
        code, _, err = run_cli(capsys, "verify-spectral", "--two-sided", "--in", graph_file,
                               "--config", str(cfg))
        assert code == 0, err
        code, _, err = run_cli(capsys, "sample", "--family", "one-sided", "--k", "2",
                               "--lambda", "0.3", "--steps", "50", "--in", graph_file)
        assert code == 0, err

    def test_config_parser(self, tmp_path):
        # values stay text; each option converts its own
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=0.5\nflag=true\nname=slow-mixing  # trailing\n\n")
        parsed = load_config_file(cfg)
        assert parsed == {"a": "0.5", "flag": "true", "name": "slow-mixing"}

    @pytest.mark.parametrize("line,message", [
        ("steps = 1.5", "config steps = 1.5: invalid int value"),
        ("steps = true", "config steps = true: invalid int value"),
        ("lam = half", "config lam = half: invalid float value"),
        ("no_lazy = yes", "config no_lazy = yes: expected true or false"),
    ])
    def test_config_values_of_the_wrong_type_exit_2(self, graph_file, tmp_path, capsys,
                                                    line, message):
        # 1.5 crashed with a TypeError and true ran one step
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "sample", "--family", "one-sided", "--in",
                                 graph_file, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_config_values_take_their_options_type(self, graph_file, tmp_path, capsys,
                                                   monkeypatch):
        # lam = 1 gave the integer 1 and stream_out = 007 the integer 7
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "typed.cfg"
        cfg.write_text("lam = 1\nstream_out = 007\nno_lazy = False\n")
        argv = ["sample", "--family", "one-sided", "--in", graph_file, "--steps", "40"]
        code, from_file, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0, err
        assert (tmp_path / "007").is_file()
        code, from_flags, err = run_cli(capsys, *argv, "--lambda", "1",
                                        "--stream-out", "007")
        assert code == 0, err
        assert from_file == from_flags
        assert json.loads(from_file)["reproducibility"]["config"]["lam"] == 1.0


class TestReportHelpers:
    def test_json_sorted_and_stable(self):
        a = to_json({"b": 1, "a": [1.5, 2]})
        b = to_json({"a": [1.5, 2], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_json_handles_nonfinite(self):
        out = to_json({"x": float("inf"), "y": float("nan")})
        parsed = json.loads(out)
        assert parsed == {"x": "inf", "y": "nan"}

    def test_csv_flattening(self):
        rows = [{"a": {"b": 1}, "c": [1, 2]}, {"a": {"b": 2}, "c": []}]
        text = to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "a.b,c"
        assert lines[1] == "1,1;2"

    def test_csv_quotes_fields_that_hold_commas(self):
        text = to_csv([{"note": "(alpha, beta]", "faces": [[0, 1], []]}])
        assert text == 'faces,note\n"[0, 1];[]","(alpha, beta]"\n'
        assert list(csv.reader(io.StringIO(text))) == [
            ["faces", "note"], ["[0, 1];[]", "(alpha, beta]"]]


@pytest.mark.parametrize("argv", [
    ["gen-graph", "--bipartite", "--n", "8", "--delta", "3", "--seed", "1", "--out", None],
    ["sample", "--in", None, "--family", "two-sided", "--kx", "2", "--ky", "2",
     "--steps", "200", "--seed", "1"],
    # the note's "(alpha, beta]" and each band's dict hold commas
    ["estimate-z", "--in", None, "--lambda", "0.25", "--eps", "0.3", "--delta", "0.3",
     "--seed", "2"],
    # a same-side record's face, "[];[0, 1]", holds a comma
    ["verify-spectral", "--two-sided", "--kx", "2", "--ky", "2", "--in", None],
    ["experiment", "--name", "neighborhood-concentration", "--n", "500", "--delta", "8",
     "--samples", "10", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_every_csv_row_is_as_long_as_the_header(graph_file, tmp_path, capsys, argv):
    fill = str(tmp_path / "out.txt") if argv[0] == "gen-graph" else graph_file
    code, out, _ = run_cli(capsys, *[fill if a is None else a for a in argv],
                           "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)


def test_cli_import_loads_no_scipy():
    # scipy.sparse.linalg would add about 0.14 s and 32 MB to every CLI start;
    # only the sparse spectra route imports it, inside the call
    src = str(Path(slicewalk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, slicewalk.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("given", [None, "3"])
def test_import_pins_blas_threads_unless_set(given):
    # set before NumPy loads, so a CLI run starts one BLAS thread unless the
    # environment asks for more
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(slicewalk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = path
    if given:
        env.update(dict.fromkeys(names, given))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import os, slicewalk.cli; print(*(os.environ[n] for n in {names!r}))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [given or "1"] * 3


# -- config precedence over every option ------------------------------------------

# Required options of each subcommand, and the family group a flag may replace.
_BASE = {
    "gen-graph": ({"--bipartite": None, "--n": "8", "--delta": "3"},
                  {"--bipartite", "--regular"}),
    "sample": ({"--in": "g.txt", "--family": "one-sided"}, set()),
    "estimate-z": ({"--in": "g.txt", "--lambda": "0.5"}, set()),
    "verify-spectral": ({"--in": "g.txt", "--two-sided": None},
                        {"--two-sided", "--one-sided", "--regular"}),
    "experiment": ({"--name": "slow-mixing", "--n": "8", "--delta": "2"}, set()),
}


def _option_cases():
    """(command, action, form, abbreviation) for every option a config can set."""
    _, commands = _build_parser()
    for command, sub in commands.items():
        flags = list(sub._option_string_actions)
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "config"):
                continue
            flag = action.option_strings[0]
            # the shortest prefix that names this flag and no other
            abbrev = next((flag[:i] for i in range(3, len(flag))
                           if [f for f in flags if f.startswith(flag[:i])] == [flag]), None)
            forms = ["space", "abbrev"] if action.nargs == 0 else ["space", "equals", "abbrev"]
            for form in forms:
                if form != "abbrev" or abbrev:
                    yield pytest.param(command, action, form, abbrev,
                                       id=f"{command}-{action.dest}-{form}")
            if not action.required and flag not in _BASE[command][1]:
                yield pytest.param(command, action, "absent", None,
                                   id=f"{command}-{action.dest}-absent")


def _values(action):
    """(config value, command-line string, its parsed value); each differs
    from the option's default and from the other."""
    if action.nargs == 0:
        return False, None, True
    if action.choices:
        config = next(c for c in action.choices if c != action.default)
        flag = next(c for c in action.choices if c != config)
        return config, flag, flag
    if action.type is int:
        return 5, "7", 7
    if action.type is float:
        return 0.3, "0.7", 0.7
    return "from-config.txt", "from-flag.txt", "from-flag.txt"


@pytest.mark.parametrize("command,action,form,abbrev", list(_option_cases()))
def test_explicit_flags_win_over_the_config(tmp_path, command, action, form, abbrev):
    base, group = _BASE[command]
    flag = action.option_strings[0]
    config, given, parsed = _values(action)
    if form == "absent":
        config, parsed = (True, True) if action.nargs == 0 else (config, config)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{action.dest} = {str(config).lower() if action.nargs == 0 else config}\n")
    drop = group | {flag} if flag in group else {flag}
    argv = [command]
    for opt, value in base.items():
        if opt not in drop:
            argv += [opt] if value is None else [opt, value]
    value = [] if given is None else [given]
    explicit = {"space": [flag, *value], "equals": [f"{flag}={given}"],
                "abbrev": [abbrev, *value], "absent": []}[form]
    args = _effective_args(argv + explicit + ["--config", str(cfg)])
    assert getattr(args, action.dest) == parsed


# -- every option is read -----------------------------------------------------------


def _attributes_of(fn, name: str) -> set[str]:
    """Attributes that the source of ``fn`` reads from the name ``name``."""
    return {node.attr for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name}


def test_every_option_is_read():
    """No dead flag: each subcommand option is common, read by the command's
    handler whatever the variant, selects the variant, or is read by a family
    or experiment of the command."""
    common = {"help", "seed", "out", "format", "config", "timing"}
    families = [f.reads for f in cli.FAMILIES.values()]
    variant_reads = {"sample": families, "verify-spectral": families,
                     "experiment": [reads for _, reads in cli.EXPERIMENTS.values()]}
    _, commands = _build_parser()
    for command, sub in commands.items():
        dests = {a.dest for a in sub._actions}
        handler = _attributes_of(getattr(cli, "_cmd_" + command.replace("-", "_")), "args")
        selectors = {a.dest for group in sub._mutually_exclusive_groups if group.required
                     for a in group._group_actions}
        variants = set().union(*variant_reads.get(command, []))
        assert variants <= dests, command
        assert dests - common - handler - selectors - variants == set(), command


@pytest.mark.parametrize("name", list(cli.EXPERIMENTS))
def test_experiment_read_sets_match_the_drivers(name):
    driver, reads = cli.EXPERIMENTS[name]
    call = next(node for node in ast.walk(ast.parse(inspect.getsource(cli._cmd_experiment)))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "ExperimentConfig")
    field_of = {kw.value.attr: kw.arg for kw in call.keywords}  # option dest -> field
    fields = _attributes_of(driver, "config")
    read = {d for d, f in field_of.items() if f in fields}
    read |= {"control"} & set(inspect.signature(driver).parameters)
    assert read - {"n", "delta", "seed"} == set(reads)
