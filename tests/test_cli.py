from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicewalk
from slicewalk.cli import load_config_file, main
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

    def test_wall_time_only_with_timing(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "estimate-z", "--in", graph_file,
                               "--lambda", "0.25", "--eps", "0.2", "--delta", "0.3",
                               "--seed", "2", "--timing")
        assert code == 0
        # elapsed seconds of the command, not a raw clock reading
        assert 0 <= json.loads(out)["wall_time"] < 600


class TestVerifySpectral:
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
        code, out2, _ = run_cli(capsys, "sample", "--in", graph_file, "--family",
                                "one-sided", "--config", str(cfg), "--steps", "1000",
                                "--stream-out", str(tmp_path / "b.txt"))
        assert json.loads(out2)["reproducibility"]["config"]["steps"] == 1000

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_real_option=3\n")
        from slicewalk.cli import UsageError, _effective_args
        with pytest.raises(UsageError):
            _effective_args(["experiment", "--name", "slow-mixing", "--n", "8",
                             "--delta", "2", "--config", str(cfg)])

    def test_config_parser(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("a=0.5\nflag=true\nname=slow-mixing  # trailing\n\n")
        parsed = load_config_file(cfg)
        assert parsed == {"a": 0.5, "flag": True, "name": "slow-mixing"}


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


def test_cli_import_loads_no_scipy():
    # scipy.sparse.linalg would add about 0.14 s and 32 MB to every CLI start;
    # only the sparse spectra route imports it, inside the call
    src = str(Path(slicewalk.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, slicewalk.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
