import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import confoundsim
from confoundsim import __version__, cli, ingest, metamodel
from confoundsim.cli import _header, main
from confoundsim.glm import DesignMatrix, fit_logistic, inverse_logit
from confoundsim.ingest import parse_mapping_file
from confoundsim.metamodel import ModelParams, draw_population

from conftest import (DATA_DIR, dataset_from_2x2, log_odds_ratio,
                      savetxt_population)


def run(argv):
    return main(argv)


def assert_same_rows(csv_text, json_text):
    """The CSV columns are the JSON keys, and every value is written alike.

    A CSV cell is the repr of its JSON value, blank where the value is null.
    """
    header, *rows = csv.reader(ln for ln in csv_text.splitlines()
                               if not ln.startswith("#"))
    results = json.loads(json_text)["results"]
    assert len(rows) == len(results)
    for row, record in zip(rows, results):
        assert list(record) == header
        assert row == ["" if v is None else v if isinstance(v, str) else repr(v)
                       for v in record.values()]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_pyproject_version_is_the_package_version():
    # pyproject.toml takes its version from confoundsim.__version__; read it
    # as setuptools does when it builds the package
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = pyprojecttoml.read_configuration(pyproject)
    assert config["project"]["version"] == __version__


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--p", "0.75", "--k", "4", "--n", "1000", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_embedded_config(self, tmp_path):
        out = tmp_path / "pop.csv"
        run(["simulate", "--p", "0.75", "--k", "2", "--n", "10", "--seed", "3",
             "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# confoundsim ")
        config = json.loads(lines[1].split("config: ", 1)[1])
        assert config["seed"] == 3 and config["p"] == 0.75
        assert lines[2] == "Q,R0,R1,R2"
        assert len(lines) == 13

    def test_population_past_one_block_is_savetxt_of_the_draw(self, tmp_path):
        out = tmp_path / "pop.csv"
        n = metamodel._BLOCK_ROWS + 1
        assert run(["simulate", "--p", "0.7", "--k", "3", "--n", str(n),
                    "--beta-prime", "0.4", "--seed", "21", "--out", str(out)]) == 0
        config = {"command": "simulate", "p": 0.7, "k": 3, "n": n,
                  "beta_prime": 0.4, "seed": 21}
        m = draw_population(ModelParams(p=0.7, k=3, n_respondents=n, seed=21,
                                        causal_increment=0.4), 4)
        rows = savetxt_population(m.latent, m.responses)
        assert out.read_bytes() == (_header(config) + rows).encode("ascii")

        # the benchmark traces the writer at this binding and counts its
        # output through fh.tell()
        assert cli.write_population_csv is metamodel.write_population_csv
        buf = io.StringIO()
        buf.write("# header\n")
        before = buf.tell()
        cli.write_population_csv(m.params, buf)
        assert buf.tell() - before == len(rows)

    def test_out_of_range_p_exits_2(self, capsys):
        assert run(["simulate", "--p", "0.4", "--k", "2", "--n", "10",
                    "--seed", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_p_creates_no_file(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        assert run(["simulate", "--p", "1.5", "--k", "2", "--n", "10",
                    "--seed", "1", "--out", str(out)]) == 2
        assert "p must be in (0.5, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_gets_the_bytes_of_the_file(self, tmp_path, capsysbinary):
        out = tmp_path / "pop.csv"
        n = metamodel._BLOCK_ROWS + 3
        args = ["simulate", "--p", "0.7", "--k", "2", "--n", str(n),
                "--beta-prime", "0.2", "--seed", "8"]
        assert run([*args, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert run([*args, "--out", "-"]) == 0
        written = capsysbinary.readouterr().out
        assert written == out.read_bytes()
        assert written.count(b"\n") == n + 3

    def test_memory_is_bounded_by_the_int8_table(self, tmp_path):
        # N = 200,000 at k = 9 writes 4.5 MB from a 2 MB table; drawing all
        # uniforms at once and holding the CSV as one string peaked at 23 MB
        out = tmp_path / "pop.csv"
        tracemalloc.start()
        try:
            code = run(["simulate", "--p", "0.7", "--k", "9", "--n", "200000",
                        "--seed", "3", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > 4_000_000
        assert peak < 8_000_000

    @pytest.mark.parametrize("k, n, bound", [(41, 200_000, 5_000_000),
                                             (9, 2_000_000, 6_000_000)])
    def test_memory_is_the_latent_plus_one_block(self, tmp_path, k, n, bound):
        # the table these would hold is 8.4 MB and 20 MB; drawing it whole
        # before writing peaked at 15.0 MB and 23.7 MB
        out = tmp_path / "pop.csv"
        tracemalloc.start()
        try:
            code = run(["simulate", "--p", "0.7", "--k", str(k), "--n", str(n),
                        "--seed", "3", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.stat().st_size > n * (2 * k + 4)
        assert peak < bound

    @pytest.mark.parametrize("beta_prime", [0.0, 0.4])
    @pytest.mark.parametrize("block", [1, 3, 7, None], ids=["1", "3", "7", "default"])
    def test_streamed_bytes_are_savetxt_of_the_draw(self, tmp_path, capsysbinary,
                                                    block, beta_prime):
        # N on, beside and past the block edges, to a file and to stdout
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(metamodel, "_BLOCK_ROWS", block)
            b = metamodel._BLOCK_ROWS
            for n in sorted({1, max(b - 1, 1), b, b + 1, 2 * b + 3}):
                config = {"command": "simulate", "p": 0.7, "k": 3, "n": n,
                          "beta_prime": beta_prime, "seed": 40 + n}
                m = draw_population(ModelParams(p=0.7, k=3, n_respondents=n,
                                                seed=40 + n,
                                                causal_increment=beta_prime), 4)
                expected = (_header(config)
                            + savetxt_population(m.latent, m.responses)).encode("ascii")
                args = ["simulate", "--p", "0.7", "--k", "3", "--n", str(n),
                        "--beta-prime", str(beta_prime), "--seed", str(40 + n)]
                out = tmp_path / f"pop{n}.csv"
                assert run([*args, "--out", str(out)]) == 0
                assert out.read_bytes() == expected
                assert run([*args, "--out", "-"]) == 0
                assert capsysbinary.readouterr().out == expected

    def test_seed_flag_is_mandatory(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--p", "0.7", "--k", "2", "--n", "10"])
        assert exc.value.code == 2

    def test_causal_increment_lifts_dependent_mean(self, tmp_path):
        out = tmp_path / "pop.csv"
        n = 100_000
        run(["simulate", "--p", "0.7", "--k", "2", "--n", str(n),
             "--beta-prime", "0.1", "--seed", "5", "--out", str(out)])
        data = np.loadtxt(out, delimiter=",", skiprows=3)
        half_sd = 0.5 / math.sqrt(n)
        assert data[:, 1].mean() > 0.5 + 3 * half_sd       # dependent shifted
        assert abs(data[:, 2].mean() - 0.5) < 4 * half_sd  # predictor centered


class TestScan:
    def small_args(self, out, extra=()):
        return ["scan", "--r-list", "0.02,0.05", "--n-list", "1,2",
                "--N", "1200", "--reps", "8", "--seed", "99",
                "--out", str(out), *extra]

    def test_default_grid_shape(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(["scan", "--N", "400", "--reps", "2", "--seed", "1",
                    "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 20  # header + 5 correlations x 4 counts

    def test_thread_count_is_invisible_in_output(self, tmp_path):
        one, eight = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert run(self.small_args(one, ["--threads", "1"])) == 0
        assert run(self.small_args(eight, ["--threads", "8"])) == 0
        assert one.read_bytes() == eight.read_bytes()

    def test_rerun_from_embedded_config_reproduces_file(self, tmp_path):
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        run(self.small_args(first))
        config = json.loads(
            first.read_text().splitlines()[1].split("config: ", 1)[1])
        argv = ["scan",
                "--r-list", ",".join(str(r) for r in config["r_list"]),
                "--n-list", ",".join(str(n) for n in config["n_list"]),
                "--N", str(config["N"]), "--reps", str(config["reps"]),
                "--beta-prime", str(config["beta_prime"]),
                "--rr-baseline", str(config["rr_baseline"]),
                "--seed", str(config["seed"]), "--out", str(second)]
        if config["ci_N"] is not None:
            argv += ["--ci-N", str(config["ci_N"])]
        assert run(argv) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_has_config_header_and_every_cell_column(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["scan", "--r-list", "0.05", "--n-list", "1,2", "--N", "800",
                    "--reps", "5", "--seed", "77", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# confoundsim {__version__}"
        assert json.loads(lines[1].split("# config: ", 1)[1])["seed"] == 77
        assert lines[2] == ("r,n_confounders,N,replications,mean_beta1,mean_sigma1,"
                            "relative_risk,ci_low,ci_high,excluded,predicted_beta1,"
                            "predicted_sigma1,mc_error_beta1,error")
        assert len(lines) == 5

    def test_single_replication_keeps_mc_error_column(self, tmp_path):
        out, out_json = tmp_path / "tiny.csv", tmp_path / "tiny.json"
        argv = ["scan", "--r-list", "0.05", "--n-list", "1", "--N", "500",
                "--reps", "1", "--seed", "4"]
        assert run(argv + ["--out", str(out)]) == 0
        header, row = [ln for ln in out.read_text().splitlines()
                       if not ln.startswith("#")]
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["mc_error_beta1"] == "inf"
        # JSON has no infinity: the same value is null there
        assert run(argv + ["--format", "json", "--out", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["results"][0]["mc_error_beta1"] is None

    def test_json_and_csv_carry_identical_fields(self, tmp_path):
        csv_out, json_out = tmp_path / "g.csv", tmp_path / "g.json"
        run(self.small_args(csv_out))
        run(self.small_args(json_out, ["--format", "json"]))
        assert_same_rows(csv_out.read_text(), json_out.read_text())
        config = json.loads(csv_out.read_text().splitlines()[1].split("config: ", 1)[1])
        assert json.loads(json_out.read_text())["metadata"] == {
            "version": __version__, "config": {**config, "format": "json"}}

    def test_failed_cell_has_blank_statistics_and_its_error(self, tmp_path):
        csv_out, json_out = tmp_path / "g.csv", tmp_path / "g.json"
        argv = ["scan", "--r-list", "0.98,0.05", "--n-list", "1", "--N", "30",
                "--reps", "3", "--seed", "5"]
        assert run(argv + ["--out", str(csv_out)]) == 0
        assert run(argv + ["--format", "json", "--out", str(json_out)]) == 0
        assert_same_rows(csv_out.read_text(), json_out.read_text())
        bad, good = json.loads(json_out.read_text())["results"]
        stats = ("mean_beta1", "mean_sigma1", "relative_risk", "ci_low",
                 "ci_high", "mc_error_beta1")
        assert all(bad[f] is None for f in stats)
        assert "failed to converge" in bad["error"]
        assert all(math.isfinite(good[f]) for f in stats)
        assert good["error"] is None

    def test_population_no_larger_than_k_exits_2(self, capsys):
        assert run(["scan", "--r-list", "0.1", "--n-list", "8", "--N", "9",
                    "--reps", "5", "--seed", "1"]) == 2
        assert "must exceed the largest regressor count" in capsys.readouterr().err

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        assert run(self.small_args(tmp_path / "g.csv", ["--threads", "0"])) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, kind", [
        ("--r-list", "0.1,x", "numbers"), ("--n-list", "1,x", "integers")])
    def test_malformed_list_exits_2_quoting_it(self, capsys, flag, text, kind):
        assert run(["scan", flag, text, "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: expected a comma-separated list of {kind}, got {text!r}\n")

    def test_seed_outside_64_bits_exits_2_and_names_the_seed(self, tmp_path, capsys):
        for seed in ("-1", str(2**64)):
            argv = ["scan", "--r-list", "0.05", "--n-list", "1", "--N", "100",
                    "--reps", "2", "--seed", seed, "--out", str(tmp_path / "g.csv")]
            assert run(argv) == 2
            assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err

    def test_every_cell_failing_prints_each_reason(self, capsys):
        # N = k + 1: every fit separates or is singular
        assert run(["scan", "--r-list", "0.1", "--n-list", "8", "--N", "10",
                    "--reps", "5", "--seed", "1"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cell r=0.1 n=8: all 5 replications")
        assert "(4 flagged as separated;" in err[0]
        assert err[-1] == "error: every grid cell failed"

    def test_causal_scan_runs(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["scan", "--r-list", "0.05", "--n-list", "1", "--N", "800",
                    "--reps", "4", "--beta-prime", "0.1", "--seed", "2",
                    "--out", str(out)]) == 0
        assert "0.1" in json.loads(
            out.read_text().splitlines()[1].split("config: ", 1)[1]).__str__()


class TestFit:
    def _write_matrix(self, path, header, columns):
        rows = [",".join(header)]
        for row in np.column_stack(columns):
            rows.append(",".join(str(v) for v in row))
        path.write_text("\n".join(rows) + "\n")

    def test_intercept_only_recovers_logit_of_mean(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.concatenate([np.ones(25), np.zeros(75)]).astype(int)
        self._write_matrix(data, ["Y"], [y])
        out = tmp_path / "fit.json"
        assert run(["fit", str(data), "--dependent", "Y", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["fit"]
        expected = math.log(0.25 / 0.75)
        assert report["terms"][0]["coefficient"] == pytest.approx(expected, abs=1e-8)

    def test_two_by_two_matches_contingency_oracle(self, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "fit.json"
        a, b, c, d = 9, 4, 7, 12
        y, x = dataset_from_2x2(a, b, c, d)
        self._write_matrix(data, ["Y", "X"], [y.astype(int), x.astype(int)])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())["fit"]
        slope = next(t for t in report["terms"] if t["term"] == "X")
        assert slope["coefficient"] == pytest.approx(log_odds_ratio(a, b, c, d),
                                                     abs=1e-6)

    def test_simulated_population_matches_library_fit(self, tmp_path):
        pop_csv, out = tmp_path / "pop.csv", tmp_path / "fit.json"
        run(["simulate", "--p", "0.7", "--k", "2", "--n", "2000", "--seed", "11",
             "--out", str(pop_csv)])
        assert run(["fit", str(pop_csv), "--dependent", "R0",
                    "--regressors", "R1,R2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["fit"]

        m = draw_population(ModelParams(p=0.7, k=2, n_respondents=2000, seed=11), 3)
        resp = m.responses.astype(np.float64)
        direct = fit_logistic(resp[:, 0],
                              DesignMatrix(np.column_stack([np.ones(2000), resp[:, 1:]])))
        got = [t["coefficient"] for t in report["terms"]]
        assert np.allclose(got, direct.coefficients, atol=0, rtol=0)

    def test_terms_are_the_intercept_then_the_regressors_as_given(self, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "fit.json"
        rng = np.random.default_rng(3)
        x1, x2 = rng.integers(0, 2, (2, 300))
        y = (rng.random(300) < inverse_logit(-0.4 + 0.9 * x1 - 0.6 * x2)).astype(int)
        self._write_matrix(data, ["Y", "X1", "X2"], [y, x1, x2])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X2,X1",
                    "--out", str(out)]) == 0
        terms = json.loads(out.read_text())["fit"]["terms"]
        assert [t["term"] for t in terms] == ["intercept", "X2", "X1"]
        # the intercept is a ones column in front and carries no relative risk
        direct = fit_logistic(y.astype(float),
                              DesignMatrix(np.column_stack([np.ones(300), x2, x1])))
        assert [t["coefficient"] for t in terms] == list(direct.coefficients)
        assert "relative_risk" not in terms[0]
        assert all("relative_risk" in t for t in terms[1:])

    def test_no_intercept_fit_has_only_the_regressor_terms(self, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "fit.json"
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, 200)
        y = (rng.random(200) < np.where(x == 1, 0.7, 0.5)).astype(int)
        self._write_matrix(data, ["Y", "X"], [y, x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X",
                    "--no-intercept", "--out", str(out)]) == 0
        terms = json.loads(out.read_text())["fit"]["terms"]
        assert [t["term"] for t in terms] == ["X"]
        direct = fit_logistic(y.astype(float), DesignMatrix(x[:, None]))
        assert terms[0]["coefficient"] == float(direct.coefficients[0])
        assert "relative_risk" in terms[0]

    def test_all_zero_regressor_exits_3_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.array([0, 1, 1, 0, 1, 0])
        self._write_matrix(data, ["Y", "X", "Z"], [x[::-1], x, np.zeros(6, int)])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X,Z"]) == 3
        assert "column 'Z' is all zero" in capsys.readouterr().err

    def test_singular_design_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 50)
        y = rng.integers(0, 2, 50)
        self._write_matrix(data, ["Y", "X", "X2"], [y, x, x])
        assert run(["fit", str(data), "--dependent", "Y",
                    "--regressors", "X,X2"]) == 3
        assert "rank deficient" in capsys.readouterr().err

    def test_separation_exits_0_with_flag(self, tmp_path, capsys):
        data, out = tmp_path / "d.csv", tmp_path / "fit.json"
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 80)
        self._write_matrix(data, ["Y", "X"], [x, x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())["fit"]
        assert report["separation_detected"] is True
        assert report["converged"] is False

    def test_unknown_column_exits_2(self, tmp_path):
        data = tmp_path / "d.csv"
        self._write_matrix(data, ["Y"], [np.array([0, 1, 0, 1])])
        assert run(["fit", str(data), "--dependent", "Z"]) == 2

    def test_duplicate_column_name_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.array([0, 1, 1, 0, 1, 0])
        self._write_matrix(data, ["Y", "X", "X"], [x[::-1], x, 1 - x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X"]) == 2
        assert "duplicate column name 'X'" in capsys.readouterr().err

    def test_regressor_that_is_the_dependent_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.array([0, 1, 1, 0, 1, 0])
        self._write_matrix(data, ["Y", "X"], [x[::-1], x])
        assert run(["fit", str(data), "--dependent", "X", "--regressors", "X"]) == 2
        assert capsys.readouterr().err == (
            "error: regressor 'X' is the dependent column\n")

    def test_repeated_regressor_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        x = np.array([0, 1, 1, 0, 1, 0])
        self._write_matrix(data, ["Y", "X"], [x[::-1], x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X,X"]) == 2
        assert capsys.readouterr().err == "error: regressor 'X' is given twice\n"

    def test_relative_risk_overflow_leaves_the_term_out_and_exits_0(
            self, tmp_path, capsys):
        # a well-determined slope on a 1e-3 scale reads as separated, and its
        # relative risk exp(beta) is past the float range
        data, out = tmp_path / "d.csv", tmp_path / "fit.json"
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1e-3, 400)
        y = (rng.random(400) < 1.0 / (1.0 + np.exp(-2000.0 * x))).astype(int)
        self._write_matrix(data, ["Y", "X"], [y, x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X",
                    "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning: term X: relative risk overflows" in captured.err
        slope_line = next(ln for ln in captured.out.splitlines()
                          if ln.startswith("X "))
        assert len(slope_line.split()) == 3  # term, coef, std_err; no rel_risk
        report = json.loads(out.read_text())["fit"]
        assert report["separation_detected"] is True
        slope = report["terms"][1]
        assert slope["coefficient"] > 700 and "relative_risk" not in slope
        assert math.isfinite(slope["std_error"])

    @pytest.mark.parametrize("setting, message", [
        (["--max-iter", "0"], "max_iter must be >= 1"),
        (["--max-iter", "-3"], "max_iter must be >= 1"),
        (["--tol", "-1"], "tol must be a positive finite number"),
        (["--tol", "nan"], "tol must be a positive finite number"),
    ])
    def test_settings_under_which_no_fit_runs_exit_2(self, tmp_path, capsys,
                                                      setting, message):
        data = tmp_path / "d.csv"
        x = np.array([0, 1, 1, 0, 1, 0, 1, 1])
        self._write_matrix(data, ["Y", "X"], [x[::-1], x])
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X",
                    *setting]) == 2
        assert message in capsys.readouterr().err

    def test_header_only_file_exits_2_saying_it_has_no_rows(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("Y,X\n")
        assert run(["fit", str(data), "--dependent", "Y", "--regressors", "X"]) == 2
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("body, found", [("1,0\n0\n", 1), ("1,0\n0,1,1\n", 3)],
                             ids=["short", "long"])
    def test_ragged_row_exits_2_naming_the_row(self, tmp_path, capsys, body, found):
        data = tmp_path / "r.csv"
        data.write_text("A,B\n" + body)
        assert run(["fit", str(data), "--dependent", "A", "--regressors", "B"]) == 2
        assert f"expected 2 cells, found {found} (row 2)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, files, message", [
    (["scan", "--seed", "1", "--ci-N", "0"], {}, "ci_n_respondents must be >= 1"),
    (["scan", "--seed", "1", "--rr-baseline", "1"], {},
     "rr_baseline must be in [0, 1)"),
    (["fit", "{m}", "--dependent", "y"], {"m": "# a\n# b\n"}, "contains no data"),
    (["fit", "{m}", "--dependent", "y"], {"m": "y,x\n0,a\n"},
     "contains non-numeric cells"),
    (["fit", "{m}", "--dependent", "y", "--regressors", "z"],
     {"m": "y,x\n0,1\n1,0\n"}, "regressor 'z' not in"),
    (["fit", "{m}", "--dependent", "y", "--no-intercept"],
     {"m": "y,x\n0,1\n1,0\n"}, "need at least one regressor or an intercept"),
    (["ingest", "--data", "{d}", "--mappings", "{m}", "--study", "{s}"],
     {"d": "Y\tX\tC\n1\t2\t3\n", "m": "Y ORD\n", "s": "[1]"},
     "must be a JSON object"),
    (["ingest", "--data", "{d}", "--mappings", "{m}", "--study", "{s}"],
     {"d": "Y\tX\tC\n1\t2\t3\n", "m": "Y ORD\n", "s": "{"}, "is not valid JSON"),
    (["ingest", "--data", "{d}", "--mappings", "{m}", "--study", "{s}"],
     {"d": "Y\tX\tC\n1\t2\t3\n", "m": "Y ORD\n",
      "s": '{"dependent": "Y", "independent": "X", "stages": []}'},
     "stages must be a non-empty object"),
    (["ingest", "--data", "{d}", "--mappings", "{m}", "--study", "{s}"],
     {"d": "Y\tX\tC\n1\t2\t3\n", "m": "NEWRACE2\n",
      "s": '{"dependent": "Y", "independent": "X", "stages": {"A": ["C"]}}'},
     "expected 'COLUMN KIND rules...'"),
], ids=["scan-ci-N", "scan-rr-baseline", "fit-comments-only", "fit-non-numeric",
        "fit-unknown-regressor", "fit-no-terms", "ingest-study-not-object",
        "ingest-study-not-json", "ingest-no-stages", "ingest-mapping-no-kind"])
def test_invalid_configuration_exits_2_saying_why(tmp_path, capsys, argv, files,
                                                  message):
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / key
        paths[key].write_text(text)
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def synthetic_nsduh(tmp_path, n=1500, seed=42):
    """Small survey fixture shaped like the real public-use file.

    Every one of the 79 recode-table columns is present with plausible raw
    codes so the full mapping table can be exercised end to end.
    """
    specs, _ = parse_mapping_file((DATA_DIR / "nsduh2023_mappings.txt").read_text())
    rng = np.random.default_rng(seed)

    drinker = rng.random(n)  # latent propensity shared by several columns
    columns = {}
    for spec in specs:
        pool = [0, 1, 2, 3]
        for rule in spec.rules:
            pool.extend([rule.low, min(rule.high, rule.low + 2)])
        columns[spec.name] = rng.choice(pool, size=n)
    columns["ALCYRTOT"] = np.where(rng.random(n) < 0.1, 991,
                                   (drinker * 365).astype(int))
    glue_yes = rng.random(n) < 0.05 + 0.1 * drinker
    columns["GLUE"] = np.where(glue_yes, 1, np.where(rng.random(n) < 0.05, 94, 2))
    columns["IRSEX"] = rng.integers(1, 3, n)
    columns["NEWRACE2"] = rng.integers(1, 8, n)
    columns["AGE3"] = rng.integers(1, 12, n)
    columns["BMI2"] = rng.integers(16, 40, n)
    columns["MJEVER"] = rng.integers(1, 3, n)
    columns["LSD"] = np.where(rng.random(n) < 0.08, 1, 2)
    columns["CIGEVER"] = rng.integers(1, 3, n)

    names = [spec.name for spec in specs]
    data_file = tmp_path / "survey.tsv"
    lines = ["\t".join(names)]
    table = np.column_stack([columns[name] for name in names])
    for row in table:
        lines.append("\t".join(str(int(v)) for v in row))
    data_file.write_text("\n".join(lines) + "\n")

    study_file = tmp_path / "study.json"
    study_file.write_text(json.dumps({
        "dependent": "GLUE",
        "independent": "ALCYRTOT",
        "unit_change": 52.18,
        "stages": {
            "A": ["IRSEX", "NEWRACE2", "AGE3", "BMI2"],
            "B": ["MJEVER"],
            "C": ["LSD"],
            "D": ["CIGEVER"],
        },
    }))
    return data_file, study_file


class TestIngest:
    def test_staged_pipeline_end_to_end(self, tmp_path, capsys):
        data_file, study_file = synthetic_nsduh(tmp_path)
        out = tmp_path / "stages.csv"
        code = run(["ingest", "--data", str(data_file),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file), "--out", str(out)])
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[:2] == ["stage", "r"]
        assert "relative_risk" in header and "baseline_prevalence" in header
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [row["stage"] for row in rows] == ["A", "B", "C", "D"]
        assert [int(row["n_confounders"]) for row in rows] == [4, 5, 6, 7]
        for row in rows:
            assert row["error"] == ""
            assert float(row["relative_risk"]) == float(row["relative_risk"])

    def test_loaded_table_is_freed_before_the_stages(self, tmp_path, monkeypatch):
        # only the mapped table is alive while the stages are fitted
        data_file, study_file = synthetic_nsduh(tmp_path)
        loaded, seen = [], []

        def load_survey(*args, **kwargs):
            table = ingest.load_survey(*args, **kwargs)
            loaded.append(weakref.ref(table))
            return table

        def staged_analysis(table, study):
            seen.append([ref() for ref in loaded])
            return ingest.staged_analysis(table, study)

        monkeypatch.setattr(cli, "load_survey", load_survey)
        monkeypatch.setattr(cli, "staged_analysis", staged_analysis)
        assert run(["ingest", "--data", str(data_file),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file), "--out", str(tmp_path / "s.csv")]) == 0
        assert seen == [[None]]

    def test_json_format(self, tmp_path):
        data_file, study_file = synthetic_nsduh(tmp_path)
        out = tmp_path / "stages.json"
        assert run(["ingest", "--data", str(data_file),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file), "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 4
        assert payload["metadata"]["config"]["unit_change"] == 52.18

    def test_json_and_csv_carry_identical_fields(self, tmp_path):
        data_file, study_file = synthetic_nsduh(tmp_path)
        csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
        argv = ["ingest", "--data", str(data_file),
                "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                "--study", str(study_file)]
        assert run(argv + ["--out", str(csv_out)]) == 0
        assert run(argv + ["--format", "json", "--out", str(json_out)]) == 0
        assert_same_rows(csv_out.read_text(), json_out.read_text())
        first = json.loads(json_out.read_text())["results"][0]
        assert first["r"] is None and first["error"] is None

    @pytest.mark.parametrize("value", ["-1", "0", "NaN", "Infinity", "1e400"])
    def test_invalid_unit_change_exits_2_and_writes_nothing(self, tmp_path, capsys, value):
        data_file, study_file = synthetic_nsduh(tmp_path, n=50)
        # each value goes into the study spec as JSON text, as written
        spec = study_file.read_text()
        assert '"unit_change": 52.18' in spec
        study_file.write_text(spec.replace("52.18", value))
        out = tmp_path / "stages.csv"
        assert run(["ingest", "--data", str(data_file),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file), "--out", str(out)]) == 2
        assert "error: unit_change must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_study_spec_unit_change_rescales_the_output(self, tmp_path):
        # the spec is the one source of unit_change: it is embedded as given
        # and every stage's coefficient is rescaled by it
        data_file, study_file = synthetic_nsduh(tmp_path)
        argv = ["ingest", "--data", str(data_file),
                "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                "--study", str(study_file), "--format", "json"]
        base, scaled = tmp_path / "base.json", tmp_path / "scaled.json"
        assert run(argv + ["--out", str(base)]) == 0
        study_file.write_text(study_file.read_text().replace("52.18", "1"))
        assert run(argv + ["--out", str(scaled)]) == 0
        base, scaled = json.loads(base.read_text()), json.loads(scaled.read_text())
        assert scaled["metadata"]["config"]["unit_change"] == 1.0
        for b, s in zip(base["results"], scaled["results"]):
            assert s["mean_beta1"] * 52.18 == pytest.approx(b["mean_beta1"], rel=1e-12)

    def test_empty_stages_fit_no_confounders_or_repeat_the_last(self, tmp_path):
        # an empty first stage fits the intercept and the independent column
        # alone; an empty last stage refits stage C's design and repeats its row
        golden = DATA_DIR / "golden"
        study = json.loads((golden / "study.json").read_text())
        study["stages"] = {"none": [], **study["stages"], "again": []}
        study_file = tmp_path / "study.json"
        study_file.write_text(json.dumps(study))
        out = tmp_path / "stages.csv"
        assert run(["ingest", "--data", str(golden / "survey.tsv"),
                    "--mappings", str(golden / "mappings.txt"),
                    "--study", str(study_file), "--out", str(out)]) == 0
        header, none, *staged, again = [
            ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        expected = [ln for ln in (golden / "ingest.csv").read_text().splitlines()
                    if not ln.startswith("#")]
        assert [header, *staged] == expected
        assert again == "again" + staged[-1].removeprefix("C")
        none = dict(zip(header.split(","), none.split(",")))
        assert (none["stage"], none["n_confounders"]) == ("none", "0")
        assert float(none["mean_beta1"]) == 0.12751840008473792
        assert float(again.split(",")[5]) == 0.1279057540391391

    def test_unit_change_flag_is_refused(self, tmp_path, capsys):
        data_file, study_file = synthetic_nsduh(tmp_path, n=50)
        out = tmp_path / "stages.csv"
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--data", str(data_file),
                 "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                 "--study", str(study_file), "--unit-change", "1",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert "--unit-change" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_mapping_file_exits_2(self, tmp_path, capsys):
        data_file, study_file = synthetic_nsduh(tmp_path, n=50)
        assert run(["ingest", "--data", str(data_file),
                    "--mappings", str(tmp_path / "nope.txt"),
                    "--study", str(study_file)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_data_file_exits_2(self, tmp_path, capsys, target):
        _, study_file = synthetic_nsduh(tmp_path, n=50)
        data = tmp_path / "nope.tsv" if target == "missing" else tmp_path
        assert run(["ingest", "--data", str(data),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file)]) == 2
        assert f"error: cannot read {data}: " in capsys.readouterr().err

    def test_data_file_failing_partway_exits_2(self, tmp_path, capsys, monkeypatch):
        data_file, study_file = synthetic_nsduh(tmp_path)

        class FailsAfterOneRead(io.BytesIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                if self.reads > 1:
                    raise OSError(5, "Input/output error")
                return super().read(size)

        def reading(path, *args, **kwargs):
            if path == str(data_file):
                return FailsAfterOneRead(data_file.read_bytes())
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", reading, raising=False)
        monkeypatch.setattr(ingest, "_READ_BYTES", 4096)
        out = tmp_path / "stages.csv"
        assert run(["ingest", "--data", str(data_file),
                    "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                    "--study", str(study_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"\nerror: cannot read {data_file}: [Errno 5] Input/output error\n")
        assert not out.exists()

    def test_output_bytes_do_not_depend_on_the_read_size(self, tmp_path, monkeypatch):
        data_file, study_file = synthetic_nsduh(tmp_path)
        assert data_file.stat().st_size > 50 * 4096
        outputs = []
        for read_bytes in (4096, ingest._READ_BYTES):
            monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
            for fmt in ("csv", "json"):
                out = tmp_path / f"stages.{fmt}"
                assert run(["ingest", "--data", str(data_file),
                            "--mappings", str(DATA_DIR / "nsduh2023_mappings.txt"),
                            "--study", str(study_file), "--format", fmt,
                            "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
        assert outputs[:2] == outputs[2:]

    def test_malformed_mapping_line_exits_2(self, tmp_path, capsys):
        data_file, study_file = synthetic_nsduh(tmp_path, n=50)
        bad = tmp_path / "bad.txt"
        bad.write_text("GLUE ORD 5:x\n")
        assert run(["ingest", "--data", str(data_file), "--mappings", str(bad),
                    "--study", str(study_file)]) == 2
        assert "line 1" in capsys.readouterr().err

    def _small_study(self, tmp_path, data_text, mappings="Y ORD\n",
                     study=None):
        data, maps, spec = (tmp_path / "d.tsv", tmp_path / "m.txt",
                            tmp_path / "s.json")
        data.write_bytes(data_text if isinstance(data_text, bytes)
                         else data_text.encode())
        maps.write_text(mappings)
        spec.write_text(study if study is not None else json.dumps(
            {"dependent": "Y", "independent": "X", "stages": {"A": ["C"]}}))
        return ["ingest", "--data", str(data), "--mappings", str(maps),
                "--study", str(spec)]

    def _rows(self, n=60, c_cell=lambda i: str(i % 3), extra=""):
        return "Y\tX\tC\tJUNK\n" + "".join(
            f"{i % 2}\t{i % 5}\t{c_cell(i)}\t{extra or i}\n" for i in range(n))

    def test_cell_outside_int64_exits_2_naming_row_and_column(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, self._rows(
            c_cell=lambda i: "99999999999999999999" if i == 7 else str(i % 3)))
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: cell '99999999999999999999' is outside the 64-bit integer "
            "range (row 8, column C)\n")

    def test_repeated_header_column_exits_2_naming_it(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, "Y\tX\tC\tX\n" + "".join(
            f"{i % 2}\t{i % 5}\t{i % 3}\t{i}\n" for i in range(60)))
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: duplicate column name in header (column X)\n")

    def test_bad_cells_outside_the_study_columns_are_not_parsed(self, tmp_path):
        argv = self._small_study(tmp_path, self._rows(extra="n/a"),
                                 mappings="Y ORD\nJUNK CAT 1:0\n")
        assert run(argv + ["--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("stage", ['"CIG"', '[["CIG"]]'])
    def test_malformed_stage_exits_2_naming_it(self, tmp_path, capsys, stage):
        study = ('{"dependent": "Y", "independent": "X",'
                 f' "stages": {{"A": ["C"], "B": {stage}}}}}')
        assert run(self._small_study(tmp_path, self._rows(), study=study)) == 2
        assert "stage 'B' must be a list of non-empty column names" in (
            capsys.readouterr().err)

    def test_non_string_dependent_exits_2(self, tmp_path, capsys):
        study = '{"dependent": 1, "independent": "X", "stages": {"A": ["C"]}}'
        assert run(self._small_study(tmp_path, self._rows(), study=study)) == 2
        assert "dependent must be a column name string" in capsys.readouterr().err

    def test_study_column_absent_from_header_exits_2_before_any_stage(
            self, tmp_path, capsys):
        study = json.dumps({"dependent": "Y", "independent": "X",
                            "stages": {"A": ["C"], "B": ["NOPE"]}})
        assert run(self._small_study(tmp_path, self._rows(), study=study)) == 2
        assert capsys.readouterr().err == (
            "error: column absent from the data (column NOPE)\n")

    def test_mapping_line_for_a_column_absent_from_header_exits_2(
            self, tmp_path, capsys):
        argv = self._small_study(tmp_path, self._rows(),
                                 mappings="Y ORD\nNOPE CAT 1:0\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: mapping spec names a column absent from the data "
            "(column NOPE)\n")

    def test_crlf_survey_gives_the_lf_output_body(self, tmp_path):
        outputs = []
        for end in ("\n", "\r\n"):
            argv = self._small_study(tmp_path, self._rows().replace("\n", end))
            assert run(argv + ["--out", str(tmp_path / "o.csv")]) == 0
            outputs.append((tmp_path / "o.csv").read_text())
        assert outputs[0] == outputs[1]
        assert "error" in outputs[0] and ",," in outputs[0]

    def test_survey_not_utf8_exits_2_naming_the_byte(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, b"Y\tX\tC\n1\t\xff\t3\n")
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 8: "
            "invalid start byte\n")

    def test_byte_order_mark_stays_in_the_first_name(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, b"\xef\xbb\xbf" + self._rows().encode())
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: column absent from the data (column Y)\n")

    def test_nul_byte_exits_2(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, self._rows(extra="1\x00"))
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: survey file contains a NUL character\n")

    def test_empty_delimiter_exits_2(self, tmp_path, capsys):
        argv = self._small_study(tmp_path, self._rows())
        assert run(argv + ["--delimiter", ""]) == 2
        assert "delimiter" in capsys.readouterr().err

    def test_single_category_cat_confounder_error_names_it(self, tmp_path, capsys):
        argv = self._small_study(
            tmp_path, "Y\tX\tC\n1\t1\t1\n0\t2\t1\n1\t3\t1\n0\t4\t1\n",
            mappings="Y ORD\nC CAT\n",
            study='{"dependent": "Y", "independent": "X", "stages": {"a": ["C"]}}')
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "error: stage a: needs at least 2 distinct categories (column C)\n")

    def test_every_stage_failing_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        data.write_text("Y\tX\tDEAD\n" + "".join(
            f"{i % 2}\t{i % 5}\t0\n" for i in range(60)))
        maps = tmp_path / "m.txt"
        maps.write_text("Y ORD\n")
        study = tmp_path / "s.json"
        study.write_text(json.dumps({"dependent": "Y", "independent": "X",
                                     "stages": {"A": ["DEAD"]}}))
        assert run(["ingest", "--data", str(data), "--mappings", str(maps),
                    "--study", str(study)]) == 3
        assert "stage A" in capsys.readouterr().err


class TestExitCodes:
    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        assert run(["simulate", "--p", "0.7", "--k", "1", "--n", "5",
                    "--seed", "1",
                    "--out", str(tmp_path / "no_dir" / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(tmp_path / "no_dir" / "x.csv") in err


class TestFreshProcess:
    def test_no_command_imports_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call, ~12 ms that every
        # command, a process of its own, would pay; none of them needs it.
        # numpy.random loads OpenSSL through `secrets`, ~14 ms and 6 MB of
        # memory, which only the commands that draw need
        data_file, study_file = synthetic_nsduh(tmp_path, n=300)
        pop_csv = tmp_path / "pop.csv"
        assert run(["simulate", "--p", "0.7", "--k", "3", "--n", "400",
                    "--seed", "2", "--out", str(pop_csv)]) == 0
        commands = [
            (["ingest", "--data", str(data_file), "--mappings",
              str(DATA_DIR / "nsduh2023_mappings.txt"), "--study", str(study_file)],
             "[]"),
            (["fit", str(pop_csv), "--dependent", "R0", "--regressors", "R1,R2,R3"],
             "[]"),
            # k = 9 at N = 30 draws and counts rows: the row path
            (["scan", "--r-list", "0.1", "--n-list", "8", "--N", "30", "--reps", "3",
              "--seed", "4"], "['numpy.random']"),
        ]
        script = ("import sys\n"
                  "from confoundsim.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "print([m for m in ('numpy.ma', 'numpy.random') if m in sys.modules],"
                  " file=sys.stderr)\n")
        package_root = str(Path(confoundsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
        for argv, imported in commands:
            proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines()[-1] == imported, argv[0]
