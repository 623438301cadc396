import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import t as scipy_t

from conetest import calibrate, stats
from conetest.cli import main, read_csv_matrix
from conetest.exceptions import DataError


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "conetest.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def write_csv(path, array, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    for row in np.atleast_2d(array):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def dataset(tmp_path, rng):
    data = rng.standard_normal((18, 1)) + 0.6
    path = tmp_path / "data.csv"
    write_csv(path, data, header=["y"])
    return path, data


class TestReadCsv:
    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert read_csv_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_no_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        assert read_csv_matrix(path).shape == (2, 2)

    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 2, column 2"):
            read_csv_matrix(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="line 2"):
            read_csv_matrix(path)


class TestCmdTest:
    def test_univariate_halfspace_matches_t_test(self, dataset, tmp_path):
        path, data = dataset
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                "--data",
                str(path),
                "--cone",
                "halfspace",
                "--family",
                "uit",
                "--alpha",
                "0.05",
                "--calibration",
                "exact",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        n = data.shape[0]
        t_stat = np.sqrt(n) * data.mean() / data.std(ddof=1)
        reject_oracle = bool(t_stat >= scipy_t.ppf(0.95, n - 1))
        assert report["result"]["reject"] == reject_oracle
        # One-sided p-value from the t distribution matches the report.
        if t_stat > 0:
            expect_p = float(scipy_t.sf(t_stat, n - 1))
            assert report["result"]["p_value"]["exact_halfspace"] == pytest.approx(
                expect_p, abs=1e-9
            )

    def test_fuit_p_value_keeps_relative_precision(self, tmp_path):
        # With t_max near 12 the Bonferroni p-value is ~1e-12; forming it as
        # 1 - cdf(t) keeps only about four significant digits.
        n, p = 30, 3
        data = np.random.default_rng(7).standard_normal((n, p)) + 1.5
        path = tmp_path / "data.csv"
        write_csv(path, data)
        out = tmp_path / "report.json"
        assert main(["test", "--data", str(path), "--family", "fuit", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        expect = p * stdtr(n - 1, -max(result["t_values"]))
        assert expect < 1e-10
        assert result["p_value"]["bonferroni"] == pytest.approx(expect, rel=1e-10, abs=0.0)

    def test_all_negative_orthant_accepts(self, tmp_path, rng):
        data = rng.standard_normal((15, 2)) - 4.0
        path = tmp_path / "neg.csv"
        write_csv(path, data)
        out = tmp_path / "r.json"
        code = main(
            ["test", "--data", str(path), "--family", "uit", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["statistic"] == 0.0
        assert result["p_value"]["sup_conservative"] == 1.0
        assert result["reject"] is False

    def test_same_seed_byte_identical(self, dataset, tmp_path):
        path, _ = dataset
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert (
                main(
                    ["test", "--data", str(path), "--family", "uit", "--seed", "7", "--out", str(out)]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_polyhedral_reduces_to_orthant(self, tmp_path, rng):
        data = rng.standard_normal((20, 2)) + [0.5, 0.2]
        dpath = tmp_path / "d.csv"
        write_csv(dpath, data)
        bpath = tmp_path / "b.csv"
        write_csv(bpath, np.array([[1.0, -1.0], [0.0, 1.0]]))
        out = tmp_path / "r.json"
        code = main(
            [
                "test",
                "--data",
                str(dpath),
                "--cone",
                "polyhedral",
                "--b-matrix",
                str(bpath),
                "--family",
                "uit",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["reduction"]["transformed_dimension"] == 2
        # With b1 = b2 the reduction lands exactly on the orthant model for
        # the transformed data.
        from conetest import summarize, uit_orthant

        s = summarize(data @ np.array([[1.0, -1.0], [0.0, 1.0]]).T)
        assert result["statistic"] == pytest.approx(uit_orthant(s).statistic, rel=1e-9)

    def test_bayes_calibration_runs(self, tmp_path, rng):
        data = rng.standard_normal((12, 2)) + 0.5
        dpath = tmp_path / "d.csv"
        write_csv(dpath, data)
        gpath = tmp_path / "g.csv"
        write_csv(gpath, np.eye(2))
        out = tmp_path / "r.json"
        code = main(
            [
                "test",
                "--data",
                str(dpath),
                "--family",
                "uit",
                "--calibration",
                "bayes",
                "--prior-scale",
                str(gpath),
                "--prior-df",
                "6",
                "--mc-samples",
                "20000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert "weights" in result
        assert len(result["weights"]["values"]) == 3


class TestEnvironmentDefaults:
    def test_seed_from_environment(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset
        monkeypatch.setenv("CONETEST_SEED", "91")
        out = tmp_path / "r.json"
        assert main(["test", "--data", str(path), "--family", "uit", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["manifest"]["seed"] == 91

    def test_out_from_environment(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset
        out = tmp_path / "env_out.json"
        monkeypatch.setenv("CONETEST_OUT", str(out))
        assert main(["test", "--data", str(path), "--family", "uit", "--seed", "1"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("flag", ["--workers", "--mc-samples"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_count_flag_below_one_is_usage_error(self, flag, value, capsys):
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2"]
        assert main(argv + [flag, value]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["CONETEST_WORKERS", "CONETEST_MC_SAMPLES"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_count_variable_below_one_is_usage_error(self, name, value, monkeypatch, capsys):
        monkeypatch.setenv(name, value)
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2"]
        assert main(argv) == 2
        assert name in capsys.readouterr().err

    def test_count_variables_apply_when_flags_are_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONETEST_MC_SAMPLES", "700")
        monkeypatch.setenv("CONETEST_WORKERS", "2")
        out = tmp_path / "c.json"
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
                "--calibration", "bayes", "--prior-df", "6", "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["result"]["weights"]["mc_samples"] == 700

    def test_report_embeds_resolved_config(self, dataset, tmp_path):
        path, _ = dataset
        out = tmp_path / "r.json"
        assert (
            main(["test", "--data", str(path), "--family", "uit", "--seed", "4", "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        cfg = report["result"]["config"]
        assert cfg["family"] == "uit" and cfg["seed"] == 4
        assert "config_digest" in report["manifest"]


class TestManifest:
    def test_bayes_manifest_lists_prior_scale(self, tmp_path, rng):
        dpath = tmp_path / "d.csv"
        write_csv(dpath, rng.standard_normal((12, 2)) + 0.5)
        gpath = tmp_path / "g.csv"
        write_csv(gpath, np.eye(2))
        out = tmp_path / "r.json"
        args = ["test", "--data", str(dpath), "--family", "lrt", "--calibration", "bayes",
                "--prior-scale", str(gpath), "--prior-df", "6", "--mc-samples", "2000",
                "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["input_paths"] == [str(dpath), str(gpath)]

    def test_b_matrix_contents_enter_digest(self, tmp_path, rng):
        dpath = tmp_path / "d.csv"
        write_csv(dpath, rng.standard_normal((20, 2)) + [0.5, 0.2])
        bpath = tmp_path / "B.csv"
        out = tmp_path / "r.json"
        args = ["test", "--data", str(dpath), "--cone", "polyhedral", "--b-matrix",
                str(bpath), "--family", "uit", "--seed", "0", "--out", str(out)]
        digests = []
        for corner in (0.0, 0.5):
            write_csv(bpath, np.array([[1.0, -1.0], [corner, 1.0]]))
            assert main(args) == 0
            digests.append(json.loads(out.read_text())["manifest"]["config_digest"])
        assert digests[0] != digests[1]

    def test_library_versions_outside_digest(self, tmp_path):
        import platform

        import scipy

        from conetest.cli import _digest, build_manifest

        out = tmp_path / "r.json"
        args = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "20", "--p", "3",
                "--out", str(out)]
        assert main(args) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["library_versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        config = {"command": "calibrate", "alpha": 0.05}
        assert build_manifest("calibrate", [], 0, config)["config_digest"] == _digest(config)


def test_import_loads_no_optimize_linalg_or_integrate():
    # A child interpreter: this process already holds scipy.optimize, which
    # the projection oracles import.
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.integrate")
    code = f"import sys, conetest.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_usage_error_is_2(self, dataset):
        path, _ = dataset
        assert main(["test", "--data", str(path), "--family", "uit", "--alpha", "1.5"]) == 2

    def test_missing_file_is_3(self):
        assert main(["test", "--data", "/nonexistent.csv", "--family", "uit"]) == 3

    def test_dimension_error_is_3(self, tmp_path, rng):
        # n <= p: 3 rows, 4 columns.
        path = tmp_path / "wide.csv"
        write_csv(path, rng.standard_normal((3, 4)))
        assert main(["test", "--data", str(path), "--family", "uit"]) == 3

    def test_calibration_error_is_4(self, tmp_path, rng):
        path = tmp_path / "d.csv"
        write_csv(path, rng.standard_normal((4, 1)))
        # Alpha of 0.7 is unattainable for the univariate halfspace tail.
        code = main(
            [
                "test",
                "--data",
                str(path),
                "--cone",
                "halfspace",
                "--family",
                "uit",
                "--alpha",
                "0.7",
                "--calibration",
                "exact",
            ]
        )
        assert code == 4

    def test_subprocess_usage_exit(self, tmp_path):
        proc = run_cli(["test", "--family", "uit"])  # missing --data
        assert proc.returncode == 2


class TestCmdCalibrate:
    def test_sup_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            [
                "calibrate",
                "--family",
                "uit",
                "--cone",
                "halfspace",
                "--alpha",
                "0.05",
                "--n",
                "20",
                "--p",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["achieved_alpha"] == pytest.approx(0.05, abs=1e-6)

    @pytest.mark.parametrize("n, p", [(200, 2), (250, 3), (400, 2), (1000, 4)])
    @pytest.mark.parametrize("cone", ["orthant", "halfspace"])
    def test_uit_large_n(self, cone, n, p, tmp_path):
        out = tmp_path / "c.json"
        argv = [
            "calibrate", "--family", "uit", "--cone", cone, "--alpha", "0.05",
            "--n", str(n), "--p", str(p), "--out", str(out),
        ]
        assert main(argv) == 0
        result = json.loads(out.read_text())["result"]
        achieved = result["achieved_alpha"]
        if cone == "orthant":
            # The supremum calibration reports no achieved level for the
            # orthant; its critical value solves the halfspace equation.
            assert achieved is None
            achieved = calibrate.null_tail(stats.UIT_HALFSPACE, result["critical_value"], n, p)
        assert abs(achieved - 0.05) <= 1e-9

    def test_bayes_emits_weights_with_errors(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            [
                "calibrate",
                "--family",
                "uit",
                "--alpha",
                "0.05",
                "--n",
                "15",
                "--p",
                "2",
                "--calibration",
                "bayes",
                "--prior-df",
                "6",
                "--mc-samples",
                "20000",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert len(result["weights"]["std_errors"]) == 3
        assert result["achieved_alpha"] == pytest.approx(0.05, abs=1e-5)

    def test_bayes_without_seed_is_usage_error(self):
        code = main(
            [
                "calibrate",
                "--family",
                "uit",
                "--alpha",
                "0.05",
                "--n",
                "15",
                "--p",
                "2",
                "--calibration",
                "bayes",
                "--prior-df",
                "6",
            ]
        )
        assert code == 2


class TestCalibrationApplicability:
    """An invalid family/calibration pairing exits 4 before any Monte Carlo."""

    PAIRINGS = [
        ("uit", "halfspace", "bayes"),
        ("lrt", "halfspace", "bayes"),
        ("t2", "orthant", "bayes"),
        ("uit", "orthant", "exact"),
        ("fuit", "orthant", "exact"),
        ("fuit", "orthant", "bayes"),
    ]

    @pytest.fixture
    def weight_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            calibrate, "bayes_weights_b1", lambda *a, **k: calls.append((a, k))
        )
        return calls

    @pytest.mark.parametrize("seed", [["--seed", "1"], []])
    @pytest.mark.parametrize("family, cone, calibration", PAIRINGS)
    def test_calibrate(self, family, cone, calibration, seed, weight_calls, capsys):
        argv = [
            "calibrate", "--family", family, "--cone", cone, "--alpha", "0.05",
            "--n", "15", "--p", "2", "--calibration", calibration, "--prior-df", "6",
        ]
        assert main(argv + seed) == 4
        assert weight_calls == []
        assert "does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("family, cone, calibration", PAIRINGS)
    def test_test(self, family, cone, calibration, dataset, weight_calls, capsys):
        path, _ = dataset
        argv = [
            "test", "--data", str(path), "--family", family, "--cone", cone,
            "--calibration", calibration, "--prior-df", "6", "--seed", "1",
        ]
        assert main(argv) == 4
        assert weight_calls == []
        assert "does not apply" in capsys.readouterr().err

    def test_fuit_takes_sup(self, dataset, tmp_path):
        path, _ = dataset
        out = tmp_path / "t.json"
        assert main(["test", "--data", str(path), "--family", "fuit", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["calibration"] == "bonferroni"

    def test_simulate_plan(self, tmp_path):
        config = {
            "p": 2, "n": 10, "alpha": 0.05, "replications": 10, "seed": 1,
            "sigma": {"kind": "fixed", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "theta_grid": [[0.0, 0.0]],
            "tests": [{"family": "FUIT", "calibration": "exact"}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path)]) == 4


class TestCmdSimulate:
    @staticmethod
    def write_config(tmp_path, **overrides):
        cfg = {
            "experiment": "power",
            "p": 2,
            "n": 15,
            "alpha": 0.05,
            "replications": 400,
            "seed": 5,
            "sigma": {"kind": "fixed", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "theta_grid": [[0.0, 0.0], [0.5, 0.5]],
            "tests": [{"family": "UIT_orthant"}, {"family": "FUIT"}],
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_power_run_with_csv_mirror(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sim.json"
        csv_out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--csv", str(csv_out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert len(body["result"]["rows"]) == 4
        lines = csv_out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + rows

    def test_missing_seed_is_usage_error(self, tmp_path):
        cfg = {
            "experiment": "power",
            "p": 2,
            "n": 15,
            "alpha": 0.05,
            "replications": 10,
            "sigma": {"kind": "fixed", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "theta_grid": [[0.0, 0.0]],
            "tests": [{"family": "UIT_orthant"}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tests=[{"family": "nope"}])
        assert main(["simulate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "tests[0].family" in err

    def test_domination_experiment_config(self, tmp_path):
        cfg = self.write_config(
            tmp_path, experiment="domination", replications=2000,
            theta_grid=[[0.0, 0.0], [0.3, 0.3]], tests=[{"family": "UIT_orthant"}],
        )
        out = tmp_path / "dom.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        body = json.loads(out.read_text())["result"]
        assert body["flagged"] == []
        assert all(r["implication_violations"] == 0 for r in body["rows"])

    def test_worker_invariance_bytes(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"sim{w}.json"
            assert (
                main(["simulate", "--config", str(cfg), "--workers", str(w), "--out", str(out)])
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
