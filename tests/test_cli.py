import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import t as scipy_t

from conetest import _batch, calibrate, cli, stats
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

    def test_bad_cell_after_blank_line_reports_physical_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n\n3,abc\n")
        with pytest.raises(DataError, match="line 4, column 2: not a number: 'abc'"):
            read_csv_matrix(path)

    def test_ragged_row_after_quoted_line_break_reports_physical_line(self, tmp_path):
        # The header's quoted field spans lines 1-2 and line 4 is blank.
        path = tmp_path / "d.csv"
        path.write_text('"x\n1",x2\n1,2\n\n3\n')
        with pytest.raises(DataError, match="line 5: expected 2 fields, got 1"):
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

    @pytest.mark.parametrize("cone, calibration", [("orthant", "sup"), ("halfspace", "exact")])
    def test_uit_at_large_n(self, cone, calibration, tmp_path, capsys):
        n, p = 1100, 3
        path, out = tmp_path / "data.csv", tmp_path / "report.json"
        write_csv(path, np.random.default_rng(11).standard_normal((n, p)) + 0.05)
        argv = ["test", "--data", str(path), "--family", "uit", "--cone", cone,
                "--calibration", calibration, "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        result = json.loads(out.read_text())["result"]
        [p_value] = result["p_value"].values()
        value = result["calibration_scale_value"]
        assert 0.0 < p_value < 1.0
        assert p_value == pytest.approx(calibrate.null_tail(stats.UIT_HALFSPACE, value, n, p))
        assert result["reject"] == (value >= result["critical_value"]["value"])

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

    @pytest.mark.parametrize("count", [2**53 + 1, 10**400], ids=["2-53-plus-1", "401-digits"])
    @pytest.mark.parametrize("source", ["flag", "variable"])
    def test_draw_count_past_2_53_is_data_error(self, source, count, monkeypatch, capsys):
        # Refused before any draw: the chunk list of such a count would not fit.
        def forbidden(*args):
            raise AssertionError("no Monte-Carlo chunk may run")

        monkeypatch.setattr(_batch, "run_chunks", forbidden)
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
                "--calibration", "bayes", "--prior-df", "6", "--seed", "3"]
        if source == "flag":
            argv += ["--mc-samples", str(count)]
        else:
            monkeypatch.setenv("CONETEST_MC_SAMPLES", str(count))
        assert main(argv) == 3
        assert "mc_samples must be at least 1 and at most 2**53" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, monkeypatch, capsys):
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
                "--calibration", "bayes", "--prior-df", "6", "--mc-samples", "100"]
        assert main(argv + ["--seed", "-1"]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err
        monkeypatch.setenv("CONETEST_SEED", "-1")
        assert main(argv) == 2
        assert "CONETEST_SEED must be at least 0" in capsys.readouterr().err
        assert main(argv + ["--seed", "0"]) == 0

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


class TestOneParser:
    """``main`` keeps one parser per process and no state between calls."""

    CALIBRATE = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "20", "--p", "3"]

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count parser builds from a cleared cache; clear it again after."""
        count = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: count.append(1) or real())
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    def test_built_once_over_many_calls(self, builds, dataset, tmp_path, capsys):
        path, _ = dataset
        out = str(tmp_path / "r.json")
        assert main(["--version"]) == 0
        assert main(self.CALIBRATE + ["--out", out]) == 0
        assert main(["test", "--data", str(path), "--family", "uit", "--out", out]) == 0
        assert main(["test", "--data", str(path), "--family", "bogus"]) == 2
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 3
        assert len(builds) == 1

    def test_version_twice(self, builds, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--version"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == f"conetest {cli.__version__}\n"

    def test_seed_flag_does_not_carry(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset
        out = tmp_path / "r.json"
        argv = ["test", "--data", str(path), "--family", "uit", "--out", str(out)]
        monkeypatch.delenv("CONETEST_SEED", raising=False)
        seeds = []
        for extra, env in ((["--seed", "5"], None), ([], None), (["--seed", "5"], "9"), ([], "9")):
            if env is not None:
                monkeypatch.setenv("CONETEST_SEED", env)
            assert main(argv + extra) == 0
            seeds.append(json.loads(out.read_text())["manifest"]["seed"])
        assert seeds == [5, 0, 5, 9]

    def test_environment_read_on_every_call(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset
        argv = ["test", "--data", str(path), "--family", "uit"]
        for seed in ("11", "12"):
            out = tmp_path / f"r{seed}.json"
            monkeypatch.setenv("CONETEST_SEED", seed)
            monkeypatch.setenv("CONETEST_OUT", str(out))
            assert main(argv) == 0
            assert json.loads(out.read_text())["manifest"]["seed"] == int(seed)

    def test_usage_error_then_fresh_process_report(self, tmp_path, capsys):
        assert main(["calibrate", "--family", "bogus", "--alpha", "0.05", "--n", "20",
                     "--p", "3"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        argv = self.CALIBRATE + ["--cone", "halfspace"]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        fresh = run_cli(argv)
        assert fresh.returncode == 0, fresh.stderr
        assert out.read_text() == fresh.stdout

    def test_interleaved_commands_repeat_reports(self, dataset, tmp_path):
        path, _ = dataset
        reports = []
        for i in range(2):
            out = tmp_path / f"c{i}.json"
            assert main(self.CALIBRATE + ["--out", str(out)]) == 0
            reports.append(out.read_bytes())
            argv = ["test", "--data", str(path), "--family", "lrt", "--cone", "halfspace",
                    "--calibration", "exact", "--alpha", "0.1", "--seed", "3",
                    "--out", str(tmp_path / "t.json")]
            assert main(argv) == 0
        assert reports[0] == reports[1]


class TestManifest:
    @pytest.mark.parametrize(
        "text",
        [
            "y\n" + "\n".join(f"{0.1 * i + 0.3!r}" for i in range(12)) + "\n",
            "y\r\n" + "\r\n".join(f"{0.1 * i + 0.3!r}" for i in range(12)) + "\r\n",
            '"shift,\nin y"\n' + "\n".join(f'"{0.1 * i + 0.3!r}"' for i in range(12)),
        ],
        ids=["header", "crlf", "quoted"],
    )
    def test_digest_covers_file_bytes(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        out = tmp_path / "r.json"
        assert main(["test", "--data", str(path), "--family", "uit", "--seed", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["n"] == 12
        config = dict(report["result"]["config"])
        config["input_digests"] = [hashlib.sha256(path.read_bytes()).hexdigest()]
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert report["manifest"]["config_digest"] == expected

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

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("d.csv", b"x1,x2\n1,2\n\xff\xfe,3\n", ["test", "--family", "uit", "--data"]),
            ("g.csv", b"1,0\n0,\xff1\n", ["calibrate", "--family", "uit", "--alpha", "0.05",
                                           "--n", "15", "--p", "2", "--calibration", "bayes",
                                           "--prior-df", "6", "--seed", "1", "--prior-scale"]),
            ("c.json", b'{"seed": 1, "p": 2 \xff}', ["simulate", "--config"]),
        ],
        ids=["data", "prior-scale", "config"],
    )
    def test_non_utf8_file_is_3(self, tmp_path, capsys, name, content, argv):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(argv + [str(path)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "not UTF-8" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["test", "--family", "uit", "--b-matrix"], "--b-matrix"),
            (["test", "--family", "lrt", "--cone", "halfspace", "--b1-matrix"], "--b1-matrix"),
            (["test", "--family", "uit", "--calibration", "sup", "--prior-scale"], "--prior-scale"),
            (["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
              "--prior-df", "6", "--prior-scale"], "--prior-scale"),
        ],
        ids=["test-b-matrix", "test-b1-matrix", "test-prior-scale", "calibrate-prior-scale"],
    )
    def test_unread_file_flag_is_2(self, dataset, tmp_path, capsys, argv, flag):
        # The named file does not exist: the flag is refused before any file is read.
        data, _ = dataset
        out = tmp_path / "r.json"
        argv = argv + [str(tmp_path / "missing.csv"), "--out", str(out)]
        if argv[0] == "test":
            argv += ["--data", str(data)]
        assert main(argv) == 2
        assert not out.exists()
        assert f"{flag} is read only with" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needed",
        [
            (["test", "--family", "uit"], "--prior-scale and --prior-df"),
            (["test", "--family", "uit", "--prior-scale", "DATA"], "--prior-scale and --prior-df"),
            (["test", "--family", "lrt", "--prior-df", "6"], "--prior-scale and --prior-df"),
            (["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
              "--prior-scale", "MISSING"], "--prior-df"),
        ],
        ids=["test-no-prior", "test-no-df", "test-no-scale", "calibrate-no-df"],
    )
    def test_missing_prior_flag_is_2_before_reading(self, dataset, tmp_path, monkeypatch, capsys,
                                                    argv, needed):
        data, _ = dataset
        reads = []
        monkeypatch.setattr(cli, "read_csv_matrix",
                            lambda *a, **k: reads.append(a) or read_csv_matrix(*a, **k))
        paths = {"DATA": str(data), "MISSING": str(tmp_path / "missing.csv")}
        argv = [paths.get(a, a) for a in argv] + ["--calibration", "bayes", "--seed", "1"]
        if argv[0] == "test":
            argv += ["--data", str(data)]
        assert main(argv) == 2
        assert reads == []
        assert f"bayes calibration requires {needed}" in capsys.readouterr().err

    def test_missing_data_and_prior_is_2(self, capsys):
        argv = ["test", "--data", "/nonexistent.csv", "--family", "uit", "--calibration", "bayes",
                "--seed", "1"]
        assert main(argv) == 2
        assert "requires --prior-scale and --prior-df" in capsys.readouterr().err

    @pytest.mark.parametrize("env", [False, True], ids=["flag", "CONETEST_OUT"])
    def test_unwritable_report_is_3(self, tmp_path, monkeypatch, capsys, env):
        out = tmp_path / "missing" / "r.json"
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "30", "--p", "3"]
        if env:
            monkeypatch.setenv("CONETEST_OUT", str(out))
        else:
            argv += ["--out", str(out)]
        assert main(argv) == 3
        assert f"cannot write report {out}" in capsys.readouterr().err

    def test_unwritable_csv_is_3(self, tmp_path, capsys):
        cfg = TestCmdSimulate.write_config(tmp_path)
        csv_out = tmp_path / "missing" / "sim.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.json"), "--csv", str(csv_out)]
        assert main(argv) == 3
        assert f"cannot write CSV file {csv_out}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]], ids=["indefinite", "asymmetric"]
    )
    @pytest.mark.parametrize("source", ["simulate-sigma", "simulate-prior", "test-prior", "calibrate-prior"])
    def test_matrix_not_positive_definite_is_3(self, tmp_path, rng, monkeypatch, capsys, source, matrix):
        # A matrix the user supplies is bad input, refused before any draw.
        def forbidden(*args):
            raise AssertionError("no Monte-Carlo chunk may run")

        monkeypatch.setattr(_batch, "run_chunks", forbidden)
        bayes = ["--calibration", "bayes", "--prior-df", "6", "--seed", "1"]
        scale = tmp_path / "g.csv"
        write_csv(scale, np.array(matrix))
        if source == "simulate-sigma":
            cfg = TestCmdSimulate.write_config(tmp_path, sigma={"kind": "fixed", "matrix": matrix})
            argv, name = ["simulate", "--config", str(cfg)], "sigma[0]"
        elif source == "simulate-prior":
            tests = [{"family": "UIT_orthant", "calibration": "bayes", "prior": {"scale": matrix, "df": 6}}]
            cfg = TestCmdSimulate.write_config(tmp_path, tests=tests)
            argv, name = ["simulate", "--config", str(cfg)], "prior scale"
        elif source == "test-prior":
            data = tmp_path / "d.csv"
            write_csv(data, rng.standard_normal((12, 2)) + 0.5)
            argv = ["test", "--data", str(data), "--family", "uit", "--prior-scale", str(scale)] + bayes
            name = "prior scale"
        else:
            argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--n", "15", "--p", "2",
                    "--prior-scale", str(scale)] + bayes
            name = "prior scale"
        assert main(argv) == 3
        assert f"data error: {name} is not" in capsys.readouterr().err

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

    # From n - p + k - 1 of about 1033 on, scipy.special.roots_jacobi's
    # weights overflow; n = 1100 checks that the quadrature does not use them.
    @pytest.mark.parametrize("n, p", [(200, 2), (250, 3), (400, 2), (1000, 4), (1100, 3)])
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
        assert achieved == pytest.approx(0.05, rel=1e-9, abs=0.0)

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

    @pytest.mark.parametrize("p, n, df", [(3, 4, 2.1), (3, 4, 2.5), (6, 9, 5.5), (8, 60, 7.5)])
    def test_bayes_near_improper_prior(self, tmp_path, capsys, p, n, df):
        # The compound-null draw underflowed at these shapes; the weights are
        # now drawn at the prior scale and do not depend on df.
        out = tmp_path / "c.json"
        argv = ["calibrate", "--family", "uit", "--alpha", "0.05", "--calibration", "bayes",
                "--p", str(p), "--n", str(n), "--prior-df", str(df), "--seed", "3",
                "--mc-samples", "20000", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        result = json.loads(out.read_text())["result"]
        weights = calibrate.MixtureWeights(
            np.array(result["weights"]["values"]), np.array(result["weights"]["std_errors"]),
            calibrate.MONTE_CARLO, result["weights"]["mc_samples"],
        )
        tail = calibrate.null_tail(stats.UIT_ORTHANT, result["critical_value"], n, p, weights)
        assert abs(tail - 0.05) <= 1e-9 * 0.05

    @pytest.mark.parametrize("family, p", [("uit", -1), ("fuit", 0), ("t2", 0), ("lrt", 0)])
    def test_p_below_one_is_usage_error(self, family, p, capsys):
        argv = ["calibrate", "--family", family, "--alpha", "0.05", "--n", "20", "--p", str(p)]
        assert main(argv) == 2
        assert f"need p >= 1, got p={p}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"p": 0, "sigma": {"kind": "random_correlation"}, "theta_grid": [[]]}, "need p >= 1"),
            ({"n": 10**400}, "n must be at most 2**53"),
            ({"n": 2**53 + 2}, "n must be at most 2**53"),
            ({"replications": 10**400}, "replications must be at least 1 and at most 2**53"),
            ({"replications": 2**53 + 1}, "replications must be at least 1 and at most 2**53"),
            ({"replications": 0}, "replications must be at least 1 and at most 2**53"),
            (
                {"tests": [{"family": "UIT_orthant", "weight_samples": 10**400}]},
                "weight_samples must be at least 1 and at most 2**53",
            ),
            (
                {"tests": [{"family": "UIT_orthant", "calibration": "bayes", "weight_samples": 2**53 + 1,
                            "prior": {"scale": [[1.0, 0.0], [0.0, 1.0]], "df": 6}}]},
                "weight_samples must be at least 1 and at most 2**53",
            ),
        ],
        ids=["p-zero", "n-401-digits", "n-past-2-53", "replications-401-digits",
             "replications-past-2-53", "replications-zero", "weight-samples-401-digits",
             "weight-samples-past-2-53"],
    )
    def test_size_out_of_range_is_data_error(self, tmp_path, capsys, monkeypatch, overrides, message):
        def forbidden(*args):
            raise AssertionError("no Monte-Carlo chunk may run")

        monkeypatch.setattr(_batch, "run_chunks", forbidden)
        cfg = self.write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["power", "domination"])
    def test_empty_theta_grid_is_data_error(self, tmp_path, capsys, monkeypatch, experiment):
        # Refused before any draw, not a run that reports zero rows.
        def forbidden(*args):
            raise AssertionError("no Monte-Carlo chunk may run")

        monkeypatch.setattr(_batch, "run_chunks", forbidden)
        cfg = self.write_config(tmp_path, experiment=experiment, theta_grid=[])
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert "theta_grid must hold at least one theta" in capsys.readouterr().err

    def test_domination_demo_is_the_same_at_every_worker_count(self, tmp_path):
        # Parallelism is over chunks; the demo's 20000 draws are two of them.
        config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "domination.json"
        reports = []
        for workers in (1, 2, 3):
            out = tmp_path / f"domination_{workers}.json"
            assert main(["simulate", "--config", str(config), "--workers", str(workers), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["result"]["flagged"] == []

    @pytest.mark.parametrize("seed", [-3, "abc", 1.5, True])
    def test_bad_seed_is_data_error(self, tmp_path, seed, capsys):
        cfg = self.write_config(tmp_path, seed=seed)
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert "seed must be a nonnegative integer" in capsys.readouterr().err

    def test_seed_comes_from_config_only(self, tmp_path, monkeypatch):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--seed", "3"]) == 2
        monkeypatch.setenv("CONETEST_SEED", "-1")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["manifest"]["seed"] == 5

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, tests=[{"family": "nope"}])
        assert main(["simulate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "tests[0].family" in err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"sigma": {"kind": "random_correlation", "count": "2"}}, "sigma.count"),
            ({"sigma": {"kind": "random_correlation", "count": 1.5}}, "sigma.count"),
            ({"replications": True}, "replications"),
            ({"sigma": {"kind": "fixed", "matrix": [[1.0, "a"], [0.0, 1.0]]}}, "sigma.matrix"),
            ({"sigma": {"kind": "fixed", "matrix": [[1.0], [0.0, 1.0]]}}, "sigma.matrix"),
            (
                {"sigma": {"kind": "sequence", "matrices": [np.eye(2).tolist(), [[1, 0], [0, None]]]}},
                "sigma.matrices[1]",
            ),
            ({"theta_grid": [[0.0, 0.0], ["0.5", 0.5]]}, "theta_grid[1]"),
            ({"tests": {"family": "UIT_orthant"}}, "tests"),
            ({"tests": ["family"]}, "tests[0].family"),
            ({"tests": [{"family": "UIT_orthant", "weight_samples": "many"}]}, "tests[0].weight_samples"),
            ({"tests": [{"family": "UIT_orthant", "weight_samples": 1.5}]}, "tests[0].weight_samples"),
            (
                {"tests": [{"family": "UIT_orthant", "calibration": "bayes",
                            "prior": {"scale": [[1.0, 0.0], [0.0, "x"]], "df": 6}}]},
                "tests[0].prior.scale",
            ),
            ({"tests": [{"family": "UIT_orthant", "calibration": ["sup"]}]}, "tests[0].calibration"),
            ({"tests": [{"family": "UIT_orthant", "calibration": {"sup": 1}}]}, "tests[0].calibration"),
            # Integers past the float range.
            ({"alpha": 10**400}, "alpha"),
            (
                {"tests": [{"family": "UIT_orthant", "calibration": "bayes",
                            "prior": {"scale": [[1.0, 0.0], [0.0, 1.0]], "df": 10**400}}]},
                "tests[0].prior.df",
            ),
        ],
    )
    def test_non_numeric_field_is_data_error(self, tmp_path, capsys, overrides, field):
        cfg = self.write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert f"config field {field} " in capsys.readouterr().err

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

    BAYES_PLAN = {
        "family": "UIT_orthant", "calibration": "bayes", "weight_samples": 40000,
        "prior": {"scale": [[1.0, 0.3], [0.3, 1.0]], "df": 6},
    }

    def test_worker_invariance_bytes(self, tmp_path, monkeypatch):
        weight_workers = []
        estimate = calibrate.bayes_weights_b1

        def spy(*args, **kwargs):
            weight_workers.append(kwargs["workers"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(calibrate, "bayes_weights_b1", spy)
        for tests in (None, [self.BAYES_PLAN, {"family": "FUIT"}]):
            cfg = self.write_config(tmp_path, **({"tests": tests} if tests else {}))
            outs = []
            for w in (1, 2, 8):
                out = tmp_path / f"sim{w}.json"
                assert (
                    main(["simulate", "--config", str(cfg), "--workers", str(w), "--out", str(out)])
                    == 0
                )
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2]
        # The Bayes plan's 40000 weight draws (three chunks) ran on the config's workers.
        assert weight_workers == [1, 2, 8]

    @pytest.mark.parametrize(
        "overrides, constant",
        [
            ({"theta_grid": [[float("inf"), 0.5]]}, "Infinity"),
            ({"theta_grid": [[0.0, float("-inf")]]}, "-Infinity"),
            ({"alpha": float("nan")}, "NaN"),
            ({"sigma": {"kind": "fixed", "matrix": [[1.0, float("nan")], [0.0, 1.0]]}}, "NaN"),
            # The string "1e400" is written as the literal 1e400, which parses to inf.
            ({"theta_grid": [["1e400", 0.5]]}, "1e400"),
            (
                {"tests": [{"family": "UIT_orthant", "calibration": "bayes",
                            "prior": {"scale": [[1.0, 0.0], [0.0, 1.0]], "df": "1e400"}}]},
                "1e400",
            ),
            ({"comment": "1e400"}, "1e400"),
        ],
        ids=["theta-inf", "theta-minus-inf", "alpha-nan", "sigma-nan", "theta-overflow",
             "prior-df-overflow", "unread-overflow"],
    )
    def test_non_finite_constant_is_data_error(self, tmp_path, capsys, overrides, constant):
        cfg = self.write_config(tmp_path, **overrides)
        cfg.write_text(cfg.read_text().replace('"1e400"', "1e400"))
        assert constant in cfg.read_text()
        assert main(["simulate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert str(cfg) in err and f"non-finite constant {constant}" in err
