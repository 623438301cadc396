"""The CLI's edge-shape contract.

Every input below, run in-process through ``cli.main``, ends in exit 0, 2,
3 or 4, with no exception escaping and no warning; a nonzero exit names its
failure on stderr.  An exit-0 ``calibrate`` solves ``tail(cv) = alpha`` to
1e-9 relative.  The shapes run n from p + 1 to 1e6, p up to 100 and alpha
from 1e-12 to 0.49, take Bayes priors up to their df bound p - 1, and give
``test`` data at the edges of the sample covariance: singular, nearly
singular, constant, repeated, one-signed and scaled far from 1.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from conetest import calibrate, cli, stats
from conetest.dist import student_t_cdf

LEVEL_RTOL = 1e-9
FAILURE_PREFIXES = ("usage error: ", "data error: ", "error: ")

P_GRID = (1, 2, 3, 8, 40, 100)
ALPHAS = (1e-12, 0.05, 0.49)
# (family, cone, calibration) as the CLI names them.
PLANS = (
    ("t2", "orthant", "sup"),
    ("lrt", "orthant", "sup"), ("lrt", "halfspace", "exact"),
    ("uit", "orthant", "sup"), ("uit", "halfspace", "exact"),
    ("fuit", "orthant", "sup"),
)
# The supremum of an orthant family's null tail is its halfspace counterpart's.
SUPREMUM = {stats.LRT_ORTHANT: stats.LRT_HALFSPACE, stats.UIT_ORTHANT: stats.UIT_HALFSPACE}
BAYES_DRAWS = "2000"


def sample_sizes(p):
    return (p + 1, p + 2, 1040, 10_000, 1_000_000)


def run(argv):
    """Exit code and report of one in-process run, held to the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code:
        message = err.getvalue()
        prefix = next((f for f in FAILURE_PREFIXES if message.startswith(f)), None)
        assert prefix and message[len(prefix):].strip(), (argv, message)
        return code, message
    return code, json.loads(out.getvalue())["result"]


def attained_level(result):
    """The calibrated null tail at the reported critical value; FUIT's Bonferroni level."""
    family, n, p = result["family"], result["n"], result["p"]
    if family == stats.FUIT:
        return p * student_t_cdf(-result["threshold"], n - 1)
    weights = None
    if "weights" in result:
        w = result["weights"]
        weights = calibrate.MixtureWeights(
            np.array(w["values"]), np.array(w["std_errors"]), calibrate.MONTE_CARLO, w["mc_samples"]
        )
    if result["calibration"] == calibrate.SUP_SIGMA:
        family = SUPREMUM.get(family, family)
    return calibrate.null_tail(family, result["critical_value"], n, p, weights=weights)


def calibrate_cases():
    for p in P_GRID:
        for n in sample_sizes(p):
            for alpha in ALPHAS:
                shape = ["--alpha", repr(alpha), "--n", str(n), "--p", str(p)]
                for family, cone, calibration in PLANS:
                    yield ["calibrate", "--family", family, "--cone", cone,
                           "--calibration", calibration] + shape
                if p > 8:
                    continue
                for df in (p - 0.9, p - 0.5, p + 4):
                    for family in ("uit", "lrt"):
                        yield ["calibrate", "--family", family, "--calibration", "bayes",
                               "--prior-df", repr(df), "--mc-samples", BAYES_DRAWS,
                               "--seed", "11"] + shape


def test_calibrate_shapes():
    for argv in calibrate_cases():
        code, result = run(argv)
        if code:  # only a Bayes level can lie past one minus the estimated b1(0)
            assert "bayes" in argv and "attainable tail range" in result, (argv, result)
            continue
        alpha = result["alpha"]
        assert abs(attained_level(result) - alpha) <= LEVEL_RTOL * alpha, argv


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--family", "uit", "--calibration", "bayes", "--prior-df", "inf", "--seed", "1",
          "--n", "30", "--p", "3"], 3, "df must be finite"),
        (["--family", "uit", "--n", "9" * 401, "--p", "3"], 2, "at most 2**53"),
        (["--family", "fuit", "--n", "9" * 401, "--p", "3"], 2, "at most 2**53"),
        (["--family", "t2", "--n", "9" * 402, "--p", "9" * 401], 2, "at most 2**53"),
        (["--family", "uit", "--n", str(2**53 + 2), "--p", "3"], 2, "at most 2**53"),
    ],
    ids=["prior-df-inf", "n-401-digits", "fuit-n-401-digits", "p-401-digits",
         "n-past-2-53"],
)
def test_calibrate_refused_inputs(argv, code, message):
    # Each is refused before any draw or tail evaluation.
    got, failure = run(["calibrate", "--alpha", "0.05"] + argv)
    assert got == code and message in failure, (argv, failure)


def write_csv(path, matrix):
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
    return str(path)


def edge_datasets(rng, p=3, n=30):
    base = rng.standard_normal((n, p)) + 0.4
    collinear = base.copy()
    collinear[:, 2] = base[:, 0] + base[:, 1]
    near = collinear.copy()
    near[:, 2] += 1e-7 * rng.standard_normal(n)
    return {
        "n = p + 1": rng.standard_normal((p + 1, p)) + 0.4,
        "collinear": collinear,
        "near-collinear": near,
        "repeated rows": np.repeat(rng.standard_normal((6, p)) + 0.4, 5, axis=0),
        "all negative": -np.abs(base) - 0.1,
        "base": base,
        "scale 1e-8": base * 1e-8,
        "scale 1e150": base * 1e150,
    }


def run_test(argv, data_path):
    return run(["test", "--data", data_path] + argv)


def test_edge_data(tmp_path, rng):
    prior = write_csv(tmp_path / "prior.csv", np.eye(3))
    bayes = ["--prior-scale", prior, "--prior-df", "3.5", "--seed", "5", "--mc-samples", BAYES_DRAWS]
    statistics = {}
    for name, data in edge_datasets(rng).items():
        path = write_csv(tmp_path / f"{name}.csv", data)
        for family, cone, calibration in PLANS + (("uit", "orthant", "bayes"),):
            argv = ["--family", family, "--cone", cone, "--calibration", calibration]
            code, result = run_test(argv + (bayes if calibration == "bayes" else []), path)
            if "collinear" in name and family != "fuit":
                assert code == 4 and "sample covariance is singular" in result, (name, argv)
                continue
            assert code == 0, (name, argv, result)
            [p_value] = result["p_value"].values()
            assert 0.0 <= p_value <= 1.0
            statistics[name, family, cone, calibration] = result["statistic"]
    for (name, *plan), statistic in statistics.items():
        if name.startswith("scale"):  # units do not change a statistic
            assert statistic == pytest.approx(statistics["base", *plan], rel=1e-12), (name, plan)


@pytest.mark.parametrize("constant", [0.1, 0.3, 0.5, 1.0 / 3.0])
def test_constant_column(tmp_path, rng, constant):
    data = rng.standard_normal((30, 3)) + 0.4
    data[:, 0] = constant
    path = write_csv(tmp_path / "data.csv", data)
    for family, cone, calibration in PLANS:
        code, message = run_test(["--family", family, "--cone", cone, "--calibration", calibration], path)
        if family == "fuit":
            assert code == 3 and "coordinate 0 has zero sample variance" in message
        else:
            assert code == 4 and "sample covariance is singular" in message


def test_ill_conditioned_polyhedral(tmp_path, rng):
    data = write_csv(tmp_path / "data.csv", rng.standard_normal((30, 3)) + 0.4)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for cond in (1e3, 1e5, 1e6, 1e8):
        b = write_csv(tmp_path / "b.csv", u @ np.diag([1.0, cond ** -0.5, 1.0 / cond]) @ v.T)
        for family in ("lrt", "uit"):
            code, result = run_test(["--family", family, "--cone", "polyhedral", "--b-matrix", b], data)
            # B S B' has a condition number of up to cond(B)^2 cond(S).
            assert code == 0 or (code == 4 and cond > 1e3), (cond, family, result)


def simulate_config(experiment, p, n):
    config = {
        "experiment": experiment, "p": p, "n": n, "alpha": 0.05, "replications": 200,
        "seed": 17, "sigma": {"kind": "random_correlation", "count": 1},
        "theta_grid": [[0.0] * p, [0.3] * p],
    }
    if experiment == "power":
        config["tests"] = [
            {"family": stats.T2}, {"family": stats.FUIT},
            {"family": stats.LRT_ORTHANT}, {"family": stats.UIT_ORTHANT},
            {"family": stats.LRT_HALFSPACE, "calibration": "exact"},
            {"family": stats.UIT_HALFSPACE, "calibration": "exact"},
            {"family": stats.UIT_ORTHANT, "calibration": "bayes", "weight_samples": 2000,
             "prior": {"scale": np.eye(p).tolist(), "df": p - 0.5}},
        ]
    return config


def test_simulate_shapes(tmp_path):
    path = tmp_path / "config.json"
    for p in (1, 2, 3, 8):
        for n in sample_sizes(p)[:3] + (1_000_000,):
            for experiment in ("power", "domination"):
                path.write_text(json.dumps(simulate_config(experiment, p, n)))
                code, result = run(["simulate", "--config", str(path)])
                assert code == 0, (experiment, p, n, result)
                rates = [v for row in result["rows"] for k, v in row.items()
                         if k in ("rejection_rate", "power_orthant", "power_halfspace")]
                assert rates and all(0.0 <= r <= 1.0 for r in rates), (experiment, p, n)
