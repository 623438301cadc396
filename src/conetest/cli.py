"""Command-line interface: run tests on CSV data, build calibration tables,
and drive simulation experiments.

Reports are JSON documents with sorted keys; a manifest (command, input
paths, seed, configuration digest, tool and library versions) is embedded
in every report, and identical manifests with identical inputs produce
byte-identical reports regardless of the worker count.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric or
calibration error.

Environment defaults (used when the flag is absent): ``CONETEST_SEED``,
``CONETEST_MC_SAMPLES``, ``CONETEST_WORKERS``, ``CONETEST_OUT``.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, calibrate, cones, powerlab, sample, stats
from .dist import student_t_cdf, student_t_upper_quantile
from .exceptions import ConeTestError, DataError

USAGE_EXIT = 2
DATA_EXIT = 3
NUMERIC_EXIT = 4


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# report plumbing


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(obj):
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


def _sanitize(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def build_manifest(command, input_paths, seed, resolved_config):
    """Report manifest; ``config_digest`` covers the resolved configuration
    and the contents of every input file, so editing any input changes it.
    Runs without input files keep the digest of their configuration alone.
    ``library_versions`` records python, numpy and scipy outside the digest."""
    config = dict(resolved_config)
    if input_paths:
        config["input_digests"] = [_file_digest(path) for path in input_paths]
    return {
        "command": command,
        "input_paths": list(input_paths),
        "seed": seed,
        "config_digest": _digest(_sanitize(config)),
        "tool_version": __version__,
        "library_versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def emit_report(report, out_path):
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input parsing


def read_csv_matrix(path, name="data"):
    """Read a numeric CSV matrix; a non-numeric first row is a header."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {name} file {path}: {exc}") from exc
    rows = [r for r in rows if any(field.strip() for field in r)]
    if not rows:
        raise DataError(f"{name} file {path} is empty")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1
        if len(rows) < 2:
            raise DataError(f"{name} file {path} has a header but no data rows")
    width = len(rows[start])
    out = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise DataError(
                f"{name} file {path}, line {i}: expected {width} fields, got {len(row)}"
            )
        parsed = []
        for j, val in enumerate(row, start=1):
            try:
                parsed.append(float(val))
            except ValueError:
                raise DataError(
                    f"{name} file {path}, line {i}, column {j}: not a number: {val!r}"
                )
        out.append(parsed)
    return np.asarray(out, dtype=float)


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve_count(value, flag, env, default):
    """A count of at least 1 from its flag, else its variable, else ``default``."""
    name = flag
    if value is None:
        value, name = _env_int(env), env
    if value is None:
        return default
    if value < 1:
        raise UsageError(f"{name} must be at least 1, got {value}")
    return value


def _resolve_common(args):
    if args.seed is None:
        args.seed = _env_int("CONETEST_SEED")
    args.workers = _resolve_count(args.workers, "--workers", "CONETEST_WORKERS", 1)
    if hasattr(args, "mc_samples"):
        args.mc_samples = _resolve_count(
            args.mc_samples, "--mc-samples", "CONETEST_MC_SAMPLES", 200_000
        )
    if args.out is None:
        args.out = os.environ.get("CONETEST_OUT")


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"--alpha must be in (0, 1), got {alpha}")


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# conetest test


def _internal_family(family, cone):
    if family == "t2":
        return stats.T2
    if family == "fuit":
        if cone == "halfspace":
            raise UsageError("fuit is defined for the orthant alternative only")
        return stats.FUIT
    if family == "lrt":
        return stats.LRT_HALFSPACE if cone == "halfspace" else stats.LRT_ORTHANT
    if family == "uit":
        return stats.UIT_HALFSPACE if cone == "halfspace" else stats.UIT_ORTHANT
    raise UsageError(f"unknown family {family!r}")


def _load_prior(args, p):
    if args.prior_scale is None or args.prior_df is None:
        raise UsageError("bayes calibration requires --prior-scale and --prior-df")
    scale = read_csv_matrix(args.prior_scale, "prior scale")
    if scale.shape != (p, p):
        raise DataError(
            f"prior scale has shape {scale.shape}, expected ({p}, {p})"
        )
    return calibrate.PriorSpec.inverse_wishart(scale, args.prior_df)


def cmd_test(args):
    _check_alpha(args.alpha)
    # A polyhedral problem is reduced to an orthant model below.
    cone_kind = "orthant" if args.cone == "polyhedral" else args.cone
    family = _internal_family(args.family, cone_kind)
    calibrate.check_calibration(family, args.calibration)
    if args.calibration == "bayes" and args.seed is None:
        raise UsageError("bayes calibration requires --seed")
    if args.seed is None:
        args.seed = 0
    data = read_csv_matrix(args.data, "data")
    input_paths = [args.data]
    reduction_info = None
    if args.cone == "polyhedral":
        if args.b_matrix is None:
            raise UsageError("polyhedral cone requires --b-matrix")
        b2 = read_csv_matrix(args.b_matrix, "constraint matrix")
        input_paths.append(args.b_matrix)
        if args.b1_matrix is not None:
            b1 = read_csv_matrix(args.b1_matrix, "null-space matrix")
            input_paths.append(args.b1_matrix)
        else:
            b1 = b2
        reduced = cones.reduce_model(b1, b2, data)
        induced = np.asarray(reduced.cone.constraints)
        if induced.shape[0] != induced.shape[1]:
            raise DataError(
                "induced constraint matrix is not square; supply matching b1/b2 "
                "so the problem reduces to an orthant model"
            )
        # Square full-rank constraints: one more linear map lands on the orthant.
        data = np.asarray(reduced.data) @ induced.T
        reduction_info = {
            "b1_shape": list(b1.shape),
            "b2_shape": list(b2.shape),
            "induced_constraints": induced.tolist(),
            "transformed_dimension": data.shape[1],
        }
    s = sample.summarize(data)
    if s.n <= s.p:
        raise DataError(f"need n > p, got n={s.n}, p={s.p}")

    resolved = {
        "command": "test",
        "cone": args.cone,
        "family": args.family,
        "alpha": args.alpha,
        "calibration": args.calibration,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
        "prior_df": args.prior_df,
    }

    result = {
        "config": resolved,
        "n": s.n,
        "p": s.p,
        "family": family,
        "alpha": args.alpha,
    }
    if reduction_info:
        result["reduction"] = reduction_info
    if family == stats.FUIT:
        rep = stats.fuit(s, args.alpha)
        tail = student_t_cdf(-float(np.max(rep.t_values)), s.n - 1)
        result.update(
            {
                "t_values": rep.t_values.tolist(),
                "alpha_star": rep.alpha_star,
                "threshold": rep.threshold,
                "statistic": rep.statistic,
                "p_value": {"bonferroni": min(1.0, s.p * tail)},
                "reject": rep.reject,
                "calibration": "bonferroni",
            }
        )
        manifest = build_manifest("test", input_paths, args.seed, resolved)
        emit_report({"manifest": manifest, "result": result}, args.out)
        return 0

    outcome = {
        stats.T2: stats.hotelling_t2,
        stats.LRT_ORTHANT: stats.lrt_orthant,
        stats.UIT_ORTHANT: stats.uit_orthant,
        stats.LRT_HALFSPACE: stats.lrt_halfspace,
        stats.UIT_HALFSPACE: stats.uit_halfspace,
    }[family](s)
    value = stats.calibration_scale(outcome)
    weights = None
    if args.calibration == "bayes":
        prior = _load_prior(args, s.p)
        input_paths.append(args.prior_scale)
        weights = calibrate.bayes_weights_b1(
            s.n, s.p, prior, mc_samples=args.mc_samples, seed=args.seed,
            workers=args.workers,
        )
    solve, p_mode = calibrate.CALIBRATIONS[args.calibration]
    cv = solve(family, args.alpha, s.n, s.p, weights)
    pv = calibrate.p_value(outcome, p_mode, weights=weights)
    result.update(
        {
            "statistic": outcome.statistic,
            "calibration_scale_value": value,
            "active_subset": list(outcome.active_subset.a)
            if outcome.active_subset
            else None,
            "critical_value": {
                "value": cv.value,
                "alpha": cv.alpha,
                "calibration": cv.calibration,
            },
            "p_value": {p_mode: pv},
            "reject": bool(value >= cv.value),
            "calibration": args.calibration,
        }
    )
    if weights is not None:
        result["weights"] = {
            "values": weights.weights.tolist(),
            "std_errors": weights.std_errors.tolist(),
            "mc_samples": weights.mc_samples,
        }
    manifest = build_manifest("test", input_paths, args.seed, resolved)
    emit_report({"manifest": manifest, "result": result}, args.out)
    return 0


# ---------------------------------------------------------------------------
# conetest calibrate


def cmd_calibrate(args):
    _check_alpha(args.alpha)
    if args.n <= args.p:
        raise UsageError(f"need n > p, got n={args.n}, p={args.p}")
    family = _internal_family(args.family, args.cone)
    calibrate.check_calibration(family, args.calibration)
    if args.calibration == "bayes" and args.seed is None:
        raise UsageError("bayes calibration requires --seed")
    if args.seed is None:
        args.seed = 0
    input_paths = []
    resolved = {
        "command": "calibrate",
        "family": args.family,
        "cone": args.cone,
        "alpha": args.alpha,
        "n": args.n,
        "p": args.p,
        "calibration": args.calibration,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
        "prior_df": args.prior_df,
    }
    result = {
        "config": resolved,
        "family": family,
        "alpha": args.alpha,
        "n": args.n,
        "p": args.p,
    }
    if family == stats.FUIT:
        thr = student_t_upper_quantile(args.n - 1, args.alpha / args.p)
        result.update(
            {"threshold": thr, "alpha_star": args.alpha / args.p, "calibration": "bonferroni"}
        )
    else:
        weights = None
        if args.calibration == "bayes":
            if args.prior_scale is not None:
                prior = _load_prior(args, args.p)
                input_paths.append(args.prior_scale)
            elif args.prior_df is None:
                raise UsageError("bayes calibration requires --prior-df")
            else:
                prior = calibrate.PriorSpec.inverse_wishart(np.eye(args.p), args.prior_df)
            weights = calibrate.bayes_weights_b1(
                args.n, args.p, prior, mc_samples=args.mc_samples, seed=args.seed,
                workers=args.workers,
            )
            result["weights"] = {
                "values": weights.weights.tolist(),
                "std_errors": weights.std_errors.tolist(),
                "mc_samples": weights.mc_samples,
                "seed": args.seed,
            }
        solve, _ = calibrate.CALIBRATIONS[args.calibration]
        cv = solve(family, args.alpha, args.n, args.p, weights)
        unweighted_orthant = family in stats.ORTHANT_FAMILIES and weights is None
        result.update(
            {
                "critical_value": cv.value,
                "calibration": cv.calibration,
                "achieved_alpha": None
                if unweighted_orthant
                else calibrate.null_tail(family, cv.value, args.n, args.p, weights=weights),
            }
        )
    manifest = build_manifest("calibrate", input_paths, args.seed, resolved)
    emit_report({"manifest": manifest, "result": result}, args.out)
    return 0


# ---------------------------------------------------------------------------
# conetest simulate


def _expect(cfg, key, types, path):
    if key not in cfg:
        raise DataError(f"config field {path}{key} is missing")
    val = cfg[key]
    if not isinstance(val, types):
        raise DataError(f"config field {path}{key} has wrong type {type(val).__name__}")
    return val


def _parse_sigma(node, path):
    kind = _expect(node, "kind", str, path)
    if kind == "fixed":
        return powerlab.SigmaSource.fixed(np.asarray(_expect(node, "matrix", list, path)))
    if kind == "sequence":
        mats = _expect(node, "matrices", list, path)
        return powerlab.SigmaSource.sequence([np.asarray(m) for m in mats])
    if kind == "random_correlation":
        return powerlab.SigmaSource.random_correlation(int(node.get("count", 1)))
    raise DataError(f"config field {path}kind: unknown sigma kind {kind!r}")


def _parse_tests(nodes, path):
    plans = []
    for i, node in enumerate(nodes):
        sub = f"{path}[{i}]."
        family = _expect(node, "family", str, sub)
        if family not in stats.FAMILIES:
            raise DataError(f"config field {sub}family: unknown family {family!r}")
        calibration = node.get("calibration", "sup")
        prior = None
        if calibration == "bayes":
            pnode = _expect(node, "prior", dict, sub)
            prior = calibrate.PriorSpec.inverse_wishart(
                np.asarray(_expect(pnode, "scale", list, sub + "prior.")),
                float(_expect(pnode, "df", (int, float), sub + "prior.")),
            )
        plans.append(
            powerlab.TestPlan(
                family=family,
                calibration=calibration,
                prior=prior,
                weight_samples=int(node.get("weight_samples", 200_000)),
            )
        )
    return tuple(plans)


def load_experiment_config(path, workers=1):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError("config root must be an object")
    if "seed" not in raw:
        raise UsageError("config field seed is missing (seeds are mandatory)")
    experiment = raw.get("experiment", "power")
    if experiment not in ("power", "domination"):
        raise DataError(f"config field experiment: unknown value {experiment!r}")
    p = int(_expect(raw, "p", int, ""))
    cfg = powerlab.ExperimentConfig(
        p=p,
        n=int(_expect(raw, "n", int, "")),
        alpha=float(_expect(raw, "alpha", (int, float), "")),
        replications=int(_expect(raw, "replications", int, "")),
        seed=int(raw["seed"]),
        sigma_source=_parse_sigma(_expect(raw, "sigma", dict, ""), "sigma."),
        theta_grid=tuple(
            np.asarray(t, dtype=float) for t in _expect(raw, "theta_grid", list, "")
        ),
        tests=_parse_tests(raw.get("tests", [{"family": stats.UIT_ORTHANT}]), "tests"),
        workers=workers,
    )
    return experiment, cfg, raw


def cmd_simulate(args):
    if args.config is None:
        raise UsageError("simulate requires --config")
    experiment, cfg, raw = load_experiment_config(args.config, workers=args.workers)
    resolved = {"command": "simulate", "config": raw}
    manifest = build_manifest("simulate", [args.config], cfg.seed, resolved)
    run = powerlab.simulate_power if experiment == "power" else powerlab.domination_experiment
    body = _sanitize(dataclasses.asdict(run(cfg)))
    rows = body["rows"]
    body["config"] = raw
    emit_report({"manifest": manifest, "result": body}, args.out)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if rows:
                keys = sorted(rows[0])
                writer.writerow(keys)
                for row in rows:
                    writer.writerow([row[k] for k in keys])
    if args.out:
        print(f"{experiment}: {len(rows)} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conetest",
        description="Tests of a multivariate normal mean against cone alternatives.",
        epilog=(
            "Environment defaults: CONETEST_SEED, CONETEST_MC_SAMPLES, "
            "CONETEST_WORKERS, CONETEST_OUT."
        ),
    )
    parser.add_argument("--version", action="version", version=f"conetest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None, help="random seed")
        sp.add_argument("--workers", type=int, default=None, help="worker threads (results unaffected)")
        sp.add_argument("--out", default=None, help="write the JSON report here (default stdout)")

    t = sub.add_parser("test", help="run a test on CSV data")
    t.add_argument("--data", required=True, help="CSV file, rows = observations")
    t.add_argument("--cone", choices=("orthant", "halfspace", "polyhedral"), default="orthant")
    t.add_argument("--b-matrix", default=None, help="CSV constraint matrix for polyhedral cones")
    t.add_argument("--b1-matrix", default=None, help="CSV null-hypothesis matrix (defaults to --b-matrix)")
    t.add_argument("--family", choices=("t2", "lrt", "uit", "fuit"), required=True)
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--calibration", choices=("sup", "bayes", "exact"), default="sup")
    t.add_argument("--prior-scale", default=None, help="CSV scale matrix of the inverse-Wishart prior")
    t.add_argument("--prior-df", type=float, default=None, help="degrees of freedom of the prior")
    t.add_argument("--mc-samples", type=int, default=None)
    common(t)
    t.set_defaults(func=cmd_test)

    c = sub.add_parser("calibrate", help="critical-value table for a test family")
    c.add_argument("--family", choices=("t2", "lrt", "uit", "fuit"), required=True)
    c.add_argument("--cone", choices=("orthant", "halfspace"), default="orthant")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--calibration", choices=("sup", "bayes", "exact"), default="sup")
    c.add_argument("--prior-scale", default=None)
    c.add_argument("--prior-df", type=float, default=None)
    c.add_argument("--mc-samples", type=int, default=None)
    common(c)
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("simulate", help="run a power/domination experiment from a config file")
    s.add_argument("--config", required=True, help="JSON experiment configuration")
    s.add_argument("--csv", default=None, help="also mirror the result rows to CSV")
    common(s)
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help/--version
        return int(exc.code or 0)
    try:
        _resolve_common(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ConeTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
