"""Command-line interface: run tests on CSV data, build calibration tables,
and drive simulation experiments.

Reports are JSON documents with sorted keys; a manifest (command, input
paths, seed, configuration digest, tool and library versions) is embedded
in every report, and identical manifests with identical inputs produce
byte-identical reports regardless of the worker count.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric or
calibration error.

Environment defaults (used when the flag is absent): ``CONETEST_SEED``,
``CONETEST_MC_SAMPLES``, ``CONETEST_WORKERS``, ``CONETEST_OUT``.  ``simulate``
takes its seed from its config only.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, calibrate, cones, powerlab, sample, stats
from .dist import student_t_cdf
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


def build_manifest(command, inputs, seed, resolved_config):
    """Report manifest; ``config_digest`` covers the resolved configuration
    and the contents of every input file, so editing any input changes it.
    ``inputs`` holds a ``(path, digest)`` pair per input file, the digest
    taken from the bytes that were parsed (see :func:`_read_input`).
    Runs without input files keep the digest of their configuration alone.
    ``library_versions`` records python, numpy and scipy outside the digest."""
    config = dict(resolved_config)
    if inputs:
        config["input_digests"] = [digest for _, digest in inputs]
    return {
        "command": command,
        "input_paths": [path for path, _ in inputs],
        "seed": seed,
        "config_digest": _digest(_sanitize(config)),
        "tool_version": __version__,
        "library_versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


@contextlib.contextmanager
def _output(path, what, **kwargs):
    """``path`` open for writing; an ``OSError`` is a :class:`DataError` naming it."""
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def emit_report(report, out_path):
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"
    if out_path:
        with _output(out_path, "report") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input parsing


def _read_input(path, what, inputs=None):
    """The UTF-8 text of an input file.

    The file is read once.  With a list ``inputs``, ``(path, SHA-256 of the
    bytes)`` is appended to it for the manifest, so the digest covers exactly
    the bytes that are parsed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{what} {path} is not UTF-8 text: byte {exc.start} is {raw[exc.start]:#04x}"
        ) from exc
    if inputs is not None:
        inputs.append((path, hashlib.sha256(raw).hexdigest()))
    return text


def read_csv_matrix(path, name="data", inputs=None):
    """Read a numeric CSV matrix; a non-numeric first row is a header.

    Blank rows are skipped.  An error names the physical line on which the
    offending row starts, so blank lines and quoted fields that span lines
    count.  ``inputs`` is as for :func:`_read_input`."""
    text = _read_input(path, f"{name} file", inputs)
    # newline="" leaves line ends to the reader, as the csv module asks, so
    # quoted fields keep their line breaks.
    reader = csv.reader(io.StringIO(text, newline=""))
    out, width, header, end = [], None, False, 0
    for row in reader:
        start, end = end + 1, reader.line_num
        if not any(map(str.strip, row)):
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{name} file {path}, line {start}: expected {width} fields, got {len(row)}"
            )
        try:
            out.append([float(v) for v in row])
        except ValueError:
            if not (out or header):
                header, width = True, None
                continue
            for j, val in enumerate(row, start=1):
                try:
                    float(val)
                except ValueError:
                    raise DataError(
                        f"{name} file {path}, line {start}, column {j}: not a number: {val!r}"
                    ) from None
    if not out:
        what = "has a header but no data rows" if header else "is empty"
        raise DataError(f"{name} file {path} {what}")
    return np.asarray(out, dtype=float)


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve_int(value, flag, env, default, least):
    """An integer of at least ``least`` from its flag, else its variable, else ``default``."""
    name = flag
    if value is None:
        value, name = _env_int(env), env
    if value is None:
        return default
    if value < least:
        raise UsageError(f"{name} must be at least {least}, got {value}")
    return value


def _resolve_common(args):
    if hasattr(args, "seed"):
        args.seed = _resolve_int(args.seed, "--seed", "CONETEST_SEED", None, 0)
    args.workers = _resolve_int(args.workers, "--workers", "CONETEST_WORKERS", 1, 1)
    if hasattr(args, "mc_samples"):
        args.mc_samples = _resolve_int(
            args.mc_samples, "--mc-samples", "CONETEST_MC_SAMPLES", calibrate.RUN_MC_SAMPLES, 1
        )
    if args.out is None:
        args.out = os.environ.get("CONETEST_OUT")


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"--alpha must be in (0, 1), got {alpha}")


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


def _refuse_unread(args, flags, needed):
    """Usage error for an input-file flag given where it would not be read."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} is read only with {needed}")


def _calibrated_family(args, cone, prior_flags):
    """The internal family of ``args``, checked before any file is read or any draw made.

    ``--calibration bayes`` requires the flags named in ``prior_flags``.
    """
    family = _internal_family(args.family, cone)
    calibrate.check_calibration(family, args.calibration)
    if args.calibration != "bayes":
        _refuse_unread(args, ("--prior-scale",), "--calibration bayes")
    elif args.seed is None:
        raise UsageError("bayes calibration requires --seed")
    elif any(getattr(args, flag[2:].replace("-", "_")) is None for flag in prior_flags):
        raise UsageError(f"bayes calibration requires {' and '.join(prior_flags)}")
    if args.seed is None:
        args.seed = 0
    return family


def _calibrated(args, family, n, p, inputs, body):
    """Critical value and weights of ``family`` at ``(n, p)`` under ``--calibration``.

    ``bayes`` takes its prior scale from ``--prior-scale`` (the identity
    without one) and writes the weights it estimates to ``body["weights"]``.
    """
    prior = None
    if args.calibration == "bayes":
        scale = np.eye(p)
        if args.prior_scale is not None:
            scale = read_csv_matrix(args.prior_scale, "prior scale", inputs)
            if scale.shape != (p, p):
                raise DataError(f"prior scale has shape {scale.shape}, expected ({p}, {p})")
        prior = calibrate.PriorSpec.inverse_wishart(scale, args.prior_df)
    cv, weights = calibrate._calibration(
        family, args.calibration, args.alpha, n, p, prior, args.mc_samples,
        args.seed, args.workers,
    )
    if weights is not None:
        body["weights"] = {
            "values": weights.weights.tolist(),
            "std_errors": weights.std_errors.tolist(),
            "mc_samples": weights.mc_samples,
        }
    return cv, weights


# The resolved-config entries of ``test`` and ``calibrate``, read from their flags.
_SHARED_CONFIG = (
    "command", "cone", "family", "alpha", "calibration", "seed", "mc_samples", "prior_df"
)


def _report(args, inputs, family, n, p, body, *own_config):
    """Emit the report of ``test`` or ``calibrate``; returns exit code 0.

    The resolved config holds the flags both commands share and those named
    in ``own_config``; the result is the ``config/family/alpha/n/p`` head
    followed by ``body``.
    """
    resolved = {key: getattr(args, key) for key in _SHARED_CONFIG + own_config}
    result = {"config": resolved, "family": family, "alpha": args.alpha, "n": n, "p": p, **body}
    manifest = build_manifest(args.command, inputs, args.seed, resolved)
    emit_report({"manifest": manifest, "result": result}, args.out)
    return 0


def cmd_test(args):
    _check_alpha(args.alpha)
    # A polyhedral problem is reduced to an orthant model below.
    cone = "orthant" if args.cone == "polyhedral" else args.cone
    family = _calibrated_family(args, cone, ("--prior-scale", "--prior-df"))
    if args.cone != "polyhedral":
        _refuse_unread(args, ("--b-matrix", "--b1-matrix"), "--cone polyhedral")
    elif args.b_matrix is None:
        raise UsageError("polyhedral cone requires --b-matrix")
    inputs, body = [], {}
    data = read_csv_matrix(args.data, "data", inputs)
    if args.cone == "polyhedral":
        b2 = read_csv_matrix(args.b_matrix, "constraint matrix", inputs)
        if args.b1_matrix is not None:
            b1 = read_csv_matrix(args.b1_matrix, "null-space matrix", inputs)
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
        body["reduction"] = {
            "b1_shape": list(b1.shape),
            "b2_shape": list(b2.shape),
            "induced_constraints": induced.tolist(),
            "transformed_dimension": data.shape[1],
        }
    s = sample.summarize(data)
    if s.n <= s.p:
        raise DataError(f"need n > p, got n={s.n}, p={s.p}")
    if family == stats.FUIT:
        rep = stats.fuit(s, args.alpha)
        tail = student_t_cdf(-float(np.max(rep.t_values)), s.n - 1)
        body.update(
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
        return _report(args, inputs, family, s.n, s.p, body)

    outcome = stats.outcome(s, family)
    value = stats.calibration_scale(outcome)
    cv, weights = _calibrated(args, family, s.n, s.p, inputs, body)
    p_mode = calibrate.CALIBRATIONS[args.calibration].p_value_mode
    pv = calibrate.p_value(outcome, p_mode, weights=weights)
    body.update(
        {
            "statistic": outcome.statistic,
            "calibration_scale_value": value,
            "active_subset": list(outcome.active_subset.a) if outcome.active_subset else None,
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
    return _report(args, inputs, family, s.n, s.p, body)


# ---------------------------------------------------------------------------
# conetest calibrate


def cmd_calibrate(args):
    _check_alpha(args.alpha)
    if args.p < 1:
        raise UsageError(f"need p >= 1, got p={args.p}")
    if max(args.n, args.p) > calibrate.MAX_SIZE:
        raise UsageError("--n and --p must be at most 2**53, where n - p is exact in floating point")
    if args.n <= args.p:
        raise UsageError(f"need n > p, got n={args.n}, p={args.p}")
    family = _calibrated_family(args, args.cone, ("--prior-df",))
    inputs, body = [], {}
    cv, weights = _calibrated(args, family, args.n, args.p, inputs, body)
    body["calibration"] = cv.calibration
    if weights is not None:
        body["weights"]["seed"] = args.seed
    if family == stats.FUIT:
        body.update({"threshold": cv.value, "alpha_star": args.alpha / args.p})
    else:
        unweighted_orthant = family in stats.ORTHANT_FAMILIES and weights is None
        body["critical_value"] = cv.value
        body["achieved_alpha"] = None if unweighted_orthant else calibrate.null_tail(
            family, cv.value, args.n, args.p, weights=weights
        )
    return _report(args, inputs, family, args.n, args.p, body, "n", "p")


# ---------------------------------------------------------------------------
# conetest simulate


def _expect(cfg, key, types, path, default=None):
    if not isinstance(cfg, dict) or key not in cfg:
        if default is not None:
            return default
        raise DataError(f"config field {path}{key} is missing")
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, types):
        raise DataError(f"config field {path}{key} has wrong type {type(val).__name__}")
    return val


def _real(cfg, key, path):
    """The number ``cfg[key]`` as a float; an integer past the float range is a DataError."""
    try:
        return float(_expect(cfg, key, (int, float), path))
    except OverflowError:
        raise DataError(f"config field {path}{key} is too large for a float") from None


def _numbers(val, field):
    """``val`` as a float array, or a :class:`DataError` naming ``field``."""
    try:
        arr = np.asarray(val)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DataError(f"config field {field} must hold numbers only")
    return arr.astype(float)


def _parse_sigma(node, path):
    kind = _expect(node, "kind", str, path)
    if kind == "fixed":
        return powerlab.SigmaSource.fixed(
            _numbers(_expect(node, "matrix", list, path), f"{path}matrix")
        )
    if kind == "sequence":
        mats = _expect(node, "matrices", list, path)
        return powerlab.SigmaSource.sequence(
            [_numbers(m, f"{path}matrices[{i}]") for i, m in enumerate(mats)]
        )
    if kind == "random_correlation":
        return powerlab.SigmaSource.random_correlation(_expect(node, "count", int, path, 1))
    raise DataError(f"config field {path}kind: unknown sigma kind {kind!r}")


def _parse_tests(nodes, path):
    plans = []
    for i, node in enumerate(nodes):
        sub = f"{path}[{i}]."
        family = _expect(node, "family", str, sub)
        if family not in stats.FAMILIES:
            raise DataError(f"config field {sub}family: unknown family {family!r}")
        calibration = _expect(node, "calibration", str, sub, "sup")
        prior = None
        if calibration == "bayes":
            pnode = _expect(node, "prior", dict, sub)
            prior = calibrate.PriorSpec.inverse_wishart(
                _numbers(_expect(pnode, "scale", list, sub + "prior."), f"{sub}prior.scale"),
                _real(pnode, "df", sub + "prior."),
            )
        plans.append(
            powerlab.TestPlan(
                family=family,
                calibration=calibration,
                prior=prior,
                weight_samples=_expect(node, "weight_samples", int, sub, calibrate.RUN_MC_SAMPLES),
            )
        )
    return tuple(plans)


def load_experiment_config(path, workers=1, inputs=None):
    """Parse a simulation config file; ``inputs`` is as for :func:`_read_input`."""
    text = _read_input(path, "config", inputs)

    def finite(literal):  # json.loads accepts NaN, +-Infinity and 1e400; JSON has no such values
        value = float(literal)
        if not np.isfinite(value):
            raise DataError(f"config {path} holds the non-finite constant {literal}")
        return value

    try:
        raw = json.loads(text, parse_constant=finite, parse_float=finite)
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
        alpha=_real(raw, "alpha", ""),
        replications=int(_expect(raw, "replications", int, "")),
        seed=raw["seed"],
        sigma_source=_parse_sigma(_expect(raw, "sigma", dict, ""), "sigma."),
        theta_grid=tuple(
            _numbers(t, f"theta_grid[{i}]")
            for i, t in enumerate(_expect(raw, "theta_grid", list, ""))
        ),
        tests=_parse_tests(_expect(raw, "tests", list, "", [{"family": stats.UIT_ORTHANT}]), "tests"),
        workers=workers,
    )
    return experiment, cfg, raw


def cmd_simulate(args):
    if args.config is None:
        raise UsageError("simulate requires --config")
    inputs = []
    experiment, cfg, raw = load_experiment_config(args.config, args.workers, inputs)
    resolved = {"command": "simulate", "config": raw}
    manifest = build_manifest("simulate", inputs, cfg.seed, resolved)
    run = powerlab.simulate_power if experiment == "power" else powerlab.domination_experiment
    body = _sanitize(dataclasses.asdict(run(cfg)))
    rows = body["rows"]
    body["config"] = raw
    emit_report({"manifest": manifest, "result": body}, args.out)
    if args.csv:
        with _output(args.csv, "CSV file", newline="") as fh:
            writer = csv.writer(fh)
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
    t.add_argument("--seed", type=int, default=None, help="random seed")
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
    c.add_argument("--seed", type=int, default=None, help="random seed")
    common(c)
    c.set_defaults(func=cmd_calibrate)

    s = sub.add_parser("simulate", help="run a power/domination experiment from a config file")
    s.add_argument("--config", required=True, help="JSON experiment configuration")
    s.add_argument("--csv", default=None, help="also mirror the result rows to CSV")
    common(s)
    s.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser():
    """The parser of this process, built on the first :func:`main` call.

    Parsing leaves it unchanged and every default is ``None`` or fixed, so
    one parser serves any number of calls; environment defaults are read per
    call by :func:`_resolve_common`."""
    return build_parser()


def main(argv=None):
    """Run one command; returns its exit code.  May be called repeatedly."""
    try:
        args = _parser().parse_args(argv)
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
