"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is a closed loop: the operations of one pass run back to back,
each issued when the previous one returns.  Inputs are generated from the
workload seed and handed to the program only as CSV/JSON files and argv.
Every operation carries a check against an independent oracle
(:mod:`oracles`); a check returns a list of error messages, empty when the
output is correct.  Checks hold for any random stream: Monte-Carlo outputs
are compared statistically (at 4 standard errors, or the same level by an
exact binomial test), never to stored values.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import stats

import oracles as O

SE_GATE = 4.0
# Monte-Carlo counts that are compared exactly are gated at the two-sided
# tail of SE_GATE standard errors of a normal law (6.3e-5).
P_GATE = 2.0 * float(stats.norm.sf(SE_GATE))
TAIL_TOL = 1e-6
STAT_RTOL = 1e-7

ANALYST_SHAPES = ((15, 2), (30, 3), (100, 5), (60, 8))
ANALYST_ALPHAS = (0.01, 0.05, 0.1)
ANALYST_PLANS = (  # (family, cone, calibration) as the CLI names them
    ("t2", "orthant", "sup"),
    ("lrt", "orthant", "sup"), ("lrt", "halfspace", "exact"),
    ("uit", "orthant", "sup"), ("uit", "halfspace", "exact"),
    ("fuit", "orthant", "sup"),
)
BAYES_SHAPES = ((3, 20), (5, 30), (6, 40), (8, 60))  # (p, n)


@dataclass
class Op:
    """One operation: a CLI argv (report written to ``out``) or a library call."""

    name: str
    check: Callable[[dict], list]
    argv: Optional[list] = None
    out: Optional[str] = None
    call: Optional[Callable[[], dict]] = None
    uit: bool = False


@dataclass
class Workload:
    name: str
    ops: list
    workers: int
    mc_draws: int = 0  # Monte-Carlo draws per pass: weight draws + replications x cells


# ---------------------------------------------------------------------------
# helpers


def _close(errs, what, got, want, rtol=STAT_RTOL, atol=1e-10):
    if got is None or not abs(got - want) <= atol + rtol * abs(want):
        errs.append(f"{what}: got {got!r}, expected {want!r}")


def _tail_ok(errs, what, tail, alpha):
    if not abs(tail - alpha) <= TAIL_TOL:
        errs.append(f"{what}: tail {tail!r} differs from alpha {alpha!r}")


def _write_csv(path, matrix):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = ",".join(f"x{j + 1}" for j in range(matrix.shape[1]))
    np.savetxt(path, matrix, delimiter=",", header=header, comments="", fmt="%.17g")
    return path


def _random_corr(rng, p):
    g = rng.standard_normal((p + 4, p))
    w = g.T @ g
    d = 1.0 / np.sqrt(np.diag(w))
    return w * np.outer(d, d)


def _dataset(rng, n, p):
    scales = np.exp(rng.uniform(-0.5, 0.5, p))
    cov = _random_corr(rng, p) * np.outer(scales, scales)
    theta = rng.uniform(-0.3, 0.6, p) * scales
    return theta + rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T


def _square_b(rng, p):
    while True:
        b = np.eye(p) + 0.4 * rng.standard_normal((p, p)) / np.sqrt(p)
        if np.linalg.cond(b) < 20.0:
            return b


def _program_seed(rng):
    return int(rng.integers(1, 2**31 - 1))


def _family(family, cone):
    if family == "t2":
        return O.T2
    if family == "fuit":
        return O.FUIT
    half = cone == "halfspace"
    if family == "lrt":
        return O.LRT_H if half else O.LRT_O
    return O.UIT_H if half else O.UIT_O


def _statistics(errs, r, family, data):
    """Check statistic, calibration-scale value and active subset; return the value."""
    n = data.shape[0]
    if family == O.T2:
        q_proj, q_res, active = O.t2_stat(data), 0.0, None
    elif family in (O.LRT_H, O.UIT_H):
        (q_proj, q_res), active = O.halfspace_projection(data), None
    else:
        q_proj, q_res, active = O.orthant_projection(data)
    lrt = family in (O.LRT_O, O.LRT_H)
    _close(errs, "statistic", r.get("statistic"), q_proj / (1.0 + q_res) if lrt else q_proj)
    value = q_proj / ((n - 1) + q_res) if lrt else q_proj / (n - 1)
    _close(errs, "calibration_scale_value", r.get("calibration_scale_value"), value)
    if active is not None and r.get("active_subset") != [int(i) for i in active]:
        errs.append(f"active_subset {r.get('active_subset')} != NNLS support {active.tolist()}")
    return value


def _counts_agree(errs, what, weights, mc_samples, ref_counts):
    """Program weights against an independent Monte Carlo, exact two-sample test."""
    counts = np.rint(np.asarray(weights) * mc_samples)
    ref_total = int(np.sum(ref_counts))
    for k, (c, rc) in enumerate(zip(counts, ref_counts)):
        pval = O.two_sample_p(c, mc_samples, rc, ref_total)
        if pval < P_GATE:
            errs.append(f"{what} w[{k}] = {c / mc_samples:.4f} vs independent "
                        f"{rc / ref_total:.4f}: p = {pval:.2g} < {P_GATE:.2g}")


def _weights_block(errs, block, p):
    w = np.asarray(block.get("values", []), dtype=float)
    m = block.get("mc_samples")
    if w.shape != (p + 1,) or not m:
        errs.append(f"weights block malformed: {block!r}")
        return None
    if abs(w.sum() - 1.0) > 1e-12:
        errs.append(f"weights sum to {w.sum()!r}")
    se = np.asarray(block.get("std_errors", []), dtype=float)
    if se.shape != w.shape or np.max(np.abs(se - np.sqrt(w * (1 - w) / m))) > 1e-12:
        errs.append("weight std_errors differ from sqrt(w (1 - w) / mc_samples)")
    return w


# ---------------------------------------------------------------------------
# analyst: interactive tests and critical-value tables, no Monte Carlo


def _check_test(data, family, alpha, calibration):
    n, p = data.shape

    def check(rep):
        errs = []
        r = rep["result"]
        if r.get("family") != family or r.get("n") != n or r.get("p") != p:
            errs.append(f"family/n/p {r.get('family')}/{r.get('n')}/{r.get('p')}")
            return errs
        if family == O.FUIT:
            mean, cov = O.summary(data)[1:]
            t = np.sqrt(n) * mean / np.sqrt(np.diag(cov))
            _close(errs, "max t", float(np.max(r.get("t_values", [np.nan]))), float(t.max()))
            thr = r.get("threshold")
            _tail_ok(errs, "threshold", O.t_tail(n - 1, thr), alpha / p)
            _close(errs, "bonferroni p", r["p_value"].get("bonferroni"),
                   min(1.0, p * O.t_tail(n - 1, float(t.max()))), atol=1e-9)
            if r.get("reject") != bool(t.max() >= thr):
                errs.append("reject disagrees with max t >= threshold")
            return errs
        value = _statistics(errs, r, family, data)
        cv = r["critical_value"]["value"]
        _tail_ok(errs, "critical value", O.sup_tail(family, cv, n, p), alpha)
        (label, pv), = r["p_value"].items()
        _close(errs, f"p_value {label}", pv, O.sup_tail(family, value, n, p), atol=TAIL_TOL)
        if r.get("calibration") != calibration:
            errs.append(f"calibration {r.get('calibration')} != {calibration}")
        if r.get("reject") != bool(value >= cv):
            errs.append("reject disagrees with value >= critical value")
        return errs

    return check


def _check_polyhedral(data, b, family, alpha):
    transformed = data @ b.T
    inner = _check_test(transformed @ _induced(b).T, family, alpha, "sup")

    def check(rep):
        errs = []
        got = np.asarray(rep["result"].get("reduction", {}).get("induced_constraints", []))
        want = _induced(b)
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9:
            errs.append("induced constraint matrix differs from B B' (B B')^{-1}")
        return errs + inner(rep)

    return check


def _induced(b):
    return b @ np.linalg.solve(b @ b.T, b).T


def _check_calibrate(family, alpha, n, p):
    def check(rep):
        errs = []
        r = rep["result"]
        if r.get("family") != family:
            return [f"family {r.get('family')} != {family}"]
        if family == O.FUIT:
            _tail_ok(errs, "threshold", O.t_tail(n - 1, r.get("threshold")), alpha / p)
            return errs
        cv = r.get("critical_value")
        _tail_ok(errs, "critical value", O.sup_tail(family, cv, n, p), alpha)
        if r.get("achieved_alpha") is not None:
            _tail_ok(errs, "achieved_alpha", r["achieved_alpha"], alpha)
        return errs

    return check


def build_analyst(seed, workdir, size):
    rng = np.random.default_rng([seed, 1])
    shapes = ANALYST_SHAPES if size == "full" else ANALYST_SHAPES[:2]
    alphas = ANALYST_ALPHAS if size == "full" else ANALYST_ALPHAS[1:2]
    ops = []

    def add(name, argv, check, uit):
        out = os.path.join(workdir, f"op{len(ops):03d}.json")
        ops.append(Op(name=name, argv=argv + ["--out", out], out=out, check=check, uit=uit))

    for n, p in shapes:
        data = _dataset(rng, n, p)
        b = _square_b(rng, p)
        path = _write_csv(os.path.join(workdir, f"data_{n}x{p}.csv"), data)
        bpath = _write_csv(os.path.join(workdir, f"b_{p}.csv"), b)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        b = np.loadtxt(bpath, delimiter=",", skiprows=1, ndmin=2)
        base = ["test", "--data", path, "--alpha", "0.05"]
        for fam, cone, cal in ANALYST_PLANS:
            add(f"test {fam}/{cone}/{cal} n={n} p={p}",
                base + ["--family", fam, "--cone", cone, "--calibration", cal],
                _check_test(data, _family(fam, cone), 0.05, cal), fam == "uit")
        for fam in ("lrt", "uit"):
            add(f"test {fam}/polyhedral/sup n={n} p={p}",
                base + ["--family", fam, "--cone", "polyhedral", "--b-matrix", bpath],
                _check_polyhedral(data, b, _family(fam, "orthant"), 0.05), fam == "uit")
        for alpha in alphas:
            for fam, cone, cal in ANALYST_PLANS:
                add(f"calibrate {fam}/{cone}/{cal} alpha={alpha} n={n} p={p}",
                    ["calibrate", "--family", fam, "--cone", cone, "--calibration", cal,
                     "--alpha", repr(alpha), "--n", str(n), "--p", str(p)],
                    _check_calibrate(_family(fam, cone), alpha, n, p), fam == "uit")
    return Workload("analyst", ops, workers=1)


# ---------------------------------------------------------------------------
# bayes_weights: Monte-Carlo weights under an inverse-Wishart prior


BAYES_DRAWS = {3: 8000, 5: 4000, 6: 2000, 8: 500}
CHI_BAR_DRAWS = 20000
REF_DRAWS = 4000


class _Reference:
    """Independent Bayes-weight counts, computed once per prior and shape."""

    def __init__(self, seed, draws):
        self.seed, self.draws, self._cache = seed, draws, {}

    def counts(self, n, p, scale, df):
        key = (n, p, scale.tobytes(), df)
        if key not in self._cache:
            self._cache[key] = O.bayes_weights(n, p, scale, df, self.draws, self.seed)
        return self._cache[key]


def _check_bayes_calibrate(family, alpha, n, p, df, ref):
    def check(rep):
        errs = []
        r = rep["result"]
        if r.get("family") != family:
            return [f"family {r.get('family')} != {family}"]
        w = _weights_block(errs, r.get("weights", {}), p)
        if w is None:
            return errs
        cv = r.get("critical_value")
        tail = O.weighted_tail(family, cv, n, p, w)
        _tail_ok(errs, "critical value", tail, alpha)
        _close(errs, "achieved_alpha", r.get("achieved_alpha"), tail, atol=TAIL_TOL)
        _counts_agree(errs, f"b1 p={p} n={n}", w, r["weights"]["mc_samples"],
                      ref.counts(n, p, np.eye(p), df))
        return errs

    return check


def _check_bayes_test(data, family, alpha, scale, df, ref):
    n, p = data.shape

    def check(rep):
        errs = []
        r = rep["result"]
        if r.get("family") != family:
            return [f"family {r.get('family')} != {family}"]
        value = _statistics(errs, r, family, data)
        w = _weights_block(errs, r.get("weights", {}), p)
        if w is None:
            return errs
        cv = r["critical_value"]["value"]
        _tail_ok(errs, "critical value", O.weighted_tail(family, cv, n, p, w), alpha)
        _close(errs, "weighted p_value", r["p_value"].get("weighted"),
               O.weighted_tail(family, value, n, p, w), atol=TAIL_TOL)
        if r.get("reject") != bool(value >= cv):
            errs.append("reject disagrees with value >= critical value")
        _counts_agree(errs, "test b1", w, r["weights"]["mc_samples"],
                      ref.counts(n, p, scale, df))
        return errs

    return check


def _check_chi_bar(corr, seed):
    p = corr.shape[0]

    def check(rep):
        errs = []
        w = np.asarray(rep.get("weights", []), dtype=float)
        m = rep.get("mc_samples", 0)
        if w.shape != (p + 1,) or m <= 0:
            return [f"chi-bar weights malformed: {rep!r}"]
        if abs(w.sum() - 1.0) > 1e-12:
            errs.append(f"chi-bar weights sum to {w.sum()!r}")
        g0, gp = O.orthant_probabilities(corr, seed)
        for k, g in ((0, g0), (p, gp)):
            pval = O.binomial_p(round(w[k] * m), m, g)
            if pval < P_GATE:
                errs.append(f"chi-bar w[{k}] = {w[k]:.5f} vs Genz {g:.5f}: p = {pval:.2g}")
        return errs

    return check


def build_bayes_weights(seed, workdir, size):
    from conetest import calibrate

    rng = np.random.default_rng([seed, 2])
    shrink = 1 if size == "full" else 10
    ref = _Reference(_program_seed(rng), REF_DRAWS // shrink)
    ops = []
    mc_draws = 0
    shapes = BAYES_SHAPES if size == "full" else BAYES_SHAPES[:2]
    for p, n in shapes:
        draws = BAYES_DRAWS[p] // shrink
        df = p + 4
        prog_seed = _program_seed(rng)
        for fam in ("uit", "lrt"):
            out = os.path.join(workdir, f"op{len(ops):03d}.json")
            ops.append(Op(
                name=f"calibrate {fam}/bayes n={n} p={p}",
                argv=["calibrate", "--family", fam, "--calibration", "bayes",
                      "--alpha", "0.05", "--n", str(n), "--p", str(p),
                      "--prior-df", str(df), "--mc-samples", str(draws),
                      "--seed", str(prog_seed), "--workers", "1", "--out", out],
                out=out,
                check=_check_bayes_calibrate(_family(fam, "orthant"), 0.05, n, p, df, ref),
                uit=fam == "uit",
            ))
            mc_draws += draws

    p, n = 5, 30
    draws = BAYES_DRAWS[p] // shrink
    data = _dataset(rng, n, p)
    scale = _random_corr(rng, p) * 0.8
    path = _write_csv(os.path.join(workdir, "bayes_data.csv"), data)
    spath = _write_csv(os.path.join(workdir, "prior_scale.csv"), scale)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    scale = np.loadtxt(spath, delimiter=",", skiprows=1, ndmin=2)
    out = os.path.join(workdir, f"op{len(ops):03d}.json")
    ops.append(Op(
        name=f"test uit/bayes n={n} p={p}",
        argv=["test", "--data", path, "--family", "uit", "--calibration", "bayes",
              "--prior-scale", spath, "--prior-df", str(p + 4), "--mc-samples", str(draws),
              "--seed", str(_program_seed(rng)), "--workers", "1", "--out", out],
        out=out,
        check=_check_bayes_test(data, O.UIT_O, 0.05, scale, p + 4, ref),
        uit=True,
    ))
    mc_draws += draws

    corr = np.full((6, 6), 0.5) + 0.5 * np.eye(6)
    chi_seed = _program_seed(rng)
    chi_draws = CHI_BAR_DRAWS // shrink

    def chi_bar():
        w = calibrate.chi_bar_weights(
            corr, method="monte_carlo", mc_samples=chi_draws, seed=chi_seed, workers=1
        )
        return {"weights": w.weights.tolist(), "std_errors": w.std_errors.tolist(),
                "mc_samples": w.mc_samples}

    ops.append(Op(name="chi_bar_weights rho=0.5 p=6", call=chi_bar,
                  check=_check_chi_bar(corr, chi_seed)))
    mc_draws += chi_draws
    return Workload("bayes_weights", ops, workers=1, mc_draws=mc_draws)


# ---------------------------------------------------------------------------
# power_sim: Monte-Carlo power table and the shipped domination experiment

POWER_PLANS = (
    ("UIT_orthant", "sup"), ("LRT_orthant", "sup"),
    ("UIT_halfspace", "exact"), ("LRT_halfspace", "exact"),
    ("T2", "sup"), ("FUIT", "sup"),
)
POWER_THETAS = ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (0.25, 0.0, 0.1))


def _null_rate_errors(errs, rows, alpha, reps):
    se = np.sqrt(alpha * (1.0 - alpha) / reps)
    for row in rows:
        if any(t != 0.0 for t in row["theta"]):
            continue
        rate, fam = row["rejection_rate"], row["family"]
        tag = f"null rate {fam} {row['sigma_id']} = {rate:.4f}"
        if fam in (O.UIT_H, O.LRT_H, O.T2):
            if abs(rate - alpha) > SE_GATE * se:
                errs.append(f"{tag} not within {SE_GATE} SE of alpha (exact similarity)")
        elif rate > alpha + SE_GATE * se:
            errs.append(f"{tag} exceeds alpha + {SE_GATE} SE")


def _check_power(cfg):
    n, p, alpha, reps = cfg["n"], cfg["p"], cfg["alpha"], cfg["replications"]

    def check(rep):
        errs = []
        body = rep["result"]
        rows = body.get("rows", [])
        want = cfg["sigma"]["count"] * len(cfg["theta_grid"]) * len(cfg["tests"])
        if len(rows) != want:
            return [f"{len(rows)} power rows, expected {want}"]
        for label, cv in body["metadata"]["critical_values"].items():
            fam = label.split("/")[0]
            if fam == O.FUIT:
                _tail_ok(errs, f"{label} critical value", O.t_tail(n - 1, cv), alpha / p)
            else:
                _tail_ok(errs, f"{label} critical value", O.sup_tail(fam, cv, n, p), alpha)
        for row in rows:
            r = row["rejection_rate"]
            if not 0.0 <= r <= 1.0:
                errs.append(f"rejection rate {r!r} outside [0, 1]")
                continue
            _close(errs, "mc_std_error", row["mc_std_error"], np.sqrt(r * (1 - r) / reps))
        _null_rate_errors(errs, rows, alpha, reps)
        return errs

    return check


def _check_domination(cfg):
    n, p, alpha = cfg["n"], cfg["p"], cfg["alpha"]

    def check(rep):
        errs = []
        body = rep["result"]
        rows = body.get("rows", [])
        if len(rows) != 2 * len(cfg["theta_grid"]):
            return [f"{len(rows)} domination rows, expected {2 * len(cfg['theta_grid'])}"]
        for pair, cv in body["metadata"]["critical_values"].items():
            _tail_ok(errs, f"{pair} critical value", O.sup_tail(f"{pair}_orthant", cv, n, p), alpha)
        if any(row["implication_violations"] != 0 for row in rows):
            errs.append("domination run reports implication violations")
        if body.get("flagged"):
            errs.append(f"domination run flagged rows: {body['flagged']}")
        for row in rows:
            if row["power_halfspace"] < row["power_orthant"]:
                errs.append(f"halfspace power below orthant power in {row}")
        return errs

    return check


def build_power_sim(seed, workdir, size, root):
    """One seeded power experiment, issued as one ``simulate`` per theta.

    Shorter operations let the reference kernel around each one track the
    machine's speed; every command still runs both sigmas on two workers,
    two chunks per cell.
    """
    rng = np.random.default_rng([seed, 3])
    base = {
        "experiment": "power",
        "p": 3,
        "n": 120,
        "alpha": 0.05,
        "replications": 40000 if size == "full" else 2000,
        "seed": _program_seed(rng),
        "sigma": {"kind": "random_correlation", "count": 2},
        "tests": [{"family": f, "calibration": c} for f, c in POWER_PLANS],
    }
    dom_path = os.path.join(root, "demos", "configs", "domination.json")
    with open(dom_path, encoding="utf-8") as fh:
        dom = json.load(fh)
    runs = []
    for i, theta in enumerate(POWER_THETAS):
        cfg = dict(base, theta_grid=[list(theta)])
        path = os.path.join(workdir, f"power_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        runs.append((f"simulate power p=3 n=120 theta={theta}", path, _check_power(cfg)))
    runs.append(("simulate demos/configs/domination.json", dom_path, _check_domination(dom)))
    ops = []
    for name, path, check in runs:
        out = os.path.join(workdir, f"op{len(ops):03d}.json")
        ops.append(Op(name=name, argv=["simulate", "--config", path, "--workers", "2",
                                       "--out", out], out=out, check=check))
    cells = base["sigma"]["count"] * len(POWER_THETAS)
    mc_draws = base["replications"] * cells + dom["replications"] * len(dom["theta_grid"])
    return Workload("power_sim", ops, workers=2, mc_draws=mc_draws)


def build(name, seed, workdir, size, root):
    if name == "analyst":
        return build_analyst(seed, workdir, size)
    if name == "bayes_weights":
        return build_bayes_weights(seed, workdir, size)
    if name == "power_sim":
        return build_power_sim(seed, workdir, size, root)
    raise ValueError(f"unknown workload {name!r}")
