"""Monte-Carlo power laboratory.

Reproduces the qualitative phenomena of cone-restricted testing: exact
similarity of the halfspace tests, conservativeness and non-similarity of
the orthant tests under supremum calibration, pointwise domination of the
orthant tests by their halfspace counterparts, convexity of the
union-intersection acceptance regions, and nonconvexity of the
likelihood-ratio acceptance region.

Randomness is organized in fixed-size chunks driven by counter-based
substreams, so results are bit-identical for any worker count.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import calibrate, stats
from ._batch import (
    _count_cells,
    batch_fuit_max_t,
    chunk_sizes,
    factor_cov,
    forward_sq_norm,
    halfspace_residual,
    orthant_active_set,
    projection_norm,
    sample_compound_null,
    sample_mean_chol,
    substream,
)
from ._linalg import check_positive_definite
from .exceptions import ConeTestError, DataError
from .stats import (
    FUIT,
    LRT_HALFSPACE,
    LRT_ORTHANT,
    T2,
    UIT_HALFSPACE,
    UIT_ORTHANT,
)

# Draws per Monte-Carlo chunk; the chunking fixes the random streams.
SIM_CHUNK = 20000

# Leading substream indices per consumer, so stream keys never collide (the
# calibration module's fixed-metric weights use 10 for chi-bar, 11 for Bayes).
_STREAM_POWER = 2
_STREAM_CONVEXITY = 3
_STREAM_SIMILARITY = 4


@dataclass(frozen=True)
class SigmaSource:
    """Covariance source: an explicit list of matrices or random correlations."""

    kind: str
    matrices: Optional[tuple] = None
    count: int = 1

    def __post_init__(self):
        if self.kind == "sequence":
            if not self.matrices:
                raise DataError("sequence sigma source needs at least one matrix")
            mats = tuple(
                check_positive_definite(m, f"sigma[{i}]")
                for i, m in enumerate(self.matrices)
            )
            object.__setattr__(self, "matrices", mats)
        elif self.kind == "random_correlation":
            if self.count < 1:
                raise DataError("random_correlation sigma source needs count >= 1")
        else:
            raise DataError(f"unknown sigma source kind {self.kind!r}")

    @classmethod
    def fixed(cls, matrix):
        return cls.sequence([matrix])

    @classmethod
    def sequence(cls, matrices):
        return cls(kind="sequence", matrices=tuple(matrices))

    @classmethod
    def random_correlation(cls, count):
        return cls(kind="random_correlation", count=count)


@dataclass(frozen=True)
class TestPlan:
    """One test to run: a statistic family plus its calibration mode."""

    __test__ = False  # statistical test plan, not a pytest collection target

    family: str
    calibration: str = "sup"
    prior: Optional[calibrate.PriorSpec] = None
    weight_samples: int = calibrate.RUN_MC_SAMPLES

    def __post_init__(self):
        if self.family not in stats.FAMILIES:
            raise DataError(f"unknown family {self.family!r}")
        if self.calibration not in calibrate.CALIBRATIONS:
            raise DataError(f"unknown calibration {self.calibration!r}")
        calibrate.check_calibration(self.family, self.calibration)
        if self.calibration == "bayes" and self.prior is None:
            raise DataError("bayes calibration requires a prior")

    @property
    def label(self):
        return f"{self.family}/{self.calibration}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Frame for a power or size experiment."""

    p: int
    n: int
    alpha: float
    replications: int
    seed: int
    sigma_source: SigmaSource
    theta_grid: tuple
    tests: tuple
    workers: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise DataError(f"need p >= 1, got p={self.p}")
        if self.n > calibrate.MAX_SIZE:
            raise DataError("n must be at most 2**53, where n - p is exact in floating point")
        if self.n <= self.p:
            raise DataError(f"need n > p, got n={self.n}, p={self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.replications < 1:
            raise DataError("replications must be >= 1")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DataError(f"seed must be a nonnegative integer, got {seed!r}")
        thetas = tuple(np.asarray(t, dtype=float) for t in self.theta_grid)
        for t in thetas:
            if t.shape != (self.p,):
                raise DataError(f"theta {t} has wrong dimension")
        object.__setattr__(self, "theta_grid", thetas)
        plans = tuple(self.tests)
        if not plans:
            raise DataError("at least one test plan is required")
        object.__setattr__(self, "tests", plans)
        orthant_plans = [
            t for t in plans if t.family in (LRT_ORTHANT, UIT_ORTHANT, FUIT)
        ]
        halfspace_plans = [
            t for t in plans if t.family in (LRT_HALFSPACE, UIT_HALFSPACE)
        ]
        for t in thetas:
            if orthant_plans and np.any(t < 0.0):
                raise DataError(
                    f"theta {t.tolist()} lies outside the positive orthant"
                )
            if halfspace_plans and t[-1] < 0.0:
                raise DataError(f"theta {t.tolist()} lies outside the halfspace")


@dataclass(frozen=True)
class PowerRow:
    theta: tuple
    sigma_id: str
    family: str
    calibration: str
    rejection_rate: float
    mc_std_error: float
    replications: int


@dataclass
class PowerTable:
    rows: list
    metadata: dict = field(default_factory=dict)


def random_correlation_matrix(rng, p):
    """Random correlation matrix from a normalized Wishart draw with ``p + 2`` df."""
    g = rng.standard_normal((p + 2, p))
    w = g.T @ g
    d = 1.0 / np.sqrt(np.diag(w))
    return w * np.outer(d, d)


def resolve_sigmas(source, p, seed):
    """Materialize a sigma source into labeled positive definite matrices."""
    if source.kind == "sequence":
        mats = [np.asarray(m) for m in source.matrices]
    else:
        rng = substream(seed, (12, 0))
        mats = [random_correlation_matrix(rng, p) for _ in range(source.count)]
    for m in mats:
        if m.shape != (p, p):
            raise DataError(f"sigma has shape {m.shape}, expected ({p}, {p})")
    return [(f"sigma{i}", m) for i, m in enumerate(mats)]


def _resolve_critical(plan, cfg):
    """Critical value on the calibration scale for one test plan."""
    cv, _ = calibrate._calibration(
        plan.family, plan.calibration, cfg.alpha, cfg.n, cfg.p, plan.prior,
        plan.weight_samples, cfg.seed, cfg.workers,
    )
    return cv.value


def _batch_values(means, c, n, families, floor=-np.inf):
    """Calibration-scale statistic values per draw for each of ``families``.

    ``c`` is a lower-triangular scatter factor, ``(n-1) S = c c'``: one
    (p, p) matrix or a (reps, p, p) stack.  Each draw's T2 comes from ``c``
    once and is split by the residual of each cone that ``families`` needs;
    T2 is the halfspace split's sum.  ``S`` is multiplied out once, for the
    orthant metric, the halfspace residual and FUIT.

    ``floor`` is the smallest threshold the caller compares orthant values
    with.  An orthant value never exceeds ``T2 / (n-1)``, as a projection
    is never longer than its vector (Silvapulle & Sen 2005, ch. 3), so only
    draws with ``T2 / (n-1) >= floor * (1 - 1e-9)`` are classified.  Every
    other draw gets ``q_res = 0``, hence the orthant value ``T2 / (n-1)``:
    an upper bound that lies below ``floor``, so each comparison with a
    threshold at or above ``floor`` comes out as for the solved value.  The
    margin covers a solved ``q_res`` that rounds below 0.  The default
    classifies every draw.
    """
    values = {}
    covs = factor_cov(c, n)
    if families - {FUIT}:
        y = np.sqrt(n) * means
        t2 = n * (n - 1) * forward_sq_norm(means, c)
    for group, residual in (
        (
            stats.ORTHANT_FAMILIES,
            lambda: orthant_active_set(y, covs, t2 / (n - 1) >= floor * (1.0 - 1e-9))[1],
        ),
        (stats.HALFSPACE_FAMILIES + (T2,), lambda: halfspace_residual(y, covs)),
    ):
        wanted = families.intersection(group)
        if wanted:
            q_res = residual()
            q_proj = projection_norm(t2, q_res)
            for family in wanted:
                values[family] = stats.calibration_value(family, q_proj, q_res, n)
    if FUIT in families:
        values[FUIT] = batch_fuit_max_t(means, covs, n)
    return values


def _rate(count, replications):
    """Rejection rate of ``count`` in ``replications`` draws and its standard error."""
    rate = int(count) / replications
    return rate, float(np.sqrt(rate * (1.0 - rate) / replications))


def _rejections(masks):
    """Rejections of each mask."""
    return [mask.sum() for mask in masks]


def _fixed_draw(theta, chol, n):
    """``draw(rng, reps)`` of a cell with a fixed covariance factor ``chol``."""
    return lambda rng, reps: sample_mean_chol(rng, theta, chol, n, reps)


def _count_rejections(cfg, tests, cells, tally):
    """Summed counts of each ``(key, draw)`` of ``cells`` over its chunks.

    ``tests`` holds ``(family, critical value)`` pairs; the orthant kernel
    skips draws whose T2 bound lies below the smallest orthant value.
    ``tally`` maps a chunk's rejection masks, in test order, to its counts.
    """
    families = {family for family, _ in tests}
    floor = min(
        (cv for family, cv in tests if family in stats.ORTHANT_FAMILIES), default=-np.inf
    )

    def count(means, c):
        values = _batch_values(means, c, cfg.n, families, floor)
        return tally([values[family] >= cv for family, cv in tests])

    return _count_cells(cfg.seed, cells, cfg.replications, SIM_CHUNK, cfg.workers, count)


def _grid_counts(cfg, sigmas, tests, tally):
    """``(sigma_id, theta, counts)`` for each (sigma, theta) cell of ``cfg``, in order."""
    labels, cells = [], []
    for is_, (sigma_id, sigma) in enumerate(sigmas):
        chol = np.linalg.cholesky(sigma)
        for it, theta in enumerate(cfg.theta_grid):
            labels.append((sigma_id, tuple(float(v) for v in theta)))
            cells.append(((_STREAM_POWER, is_, it), _fixed_draw(theta, chol, cfg.n)))
    counts = _count_rejections(cfg, tests, cells, tally)
    return [label + (total,) for label, total in zip(labels, counts)]


def simulate_power(cfg):
    """Rejection rates for every (theta, sigma, test plan) cell.

    All test plans are evaluated on the same draws within a cell, so
    cross-family comparisons are paired.  Deterministic given
    ``(cfg, seed)`` and independent of ``workers``.
    """
    sigmas = resolve_sigmas(cfg.sigma_source, cfg.p, cfg.seed)
    criticals = {plan.label: _resolve_critical(plan, cfg) for plan in cfg.tests}
    tests = [(plan.family, criticals[plan.label]) for plan in cfg.tests]
    rows = []
    for sigma_id, theta, counts in _grid_counts(cfg, sigmas, tests, _rejections):
        for plan, total in zip(cfg.tests, counts):
            rate, se = _rate(total, cfg.replications)
            rows.append(
                PowerRow(
                    theta=theta,
                    sigma_id=sigma_id,
                    family=plan.family,
                    calibration=plan.calibration,
                    rejection_rate=rate,
                    mc_std_error=se,
                    replications=cfg.replications,
                )
            )
    return PowerTable(
        rows=rows,
        metadata={
            "p": cfg.p,
            "n": cfg.n,
            "alpha": cfg.alpha,
            "replications": cfg.replications,
            "seed": cfg.seed,
            "tests": [plan.label for plan in cfg.tests],
            "sigma_ids": [sid for sid, _ in sigmas],
            "critical_values": {k: float(v) for k, v in criticals.items()},
        },
    )


@dataclass(frozen=True)
class DominationRow:
    theta: tuple
    sigma_id: str
    pair: str
    power_orthant: float
    power_halfspace: float
    difference: float
    difference_std_error: float
    implication_violations: int


@dataclass
class DominationReport:
    rows: list
    metadata: dict = field(default_factory=dict)
    flagged: list = field(default_factory=list)


_PAIRS = {
    "UIT": (UIT_ORTHANT, UIT_HALFSPACE),
    "LRT": (LRT_ORTHANT, LRT_HALFSPACE),
}


def _pair_counts(masks):
    """Per (orthant, halfspace) mask pair: rejections of each, halfspace-only
    rejections and orthant-only rejections (implication violations)."""
    return [
        [rej_o.sum(), rej_h.sum(), np.sum(rej_h & ~rej_o), np.sum(rej_o & ~rej_h)]
        for rej_o, rej_h in zip(masks[::2], masks[1::2])
    ]


def domination_experiment(cfg):
    """Paired-draw comparison of orthant tests against halfspace tests.

    Both members of each pair use the same supremum-calibrated critical
    value, and the same simulated draws feed both statistics (common random
    numbers).  For the union-intersection pair, a per-draw implication
    (orthant rejection implies halfspace rejection) is asserted; it holds
    pointwise because the halfspace statistic dominates.
    """
    for theta in cfg.theta_grid:
        if np.any(np.asarray(theta) < 0.0):
            raise DataError("domination grid must lie in the positive orthant")
    sigmas = resolve_sigmas(cfg.sigma_source, cfg.p, cfg.seed)
    # Both members of a pair take the orthant member's supremum value.
    criticals = {name: _resolve_critical(TestPlan(pair[0]), cfg) for name, pair in _PAIRS.items()}
    tests = [(family, criticals[name]) for name, pair in _PAIRS.items() for family in pair]
    reps = cfg.replications
    rows = []
    flagged = []
    for sigma_id, theta, counts in _grid_counts(cfg, sigmas, tests, _pair_counts):
        for name, pair_counts in zip(_PAIRS, counts):
            no, nh, gain, viol = (int(v) for v in pair_counts)
            if viol:
                raise ConeTestError(
                    f"per-draw domination violated {viol} times for the {name} pair"
                )
            p_o, p_h = no / reps, nh / reps
            diff = p_h - p_o
            # Paired difference: d in {0, +1} here since violations are zero.
            var_d = gain / reps - (gain / reps) ** 2
            d_se = float(np.sqrt(var_d / reps))
            row = DominationRow(
                theta=theta,
                sigma_id=sigma_id,
                pair=name,
                power_orthant=p_o,
                power_halfspace=p_h,
                difference=diff,
                difference_std_error=d_se,
                implication_violations=viol,
            )
            rows.append(row)
            if diff < -3.0 * max(d_se, 1e-12):
                flagged.append(
                    {"theta": list(row.theta), "pair": name, "difference": diff}
                )
    return DominationReport(
        rows=rows,
        flagged=flagged,
        metadata={
            "p": cfg.p,
            "n": cfg.n,
            "alpha": cfg.alpha,
            "replications": cfg.replications,
            "seed": cfg.seed,
            "critical_values": {k: float(v) for k, v in criticals.items()},
            "pairing": "common random numbers",
        },
    )


@dataclass
class ConvexityReport:
    region: str
    pairs_tested: int
    violations: int
    witness: Optional[dict]
    attempts: int
    metadata: dict = field(default_factory=dict)


UIT_ORTHANT_ACCEPTANCE = "UIT_orthant_acceptance"
UIT_HALFSPACE_ACCEPTANCE = "UIT_halfspace_acceptance"
LRT_ORTHANT_ACCEPTANCE = "LRT_orthant_acceptance"
_REGION_FAMILIES = {
    UIT_ORTHANT_ACCEPTANCE: UIT_ORTHANT,
    UIT_HALFSPACE_ACCEPTANCE: UIT_HALFSPACE,
    LRT_ORTHANT_ACCEPTANCE: LRT_ORTHANT,
}

_WITNESS_CAP = 1_000_000

# Midpoint pairs per drawn covariance of the union-intersection probe.
_CONVEXITY_BLOCK = 10_000


def _member_means(family, c, n, p, chol, rng, count):
    """Means inside the acceptance slice for a fixed covariance factor ``chol``.

    ``count`` draws at each of four scales, the accepted ones of all four
    kept, so the pool reaches from deep inside the slice to its boundary.
    """
    pool = []
    for scale in (0.6, 1.2, 2.5, 5.0):
        means = (rng.standard_normal((count, p)) @ chol.T) * (scale / np.sqrt(n))
        values = _batch_values(means, np.sqrt(n - 1) * chol, n, {family}, c)[family]
        pool.append(means[values <= c])
    return np.concatenate(pool, axis=0)


def _search_lrt_witness(c, n, seed):
    """Find member means whose midpoint leaves the acceptance region.

    Pairs one boundary-adjacent member of the all-positive branch with one
    deep member of a single-coordinate branch; the acceptance set flares
    outward along the branch boundary, so midpoints overshoot.
    """
    c_unit = np.sqrt(n - 1) * np.eye(2)  # (n-1) S = c c' with S = I

    def lrt(x):
        return float(_batch_values(x[None, :], c_unit, n, {LRT_ORTHANT}, c)[LRT_ORTHANT][0])

    rng = substream(seed, (_STREAM_CONVEXITY, 10_001))
    attempts = 0
    while attempts < _WITNESS_CAP:
        attempts += 1
        eps = rng.uniform(1e-3, 0.05)
        phi = rng.uniform(0.01, 0.5)
        t = rng.uniform(1.0, 6.0)
        r = np.sqrt(c * (1.0 - eps) * (n - 1.0) / n)
        a_pt = np.array([r * np.cos(phi), r * np.sin(phi)])
        b0 = np.sqrt(c * (1.0 - eps) * ((n - 1.0) + n * t * t) / n)
        b_pt = np.array([b0, -t])
        if lrt(a_pt) > c or lrt(b_pt) > c:
            continue
        mid = 0.5 * (a_pt + b_pt)
        val = lrt(mid)
        if val > c * (1.0 + 1e-9):
            return {
                "member_a": a_pt.tolist(),
                "member_b": b_pt.tolist(),
                "midpoint": mid.tolist(),
                "midpoint_statistic": val,
                "critical": c,
                "fixed_diagonal_cov": [1.0, 1.0],
            }, attempts
    raise ConeTestError(
        f"no nonconvexity witness found within {_WITNESS_CAP} attempts"
    )


def convexity_probe(region, trials, seed, n, p, alpha=0.05):
    """Midpoint convexity probe of an acceptance region.

    The acceptance regions are convex slice-wise: for every fixed covariance
    matrix the set of accepted mean vectors is convex (the statistic is not
    jointly convex in the mean and the covariance, so mixing covariances can
    leave the region).  The probe therefore draws a covariance per block,
    samples accepted means under it, and tests mean midpoints; the
    union-intersection regions must show zero violations.  The
    likelihood-ratio probe runs at ``p = 2`` with a fixed diagonal
    covariance and must *find* a witness pair whose midpoint falls outside;
    the witness is returned in the report.  A union-intersection report
    counts its violations and carries no witness.
    """
    if region not in _REGION_FAMILIES:
        raise DataError(f"unknown region {region!r}")
    if region == LRT_ORTHANT_ACCEPTANCE and p != 2:
        raise DataError("the likelihood-ratio witness search runs at p = 2")
    if trials < 0:
        raise DataError(f"trials must be >= 0, got {trials}")
    family = _REGION_FAMILIES[region]
    c = calibrate.sup_critical_value(family, alpha, n, p).value
    metadata = {"n": n, "p": p, "alpha": alpha, "critical": c, "seed": seed}
    if region == LRT_ORTHANT_ACCEPTANCE:
        witness, attempts = _search_lrt_witness(c, n, seed)
        return ConvexityReport(
            region, pairs_tested=0, violations=0, witness=witness, attempts=attempts, metadata=metadata
        )
    violations, metadata["covariances_probed"] = _midpoint_violations(family, c, trials, seed, n, p)
    return ConvexityReport(
        region, pairs_tested=trials, violations=violations, witness=None, attempts=0, metadata=metadata
    )


def _midpoint_violations(family, c, trials, seed, n, p):
    """Midpoints outside the acceptance slice of ``family``, and the covariances drawn.

    One Monte-Carlo cell on stream key ``(3,)``: block ``j`` of
    ``_CONVEXITY_BLOCK`` pairs draws a covariance, its members and its pairs.
    """

    def draw(rng, pairs):
        cov = random_correlation_matrix(rng, p) * rng.uniform(0.3, 3.0)
        chol = np.linalg.cholesky(cov)
        means = _member_means(family, c, n, p, chol, rng, 20_000)
        m = means.shape[0]
        if m < 2:
            raise ConeTestError(f"{m} member means accepted under a drawn covariance; need 2")
        i = rng.integers(0, m, size=pairs)
        j = rng.integers(0, m, size=pairs)
        return 0.5 * (means[i] + means[j]), chol

    def count(mid, chol):
        values = _batch_values(mid, np.sqrt(n - 1) * chol, n, {family}, c)[family]
        return np.sum(values > c * (1.0 + 1e-9))

    cells = [((_STREAM_CONVEXITY,), draw)]
    (violations,) = _count_cells(seed, cells, trials, _CONVEXITY_BLOCK, 1, count)
    return int(violations), len(chunk_sizes(trials, _CONVEXITY_BLOCK))


@dataclass
class SimilarityReport:
    family: str
    calibration: str
    alpha: float
    critical: float
    rows: list
    metadata: dict = field(default_factory=dict)


def similarity_probe(family, calibration, sigma_list, cfg, prior=None):
    """Null rejection rates across covariance matrices (theta = 0).

    Halfspace families calibrated by the supremum are exactly similar, so
    their rates agree across covariances; orthant families stay below the
    level.  With ``calibration="bayes"`` the probe also simulates the
    compound null (covariance drawn from the prior) and reports its rate,
    which matches the level: the Bayes weights, drawn at the prior scale,
    are the size probabilities of that null.
    """
    plan = TestPlan(family, calibration, prior=prior)
    critical = _resolve_critical(plan, cfg)

    def from_prior(rng, reps):
        return sample_compound_null(rng, prior.scale, prior.df, cfg.n, reps)

    # Row labels and (stream key, draw) cells; the prior cell uses stream cell 999.
    labels, cells = [], []
    for i, sigma in enumerate(sigma_list or ()):
        chol = np.linalg.cholesky(check_positive_definite(sigma, f"sigma[{i}]"))
        labels.append(f"sigma{i}")
        cells.append(((_STREAM_SIMILARITY, i), _fixed_draw(None, chol, cfg.n)))
    if calibration == "bayes":
        labels.append("prior_draws")
        cells.append(((_STREAM_SIMILARITY, 999), from_prior))
    totals = _count_rejections(cfg, [(family, critical)], cells, _rejections)
    rows = []
    for sigma_id, (total,) in zip(labels, totals):
        rate, se = _rate(total, cfg.replications)
        rows.append({"sigma_id": sigma_id, "rate": rate, "std_error": se})
    return SimilarityReport(
        family=family,
        calibration=calibration,
        alpha=cfg.alpha,
        critical=float(critical),
        rows=rows,
        metadata={"n": cfg.n, "p": cfg.p, "seed": cfg.seed, "replications": cfg.replications},
    )
