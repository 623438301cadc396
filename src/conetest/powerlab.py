"""Monte-Carlo power laboratory.

Reproduces the qualitative phenomena of cone-restricted testing: exact
similarity of the halfspace tests, conservativeness and non-similarity of
the orthant tests under supremum calibration, pointwise domination of the
orthant tests by their halfspace counterparts, convexity of the
union-intersection acceptance regions, and nonconvexity of the
likelihood-ratio acceptance region.

Randomness is organized in fixed-size chunks, each on its own keyed SFC64
substream, so results are bit-identical for any worker count.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _batch, calibrate, stats
from ._batch import (
    CONVEXITY_KEY,
    CORRELATIONS_KEY,
    POWER_KEY,
    SIMILARITY_KEY,
    _count_cells,
    _run_chunk,
    factor_cov,
    factor_variances,
    forward_sq_norm,
    halfspace_residual,
    orthant_active_set,
    projection_norm,
    sample_invwishart_chol,
    scaled_draw,
    standard_draw,
    substream,
)
from ._linalg import check_positive_definite
from .exceptions import ConeTestError, DataError, SolverError
from .stats import (
    FUIT,
    LRT_HALFSPACE,
    LRT_ORTHANT,
    T2,
    UIT_HALFSPACE,
    UIT_ORTHANT,
)


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
                check_positive_definite(m, f"sigma[{i}]", error=DataError)
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
        calibrate.check_draw_count(self.weight_samples, "weight_samples")
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
        calibrate.check_draw_count(self.replications, "replications")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DataError(f"seed must be a nonnegative integer, got {seed!r}")
        thetas = tuple(np.asarray(t, dtype=float) for t in self.theta_grid)
        if not thetas:
            raise DataError("theta_grid must hold at least one theta")
        for t in thetas:
            if t.shape != (self.p,):
                raise DataError(f"theta {t} has wrong dimension")
        object.__setattr__(self, "theta_grid", thetas)
        plans = tuple(self.tests)
        if not plans:
            raise DataError("at least one test plan is required")
        # A plan's rows and critical value are known by its label alone.
        labels = [t.label for t in plans]
        for label in labels:
            if labels.count(label) > 1:
                raise DataError(f"two test plans share the label {label!r}")
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
        rng = substream(seed, CORRELATIONS_KEY)
        mats = [random_correlation_matrix(rng, p) for _ in range(source.count)]
    for i, m in enumerate(mats):
        if m.shape != (p, p):
            raise DataError(f"sigma[{i}] has shape {m.shape}, expected ({p}, {p})")
    return [(f"sigma{i}", m) for i, m in enumerate(mats)]


def _plan_criticals(cfg, plans):
    """Critical value on the calibration scale of each of ``plans``, in order.

    One solve per null law at ``cfg.alpha``: an orthant family under
    ``sup`` and its halfspace counterpart under ``sup`` or ``exact`` share
    one value, and T2 takes one under either.  Each Bayes plan solves with
    its own weights.
    """
    solved, criticals = {}, []
    for i, plan in enumerate(plans):
        law = i if plan.calibration == "bayes" else calibrate._law_family(plan.family, plan.calibration)
        if law not in solved:
            solved[law] = calibrate._calibration(
                plan.family, plan.calibration, cfg.alpha, cfg.n, cfg.p, plan.prior,
                plan.weight_samples, cfg.seed, cfg.workers,
            )[0].value
        criticals.append(solved[law])
    return criticals


def _batch_values(means, c, n, families, low=-np.inf, high=np.inf, s=None):
    """Calibration-scale statistic values per draw for each of ``families``.

    Component-major: ``means`` has shape (p, reps), and ``c`` is the
    lower-triangular scatter factor, ``(n-1) S = c c'``, as a (p, p, reps)
    stack or one (p, p, 1) factor shared by every draw.  Each draw's T2
    comes from ``c`` once and is split by the residual of each cone that
    ``families`` needs; T2 is the halfspace split's sum.  The halfspace
    residual and FUIT read only the variances ``diag(S)``, the squared row
    norms of ``c``; a caller that scores one ``c`` at several means passes
    them as ``s``, (p, reps) or (p, 1), formed once.

    ``low`` and ``high`` are the smallest and the largest threshold the
    caller compares orthant values with.  Only draws whose orthant residual
    can change such a comparison are classified
    (:func:`_orthant_residual`); the defaults classify every draw.
    """
    values = {}
    if s is None:
        s = factor_variances(c, n)
    y = np.sqrt(n) * means
    if families - {FUIT}:
        t2 = n * (n - 1) * forward_sq_norm(means, c)
    for group, residual in (
        (
            stats.ORTHANT_FAMILIES,
            lambda wanted: _orthant_residual(y, c, n, t2, s, wanted, low, high),
        ),
        (stats.HALFSPACE_FAMILIES + (T2,), lambda wanted: halfspace_residual(y, s)),
    ):
        wanted = families.intersection(group)
        if wanted:
            q_res = residual(wanted)
            q_proj = projection_norm(t2, q_res)
            for family in wanted:
                values[family] = stats.calibration_value(family, q_proj, q_res, n)
    if FUIT in families:
        # The largest coordinatewise one-sided t statistic.
        values[FUIT] = (y / np.sqrt(s)).max(axis=0)
    return values


# Relative margin on the orthant value of the bracket's decisions.
_BRACKET_RTOL = 1e-9


def _orthant_residual(y, c, n, t2, s, families, low, high):
    """Orthant residual per draw, solved only where a bracket leaves it open.

    With ``y = sqrt(n) xbar``, the exact residual ``q_res`` lies between two
    closed forms.  The orthant lies inside each halfspace ``t_j >= 0``
    (Perlman 1969), so ``q_res >= r_lo = max_j min(y_j, 0)^2 / s_j``, the
    largest halfspace residual; ``max(y, 0)`` lies in the orthant and the
    projection is its nearest point (Silvapulle & Sen 2005, ch. 3), so
    ``q_res <= r_hi = (n-1) |c^{-1} min(y, 0)|^2``, the squared metric
    distance to it.  At fixed T2 every orthant value of ``families`` falls
    as ``q_res`` grows.  A draw whose values at ``r_lo`` all lie below
    ``low * (1 - 1e-9)`` cannot reject and keeps ``r_lo``; one whose values
    at ``r_hi`` all exceed ``high * (1 + 1e-9)`` must reject and keeps
    ``r_hi``.  Either value compares with every threshold in ``[low,
    high]`` as the solved one does.  Only the other draws go to
    :func:`orthant_active_set`, row-major, which is asked for their
    residuals and so solves every step row by row, and ``S`` is multiplied
    out for them alone.  A draw with no ``y_j < 0`` lies in the orthant:
    ``q_res = r_lo = 0``.

    The margins bound how far the solved value may stray from the exact
    one.  The kernel accepts a sign pattern once its conditions hold to
    within ``ACTIVE_SET_RTOL = 1e-10`` of ``|y|``; a slack that small
    enters the residual squared, near ``1e-20 |y|^2``.  What remains is the
    rounding of the solve and of T2, a few ulps of T2 times the condition
    number of ``S``.  For a draw near a threshold, whose value is a fixed
    share of T2, 1e-9 leaves room for condition numbers up to about 1e6.

    A :class:`SolverError` names the draw by its index in ``y``, so the
    replay key still holds.
    """
    def value(pick, t2, q_res):
        q_proj = projection_norm(t2, q_res)
        return pick([stats.calibration_value(f, q_proj, q_res, n) for f in families], axis=0)

    shared = c.shape[-1] == 1
    q_res = (np.minimum(y, 0.0) ** 2 / s).max(axis=0)
    rows = np.flatnonzero((q_res > 0.0) & (value(np.max, t2, q_res) >= low * (1.0 - _BRACKET_RTOL)))
    q_res[rows] = (n - 1) * forward_sq_norm(
        np.minimum(y[:, rows], 0.0), c if shared else c[..., rows]
    )
    upper = value(np.min, t2[rows], q_res[rows])
    rows = rows[~(upper > high * (1.0 + _BRACKET_RTOL))]
    metric = factor_cov(c[..., 0] if shared else np.moveaxis(c, -1, 0)[rows], n)
    try:
        q_res[rows] = orthant_active_set(np.ascontiguousarray(y[:, rows].T), metric, residual=True)[1]
    except SolverError as err:
        draw = err.details["draw"]
        err.details["draw"] = int(rows[draw])
        err.args = (err.args[0].replace(f"at draw {draw}", f"at draw {rows[draw]}"),)
        raise
    return q_res


def _rate(count, replications):
    """Rejection rate of ``count`` in ``replications`` draws and its standard error."""
    rate = int(count) / replications
    return rate, float(np.sqrt(rate * (1.0 - rate) / replications))


def _rejections(masks):
    """Rejections of each mask."""
    return [mask.sum() for mask in masks]


def _grid_views(n, p, sigmas, thetas, prior=None):
    """``views(rng, reps)`` of one standard draw at every (sigma, theta) cell.

    ``sigmas`` holds ``(sigma_id, chol)`` pairs.  Each chunk draws ``(z, A)``
    once (:func:`standard_draw`); the views, sigma-major, give each cell
    ``xbar = theta + L z / sqrt(n)`` and ``c = L A`` for the factor ``L`` of
    its sigma, so every cell sees the same random numbers.  With an
    inverse-Wishart ``prior``, the chunk then draws per-draw prior factors
    ``G`` (:func:`sample_invwishart_chol`), scored last as the sigma
    ``prior_draws`` with ``L = G``: the compound null of the Bayes
    calibration.  ``c``, its variances ``diag(S)`` (:func:`factor_variances`)
    and the means of ``L z`` are formed once per sigma, when its views are
    reached; a view is ``(cell, xbar, c, variances)``.  The draw is let go
    once the last sigma's are formed, so a grid of one sigma holds no more
    while it is scored than :func:`sample_mean_chol`'s draw would.  A
    sigma's arrays are let go before the next sigma's are formed, provided
    the consumer drops its last view first (as :func:`_grid_counts` does).
    """
    def views(rng, reps):
        draw = standard_draw(rng, p, n, reps)
        factors = list(sigmas)
        if prior is not None:
            factors.append(("prior_draws", sample_invwishart_chol(rng, prior.scale, prior.df, reps)))
        for i, (sigma_id, chol) in enumerate(factors, 1):
            means, c = scaled_draw(*draw, chol, n)
            if i == len(factors):
                del draw
            s = factor_variances(c, n)
            for theta in thetas:
                yield {"sigma_id": sigma_id, "theta": theta.tolist()}, means + theta[:, None], c, s
            del means, c, s

    return views


def _grid_counts(cfg, key, sigmas, thetas, tests, tally, prior=None):
    """``(sigma_id, theta, counts)`` for each (sigma, theta) cell, in order.

    One Monte-Carlo cell on stream key ``key``: chunk ``j`` draws once on
    ``key + (j,)`` and scores that draw at every (sigma, theta) view
    (:func:`_grid_views`, which adds the sigma ``prior_draws`` after
    ``sigmas`` when a ``prior`` is given).  ``sigmas`` holds ``(sigma_id,
    matrix)`` pairs.  ``tests`` holds ``(family, critical value)`` pairs;
    each family is computed once per view, and the orthant kernel skips
    draws that the residual bracket decides against the smallest and the
    largest orthant critical value.  ``tally`` maps a view's rejection
    masks, in test order, to its counts.  A :class:`SolverError` names its
    view beside the replay key.
    """
    families = {family for family, _ in tests}
    orthant = [cv for family, cv in tests if family in stats.ORTHANT_FAMILIES]
    low, high = min(orthant, default=-np.inf), max(orthant, default=np.inf)
    chols = [(sigma_id, np.linalg.cholesky(sigma)) for sigma_id, sigma in sigmas]
    views = _grid_views(cfg.n, cfg.p, chols, thetas, prior)

    def count(rng, reps):
        counts = []
        for cell, means, c, s in views(rng, reps):
            try:
                values = _batch_values(means, c, cfg.n, families, low, high, s)
            except SolverError as err:
                err.add_context(**cell)
                raise
            counts.append(tally([values[family] >= cv for family, cv in tests]))
            # Not held while the next view's sigma forms its factors.
            del means, c, s, values
        return np.array(counts)

    totals = _count_cells(cfg.seed, key, count, cfg.replications, cfg.workers)
    sigma_ids = [sigma_id for sigma_id, _ in sigmas] + (["prior_draws"] if prior is not None else [])
    labels = [(sigma_id, tuple(float(v) for v in theta)) for sigma_id in sigma_ids for theta in thetas]
    return [label + (total,) for label, total in zip(labels, totals)]


def simulate_power(cfg):
    """Rejection rates for every (theta, sigma, test plan) cell.

    Each chunk of draws is drawn once and scored at every (sigma, theta)
    cell and by every test plan (common random numbers), so comparisons
    across families, covariances and means are all paired.  Deterministic
    given ``(cfg, seed)`` and independent of ``workers``.
    """
    sigmas = resolve_sigmas(cfg.sigma_source, cfg.p, cfg.seed)
    criticals = _plan_criticals(cfg, cfg.tests)
    tests = [(plan.family, cv) for plan, cv in zip(cfg.tests, criticals)]
    rows = []
    grid = _grid_counts(cfg, POWER_KEY, sigmas, cfg.theta_grid, tests, _rejections)
    for sigma_id, theta, counts in grid:
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
            "critical_values": {plan.label: float(cv) for plan, cv in zip(cfg.tests, criticals)},
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
    value.  Each chunk of draws is drawn once and feeds both statistics of
    every pair at every (sigma, theta) cell (common random numbers).  For
    the union-intersection pair, a per-draw implication
    (orthant rejection implies halfspace rejection) is asserted; it holds
    pointwise because the halfspace statistic dominates.
    """
    for theta in cfg.theta_grid:
        if np.any(np.asarray(theta) < 0.0):
            raise DataError("domination grid must lie in the positive orthant")
    sigmas = resolve_sigmas(cfg.sigma_source, cfg.p, cfg.seed)
    # Both members of a pair take the orthant member's supremum value.
    criticals = dict(zip(_PAIRS, _plan_criticals(cfg, [TestPlan(pair[0]) for pair in _PAIRS.values()])))
    tests = [(family, criticals[name]) for name, pair in _PAIRS.items() for family in pair]
    reps = cfg.replications
    rows = []
    flagged = []
    grid = _grid_counts(cfg, POWER_KEY, sigmas, cfg.theta_grid, tests, _pair_counts)
    for sigma_id, theta, counts in grid:
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
    metadata: dict = field(default_factory=dict)


UIT_ORTHANT_ACCEPTANCE = "UIT_orthant_acceptance"
UIT_HALFSPACE_ACCEPTANCE = "UIT_halfspace_acceptance"
LRT_ORTHANT_ACCEPTANCE = "LRT_orthant_acceptance"
_REGION_FAMILIES = {
    UIT_ORTHANT_ACCEPTANCE: UIT_ORTHANT,
    UIT_HALFSPACE_ACCEPTANCE: UIT_HALFSPACE,
    LRT_ORTHANT_ACCEPTANCE: LRT_ORTHANT,
}

# Chunks the likelihood-ratio witness search may draw: 10**6 pairs at the
# default chunk size.
_WITNESS_CHUNKS = 100


def _member_means(family, c, n, p, chol, rng, count):
    """Means inside the acceptance slice for a fixed covariance factor ``chol``, (p, members).

    ``count`` draws at each of four scales, the accepted ones of all four
    kept, so the pool reaches from deep inside the slice to its boundary.
    """
    pool = []
    for scale in (0.6, 1.2, 2.5, 5.0):
        means = (chol @ rng.standard_normal((count, p)).T) * (scale / np.sqrt(n))
        values = _batch_values(means, np.sqrt(n - 1) * chol[..., None], n, {family}, c, c)[family]
        pool.append(means[:, values <= c])
    return np.concatenate(pool, axis=1)


def convexity_probe(region, trials, seed, n, p, alpha=0.05):
    """Midpoint convexity probe of an acceptance region.

    The acceptance regions are convex slice-wise: for every fixed covariance
    matrix the set of accepted mean vectors is convex (the statistic is not
    jointly convex in the mean and the covariance, so mixing covariances can
    leave the region).  The probe therefore draws a covariance per chunk,
    samples accepted means under it, and tests mean midpoints
    (:func:`_midpoint_pairs`).  A union-intersection probe tests ``trials``
    pairs, must show zero violations and carries no witness.  The
    likelihood-ratio region is not convex even slice-wise: its probe ignores
    ``trials`` and reports the first violating pair as its witness
    (:func:`_lrt_witness`), with the pairs searched as ``pairs_tested``.
    """
    if region not in _REGION_FAMILIES:
        raise DataError(f"unknown region {region!r}")
    integer = isinstance(trials, (int, np.integer)) and not isinstance(trials, bool)
    if not (integer and 0 <= trials <= calibrate.MAX_SIZE):
        raise DataError("trials must be an integer from 0 to 2**53")
    trials = int(trials)
    family = _REGION_FAMILIES[region]
    c = calibrate.sup_critical_value(family, alpha, n, p).value
    metadata = {"n": n, "p": p, "alpha": alpha, "critical": c, "seed": seed}
    if region == LRT_ORTHANT_ACCEPTANCE:
        witness, pairs, metadata["covariances_probed"] = _lrt_witness(c, seed, n, p)
        violations = 1
    else:
        witness, pairs = None, trials
        violations, metadata["covariances_probed"] = _midpoint_violations(family, c, trials, seed, n, p)
    return ConvexityReport(region, pairs, violations, witness, metadata)


def _midpoint_pairs(family, c, n, p, rng, pairs):
    """One chunk of the midpoint cell: ``(cov, a, b, outside)``.

    Draws a covariance ``cov``, its member pool (:func:`_member_means`) and
    ``pairs`` pairs of members, ``a`` and ``b`` (p, pairs), on ``rng``;
    ``outside`` marks the midpoints whose value exceeds ``c (1 + 1e-9)``.
    """
    cov = random_correlation_matrix(rng, p) * rng.uniform(0.3, 3.0)
    chol = np.linalg.cholesky(cov)
    means = _member_means(family, c, n, p, chol, rng, 20_000)
    m = means.shape[1]
    if m < 2:
        raise ConeTestError(f"{m} member means accepted under a drawn covariance; need 2")
    a = means[:, rng.integers(0, m, size=pairs)]
    b = means[:, rng.integers(0, m, size=pairs)]
    threshold = c * (1.0 + 1e-9)
    factor = np.sqrt(n - 1) * chol[..., None]
    values = _batch_values(0.5 * (a + b), factor, n, {family}, threshold, threshold)
    return cov, a, b, values[family] > threshold


def _midpoint_violations(family, c, trials, seed, n, p):
    """Midpoints outside the acceptance slice of ``family``, and the covariances drawn.

    One Monte-Carlo cell on stream key ``CONVEXITY_KEY`` of ``trials``
    pairs, chunk by chunk (:func:`_midpoint_pairs`).
    """

    def count(rng, pairs):
        return np.sum(_midpoint_pairs(family, c, n, p, rng, pairs)[-1])

    violations = _count_cells(seed, CONVEXITY_KEY, count, trials, 1)
    return int(violations), -(-trials // _batch.CHUNK)


def _lrt_witness(c, seed, n, p):
    """``(witness, pairs searched, covariances drawn)`` of the likelihood-ratio slice.

    Runs the chunks of :func:`_midpoint_violations`' cell in order, at
    most ``_WITNESS_CHUNKS``, up to the first midpoint outside the slice.
    The witness holds its members, the midpoint, its statistic, ``c`` and
    the drawn covariance.  The statistic is classified anew, as the cell's
    bracket may have decided the midpoint without solving for it.
    """

    def first(rng, pairs):
        cov, a, b, outside = _midpoint_pairs(LRT_ORTHANT, c, n, p, rng, pairs)
        if not outside.any():
            return None
        k = int(np.argmax(outside))
        mid = 0.5 * (a[:, k] + b[:, k])
        factor = np.sqrt(n - 1) * np.linalg.cholesky(cov)[..., None]
        value = _batch_values(mid[:, None], factor, n, {LRT_ORTHANT})[LRT_ORTHANT][0]
        return k + 1, {
            "member_a": a[:, k].tolist(),
            "member_b": b[:, k].tolist(),
            "midpoint": mid.tolist(),
            "midpoint_statistic": float(value),
            "critical": c,
            "covariance": cov.tolist(),
        }

    chunk = _batch.CHUNK
    for j in range(_WITNESS_CHUNKS):
        found = _run_chunk(seed, CONVEXITY_KEY, j, first, chunk)
        if found is not None:
            return found[1], j * chunk + found[0], j + 1
    raise ConeTestError(f"no nonconvexity witness found within {_WITNESS_CHUNKS * chunk} pairs")


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
    are the size probabilities of that null.  Each covariance must be a
    ``(p, p)`` positive definite matrix, checked as :func:`resolve_sigmas`
    does; the list may be empty only with ``bayes``.

    One Monte-Carlo cell on stream key ``SIMILARITY_KEY``: every chunk is
    drawn once and scored under each covariance and then the prior draws
    (:func:`_grid_views`), so the rows are paired and adding a covariance
    leaves the other rows unchanged.
    """
    plan = TestPlan(family, calibration, prior=prior)
    (critical,) = _plan_criticals(cfg, [plan])
    if not sigma_list and calibration != "bayes":
        raise DataError("similarity_probe needs a covariance, or a prior with bayes calibration")
    sigmas = resolve_sigmas(SigmaSource.sequence(sigma_list), cfg.p, cfg.seed) if sigma_list else []
    grid = _grid_counts(
        cfg, SIMILARITY_KEY, sigmas, (np.zeros(cfg.p),), [(family, critical)], _rejections,
        prior if calibration == "bayes" else None,
    )
    rows = []
    for sigma_id, _, (total,) in grid:
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
