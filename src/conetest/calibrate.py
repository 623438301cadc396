"""Null calibration: mixture weights, tails, critical values, p-values.

The tail formulas are expressed on the chi-square-ratio scale (statistics
standardized by the sum-of-squares matrix); use
:func:`conetest.stats.calibration_scale` to map a computed
:class:`~conetest.stats.TestOutcome` onto that scale.  Halfspace tails are
free of the covariance; orthant tails are mixtures over the active-subset
cardinality with weights that depend on the covariance only through its
correlation structure.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betainccinv, betaincinv, betaln

from . import stats
from ._batch import WEIGHTS_KEY, _count_cells, orthant_active_set
from ._linalg import check_positive_definite, read_only
from .dist import _first_rung, g_ratio_tail, g_star_tail, student_t_upper_quantile
from .exceptions import CalibrationError, DataError, MetricError, SolverError

CLOSED_FORM = "closed_form"
MONTE_CARLO = "monte_carlo"

SUP_SIGMA = "sup_sigma"
BAYES_WEIGHTED = "bayes_weighted"
EXACT_HALFSPACE = "exact_halfspace"

# Default Monte-Carlo sample counts for weight estimation: of a library call,
# and of a run (the CLI's ``--mc-samples`` and a power-lab test plan's).
DEFAULT_MC_SAMPLES = 1_000_000
RUN_MC_SAMPLES = 200_000

# Largest n and p taken from an input: above it, n - p is not exact in floating point.
MAX_SIZE = 2 ** 53

# Tail inversion stops once the bracket is narrower than
# ``_XTOL * min(c, 1) + _RTOL * c``: ``scipy.optimize.brentq(xtol=1e-12)``'s
# rule with its default ``rtol`` for ``c >= 1``, and relative below, where
# critical values at large n are O(1/n) or smaller.
_XTOL = 1e-12
_RTOL = 4.0 * float(np.finfo(float).eps)  # a Python float: numpy scalar arithmetic is slower
# Bracketing gives up after this many steps; one step moves log c by at most
# ``_MAX_LOG_STEP``.
_MAX_STEPS = 200
_MAX_LOG_STEP = 64.0
# Step in log c of the secant that measures a first-rung tail's slope.
_SLOPE_STEP = 1e-4


@dataclass(frozen=True)
class MixtureWeights:
    """Chi-bar-square mixture weights indexed by subset cardinality 0..p."""

    weights: np.ndarray
    std_errors: np.ndarray
    method: str
    mc_samples: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        se = np.asarray(self.std_errors, dtype=float)
        if w.ndim != 1 or se.shape != w.shape:
            raise DataError("weights and std_errors must be matching vectors")
        if np.any(w < 0.0):
            raise DataError("weights must be nonnegative")
        tol = 1e-12 if self.method == CLOSED_FORM else 1e-3
        if abs(float(w.sum()) - 1.0) > tol:
            raise DataError(f"weights sum to {w.sum():.6f}, not 1")
        object.__setattr__(self, "weights", read_only(w))
        object.__setattr__(self, "std_errors", read_only(se))


@dataclass(frozen=True)
class CriticalValue:
    """A critical value on the chi-square-ratio scale.

    ``achieved_alpha`` is the calibrated null tail at ``value``, as the
    solver certified it (``None`` for a Bonferroni threshold).
    """

    value: float
    alpha: float
    family: str
    calibration: str
    achieved_alpha: Optional[float] = None


@dataclass(frozen=True)
class PriorSpec:
    """Weight function on the covariance: proper inverse-Wishart, or Haar."""

    kind: str
    scale: Optional[np.ndarray] = None
    df: Optional[float] = None

    def __post_init__(self):
        if self.kind == "inverse_wishart":
            if self.scale is None or self.df is None:
                raise DataError("inverse_wishart prior needs a scale matrix and df")
            scale = check_positive_definite(self.scale, "prior scale", error=DataError)
            p = scale.shape[0]
            if not p - 1 < float(self.df) < np.inf:
                raise DataError(
                    f"inverse_wishart df must be finite and exceed p - 1 = {p - 1} "
                    "for a proper prior"
                )
            object.__setattr__(self, "scale", read_only(scale))
            object.__setattr__(self, "df", float(self.df))
        elif self.kind == "haar":
            if self.scale is not None or self.df is not None:
                raise DataError("haar prior takes no parameters")
        else:
            raise DataError(f"unknown prior kind {self.kind!r}")

    @classmethod
    def inverse_wishart(cls, scale, df):
        return cls(kind="inverse_wishart", scale=scale, df=df)

    @classmethod
    def haar(cls):
        return cls(kind="haar")


def _correlation_from(sigma):
    sigma = check_positive_definite(sigma, "sigma")
    d = 1.0 / np.sqrt(np.diag(sigma))
    return sigma * np.outer(d, d)


def _orthant_probability(corr):
    """P{Z > 0} for Z ~ N(0, corr) with p <= 3: 2^-p + sum_{i<j} asin r_ij / (2^(p-1) pi)."""
    p = corr.shape[0]
    return 2.0**-p + np.arcsin(corr[np.triu_indices(p, 1)]).sum() / (2.0 ** (p - 1) * np.pi)


def _closed_form_weights(corr):
    """Weights for p <= 3 from the orthant probabilities of ``corr`` and its inverse.

    Those give ``w[p]`` and ``w[0]``; even and odd sizes each carry 1/2
    (Kudo 1963; Silvapulle & Sen 2005, ch. 3), which gives the rest.
    """
    p = corr.shape[0]
    w = np.zeros(p + 1)
    w[p] = _orthant_probability(corr)
    w[0] = _orthant_probability(_correlation_from(np.linalg.inv(corr)))
    if p == 2:
        w[1] = 0.5
    elif p == 3:
        w[1], w[2] = 0.5 - w[3], 0.5 - w[0]
    return w


def _active_sizes(y, corr, single):
    """Active-set size of each row of ``y`` in the metric ``corr``.

    An index flagged in ``single`` has no nonzero off-diagonal entry and is
    free exactly when ``y_j > 0``; the other indices are classified together
    by ``orthant_active_set`` on their columns.  A ``SolverError`` keeps its
    draw index and names the draw's full row of ``y``.
    """
    sizes = np.count_nonzero(y[:, single] > 0.0, axis=1)
    if single.all():
        return sizes
    rest = ~single
    try:
        return sizes + orthant_active_set(y[:, rest], corr[np.ix_(rest, rest)]).sum(axis=1)
    except SolverError as err:
        err.details["y"] = y[err.details["draw"]].tolist()
        raise


def chi_bar_weights(sigma, method="auto", mc_samples=DEFAULT_MC_SAMPLES, seed=None, workers=1):
    """Mixture weights of the orthant statistics' null distribution.

    ``weights[k]`` is the probability that the active subset has cardinality
    ``k`` for a centered normal vector with covariance ``sigma``; it depends
    on ``sigma`` only through its correlation matrix ``R``.  Monte-Carlo
    weights are the size frequencies of ``y ~ N(0, R)`` classified in the
    metric ``R``, one cell of ``_count_cells`` on stream key ``WEIGHTS_KEY``,
    with their standard errors.

    The projection onto the orthant separates across the blocks of ``R``,
    so an index with no nonzero off-diagonal entry in ``R`` (a singleton;
    no tolerance, any nonzero value links) is free exactly when
    ``y_j > 0``.  All singletons are counted by one sign comparison, and
    the other indices go through one ``orthant_active_set`` call on their
    columns of ``y`` in their own metric; a dense ``R`` is one such call.
    The draws, the stream and the standard errors are those of the
    whole-matrix classification, and so are the sizes but for one tie case.
    In a row with a nonpositive coordinate the kernel moves a free index
    with ``0 < y_j <= ACTIVE_SET_RTOL |y|`` (1e-10 of the row's norm, or of
    its non-singleton part) to the complement, while the sign rule counts it
    free.  That has probability about 1e-10 per coordinate.  The kernel's
    warm start on this shared metric (projected Gauss-Seidel sweeps) moves
    no size of the sign start either, but for the same class of tie: two
    sign patterns that both pass its tolerance test.  The call reads no
    residual, so a step whose rows share patterns inverts each distinct
    step system once (``_batch.GROUP_MIN_ROWS``) instead of solving every
    row; that moves a size only in the same class too, a sign condition
    within rounding of the tolerance.

    Parameters
    ----------
    sigma : array_like, shape (p, p)
        Positive definite covariance (or correlation) matrix.
    method : {"auto", "closed_form", "monte_carlo"}
        ``auto`` uses closed forms for ``p <= 3`` and Monte Carlo beyond.
    mc_samples : int
        Monte-Carlo sample count (``monte_carlo`` only).
    seed : int
        Required for Monte Carlo; drives counter-based substreams.
    workers : int
        Worker threads for the Monte-Carlo chunks; does not affect results.
    """
    corr = _correlation_from(sigma)
    p = corr.shape[0]
    if method not in ("auto", CLOSED_FORM, MONTE_CARLO):
        raise DataError(f"unknown weights method {method!r}")
    if method == CLOSED_FORM and p > 3:
        raise CalibrationError(f"closed-form weights stop at p = 3, got p = {p}")
    if method in ("auto", CLOSED_FORM) and p <= 3:
        w = _closed_form_weights(corr)
        return MixtureWeights(weights=w, std_errors=np.zeros(p + 1), method=CLOSED_FORM, mc_samples=0)
    if seed is None:
        raise CalibrationError("Monte-Carlo weight estimation requires a seed")
    mc_samples = check_draw_count(mc_samples, "mc_samples")
    chol = np.linalg.cholesky(corr)
    single = np.count_nonzero(corr, axis=1) == 1

    def count(rng, reps):
        y = rng.standard_normal((reps, p)) @ chol.T
        return np.bincount(_active_sizes(y, corr, single), minlength=p + 1)

    w = _count_cells(seed, WEIGHTS_KEY, count, mc_samples, workers) / mc_samples
    se = np.sqrt(w * (1.0 - w) / mc_samples)
    return MixtureWeights(weights=w, std_errors=se, method=MONTE_CARLO, mc_samples=mc_samples)


def check_draw_count(count, name):
    """``count`` as an int, or a :class:`DataError` unless ``1 <= count <= MAX_SIZE``.

    Refused before any draw.  Up to ``2**53`` every count and the rate
    ``count / replications`` are exact in floating point.
    """
    count = int(count)
    if not 1 <= count <= MAX_SIZE:
        raise DataError(f"{name} must be at least 1 and at most 2**53")
    return count


# Family -> (whether its branch is the union-intersection one, weights on
# the top active dimensions).  With m of the p coordinates constrained, the
# active dimension is k = p - m + j with mass w(m, j) (Perlman 1969;
# Silvapulle & Sen 2005, ch. 3): T2 has m = 0, the halfspace m = 1 with
# w(1, .) = (1/2, 1/2), the orthant m = p with the supplied w(p, k; Sigma) or
# b1(k, n, p) (``None`` here).
_NULL_LAWS = {
    stats.T2: (False, (1.0,)),
    stats.LRT_HALFSPACE: (False, (0.5, 0.5)),
    stats.UIT_HALFSPACE: (True, (0.5, 0.5)),
    stats.LRT_ORTHANT: (False, None),
    stats.UIT_ORTHANT: (True, None),
}

# The supremum of an orthant family's null tail over all covariances is the
# tail of its halfspace counterpart (Silvapulle & Sen 2005, ch. 3).
_SUPREMUM_LAWS = {
    stats.LRT_ORTHANT: stats.LRT_HALFSPACE,
    stats.UIT_ORTHANT: stats.UIT_HALFSPACE,
}


def _null_law(family, n, p, weights, calibration=None):
    """Null law of ``family``, under ``calibration`` if one is given.

    The law is a mixture with mass ``w[j]`` on the active dimension
    k = p - len(w) + 1 + j, of branch tails ``g_ratio_tail(k, n - p, c)``
    (T2 and the likelihood-ratio families) or ``g_star_tail(n, k, p, c)``
    (the union-intersection families), all dimensions in one call.  Both
    are looked up as module globals at each call, so wrappers installed on
    them (as by ``bench/tracer.py``) see every evaluation.

    Returns its tail (for ``c > 0``), its mass on k = 0, and a function of
    no arguments that builds the first-rung approximation of a
    union-intersection tail (``dist._first_rung``; ``None`` for a ratio law).
    """
    if calibration is not None:
        family = _law_family(family, calibration)
    n, p = int(n), int(p)
    if n <= p:
        raise DataError(f"need n > p, got n={n}, p={p}")
    if family not in _NULL_LAWS:
        raise CalibrationError(f"no null tail for family {family!r}")
    uit, w = _NULL_LAWS[family]
    if w is None:
        if weights is None:
            raise CalibrationError("orthant null tails require mixture weights")
        w = weights.weights
        if len(w) != p + 1:
            raise DataError("weights length does not match p + 1")
    w = np.asarray(w, dtype=float)
    dims = range(p + 1 - w.shape[0], p + 1)
    atom = float(w[0]) if dims[0] == 0 else 0.0
    if uit:
        return ((lambda c: float(np.dot(w, g_star_tail(n, dims, p, c)))), atom,
                lambda: _first_rung(n, dims, p, w))
    if len(dims) == 1:  # T2: a scalar call costs less than a one-element array
        return (lambda c: float(np.dot(w, [g_ratio_tail(p, n - p, c)]))), atom, None
    ks = np.array(dims)
    return (lambda c: float(np.dot(w, g_ratio_tail(ks, n - p, c)))), atom, None


def null_tail(family, c, n, p, weights=None):
    """Null upper-tail probability at ``c`` on the chi-square-ratio scale.

    Halfspace families average the tails of the boundary and interior
    branches; orthant families are chi-bar-square style mixtures over the
    supplied weights (which are then required).  ``c <= 0`` returns 1
    (statistics are nonnegative, with an atom at zero).
    """
    tail = _null_law(family, n, p, weights)[0]
    return tail(c) if c > 0.0 else 1.0


def _ratio_seed(a, b, alpha):
    """Root of ``g_ratio_tail(a, b, c) = alpha`` and ``d log tail / d log c`` there.

    ``x = c/(1+c)`` is Beta(a/2, b/2); of ``x`` and ``1 - x``, the one below
    1/2 comes from its own inverse so that ``c`` keeps full relative
    precision.  The slope is ``-x**(a/2) (1-x)**(b/2) / (B(a/2, b/2) alpha)``.
    Where the inverse fails (``alpha`` far out in the tail), the seed is
    ``c = 1`` with no slope.
    """
    a2, b2 = a / 2.0, b / 2.0
    x = float(betainccinv(a2, b2, alpha))
    if x <= 0.5:
        y = 1.0 - x
    else:
        y = float(betaincinv(b2, a2, alpha))
        x = 1.0 - y
    if not (x > 0.0 and y > 0.0):  # scipy's inverse gives up far in the tail
        return 1.0, 0.0
    slope = -math.exp(a2 * math.log(x) + b2 * math.log(y) - betaln(a2, b2)) / alpha
    return x / y, slope


def _invert_tail(tail, alpha, n, p, seed=None):
    """Solve ``tail(c) = alpha`` for a nonincreasing tail on (0, inf).

    Works on ``F = log(tail / alpha)`` against ``log c``, where the
    chi-square-ratio tails are close to power laws and ``F`` is nearly
    linear.  The seed ``(c, slope)`` defaults to the closed-form root of
    the k = p ratio branch and that branch's slope (the root itself for
    T2); a Newton step with the slope, then secant steps, walk from it
    until ``F`` changes sign.  Illinois regula falsi in ``log c`` then
    shrinks the bracket, bisecting whenever three steps have not halved its
    width in ``log c``.  Every new point lies at least half the tolerance
    past the estimate or inside the bracket, so an estimate within
    tolerance ends the search at the next evaluation, which is when the
    bracket is narrower than ``1e-12 * min(c, 1) + 4 * eps * c``:
    ``scipy.optimize.brentq``'s rule at ``xtol=1e-12`` for ``c >= 1``, and a
    relative one below, so that a small critical value keeps its digits.

    Returns the root and ``tail`` there.
    """
    if not 0.0 < alpha < 1.0:
        raise CalibrationError(f"alpha must be in (0, 1), got {alpha}")

    def log_ratio(c):
        t = tail(c)
        return (math.log(t / alpha) if t > 0.0 else -math.inf), t

    def tol(c):
        return _XTOL * min(c, 1.0) + _RTOL * c

    c, slope = _ratio_seed(p, n - p, alpha) if seed is None else seed
    f, t = log_ratio(c)
    if f == 0.0:
        return c, t
    up = f > 0.0
    h = -f / slope if slope < 0.0 else (1.0 if up else -1.0)
    for _ in range(_MAX_STEPS):
        h = math.copysign(min(abs(h), _MAX_LOG_STEP) + 0.5 * tol(c) / c, h)
        c_new = c * math.exp(h)
        if not 0.0 < c_new < math.inf:
            raise CalibrationError("tail does not cross alpha in floating-point range")
        f_new, t_new = log_ratio(c_new)
        if f_new == 0.0:
            return c_new, t_new
        if (f_new > 0.0) != up:
            break
        slope = (f_new - f) / h
        h_new = -f_new / slope if slope < 0.0 else 2.0 * h
        h = h_new if abs(h_new) <= 4.0 * abs(h) else 4.0 * h
        c, f, t = c_new, f_new, t_new
    else:
        raise CalibrationError(f"tail does not cross alpha within {_MAX_STEPS} steps")

    ends = ((c, f, t), (c_new, f_new, t_new))
    (lo, f_lo, t_lo), (hi, f_hi, t_hi) = ends if up else ends[::-1]
    g_lo, g_hi = f_lo, f_hi  # Illinois-weighted copies
    kept = 0  # +1 if the last step kept hi, -1 if it kept lo
    width = math.log1p((hi - lo) / lo)
    halved_at = width
    steps = 0
    while True:
        best, t_best = (lo, t_lo) if abs(f_lo) <= abs(f_hi) else (hi, t_hi)
        if hi - lo <= tol(best):
            return best, t_best
        steps += 1
        if steps > 3 or math.isinf(g_hi):
            frac = 0.5
        else:
            frac = g_lo / (g_lo - g_hi)
        x = lo + lo * math.expm1(frac * width)
        x = min(max(x, lo + 0.5 * tol(best)), hi - 0.5 * tol(best))
        if not lo < x < hi:  # no representable point inside (or a NaN tail)
            return best, t_best
        fx, tx = log_ratio(x)
        if fx == 0.0:
            return x, tx
        if fx > 0.0:
            lo, f_lo, g_lo, t_lo = x, fx, fx, tx
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, g_hi, t_hi = x, fx, fx, tx
            if kept == -1:
                g_lo *= 0.5
            kept = -1
        width = math.log1p((hi - lo) / lo)
        if width <= 0.5 * halved_at:
            halved_at, steps = width, 0


def _first_rung_root(rung, alpha, n, p):
    """Root of the first-rung tail ``rung`` at ``alpha`` and ``d log rung / d log c`` there.

    The slope is the secant over a step of ``_SLOPE_STEP`` in ``log c``,
    wide enough that the rule's rounding does not reach it; the search's
    last bracket is as narrow as its tolerance.
    """
    c, t = _invert_tail(rung, alpha, n, p)
    return c, math.log(rung(c * math.exp(_SLOPE_STEP)) / t) / _SLOPE_STEP


def _law_family(family, calibration):
    """The family whose null law ``calibration`` calibrates ``family`` by.

    ``sup`` takes the supremum over the covariance, which for an orthant
    family is its halfspace counterpart's law.
    """
    check_calibration(family, calibration)
    return _SUPREMUM_LAWS.get(family, family) if calibration == "sup" else family


def _critical_value(family, calibration, alpha, n, p, weights):
    """Invert the null tail of ``family`` under ``calibration`` at ``alpha``.

    A union-intersection tail is first inverted on its first rung
    (``dist._first_rung``: one uncertified ``betainc`` call per
    evaluation), and the certified search starts from that root and slope,
    which it usually confirms in two evaluations.  Where that first search
    fails, and for ratio laws, the certified search starts from the ratio
    seed.  The tail reaches at most one minus its mass on k = 0.
    """
    tail, atom, rung = _null_law(family, n, p, weights, calibration)
    attainable = 1.0 - atom
    if not 0.0 < alpha < attainable:
        raise CalibrationError(
            f"alpha = {alpha} is outside the attainable tail range (0, {attainable:.4g})"
        )
    seed = None
    approx = rung() if rung is not None else None
    if approx is not None:
        try:
            seed = _first_rung_root(approx, alpha, n, p)
        except (CalibrationError, ArithmeticError, ValueError):
            pass  # the certified search starts from the ratio seed
    value, achieved = _invert_tail(tail, alpha, n, p, seed)
    label = CALIBRATIONS[calibration].label
    return CriticalValue(
        value=float(value), alpha=float(alpha), family=family, calibration=label,
        achieved_alpha=float(achieved),
    )


def sup_critical_value(family, alpha, n, p):
    """Critical value equating the covariance-supremum of the null tail to alpha.

    For halfspace families this calibration is exact (their tails do not
    depend on the covariance); for the orthant families the same value is
    conservative, since the supremum of their null tail over all covariances
    equals the halfspace expression.
    """
    return _critical_value(family, "sup", alpha, n, p, None)


def exact_halfspace_critical_value(family, alpha, n, p):
    """Exact critical value for a halfspace family (same tail, exact label)."""
    return _critical_value(family, "exact", alpha, n, p, None)


def bayes_weights_b1(n, p, prior, mc_samples=DEFAULT_MC_SAMPLES, seed=None, workers=1):
    """Active-subset size probabilities under the compound inverse-Wishart null.

    The covariance is drawn from the proper inverse-Wishart prior and the
    data are null-normal given it.  The size probabilities of that compound
    law are the chi-bar weights of the prior scale, ``b1(k) = w(p, k;
    scale)``, whatever ``n > p`` and ``df > p - 1`` are (Kudo 1963 with the
    block independence of the Wishart law; see the README), so they do not
    depend on ``n`` or on ``df``.  They are :func:`chi_bar_weights`'
    Monte-Carlo estimate at the prior scale, with its standard errors.
    """
    n, p = int(n), int(p)
    if n <= p:
        raise DataError(f"need n > p, got n={n}, p={p}")
    if not isinstance(prior, PriorSpec) or prior.kind != "inverse_wishart":
        raise CalibrationError("weight estimation requires a proper inverse-Wishart prior")
    if prior.scale.shape[0] != p:
        raise DataError("prior scale dimension disagrees with p")
    return chi_bar_weights(
        prior.scale, method=MONTE_CARLO, mc_samples=mc_samples, seed=seed, workers=workers
    )


def bayes_critical_value(family, alpha, n, p, weights):
    """Critical value averaging the null tail over the covariance prior.

    Solves ``sum_k b1(k) * tail_k(c) = alpha`` by ``_invert_tail``, where
    ``tail_k`` is the plain chi-square-ratio tail for the likelihood-ratio
    family and the two-block convolution tail for the union-intersection
    family.  With ``b1`` from :func:`bayes_weights_b1` this is the
    fixed-covariance critical value at the prior scale.
    """
    return _critical_value(family, "bayes", alpha, n, p, weights)


# Calibration mode -> the families it applies to, its CriticalValue label,
# its p-value mode and its critical-value solver ``(family, alpha, n, p,
# weights)``.  FUIT takes only ``sup`` (its Bonferroni threshold); exact needs
# a covariance-free null law and Bayes weights mix over the orthant
# active-subset sizes.  Each solver calls the public function of its name
# through the module globals, so wrappers installed on those functions (as by
# ``bench/tracer.py``) see every call.
_Mode = namedtuple("_Mode", "families label p_value_mode solve")
CALIBRATIONS = {
    "sup": _Mode(stats.FAMILIES, SUP_SIGMA, "sup_conservative",
                 lambda f, a, n, p, w: sup_critical_value(f, a, n, p)),
    "exact": _Mode(stats.HALFSPACE_FAMILIES + (stats.T2,), EXACT_HALFSPACE, EXACT_HALFSPACE,
                   lambda f, a, n, p, w: exact_halfspace_critical_value(f, a, n, p)),
    "bayes": _Mode(stats.ORTHANT_FAMILIES, BAYES_WEIGHTED, "weighted",
                   lambda f, a, n, p, w: bayes_critical_value(f, a, n, p, w)),
}


def check_calibration(family, calibration):
    """Raise :class:`CalibrationError` unless ``calibration`` applies to ``family``."""
    if family not in CALIBRATIONS[calibration].families:
        raise CalibrationError(
            f"{calibration} calibration does not apply to family {family!r}"
        )


def _calibration(family, calibration, alpha, n, p, prior, mc_samples, seed, workers):
    """Critical value of ``family`` under ``calibration``, and the weights it used.

    FUIT takes its Bonferroni threshold, labelled ``bonferroni``; ``bayes``
    first estimates the weights of ``prior``; other modes use none.  Private,
    and calling the public functions through the module globals (the table's
    solvers), so wrappers installed on them (as by ``bench/tracer.py``) see
    each such call as made from the caller's layer.
    """
    check_calibration(family, calibration)
    if family == stats.FUIT:
        value = student_t_upper_quantile(n - 1, alpha / p)
        return CriticalValue(value, alpha, family, "bonferroni"), None
    weights = None
    if calibration == "bayes":
        weights = bayes_weights_b1(n, p, prior, mc_samples=mc_samples, seed=seed, workers=workers)
    return CALIBRATIONS[calibration].solve(family, alpha, n, p, weights), weights


def marginal_logdensity(s, theta, prior):
    """Log marginal density of the sample summaries, up to an additive constant.

    Under the proper inverse-Wishart prior the value is
    ``(m/2) log|scale| + ((n-p-2)/2) log|S| - ((n+m-1)/2) log|W + scale|``
    with ``W = S + n (xbar - theta)(xbar - theta)'``; under the Haar weight
    it is ``((n-p-2)/2) log|S| - (n/2) log|V|`` with
    ``V = (n-1) S + n (xbar - theta)(xbar - theta)'``.  Normalizing
    constants are omitted.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (s.p,):
        raise DataError("theta has wrong dimension")
    s.require_positive_definite()
    cov = np.asarray(s.cov, dtype=float)
    diff = np.asarray(s.mean, dtype=float) - theta
    outer = s.n * np.outer(diff, diff)
    sign_s, logdet_s = np.linalg.slogdet(cov)
    if prior.kind == "inverse_wishart":
        if prior.scale.shape[0] != s.p:
            raise DataError("prior scale dimension disagrees with p")
        w = cov + outer + np.asarray(prior.scale)
        sign_w, logdet_w = np.linalg.slogdet(w)
        if sign_w <= 0:
            raise MetricError("W + scale is not positive definite")
        _, logdet_g = np.linalg.slogdet(np.asarray(prior.scale))
        m = prior.df
        return float(
            0.5 * m * logdet_g
            + 0.5 * (s.n - s.p - 2) * logdet_s
            - 0.5 * (s.n + m - 1) * logdet_w
        )
    if prior.kind == "haar":
        v = (s.n - 1) * cov + outer
        sign_v, logdet_v = np.linalg.slogdet(v)
        if sign_v <= 0:
            raise MetricError("V is not positive definite")
        return float(0.5 * (s.n - s.p - 2) * logdet_s - 0.5 * s.n * logdet_v)
    raise CalibrationError(f"unsupported prior kind {prior.kind!r}")


def p_value(outcome, mode, weights=None):
    """Null tail probability at the observed statistic.

    Modes: ``exact_halfspace`` (halfspace families, whose null law is free
    of the covariance), ``sup_conservative`` (upper bound; exact for
    halfspace families, conservative for orthant ones), and ``weighted``
    (orthant families with supplied mixture or Bayes weights), the p-value
    modes of :data:`CALIBRATIONS`.  A statistic of exactly zero reports 1,
    once the mode, the family and the weights have been checked.
    """
    calibration = next((c for c, m in CALIBRATIONS.items() if m.p_value_mode == mode), None)
    if calibration is None:
        raise CalibrationError(f"unknown p-value mode {mode!r}")
    tail = _null_law(outcome.family, outcome.n, outcome.p, weights, calibration)[0]
    value = stats.calibration_scale(outcome)
    return tail(value) if outcome.statistic > 0.0 and value > 0.0 else 1.0
