"""Test statistics for a multivariate normal mean against cone alternatives.

All statistics are computed from the unbiased sample covariance (divisor
``n - 1``):

* ``hotelling_t2``: ``n xbar' S^{-1} xbar``.
* ``uit_orthant`` / ``uit_halfspace``: squared metric projection norm of
  ``sqrt(n) xbar`` onto the cone, which coincides with the subset formula
  ``n xbar_adj' S_cond^{-1} xbar_adj`` on the active subset.
* ``lrt_orthant`` / ``lrt_halfspace``: the same squared norm shrunk by
  ``1 + (squared residual norm)``.

The null tail formulas in :mod:`conetest.calibrate` are expressed for the
same statistics standardized by the sum-of-squares matrix (divisor 1)
instead of the unbiased covariance; :func:`calibration_scale` performs that
conversion and is the value compared against critical values.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import as_float_vector, quad_form_inv
from .cones import CoordinateHalfspace, Orthant, project
from .dist import student_t_upper_quantile
from .exceptions import (
    ConditioningError,
    DataError,
    DegenerateVarianceError,
    InsufficientDataError,
)
from .sample import (
    SubsetPartition,
    active_subset_orthant,
    conditional_block,
)

T2 = "T2"
LRT_ORTHANT = "LRT_orthant"
UIT_ORTHANT = "UIT_orthant"
LRT_HALFSPACE = "LRT_halfspace"
UIT_HALFSPACE = "UIT_halfspace"
FUIT = "FUIT"

FAMILIES = (T2, LRT_ORTHANT, UIT_ORTHANT, LRT_HALFSPACE, UIT_HALFSPACE, FUIT)
ORTHANT_FAMILIES = (LRT_ORTHANT, UIT_ORTHANT)
HALFSPACE_FAMILIES = (LRT_HALFSPACE, UIT_HALFSPACE)
LRT_FAMILIES = (LRT_ORTHANT, LRT_HALFSPACE)
UIT_FAMILIES = (UIT_ORTHANT, UIT_HALFSPACE)


@dataclass(frozen=True)
class TestOutcome:
    """A computed test statistic together with its decomposition.

    ``sq_norm_projection`` and ``sq_norm_residual`` are the squared metric
    norms of the cone projection of ``sqrt(n) xbar`` and of its residual;
    they reconstruct every statistic family and its calibration-scale value.
    """

    statistic: float
    family: str
    active_subset: Optional[SubsetPartition]
    n: int
    p: int
    sq_norm_projection: float
    sq_norm_residual: float


@dataclass(frozen=True)
class FuitReport:
    """Bonferroni combination of coordinatewise one-sided t statistics."""

    t_values: np.ndarray
    alpha: float
    alpha_star: float
    threshold: float
    reject: bool
    n: int
    p: int

    @property
    def statistic(self):
        return float(np.max(self.t_values))


def _require_testable(s):
    if s.n <= s.p:
        raise InsufficientDataError(
            f"need n > p for covariance-based tests, got n={s.n}, p={s.p}"
        )
    if not s.positive_definite:
        raise ConditioningError("sample covariance is singular")


def hotelling_t2(s):
    """The classical quadratic-form statistic ``n xbar' S^{-1} xbar``."""
    _require_testable(s)
    t2 = s.n * quad_form_inv(np.asarray(s.cov), np.asarray(s.mean))
    return TestOutcome(
        statistic=float(t2),
        family=T2,
        active_subset=SubsetPartition.full(s.p),
        n=s.n,
        p=s.p,
        sq_norm_projection=float(t2),
        sq_norm_residual=0.0,
    )


def _cone_outcome(s, family):
    """The orthant or last-coordinate halfspace outcome of ``family``."""
    _require_testable(s)
    cone = Orthant(s.p) if family in ORTHANT_FAMILIES else CoordinateHalfspace(s.p, s.p - 1)
    proj = project(np.sqrt(s.n) * np.asarray(s.mean), np.asarray(s.cov), cone)
    q_proj, q_res = proj.sq_norm_projection, proj.sq_norm_residual
    stat = q_proj / (1.0 + q_res) if family in LRT_FAMILIES else q_proj
    return TestOutcome(
        statistic=float(stat),
        family=family,
        active_subset=proj.active_subset,
        n=s.n,
        p=s.p,
        sq_norm_projection=float(q_proj),
        sq_norm_residual=float(q_res),
    )


def outcome(s, family):
    """The outcome of ``family`` on the summary ``s``, for every family but FUIT."""
    if family == T2:
        return hotelling_t2(s)
    if family not in ORTHANT_FAMILIES + HALFSPACE_FAMILIES:
        raise ValueError(f"no test outcome for family {family!r}")
    return _cone_outcome(s, family)


def uit_orthant(s):
    """Squared projection norm onto the positive orthant."""
    return _cone_outcome(s, UIT_ORTHANT)


def lrt_orthant(s):
    """Orthant projection norm shrunk by one plus the squared residual norm."""
    return _cone_outcome(s, LRT_ORTHANT)


def uit_halfspace(s):
    """Squared projection norm onto the last-coordinate halfspace."""
    return _cone_outcome(s, UIT_HALFSPACE)


def lrt_halfspace(s):
    """Halfspace projection norm shrunk by one plus the squared residual norm."""
    return _cone_outcome(s, LRT_HALFSPACE)


def fuit(s, alpha):
    """Bonferroni-combined one-sided coordinatewise t tests.

    Each coordinate is tested at level ``alpha / p`` against the upper
    Student-t quantile with ``n - 1`` degrees of freedom; the combination
    rejects when any coordinate does.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    diag = np.diag(np.asarray(s.cov, dtype=float))
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise DegenerateVarianceError(f"coordinate {bad} has zero sample variance")
    t_values = np.sqrt(s.n) * np.asarray(s.mean) / np.sqrt(diag)
    alpha_star = alpha / s.p
    threshold = student_t_upper_quantile(s.n - 1, alpha_star)
    return FuitReport(
        t_values=t_values,
        alpha=float(alpha),
        alpha_star=float(alpha_star),
        threshold=float(threshold),
        reject=bool(np.max(t_values) >= threshold),
        n=s.n,
        p=s.p,
    )


def integrated_lr_ratio(s):
    """``(1 + L)^{(n-1)/2}`` where ``L`` is the orthant likelihood-ratio statistic."""
    outcome = lrt_orthant(s)
    return float(np.exp(0.5 * (s.n - 1) * np.log1p(outcome.statistic)))


def directional_component(s, b):
    """Directional quadratic form along ``b`` restricted to the active subset.

    Returns ``n (b_a' xbar_adj)^2 / (b_a' S_cond b_a)`` for the active
    orthant subset ``a``; this never exceeds the orthant projection norm and
    attains it at ``b_a = S_cond^{-1} xbar_adj``.
    """
    _require_testable(s)
    b = as_float_vector(b, "b")
    if b.shape[0] != s.p:
        raise DataError("direction vector has wrong dimension")
    if not np.any(b != 0.0):
        raise DataError("direction vector must be nonzero")
    part = active_subset_orthant(s)
    if part.size == 0:
        return 0.0
    block = conditional_block(s, part)
    b_a = b[list(part.a)]
    denom = float(b_a @ block.cov_cond @ b_a)
    if denom <= 0.0:
        raise DataError("direction vanishes on the active subset")
    num = s.n * float(b_a @ block.mean_cond) ** 2
    return num / denom


def calibration_value(family, q_proj, q_res, n):
    """Calibration-scale value from the squared projection and residual norms.

    Quadratic-form statistics divide by ``n - 1`` (unbiased-covariance to
    sum-of-squares standardization); the likelihood-ratio families replace
    the ``1 +`` in their denominator by ``n - 1`` under the same rescaling,
    giving ``q_proj / ((n - 1) + q_res)``.  Works elementwise on arrays.
    """
    nm1 = n - 1
    if family == T2:
        return (q_proj + q_res) / nm1
    if family in UIT_FAMILIES:
        return q_proj / nm1
    if family in LRT_FAMILIES:
        return q_proj / (nm1 + q_res)
    raise ValueError(f"no calibration scale for family {family!r}")


def calibration_scale(outcome):
    """Map a test outcome onto the scale of the null tail formulas."""
    return calibration_value(
        outcome.family, outcome.sq_norm_projection, outcome.sq_norm_residual, outcome.n
    )
