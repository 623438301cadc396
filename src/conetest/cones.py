"""Cone specifications, metric projection, model reduction, and dual cones.

Projections minimize ``(x - t)' M^{-1} (x - t)`` over the cone, where ``M``
is a positive definite metric matrix; the squared norm convention is
``|z|_M^2 = z' M^{-1} z``.  With ``x = sqrt(n) * xbar`` and ``M`` the sample
covariance, the squared projection norm onto the positive orthant equals the
union-intersection test statistic.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._linalg import (
    as_float_matrix,
    as_float_vector,
    check_positive_definite,
    quad_form_inv,
    read_only,
)
from ._batch import orthant_active_set
from .exceptions import DataError, ReductionError
from .sample import SubsetPartition

# Relative tolerance on singular values when validating constraint matrices.
RANK_RTOL = 1e-10


class _Cone:
    """A cone ``{t in R^p : B t >= 0}`` given by its full-row-rank ``constraints`` ``B``."""

    def contains(self, t, tol=0.0):
        return bool(np.all(self.constraints @ np.asarray(t, dtype=float) >= -tol))


@dataclass(frozen=True)
class Orthant(_Cone):
    """The nonnegative orthant ``{t in R^p : t >= 0}``."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DataError("orthant dimension must be >= 1")

    @property
    def constraints(self):
        return np.eye(self.p)


@dataclass(frozen=True)
class CoordinateHalfspace(_Cone):
    """The halfspace ``{t in R^p : t[coord] >= 0}``; by default the last coordinate."""

    p: int
    coord: int = -1

    def __post_init__(self):
        if self.p < 1:
            raise DataError("halfspace dimension must be >= 1")
        coord = self.coord if self.coord >= 0 else self.p + self.coord
        if not 0 <= coord < self.p:
            raise DataError(f"coordinate index {self.coord} out of range for p={self.p}")
        object.__setattr__(self, "coord", coord)

    @property
    def constraints(self):
        return np.eye(self.p)[[self.coord]]


@dataclass(frozen=True)
class Polyhedral(_Cone):
    """The polyhedral cone ``{t in R^p : B t >= 0}`` for full-row-rank ``B``."""

    constraints: np.ndarray

    def __post_init__(self):
        b = as_float_matrix(self.constraints, "constraints")
        m, p = b.shape
        if m < 1 or p < 1:
            raise DataError("constraint matrix must be nonempty")
        _require_full_row_rank(
            b, "constraint matrix is not of full row rank {m} (min singular value {sv:.3e})"
        )
        object.__setattr__(self, "constraints", read_only(b))

    @property
    def p(self):
        return self.constraints.shape[1]


ConeSpec = Union[Orthant, CoordinateHalfspace, Polyhedral]


def _require_full_row_rank(b, message):
    """Raise :class:`ReductionError` unless ``b`` has full row rank.

    ``message`` may name the row count ``{m}`` and the smallest singular
    value ``{sv}``.
    """
    sv = np.linalg.svd(b, compute_uv=False)
    if b.shape[0] > b.shape[1] or sv[-1] <= RANK_RTOL * sv[0]:
        raise ReductionError(message.format(m=b.shape[0], sv=sv[-1]))


@dataclass(frozen=True)
class MetricProjection:
    """Projection of a point onto a cone under a positive definite metric.

    ``point + residual`` recomposes the input; ``sq_norm_projection`` and
    ``sq_norm_residual`` add up to the squared metric norm of the input
    (Pythagoras), and the two pieces are metric-orthogonal.
    ``active_subset`` holds the coordinates that no active constraint row
    touches: for the orthant, the coordinates left free.
    """

    point: np.ndarray
    residual: np.ndarray
    sq_norm_projection: float
    sq_norm_residual: float
    active_subset: Optional[SubsetPartition] = None


@dataclass(frozen=True)
class ReducedModel:
    """Linearly transformed data together with the induced polyhedral cone."""

    data: np.ndarray
    cone: Polyhedral


def metric_sq_norm(z, metric):
    """Squared metric norm ``z' M^{-1} z``."""
    z = as_float_vector(z, "z")
    m = check_positive_definite(metric, "metric")
    return quad_form_inv(m, z)


def _project(x, m, b):
    """Metric projection of ``x`` onto ``{t : B t >= 0}`` for full-row-rank ``B``.

    Its KKT conditions are those of the orthant projection of ``y = B x``
    under the metric ``G = B M B'``, so the orthant kernel classifies the
    constraint rows.  With ``B_c`` the active rows, the multipliers are
    ``lam = (B_c M B_c')^{-1} B_c x`` and the projection is ``x - M B_c'
    lam``.  One Euclidean step onto ``B_c t = 0`` then puts it on the face
    exactly, with exact zeros for coordinate cones.
    """
    g = b @ m @ b.T
    free = orthant_active_set((b @ x)[None, :], 0.5 * (g + g.T))
    act = b[~free[0]]
    point, sq_res = x.copy(), 0.0
    if act.shape[0]:  # no 0 x 0 solves when every constraint is slack
        lam = np.linalg.solve(act @ m @ act.T, act @ x)
        point -= m @ act.T @ lam
        point -= act.T @ np.linalg.solve(act @ act.T, act @ point)
        sq_res = float((act @ x) @ lam)
    return MetricProjection(
        point=point,
        residual=x - point,
        sq_norm_projection=quad_form_inv(m, point),
        sq_norm_residual=sq_res,
        active_subset=SubsetPartition.from_indices(np.flatnonzero(~act.any(axis=0)), x.shape[0]),
    )


def project(x, metric, cone):
    """Metric projection of ``x`` onto a cone ``{t : B t >= 0}``.

    ``B`` is the cone's ``constraints``: the identity for the orthant, one
    unit row for a coordinate halfspace.

    Parameters
    ----------
    x : array_like, shape (p,)
        Point to project.
    metric : array_like, shape (p, p)
        Positive definite metric matrix ``M``; distances are measured by
        ``(x - t)' M^{-1} (x - t)``.
    cone : ConeSpec
        Orthant, coordinate halfspace, or polyhedral cone.

    Returns
    -------
    MetricProjection
        Its ``active_subset`` holds the coordinates that no active
        constraint row touches.

    Raises
    ------
    SolverError
        If the orthant active-set iteration over the ``m`` constraint rows
        exceeds its step cap ``max(10 m, 30)``.
    """
    x = as_float_vector(x, "x")
    m = check_positive_definite(metric, "metric")
    if x.shape[0] != m.shape[0]:
        raise DataError("x and metric dimensions disagree")
    if not isinstance(cone, _Cone):
        raise DataError(f"unsupported cone specification: {cone!r}")
    if cone.p != x.shape[0]:
        raise DataError("cone dimension disagrees with x")
    return _project(x, m, np.asarray(cone.constraints))


def reduce_model(b1, b2, data):
    """Reduce a general linear hypothesis pair to a polyhedral-cone model.

    The data are transformed row-wise by ``b1`` and the alternative
    constraint matrix becomes ``b2 b1' (b1 b1')^{-1}``, so the null mean of
    the transformed data is zero exactly when ``b1 mu = 0``.

    Raises
    ------
    ReductionError
        If ``b1`` or ``b2`` (or the induced constraint matrix) is rank
        deficient; the message names the offending matrix.
    """
    b1 = as_float_matrix(b1, "b1")
    b2 = as_float_matrix(b2, "b2")
    data = as_float_matrix(data, "data")
    if b1.shape[1] != data.shape[1] or b2.shape[1] != data.shape[1]:
        raise DataError("b1, b2 and data column counts disagree")
    for name, b in (("b1", b1), ("b2", b2)):
        _require_full_row_rank(b, f"{name} is rank deficient")
    gram = b1 @ b1.T
    induced = b2 @ np.linalg.solve(gram, b1).T
    try:
        cone = Polyhedral(constraints=induced)
    except ReductionError as exc:
        raise ReductionError(f"induced constraint matrix is rank deficient: {exc}") from exc
    return ReducedModel(data=read_only(data @ b1.T), cone=cone)


def dual_cone_contains(w, cone, metric=None):
    """Membership of ``w`` in the dual (polar) cone ``{w : <w, t> <= 0 on the cone}``.

    With a metric ``M`` the pairing is ``w' M^{-1} t``, which reduces to the
    plain dual test applied to ``M^{-1} w``.  By Moreau's decomposition,
    ``w`` is dual exactly when its Euclidean projection onto the cone is
    zero; here, when its norm is at most ``1e-10 (1 + |w|)``.
    """
    w = as_float_vector(w, "w")
    if metric is not None:
        m = check_positive_definite(metric, "metric")
        w = np.linalg.solve(m, w)
    point = project(w, np.eye(w.shape[0]), cone).point
    return bool(np.linalg.norm(point) <= 1e-10 * (1.0 + np.linalg.norm(w)))
