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


@dataclass(frozen=True)
class Orthant:
    """The nonnegative orthant ``{t in R^p : t >= 0}``."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DataError("orthant dimension must be >= 1")

    def contains(self, t, tol=0.0):
        t = np.asarray(t, dtype=float)
        return bool(np.all(t >= -tol))


@dataclass(frozen=True)
class CoordinateHalfspace:
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

    def contains(self, t, tol=0.0):
        return bool(np.asarray(t, dtype=float)[self.coord] >= -tol)


@dataclass(frozen=True)
class Polyhedral:
    """The polyhedral cone ``{t in R^p : B t >= 0}`` for full-row-rank ``B``."""

    constraints: np.ndarray

    def __post_init__(self):
        b = as_float_matrix(self.constraints, "constraints")
        m, p = b.shape
        if m < 1 or p < 1:
            raise DataError("constraint matrix must be nonempty")
        sv = np.linalg.svd(b, compute_uv=False)
        if m > p or sv[-1] <= RANK_RTOL * max(1.0, sv[0]):
            raise ReductionError(
                f"constraint matrix is not of full row rank {m} (min singular value {sv[-1]:.3e})"
            )
        object.__setattr__(self, "constraints", read_only(b))

    @property
    def p(self):
        return self.constraints.shape[1]

    @property
    def m(self):
        return self.constraints.shape[0]

    def contains(self, t, tol=0.0):
        return bool(np.all(self.constraints @ np.asarray(t, dtype=float) >= -tol))


ConeSpec = Union[Orthant, CoordinateHalfspace, Polyhedral]


@dataclass(frozen=True)
class MetricProjection:
    """Projection of a point onto a cone under a positive definite metric.

    ``point + residual`` recomposes the input; ``sq_norm_projection`` and
    ``sq_norm_residual`` add up to the squared metric norm of the input
    (Pythagoras), and the two pieces are metric-orthogonal.
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


def _orthant_solution(x, m, free):
    """Assemble the projection for a given free-index mask."""
    p = x.shape[0]
    theta = np.zeros(p)
    a = np.flatnonzero(free)
    ac = np.flatnonzero(~free)
    if a.size:
        if ac.size:
            sol = np.linalg.solve(m[np.ix_(ac, ac)], x[ac])
            theta[a] = x[a] - m[np.ix_(a, ac)] @ sol
        else:
            theta[a] = x[a]
    residual = x - theta
    sq_proj = quad_form_inv(m, theta)
    # Residual norm via the complement block; exact under the metric split.
    sq_res = quad_form_inv(m[np.ix_(ac, ac)], x[ac]) if ac.size else 0.0
    part = SubsetPartition.from_indices(a.tolist(), p)
    return MetricProjection(
        point=theta,
        residual=residual,
        sq_norm_projection=sq_proj,
        sq_norm_residual=sq_res,
        active_subset=part,
    )


def _project_orthant(x, m):
    free, _ = orthant_active_set(x[None, :], m)
    return _orthant_solution(x, m, free[0])


def _project_halfspace(x, m, coord):
    p = x.shape[0]
    if x[coord] >= 0.0:
        part = SubsetPartition.full(p)
        return MetricProjection(
            point=x.copy(),
            residual=np.zeros(p),
            sq_norm_projection=quad_form_inv(m, x),
            sq_norm_residual=0.0,
            active_subset=part,
        )
    rest = [i for i in range(p) if i != coord]
    theta = np.zeros(p)
    if rest:
        theta[rest] = x[rest] - m[rest, coord] * (x[coord] / m[coord, coord])
    sq_res = float(x[coord] ** 2 / m[coord, coord])
    part = SubsetPartition.from_indices(rest, p)
    return MetricProjection(
        point=theta,
        residual=x - theta,
        sq_norm_projection=max(0.0, quad_form_inv(m, x) - sq_res),
        sq_norm_residual=sq_res,
        active_subset=part,
    )


def _project_polyhedral(x, m, cone):
    b = np.asarray(cone.constraints, dtype=float)
    mrows, p = b.shape
    if mrows == p:
        # Square full-rank constraints: substitute v = B t, which turns the
        # problem into an orthant projection of B x under the metric B M B'.
        y = b @ x
        metric_y = b @ m @ b.T
        metric_y = 0.5 * (metric_y + metric_y.T)
        inner = _project_orthant(y, metric_y)
        theta = np.linalg.solve(b, inner.point)
        residual = x - theta
        return MetricProjection(
            point=theta,
            residual=residual,
            sq_norm_projection=quad_form_inv(m, theta),
            sq_norm_residual=quad_form_inv(m, residual),
            active_subset=None,
        )
    # Fewer constraints than dimensions: profile out the unconstrained
    # null-space directions, leaving an m-dimensional orthant problem in the
    # constraint values v = B t.
    #   t = N u + B'(B B')^{-1} v,   u free,  v >= 0
    bbt = b @ b.T
    bplus = np.linalg.solve(bbt, b).T  # p x m, B bplus = I
    _, _, vh = np.linalg.svd(b)
    nullbasis = vh[mrows:].T  # p x (p - m)
    minv = np.linalg.inv(m)
    # Objective in (u, v): (x - N u - bplus v)' M^{-1} (...); eliminate u.
    nmn = nullbasis.T @ minv @ nullbasis
    nmb = nullbasis.T @ minv @ bplus
    nmx = nullbasis.T @ minv @ x
    # Reduced quadratic in v: v' H v - 2 h' v + const, H p.d. since rank(B) = m.
    h_mat = bplus.T @ minv @ bplus - nmb.T @ np.linalg.solve(nmn, nmb)
    h_mat = 0.5 * (h_mat + h_mat.T)
    h_vec = bplus.T @ minv @ x - nmb.T @ np.linalg.solve(nmn, nmx)
    v0 = np.linalg.solve(h_mat, h_vec)
    inner = _project_orthant(v0, np.linalg.inv(h_mat))
    v = inner.point
    u = np.linalg.solve(nmn, nmx - nmb @ v)
    theta = nullbasis @ u + bplus @ v
    residual = x - theta
    return MetricProjection(
        point=theta,
        residual=residual,
        sq_norm_projection=quad_form_inv(m, theta),
        sq_norm_residual=quad_form_inv(m, residual),
        active_subset=None,
    )


def project(x, metric, cone):
    """Metric projection of ``x`` onto a cone.

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

    Raises
    ------
    SolverError
        If the orthant active-set iteration exceeds its step cap
        ``max(10 p, 30)``.
    """
    x = as_float_vector(x, "x")
    m = check_positive_definite(metric, "metric")
    if x.shape[0] != m.shape[0]:
        raise DataError("x and metric dimensions disagree")
    if isinstance(cone, Orthant):
        if cone.p != x.shape[0]:
            raise DataError("cone dimension disagrees with x")
        return _project_orthant(x, m)
    if isinstance(cone, CoordinateHalfspace):
        if cone.p != x.shape[0]:
            raise DataError("cone dimension disagrees with x")
        return _project_halfspace(x, m, cone.coord)
    if isinstance(cone, Polyhedral):
        if cone.p != x.shape[0]:
            raise DataError("cone dimension disagrees with x")
        return _project_polyhedral(x, m, cone)
    raise DataError(f"unsupported cone specification: {cone!r}")


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
        sv = np.linalg.svd(b, compute_uv=False)
        if b.shape[0] > b.shape[1] or sv[-1] <= RANK_RTOL * max(1.0, sv[0]):
            raise ReductionError(f"{name} is rank deficient")
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
    plain dual test applied to ``M^{-1} w``.
    """
    w = as_float_vector(w, "w")
    if metric is not None:
        m = check_positive_definite(metric, "metric")
        w = np.linalg.solve(m, w)
    if isinstance(cone, Orthant):
        return bool(np.all(w <= 0.0))
    if isinstance(cone, CoordinateHalfspace):
        scale = max(1.0, float(np.abs(w).max()))
        others = [i for i in range(cone.p) if i != cone.coord]
        if others and np.abs(w[others]).max() > 1e-10 * scale:
            return False
        return bool(w[cone.coord] <= 1e-10 * scale)
    if isinstance(cone, Polyhedral):
        # w is dual iff -w = B' lam for some lam >= 0.  The best nonnegative
        # lam is the orthant projection of the unconstrained solution under
        # the Gram metric, after which the residual decides membership.
        b = np.asarray(cone.constraints, dtype=float)
        gram = b @ b.T
        target = -(b @ w)
        lam0 = np.linalg.solve(gram, target)
        inner = _project_orthant(lam0, np.linalg.inv(gram))
        resid = b.T @ inner.point + w
        return bool(np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(w)))
    raise DataError(f"unsupported cone specification: {cone!r}")
