"""Sufficient statistics, subset partitions, and the sign-based decomposition
of the sample space.

The central object is the unique index subset ``a`` of ``{0, ..., p-1}`` for
which the covariance-adjusted mean on ``a`` is strictly positive while the
complementary block satisfies ``S[a',a']^{-1} xbar[a'] <= 0``.  Exactly one
subset qualifies for almost every sample, and it identifies the face of the
positive orthant that receives the metric projection of the mean.

Index subsets are 0-based throughout.
"""

from dataclasses import dataclass, field

import numpy as np

from ._batch import orthant_active_set
from ._linalg import (
    CONDITION_CAP,
    check_symmetric,
    condition_exceeds_cap,
    is_positive_definite,
    read_only,
)
from .exceptions import (
    ConditioningError,
    ConeTestError,
    DataError,
    InsufficientDataError,
    MetricError,
)

# Hard cap for the reference subset enumeration (2^p subsets).
MAX_ENUMERATION_DIM = 20


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics of an i.i.d. multivariate normal sample.

    Attributes
    ----------
    n : int
        Number of observations (>= 2).
    p : int
        Dimension.
    mean : ndarray, shape (p,)
        Sample mean vector.
    cov : ndarray, shape (p, p)
        Unbiased sample covariance (divisor ``n - 1``).
    positive_definite : bool
        Whether ``cov`` admits a Cholesky factorization.
    """

    n: int
    p: int
    mean: np.ndarray
    cov: np.ndarray
    positive_definite: bool = field(default=False)

    def require_positive_definite(self):
        if not self.positive_definite:
            raise MetricError("sample covariance is not positive definite")


@dataclass(frozen=True)
class SubsetPartition:
    """A subset ``a`` of ``{0, ..., p-1}`` together with its complement."""

    a: tuple
    a_complement: tuple
    p: int

    def __post_init__(self):
        a = tuple(int(i) for i in self.a)
        ac = tuple(int(i) for i in self.a_complement)
        if list(a) != sorted(set(a)) or list(ac) != sorted(set(ac)):
            raise DataError("subset indices must be strictly increasing")
        if sorted(a + ac) != list(range(self.p)):
            raise DataError("subset and complement must partition range(p)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_complement", ac)

    @classmethod
    def from_indices(cls, indices, p):
        a = tuple(sorted(int(i) for i in indices))
        ac = tuple(i for i in range(p) if i not in set(a))
        return cls(a=a, a_complement=ac, p=p)

    @classmethod
    def full(cls, p):
        return cls.from_indices(range(p), p)

    @property
    def size(self):
        return len(self.a)

    def is_full(self):
        return len(self.a) == self.p


@dataclass(frozen=True)
class ConditionalBlock:
    """Covariance-adjusted mean and conditional covariance of a block.

    ``mean_cond = xbar[a] - S[a,a'] S[a',a']^{-1} xbar[a']`` and
    ``cov_cond = S[a,a] - S[a,a'] S[a',a']^{-1} S[a',a]`` (Schur complement).
    """

    mean_cond: np.ndarray
    cov_cond: np.ndarray


def summarize(data):
    """Reduce an ``n x p`` data matrix to its sufficient statistics.

    Parameters
    ----------
    data : array_like, shape (n, p)
        Rows are observations, columns are coordinates.

    Returns
    -------
    SampleSummary

    Raises
    ------
    InsufficientDataError
        If fewer than two observations are supplied.
    DataError
        If the input is not a finite 2-d matrix.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DataError(f"data must be an n x p matrix, got shape {x.shape}")
    n, p = x.shape
    if n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {n}")
    if p < 1:
        raise DataError("data must have at least one column")
    if not np.all(np.isfinite(x)):
        bad = np.argwhere(~np.isfinite(x))[0]
        raise DataError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
    mean = x.mean(axis=0)
    centered = x - mean
    # A constant column has no variance; its rounded mean would leave it some.
    centered[:, np.ptp(x, axis=0) == 0.0] = 0.0
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return SampleSummary(
        n=n,
        p=p,
        mean=read_only(mean),
        cov=read_only(cov),
        positive_definite=is_positive_definite(cov),
    )


def conditional_block(s, part):
    """Covariance-adjusted mean and Schur complement for a subset.

    For the full subset the sample mean and covariance are returned exactly;
    for the empty subset both arrays are empty.

    Raises
    ------
    ConditioningError
        If the complement block is singular (condition number above
        ``1e12``); the offending subset is attached to the error.
    """
    cov = check_symmetric(s.cov, "cov")
    mean = np.asarray(s.mean, dtype=float)
    a = list(part.a)
    ac = list(part.a_complement)
    if not ac:
        return ConditionalBlock(mean_cond=mean.copy(), cov_cond=cov.copy())
    if not a:
        return ConditionalBlock(
            mean_cond=np.empty(0), cov_cond=np.empty((0, 0))
        )
    s_cc = cov[np.ix_(ac, ac)]
    if condition_exceeds_cap(s_cc, CONDITION_CAP):
        raise ConditioningError(
            f"complement block {tuple(ac)} is singular or ill-conditioned",
            subset=tuple(ac),
        )
    s_ac = cov[np.ix_(a, ac)]
    sol_mean = np.linalg.solve(s_cc, mean[ac])
    sol_cross = np.linalg.solve(s_cc, s_ac.T)
    mean_cond = mean[a] - s_ac @ sol_mean
    cov_cond = cov[np.ix_(a, a)] - s_ac @ sol_cross
    cov_cond = 0.5 * (cov_cond + cov_cond.T)
    return ConditionalBlock(mean_cond=mean_cond, cov_cond=cov_cond)


def iter_subsets(p):
    """All subsets of ``range(p)`` in lexicographic bitmask order."""
    if p > MAX_ENUMERATION_DIM:
        raise ConeTestError(
            f"subset enumeration is capped at p <= {MAX_ENUMERATION_DIM}"
        )
    for mask in range(1 << p):
        yield tuple(i for i in range(p) if mask >> i & 1)


def qualifying_subsets(x, m):
    """Subsets satisfying the sign conditions for vector ``x`` and matrix ``m``.

    A subset ``a`` qualifies when ``x[a] - m[a,a'] m[a',a']^{-1} x[a'] > 0``
    componentwise (strict) and ``m[a',a']^{-1} x[a'] <= 0`` componentwise.
    Returned in lexicographic bitmask order.  This exhaustive scan is the
    reference characterization for the tests; the runtime classifier is the
    active-set kernel :func:`conetest._batch.orthant_active_set`.
    """
    x = np.asarray(x, dtype=float)
    p = x.shape[0]
    out = []
    for a in iter_subsets(p):
        ac = [i for i in range(p) if i not in a]
        if ac:
            sol = np.linalg.solve(m[np.ix_(ac, ac)], x[ac])
            if np.any(sol > 0.0):
                continue
            if a:
                adj = x[list(a)] - m[np.ix_(list(a), ac)] @ sol
                if np.any(adj <= 0.0):
                    continue
        else:
            if np.any(x <= 0.0):
                continue
        out.append(a)
    return out


def active_subset_orthant(s):
    """The unique subset with positive adjusted mean and nonpositive complement.

    It is the support of the metric projection of the mean onto the orthant,
    found by the active-set kernel.  A zero adjusted-mean component counts as
    nonpositive, so boundary draws fall to the smaller subset.
    """
    s.require_positive_definite()
    free = orthant_active_set(
        np.asarray(s.mean, dtype=float)[None, :], np.asarray(s.cov, dtype=float)
    )
    return SubsetPartition.from_indices(np.flatnonzero(free[0]), s.p)


def active_branch_halfspace(s):
    """Branch selector for the last-coordinate halfspace alternative.

    Returns the full subset when the last mean coordinate is strictly
    positive, and ``{0, ..., p-2}`` otherwise (the boundary value 0 is
    assigned to the reduced branch).
    """
    s.require_positive_definite()
    if float(s.mean[-1]) > 0.0:
        return SubsetPartition.full(s.p)
    return SubsetPartition.from_indices(range(s.p - 1), s.p)
