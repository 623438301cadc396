"""Independent reference computations for the benchmark's output checks.

Nothing here imports conetest: statistics come from ``scipy.optimize.nnls``
on the Cholesky-whitened problem and from closed forms, tails from
``scipy.special`` (``betaincc``, ``stdtr`` and a Gauss-Jacobi rule built on
``roots_jacobi``), orthant probabilities from Genz's algorithm, and Bayes
weights from a small Monte Carlo with its own generator.
"""

import functools

import numpy as np
from scipy import optimize, special, stats

GJ_NODES = 64

# Families as named in the conetest reports.
T2, FUIT = "T2", "FUIT"
LRT_O, UIT_O, LRT_H, UIT_H = "LRT_orthant", "UIT_orthant", "LRT_halfspace", "UIT_halfspace"


def summary(data):
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    return n, data.mean(axis=0), np.cov(data, rowvar=False, ddof=1)


def _whitener(cov):
    """``W`` with ``W' W = cov^{-1}``."""
    return np.linalg.inv(np.linalg.cholesky(cov))


def orthant_projection(data):
    """``(q_proj, q_res, active)`` of the orthant projection of ``sqrt(n) xbar``."""
    n, mean, cov = summary(data)
    w = _whitener(cov)
    y = np.sqrt(n) * mean
    theta, _ = optimize.nnls(w, w @ y)
    proj = w @ theta
    return float(proj @ proj), float(np.sum((w @ y - proj) ** 2)), np.flatnonzero(theta > 0.0)


def halfspace_projection(data):
    """``(q_proj, q_res)`` for the last-coordinate halfspace, in closed form."""
    n, mean, cov = summary(data)
    t2 = n * mean @ np.linalg.solve(cov, mean)
    if mean[-1] > 0.0:
        return float(t2), 0.0
    q_res = n * mean[-1] ** 2 / cov[-1, -1]
    return float(t2 - q_res), float(q_res)


def t2_stat(data):
    n, mean, cov = summary(data)
    return float(n * mean @ np.linalg.solve(cov, mean))


def ratio_tail(a, b, u):
    """``P{chi2_a / chi2_b >= u}`` with ``chi2_0`` a point mass at zero."""
    if a == 0:
        return 0.0 if u > 0.0 else 1.0
    return float(special.betaincc(a / 2.0, b / 2.0, u / (1.0 + u)))


@functools.lru_cache(maxsize=None)
def _jacobi(alpha, beta):
    x, w = special.roots_jacobi(GJ_NODES, alpha, beta)
    return x, w / w.sum()


def star_tail(n, a, p, u):
    """Two-block convolution tail by a Gauss-Jacobi rule on the Beta mixing law."""
    if a == 0:
        return 0.0 if u > 0.0 else 1.0
    if a == p:
        return ratio_tail(p, n - p, u)
    shape_s, shape_1ms = (p - a) / 2.0, (n - p + a) / 2.0
    x, w = _jacobi(shape_1ms - 1.0, shape_s - 1.0)
    v = u * (1.0 - (1.0 + x) / 2.0)
    return float(w @ special.betaincc(a / 2.0, (n - p) / 2.0, v / (1.0 + v)))


def sup_tail(family, c, n, p):
    """Covariance-supremum (= exact halfspace) null tail on the calibration scale."""
    if family == T2:
        return ratio_tail(p, n - p, c)
    if family in (LRT_O, LRT_H):
        return 0.5 * (ratio_tail(p - 1, n - p, c) + ratio_tail(p, n - p, c))
    if family in (UIT_O, UIT_H):
        return 0.5 * (star_tail(n, p - 1, p, c) + star_tail(n, p, p, c))
    raise ValueError(f"no supremum tail for {family}")


def weighted_tail(family, c, n, p, weights):
    if family == LRT_O:
        terms = [ratio_tail(k, n - p, c) for k in range(p + 1)]
    elif family == UIT_O:
        terms = [star_tail(n, k, p, c) for k in range(p + 1)]
    else:
        raise ValueError(f"no weighted tail for {family}")
    return float(np.dot(weights, terms))


def t_tail(df, x):
    return float(1.0 - special.stdtr(df, x))


GENZ_ABSEPS = 1e-6


def orthant_probabilities(corr, seed):
    """Genz estimates of ``w_p = P{Z > 0}`` and ``w_0 = P{corr^{-1} Z <= 0}``."""
    p = corr.shape[0]
    rng = np.random.default_rng(seed)
    zero = np.zeros(p)
    w_p = stats.multivariate_normal.cdf(zero, cov=corr, abseps=GENZ_ABSEPS, rng=rng)
    w_0 = stats.multivariate_normal.cdf(
        zero, cov=np.linalg.inv(corr), abseps=GENZ_ABSEPS, rng=rng
    )
    return float(w_0), float(w_p)


def bayes_weights(n, p, scale, df, draws, seed):
    """Active-subset size frequencies under the compound inverse-Wishart null.

    Draws covariances with ``scipy.stats.invwishart``, null-normal samples of
    size ``n``, and classifies each draw by the support of its NNLS
    projection.  Returns the counts over sizes ``0..p``.
    """
    rng = np.random.default_rng([int(seed), 7919, p, n])
    sigmas = stats.invwishart(df=df, scale=scale).rvs(size=draws, random_state=rng)
    counts = np.zeros(p + 1, dtype=np.int64)
    # One sample at a time, so the oracle's memory stays far below the
    # program's and the workload's peak RSS is the program's.
    for sigma in np.reshape(sigmas, (draws, p, p)):
        sample = rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
        counts[orthant_projection(sample)[2].size] += 1
    return counts


def binomial_p(count, total, prob):
    """Exact two-sided binomial test of ``count`` successes in ``total`` at ``prob``."""
    return float(stats.binomtest(int(count), int(total), prob).pvalue)


def two_sample_p(count_a, total_a, count_b, total_b):
    """Exact conditional test of equal proportions in two independent samples.

    Given the pooled count ``m``, ``count_a`` is Binomial(m, total_a / (total_a
    + total_b)) when the proportions agree.  Unlike a pooled z test this keeps
    its level when the expected counts are a handful.
    """
    m = int(count_a + count_b)
    return 1.0 if m == 0 else binomial_p(count_a, m, total_a / (total_a + total_b))
