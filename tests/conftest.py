"""Shared helpers: random positive definite matrices, brute-force oracles, draw layouts and LAPACK call counts."""

from itertools import combinations

import numpy as np
import pytest

from conetest._batch import sample_invwishart_chol, scaled_draw, standard_draw


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pd_matrix(rng, p, dof=None):
    """Wishart-style positive definite matrix with decent conditioning."""
    dof = dof or p + 3
    g = rng.standard_normal((dof, p))
    return g.T @ g / dof + 0.25 * np.eye(p)


def random_correlation(rng, p):
    m = random_pd_matrix(rng, p)
    d = 1.0 / np.sqrt(np.diag(m))
    return m * np.outer(d, d)


def counted(monkeypatch, name):
    """Stack sizes of the calls of ``np.linalg.<name>`` from now on."""
    sizes = []
    call = getattr(np.linalg, name)

    def counting(a, *args):
        sizes.append(a.shape[0])
        return call(a, *args)

    monkeypatch.setattr(np.linalg, name, counting)
    return sizes


def row_major(draw):
    """Row-major ``(means, c)``, (reps, p) and (reps, p, p), of a component-major draw."""
    means, c = draw
    return np.ascontiguousarray(means.T), np.ascontiguousarray(np.moveaxis(c, -1, 0))


def compound_null(rng, scale, df, n, reps):
    """Component-major means and scatter factors of the Bayes compound null.

    Drawn in the order of the power lab's ``prior_draws`` view: the chunk's
    standard draw ``(z, A)``, then the prior factors ``G`` with ``G G' ~
    InvWishart(scale, df)``, scored as ``xbar = G z / sqrt(n)`` and ``c = G A``.
    """
    z, a = standard_draw(rng, scale.shape[0], n, reps)
    return scaled_draw(z, a, sample_invwishart_chol(rng, scale, df, reps), n)


def two_pass_mean_cov(data):
    """Naive loop-based mean and unbiased covariance."""
    n, p = data.shape
    mean = np.zeros(p)
    for row in data:
        mean += row
    mean /= n
    cov = np.zeros((p, p))
    for row in data:
        d = row - mean
        cov += np.outer(d, d)
    return mean, cov / (n - 1)


def kkt_enumeration_projection(x, m):
    """Orthant projection by exhaustive enumeration of candidate active sets.

    For each subset F of free coordinates, solves the equality-constrained
    problem, keeps feasible candidates, and returns the one minimizing the
    metric distance.  Independent of the sign-condition characterization.
    """
    p = len(x)
    best = None
    best_obj = np.inf
    for k in range(p + 1):
        for free in combinations(range(p), k):
            active = [i for i in range(p) if i not in free]
            theta = np.zeros(p)
            if free:
                if active:
                    sol = np.linalg.solve(m[np.ix_(active, active)], x[list(active)])
                    theta[list(free)] = x[list(free)] - m[np.ix_(list(free), active)] @ sol
                else:
                    theta[list(free)] = x[list(free)]
            if np.any(theta < -1e-12):
                continue
            diff = x - theta
            obj = float(diff @ np.linalg.solve(m, diff))
            if obj < best_obj - 1e-14:
                best_obj = obj
                best = theta
    return best, best_obj


def projection_sq_norm(theta, m):
    return float(theta @ np.linalg.solve(m, theta))
