"""Null-distribution building blocks.

``g_ratio_cdf(a, b, u)`` is the distribution function of a ratio of two
independent chi-square variables (no degree-of-freedom normalization), with
the convention that zero degrees of freedom in the numerator means a point
mass at zero.  ``g_star_tail`` is the upper tail of the product
``(chi2_a / chi2_{n-p}) * (1 + chi2_{p-a} / chi2_{n-p+a})`` with all four
chi-squares independent, evaluated by fixed Gauss-Jacobi rules and
certified when two consecutive rules of a bounded node ladder agree.
"""

import functools

import numpy as np
from scipy.special import betainc, roots_jacobi, stdtr, stdtrit

from .exceptions import QuadratureError

# Absolute tolerance between two certifying convolution-tail rules, and the
# node count of the smallest rule; the ladder is GJ_NODES * (1, 2, 4).
QUAD_ABS_TOL = 1e-7
GJ_NODES = 64


def _check_df(a, b):
    if a < 0:
        raise ValueError(f"numerator degrees of freedom must be >= 0, got {a}")
    if b <= 0:
        raise ValueError(f"denominator degrees of freedom must be > 0, got {b}")


def g_ratio_cdf(a, b, u):
    """P{chi2_a / chi2_b <= u} with ``chi2_0`` a point mass at zero."""
    _check_df(a, b)
    if a == 0:
        return 1.0 if u >= 0.0 else 0.0
    if u <= 0.0:
        return 0.0
    if not np.isfinite(u):
        raise ValueError("u must be finite")
    # The ratio r has r/(1+r) ~ Beta(a/2, b/2).
    return float(betainc(a / 2.0, b / 2.0, u / (1.0 + u)))


def g_ratio_tail(a, b, u):
    """P{chi2_a / chi2_b >= u}; complement of :func:`g_ratio_cdf`."""
    _check_df(a, b)
    if a == 0:
        return 1.0 if u <= 0.0 else 0.0
    if u <= 0.0:
        return 1.0
    # 1/(1+r) ~ Beta(b/2, a/2); unlike u/(1+u), 1/(1+u) keeps its relative
    # precision at large u, where the tail is small.
    return float(betainc(b / 2.0, a / 2.0, 1.0 / (1.0 + u)))


@functools.lru_cache(maxsize=None)
def _mixing_rule(nodes, p_minus_a, n_minus_p_plus_a):
    """Nodes ``1 - s`` and weights of the Beta mixing law after ``s = 1 - r**2``.

    The Beta((p-a)/2, (n-p+a)/2) density in ``s`` becomes, in ``r`` on
    (0, 1), ``(1-r)**e (1+r)**e r**(n-p+a-1)`` with ``e = (p-a)/2 - 1``: a
    Jacobi weight times the smooth factor ``(1+r)**e``, normalized here.
    """
    e = p_minus_a / 2.0 - 1.0
    x, w = roots_jacobi(nodes, e, n_minus_p_plus_a - 1.0)
    r = 0.5 * (1.0 + x)
    w = w * (1.0 + r) ** e
    return r * r, w / w.sum()


def g_star_tail(n, a, p, u):
    """Upper tail of the two-block statistic on the chi-square-ratio scale.

    Evaluates ``integral over t >= 0 of P{chi2_a / chi2_{n-p} >= u / (1+t)}``
    against the law of ``chi2_{p-a} / chi2_{n-p+a}``.  With ``s = t / (1+t)``
    a Beta((p-a)/2, (n-p+a)/2) variable, the integrand carries the branch
    point ``(1-s)**(a/2)``; the substitution ``s = 1 - r**2`` makes it
    analytic in ``r``, where a Gauss-Jacobi rule integrates it.  Rules of
    ``GJ_NODES``, ``2 * GJ_NODES`` and ``4 * GJ_NODES`` nodes are evaluated
    in turn; the value is the finer rule of the first consecutive pair that
    agrees within ``QUAD_ABS_TOL``.

    Degenerate cases: ``a == p`` collapses to ``g_ratio_tail(p, n-p, u)``;
    ``a == 0`` is the point mass at zero.

    Raises
    ------
    QuadratureError
        If no consecutive pair of the ladder agrees within
        ``QUAD_ABS_TOL``; the last difference is attached as the error
        estimate.
    """
    n = int(n)
    a = int(a)
    p = int(p)
    if n - p <= 0:
        raise ValueError("need n > p")
    if not 0 <= a <= p:
        raise ValueError(f"need 0 <= a <= p, got a={a}, p={p}")
    if a == 0:
        return 1.0 if u <= 0.0 else 0.0
    if u <= 0.0:
        return 1.0
    if a == p:
        return g_ratio_tail(p, n - p, u)

    def rule(nodes):
        one_minus_s, w = _mixing_rule(nodes, p - a, n - p + a)
        v = u * one_minus_s
        return float(w @ betainc((n - p) / 2.0, a / 2.0, 1.0 / (1.0 + v)))

    coarse = rule(GJ_NODES)
    for nodes in (2 * GJ_NODES, 4 * GJ_NODES):
        fine = rule(nodes)
        diff = abs(fine - coarse)
        if diff <= QUAD_ABS_TOL:
            return min(1.0, max(0.0, fine))
        coarse = fine
    raise QuadratureError(
        f"convolution tail quadrature did not reach tolerance {QUAD_ABS_TOL}",
        error_estimate=diff,
    )


def student_t_cdf(x, df):
    """Student-t distribution function (``scipy.special.stdtr``)."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    return float(stdtr(df, x))


def student_t_upper_quantile(df, alpha):
    """Upper-``alpha`` quantile of the Student-t distribution.

    Uses the symmetry ``t_{1-alpha} = -t_alpha`` so small ``alpha`` keep
    full relative precision (``scipy.special.stdtrit``).
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(-stdtrit(df, alpha))
