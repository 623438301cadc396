"""Null-distribution building blocks.

``g_ratio_cdf(a, b, u)`` is the distribution function of a ratio of two
independent chi-square variables (no degree-of-freedom normalization), with
the convention that zero degrees of freedom in the numerator means a point
mass at zero.  ``g_star_tail`` is the upper tail of the product
``(chi2_a / chi2_{n-p}) * (1 + chi2_{p-a} / chi2_{n-p+a})`` with all four
chi-squares independent, evaluated by adaptive quadrature.
"""

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaincc, betaln, stdtr, stdtrit

from .exceptions import QuadratureError

# Absolute quadrature tolerance and subdivision cap for the convolution tail.
QUAD_ABS_TOL = 1e-7
QUAD_SUBDIV_CAP = 2000


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
    return float(betaincc(a / 2.0, b / 2.0, u / (1.0 + u)))


def _beta_logpdf(s, alpha, beta):
    return (alpha - 1.0) * np.log(s) + (beta - 1.0) * np.log1p(-s) - betaln(alpha, beta)


def g_star_tail(n, a, p, u):
    """Upper tail of the two-block statistic on the chi-square-ratio scale.

    Evaluates ``integral over t >= 0 of P{chi2_a / chi2_{n-p} >= u / (1+t)}``
    against the law of ``chi2_{p-a} / chi2_{n-p+a}`` by mapping ``t`` to
    ``s = t / (1 + t)`` (a Beta((p-a)/2, (n-p+a)/2) variable) and applying
    adaptive Gauss-Kronrod quadrature on (0, 1).

    Degenerate cases: ``a == p`` collapses to ``g_ratio_tail(p, n-p, u)``;
    ``a == 0`` is the point mass at zero.

    Raises
    ------
    QuadratureError
        If the requested absolute tolerance ``1e-7`` is not certified within
        the subdivision cap; the achieved error estimate is attached.
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
    alpha = (p - a) / 2.0
    beta = (n - p + a) / 2.0

    def integrand(s):
        return g_ratio_tail(a, n - p, u * (1.0 - s)) * np.exp(
            _beta_logpdf(s, alpha, beta)
        )

    out = integrate.quad(
        integrand,
        0.0,
        1.0,
        epsabs=QUAD_ABS_TOL,
        epsrel=0.0,
        limit=QUAD_SUBDIV_CAP,
        full_output=True,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > 10.0 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"convolution tail quadrature did not reach tolerance {QUAD_ABS_TOL}",
            error_estimate=abserr,
        )
    return float(min(1.0, max(0.0, value)))


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
