"""Null-distribution building blocks.

``g_ratio_cdf(a, b, u)`` is the distribution function of a ratio of two
independent chi-square variables (no degree-of-freedom normalization), with
the convention that zero degrees of freedom in the numerator means a point
mass at zero.  ``g_star_tail`` is the upper tail of the product
``(chi2_a / chi2_{n-p}) * (1 + chi2_{p-a} / chi2_{n-p+a})`` with all four
chi-squares independent, evaluated by Gauss rules and certified when two
consecutive rules of a bounded node ladder agree in relative terms.
"""

import functools
import math

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammaln, stdtr, stdtrit

from .exceptions import QuadratureError

# Relative tolerance between two certifying convolution-tail rules, and the
# node count of the smallest rule; the ladder is GJ_NODES * (1, 2, 4, 8, 16).
# Two rules that are both below _FLOOR also agree: scipy.special.betainc
# returns 0 for some ratio tails from about 1e-283 down, so a tail there
# has no relative precision to certify.
QUAD_RTOL = 1e-12
GJ_NODES = 16
_RUNGS = 5
_FLOOR = 1e-280
# The far-tail rule integrates where the log integrand is within this many
# nats of its largest mass, and drops what lies beyond e**-800.
_WINDOW_NATS = 60.0
_DROPPED_NATS = 800.0
# From this half denominator degrees of freedom on, the ratio tails of both
# quadratures, the Jacobi rules' and the far-tail rule's (:func:`_beta_tails`),
# correct the rounding of 1/(1+v); below it that rounding costs less than
# about 1e-13 relative.
_ROUNDED_M2 = 500.0


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
    """P{chi2_a / chi2_b >= u}; complement of :func:`g_ratio_cdf`.

    ``a`` may be one numerator dimension or a 1-D sequence of them; the
    result is then the array of tails from one ``scipy.special`` call, each
    equal to its scalar call.
    """
    # np.ndim costs about 1 us, as much as the betainc call it precedes.
    if isinstance(a, np.ndarray):
        scalar = a.ndim == 0
    else:
        scalar = isinstance(a, (int, float, np.number)) or np.ndim(a) == 0
    if scalar:
        _check_df(a, b)
        if a == 0:
            return 1.0 if u <= 0.0 else 0.0
        if u <= 0.0:
            return 1.0
    else:
        a = np.asarray(a)
        if a.ndim != 1:
            raise ValueError("a must be a number or a 1-D sequence")
        least = min(a.tolist(), default=1)  # a few dimensions: cheaper than a numpy reduction
        _check_df(least, b)
        if u <= 0.0:
            return np.ones(a.shape)
    # r/(1+r) ~ Beta(a/2, b/2).  Below u = 1 the tail is the complement at
    # u/(1+u), which keeps its relative precision where 1/(1+u) rounds;
    # above, 1/(1+r) ~ Beta(b/2, a/2) at 1/(1+u) keeps it at large u.
    if u < 1.0:
        tail = betaincc(a / 2.0, b / 2.0, u / (1.0 + u))
    else:
        tail = betainc(b / 2.0, a / 2.0, 1.0 / (1.0 + u))
    if scalar:
        return float(tail)
    if least == 0:
        tail[a == 0] = 0.0  # chi2_0 is a point mass at zero
    return tail


@functools.lru_cache(maxsize=None)
def _jacobi_rule(nodes, e, b):
    """Gauss rule on (0, 1) for the weight ``(1-y)**e * y**b``, weights summing to 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix and
    the weights the squared first components of its eigenvectors.  Unlike
    ``scipy.special.roots_jacobi``, whose weights carry the factor
    ``2**(e+b+1) B(e+1, b+1)``, nothing overflows at large ``b``.
    """
    k = np.arange(nodes)
    s = 2.0 * k + e + b
    diag = np.empty(nodes)
    diag[0] = (b - e) / (s[0] + 2.0)  # the general formula is 0/0 when e + b = 0
    diag[1:] = (b - e) * (b + e) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + e) * (k + b) * (k + e + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))  # eigh reads the lower triangle
    return 0.5 * (1.0 + x), vec[0] ** 2


@functools.lru_cache(maxsize=1024)
def _mixing_rule(nodes, n, p, dims):
    """Nodes ``1 - s`` and weights of the Beta mixing laws of branches ``dims``, stacked.

    The Beta((p-a)/2, (n-p+a)/2) density in ``s`` becomes, in ``r`` on
    (0, 1), ``(1-r)**e (1+r)**e r**(n-p+a-1)`` with ``e = (p-a)/2 - 1``: a
    Jacobi weight times the smooth factor ``(1+r)**e``, normalized here.
    Row ``j`` holds branch ``dims[j]``; the last item is the column of
    ``a / 2``.
    """
    x, w = [], []
    for a in dims:
        e = (p - a) / 2.0 - 1.0
        r, v = _jacobi_rule(nodes, e, n - p + a - 1.0)
        v = v * (1.0 + r) ** e
        x.append(r * r)
        w.append(v / v.sum())
    return np.array(x), np.array(w), np.array(dims)[:, None] / 2.0


def _beta_tails(m2, a2, v):
    """``P{chi2_a / chi2_m >= v}`` at an array ``v > 0`` as ``betainc(m2, a2, 1/(1+v))``.

    ``y = 1/(1+v)`` rounds by about ``eps`` relative, which costs the tail
    about ``eps m2 v`` relative.  From ``m2 = _ROUNDED_M2`` on that is taken
    out to first order: ``betainc`` is exact at the ``v' = (1-y)/y`` of the
    rounded ``y``, and the tail's rate of decrease in ``v``, ``y**2`` times
    the Beta(m2, a2) density at ``y``, carries the value from ``v'`` to ``v``.
    """
    y = 1.0 / (1.0 + v)
    tail = betainc(m2, a2, y)
    if m2 < _ROUNDED_M2:
        return tail
    lv = np.log1p(v)
    rate = np.exp((a2 - 1.0) * np.log(v) - (m2 + a2) * lv - betaln(m2, a2))
    return tail + rate * ((1.0 - y) / y - v)


def _first_rung(n, dims, p, weights):
    """``u -> sum_j weights[j] * g_star_tail(n, dims[j], p, u)`` on the first rung alone.

    The ``GJ_NODES``-node rule of every branch, uncertified: an
    approximation that seeds a root search, not a tail value.  One
    ``betainc`` call evaluates every branch: the ``a = p`` branch, the ratio
    tail, is one node at ``r = 1`` with weight 1, and ``a = 0`` and
    zero-weight branches, which add nothing above ``u = 0``, are left out.
    ``None`` where no branch with ``0 < a < p`` has weight.
    """
    n, p = int(n), int(p)
    mass = {int(k): float(w) for k, w in zip(dims, weights) if w > 0.0}
    inner = tuple(k for k in mass if 0 < k < p)
    if not inner:
        return None
    x, w, a2 = _mixing_rule(GJ_NODES, n, p, inner)
    w = w * np.array([mass[k] for k in inner])[:, None]
    x, w, a2 = x.ravel(), w.ravel(), np.repeat(a2.ravel(), GJ_NODES)
    if p in mass:
        x, w, a2 = np.append(x, 1.0), np.append(w, mass[p]), np.append(a2, p / 2.0)
    m2 = (n - p) / 2.0
    return lambda u: float(np.dot(w, _beta_tails(m2, a2, u * x)))


def _agree(coarse, fine):
    return (np.abs(fine - coarse) <= QUAD_RTOL * fine) | (np.maximum(coarse, fine) <= _FLOOR)


def _stirling_tail(z):
    return 1.0 / (12.0 * z) - 1.0 / (360.0 * z**3) + 1.0 / (1260.0 * z**5) - 1.0 / (1680.0 * z**7)


def _log_beta(a, b):
    """``log B(a, b)`` to about 1e-15 absolute.

    ``scipy.special.betaln`` loses ``log Gamma(a + b) - log Gamma(b)`` to
    cancellation at large ``b`` (about 1e-9 at ``b = 5e5``); from ``b = 20``
    on, Stirling's series gives that difference with no cancellation (its
    first omitted term is below 2e-15).
    """
    if b < 20.0:
        return float(betaln(a, b))
    rise = (
        (b - 0.5) * math.log1p(a / b) + a * math.log(b + a) - a
        + _stirling_tail(b + a) - _stirling_tail(b)
    )
    return float(gammaln(a)) - rise


def _far_tail(n, a, p, u):
    """One branch of :func:`g_star_tail` by Gauss rules where its integrand has its mass.

    In ``tau = -log(1 - s)`` the Beta(al, be) mixing law has density
    ``exp(-be tau) (1 - exp(-tau))**(al-1) / B(al, be)``, and the integrand
    multiplies it by the ratio tail at ``u exp(-tau)`` (the ladder's
    :func:`_beta_tails`); both are evaluated in log space, so that no factor
    of a weight carries a magnitude the integrand then cancels.  A
    log-spaced scan finds where ``tau`` times the integrand peaks and ends
    the range where it has fallen ``_WINDOW_NATS`` below that peak.  The
    range splits at ``tau = log u`` (``r = u**-0.5``), where the ratio tail
    turns from power-law decay towards 1: a Gauss-Jacobi rule whose weight
    is the non-analytic part of the mixing law's endpoint factor
    ``tau**(al-1)`` below, a Gauss-Legendre rule above.
    """
    al, be = (p - a) / 2.0, (n - p + a) / 2.0
    a2, m2 = a / 2.0, (n - p) / 2.0
    log_norm = _log_beta(al, be)

    def log_integrand(tau):
        with np.errstate(divide="ignore"):
            return (
                np.log(_beta_tails(m2, a2, u * np.exp(-tau)))
                - be * tau + (al - 1.0) * np.log(-np.expm1(-tau)) - log_norm
            )

    # Past hi the ratio tail is at most 1 and the density below
    # exp(-_DROPPED_NATS); the scan starts well inside the law's scale 1/be.
    split = math.log(u)
    hi = max(split, 0.0) + max(_DROPPED_NATS - log_norm, 1.0) / be
    lo = 1e-3 * min(hi, 1.0 / be)
    scan = np.geomspace(lo, hi, int(4.0 * math.log(hi / lo)) + 2)
    mass = log_integrand(scan) + np.log(scan)
    top = int(np.argmax(mass))
    if mass[top] == -np.inf:
        return 0.0
    past = np.flatnonzero(mass[top:] < mass[top] - _WINDOW_NATS)
    end = scan[top + past[0]] if past.size else hi
    # The Jacobi weight takes only the non-analytic part of the endpoint
    # factor (1 - exp(-tau))**(al-1) ~ tau**(al-1), an exponent in
    # (-1/2, 0, 1/2); a larger power stays in the integrand, where a weight's
    # rounding cannot meet the integrand's size near tau = 0.
    edge = al - 1.0 - max(0.0, math.floor(al - 1.0))
    if 0.0 < split < end:
        pieces = ((0.0, split, edge), (split, end, 0.0))
    else:
        pieces = ((0.0, end, edge),)

    def rule(nodes):
        # The integral over (lo, hi) of (tau - lo)**b g(tau) is
        # (hi - lo)**(b+1) / (b+1) times the normalized rule's sum.
        taus, logs = [], []
        for lo_, hi_, b in pieces:
            y, w = _jacobi_rule(nodes, 0.0, b)
            taus.append(lo_ + (hi_ - lo_) * y)
            logs.append(np.log(w * (hi_ - lo_) ** (b + 1.0) / (b + 1.0)) - b * np.log(taus[-1] - lo_))
        tau = np.concatenate(taus)
        return float(np.sum(np.exp(log_integrand(tau) + np.concatenate(logs))))

    coarse = rule(GJ_NODES)
    for rung in range(1, _RUNGS):
        fine = rule(GJ_NODES << rung)
        if _agree(coarse, fine):
            return fine
        diff, coarse = abs(fine - coarse), fine
    raise QuadratureError(
        f"convolution tail quadrature did not reach relative tolerance {QUAD_RTOL}",
        error_estimate=diff / fine if fine > 0.0 else math.inf,
    )


def g_star_tail(n, a, p, u):
    """Upper tail of the two-block statistic on the chi-square-ratio scale.

    Evaluates ``integral over t >= 0 of P{chi2_a / chi2_{n-p} >= u / (1+t)}``
    against the law of ``chi2_{p-a} / chi2_{n-p+a}``.  With ``s = t / (1+t)``
    a Beta((p-a)/2, (n-p+a)/2) variable, the integrand carries the branch
    point ``(1-s)**(a/2)``; the substitution ``s = 1 - r**2`` makes it
    analytic in ``r``, where a Gauss-Jacobi rule integrates it.  Rules of
    ``GJ_NODES * (1, 2, 4, 8, 16)`` nodes are evaluated in turn; a branch's
    value is the finer rule of the first consecutive pair whose difference
    is within ``QUAD_RTOL`` of it, or which are both below 1e-280 (where
    ``scipy.special.betainc`` starts to return 0 for the ratio tail).  One
    loop runs the rungs, each on the branches no earlier pair certified.
    From ``(n - p) / 2 = 500`` on, the ratio tails of every rule, and of the
    far-tail rule below, are corrected for the rounding of ``1 / (1 + v)``
    (:func:`_beta_tails`), which would otherwise cost about
    ``eps (n - p) / 2`` relative.

    Where no pair agrees, the Jacobi weights' absolute rounding, about
    ``eps`` times the largest weight, can exceed a far-tail value, and a
    rule in ``r`` cannot resolve a turn near ``r = u**-0.5`` far from its
    mass.  The branch is then integrated in ``tau = -log(1 - s)`` over the
    range that holds its mass, split at ``r = u**-0.5``, by rules of the
    same ladder with the integrand evaluated in log space (:func:`_far_tail`).
    Every branch value is clipped at 1.

    ``a`` may be one branch dimension or a 1-D sequence of them; each rung
    then evaluates every uncertified branch in one ``betainc`` call, and the
    result is the array of branch tails, each equal to its scalar call.

    Degenerate cases: ``a == p`` collapses to ``g_ratio_tail(p, n-p, u)``;
    ``a == 0`` is the point mass at zero.

    Raises
    ------
    QuadratureError
        If no consecutive pair of either ladder agrees within
        ``QUAD_RTOL``; the last relative difference is attached as the
        error estimate.
    """
    n = int(n)
    p = int(p)
    scalar = np.ndim(a) == 0
    dims = [int(a)] if scalar else [int(k) for k in a]
    if n - p <= 0:
        raise ValueError("need n > p")
    if not all(0 <= k <= p for k in dims):
        raise ValueError(f"need 0 <= a <= p, got a={a}, p={p}")
    if u <= 0.0:
        return 1.0 if scalar else np.ones(len(dims))
    tails = np.zeros(len(dims))
    live = np.flatnonzero([0 < k < p for k in dims])
    m2 = (n - p) / 2.0
    for rung in range(_RUNGS):
        if not live.size:
            break
        x, w, a2 = _mixing_rule(GJ_NODES << rung, n, p, tuple(dims[i] for i in live))
        fine = (w * _beta_tails(m2, a2, u * x)).sum(axis=1)
        if rung:
            done = _agree(coarse, fine)
            tails[live[done]] = fine[done]
            live, fine = live[~done], fine[~done]
        coarse = fine
    for i in live:
        tails[i] = _far_tail(n, dims[i], p, u)
    tails = np.minimum(tails, 1.0)
    if p in dims:
        tails[[k == p for k in dims]] = g_ratio_tail(p, n - p, u)
    return float(tails[0]) if scalar else tails


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
