import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaincc, betaln
from scipy.stats import t as scipy_t

from conetest import (
    dist,
    g_ratio_cdf,
    g_ratio_tail,
    g_star_tail,
    student_t_cdf,
    student_t_upper_quantile,
)
from conetest.exceptions import QuadratureError


def quad_star_tail(n, a, p, u):
    """Adaptive-quadrature reference for ``g_star_tail`` in the Beta variable ``s``."""
    alpha, beta = (p - a) / 2.0, (n - p + a) / 2.0

    def integrand(s):
        v = u * (1.0 - s)
        log_density = (alpha - 1.0) * np.log(s) + (beta - 1.0) * np.log1p(-s)
        return betaincc(a / 2.0, (n - p) / 2.0, v / (1.0 + v)) * np.exp(
            log_density - betaln(alpha, beta)
        )

    mean = alpha / (alpha + beta)
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
        for lo, hi in ((0.0, mean), (mean, 1.0))
    )


def quad_star_tail_r(n, a, p, u):
    """Adaptive-quadrature reference in ``r = sqrt(1 - s)``, split near ``r = u**-0.5``.

    For large ``u`` the integrand turns over at ``r`` of order ``u**-0.5``;
    the breakpoints let QUADPACK resolve it where the ``s`` form warns.
    """
    alpha, beta = (p - a) / 2.0, (n - p + a) / 2.0

    def integrand(r):
        v = u * r * r
        log_density = (2.0 * beta - 1.0) * np.log(r) + (alpha - 1.0) * np.log1p(-r * r)
        return betaincc(a / 2.0, (n - p) / 2.0, v / (1.0 + v)) * 2.0 * np.exp(
            log_density - betaln(alpha, beta)
        )

    k = u**-0.5
    edges = [0.0] + [x for x in (k, 10.0 * k, 100.0 * k) if x < 1.0] + [1.0]
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)[0]
        for lo, hi in zip(edges, edges[1:])
    )


STAR_GRID = [
    (n, a, p)
    for n in (4, 6, 10, 30, 200, 1000)
    for p in range(2, min(n, 11))
    for a in range(1, p)
]


class TestRatioCdf:
    def test_symmetric_point(self):
        # Two independent chi-squares with one degree of freedom each are
        # exchangeable, so their ratio is below 1 with probability 1/2.
        assert g_ratio_cdf(1, 1, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero_df_point_mass(self):
        assert g_ratio_cdf(0, 5, 0.5) == 1.0
        assert g_ratio_cdf(0, 5, 0.0) == 1.0
        assert g_ratio_cdf(0, 5, -0.1) == 0.0
        assert g_ratio_tail(0, 5, 0.5) == 0.0
        assert g_ratio_tail(0, 5, 0.0) == 1.0

    def test_cdf_tail_complement(self):
        for a, b, u in [(2, 5, 0.8), (3, 17, 0.2), (1, 9, 2.5)]:
            assert g_ratio_cdf(a, b, u) + g_ratio_tail(a, b, u) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_against_ratio_sampling_oracle(self, rng):
        n_mc = 10_000_000
        ratio = rng.chisquare(2, n_mc) / rng.chisquare(5, n_mc)
        emp = float(np.mean(ratio <= 0.8))
        se = np.sqrt(emp * (1 - emp) / n_mc)
        assert abs(g_ratio_cdf(2, 5, 0.8) - emp) <= 3 * se

    def test_negative_df_rejected(self):
        with pytest.raises(ValueError):
            g_ratio_cdf(-1, 5, 0.5)
        with pytest.raises(ValueError):
            g_ratio_cdf(2, 0, 0.5)


class TestRatioTailLargeArgument:
    """Closed forms of the ratio tail hold to 1e-13 relative out to u = 1e10."""

    U = np.logspace(-3, 10, 27)

    @pytest.mark.parametrize("b", [1, 2, 5, 17])
    def test_two_numerator_df(self, b):
        for u in self.U:
            expect = (1.0 + u) ** (-b / 2.0)
            assert g_ratio_tail(2, b, u) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_one_and_one_df(self):
        for u in self.U:
            expect = 2.0 / np.pi * np.arctan(u**-0.5)
            assert g_ratio_tail(1, 1, u) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_convolution_tail_closed_form(self):
        # n - p = 2, a = 2, p = 4: the branch tail is 1/(1 + w) and
        # s = t/(1+t) ~ Beta(1, 2), so the tail is the integral over y in
        # (0, 1) of 2y / (1 + u y), i.e. 2/u - 2 log(1 + u) / u**2.
        for u in np.logspace(0.0, 4.5, 19):
            expect = 2.0 / u - 2.0 * np.log1p(u) / u**2
            assert g_star_tail(6, 2, 4, u) == pytest.approx(expect, rel=1e-14, abs=0.0)


class TestConvolutionTail:
    def test_degenerate_a_equals_p(self):
        for u in (0.1, 0.7, 2.0):
            assert g_star_tail(20, 3, 3, u) == pytest.approx(
                g_ratio_tail(3, 17, u), abs=1e-12
            )

    def test_full_tail_at_zero(self):
        assert g_star_tail(20, 2, 4, 0.0) == 1.0
        assert g_star_tail(20, 0, 4, 0.5) == 0.0
        assert g_star_tail(20, 0, 4, 0.0) == 1.0

    def test_two_stage_sampling_oracle(self, rng):
        n, a, p, u = 20, 2, 4, 0.5
        n_mc = 2_000_000
        r = rng.chisquare(a, n_mc) / rng.chisquare(n - p, n_mc)
        t = rng.chisquare(p - a, n_mc) / rng.chisquare(n - p + a, n_mc)
        emp = float(np.mean(r * (1.0 + t) >= u))
        assert abs(g_star_tail(n, a, p, u) - emp) <= 2e-3

    def test_monotone_in_u(self):
        vals = [g_star_tail(15, 2, 3, u) for u in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_monotone_in_a(self):
        # More numerator degrees of freedom push the tail up.
        vals = [g_star_tail(18, a, 4, 0.6) for a in (1, 2, 3, 4)]
        assert all(x <= y + 1e-7 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n, a, p", STAR_GRID)
    def test_quadrature_oracle(self, n, a, p):
        # The grid holds odd a with n - p = 1 (e.g. n=10, a=1, p=9), where
        # the integrand has a (1 - s)**(a/2) branch point in s.
        for u in (1e-3, 0.1, 1.0, 10.0):
            assert abs(g_star_tail(n, a, p, u) - quad_star_tail(n, a, p, u)) <= 1e-10

    @pytest.mark.parametrize("p", [9, 12, 20, 40])
    @pytest.mark.parametrize("u", [5e6, 6e7, 1e9])
    def test_large_u_small_df_certified(self, p, u):
        # n = p + 1, a = 1: the 64- and 128-node rules disagree at some of
        # these points and the 256-node rule certifies the value.
        got = g_star_tail(p + 1, 1, p, u)
        assert abs(got - quad_star_tail_r(p + 1, 1, p, u)) <= dist.QUAD_ABS_TOL

    def test_uncertified_rule_raises(self, monkeypatch):
        monkeypatch.setattr(dist, "GJ_NODES", 1)
        with pytest.raises(QuadratureError) as info:
            g_star_tail(10, 1, 9, 10.0)
        assert info.value.error_estimate > dist.QUAD_ABS_TOL

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            g_star_tail(5, 2, 5, 0.5)
        with pytest.raises(ValueError):
            g_star_tail(20, 5, 4, 0.5)


class TestStudentT:
    def test_cdf_matches_scipy(self):
        for df in (1, 4, 19):
            for x in (-3.0, -0.7, 0.0, 0.5, 2.2):
                assert student_t_cdf(x, df) == pytest.approx(
                    scipy_t.cdf(x, df), abs=1e-12
                )

    def test_quantile_matches_scipy(self):
        for df in (2, 11, 19):
            for alpha in (0.2, 0.05, 0.0125, 0.001):
                assert student_t_upper_quantile(df, alpha) == pytest.approx(
                    scipy_t.ppf(1 - alpha, df), abs=1e-8
                )

    def test_quantile_round_trip(self):
        q = student_t_upper_quantile(14, 0.03)
        assert 1.0 - student_t_cdf(q, 14) == pytest.approx(0.03, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            student_t_upper_quantile(0, 0.05)
        with pytest.raises(ValueError):
            student_t_upper_quantile(5, 1.5)
