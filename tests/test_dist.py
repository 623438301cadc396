import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincc, betaln
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
    """Adaptive-quadrature reference for ``g_star_tail`` in the Beta variable ``s``.

    The Beta density is normalized by its own quadrature, as ``betaln``
    loses relative accuracy at large ``n`` (2.3e-10 at n = 1e6).  The
    pieces break at multiples of the mean, near which the density gathers
    as ``n`` grows.
    """
    alpha, beta = (p - a) / 2.0, (n - p + a) / 2.0

    def density(s):
        return np.exp((alpha - 1.0) * np.log(s) + (beta - 1.0) * np.log1p(-s))

    def integrand(s):
        v = u * (1.0 - s)
        return betaincc(a / 2.0, (n - p) / 2.0, v / (1.0 + v)) * density(s)

    mean = alpha / (alpha + beta)
    edges = [0.0] + [x for x in mean * 4.0 ** np.arange(4) if x < 1.0] + [1.0]
    num, den = (
        sum(
            integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for lo, hi in zip(edges, edges[1:])
        )
        for f in (integrand, density)
    )
    return num / den


def rel_star_tail(n, a, p, u):
    """Relative-only adaptive-quadrature reference for ``g_star_tail`` (``epsabs = 0``).

    Below ``r = 2**-0.5`` it integrates in ``r = sqrt(1 - s)``, with
    breakpoints at ``10**k u**-0.5`` where the integrand turns over for
    large ``u``; above, in ``s``, where floating point resolves the
    ``s**((p-a)/2 - 1)`` endpoint that the mass of a large-``n`` law sits
    at, with breakpoints at ``4**k`` times the mean of ``s``.  The ratio
    tail takes the split of ``g_ratio_tail``, and the result is divided by
    the same quadrature of the density, as ``betaln`` loses relative
    accuracy at large ``n``.  QUADPACK's warning that it cannot certify its
    own 1e-13 is silenced: on the grid below it comes up only where the
    tail is near the smallest normal float (n = 100, p = 12, u = 1e7) and at
    n = 1e6, a = 6, p = 8, u = 1e-3, where the value still agrees with
    ``g_star_tail`` to 1e-14.
    """
    alpha, beta = (p - a) / 2.0, (n - p + a) / 2.0
    log_b = betaln(alpha, beta)

    def tail(v):
        if v < 1.0:
            return betaincc(a / 2.0, (n - p) / 2.0, v / (1.0 + v))
        return betainc((n - p) / 2.0, a / 2.0, 1.0 / (1.0 + v))

    def density_r(r):
        return 2.0 * np.exp((2.0 * beta - 1.0) * np.log(r) + (alpha - 1.0) * np.log1p(-r * r) - log_b)

    def density_s(s):
        return np.exp((alpha - 1.0) * np.log(s) + (beta - 1.0) * np.log1p(-s) - log_b)

    top = 0.5**0.5
    r_edges = [0.0] + [x for x in u**-0.5 * 10.0 ** np.arange(-1, 8) if x < top] + [top]
    s_edges = [0.0] + [x for x in alpha / (alpha + beta) * 4.0 ** np.arange(-2, 12) if x < 0.5]
    s_edges.append(0.5)

    def total(f_r, f_s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return sum(
                integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                for f, edges in ((f_r, r_edges), (f_s, s_edges))
                for lo, hi in zip(edges, edges[1:])
            )

    num = total(lambda r: tail(u * r * r) * density_r(r), lambda s: tail(u * (1.0 - s)) * density_s(s))
    return num / total(density_r, density_s)


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

    @pytest.mark.parametrize("b", [1001, 99999, 999999])
    def test_small_argument_at_large_denominator_df(self, b):
        # 1/(1+u) rounds at small u; the tail there is the complement at
        # u/(1+u).  u = 6.3e-10 is about the n = 1e6, p = 1 LRT critical
        # value at alpha 0.49.  With b u / 2 <= 1/2 the closed form itself
        # is good to a few ulp.
        for u in [6.3e-10, 1e-8, *np.logspace(-14.0, -np.log10(b), 9)]:
            expect = np.exp(-b / 2.0 * np.log1p(u))
            assert g_ratio_tail(2, b, u) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_convolution_tail_closed_form(self):
        # n - p = 2, a = 2, p = 4: the branch tail is 1/(1 + w) and
        # s = t/(1+t) ~ Beta(1, 2), so the tail is the integral over y in
        # (0, 1) of 2y / (1 + u y), i.e. 2/u - 2 log(1 + u) / u**2.
        for u in np.logspace(0.0, 12.0, 49):
            expect = 2.0 / u - 2.0 * np.log1p(u) / u**2
            assert g_star_tail(6, 2, 4, u) == pytest.approx(expect, rel=1e-14, abs=0.0)


class TestRatioTailSequence:
    """A 1-D sequence of numerator dimensions gives the scalar calls' tails."""

    @pytest.mark.parametrize("n", [3, 10, 30, 1000, 10**6])
    def test_sequence_equals_scalar_calls(self, n):
        p = 2 if n == 3 else 8
        dims = np.arange(p + 1)
        for u in (0.0, 1e-7, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 4.0, 1e9):
            got = g_ratio_tail(dims, n - p, u)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, [g_ratio_tail(int(k), n - p, u) for k in dims]), u
            assert np.array_equal(g_ratio_tail(list(dims[::-1]), n - p, u), got[::-1])
        assert np.array_equal(g_ratio_tail([], n - p, 0.5), [])

    def test_sequence_checks_every_dimension(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            g_ratio_tail([2, -1], 5, 0.5)
        with pytest.raises(ValueError, match="1-D"):
            g_ratio_tail([[1, 2]], 5, 0.5)


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

    @pytest.mark.parametrize("n, a, p", [(1040, 1, 3), (5000, 2, 5), (100_000, 1, 3), (10**6, 3, 8)])
    def test_large_n_quadrature_oracle(self, n, a, p):
        # scipy.special.roots_jacobi overflows its weights from n - p + a of
        # about 1034 on; the Golub-Welsch rule has no such limit.
        for u in (0.5 * p / n, p / n, 3.0 * p / n):
            assert g_star_tail(n, a, p, u) == pytest.approx(quad_star_tail(n, a, p, u), rel=1e-10)

    @pytest.mark.parametrize("p", [9, 12, 20, 40])
    @pytest.mark.parametrize("u", [5e6, 6e7, 1e9])
    def test_large_u_small_df_certified(self, p, u):
        # n = p + 1, a = 1: the integrand turns over near r = u**-0.5, far
        # below the mass of the Jacobi weight.
        got = g_star_tail(p + 1, 1, p, u)
        assert got == pytest.approx(rel_star_tail(p + 1, 1, p, u), rel=1e-10, abs=0.0)

    def test_uncertified_rule_raises(self, monkeypatch):
        monkeypatch.setattr(dist, "GJ_NODES", 1)
        with pytest.raises(QuadratureError) as info:
            g_star_tail(10, 1, 9, 10.0)
        assert info.value.error_estimate > dist.QUAD_RTOL

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            g_star_tail(5, 2, 5, 0.5)
        with pytest.raises(ValueError):
            g_star_tail(20, 5, 4, 0.5)


REL_GRID = [
    (n, p) for n in (4, 6, 10, 30, 100, 1000, 10**4, 10**6) for p in (2, 3, 5, 8, 12) if p < n
]


class TestRelativeAccuracy:
    """Relative error against the relative-only reference, far tails included."""

    U = np.logspace(-3.0, 12.0, 16)

    @pytest.mark.parametrize("n, p", REL_GRID)
    def test_relative_error(self, n, p):
        # Every branch 0 < a < p, at every u: none raises, and wherever the
        # tail is at least 1e-280 it is within 1e-10 of the reference.  A
        # rule certified to 1e-7 absolute reads far tails at large n - p
        # wrong by orders of magnitude (2e6 times the tail at n = 100,
        # a = 4, p = 5, u = 10).
        worst = 0.0
        for u in self.U:
            got = g_star_tail(n, range(1, p), p, u)
            for a, value in zip(range(1, p), got):
                expect = rel_star_tail(n, a, p, u)
                if expect >= 1e-280:
                    worst = max(worst, abs(value - expect) / expect)
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "n, a, p, u, expect",
        [(100, 4, 5, 10.0, 4.1189651320e-48), (120, 2, 3, 10.0, 3.5842487295e-61)],
    )
    def test_far_tail_values(self, n, a, p, u, expect):
        # High-precision values (mpmath, 40 digits, 40 pieces) to the
        # digits given.
        assert g_star_tail(n, a, p, u) == pytest.approx(expect, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("a", [1, 2])
    def test_far_tail_ratio_arguments_below_one(self, monkeypatch, a):
        # No Jacobi pair agrees here, and the far-tail rule's ratio tails
        # take arguments below 1, where they come from the ladder's
        # rounding-corrected kernel (n - p = 988).
        far = []
        rule = dist._far_tail
        monkeypatch.setattr(dist, "_far_tail", lambda *args: far.append(args) or rule(*args))
        got = g_star_tail(1000, a, 12, 1.0)
        assert far == [(1000, a, 12, 1.0)]
        assert got == pytest.approx(rel_star_tail(1000, a, 12, 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n, p, u", [(30, 3, 0.2), (60, 8, 0.3), (100, 5, 10.0), (11, 8, 1e9)])
    def test_branch_vector_equals_scalar_calls(self, n, p, u):
        # The points take the first pair, later rungs and the far-tail
        # rule; a = 0 and a = p are the closed forms.
        dims = range(p + 1)
        got = g_star_tail(n, dims, p, u)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [g_star_tail(n, a, p, u) for a in dims])
        assert np.array_equal(g_star_tail(n, [], p, u), [])

    def test_bench_shapes_certify_at_first_pair(self, monkeypatch):
        # The benchmark's UIT shapes, at critical values for alpha from
        # 0.001 to 0.3 and at half and twice them: every branch is
        # certified by the 16- and 32-node rules.
        from conetest import calibrate, stats

        rungs = []
        rule = dist._mixing_rule
        monkeypatch.setattr(dist, "_mixing_rule", lambda nodes, *a: rungs.append(nodes) or rule(nodes, *a))
        shapes = [(15, 2), (30, 3), (100, 5), (60, 8), (20, 3), (30, 5), (40, 6), (120, 3)]
        for n, p in shapes:
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.3):
                c = calibrate.sup_critical_value(stats.UIT_ORTHANT, alpha, n, p).value
                for u in (c / 2.0, c, 2.0 * c):
                    g_star_tail(n, range(p + 1), p, u)
        assert set(rungs) == {dist.GJ_NODES, 2 * dist.GJ_NODES}


    def test_large_n_critical_points_certify_on_jacobi_ladder(self, monkeypatch):
        # From n - p of 1000 on the Jacobi rules correct the rounding of
        # 1/(1+v), which costs about eps (n-p)/2 relative: uncorrected, the
        # rules disagree at 1e-12 from n of about 1e5 on, and the branch
        # ends on the far-tail rule.
        from conetest import calibrate, stats

        far = []
        rule = dist._far_tail
        monkeypatch.setattr(dist, "_far_tail", lambda *a: far.append(a) or rule(*a))
        for n in (10**4, 10**5, 10**6):
            for p in (3, 5):
                for alpha in (0.01, 0.05, 0.1):
                    c = calibrate.sup_critical_value(stats.UIT_ORTHANT, alpha, n, p).value
                    for u in (c / 2.0, c, 2.0 * c):
                        got = g_star_tail(n, range(1, p), p, u)
                        for a, value in zip(range(1, p), got):
                            expect = rel_star_tail(n, a, p, u)
                            assert abs(value - expect) <= 1e-12 * expect, (n, a, p, u)
        assert far == []


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
