import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import multivariate_normal
from scipy.stats import t as scipy_t

from conetest import (
    CalibrationError,
    MixtureWeights,
    PriorSpec,
    bayes_critical_value,
    bayes_weights_b1,
    chi_bar_weights,
    exact_halfspace_critical_value,
    g_ratio_tail,
    g_star_tail,
    marginal_logdensity,
    null_tail,
    p_value,
    sup_critical_value,
    summarize,
)
from conetest import calibrate, stats
from conetest._batch import (
    factor_cov,
    orthant_active_set,
    sample_mean_cov,
    substream,
)
from conetest.calibrate import CLOSED_FORM, MONTE_CARLO

from conftest import compound_null, random_correlation, random_pd_matrix, row_major
from test_sample import make_summary


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def orthant_probability(cov, abseps=1e-6):
    """P{N(0, cov) <= 0} by Genz's algorithm (1 for an empty vector).

    Genz's estimate is randomized quasi-Monte Carlo; the seeded frozen
    distribution makes it the same on every run.
    """
    k = cov.shape[0]
    if k == 0:
        return 1.0
    if k == 1:
        return 0.5
    mvn = multivariate_normal(np.zeros(k), cov, seed=0, abseps=abseps, releps=0.0)
    return float(mvn.cdf(np.zeros(k)))


def subset_sum_weights(corr, abseps=1e-6):
    """Chi-bar-square weights from orthant probabilities (Kudo 1963).

    ``w_k`` sums, over subsets ``A`` of size ``k``, the orthant probability
    of the covariance of ``A`` given its complement ``C`` times that of
    ``inv(corr[C, C])``, each estimated to ``abseps``.
    """
    p = corr.shape[0]
    w = np.zeros(p + 1)
    for k in range(p + 1):
        for subset in combinations(range(p), k):
            a = list(subset)
            c = [i for i in range(p) if i not in subset]
            cond = corr[np.ix_(a, a)]
            inv_cc = np.zeros((0, 0))
            if c:
                inv_cc = np.linalg.inv(corr[np.ix_(c, c)])
                cond = cond - corr[np.ix_(a, c)] @ inv_cc @ corr[np.ix_(c, a)]
            w[k] += orthant_probability(cond, abseps) * orthant_probability(inv_cc, abseps)
    return w


class TestChiBarWeights:
    def test_identity_binomial(self):
        from math import comb

        for p in (1, 2, 3):
            w = chi_bar_weights(np.eye(p))
            expect = [comb(p, k) * 0.5**p for k in range(p + 1)]
            assert np.allclose(w.weights, expect, atol=1e-12)
            assert w.method == CLOSED_FORM

    def test_rho_half_closed_form(self):
        w = chi_bar_weights(corr2(0.5))
        assert w.weights[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert w.weights[0] == pytest.approx(0.25 - np.arcsin(0.5) / (2 * np.pi))
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_monte_carlo(self, rng):
        for p in (2, 3):
            sigma = random_correlation(rng, p)
            closed = chi_bar_weights(sigma)
            mc = chi_bar_weights(sigma, method=MONTE_CARLO, mc_samples=200_000, seed=5)
            for k in range(p + 1):
                se = max(mc.std_errors[k], 1e-6)
                assert abs(closed.weights[k] - mc.weights[k]) <= 4 * se

    def test_subset_sum_identity_matches_closed_form(self, rng):
        # Sums of Genz estimates at abseps 1e-6 were off by more than 1e-6
        # for 2 of 60 seeds; at 1e-7 the largest error over 60 seeds is 1.4e-7.
        sigma = random_correlation(rng, 3)
        got = subset_sum_weights(sigma, abseps=1e-7)
        assert np.allclose(got, chi_bar_weights(sigma).weights, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("p", [4, 5])
    def test_monte_carlo_matches_subset_sum(self, rng, p):
        sigma = random_correlation(rng, p)
        exact = subset_sum_weights(sigma)
        mc = chi_bar_weights(sigma, method=MONTE_CARLO, mc_samples=200_000, seed=11)
        assert np.all(np.abs(mc.weights - exact) <= 4 * np.maximum(mc.std_errors, 1e-6))

    def test_scale_invariance(self, rng):
        sigma = random_correlation(rng, 3)
        d = np.diag([0.3, 2.0, 11.0])
        w1 = chi_bar_weights(sigma)
        w2 = chi_bar_weights(d @ sigma @ d)
        assert np.allclose(w1.weights, w2.weights, atol=1e-12)

    def test_independent_seeds_agree(self, rng):
        sigma = random_correlation(rng, 4)
        w1 = chi_bar_weights(sigma, mc_samples=1_000_000, seed=1)
        w2 = chi_bar_weights(sigma, mc_samples=1_000_000, seed=2)
        joint_se = np.sqrt(w1.std_errors**2 + w2.std_errors**2)
        assert np.all(np.abs(w1.weights - w2.weights) <= 3 * np.maximum(joint_se, 1e-9))
        assert w1.weights.sum() == pytest.approx(1.0, abs=1e-3)

    def test_worker_count_does_not_change_result(self, rng):
        sigma = random_correlation(rng, 4)
        w1 = chi_bar_weights(sigma, mc_samples=60_000, seed=3, workers=1)
        w2 = chi_bar_weights(sigma, mc_samples=60_000, seed=3, workers=4)
        assert np.array_equal(w1.weights, w2.weights)

    @staticmethod
    def arcsine_weights(corr):
        """Closed forms for p <= 3 written out per size: arcsines of the
        correlations for sizes 0 and p, partial correlations for size 2."""

        def orthant_2(r):
            return 0.25 + np.arcsin(r) / (2.0 * np.pi)

        def orthant_3(c):
            return 0.125 + (np.arcsin(c[0, 1]) + np.arcsin(c[0, 2]) + np.arcsin(c[1, 2])) / (4.0 * np.pi)

        p = corr.shape[0]
        if p == 1:
            return np.array([0.5, 0.5])
        if p == 2:
            w2, w0 = orthant_2(corr[0, 1]), 0.25 - np.arcsin(corr[0, 1]) / (2.0 * np.pi)
            return np.array([w0, 1.0 - w0 - w2, w2])
        inv = np.linalg.inv(corr)
        d = 1.0 / np.sqrt(np.diag(inv))
        w = np.array([orthant_3(inv * np.outer(d, d)), 0.0, 0.0, orthant_3(corr)])
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            partial = (corr[i, j] - corr[i, k] * corr[j, k]) / np.sqrt(
                (1.0 - corr[i, k] ** 2) * (1.0 - corr[j, k] ** 2)
            )
            w[2] += 0.5 * orthant_2(partial)
            w[1] += 0.5 * (0.25 - np.arcsin(corr[i, j]) / (2.0 * np.pi))
        return w

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_closed_form_matches_arcsine_formulas(self, p):
        rng = np.random.default_rng(300 + p)
        for trial in range(200):
            # Every fifth correlation comes from only p + 1 normal rows, so it
            # is often close to singular.
            corr = self.near_singular(rng, p) if trial % 5 == 0 else random_correlation(rng, p)
            w = chi_bar_weights(corr).weights
            assert np.max(np.abs(w - self.arcsine_weights(corr))) <= 1e-15
            if p == 2:
                assert abs(w[0] + w[2] - 0.5) <= 1e-15

    @staticmethod
    def near_singular(rng, p):
        g = rng.standard_normal((p + 1, p))
        m = g.T @ g + 1e-6 * np.eye(p)
        d = 1.0 / np.sqrt(np.diag(m))
        return m * np.outer(d, d)

    def test_seed_required_for_monte_carlo(self):
        with pytest.raises(CalibrationError):
            chi_bar_weights(np.eye(4))

    def test_solver_error_names_replay_key(self, monkeypatch):
        from conetest import SolverError, _batch

        # A one-step cap fails the first draw that needs a second step.
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        corr = corr2(-0.9)
        with pytest.raises(SolverError, match=r"seed 6, stream key \[10\], chunk 0") as err:
            chi_bar_weights(corr, method=MONTE_CARLO, mc_samples=200, seed=6)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (6, [10], 0)
        # The key replays the draw.
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        y = rng.standard_normal((200, 2)) @ np.linalg.cholesky(corr).T
        assert y[d["draw"]].tolist() == d["y"]


class TestNullTail:
    def test_statistic_zero_includes_atom(self):
        assert null_tail(stats.UIT_HALFSPACE, 0.0, 20, 3) == 1.0
        assert null_tail(stats.LRT_HALFSPACE, -1.0, 20, 3) == 1.0

    def test_univariate_halfspace_is_half_tail(self):
        n = 15
        for c in (0.05, 0.3, 1.0):
            expect = 0.5 * g_ratio_tail(1, n - 1, c)
            assert null_tail(stats.LRT_HALFSPACE, c, n, 1) == pytest.approx(expect)

    def test_orthant_requires_weights(self):
        with pytest.raises(CalibrationError):
            null_tail(stats.UIT_ORTHANT, 0.5, 20, 3)

    def test_orthant_tail_matches_simulation(self):
        # Full pipeline check at moderate accuracy; the acceptance suite
        # repeats this at scale.
        n, p = 15, 3
        c = 2.0 / (n - 1)
        w = chi_bar_weights(np.eye(p))
        tail = null_tail(stats.UIT_ORTHANT, c, n, p, weights=w)
        from conetest._batch import batch_orthant

        rng = substream(77, 0)
        means, covs = sample_mean_cov(rng, None, np.eye(p), n, 40_000)
        _, q_proj, _ = batch_orthant(means, covs, n)
        emp = float(np.mean(q_proj / (n - 1) >= c))
        se = np.sqrt(emp * (1 - emp) / 40_000)
        assert abs(tail - emp) <= 3.5 * se


class TestTailProperties:
    def test_null_tail_nonincreasing_in_c(self):
        w = chi_bar_weights(np.eye(3))
        grid = np.linspace(0.01, 3.0, 12)
        for family, kwargs in (
            (stats.UIT_ORTHANT, {"weights": w}),
            (stats.LRT_ORTHANT, {"weights": w}),
            (stats.UIT_HALFSPACE, {}),
            (stats.LRT_HALFSPACE, {}),
        ):
            vals = [null_tail(family, c, 20, 3, **kwargs) for c in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sup_calibration_conservative_for_identity(self):
        # At the supremum-calibrated critical value the identity-covariance
        # mixture tail sits strictly below the level.
        for p, n in ((2, 15), (3, 20)):
            w = chi_bar_weights(np.eye(p))
            cv = sup_critical_value(stats.UIT_ORTHANT, 0.05, n, p)
            tail = null_tail(stats.UIT_ORTHANT, cv.value, n, p, weights=w)
            assert tail < 0.05


class TestFuitUitUnivariateConsistency:
    def test_rejections_agree_on_draws(self, rng):
        # At p = 1 the Bonferroni test and the halfspace projection test at
        # its own critical value are the same test.
        from conetest import fuit, uit_halfspace
        from conetest.stats import calibration_scale

        n, alpha = 12, 0.05
        cv = sup_critical_value(stats.UIT_HALFSPACE, alpha, n, 1).value
        for _ in range(1000):
            data = rng.standard_normal((n, 1)) + rng.normal(0, 0.4)
            s = summarize(data)
            rep = fuit(s, alpha)
            value = calibration_scale(uit_halfspace(s))
            assert rep.reject == bool(value >= cv)


class TestSupCriticalValue:
    def test_univariate_matches_t_quantile(self):
        n, alpha = 20, 0.05
        cv = sup_critical_value(stats.LRT_HALFSPACE, alpha, n, 1)
        t_q = scipy_t.ppf(1 - alpha, n - 1)
        assert cv.value == pytest.approx(t_q**2 / (n - 1), abs=1e-6)

    def test_round_trip(self):
        for family in (stats.LRT_HALFSPACE, stats.UIT_HALFSPACE):
            cv = sup_critical_value(family, 0.05, 20, 3)
            assert null_tail(family, cv.value, 20, 3) == pytest.approx(0.05, abs=1e-6)

    def test_monotone_in_alpha(self):
        c01 = sup_critical_value(stats.UIT_ORTHANT, 0.01, 20, 3).value
        c10 = sup_critical_value(stats.UIT_ORTHANT, 0.10, 20, 3).value
        assert c01 > c10

    def test_unattainable_alpha(self):
        with pytest.raises(CalibrationError):
            sup_critical_value(stats.LRT_HALFSPACE, 0.6, 20, 1)

    def test_exact_label_for_halfspace(self):
        cv = exact_halfspace_critical_value(stats.UIT_HALFSPACE, 0.05, 20, 3)
        assert cv.calibration == "exact_halfspace"
        with pytest.raises(CalibrationError):
            exact_halfspace_critical_value(stats.UIT_ORTHANT, 0.05, 20, 3)


class TestBayesWeights:
    def test_univariate_symmetry(self):
        prior = PriorSpec.inverse_wishart(np.eye(1), 3.0)
        w = bayes_weights_b1(10, 1, prior, mc_samples=60_000, seed=4)
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-3)
        assert abs(w.weights[0] - 0.5) <= 4 * w.std_errors[0]

    def test_large_df_approaches_identity_weights(self):
        p, n = 2, 20
        prior = PriorSpec.inverse_wishart(np.eye(p), 250.0)
        w = bayes_weights_b1(n, p, prior, mc_samples=120_000, seed=9)
        expect = [0.25, 0.5, 0.25]
        for k in range(p + 1):
            assert abs(w.weights[k] - expect[k]) <= 5 * max(w.std_errors[k], 1e-6)

    def test_two_seeds_agree(self):
        p, n = 2, 15
        prior = PriorSpec.inverse_wishart(np.eye(p), 6.0)
        w1 = bayes_weights_b1(n, p, prior, mc_samples=80_000, seed=11)
        w2 = bayes_weights_b1(n, p, prior, mc_samples=80_000, seed=12)
        joint = np.sqrt(w1.std_errors**2 + w2.std_errors**2)
        assert np.all(np.abs(w1.weights - w2.weights) <= 3 * np.maximum(joint, 1e-9))
        assert np.all(w1.weights[1:] > 0)

    @pytest.mark.parametrize(
        "p, n, seed, counts",
        [
            (3, 20, 1101, [808, 4801, 9217, 5174]),
            (8, 60, 1102, [1, 12, 143, 748, 2579, 5182, 6132, 4041, 1162]),
            (12, 60, 1103, [0, 0, 1, 18, 74, 415, 1211, 2693, 4469, 5224, 3879, 1694, 322]),
        ],
    )
    def test_stream_pinned(self, p, n, seed, counts):
        # Size counts of 20 000 draws (two chunks) as recorded once the
        # Bayes weights became chi_bar_weights' estimate at the prior scale,
        # on the weights' stream key.  A deliberate change of that stream
        # updates these numbers and says so in the change log.
        d = np.linspace(0.5, 2.0, p)
        scale = 0.6 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p))) * np.outer(d, d)
        prior = PriorSpec.inverse_wishart(scale, p + 4.0)
        for workers in (1, 2):
            w = bayes_weights_b1(n, p, prior, mc_samples=20_000, seed=seed, workers=workers)
            assert np.rint(w.weights * 20_000).astype(int).tolist() == counts

    def test_improper_prior_rejected(self):
        with pytest.raises(CalibrationError):
            bayes_weights_b1(10, 2, PriorSpec.haar(), mc_samples=100, seed=0)

    def test_df_bound_enforced(self):
        from conetest import DataError

        with pytest.raises(DataError):
            PriorSpec.inverse_wishart(np.eye(3), 1.5)


# The compound-null oracle's own stream and chunking: the substreams and the
# 16384-draw chunks of the Bayes estimator it once was, kept apart from the
# library's Monte-Carlo plan so that it stays independent of it.
ORACLE_STREAM = 11
ORACLE_CHUNK = 16384


def compound_null_counts(n, prior, mc_samples, seed):
    """Active-subset size counts of the compound inverse-Wishart null.

    The covariance is drawn from the prior, then the mean and scatter of
    ``n`` null-normal rows given it, and each draw is classified in its own
    sample covariance.  This was the Bayes weight estimator before it drew
    at the prior scale; it draws chunk ``j`` on the substream
    ``(ORACLE_STREAM, j)``, in the order of the power lab's prior view
    (``conftest.compound_null``).
    """
    p = prior.scale.shape[0]
    counts = np.zeros(p + 1, dtype=int)
    for chunk, start in enumerate(range(0, mc_samples, ORACLE_CHUNK)):
        rng = substream(seed, (ORACLE_STREAM, chunk))
        reps = min(ORACLE_CHUNK, mc_samples - start)
        means, c = row_major(compound_null(rng, prior.scale, prior.df, n, reps))
        free, _ = orthant_active_set(np.sqrt(n) * means, factor_cov(c, n))
        counts += np.bincount(free.sum(axis=1), minlength=p + 1)
    return counts


def equicorrelated(p, rho):
    return (1.0 - rho) * np.eye(p) + rho


class TestBayesWeightsAtPriorScale:
    """The compound null's size law is the chi-bar law of the prior scale.

    ``b1(k) = w(p, k; scale)`` for every ``n > p`` and ``df > p - 1``.
    """

    @pytest.mark.parametrize(
        "p, n, df, scale",
        [
            (2, 5, 3.5, random_pd_matrix(np.random.default_rng(2), 2)),
            (3, 4, 3.5, equicorrelated(3, 0.6)),
            (3, 40, 6.0, random_pd_matrix(np.random.default_rng(3), 3)),
            (3, 12, 30.0, equicorrelated(3, -0.4)),
        ],
        ids=["p2-random", "p3-n4-equi", "p3-random", "p3-negative"],
    )
    def test_compound_null_matches_closed_form(self, p, n, df, scale):
        m = 100_000
        rates = compound_null_counts(n, PriorSpec.inverse_wishart(scale, df), m, seed=31) / m
        w = chi_bar_weights(scale)
        assert w.method == CLOSED_FORM
        se = np.sqrt(w.weights * (1.0 - w.weights) / m)
        assert np.all(np.abs(rates - w.weights) <= 3 * se)

    def test_compound_null_matches_estimator_p5(self):
        p, n, df, m = 5, 12, 9.0, 100_000
        d = np.arange(1.0, p + 1)
        scale = random_pd_matrix(np.random.default_rng(5), p) * np.outer(d, d)
        prior = PriorSpec.inverse_wishart(scale, df)
        rates = compound_null_counts(n, prior, m, seed=32) / m
        w = bayes_weights_b1(n, p, prior, mc_samples=m, seed=33)
        joint = np.sqrt(rates * (1.0 - rates) / m + w.std_errors**2)
        assert np.all(np.abs(rates - w.weights) <= 3 * np.maximum(joint, 1e-9))

    def test_free_of_n_and_df(self):
        p, m, seed = 4, 5000, 7
        scale = random_pd_matrix(np.random.default_rng(4), p)
        ref = bayes_weights_b1(p + 1, p, PriorSpec.inverse_wishart(scale, p - 0.5), m, seed)
        for n in (p + 1, 20, 1000):
            for df in (p - 0.5, p + 4.0, 250.0):
                w = bayes_weights_b1(n, p, PriorSpec.inverse_wishart(scale, df), m, seed)
                assert np.array_equal(w.weights, ref.weights)
                assert np.array_equal(w.std_errors, ref.std_errors)

    def test_is_chi_bar_estimate_at_the_prior_scale(self):
        p, m, seed = 4, 25_000, 8
        scale = random_pd_matrix(np.random.default_rng(6), p)
        chi_bar = chi_bar_weights(scale, method=MONTE_CARLO, mc_samples=m, seed=seed)
        for workers in (1, 2):
            w = bayes_weights_b1(10, p, PriorSpec.inverse_wishart(scale, 6.0), m, seed, workers=workers)
            assert np.array_equal(w.weights, chi_bar.weights)
            assert np.array_equal(w.std_errors, chi_bar.std_errors)
            assert (w.method, w.mc_samples) == (MONTE_CARLO, m)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_monte_carlo_block_at_every_p(self, p):
        # Also at p <= 3 with a diagonal scale, where closed forms exist.
        m = 3000
        prior = PriorSpec.inverse_wishart(np.diag(np.arange(1.0, p + 1)), p + 1.0)
        w = bayes_weights_b1(p + 2, p, prior, m, 9)
        assert w.method == MONTE_CARLO and w.mc_samples == m
        assert np.array_equal(w.std_errors, np.sqrt(w.weights * (1.0 - w.weights) / m))


class TestBayesCriticalValue:
    def test_degenerate_weights_single_component(self):
        p, n, alpha = 3, 20, 0.05
        w = MixtureWeights(
            weights=np.array([0.0, 0.0, 0.0, 1.0]),
            std_errors=np.zeros(4),
            method=CLOSED_FORM,
            mc_samples=0,
        )
        cv = bayes_critical_value(stats.LRT_ORTHANT, alpha, n, p, w)
        assert g_ratio_tail(p, n - p, cv.value) == pytest.approx(alpha, abs=1e-6)

    def test_round_trip(self):
        p, n = 2, 20
        prior = PriorSpec.inverse_wishart(np.eye(p), 6.0)
        w = bayes_weights_b1(n, p, prior, mc_samples=50_000, seed=21)
        for family in (stats.LRT_ORTHANT, stats.UIT_ORTHANT):
            cv = bayes_critical_value(family, 0.05, n, p, w)
            assert null_tail(family, cv.value, n, p, weights=w) == pytest.approx(
                0.05, abs=1e-6
            )

    def test_bayes_below_sup(self):
        p, n, alpha = 2, 20, 0.05
        prior = PriorSpec.inverse_wishart(np.eye(p), 6.0)
        w = bayes_weights_b1(n, p, prior, mc_samples=50_000, seed=22)
        bayes = bayes_critical_value(stats.UIT_ORTHANT, alpha, n, p, w).value
        sup = sup_critical_value(stats.UIT_ORTHANT, alpha, n, p).value
        assert bayes < sup


class TestMarginalLogDensity:
    def test_maximized_at_sample_mean(self, rng):
        s = summarize(rng.standard_normal((12, 2)) + 0.5)
        prior = PriorSpec.inverse_wishart(0.01 * np.eye(2), 4.0)
        at_mean = marginal_logdensity(s, s.mean, prior)
        for _ in range(20):
            other = s.mean + rng.standard_normal(2)
            assert marginal_logdensity(s, other, prior) <= at_mean + 1e-12

    def test_univariate_haar_closed_form(self, rng):
        data = rng.standard_normal((9, 1)) + 0.2
        s = summarize(data)
        got = marginal_logdensity(s, np.zeros(1), PriorSpec.haar())
        n = s.n
        s2 = float(s.cov[0, 0])
        xbar = float(s.mean[0])
        expect = 0.5 * (n - 3) * np.log(s2) - 0.5 * n * np.log(
            (n - 1) * s2 + n * xbar**2
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_w_determinant(self, rng):
        s = summarize(rng.standard_normal((14, 2)) + 0.3)
        prior = PriorSpec.inverse_wishart(1e-8 * np.eye(2), 4.0)
        thetas = [s.mean + t * np.array([1.0, -0.4]) for t in (0.1, 0.5, 1.5)]

        def det_w(theta):
            diff = s.mean - theta
            return np.linalg.det(s.cov + s.n * np.outer(diff, diff))

        pairs = [(det_w(t), marginal_logdensity(s, t, prior)) for t in thetas]
        for (d1, v1), (d2, v2) in zip(pairs, pairs[1:]):
            assert (d1 - d2) * (v2 - v1) >= 0  # smaller |W| means larger density


class TestPValue:
    def test_zero_statistic_reports_one(self):
        s = make_summary([-1.0, -1.0], np.eye(2), n=10)
        from conetest import uit_orthant

        out = uit_orthant(s)
        assert out.statistic == 0.0
        assert p_value(out, "sup_conservative") == 1.0

    def test_inversion_consistency(self, rng):
        from conetest.stats import TestOutcome

        n, p, alpha = 20, 3, 0.05
        cv = sup_critical_value(stats.UIT_HALFSPACE, alpha, n, p)
        stat = cv.value * (n - 1)
        out = TestOutcome(
            statistic=stat,
            family=stats.UIT_HALFSPACE,
            active_subset=None,
            n=n,
            p=p,
            sq_norm_projection=stat,
            sq_norm_residual=0.0,
        )
        assert p_value(out, "exact_halfspace") == pytest.approx(alpha, abs=1e-6)

    def test_weighted_below_conservative(self, rng):
        from conetest import uit_orthant

        w = chi_bar_weights(np.eye(3))
        count = 0
        for _ in range(100):
            s = summarize(rng.standard_normal((20, 3)) + rng.uniform(0, 0.4, 3))
            out = uit_orthant(s)
            if out.statistic == 0.0:
                continue
            pw = p_value(out, "weighted", weights=w)
            pc = p_value(out, "sup_conservative")
            assert pw <= pc + 1e-12
            count += 1
        assert count > 50

    def test_incompatible_mode_raises(self, rng):
        from conetest import uit_orthant

        s = summarize(rng.standard_normal((10, 2)) + 1.0)
        out = uit_orthant(s)
        with pytest.raises(CalibrationError):
            p_value(out, "exact_halfspace")
        with pytest.raises(CalibrationError):
            p_value(out, "weighted")


class TestCalibrationTable:
    """Each (family, calibration) pair that ``CALIBRATIONS`` allows, through
    the one critical-value entry and back through ``p_value``."""

    N, P, ALPHA = 20, 3, 0.05
    PAIRS = [
        (family, calibration)
        for calibration, spec in calibrate.CALIBRATIONS.items()
        for family in spec.families
    ]

    @pytest.mark.parametrize("family, calibration", PAIRS)
    def test_p_value_at_critical_value_is_alpha(self, family, calibration):
        from conetest.dist import student_t_cdf
        from conetest.stats import TestOutcome

        n, p, alpha = self.N, self.P, self.ALPHA
        prior = PriorSpec.inverse_wishart(random_correlation(np.random.default_rng(1), p), p + 4.0)
        cv, weights = calibrate._calibration(
            family, calibration, alpha, n, p, prior, 3000, 8, 1
        )
        assert (weights is not None) == (calibration == "bayes")
        if family == stats.FUIT:
            # Bonferroni: p times the one-sided t tail at the threshold.
            assert cv.calibration == "bonferroni"
            assert p * student_t_cdf(-cv.value, n - 1) == pytest.approx(alpha, rel=0, abs=1e-9)
            return
        assert cv.calibration == calibrate.CALIBRATIONS[calibration].label
        # With no residual, every family's calibration-scale value is
        # q_proj / (n - 1).
        q_proj = cv.value * (n - 1)
        out = TestOutcome(
            statistic=q_proj, family=family, active_subset=None, n=n, p=p,
            sq_norm_projection=q_proj, sq_norm_residual=0.0,
        )
        assert stats.calibration_scale(out) == pytest.approx(cv.value, rel=1e-15)
        mode = calibrate.CALIBRATIONS[calibration].p_value_mode
        assert p_value(out, mode, weights=weights) == pytest.approx(alpha, rel=0, abs=1e-9)

    @pytest.mark.parametrize(
        "family, mode, weights",
        [
            (stats.UIT_ORTHANT, "nope", None),
            (stats.LRT_ORTHANT, "exact_halfspace", None),
            (stats.UIT_HALFSPACE, "weighted", chi_bar_weights(np.eye(3))),
            (stats.T2, "weighted", chi_bar_weights(np.eye(3))),
            (stats.LRT_ORTHANT, "weighted", None),
            (stats.FUIT, "sup_conservative", None),
        ],
    )
    def test_p_value_rejects(self, family, mode, weights):
        # TestPValue.test_incompatible_mode_raises covers UIT_orthant.  A
        # zero statistic does not skip the checks.
        from conetest.stats import TestOutcome

        for statistic in (0.0, 1.0):
            out = TestOutcome(
                statistic=statistic, family=family, active_subset=None, n=self.N, p=self.P,
                sq_norm_projection=statistic, sq_norm_residual=0.0,
            )
            with pytest.raises(CalibrationError):
                p_value(out, mode, weights=weights)


class TestExplicitMixtures:
    """Each null tail equals its mixture of branch tails written out by hand."""

    N = 20
    GRID = (0.02, 0.1, 0.35, 1.2)

    @staticmethod
    def orthant_weights(p):
        prior = PriorSpec.inverse_wishart(np.eye(p), p + 4.0)
        return (
            chi_bar_weights(random_correlation(np.random.default_rng(p), p)),
            bayes_weights_b1(20, p, prior, mc_samples=3000, seed=40 + p),
        )

    @staticmethod
    def halfspace_split(branch, p, c):
        return 0.5 * (branch(p - 1, c) + branch(p, c))

    def branches(self, p):
        n = self.N
        return {
            "ratio": lambda k, c: g_ratio_tail(k, n - p, c),
            "star": lambda k, c: g_star_tail(n, k, p, c),
        }

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_covariance_free_families(self, p):
        b = self.branches(p)
        for c in self.GRID:
            expect = {
                stats.T2: b["ratio"](p, c),
                stats.LRT_HALFSPACE: self.halfspace_split(b["ratio"], p, c),
                stats.UIT_HALFSPACE: self.halfspace_split(b["star"], p, c),
            }
            for family, value in expect.items():
                assert null_tail(family, c, self.N, p) == pytest.approx(value, rel=0, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_orthant_families(self, p):
        b = self.branches(p)
        for weights in self.orthant_weights(p):
            w = weights.weights
            for c in self.GRID:
                for family, branch in ((stats.LRT_ORTHANT, b["ratio"]), (stats.UIT_ORTHANT, b["star"])):
                    expect = sum(w[k] * branch(k, c) for k in range(p + 1))
                    got = null_tail(family, c, self.N, p, weights=weights)
                    assert got == pytest.approx(expect, rel=0, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_sup_conservative_p_value_of_orthant_outcomes(self, p):
        from conetest import lrt_orthant, uit_orthant
        from conetest.stats import calibration_scale

        b = self.branches(p)
        rng = np.random.default_rng(100 + p)
        s = summarize(rng.standard_normal((self.N, p)) + 0.4)
        for stat, branch in ((uit_orthant, b["star"]), (lrt_orthant, b["ratio"])):
            out = stat(s)
            assert out.statistic > 0.0
            expect = self.halfspace_split(branch, p, calibration_scale(out))
            assert p_value(out, "sup_conservative") == pytest.approx(expect, rel=0, abs=1e-15)

    def test_bayes_critical_value_at_p1_uses_the_weights(self):
        from scipy.optimize import brentq

        n, p, alpha = self.N, 1, 0.05
        b = self.branches(p)
        tilted = MixtureWeights(
            weights=np.array([0.3, 0.7]), std_errors=np.zeros(2),
            method=CLOSED_FORM, mc_samples=0,
        )
        for weights in (self.orthant_weights(p)[1], tilted):
            w = weights.weights
            for family, branch in ((stats.LRT_ORTHANT, b["ratio"]), (stats.UIT_ORTHANT, b["star"])):
                def mixture(c):
                    return w[0] * branch(0, c) + w[1] * branch(1, c)

                cv = bayes_critical_value(family, alpha, n, p, weights).value
                assert mixture(cv) == pytest.approx(alpha, abs=1e-6)
                root = brentq(lambda c: mixture(c) - alpha, 1e-6, 50.0, xtol=1e-14)
                assert cv == pytest.approx(root, abs=1e-7)


def brentq_critical_value(tail, alpha):
    """Reference inversion: double ``c`` from 1 to bracket, then ``brentq`` at ``xtol=1e-12``."""
    from scipy.optimize import brentq

    hi = 1.0
    while tail(hi) >= alpha:
        hi *= 2.0
    return brentq(lambda c: tail(c) - alpha, 0.0, hi, xtol=1e-12)


class TestInvertTail:
    """The seeded log-tail solver against ``scipy.optimize.brentq``."""

    ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.25)
    ANALYST_SHAPES = ((15, 2), (30, 3), (100, 5), (60, 8))

    @staticmethod
    def identity_weights(p):
        """Closed-form chi-bar-square weights of an identity covariance: Binomial(p, 1/2)."""
        w = np.array([math.comb(p, k) for k in range(p + 1)]) / 2.0**p
        return MixtureWeights(weights=w, std_errors=np.zeros(p + 1), method=CLOSED_FORM, mc_samples=0)

    def laws(self, n, p):
        """(family, critical value at alpha, null tail) for the five families."""
        weights = self.identity_weights(p)
        for family in (stats.T2,) + stats.HALFSPACE_FAMILIES:
            yield (
                family,
                lambda a, f=family: sup_critical_value(f, a, n, p).value,
                lambda c, f=family: null_tail(f, c, n, p),
            )
        for family in stats.ORTHANT_FAMILIES:
            yield (
                family,
                lambda a, f=family: bayes_critical_value(f, a, n, p, weights).value,
                lambda c, f=family: null_tail(f, c, n, p, weights=weights),
            )

    @pytest.mark.parametrize("p", range(1, 11))
    def test_matches_brentq(self, p):
        eps = np.finfo(float).eps
        for n in sorted({p + 1, p + 2, p + 5, 3 * p + 3, 100, 1000}):
            for family, critical_value, tail in self.laws(n, p):
                for alpha in self.ALPHAS:
                    c = critical_value(alpha)
                    bound = 2e-12 + 8.0 * eps * c
                    where = (family, n, p, alpha)
                    assert abs(c - brentq_critical_value(tail, alpha)) <= bound, where
                    assert tail(c - bound) >= alpha >= tail(c + bound), where

    def test_fewer_branch_tail_evaluations_than_brentq(self, monkeypatch):
        from conetest import calibrate

        calls = []
        for name in ("g_ratio_tail", "g_star_tail"):
            branch = getattr(calibrate, name)
            monkeypatch.setattr(
                calibrate, name, lambda *args, branch=branch: calls.append(1) or branch(*args)
            )

        def evaluations(solve):
            del calls[:]
            solve()
            return len(calls)

        ours = reference = 0
        for n, p in self.ANALYST_SHAPES:
            for family in (stats.T2,) + stats.HALFSPACE_FAMILIES:
                tail = lambda c, f=family: null_tail(f, c, n, p)
                for alpha in (0.01, 0.05, 0.1):
                    count = evaluations(lambda: sup_critical_value(family, alpha, n, p))
                    if family == stats.T2:
                        assert count <= 3  # the seed is the T2 root itself
                    ours += count
                    reference += evaluations(lambda: brentq_critical_value(tail, alpha))
        # 339 against 748 when written; each part of the solver (seed, Newton
        # step, overshoot, Illinois weights) saves a few percent of these.
        assert ours < 0.6 * reference

    @pytest.mark.parametrize("level", [0.5, 0.01])
    def test_unbracketable_tail_raises(self, level):
        from conetest.calibrate import _invert_tail

        with pytest.raises(CalibrationError):
            _invert_tail(lambda c: level, 0.1, 20, 3)

    def test_seed_beyond_scipy_inverse(self):
        # betainccinv(1.5, 8.5, 1e-300) is nan, so the walk starts from c = 1;
        # the root is near 2.3e35.
        n, p, alpha = 20, 3, 1e-300
        c = sup_critical_value(stats.T2, alpha, n, p).value
        ref = brentq_critical_value(lambda c: g_ratio_tail(p, n - p, c), alpha)
        assert abs(c - ref) <= 2e-12 + 8.0 * np.finfo(float).eps * c

    @pytest.mark.parametrize("n", [3, 4, 12, 100])
    @pytest.mark.parametrize("alpha", [1e-100, 1e-3, 0.05, 0.25])
    def test_t2_closed_form_at_p2(self, n, alpha):
        # chi2_2 / chi2_b has tail (1 + c)**(-b/2); with n = 3 and alpha =
        # 1e-100 the root is 1e200.
        expect = math.expm1(-2.0 / (n - 2) * math.log(alpha))
        got = sup_critical_value(stats.T2, alpha, n, 2).value
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [1e-100, 1e-3, 0.05, 0.25])
    def test_t2_closed_form_at_p1_n2(self, alpha):
        # chi2_1 / chi2_1 has tail (2/pi) atan(c**-1/2).
        expect = 1.0 / math.tan(0.5 * math.pi * alpha) ** 2
        got = sup_critical_value(stats.T2, alpha, 2, 1).value
        assert got == pytest.approx(expect, rel=1e-12, abs=0)
