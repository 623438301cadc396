import numpy as np
import pytest
from scipy.stats import t as scipy_t

from conetest import (
    DataError,
    InsufficientDataError,
    calibration_scale,
    directional_component,
    fuit,
    hotelling_t2,
    integrated_lr_ratio,
    lrt_halfspace,
    lrt_orthant,
    metric_sq_norm,
    summarize,
    uit_halfspace,
    uit_orthant,
)
from conetest.sample import conditional_block

from conftest import random_pd_matrix
from test_sample import make_summary


class TestHotelling:
    def test_univariate_is_squared_t(self, rng):
        data = rng.standard_normal((12, 1)) + 0.5
        s = summarize(data)
        t_sq = s.n * s.mean[0] ** 2 / s.cov[0, 0]
        assert hotelling_t2(s).statistic == pytest.approx(t_sq, rel=1e-12)

    def test_zero_mean_gives_zero(self):
        s = make_summary([0.0, 0.0], np.eye(2))
        assert hotelling_t2(s).statistic == 0.0

    def test_projection_identity(self, rng):
        data = rng.standard_normal((15, 3)) + 0.2
        s = summarize(data)
        full_norm = metric_sq_norm(np.sqrt(s.n) * s.mean, s.cov)
        assert hotelling_t2(s).statistic == pytest.approx(full_norm, rel=1e-10)

    def test_requires_n_greater_p(self, rng):
        s = summarize(rng.standard_normal((3, 3)))
        with pytest.raises(InsufficientDataError):
            hotelling_t2(s)


class TestOrthantStatistics:
    def test_polar_case_is_zero(self):
        s = make_summary([-0.5, -1.0], np.eye(2))
        assert lrt_orthant(s).statistic == 0.0
        assert uit_orthant(s).statistic == 0.0

    def test_interior_case_is_t2(self):
        s = make_summary([0.8, 0.4], np.eye(2))
        t2 = hotelling_t2(s).statistic
        assert lrt_orthant(s).statistic == pytest.approx(t2, rel=1e-12)
        assert uit_orthant(s).statistic == pytest.approx(t2, rel=1e-12)

    def test_subset_formula_equals_projection(self, rng):
        # The two representations: conditional quadratic form on the active
        # subset with the shrunken denominator vs the projection split.
        for _ in range(100):
            s = summarize(rng.standard_normal((20, 3)) + rng.normal(0, 0.5, 3))
            out = lrt_orthant(s)
            part = out.active_subset
            if part.size == 0:
                assert out.statistic == 0.0
                continue
            block = conditional_block(s, part)
            num = s.n * float(
                block.mean_cond @ np.linalg.solve(block.cov_cond, block.mean_cond)
            )
            ac = list(part.a_complement)
            if ac:
                res = s.n * float(
                    s.mean[ac]
                    @ np.linalg.solve(s.cov[np.ix_(ac, ac)], s.mean[ac])
                )
            else:
                res = 0.0
            assert out.statistic == pytest.approx(num / (1.0 + res), rel=1e-9)
            assert uit_orthant(s).statistic == pytest.approx(num, rel=1e-9)


class TestHalfspaceStatistics:
    def test_positive_last_coordinate_gives_t2(self):
        s = make_summary([0.2, -0.4, 0.7], random_pd_matrix(np.random.default_rng(1), 3))
        t2 = hotelling_t2(s).statistic
        assert uit_halfspace(s).statistic == pytest.approx(t2, rel=1e-12)
        assert lrt_halfspace(s).statistic == pytest.approx(t2, rel=1e-12)

    def test_univariate_boundary(self):
        s = make_summary([-0.3], np.eye(1))
        assert uit_halfspace(s).statistic == pytest.approx(0.0, abs=1e-12)
        assert lrt_halfspace(s).statistic == pytest.approx(0.0, abs=1e-12)

    def test_domination_inequalities(self, rng):
        for _ in range(300):
            s = summarize(rng.standard_normal((15, 3)))
            u, us = uit_orthant(s).statistic, uit_halfspace(s).statistic
            l, ls = lrt_orthant(s).statistic, lrt_halfspace(s).statistic
            t2 = hotelling_t2(s).statistic
            assert 0.0 <= l <= u + 1e-12
            assert u <= t2 + 1e-9 * t2
            assert 0.0 <= ls <= us + 1e-12
            assert us <= t2 + 1e-9 * t2
            assert us >= u - 1e-9 * max(1.0, u)
            assert ls >= l - 1e-9 * max(1.0, l)


class TestScaleInvariance:
    def test_positive_diagonal_rescaling(self, rng):
        for _ in range(30):
            data = rng.standard_normal((12, 3)) + 0.3
            d = rng.uniform(0.3, 4.0, size=3)
            s1 = summarize(data)
            s2 = summarize(data * d)
            for fn in (hotelling_t2, lrt_orthant, uit_orthant):
                assert fn(s1).statistic == pytest.approx(fn(s2).statistic, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-8, 1e-150, 1e150])
    def test_overall_rescaling(self, rng, scale):
        # No tolerance may have a floor in the data's units.
        data = rng.standard_normal((30, 3)) + 0.3
        s1 = summarize(data)
        s2 = summarize(data * scale)
        assert s2.positive_definite
        for fn in (hotelling_t2, lrt_orthant, uit_orthant, lrt_halfspace, uit_halfspace):
            assert fn(s2).statistic == pytest.approx(fn(s1).statistic, rel=1e-12)


class TestFuit:
    def test_univariate_reduces_to_t_test(self, rng):
        data = rng.standard_normal((10, 1)) + 0.8
        s = summarize(data)
        rep = fuit(s, 0.05)
        assert rep.alpha_star == pytest.approx(0.05)
        t_stat = np.sqrt(s.n) * s.mean[0] / np.sqrt(s.cov[0, 0])
        assert rep.reject == (t_stat >= scipy_t.ppf(0.95, s.n - 1))

    def test_null_point_never_rejects(self):
        s = make_summary([0.0, 0.0, 0.0], np.eye(3), n=10)
        rep = fuit(s, 0.2)
        assert np.allclose(rep.t_values, 0.0)
        assert not rep.reject

    def test_threshold_matches_quantile_oracle(self):
        s = make_summary([0.1, 0.1, 0.1, 0.1], np.eye(4), n=12)
        rep = fuit(s, 0.05)
        assert rep.alpha_star == pytest.approx(0.0125)
        assert rep.threshold == pytest.approx(scipy_t.ppf(1 - 0.0125, 11), abs=1e-8)

    def test_alpha_star_times_p_is_alpha(self):
        s = make_summary([0.1, -0.1], np.eye(2), n=9)
        rep = fuit(s, 0.07)
        assert rep.alpha_star * s.p == pytest.approx(0.07, abs=1e-12)

    def test_zero_variance_coordinate(self):
        from conetest import DegenerateVarianceError

        data = np.column_stack([np.ones(8), np.random.default_rng(0).standard_normal(8)])
        with pytest.raises(DegenerateVarianceError):
            fuit(summarize(data), 0.05)


class TestIntegratedLikelihoodRatio:
    def test_zero_statistic_gives_one(self):
        s = make_summary([-1.0, -1.0], np.eye(2), n=7)
        assert integrated_lr_ratio(s) == pytest.approx(1.0)

    def test_integer_exponent_case(self):
        # n = 3 and statistic 3 gives (1 + 3)^1 = 4.
        s = make_summary([1.0], np.array([[1.0]]), n=3)
        assert lrt_orthant(s).statistic == pytest.approx(3.0)
        assert integrated_lr_ratio(s) == pytest.approx(4.0)

    def test_log_domain_recomputation(self, rng):
        s = summarize(rng.standard_normal((18, 3)) + 0.4)
        value = integrated_lr_ratio(s)
        log_value = 0.5 * (s.n - 1) * np.log1p(lrt_orthant(s).statistic)
        assert np.log(value) == pytest.approx(log_value, rel=1e-12)


class TestDirectionalComponent:
    def test_empty_active_subset_is_zero(self, rng):
        s = make_summary([-1.0, -2.0], np.eye(2))
        for _ in range(5):
            assert directional_component(s, rng.standard_normal(2)) == 0.0

    def test_optimal_direction_attains_uit(self, rng):
        for _ in range(20):
            s = summarize(rng.standard_normal((15, 3)) + 0.3)
            part = lrt_orthant(s).active_subset
            if part.size == 0:
                continue
            block = conditional_block(s, part)
            b = np.zeros(3)
            b[list(part.a)] = np.linalg.solve(block.cov_cond, block.mean_cond)
            u = uit_orthant(s).statistic
            assert directional_component(s, b) == pytest.approx(u, rel=1e-9)

    def test_random_directions_never_exceed_uit(self, rng):
        s = summarize(rng.standard_normal((15, 3)) + 0.2)
        u = uit_orthant(s).statistic
        best = 0.0
        for _ in range(2000):
            b = rng.standard_normal(3)
            try:
                val = directional_component(s, b)
            except DataError:
                continue
            best = max(best, val)
            assert val <= u + 1e-9 * max(1.0, u)
        if u > 0:
            assert best > 0.0


class TestCalibrationScale:
    def test_quadratic_families_divide_by_n_minus_1(self, rng):
        s = summarize(rng.standard_normal((10, 2)) + 0.4)
        out = uit_orthant(s)
        assert calibration_scale(out) == pytest.approx(out.statistic / (s.n - 1))
        t2 = hotelling_t2(s)
        assert calibration_scale(t2) == pytest.approx(t2.statistic / (s.n - 1))

    def test_lrt_uses_shifted_denominator(self, rng):
        s = summarize(rng.standard_normal((10, 2)))
        out = lrt_halfspace(s)
        expect = out.sq_norm_projection / ((s.n - 1) + out.sq_norm_residual)
        assert calibration_scale(out) == pytest.approx(expect)

    def test_outcome_is_decomposition_consistent(self, rng):
        s = summarize(rng.standard_normal((12, 3)) - 0.1)
        out = uit_halfspace(s)
        t2 = hotelling_t2(s).statistic
        assert out.sq_norm_projection + out.sq_norm_residual == pytest.approx(
            t2, rel=1e-9
        )
