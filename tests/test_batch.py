"""Oracles for the sufficient-statistic sampler in ``conetest._batch``.

The sampler draws ``(xbar, S)`` from their joint law through one Bartlett
factor.  The references are ``scipy.stats.wishart``, ``scipy.stats.invwishart``
and the data-tensor sampler that it replaced, kept here only as an oracle:
it draws a (reps, n, p) normal sample and summarizes it.  T2 from the
triangular factor is checked against ``np.linalg.solve``.  The compound
null of the Bayes calibration is checked against the inverse-based draw it
replaced, kept here too, and against the same draw in extended precision.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conetest import SolverError, _batch
from conetest._batch import (
    _bartlett,
    batch_t2,
    factor_cov,
    factor_major,
    factor_map,
    forward_solve,
    forward_sq_norm,
    orthant_active_set,
    sample_invwishart_chol,
    sample_mean_chol,
    sample_mean_cov,
    scaled_draw,
    standard_draw,
    substream,
    tril_stack,
)

from conftest import compound_null, random_correlation, row_major

# Shapes of the law checks: small n - 1 makes a Bartlett degree-of-freedom
# slip of one a visible fraction of every diagonal entry.
P, N, REPS = 3, 12, 4000
KS_MIN_P = 1e-3


def tensor_sample_mean_cov(rng, theta, chol_sigma, n, reps):
    """Means and unbiased covariances of ``reps`` full normal samples of size ``n``."""
    z = rng.standard_normal((reps, n, chol_sigma.shape[-1]))
    if chol_sigma.ndim == 2:
        x = z @ chol_sigma.T
    else:
        x = np.einsum("rij,rkj->rik", z, chol_sigma)
    if theta is not None:
        x = x + theta
    means = x.mean(axis=1)
    centered = x - means[:, None, :]
    covs = np.einsum("rij,rik->rjk", centered, centered) / (n - 1)
    return means, covs


def scatter_statistics(scatter):
    """``trace``, ``logdet`` and the (1, 0) entry of each (n-1) S."""
    return {
        "trace": np.trace(scatter, axis1=1, axis2=2),
        "logdet": np.linalg.slogdet(scatter)[1],
        "offdiag": scatter[:, 1, 0],
    }


@pytest.fixture(scope="module")
def sigma():
    return random_correlation(np.random.default_rng(41), P)


@pytest.fixture(scope="module")
def drawn(sigma):
    theta = np.array([0.4, -0.2, 0.1])
    means, covs = sample_mean_cov(substream(42, 0), theta, np.linalg.cholesky(sigma), N, REPS)
    return theta, means, covs


class TestSampleMeanCovLaw:
    def test_shapes(self, drawn):
        _, means, covs = drawn
        assert means.shape == (REPS, P)
        assert covs.shape == (REPS, P, P)
        assert np.array_equal(covs, np.swapaxes(covs, 1, 2))

    @pytest.mark.parametrize("name", ["trace", "logdet", "offdiag"])
    def test_scatter_matches_scipy_wishart(self, sigma, drawn, name):
        _, _, covs = drawn
        ref = scipy_stats.wishart(df=N - 1, scale=sigma).rvs(
            size=REPS, random_state=np.random.default_rng(43)
        )
        got = scatter_statistics((N - 1) * covs)[name]
        want = scatter_statistics(ref)[name]
        assert scipy_stats.ks_2samp(got, want).pvalue > KS_MIN_P

    @pytest.mark.parametrize("name", ["trace", "logdet", "offdiag", "mean"])
    def test_matches_tensor_sampler(self, sigma, drawn, name):
        theta, means, covs = drawn
        ref_means, ref_covs = tensor_sample_mean_cov(
            substream(44, 0), theta, np.linalg.cholesky(sigma), N, REPS
        )
        got = scatter_statistics((N - 1) * covs)
        want = scatter_statistics((N - 1) * ref_covs)
        got["mean"], want["mean"] = means[:, 0], ref_means[:, 0]
        assert scipy_stats.ks_2samp(got[name], want[name]).pvalue > KS_MIN_P

    def test_moments_within_4_se(self, sigma, drawn):
        theta, means, covs = drawn
        # E S = Sigma, elementwise.
        se = covs.std(axis=0, ddof=1) / np.sqrt(REPS)
        assert np.all(np.abs(covs.mean(axis=0) - sigma) <= 4 * se)
        # E xbar = theta.
        se = means.std(axis=0, ddof=1) / np.sqrt(REPS)
        assert np.all(np.abs(means.mean(axis=0) - theta) <= 4 * se)
        # n Cov(xbar) = Sigma; the SE of each product moment from its draws.
        d = np.sqrt(N) * (means - theta)
        prods = d[:, :, None] * d[:, None, :]
        se = prods.std(axis=0, ddof=1) / np.sqrt(REPS)
        assert np.all(np.abs(prods.mean(axis=0) - sigma) <= 4 * se)

    def test_mean_independent_of_cov(self, drawn):
        # Under normality xbar and S are independent (Anderson 2003, 3.3.2).
        theta, means, covs = drawn
        r = np.corrcoef((means[:, 0] - theta[0]) ** 2, covs[:, 0, 0])[0, 1]
        assert abs(r) <= 4 / np.sqrt(REPS)


class TestSampleMeanCovFactors:
    def test_stacked_identical_factors_match_fixed(self, sigma):
        chol = np.linalg.cholesky(sigma)
        stack = np.broadcast_to(chol, (50, P, P)).copy()
        theta = np.array([0.1, 0.2, 0.3])
        m1, c1 = sample_mean_cov(substream(45, 0), theta, chol, N, 50)
        m2, c2 = sample_mean_cov(substream(45, 0), theta, stack, N, 50)
        assert np.allclose(m1, m2, rtol=0, atol=1e-12)
        assert np.allclose(c1, c2, rtol=0, atol=1e-12)

    def test_per_draw_factors_scale_each_draw(self):
        # Draw r of a stack of factors c_r * I has covariance law c_r**2 times
        # that of the identity factor, on the same stream.
        reps = 20
        scales = np.linspace(0.5, 2.0, reps)
        stack = scales[:, None, None] * np.eye(P)
        m1, c1 = sample_mean_cov(substream(46, 0), None, np.eye(P), N, reps)
        m2, c2 = sample_mean_cov(substream(46, 0), None, stack, N, reps)
        assert np.allclose(m2, scales[:, None] * m1, rtol=1e-12, atol=0)
        assert np.allclose(c2, scales[:, None, None] ** 2 * c1, rtol=1e-12, atol=0)

    def test_inverse_wishart_factors_feed_the_sampler(self):
        # The compound null: E S = E Sigma = scale / (df - p - 1).
        scale, df, reps = np.diag([1.0, 2.0, 0.5]), P + 6.0, 20000
        rng = substream(47, 0)
        factors = sample_invwishart_chol(rng, scale, df, reps)
        _, covs = sample_mean_cov(rng, None, factors, N, reps)
        diag = np.diagonal(covs, axis1=1, axis2=2)
        se = diag.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(diag.mean(axis=0) - np.diag(scale) / (df - P - 1)) <= 4 * se)


class TestInverseWishartFactors:
    SCALE = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]])
    DF = P + 6.0

    @pytest.fixture(scope="class")
    def factors(self):
        return sample_invwishart_chol(substream(49, 0), self.SCALE, self.DF, REPS)

    def test_factors_are_lower_triangular(self, factors):
        assert factors.shape == (REPS, P, P)
        assert np.all(np.triu(factors, 1) == 0.0)
        assert np.all(np.diagonal(factors, axis1=1, axis2=2) > 0.0)

    @pytest.mark.parametrize("name", ["trace", "logdet", "offdiag"])
    def test_matches_scipy_invwishart(self, factors, name):
        ref = scipy_stats.invwishart(df=self.DF, scale=self.SCALE).rvs(
            size=REPS, random_state=np.random.default_rng(50)
        )
        got = scatter_statistics(factors @ np.swapaxes(factors, 1, 2))[name]
        want = scatter_statistics(ref)[name]
        assert scipy_stats.ks_2samp(got, want).pvalue > KS_MIN_P

    def test_mean_within_4_se(self, factors):
        # E G G' = scale / (df - p - 1), elementwise.
        draws = factors @ np.swapaxes(factors, 1, 2)
        se = draws.std(axis=0, ddof=1) / np.sqrt(REPS)
        want = self.SCALE / (self.DF - P - 1)
        assert np.all(np.abs(draws.mean(axis=0) - want) <= 4 * se)


def conditioned_cov(rng, p, cond):
    """Covariance with eigenvalues log-spaced from 1 down to ``1 / cond`` in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (q * np.logspace(0.0, -np.log10(cond), p)) @ q.T


class TestFactorT2:
    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_solve(self, p, cond, per_draw):
        n, reps = 20, 200
        rng = np.random.default_rng([51, p, int(np.log10(cond)), per_draw])
        if per_draw:
            covs = np.stack([conditioned_cov(rng, p, cond) for _ in range(reps)])
        else:
            covs = conditioned_cov(rng, p, cond)
        c = np.sqrt(n - 1) * np.linalg.cholesky(covs)
        means = rng.standard_normal((reps, p))
        got = n * (n - 1) * forward_sq_norm(means.T, factor_major(c))
        want = n * np.einsum("ri,ri->r", means, np.linalg.solve(covs, means[..., None])[..., 0])
        # A relative error of eps * cond is the conditioning limit of any
        # float64 T2, np.linalg.solve's included: against a long-double
        # reference both err by 5e-11 to 6e-11 at cond 1e6.
        rtol = 1e-12 + 2.0 * np.finfo(float).eps * cond
        assert np.all(np.abs(got - want) <= rtol * want)
        assert np.all(np.abs(batch_t2(means, covs, n) - want) <= rtol * want)

    def test_sampler_factors_are_lower_triangular(self, sigma):
        chol = np.linalg.cholesky(sigma)
        factors = sample_invwishart_chol(substream(52, 0), sigma, P + 4.0, 50)
        for chol_sigma in (chol, factors):
            means, c = row_major(sample_mean_chol(substream(53, 0), None, chol_sigma, N, 50))
            assert np.all(np.triu(c, 1) == 0.0)
            _, covs = sample_mean_cov(substream(53, 0), None, chol_sigma, N, 50)
            assert np.array_equal(covs, factor_cov(c, N))


def inverse_invwishart_chol(rng, scale, df, reps):
    """Inverse-Wishart factors by a batched LAPACK inverse, as drawn before the forward solve.

    Draws ``W = C C' ~ Wishart(P scale^{-1} P, df)`` with ``C = chol(P
    scale^{-1} P) A`` for a Bartlett factor ``A``, inverts ``C`` and flips
    ``C^{-T}`` along both axes into a lower-triangular ``G`` with ``G G' = P
    W^{-1} P``; ``np.tril`` clears the rounding above the diagonal.
    """
    p = scale.shape[0]
    chol_inv_scale = np.linalg.cholesky(np.linalg.inv(scale)[::-1, ::-1])
    c = chol_inv_scale @ tril_stack(_bartlett(rng, df - np.arange(p), reps), p)
    return np.tril(np.swapaxes(np.linalg.inv(c), 1, 2)[:, ::-1, ::-1])


def inverse_compound_null(rng, scale, df, n, reps):
    """The compound-null draw by the inverse-based factors, same draws as ``compound_null``, row-major."""
    z, a = standard_draw(rng, scale.shape[0], n, reps)
    return row_major(scaled_draw(z, a, inverse_invwishart_chol(rng, scale, df, reps), n))


def extended_compound_null(rng, scale, df, n, reps):
    """``chol(scale) Q^{-1} [z, B]`` of ``compound_null`` in long double, same draws."""
    ld = np.longdouble
    p = scale.shape[0]
    z = rng.standard_normal((reps, p)).astype(ld)
    rhs = np.concatenate([z[..., None], tril_stack(_bartlett(rng, n - 1 - np.arange(p), reps), p)], axis=2)
    q = np.swapaxes(tril_stack(_bartlett(rng, df - np.arange(p), reps), p), 1, 2)[:, ::-1, ::-1].astype(ld)
    w = np.zeros(rhs.shape, dtype=ld)
    for i in range(p):
        dot = np.sum(q[:, i, :i, None] * w[:, :i, :], axis=1)
        w[:, i, :] = (rhs[:, i, :] - dot) / q[:, i, i, None]
    v, k = scale.astype(ld), np.zeros((p, p), dtype=ld)
    for j in range(p):
        k[j, j] = np.sqrt(v[j, j] - np.sum(k[j, :j] ** 2))
        k[j + 1:, j] = (v[j + 1:, j] - k[j + 1:, :j] @ k[j, :j]) / k[j, j]
    g = np.einsum("ij,rjk->rik", k, w)
    return g[..., 0] / np.sqrt(ld(n)), g[..., 1:]


def scaled_correlation(rng, p, cond):
    """A random correlation whose coordinate scales bring its condition number near ``cond``."""
    d = np.sqrt(np.logspace(0.0, np.log10(cond), p))
    rng.shuffle(d)
    return random_correlation(rng, p) * np.outer(d, d)


def block_error(draw, ref, n):
    """Largest per-draw error of the block ``[sqrt(n) xbar, c]`` relative to its largest entry."""
    blocks = [np.concatenate([np.sqrt(n) * m[..., None], c], axis=2) for m, c in (draw, ref)]
    err = np.abs(blocks[0] - blocks[1]).max(axis=(1, 2))
    return float(np.max(err / np.abs(blocks[1]).max(axis=(1, 2))))


def same_masks(draw, ref, n):
    masks = [orthant_active_set(np.sqrt(n) * m, factor_cov(c, n)) for m, c in (draw, ref)]
    return np.array_equal(*masks)


class TestForwardSolve:
    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    @pytest.mark.parametrize("p", [1, 2, 5, 12])
    def test_matches_solve(self, p, per_draw):
        rng = np.random.default_rng([56, p, per_draw])
        reps, k = 40, 3
        if per_draw:
            covs = np.stack([conditioned_cov(rng, p, 1e3) for _ in range(reps)])
        else:
            covs = conditioned_cov(rng, p, 1e3)
        c = np.linalg.cholesky(covs)
        x = rng.standard_normal((reps, p, k))
        want = np.linalg.solve(np.broadcast_to(c, (reps, p, p)), x)
        got = np.moveaxis(forward_solve(factor_major(c), np.moveaxis(x, 0, -1)), -1, 0)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_reversed_transpose_view_and_triangular_rhs(self):
        # The prior's Q is a negative-stride view; a lower-triangular right
        # side keeps exact zeros above the diagonal.
        rng = substream(57, 0)
        q = np.swapaxes(tril_stack(_bartlett(rng, 9.0 - np.arange(6), 30), 6), 1, 2)[:, ::-1, ::-1]
        b = tril_stack(_bartlett(rng, 20.0 - np.arange(6), 30), 6)
        got = np.moveaxis(forward_solve(factor_major(q), factor_major(b)), -1, 0)
        assert np.all(np.triu(got, 1) == 0.0)
        assert np.allclose(q @ got, b, rtol=0, atol=1e-12 * np.abs(b).max())
        contiguous = np.ascontiguousarray(factor_major(q))
        assert np.array_equal(np.moveaxis(forward_solve(contiguous, factor_major(b)), -1, 0), got)


class TestCompoundNull:
    """The compound-null draw (``conftest.compound_null``) against the inverse-based draw on the same substream."""

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_inverse_reference(self, p, cond):
        n, reps, df = 2 * p + 10, 2000, p + 4.0
        scale = scaled_correlation(np.random.default_rng([54, p, int(np.log10(cond))]), p, cond)
        draw = row_major(compound_null(substream(55, p), scale, df, n, reps))
        ref = inverse_compound_null(substream(55, p), scale, df, n, reps)
        assert draw[0].shape == (reps, p) and draw[1].shape == (reps, p, p)
        assert block_error(draw, ref, n) <= 1e-13
        assert np.all(np.triu(draw[1], 1) == 0.0)
        assert same_masks(draw, ref, n)
        factors = sample_invwishart_chol(substream(55, p), scale, df, reps)
        ref_factors = inverse_invwishart_chol(substream(55, p), scale, df, reps)
        assert np.all(np.triu(factors, 1) == 0.0)
        err = np.abs(factors - ref_factors).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * np.abs(ref_factors).max(axis=(1, 2)))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
    )
    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_rotated_scales_match_extended_precision(self, p, cond):
        # In a random basis the inverse-based draw inverts the scale and
        # loses accuracy with cond: up to 9e-8 from the long-double draw at
        # cond 1e6, where this one stays within 4e-13.  The Cholesky factor of the scale has
        # condition number sqrt(cond), which sets the bound.
        n, reps, df = 2 * p + 10, 500, p + 4.0
        scale = conditioned_cov(np.random.default_rng([58, p, int(np.log10(cond))]), p, cond)
        draw = row_major(compound_null(substream(59, p), scale, df, n, reps))
        exact = extended_compound_null(substream(59, p), scale, df, n, reps)
        rtol = 1e-13 + 4.0 * np.finfo(float).eps * np.sqrt(cond)
        assert block_error(draw, [a.astype(float) for a in exact], n) <= rtol
        assert same_masks(draw, inverse_compound_null(substream(59, p), scale, df, n, reps), n)


class TestFactorMap:
    """``factor_map(L).T @ entries.T`` is the component-major ``L A`` of the stacked Bartlett factors."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 12])
    def test_matches_stacked_product(self, p):
        rng = substream(60, p)
        chol = np.linalg.cholesky(conditioned_cov(np.random.default_rng([60, p]), p, 1e3))
        entries = _bartlett(rng, 30.0 - np.arange(p), 200)
        stack = tril_stack(entries, p)
        rows, cols = np.tril_indices(p)
        assert np.array_equal(stack[:, rows, cols], entries)
        got = np.moveaxis((factor_map(chol).T @ entries.T).reshape(p, p, -1), -1, 0)
        want = chol @ stack
        assert np.all(np.triu(got, 1) == 0.0)
        scale = np.abs(want).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(got - want) <= 4 * p * np.finfo(float).eps * scale)

    def test_sampler_is_the_standard_draw_scaled(self):
        chol = np.linalg.cholesky(conditioned_cov(np.random.default_rng(61), P, 10.0))
        z, a = standard_draw(substream(62, 0), P, N, 50)
        means, c = scaled_draw(z, a, chol, N)
        want = sample_mean_chol(substream(62, 0), None, chol, N, 50)
        assert np.array_equal(means, want[0]) and np.array_equal(c, want[1])


def _peak_bytes(n):
    tracemalloc.start()
    try:
        sample_mean_cov(substream(48, 0), None, np.eye(3), n, 2000)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_n():
    # Traced peaks: 0.53 MB at both n here; the data-tensor sampler's are
    # 3.2 MB at n = 20 and 288 MB at n = 2000.
    assert _peak_bytes(2000) < 1.5 * _peak_bytes(20)


class TestCandidateMask:
    """``orthant_active_set`` on the rows a mask selects matches the full solve there."""

    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    def test_masked_rows_match_the_full_solve(self, per_draw):
        rng = np.random.default_rng(5)
        p, reps = 4, 400
        y = rng.standard_normal((reps, p))
        if per_draw:
            metric = np.stack([np.eye(p) + 0.5 * random_correlation(rng, p) for _ in range(reps)])
        else:
            metric = random_correlation(rng, p)
        candidates = rng.random(reps) < 0.3
        free, q_res = orthant_active_set(y, metric, residual=True)
        free_m, q_res_m = orthant_active_set(y[candidates], metric[candidates] if per_draw else metric, residual=True)
        assert np.array_equal(free_m, free[candidates])
        assert np.array_equal(q_res_m, q_res[candidates])
        none = orthant_active_set(y[:0], metric[:0] if per_draw else metric, residual=True)
        assert none[0].shape == (0, p) and none[1].shape == (0,)

    def test_error_names_the_row_of_y(self, monkeypatch):
        # From their sign patterns rows 1 and 3 need a second step, which a
        # one-step cap forbids; without row 1 the error names row 3's
        # position in the rows given.  The warm start would find both patterns.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        metric = np.array([[1.0, -0.9], [-0.9, 1.0]])
        y = np.array([[1.0, 1.0], [0.5, -1.0], [-1.0, -1.0], [0.4, -1.0]])
        with pytest.raises(SolverError, match="draw 1"):
            orthant_active_set(y, metric)
        with pytest.raises(SolverError, match="draw 2") as err:
            orthant_active_set(y[[0, 2, 3]], metric)
        assert err.value.details == {"draw": 2, "y": [0.4, -1.0]}


def test_cell_of_no_draws_counts_zero():
    # No chunks, so no count is called.
    assert float(_batch._count_cells(1, (0,), None, 0, 2)) == 0.0


class TestSubstream:
    """Every Monte-Carlo stream is an SFC64 generator on its own ``SeedSequence`` spawn key."""

    def test_bit_generator_is_sfc64(self):
        for key in (0, (2, 0), _batch.WEIGHTS_KEY + (3,), _batch.CORRELATIONS_KEY):
            assert isinstance(substream(7, key).bit_generator, np.random.SFC64)

    def test_chunk_and_weight_streams_are_distinct(self):
        # Four chunks of the power grid and the first weights chunk, one
        # seed: no two streams agree, and every pairwise sample correlation
        # is within 4 / sqrt(N), about 4 standard errors of zero.
        n = 100_000
        keys = [_batch.POWER_KEY + (j,) for j in range(4)] + [_batch.WEIGHTS_KEY + (0,)]
        draws = np.array([substream(1, key).standard_normal(n) for key in keys])
        corr = np.corrcoef(draws)
        for i in range(len(keys)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])
                assert abs(corr[i, j]) <= 4 / np.sqrt(n), (keys[i], keys[j])
