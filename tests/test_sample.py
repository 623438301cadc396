import numpy as np
import pytest

from conetest import (
    ConditioningError,
    DataError,
    InsufficientDataError,
    SubsetPartition,
    active_branch_halfspace,
    active_subset_orthant,
    conditional_block,
    summarize,
)
from conetest.sample import iter_subsets, qualifying_subsets

from conftest import random_pd_matrix, two_pass_mean_cov


def make_summary(mean, cov, n=20):
    """Summary object with prescribed moments, bypassing data synthesis."""
    from conetest.sample import SampleSummary
    from conetest._linalg import is_positive_definite, read_only

    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return SampleSummary(
        n=n,
        p=mean.shape[0],
        mean=read_only(mean),
        cov=read_only(cov),
        positive_definite=is_positive_definite(cov),
    )


class TestSummarize:
    def test_two_point_sample(self):
        s = summarize(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(s.mean, [1.0, 1.0])
        assert np.allclose(s.cov, [[2.0, 2.0], [2.0, 2.0]])
        assert not s.positive_definite

    def test_identical_rows_zero_cov(self):
        s = summarize(np.tile([1.0, -2.0, 3.0], (6, 1)))
        assert np.allclose(s.cov, 0.0)

    @pytest.mark.parametrize("constant", [0.1, 0.3, 0.5, 1.0 / 3.0])
    def test_constant_column_has_exactly_zero_variance(self, rng, constant):
        # 30 copies of 0.1 average to a rounded mean; centring on it would
        # leave the column a variance of about 1e-33.
        data = rng.standard_normal((30, 3))
        data[:, 1] = constant
        s = summarize(data)
        assert not s.cov[1].any() and not s.cov[:, 1].any()
        assert not s.positive_definite

    def test_matches_two_pass_oracle(self, rng):
        data = rng.standard_normal((20, 3))
        s = summarize(data)
        mean, cov = two_pass_mean_cov(data)
        assert np.allclose(s.mean, mean, rtol=1e-12, atol=1e-14)
        assert np.allclose(s.cov, cov, rtol=1e-12, atol=1e-14)

    def test_cov_symmetric_and_pd(self, rng):
        s = summarize(rng.standard_normal((30, 4)))
        assert np.array_equal(s.cov, s.cov.T)
        assert s.positive_definite

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            summarize(np.array([[1.0, 2.0]]))

    def test_non_finite_entry(self):
        with pytest.raises(DataError):
            summarize(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_wrong_shape(self):
        with pytest.raises(DataError):
            summarize(np.arange(5.0))


class TestSubsetPartition:
    def test_partition_consistency(self):
        part = SubsetPartition.from_indices((2, 0), 4)
        assert part.a == (0, 2)
        assert part.a_complement == (1, 3)
        assert part.size == 2

    def test_invalid_partition(self):
        with pytest.raises(DataError):
            SubsetPartition(a=(0, 1), a_complement=(1, 2), p=3)


class TestConditionalBlock:
    def test_full_subset_is_identity(self, rng):
        s = summarize(rng.standard_normal((15, 3)))
        block = conditional_block(s, SubsetPartition.full(3))
        assert np.array_equal(block.mean_cond, s.mean)
        assert np.array_equal(block.cov_cond, s.cov)

    def test_diagonal_cov_no_adjustment(self):
        s = make_summary([1.5, -0.5], np.eye(2))
        block = conditional_block(s, SubsetPartition.from_indices((0,), 2))
        assert np.allclose(block.mean_cond, [1.5])
        assert np.allclose(block.cov_cond, [[1.0]])

    def test_matches_explicit_inverse(self, rng):
        cov = random_pd_matrix(rng, 3)
        mean = rng.standard_normal(3)
        s = make_summary(mean, cov)
        part = SubsetPartition.from_indices((0, 2), 3)
        block = conditional_block(s, part)
        inv = np.linalg.inv(cov[np.ix_([1], [1])])
        expect_mean = mean[[0, 2]] - cov[np.ix_([0, 2], [1])] @ inv @ mean[[1]]
        expect_cov = cov[np.ix_([0, 2], [0, 2])] - cov[np.ix_([0, 2], [1])] @ inv @ cov[
            np.ix_([1], [0, 2])
        ]
        assert np.allclose(block.mean_cond, expect_mean, rtol=1e-10)
        assert np.allclose(block.cov_cond, expect_cov, rtol=1e-10)

    def test_schur_determinant_identity(self, rng):
        cov = random_pd_matrix(rng, 4)
        s = make_summary(np.zeros(4), cov)
        for indices in [(0,), (1, 3), (0, 1, 2)]:
            part = SubsetPartition.from_indices(indices, 4)
            block = conditional_block(s, part)
            ac = list(part.a_complement)
            lhs = np.linalg.det(cov)
            rhs = np.linalg.det(cov[np.ix_(ac, ac)]) * np.linalg.det(block.cov_cond)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_singular_complement_block_raises(self):
        cov = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        s = make_summary([1.0, 1.0, 1.0], cov)
        with pytest.raises(ConditioningError) as err:
            conditional_block(s, SubsetPartition.from_indices((0,), 3))
        assert err.value.subset == (1, 2)


class TestActiveSubsetOrthant:
    def test_all_positive_mean(self):
        s = make_summary([1.0, 1.0], np.eye(2))
        assert active_subset_orthant(s).a == (0, 1)

    def test_all_negative_mean(self):
        s = make_summary([-1.0, -1.0], np.eye(2))
        assert active_subset_orthant(s).a == ()

    def test_unique_and_matches_enumeration(self, rng):
        p = 4
        for _ in range(200):
            mean = rng.standard_normal(p)
            cov = random_pd_matrix(rng, p)
            s = make_summary(mean, cov)
            matches = qualifying_subsets(mean, cov)
            assert len(matches) == 1
            assert active_subset_orthant(s).a == matches[0]

    def test_scale_equivariance(self, rng):
        p = 3
        for _ in range(50):
            mean = rng.standard_normal(p)
            cov = random_pd_matrix(rng, p)
            d = rng.uniform(0.2, 5.0, size=p)
            s = make_summary(mean, cov)
            s_scaled = make_summary(d * mean, cov * np.outer(d, d))
            assert active_subset_orthant(s).a == active_subset_orthant(s_scaled).a

    def test_boundary_convention(self):
        # A measured-zero component disqualifies the strict branch, and the
        # inclusive complement condition catches the draw instead.
        s = make_summary([0.0, -1.0], np.eye(2))
        assert active_subset_orthant(s).a == ()
        s = make_summary([0.0, 1.0], np.eye(2))
        assert active_subset_orthant(s).a == (1,)


class TestActiveBranchHalfspace:
    def test_last_coordinate_positive(self):
        s = make_summary([5.0, -5.0, 1.0], np.eye(3))
        assert active_branch_halfspace(s).is_full()

    def test_boundary_goes_to_reduced_branch(self):
        s = make_summary([5.0, 5.0, 0.0], np.eye(3))
        assert active_branch_halfspace(s).a == (0, 1)

    def test_sign_oracle(self, rng):
        for _ in range(300):
            mean = rng.standard_normal(3)
            s = make_summary(mean, random_pd_matrix(rng, 3))
            branch = active_branch_halfspace(s)
            assert branch.is_full() == (mean[-1] > 0)


def test_iter_subsets_order():
    subsets = list(iter_subsets(3))
    assert subsets[0] == ()
    assert subsets == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]
