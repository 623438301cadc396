import numpy as np
import pytest
from scipy.optimize import nnls

from conetest import (
    CoordinateHalfspace,
    DataError,
    MetricError,
    Orthant,
    Polyhedral,
    ReductionError,
    SolverError,
    dual_cone_contains,
    metric_sq_norm,
    project,
    reduce_model,
)
from conetest import _batch
from conetest._batch import (
    batch_orthant,
    factor_cov,
    orthant_active_set,
    substream,
)
from conetest.sample import qualifying_subsets

from conftest import compound_null, counted, kkt_enumeration_projection, random_pd_matrix, row_major


class TestOrthantProjection:
    def test_interior_point_fixed(self):
        proj = project([1.0, 2.0], np.eye(2), Orthant(2))
        assert np.allclose(proj.point, [1.0, 2.0])
        assert proj.sq_norm_projection == pytest.approx(5.0)
        assert proj.sq_norm_residual == pytest.approx(0.0)
        assert proj.active_subset.a == (0, 1)

    def test_polar_point_projects_to_origin(self):
        proj = project([-1.0, -3.0], np.eye(2), Orthant(2))
        assert np.allclose(proj.point, 0.0)
        assert proj.sq_norm_projection == pytest.approx(0.0)
        assert proj.active_subset.a == ()

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_three_routes_agree(self, rng, p):
        for _ in range(60):
            x = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
            m = random_pd_matrix(rng, p)
            proj = project(x, m, Orthant(p))
            # The projection lies exactly on its face.
            assert all(proj.point[i] == 0.0 for i in proj.active_subset.a_complement)
            # Subset-formula route: the norm of the adjusted mean of the one
            # qualifying subset under its Schur complement.
            found = qualifying_subsets(x, m)
            assert found == [proj.active_subset.a]
            a = list(found[0])
            ac = [i for i in range(p) if i not in a]
            adj, cond = x[a], m[np.ix_(a, a)]
            if a and ac:
                adj = adj - m[np.ix_(a, ac)] @ np.linalg.solve(m[np.ix_(ac, ac)], x[ac])
                cond = cond - m[np.ix_(a, ac)] @ np.linalg.solve(
                    m[np.ix_(ac, ac)], m[np.ix_(ac, a)]
                )
            subset_norm = float(adj @ np.linalg.solve(cond, adj)) if a else 0.0
            theta, obj = kkt_enumeration_projection(x, m)
            assert np.allclose(proj.point, theta, rtol=1e-8, atol=1e-10)
            scale = max(1.0, proj.sq_norm_projection)
            brute_norm = float(theta @ np.linalg.solve(m, theta))
            assert abs(proj.sq_norm_projection - brute_norm) <= 1e-8 * scale
            assert abs(subset_norm - brute_norm) <= 1e-8 * scale
            assert obj == pytest.approx(proj.sq_norm_residual, rel=1e-8, abs=1e-10)

    def test_pythagoras_and_complementarity(self, rng):
        for _ in range(100):
            p = rng.integers(1, 6)
            x = rng.standard_normal(p)
            m = random_pd_matrix(rng, p)
            proj = project(x, m, Orthant(p))
            total = metric_sq_norm(x, m)
            assert total == pytest.approx(
                proj.sq_norm_projection + proj.sq_norm_residual, rel=1e-9, abs=1e-12
            )
            inner = proj.point @ np.linalg.solve(m, proj.residual)
            assert abs(inner) <= 1e-9 * max(1.0, total)

    def test_idempotent(self, rng):
        for _ in range(50):
            p = 4
            x = rng.standard_normal(p) * 2
            m = random_pd_matrix(rng, p)
            proj = project(x, m, Orthant(p))
            again = project(proj.point, m, Orthant(p))
            assert np.allclose(again.point, proj.point, atol=1e-9)

    def test_contraction(self, rng):
        for _ in range(100):
            p = 3
            x = rng.standard_normal(p)
            m = random_pd_matrix(rng, p)
            proj = project(x, m, Orthant(p))
            assert proj.sq_norm_projection <= metric_sq_norm(x, m) + 1e-12

    def test_non_pd_metric_raises(self):
        with pytest.raises(MetricError):
            project([1.0, 1.0], np.array([[1.0, 2.0], [2.0, 1.0]]), Orthant(2))

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_metric_checks_are_free_of_units(self, scale):
        m = scale * np.array([[1.0, 0.3], [0.3, 1.0]])
        assert project([1.0, -1.0], m, Orthant(2)).sq_norm_projection > 0.0
        with pytest.raises(MetricError, match="symmetric"):
            project([1.0, 1.0], scale * np.array([[1.0, 0.3], [0.3 + 1e-6, 1.0]]), Orthant(2))
        with pytest.raises(MetricError, match="positive definite"):
            project([1.0, 1.0], scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), Orthant(2))


def nnls_orthant(y, m):
    """``(support, q_proj, q_res)`` from ``scipy.optimize.nnls`` on the whitened problem.

    With ``m = L L'`` the metric distance is ``|L^{-1} (y - t)|^2``, a
    nonnegative least-squares problem in ``t`` (Lawson & Hanson).
    """
    w = np.linalg.inv(np.linalg.cholesky(m))
    theta, rnorm = nnls(w, w @ y)
    proj = w @ theta
    return np.flatnonzero(theta > 0.0), float(proj @ proj), float(rnorm**2)


def ill_conditioned_draws(seed):
    """800 draws at p = 12 under a fixed metric of condition number 3e5 to 1e8."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((13, 12))
    d = np.exp(rng.choice([-2.0, 2.0], 12))
    m = (g.T @ g) * np.outer(d, d)
    return rng.standard_normal((800, 12)) @ np.linalg.cholesky(m).T, m


def least_index_reference(y, metric):
    """``(free, q_res)`` by Murty's least-index rule alone.

    The kernel's sign conditions and tolerance, but every step flips only
    the lowest violating index of each pending draw: the kernel's backup
    step, run alone.
    """
    reps, p = y.shape
    metric = np.broadcast_to(metric, (reps, p, p))
    free, q_res = y > 0.0, np.zeros(reps)
    tol = _batch.ACTIVE_SET_RTOL * np.sqrt(np.einsum("ri,ri->r", y, y))[:, None]
    todo = np.flatnonzero(~free.all(axis=1))
    for _ in range(2**p):  # the rule never returns to a free set
        if not todo.size:
            break
        mask = free[todo]
        mats = np.where(mask[:, None, :], np.eye(p), metric[todo])
        z = np.linalg.solve(mats, y[todo][..., None])[..., 0]
        viol = (z * np.diagonal(mats, axis1=1, axis2=2) > tol[todo]) != mask
        ok = ~viol.any(axis=1)
        q_res[todo[ok]] = np.einsum("ri,ri->r", np.where(mask, 0.0, y[todo])[ok], z[ok])
        todo = todo[~ok]
        free[todo, np.argmax(viol[~ok], axis=1)] ^= True
    assert not todo.size
    return free, q_res


def bayes_draws(p, reps, seed):
    """Scaled means and covariances of the Bayes compound null at n = 60, prior df p + 4."""
    means, c = row_major(compound_null(substream(seed, p), np.eye(p), p + 4.0, 60, reps))
    return np.sqrt(60) * means, factor_cov(c, 60)


class TestOrthantKernel:
    # p = 16 has 65536 subsets, beyond any enumeration at this size.
    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    @pytest.mark.parametrize("p", [*range(2, 13), 16])
    def test_matches_nnls(self, rng, p, per_draw):
        reps = 150
        y = rng.standard_normal((reps, p)) * rng.uniform(0.5, 3.0, size=(reps, 1))
        if per_draw:
            metric = np.stack([random_pd_matrix(rng, p) for _ in range(reps)])
        else:
            metric = random_pd_matrix(rng, p)
        free = orthant_active_set(y, metric)
        _, q_proj, q_res = batch_orthant(y, metric, 1)
        for i in range(reps):
            m = metric[i] if per_draw else metric
            support, ref_proj, ref_res = nnls_orthant(y[i], m)
            scale = max(1.0, float(y[i] @ np.linalg.solve(m, y[i])))
            assert np.flatnonzero(free[i]).tolist() == support.tolist()
            assert abs(q_proj[i] - ref_proj) <= 1e-9 * scale
            assert abs(q_res[i] - ref_res) <= 1e-9 * scale

    @pytest.mark.parametrize("seed", [5016, 5094, 5160])
    def test_ill_conditioned_draws_do_not_cycle(self, seed):
        # Greedy pivots (drop the most negative free index, else join the
        # largest multiplier) cycle on some of these draws and hit the
        # 120-step cap; the least-index rule alone needs up to 21 steps here,
        # the kernel's schedule up to 9.
        y, m = ill_conditioned_draws(seed)
        free = orthant_active_set(y, m)
        for i in range(len(y)):
            assert np.flatnonzero(free[i]).tolist() == nnls_orthant(y[i], m)[0].tolist()

    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    @pytest.mark.parametrize("p", range(2, 13))
    def test_matches_least_index_reference(self, rng, p, per_draw):
        reps = 400
        y = rng.standard_normal((reps, p)) * rng.uniform(0.5, 3.0, size=(reps, 1))
        if per_draw:
            metric = np.stack([random_pd_matrix(rng, p) for _ in range(reps)])
        else:
            metric = random_pd_matrix(rng, p)
        free, q_res = orthant_active_set(y, metric, residual=True)
        ref_free, ref_q_res = least_index_reference(y, metric)
        assert np.array_equal(free, ref_free)
        assert np.array_equal(q_res, ref_q_res)
        assert np.array_equal(orthant_active_set(y, metric), ref_free)

    @pytest.mark.parametrize("seed", [5016, 5094, 5160])
    def test_ill_conditioned_draws_match_least_index_reference(self, seed):
        y, m = ill_conditioned_draws(seed)
        free, q_res = orthant_active_set(y, m, residual=True)
        ref_free, ref_q_res = least_index_reference(y, m)
        assert np.array_equal(free, ref_free)
        assert np.array_equal(q_res, ref_q_res)
        assert np.array_equal(orthant_active_set(y, m), ref_free)

    @pytest.mark.parametrize("p", [8, 12])
    def test_block_pivots_solve_fewer_rows(self, monkeypatch, p):
        # Rows solved for these 2000 draws: 4464 against 6140 at p = 8 and
        # 5690 against 10443 at p = 12.
        y, metric = bayes_draws(p, 2000, 61)
        rows = counted(monkeypatch, "solve")
        free, q_res = orthant_active_set(y, metric, residual=True)
        kernel_rows = sum(rows)
        rows.clear()
        ref_free, ref_q_res = least_index_reference(y, metric)
        assert np.array_equal(free, ref_free) and np.array_equal(q_res, ref_q_res)
        assert kernel_rows < 0.8 * sum(rows)

    def test_least_index_backup_ends_a_block_cycle(self, monkeypatch):
        # Flipping every violating index at every step walks the free sets
        # {2} -> {3} -> {1, 2, 3} -> {2}, two violations each, forever; the
        # least-index steps that follow a block's first steps end it.
        y = np.array([[-0.669, -1.656, 0.899, -0.163]])
        metric = np.array([
            [4.72, -0.328, 0.225, 0.66],
            [-0.328, 2.24, -0.934, 0.262],
            [0.225, -0.934, 0.511, -0.064],
            [0.66, 0.262, -0.064, 0.144],
        ])
        free, q_res = orthant_active_set(y, metric, residual=True)
        assert np.flatnonzero(free[0]).tolist() == nnls_orthant(y[0], metric)[0].tolist() == [2, 3]
        ref_free, ref_q_res = least_index_reference(y, metric)
        assert np.array_equal(free, ref_free) and np.array_equal(q_res, ref_q_res)
        # The cycle starts from the sign pattern {2}; the warm start skips it.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "BLOCK_STEPS", 10**9)
        with pytest.raises(SolverError, match="draw 0"):
            orthant_active_set(y, metric)

    def test_boundary_convention(self):
        # A zero component is not strictly positive, and the inclusive
        # complement condition takes the draw, in either metric form.
        y = np.array([[0.0, -1.0], [0.0, 1.0]])
        for metric in (np.eye(2), np.stack([np.eye(2)] * 2)):
            free, q_res = orthant_active_set(y, metric, residual=True)
            assert free.tolist() == [[False, False], [False, True]]
            assert q_res.tolist() == [1.0, 0.0]
        # An adjusted mean of exactly zero leaves the free set as well.
        y, metric = np.array([0.5, -1.0]), np.array([[1.0, -0.5], [-0.5, 1.0]])
        free = orthant_active_set(y[None, :], metric)
        assert qualifying_subsets(y, metric) == [()]
        assert free.tolist() == [[False, False]]

    def test_iteration_cap_names_draw(self, monkeypatch):
        # Draw 0 satisfies the sign conditions at its sign pattern; draw 1
        # needs a second step from its sign pattern, which a one-step cap
        # forbids.  The warm start would find its pattern.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        metric = np.array([[1.0, -0.9], [-0.9, 1.0]])
        y = np.array([[1.0, 1.0], [0.5, -1.0]])
        with pytest.raises(SolverError, match="draw 1") as err:
            orthant_active_set(y, metric)
        assert err.value.details == {"draw": 1, "y": [0.5, -1.0]}
        with pytest.raises(SolverError, match="draw 0"):
            project(y[1], metric, Orthant(2))

    def test_stuck_draw_in_later_block_named_by_call_index(self, monkeypatch):
        # Draws 0 and 2 are positive and never pending.  Blocks of two
        # pending draws are (1, 3) and (4, 5); only draw 5 needs a second
        # step from its sign pattern, the start without warm sweeps.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        monkeypatch.setattr(_batch, "ACTIVE_SET_BLOCK", 2)
        metric = np.array([[1.0, -0.9], [-0.9, 1.0]])
        y = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 1.0], [-0.5, -2.0], [-1.0, -0.1], [0.5, -1.0]])
        with pytest.raises(SolverError, match="draw 5") as err:
            orthant_active_set(y, metric)
        assert err.value.details == {"draw": 5, "y": [0.5, -1.0]}

    @pytest.mark.parametrize("p", [*range(1, 13), 63, 64, 65])
    def test_fixed_metric_equals_its_stack(self, rng, p):
        # A shared metric builds every row's step system from one metric, a
        # stack from each row's own.  The last 200 rows repeat four
        # patterns: positive multiples of four rows, and rows with the
        # signs of those four.
        base = rng.standard_normal((4, p))
        picks = rng.integers(4, size=200)
        y = np.concatenate([
            rng.standard_normal((300, p)),
            base[picks[:100]] * rng.uniform(0.5, 2.0, (100, 1)),
            np.abs(rng.standard_normal((100, p))) * np.sign(base[picks[100:]]),
        ])
        reps = len(y)
        metric = random_pd_matrix(rng, p)
        free, q_res = orthant_active_set(y, metric, residual=True)
        free_s, q_res_s = orthant_active_set(y, np.stack([metric] * reps), residual=True)
        assert np.array_equal(free, free_s)
        assert np.array_equal(q_res, q_res_s)
        assert np.array_equal(orthant_active_set(y, metric), free)

    @pytest.mark.parametrize("per_draw", [False, True], ids=["fixed", "per_draw"])
    def test_block_size_does_not_change_output(self, rng, monkeypatch, per_draw):
        p, reps = 6, 501
        y = rng.standard_normal((reps, p))
        if per_draw:
            metric = np.stack([random_pd_matrix(rng, p) for _ in range(reps)])
        else:
            metric = random_pd_matrix(rng, p)
        free, q_res = orthant_active_set(y, metric, residual=True)
        grouped = orthant_active_set(y, metric)
        monkeypatch.setattr(_batch, "ACTIVE_SET_BLOCK", 2)
        free_b, q_res_b = orthant_active_set(y, metric, residual=True)
        assert np.array_equal(free, free_b)
        assert np.array_equal(q_res, q_res_b)
        assert np.array_equal(orthant_active_set(y, metric), grouped)


def shared_metrics(rng):
    """Shared metrics at p = 2-12: equicorrelations from -1/(p-1) to 0.99, near-singular, rescaled by e^±3."""
    for p in range(2, 13):
        for rho in (-1.0 / (p - 1) + 1e-3, -0.5 / (p - 1), 0.5, 0.99):
            yield (1.0 - rho) * np.eye(p) + rho * np.ones((p, p))
        g = rng.standard_normal((p - 1, p))  # rank p - 1, then a ridge of 1e-6
        yield g.T @ g + 1e-6 * np.eye(p)
        d = np.exp(rng.uniform(-3.0, 3.0, p))
        yield random_pd_matrix(rng, p) * np.outer(d, d)


def solved_rows(monkeypatch, y, metric):
    """Rows of all batched solves of ``orthant_active_set(y, metric, residual=True)``, and its output."""
    with monkeypatch.context() as m:
        rows = counted(m, "solve")
        out = orthant_active_set(y, metric, residual=True)
    return sum(rows), out


class TestWarmStart:
    """Projected Gauss-Seidel sweeps pick the start on a shared metric and change no output."""

    def test_warm_and_cold_starts_agree(self, rng, monkeypatch):
        for metric in shared_metrics(rng):
            y = rng.standard_normal((1000, len(metric))) @ np.linalg.cholesky(metric).T
            free, q_res = orthant_active_set(y, metric, residual=True)
            with monkeypatch.context() as m:
                m.setattr(_batch, "WARM_SWEEPS", 0)
                cold_free, cold_q_res = orthant_active_set(y, metric, residual=True)
            assert np.array_equal(free, cold_free)
            assert np.array_equal(q_res, cold_q_res)

    @pytest.mark.parametrize("sabotage", ["complement", "all_false"])
    def test_wrong_start_changes_no_output(self, rng, monkeypatch, sabotage):
        # The kernel accepts a draw only by its own solve, whatever the start.
        warm_start = _batch._warm_start

        def wrong_start(y, metric):
            right = warm_start(y, metric)
            return ~right if sabotage == "complement" else np.zeros_like(right)

        for p in (2, 5, 9):
            metric = random_pd_matrix(rng, p)
            y = rng.standard_normal((1000, p)) @ np.linalg.cholesky(metric).T
            free, q_res = orthant_active_set(y, metric, residual=True)
            monkeypatch.setattr(_batch, "_warm_start", wrong_start)
            wrong_free, wrong_q_res = orthant_active_set(y, metric, residual=True)
            monkeypatch.setattr(_batch, "_warm_start", warm_start)
            assert np.array_equal(free, wrong_free)
            assert np.array_equal(q_res, wrong_q_res)

    def test_sweeps_solve_fewer_rows(self, monkeypatch):
        # Four sweeps: about 1.02 against 1.98 rows per pending draw at these draws.
        p = 6
        metric = 0.5 * np.eye(p) + 0.5 * np.ones((p, p))
        y = substream(71, 0).standard_normal((10000, p)) @ np.linalg.cholesky(metric).T
        pending = np.count_nonzero((y <= 0.0).any(axis=1))
        warm_rows, warm = solved_rows(monkeypatch, y, metric)
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        cold_rows, cold = solved_rows(monkeypatch, y, metric)
        assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
        assert warm_rows <= 1.03 * pending
        assert warm_rows <= 0.53 * cold_rows

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_lone_pending_row_keeps_the_sign_start(self, rng, monkeypatch, rows):
        # Sweeping one row costs about what the step it may save costs.
        calls = []
        warm_start = _batch._warm_start

        def spy(y, metric):
            calls.append(len(y))
            return warm_start(y, metric)

        monkeypatch.setattr(_batch, "_warm_start", spy)
        metric = random_pd_matrix(rng, 4)
        y = np.abs(rng.standard_normal((rows + 3, 4)))
        y[:rows, 1] = -y[:rows, 1]
        free, q_res = orthant_active_set(y, metric, residual=True)
        assert calls == ([] if rows == 1 else [rows])
        expect = least_index_reference(y, metric)
        assert np.array_equal(free, expect[0])
        assert np.allclose(q_res, expect[1], rtol=1e-12, atol=1e-12)

    def test_zero_sweeps_give_the_sign_pattern(self, rng, monkeypatch):
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        for metric in shared_metrics(rng):
            y = rng.standard_normal((200, len(metric)))
            y[::7, 0] = 0.0
            assert np.array_equal(_batch._warm_start(y, metric), y > 0.0)

    def test_stack_keeps_the_sign_start(self, rng, monkeypatch):
        def forbidden(y, metric):
            raise AssertionError("warm start under a stacked metric")

        monkeypatch.setattr(_batch, "_warm_start", forbidden)
        y = rng.standard_normal((300, 3))
        metric = np.stack([random_pd_matrix(rng, 3) for _ in range(300)])
        free = orthant_active_set(y, metric)
        assert np.array_equal(free, least_index_reference(y, metric)[0])


class TestGroupedSteps:
    """A residual-free call on a shared metric inverts each distinct step system once."""

    def test_shared_metrics_match_least_index_reference(self, rng, monkeypatch):
        inverted = counted(monkeypatch, "inv")
        for metric in shared_metrics(rng):
            y = rng.standard_normal((2000, len(metric))) @ np.linalg.cholesky(metric).T
            free = orthant_active_set(y, metric)
            assert np.array_equal(free, least_index_reference(y, metric)[0])
        # 120 steps grouped their rows here; the rest solved row by row.
        assert len(inverted) >= 100

    @pytest.mark.parametrize("group_min_rows", [1, 10**9], ids=["always", "never"])
    def test_forced_rule_changes_no_free(self, rng, monkeypatch, group_min_rows):
        cases = [
            (rng.standard_normal((2000, len(m))) @ np.linalg.cholesky(m).T, m) for m in shared_metrics(rng)
        ]
        for p in range(2, 13):
            cases.append((rng.standard_normal((400, p)), random_pd_matrix(rng, p)))
        cases.extend(ill_conditioned_draws(seed) for seed in (5016, 5094, 5160))
        expect = [orthant_active_set(y, m) for y, m in cases]
        monkeypatch.setattr(_batch, "GROUP_MIN_ROWS", group_min_rows)
        for (y, m), free in zip(cases, expect):
            assert np.array_equal(orthant_active_set(y, m), free)

    def test_residual_calls_solve_row_by_row(self, rng, monkeypatch):
        inverted = counted(monkeypatch, "inv")
        metric = random_pd_matrix(rng, 5)
        y = rng.standard_normal((2000, 5))
        orthant_active_set(y, metric, residual=True)
        assert inverted == []

    @pytest.mark.parametrize("group_min_rows", [4, 10**9], ids=["grouped", "per_row"])
    def test_singular_system_names_first_row_of_its_pattern(self, monkeypatch, group_min_rows):
        # From the sign start, the free set {2} leaves the complement {0, 1},
        # whose block of ones is singular; the free set {0, 1} leaves {2}.
        # Rows 1-8 are pending, two patterns: four rows each, so grouped.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "GROUP_MIN_ROWS", group_min_rows)
        inverted = counted(monkeypatch, "inv")
        metric = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        fine, bad = [1.0, 2.0, -1.0], [-1.0, -2.0, 1.0]
        y = np.array([[1.0, 1.0, 1.0]] + [fine] * 4 + [bad] + [fine] * 2 + [bad])
        with pytest.raises(SolverError, match="singular active-set system at draw 5") as err:
            orthant_active_set(y, metric)
        assert err.value.details == {"draw": 5, "y": bad}
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert inverted == ([2] if group_min_rows == 4 else [])

    def test_grouped_steps_invert_few_systems(self, monkeypatch):
        # The draws of TestWarmStart.test_sweeps_solve_fewer_rows: 8569
        # pending rows, whose first two steps invert 63 distinct systems
        # each and the third 54; the rest solve 155 rows one by one.
        p = 6
        metric = 0.5 * np.eye(p) + 0.5 * np.ones((p, p))
        y = substream(71, 0).standard_normal((10000, p)) @ np.linalg.cholesky(metric).T
        expect = orthant_active_set(y, metric, residual=True)[0]
        with monkeypatch.context() as m:
            inverted = counted(m, "inv")
            solved = counted(m, "solve")
            free = orthant_active_set(y, metric)
        assert np.array_equal(free, expect)
        assert np.count_nonzero((y <= 0.0).any(axis=1)) == 8569
        assert inverted == [63, 63, 54] and sum(solved) == 155


class TestHalfspaceProjection:
    def test_inside_halfspace(self, rng):
        m = random_pd_matrix(rng, 3)
        x = np.array([-1.0, 2.0, 0.5])
        proj = project(x, m, CoordinateHalfspace(3, 2))
        assert np.allclose(proj.point, x)
        assert proj.sq_norm_residual == 0.0

    def test_projects_to_boundary(self, rng):
        for _ in range(50):
            m = random_pd_matrix(rng, 3)
            x = rng.standard_normal(3)
            x[2] = -abs(x[2]) - 0.1
            proj = project(x, m, CoordinateHalfspace(3, 2))
            assert proj.active_subset.a_complement == (2,)
            assert proj.point[2] == 0.0
            # The boundary projection equals the subspace minimizer.
            theta, _ = kkt_enumeration_projection_hyperplane(x, m, 2)
            assert np.allclose(proj.point, theta, atol=1e-9)

    def test_orthant_dominated_by_halfspace(self, rng):
        # The orthant is contained in the halfspace, so its projection norm
        # is never larger.
        for _ in range(200):
            p = 3
            x = rng.standard_normal(p)
            m = random_pd_matrix(rng, p)
            q_orth = project(x, m, Orthant(p)).sq_norm_projection
            q_half = project(x, m, CoordinateHalfspace(p, p - 1)).sq_norm_projection
            assert q_orth <= q_half + 1e-9 * max(1.0, q_half)


def kkt_enumeration_projection_hyperplane(x, m, coord):
    """Minimize the metric distance subject to x[coord] = 0 (reference)."""
    p = len(x)
    rest = [i for i in range(p) if i != coord]
    theta = np.zeros(p)
    theta[rest] = x[rest] - m[np.ix_(rest, [coord])].ravel() * x[coord] / m[coord, coord]
    diff = x - theta
    return theta, float(diff @ np.linalg.solve(m, diff))


class TestPolyhedralProjection:
    def test_square_identity_matches_orthant(self, rng):
        p = 3
        for _ in range(30):
            x = rng.standard_normal(p)
            m = random_pd_matrix(rng, p)
            by_orthant = project(x, m, Orthant(p))
            by_poly = project(x, m, Polyhedral(np.eye(p)))
            assert np.allclose(by_poly.point, by_orthant.point, atol=1e-9)
            assert by_poly.sq_norm_projection == pytest.approx(
                by_orthant.sq_norm_projection, rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize(
        "cone",
        [
            Polyhedral(np.array([[1.0, -1.0], [0.0, 1.0]])),
            Polyhedral(np.array([[1.0, 1.0, -0.5]])),
            Polyhedral(np.array([[1.0, -1.0, 0.0, 0.5], [0.3, 0.0, 2.0, -1.0]])),
            CoordinateHalfspace(3, 1),
        ],
        ids=["square", "wide_1x3", "wide_2x4", "halfspace"],
    )
    def test_square_general_constraints(self, rng, cone):
        for _ in range(50):
            x = rng.standard_normal(cone.p) * 2
            m = random_pd_matrix(rng, cone.p)
            proj = project(x, m, cone)
            assert cone.contains(proj.point, tol=1e-9)
            # KKT: the metric residual lies in the dual cone and is
            # orthogonal to the projection.
            grad = np.linalg.solve(m, x - proj.point)
            assert dual_cone_contains(grad, cone) or np.allclose(grad, 0, atol=1e-9)
            assert abs(proj.point @ grad) <= 1e-8 * max(1.0, metric_sq_norm(x, m))

    def test_wide_constraints_match_sampled_minimum(self, rng):
        # One constraint in R^3: check against dense random feasible search.
        b = np.array([[1.0, 1.0, -0.5]])
        cone = Polyhedral(b)
        for _ in range(20):
            x = rng.standard_normal(3) * 2
            m = random_pd_matrix(rng, 3)
            proj = project(x, m, cone)
            assert cone.contains(proj.point, tol=1e-8)
            obj = (x - proj.point) @ np.linalg.solve(m, x - proj.point)
            # Random feasible candidates never beat the reported minimum.
            cand = rng.standard_normal((4000, 3)) * 2 + x
            feas = cand[(cand @ b[0]) >= 0.0]
            diffs = feas - x
            objs = np.einsum("ri,ri->r", diffs, np.linalg.solve(m, diffs.T).T)
            assert objs.min() >= obj - 1e-7

    def test_rank_deficient_rejected(self):
        with pytest.raises(ReductionError):
            Polyhedral(np.array([[1.0, 1.0], [2.0, 2.0]]))

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_rank_test_is_free_of_units(self, scale):
        b = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
        assert np.array_equal(Polyhedral(b).constraints, b)
        with pytest.raises(ReductionError):
            Polyhedral(scale * np.array([[1.0, 1.0], [2.0, 2.0]]))


class TestReduceModel:
    def test_identity_reduction(self, rng):
        data = rng.standard_normal((10, 3))
        reduced = reduce_model(np.eye(3), np.eye(3), data)
        assert np.allclose(reduced.data, data)
        assert np.allclose(reduced.cone.constraints, np.eye(3))

    def test_orthonormal_rows_simplify(self, rng):
        b1 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        b2 = rng.standard_normal((2, 3))
        data = rng.standard_normal((8, 3))
        reduced = reduce_model(b1, b2, data)
        assert np.allclose(reduced.cone.constraints, b2 @ b1.T)

    def test_null_mean_preserved(self, rng):
        b1 = rng.standard_normal((2, 3))
        b2 = rng.standard_normal((2, 3))
        null_dirs = np.linalg.svd(b1)[2][2:]  # basis of the null space of b1
        mu = null_dirs.T @ rng.standard_normal(1)
        data = np.tile(mu.ravel(), (6, 1))
        reduced = reduce_model(b1, b2, data)
        assert np.allclose(reduced.data, data @ b1.T)
        assert np.allclose(reduced.data.mean(axis=0), 0.0, atol=1e-12)

    def test_linear_in_data(self, rng):
        b1 = rng.standard_normal((2, 4))
        b2 = rng.standard_normal((1, 4))
        data = rng.standard_normal((5, 4))
        r1 = reduce_model(b1, b2, data)
        r2 = reduce_model(b1, b2, 3.0 * data)
        assert np.allclose(3.0 * np.asarray(r1.data), r2.data)

    def test_rank_deficiency_named(self):
        b1 = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ReductionError, match="b1"):
            reduce_model(b1, np.eye(2), np.zeros((4, 2)))


class TestDualCone:
    def test_orthant_dual_is_negative_orthant(self):
        assert dual_cone_contains([-1.0, -1.0], Orthant(2))
        assert not dual_cone_contains([-1.0, 1.0], Orthant(2))
        assert dual_cone_contains([0.0, 0.0], Orthant(2))
        # Membership holds within 1e-10 (1 + |w|), here 2e-10.
        assert dual_cone_contains([-1.0, 1.9e-10], Orthant(2))
        assert not dual_cone_contains([-1.0, 2.1e-10], Orthant(2))

    @pytest.mark.parametrize(
        "cone",
        [
            Orthant(4),
            CoordinateHalfspace(4, 0),
            Polyhedral(np.array([[1.0, 2.0, 0.0, -1.0], [0.0, 1.0, 1.0, 1.0]])),
        ],
        ids=["orthant", "halfspace", "polyhedral"],
    )
    def test_projection_residual_is_dual(self, rng, cone):
        # Moreau: x minus its Euclidean projection lies in the dual cone.
        # Where some constraint is slack at the projection, the residual is
        # degenerate for the active-set solve (a zero multiplier on a zero
        # constraint value), whose exact-zero sign tests once cycled there.
        for _ in range(50):
            x = rng.standard_normal(4) * rng.uniform(0.5, 3.0)
            assert dual_cone_contains(x - project(x, np.eye(4), cone).point, cone)

    def test_coordinate_halfspace_dual(self):
        cone = CoordinateHalfspace(3, 2)
        assert dual_cone_contains([0.0, 0.0, -2.0], cone)
        assert not dual_cone_contains([0.1, 0.0, -2.0], cone)
        assert not dual_cone_contains([0.0, 0.0, 0.5], cone)

    def test_sum_halfspace_dual_is_diagonal_ray(self, rng):
        cone = Polyhedral(np.ones((1, 4)))
        assert dual_cone_contains(-0.7 * np.ones(4), cone)
        for _ in range(20):
            w = rng.standard_normal(4)
            if np.allclose(w, w[0]):
                continue
            member = dual_cone_contains(w, cone)
            # Support oracle: maximize <w, x> over sampled cone points.
            pts = rng.standard_normal((5000, 4))
            pts = pts[pts.sum(axis=1) >= 0.0]
            support = (pts @ w).max()
            assert member == bool(support <= 1e-8)

    def test_unbounded_dual_ray(self):
        # Dual membership is scale invariant: a huge multiple stays inside.
        cone = Polyhedral(np.ones((1, 3)))
        w = -np.ones(3)
        assert dual_cone_contains(w, cone)
        assert dual_cone_contains(1e6 * w, cone)

    def test_metric_pairing(self, rng):
        m = random_pd_matrix(rng, 2)
        w = -m @ np.ones(2)  # M^{-1} w = -(1,1) lies in the plain dual
        assert dual_cone_contains(w, Orthant(2), metric=m)


class TestBoundednessProbe:
    def test_t2_acceptance_contains_no_ray(self, rng):
        # Quadratic-form acceptance region: scaling any nonzero member far
        # enough always exits, unlike the dual-cone set.
        m = random_pd_matrix(rng, 3)
        c = 7.0
        for _ in range(20):
            x = rng.standard_normal(3)
            x *= 0.9 * np.sqrt(c / metric_sq_norm(x, m))
            assert metric_sq_norm(x, m) <= c
            assert metric_sq_norm(1e6 * x, m) > c


def test_dimension_mismatch():
    with pytest.raises(DataError):
        project([1.0, 2.0, 3.0], np.eye(2), Orthant(2))
