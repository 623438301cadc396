import dataclasses
import json

import numpy as np
import pytest

from conetest import (
    CalibrationError,
    ConeTestError,
    DataError,
    Orthant,
    PriorSpec,
    SolverError,
    _batch,
    calibrate,
    powerlab,
    project,
    stats,
)
from conetest._batch import (
    factor_cov,
    forward_sq_norm,
    orthant_active_set,
    run_chunks,
    sample_compound_null,
    sample_mean_chol,
    substream,
)
from conetest.powerlab import (
    LRT_ORTHANT_ACCEPTANCE,
    UIT_HALFSPACE_ACCEPTANCE,
    UIT_ORTHANT_ACCEPTANCE,
    ExperimentConfig,
    SigmaSource,
    TestPlan,
    convexity_probe,
    domination_experiment,
    random_correlation_matrix,
    resolve_sigmas,
    similarity_probe,
    simulate_power,
)


def small_config(**overrides):
    base = dict(
        p=2,
        n=15,
        alpha=0.05,
        replications=4000,
        seed=123,
        sigma_source=SigmaSource.fixed(np.eye(2)),
        theta_grid=(np.zeros(2),),
        tests=(TestPlan(family=stats.UIT_ORTHANT),),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_theta_outside_orthant_rejected(self):
        with pytest.raises(DataError):
            small_config(theta_grid=(np.array([-0.5, 0.2]),))

    def test_halfspace_theta_allows_negative_leading(self):
        cfg = small_config(
            theta_grid=(np.array([-0.5, 0.2]),),
            tests=(TestPlan(family=stats.UIT_HALFSPACE),),
        )
        assert cfg.theta_grid[0][0] == -0.5

    def test_bad_alpha(self):
        with pytest.raises(DataError):
            small_config(alpha=1.2)

    def test_bayes_plan_requires_prior(self):
        with pytest.raises(DataError):
            TestPlan(family=stats.UIT_ORTHANT, calibration="bayes")

    @pytest.mark.parametrize(
        "family, calibration",
        [
            (stats.T2, "bayes"),
            (stats.UIT_HALFSPACE, "bayes"),
            (stats.LRT_HALFSPACE, "bayes"),
            (stats.UIT_ORTHANT, "exact"),
            (stats.FUIT, "exact"),
            (stats.FUIT, "bayes"),
        ],
    )
    def test_plan_rejects_inapplicable_calibration(self, family, calibration):
        prior = PriorSpec.inverse_wishart(np.eye(2), 6.0)
        with pytest.raises(CalibrationError, match="does not apply"):
            TestPlan(family=family, calibration=calibration, prior=prior)

    def test_plan_accepts_applicable_calibrations(self):
        prior = PriorSpec.inverse_wishart(np.eye(2), 6.0)
        for family in stats.FAMILIES:
            TestPlan(family=family)
        for family in (stats.T2, stats.UIT_HALFSPACE, stats.LRT_HALFSPACE):
            TestPlan(family=family, calibration="exact")
        for family in (stats.UIT_ORTHANT, stats.LRT_ORTHANT):
            TestPlan(family=family, calibration="bayes", prior=prior)

    def test_sigma_kinds(self, rng):
        assert resolve_sigmas(SigmaSource.fixed(np.eye(2)), 2, 0)[0][0] == "sigma0"
        seq = resolve_sigmas(
            SigmaSource.sequence([np.eye(2), 2 * np.eye(2)]), 2, 0
        )
        assert len(seq) == 2
        rand = resolve_sigmas(SigmaSource.random_correlation(3), 2, 7)
        assert len(rand) == 3
        for _, m in rand:
            assert np.allclose(np.diag(m), 1.0)
            assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_random_correlation_matrix_shape(self, rng):
        m = random_correlation_matrix(rng, 4)
        assert m.shape == (4, 4)
        assert np.allclose(np.diag(m), 1.0)


class TestSimulatePower:
    def test_deterministic_across_workers(self, monkeypatch):
        # Small chunks so every cell spans several chunks and the pool runs.
        monkeypatch.setattr(powerlab, "SIM_CHUNK", 1500)
        prior = PriorSpec.inverse_wishart(np.eye(2), 6.0)
        theta_grid = (np.zeros(2), np.array([0.3, 0.1]))
        high = np.array([[1.0, 0.8], [0.8, 1.0]])

        def run(workers):
            cfg = small_config(workers=workers, theta_grid=theta_grid)
            return (
                simulate_power(cfg),
                domination_experiment(cfg),
                similarity_probe(stats.UIT_HALFSPACE, "sup", [np.eye(2), high], cfg),
                similarity_probe(stats.UIT_ORTHANT, "bayes", [high], cfg, prior=prior),
            )

        one, four = run(1), run(4)
        assert [r.rows for r in one] == [r.rows for r in four]
        assert one[3].rows[-1]["sigma_id"] == "prior_draws"

    def test_stream_keys_pinned(self):
        """Exact rejection counts of tiny runs, as first recorded.

        The counts fix every stream key (power grid, similarity cells, the
        prior cell) and the chunking: 20 003 draws are two chunks, the
        second of three draws.  A deliberate change of the random streams
        updates these numbers and says so in the change log.
        """
        cfg = small_config(
            n=10,
            alpha=0.1,
            replications=20_003,
            seed=5,
            sigma_source=SigmaSource.sequence(
                [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])]
            ),
            theta_grid=(np.zeros(2), np.array([0.3, 0.1])),
            tests=(TestPlan(stats.UIT_ORTHANT), TestPlan(stats.LRT_HALFSPACE, "exact")),
        )

        def counts(rates):
            return [round(r * cfg.replications) for r in rates]

        power = simulate_power(cfg)
        assert counts(r.rejection_rate for r in power.rows) == [
            1278, 1963, 4233, 4441, 1596, 2080, 4105, 4245,
        ]
        dom = domination_experiment(cfg)
        assert counts(r.power_orthant for r in dom.rows) == [
            1278, 1247, 4233, 4322, 1596, 1563, 4105, 4191,
        ]
        assert counts(r.power_halfspace for r in dom.rows) == [
            1947, 1963, 4336, 4441, 2081, 2080, 4157, 4245,
        ]
        prior = PriorSpec.inverse_wishart(np.eye(2), 5.0)
        sim = similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        # The Bayes weights come from the fixed-metric draw at the prior
        # scale, so the critical value and both rates moved; the streams of
        # the two cells did not.
        assert counts(r["rate"] for r in sim.rows) == [1999, 2074]

    def test_null_halfspace_rate_near_alpha(self):
        cfg = small_config(
            replications=20000,
            tests=(TestPlan(family=stats.UIT_HALFSPACE),),
        )
        row = simulate_power(cfg).rows[0]
        assert abs(row.rejection_rate - 0.05) <= 3 * row.mc_std_error

    def test_far_alternative_rejects_always(self):
        cfg = small_config(
            replications=2000,
            theta_grid=(np.array([4.0, 4.0]),),
        )
        row = simulate_power(cfg).rows[0]
        assert row.rejection_rate > 0.99

    def test_single_replication_gives_zero_or_one(self):
        cfg = small_config(replications=1)
        row = simulate_power(cfg).rows[0]
        assert row.rejection_rate in (0.0, 1.0)

    def test_fuit_size_bounded(self):
        cfg = small_config(
            replications=20000,
            tests=(TestPlan(family=stats.FUIT),),
            sigma_source=SigmaSource.fixed(np.array([[1.0, 0.6], [0.6, 1.0]])),
        )
        row = simulate_power(cfg).rows[0]
        assert row.rejection_rate <= 0.05 + 3 * max(row.mc_std_error, 1e-4)

    def test_table_round_trip(self):
        table = simulate_power(small_config(replications=100))
        d = dataclasses.asdict(table)
        assert d["rows"][0]["family"] == stats.UIT_ORTHANT
        assert d["metadata"]["seed"] == 123


class TestOnePoolPerExperiment:
    def test_single_chunk_cells_share_one_pool(self, monkeypatch):
        # Shaped like demos/configs/domination.json: five cells of one chunk
        # each, all submitted to one pool.
        calls = []

        def spy(worker, n_chunks, workers=1):
            calls.append(n_chunks)
            return run_chunks(worker, n_chunks, workers)

        monkeypatch.setattr(_batch, "run_chunks", spy)
        sigma = np.array([[1.0, 0.35], [0.35, 1.0]])
        thetas = ([0.0, 0.0], [0.2, 0.2], [0.5, 0.1], [0.4, 0.4], [0.9, 0.0])

        def report(workers):
            cfg = small_config(
                replications=3000,
                seed=2024,
                sigma_source=SigmaSource.fixed(sigma),
                theta_grid=tuple(np.array(t) for t in thetas),
                workers=workers,
            )
            table = dataclasses.asdict(domination_experiment(cfg))
            return json.dumps(table, sort_keys=True).encode()

        one, two, three = (report(w) for w in (1, 2, 3))
        assert one == two == three
        assert calls == [5, 5, 5]

    def test_solver_error_names_replay_key(self, monkeypatch):
        # A one-step cap fails every draw that needs a second step.  The far
        # theta of the first cell leaves no draw pending, so the first failed
        # chunk in task order is chunk 0 of the second cell.
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        monkeypatch.setattr(powerlab, "SIM_CHUNK", 500)
        sigma = np.array([[1.0, -0.9], [-0.9, 1.0]])
        cfg = small_config(
            replications=1500,
            seed=77,
            sigma_source=SigmaSource.fixed(sigma),
            theta_grid=(np.array([5.0, 5.0]), np.zeros(2)),
            workers=2,
        )
        with pytest.raises(SolverError, match=r"seed 77, stream key \[2, 0, 1\], chunk 0") as err:
            simulate_power(cfg)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (77, [2, 0, 1], 0)
        # The key replays the draw.
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        means, _ = sample_mean_chol(rng, np.zeros(2), np.linalg.cholesky(sigma), cfg.n, 500)
        assert (np.sqrt(cfg.n) * means[d["draw"]]).tolist() == d["y"]

    def test_singular_draw_names_replay_key(self):
        # Near an improper prior a chi-square factor of the compound null
        # underflows to 0, so a drawn covariance is singular.  Its T2 bound
        # is 0.65; alpha 0.6 puts the critical value (0.27) below it, so the
        # draw is classified.
        cfg = small_config(n=3, seed=8, alpha=0.6)
        prior = PriorSpec.inverse_wishart(np.eye(2), 1.5)
        pattern = r"singular active-set system at draw \d+ \(seed 8, stream key \[4, 999\], chunk 0"
        with pytest.raises(SolverError, match=pattern) as err:
            similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (8, [4, 999], 0)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        # The key replays the singular chunk, which raises at the named draw.
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        means, c = sample_compound_null(rng, prior.scale, prior.df, cfg.n, cfg.replications)
        y, covs = np.sqrt(cfg.n) * means, factor_cov(c, cfg.n)
        with pytest.raises(SolverError) as replay:
            orthant_active_set(y, covs)
        assert (replay.value.details["draw"], replay.value.details["y"]) == (d["draw"], d["y"])
        assert d["y"] == y[d["draw"]].tolist()
        assert isinstance(replay.value.__cause__, np.linalg.LinAlgError)

    def test_singular_draw_that_cannot_reject_is_not_classified(self):
        # The singular draw above, at alpha 0.05: the critical value (214)
        # lies above its T2 bound, so the draw is screened out and the
        # probe completes.
        cfg = small_config(n=3, seed=8)
        prior = PriorSpec.inverse_wishart(np.eye(2), 1.5)
        rep = similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        assert rep.critical > 1.0
        assert [row["sigma_id"] for row in rep.rows] == ["sigma0", "prior_draws"]


class TestOneCountingPath:
    """Every experiment counts through one ``_count_cells`` call."""

    @staticmethod
    def spy(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)
        return calls

    def test_each_experiment_makes_one_count_call(self, monkeypatch):
        calls = self.spy(monkeypatch, powerlab, "_count_cells")
        prior = PriorSpec.inverse_wishart(np.eye(2), 6.0)
        cfg = small_config(
            replications=500,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(2), np.array([0.3, 0.1])),
            tests=(TestPlan(stats.UIT_ORTHANT), TestPlan(stats.T2), TestPlan(stats.FUIT)),
        )
        for run in (
            lambda: simulate_power(cfg),
            lambda: domination_experiment(cfg),
            lambda: similarity_probe(stats.LRT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior),
            lambda: convexity_probe(UIT_HALFSPACE_ACCEPTANCE, trials=100, seed=1, n=15, p=2),
        ):
            calls.clear()
            run()
            assert len(calls) == 1

    def test_domination_calibrates_each_pair_once(self, monkeypatch):
        calibrations = self.spy(monkeypatch, calibrate, "_calibration")
        solves = self.spy(monkeypatch, calibrate, "sup_critical_value")
        rep = domination_experiment(small_config(replications=200))
        assert [args[:2] for args in calibrations] == [
            (stats.UIT_ORTHANT, "sup"), (stats.LRT_ORTHANT, "sup"),
        ]
        assert len(solves) == 2
        assert list(rep.metadata["critical_values"]) == ["UIT", "LRT"]
        assert [row.pair for row in rep.rows] == ["UIT", "LRT"]

    @pytest.mark.parametrize("trials", [0, 1, 9999, 10000, 10001, 25000])
    def test_one_covariance_per_block(self, trials):
        rep = convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=trials, seed=4, n=12, p=2)
        assert rep.pairs_tested == trials
        assert rep.metadata["covariances_probed"] == -(-trials // 10000)
        assert rep.violations == 0 and rep.witness is None

    def test_negative_trials_rejected(self):
        with pytest.raises(DataError, match="trials"):
            convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=-1, seed=4, n=12, p=2)

    def test_unknown_region_rejected(self):
        with pytest.raises(DataError, match="unknown region"):
            convexity_probe("T2_acceptance", trials=10, seed=4, n=12, p=2)

    def test_too_few_members_is_an_error(self, monkeypatch):
        monkeypatch.setattr(powerlab, "_member_means", lambda *args: np.zeros((1, 2)))
        with pytest.raises(ConeTestError, match="1 member means"):
            convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=10, seed=4, n=12, p=2)


class TestDomination:
    def test_paired_inequality_holds(self):
        cfg = small_config(
            replications=8000,
            theta_grid=(np.zeros(2), np.array([0.4, 0.2])),
        )
        rep = domination_experiment(cfg)
        assert not rep.flagged
        for row in rep.rows:
            assert row.implication_violations == 0
            assert row.difference >= -3 * max(row.difference_std_error, 1e-12)

    def test_size_rows_show_conservativeness(self):
        cfg = small_config(replications=30000, theta_grid=(np.zeros(2),))
        rep = domination_experiment(cfg)
        row = rep.rows[0]
        assert abs(row.power_halfspace - 0.05) <= 3.5 * max(
            np.sqrt(0.05 * 0.95 / cfg.replications), 1e-4
        )
        assert row.power_orthant < row.power_halfspace


class TestConvexity:
    def test_uit_regions_have_no_violations(self):
        for region in (UIT_ORTHANT_ACCEPTANCE, UIT_HALFSPACE_ACCEPTANCE):
            rep = convexity_probe(region, trials=15000, seed=5, n=15, p=3)
            assert rep.violations == 0
            assert rep.pairs_tested >= 15000
            assert rep.metadata["covariances_probed"] >= 2

    def test_lrt_witness_found_and_reported(self):
        rep = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=5, n=15, p=2)
        assert rep.witness is not None
        w = rep.witness
        assert w["midpoint_statistic"] > w["critical"]
        # Both endpoints are members.
        cov = np.diag(w["fixed_diagonal_cov"])
        for member in (w["member_a"], w["member_b"]):
            proj = project(np.sqrt(15) * np.asarray(member), cov, Orthant(2))
            value = stats.calibration_value(
                stats.LRT_ORTHANT, proj.sq_norm_projection, proj.sq_norm_residual, 15
            )
            assert value <= w["critical"]
        mid = 0.5 * (np.asarray(w["member_a"]) + np.asarray(w["member_b"]))
        assert np.allclose(mid, w["midpoint"])

    def test_lrt_witness_requires_p2(self):
        with pytest.raises(DataError):
            convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=5, n=15, p=3)


class TestMidpointPool:
    """The member pool reaches the boundary, so the midpoints can see a violation."""

    def test_lrt_orthant_midpoints_leave_the_region(self):
        # The likelihood-ratio region is not convex even slice-wise.
        n, p = 15, 2
        c = calibrate.sup_critical_value(stats.LRT_ORTHANT, 0.05, n, p).value
        violations, covariances = powerlab._midpoint_violations(
            stats.LRT_ORTHANT, c, 100_000, 808, n, p
        )
        assert covariances == 10 and violations > 0

    @pytest.mark.parametrize("n, p", [(15, 3), (8, 5)])
    @pytest.mark.parametrize("family", stats.UIT_FAMILIES)
    def test_uit_members_reach_the_boundary(self, monkeypatch, family, n, p):
        pools = []
        member_means = powerlab._member_means

        def spy(family, c, n, p, chol, rng, count):
            pool = member_means(family, c, n, p, chol, rng, count)
            pools.append((pool, chol))
            return pool

        monkeypatch.setattr(powerlab, "_member_means", spy)
        c = calibrate.sup_critical_value(family, 0.05, n, p).value
        violations, covariances = powerlab._midpoint_violations(family, c, 30_000, 808, n, p)
        assert violations == 0 and covariances == len(pools) == 3
        for pool, chol in pools:
            values = powerlab._batch_values(pool, np.sqrt(n - 1) * chol, n, {family})[family]
            assert values.max() <= c and values.max() >= 0.99 * c


class TestSimilarity:
    def test_halfspace_rates_agree_across_sigmas(self, rng):
        cfg = small_config(p=3, n=20, replications=15000,
                           sigma_source=SigmaSource.fixed(np.eye(3)),
                           theta_grid=(np.zeros(3),),
                           tests=(TestPlan(family=stats.UIT_HALFSPACE),))
        sigmas = [np.eye(3)]
        a = np.full((3, 3), 0.85) + 0.15 * np.eye(3)
        sigmas.append(a)
        rep = similarity_probe(stats.UIT_HALFSPACE, "sup", sigmas, cfg)
        rates = [row["rate"] for row in rep.rows]
        ses = [row["std_error"] for row in rep.rows]
        for r, se in zip(rates, ses):
            assert abs(r - 0.05) <= 3 * se

    def test_orthant_rate_depends_on_sigma(self):
        cfg = small_config(p=2, n=15, replications=25000,
                           theta_grid=(np.zeros(2),))
        high = np.array([[1.0, 0.95], [0.95, 1.0]])
        rep = similarity_probe(stats.UIT_ORTHANT, "sup", [np.eye(2), high], cfg)
        r0, r1 = (row["rate"] for row in rep.rows)
        se = max(row["std_error"] for row in rep.rows)
        assert abs(r0 - r1) > 3 * se  # visibly non-similar

    def test_bayes_aggregate_matches_alpha(self):
        cfg = small_config(p=2, n=15, replications=25000, seed=31,
                           theta_grid=(np.zeros(2),))
        prior = PriorSpec.inverse_wishart(np.eye(2), 6.0)
        rep = similarity_probe(
            stats.UIT_ORTHANT, "bayes", [], cfg, prior=prior
        )
        agg = rep.rows[-1]
        assert agg["sigma_id"] == "prior_draws"
        assert abs(agg["rate"] - 0.05) <= 3.5 * max(agg["std_error"], 1e-4)


def unscreened(monkeypatch):
    """Make every ``_batch_values`` call classify each pending draw."""
    screened = powerlab._batch_values

    def every_draw(means, c, n, families, floor=-np.inf):
        return screened(means, c, n, families, -np.inf)

    monkeypatch.setattr(powerlab, "_batch_values", every_draw)


def classified_spy(monkeypatch):
    """Record, per kernel call, the rows it classifies and the rows it is given."""
    calls = []

    def spy(y, metric, candidates=None):
        pending = ~(y > 0.0).all(axis=1)
        if candidates is not None:
            pending &= candidates
        calls.append((int(pending.sum()), len(y)))
        return orthant_active_set(y, metric, candidates)

    monkeypatch.setattr(powerlab, "orthant_active_set", spy)
    return calls


class TestT2Screen:
    """Only draws whose T2 bound reaches the smallest orthant threshold are classified."""

    PLANS = (
        TestPlan(stats.UIT_ORTHANT), TestPlan(stats.LRT_ORTHANT),
        TestPlan(stats.UIT_HALFSPACE, "exact"), TestPlan(stats.LRT_HALFSPACE, "exact"),
        TestPlan(stats.T2), TestPlan(stats.FUIT),
    )

    @staticmethod
    def reports(workers):
        prior = PriorSpec.inverse_wishart(np.eye(3), 7.0)
        cfg = small_config(
            p=3,
            n=20,
            replications=3000,
            seed=19,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(3), np.array([0.3, 0.0, 0.2])),
            tests=TestT2Screen.PLANS,
            workers=workers,
        )
        sigmas = [m for _, m in resolve_sigmas(cfg.sigma_source, cfg.p, cfg.seed)]
        return [
            dataclasses.asdict(rep)
            for rep in (
                simulate_power(cfg),
                domination_experiment(cfg),
                similarity_probe(stats.UIT_ORTHANT, "sup", sigmas, cfg),
                similarity_probe(stats.LRT_ORTHANT, "bayes", sigmas, cfg, prior=prior),
                convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=4000, seed=3, n=15, p=3),
                convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=5, n=15, p=2),
            )
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_screen_changes_no_count(self, monkeypatch, workers):
        # Chunks of 1000 draws, so two workers share every cell.
        monkeypatch.setattr(powerlab, "SIM_CHUNK", 1000)
        calls = classified_spy(monkeypatch)
        screened = self.reports(workers)
        classified = sum(k for k, _ in calls)
        unscreened(monkeypatch)
        calls.clear()
        assert self.reports(workers) == screened
        assert classified < 0.5 * sum(k for k, _ in calls)

    @pytest.mark.parametrize("family", stats.ORTHANT_FAMILIES)
    def test_bound_at_the_floor(self, family):
        # Floors within 1e-12 relative of a draw's bound, and of the bound
        # over the screen's margin.  Rows with a last coordinate just below
        # 0 have an orthant value within about 1e-12 of their bound.
        n, p = 12, 3
        rng = substream(23, 0)
        c = np.sqrt(n - 1) * np.linalg.cholesky(random_correlation_matrix(rng, p))
        means = rng.standard_normal((40, p))
        means[:20, :2] = np.abs(means[:20, :2])
        means[:20, 2] = -np.abs(means[:20, 2]) * 1e-6
        bound = n * forward_sq_norm(means, c)
        every = powerlab._batch_values(means, c, n, {family})[family]
        for k in range(0, 40, 3):
            for shift in (1.0, 1.0 - 1e-9):
                for rel in (-1e-12, 0.0, 1e-12):
                    floor = bound[k] * (1.0 + rel) / shift
                    values = powerlab._batch_values(means, c, n, {family}, floor)[family]
                    for threshold in (floor, np.nextafter(floor, np.inf), floor * (1 + 1e-12)):
                        assert np.array_equal(values >= threshold, every >= threshold)
                        assert np.array_equal(values <= threshold, every <= threshold)

    def test_null_cell_classifies_few_draws(self, monkeypatch):
        # The theta = 0 cell of the benchmark's power config.
        calls = classified_spy(monkeypatch)
        cfg = small_config(
            p=3,
            n=120,
            replications=20000,
            seed=61,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(3),),
            tests=self.PLANS,
        )
        simulate_power(cfg)
        assert len(calls) == 2
        for classified, rows in calls:
            assert rows == 20000 and classified < 0.1 * rows

    def test_capped_draw_names_its_row_and_replays(self, monkeypatch):
        # A one-step cap fails every classified draw that needs a second
        # step; draws screened out before it keep their indices.
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        monkeypatch.setattr(powerlab, "SIM_CHUNK", 500)
        sigma = np.array([[1.0, -0.9], [-0.9, 1.0]])
        cfg = small_config(replications=1000, seed=78, sigma_source=SigmaSource.fixed(sigma))
        with pytest.raises(SolverError, match=r"seed 78, stream key \[2, 0, 0\], chunk 0") as err:
            simulate_power(cfg)
        d = err.value.details
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        chol = np.linalg.cholesky(sigma)
        means, c = sample_mean_chol(rng, np.zeros(2), chol, cfg.n, 500)
        assert (np.sqrt(cfg.n) * means[d["draw"]]).tolist() == d["y"]
        critical = powerlab._resolve_critical(cfg.tests[0], cfg)
        bound = cfg.n * forward_sq_norm(means, c)
        assert bound[d["draw"]] >= critical
        pending = ~(means > 0.0).all(axis=1)
        assert np.any(pending[:d["draw"]] & (bound[:d["draw"]] < critical))
        with pytest.raises(SolverError, match=f"draw {d['draw']}"):
            orthant_active_set(np.sqrt(cfg.n) * means, factor_cov(c, cfg.n), bound >= critical)


class TestT2Oracle:
    """T2 rejection rates against the noncentral F law of Hotelling's T2."""

    def test_rates_within_3_se_of_noncentral_f(self):
        from scipy.special import ncfdtr

        p, n, reps = 3, 30, 20000
        sigmas = [np.eye(p), np.array([[1.0, 0.6, -0.2], [0.6, 1.0, 0.3], [-0.2, 0.3, 1.0]])]
        thetas = (np.zeros(p), np.array([0.2, 0.1, 0.0]), np.array([0.3, 0.3, 0.4]))
        cfg = small_config(
            p=p,
            n=n,
            replications=reps,
            seed=41,
            sigma_source=SigmaSource.sequence(sigmas),
            theta_grid=thetas,
            tests=(TestPlan(stats.T2),),
        )
        table = simulate_power(cfg)
        c = table.metadata["critical_values"]["T2/sup"]
        assert len(table.rows) == 6
        for row in table.rows:
            sigma = sigmas[int(row.sigma_id[len("sigma"):])]
            theta = np.asarray(row.theta)
            nc = n * theta @ np.linalg.solve(sigma, theta)
            # T2 / (n-1) >= c  <=>  F = T2 (n-p) / (p (n-1)) >= c (n-p) / p.
            rate = 1.0 - ncfdtr(p, n - p, nc, c * (n - p) / p)
            se = np.sqrt(rate * (1.0 - rate) / reps)
            assert abs(row.rejection_rate - rate) <= 3.0 * se


class TestBatchMatchesScalar:
    """``_batch_values`` agrees with the scalar statistics draw by draw."""

    SCALAR = {
        stats.T2: stats.hotelling_t2,
        stats.UIT_ORTHANT: stats.uit_orthant,
        stats.LRT_ORTHANT: stats.lrt_orthant,
        stats.UIT_HALFSPACE: stats.uit_halfspace,
        stats.LRT_HALFSPACE: stats.lrt_halfspace,
    }

    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("per_draw_cov", [False, True])
    def test_values_match_scalar_statistics(self, p, per_draw_cov):
        from conetest._batch import factor_cov, sample_mean_chol, substream
        from conetest.powerlab import _batch_values
        from test_sample import make_summary

        n, reps = 12, 40
        rng = substream(17, (p, int(per_draw_cov)))
        chol = np.linalg.cholesky(random_correlation_matrix(rng, p))
        theta = np.linspace(-0.3, 0.5, p)
        means, c = sample_mean_chol(rng, theta, chol, n, reps)
        if not per_draw_cov:
            c = c[0]
        covs = factor_cov(c, n)
        families = set(self.SCALAR) | {stats.FUIT}
        values = _batch_values(means, c, n, families)
        assert set(values) == families
        for i in range(reps):
            s = make_summary(means[i], covs[i] if per_draw_cov else covs, n=n)
            # Every statistic of a draw is at most its T2 value.  An empty
            # active set gives q_proj = t2 - q_res, a rounding residual of
            # about 1e-17 in place of 0, so errors are taken relative to T2.
            scale = stats.calibration_scale(stats.hotelling_t2(s))
            for family, statistic in self.SCALAR.items():
                expect = stats.calibration_scale(statistic(s))
                assert abs(values[family][i] - expect) <= 1e-12 * scale
            assert values[stats.FUIT][i] == pytest.approx(
                stats.fuit(s, 0.05).statistic, rel=1e-12, abs=0
            )

    def test_compound_null_inverts_nothing(self, monkeypatch):
        from conetest import calibrate

        def forbidden(*args, **kwargs):
            raise AssertionError("the compound null needs no matrix inverse")

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        prior = PriorSpec.inverse_wishart(np.array([[1.0, 0.3], [0.3, 2.0]]), 6.0)
        calibrate.bayes_weights_b1(12, 2, prior, mc_samples=500, seed=1)
        cfg = small_config(replications=500, theta_grid=(np.zeros(2),))
        rep = similarity_probe(stats.UIT_ORTHANT, "bayes", [], cfg, prior=prior)
        assert [row["sigma_id"] for row in rep.rows] == ["prior_draws"]

    def test_t2_solved_once_per_chunk(self, monkeypatch):
        from itertools import combinations

        from conetest import _batch, calibrate
        from conetest.powerlab import _batch_values

        calls = []

        def spy(*args):
            calls.append(1)
            return _batch.forward_sq_norm(*args)

        monkeypatch.setattr(powerlab, "forward_sq_norm", spy)
        rng = np.random.default_rng(3)
        means, c = rng.standard_normal((30, 3)), np.linalg.cholesky(np.eye(3) + 0.2)
        every = sorted(self.SCALAR) + [stats.FUIT]
        for k in range(1, len(every) + 1):
            for families in combinations(every, k):
                calls.clear()
                _batch_values(means, c, 12, set(families))
                assert len(calls) == (families != (stats.FUIT,))

        def forbidden(*args):
            raise AssertionError("weight estimators need no T2")

        monkeypatch.setattr(_batch, "batch_t2", forbidden)
        monkeypatch.setattr(_batch, "forward_sq_norm", forbidden)
        calibrate.chi_bar_weights(np.eye(4), method="monte_carlo", mc_samples=500, seed=1)
        calibrate.bayes_weights_b1(
            12, 3, PriorSpec.inverse_wishart(np.eye(3), 7.0), mc_samples=500, seed=1
        )
