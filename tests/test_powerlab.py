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
    factor_variances,
    forward_sq_norm,
    orthant_active_set,
    projection_norm,
    run_chunks,
    sample_mean_chol,
    scaled_draw,
    standard_draw,
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

from conftest import compound_null, row_major


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

    def test_plans_sharing_a_label_rejected(self):
        # Rows and metadata.critical_values know a plan by its label alone.
        equicorrelated = np.array([[1.0, 0.9], [0.9, 1.0]])
        priors = [PriorSpec.inverse_wishart(scale, 6.0) for scale in (np.eye(2), equicorrelated)]
        bayes = tuple(TestPlan(stats.UIT_ORTHANT, "bayes", prior=prior) for prior in priors)
        with pytest.raises(DataError, match="two test plans share the label 'UIT_orthant/bayes'"):
            small_config(tests=bayes)
        with pytest.raises(DataError, match="share the label 'T2/sup'"):
            small_config(tests=(TestPlan(stats.T2), TestPlan(stats.FUIT), TestPlan(stats.T2)))

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
        monkeypatch.setattr(_batch, "CHUNK", 1500)
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

        The counts fix every stream key (the power grid's one draw per
        chunk, and the similarity probe's, scored under each covariance and
        then the prior draws) and the chunking: 20 003 draws are three
        chunks, the last of three draws.  The similarity probe's Bayes
        critical value comes from Monte-Carlo weights, so its counts fix the
        weights' stream too.  A deliberate change of the random streams
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
            1343, 2028, 4249, 4419, 1581, 2062, 4188, 4330,
        ]
        # The grid's draws are common to both experiments: each cell's
        # orthant and halfspace counts repeat the power table's.
        dom = domination_experiment(cfg)
        assert counts(r.power_orthant for r in dom.rows) == [
            1343, 1320, 4249, 4313, 1581, 1560, 4188, 4269,
        ]
        assert counts(r.power_halfspace for r in dom.rows) == [
            2029, 2028, 4333, 4419, 2056, 2062, 4239, 4330,
        ]
        prior = PriorSpec.inverse_wishart(np.eye(2), 5.0)
        sim = similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        assert counts(r["rate"] for r in sim.rows) == [2020, 1992]

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

    def test_null_t2_count_is_shared_by_every_sigma(self):
        # At theta = 0, T2 = n (n-1) |c^{-1} xbar|^2 = (n-1) |A^{-1} z|^2
        # whatever sigma is: the cells of one draw must count the same T2
        # rejections, across chunks too.
        sigmas = [
            np.eye(3),
            np.array([[1.0, 0.99, 0.2], [0.99, 1.0, 0.2], [0.2, 0.2, 1.0]]),
            np.diag([0.01, 1.0, 100.0]),
        ]
        cfg = small_config(
            p=3,
            replications=12_000,
            seed=13,
            sigma_source=SigmaSource.sequence(sigmas),
            theta_grid=(np.zeros(3), np.full(3, 0.3)),
            tests=(TestPlan(stats.T2), TestPlan(stats.UIT_ORTHANT)),
        )
        null = {}
        for r in simulate_power(cfg).rows:
            if not any(r.theta):
                null.setdefault(r.family, []).append(r.rejection_rate)
        t2 = null[stats.T2]
        assert t2[0] == t2[1] == t2[2] and 0.0 < t2[0] < 0.2
        # The orthant statistic ignores coordinate scales but not correlation.
        uit = null[stats.UIT_ORTHANT]
        assert uit[0] == uit[2] != uit[1]

    @pytest.mark.parametrize("experiment", [simulate_power, domination_experiment])
    def test_grid_edit_leaves_other_rows_identical(self, experiment):
        # Every cell is scored on the chunk's one draw, so adding a sigma or
        # a theta anywhere in the grid changes no other row.
        sigmas = [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[2.0, -0.3], [-0.3, 0.5]])]
        thetas = [np.zeros(2), np.array([0.2, 0.1]), np.array([0.5, 0.4])]
        tests = (TestPlan(stats.UIT_ORTHANT), TestPlan(stats.LRT_HALFSPACE, "exact"), TestPlan(stats.FUIT))

        def rows(sigma_ids, theta_ids):
            cfg = small_config(
                replications=12_000,
                seed=9,
                sigma_source=SigmaSource.sequence([sigmas[i] for i in sigma_ids]),
                theta_grid=tuple(thetas[i] for i in theta_ids),
                tests=tests,
            )
            out = {}
            for row in experiment(cfg).rows:
                d = dataclasses.asdict(row)
                d["sigma_id"] = sigma_ids[int(d["sigma_id"][len("sigma"):])]
                out[d["sigma_id"], d["theta"], d.get("family", d.get("pair"))] = json.dumps(d)
            return out

        small = rows([0, 2], [0, 2])
        for grown in (rows([0, 1, 2], [0, 2]), rows([0, 2], [1, 0, 2]), rows([1, 2, 0], [2, 1, 0])):
            assert len(grown) > len(small)
            assert {k: grown[k] for k in small} == small


class TestOnePoolPerExperiment:
    def test_single_chunk_cells_share_one_pool(self, monkeypatch):
        # Shaped like demos/configs/domination.json: five cells of two
        # chunks, one pool task per chunk, each scoring all five cells.
        calls = []

        def spy(worker, n_chunks, workers=1):
            calls.append(n_chunks)
            return run_chunks(worker, n_chunks, workers)

        monkeypatch.setattr(_batch, "run_chunks", spy)
        monkeypatch.setattr(_batch, "CHUNK", 1500)
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
        assert calls == [2, 2, 2]

    def test_solver_error_names_replay_key(self, monkeypatch):
        # A one-step cap fails every draw that needs a second step.  Chunk 0
        # is the first failed chunk in task order, and its views run
        # sigma-major.  The far theta leaves no draw pending, and under
        # sigma0 = I no draw needs a second step, so the first failed view is
        # sigma1's cell at theta = 0.
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        monkeypatch.setattr(_batch, "CHUNK", 500)
        sigmas = [np.eye(2), np.array([[1.0, -0.9], [-0.9, 1.0]])]
        cfg = small_config(
            replications=1500,
            seed=77,
            sigma_source=SigmaSource.sequence(sigmas),
            theta_grid=(np.array([5.0, 5.0]), np.zeros(2)),
            workers=2,
        )
        simulate_power(dataclasses.replace(cfg, sigma_source=SigmaSource.fixed(sigmas[0])))
        cell = r"\(sigma id sigma1, theta \[0.0, 0.0\]\)"
        with pytest.raises(SolverError, match=cell + r" \(seed 77, stream key \[2\], chunk 0\)") as err:
            simulate_power(cfg)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (77, [2], 0)
        assert (d["sigma_id"], d["theta"]) == ("sigma1", [0.0, 0.0])
        # The key replays the chunk's one draw; the cell picks its view.
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        z, a = standard_draw(rng, cfg.p, cfg.n, 500)
        means, _ = scaled_draw(z, a, np.linalg.cholesky(sigmas[1]), cfg.n)
        y = np.sqrt(cfg.n) * (means + np.array(d["theta"])[:, None])
        assert y[:, d["draw"]].tolist() == d["y"]

    def test_singular_draw_names_replay_key(self):
        # Near an improper prior a chi-square factor of the compound null
        # underflows to 0, so a drawn covariance is singular.  Its UIT value
        # lies between 0 and 0.53, the ends of its residual bracket; alpha
        # 0.6 puts the critical value (0.27) between them, so the draw is
        # classified.  Seed 36 is the one of seeds 0-39 that draws one.
        cfg = small_config(n=3, seed=36, alpha=0.6)
        prior = PriorSpec.inverse_wishart(np.eye(2), 1.5)
        pattern = (
            r"singular active-set system at draw \d+ \(sigma id prior_draws, theta \[0.0, 0.0\]\) "
            r"\(seed 36, stream key \[4\], chunk 0"
        )
        with pytest.raises(SolverError, match=pattern) as err:
            similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (36, [4], 0)
        assert (d["sigma_id"], d["theta"]) == ("prior_draws", [0.0, 0.0])
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        # The key replays the singular chunk, which raises at the named draw.
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        means, c = row_major(compound_null(rng, prior.scale, prior.df, cfg.n, cfg.replications))
        y, covs = np.sqrt(cfg.n) * means, factor_cov(c, cfg.n)
        with pytest.raises(SolverError) as replay:
            orthant_active_set(y, covs)
        assert (replay.value.details["draw"], replay.value.details["y"]) == (d["draw"], d["y"])
        assert d["y"] == y[d["draw"]].tolist()
        assert isinstance(replay.value.__cause__, np.linalg.LinAlgError)

    def test_singular_draw_that_cannot_reject_is_not_classified(self):
        # The singular draw above, at alpha 0.05: the critical value (215)
        # lies above both ends of its bracket, so the draw is decided
        # without the kernel and the probe completes.
        cfg = small_config(n=3, seed=36)
        prior = PriorSpec.inverse_wishart(np.eye(2), 1.5)
        rep = similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)
        assert rep.critical > 1.0
        assert [row["sigma_id"] for row in rep.rows] == ["sigma0", "prior_draws"]

    def test_prior_view_is_the_compound_null(self):
        # The prior view of a replayed chunk is conftest's compound-null
        # draw on the same substream, bit for bit.
        prior = PriorSpec.inverse_wishart(np.array([[2.0, 0.3], [0.3, 0.5]]), 4.0)
        chol = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
        views = powerlab._grid_views(15, 2, [("sigma0", chol)], (np.zeros(2),), prior)
        cells = list(views(substream(3, (4, 1)), 700))
        assert [cell["sigma_id"] for cell, *_ in cells] == ["sigma0", "prior_draws"]
        means, c = compound_null(substream(3, (4, 1)), prior.scale, prior.df, 15, 700)
        assert np.array_equal(cells[1][1], means) and np.array_equal(cells[1][2], c)
        assert np.array_equal(cells[1][3], factor_variances(c, 15))


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

    def test_one_inversion_per_null_law(self, monkeypatch):
        # The benchmark's power plans: UIT_orthant/sup and UIT_halfspace/exact
        # invert one law, the two LRT plans another, T2 a third; FUIT takes
        # its Bonferroni threshold.  Bayes plans keep their own weights.
        plans = (
            TestPlan(stats.UIT_ORTHANT), TestPlan(stats.LRT_ORTHANT),
            TestPlan(stats.UIT_HALFSPACE, "exact"), TestPlan(stats.LRT_HALFSPACE, "exact"),
            TestPlan(stats.T2), TestPlan(stats.FUIT),
        )
        cfg = small_config(p=3, n=120, replications=200, tests=plans,
                           sigma_source=SigmaSource.random_correlation(2),
                           theta_grid=(np.zeros(3),))
        solves = self.spy(monkeypatch, calibrate, "_critical_value")
        rep = simulate_power(cfg)
        assert len(solves) == 3
        values = rep.metadata["critical_values"]
        assert values["UIT_orthant/sup"] == values["UIT_halfspace/exact"]
        assert values["LRT_orthant/sup"] == values["LRT_halfspace/exact"]
        for plan in plans[:5]:
            expect = calibrate.CALIBRATIONS[plan.calibration].solve(plan.family, 0.05, 120, 3, None)
            assert values[plan.label] == expect.value

        prior = PriorSpec.inverse_wishart(np.eye(3), 6.0)
        bayes = TestPlan(stats.UIT_ORTHANT, "bayes", prior=prior, weight_samples=2000)
        solves.clear()
        simulate_power(dataclasses.replace(cfg, tests=(bayes,) + plans[::2]))
        assert len(solves) == 3  # the Bayes plan's own, UIT and T2

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

    @pytest.mark.parametrize("trials", [10**400, 2**53 + 1, True, 2.5, "3", None])
    def test_trials_must_be_an_integer_up_to_2_53(self, trials):
        # Refused before any draw: no OverflowError from the chunk sizes,
        # no bool counted as one pair, no TypeError from a float.
        with pytest.raises(DataError, match=r"trials must be an integer from 0 to 2\*\*53"):
            convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=trials, seed=4, n=12, p=2)

    def test_numpy_integer_trials_accepted(self):
        rep = convexity_probe(UIT_HALFSPACE_ACCEPTANCE, trials=np.int64(10001), seed=4, n=12, p=2)
        assert type(rep.pairs_tested) is int and rep.metadata["covariances_probed"] == 2

    def test_unknown_region_rejected(self):
        with pytest.raises(DataError, match="unknown region"):
            convexity_probe("T2_acceptance", trials=10, seed=4, n=12, p=2)

    def test_too_few_members_is_an_error(self, monkeypatch):
        monkeypatch.setattr(powerlab, "_member_means", lambda *args: np.zeros((2, 1)))
        with pytest.raises(ConeTestError, match="1 member means"):
            convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=10, seed=4, n=12, p=2)


class TestBoundedRounds:
    """``_count_cells`` hands chunks to ``run_chunks`` in rounds of ``ROUND``."""

    @staticmethod
    def reports(workers):
        prior = PriorSpec.inverse_wishart(np.array([[1.0, 0.4], [0.4, 2.0]]), 5.0)
        scale = np.eye(4) + 0.3
        cfg = small_config(
            replications=25_000,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(2), np.array([0.3, 0.1])),
            workers=workers,
        )
        return [
            dataclasses.asdict(simulate_power(cfg)),
            dataclasses.asdict(domination_experiment(cfg)),
            dataclasses.asdict(similarity_probe(stats.UIT_ORTHANT, "bayes", [np.eye(2)], cfg, prior=prior)),
            dataclasses.asdict(convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=25_000, seed=3, n=15, p=2)),
            calibrate.chi_bar_weights(scale, "monte_carlo", mc_samples=25_000, seed=4, workers=workers),
            calibrate.bayes_weights_b1(
                9, 4, PriorSpec.inverse_wishart(scale, 6.0), mc_samples=25_000, seed=5, workers=workers
            ),
        ]

    def test_rounds_change_no_result(self, monkeypatch):
        # 25 000 draws are three chunks: one round, or two rounds of at most two.
        one_round = [self.reports(workers) for workers in (1, 2, 3)]
        calls = []

        def spy(worker, n_chunks, workers=1):
            calls.append(n_chunks)
            return run_chunks(worker, n_chunks, workers)

        monkeypatch.setattr(_batch, "run_chunks", spy)
        monkeypatch.setattr(_batch, "ROUND", 2)
        for workers, reference in zip((1, 2, 3), one_round):
            calls.clear()
            rounds = self.reports(workers)
            assert rounds[:4] == reference[:4]
            for got, want in zip(rounds[4:], reference[4:]):
                assert np.array_equal(got.weights, want.weights)
            # The similarity probe first estimates its Bayes weights, a cell
            # of 200 000 draws (20 chunks), then counts on its grid.
            assert calls == [2, 1] * 2 + [2] * 10 + [2, 1] * 4

    @pytest.mark.parametrize("experiment", ["power", "convexity", "weights"])
    def test_first_call_holds_one_round(self, monkeypatch, experiment):
        # 10**9 draws are 10**5 chunks; the spy stops the run at the first
        # call, before any chunk is drawn.
        class Stop(Exception):
            pass

        calls = []

        def spy(worker, n_chunks, workers=1):
            calls.append(n_chunks)
            raise Stop

        monkeypatch.setattr(_batch, "run_chunks", spy)
        with pytest.raises(Stop):
            if experiment == "power":
                simulate_power(small_config(replications=10**9, workers=2))
            elif experiment == "convexity":
                convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=10**9, seed=3, n=15, p=2)
            else:
                calibrate.chi_bar_weights(np.eye(4), "monte_carlo", mc_samples=10**9, seed=1)
        assert calls == [_batch.ROUND]


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

    @staticmethod
    def check_witness(rep, n, p):
        w = rep.witness
        assert rep.violations == 1 and rep.pairs_tested >= 1
        assert w["critical"] == rep.metadata["critical"]
        assert w["midpoint_statistic"] > w["critical"]
        # Both endpoints are members under the drawn covariance, and the
        # midpoint is not.
        cov = np.asarray(w["covariance"])
        assert cov.shape == (p, p)
        for point, member in ((w["member_a"], True), (w["member_b"], True), (w["midpoint"], False)):
            proj = project(np.sqrt(n) * np.asarray(point), cov, Orthant(p))
            value = stats.calibration_value(
                stats.LRT_ORTHANT, proj.sq_norm_projection, proj.sq_norm_residual, n
            )
            assert (value <= w["critical"]) == member
        mid = 0.5 * (np.asarray(w["member_a"]) + np.asarray(w["member_b"]))
        assert np.allclose(mid, w["midpoint"])

    def test_lrt_witness_found_and_reported(self):
        rep = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=5, n=15, p=2)
        self.check_witness(rep, 15, 2)

    def test_lrt_witness_at_p3(self):
        # The search has no rule on p: it runs the same midpoint cell.
        rep = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=5, n=15, p=3)
        self.check_witness(rep, 15, 3)
        assert rep.metadata["covariances_probed"] == -(-rep.pairs_tested // 10000)

    def test_lrt_witness_search_is_capped(self, monkeypatch):
        # Seed 808 first violates at pair 10 433, in the second chunk.
        rep = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=808, n=15, p=2)
        assert (rep.pairs_tested, rep.metadata["covariances_probed"]) == (10_433, 2)
        monkeypatch.setattr(powerlab, "_WITNESS_CHUNKS", 1)
        with pytest.raises(ConeTestError, match="no nonconvexity witness found within 10000 pairs"):
            convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=808, n=15, p=2)

    def test_probes_read_the_chunk_size_at_call_time(self, monkeypatch):
        # Both probes count covariances, one per chunk, in chunks of the
        # current _batch.CHUNK, whatever it was at import.
        monkeypatch.setattr(_batch, "CHUNK", 1000)
        rep = convexity_probe(UIT_ORTHANT_ACCEPTANCE, trials=4000, seed=3, n=15, p=3)
        assert rep.metadata["covariances_probed"] == 4
        rep = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=808, n=15, p=2)
        assert rep.metadata["covariances_probed"] == -(-rep.pairs_tested // 1000)

    def test_lrt_witness_solver_error_names_its_replay_key(self, monkeypatch):
        # With no warm start, a one-step cap fails the first member draw
        # whose sign pattern is not its final one.
        monkeypatch.setattr(_batch, "WARM_SWEEPS", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        with pytest.raises(SolverError, match=r"seed 808, stream key \[3\], chunk 0") as err:
            convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=808, n=15, p=2)
        d = err.value.details
        assert (d["seed"], d["stream_key"], d["chunk"]) == (808, [3], 0) and "draw" in d


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
            values = powerlab._batch_values(pool, np.sqrt(n - 1) * chol[..., None], n, {family})[family]
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

    def test_rows_are_paired(self):
        # Every covariance and the prior draws are scored on the chunk's one
        # draw: a covariance listed twice gives the same row, and appending a
        # covariance leaves the other rows as they were.
        cfg = small_config(replications=12_000, seed=17, theta_grid=(np.zeros(2),))
        prior = PriorSpec.inverse_wishart(np.array([[1.0, 0.4], [0.4, 2.0]]), 5.0)
        high = np.array([[1.0, 0.9], [0.9, 1.0]])
        low = np.array([[2.0, -0.5], [-0.5, 1.0]])

        def rows(sigmas):
            rep = similarity_probe(stats.UIT_ORTHANT, "bayes", sigmas, cfg, prior=prior)
            return [(row["rate"], row["std_error"]) for row in rep.rows]

        twice = rows([high, high])
        assert twice[0] == twice[1]
        one, grown = rows([high]), rows([high, low])
        assert grown[0] == one[0] and grown[-1] == one[-1] != grown[1]
        assert rows([])[0] == one[-1]

    def test_no_covariance_needs_bayes(self):
        with pytest.raises(DataError, match="needs a covariance"):
            similarity_probe(stats.UIT_HALFSPACE, "sup", [], small_config())

    @pytest.mark.parametrize("sigma", [np.eye(3), 2.0 * np.eye(1)], ids=["p3", "p1"])
    def test_sigma_of_wrong_dimension_rejected(self, sigma):
        cfg = small_config(replications=2000)
        with pytest.raises(DataError, match=r"sigma\[1\] has shape"):
            similarity_probe(stats.UIT_ORTHANT, "sup", [np.eye(2), sigma], cfg)


def unscreened(monkeypatch):
    """Make every ``_batch_values`` call classify each pending draw."""
    bracketed = powerlab._batch_values

    def every_draw(means, c, n, families, low=-np.inf, high=np.inf, s=None):
        return bracketed(means, c, n, families, s=s)

    monkeypatch.setattr(powerlab, "_batch_values", every_draw)


def classified_spy(monkeypatch):
    """Record the number of rows each kernel call is given."""
    calls = []

    def spy(y, metric, residual=False):
        calls.append(len(y))
        return orthant_active_set(y, metric, residual=residual)

    monkeypatch.setattr(powerlab, "orthant_active_set", spy)
    return calls


def bracket(means, c, n):
    """``(t2, r_lo, r_hi)`` per draw, with ``np.linalg.solve`` on the factor ``c``.

    ``r_lo`` is the largest coordinate-halfspace residual and ``r_hi`` the
    squared metric distance of ``y = sqrt(n) xbar`` to ``max(y, 0)``.
    """
    def sq_norm(x):
        w = np.linalg.solve(c, x[..., None])[..., 0]
        return n * (n - 1) * np.sum(w * w, axis=-1)

    s = np.sum(c * c, axis=-1) / (n - 1)
    r_lo = np.max(np.minimum(np.sqrt(n) * means, 0.0) ** 2 / s, axis=-1)
    return sq_norm(means), r_lo, sq_norm(np.minimum(means, 0.0))


def orthant_value(family, t2, q_res, n):
    return stats.calibration_value(family, projection_norm(t2, q_res), q_res, n)


class TestT2Screen:
    """Only draws whose residual bracket straddles an orthant threshold are classified."""

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
        monkeypatch.setattr(_batch, "CHUNK", 1000)
        calls = classified_spy(monkeypatch)
        bracketed = self.reports(workers)
        classified = sum(calls)
        unscreened(monkeypatch)
        calls.clear()
        assert self.reports(workers) == bracketed
        assert classified < 0.2 * sum(calls)

    @pytest.mark.parametrize("family", stats.ORTHANT_FAMILIES)
    def test_bound_at_the_floor(self, family):
        # Thresholds within 1e-12 relative of a draw's value at either end of
        # its bracket, and of that value over the bracket's margin.  Rows
        # with one coordinate just below 0 have an orthant value within
        # rounding of their value at r_lo; under a diagonal S every row has
        # it at r_hi as well.
        n, p = 12, 3
        rng = substream(23, 0)
        means = rng.standard_normal((40, p))
        means[:20, :2] = np.abs(means[:20, :2])
        means[:20, 2] = -np.abs(means[:20, 2]) * 1e-6
        corr = np.linalg.cholesky(random_correlation_matrix(rng, p))
        for c in (np.sqrt(n - 1) * corr, np.diag([0.5, 1.0, 2.0])):
            t2, r_lo, r_hi = bracket(means, c, n)
            every = powerlab._batch_values(means.T, c[..., None], n, {family})[family]
            for end, margin, side in ((r_lo, -1e-9, 1.0), (r_hi, 1e-9, -1.0)):
                bound = orthant_value(family, t2, end, n)
                for k in range(0, 40, 3):
                    for shift in (1.0, 1.0 + margin):
                        for rel in (-1e-12, 0.0, 1e-12):
                            t = bound[k] * (1.0 + rel) / shift
                            thresholds = (t, np.nextafter(t, side * np.inf), t * (1 + side * 1e-12))
                            low, high = min(thresholds), max(thresholds)
                            values = powerlab._batch_values(means.T, c[..., None], n, {family}, low, high)[family]
                            for threshold in thresholds:
                                assert np.array_equal(values >= threshold, every >= threshold)
                                assert np.array_equal(values <= threshold, every <= threshold)

    def test_every_cell_classifies_few_draws(self, monkeypatch):
        # The cells of the benchmark's power config, two chunks of draws
        # each scored at all six cells.
        calls = classified_spy(monkeypatch)
        cfg = small_config(
            p=3,
            n=120,
            replications=20000,
            seed=61,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(3), np.full(3, 0.1), np.array([0.25, 0.0, 0.1])),
            tests=self.PLANS,
        )
        simulate_power(cfg)
        assert len(calls) == 6 * 2
        assert max(calls) < 0.05 * _batch.CHUNK

    def test_capped_draw_names_its_row_and_replays(self, monkeypatch):
        # A one-step cap fails every classified draw that needs a second
        # step.  The kernel is given only the draws the bracket leaves open,
        # and the error names the failed draw by its row of the chunk.
        monkeypatch.setattr(_batch, "ITER_CAP_PER_DIM", 0)
        monkeypatch.setattr(_batch, "ITER_CAP_MIN", 1)
        monkeypatch.setattr(_batch, "CHUNK", 500)
        sigma = np.array([[1.0, -0.9], [-0.9, 1.0]])
        cfg = small_config(replications=1000, seed=78, sigma_source=SigmaSource.fixed(sigma))
        with pytest.raises(SolverError, match=r"seed 78, stream key \[2\], chunk 0") as err:
            simulate_power(cfg)
        d = err.value.details
        assert (d["sigma_id"], d["theta"]) == ("sigma0", [0.0, 0.0])
        rng = substream(d["seed"], tuple(d["stream_key"]) + (d["chunk"],))
        means, c = row_major(sample_mean_chol(rng, np.zeros(2), np.linalg.cholesky(sigma), cfg.n, 500))
        y = np.sqrt(cfg.n) * means
        assert y[d["draw"]].tolist() == d["y"]
        (critical,) = powerlab._plan_criticals(cfg, cfg.tests)
        t2, r_lo, r_hi = bracket(means, c, cfg.n)
        pending = r_lo > 0.0
        open_ = (
            pending
            & (orthant_value(stats.UIT_ORTHANT, t2, r_lo, cfg.n) >= critical)
            & (orthant_value(stats.UIT_ORTHANT, t2, r_hi, cfg.n) <= critical)
        )
        # Pending draws before it were decided, so its row of the kernel's
        # input is not its row of the chunk.
        assert open_[d["draw"]] and np.any(pending[:d["draw"]] & ~open_[:d["draw"]])
        rows = np.flatnonzero(open_)
        with pytest.raises(SolverError) as replay:
            orthant_active_set(y[rows], factor_cov(c[rows], cfg.n))
        assert rows[replay.value.details["draw"]] == d["draw"]


class TestResidualBracket:
    """``r_lo <= q_res <= r_hi`` against the enumeration and NNLS oracles."""

    @staticmethod
    def ends(means, c, n):
        """The power lab's ``(r_lo, r_hi)`` of row-major ``means``: every draw decided at one end."""
        means, c = means.T, c[..., None]
        y, s = np.sqrt(n) * means, factor_variances(c, n)
        t2 = n * (n - 1) * forward_sq_norm(means, c)
        return tuple(
            powerlab._orthant_residual(y, c, n, t2, s, {stats.UIT_ORTHANT}, b, b)
            for b in (np.inf, -np.inf)
        )

    @pytest.mark.parametrize("near_singular", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_bracket_holds_the_residual(self, p, near_singular):
        from conftest import kkt_enumeration_projection
        from test_cones import nnls_orthant

        n, reps = 30, 40
        rng = substream(29, (p, int(near_singular)))
        cov = random_correlation_matrix(rng, p)
        if near_singular:
            cov = np.full((p, p), 0.99999) + 1e-5 * np.eye(p)
        c = np.sqrt(n - 1) * np.linalg.cholesky(cov)
        means = rng.standard_normal((reps, p)) @ c.T / np.sqrt(n - 1)
        # Rows with a single negative coordinate.
        means[: reps // 2] = np.abs(means[: reps // 2])
        means[np.arange(reps // 2), np.arange(reps // 2) % p] *= -1.0
        r_lo, r_hi = self.ends(means, c, n)
        t2, want_lo, want_hi = bracket(means, c, n)
        tol = 1e-12 + 4.0 * np.finfo(float).eps * np.linalg.cond(cov)
        assert np.allclose(r_lo, want_lo, rtol=tol, atol=0.0)
        assert np.allclose(r_hi, want_hi, rtol=tol, atol=0.0)
        for i, y in enumerate(np.sqrt(n) * means):
            slack = tol * t2[i]
            for q_res in (kkt_enumeration_projection(y, cov)[1], nnls_orthant(y, cov)[2]):
                assert r_lo[i] - slack <= q_res <= r_hi[i] + slack
        # Under a diagonal S a row with one negative coordinate has
        # r_lo = q_res = r_hi.
        diag = np.sqrt(n - 1) * np.diag(np.linspace(0.5, 2.0, p))
        r_lo, r_hi = self.ends(means[: reps // 2], diag, n)
        assert np.allclose(r_lo, r_hi, rtol=1e-13, atol=0.0)


class TestComponentMajorKernels:
    """Variances, T2 and ``r_hi`` of (p, reps) draws against per-draw row-major oracles."""

    @pytest.mark.parametrize("shared", [True, False], ids=["fixed", "per_draw"])
    @pytest.mark.parametrize("rho", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_match_per_draw_solve(self, p, rho, shared):
        n, reps = 30, 200
        chol = np.linalg.cholesky((1.0 - rho) * np.eye(p) + rho)
        means, c = sample_mean_chol(substream(37, (p, int(100 * rho))), None, chol, n, reps)
        if shared:
            c = np.sqrt(n - 1) * chol[..., None]  # the convexity probe's one factor
        rows = np.broadcast_to(np.moveaxis(c, -1, 0), (reps, p, p))
        s = np.broadcast_to(factor_variances(c, n), (p, reps))
        want_s = np.diagonal(rows @ np.swapaxes(rows, 1, 2), axis1=1, axis2=2).T / (n - 1)
        eps = np.finfo(float).eps
        assert np.all(np.abs(s - want_s) <= 2 * p * eps * want_s)
        want_t2, _, want_hi = bracket(means.T, rows, n)
        t2 = n * (n - 1) * forward_sq_norm(means, c)
        # The triangular solve and LU on the same factor each err by a few
        # ulps times its condition number.
        rtol = 4 * p * eps * np.linalg.cond(rows)
        assert np.all(np.abs(t2 - want_t2) <= rtol * want_t2)
        # Every draw with a negative coordinate keeps the bracket's upper end.
        r_hi = powerlab._orthant_residual(
            np.sqrt(n) * means, c, n, t2, s, {stats.UIT_ORTHANT}, -np.inf, -np.inf
        )
        assert np.any(r_hi > 0.0) and np.all((r_hi > 0.0) == (means < 0.0).any(axis=0))
        assert np.all(np.abs(r_hi - want_hi) <= rtol * want_hi)


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


def halfspace_power(family, c, n, theta, sigma):
    """Exact rejection rate of a halfspace family at calibration-scale value ``c``.

    With ``y = sqrt(n) xbar`` and ``W = (n-1) S``, put ``t = y_p / sqrt(W_pp)``:
    ``sqrt(n-1) t`` is noncentral t with ``n - 1`` df and noncentrality
    ``delta = sqrt(n) theta_p / sqrt(sigma_pp)``.  Regressing the other
    coordinates on coordinate p (Anderson 2003, ch. 5), given ``t``,
    ``T2 / (n-1) = t^2 + (1 + t^2) F`` with ``F ~ chi2_{p-1}(lam / (1 + t^2))
    / chi2_{n-p}`` and ``lam = n theta_1.p' Sigma_11.p^{-1} theta_1.p``,
    ``theta_1.p = theta_1 - Sigma_1p theta_p / sigma_pp``.  The halfspace
    residual is ``(n-1) t^2`` for ``t <= 0`` and 0 otherwise, so for ``t > 0``
    both families reject iff ``F >= (c - t^2) / (1 + t^2)``, and for ``t <= 0``
    UIT rejects iff ``F >= c / (1 + t^2)`` and LRT iff ``F >= c``.  The
    integrand steps at ``t^2 = c``, where the integral is split.
    """
    from scipy import integrate, special
    from scipy import stats as scipy_stats

    p, df = len(theta), n - 1
    delta = np.sqrt(n) * theta[-1] / np.sqrt(sigma[-1, -1])
    beta = sigma[:-1, -1] / sigma[-1, -1]
    rest = theta[:-1] - beta * theta[-1]
    lam = n * rest @ np.linalg.solve(sigma[:-1, :-1] - np.outer(beta, sigma[-1, :-1]), rest)

    def f_tail(bound, t):
        """``P(F >= bound)`` given ``t``."""
        if bound <= 0.0:
            return 1.0
        if p == 1:
            return 0.0
        x = bound * (n - p) / (p - 1)
        return 1.0 - special.ncfdtr(p - 1, n - p, lam / (1.0 + t * t), x)

    def below(u):
        t = u / np.sqrt(df)
        bound = c / (1.0 + t * t) if family == stats.UIT_HALFSPACE else c
        return density(u) * f_tail(bound, t)

    def above(u):
        t = u / np.sqrt(df)
        return density(u) * f_tail((c - t * t) / (1.0 + t * t), t)

    density = scipy_stats.nct(df, delta).pdf
    split = np.sqrt(df * c)
    rate = 1.0 - special.nctdtr(df, delta, split)
    rate += integrate.quad(below, -np.inf, 0.0, epsabs=1e-12)[0]
    rate += integrate.quad(above, 0.0, split, epsabs=1e-12)[0]
    return rate


class TestHalfspaceOracle:
    """Halfspace rejection rates against their two-noncentrality law.

    The law depends on (theta, Sigma) only through ``delta`` and ``lam``
    (:func:`halfspace_power`); at theta = 0 it is alpha for every Sigma.
    """

    N, REPS = 30, 40000
    SIGMAS = {
        1: [np.eye(1), np.array([[4.0]])],
        3: [
            np.array([[1.0, 0.75, 0.21], [0.75, 2.25, -0.21], [0.21, -0.21, 0.49]]),
            np.array([[1.0, 0.99, 0.2], [0.99, 1.0, 0.2], [0.2, 0.2, 1.0]]),
        ],
    }
    THETAS = {
        1: ([0.0], [0.3], [0.6]),
        3: ([0.0, 0.0, 0.0], [-0.1, -0.1, 0.15], [0.1, 0.12, 0.3], [0.3, 0.2, 0.1]),
    }

    def config(self, p, seed, orthant_only=False):
        thetas = [np.array(t) for t in self.THETAS[p] if not orthant_only or min(t) >= 0.0]
        return small_config(
            p=p,
            n=self.N,
            replications=self.REPS,
            seed=seed,
            sigma_source=SigmaSource.sequence(self.SIGMAS[p]),
            theta_grid=tuple(thetas),
            tests=(TestPlan(stats.UIT_HALFSPACE), TestPlan(stats.LRT_HALFSPACE)),
        )

    def assert_within_3_se(self, p, rate, family, c, theta, sigma_id):
        sigma = self.SIGMAS[p][int(sigma_id[len("sigma"):])]
        exact = halfspace_power(family, c, self.N, np.asarray(theta), sigma)
        se = np.sqrt(exact * (1.0 - exact) / self.REPS)
        assert abs(rate - exact) <= 3.0 * se, (family, theta, sigma_id, rate, exact)

    @pytest.mark.parametrize("p", [1, 3])
    def test_null_rate_is_alpha_for_every_sigma(self, p):
        for family in stats.HALFSPACE_FAMILIES:
            c = calibrate.sup_critical_value(family, 0.05, self.N, p).value
            for sigma in self.SIGMAS[p]:
                assert halfspace_power(family, c, self.N, np.zeros(p), sigma) == pytest.approx(
                    0.05, abs=1e-9
                )

    @pytest.mark.parametrize("p", [1, 3])
    def test_simulated_rates(self, p):
        table = simulate_power(self.config(p, seed=43))
        critical = table.metadata["critical_values"]
        assert len(table.rows) == 2 * len(self.SIGMAS[p]) * len(self.THETAS[p])
        for row in table.rows:
            c = critical[f"{row.family}/{row.calibration}"]
            self.assert_within_3_se(p, row.rejection_rate, row.family, c, row.theta, row.sigma_id)

    @pytest.mark.parametrize("p", [1, 3])
    def test_domination_halfspace_column(self, p):
        report = domination_experiment(self.config(p, seed=47, orthant_only=True))
        family = {"UIT": stats.UIT_HALFSPACE, "LRT": stats.LRT_HALFSPACE}
        for row in report.rows:
            c = report.metadata["critical_values"][row.pair]
            self.assert_within_3_se(
                p, row.power_halfspace, family[row.pair], c, row.theta, row.sigma_id
            )


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
        draw = sample_mean_chol(rng, theta, chol, n, reps)
        if not per_draw_cov:
            draw = draw[0], draw[1][..., :1]
        means, c = row_major(draw)
        covs = factor_cov(c, n)
        families = set(self.SCALAR) | {stats.FUIT}
        values = _batch_values(*draw, n, families)
        assert set(values) == families
        for i in range(reps):
            s = make_summary(means[i], covs[i] if per_draw_cov else covs[0], n=n)
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
        # The draws that sample the compound null: the inverse-Wishart
        # factors and similarity_probe's prior view.  The Bayes weights that
        # calibrate the probe draw at the prior scale, not from the compound
        # null, and their classifier may invert its step systems.
        inv, resolve = np.linalg.inv, powerlab._plan_criticals

        def forbidden(*args, **kwargs):
            raise AssertionError("the compound null needs no matrix inverse")

        def calibrated(cfg, plans):
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "inv", inv)
                return resolve(cfg, plans)

        monkeypatch.setattr(np.linalg, "inv", forbidden)
        monkeypatch.setattr(powerlab, "_plan_criticals", calibrated)
        prior = PriorSpec.inverse_wishart(np.array([[1.0, 0.3], [0.3, 2.0]]), 6.0)
        factors = _batch.sample_invwishart_chol(substream(1, 0), prior.scale, prior.df, 500)
        assert factors.shape == (500, 2, 2)
        cfg = small_config(replications=500, theta_grid=(np.zeros(2),))
        rep = similarity_probe(stats.UIT_ORTHANT, "bayes", [], cfg, prior=prior)
        assert [row["sigma_id"] for row in rep.rows] == ["prior_draws"]

    def test_variances_formed_once_per_sigma(self, monkeypatch):
        calls = []

        def spy(c, n):
            calls.append(c.shape)
            return factor_variances(c, n)

        cfg = small_config(
            replications=500,
            sigma_source=SigmaSource.random_correlation(2),
            theta_grid=(np.zeros(2), np.array([0.3, 0.1]), np.array([0.1, 0.0])),
            tests=(TestPlan(stats.UIT_ORTHANT), TestPlan(stats.UIT_HALFSPACE, "exact"), TestPlan(stats.FUIT)),
        )
        table = simulate_power(cfg)
        monkeypatch.setattr(powerlab, "factor_variances", spy)
        # Two sigmas in one chunk of 500 draws, each scored at three thetas.
        assert simulate_power(cfg) == table
        assert calls == [(2, 2, 500)] * 2

    def test_previous_sigma_released_before_next_forms(self, monkeypatch):
        # A sigma's factors and variances are freed before the next sigma's
        # are formed, so two sigmas' (p, p, reps) arrays never coexist with
        # the variances' temporary.
        import weakref

        alive = []

        def spy(*args):
            assert all(ref() is None for ref in alive)
            means, c = scaled_draw(*args)
            alive.append(weakref.ref(c))
            return means, c

        cfg = small_config(
            replications=500,
            sigma_source=SigmaSource.random_correlation(3),
            theta_grid=(np.zeros(2), np.array([0.3, 0.1])),
            tests=(TestPlan(stats.UIT_ORTHANT), TestPlan(stats.LRT_ORTHANT), TestPlan(stats.T2)),
        )
        table = simulate_power(cfg)
        monkeypatch.setattr(powerlab, "scaled_draw", spy)
        assert simulate_power(cfg) == table
        assert len(alive) == 3

    def test_t2_solved_once_per_chunk(self, monkeypatch):
        from itertools import combinations

        from conetest import _batch, calibrate
        from conetest.powerlab import _batch_values

        calls = []

        def spy(x, c):
            calls.append(x.copy())
            return _batch.forward_sq_norm(x, c)

        monkeypatch.setattr(powerlab, "forward_sq_norm", spy)
        rng = np.random.default_rng(3)
        means, c = rng.standard_normal((3, 30)), np.linalg.cholesky(np.eye(3) + 0.2)[..., None]
        pending = np.sqrt(12) * means[:, ~(means > 0.0).all(axis=0)]
        every = sorted(self.SCALAR) + [stats.FUIT]
        for k in range(1, len(every) + 1):
            for families in combinations(every, k):
                calls.clear()
                _batch_values(means, c, 12, set(families))
                # T2 once over every draw; the orthant bracket's upper end
                # once over the draws its lower end leaves open.
                want = [means] if families != (stats.FUIT,) else []
                if set(families) & set(stats.ORTHANT_FAMILIES):
                    want.append(np.minimum(pending, 0.0))
                assert len(calls) == len(want)
                assert all(np.array_equal(x, w) for x, w in zip(calls, want))

        def forbidden(*args):
            raise AssertionError("weight estimators need no T2")

        monkeypatch.setattr(_batch, "batch_t2", forbidden)
        monkeypatch.setattr(_batch, "forward_sq_norm", forbidden)
        calibrate.chi_bar_weights(np.eye(4), method="monte_carlo", mc_samples=500, seed=1)
        calibrate.bayes_weights_b1(
            12, 3, PriorSpec.inverse_wishart(np.eye(3), 7.0), mc_samples=500, seed=1
        )
