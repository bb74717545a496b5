import numpy as np
import pytest

from trish import (
    ConfigurationError,
    GammaSchedule,
    MiniBatchSampler,
    NoiseModel,
    StepsizeSchedule,
    TrishConfig,
    SolverSpec,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
    run_sg,
    run_trish,
    run_trish_first_order,
)
from trish.harness import grid as grid_module
from trish.harness.grid import (
    TUNE_LANES,
    GridSpec,
    HyperGrid,
    baseline_gradient_norm,
    build_grid,
    tune,
)

# exponent sets used for the image-classification tuning round
FASHION_SPEC = GridSpec(
    lambda_exponents=tuple(-1.0 + i / 7.0 for i in range(8)),
    a_exponents=(2.0, 4.0),
    b_exponents=(1.0, 3.0),
)
G_REFERENCE = 1.5644


class TestBuildGrid:
    def test_reported_gamma_values(self):
        grid = build_grid(G_REFERENCE, FASHION_SPEC)
        gamma1s = sorted({g1 for _, g1, _ in grid.trish_settings})
        gamma2s = sorted({g2 for _, _, g2 in grid.trish_settings})
        # reported echoes carry up to 2 units of rounding in the 4th decimal
        assert gamma1s == pytest.approx([2.5568, 10.2274], abs=2e-4)
        assert gamma2s == pytest.approx([0.07990, 0.3196], abs=2e-4)

    def test_sg_range_and_count(self):
        grid = build_grid(G_REFERENCE, FASHION_SPEC)
        assert len(grid.sg_stepsizes) == 32 == len(grid.trish_settings)
        assert grid.sg_stepsizes[0] == pytest.approx(0.00799, abs=2e-4)
        assert grid.sg_stepsizes[-1] == pytest.approx(10.2275, abs=2e-4)
        # log-uniform: constant ratio between consecutive stepsizes
        ratios = np.diff(np.log(grid.sg_stepsizes))
        assert np.allclose(ratios, ratios[0])

    def test_fairness_rule_for_any_spec(self):
        spec = GridSpec((-2.0, -1.0, 0.0), (1.0,), (0.0, 2.0))
        grid = build_grid(3.7, spec)
        assert len(grid.sg_stepsizes) == len(grid.trish_settings) == spec.sg_count

    def test_invalid_g_rejected(self):
        from trish.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            build_grid(0.0, FASHION_SPEC)


class TestBaselineG:
    def test_deterministic_across_invocations(self):
        prob = make_quadratic(5, 1.0, 4.0, seed=2)
        noise = NoiseModel(kind="bounded", m_g=0.5)
        g1 = baseline_gradient_norm(prob, noise, 50, seed=7, x0=np.ones(5))
        g2 = baseline_gradient_norm(prob, noise, 50, seed=7, x0=np.ones(5))
        assert g1 == g2 > 0

    def test_zero_norm_edge_case_warns(self, caplog):
        prob = make_quadratic(3, 1.0, 2.0, seed=2)
        with caplog.at_level("WARNING", logger="trish.harness.grid"):
            g = baseline_gradient_norm(prob, NoiseModel(), 10, seed=0,
                                       x0=prob.x_star)
        assert g == 0.0
        assert any("zero" in rec.message for rec in caplog.records)


class TestTune:
    def test_sampler_beside_a_noise_model_is_refused(self):
        prob = make_logistic(50, 3, l2=0.1, seed=1)
        grid = build_grid(1.0, GridSpec((-1.0,), (1.0,), (1.0,)))
        with pytest.raises(ConfigurationError, match="one estimate source"):
            tune(prob, "trish", grid, [0], 5, noise=NoiseModel(kind="bounded", m_g=1.0),
                 sampler=MiniBatchSampler(prob, 5))
        with pytest.raises(ConfigurationError, match="one estimate source"):
            baseline_gradient_norm(prob, NoiseModel(kind="bounded", m_g=1.0), 5, 0,
                                   sampler=MiniBatchSampler(prob, 5))

    def test_single_setting_grid(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=5)
        grid = build_grid(1.0, GridSpec((-1.0,), (1.0,), (1.0,)))
        result = tune(prob, "trish1", grid, seeds=[0], iterations=20,
                      noise=NoiseModel(kind="bounded", m_g=0.1))
        assert result.best.setting == {
            "alpha": 0.1, "gamma1": 2.0, "gamma2": 0.5}

    def test_selects_optimal_sg_stepsize_on_isotropic_quadratic(self):
        # zero noise, A = I: stepsize 1/L_g = 1 reaches the minimizer in one
        # step, so it must win the leaderboard
        prob = make_quadratic(4, 1.0, 1.0, seed=6)
        from trish.harness.grid import HyperGrid
        grid = HyperGrid(trish_settings=(), sg_stepsizes=(0.3, 1.0, 1.6))
        result = tune(prob, "sg", grid, seeds=[0, 1], iterations=15,
                      noise=NoiseModel(), x0=np.ones(4))
        assert result.best.setting["alpha"] == 1.0
        assert result.best.mean_loss == pytest.approx(prob.f_min, abs=1e-20)

    def test_leaderboard_is_order_invariant(self):
        prob = make_quadratic(3, 1.0, 3.0, seed=8)
        from trish.harness.grid import HyperGrid
        settings = ((0.1, 2.0, 1.0), (0.05, 2.0, 1.0), (0.1, 4.0, 1.0))
        g1 = HyperGrid(trish_settings=settings, sg_stepsizes=())
        g2 = HyperGrid(trish_settings=settings[::-1], sg_stepsizes=())
        kwargs = dict(seeds=[0, 1], iterations=25,
                      noise=NoiseModel(kind="bounded", m_g=0.2))
        r1 = tune(prob, "trish1", g1, **kwargs)
        r2 = tune(prob, "trish1", g2, **kwargs)
        assert [e.setting for e in r1.leaderboard] == [e.setting for e in r2.leaderboard]

    def test_first_order_ignores_a_sampled_hessian(self):
        prob = make_logistic(200, 5, l2=0.1, seed=11)
        grid = build_grid(1.0, GridSpec((0.5,), (1.0,), (3.0,)))

        def losses(sampler):
            result = tune(prob, "trish1", grid, [0, 1], 30, x0=np.zeros(5), sampler=sampler)
            return [e.losses for e in result.leaderboard]

        assert losses(MiniBatchSampler(prob, 10, hessian=True)) == losses(
            MiniBatchSampler(prob, 10))


def scalar_leaderboard(problem, algorithm, grid, seeds, iterations, noise, solver):
    """The leaderboard from explicit scalar runs, one per (setting, seed)."""
    entries = []
    if algorithm == "sg":
        settings = [{"alpha": alpha} for alpha in grid.sg_stepsizes]
    else:
        settings = [{"alpha": a, "gamma1": g1, "gamma2": g2} for a, g1, g2 in grid.trish_settings]
    for setting in settings:
        losses = []
        for seed in seeds:
            x0 = np.zeros(problem.dim)
            if algorithm == "sg":
                traj = run_sg(problem, x0, StepsizeSchedule.constant(setting["alpha"]), noise,
                              iterations, seed)
            else:
                runner = run_trish if algorithm == "trish" else run_trish_first_order
                config = TrishConfig(StepsizeSchedule.constant(setting["alpha"]),
                                     GammaSchedule.constant(setting["gamma1"], setting["gamma2"]),
                                     iterations, seed, solver=solver, noise=noise)
                traj = runner(problem, x0, config)
            finite = traj.aborted is None and np.all(np.isfinite(traj.final_x))
            losses.append(float(problem.validation_loss(traj.final_x)) if finite else np.inf)
        entries.append((setting, float(np.mean(losses)), tuple(losses)))
    entries.sort(key=lambda e: (e[1], e[0]["alpha"], e[0].get("gamma1", 0.0),
                                -e[0].get("gamma2", 0.0)))
    return entries


class TestTuneOnLanes:
    SPEC = GridSpec((-1.0, 0.0, 1.0), (1.0, 3.0), (1.0,))  # 6 settings x 3 seeds: 3 lane runs

    @pytest.mark.parametrize("problem_kind, algorithm", [
        (kind, algorithm) for kind in ("logistic", "quadratic")
        for algorithm in ("trish", "trish1", "sg")] + [
        ("quartic_exact", "trish"), ("quadratic_perturbed", "trish")])
    def test_leaderboard_equals_scalar_runs(self, algorithm, problem_kind, monkeypatch):
        solver = SolverSpec()
        if problem_kind == "logistic":
            problem = make_logistic(150, 4, l2=0.01, seed=7)
            noise = MiniBatchSampler(problem, 8, hessian=True)
        elif problem_kind == "quartic_exact":
            problem = make_quartic_bowl(5, 1.0, 4.0, quartic=1.0, radius=4.0, seed=3)
            noise = NoiseModel(kind="bounded", m_g=0.5, hessian_kind="exact-capped", m_h=4.0)
            solver = SolverSpec(kind="exact")
        else:
            problem = make_quadratic(5, 1.0, 8.0, seed=3)
            noise = NoiseModel(kind="bounded", m_g=0.5, hessian_kind="exact-capped", m_h=4.0)
            if problem_kind == "quadratic_perturbed":
                noise = NoiseModel(kind="bounded", m_g=0.5, hessian_kind="perturbed", m_h=4.0,
                                   perturbation=1.0)
        seeds = [0, 5, 9]
        grid = build_grid(1.5, self.SPEC)
        lane_runs = []
        run_lanes = grid_module.run_lanes
        monkeypatch.setattr(grid_module, "run_lanes",
                            lambda *a, **kw: lane_runs.append(len(a[2])) or run_lanes(*a, **kw))
        result = tune(problem, algorithm, grid, seeds, 30, noise=noise, solver=solver)
        assert lane_runs == [TUNE_LANES, TUNE_LANES, 3 * 6 - 2 * TUNE_LANES]
        expected = scalar_leaderboard(problem, algorithm, grid, seeds, 30, noise, solver)
        assert [(e.setting, e.mean_loss, e.losses) for e in result.leaderboard] == expected
        # on the quadratic, some first-order and SG lanes stop at the divergence
        # guard, and so do some lanes of the exact and perturbed runs
        diverged = sum(np.isinf(loss) for e in result.leaderboard for loss in e.losses)
        assert (diverged > 0) == (problem_kind != "logistic" and
                                  (problem_kind, algorithm) != ("quadratic", "trish"))

    def test_reversed_logistic_grid_gives_the_same_leaderboard(self):
        # settings that differ only in gamma2 tie exactly when the radius
        # rule's case 3 never fires; the tie goes to the larger gamma2
        problem = make_logistic(200, 5, l2=0.01, seed=0)
        sampler = MiniBatchSampler(problem, 10, hessian=True)
        G = baseline_gradient_norm(problem, NoiseModel(), 20, 9, sampler=sampler)
        grid = build_grid(G, GridSpec((-1.0, 0.0), (1.0,), (1.0, 3.0)))
        reversed_grid = HyperGrid(grid.trish_settings[::-1], grid.sg_stepsizes)
        results = [tune(problem, "trish", g, [0, 1], 20, sampler=sampler)
                   for g in (grid, reversed_grid)]
        boards = [[(e.setting, e.losses) for e in r.leaderboard] for r in results]
        assert boards[0] == boards[1]
        best, runner_up = results[0].leaderboard[:2]
        assert best.losses == runner_up.losses  # the tie is real
        assert best.setting["gamma2"] > runner_up.setting["gamma2"]
