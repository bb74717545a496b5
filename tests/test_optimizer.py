import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    EvaluationError,
    GammaSchedule,
    EighMemo,
    HessianEstimate,
    MiniBatchSampler,
    NoiseModel,
    NumericalError,
    SolverSpec,
    StepsizeSchedule,
    TrishConfig,
    run_sg,
    run_trish,
    run_trish_first_order,
    rng_stream,
    run_lanes,
    sample_hessian,
    trish_step,
)
from trish.harness.grid import TUNE_LANES, GridSpec, build_grid, tune
from trish.optimizer import LANE_CHUNK, SCHEDULE_COLUMNS, TRACE_DTYPE
from trish.problems import (
    QuadraticProblem,
    RosenbrockProblem,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)


@pytest.fixture(autouse=True)
def quiet_advisory(caplog):
    logging.getLogger("trish.optimizer").setLevel(logging.ERROR)
    yield
    logging.getLogger("trish.optimizer").setLevel(logging.NOTSET)


def solver():
    return SolverSpec()


class TestTrishStep:
    def test_zero_gradient_stays_put(self):
        x = np.array([1.0, 2.0])
        x_new, step = trish_step(x, np.zeros(2), HessianEstimate.zero(2),
                                 0.1, 1.0, 1.0, solver())
        assert np.array_equal(x_new, x)
        assert step.delta == 0.0 and np.array_equal(step.s, np.zeros(2))

    def test_breakpoint_step_is_normalized(self):
        # ||g|| = 1 sits on the closed middle interval: delta = alpha
        x_new, step = trish_step(np.zeros(2), np.array([1.0, 0.0]),
                                 HessianEstimate.zero(2), 0.1, 1.0, 1.0, solver())
        assert np.allclose(x_new, [-0.1, 0.0], atol=1e-15)
        assert step.case == 2

    def test_small_gradient_case1(self):
        x_new, step = trish_step(np.zeros(2), np.array([0.05, 0.0]),
                                 HessianEstimate.zero(2), 0.1, 10.0, 1.0, solver())
        assert np.allclose(x_new, [-0.05, 0.0], atol=1e-15)
        assert step.case == 1


class TestRunTrish:
    def test_deterministic_newton_like_decrease(self):
        prob = make_quadratic(6, 1.0, 5.0, seed=2)
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(0.05),
            gammas=GammaSchedule.constant(2.0, 1.0),
            iterations=40,
            seed=0,
            solver=SolverSpec(kind="exact"),
            noise=NoiseModel(kind="none", hessian_kind="exact-capped",
                             m_h=prob.grad_lipschitz),
        )
        traj = run_trish(prob, np.zeros(6), cfg)
        fs = traj.column("f")
        assert np.all(np.diff(fs) <= 1e-14)
        # converges toward the direct solve
        assert fs[-1] - prob.f_min <= 1e-2 * (fs[0] - prob.f_min)

    def test_zero_iterations_trajectory(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        cfg = TrishConfig(StepsizeSchedule.constant(0.1),
                          GammaSchedule.constant(1.0, 1.0), iterations=0)
        traj = run_trish(prob, np.zeros(3), cfg)
        assert len(traj.records) == 1
        assert np.array_equal(traj.final_x, np.zeros(3))

    def test_same_seed_bit_identical(self):
        prob = make_quadratic(4, 1.0, 4.0, seed=9)
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(0.005),
            gammas=GammaSchedule.constant(2.0, 1.0),
            iterations=50,
            seed=123,
            noise=NoiseModel(kind="bounded", m_g=1.0, hessian_kind="exact-capped",
                             m_h=4.0),
        )
        a = run_trish(prob, np.ones(4), cfg)
        b = run_trish(prob, np.ones(4), cfg)
        assert np.array_equal(a.final_x, b.final_x)
        assert all(np.array_equal(a.column(name), b.column(name), equal_nan=True)
                   for name in ("f", "g_norm"))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_guard_aborts_with_partial_trace(self):
        # negative-definite quadratic with a huge stepsize blows up
        prob = QuadraticProblem(np.diag([-4.0, -2.0]), np.array([1.0, 1.0]))
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(1e6),
            gammas=GammaSchedule.constant(1e6, 1e6),
            iterations=300,
            noise=NoiseModel(kind="none", hessian_kind="exact-capped", m_h=4.0),
        )
        traj = run_trish(prob, np.array([1.0, 1.0]), cfg)
        assert traj.aborted is not None
        assert len(traj.records) < 301

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_on_iterate_sees_every_row_of_a_diverged_run(self):
        prob = QuadraticProblem(np.diag([-4.0, -2.0]), np.array([1.0, 1.0]))
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(1e6),
            gammas=GammaSchedule.constant(1e6, 1e6),
            iterations=300,
            noise=NoiseModel(kind="none", hessian_kind="exact-capped", m_h=4.0),
        )
        seen = []
        traj = run_trish(prob, np.array([1.0, 1.0]), cfg,
                         on_iterate=lambda k, x: seen.append((k, x.copy())))
        assert traj.aborted is not None
        assert [k for k, _ in seen] == list(range(len(traj.records)))
        assert np.array_equal(seen[-1][1], traj.final_x)


class TestExactDecompositionReuse:
    """An exact-solver run decomposes its dense Hessian once while it is unchanged."""

    @staticmethod
    def config(hessian, seed):
        return TrishConfig(
            StepsizeSchedule.constant(1.0 / 320.0), GammaSchedule.constant(2.0, 1.0),
            iterations=30, seed=seed, solver=SolverSpec(kind="exact"),
            noise=NoiseModel(kind="bounded", m_g=1.0, hessian_kind=hessian, m_h=10.0,
                             perturbation=0.5))

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(1) or eigh(H))
        return calls

    @staticmethod
    def runs(hessian, calls):
        """Two runs in a row, with the decompositions each one made."""
        prob = make_quadratic(12, 1.0, 10.0, seed=21)
        out = []
        for seed in (3, 4):
            before = len(calls)
            traj = run_trish(prob, np.ones(12), TestExactDecompositionReuse.config(hessian, seed))
            out.append((traj, len(calls) - before))
        return out

    @pytest.mark.parametrize("hessian,per_run", [("exact-capped", 1), ("perturbed", 30)])
    def test_decompositions_per_run(self, monkeypatch, hessian, per_run):
        calls = self.count_eigh(monkeypatch)
        assert [n for _, n in self.runs(hessian, calls)] == [per_run, per_run]

    @pytest.mark.parametrize("hessian", ["exact-capped", "perturbed"])
    def test_traces_match_fresh_decompositions(self, monkeypatch, hessian):
        import trish.optimizer as optimizer
        calls = self.count_eigh(monkeypatch)
        new = self.runs(hessian, calls)

        def column_loop(est, dim):
            eye = np.eye(dim)
            return np.column_stack([est.apply(eye[:, j]) for j in range(dim)])

        exact_trs = optimizer.exact_trs
        monkeypatch.setattr(HessianEstimate, "dense", column_loop)
        monkeypatch.setattr(optimizer, "exact_trs",
                            lambda g, H, delta, tol, memo=None: exact_trs(g, H, delta, tol))
        old = self.runs(hessian, calls)
        assert [n for _, n in old] == [30, 30]
        for (a, _), (b, _) in zip(new, old):
            assert np.array_equal(a.final_x, b.final_x)
            for name in TRACE_DTYPE.names:
                if name != "wall_ns":
                    assert np.array_equal(a.column(name), b.column(name), equal_nan=True), name

    def test_norm_and_memo_arguments_change_nothing(self):
        prob = make_quadratic(8, 1.0, 10.0, seed=2)
        noise = NoiseModel(hessian_kind="exact-capped", m_h=10.0)
        hess = sample_hessian(prob, np.ones(8), noise, rng_stream(0, 1))
        g = prob.grad(np.ones(8))
        memo = EighMemo()
        plain = trish_step(np.ones(8), g, hess, 0.01, 2.0, 1.0, SolverSpec(kind="exact"))
        for _ in range(2):  # the second call reuses the memo's decomposition
            x, step = trish_step(np.ones(8), g, hess, 0.01, 2.0, 1.0, SolverSpec(kind="exact"),
                                 g_norm=float(np.linalg.norm(g)), memo=memo)
            assert x.tobytes() == plain[0].tobytes()
            assert step.upsilon == plain[1].upsilon
            assert step.model_decrease == plain[1].model_decrease


class TestRunSG:
    def test_single_step_formula(self):
        prob = QuadraticProblem(np.eye(2), np.array([-1.0, -2.0]))  # grad(0) = (1, 2)
        traj = run_sg(prob, np.zeros(2), StepsizeSchedule.constant(0.1),
                      NoiseModel(), 1, seed=0)
        assert np.allclose(traj.final_x, [-0.1, -0.2], atol=1e-15)

    def test_gd_strictly_decreases_spd(self):
        prob = make_quadratic(5, 1.0, 4.0, seed=3)
        alpha = 1.9 / prob.grad_lipschitz
        traj = run_sg(prob, np.ones(5), StepsizeSchedule.constant(alpha),
                      NoiseModel(), 30, seed=0)
        fs = traj.column("f")
        assert np.all(np.diff(fs) < 0)

    def test_cost_is_one_unit_per_iteration(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=4)
        traj = run_sg(prob, np.zeros(3), StepsizeSchedule.constant(0.01),
                      NoiseModel(kind="bounded", m_g=0.5), 7, seed=0)
        assert traj.records[-1].cost_units == 7

    def test_trajectory_carries_the_config_sg_equals(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=4)
        stepsizes = StepsizeSchedule.constant(0.01)
        noise = NoiseModel(kind="bounded", m_g=0.5, hessian_kind="exact-capped", m_h=2.0)
        traj = run_sg(prob, np.zeros(3), stepsizes, noise, 7, seed=9)
        cfg = traj.config
        assert (cfg.seed, cfg.iterations, cfg.stepsizes) == (9, 7, stepsizes)
        assert cfg.gammas == GammaSchedule.constant(1.0, 1.0)
        assert cfg.noise == replace(noise, hessian_kind="zero", m_h=0.0)
        assert np.all(traj.column("hess_bound")[1:] == 0.0)
        assert np.array_equal(traj.recorded("hess_bound"), np.arange(8) > 0)


class TestCollapseToSG:
    def test_equivalence_on_logistic_minibatch(self):
        prob = make_logistic(150, 4, l2=0.05, seed=21)
        gamma, alpha, iters = 3.0, 0.02, 100
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(alpha),
            gammas=GammaSchedule.constant(gamma, gamma),
            iterations=iters,
            seed=8,
            noise=MiniBatchSampler(prob, 8),
        )
        tr_x, sg_x = [], []
        run_trish_first_order(prob, np.zeros(4), cfg,
                              on_iterate=lambda k, x: tr_x.append(x.copy()))
        run_sg(prob, np.zeros(4), StepsizeSchedule.constant(gamma * alpha),
               MiniBatchSampler(prob, 8), iters, seed=8,
               on_iterate=lambda k, x: sg_x.append(x.copy()))
        worst = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(tr_x, sg_x))
        assert worst <= 1e-12


class TestFirstOrder:
    def test_normalization_regime_all_case2(self):
        # gamma1 huge, gamma2 tiny: every gradient norm lands in the middle
        # interval, so every step has length alpha exactly
        prob = make_quadratic(4, 1.0, 4.0, seed=6)
        alpha = 0.01
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(alpha),
            gammas=GammaSchedule.constant(1e6, 1e-6),
            iterations=40,
            seed=1,
            noise=NoiseModel(kind="bounded", m_g=0.5),
        )
        traj = run_trish_first_order(prob, np.ones(4), cfg)
        for rec in traj.records[1:]:
            assert rec.case == 2
            assert rec.step_norm == pytest.approx(alpha, rel=1e-12)
        assert traj.records[-1].cost_units == 40

    def test_exact_solver_costs_one_unit_per_iteration(self):
        # the zero estimate costs no Hessian products under either solver
        prob = make_quadratic(5, 1.0, 4.0, seed=6)
        cfg = TrishConfig(StepsizeSchedule.constant(0.01), GammaSchedule.constant(2.0, 1.0),
                          20, seed=1, solver=SolverSpec(kind="exact"),
                          noise=NoiseModel(kind="bounded", m_g=0.5))
        traj = run_trish_first_order(prob, np.ones(5), cfg)
        assert np.array_equal(traj.column("cost_units"), np.arange(21))

    def test_sampled_hessian_estimate_is_replaced_by_zero(self):
        prob = make_logistic(200, 5, l2=0.1, seed=11)
        cfg = TrishConfig(StepsizeSchedule.constant(0.05), GammaSchedule.constant(2.0, 1.0),
                          20, seed=5, noise=MiniBatchSampler(prob, 10, hessian=True))
        traj = run_trish_first_order(prob, np.zeros(5), cfg)
        assert np.all(traj.column("hess_bound")[1:] == 0.0)
        assert np.array_equal(traj.column("cost_units"), np.arange(21))
        assert traj.config.noise == MiniBatchSampler(prob, 10)  # the source it drew from
        without = run_trish_first_order(prob, np.zeros(5),
                                        replace(cfg, noise=MiniBatchSampler(prob, 10)))
        assert np.array_equal(traj.final_x, without.final_x)  # the same batches

    def test_noise_must_be_an_estimate_source(self):
        with pytest.raises(ConfigurationError, match="NoiseModel or a MiniBatchSampler"):
            TrishConfig(StepsizeSchedule.constant(0.1), GammaSchedule.constant(2.0, 1.0), 5,
                        noise="bounded")

    def test_deterministic_given_seed(self):
        prob = make_quadratic(4, 1.0, 4.0, seed=6)
        cfg = TrishConfig(StepsizeSchedule.constant(0.01),
                          GammaSchedule.constant(2.0, 1.0), iterations=20, seed=5,
                          noise=NoiseModel(kind="bounded", m_g=1.0))
        a = run_trish_first_order(prob, np.zeros(4), cfg)
        b = run_trish_first_order(prob, np.zeros(4), cfg)
        assert np.array_equal(a.final_x, b.final_x)


class CountingOracle:
    """Wraps a problem and counts gradient evaluations."""

    def __init__(self, problem):
        self.problem = problem
        self.grad_calls = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def grad(self, x):
        self.grad_calls += 1
        return self.problem.grad(x)


class TestGradientOncePerIteration:
    @pytest.mark.parametrize("runner", ["trish", "sg"])
    def test_one_gradient_call_per_iteration(self, runner):
        oracle = CountingOracle(make_quadratic(4, 1.0, 4.0, seed=9))
        noise = NoiseModel(kind="bounded", m_g=1.0)
        if runner == "trish":
            run_trish(oracle, np.ones(4), TrishConfig(
                StepsizeSchedule.constant(0.01), GammaSchedule.constant(2.0, 1.0),
                iterations=25, seed=3, noise=noise))
        else:
            run_sg(oracle, np.ones(4), StepsizeSchedule.constant(0.01), noise, 25, seed=3)
        assert oracle.grad_calls == 1 + 25  # the initial point plus one per iteration

    def test_lane_tune_one_gradient_per_chunk_and_iterate(self):
        problem = make_logistic(200, 4, l2=0.01, seed=2)
        oracle = CountingOracle(problem)
        grid = build_grid(1.0, GridSpec((-1.0, 0.0), (1.0, 2.0), (1.0, 3.0)))  # 8 settings
        seeds, iterations = [0, 1], 15
        tune(oracle, "trish", grid, seeds, iterations,
             sampler=MiniBatchSampler(problem, 10, hessian=True))
        assert len(grid.trish_settings) * len(seeds) == 2 * TUNE_LANES  # two lane runs
        assert oracle.grad_calls == 2 * (1 + iterations)  # row 0 plus one per iterate


# --- lockstep lanes against the scalar reference ---------------------------

EXACT_COLUMNS = ("f", "grad_norm_true", "g_norm", "delta", "case", "model_dec",
                 "cauchy_dec", "step_norm", "cg_iters", "upsilon", "cost_units", "alpha",
                 "gamma1", "gamma2", "hess_bound", "noise_step_dot")
FAULTS = (ConfigurationError, EvaluationError, NumericalError)


def run_scalar(problem, x0, config, algorithm="trish"):
    """The scalar run a lane of ``run_lanes`` reproduces."""
    if algorithm == "sg":
        return run_sg(problem, x0, config.stepsizes, config.noise, config.iterations,
                      config.seed)
    runner = run_trish if algorithm == "trish" else run_trish_first_order
    return runner(problem, x0, config)


def assert_lanes_match_scalar(problem, x0, configs, algorithm="trish"):
    """Every lane equals its scalar run, bit for bit."""
    scalar, errors = [], []
    for config in configs:
        try:
            scalar.append(run_scalar(problem, x0, config, algorithm))
        except FAULTS as exc:
            errors.append(type(exc))
    if errors:
        with pytest.raises(tuple(errors)):
            run_lanes(problem, x0, configs, algorithm)
        return None
    lanes = run_lanes(problem, x0, configs, algorithm)
    for i, traj in enumerate(scalar):
        rows = len(traj.records)
        assert lanes.rows[i] == rows
        assert lanes.aborted[i] == traj.aborted
        assert np.array_equal(lanes.final_x[i], traj.final_x)
        for name in EXACT_COLUMNS:
            assert np.array_equal(lanes.column(name)[:rows, i], traj.column(name),
                                  equal_nan=True), name
        assert np.all(np.isnan(lanes.column("f")[rows:, i]))
    return lanes


@st.composite
def schedules(draw, problem):
    """A (stepsizes, gammas) pair; "diverging" trips the divergence guard."""
    alpha = draw(st.sampled_from([0.05, 0.25, 1.0])) / problem.grad_lipschitz
    gamma1 = draw(st.sampled_from([1.0, 2.0, 8.0]))
    kind = draw(st.sampled_from(["constant", "diminishing", "merging", "diverging"]))
    if kind == "constant":
        return StepsizeSchedule.constant(alpha), GammaSchedule.constant(gamma1, 1.0)
    if kind == "diverging":
        return StepsizeSchedule.constant(1e7), GammaSchedule.constant(1.0, 1.0)
    steps = StepsizeSchedule.diminishing(alpha * 51.0, 50.0)
    gammas = (GammaSchedule.constant(gamma1, 1.0) if kind == "diminishing"
              else GammaSchedule.merging(gamma1, eta=1.0))
    return steps, gammas


@st.composite
def lane_cases(draw):
    family = draw(st.sampled_from(["quadratic", "rosenbrock", "quartic", "logistic"]))
    sampler = None
    if family == "quadratic":
        n = draw(st.integers(2, 12))
        problem = make_quadratic(n, 1.0, draw(st.sampled_from([1.0, 4.0, 10.0])),
                                 seed=draw(st.integers(0, 10_000)))
        x0 = np.ones(n)
    elif family == "rosenbrock":
        n = draw(st.integers(2, 6))
        problem = RosenbrockProblem(n)
        # (0.5, 1, ...) starts where the Hessian is indefinite, which the
        # exact solver meets through its multiplier
        x0 = draw(st.sampled_from([np.zeros(n), np.r_[0.5, np.ones(n - 1)]]))
    elif family == "quartic":
        n = draw(st.integers(2, 8))
        problem = make_quartic_bowl(n, 1.0, 4.0, quartic=1.0, radius=4.0,
                                    seed=draw(st.integers(0, 10_000)))
        x0 = problem.x_star + 1.0
    else:
        n = draw(st.integers(2, 6))
        problem = make_logistic(draw(st.integers(20, 80)), n, l2=0.01,
                                seed=draw(st.integers(0, 10_000)))
        x0 = np.zeros(n)
        if draw(st.booleans()):
            sampler = MiniBatchSampler(
                problem, draw(st.integers(1, 12)), hessian=draw(st.booleans()),
                m_h=draw(st.sampled_from([None, 0.5 * problem.grad_lipschitz])))
    algorithm = draw(st.sampled_from(["trish", "trish1", "sg"]))
    solver = SolverSpec(kind=draw(st.sampled_from(["steihaug", "exact"])))
    hessian = draw(st.sampled_from(["zero", "exact-capped", "perturbed"]))
    m_h = problem.grad_lipschitz * draw(st.sampled_from([0.25, 1.0, 2.0]))
    noise = NoiseModel(kind=draw(st.sampled_from(["none", "bounded", "stepwise", "geometric"])),
                       m_g=draw(st.sampled_from([0.1, 1.0])), zeta=1e-3,
                       hessian_kind=hessian, m_h=m_h if hessian != "zero" else 0.0,
                       perturbation=0.5 * problem.grad_lipschitz)
    # zeta = 1e-3 underflows to 0 after ~108 steps; exact solves cost more
    iterations = draw(st.integers(0, 130 if solver.kind == "steihaug" else 70))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True))
    shared = draw(schedules(problem))
    per_lane = draw(st.booleans())
    configs = [TrishConfig(*(draw(schedules(problem)) if per_lane else shared), iterations,
                           seed, solver=solver, noise=noise if sampler is None else sampler)
               for seed in seeds]
    return problem, x0, configs, algorithm


@settings(max_examples=80, deadline=None)
@given(lane_cases())
def test_lanes_bit_identical_to_scalar(case):
    assert_lanes_match_scalar(*case)


class TestLanes:
    def config(self, alpha, hessian="zero", iterations=60):
        return TrishConfig(StepsizeSchedule.constant(alpha), GammaSchedule.constant(2.0, 1.0),
                           iterations,
                           noise=NoiseModel(kind="bounded", m_g=1.0, hessian_kind=hessian,
                                            m_h=10.0 if hessian != "zero" else 0.0))

    def test_divergent_lanes_stop_and_others_run_on(self):
        # one config whose noise makes some seeds diverge: seed 6 stops at
        # k = 42, seed 1 at the last iteration (so its row count is full)
        config = TrishConfig(StepsizeSchedule.constant(0.006), GammaSchedule.constant(1.0, 1.0),
                             60, noise=NoiseModel(kind="bounded", m_g=300.0))
        lanes = assert_lanes_match_scalar(RosenbrockProblem(4), np.zeros(4),
                                          [replace(config, seed=seed) for seed in range(8)])
        assert list(lanes.rows) == [61, 61, 61, 61, 61, 61, 43, 61]
        assert [r is not None for r in lanes.aborted] == [i in (1, 6) for i in range(8)]

    def test_advisory_violation_warns_like_scalar_runs(self, caplog):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        config = TrishConfig(StepsizeSchedule.diminishing(1.0, 0.5),
                             GammaSchedule.constant(2.0, 1.0), 12,
                             noise=NoiseModel(kind="bounded", m_g=1.0))
        seeds = [4, 9, 11]
        with caplog.at_level(logging.WARNING, logger="trish.optimizer"):
            for seed in seeds:
                run_trish(prob, np.zeros(3), replace(config, seed=seed))
            scalar = [r.getMessage() for r in caplog.records]
            caplog.clear()
            run_lanes(prob, np.zeros(3), [replace(config, seed=seed) for seed in seeds])
            lanes = [r.getMessage() for r in caplog.records]
        assert len(scalar) == len(seeds)
        assert lanes == scalar

    def test_on_iterate_sees_every_iterate(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        config = self.config(0.01, iterations=5)
        seen = []
        lanes = run_lanes(prob, np.zeros(3), [replace(config, seed=seed) for seed in range(3)],
                          on_iterate=lambda k, X: seen.append((k, X.copy())))
        assert [k for k, _ in seen] == list(range(6))
        assert np.array_equal(seen[-1][1], lanes.final_x)
        iterates = []
        run_trish(prob, np.zeros(3), replace(config, seed=1),
                  on_iterate=lambda k, x: iterates.append(x.copy()))
        assert all(np.array_equal(X[1], x) for (_, X), x in zip(seen, iterates))

    def test_schedule_columns_are_one_table_for_all_lanes(self):
        config = self.config(0.01, hessian="exact-capped")
        lanes = run_lanes(make_quadratic(3, 1.0, 2.0, seed=1), np.zeros(3),
                          [replace(config, seed=seed) for seed in range(4)])
        for name in SCHEDULE_COLUMNS:
            column = lanes.column(name)
            assert column.shape == (61, 4)
            assert column.strides[1] == 0
            assert not column.flags.writeable
            assert np.all(np.isnan(column[0]))

    def test_enforced_precondition_raises_at_its_iteration(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        cfg = TrishConfig(StepsizeSchedule.constant(1.0), GammaSchedule.constant(2.0, 1.0),
                          10, enforce_stepsize_bound=True)
        with pytest.raises(ConfigurationError, match="k=1"):
            run_lanes(prob, np.zeros(3), [cfg])

    @pytest.mark.parametrize("change", [
        {"iterations": 59},
        {"solver": SolverSpec(max_iters=5)},
        {"noise": NoiseModel(kind="bounded", m_g=2.0)},
        {"enforce_stepsize_bound": True},
    ])
    def test_lanes_share_all_but_seed_and_schedules(self, change):
        base = self.config(0.01)
        with pytest.raises(ConfigurationError, match="share"):
            run_lanes(make_quadratic(3, 1.0, 2.0, seed=1), np.zeros(3),
                      [base, replace(base, **change)])

    @pytest.mark.parametrize("algorithm, hessian", [
        ("trish", False), ("trish", True), ("trish1", True), ("sg", False)])
    def test_lane_diverging_mid_chunk_on_logistic_minibatches(self, algorithm, hessian):
        # lane 1 stops inside the first LANE_CHUNK block of draws; the others
        # draw their next block without it and match their scalar runs
        prob = make_logistic(60, 4, l2=0.01, seed=3)
        # a tiny cap keeps the curvature from holding the huge step back
        sampler = MiniBatchSampler(prob, 5, hessian=hessian, m_h=1e-9)
        configs = [TrishConfig(StepsizeSchedule.constant(alpha), GammaSchedule.constant(4.0, 1.0),
                               LANE_CHUNK + 30, seed=seed, noise=sampler)
                   for alpha, seed in ((0.1, 0), (1e3, 1), (0.5, 2))]
        lanes = assert_lanes_match_scalar(prob, np.zeros(4), configs, algorithm)
        assert 1 < lanes.rows[1] < LANE_CHUNK
        assert [r is None for r in lanes.aborted] == [True, False, True]

    def test_per_lane_settings_warn_like_their_scalar_runs(self, caplog):
        # the first and last lanes violate the precondition, the middle one never
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        configs = [TrishConfig(StepsizeSchedule.diminishing(a, 0.5),
                               GammaSchedule.constant(2.0, 1.0), 12, seed=seed,
                               noise=NoiseModel(kind="bounded", m_g=1.0))
                   for a, seed in ((1.0, 4), (0.005, 9), (0.3, 11))]
        with caplog.at_level(logging.WARNING, logger="trish.optimizer"):
            for config in configs:
                run_trish(prob, np.zeros(3), config)
            scalar = [r.getMessage() for r in caplog.records]
            caplog.clear()
            run_lanes(prob, np.zeros(3), configs)
            lanes = [r.getMessage() for r in caplog.records]
        assert len(scalar) == 2
        assert lanes == scalar

    def test_per_lane_schedule_columns(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        configs = [replace(self.config(alpha), seed=seed)
                   for alpha, seed in ((0.01, 0), (0.02, 1), (0.01, 2))]
        lanes = run_lanes(prob, np.zeros(3), configs)
        assert list(lanes.column("alpha")[1]) == [0.01, 0.02, 0.01]
        assert not lanes.column("alpha").flags.writeable


def test_index_block_equals_successive_draws():
    sampler = MiniBatchSampler(make_logistic(500, 3, l2=0.0, seed=1), 7)
    block, successive = rng_stream(5, 0), rng_stream(5, 0)
    rows = sampler.indices(block, LANE_CHUNK)
    assert rows.shape == (LANE_CHUNK, 7)
    assert np.array_equal(rows, [sampler.indices(successive) for _ in range(LANE_CHUNK)])
    assert block.integers(1 << 30) == successive.integers(1 << 30)  # streams stay aligned
