import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    EvaluationError,
    GammaSchedule,
    MiniBatchSampler,
    NoiseModel,
    NumericalError,
    SolverSpec,
    StepsizeSchedule,
    TrishConfig,
    gammas_at,
    run_sg,
    run_trish,
    run_trish_first_order,
    rng_stream,
    run_lanes,
    validate_stepsize,
)
from trish.harness.grid import TUNE_LANES, GridSpec, build_grid, tune
from trish.harness.experiment import write_trace_csv
from trish.optimizer import LANE_CHUNK, SCHEDULE_COLUMNS, TRACE_DTYPE, TRUE_GRAD_FIELDS
from trish.problems import (
    LogisticProblem,
    QuadraticProblem,
    RosenbrockProblem,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)

from reference import reference_run, reported_config


@pytest.fixture(autouse=True)
def quiet_advisory(caplog):
    logging.getLogger("trish.optimizer").setLevel(logging.ERROR)
    yield
    logging.getLogger("trish.optimizer").setLevel(logging.NOTSET)


class TestTrishStep:
    """One noiseless first-order step of f = 0.5 ||x||^2 from x_0, whose
    gradient is x_0 itself."""

    @staticmethod
    def step(x0, gamma1):
        config = TrishConfig(StepsizeSchedule.constant(0.1),
                             GammaSchedule.constant(gamma1, 1.0), iterations=1)
        prob = QuadraticProblem(np.eye(2), np.zeros(2))
        return run_trish(prob, np.array(x0), config)

    def test_zero_gradient_stays_put(self):
        traj = self.step([0.0, 0.0], 1.0)
        assert np.array_equal(traj.final_x, np.zeros(2))
        assert traj.records.delta[1] == 0.0 and traj.records.step_norm[1] == 0.0

    def test_breakpoint_step_is_normalized(self):
        # ||g|| = 1 sits on the closed middle interval: delta = alpha
        traj = self.step([1.0, 0.0], 1.0)
        assert np.allclose(traj.final_x, [0.9, 0.0], atol=1e-15)
        assert traj.records.case[1] == 2 and traj.records.delta[1] == 0.1

    def test_small_gradient_case1(self):
        traj = self.step([0.05, 0.0], 10.0)
        assert np.allclose(traj.final_x, [0.0, 0.0], atol=1e-15)
        assert traj.records.case[1] == 1


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

    @pytest.mark.parametrize("runner, shape", [
        ("run_trish", (3,)), ("run_trish", (1, 3)), ("run_trish", (2, 10)),
        ("run_lanes", (3,)), ("run_lanes", (2, 10)), ("run_lanes", (3, 9)),
        ("run_lanes", (3, 3, 10))])
    def test_x0_of_another_shape_is_refused(self, runner, shape):
        # n = 10, and run_lanes runs 3 lanes: (10,) or (3, 10) are the shapes
        prob = make_quadratic(10, 1.0, 10.0, seed=1)
        cfg = TrishConfig(StepsizeSchedule.constant(0.01), GammaSchedule.constant(2.0, 1.0), 5)
        with pytest.raises(ConfigurationError) as raised:
            if runner == "run_trish":
                run_trish(prob, np.ones(shape), cfg)
            else:
                run_lanes(prob, np.ones(shape), [replace(cfg, seed=s) for s in range(3)])
        lanes = 1 if runner == "run_trish" else 3
        assert str(raised.value) == (
            f"x0 must have shape (10,) or ({lanes}, 10), got {shape}")

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
    """An exact-solver lane run decomposes a Hessian estimate that cannot
    change once per run, and any other once per step in one stacked
    ``eigh``; its traces equal the reference loop's either way."""

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
        """The decompositions each of two one-lane runs in a row made."""
        prob = make_quadratic(12, 1.0, 10.0, seed=21)
        made = []
        for seed in (3, 4):
            before = len(calls)
            run_trish(prob, np.ones(12), TestExactDecompositionReuse.config(hessian, seed))
            made.append(len(calls) - before)
        return made

    @staticmethod
    def lane_run(problem, x0, configs, calls):
        """One lane run of ``configs``, checked lane by lane against the
        reference loop, and the decompositions the lane run made."""
        before = len(calls)
        lanes = run_lanes(problem, x0, configs)
        made = len(calls) - before
        for i, config in enumerate(configs):
            assert_same_run(lanes.trajectory(i), reference_run(problem, x0, config))
        return made

    @pytest.mark.parametrize("hessian,per_run", [("exact-capped", 1), ("perturbed", 30)])
    def test_decompositions_per_run(self, monkeypatch, hessian, per_run):
        calls = self.count_eigh(monkeypatch)
        assert self.runs(hessian, calls) == [per_run, per_run]

    @pytest.mark.parametrize("hessian", ["exact-capped", "perturbed", "zero"])
    def test_traces_match_fresh_decompositions(self, monkeypatch, hessian):
        # a quadratic certifies a constant Hessian (hess_lipschitz == 0.0);
        # the reference loop decomposes afresh on every step
        per_run = {"exact-capped": 1, "perturbed": 30, "zero": 1}[hessian]
        calls = self.count_eigh(monkeypatch)
        configs = [self.config(hessian, seed) for seed in (3, 4, 5)]
        if hessian == "zero":
            configs = [replace(c, noise=replace(c.noise, m_h=0.0)) for c in configs]
        prob = make_quadratic(12, 1.0, 10.0, seed=21)
        assert self.lane_run(prob, np.ones(12), configs, calls) == per_run

    @pytest.mark.parametrize("sampled", [False, True])
    def test_logistic_decomposes_once_per_step(self, monkeypatch, sampled):
        calls = self.count_eigh(monkeypatch)
        prob = make_logistic(60, 5, l2=0.01, seed=8)
        configs = [self.config("exact-capped", seed) for seed in (3, 4, 5)]
        if sampled:
            configs = [replace(c, noise=MiniBatchSampler(prob, 6, hessian=True)) for c in configs]
        assert self.lane_run(prob, np.zeros(5), configs, calls) == 30

    def test_constant_hessian_built_and_decomposed_once(self, monkeypatch):
        # the n products of the dense build are made once; cost_units still
        # charges them on every exact step
        prob = CountingOracle(make_quadratic(6, 1.0, 10.0, seed=2))
        calls = self.count_eigh(monkeypatch)
        lanes = run_lanes(prob, np.ones(6), [self.config("exact-capped", s) for s in (1, 2)])
        assert len(calls) == 1 and prob.hvp_calls == 1
        assert np.array_equal(lanes.column("cost_units")[:, 0], 7.0 * np.arange(31))

    @pytest.mark.parametrize("defect,error", [("nan", NumericalError),
                                              ("asymmetric", ConfigurationError)])
    def test_defective_hessian_ends_the_run(self, defect, error):
        # checked_eigh's checks run on each lane's matrix, before eigh
        prob = make_quadratic(4, 1.0, 10.0, seed=2)
        bad = prob.A.copy()
        bad[0, 1] = np.nan if defect == "nan" else bad[0, 1] + 1e-3
        prob.hvp = lambda x, v: bad @ v if v.ndim == 1 else (bad @ v[..., None])[..., 0]
        for hessian in ("exact-capped", "perturbed"):
            config = self.config(hessian, 3)
            with pytest.raises(error):
                reference_run(prob, np.ones(4), config)
            with pytest.raises(error):
                run_lanes(prob, np.ones(4), [config, replace(config, seed=4)])


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
        with pytest.raises(ConfigurationError, match="must be an EstimateSource, got str"):
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
    """Wraps a problem and counts gradient evaluations and Hessian products."""

    def __init__(self, problem):
        self.problem = problem
        self.grad_calls = 0
        self.hvp_calls = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def grad(self, x):
        self.grad_calls += 1
        return self.problem.grad(x)

    def hvp(self, x, v):
        self.hvp_calls += 1
        return self.problem.hvp(x, v)


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

    def test_lane_tune_makes_no_full_gradient_call(self):
        # tune reads no column of the true gradient: a sampler's lanes skip
        # it, and a noise model's draws take it once per iterate
        problem = make_logistic(200, 4, l2=0.01, seed=2)
        grid = build_grid(1.0, GridSpec((-1.0, 0.0), (1.0, 2.0), (1.0, 3.0)))  # 8 settings
        seeds, iterations = [0, 1], 15
        assert len(grid.trish_settings) * len(seeds) == 2 * TUNE_LANES  # two lane runs
        for source, calls in ((MiniBatchSampler(problem, 10, hessian=True), 0),
                              (NoiseModel(kind="bounded", m_g=1.0), 2 * (1 + iterations))):
            oracle = CountingOracle(problem)
            tune(oracle, "trish", grid, seeds, iterations, noise=source)
            assert oracle.grad_calls == calls  # row 0 plus one per iterate, per lane run


# --- lockstep lanes against the reference loop ----------------------------

FAULTS = (ConfigurationError, EvaluationError, NumericalError)


def run_one_lane(problem, x0, config, algorithm="trish"):
    """The public runner's run of ``algorithm`` at ``config``."""
    if algorithm == "sg":
        return run_sg(problem, x0, config.stepsizes, config.noise, config.iterations,
                      config.seed)
    runner = run_trish if algorithm == "trish" else run_trish_first_order
    return runner(problem, x0, config)


def assert_same_run(traj, ref):
    """Two trajectories agree bit for bit in everything but ``wall_ns``."""
    assert (traj.algorithm, traj.config, traj.aborted) == (ref.algorithm, ref.config,
                                                            ref.aborted)
    assert np.array_equal(traj.final_x, ref.final_x)
    assert len(traj.records) == len(ref.records)
    for name in TRACE_DTYPE.names:
        if name != "wall_ns":
            assert np.array_equal(traj.column(name), ref.column(name), equal_nan=True), name


def assert_lanes_match_scalar(problem, x0, configs, algorithm="trish", alone=None):
    """Every lane equals the reference loop's run of its config, bit for
    bit.  So does the public runner's one-lane run of the config of each
    lane in ``alone`` (default: every lane), so that lane does not depend
    on its neighbours."""
    reference, errors = [], []
    for config in configs:
        try:
            reference.append(reference_run(problem, x0, config, algorithm))
        except FAULTS as exc:
            errors.append(type(exc))
    if errors:
        with pytest.raises(tuple(errors)):
            run_lanes(problem, x0, configs, algorithm)
        return None
    lanes = run_lanes(problem, x0, configs, algorithm)
    for i, ref in enumerate(reference):
        assert_same_run(lanes.trajectory(i), ref)
        assert np.all(np.isnan(lanes.column("f")[lanes.rows[i]:, i]))
    if len(configs) > 1:  # a lone lane is its one-lane run: it has no neighbours
        for i in range(len(configs)) if alone is None else alone:
            assert_same_run(run_one_lane(problem, x0, configs[i], algorithm), reference[i])
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
    # one lane is also run alone through the public runner: one per example
    # keeps the gate's cost near one reference run per lane
    alone = draw(st.integers(0, len(configs) - 1))
    return problem, x0, configs, algorithm, [alone]


def minibatch_exact_case():
    """Mini-batch exact lanes: each step builds every lane's dense H from
    the sampler's row form and the reference from its column loop."""
    problem = make_logistic(50, 4, l2=0.01, seed=7)
    sampler = MiniBatchSampler(problem, 6, hessian=True, m_h=0.5 * problem.grad_lipschitz)
    configs = [TrishConfig(StepsizeSchedule.constant(1.0 / problem.grad_lipschitz),
                           GammaSchedule.constant(2.0, 1.0), 40, seed,
                           solver=SolverSpec(kind="exact"), noise=sampler)
               for seed in (3, 11, 29)]
    return problem, np.zeros(4), configs, "trish", [1]


@settings(max_examples=80, deadline=None)
@given(lane_cases())
@example(minibatch_exact_case())
def test_lanes_bit_identical_to_scalar(case):
    assert_lanes_match_scalar(*case)


def first_violation_warnings(problem, configs):
    """The advisory warnings a lane run of ``configs`` (zero Hessian
    estimate) logs: one per lane at its first k where ``validate_stepsize``
    fails, in order of k, then of lane."""
    firsts = []
    for lane, c in enumerate(configs):
        for k in range(1, c.iterations + 1):
            alpha = c.stepsizes.at(k)
            if not validate_stepsize(alpha, *gammas_at(c.gammas, c.stepsizes, k),
                                     problem.grad_lipschitz, 0.0):
                firsts.append((k, lane, alpha))
                break
    return [f"stepsize alpha_{k}={alpha:.3g} exceeds the guaranteed-decrease bound; "
            "convergence theory does not apply to this run" for k, _, alpha in sorted(firsts)]


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

    def test_advisory_violation_warns_once_per_lane(self, caplog):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        config = TrishConfig(StepsizeSchedule.diminishing(1.0, 0.5),
                             GammaSchedule.constant(2.0, 1.0), 12,
                             noise=NoiseModel(kind="bounded", m_g=1.0))
        configs = [replace(config, seed=seed) for seed in (4, 9, 11)]
        with caplog.at_level(logging.WARNING, logger="trish.optimizer"):
            run_lanes(prob, np.zeros(3), configs)
        expected = first_violation_warnings(prob, configs)
        assert len(expected) == len(configs)
        assert [r.getMessage() for r in caplog.records] == expected

    def test_on_iterate_sees_every_iterate(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        config = self.config(0.01, iterations=5)
        seen = []
        lanes = run_lanes(prob, np.zeros(3), [replace(config, seed=seed) for seed in range(3)],
                          on_iterate=lambda k, X: seen.append((k, X.copy())))
        assert [k for k, _ in seen] == list(range(6))
        assert np.array_equal(seen[-1][1], lanes.final_x)
        # x_k is the end point of the reference run of k iterations
        for k, X in seen:
            ref = reference_run(prob, np.zeros(3), replace(config, seed=1, iterations=k))
            assert np.array_equal(X[1], ref.final_x)

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

    def test_wall_ns_is_one_lockstep_column(self):
        # lane 1 diverges at once; the others run on, so the shared clock does too
        configs = [TrishConfig(StepsizeSchedule.constant(alpha), GammaSchedule.constant(1.0, 1.0),
                               30, seed=seed, noise=NoiseModel(kind="bounded", m_g=1.0))
                   for alpha, seed in ((0.01, 0), (1e7, 1), (0.01, 2))]
        lanes = run_lanes(make_quadratic(3, 1.0, 2.0, seed=1), np.zeros(3), configs)
        assert list(lanes.rows) == [31, 2, 31]
        wall = lanes.column("wall_ns")
        assert wall.shape == (31, 3) and wall.strides[1] == 0 and not wall.flags.writeable
        assert np.all(np.diff(wall[:, 0]) >= 0) and np.all(wall >= 0)
        assert np.array_equal(lanes.trajectory(1).column("wall_ns"), wall[:2, 0])

    def test_enforced_precondition_raises_at_its_iteration(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        cfg = TrishConfig(StepsizeSchedule.constant(1.0), GammaSchedule.constant(2.0, 1.0),
                          10, enforce_stepsize_bound=True)
        with pytest.raises(ConfigurationError, match="k=1"):
            run_lanes(prob, np.zeros(3), [cfg])

    @pytest.mark.parametrize("solver", ["steihaug", "exact"])
    @pytest.mark.parametrize("stepsizes, gammas", [
        # alpha_1 = 5e-324 / 2 underflows to 0.0
        (StepsizeSchedule.diminishing(5e-324, 1.0), GammaSchedule.constant(2.0, 1.0)),
        # alpha_1 > 0 already fails a precondition bound that underflows to 0,
        # and alpha_2 = 5e-324 / 2.5 underflows to 0.0
        (StepsizeSchedule.diminishing(5e-324, 0.5), GammaSchedule.constant(1e200, 1e-200)),
    ], ids=["alpha_1", "alpha_2"])
    def test_underflowing_stepsize_refused_before_the_first_step(self, stepsizes, gammas,
                                                                 solver):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        seen = []
        cfg = TrishConfig(stepsizes, gammas, 3, solver=SolverSpec(kind=solver),
                          noise=NoiseModel(kind="bounded", m_g=1.0))
        with pytest.raises(ConfigurationError):
            run_lanes(prob, np.zeros(3), [cfg], on_iterate=lambda k, X: seen.append(k))
        assert seen == []

    @pytest.mark.parametrize("algorithm", ["trish", "trish1", "sg"])
    def test_lane_configs_are_the_configs_run(self, algorithm):
        # the configs the lanes ran, as each one-lane run reports its own
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        configs = [replace(self.config(alpha, hessian="exact-capped"), seed=seed)
                   for alpha, seed in ((0.01, 0), (0.02, 1))]
        lanes = run_lanes(prob, np.zeros(3), configs, algorithm)
        assert lanes.configs == [reported_config(c, algorithm) for c in configs]
        for i, config in enumerate(configs):
            assert lanes.trajectory(i).config is lanes.configs[i]
            assert lanes.configs[i] == run_one_lane(prob, np.zeros(3), config, algorithm).config

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

    def test_per_lane_settings_warn_at_their_own_first_violation(self, caplog):
        # the first and last lanes violate the precondition, the middle one never
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        configs = [TrishConfig(StepsizeSchedule.diminishing(a, 0.5),
                               GammaSchedule.constant(2.0, 1.0), 12, seed=seed,
                               noise=NoiseModel(kind="bounded", m_g=1.0))
                   for a, seed in ((1.0, 4), (0.005, 9), (0.3, 11))]
        with caplog.at_level(logging.WARNING, logger="trish.optimizer"):
            run_lanes(prob, np.zeros(3), configs)
        expected = first_violation_warnings(prob, configs)
        assert len(expected) == 2
        assert [r.getMessage() for r in caplog.records] == expected

    def test_per_lane_schedule_columns(self):
        prob = make_quadratic(3, 1.0, 2.0, seed=1)
        configs = [replace(self.config(alpha), seed=seed)
                   for alpha, seed in ((0.01, 0), (0.02, 1), (0.01, 2))]
        lanes = run_lanes(prob, np.zeros(3), configs)
        assert list(lanes.column("alpha")[1]) == [0.01, 0.02, 0.01]
        assert not lanes.column("alpha").flags.writeable


class TestSkippedTrueGradient:
    """``run_lanes(..., true_grad=False)`` skips the full-data gradient of
    a sampler run and changes nothing but its two columns."""

    @pytest.mark.parametrize("algorithm, hessian, solver", [
        ("trish", False, "steihaug"), ("trish", True, "steihaug"), ("trish", False, "exact"),
        ("trish", True, "exact"), ("trish1", True, "steihaug"), ("sg", False, "steihaug")])
    def test_sampler_lanes_skip_only_the_true_gradient(self, monkeypatch, algorithm, hessian,
                                                       solver):
        # lane 1 diverges mid-run, inside the first LANE_CHUNK block of draws
        prob = make_logistic(60, 4, l2=0.01, seed=3)
        sampler = MiniBatchSampler(prob, 5, hessian=hessian, m_h=1e-9)
        configs = [TrishConfig(StepsizeSchedule.constant(alpha), GammaSchedule.constant(4.0, 1.0),
                               LANE_CHUNK + 30, seed=seed, solver=SolverSpec(kind=solver),
                               noise=sampler)
                   for alpha, seed in ((0.1, 0), (1e3, 1), (0.5, 2))]
        full = run_lanes(prob, np.zeros(4), configs, algorithm)
        calls, grad = [], LogisticProblem.grad
        monkeypatch.setattr(LogisticProblem, "grad",
                            lambda self, x: calls.append(x) or grad(self, x))
        lanes = run_lanes(prob, np.zeros(4), configs, algorithm, true_grad=False)
        assert calls == []
        assert [r is None for r in lanes.aborted] == [True, False, True]
        assert 1 < lanes.rows[1] < LANE_CHUNK
        assert (lanes.aborted, lanes.rows.tolist()) == (full.aborted, full.rows.tolist())
        assert lanes.final_x.tobytes() == full.final_x.tobytes()
        for name in TRACE_DTYPE.names[1:]:
            if name in TRUE_GRAD_FIELDS:
                assert np.all(np.isnan(lanes.column(name))), name
            elif name != "wall_ns":
                assert lanes.column(name).tobytes() == full.column(name).tobytes(), name
        assert (full.true_grad, lanes.true_grad) == (True, False)
        for i in range(len(configs)):
            traj, ref = lanes.trajectory(i), full.trajectory(i)
            assert not traj.true_grad
            for name in TRACE_DTYPE.names:
                expected = np.zeros(len(ref.records), bool) if name in TRUE_GRAD_FIELDS else (
                    ref.recorded(name))
                assert np.array_equal(traj.recorded(name), expected), name

    def test_csv_leaves_the_skipped_columns_empty(self, tmp_path):
        prob = make_logistic(60, 4, l2=0.01, seed=3)
        config = TrishConfig(StepsizeSchedule.constant(0.1), GammaSchedule.constant(4.0, 1.0),
                             5, noise=MiniBatchSampler(prob, 5, hessian=True))
        tables = []
        for true_grad in (True, False):
            path = tmp_path / f"{true_grad}.csv"
            write_trace_csv(run_lanes(prob, np.zeros(4), [config],
                                      true_grad=true_grad).trajectory(0), path)
            tables.append([line.split(",") for line in path.read_text().splitlines()])
        full, skipped = tables
        column = full[0].index("grad_norm_true")
        assert [row[column] for row in skipped[1:]] == [""] * 6
        assert all(cell not in ("", "nan") for cell in (row[column] for row in full[1:]))
        wall = full[0].index("wall_ns")
        for a, b in zip(full, skipped):
            assert [v for j, v in enumerate(a) if j not in (column, wall)] == [
                v for j, v in enumerate(b) if j not in (column, wall)]

    def test_noise_model_lanes_ignore_the_flag(self):
        # the estimates are grad f + noise; seeds 1 and 6 diverge (see TestLanes)
        config = TrishConfig(StepsizeSchedule.constant(0.006), GammaSchedule.constant(1.0, 1.0),
                             60, noise=NoiseModel(kind="bounded", m_g=300.0))
        configs = [replace(config, seed=seed) for seed in range(8)]
        full, lanes = (run_lanes(RosenbrockProblem(4), np.zeros(4), configs, true_grad=flag)
                       for flag in (True, False))
        assert lanes.true_grad and lanes.rows.tolist() == full.rows.tolist()
        assert lanes.aborted == full.aborted and lanes.final_x.tobytes() == full.final_x.tobytes()
        for name in TRACE_DTYPE.names[1:]:
            if name != "wall_ns":
                assert lanes.column(name).tobytes() == full.column(name).tobytes(), name


class DelegatingSource:
    """An estimate source the library does not know: it forwards every
    ``EstimateSource`` member to ``inner`` and counts each lane's draws
    (``draws``, set by ``lane_draw``)."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = None

    @property
    def reads_true_gradient(self):
        return self.inner.reads_true_gradient

    def hessian_bound(self, oracle):
        return self.inner.hessian_bound(oracle)

    def without_hessian(self):
        return DelegatingSource(self.inner.without_hessian())

    def constant_hessian(self, oracle):
        return self.inner.constant_hessian(oracle)

    def lane_draw(self, oracle, seeds, alphas):
        inner = self.inner.lane_draw(oracle, seeds, alphas)
        self.draws = np.zeros(len(seeds), dtype=int)

        def draw(k, ids, at, X, TG):
            self.draws[ids] += 1
            return inner(k, ids, at, X, TG)

        return draw


class TestUnknownSource:
    """A source defined here runs on lanes through the protocol alone, bit
    for bit like the source it wraps."""

    @staticmethod
    def source(kind):
        if kind == "capped":  # a constant Hessian: the exact solver builds it once
            prob = make_quadratic(4, 1.0, 10.0, seed=2)
            return prob, NoiseModel(kind="stepwise", m_g=1.0, hessian_kind="exact-capped",
                                    m_h=1e-3)
        prob = make_logistic(60, 4, l2=0.01, seed=3)
        if kind == "perturbed":
            return prob, NoiseModel(kind="geometric", m_g=0.5, zeta=0.9,
                                    hessian_kind="perturbed", m_h=0.2, perturbation=0.05)
        return prob, MiniBatchSampler(prob, 5, hessian=True, m_h=0.2)

    @pytest.mark.parametrize("solver", ["steihaug", "exact"])
    @pytest.mark.parametrize("algorithm", ["trish", "trish1", "sg"])
    @pytest.mark.parametrize("kind", ["capped", "perturbed", "sampler"])
    def test_wrapped_source_runs_like_the_source(self, kind, algorithm, solver):
        prob, inner = self.source(kind)
        # lane 1's stepsize trips the divergence guard inside the first block of draws
        alpha_seeds = ((0.1, 0), (1e7, 1), (0.5, 2))
        runs = []
        for source in (inner, DelegatingSource(inner)):
            configs = [TrishConfig(StepsizeSchedule.constant(alpha),
                                   GammaSchedule.constant(2.0, 1.0), LANE_CHUNK + 10, seed,
                                   solver=SolverSpec(kind=solver), noise=source)
                       for alpha, seed in alpha_seeds]
            runs.append(run_lanes(prob, np.ones(4), configs, algorithm, true_grad=False))
        plain, wrapped = runs
        assert wrapped.rows.tolist() == plain.rows.tolist()
        assert 1 < plain.rows[1] < LANE_CHUNK
        assert wrapped.aborted == plain.aborted
        assert wrapped.true_grad == plain.true_grad == (kind != "sampler")
        assert wrapped.final_x.tobytes() == plain.final_x.tobytes()
        for name in TRACE_DTYPE.names[1:]:
            if name != "wall_ns":
                assert wrapped.column(name).tobytes() == plain.column(name).tobytes(), name
        ran = wrapped.configs[0].noise
        assert ran.inner == plain.configs[0].noise  # the source with the Hessian off, if so
        assert ran.draws.tolist() == (wrapped.rows - 1).tolist()


def test_index_block_equals_successive_draws():
    sampler = MiniBatchSampler(make_logistic(500, 3, l2=0.0, seed=1), 7)
    block, successive = rng_stream(5, 0), rng_stream(5, 0)
    rows = sampler.indices(block, LANE_CHUNK)
    assert rows.shape == (LANE_CHUNK, 7)
    assert np.array_equal(rows, [sampler.indices(successive) for _ in range(LANE_CHUNK)])
    assert block.integers(1 << 30) == successive.integers(1 << 30)  # streams stay aligned
