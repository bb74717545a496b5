import json
from dataclasses import replace

import numpy as np
import pytest

from trish import (
    GammaSchedule,
    NoiseModel,
    SolverSpec,
    StepsizeSchedule,
    TrishConfig,
    make_quadratic,
    run_lanes,
    run_sg,
    run_trish,
    run_trish_first_order,
)
from trish.core import ConfigurationError
from trish.harness.checks import StepContractCounter, cost_accounting_ok, taylor_violations
from trish.harness.cli import main
from trish.harness.config import build_inputs, load_config, validate_config
from trish.harness.experiment import CSV_COLUMNS, run_experiment, write_trace_csv
from trish.harness.grid import GridSpec, baseline_gradient_norm, build_grid, tune
from trish.optimizer import TRACE_DTYPE
from trish.problems import MiniBatchSampler, QuadraticProblem

from reference import reference_run


def base_config(**overrides):
    doc = {
        "problem": {"kind": "quadratic", "n": 4, "lam_min": 1.0, "lam_max": 4.0,
                    "seed": 3},
        "algorithm": "trish",
        "iterations": 2,
        "seeds": [0],
        "stepsizes": {"kind": "constant", "alpha": 0.005},
        "gammas": {"kind": "constant", "gamma1": 2.0, "gamma2": 1.0},
        "noise": {"kind": "bounded", "m_g": 1.0,
                  "hessian": {"kind": "exact-capped", "m_h": 4.0}},
    }
    doc.update(overrides)
    return doc


def strip_wall_ns(line):
    cells = line.split(",")
    del cells[CSV_COLUMNS.index("wall_ns")]
    return ",".join(cells)


# rows 0-2 of base_config runs at seed 0, every column but wall_ns
GOLDEN_CSV = {
    "trish": ({}, [
        "0,0.0,1.0,,,,,,,,0",
        "1,-0.0028290684700565854,0.9956026288904787,0.9944042273248589,0.005,2,"
        "0.0049559620345947355,0.004955962034594736,1,,2",
        "2,-0.0062524252165520895,0.9888170068836707,0.6244945160019326,0.005,2,"
        "0.0030926869211565515,0.0030926869211565515,1,,4",
    ]),
    "exact": ({"solver": {"kind": "exact"}}, [
        "0,0.0,1.0,,,,,,,,0",
        "1,-0.0028253181479888103,0.9956179734064996,0.9944042273248589,0.005,2,"
        "0.004955985240032215,0.0049559620345947355,0,197.5988912630721,5",
        "2,-0.006260120319536757,0.9888431222623943,0.6245308171008079,0.005,2,"
        "0.003093027460344765,0.0030928662129591426,0,122.54245016169314,10",
    ]),
    "trish1": ({"algorithm": "trish1"}, [
        "0,0.0,1.0,,,,,,,,0",
        "1,-0.0028290684700565854,0.9956026288904787,0.9944042273248589,0.005,2,"
        "0.004972021136624294,0.004972021136624294,1,,1",
        "2,-0.0062524252165520895,0.9888170068836707,0.6244945160019326,0.005,2,"
        "0.003122472580009663,0.003122472580009663,1,,2",
    ]),
    "sg": ({"algorithm": "sg"}, [
        "0,0.0,1.0,,,,,,,,0",
        "1,-0.002813327006246672,0.9956271482135445,0.9944042273248589,,,,,,,1",
        "2,-0.004958410046529099,0.9913730271548601,0.6245297566024538,,,,,,,2",
    ]),
}


class TestConfigValidation:
    def test_valid_config_accepted(self):
        validate_config(base_config())

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config(base_config(stepsize_multiplier=2.0))

    def test_unknown_nested_key_rejected(self):
        doc = base_config()
        doc["problem"]["condition"] = 10
        with pytest.raises(ConfigurationError):
            validate_config(doc)

    def test_gammas_required_for_trish(self):
        doc = base_config()
        del doc["gammas"]
        with pytest.raises(ConfigurationError):
            validate_config(doc)

    def test_sg_without_gammas_accepted(self):
        doc = base_config(algorithm="sg")
        del doc["gammas"]
        validate_config(doc)

    def test_batch_size_only_for_logistic(self):
        with pytest.raises(ConfigurationError):
            validate_config(base_config(batch_size=8))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        assert load_config(str(path))["iterations"] == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(path))


class TestMiniBatchSource:
    """A ``batch_size`` doc's sampler is its runs' one estimate source."""

    @staticmethod
    def doc(algorithm, **noise):
        doc = {"problem": {"kind": "logistic", "n_samples": 120, "dim": 4, "l2": 0.01, "seed": 5},
               "algorithm": algorithm, "iterations": 12, "seeds": [0, 3],
               "stepsizes": {"kind": "constant", "alpha": 0.5},
               "gammas": {"kind": "constant", "gamma1": 2.0, "gamma2": 1.0}, "batch_size": 6}
        if noise:
            doc["noise"] = noise
        return validate_config(doc)

    @pytest.mark.parametrize("noise, message", [
        ({"kind": "bounded", "m_g": 3.0, "hessian": {"kind": "zero"}}, "noise.kind = 'bounded'"),
        ({"kind": "none", "hessian": {"kind": "zero"}}, "noise.hessian.kind = 'zero'.*'trish1'"),
        ({"kind": "none", "hessian": {"kind": "perturbed", "m_h": 1.0}},
         "noise.hessian.kind = 'perturbed'"),
        ({"kind": "none", "hessian": {"kind": "exact-capped", "m_h": 1.0, "scale": 0.5}},
         "noise.hessian.scale"),
        ({"kind": "none", "m_g": 1.0}, "noise.m_g"),
    ])
    def test_noise_the_sampler_replaces_is_rejected(self, noise, message):
        with pytest.raises(ConfigurationError, match=message):
            self.doc("trish", **noise)

    @pytest.mark.parametrize("algorithm", ["trish", "trish1", "sg"])
    def test_runs_report_the_sampler_they_drew_from(self, algorithm, tmp_path, monkeypatch):
        doc = self.doc(algorithm, kind="none", hessian={"kind": "exact-capped", "m_h": 0.2})
        trajectories = assert_experiment_is_its_scalar_runs(doc, tmp_path, monkeypatch)
        problem, x0, noise = build_inputs(doc)  # the experiment's problem object
        assert noise == MiniBatchSampler(problem, 6, hessian=True, m_h=0.2)
        second_order = algorithm == "trish"
        # lanes on the configs the runs report reproduce the runs
        lanes = run_lanes(problem, x0, [traj.config for traj in trajectories], algorithm)
        for i, traj in enumerate(trajectories):
            assert traj.config.noise == replace(noise, hessian=second_order)
            assert np.all((traj.column("hess_bound")[1:] > 0.0) == second_order)
            assert np.array_equal(lanes.final_x[i], traj.final_x)
            for name in ("f", "g_norm", "hess_bound", "cost_units"):
                assert np.array_equal(lanes.column(name)[:, i], traj.column(name),
                                      equal_nan=True), name


class TestTraceCSV:
    def test_row_count_includes_initial_point(self, tmp_path):
        paths = run_experiment(base_config(), output_dir=str(tmp_path))
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + k = 0, 1, 2

    def test_schema_and_empty_fields(self, tmp_path):
        paths = run_experiment(base_config(), output_dir=str(tmp_path))
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        # initial row: step fields empty, cost zero
        cols = dict(zip(CSV_COLUMNS, first))
        assert cols["k"] == "0" and cols["cost_units"] == "0"
        assert cols["g_norm"] == "" and cols["case"] == "" and cols["upsilon"] == ""
        step_row = dict(zip(CSV_COLUMNS, lines[2].split(",")))
        assert step_row["case"] in {"1", "2", "3"}
        assert step_row["upsilon"] == ""  # steihaug solver

    def test_exact_solver_fills_upsilon(self, tmp_path):
        doc = base_config(solver={"kind": "exact"})
        paths = run_experiment(doc, output_dir=str(tmp_path))
        row = dict(zip(CSV_COLUMNS,
                       paths[0].read_text().strip().splitlines()[2].split(",")))
        assert row["upsilon"] != ""
        assert row["cg_iters"] == "0"

    def test_rerun_byte_identical_except_wall_ns(self, tmp_path):
        doc = base_config(iterations=5)
        p1 = run_experiment(doc, output_dir=str(tmp_path / "a"))[0]
        p2 = run_experiment(doc, output_dir=str(tmp_path / "b"))[0]

        def strip_wall(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            idx = CSV_COLUMNS.index("wall_ns")
            return [",".join(r[:idx] + r[idx + 1:]) for r in rows]

        assert strip_wall(p1.read_text()) == strip_wall(p2.read_text())

    def test_golden_trace_fixed_seed(self, tmp_path):
        """Schema stability: a fixed-seed tiny run reproduces frozen values."""
        doc = base_config(iterations=1, noise={"kind": "none",
                                               "hessian": {"kind": "zero"}})
        problem, x0, noise = build_inputs(doc)
        traj = run_trish(problem, x0, TrishConfig(StepsizeSchedule(**doc["stepsizes"]),
                                                  GammaSchedule(**doc["gammas"]), 1, noise=noise))
        rec = traj.records[1]
        # deterministic zero-noise first-order step on the seeded quadratic:
        # the sampled gradient is exactly the true gradient at the start
        assert rec.case == 2
        assert rec.cost_units == 1
        assert rec.g_norm == traj.records[0].grad_norm_true
        path = tmp_path / "golden.csv"
        write_trace_csv(traj, path)
        body = path.read_text().splitlines()
        assert body[0] == ",".join(CSV_COLUMNS)
        assert body[1].startswith("0,")
        assert body[2].startswith("1,")

    def test_problem_built_once_per_experiment(self, tmp_path, monkeypatch):
        import trish.harness.config as config
        built = []
        build = config.build_problem
        monkeypatch.setattr(config, "build_problem",
                            lambda spec: built.append(spec) or build(spec))
        doc = base_config(seeds=[0, 1, 2], iterations=4, solver={"kind": "exact"})
        paths = run_experiment(doc, output_dir=str(tmp_path))
        assert len(built) == 1
        for seed, path in zip(doc["seeds"], paths):
            single = tmp_path / f"single{seed}.csv"
            write_trace_csv(reference_of(doc, seed), single)
            assert ([strip_wall_ns(line) for line in path.read_text().splitlines()]
                    == [strip_wall_ns(line) for line in single.read_text().splitlines()])

    @pytest.mark.parametrize("algorithm", ["trish", "trish1", "sg"])
    @pytest.mark.parametrize("solver", ["steihaug", "exact"])
    @pytest.mark.parametrize("source", ["perturbed", "batch"])
    def test_lanes_write_the_scalar_runs(self, tmp_path, monkeypatch, algorithm, solver, source):
        """Each seed's CSV and ``Trajectory`` are its scalar run's but for ``wall_ns``."""
        if source == "perturbed":
            doc = base_config(noise={"kind": "bounded", "m_g": 1.0,
                                     "hessian": {"kind": "perturbed", "m_h": 4.0, "scale": 1.0}})
        else:
            doc = base_config(problem={"kind": "logistic", "n_samples": 60, "dim": 4,
                                       "l2": 0.01, "seed": 5},
                              batch_size=6, stepsizes={"kind": "constant", "alpha": 0.5},
                              noise={"kind": "none",
                                     "hessian": {"kind": "exact-capped", "m_h": 0.2}})
        doc = validate_config({**doc, "algorithm": algorithm, "iterations": 9,
                               "seeds": [0, 3, 7], "solver": {"kind": solver}})
        runs = assert_experiment_is_its_scalar_runs(doc, tmp_path, monkeypatch)
        assert all(traj.aborted is None for traj in runs)

    def test_one_diverged_seed_is_written_and_named(self, tmp_path, monkeypatch):
        # seed 6 trips the divergence guard at k = 42 (see the lanes' test);
        # seeds 0 and 7 run to the end
        doc = validate_config({
            "problem": {"kind": "rosenbrock", "n": 4}, "algorithm": "trish", "iterations": 60,
            "seeds": [0, 6, 7], "stepsizes": {"kind": "constant", "alpha": 0.006},
            "gammas": {"kind": "constant", "gamma1": 1.0, "gamma2": 1.0},
            "noise": {"kind": "bounded", "m_g": 300.0}})
        with pytest.raises(RuntimeError) as raised:
            assert_experiment_is_its_scalar_runs(doc, tmp_path, monkeypatch)
        message = str(raised.value)
        assert message.startswith("runs diverged (partial traces written): seed 6: ")
        assert "iteration 42" in message and ";" not in message
        rows = [len((tmp_path / f"trish_seed{seed}.csv").read_text().splitlines()) - 1
                for seed in doc["seeds"]]
        assert rows == [61, 43, 61]

    @pytest.mark.parametrize("variant", sorted(GOLDEN_CSV))
    def test_golden_csv_cells(self, tmp_path, variant):
        """Every cell but ``wall_ns`` of rows 0-2 of a 2-iteration run is frozen."""
        overrides, expected = GOLDEN_CSV[variant]
        doc = base_config(**overrides)
        if doc["algorithm"] == "sg":
            del doc["gammas"]
        path = run_experiment(doc, output_dir=str(tmp_path))[0]
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert [strip_wall_ns(line) for line in lines[1:]] == expected

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_trace_writes_nan_cells(self, tmp_path):
        # the run of test_divergence_guard_aborts_with_partial_trace: its
        # last row holds NaN values, which are recorded, not empty
        prob = QuadraticProblem(np.diag([-4.0, -2.0]), np.array([1.0, 1.0]))
        cfg = TrishConfig(
            stepsizes=StepsizeSchedule.constant(1e6),
            gammas=GammaSchedule.constant(1e6, 1e6),
            iterations=300,
            noise=NoiseModel(kind="none", hessian_kind="exact-capped", m_h=4.0),
        )
        traj = run_trish(prob, np.array([1.0, 1.0]), cfg)
        assert traj.aborted is not None
        path = tmp_path / "diverged.csv"
        write_trace_csv(traj, path)
        last = dict(zip(CSV_COLUMNS, path.read_text().splitlines()[-1].split(",")))
        assert last["f"] == last["grad_norm_true"] == last["model_dec"] == "nan"
        assert last["upsilon"] == ""  # steihaug solver
        assert strip_wall_ns(",".join(last.values())) == (
            "7,nan,nan,2.04808999802562e+76,2.0480899980256198e+88,3,nan,"
            "8.38897664002936e+176,1,,14")


def reference_of(doc, seed):
    """The reference loop's run of one seed of the experiment ``doc``:
    the doc's stepsizes and source, and for TRish its gammas and solver."""
    problem, x0, noise = build_inputs(doc)
    stepsizes = StepsizeSchedule(**doc["stepsizes"])
    if doc["algorithm"] == "sg":
        config = TrishConfig(stepsizes, GammaSchedule.constant(1.0, 1.0), doc["iterations"],
                             seed, noise=noise)
    else:
        config = TrishConfig(stepsizes, GammaSchedule(**doc["gammas"]), doc["iterations"], seed,
                             solver=SolverSpec(**doc.get("solver", {})), noise=noise)
    return reference_run(problem, x0, config, doc["algorithm"])


def assert_experiment_is_its_scalar_runs(doc, tmp_path, monkeypatch):
    """Run ``run_experiment`` on ``doc`` and check each seed against
    ``reference_of``: the ``Trajectory`` it wrote, config included, and
    its CSV byte for byte, both but for ``wall_ns``, which must not
    decrease down the CSV.  Returns the written trajectories; the run's
    ``RuntimeError`` is raised once all are checked."""
    import trish.harness.config as config
    import trish.harness.experiment as experiment
    problem = config.build_problem(doc["problem"])
    monkeypatch.setattr(config, "build_problem", lambda spec: problem)  # one problem object
    written = []
    write = experiment.write_trace_csv
    monkeypatch.setattr(experiment, "write_trace_csv",
                        lambda traj, path: written.append((traj, path)) or write(traj, path))
    error = None
    try:
        run_experiment(doc, output_dir=str(tmp_path))
    except RuntimeError as exc:
        error = exc
    assert len(written) == len(doc["seeds"])
    wall = CSV_COLUMNS.index("wall_ns")
    for seed, (traj, path) in zip(doc["seeds"], written):
        single = reference_of(doc, seed)
        assert (traj.algorithm, traj.config, traj.aborted) == (
            single.algorithm, single.config, single.aborted)
        assert np.array_equal(traj.final_x, single.final_x)
        for name in TRACE_DTYPE.names:
            if name != "wall_ns":
                assert np.array_equal(traj.column(name), single.column(name),
                                      equal_nan=True), name
        reference = tmp_path / "single.csv"
        write(single, reference)
        lines = path.read_text().splitlines()
        assert ([strip_wall_ns(line) for line in lines]
                == [strip_wall_ns(line) for line in reference.read_text().splitlines()])
        times = [int(line.split(",")[wall]) for line in lines[1:]]
        assert times == sorted(times)
    if error is not None:
        raise error
    return [traj for traj, _ in written]


class TestCLI:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(output_dir=str(tmp_path))))
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "trish_seed0.csv" in out

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "via_env"
        monkeypatch.setenv("TRISH_OUTPUT_DIR", str(env_dir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config()))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (env_dir / "trish_seed0.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(bogus_key=1)))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"stepsizes": {"kind": "constant", "alpha": float("nan")}},
        {"problem": {"kind": "logistic", "n_samples": 40, "dim": 3, "seed": 1}, "batch_size": 4,
         "noise": {"kind": "none", "hessian": {"kind": "exact-capped", "m_h": float("nan")}}},
    ], ids=["alpha", "batch-m_h"])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, overrides):
        # json.load parses NaN, and the schema's range checks let it through
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(output_dir=str(tmp_path), **overrides)))
        assert "NaN" in cfg.read_text()
        assert main(["run", "--config", str(cfg)]) == 2
        assert "must be finite, got nan" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_verify_quick_suite(self, capsys):
        assert main(["verify", "--suite", "radius", "--quick"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "radius" and report["passed"]

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_baseline_g_prints_value(self, tmp_path, capsys):
        doc = base_config(algorithm="sg", baseline={"iterations": 20, "seed": 1})
        del doc["gammas"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["baseline-g", "--config", str(cfg)]) == 0
        assert float(capsys.readouterr().out.strip()) > 0

    def test_tune_end_to_end(self, tmp_path, capsys):
        doc = base_config(
            algorithm="trish1",
            iterations=15,
            seeds=[0, 1],
            grid={"lambda_exponents": [-2.0, -1.0], "a_exponents": [1.0],
                  "b_exponents": [1.0]},
            baseline={"iterations": 20, "seed": 0},
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["leaderboard"]) == 2
        assert "alpha" in result["best"]["setting"]

    def test_tune_honours_solver(self, tmp_path, capsys):
        doc = base_config(
            iterations=15,
            seeds=[0, 1],
            solver={"kind": "exact"},
            grid={"lambda_exponents": [-2.0, -1.0], "a_exponents": [1.0],
                  "b_exponents": [1.0]},
            baseline={"iterations": 20, "seed": 0},
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["tune", "--config", str(cfg)]) == 0
        printed = json.loads(capsys.readouterr().out)
        problem, x0, noise = build_inputs(doc)
        g = baseline_gradient_norm(problem, noise, 20, 0, x0=x0)
        expected = tune(problem, "trish", build_grid(g, GridSpec((-2.0, -1.0), (1.0,), (1.0,))),
                        [0, 1], 15, noise=noise, solver=SolverSpec(kind="exact"), x0=x0)
        assert printed["leaderboard"] == [{"setting": e.setting, "mean_loss": e.mean_loss}
                                          for e in expected.leaderboard]


def test_oracles_suite_checks_the_lanes_estimate(monkeypatch):
    """Capping the one Hessian estimate the lanes draw at 2 tau instead of
    tau fails the oracles suite's cap check."""
    from trish import core
    from trish.harness.suites import verify
    cap = core.hessian_cap
    monkeypatch.setattr(core, "hessian_cap", lambda oracle, noise: 2.0 * cap(oracle, noise))
    noise = NoiseModel(hessian_kind="exact-capped", m_h=2.0)
    config = TrishConfig(StepsizeSchedule.constant(0.01), GammaSchedule.constant(2.0, 1.0), 1,
                         noise=noise)
    lanes = run_lanes(make_quadratic(4, 1.0, 4.0, seed=3), np.ones(4), [config])
    assert lanes.column("hess_bound")[1, 0] == 4.0  # the lanes step with 2 m_h
    check, = [c for c in verify("oracles", quick=True).checks
              if c.name.startswith("hessian estimates: operator norm within cap")]
    assert not check.passed and check.stats["worst_cap_excess"] > 0.0


def test_verify_unknown_suite_is_config_error():
    from trish.harness.suites import verify
    with pytest.raises(ConfigurationError):
        verify("made-up-suite")


class TestStepContractCounter:
    def trace(self, lanes=False):
        prob = make_quadratic(4, 1.0, 4.0, seed=2)
        cfg = TrishConfig(StepsizeSchedule.constant(0.005), GammaSchedule.constant(2.0, 1.0),
                          30, noise=NoiseModel(kind="bounded", m_g=1.0,
                                               hessian_kind="exact-capped", m_h=4.0))
        if lanes:
            return run_lanes(prob, np.ones(4), [replace(cfg, seed=seed) for seed in range(3)])
        return run_trish(prob, np.ones(4), cfg)

    def test_clean_run_has_no_violations(self):
        for trace, steps in ((self.trace(), 30), (self.trace(lanes=True), 3 * 30)):
            counter = StepContractCounter()
            counter.update(trace)
            assert counter.checked == steps
            assert counter.total_violations == 0
            assert counter.stats()["nonfinite_violations"] == 0
            assert np.isfinite(counter.worst_cauchy_margin)

    def test_nan_step_counts_as_violation(self):
        traj = self.trace()
        clean = StepContractCounter()
        clean.update(traj)
        traj.column("model_dec")[5] = np.nan
        traj.column("step_norm")[5] = np.nan
        counter = StepContractCounter()
        counter.update(traj)
        assert counter.nonfinite_violations == 1
        assert counter.total_violations == 1
        assert counter.checked == 30
        assert counter.worst_cauchy_margin == clean.worst_cauchy_margin

    def test_nan_lane_row_counts_as_violation(self):
        lanes = self.trace(lanes=True)
        lanes.columns["cauchy_dec"][7, 2] = np.inf
        counter = StepContractCounter()
        counter.update(lanes)
        assert counter.nonfinite_violations == 1
        assert counter.total_violations >= 1


class TestColumnReaders:
    """The column readers against a row-by-row reference."""

    def runs(self):
        prob = make_quadratic(4, 1.0, 4.0, seed=2)
        cfg = TrishConfig(StepsizeSchedule.constant(0.005), GammaSchedule.constant(2.0, 1.0),
                          30, seed=1, noise=NoiseModel(kind="bounded", m_g=1.0,
                                                       hessian_kind="exact-capped", m_h=4.0))
        sg = run_sg(prob, np.ones(4), StepsizeSchedule.constant(0.005),
                    NoiseModel(kind="bounded", m_g=1.0), 30, seed=1)
        return prob, run_trish(prob, np.ones(4), cfg), run_trish_first_order(prob, np.ones(4), cfg), sg

    @staticmethod
    def taylor_by_rows(traj, grad_lipschitz):
        if traj.algorithm == "sg":
            return 0, 0
        violations = 0
        for prev, rec in zip(traj.records[:-1], traj.records[1:]):
            rhs = (float(prev.f) - float(rec.model_dec) + float(rec.noise_step_dot)
                   + 0.5 * (grad_lipschitz + float(rec.hess_bound)) * float(rec.step_norm)**2)
            violations += float(rec.f) > rhs + 1e-9
        return len(traj.records) - 1, violations

    def test_taylor_violations_match_row_loop(self):
        prob, trish, trish1, sg = self.runs()
        trish.column("f")[[7, 20]] += 1.0  # each breaks the bound of the step into it
        for traj in (trish, trish1, sg):
            assert taylor_violations(traj, prob.grad_lipschitz) == self.taylor_by_rows(
                traj, prob.grad_lipschitz)
        assert taylor_violations(trish, prob.grad_lipschitz) == (30, 2)
        assert taylor_violations(sg, prob.grad_lipschitz) == (0, 0)

    def test_cost_accounting(self):
        prob, trish, trish1, sg = self.runs()
        exact = run_trish(prob, np.ones(4), replace(trish.config, solver=SolverSpec(kind="exact")))
        for traj in (trish, trish1, sg, exact):
            assert cost_accounting_ok(traj)
            cost = traj.column("cost_units")
            for change in (-1, 4):  # iteration 12 charged one unit less, then four more
                cost[12:] += change
                assert not cost_accounting_ok(traj), (traj.algorithm, change)
                cost[12:] -= change

    def test_cost_accounting_reads_the_cg_cap(self):
        prob = make_quadratic(10, 1.0, 10.0, seed=2)
        cfg = TrishConfig(StepsizeSchedule.constant(0.5), GammaSchedule.constant(2.0, 1.0),
                          30, seed=1, noise=NoiseModel(kind="bounded", m_g=1.0,
                                                       hessian_kind="exact-capped", m_h=10.0))
        wide = run_trish(prob, np.ones(10), replace(cfg, solver=SolverSpec(max_iters=5)))
        assert np.max(np.diff(wide.column("cost_units"))) == 6  # steps reach the cap of 5
        assert cost_accounting_ok(wide)
        narrow = run_trish(prob, np.ones(10), replace(cfg, solver=SolverSpec(max_iters=1)))
        assert cost_accounting_ok(narrow)
        narrow.column("cost_units")[12:] += 2  # iteration 12 costs 4 units: 3 products
        assert not cost_accounting_ok(narrow)
