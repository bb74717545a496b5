"""Benchmark workloads: inputs, one timed pass, and the correctness gate.

Each workload drives trish through a user-level entry point
(``verify``, the ``tune`` protocol, ``run_experiment``).  A *pass* is
one complete call sequence of that entry point; it calls ``lap()`` after
each entry-point call so the worker can time the calls one by one.  A
*lane* is one seed run at one setting.  ``check`` compares a pass's outputs with the
reference recorded from the seed commit (``reference/<name>.json``) and
returns the number of lanes that failed.

Inputs come from ``--seed``: tune-logistic and run-* build their problem
and lane seeds from ``seed % VARIANTS``, the number of seeds with a
recorded reference.  verify-envelope ignores the seed on purpose: the
suites' fixed seeds are the acceptance configuration.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from trish import (
    GammaSchedule,
    NoiseModel,
    StepsizeSchedule,
    TrishConfig,
    make_quadratic,
    run_trish,
    run_trish_first_order,
)
# Entry points are looked up on their modules at call time, so the
# tracer's wrappers see these calls too.
from trish.harness import config, experiment, grid, suites
from trish.harness.grid import GridSpec
from trish.problems import RosenbrockProblem

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VARIANTS = 16
REL_TOL = 1e-12  # ROADMAP's trace tolerance, used for every compared number


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


class Workload:
    """Interface the worker drives; subclasses fill in the entry point."""

    name = ""
    MIN_PASSES = 1  # passes a worker runs even when its time share is used up

    def __init__(self, seed: int, workdir: Path):
        pass

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, lap):
        raise NotImplementedError

    def steps(self, outputs) -> int:
        """Optimizer steps (trace rows with k >= 1) summed over the pass's lanes."""
        raise NotImplementedError

    def record(self, outputs) -> dict:
        raise NotImplementedError

    def check(self, outputs, reference: dict) -> tuple[int, int, list[str]]:
        """(lanes attempted, lanes failed, messages) against the reference."""
        raise NotImplementedError

    def report_stats(self, outputs) -> dict:
        """Statistics the pass's own reports carry, for the traced metrics."""
        return {}


class VerifyEnvelope(Workload):
    """The five Monte-Carlo envelope suites at ``--quick`` sizes."""

    name = "verify-envelope"
    SUITES = ("pl-fixed", "pl-merging", "pl-sublinear", "geometric", "nonconvex-fixed")
    # Report statistics compared with the reference, wherever a check has them.
    KEYS = ("terminal_mean_gap", "worst_slack", "steps_checked", "aborted_runs",
            "mean", "seeds", "horizon")

    def warm_up(self) -> None:
        # One short lane per optimizer path the suites take.
        problem = make_quadratic(10, 1.0, 10.0, seed=0)
        for hessian_kind in ("exact-capped", "zero"):
            run_trish(problem, np.ones(10), TrishConfig(
                StepsizeSchedule.constant(1e-3), GammaSchedule.constant(2.0, 1.0), 20,
                noise=NoiseModel(kind="bounded", m_g=1.0, hessian_kind=hessian_kind,
                                 m_h=problem.grad_lipschitz)))
        run_trish_first_order(RosenbrockProblem(10), np.zeros(10), TrishConfig(
            StepsizeSchedule.constant(1e-5), GammaSchedule.constant(1.0, 1.0), 20,
            noise=NoiseModel(kind="bounded", m_g=1.0)))

    def run_pass(self, lap):
        reports = []
        for suite in self.SUITES:
            reports.append(suites.verify(suite, quick=True))
            lap()
        return reports

    @staticmethod
    def _stat(report, key: str):
        return next(c.stats[key] for c in report.checks if key in c.stats)

    def steps(self, reports) -> int:
        return sum(self._stat(r, "steps_checked") for r in reports)

    def report_stats(self, reports) -> dict:
        return {"steps_checked": self.steps(reports),
                "elapsed_s": {r.suite: r.elapsed_s for r in reports}}

    def record(self, reports) -> dict:
        return {r.suite: {
            "lanes": self._stat(r, "seeds"),
            "checks": [{"name": c.name, "passed": bool(c.passed),
                        "stats": {k: c.stats[k] for k in self.KEYS if k in c.stats}}
                       for c in r.checks],
        } for r in reports}

    def check(self, reports, reference: dict) -> tuple[int, int, list[str]]:
        """A suite that fails any check or statistic fails all its lanes."""
        attempted = failed = 0
        problems = []
        got = self.record(reports)
        for suite, ref in reference.items():
            attempted += ref["lanes"]
            mine = got.get(suite)
            if mine is None or not _same_checks(mine["checks"], ref["checks"]):
                failed += ref["lanes"]
                problems.append(f"{suite}: report differs from the reference")
        return attempted, failed, problems


def _same_checks(got: list, ref: list) -> bool:
    if len(got) != len(ref):
        return False
    for g, r in zip(got, ref):
        if g["name"] != r["name"] or not g["passed"] or g["passed"] != r["passed"]:
            return False
        if g["stats"].keys() != r["stats"].keys():
            return False
        if not all(close(g["stats"][k], r["stats"][k]) for k in r["stats"]):
            return False
    return True


class TuneLogistic(Workload):
    """The ``trish tune`` protocol on mini-batch logistic regression.

    The baseline G is computed once; ``trish`` and ``sg`` are then tuned
    over the same grid and seeds, as two ``trish tune`` configs sharing
    one baseline would be.
    """

    name = "tune-logistic"
    ITERATIONS = 80
    SEEDS = 2

    def __init__(self, seed: int, workdir: Path):
        self.variant = seed % VARIANTS
        lane_seeds = [100 * self.variant + j for j in range(self.SEEDS)]
        doc = config.validate_config({
            "problem": {"kind": "logistic", "n_samples": 2000, "dim": 20, "l2": 0.01,
                        "seed": self.variant},
            "algorithm": "trish",
            "iterations": self.ITERATIONS,
            "seeds": lane_seeds,
            "stepsizes": {"kind": "constant", "alpha": 0.1},
            "gammas": {"kind": "constant", "gamma1": 2.0, "gamma2": 1.0},
            "batch_size": 10,
            "baseline": {"iterations": self.ITERATIONS, "seed": 100 * self.variant + 99},
            "grid": {"lambda_exponents": [-1.0, 0.0], "a_exponents": [1.0, 3.0],
                     "b_exponents": [1.0, 3.0]},
        })
        self.doc = doc
        self.problem = config.build_problem(doc["problem"])
        self.x0 = config.build_x0(self.problem, doc)
        self.noise = config.build_noise(doc.get("noise"))
        self.spec = GridSpec(**{k: tuple(v) for k, v in doc["grid"].items()})

    def _samplers(self) -> dict:
        # Built per pass, as each ``trish tune`` invocation does.
        return {alg: config.build_sampler(self.problem, {**self.doc, "algorithm": alg})
                for alg in ("trish", "sg")}

    def warm_up(self) -> None:
        samplers = self._samplers()
        g = grid.baseline_gradient_norm(self.problem, self.noise, 10, 0, x0=self.x0,
                                        sampler=samplers["trish"])
        hyper = grid.build_grid(g, GridSpec((0.0,), (1.0,), (1.0,)))
        for alg in ("trish", "sg"):
            grid.tune(self.problem, alg, hyper, [0], 10, noise=self.noise, x0=self.x0,
                      sampler=samplers[alg])

    def run_pass(self, lap):
        doc = self.doc
        samplers = self._samplers()
        g = grid.baseline_gradient_norm(self.problem, self.noise,
                                        doc["baseline"]["iterations"], doc["baseline"]["seed"],
                                        x0=self.x0, sampler=samplers["trish"])
        hyper = grid.build_grid(g, self.spec)
        lap()
        results = {}
        for alg in ("trish", "sg"):
            results[alg] = grid.tune(self.problem, alg, hyper, doc["seeds"], doc["iterations"],
                                     noise=self.noise, x0=self.x0, sampler=samplers[alg])
            lap()
        return g, results

    def lanes(self) -> int:
        return 1 + 2 * self.spec.sg_count * self.SEEDS

    def steps(self, outputs) -> int:
        # Every lane runs to the end: the gate rejects any loss that differs
        # from the (finite) reference, so this count is exact for passing runs.
        return self.doc["baseline"]["iterations"] + (self.lanes() - 1) * self.ITERATIONS

    def record(self, outputs) -> dict:
        g, results = outputs
        return {"baseline_g": g, **{
            alg: {"best": res.best.setting,
                  "leaderboard": [{"setting": e.setting, "mean_loss": e.mean_loss,
                                   "losses": list(e.losses)} for e in res.leaderboard]}
            for alg, res in results.items()}}

    def check(self, outputs, reference: dict) -> tuple[int, int, list[str]]:
        ref = reference["variants"][str(self.variant)]
        got = self.record(outputs)
        problems = []
        failed = 0
        if not close(got["baseline_g"], ref["baseline_g"]):
            failed += 1
            problems.append("baseline G differs from the reference")
        for alg in ("trish", "sg"):
            mine, theirs = got[alg], ref[alg]
            lanes = sum(len(e["losses"]) for e in theirs["leaderboard"])
            order = [mine["best"]] + [e["setting"] for e in mine["leaderboard"]]
            ref_order = [theirs["best"]] + [e["setting"] for e in theirs["leaderboard"]]
            if len(order) != len(ref_order) or not all(
                    a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
                    for a, b in zip(order, ref_order)):
                failed += lanes
                problems.append(f"{alg}: best setting or leaderboard order differs")
                continue
            for e, r in zip(mine["leaderboard"], theirs["leaderboard"]):
                bad = sum(not close(a, b) for a, b in zip(e["losses"], r["losses"]))
                if not close(e["mean_loss"], r["mean_loss"]):
                    bad = len(r["losses"])
                if bad:
                    failed += bad
                    problems.append(f"{alg} {e['setting']}: losses differ")
        return self.lanes(), failed, problems


class RunExperiment(Workload):
    """``run_experiment`` writing one CSV trace per lane under ``.bench_runs/``."""

    MIN_PASSES = 2  # the rerun check needs a second pass
    STRIDE_ROWS = 4  # reference rows kept per lane, plus the last row

    def __init__(self, seed: int, workdir: Path):
        self.variant = seed % VARIANTS
        self.outdir = workdir / f"{self.name}-csv"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.doc = config.validate_config(self.experiment_doc(self.variant))
        self.first: list[bytes] | None = None

    def warm_up(self) -> None:
        doc = copy.deepcopy(self.doc)
        doc["iterations"] = self.WARM_UP_ITERATIONS
        experiment.run_experiment(doc, output_dir=str(self.outdir))

    def run_pass(self, lap):
        paths = experiment.run_experiment(self.doc, output_dir=str(self.outdir))
        lap()
        return paths

    @staticmethod
    def _rows(path: Path) -> list[list[str]]:
        """CSV rows without the wall-clock column."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ns")
        return [row[:drop] + row[drop + 1:] for row in rows]

    def read(self, paths) -> list[list[list[str]]]:
        return [self._rows(Path(p)) for p in paths]

    def steps(self, paths) -> int:
        return sum(len(rows) - 2 for rows in self.read(paths))

    def record(self, paths) -> dict:
        lanes = []
        for path, rows in zip(paths, self.read(paths)):
            n = len(rows) - 1
            keep = sorted({*range(0, n, max(1, n // self.STRIDE_ROWS)), n - 1})
            lanes.append({"file": Path(path).name, "header": rows[0], "rows": n,
                          "sample": {str(k): rows[1 + k] for k in keep}})
        return {"lanes": lanes}

    def check(self, paths, reference: dict) -> tuple[int, int, list[str]]:
        """Sampled rows within 1e-12 of the reference; reruns byte-identical."""
        ref = reference["variants"][str(self.variant)]["lanes"]
        traces = self.read(paths)
        flat = [_csv_bytes(rows) for rows in traces]
        if self.first is None:
            self.first = flat
        problems = []
        failed = 0
        for i, r in enumerate(ref):
            rows = traces[i] if i < len(traces) else []
            ok = (rows and Path(paths[i]).name == r["file"]
                  and rows[0] == r["header"] and len(rows) - 1 == r["rows"]
                  and all(_same_row(rows[1 + int(k)], cells) for k, cells in r["sample"].items())
                  and flat[i] == self.first[i])
            if not ok:
                failed += 1
                problems.append(f"{r['file']}: trace differs from the reference or a rerun")
        return len(ref), failed, problems


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _same_row(got: list[str], ref: list[str]) -> bool:
    if len(got) != len(ref):
        return False
    for a, b in zip(got, ref):
        if a == b:
            continue
        if a == "" or b == "":
            return False
        x, y = float(a), float(b)
        if not (close(x, y) or (math.isnan(x) and math.isnan(y))):
            return False
    return True


class RunTrace(RunExperiment):
    """Cheap Steihaug steps on an n=10 quadratic; CSV export is a large share."""

    name = "run-trace"
    WARM_UP_ITERATIONS = 20

    @staticmethod
    def experiment_doc(variant: int) -> dict:
        return {
            "problem": {"kind": "quadratic", "n": 10, "lam_min": 1.0, "lam_max": 10.0,
                        "seed": variant},
            "algorithm": "trish",
            "iterations": 1000,
            "seeds": [10 * variant + j for j in range(4)],
            "stepsizes": {"kind": "constant", "alpha": 1.0 / 320.0},
            "gammas": {"kind": "constant", "gamma1": 2.0, "gamma2": 1.0},
            "solver": {"kind": "steihaug", "max_iters": 3},
            "noise": {"kind": "bounded", "m_g": 1.0,
                      "hessian": {"kind": "exact-capped", "m_h": 10.0}},
            "x0": [1.0] * 10,
        }


class RunExact(RunExperiment):
    """Exact subproblem solver on an n=50 quadratic (dense Hessian, 50 hvp/step)."""

    name = "run-exact"
    WARM_UP_ITERATIONS = 100

    @staticmethod
    def experiment_doc(variant: int) -> dict:
        return {
            "problem": {"kind": "quadratic", "n": 50, "lam_min": 1.0, "lam_max": 10.0,
                        "seed": 1000 + variant},
            "algorithm": "trish",
            "iterations": 100,
            "seeds": [10 * variant + j for j in range(2)],
            "stepsizes": {"kind": "constant", "alpha": 1.0 / 320.0},
            "gammas": {"kind": "constant", "gamma1": 2.0, "gamma2": 1.0},
            "solver": {"kind": "exact"},
            "noise": {"kind": "bounded", "m_g": 1.0,
                      "hessian": {"kind": "exact-capped", "m_h": 10.0}},
            "x0": [1.0] * 50,
        }


WORKLOADS = {w.name: w for w in (VerifyEnvelope, TuneLogistic, RunTrace, RunExact)}
