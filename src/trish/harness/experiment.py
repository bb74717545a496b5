"""Experiment execution and CSV trace export.

One CSV per (algorithm, seed) with a fixed column set; every float is
written with round-trip repr, so reruns with the same seed are
byte-identical except for the wall-clock column.  A field the run did
not record is an empty cell; a recorded NaN is written ``nan``.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from ..core import ConfigurationError
from ..optimizer import (SolverSpec, Trajectory, TrishConfig, run_sg, run_trish,
                         run_trish_first_order)
from ..schedules import GammaSchedule, StepsizeSchedule
from .config import build_inputs

CSV_COLUMNS = (
    "k", "f", "grad_norm_true", "g_norm", "delta", "case", "model_dec",
    "cauchy_dec", "cg_iters", "upsilon", "cost_units", "wall_ns",
)
INT_COLUMNS = frozenset({"k", "case", "cg_iters", "cost_units", "wall_ns"})

OUTPUT_DIR_ENV = "TRISH_OUTPUT_DIR"


def _cells(traj: Trajectory, name: str) -> list[str]:
    """Column ``name`` as CSV cells: integers, float reprs, or empty."""
    fmt = (lambda v: str(int(v))) if name in INT_COLUMNS else repr
    return [fmt(v) if kept else "" for v, kept in
            zip(traj.column(name).tolist(), traj.recorded(name).tolist())]


def write_trace_csv(traj: Trajectory, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*(_cells(traj, name) for name in CSV_COLUMNS)))


def resolve_output_dir(doc: dict, override: str | None = None) -> Path:
    """Priority: explicit override, then env var, then config, then cwd."""
    chosen = override or os.environ.get(OUTPUT_DIR_ENV) or doc.get("output_dir") or "."
    path = Path(chosen)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output dir {path}: {exc}") from exc
    return path


def run_single(doc: dict, seed: int) -> Trajectory:
    """One run of the configured algorithm at one seed."""
    return _run_seed(doc, seed, *build_inputs(doc))


def _run_seed(doc: dict, seed: int, problem, x0, noise) -> Trajectory:
    """One seed of ``doc``, drawing from the source ``noise`` (see ``build_inputs``)."""
    algorithm, stepsizes = doc["algorithm"], StepsizeSchedule(**doc["stepsizes"])
    if algorithm == "sg":
        return run_sg(problem, x0, stepsizes, noise, doc["iterations"], seed)
    config = TrishConfig(stepsizes, GammaSchedule(**doc["gammas"]), doc["iterations"], seed,
                         solver=SolverSpec(**doc.get("solver", {})), noise=noise)
    runner = run_trish_first_order if algorithm == "trish1" else run_trish
    return runner(problem, x0, config)


def run_experiment(doc: dict, output_dir: str | None = None) -> list[Path]:
    """Run every configured seed and write one trace CSV per run.

    Returns the written paths.  A diverged run still writes its partial
    trace; once every trace is written, ``RuntimeError`` names each
    diverged seed and its abort reason.
    """
    out = resolve_output_dir(doc, output_dir)
    paths = []
    failures = []
    inputs = build_inputs(doc)
    for seed in doc["seeds"]:
        traj = _run_seed(doc, seed, *inputs)
        path = out / f"{doc['algorithm']}_seed{seed}.csv"
        write_trace_csv(traj, path)
        paths.append(path)
        if traj.aborted is not None:
            failures.append(f"seed {seed}: {traj.aborted}")
    if failures:
        raise RuntimeError(
            "runs diverged (partial traces written): " + "; ".join(failures))
    return paths
