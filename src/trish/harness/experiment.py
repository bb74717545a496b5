"""Experiment execution and CSV trace export.

An experiment's seeds run as one lockstep lane run (``run_lanes``), one
lane per seed, and each lane is written as its ``Trajectory``, the one
a one-lane run of that seed returns.  One CSV per (algorithm, seed)
with a fixed column set; every float is written with round-trip repr,
so reruns with the same seed are byte-identical except for the
wall-clock column ``wall_ns``, which is the lanes' shared lockstep
time: the nanoseconds from the start of the lane run to the end of each
row.  A field the run did not record is an empty cell; a recorded NaN
is written ``nan``.  A diverged seed still writes its partial trace,
but an ``EvaluationError`` or ``NumericalError`` in any seed ends the
whole run before any CSV is written, the other seeds' included.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from ..core import ConfigurationError
from ..optimizer import SolverSpec, Trajectory, TrishConfig, run_lanes
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


def _config(doc: dict, seed: int, noise) -> TrishConfig:
    """The ``TrishConfig`` of one seed of ``doc``, drawing from the source
    ``noise`` (see ``build_inputs``); SG's takes no gammas or solver."""
    stepsizes = StepsizeSchedule(**doc["stepsizes"])
    if doc["algorithm"] == "sg":
        return TrishConfig(stepsizes, GammaSchedule.constant(1.0, 1.0), doc["iterations"], seed,
                           noise=noise)
    return TrishConfig(stepsizes, GammaSchedule(**doc["gammas"]), doc["iterations"], seed,
                       solver=SolverSpec(**doc.get("solver", {})), noise=noise)


def run_experiment(doc: dict, output_dir: str | None = None) -> list[Path]:
    """Run every configured seed as one lane run and write one trace CSV
    per seed (see the module docstring).

    Returns the written paths.  Once every trace is written,
    ``RuntimeError`` names each diverged seed and its abort reason.
    """
    out = resolve_output_dir(doc, output_dir)
    problem, x0, noise = build_inputs(doc)
    lanes = run_lanes(problem, x0, [_config(doc, seed, noise) for seed in doc["seeds"]],
                      doc["algorithm"])
    paths = []
    failures = []
    for i, seed in enumerate(doc["seeds"]):
        traj = lanes.trajectory(i)
        path = out / f"{doc['algorithm']}_seed{seed}.csv"
        write_trace_csv(traj, path)
        paths.append(path)
        if traj.aborted is not None:
            failures.append(f"seed {seed}: {traj.aborted}")
    if failures:
        raise RuntimeError(
            "runs diverged (partial traces written): " + "; ".join(failures))
    return paths
