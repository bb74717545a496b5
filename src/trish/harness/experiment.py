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

import numpy as np

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
    """Column ``name`` as CSV cells: integers, float reprs, or empty.

    Only the recorded cells are formatted, in one pass.  In every layout
    but the exact solver's ``upsilon`` (skipped where g = 0) they run
    from their first row to the last, and fill that slice at once."""
    values = traj.column(name)
    rows = np.flatnonzero(traj.recorded(name))
    kept = values[rows].tolist()
    cells = map(str, map(int, kept)) if name in INT_COLUMNS else map(repr, kept)
    out = [""] * len(values)
    if rows.size and rows.size == len(values) - rows[0]:
        out[int(rows[0]):] = cells
    else:
        for i, cell in zip(rows.tolist(), cells):
            out[i] = cell
    return out


def write_trace_csv(traj: Trajectory, path: Path) -> None:
    """Write ``traj`` as CSV: the ``csv`` module's excel dialect (comma,
    ``\\r\\n``), whose minimal quoting never quotes a number or an empty
    cell of a many-column row, so the rows are written as joined cells."""
    end = csv.excel.lineterminator
    columns = [_cells(traj, name) for name in CSV_COLUMNS]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + end)
        fh.writelines(",".join(row) + end for row in zip(*columns))


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
