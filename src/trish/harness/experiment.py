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
from ..optimizer import Trajectory, run_sg, run_trish, run_trish_first_order
from .config import (
    build_noise,
    build_problem,
    build_sampler,
    build_stepsizes,
    build_trish_config,
    build_x0,
)

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
    problem = build_problem(doc["problem"])
    x0 = build_x0(problem, doc)
    sampler = build_sampler(problem, doc)
    algorithm = doc["algorithm"]
    if algorithm == "sg":
        return run_sg(problem, x0, build_stepsizes(doc["stepsizes"]),
                      build_noise(doc.get("noise")), doc["iterations"], seed,
                      sampler=sampler)
    cfg = build_trish_config(doc, seed)
    if algorithm == "trish1":
        return run_trish_first_order(problem, x0, cfg, sampler=sampler)
    return run_trish(problem, x0, cfg, sampler=sampler)


def run_experiment(doc: dict, output_dir: str | None = None) -> list[Path]:
    """Run every configured seed and write one trace CSV per run.

    Returns the written paths.  A diverged run still writes its partial
    trace; the caller can inspect ``Trajectory.aborted`` via the row
    count falling short of iterations + 1.
    """
    out = resolve_output_dir(doc, output_dir)
    paths = []
    failures = []
    for seed in doc["seeds"]:
        traj = run_single(doc, seed)
        path = out / f"{doc['algorithm']}_seed{seed}.csv"
        write_trace_csv(traj, path)
        paths.append(path)
        if traj.aborted is not None:
            failures.append(f"seed {seed}: {traj.aborted}")
    if failures:
        raise RuntimeError(
            "runs diverged (partial traces written): " + "; ".join(failures))
    return paths
