"""Hyperparameter grid construction and the tuning protocol.

The grid is anchored on G, the average stochastic-gradient norm of a
baseline SG run at stepsize 0.1: candidate stepsizes are powers of ten,
gamma1 = 2**a / G and gamma2 = 1 / (2**b G) over supplied exponent
sets.  SG receives exactly as many stepsize candidates as the
trust-region grid has triples (same tuning effort), log-uniform between
the smallest gamma2-scaled and largest gamma1-scaled stepsizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..core import ConfigurationError, NoiseModel, NumericalError
from ..optimizer import SolverSpec, TrishConfig, run_lanes, run_sg
from ..problems import MiniBatchSampler
from ..schedules import GammaSchedule, StepsizeSchedule

logger = logging.getLogger(__name__)

BASELINE_STEPSIZE = 0.1
# Lanes per lockstep run of ``tune``.  At N = 2000 data rows the full-data
# f of S lanes makes (S, N) float temporaries, 128 KB each at S = 8;
# beyond 8 lanes they outgrow a core's L2 share.  The tune runs of the
# tune-logistic benchmark (inputs 5, 9 and 12, CPU time, best of 5,
# 2-vCPU Xeon) ran 1.5-1.9x as fast as scalar runs at 4 lanes,
# 1.8-2.5x at 8, 1.7-2.2x at 16 and 1.6-2.1x at 32, measured with the
# lanes evaluating the full-data grad f as well.
TUNE_LANES = 8


@dataclass(frozen=True)
class GridSpec:
    """Exponent sets defining the hyperparameter grid."""

    lambda_exponents: tuple[float, ...]  # alpha = 10**lambda
    a_exponents: tuple[float, ...]  # gamma1 = 2**a / G
    b_exponents: tuple[float, ...]  # gamma2 = 1 / (2**b G)

    def __post_init__(self) -> None:
        if not (self.lambda_exponents and self.a_exponents and self.b_exponents):
            raise ConfigurationError("grid exponent sets must be non-empty")

    @property
    def sg_count(self) -> int:
        """SG gets one stepsize per trust-region triple (fairness rule)."""
        return len(self.lambda_exponents) * len(self.a_exponents) * len(self.b_exponents)


@dataclass(frozen=True)
class HyperGrid:
    trish_settings: tuple[tuple[float, float, float], ...]  # (alpha, gamma1, gamma2)
    sg_stepsizes: tuple[float, ...]


def _source(noise, sampler):
    """The runs' one estimate source: ``noise`` (the noise-free model
    when None), or ``sampler`` in place of a None or noise-free ``noise``."""
    if sampler is None:
        return NoiseModel() if noise is None else noise
    if noise not in (None, NoiseModel()):
        raise ConfigurationError(f"give one estimate source, not a sampler and {noise!r}")
    return sampler


def baseline_gradient_norm(
    problem,
    noise: NoiseModel | MiniBatchSampler,
    iterations: int,
    seed: int,
    x0: np.ndarray | None = None,
    sampler: MiniBatchSampler | None = None,
) -> float:
    """Mean sampled-gradient norm along an SG run at stepsize 0.1,
    drawing from ``noise`` or ``sampler`` (see ``_source``)."""
    if iterations < 1:
        raise ConfigurationError("baseline run needs at least one iteration")
    if x0 is None:
        x0 = np.zeros(problem.dim)
    traj = run_sg(problem, x0, StepsizeSchedule.constant(BASELINE_STEPSIZE),
                  _source(noise, sampler), iterations, seed)
    norms = traj.column("g_norm")[1:]
    if traj.aborted is not None:
        raise NumericalError(
            f"baseline SG run diverged ({traj.aborted}); partial mean over "
            f"{len(norms)} iterations was {float(np.mean(norms))}")
    g = float(np.mean(norms))
    if g == 0.0:
        logger.warning("baseline gradient norm is exactly zero (started at a "
                       "stationary point of a noise-free problem); the grid "
                       "formulas cannot be anchored on it")
    return g


def build_grid(G: float, spec: GridSpec) -> HyperGrid:
    """Instantiate the grid formulas at baseline norm ``G``."""
    if G <= 0:
        raise ConfigurationError("build_grid requires G > 0")
    alphas = [10.0**lam for lam in spec.lambda_exponents]
    gamma1s = [2.0**a / G for a in spec.a_exponents]
    gamma2s = [1.0 / (2.0**b * G) for b in spec.b_exponents]
    trish = tuple(
        (alpha, g1, g2) for alpha in alphas for g1 in gamma1s for g2 in gamma2s
    )
    lo = min(gamma2s) * 10.0 ** min(spec.lambda_exponents)
    hi = max(gamma1s) * 10.0 ** max(spec.lambda_exponents)
    sg = tuple(float(v) for v in np.geomspace(lo, hi, num=spec.sg_count))
    return HyperGrid(trish_settings=trish, sg_stepsizes=sg)


@dataclass(frozen=True)
class TuneEntry:
    setting: dict
    mean_loss: float
    losses: tuple[float, ...] = field(default=())


@dataclass(frozen=True)
class TuneResult:
    leaderboard: tuple[TuneEntry, ...]  # best first

    @property
    def best(self) -> TuneEntry:
        return self.leaderboard[0]


def tune(
    problem,
    algorithm: str,
    grid: HyperGrid,
    seeds: list[int],
    iterations: int,
    noise: NoiseModel | MiniBatchSampler | None = None,
    solver: SolverSpec | None = None,
    x0: np.ndarray | None = None,
    sampler: MiniBatchSampler | None = None,
) -> TuneResult:
    """Rank every grid setting by mean final validation loss.

    Each (setting, seed) pair is one run, and the runs go as lockstep
    lanes (``run_lanes``), ``TUNE_LANES`` at a time, each bit for bit
    its one-lane run, drawing from ``noise`` or ``sampler`` (see ``_source``).
    Only each lane's final iterate and abort reason are read, so the
    lanes run with ``true_grad=False``: under a sampler they skip the
    diagnostic full-data gradient.

    Diverged runs score +inf; ties break toward the smaller stepsize,
    then the smaller gamma1, then the larger gamma2, so the result does
    not depend on the grid's order.
    """
    if algorithm not in ("trish", "trish1", "sg"):
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    noise = _source(noise, sampler)
    if solver is None:
        solver = SolverSpec()
    if x0 is None:
        x0 = np.zeros(problem.dim)

    if algorithm == "sg":
        settings = [{"alpha": alpha} for alpha in grid.sg_stepsizes]
    else:
        settings = [{"alpha": alpha, "gamma1": gamma1, "gamma2": gamma2}
                    for alpha, gamma1, gamma2 in grid.trish_settings]
    configs = [TrishConfig(
        stepsizes=StepsizeSchedule.constant(setting["alpha"]),
        gammas=GammaSchedule.constant(setting.get("gamma1", 1.0), setting.get("gamma2", 1.0)),
        iterations=iterations,
        seed=seed,
        solver=solver,
        noise=noise,
    ) for setting in settings for seed in seeds]

    ends = []
    for start in range(0, len(configs), TUNE_LANES):
        lanes = run_lanes(problem, x0, configs[start:start + TUNE_LANES], algorithm,
                          true_grad=False)
        ends += zip(lanes.aborted, lanes.final_x)

    def final_loss(aborted, x) -> float:
        if aborted is not None or not np.all(np.isfinite(x)):
            return float("inf")
        return float(problem.validation_loss(x))

    losses = [final_loss(*end) for end in ends]
    entries = []
    for i, setting in enumerate(settings):
        mine = tuple(losses[i * len(seeds):(i + 1) * len(seeds)])
        entries.append(TuneEntry(setting, float(np.mean(mine)), mine))
    entries.sort(key=lambda e: (e.mean_loss, e.setting["alpha"], e.setting.get("gamma1", 0.0),
                                -e.setting.get("gamma2", 0.0)))

    if not np.isfinite(entries[0].mean_loss):
        raise NumericalError("every grid setting diverged")
    return TuneResult(tuple(entries))
