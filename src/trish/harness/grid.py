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

from ..core import ConfigurationError, NoiseModel, NumericalError, Sampler
from ..optimizer import SolverSpec, TrishConfig, run_sg, run_trish, run_trish_first_order
from ..schedules import GammaSchedule, StepsizeSchedule

logger = logging.getLogger(__name__)

BASELINE_STEPSIZE = 0.1


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
    baseline_g: float


def baseline_gradient_norm(
    problem,
    noise: NoiseModel,
    iterations: int,
    seed: int,
    x0: np.ndarray | None = None,
    sampler: Sampler | None = None,
) -> float:
    """Mean sampled-gradient norm along an SG run at stepsize 0.1."""
    if iterations < 1:
        raise ConfigurationError("baseline run needs at least one iteration")
    if x0 is None:
        x0 = np.zeros(problem.dim)
    traj = run_sg(problem, x0, StepsizeSchedule.constant(BASELINE_STEPSIZE),
                  noise, iterations, seed, sampler=sampler)
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
    return HyperGrid(trish_settings=trish, sg_stepsizes=sg, baseline_g=G)


@dataclass(frozen=True)
class TuneEntry:
    setting: dict
    mean_loss: float
    losses: tuple[float, ...] = field(default=())


@dataclass(frozen=True)
class TuneResult:
    best: TuneEntry
    leaderboard: tuple[TuneEntry, ...]


def tune(
    problem,
    algorithm: str,
    grid: HyperGrid,
    seeds: list[int],
    iterations: int,
    noise: NoiseModel | None = None,
    solver: SolverSpec | None = None,
    x0: np.ndarray | None = None,
    sampler: Sampler | None = None,
) -> TuneResult:
    """Rank every grid setting by mean final validation loss.

    Diverged runs score +inf; ties break toward the smaller stepsize and
    then the smaller gamma1, which also makes the result invariant to
    grid ordering.
    """
    if algorithm not in ("trish", "trish1", "sg"):
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if noise is None:
        noise = NoiseModel()
    if solver is None:
        solver = SolverSpec()
    if x0 is None:
        x0 = np.zeros(problem.dim)

    def final_loss(traj) -> float:
        if traj.aborted is not None or not np.all(np.isfinite(traj.final_x)):
            return float("inf")
        return float(problem.validation_loss(traj.final_x))

    entries = []
    if algorithm == "sg":
        for alpha in grid.sg_stepsizes:
            losses = tuple(
                final_loss(run_sg(problem, x0, StepsizeSchedule.constant(alpha),
                                  noise, iterations, seed, sampler=sampler))
                for seed in seeds
            )
            entries.append(TuneEntry({"alpha": alpha}, float(np.mean(losses)), losses))
        entries.sort(key=lambda e: (e.mean_loss, e.setting["alpha"]))
    else:
        runner = run_trish if algorithm == "trish" else run_trish_first_order
        for alpha, gamma1, gamma2 in grid.trish_settings:
            cfg_losses = []
            for seed in seeds:
                cfg = TrishConfig(
                    stepsizes=StepsizeSchedule.constant(alpha),
                    gammas=GammaSchedule.constant(gamma1, gamma2),
                    iterations=iterations,
                    seed=seed,
                    solver=solver,
                    noise=noise,
                )
                cfg_losses.append(final_loss(runner(problem, x0, cfg, sampler=sampler)))
            entries.append(TuneEntry(
                {"alpha": alpha, "gamma1": gamma1, "gamma2": gamma2},
                float(np.mean(cfg_losses)), tuple(cfg_losses)))
        entries.sort(key=lambda e: (e.mean_loss, e.setting["alpha"],
                                    e.setting["gamma1"]))

    if not np.isfinite(entries[0].mean_loss):
        raise NumericalError("every grid setting diverged")
    return TuneResult(best=entries[0], leaderboard=tuple(entries))
