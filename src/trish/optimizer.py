"""The TRish loop (second- and first-order, and the SG baseline as its
degenerate step rule) and a lockstep runner for many TRish lanes at once.

Runs are deterministic given a seed: gradient noise and Hessian
perturbations consume separate named streams, so an SG run and a
first-order TRish run sharing a seed see identical gradient samples.
Cost accounting equates one stochastic gradient with one
Hessian-vector product; diagnostic evaluations (true f and gradient
each iteration, model re-evaluation in the solver) are excluded.
``run_trish`` is the reference; ``run_trish_lanes`` reproduces it bit
for bit on the configurations it supports.

Every runner takes ``on_iterate(k, x)``, called with the iterate at
k = 0 and after every recorded iteration, including the last row of a
run the divergence guard stops (for lanes, ``x`` is the (S, n) stack
and a stopped lane keeps its last iterate).  The hook gets the runner's
own array, which a later iteration may overwrite: copy what you keep.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    Array,
    ConfigurationError,
    EvaluationError,
    GRADIENT_STREAM,
    HESSIAN_STREAM,
    HessianEstimate,
    NoiseModel,
    ProblemOracle,
    Sampler,
    draw_noise_block,
    hessian_cap,
    oracle_sampler,
    rng_stream,
    row_norms,
    rowdot,
)
from .schedules import GammaSchedule, StepsizeSchedule, gammas_at, validate_stepsize
from .subproblem import (
    EighMemo,
    RadiusCase,
    TRStep,
    cauchy_point,
    exact_trs,
    model_value,
    radius,
    radius_rows,
    steihaug_cg,
    steihaug_cg_rows,
)

logger = logging.getLogger(__name__)

DIVERGENCE_MARGIN = 1e12  # abort when f exceeds f(x_0) by this much


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "steihaug"  # steihaug | exact
    max_iters: int = 3  # CG cap; the per-step cost bound
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.kind not in ("steihaug", "exact"):
            raise ConfigurationError(f"unknown solver kind {self.kind!r}")
        if self.max_iters < 1:
            raise ConfigurationError("solver max_iters must be >= 1")


@dataclass(frozen=True)
class TrishConfig:
    stepsizes: StepsizeSchedule
    gammas: GammaSchedule
    iterations: int
    seed: int = 0
    solver: SolverSpec = field(default_factory=SolverSpec)
    noise: NoiseModel = field(default_factory=NoiseModel)
    # advisory by default; verification suites turn this on to fail fast
    enforce_stepsize_bound: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 0")


# One trace row.  Row 0 is the initial point.  For row k >= 1 the step
# fields describe iteration k, i.e. the step sampled at iterate k-1.
# ``cost_units`` is cumulative: one unit per stochastic gradient plus one
# per Hessian product consumed by the subproblem solver (the exact
# solver's dense materialization counts dim products; zero-Hessian runs
# consume none).  Fields a row does not record hold NaN.
TRACE_DTYPE = np.dtype([(name, np.float64) for name in (
    # recorded on every row by the loop
    "k", "f", "grad_norm_true", "cost_units", "wall_ns",
    # recorded by the step rule from row 1 on; the last six are
    # diagnostics beyond the exported CSV schema
    "g_norm", "delta", "case", "model_dec", "cauchy_dec", "cg_iters", "upsilon",
    "alpha", "gamma1", "gamma2", "step_norm", "hess_bound", "noise_step_dot",
)])
STEP_FIELDS = TRACE_DTYPE.names[5:]
SG_FIELDS = ("g_norm", "alpha", "step_norm")  # the step fields an SG step records


@dataclass
class Trajectory:
    """One run's trace.

    ``records`` is a record array of ``TRACE_DTYPE`` rows, read by row
    (``records[k].f``) or by column (``records.f``, ``column("f")``).
    """

    algorithm: str
    seed: int
    records: np.recarray
    final_x: Array
    config: TrishConfig | None = None
    aborted: str | None = None

    def column(self, name: str) -> np.ndarray:
        return self.records[name]

    def recorded(self, name: str) -> np.ndarray:
        """Rows on which field ``name`` was recorded.

        Decided by the recording rules, not by NaN, since a recorded
        value may itself be NaN on a diverging run: step fields are not
        recorded on row 0, SG steps record only ``SG_FIELDS``, and
        ``upsilon`` comes only from exact solves (nonzero g).
        """
        n = len(self.records)
        if name not in STEP_FIELDS:
            return np.ones(n, dtype=bool)
        if self.algorithm == "sg" and name not in SG_FIELDS:
            return np.zeros(n, dtype=bool)
        rows = np.arange(n) > 0
        if name == "upsilon":
            exact = self.config is not None and self.config.solver.kind == "exact"
            rows &= exact & (self.records.g_norm != 0.0)
        return rows


def trish_step(
    x: Array,
    g: Array,
    hess: HessianEstimate,
    alpha: float,
    gamma1: float,
    gamma2: float,
    solver: SolverSpec,
    g_norm: float | None = None,
    memo: EighMemo | None = None,
) -> tuple[Array, TRStep]:
    """One TRish update: radius from ||g||, subproblem solve, x + s.

    ``g_norm`` is ``||g||`` when the caller already holds it; ``memo``
    lets the exact solver reuse the decomposition of an unchanged dense
    Hessian (see ``exact_trs``).  Neither changes the result.
    """
    if g_norm is None:
        g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        # radius rule gives delta = 0; the step degenerates to zero
        zero = np.zeros_like(x)
        return x.copy(), TRStep(zero, 0.0, RadiusCase.CASE1, 0.0, 0.0, 0, False)
    delta, case = radius(g_norm, alpha, gamma1, gamma2)
    if solver.kind == "steihaug":
        step = steihaug_cg(g, hess, delta, solver.max_iters, solver.tol, case)
    else:
        dense = hess.dense(x.shape[0])
        s, upsilon = exact_trs(g, dense, delta, solver.tol, memo=memo)
        step = TRStep(
            s=s,
            delta=delta,
            case=case,
            model_decrease=-model_value(g, dense, s),
            cauchy_decrease=-model_value(g, dense, cauchy_point(g, dense, delta)),
            cg_iterations=0,
            boundary_hit=bool(upsilon > 0.0 or np.linalg.norm(s) >= delta * (1.0 - 1e-12)),
            upsilon=float(upsilon),
            hessian_products=x.shape[0],  # dense materialization: n products
        )
    return x + step.s, step


def _initial_record(oracle: ProblemOracle, x: Array, t0: int) -> tuple[tuple, float, Array]:
    """Row 0 of the trace, f(x_0) and the true gradient at x_0."""
    f0 = oracle.value(x)
    g0 = oracle.grad(x)
    row = (0, f0, float(np.linalg.norm(g0)), 0, time.perf_counter_ns() - t0)
    return row + (np.nan,) * len(STEP_FIELDS), f0, g0


def _diverged(f: float, f0: float) -> bool:
    return not np.isfinite(f) or f > f0 + DIVERGENCE_MARGIN


def _abort_reason(k: int, f: float) -> str:
    return f"divergence guard tripped at iteration {k} (f={f!r})"


def _precondition_violated(k: int, alpha: float, enforce: bool, warned: bool = False) -> bool:
    """Respond to ``alpha_k`` failing the stepsize precondition: raise if
    the bound is enforced, else warn unless the run already has.
    Returns True, the run's new ``warned`` state."""
    if enforce:
        raise ConfigurationError(f"stepsize precondition violated at k={k}: alpha={alpha}")
    if not warned:
        logger.warning(
            "stepsize alpha_%d=%.3g exceeds the guaranteed-decrease bound; "
            "convergence theory does not apply to this run", k, alpha)
    return True


def _draw_fn(oracle: ProblemOracle, noise: NoiseModel, sampler: Sampler | None,
             grad_rng: np.random.Generator, hess_rng: np.random.Generator):
    """Per-iteration draw ``(x, k, alpha, true_g) -> (g, H)`` from the run's streams.

    A synthetic-noise sampler built here is handed the true gradient the
    loop already holds for its diagnostics, so f's gradient is evaluated
    once per iteration; a caller's sampler is called as given.
    """
    if sampler is None:
        sample = oracle_sampler(oracle, noise)
        return lambda x, k, alpha, true_g: sample(x, k, alpha, grad_rng, hess_rng, grad=true_g)
    return lambda x, k, alpha, true_g: sampler(x, k, alpha, grad_rng, hess_rng)


def _run(oracle, x0, algorithm, seed, stepsizes, iterations, noise, sampler,
         on_iterate, step, config=None) -> Trajectory:
    """The loop every scalar run shares; ``step`` is the algorithm.

    ``step(x, k, alpha, true_g, draw)`` samples at x through
    ``draw(x, k, alpha, true_g)`` and returns ``(x_new, cost, fields)``:
    the next iterate, the cost units the step consumed and the values of
    ``STEP_FIELDS``.  The loop records f and the true gradient at every
    iterate, shows it to ``on_iterate`` and stops when the divergence
    guard trips.
    """
    if iterations < 0:
        raise ConfigurationError("iterations must be >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("initial point must be finite")
    draw = _draw_fn(oracle, noise, sampler,
                    rng_stream(seed, GRADIENT_STREAM), rng_stream(seed, HESSIAN_STREAM))
    store = np.full(iterations + 1, np.nan, dtype=TRACE_DTYPE)

    t0 = time.perf_counter_ns()
    store[0], f0, true_g = _initial_record(oracle, x, t0)
    if on_iterate is not None:
        on_iterate(0, x)
    rows, cost, aborted = iterations + 1, 0, None

    for k in range(1, iterations + 1):
        x, units, fields = step(x, k, stepsizes.at(k), true_g, draw)
        cost += units
        f = oracle.value(x)
        true_g = oracle.grad(x)
        store[k] = (k, f, float(np.linalg.norm(true_g)), cost,
                    time.perf_counter_ns() - t0) + fields
        if on_iterate is not None:
            on_iterate(k, x)
        if _diverged(f, f0):
            rows, aborted = k + 1, _abort_reason(k, f)
            break

    return Trajectory(algorithm, seed, store[:rows].view(np.recarray), x, config=config,
                      aborted=aborted)


def run_trish(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    sampler: Sampler | None = None,
    algorithm: str = "trish",
    on_iterate=None,
) -> Trajectory:
    """Run TRish for the configured number of iterations.

    The trace has ``iterations + 1`` rows (row 0 is the initial point)
    unless the divergence guard aborts the run early.  Deterministic
    given ``config.seed``.
    """
    warned = False
    memo = EighMemo() if config.solver.kind == "exact" else None

    def step(x, k, alpha, true_g, draw):
        nonlocal warned
        gamma1, gamma2 = gammas_at(config.gammas, config.stepsizes, k)
        g, hess = draw(x, k, alpha, true_g)
        if not validate_stepsize(alpha, gamma1, gamma2, oracle.grad_lipschitz, hess.norm_bound):
            warned = _precondition_violated(k, alpha, config.enforce_stepsize_bound, warned)
        g_norm = float(np.linalg.norm(g))
        x_new, s = trish_step(x, g, hess, alpha, gamma1, gamma2, config.solver,
                              g_norm=g_norm, memo=memo)
        return x_new, 1 + s.hessian_products, (
            g_norm, s.delta, s.case, s.model_decrease, s.cauchy_decrease,
            s.cg_iterations, np.nan if s.upsilon is None else s.upsilon,
            alpha, gamma1, gamma2, float(np.linalg.norm(s.s)), hess.norm_bound,
            float((true_g - g) @ s.s))

    return _run(oracle, x0, algorithm, config.seed, config.stepsizes, config.iterations,
                config.noise, sampler, on_iterate, step, config=config)


def run_trish_first_order(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    sampler: Sampler | None = None,
    on_iterate=None,
) -> Trajectory:
    """TRish with the Hessian estimate pinned to zero (cost: 1 unit/iteration)."""
    config = replace(config, noise=replace(
        config.noise, hessian_kind="zero", m_h=0.0, perturbation=0.0))
    return run_trish(oracle, x0, config, sampler=sampler, algorithm="trish1",
                     on_iterate=on_iterate)


def _sg_step(x, k, alpha, true_g, draw):
    """SG's step rule: x - alpha g at one cost unit, no trust-region fields."""
    g, _ = draw(x, k, alpha, true_g)
    g_norm = float(np.linalg.norm(g))
    nan = np.nan
    return x - alpha * g, 1, (g_norm, nan, nan, nan, nan, nan, nan,
                              alpha, nan, nan, alpha * g_norm, nan, nan)


def run_sg(
    oracle: ProblemOracle,
    x0: Array,
    stepsizes: StepsizeSchedule,
    noise: NoiseModel,
    iterations: int,
    seed: int,
    sampler: Sampler | None = None,
    on_iterate=None,
) -> Trajectory:
    """Stochastic-gradient baseline x_{k+1} = x_k - alpha_k g_k.

    The TRish loop with the SG step rule: the same trace schema with
    only ``SG_FIELDS`` among the step fields, one cost unit per
    iteration, and gradient samples from the same named stream a TRish
    run with the same seed would use.
    """
    noise = replace(noise, hessian_kind="zero", m_h=0.0, perturbation=0.0)
    return _run(oracle, x0, "sg", seed, stepsizes, iterations, noise, sampler,
                on_iterate, _sg_step)


# ---------------------------------------------------------------------------
# lockstep lanes

LANE_CHUNK = 64  # iterations of gradient noise drawn per lane at once
SCHEDULE_COLUMNS = ("alpha", "gamma1", "gamma2", "hess_bound")  # the same in every lane
LANE_COLUMNS = tuple(name for name in TRACE_DTYPE.names
                     if name not in ("k", "upsilon", "wall_ns") + SCHEDULE_COLUMNS)


@dataclass
class LaneRun:
    """S lockstep TRish runs of one config ("lanes", one per seed) traced by column.

    ``columns[name]`` is a (K+1, S) array of the ``TRACE_DTYPE`` field
    ``name`` for every lane (``k``, ``upsilon`` and ``wall_ns`` are not kept).
    Lane i recorded ``rows[i]`` rows; the rows after a tripped divergence
    guard are NaN, and ``aborted[i]`` gives the reason.  The
    ``SCHEDULE_COLUMNS`` are read-only views of one (K+1,) table (NaN in
    row 0) broadcast over the lanes, so they hold the schedule on a
    stopped lane's rows too; ``g_norm`` and ``delta`` are NaN there.
    """

    columns: dict[str, np.ndarray]
    rows: np.ndarray
    final_x: Array
    aborted: list[str | None]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def run_trish_lanes(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    seeds: Iterable[int],
    on_iterate=None,
) -> LaneRun:
    """Run ``config`` at every seed in lockstep, one lane per seed, as one (S, n) state.

    Lane i reproduces ``run_trish(oracle, x0, replace(config, seed=seeds[i]))``
    bit for bit: f, the iterates, every recorded step diagnostic, the row
    count and the abort reason; ``config.seed`` is not read.  Each lane
    draws its gradient noise from its own seed's stream, ``LANE_CHUNK``
    iterations at a time.

    Supported: oracles with ``row_stacked`` set, the Steihaug solver, and
    the built-in synthetic noise with a zero or exact-capped Hessian.
    ``x0`` is one point or one row per lane.  Invalid schedule values and
    Hessian caps raise before the first step; a stepsize precondition
    violation is warned about (once per running lane) or raised at its
    iteration, as in ``run_trish``, and so are non-finite gradients and
    curvature.

    ``on_iterate(k, X)`` is the runners' iterate hook (see the module
    docstring).
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("run_trish_lanes needs at least one seed")
    if not getattr(oracle, "row_stacked", False):
        raise ConfigurationError(f"{type(oracle).__name__} does not take row-stacked points")
    K, solver, noise = config.iterations, config.solver, config.noise
    if solver.kind != "steihaug" or noise.hessian_kind not in ("zero", "exact-capped"):
        raise ConfigurationError("lanes run the Steihaug solver with a zero or exact-capped Hessian")
    S, n = len(seeds), oracle.dim
    # C order: BLAS reaches bit-identity with the 1-D calls on unit-stride rows only
    X = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (S, n)), order="C")
    if not np.all(np.isfinite(X)):
        raise ConfigurationError("initial point must be finite")

    # The schedules at k = 1..K, from the scalar functions so every value
    # matches run_trish; configuration errors surface here.
    ks = range(1, K + 1)
    alphas = [config.stepsizes.at(k) for k in ks]
    pairs = [gammas_at(config.gammas, config.stepsizes, k) for k in ks]
    tau = bound = 0.0  # Hessian cap factor and the estimate's bound
    if noise.hessian_kind == "exact-capped" and K > 0:
        tau = hessian_cap(oracle, noise)
        bound = tau * oracle.grad_lipschitz
    for a, (g1, g2) in zip(alphas, pairs):
        radius(1.0, a, g1, g2)  # validates alpha > 0 and 0 < gamma2 <= gamma1
    violation = next((k for k, a, (g1, g2) in zip(ks, alphas, pairs)
                      if not validate_stepsize(a, g1, g2, oracle.grad_lipschitz, bound)), None)
    # (K+1,) tables indexed by k, NaN in row 0 as in the trace
    ALPHA, GAMMA1, GAMMA2, BOUND = (
        np.array([np.nan, *values], dtype=float)
        for values in (alphas, [p[0] for p in pairs], [p[1] for p in pairs], [bound] * K))
    VARIANCE = np.array([noise.gradient_variance(k, a) for k, a in zip(ks, alphas)],
                        dtype=float)

    cols = {name: np.full((K + 1, S), np.nan) for name in LANE_COLUMNS}
    F0 = oracle.value(X)
    TG = oracle.grad(X)
    cols["f"][0] = F0
    cols["grad_norm_true"][0] = row_norms(TG)
    cols["cost_units"][0] = 0.0
    rngs = [rng_stream(seed, GRADIENT_STREAM) for seed in seeds]
    rows = np.full(S, K + 1)
    aborted: list[str | None] = [None] * S
    final_x = X.copy()
    if on_iterate is not None:
        on_iterate(0, final_x)

    # State of the lanes still running; a stopped lane's rows are dropped.
    ids = np.arange(S)
    at = slice(None)  # their columns: a slice until the first lane stops
    cost = np.zeros(S, dtype=np.int64)
    hvp = None
    if noise.hessian_kind == "exact-capped":
        def hvp(r, V):
            return tau * oracle.hvp(X[r], V)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, K + 1):
            j = (k - 1) % LANE_CHUNK
            if j == 0:
                V = VARIANCE[k - 1:k - 1 + LANE_CHUNK]
                noise_block = np.stack([draw_noise_block(rngs[lane], V, n) for lane in ids])

            if not np.all(np.isfinite(TG)):
                bad = int(np.argmin(np.isfinite(TG).all(axis=1)))
                raise EvaluationError(f"non-finite gradient at x = {X[bad]!r}")
            G = TG + noise_block[:, j] if V[j] > 0.0 else TG
            if k == violation:
                for _ in ids:  # every lane still running responds, as its scalar run would
                    _precondition_violated(k, config.stepsizes.at(k),
                                           config.enforce_stepsize_bound)

            gn = row_norms(G)
            delta, case = radius_rows(gn, ALPHA[k], GAMMA1[k], GAMMA2[k])
            steps, model_dec, cauchy_dec, iters = steihaug_cg_rows(
                G, gn, delta, hvp, solver.max_iters, solver.tol)
            X_new = X + steps
            still = gn == 0.0
            if still.any():
                X_new[still] = X[still]  # the zero step leaves x as it is
            cost += 1 + iters if hvp is not None else 1
            F = oracle.value(X_new)
            TG_new = oracle.grad(X_new)

            row = {
                "f": F, "grad_norm_true": row_norms(TG_new), "g_norm": gn,
                "delta": delta, "case": case, "model_dec": model_dec,
                "cauchy_dec": cauchy_dec, "cg_iters": iters, "cost_units": cost,
                "step_norm": row_norms(steps), "noise_step_dot": rowdot(TG - G, steps),
            }
            for name, value in row.items():
                cols[name][k, at] = value
            X, TG = X_new, TG_new
            if on_iterate is not None:
                final_x[at] = X
                on_iterate(k, final_x)

            stop = ~np.isfinite(F) | (F > F0 + DIVERGENCE_MARGIN)
            if stop.any():
                final_x[at] = X
                for i in np.flatnonzero(stop):
                    aborted[ids[i]] = _abort_reason(k, float(F[i]))
                    rows[ids[i]] = k + 1
                keep = ~stop
                ids, X, TG, F0, cost, noise_block = (
                    v[keep] for v in (ids, X, TG, F0, cost, noise_block))
                at = ids
                if ids.size == 0:
                    break
    final_x[at] = X

    for name, table in zip(SCHEDULE_COLUMNS, (ALPHA, GAMMA1, GAMMA2, BOUND)):
        cols[name] = np.broadcast_to(table[:, None], (K + 1, S))
    return LaneRun(cols, rows, final_x, aborted)
