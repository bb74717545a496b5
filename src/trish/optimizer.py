"""The TRish loop (second- and first-order, and the SG baseline as its
degenerate step rule) and a lockstep runner for many such runs at once.

Runs are deterministic given a seed: gradient noise and Hessian
perturbations consume separate named streams, so an SG run and a
first-order TRish run sharing a seed see identical gradient samples.
Cost accounting equates one stochastic gradient with one
Hessian-vector product; diagnostic evaluations (true f and gradient
each iteration, model re-evaluation in the solver) are excluded.
The scalar runners are the reference; ``run_lanes`` reproduces each of
them bit for bit.

A run draws every estimate from one source, ``TrishConfig.noise`` (a
``NoiseModel`` on the oracle or a ``MiniBatchSampler``), which its
``Trajectory.config`` carries.  First-order TRish and SG turn its Hessian
estimate off (``_zero_hessian``); a zero estimate has ``norm_bound`` 0.

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
    draw_noise_block,
    hessian_cap,
    oracle_sampler,
    perturbed_cap,
    rng_stream,
    row_norms,
    rowdot,
    sample_hessian,
)
from .problems import MiniBatchSampler
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
    noise: NoiseModel | MiniBatchSampler = field(default_factory=NoiseModel)
    # advisory by default; verification suites turn this on to fail fast
    enforce_stepsize_bound: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 0")
        if not isinstance(self.noise, (NoiseModel, MiniBatchSampler)):
            raise ConfigurationError(f"noise must be a NoiseModel or a MiniBatchSampler, "
                                     f"got {type(self.noise).__name__}")


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
# the step fields an SG step records; its hess_bound is 0, the zero estimate
SG_FIELDS = ("g_norm", "alpha", "step_norm", "hess_bound")


@dataclass
class Trajectory:
    """One run's trace and the config it ran.

    ``records`` is a record array of ``TRACE_DTYPE`` rows, read by row
    (``records[k].f``) or by column (``records.f``, ``column("f")``).
    ``config`` holds the seed, schedules, solver and estimate source
    (``noise``) the run used (for SG, the ``TrishConfig`` it equals; see
    ``run_sg``); the ``hess_bound`` column records the bound of each
    estimate it stepped with.
    """

    algorithm: str
    config: TrishConfig
    records: np.recarray
    final_x: Array
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
            rows &= (self.config.solver.kind == "exact") & (self.records.g_norm != 0.0)
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
            # dense materialization: n products, none for a zero estimate
            hessian_products=0 if hess.is_zero else x.shape[0],
        )
    return x + step.s, step


def _trish_fields(g: Array, g_norm: float, true_g: Array, s: TRStep, alpha: float,
                  gamma1: float, gamma2: float, hess_bound: float) -> tuple:
    """The ``STEP_FIELDS`` a TRish step records: the sampled gradient and
    its norm, the step ``trish_step`` returned, the schedules and the
    estimate's bound."""
    return (g_norm, s.delta, s.case, s.model_decrease, s.cauchy_decrease,
            s.cg_iterations, np.nan if s.upsilon is None else s.upsilon,
            alpha, gamma1, gamma2, float(np.linalg.norm(s.s)), hess_bound,
            float((true_g - g) @ s.s))


def _initial_record(oracle: ProblemOracle, x: Array) -> tuple:
    """f and the true gradient at x_0 (one point or a lane stack), for
    the trace's row 0, which is not a step."""
    return oracle.value(x), oracle.grad(x)


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


def _draw_fn(oracle: ProblemOracle, source: NoiseModel | MiniBatchSampler,
             grad_rng: np.random.Generator, hess_rng: np.random.Generator):
    """The scalar loop's draw ``(x, k, alpha, true_g) -> (g, H)`` from the run's streams.

    A noise model's draw is handed the true gradient the loop holds for
    its diagnostics, so f's gradient is evaluated once per iteration.
    """
    if isinstance(source, MiniBatchSampler):
        return lambda x, k, alpha, true_g: source(x, k, alpha, grad_rng, hess_rng)
    sample = oracle_sampler(oracle, source)
    return lambda x, k, alpha, true_g: sample(x, k, alpha, grad_rng, hess_rng, grad=true_g)


def _run(oracle, x0, algorithm, config, on_iterate, step) -> Trajectory:
    """The loop every scalar run shares; ``step`` is the algorithm.

    ``config`` gives the seed, the stepsizes, the iteration count and
    the estimate source, and goes into the trajectory.
    ``step(x, k, alpha, true_g, draw)`` samples at x through
    ``draw(x, k, alpha, true_g)`` and returns ``(x_new, cost, fields)``:
    the next iterate, the cost units the step consumed and the values of
    ``STEP_FIELDS``.  The loop records f and the true gradient at every
    iterate, shows it to ``on_iterate`` and stops when the divergence
    guard trips.
    """
    iterations, seed = config.iterations, config.seed
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("initial point must be finite")
    draw = _draw_fn(oracle, config.noise,
                    rng_stream(seed, GRADIENT_STREAM), rng_stream(seed, HESSIAN_STREAM))
    store = np.full(iterations + 1, np.nan, dtype=TRACE_DTYPE)

    t0 = time.perf_counter_ns()
    f0, true_g = _initial_record(oracle, x)
    store[0] = (0, f0, float(np.linalg.norm(true_g)), 0,
                time.perf_counter_ns() - t0) + (np.nan,) * len(STEP_FIELDS)
    if on_iterate is not None:
        on_iterate(0, x)
    rows, cost, aborted = iterations + 1, 0, None

    for k in range(1, iterations + 1):
        x, units, fields = step(x, k, config.stepsizes.at(k), true_g, draw)
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

    return Trajectory(algorithm, config, store[:rows].view(np.recarray), x, aborted)


def run_trish(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    on_iterate=None,
) -> Trajectory:
    """Run TRish for the configured number of iterations.

    The trace has ``iterations + 1`` rows (row 0 is the initial point)
    unless the divergence guard aborts the run early.  Deterministic
    given ``config.seed``; estimates come from ``config.noise``.
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
        return x_new, 1 + s.hessian_products, _trish_fields(
            g, g_norm, true_g, s, alpha, gamma1, gamma2, hess.norm_bound)

    return _run(oracle, x0, "trish", config, on_iterate, step)


def _zero_hessian(source):
    """``source`` with its Hessian estimate turned off: a noise model's is
    the zero operator, and a sampler draws the same batches without one."""
    if isinstance(source, MiniBatchSampler):
        return replace(source, hessian=False)
    return replace(source, hessian_kind="zero", m_h=0.0, perturbation=0.0)


def run_trish_first_order(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    on_iterate=None,
) -> Trajectory:
    """TRish with the Hessian estimate pinned to zero (cost: 1 unit/iteration):
    the run's config is ``config`` with ``_zero_hessian`` applied to its source."""
    config = replace(config, noise=_zero_hessian(config.noise))
    return replace(run_trish(oracle, x0, config, on_iterate), algorithm="trish1")


def _sg_step(x, k, alpha, true_g, draw):
    """SG's step rule: x - alpha g at one cost unit, no trust-region
    fields; it reads no Hessian estimate, so its ``hess_bound`` is 0."""
    g, _ = draw(x, k, alpha, true_g)
    g_norm = float(np.linalg.norm(g))
    nan = np.nan
    return x - alpha * g, 1, (g_norm, nan, nan, nan, nan, nan, nan,
                              alpha, nan, nan, alpha * g_norm, 0.0, nan)


def run_sg(
    oracle: ProblemOracle,
    x0: Array,
    stepsizes: StepsizeSchedule,
    noise: NoiseModel | MiniBatchSampler,
    iterations: int,
    seed: int,
    on_iterate=None,
) -> Trajectory:
    """Stochastic-gradient baseline x_{k+1} = x_k - alpha_k g_k.

    The TRish loop with the SG step rule: the same trace schema with
    only ``SG_FIELDS`` among the step fields, one cost unit per
    iteration, and gradient samples from the same named stream a TRish
    run with the same seed would use.  The trajectory's config is the
    ``TrishConfig`` SG equals: these stepsizes, gammas (1, 1), and the
    estimate source ``noise`` with its Hessian estimate turned off.
    """
    config = TrishConfig(stepsizes, GammaSchedule.constant(1.0, 1.0), iterations, seed,
                         noise=_zero_hessian(noise))
    return _run(oracle, x0, "sg", config, on_iterate, _sg_step)


# ---------------------------------------------------------------------------
# lockstep lanes

LANE_CHUNK = 64  # iterations of gradient noise or mini-batch rows drawn per lane at once
SCHEDULE_COLUMNS = ("alpha", "gamma1", "gamma2", "hess_bound")  # one table per schedule
LANE_COLUMNS = tuple(name for name in TRACE_DTYPE.names
                     if name not in ("k", "wall_ns") + SCHEDULE_COLUMNS)


@dataclass
class LaneRun:
    """S lockstep runs ("lanes", one per config) traced by column.

    ``columns[name]`` is a (K+1, S) array of the ``TRACE_DTYPE`` field
    ``name`` for every lane (``k`` and ``wall_ns`` are not kept).
    Lane i recorded ``rows[i]`` rows; the rows after a tripped divergence
    guard are NaN, and ``aborted[i]`` gives the reason.  The
    ``SCHEDULE_COLUMNS`` are read-only and NaN in row 0; when every lane
    runs the same schedules they are views of one (K+1,) table broadcast
    over the lanes.  They hold the schedule on a stopped lane's rows too;
    ``g_norm`` and ``delta`` are NaN there.
    """

    columns: dict[str, np.ndarray]
    rows: np.ndarray
    final_x: Array
    aborted: list[str | None]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def run_lanes(
    oracle: ProblemOracle,
    x0: Array,
    configs: Iterable[TrishConfig],
    algorithm: str = "trish",
    on_iterate=None,
) -> LaneRun:
    """Run every config in lockstep, one lane per config, as one (S, n) state.

    Lane i reproduces the scalar run of ``algorithm`` at ``configs[i]``
    bit for bit (``run_trish``, ``run_trish_first_order`` or ``run_sg``
    with the config's stepsizes, noise, iterations and seed): f, the
    iterates, every recorded step diagnostic, the row count, the abort
    reason, and each stepsize-precondition warning or error, at the
    lane's own first violating iteration.  Invalid schedules and Hessian
    caps raise before the first step.  The configs may differ in seed,
    stepsizes and gammas and share the rest.

    SG steps, and Steihaug steps with a zero or exact-capped estimate,
    are computed for all running lanes at once.  Under the exact solver
    or a perturbed noise Hessian each lane builds its estimate as its
    scalar run does and steps through ``trish_step`` with its own
    ``EighMemo``.  ``x0`` is one point or one row per lane;
    ``on_iterate(k, X)`` is the runners' hook (see the module docstring).
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError("lanes need at least one config")
    if algorithm not in ("trish", "trish1", "sg"):
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    first = configs[0]
    shared = K, solver, source, enforce = (first.iterations, first.solver, first.noise,
                                           first.enforce_stepsize_bound)
    if any((c.iterations, c.solver, c.noise, c.enforce_stepsize_bound) != shared for c in configs):
        raise ConfigurationError("lanes share the iteration count, solver, estimate source "
                                 "(noise) and stepsize enforcement")
    if algorithm != "trish":
        source = _zero_hessian(source)
    sampled = isinstance(source, MiniBatchSampler)
    S, n = len(configs), oracle.dim
    # C order: BLAS reaches bit-identity with the 1-D calls on unit-stride rows only
    X = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (S, n)), order="C")
    if not np.all(np.isfinite(X)):
        raise ConfigurationError("initial point must be finite")

    # The estimate's certified bound and, for synthetic noise, the Hessian cap.
    tau = bound = 0.0
    if K > 0:
        if sampled:
            bound = source.norm_bound
        elif source.hessian_kind != "zero":
            tau = hessian_cap(oracle, source)
            bound = (perturbed_cap(oracle, source)[1] if source.hessian_kind == "perturbed"
                     else tau * oracle.grad_lipschitz)
    per_row = algorithm != "sg" and (
        solver.kind == "exact" or (not sampled and source.hessian_kind == "perturbed"))

    # (K+1, S) schedule tables indexed by k (NaN in row 0, as in the
    # trace), one column per distinct schedule pair spread over its lanes,
    # from the scalar functions; configuration errors surface here.
    ks = range(1, K + 1)
    schedules = list(dict.fromkeys((c.stepsizes, c.gammas) for c in configs))
    lane_col = [schedules.index((c.stepsizes, c.gammas)) for c in configs]

    def spread(rows):  # one (K+1,) row per pair; a broadcast view if one pair
        if len(schedules) == 1:
            return np.broadcast_to(np.array(rows[0], dtype=float)[:, None], (K + 1, S))
        return np.array(rows, dtype=float)[lane_col].T

    tables, first_violation = [], []
    for stepsizes, gammas in schedules:
        alphas = [stepsizes.at(k) for k in ks]
        if algorithm == "sg":  # SG records no gammas and has no precondition
            pairs, violation = [(np.nan, np.nan)] * K, None
        else:
            pairs = [gammas_at(gammas, stepsizes, k) for k in ks]
            for a, (g1, g2) in zip(alphas, pairs):
                radius(1.0, a, g1, g2)  # validates alpha > 0 and 0 < gamma2 <= gamma1
            violation = next((k for k, a, (g1, g2) in zip(ks, alphas, pairs) if not
                              validate_stepsize(a, g1, g2, oracle.grad_lipschitz, bound)), None)
        first_violation.append(violation)
        tables.append(([np.nan, *alphas], [np.nan, *(p[0] for p in pairs)],
                       [np.nan, *(p[1] for p in pairs)], [np.nan] + [bound] * K))
    warn_at: dict[int, list[int]] = {}  # k -> the lanes whose first violation it is
    for lane, col in enumerate(lane_col):
        if first_violation[col] is not None:
            warn_at.setdefault(first_violation[col], []).append(lane)
    ALPHA, GAMMA1, GAMMA2, BOUND = (spread(rows) for rows in zip(*tables))
    for table in (ALPHA, GAMMA1, GAMMA2, BOUND):
        table.flags.writeable = False
    # a noise model's gradient variance at each k, from each pair's stepsizes
    VARIANCE = None if sampled else spread(
        [[np.nan, *map(source.gradient_variance, ks, table[0][1:])] for table in tables])

    cols = {name: np.full((K + 1, S), np.nan) for name in LANE_COLUMNS}
    F0, TG = _initial_record(oracle, X)
    cols["f"][0] = F0
    cols["grad_norm_true"][0] = row_norms(TG)
    cols["cost_units"][0] = 0.0
    draw = _lane_draw(oracle, source, configs, K, tau, VARIANCE, per_row)
    step = (_row_lane_step if per_row else _sg_lane_step if algorithm == "sg"
            else _trish_lane_step)
    rows = np.full(S, K + 1)
    aborted: list[str | None] = [None] * S
    final_x = X.copy()
    if on_iterate is not None:
        on_iterate(0, final_x)

    # State of the lanes still running; a stopped lane's rows are dropped.
    ids = np.arange(S)
    at = slice(None)  # their columns: a slice until the first lane stops
    cost = np.zeros(S, dtype=np.int64)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, K + 1):
            G, hess = draw(k, ids, at, X, TG)
            for lane in warn_at.get(k, ()):
                if aborted[lane] is None:  # every lane still running responds
                    _precondition_violated(k, float(ALPHA[k, lane]), enforce)

            gn = row_norms(G)
            X_new, units, fields = step(X, G, gn, TG, hess, ALPHA[k, at], GAMMA1[k, at],
                                        GAMMA2[k, at], solver)
            cost += units
            F = oracle.value(X_new)
            TG_new = oracle.grad(X_new)

            row = {"f": F, "grad_norm_true": row_norms(TG_new), "g_norm": gn,
                   "cost_units": cost, **fields}
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
                ids, X, TG, F0, cost = (v[keep] for v in (ids, X, TG, F0, cost))
                at = ids
                if ids.size == 0:
                    break
    final_x[at] = X

    for name, table in zip(SCHEDULE_COLUMNS, (ALPHA, GAMMA1, GAMMA2, BOUND)):
        cols[name] = table
    return LaneRun(cols, rows, final_x, aborted)


def _lane_draw(oracle, source, configs, K, tau, VARIANCE, per_row):
    """The lanes' draw ``(k, ids, at, X, TG) -> (G, hess)`` for the running
    lanes ``ids`` (columns ``at``) at iterates X with true gradients TG.

    Every ``LANE_CHUNK`` iterations each running lane draws its next
    block of gradient noise or mini-batch rows from its gradient stream.
    ``hess`` is ``hvp(r, V)``, the estimates of rows r applied to the rows
    of V (None for the zero estimate), or with ``per_row`` each lane's
    (estimate, ``EighMemo``), built as its scalar run builds it.
    """
    S, n = len(configs), oracle.dim
    rngs = [rng_stream(c.seed, GRADIENT_STREAM) for c in configs]
    if isinstance(source, MiniBatchSampler):
        rows = np.zeros((S, LANE_CHUNK, source.batch_size), dtype=np.int64)
        stacked = replace(source, hessian=False) if per_row else source

        def gradients(k, ids, at, X, TG):
            j = (k - 1) % LANE_CHUNK
            if j == 0:
                count = min(LANE_CHUNK, K - k + 1)
                for lane in ids:
                    rows[lane, :count] = source.indices(rngs[lane], count)
            return stacked.draw_rows(X, rows[at, j], k)

        def estimate(lane, x, k):
            return source.hessian_at(x, rows[lane, (k - 1) % LANE_CHUNK])
    else:
        block = np.zeros((S, LANE_CHUNK, n))
        drawn = VARIANCE > 0.0  # as sample_gradient: no noise, and no draw, at variance 0
        every = drawn.all(axis=1).tolist()
        hessian = source.hessian_kind != "zero"
        hess_rngs = [rng_stream(c.seed, HESSIAN_STREAM) for c in configs] if per_row else None

        def gradients(k, ids, at, X, TG):
            j = (k - 1) % LANE_CHUNK
            if j == 0:
                for lane in ids:
                    variances = VARIANCE[k:k + LANE_CHUNK, lane]
                    block[lane, :variances.size] = draw_noise_block(rngs[lane], variances, n)
            if not np.all(np.isfinite(TG)):
                bad = int(np.argmin(np.isfinite(TG).all(axis=1)))
                raise EvaluationError(f"non-finite gradient at x = {X[bad]!r}")
            G = TG + block[at, j] if every[k] else np.where(drawn[k, at][:, None],
                                                             TG + block[at, j], TG)
            if not hessian:
                return G, None
            return G, lambda r, V: tau * oracle.hvp(X[r], V)

        def estimate(lane, x, k):
            return sample_hessian(oracle, x, source, hess_rngs[lane])

    if not per_row:
        return gradients
    memos = [EighMemo() for _ in configs]

    def draw(k, ids, at, X, TG):
        G, _ = gradients(k, ids, at, X, TG)
        return G, [(estimate(lane, X[i], k), memos[lane]) for i, lane in enumerate(ids.tolist())]

    return draw


def _trish_lane_step(X, G, gn, TG, hvp, alpha, gamma1, gamma2, solver):
    """TRish's lane step rule, ``trish_step`` on every row: the next
    iterates, the cost units and the step fields it records."""
    delta, case = radius_rows(gn, alpha, gamma1, gamma2)
    steps, model_dec, cauchy_dec, iters = steihaug_cg_rows(
        G, gn, delta, hvp, solver.max_iters, solver.tol)
    X_new = X + steps
    still = gn == 0.0
    if still.any():
        X_new[still] = X[still]  # the zero step leaves x as it is
    return X_new, 1 + iters if hvp is not None else 1, {
        "delta": delta, "case": case, "model_dec": model_dec, "cauchy_dec": cauchy_dec,
        "cg_iters": iters, "step_norm": row_norms(steps), "noise_step_dot": rowdot(TG - G, steps)}


def _row_lane_step(X, G, gn, TG, hess, alpha, gamma1, gamma2, solver):
    """TRish's step rule as ``run_trish`` takes it, one ``trish_step``
    per running lane, with each lane's ``(estimate, EighMemo)`` in
    ``hess``."""
    X_new = np.empty_like(X)
    units = np.empty(len(X), dtype=np.int64)
    values = np.empty((len(X), len(STEP_FIELDS)))
    for i, (a, g1, g2, g_norm, (est, memo)) in enumerate(
            zip(alpha.tolist(), gamma1.tolist(), gamma2.tolist(), gn.tolist(), hess)):
        X_new[i], s = trish_step(X[i], G[i], est, a, g1, g2, solver, g_norm=g_norm, memo=memo)
        units[i] = 1 + s.hessian_products
        values[i] = _trish_fields(G[i], g_norm, TG[i], s, a, g1, g2, est.norm_bound)
    return X_new, units, {name: values[:, j] for j, name in enumerate(STEP_FIELDS)
                          if name not in SCHEDULE_COLUMNS}


def _sg_lane_step(X, G, gn, TG, hvp, alpha, gamma1, gamma2, solver):
    """SG's lane step rule, x - alpha g on every row, as ``_sg_step``."""
    return X - alpha[:, None] * G, 1, {"step_norm": alpha * gn}
