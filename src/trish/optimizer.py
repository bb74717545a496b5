"""The TRish loop (second- and first-order, and the SG baseline as its
degenerate step rule), run in lockstep for many runs at once.

There is one loop, ``run_lanes``: S runs ("lanes") as one (S, n) state.
``run_trish``, ``run_trish_first_order`` and ``run_sg`` are one-lane
runs of it, and ``LaneRun.trajectory`` gives any lane as the
``Trajectory`` its one-lane run returns.  A TRish step takes the radius
from each lane's ||g|| and solves every lane's subproblem in one
row-stacked call of ``steihaug_cg_rows`` or ``exact_trs_rows``; a lane
with g = 0 stays where it is.  ``tests/reference.py`` writes the same
iteration out one point at a time, and each lane equals it bit for bit.

Runs are deterministic given a seed: gradient noise and Hessian
perturbations consume separate named streams, so an SG run and a
first-order TRish run sharing a seed see identical gradient samples.
Cost accounting equates one stochastic gradient with one
Hessian-vector product; diagnostic evaluations (true f and gradient
each iteration, model re-evaluation in the solver) are excluded.

A run draws every estimate from one source, ``TrishConfig.noise`` (a
``NoiseModel`` on the oracle or a ``MiniBatchSampler``), which its
``Trajectory.config`` carries.  First-order TRish and SG turn its Hessian
estimate off (``_zero_hessian``); the zero estimate has bound 0 and costs
no products.

Every runner takes ``on_iterate(k, x)``, called with the iterate at
k = 0 and after every recorded iteration, including the last row of a
run the divergence guard stops (for ``run_lanes``, ``x`` is the (S, n)
stack and a stopped lane keeps its last iterate).  The hook gets the
runner's own array, which a later iteration may overwrite: copy what
you keep.
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
    NoiseModel,
    ProblemOracle,
    draw_noise_block,
    hessian_estimate,
    rng_stream,
    row_norms,
    rowdot,
    stacked_dense,
)
from .problems import MiniBatchSampler
from .schedules import GammaSchedule, StepsizeSchedule, gammas_at, validate_stepsize
from .subproblem import checked_eigh, exact_trs_rows, radius, radius_rows, steihaug_cg_rows

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
# the fields read from the true gradient; a sampler run may skip it (``run_lanes``)
TRUE_GRAD_FIELDS = ("grad_norm_true", "noise_step_dot")
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
    estimate it stepped with.  ``true_grad`` is False when the run
    skipped the true gradient, so its ``TRUE_GRAD_FIELDS`` are NaN and
    not recorded.
    """

    algorithm: str
    config: TrishConfig
    records: np.recarray
    final_x: Array
    aborted: str | None = None
    true_grad: bool = True

    def column(self, name: str) -> np.ndarray:
        return self.records[name]

    def recorded(self, name: str) -> np.ndarray:
        """Rows on which field ``name`` was recorded.

        Decided by the recording rules, not by NaN, since a recorded
        value may itself be NaN on a diverging run: step fields are not
        recorded on row 0, SG steps record only ``SG_FIELDS``,
        ``upsilon`` comes only from exact solves (nonzero g), and a run
        without the true gradient records no ``TRUE_GRAD_FIELDS``.
        """
        n = len(self.records)
        if not self.true_grad and name in TRUE_GRAD_FIELDS:
            return np.zeros(n, dtype=bool)
        if name not in STEP_FIELDS:
            return np.ones(n, dtype=bool)
        if self.algorithm == "sg" and name not in SG_FIELDS:
            return np.zeros(n, dtype=bool)
        rows = np.arange(n) > 0
        if name == "upsilon":
            rows &= (self.config.solver.kind == "exact") & (self.records.g_norm != 0.0)
        return rows


def _initial_record(oracle: ProblemOracle, x: Array, true_grad: bool) -> tuple:
    """f and the true gradient (None without ``true_grad``) at the lanes'
    x_0 stack, for the trace's row 0, which is not a step."""
    return oracle.value(x), oracle.grad(x) if true_grad else None


def _precondition_violated(k: int, alpha: float, enforce: bool) -> None:
    """Respond to ``alpha_k`` failing the stepsize precondition at a run's
    first violating iteration: raise if the bound is enforced, else warn."""
    if enforce:
        raise ConfigurationError(f"stepsize precondition violated at k={k}: alpha={alpha}")
    logger.warning(
        "stepsize alpha_%d=%.3g exceeds the guaranteed-decrease bound; "
        "convergence theory does not apply to this run", k, alpha)


def _first_lane(on_iterate):
    """The lanes' hook that shows ``on_iterate`` the iterate of lane 0."""
    if on_iterate is None:
        return None
    return lambda k, X: on_iterate(k, X[0])


def run_trish(
    oracle: ProblemOracle,
    x0: Array,
    config: TrishConfig,
    on_iterate=None,
) -> Trajectory:
    """Run TRish for the configured number of iterations.

    The trace has ``iterations + 1`` rows (row 0 is the initial point)
    unless the divergence guard aborts the run early.  Deterministic
    given ``config.seed``; estimates come from ``config.noise``.  A
    one-lane ``run_lanes`` run.
    """
    return run_lanes(oracle, x0, [config], "trish", _first_lane(on_iterate)).trajectory(0)


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
    return run_lanes(oracle, x0, [config], "trish1", _first_lane(on_iterate)).trajectory(0)


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
    config = _sg_config(stepsizes, noise, iterations, seed)
    return run_lanes(oracle, x0, [config], "sg", _first_lane(on_iterate)).trajectory(0)


def _sg_config(stepsizes, noise, iterations, seed) -> TrishConfig:
    """The ``TrishConfig`` an SG run equals: gammas (1, 1) and the estimate
    source ``noise`` with its Hessian estimate turned off."""
    return TrishConfig(stepsizes, GammaSchedule.constant(1.0, 1.0), iterations, seed,
                       noise=_zero_hessian(noise))


# ---------------------------------------------------------------------------
# lockstep lanes

LANE_CHUNK = 64  # iterations of gradient noise or mini-batch rows drawn per lane at once
SCHEDULE_COLUMNS = ("alpha", "gamma1", "gamma2", "hess_bound")  # one table per schedule
LANE_COLUMNS = tuple(name for name in TRACE_DTYPE.names
                     if name not in ("k", "wall_ns") + SCHEDULE_COLUMNS)


@dataclass
class LaneRun:
    """S lockstep runs ("lanes", one per config) of ``algorithm``, traced by column.

    ``columns[name]`` is a (K+1, S) array of the ``TRACE_DTYPE`` field
    ``name`` for every lane (``k`` is not kept).  Lane i ran
    ``configs[i]`` and recorded ``rows[i]`` rows; the rows after a
    tripped divergence guard are NaN, and ``aborted[i]`` gives the
    reason.  The ``SCHEDULE_COLUMNS`` are read-only and NaN in row 0;
    when every lane runs the same schedules they are views of one (K+1,)
    table broadcast over the lanes.  They hold the schedule on a stopped
    lane's rows too; ``g_norm`` and ``delta`` are NaN there.
    ``wall_ns`` is the lockstep time, the nanoseconds from the start of
    the run to the end of each row: one read-only (K+1,) table broadcast
    over the lanes, NaN after the last row any lane ran.  ``true_grad``
    is False when the run skipped the true gradient (see ``run_lanes``).
    """

    algorithm: str
    configs: list[TrishConfig]
    columns: dict[str, np.ndarray]
    rows: np.ndarray
    final_x: Array
    aborted: list[str | None]
    true_grad: bool

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def trajectory(self, i: int) -> Trajectory:
        """Lane i as a ``Trajectory``: the one its one-lane run returns,
        config included, but for ``wall_ns``, which is the lockstep time."""
        config = self.configs[i]
        if self.algorithm == "sg":
            config = _sg_config(config.stepsizes, config.noise, config.iterations, config.seed)
        elif self.algorithm == "trish1":
            config = replace(config, noise=_zero_hessian(config.noise))
        rows = int(self.rows[i])
        records = np.empty(rows, dtype=TRACE_DTYPE)
        records["k"] = np.arange(rows)
        for name in TRACE_DTYPE.names[1:]:
            records[name] = self.columns[name][:rows, i]
        return Trajectory(self.algorithm, config, records.view(np.recarray),
                          self.final_x[i].copy(), self.aborted[i], self.true_grad)


def run_lanes(
    oracle: ProblemOracle,
    x0: Array,
    configs: Iterable[TrishConfig],
    algorithm: str = "trish",
    on_iterate=None,
    *,
    true_grad: bool = True,
) -> LaneRun:
    """Run every config in lockstep, one lane per config, as one (S, n) state.

    ``algorithm`` is ``trish``, ``trish1`` (the Hessian estimate turned
    off) or ``sg``.  Lane i does not depend on the others: bit for bit it
    is the one-lane run of ``configs[i]`` (``run_trish``,
    ``run_trish_first_order`` or ``run_sg`` with the config's stepsizes,
    noise, iterations and seed), in f, the iterates, every recorded
    step diagnostic, the row count, the abort reason, and the
    stepsize-precondition warning or error at the lane's own first
    violating iteration.  Invalid schedules and Hessian caps raise
    before the first step.  The configs may differ in seed, stepsizes
    and gammas and share the rest.

    Each step is computed for all running lanes at once: SG's, and
    TRish's through ``steihaug_cg_rows`` or ``exact_trs_rows`` with
    each lane's own estimate (a perturbed one draws each lane's
    perturbation from that lane's Hessian stream every iteration).  An
    exact step builds each running lane's dense H at the lane's own
    point and decomposes them with one stacked ``eigh``; an estimate
    that cannot change (the zero estimate, or ``exact-capped`` on an
    oracle with ``hess_lipschitz == 0.0``) is built and decomposed once
    per run and shared by every lane and step.  ``cost_units`` charges
    n products per exact step either way.  An error in any lane ends the
    run.  ``x0`` is one point, shape (n,), or one row per lane, shape
    (S, n); ``on_iterate(k, X)`` is the runners' hook (see the module
    docstring).

    The true gradient of f at every iterate fills the ``grad_norm_true``
    and ``noise_step_dot`` columns.  Under a ``MiniBatchSampler`` source
    nothing else reads it, and ``true_grad=False`` skips it: the run
    makes no ``oracle.grad`` call, those two columns hold NaN on every
    row (``LaneRun.true_grad`` is False, so ``Trajectory.recorded`` says
    they are not recorded), and every other column, the iterates, the
    row counts and the abort reasons are bit for bit the default run's.
    Under a ``NoiseModel`` source the estimates are formed from the true
    gradient (g = grad f + noise), and ``true_grad`` changes nothing.
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
    true_grad = true_grad or not sampled
    S, n = len(configs), oracle.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (S, n)):
        raise ConfigurationError(f"x0 must have shape ({n},) or ({S}, {n}), got {x0.shape}")
    # C order: BLAS reaches bit-identity with the 1-D calls on unit-stride rows only
    X = np.array(np.broadcast_to(x0, (S, n)), order="C")
    if not np.all(np.isfinite(X)):
        raise ConfigurationError("initial point must be finite")

    # The estimate's certified bound and a noise model's estimate itself
    # (a sampler forms its own in ``draw_rows``).
    estimate, bound = None, 0.0
    if K > 0:
        if sampled:
            bound = source.norm_bound
        else:
            estimate, bound = hessian_estimate(oracle, source, [c.seed for c in configs])

    # (K+1, S) schedule tables indexed by k (NaN in row 0, as in the
    # trace), one column per distinct schedule pair spread over its lanes,
    # from the per-step schedule functions; configuration errors surface here.
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
    wall = np.full(K + 1, np.nan)
    t0 = time.perf_counter_ns()
    F0, TG = _initial_record(oracle, X, true_grad)
    wall[0] = time.perf_counter_ns() - t0
    cols["f"][0] = F0
    if true_grad:
        cols["grad_norm_true"][0] = row_norms(TG)
    cols["cost_units"][0] = 0.0
    draw = _lane_draw(oracle, source, configs, K, estimate, VARIANCE)
    if algorithm != "sg" and solver.kind == "exact":
        # a zero bound is the zero estimate; a zero L_H certifies a constant Hessian
        constant = bound == 0.0 or (not sampled and source.hessian_kind == "exact-capped"
                                    and oracle.hess_lipschitz == 0.0)
        step = _exact_lane_step(constant, 0 if bound == 0.0 else n)
    else:
        step = _sg_lane_step if algorithm == "sg" else _trish_lane_step
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
            row = {"f": F, "g_norm": gn, "cost_units": cost, **fields}
            if true_grad:
                TG = oracle.grad(X_new)
                row["grad_norm_true"] = row_norms(TG)
            for name, value in row.items():
                cols[name][k, at] = value
            wall[k] = time.perf_counter_ns() - t0
            X = X_new
            if on_iterate is not None:
                final_x[at] = X
                on_iterate(k, final_x)

            stop = ~np.isfinite(F) | (F > F0 + DIVERGENCE_MARGIN)
            if stop.any():
                final_x[at] = X
                for i in np.flatnonzero(stop):
                    aborted[ids[i]] = (f"divergence guard tripped at iteration {k} "
                                       f"(f={float(F[i])!r})")
                    rows[ids[i]] = k + 1
                keep = ~stop
                ids, X, F0, cost = (v[keep] for v in (ids, X, F0, cost))
                if true_grad:
                    TG = TG[keep]
                at = ids
                if ids.size == 0:
                    break
    final_x[at] = X

    for name, table in zip(SCHEDULE_COLUMNS, (ALPHA, GAMMA1, GAMMA2, BOUND)):
        cols[name] = table
    cols["wall_ns"] = np.broadcast_to(wall[:, None], (K + 1, S))
    return LaneRun(algorithm, configs, cols, rows, final_x, aborted, true_grad)


def _lane_draw(oracle, source, configs, K, estimate, VARIANCE):
    """The lanes' draw ``(k, ids, at, X, TG) -> (G, hvp)`` for the running
    lanes ``ids`` (columns ``at``) at iterates X with true gradients TG
    (which a sampler does not read).

    Every ``LANE_CHUNK`` iterations each running lane draws its next
    block of gradient noise or mini-batch rows from its gradient stream.
    ``hvp`` is the running rows' Hessian estimates in the one product
    form (None: the zero estimate), from the sampler's ``draw_rows`` or
    the noise model's ``estimate`` (see ``hessian_estimate``), which
    draws a perturbed estimate's perturbations every iteration.
    """
    S, n = len(configs), oracle.dim
    rngs = [rng_stream(c.seed, GRADIENT_STREAM) for c in configs]
    if isinstance(source, MiniBatchSampler):
        rows = np.zeros((S, LANE_CHUNK, source.batch_size), dtype=np.int64)

        def draw(k, ids, at, X, TG):
            j = (k - 1) % LANE_CHUNK
            if j == 0:
                count = min(LANE_CHUNK, K - k + 1)
                for lane in ids:
                    rows[lane, :count] = source.indices(rngs[lane], count)
            return source.draw_rows(X, rows[at, j], k)

        return draw

    block = np.zeros((S, LANE_CHUNK, n))
    drawn = VARIANCE > 0.0  # no noise, and no draw, at variance 0
    every = drawn.all(axis=1).tolist()

    def draw(k, ids, at, X, TG):
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
        return G, estimate(X, ids)

    return draw


def _moved(X, steps, gn):
    """The iterates after ``steps``; a zero-gradient row's zero step leaves
    its x as it is."""
    X_new = X + steps
    still = gn == 0.0
    if still.any():
        X_new[still] = X[still]
    return X_new


def _noise_step_dot(TG, G, steps):
    """(grad f - g)'s per row, or NaN when the run skipped the true gradient
    (TG is None)."""
    return np.nan if TG is None else rowdot(TG - G, steps)


def _trish_lane_step(X, G, gn, TG, hvp, alpha, gamma1, gamma2, solver):
    """TRish's Steihaug lane step rule: the radius from each row's ||g||,
    one ``steihaug_cg_rows`` solve of every row, and x + s.  Returns the
    next iterates, the cost units (1 plus the CG iterations, or 1 for
    the zero estimate) and the step fields it records."""
    delta, case = radius_rows(gn, alpha, gamma1, gamma2)
    steps, model_dec, cauchy_dec, iters = steihaug_cg_rows(
        G, gn, delta, hvp, solver.max_iters, solver.tol)
    return _moved(X, steps, gn), 1 + iters if hvp is not None else 1, {
        "delta": delta, "case": case, "model_dec": model_dec, "cauchy_dec": cauchy_dec,
        "cg_iters": iters, "step_norm": row_norms(steps),
        "noise_step_dot": _noise_step_dot(TG, G, steps)}


def _exact_lane_step(constant, products):
    """TRish's exact-solver lane step rule: the radius from each row's
    ||g||, one ``exact_trs_rows`` solve of every row, and x + s.

    The rule takes ``hvp(r, V)`` (None: the zero estimate) from the
    draw.  It builds the dense H of each running lane i with a nonzero
    gradient as ``stacked_dense`` of ``hvp(i, E)``, one product on the
    identity rows, checks and decomposes them in one ``checked_eigh``
    call and solves through ``exact_trs_rows``; a ``constant`` estimate
    is built and decomposed once, at the first step that needs it, and
    shared.  A lane with a nonzero gradient costs 1 + ``products`` units.
    """
    shared = []  # the (H, eig) of a constant estimate, once built

    def step(X, G, gn, TG, hvp, alpha, gamma1, gamma2, solver):
        delta, case = radius_rows(gn, alpha, gamma1, gamma2)
        live = gn != 0.0
        H = eig = None
        if shared:
            H, eig = shared[0]
        elif live.any():
            n = X.shape[1]
            if hvp is None:
                H = np.zeros((n, n))
            elif constant:
                i = int(np.argmax(live))
                H = stacked_dense(lambda E: hvp(i, E), n)
            else:
                H = np.zeros((len(X), n, n))
                for i in np.flatnonzero(live).tolist():
                    H[i] = stacked_dense(lambda E: hvp(i, E), n)
            eig = checked_eigh(H)
            if constant:
                shared.append((H, eig))
        steps, upsilon, model_dec, cauchy_dec = exact_trs_rows(G, gn, delta, H, eig, solver.tol)
        return _moved(X, steps, gn), 1 + np.where(live, products, 0), {
            "delta": delta, "case": case, "model_dec": model_dec, "cauchy_dec": cauchy_dec,
            "cg_iters": 0.0, "upsilon": upsilon, "step_norm": row_norms(steps),
            "noise_step_dot": _noise_step_dot(TG, G, steps)}

    return step


def _sg_lane_step(X, G, gn, TG, hvp, alpha, gamma1, gamma2, solver):
    """SG's lane step rule, x - alpha g on every row, at one cost unit; it
    reads no Hessian estimate, so its ``hess_bound`` is 0."""
    return X - alpha[:, None] * G, 1, {"step_norm": alpha * gn}
