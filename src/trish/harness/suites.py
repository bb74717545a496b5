"""Named verification suites with machine-readable reports.

Each suite runs a documented, fixed-seed experiment and checks the
library's contracts against it: the radius rule's case table, the
SG-collapse identity, the per-step decrease lemmas, the exact-solver
KKT certificates against a brute-force oracle, and one Monte-Carlo
envelope test per convergence guarantee.  ``--quick`` shrinks seed
counts and horizons for smoke runs; the full sizes are the acceptance
configuration.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from ..bounds import (
    complexity_budget,
    complexity_params_check,
    nonconvex_fixed_bound,
    pl_fixed_constants,
    pl_fixed_envelope,
    pl_geometric_envelope,
    pl_sublinear_envelope,
    pl_sublinear_fixed_gamma_envelope,
)
from ..core import (
    ConfigurationError,
    NoiseModel,
    draw_noise_block,
    hessian_estimate,
    rng_stream,
    row_norms,
    rowdot,
    hvp_finite_difference,
)
from ..optimizer import (
    SolverSpec,
    TrishConfig,
    run_lanes,
    run_sg,
    run_trish,
    run_trish_first_order,
)
from ..problems import (
    MiniBatchSampler,
    RosenbrockProblem,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)
from ..schedules import GammaSchedule, StepsizeSchedule, gammas_at, validate_stepsize
from ..subproblem import (
    checked_eigh,
    exact_trs_rows,
    kkt_residuals,
    radius,
    radius_rows,
    steihaug_cg_rows,
)
from .checks import (
    StepContractCounter,
    cost_accounting_ok,
    seed_mean_and_se,
    taylor_violations,
)
from .oracles import hard_case_instance, random_trs_instance, reference_trs

logger = logging.getLogger(__name__)


@dataclass
class CheckResult:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


# What a suite returns: its checks and the step-contract counter that
# pooled its recorded steps (None when it records none).
SuiteOutcome = tuple[list[CheckResult], StepContractCounter | None]


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult]
    elapsed_s: float
    contract_counter: StepContractCounter | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "stats": _jsonable(c.stats)}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@contextmanager
def _quiet_optimizer_warnings():
    opt_logger = logging.getLogger("trish.optimizer")
    prev = opt_logger.level
    opt_logger.setLevel(logging.ERROR)
    try:
        yield
    finally:
        opt_logger.setLevel(prev)


# ---------------------------------------------------------------------------
# shared experiment scaffolding


def _point_with_gap(problem, gap: float, seed: int) -> np.ndarray:
    """A starting point with f(x0) - f_min exactly ``gap`` (SPD quadratic)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(problem.dim)
    u /= np.linalg.norm(u)
    r = np.sqrt(2.0 * gap / float(u @ (problem.A @ u)))
    return problem.x_star + r * u


def _gap_matrix(problem, x0, config, seeds, on_iterate=None):
    """Per-seed optimality-gap trajectories plus pooled contract counts.

    The seeds run ``config`` as lockstep lanes; a seed's gaps past its
    last recorded row are +inf.  Also returns the lane run itself.
    """
    run = run_lanes(problem, x0, [replace(config, seed=seed) for seed in seeds],
                    on_iterate=on_iterate)
    counter = StepContractCounter()
    counter.update(run)
    aborted = sum(reason is not None for reason in run.aborted)
    # seed-major C order, so the seed-axis mean and SE sum in the same order as
    # over one row per seed's run
    gaps = np.ascontiguousarray(run.column("f").T) - problem.f_min
    gaps[np.arange(config.iterations + 1)[None, :] >= run.rows[:, None]] = np.inf
    return gaps, counter, aborted, run


def _envelope_checks(
    label: str,
    gaps: np.ndarray,
    envelope: np.ndarray,
    aborted: int,
    counter: StepContractCounter,
) -> list[CheckResult]:
    mean, se = seed_mean_and_se(gaps)
    ok = mean <= envelope + 3.0 * se
    slack = envelope + 3.0 * se - mean
    worst = int(np.argmin(slack))
    return [
        CheckResult(
            f"{label}: seed-mean gap within envelope + 3 SE at every k",
            bool(np.all(ok)) and aborted == 0,
            {
                "seeds": int(gaps.shape[0]),
                "horizon": int(gaps.shape[1] - 1),
                "aborted_runs": aborted,
                "violations": int(np.sum(~ok)),
                "worst_slack": float(slack[worst]),
                "worst_row": worst,
                "terminal_mean_gap": float(mean[-1]),
                "terminal_envelope": float(envelope[-1]),
            },
        ),
        CheckResult(
            f"{label}: step contracts hold on every recorded step",
            counter.total_violations == 0,
            counter.stats(),
        ),
    ]


# ---------------------------------------------------------------------------
# radius


def suite_radius(quick: bool = False) -> SuiteOutcome:
    """Three-case table, breakpoint agreement, steplength continuity."""
    checks = []

    table = [
        ((0.05, 0.1, 10.0, 1.0), (0.05, 1)),
        ((0.5, 0.1, 10.0, 1.0), (0.1, 2)),
        ((4.0, 0.1, 10.0, 1.0), (0.4, 3)),
        ((0.1, 0.1, 10.0, 1.0), (0.1, 2)),  # breakpoint tie -> middle case
    ]
    exact = all(
        radius(*args) == (delta, case) for args, (delta, case) in table
    )
    checks.append(CheckResult("three-case examples match exactly", exact,
                              {"cases": len(table)}))

    rng = np.random.default_rng(321)
    worst_bp = 0.0
    for _ in range(200):
        gamma1 = float(rng.uniform(0.5, 20.0))
        gamma2 = float(rng.uniform(0.05, 1.0)) * gamma1
        alpha = float(10.0 ** rng.uniform(-3, 0))
        d1, _ = radius(1.0 / gamma1, alpha, gamma1, gamma2)
        d2, _ = radius(1.0 / gamma2, alpha, gamma1, gamma2)
        worst_bp = max(worst_bp,
                       abs(gamma1 * alpha * (1.0 / gamma1) - d1),
                       abs(gamma2 * alpha * (1.0 / gamma2) - d2))
    checks.append(CheckResult("adjacent-case formulas agree at both breakpoints",
                              worst_bp <= 1e-12, {"worst_gap": worst_bp}))

    # steplength continuity with H = 0: ||s|| equals the radius, whose
    # slope never exceeds gamma1 * alpha
    gamma1, gamma2, alpha = 10.0, 1.0, 0.1
    n_pts = 1000 if quick else 10_000
    norms = np.sort(np.concatenate([
        np.linspace(0.0, 2.0, n_pts - 2), [1.0 / gamma1, 1.0 / gamma2]]))
    deltas = np.array([radius(t, alpha, gamma1, gamma2)[0] for t in norms])
    jumps = np.abs(np.diff(deltas))
    allowed = gamma1 * alpha * np.diff(norms) + 1e-12
    checks.append(CheckResult(
        "H=0 steplength continuous across sampled gradient norms",
        bool(np.all(jumps <= allowed)),
        {"samples": n_pts, "max_excess": float(np.max(jumps - allowed))},
    ))

    # one zero-Hessian solve of g = (t, 0) for every hundredth sampled norm t
    ts = norms[:: max(1, n_pts // 100)]
    G = np.stack([ts, np.zeros_like(ts)], axis=1)
    d, _ = radius_rows(ts, alpha, gamma1, gamma2)
    steps, *_ = steihaug_cg_rows(G, row_norms(G), d, None)
    sub_ok = bool(np.all(np.abs(row_norms(steps) - d) <= 1e-12 * np.maximum(1.0, d)))
    checks.append(CheckResult("H=0 solver steplength equals the radius", sub_ok, {}))

    return checks, None


# ---------------------------------------------------------------------------
# equivalence (collapse to SG)


def suite_equivalence(quick: bool = False) -> SuiteOutcome:
    """TRish(H=0, gamma1=gamma2) with a shared gradient stream is SG."""
    problem = make_logistic(200, 5, l2=0.1, seed=11)
    gamma, alpha, iters = 2.0, 0.05, 100
    x0 = np.zeros(problem.dim)

    sampler = MiniBatchSampler(problem, 10)
    cfg = TrishConfig(StepsizeSchedule.constant(alpha), GammaSchedule.constant(gamma, gamma),
                      iters, seed=5, noise=sampler)
    tr_x, sg_x = [], []
    with _quiet_optimizer_warnings():
        tr = run_trish_first_order(problem, x0, cfg,
                                   on_iterate=lambda k, x: tr_x.append(x.copy()))
        sg = run_sg(problem, x0, StepsizeSchedule.constant(gamma * alpha), sampler, iters,
                    seed=5, on_iterate=lambda k, x: sg_x.append(x.copy()))
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(tr_x, sg_x))
    tr_g, sg_g = tr.column("g_norm")[1:], sg.column("g_norm")[1:]
    checks = [
        CheckResult(
            "TRish(H=0, gamma1=gamma2=gamma) matches SG(gamma*alpha) per coordinate",
            worst <= 1e-12,
            {"iterations": iters, "max_coordinate_diff": worst},
        ),
        CheckResult(
            "both runs consumed identical gradient-sample streams",
            bool(np.all(np.abs(tr_g - sg_g) <= 1e-12 * (1.0 + tr_g))),
            {},
        ),
    ]
    return checks, None


# ---------------------------------------------------------------------------
# lemmas (per-step contracts)


def suite_lemmas(quick: bool = False) -> SuiteOutcome:
    """Per-step Taylor bound, Cauchy contracts, steplength and cost rules."""
    iters = 150 if quick else 600
    problem = make_quadratic(10, 1.0, 10.0, seed=55)
    m_g = 1.0
    x0 = _point_with_gap(problem, gap=25.0, seed=56)
    counter = StepContractCounter()
    checks = []

    # alpha = 1 / (4 gamma1^2 (L_g + m_h)) with gamma1 = 2
    L_g, m_pert = problem.grad_lipschitz, 5.0
    base = TrishConfig(
        stepsizes=StepsizeSchedule.constant(1.0 / (16.0 * (L_g + L_g))),
        gammas=GammaSchedule.constant(2.0, 1.0),
        iterations=iters,
        noise=NoiseModel(kind="bounded", m_g=m_g, hessian_kind="exact-capped", m_h=L_g),
        enforce_stepsize_bound=True,
    )
    perturbed = replace(
        base, stepsizes=StepsizeSchedule.constant(1.0 / (16.0 * (L_g + m_pert))),
        noise=replace(base.noise, hessian_kind="perturbed", m_h=m_pert, perturbation=1.0))
    exact = replace(base, iterations=max(50, iters // 4), solver=SolverSpec(kind="exact"))

    # each config's 3 seeds as one lane run, checked seed-major
    lane_runs = [
        run_lanes(problem, x0, [replace(config, seed=offset + seed) for seed in range(3)],
                  algorithm)
        for config, offset, algorithm in ((base, 0, "trish"), (perturbed, 100, "trish"),
                                          (exact, 200, "trish"), (base, 300, "trish1"))]
    taylor_checked = taylor_bad = 0
    cost_ok = True
    for seed in range(3):
        for run in lane_runs:
            traj = run.trajectory(seed)
            counter.update(traj)
            n, bad = taylor_violations(traj, problem.grad_lipschitz)
            taylor_checked += n
            taylor_bad += bad
            cost_ok = cost_ok and cost_accounting_ok(traj)

    checks.append(CheckResult(
        "Taylor upper bound holds every step (quadratic, certified L_g)",
        taylor_bad == 0,
        {"steps_checked": taylor_checked, "violations": taylor_bad},
    ))
    checks.append(CheckResult(
        "Cauchy/feasibility/steplength contracts hold on every step",
        counter.total_violations == 0,
        counter.stats(),
    ))
    checks.append(CheckResult(
        "cost accounting: 1 unit per gradient plus the Hessian products each step's "
        "solver may use",
        cost_ok, {},
    ))

    examples_ok = (
        validate_stepsize(0.2, 1.0, 1.0, 0.5, 0.5) is True
        and validate_stepsize(0.3, 1.0, 1.0, 0.5, 0.5) is False
        and validate_stepsize(0.1, 1.0, 0.95, 0.3, 0.1, mode="merging", eta=1.0) is True
    )
    checks.append(CheckResult(
        "stepsize precondition evaluator matches worked examples", examples_ok, {},
    ))

    return checks, counter


# ---------------------------------------------------------------------------
# trs-oracle


def suite_trs_oracle(quick: bool = False) -> SuiteOutcome:
    """Exact solver vs brute-force enumeration on random + hard instances."""
    n_random = 150 if quick else 1000
    n_hard = 10 if quick else 50
    rng = np.random.default_rng(424242)

    worst = {"stationarity": 0.0, "psd": 0.0, "complementarity": 0.0, "objective": 0.0}
    failures = 0
    for i in range(n_random + n_hard):
        if i < n_random:
            g, H, delta = random_trs_instance(rng)
        else:
            g, H, delta = hard_case_instance(rng)
        steps, ups, model_dec, _ = exact_trs_rows(
            g[None], row_norms(g[None]), np.array([delta]), H, checked_eigh(H))
        s, val = steps[0], -float(model_dec[0])
        stat, psd, comp = kkt_residuals(g, H, delta, s, float(ups[0]))
        _, ref_val, _ = reference_trs(g, H, delta)
        worst["stationarity"] = max(worst["stationarity"], stat)
        worst["psd"] = max(worst["psd"], -psd)
        worst["complementarity"] = max(worst["complementarity"], comp)
        worst["objective"] = max(worst["objective"], abs(val - ref_val))
        feasible = np.linalg.norm(s) <= delta * (1.0 + 1e-12)
        if not feasible or stat > 1e-8 or psd < -1e-8 or comp > 1e-8 \
                or abs(val - ref_val) > 1e-8:
            failures += 1

    checks = [CheckResult(
        "KKT residuals <= 1e-8 and objective within 1e-8 of brute-force oracle",
        failures == 0,
        {"random_instances": n_random, "hard_instances": n_hard,
         "failures": failures, **{f"worst_{k}": v for k, v in worst.items()}},
    )]
    return checks, None


# ---------------------------------------------------------------------------
# envelope suites


def suite_pl_fixed(quick: bool = False) -> SuiteOutcome:
    """Linear-to-neighborhood envelope under bounded noise, fixed parameters."""
    n_seeds, horizon = (30, 400) if quick else (200, 2000)
    problem = make_quadratic(10, 1.0, 10.0, seed=101)
    gamma1, gamma2, m_g = 2.0, 1.0, 1.0
    m_h = problem.grad_lipschitz  # exact Hessian within the norm cap
    alpha = gamma2 / (4.0 * gamma1**2 * (problem.grad_lipschitz + m_h))
    x0 = _point_with_gap(problem, gap=10.0, seed=202)
    gap0 = problem.value(x0) - problem.f_min
    c = problem.pl_constant

    config = TrishConfig(
        stepsizes=StepsizeSchedule.constant(alpha),
        gammas=GammaSchedule.constant(gamma1, gamma2),
        iterations=horizon,
        noise=NoiseModel(kind="bounded", m_g=m_g,
                         hessian_kind="exact-capped", m_h=m_h),
        enforce_stepsize_bound=True,
    )
    seeds = range(1000, 1000 + n_seeds)

    gaps, counter, aborted, _ = _gap_matrix(problem, x0, config, seeds)
    envelope = np.array([
        pl_fixed_envelope(k + 1, gamma1, gamma2, alpha, m_g, c, gap0)
        for k in range(horizon + 1)
    ])
    checks = _envelope_checks("pl-fixed", gaps, envelope, aborted, counter)

    theta = pl_fixed_constants(gamma1, gamma2, alpha, m_g, c).theta
    mean, se = seed_mean_and_se(gaps)
    checks.append(CheckResult(
        "pl-fixed: terminal mean gap <= theta + 3 SE",
        bool(mean[-1] <= theta + 3.0 * se[-1]),
        {"terminal_mean_gap": float(mean[-1]), "theta": theta,
         "terminal_se": float(se[-1])},
    ))
    return checks, counter


def suite_pl_merging(quick: bool = False) -> SuiteOutcome:
    """Sublinear envelope with diminishing stepsizes and merging gammas."""
    n_seeds, horizon = (30, 400) if quick else (200, 2000)
    problem = make_quadratic(10, 1.0, 10.0, seed=101)
    gamma1, eta, m_g = 1.0, 1.0, 1.0
    m_h = eta / (2.0 * gamma1) * 0.999  # respects the merging Hessian cap
    a, b = 3.0, 135.0
    steps = StepsizeSchedule.diminishing(a, b)
    gammas = GammaSchedule.merging(gamma1, eta)
    c = problem.pl_constant
    x0 = _point_with_gap(problem, gap=10.0, seed=203)
    gap0 = problem.value(x0) - problem.f_min
    gamma2_first = gammas_at(gammas, steps, 1)[1]

    precondition_ok = all(
        validate_stepsize(steps.at(k), gamma1, gammas_at(gammas, steps, k)[1],
                          problem.grad_lipschitz, m_h, mode="merging", eta=eta)
        and steps.at(k) <= 2.0 / (gamma2_first * c)
        for k in range(1, horizon + 1)
    )

    config = TrishConfig(
        stepsizes=steps,
        gammas=gammas,
        iterations=horizon,
        noise=NoiseModel(kind="bounded", m_g=m_g,
                         hessian_kind="exact-capped", m_h=m_h),
        enforce_stepsize_bound=True,
    )
    seeds = range(3000, 3000 + n_seeds)

    gaps, counter, aborted, _ = _gap_matrix(problem, x0, config, seeds)
    envelope = np.array([
        pl_sublinear_envelope(k + 1, a, b, eta, gamma1, gamma2_first, c,
                              problem.grad_lipschitz, m_h, m_g, gap0)
        for k in range(horizon + 1)
    ])
    checks = [CheckResult(
        "pl-merging: stepsize/Hessian/gap preconditions hold for every k",
        precondition_ok,
        {"alpha_1": steps.at(1), "gamma2_1": gamma2_first, "m_h": m_h},
    )]
    checks += _envelope_checks("pl-merging", gaps, envelope, aborted, counter)
    return checks, counter


def suite_pl_sublinear(quick: bool = False) -> SuiteOutcome:
    """Sublinear envelope with fixed gammas and stepsize-proportional noise."""
    n_seeds, horizon = (30, 400) if quick else (200, 2000)
    problem = make_quadratic(10, 1.0, 10.0, seed=101)
    gamma1 = gamma2 = 1.0
    m_g = 1.0
    a, b = 20.0, 799.0  # alpha_1 = 1/40 sits exactly on the basic bound
    steps = StepsizeSchedule.diminishing(a, b)
    c = problem.pl_constant
    x0 = _point_with_gap(problem, gap=10.0, seed=204)
    gap0 = problem.value(x0) - problem.f_min

    config = TrishConfig(
        stepsizes=steps,
        gammas=GammaSchedule.constant(gamma1, gamma2),
        iterations=horizon,
        noise=NoiseModel(kind="stepwise", m_g=m_g, hessian_kind="zero"),
        enforce_stepsize_bound=True,
    )
    seeds = range(5000, 5000 + n_seeds)

    gaps, counter, aborted, run = _gap_matrix(problem, x0, config, seeds)
    norms = run.column("grad_norm_true")
    grad_ratio = norms[run.rows - 1, np.arange(n_seeds)] / norms[0]
    envelope = np.array([
        pl_sublinear_fixed_gamma_envelope(k + 1, a, b, gamma1, gamma2, m_g, c, gap0)
        for k in range(horizon + 1)
    ])
    checks = _envelope_checks("pl-sublinear", gaps, envelope, aborted, counter)
    # testable consequence of almost-sure gradient convergence in the
    # diminishing-step regime: true gradient norms shrink along the run
    ratio = float(np.mean(grad_ratio))
    checks.append(CheckResult(
        "pl-sublinear: true gradient norm vanishes along diminishing-step runs",
        ratio <= 0.1,
        {"mean_terminal_to_initial_grad_ratio": ratio},
    ))
    return checks, counter


def suite_geometric(quick: bool = False) -> SuiteOutcome:
    """Linear-rate envelope under geometrically decaying noise."""
    n_seeds, horizon = (30, 200) if quick else (200, 500)
    problem = make_quadratic(10, 1.0, 10.0, seed=101)
    gamma1 = gamma2 = 1.0
    m_g, zeta = 1.0, 0.5
    alpha = gamma2 / (4.0 * gamma1**2 * problem.grad_lipschitz)
    c = problem.pl_constant
    x0 = _point_with_gap(problem, gap=10.0, seed=205)
    gap0 = problem.value(x0) - problem.f_min

    config = TrishConfig(
        stepsizes=StepsizeSchedule.constant(alpha),
        gammas=GammaSchedule.constant(gamma1, gamma2),
        iterations=horizon,
        noise=NoiseModel(kind="geometric", m_g=m_g, zeta=zeta,
                         hessian_kind="zero"),
        enforce_stepsize_bound=True,
    )
    seeds = range(7000, 7000 + n_seeds)

    gaps, counter, aborted, _ = _gap_matrix(problem, x0, config, seeds)
    envelope = np.array([
        pl_geometric_envelope(k + 1, gamma1, gamma2, alpha, m_g, c, zeta, gap0)
        for k in range(horizon + 1)
    ])
    checks = _envelope_checks("geometric", gaps, envelope, aborted, counter)
    return checks, counter


def suite_nonconvex_fixed(quick: bool = False) -> SuiteOutcome:
    """Average-squared-gradient bound on the chained Rosenbrock problem."""
    n_seeds, horizon = (20, 500) if quick else (100, 5000)
    problem = RosenbrockProblem(10, box_halfwidth=2.0)
    gamma1 = gamma2 = 1.0
    m_g = 1.0
    alpha = gamma2 / (4.0 * gamma1**2 * problem.grad_lipschitz)
    x0 = np.zeros(problem.dim)
    f1 = problem.value(x0)

    config = TrishConfig(  # first-order TRish: the Hessian estimate is zero
        stepsizes=StepsizeSchedule.constant(alpha),
        gammas=GammaSchedule.constant(gamma1, gamma2),
        iterations=horizon,
        noise=NoiseModel(kind="bounded", m_g=m_g, hessian_kind="zero"),
        enforce_stepsize_bound=True,
    )
    seeds = range(9000, 9000 + n_seeds)

    widest = np.zeros(n_seeds)  # max |x_i| over each lane's iterates

    def track_box(k, X):
        np.maximum(widest, np.max(np.abs(X), axis=1), out=widest)

    _, counter, aborted, run = _gap_matrix(problem, x0, config, seeds,
                                           on_iterate=track_box)
    grads = run.column("grad_norm_true")[:horizon]  # iterates x_1..x_K
    avg_sq = np.array([np.mean(grads[: run.rows[i], i] ** 2) for i in range(n_seeds)])
    in_box = bool(np.all(widest <= problem.box_halfwidth))

    bound = nonconvex_fixed_bound(horizon, gamma1, gamma2, alpha, m_g, f1,
                                  problem.f_min)
    mean, se = (float(v) for v in seed_mean_and_se(avg_sq))
    checks = [
        CheckResult(
            "nonconvex-fixed: seed-mean average squared gradient within bound + 3 SE",
            mean <= bound + 3.0 * se and aborted == 0,
            {"seeds": n_seeds, "horizon": horizon, "mean": mean, "se": se,
             "bound": bound, "aborted_runs": aborted},
        ),
        CheckResult(
            "nonconvex-fixed: iterates stayed inside the certified curvature box",
            in_box, {"box_halfwidth": problem.box_halfwidth},
        ),
        CheckResult(
            "nonconvex-fixed: step contracts hold on every recorded step",
            counter.total_violations == 0, counter.stats(),
        ),
    ]
    return checks, counter


# ---------------------------------------------------------------------------
# complexity


def suite_complexity(quick: bool = False) -> SuiteOutcome:
    """Deterministic per-iteration decrease and budget in the exact regime."""
    eps_values = (1e-1,) if quick else (1e-1, 1e-2)
    lam1 = lam2 = lam3 = 0.99
    problem = make_quartic_bowl(5, 1.0, 4.0, quartic=1.0, radius=4.0, seed=77)
    L_H = problem.hess_lipschitz

    rng = np.random.default_rng(78)
    direction = rng.standard_normal(problem.dim)
    direction /= np.linalg.norm(direction)
    x0 = problem.x_star + 1.5 * direction
    gap0 = problem.value(x0) - problem.f_min

    checks = [CheckResult(
        "complexity: (lambda1, lambda2, lambda3) passes the parameter feasibility check",
        complexity_params_check(lam1, lam2, lam3, 0.0, 0.0),
        {"lambda": [lam1, lam2, lam3], "mu": [0.0, 0.0]},
    )]
    # the initial sublevel set (plus the small steps) stays in the ball
    checks.append(CheckResult(
        "complexity: certified ball contains the initial sublevel set",
        np.sqrt(2.0 * gap0 / problem.pl_constant) + 0.5 <= problem.radius,
        {"gap0": gap0, "radius": problem.radius},
    ))

    counter = StepContractCounter()
    for eps in eps_values:
        sqrt_eps = np.sqrt(eps)
        alpha = 2.0 * sqrt_eps / L_H
        G_low, G_high = 1e-4, 20.0
        gamma1 = lam2 / G_low
        gamma2 = 1.0 / (lam3 * G_high)
        delta_lo = 2.0 * lam1 * lam2 * sqrt_eps / L_H
        delta_hi = 2.0 * sqrt_eps / (lam3 * L_H)
        decrease_floor = eps**1.5 / (3.0 * L_H**2) - 1e-12

        traj = None
        horizon = 3000
        for _ in range(4):  # fixed-budget runs, escalating until upsilon drops
            inside = []  # problem.in_ball at each iterate
            cfg = TrishConfig(
                stepsizes=StepsizeSchedule.constant(alpha),
                gammas=GammaSchedule.constant(gamma1, gamma2),
                iterations=horizon,
                seed=0,
                solver=SolverSpec(kind="exact", tol=1e-12),
                noise=NoiseModel(kind="none", hessian_kind="exact-capped",
                                 m_h=problem.grad_lipschitz),
            )
            with _quiet_optimizer_warnings():
                traj = run_trish(problem, x0, cfg,
                                 on_iterate=lambda k, x: inside.append(problem.in_ball(x)))
            dropped = np.flatnonzero(traj.column("upsilon")[1:] <= sqrt_eps)
            if dropped.size:
                break
            horizon *= 4
        counter.update(traj)

        stop = int(dropped[0]) if dropped.size else None
        stats = {"eps": eps, "alpha": alpha, "stop_iteration": stop,
                 "budget": complexity_budget(eps, L_H, gap0)}
        if stop is None:
            checks.append(CheckResult(
                f"complexity eps={eps}: multiplier eventually drops below sqrt(eps)",
                False, stats))
            continue

        counted = traj.records[1 : stop + 1]  # all have upsilon > sqrt(eps)
        f_values = traj.column("f")
        decreases = f_values[:stop] - f_values[1 : stop + 1]
        min_dec = float(np.min(decreases)) if stop > 0 else np.inf
        deltas, g_norms = counted.delta, counted.g_norm
        in_ball = all(inside[: stop + 2])
        stats.update({
            "counted_iterations": stop,
            "min_decrease": min_dec,
            "decrease_floor": decrease_floor,
            "g_norm_range": [float(g_norms.min()), float(g_norms.max())] if stop else None,
        })
        passed = (
            stop <= complexity_budget(eps, L_H, gap0)
            and bool(np.all(decreases >= decrease_floor))
            and bool(np.all((deltas >= delta_lo * (1 - 1e-9))
                            & (deltas <= delta_hi * (1 + 1e-9))))
            and (stop == 0 or (g_norms.min() >= G_low and g_norms.max() <= G_high))
            and in_ball
        )
        checks.append(CheckResult(
            f"complexity eps={eps}: decrease floor, radius window, gradient "
            "bounds and budget all hold",
            passed, stats))

    return checks, counter


# ---------------------------------------------------------------------------
# oracles (derivative checks + noise-model conformity)


def _fd_gradient(problem, x: np.ndarray) -> np.ndarray:
    h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(x)))
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
    return g


def _derivative_checks(problem, points, rng) -> tuple[float, float]:
    worst_grad = worst_hvp = 0.0
    for x in points:
        g = problem.grad(x)
        scale = max(float(np.linalg.norm(g)), 1e-12)
        worst_grad = max(worst_grad,
                         float(np.linalg.norm(_fd_gradient(problem, x) - g)) / scale)
        v = rng.standard_normal(x.size)
        hv = problem.hvp(x, v)
        hv_scale = max(float(np.linalg.norm(hv)), 1e-12)
        worst_hvp = max(worst_hvp,
                        float(np.linalg.norm(
                            hvp_finite_difference(problem, x, v) - hv)) / hv_scale)
    return worst_grad, worst_hvp


def suite_oracles(quick: bool = False) -> SuiteOutcome:
    """Derivative correctness, noise-moment conformity, Hessian-cap checks."""
    n_points = 20 if quick else 100
    n_draws = 20_000 if quick else 100_000
    rng = np.random.default_rng(8675309)
    checks = []

    quad = make_quadratic(10, 1.0, 10.0, seed=31)
    logi = make_logistic(120, 6, l2=0.1, seed=32)
    rosen = RosenbrockProblem(8, box_halfwidth=2.0)
    quartic = make_quartic_bowl(6, 1.0, 4.0, quartic=1.0, radius=4.0, seed=33)
    testbeds = [
        ("quadratic", quad, lambda: rng.standard_normal(quad.dim)),
        ("logistic", logi, lambda: 0.5 * rng.standard_normal(logi.dim)),
        ("rosenbrock", rosen, lambda: rng.uniform(-1.5, 1.5, rosen.dim)),
        ("quartic", quartic, lambda: quartic.x_star + rng.standard_normal(quartic.dim)),
    ]
    for name, problem, draw in testbeds:
        points = [draw() for _ in range(n_points)]
        worst_grad, worst_hvp = _derivative_checks(problem, points, rng)
        checks.append(CheckResult(
            f"{name}: analytic gradient and hvp match finite differences (rel <= 1e-6)",
            worst_grad <= 1e-6 and worst_hvp <= 1e-6,
            {"points": n_points, "worst_grad_rel_err": worst_grad,
             "worst_hvp_rel_err": worst_hvp},
        ))

    # noise-moment conformity at a fixed point of a 4-dim quadratic
    small = make_quadratic(4, 1.0, 4.0, seed=34)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    true_g = small.grad(x)
    cases = [
        ("bounded", NoiseModel(kind="bounded", m_g=1.0), 3, 0.7, 1.0),
        ("stepwise", NoiseModel(kind="stepwise", m_g=1.0), 3, 0.3, 0.3),
        ("geometric", NoiseModel(kind="geometric", m_g=1.0, zeta=0.5), 3, 0.7, 0.25),
    ]
    for label, noise, k, alpha_k, target in cases:
        # n_draws successive gradient draws on one stream, in one block
        variances = np.full(n_draws, noise.gradient_variance(k, alpha_k))
        g = true_g + draw_noise_block(rng_stream(991, 0), variances, small.dim)
        sq_g = rowdot(g, g)
        diffs = np.subtract(g, true_g, out=g)  # g is not read again
        mean_norm = float(np.linalg.norm(diffs.mean(axis=0)))
        unbias_tol = 3.0 * np.sqrt(target / n_draws)
        sq = np.sum(diffs**2, axis=1)
        var_err = abs(float(np.mean(sq)) - target)
        var_tol = 3.0 * float(np.std(sq, ddof=1)) / np.sqrt(n_draws)
        # E||g||^2 = ||grad f||^2 + E||g - grad f||^2 under unbiasedness
        ident_err = abs(float(np.mean(sq_g))
                        - (float(true_g @ true_g) + float(np.mean(sq))))
        ident_tol = 6.0 * np.sqrt(target / small.dim) \
            * float(np.linalg.norm(true_g)) / np.sqrt(n_draws)
        checks.append(CheckResult(
            f"noise {label}: unbiased, variance on target, norm identity (3 MC SE)",
            mean_norm <= unbias_tol and var_err <= var_tol and ident_err <= ident_tol,
            {"draws": n_draws, "target_variance": target,
             "mean_noise_norm": mean_norm, "unbias_tol": unbias_tol,
             "variance_error": var_err, "variance_tol": var_tol,
             "identity_error": ident_err, "identity_tol": ident_tol},
        ))

    # Hessian estimates, as the lanes draw them: cap and symmetry under
    # all kinds (a perturbed estimate draws from the Hessian stream of seed 992)
    probes_ok = True
    worst_cap = worst_sym = 0.0
    hessian_cases = [
        NoiseModel(kind="none", hessian_kind="exact-capped", m_h=2.0),
        NoiseModel(kind="none", hessian_kind="exact-capped", m_h=50.0),
        NoiseModel(kind="none", hessian_kind="perturbed", m_h=2.0, perturbation=0.5),
        NoiseModel(kind="none", hessian_kind="zero"),
    ]
    for noise in hessian_cases:
        at, bound = hessian_estimate(quad, noise, [992])
        hvp = at(np.zeros((1, quad.dim)), [0])
        cap = noise.m_h if noise.hessian_kind != "zero" else 0.0
        for _ in range(100):
            v = rng.standard_normal(quad.dim)
            v /= np.linalg.norm(v)
            u = rng.standard_normal(quad.dim)
            # hvp(0, [v, u]): the estimate applied to v and to u
            Hv, Hu = np.zeros((2, quad.dim)) if hvp is None else hvp(0, np.stack([v, u]))
            norm_hv = float(np.linalg.norm(Hv))
            worst_cap = max(worst_cap, norm_hv - cap)
            probes_ok = probes_ok and norm_hv <= cap * (1.0 + 1e-10) + 1e-300
            sym = abs(float(u @ Hv) - float(v @ Hu))
            lim = 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)
            worst_sym = max(worst_sym, sym - lim)
            probes_ok = probes_ok and sym <= lim
        probes_ok = probes_ok and norm_hv <= bound * (1.0 + 1e-10) + 1e-300
    checks.append(CheckResult(
        "hessian estimates: operator norm within cap, symmetric to 1e-10",
        probes_ok, {"worst_cap_excess": worst_cap, "worst_symmetry_excess": worst_sym},
    ))

    # quadratic certificate checks
    eigs = np.linalg.eigvalsh(quad.A)
    pl_ok = True
    for _ in range(1000):
        xp = quad.x_star + rng.standard_normal(quad.dim)
        lhs = 2.0 * quad.pl_constant * (quad.value(xp) - quad.f_min)
        rhs = float(np.linalg.norm(quad.grad(xp)) ** 2)
        pl_ok = pl_ok and lhs <= rhs * (1.0 + 1e-9) + 1e-9
    direct = quad.value(np.linalg.solve(quad.A, quad.b))
    checks.append(CheckResult(
        "quadratic: spectrum constants, PL certificate, and f_min all verified",
        abs(eigs[0] - quad.pl_constant) <= 1e-9
        and abs(eigs[-1] - quad.grad_lipschitz) <= 1e-9
        and pl_ok and abs(direct - quad.f_min) <= 1e-10,
        {"lambda_min": float(eigs[0]), "lambda_max": float(eigs[-1])},
    ))

    # logistic: full batch equals full gradient; mini-batch mean matches (MC)
    xw = 0.3 * rng.standard_normal(logi.dim)
    full = logi.grad(xw)
    full_batch = logi.batch_gradient(xw, np.arange(logi.n_samples))
    n_mb = 2000 if quick else 10_000
    stream = rng_stream(993, 0)
    draws = np.empty((n_mb, logi.dim))
    for i in range(n_mb):
        idx = stream.integers(0, logi.n_samples, size=5)
        draws[i] = logi.batch_gradient(xw, idx)
    mb_err = float(np.linalg.norm(draws.mean(axis=0) - full))
    spread = float(np.mean(np.sum((draws - full) ** 2, axis=1)))
    mb_tol = 3.0 * np.sqrt(spread / n_mb)
    checks.append(CheckResult(
        "logistic: full batch reproduces the gradient; mini-batch mean within 3 SE",
        float(np.max(np.abs(full_batch - full))) <= 1e-14 and mb_err <= mb_tol,
        {"minibatch_draws": n_mb, "mean_error": mb_err, "tolerance": mb_tol,
         "certified_pl": logi.pl_constant},
    ))

    return checks, None


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "lemmas": suite_lemmas,
    "radius": suite_radius,
    "equivalence": suite_equivalence,
    "trs-oracle": suite_trs_oracle,
    "pl-fixed": suite_pl_fixed,
    "pl-merging": suite_pl_merging,
    "pl-sublinear": suite_pl_sublinear,
    "geometric": suite_geometric,
    "nonconvex-fixed": suite_nonconvex_fixed,
    "complexity": suite_complexity,
    "oracles": suite_oracles,
}


def verify(suite: str, quick: bool = False) -> SuiteReport:
    """Run a named verification suite, timed, and return its report."""
    if suite not in SUITES:
        raise ConfigurationError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    t0 = time.perf_counter()
    checks, counter = SUITES[suite](quick=quick)
    return SuiteReport(suite, checks, time.perf_counter() - t0, counter)
