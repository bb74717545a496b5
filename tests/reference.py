"""The reference the lockstep lanes are tested against: one run, one plain loop.

``reference_run`` writes the TRish iteration out directly, one point at
a time: draw g and H through ``sample_gradient`` and ``sample_hessian``
(or one ``MiniBatchSampler`` call), step with ``trish_step`` (or
x - alpha g for SG), and record one ``TRACE_DTYPE`` row.  It shares no
code with ``run_lanes`` beyond those per-point functions, and has no
hooks, no logging and no stepsize enforcement.
"""

from dataclasses import replace

import numpy as np

from trish import (
    GammaSchedule,
    MiniBatchSampler,
    TrishConfig,
    gammas_at,
    rng_stream,
    sample_gradient,
    sample_hessian,
    trish_step,
)
from trish.core import GRADIENT_STREAM, HESSIAN_STREAM
from trish.optimizer import DIVERGENCE_MARGIN, TRACE_DTYPE, Trajectory


def reported_config(config, algorithm):
    """The config a run of ``algorithm`` at ``config`` reports: first-order
    TRish and SG draw from the source with its Hessian estimate off, and
    SG runs the gammas (1, 1) at the default solver."""
    if algorithm == "trish":
        return config
    source = config.noise
    if isinstance(source, MiniBatchSampler):
        source = replace(source, hessian=False)
    else:
        source = replace(source, hessian_kind="zero", m_h=0.0, perturbation=0.0)
    if algorithm == "sg":
        return TrishConfig(config.stepsizes, GammaSchedule.constant(1.0, 1.0),
                           config.iterations, config.seed, noise=source)
    return replace(config, noise=source)


def reference_run(problem, x0, config, algorithm="trish"):
    """Run ``algorithm`` (``trish``, ``trish1`` or ``sg``) at ``config``
    and return its ``Trajectory``; ``wall_ns`` holds 0 on every row."""
    config = reported_config(config, algorithm)
    source = config.noise
    grad_rng = rng_stream(config.seed, GRADIENT_STREAM)
    hess_rng = rng_stream(config.seed, HESSIAN_STREAM)
    x = np.asarray(x0, dtype=float).copy()
    records = np.full(config.iterations + 1, np.nan, dtype=TRACE_DTYPE)

    def record(k, row):
        for name, value in row.items():
            records[name][k] = value

    f0, true_g = problem.value(x), problem.grad(x)
    record(0, {"k": 0, "f": f0, "grad_norm_true": np.linalg.norm(true_g),
               "cost_units": 0, "wall_ns": 0})
    cost, rows, aborted = 0, config.iterations + 1, None
    for k in range(1, config.iterations + 1):
        alpha = config.stepsizes.at(k)
        if isinstance(source, MiniBatchSampler):
            g, hess = source(x, k, alpha, grad_rng, hess_rng)
        else:
            g = sample_gradient(problem, x, source, k, alpha, grad_rng)
            hess = sample_hessian(problem, x, source, hess_rng)
        g_norm = np.linalg.norm(g)
        if algorithm == "sg":
            x_new = x - alpha * g
            cost += 1
            row = {"g_norm": g_norm, "alpha": alpha, "step_norm": alpha * g_norm,
                   "hess_bound": 0.0}
        else:
            gamma1, gamma2 = gammas_at(config.gammas, config.stepsizes, k)
            x_new, s = trish_step(x, g, hess, alpha, gamma1, gamma2, config.solver)
            cost += 1 + s.hessian_products
            row = {"g_norm": g_norm, "delta": s.delta, "case": s.case,
                   "model_dec": s.model_decrease, "cauchy_dec": s.cauchy_decrease,
                   "cg_iters": s.cg_iterations,
                   "upsilon": np.nan if s.upsilon is None else s.upsilon,
                   "alpha": alpha, "gamma1": gamma1, "gamma2": gamma2,
                   "step_norm": np.linalg.norm(s.s), "hess_bound": hess.norm_bound,
                   "noise_step_dot": (true_g - g) @ s.s}
        x = x_new
        f, true_g = problem.value(x), problem.grad(x)
        record(k, {"k": k, "f": f, "grad_norm_true": np.linalg.norm(true_g),
                   "cost_units": cost, "wall_ns": 0, **row})
        if not np.isfinite(f) or f > f0 + DIVERGENCE_MARGIN:
            rows = k + 1
            aborted = f"divergence guard tripped at iteration {k} (f={float(f)!r})"
            break
    return Trajectory(algorithm, config, records[:rows].view(np.recarray), x, aborted)
