"""Per-step contract checks evaluated on recorded trajectories.

Every trust-region step a run records must satisfy the feasibility,
Cauchy-decrease, and steplength contracts; on problems with a certified
gradient-Lipschitz constant the per-step Taylor upper bound is also
assertable.  Suites stream trajectories through these counters so the
acceptance gate can report zero violations over everything that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..optimizer import LaneRun, Trajectory

CAUCHY_TOL = 1e-10
FEAS_TOL = 1e-12
TAYLOR_TOL = 1e-9


@dataclass
class StepContractCounter:
    checked: int = 0
    cauchy_violations: int = 0
    cauchy_bound_violations: int = 0
    cauchy_second_bound_violations: int = 0
    feasibility_violations: int = 0
    steplength_violations: int = 0
    nonfinite_violations: int = 0
    worst_cauchy_margin: float = field(default=np.inf)

    @property
    def total_violations(self) -> int:
        return (
            self.cauchy_violations
            + self.cauchy_bound_violations
            + self.cauchy_second_bound_violations
            + self.feasibility_violations
            + self.steplength_violations
            + self.nonfinite_violations
        )

    def update(self, trace: Trajectory | LaneRun) -> None:
        """Check every recorded step of a trajectory or of a set of lanes.

        Works on the trace's columns (1-D for one run, (K+1, S) for
        lanes).  Rows without subproblem diagnostics (SG rows, the
        padding after a lane stopped) are NaN there and skipped; rows
        with ``g_norm == 0`` are counted but not checked.
        """
        g_norm, delta, model_dec, cauchy_dec, hess_bound, step_norm, alpha, gamma1 = (
            np.asarray(trace.column(name))[1:] for name in (
                "g_norm", "delta", "model_dec", "cauchy_dec", "hess_bound", "step_norm",
                "alpha", "gamma1"))
        rows = ~np.isnan(g_norm) & ~np.isnan(delta)
        self.checked += int(np.count_nonzero(rows))
        finite = np.isfinite(model_dec) & np.isfinite(cauchy_dec) & np.isfinite(step_norm)
        self.nonfinite_violations += int(np.count_nonzero(rows & ~finite))
        live = rows & (g_norm != 0.0)

        def count(violated) -> int:
            return int(np.count_nonzero(live & violated))

        margin = model_dec - cauchy_dec
        seen = live & ~np.isnan(margin)
        if seen.any():
            self.worst_cauchy_margin = min(self.worst_cauchy_margin,
                                           float(np.min(margin, where=seen, initial=np.inf)))
        self.cauchy_violations += count(margin < -CAUCHY_TOL)
        # -model(s) >= 0.5 ||g|| min{delta, ||g||/B}; B = 0 degenerates
        # to the delta branch.  The certified bound B only weakens the
        # asserted inequality relative to the true estimate norm.
        bound = np.where(np.isnan(hess_bound), 0.0, hess_bound)
        curved = bound > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.where(curved, np.minimum(delta, g_norm / bound), delta)
            # second Cauchy bound on the reference decrease itself:
            # cauchy_dec >= min{delta ||g|| - delta^2 B / 2, ||g||^2 / (2B)}
            ref2 = np.where(curved,
                            np.minimum(delta * g_norm - 0.5 * delta**2 * bound,
                                       0.5 * g_norm**2 / bound),
                            delta * g_norm)
        self.cauchy_bound_violations += count(model_dec < 0.5 * g_norm * ref - CAUCHY_TOL)
        self.cauchy_second_bound_violations += count(cauchy_dec < ref2 - CAUCHY_TOL)
        self.feasibility_violations += count(step_norm > delta * (1.0 + FEAS_TOL))
        limit = alpha * np.maximum(1.0, gamma1 * g_norm)
        self.steplength_violations += count(step_norm > limit * (1.0 + FEAS_TOL))

    def stats(self) -> dict:
        return {
            "steps_checked": self.checked,
            "cauchy_violations": self.cauchy_violations,
            "cauchy_bound_violations": self.cauchy_bound_violations,
            "cauchy_second_bound_violations": self.cauchy_second_bound_violations,
            "feasibility_violations": self.feasibility_violations,
            "steplength_violations": self.steplength_violations,
            "nonfinite_violations": self.nonfinite_violations,
            "worst_cauchy_margin": None if self.checked == 0 else self.worst_cauchy_margin,
        }


def taylor_violations(traj: Trajectory, grad_lipschitz: float) -> tuple[int, int]:
    """Count violations of the per-step Taylor upper bound.

    f(x_k) <= f(x_{k-1}) + g's + s'Hs/2 + (grad f - g)'s
    + (L_g + B) ||s||^2 / 2 + tol, using the certified Hessian-norm
    bound B in place of the unavailable true estimate norm (which only
    weakens the asserted bound).  Valid wherever ``grad_lipschitz``
    certifies the true Hessian along the step.
    """
    steps = traj.recorded("model_dec")[1:]  # no SG step: no model
    f = traj.column("f")
    prev_f, f = f[:-1][steps], f[1:][steps]
    model_dec, noise_step_dot, hess_bound, step_norm = (
        traj.column(name)[1:][steps]
        for name in ("model_dec", "noise_step_dot", "hess_bound", "step_norm"))
    rhs = (prev_f - model_dec + noise_step_dot
           + 0.5 * (grad_lipschitz + hess_bound) * step_norm**2)
    return int(np.count_nonzero(steps)), int(np.count_nonzero(f > rhs + TAYLOR_TOL))


def cost_accounting_ok(
    traj: Trajectory, mode: str, cg_cap: int = 3, dim: int | None = None
) -> bool:
    """Per-iteration cost increments match the solver's product budget.

    first-order and SG runs cost exactly one unit per iteration;
    Steihaug runs cost 1 + (CG products) <= 1 + cap; exact-solver runs
    cost 1 + dim for the dense materialization.
    """
    inc = np.diff(traj.column("cost_units"))
    if mode == "first-order":
        ok = inc == 1
    elif mode == "steihaug":
        ok = (1 <= inc) & (inc <= 1 + cg_cap)
    elif mode == "exact":
        ok = inc == 1 + (dim or 0)
    else:
        raise ValueError(f"unknown cost mode {mode!r}")
    return bool(np.all(ok))


def seed_mean_and_se(per_seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error across the seed axis (axis 0)."""
    mean = per_seed.mean(axis=0)
    if per_seed.shape[0] > 1:
        se = per_seed.std(axis=0, ddof=1) / np.sqrt(per_seed.shape[0])
    else:
        se = np.zeros_like(mean)
    return mean, se
