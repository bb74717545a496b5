"""Per-step contract checks evaluated on recorded lane runs.

Every trust-region step a run records must satisfy the feasibility,
Cauchy-decrease, and steplength contracts; on problems with a certified
gradient-Lipschitz constant the per-step Taylor upper bound is also
assertable.  Suites pass their ``LaneRun``s whole through these checks,
which read the (K+1, S) columns over each lane's recorded rows, so the
acceptance gate can report zero violations over everything that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..optimizer import LaneRun

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

    def update(self, run: LaneRun) -> None:
        """Check every TRish step each lane of ``run`` recorded.

        SG steps solve no subproblem and are not checked; steps with
        ``g_norm == 0`` are counted but not checked.
        """
        g_norm, delta, model_dec, cauchy_dec, hess_bound, step_norm, alpha, gamma1 = (
            run.column(name)[1:] for name in (
                "g_norm", "delta", "model_dec", "cauchy_dec", "hess_bound", "step_norm",
                "alpha", "gamma1"))
        rows = _subproblem_steps(run)
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
        curved = hess_bound > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.where(curved, np.minimum(delta, g_norm / hess_bound), delta)
            # second Cauchy bound on the reference decrease itself:
            # cauchy_dec >= min{delta ||g|| - delta^2 B / 2, ||g||^2 / (2B)}
            ref2 = np.where(curved,
                            np.minimum(delta * g_norm - 0.5 * delta**2 * hess_bound,
                                       0.5 * g_norm**2 / hess_bound),
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


def _recorded_steps(run: LaneRun) -> np.ndarray:
    """(K, S) mask of the steps each lane recorded: entry (k - 1, i) for
    iteration k of lane i, up to the row where its divergence guard
    stopped it."""
    return np.arange(1, run.column("f").shape[0])[:, None] < run.rows


def _subproblem_steps(run: LaneRun) -> np.ndarray:
    """``_recorded_steps`` of a TRish run; none of an SG run, whose steps
    solve no subproblem."""
    return _recorded_steps(run) & (run.algorithm != "sg")


def taylor_violations(run: LaneRun, grad_lipschitz: float) -> tuple[int, int]:
    """Count the steps checked and the violations of the per-step Taylor
    upper bound over every lane of ``run``.

    f(x_k) <= f(x_{k-1}) + g's + s'Hs/2 + (grad f - g)'s
    + (L_g + B) ||s||^2 / 2 + tol, using the certified Hessian-norm
    bound B in place of the unavailable true estimate norm (which only
    weakens the asserted bound).  Valid wherever ``grad_lipschitz``
    certifies the true Hessian along the step.
    """
    steps = _subproblem_steps(run)  # no SG step: no model
    f = run.column("f")
    prev_f, f = f[:-1][steps], f[1:][steps]
    model_dec, noise_step_dot, hess_bound, step_norm = (
        run.column(name)[1:][steps]
        for name in ("model_dec", "noise_step_dot", "hess_bound", "step_norm"))
    rhs = (prev_f - model_dec + noise_step_dot
           + 0.5 * (grad_lipschitz + hess_bound) * step_norm**2)
    return int(np.count_nonzero(steps)), int(np.count_nonzero(f > rhs + TAYLOR_TOL))


def cost_accounting_ok(run: LaneRun) -> bool:
    """Whether every recorded iteration of every lane cost one unit for
    its stochastic gradient plus the Hessian products its step may
    consume, read off the run's own columns and configs: none for a zero
    sampled gradient or a zero estimate (``hess_bound == 0``, which
    every SG step records); n for an exact solve (the dense
    materialization); 1 to the CG cap ``solver.max_iters`` for Steihaug.
    """
    products = np.diff(run.column("cost_units"), axis=0) - 1
    free = (run.column("g_norm")[1:] == 0.0) | (run.column("hess_bound")[1:] == 0.0)
    solver = run.configs[0].solver  # the lanes share it
    if solver.kind == "exact":
        charged = products == run.final_x.shape[1]
    else:
        charged = (1 <= products) & (products <= solver.max_iters)
    return bool(np.all(np.where(free, products == 0, charged)[_recorded_steps(run)]))


def seed_mean_and_se(per_seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error across the seed axis (axis 0).  Where a
    seed holds +inf (a lane that stopped), the mean is +inf and the SE
    NaN; a deviation whose square overflows gives an SE of +inf.  Neither
    warns."""
    mean = per_seed.mean(axis=0)
    if per_seed.shape[0] > 1:
        with np.errstate(invalid="ignore", over="ignore"):
            se = per_seed.std(axis=0, ddof=1) / np.sqrt(per_seed.shape[0])
    else:
        se = np.zeros_like(mean)
    return mean, se
