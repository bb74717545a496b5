"""The reference the lockstep lanes and the rows solvers are tested against.

``reference_run`` writes the TRish iteration out directly, one point at
a time: draw g and H through ``sample_gradient`` and ``sample_hessian``
(or ``minibatch_draw``), step with ``trish_step`` (or x - alpha g for
SG), and record one ``TRACE_DTYPE`` row.  It has no hooks, no logging
and no stepsize enforcement.  Its Hessian estimates are ``Operator``s
that it builds itself, column by column, so it shares no estimate code
with the library: only the oracles' 1-D ``hvp`` and, for mini-batches,
the plain-``@`` logistic kernels below.

``trish_step`` takes the radius from ||g|| and solves the one
subproblem with ``steihaug_cg`` or ``exact_trs``, the one-point solvers
that ``steihaug_cg_rows`` and ``exact_trs_rows`` equal row by row, bit
for bit.  They share no solver code with the library: only the radius
rule, the Euclidean norm and ``checked_eigh``'s input checks.

``solve_row`` is the other direction: one subproblem through the
library's rows solvers, as a stack of one row.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from trish import (
    ConfigurationError,
    EvaluationError,
    GammaSchedule,
    MiniBatchSampler,
    NumericalError,
    RadiusCase,
    TrishConfig,
    gammas_at,
    radius,
    rng_stream,
)
from trish.core import GRADIENT_STREAM, HESSIAN_STREAM, matvec, norm, row_norms
from trish.optimizer import DIVERGENCE_MARGIN, TRACE_DTYPE, Trajectory
from trish.subproblem import checked_eigh, exact_trs_rows, steihaug_cg_rows

_EPS = float(np.finfo(float).eps)


def sample_gradient(oracle, x, noise, k, alpha_k, rng):
    """Unbiased gradient estimate with the noise model's target variance."""
    g = np.asarray(oracle.grad(x), dtype=float)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite gradient at x = {x!r}")
    variance = noise.gradient_variance(k, alpha_k)
    if variance > 0.0:
        g = g + rng.normal(0.0, np.sqrt(variance / oracle.dim), size=oracle.dim)
    return g


@dataclass(frozen=True)
class Operator:
    """A Hessian estimate at one point: a symmetric linear map of one
    vector, with a certified operator-norm bound."""

    apply: Callable[[np.ndarray], np.ndarray]
    norm_bound: float

    @property
    def is_zero(self):
        """A certified bound of 0 makes this the zero operator, whose
        products the solvers skip."""
        return self.norm_bound == 0.0

    @staticmethod
    def zero(dim):
        return Operator(apply=lambda v: np.zeros(dim), norm_bound=0.0)

    def dense(self, dim):
        """The matrix whose column j is ``apply(e_j)``, one product per
        column (none for the zero operator)."""
        if self.is_zero:
            return np.zeros((dim, dim))
        eye = np.eye(dim)
        return np.column_stack([self.apply(eye[:, j]) for j in range(dim)])


def sample_hessian(oracle, x, noise, rng):
    """The noise model's Hessian estimate at x: the true Hessian scaled by
    tau = min{1, m_h / L_g}, plus for ``perturbed`` one symmetric
    perturbation of operator norm ``perturbation`` drawn from ``rng``,
    the sum re-capped by min{1, m_h / (tau L_g + perturbation)}."""
    n = oracle.dim
    if noise.hessian_kind == "zero":
        return Operator.zero(n)
    if noise.m_h <= 0:
        raise ConfigurationError("exact-capped/perturbed Hessian estimates require m_h > 0")
    tau = min(1.0, noise.m_h / oracle.grad_lipschitz)
    if noise.hessian_kind == "exact-capped":
        return Operator(lambda v: tau * oracle.hvp(x, v), tau * oracle.grad_lipschitz)
    raw = rng.standard_normal((n, n))
    sym = 0.5 * (raw + raw.T)
    sym_norm = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    scale = noise.perturbation
    pert = (scale / sym_norm) * sym if sym_norm > 0.0 and scale > 0.0 else np.zeros((n, n))
    raw_bound = tau * oracle.grad_lipschitz + scale
    recap = min(1.0, noise.m_h / raw_bound)
    return Operator(lambda v: recap * (tau * oracle.hvp(x, v) + pert @ v), recap * raw_bound)


# The logistic kernels written plainly: the masked sigmoid, the logaddexp
# loss, and the curvature recomputed per product.
def masked_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def reference_loss(prob, x, X, y):
    return float(np.mean(np.logaddexp(0.0, -y * (X @ x))) + 0.5 * prob.l2 * x @ x)


def reference_grad(prob, x, X, y):
    weights = -y * masked_sigmoid(-y * (X @ x))
    return X.T @ weights / X.shape[0] + prob.l2 * x


def reference_hvp(prob, x, v, X):
    sig = masked_sigmoid(X @ x)
    curv = sig * (1.0 - sig)
    return X.T @ (curv * (X @ v)) / X.shape[0] + prob.l2 * v


def minibatch_draw(sampler, x, k, rng):
    """One iteration's mini-batch draw at x: ``batch_size`` rows from
    ``rng`` give the gradient estimate and, with ``hessian``, the
    same-batch Hessian estimate, scaled by min{1, m_h / L_g} when
    ``m_h`` is given."""
    prob = sampler.problem
    idx = rng.integers(0, prob.n_samples, size=sampler.batch_size)
    X_b, y_b = prob.X[idx], prob.y[idx]
    g = reference_grad(prob, x, X_b, y_b)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite mini-batch gradient at k={k}, x = {x!r}")
    if not sampler.hessian:
        return g, Operator.zero(prob.dim)
    tau = 1.0 if sampler.m_h is None else min(1.0, sampler.m_h / prob.grad_lipschitz)
    return g, Operator(lambda v: tau * reference_hvp(prob, x, v, X_b),
                       tau * prob.grad_lipschitz)


@dataclass(frozen=True)
class TRStep:
    """A computed trust-region step with its diagnostics.

    ``model_decrease`` is -(g's + 0.5 s'Hs) for the returned step;
    ``cauchy_decrease`` is the same quantity at the Cauchy point.
    ``hessian_products`` counts only the products consumed by the solver
    iteration itself (diagnostic re-evaluations are excluded).
    """

    s: np.ndarray
    delta: float
    case: RadiusCase | None
    model_decrease: float
    cauchy_decrease: float
    cg_iterations: int
    boundary_hit: bool
    upsilon: float | None = None
    hessian_products: int = 0


def _apply(hess, v):
    if isinstance(hess, Operator):
        return hess.apply(v)
    return np.asarray(hess) @ v


def model_value(g, hess, s):
    """Quadratic model g's + 0.5 s'Hs at the step ``s``."""
    return float(g @ s + 0.5 * (s @ _apply(hess, s)))


def _cube(v):
    """``v ** 3``, NaN where it overflows: the Cauchy point is then on the
    boundary."""
    try:
        return v**3
    except OverflowError:
        return math.nan


def cauchy_point(g, hess, delta):
    """Minimizer of the model along -g within the radius (g nonzero).

    Interior whenever ``||g||^3 <= delta * g'Hg`` with positive
    curvature along g; otherwise the boundary point ``-(delta/||g||) g``.
    """
    g_norm = norm(g)
    gHg = float(g @ _apply(hess, g))
    if gHg > 0.0 and _cube(g_norm) <= delta * gHg:
        return -(g_norm**2 / gHg) * g
    return -(delta / g_norm) * g


def _boundary_tau(s, d, delta):
    """Positive root of ||s + tau d|| = delta (s strictly inside)."""
    dd = float(d @ d)
    sd = float(s @ d)
    ss = float(s @ s)
    disc = sd * sd + dd * (delta * delta - ss)
    root = np.sqrt(max(disc, 0.0))
    # stable quadratic root: avoid cancellation when sd > 0
    if sd <= 0.0:
        return (root - sd) / dd
    return (delta * delta - ss) / (sd + root)


@np.errstate(over="ignore", invalid="ignore")  # for an overflowing candidate, see below
def steihaug_cg(g, hess, delta, max_iters=3, residual_tol=1e-10, case=None):
    """Truncated CG on the subproblem, exiting at the boundary on
    negative curvature or radius crossing; ``hess`` is an
    ``Operator``, and one whose norm bound is 0 the zero Hessian."""
    if max_iters < 1:
        raise ConfigurationError("max_iters must be >= 1")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")
    g = np.asarray(g, dtype=float)
    g_norm = norm(g)
    if g_norm == 0.0:
        return TRStep(np.zeros_like(g), delta, case, 0.0, 0.0, 0, False)
    if not math.isfinite(g_norm):
        raise NumericalError(f"non-finite gradient norm ||g|| = {g_norm!r}")

    if hess.is_zero:
        # Linear model: steepest descent straight to the boundary.
        s = -(delta / g_norm) * g
        dec = delta * g_norm
        return TRStep(s, delta, case, dec, dec, 1, True, hessian_products=0)

    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = float(r @ r)
    products = 0
    iters = 0
    boundary = False
    Hg = None

    while iters < max_iters:
        Hd = hess.apply(d)
        products += 1
        if iters == 0:
            Hg = -Hd  # d_0 = -g, so this product doubles as H g
        dHd = float(d @ Hd)
        iters += 1
        if not np.isfinite(dHd):
            raise NumericalError(f"non-finite curvature d'Hd = {dHd!r}")
        if dHd <= 0.0:
            s = s + _boundary_tau(s, d, delta) * d
            boundary = True
            break
        step = rr / dHd
        s_try = s + step * d
        # a tiny dHd overflows the candidate (inf, NaN where d is 0): it is outside
        if not norm(s_try) < delta:
            s = s + _boundary_tau(s, d, delta) * d
            boundary = True
            break
        s = s_try
        r = r - step * Hd
        rr_next = float(r @ r)
        if np.sqrt(rr_next) <= residual_tol * g_norm:
            break
        d = r + (rr_next / rr) * d
        rr = rr_next

    # Reference decrease at the Cauchy point, reusing the first product:
    # the Cauchy point is t*g for a scalar t, so its model value only
    # needs g'Hg.
    gHg = float(g @ Hg)
    if gHg > 0.0 and _cube(g_norm) <= delta * gHg:
        t = -(g_norm**2) / gHg
    else:
        t = -delta / g_norm
    cauchy_dec = -(t * g_norm**2 + 0.5 * t * t * gHg)
    model_dec = -model_value(g, hess, s)  # diagnostic product, not counted
    return TRStep(s, delta, case, model_dec, cauchy_dec, iters, boundary, hessian_products=products)


def exact_trs(g, hess, delta, tol=1e-10):
    """Globally solve the dense trust-region subproblem.

    Eigendecomposition plus a safeguarded Newton iteration on the
    secular equation ``1/||s(u)|| = 1/delta``; the hard case (gradient
    orthogonal to the minimal eigenspace) is resolved by adding a
    null-space component at ``u = -lambda_min`` to reach the boundary.
    Returns the minimizer ``s`` and the multiplier ``u >= 0``.
    """
    H = np.asarray(hess, dtype=float)
    g = np.asarray(g, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != g.shape[0]:
        raise ConfigurationError(f"H must be square and match g, got {H.shape} vs {g.shape}")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")

    w, Q = checked_eigh(H)
    g_norm = norm(g)
    if not math.isfinite(g_norm):
        raise NumericalError(f"non-finite gradient norm ||g|| = {g_norm!r}")
    ghat = Q.T @ g
    lam_min = float(w[0])
    w_scale = max(1.0, float(np.max(np.abs(w))))
    min_block = w <= lam_min + 1e-12 * w_scale

    # Interior candidate: Newton step when H is positive definite.  A
    # tiny lam_min overflows it to inf, which the radius test rejects.
    if lam_min > 0.0:
        with np.errstate(over="ignore"):
            y = -ghat / w
            y_norm = norm(y)
        if y_norm <= delta:
            return Q @ y, 0.0

    lo = max(0.0, -lam_min)

    # Hard case: no component of g in the minimal eigenspace and the
    # pseudo-inverse solution at u = -lambda_min already fits inside.
    if norm(ghat[min_block]) <= 1e-12 * g_norm:
        hard = _hard_case(ghat, w, min_block, delta)
        if hard is not None:
            return Q @ hard[0], hard[1]

    # Boundary root of the secular equation on (lo, hi].
    hi = lo + g_norm / delta + 1.0
    lo_br, hi_br = lo, hi
    ups = 0.5 * (lo_br + hi_br)
    for _ in range(200):
        y = -ghat / (w + ups)
        y_norm = norm(y)
        if abs(y_norm - delta) <= tol * delta:
            return Q @ _onto_sphere(y, delta), ups
        if y_norm == 0.0:
            raise NumericalError("secular equation: ||s|| underflowed to 0")
        phi = 1.0 / y_norm - 1.0 / delta
        if phi < 0.0:
            lo_br = ups
        else:
            hi_br = ups
        if hi_br - lo_br <= 16.0 * _EPS * max(1.0, hi_br):
            # Near-hard case: the bracket collapsed onto -lambda_min before
            # the norm matched.  Drop the minimal-eigenspace coordinates and
            # fill to the boundary along one of them.
            ups = hi_br
            y = np.where(min_block, 0.0, -ghat / (w + ups))
            y_norm = norm(y)
            if y_norm <= delta:
                y[np.argmax(min_block)] += np.sqrt(max(delta**2 - y_norm**2, 0.0))
                return Q @ _onto_sphere(y, delta), ups
        cube = y_norm**3
        if cube == 0.0:
            raise NumericalError("secular equation: the cube of ||s|| underflowed to 0")
        dphi = float(np.sum(ghat**2 / (w + ups) ** 3)) / cube
        cand = ups - phi / dphi if dphi > 0.0 else np.inf
        if not lo_br < cand < hi_br:
            cand = 0.5 * (lo_br + hi_br)
        ups = cand
    raise NumericalError("secular equation did not converge in 200 iterations")


def _hard_case(ghat, w, min_block, delta):
    """``exact_trs``'s hard case in the eigenbasis: ``(y, u)`` with
    u = -lambda_min, or None when the pseudo-inverse solution does not
    fit inside the radius (or H is positive definite)."""
    lam_min = float(w[0])
    denom = w - lam_min
    y = np.zeros_like(ghat)
    y[~min_block] = -ghat[~min_block] / denom[~min_block]
    y_norm = norm(y)
    if y_norm <= delta and lam_min <= 0.0:
        ups = -lam_min
        if ups > 0.0:
            # fill to the boundary along a minimal eigenvector
            y[np.argmax(min_block)] += np.sqrt(max(delta**2 - y_norm**2, 0.0))
            y = _onto_sphere(y, delta)
        return y, ups
    return None


def _onto_sphere(y, delta):
    """Rescale a boundary solution to lie exactly on the radius."""
    y_norm = norm(y)
    return y if y_norm == 0.0 else y * (delta / y_norm)


def trish_step(x, g, hess, alpha, gamma1, gamma2, solver):
    """One TRish update: radius from ||g||, subproblem solve, x + s.

    The exact solver builds H column by column with ``hess.dense``.
    """
    g_norm = norm(g)
    if g_norm == 0.0:
        # radius rule gives delta = 0; the step degenerates to zero
        zero = np.zeros_like(x)
        return x.copy(), TRStep(zero, 0.0, RadiusCase.CASE1, 0.0, 0.0, 0, False)
    delta, case = radius(g_norm, alpha, gamma1, gamma2)
    if solver.kind == "steihaug":
        step = steihaug_cg(g, hess, delta, solver.max_iters, solver.tol, case)
    else:
        n = x.shape[0]
        dense = hess.dense(n)
        s, upsilon = exact_trs(g, dense, delta, solver.tol)
        step = TRStep(
            s=s,
            delta=delta,
            case=case,
            model_decrease=-model_value(g, dense, s),
            cauchy_decrease=-model_value(g, dense, cauchy_point(g, dense, delta)),
            cg_iterations=0,
            boundary_hit=bool(upsilon > 0.0 or norm(s) >= delta * (1.0 - 1e-12)),
            upsilon=float(upsilon),
            # dense materialization: n products, none for a zero estimate
            hessian_products=0 if hess.is_zero else n,
        )
    return x + step.s, step


def solve_row(g, H, delta, exact=False, **options):
    """One subproblem through the library's rows solvers, as a one-row stack.

    ``steihaug_cg_rows`` takes ``H`` as a matrix, as ``hvp(rows, V)``
    itself, or None for the zero Hessian; with ``exact``,
    ``exact_trs_rows`` takes the matrix and its ``checked_eigh``.
    Returns the row's outputs: ``(s, model_dec, cauchy_dec, iters)``, or
    ``(s, u, model_dec, cauchy_dec)`` with ``exact``.
    """
    G = np.array(g, dtype=float)[None]
    g_norm, radii = row_norms(G), np.array([float(delta)])
    if exact:
        H = np.asarray(H, dtype=float)
        out = exact_trs_rows(G, g_norm, radii, H, checked_eigh(H), **options)
    else:
        hvp = H
        if H is not None and not callable(H):
            M = np.asarray(H, dtype=float)
            hvp = lambda rows, V: matvec(M, V)  # noqa: E731
        out = steihaug_cg_rows(G, g_norm, radii, hvp, **options)
    s, *rest = out
    return (s[0], *(v[0].item() for v in rest))


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
    sampled = isinstance(source, MiniBatchSampler)
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
        if sampled:
            g, hess = minibatch_draw(source, x, k, grad_rng)
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
