"""Trust-region radius rule and subproblem solvers.

The radius is driven purely by the sampled gradient norm through a
three-case rule; subproblems are solved either by a capped Steihaug-CG
iteration (matrix-free, at-least-Cauchy-decrease) or by an exact dense
solver with a KKT-certifying multiplier.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from typing import Callable

from .core import (
    Array,
    ConfigurationError,
    HessianEstimate,
    NumericalError,
    ZeroGradientError,
    libm_pow,
    rowdot,
)


class RadiusCase(enum.IntEnum):
    """Which branch of the radius rule fired, keyed by the gradient norm."""

    CASE1 = 1  # ||g|| in [0, 1/gamma1)
    CASE2 = 2  # ||g|| in [1/gamma1, 1/gamma2]
    CASE3 = 3  # ||g|| in (1/gamma2, inf)


@dataclass(frozen=True)
class TRStep:
    """A computed trust-region step with its diagnostics.

    ``model_decrease`` is -(g's + 0.5 s'Hs) for the returned step;
    ``cauchy_decrease`` is the same quantity at the Cauchy point, the
    reference any acceptable step must match or beat.
    ``hessian_products`` counts only the products consumed by the solver
    iteration itself (diagnostic re-evaluations are excluded, matching
    the cost-accounting convention of the optimizer).
    """

    s: Array
    delta: float
    case: RadiusCase | None
    model_decrease: float
    cauchy_decrease: float
    cg_iterations: int
    boundary_hit: bool
    upsilon: float | None = None
    hessian_products: int = 0


def radius(g_norm: float, alpha: float, gamma1: float, gamma2: float) -> tuple[float, RadiusCase]:
    """Trust-region radius from the gradient norm.

    Returns ``gamma1 * alpha * g_norm`` below the first breakpoint
    ``1/gamma1``, ``alpha`` on the closed middle interval, and
    ``gamma2 * alpha * g_norm`` above ``1/gamma2``.  Breakpoint ties go
    to the middle case; the induced steplength is continuous in
    ``g_norm``.
    """
    if not 0.0 < gamma2 <= gamma1:
        raise ConfigurationError(f"need 0 < gamma2 <= gamma1, got {gamma1=} {gamma2=}")
    if alpha <= 0.0:
        raise ConfigurationError("stepsize alpha must be positive")
    if g_norm < 1.0 / gamma1:
        return gamma1 * alpha * g_norm, RadiusCase.CASE1
    if g_norm <= 1.0 / gamma2:
        return alpha, RadiusCase.CASE2
    return gamma2 * alpha * g_norm, RadiusCase.CASE3


def radius_rows(g_norm: Array, alpha, gamma1, gamma2) -> tuple[Array, Array]:
    """``radius`` over arrays of gradient norms (and per-row parameters).

    Returns the radii and the case numbers; each row equals the scalar
    rule bit for bit.  Parameters are not validated here.
    """
    case1 = g_norm < 1.0 / gamma1
    case2 = g_norm <= 1.0 / gamma2
    delta = np.where(case1, gamma1 * alpha * g_norm,
                     np.where(case2, alpha, gamma2 * alpha * g_norm))
    case = np.where(case1, 1, np.where(case2, 2, 3))
    return delta, case


def _apply(hess: HessianEstimate | Array, v: Array) -> Array:
    if isinstance(hess, HessianEstimate):
        return hess.apply(v)
    return np.asarray(hess) @ v


def model_value(g: Array, hess: HessianEstimate | Array, s: Array) -> float:
    """Quadratic model g's + 0.5 s'Hs at the step ``s``."""
    return float(g @ s + 0.5 * (s @ _apply(hess, s)))


def cauchy_point(g: Array, hess: HessianEstimate | Array, delta: float) -> Array:
    """Minimizer of the model along -g within the radius.

    Interior whenever ``||g||^3 <= delta * g'Hg`` with positive
    curvature along g; otherwise the boundary point ``-(delta/||g||) g``.
    """
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        raise ZeroGradientError("Cauchy point undefined for g = 0; caller must short-circuit")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")
    gHg = float(g @ _apply(hess, g))
    if gHg > 0.0 and g_norm**3 <= delta * gHg:
        return -(g_norm**2 / gHg) * g
    return -(delta / g_norm) * g


def _boundary_tau(s: Array, d: Array, delta: float) -> float:
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


def _boundary_tau_rows(s: Array, d: Array, delta: Array) -> Array:
    """``_boundary_tau`` row by row, bit for bit."""
    dd = rowdot(d, d)
    sd = rowdot(s, d)
    ss = rowdot(s, s)
    disc = sd * sd + dd * (delta * delta - ss)
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))  # max(disc, 0.0), NaN kept
    return np.where(sd <= 0.0, (root - sd) / dd, (delta * delta - ss) / (sd + root))


def _curvature_error(dHd, delta) -> NumericalError:
    return NumericalError(
        f"non-finite curvature d'Hd = {dHd!r} in Steihaug-CG (delta={delta!r})")


@np.errstate(over="ignore", invalid="ignore")  # for an overflowing candidate, see below
def steihaug_cg(
    g: Array,
    hess: HessianEstimate,
    delta: float,
    max_iters: int = 3,
    residual_tol: float = 1e-10,
    case: RadiusCase | None = None,
) -> TRStep:
    """Truncated CG on the subproblem, exiting at the boundary on
    negative curvature or radius crossing.

    The first iterate coincides with the Cauchy point along -g, so the
    returned step always attains at least Cauchy decrease; subsequent
    iterations only improve the model.  The iteration cap bounds the
    per-step cost (one Hessian product per iteration; none at all for a
    zero Hessian estimate).
    """
    if max_iters < 1:
        raise ConfigurationError("max_iters must be >= 1")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")
    g = np.asarray(g, dtype=float)
    g_norm = float(np.linalg.norm(g))
    if g_norm == 0.0:
        zero = np.zeros_like(g)
        return TRStep(zero, delta, case, 0.0, 0.0, 0, False)

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
    Hg: Array | None = None

    while iters < max_iters:
        Hd = hess.apply(d)
        products += 1
        if iters == 0:
            Hg = -Hd  # d_0 = -g, so this product doubles as H g
        dHd = float(d @ Hd)
        iters += 1
        if not np.isfinite(dHd):
            raise _curvature_error(dHd, delta)
        if dHd <= 0.0:
            s = s + _boundary_tau(s, d, delta) * d
            boundary = True
            break
        step = rr / dHd
        s_try = s + step * d
        # a tiny dHd overflows the candidate (inf, NaN where d is 0): it is
        # outside; sqrt(s @ s) is np.linalg.norm's arithmetic, bit for bit
        if not math.sqrt(float(s_try @ s_try)) < delta:
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
    assert Hg is not None
    gHg = float(g @ Hg)
    if gHg > 0.0 and g_norm**3 <= delta * gHg:
        t = -(g_norm**2) / gHg
    else:
        t = -delta / g_norm
    cauchy_dec = -(t * g_norm**2 + 0.5 * t * t * gHg)
    model_dec = -model_value(g, hess, s)  # diagnostic product, not counted
    return TRStep(s, delta, case, model_dec, cauchy_dec, iters, boundary, hessian_products=products)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def steihaug_cg_rows(
    G: Array,
    g_norm: Array,
    delta: Array,
    hvp: Callable[[Array, Array], Array] | None,
    max_iters: int = 3,
    residual_tol: float = 1e-10,
) -> tuple[Array, Array, Array, Array]:
    """``steihaug_cg`` on S independent row-stacked subproblems at once.

    ``hvp(rows, V)`` returns the Hessian products of the subproblems
    listed in ``rows`` with the rows of ``V``; ``None`` is the zero
    Hessian.  Rows still iterating are tracked by index, so the cap
    bounds the number of sweeps.  Returns the steps and the per-row
    model decrease, Cauchy decrease and CG iterations; each row equals
    the scalar solver's bit for bit (rows with ``g_norm == 0`` get the
    zero step and zero decreases, as ``trish_step`` gives them).
    Hessian products consumed equal the iterations unless ``hvp`` is
    ``None``.
    """
    steps = np.zeros_like(G)
    model_dec = np.zeros(G.shape[0])
    cauchy_dec = np.zeros(G.shape[0])
    iters = np.zeros(G.shape[0], dtype=np.int64)
    live = np.flatnonzero(g_norm != 0.0)
    g, gn, dl = G[live], g_norm[live], delta[live]
    if hvp is None or live.size == 0:
        # Linear model: steepest descent straight to the boundary.
        steps[live] = -(dl / gn)[:, None] * g
        model_dec[live] = cauchy_dec[live] = dl * gn
        iters[live] = 1
        return steps, model_dec, cauchy_dec, iters

    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = rowdot(r, r)
    it = np.zeros(live.size, dtype=np.int64)
    act = np.arange(live.size)  # rows still iterating, as positions in live
    Hg = None
    for sweep in range(max_iters):
        if act.size == 0:
            break
        da = d[act]
        Hd = hvp(live[act], da)
        if sweep == 0:
            Hg = -Hd  # d_0 = -g, so this product doubles as H g
        dHd = rowdot(da, Hd)
        it[act] += 1
        if not np.all(np.isfinite(dHd)):
            bad = int(np.argmin(np.isfinite(dHd)))
            raise _curvature_error(float(dHd[bad]), float(dl[act[bad]]))
        step = rr[act] / dHd
        s_try = s[act] + step[:, None] * da
        hit = (dHd <= 0.0) | ~(np.sqrt(rowdot(s_try, s_try)) < dl[act])  # NaN: outside
        if hit.any():
            h = act[hit]
            s[h] = s[h] + _boundary_tau_rows(s[h], d[h], dl[h])[:, None] * d[h]
        inner = ~hit
        a = act[inner]
        s[a] = s_try[inner]
        ra = r[a] - step[inner, None] * Hd[inner]
        r[a] = ra
        rr_next = rowdot(ra, ra)
        more = ~(np.sqrt(rr_next) <= residual_tol * gn[a])
        a = a[more]
        d[a] = ra[more] + (rr_next[more] / rr[a])[:, None] * d[a]
        rr[a] = rr_next[more]
        act = a

    # Reference decrease at the Cauchy point from the first product.
    gHg = rowdot(g, Hg)
    gn2 = libm_pow(gn, 2)
    interior = (gHg > 0.0) & (libm_pow(gn, 3) <= dl * gHg)
    t = np.where(interior, -gn2 / gHg, -dl / gn)
    cauchy_dec[live] = -(t * gn2 + 0.5 * t * t * gHg)
    model_dec[live] = -(rowdot(g, s) + 0.5 * rowdot(s, hvp(live, s)))
    steps[live] = s
    iters[live] = it
    return steps, model_dec, cauchy_dec, iters


@dataclass
class EighMemo:
    """The last matrix one run decomposed, and its ``np.linalg.eigh``.

    ``exact_trs`` reuses ``eig`` while the matrix it is given equals
    ``matrix`` exactly (``np.array_equal``, so a NaN matrix never does)
    and decomposes afresh otherwise.  One memo per run: it is not shared.
    """

    matrix: Array | None = None
    eig: tuple[Array, Array] | None = None


def exact_trs(
    g: Array, hess: Array, delta: float, tol: float = 1e-10, memo: EighMemo | None = None
) -> tuple[Array, float]:
    """Globally solve the dense trust-region subproblem.

    Eigendecomposition plus a safeguarded Newton iteration on the
    secular equation ``1/||s(u)|| = 1/delta``; the hard case (gradient
    orthogonal to the minimal eigenspace) is resolved by adding a
    null-space component at ``u = -lambda_min`` to reach the boundary.

    Returns the minimizer ``s`` and the multiplier ``u >= 0`` satisfying
    ``g + (H + u I) s = 0``, ``H + u I`` positive semidefinite and
    ``u * (delta - ||s||) = 0`` to within ``tol``.  With a ``memo`` the
    eigendecomposition of an unchanged ``hess`` is reused; the result is
    the same bit for bit.  The finiteness and symmetry checks run on
    each matrix the memo does not hold (a memo hit is bit-equal to a
    matrix that passed them), before any decomposition.

    Dense path, intended for small dimensions (n <= ~500).
    """
    H = np.asarray(hess, dtype=float)
    g = np.asarray(g, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != g.shape[0]:
        raise ConfigurationError(f"H must be square and match g, got {H.shape} vs {g.shape}")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")

    if memo is not None and memo.eig is not None and np.array_equal(H, memo.matrix):
        w, Q = memo.eig
    else:
        h_scale = float(np.max(np.abs(H))) if H.size else 0.0
        if not math.isfinite(h_scale):
            raise NumericalError(f"non-finite Hessian entry (max |H| = {h_scale!r}) in exact_trs")
        asym = float(np.max(np.abs(H - H.T))) if H.size else 0.0
        if asym > 1e-12 * max(1.0, h_scale):
            raise ConfigurationError(f"H is not symmetric (max asymmetry {asym:.3e})")
        w, Q = np.linalg.eigh(H)
        if memo is not None:
            memo.matrix, memo.eig = H.copy(), (w, Q)
    ghat = Q.T @ g
    lam_min = float(w[0])
    w_scale = max(1.0, float(np.max(np.abs(w))))
    min_block = w <= lam_min + 1e-12 * w_scale
    g_norm = float(np.linalg.norm(g))

    # Interior candidate: Newton step when H is positive definite.  A
    # tiny lam_min overflows it to inf, which the radius test rejects.
    if lam_min > 0.0:
        with np.errstate(over="ignore"):
            y = -ghat / w
            y_norm = math.sqrt(float(y @ y))  # np.linalg.norm(y), bit for bit
        if y_norm <= delta:
            return Q @ y, 0.0

    lo = max(0.0, -lam_min)

    # Hard case: no component of g in the minimal eigenspace and the
    # pseudo-inverse solution at u = -lambda_min already fits inside.
    if float(np.linalg.norm(ghat[min_block])) <= 1e-12 * g_norm:
        denom = w - lam_min
        y = np.zeros_like(ghat)
        y[~min_block] = -ghat[~min_block] / denom[~min_block]
        y_norm = float(np.linalg.norm(y))
        if y_norm <= delta and lam_min <= 0.0:
            ups = -lam_min
            if ups > 0.0:
                # fill to the boundary along a minimal eigenvector
                y[np.argmax(min_block)] += np.sqrt(max(delta**2 - y_norm**2, 0.0))
                y = _onto_sphere(y, delta)
            return Q @ y, ups

    # Boundary root of the secular equation on (lo, hi].
    def y_of(ups: float) -> Array:
        return -ghat / (w + ups)

    hi = lo + g_norm / delta + 1.0
    lo_br, hi_br = lo, hi
    ups = 0.5 * (lo_br + hi_br)
    for _ in range(200):
        y = y_of(ups)
        y_norm = float(np.linalg.norm(y))
        if abs(y_norm - delta) <= tol * delta:
            return Q @ _onto_sphere(y, delta), ups
        phi = 1.0 / y_norm - 1.0 / delta
        if phi < 0.0:
            lo_br = ups
        else:
            hi_br = ups
        if hi_br - lo_br <= 16.0 * np.finfo(float).eps * max(1.0, hi_br):
            # Near-hard case: the bracket collapsed onto -lambda_min
            # before the norm matched.  Drop the minimal-eigenspace
            # coordinates and fill to the boundary along one of them.
            ups = hi_br
            y = np.where(min_block, 0.0, -ghat / (w + ups))
            y_norm = float(np.linalg.norm(y))
            if y_norm <= delta:
                y[np.argmax(min_block)] += np.sqrt(max(delta**2 - y_norm**2, 0.0))
                return Q @ _onto_sphere(y, delta), ups
        dphi = float(np.sum(ghat**2 / (w + ups) ** 3)) / y_norm**3
        cand = ups - phi / dphi if dphi > 0.0 else np.inf
        if not lo_br < cand < hi_br:
            cand = 0.5 * (lo_br + hi_br)
        ups = cand
    raise NumericalError(
        f"secular equation did not converge in 200 iterations "
        f"(delta={delta:.3e}, bracket=[{lo_br:.6e}, {hi_br:.6e}], |s|={y_norm:.6e})"
    )


def _onto_sphere(y: Array, delta: float) -> Array:
    """Rescale a boundary solution to lie exactly on the radius.

    The secular iteration stops at relative tolerance ``tol``; the final
    rescale restores exact feasibility and complementarity at an
    O(tol) perturbation of stationarity.
    """
    norm = float(np.linalg.norm(y))
    return y if norm == 0.0 else y * (delta / norm)


def kkt_residuals(
    g: Array, hess: Array, delta: float, s: Array, upsilon: float
) -> tuple[float, float, float]:
    """Residuals of the global-optimality system for a candidate (s, u).

    Returns (stationarity, psd_margin, complementarity):
    ``||g + (H + u I) s||``, ``lambda_min(H + u I)`` and
    ``|u * (delta - ||s||)|``.
    """
    H = np.asarray(hess, dtype=float)
    stationarity = float(np.linalg.norm(g + H @ s + upsilon * s))
    psd_margin = float(np.linalg.eigvalsh(H)[0] + upsilon)
    complementarity = float(abs(upsilon * (delta - np.linalg.norm(s))))
    return stationarity, psd_margin, complementarity
