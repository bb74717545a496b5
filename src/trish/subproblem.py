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
    matvec,
    norm,
    rowdot,
)


_EPS = float(np.finfo(float).eps)


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
    g_norm = norm(g)
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
    g_norm = norm(g)
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
    Hessian.  Returns the steps and the per-row model decrease, Cauchy
    decrease and CG iterations; each row equals the scalar solver's bit
    for bit (rows with ``g_norm == 0`` get the zero step and zero
    decreases, as ``trish_step`` gives them).  Hessian products
    consumed equal the iterations unless ``hvp`` is ``None``.
    """
    live = g_norm != 0.0
    if live.all():
        return _steihaug_live_rows(G, g_norm, delta, np.arange(G.shape[0]), hvp,
                                   max_iters, residual_tol)
    # the zero-gradient rows keep zeros; the others are solved as one stack
    rows = np.flatnonzero(live)
    out = (np.zeros_like(G), np.zeros(G.shape[0]), np.zeros(G.shape[0]),
           np.zeros(G.shape[0], dtype=np.int64))
    if rows.size:
        solved = _steihaug_live_rows(G[rows], g_norm[rows], delta[rows], rows, hvp,
                                     max_iters, residual_tol)
        for full, part in zip(out, solved):
            full[rows] = part
    return out


def _steihaug_live_rows(g, gn, dl, rows, hvp, max_iters, residual_tol):
    """``steihaug_cg_rows`` on rows that all have a nonzero gradient.

    Each sweep runs over every row: it takes the product of every row's
    direction and commits the update of each row still iterating through
    row masks, so a stopped row's stale values are computed and discarded
    (its curvature is never checked).  The sweeps end once no row
    iterates, after at most ``max_iters``.
    """
    if hvp is None:
        # Linear model: steepest descent straight to the boundary.
        dec = dl * gn
        return -(dl / gn)[:, None] * g, dec, dec, np.ones(gn.size, dtype=np.int64)

    s = np.zeros_like(g)
    r = -g
    d = r
    rr = rowdot(r, r)
    it = np.zeros(gn.size, dtype=np.int64)
    act = np.ones(gn.size, dtype=bool)  # rows still iterating
    Hg = None
    for sweep in range(max_iters):
        Hd = hvp(rows, d)
        if sweep == 0:
            Hg = -Hd  # d_0 = -g, so this product doubles as H g
        dHd = rowdot(d, Hd)
        it += act
        bad = act & ~np.isfinite(dHd)
        if np.count_nonzero(bad):
            i = int(np.argmax(bad))
            raise _curvature_error(float(dHd[i]), float(dl[i]))
        step = (rr / dHd)[:, None]
        s_try = s + step * d
        # dHd is finite on the rows still iterating, so there dHd > 0 negates dHd <= 0
        inner = act & (dHd > 0.0) & (np.sqrt(rowdot(s_try, s_try)) < dl)  # NaN: outside
        hit = act ^ inner
        if np.count_nonzero(hit):
            np.copyto(s, s + _boundary_tau_rows(s, d, dl)[:, None] * d, where=hit[:, None])
        if not np.count_nonzero(inner):
            break
        np.copyto(s, s_try, where=inner[:, None])
        r = r - step * Hd
        rr_next = rowdot(r, r)
        act = inner & ~(np.sqrt(rr_next) <= residual_tol * gn)
        if not np.count_nonzero(act):
            break
        d = r + (rr_next / rr)[:, None] * d
        rr = rr_next

    # Reference decrease at the Cauchy point from the first product.
    gHg = rowdot(g, Hg)
    gn2 = libm_pow(gn, 2)
    interior = (gHg > 0.0) & (libm_pow(gn, 3) <= dl * gHg)
    t = np.where(interior, -gn2 / gHg, -dl / gn)
    cauchy_dec = -(t * gn2 + 0.5 * t * t * gHg)
    model_dec = -(rowdot(g, s) + 0.5 * rowdot(s, hvp(rows, s)))
    return s, model_dec, cauchy_dec, it


def checked_eigh(H: Array) -> tuple[Array, Array]:
    """``np.linalg.eigh`` of one dense Hessian estimate or of an (S, n, n)
    stack, in one call.

    Each matrix must be finite and symmetric to within 1e-12 relative to
    its largest entry: the first that is not raises ``NumericalError``
    or ``ConfigurationError``, before any decomposition.
    """
    h_scale = np.max(np.abs(H), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(H - H.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    bad = ~np.isfinite(h_scale) | (asym > 1e-12 * np.maximum(1.0, h_scale))
    if np.any(bad):
        i = int(np.argmax(bad))
        scale, a = float(np.ravel(h_scale)[i]), float(np.ravel(asym)[i])
        if not math.isfinite(scale):
            raise NumericalError(f"non-finite Hessian entry (max |H| = {scale!r}) in exact_trs")
        raise ConfigurationError(f"H is not symmetric (max asymmetry {a:.3e})")
    return np.linalg.eigh(H)


def exact_trs(g: Array, hess: Array, delta: float, tol: float = 1e-10) -> tuple[Array, float]:
    """Globally solve the dense trust-region subproblem.

    Eigendecomposition plus a safeguarded Newton iteration on the
    secular equation ``1/||s(u)|| = 1/delta``; the hard case (gradient
    orthogonal to the minimal eigenspace) is resolved by adding a
    null-space component at ``u = -lambda_min`` to reach the boundary.

    Returns the minimizer ``s`` and the multiplier ``u >= 0`` satisfying
    ``g + (H + u I) s = 0``, ``H + u I`` positive semidefinite and
    ``u * (delta - ||s||) = 0`` to within ``tol``.  ``exact_trs_rows``
    solves many subproblems at once, each bit for bit as here.

    Dense path, intended for small dimensions (n <= ~500).
    """
    H = np.asarray(hess, dtype=float)
    g = np.asarray(g, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] != g.shape[0]:
        raise ConfigurationError(f"H must be square and match g, got {H.shape} vs {g.shape}")
    if delta <= 0.0:
        raise ConfigurationError("delta must be positive")

    w, Q = checked_eigh(H)
    ghat = Q.T @ g
    lam_min = float(w[0])
    w_scale = max(1.0, float(np.max(np.abs(w))))
    min_block = w <= lam_min + 1e-12 * w_scale
    g_norm = norm(g)

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
    def dphi_sum(u: float) -> float:
        return float(np.sum(ghat**2 / (w + u) ** 3))

    hi = lo + g_norm / delta + 1.0
    lo_br, hi_br = lo, hi
    ups = 0.5 * (lo_br + hi_br)
    for _ in range(200):
        y = -ghat / (w + ups)
        y_norm = norm(y)
        if abs(y_norm - delta) <= tol * delta:
            return Q @ _onto_sphere(y, delta), ups
        ups, lo_br, hi_br, y_norm, fill = _secular_update(
            ghat, w, min_block, delta, ups, lo_br, hi_br, y_norm, dphi_sum)
        if fill is not None:
            return Q @ fill, ups
    raise _divergence_error(delta, lo_br, hi_br, y_norm)


def _hard_case(ghat: Array, w: Array, min_block: Array, delta: float):
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


def _secular_update(ghat, w, min_block, delta, ups, lo_br, hi_br, y_norm, dphi_sum):
    """One safeguarded Newton update of ``exact_trs``'s secular iteration
    after an unmatched norm ``y_norm`` at ``ups``, in Python floats;
    ``dphi_sum(u)`` is ``sum(ghat**2 / (w + u)**3)``.

    Returns ``(ups, lo_br, hi_br, y_norm, fill)``: the next iterate's
    state, with ``fill`` None, or, when the bracket collapsed onto
    -lambda_min, the near-hard ``fill`` that ends the solve at ``ups``.
    """
    if y_norm == 0.0:
        raise _underflow_error(delta, ups)
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
            return ups, lo_br, hi_br, y_norm, _onto_sphere(y, delta)
    cube = y_norm**3
    if cube == 0.0:
        raise _underflow_error(delta, ups)
    dphi = dphi_sum(ups) / cube
    cand = ups - phi / dphi if dphi > 0.0 else np.inf
    if not lo_br < cand < hi_br:
        cand = 0.5 * (lo_br + hi_br)
    return cand, lo_br, hi_br, y_norm, None


def _underflow_error(delta, ups) -> NumericalError:
    return NumericalError(
        f"secular equation: ||s|| or its cube underflowed to 0 at u = {ups:.6e} "
        f"(delta={delta:.3e}); the radius is too small for the gradient's scale")


def _divergence_error(delta, lo_br, hi_br, y_norm) -> NumericalError:
    return NumericalError(
        f"secular equation did not converge in 200 iterations "
        f"(delta={delta:.3e}, bracket=[{lo_br:.6e}, {hi_br:.6e}], |s|={y_norm:.6e})")


def _onto_sphere(y: Array, delta: float) -> Array:
    """Rescale a boundary solution to lie exactly on the radius.

    The secular iteration stops at relative tolerance ``tol``; the final
    rescale restores exact feasibility and complementarity at an
    O(tol) perturbation of stationarity.
    """
    y_norm = norm(y)
    return y if y_norm == 0.0 else y * (delta / y_norm)


def _onto_sphere_rows(Y: Array, y_norm: Array, delta: Array) -> Array:
    """``_onto_sphere`` on rows with the given norms, bit for bit (a zero
    row is multiplied by 1.0, which keeps it as it is)."""
    return Y * np.where(y_norm == 0.0, 1.0, delta / y_norm)[:, None]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def exact_trs_rows(
    G: Array,
    g_norm: Array,
    delta: Array,
    H: Array,
    eig: tuple[Array, Array],
    tol: float = 1e-10,
) -> tuple[Array, Array, Array, Array]:
    """``exact_trs`` on S independent row-stacked subproblems at once.

    ``H`` is one (n, n) matrix every row shares or an (S, n, n) stack,
    and ``eig`` its ``checked_eigh``: the matching pair, or stacks.
    Returns the steps, the multipliers, and the model decrease and
    Cauchy decrease ``trish_step`` records for an exact step.  Each row
    takes the branches and iterations its scalar solve takes and equals
    it bit for bit; an error raises the class ``exact_trs`` raises on
    a failing row.  Rows with ``g_norm == 0`` get the zero step, zero
    decreases and a NaN multiplier, as ``trish_step`` records them
    (their matrices are not read, nor is ``H`` if every row is zero).
    """
    live = g_norm != 0.0
    if live.all():
        return _exact_live_rows(G, g_norm, delta, H, eig, tol)
    rows = np.flatnonzero(live)
    S = G.shape[0]
    out = (np.zeros_like(G), np.full(S, np.nan), np.zeros(S), np.zeros(S))
    if rows.size:
        if H.ndim == 3:
            H, eig = H[rows], (eig[0][rows], eig[1][rows])
        solved = _exact_live_rows(G[rows], g_norm[rows], delta[rows], H, eig, tol)
        for full, part in zip(out, solved):
            full[rows] = part
    return out


def _exact_live_rows(G, gn, dl, H, eig, tol):
    """``exact_trs_rows`` on rows that all have a nonzero gradient.

    The O(n) work of each secular sweep (the candidate y(u), its norm
    and the Newton derivative's sum) is one stacked computation over
    every row; each row still iterating then takes ``exact_trs``'s
    update in Python floats, and a row leaves the sweeps at the return
    its scalar solve reaches.  The rare hard and near-hard cases run
    ``exact_trs``'s own code on their row.
    """
    gn_, dl_ = gn.tolist(), dl.tolist()
    if any(d <= 0.0 for d in dl_):
        raise ConfigurationError("delta must be positive")
    w, Q = eig
    S, n = G.shape
    w = w.reshape(-1, n)  # one eigenvalue row per subproblem, or one all share
    m = len(w)
    ghat = matvec(Q.swapaxes(-1, -2), G)
    neg = -ghat
    # eigh sorts w ascending, so max |w| is at an end and the minimal
    # block (w <= lam + 1e-12 max(1, max |w|)) is a prefix
    lam = w[:, 0].tolist()
    big = [max(abs(a), abs(b)) for a, b in zip(lam, w[:, -1].tolist())]
    low = w <= np.array([x + 1e-12 * max(1.0, c) for x, c in zip(lam, big)])[:, None]
    single = (~low[:, 1] if n > 1 else low[:, 0]).tolist()  # the block is w[0] alone
    lam, single = lam * (S // m), single * (S // m)
    ghat_rows, w_rows, low_rows = list(ghat), list(w) * (S // m), list(low) * (S // m)

    Y = neg / w  # the interior candidates; each row is overwritten unless it is one
    y_norm = np.sqrt(rowdot(Y, Y)).tolist()
    ups = [0.0] * S
    # the rows the secular sweeps solve, with u and the bracket [lo, hi]
    act, u, lo, hi = [], [0.0] * S, [0.0] * S, [0.0] * S
    for i in range(S):
        if lam[i] > 0.0 and y_norm[i] <= dl_[i]:
            continue
        # ||ghat over the minimal block||: for a one-entry block, sqrt(ghat_0^2)
        g0 = float(ghat[i, 0])
        block = math.sqrt(g0 * g0) if single[i] else norm(ghat_rows[i][low_rows[i]])
        if block <= 1e-12 * gn_[i]:
            hard = _hard_case(ghat_rows[i], w_rows[i], low_rows[i], dl_[i])
            if hard is not None:
                Y[i], ups[i] = hard
                continue
        lo[i] = max(0.0, -lam[i])
        hi[i] = lo[i] + gn_[i] / dl_[i] + 1.0
        u[i] = 0.5 * (lo[i] + hi[i])
        act.append(i)

    ghat2 = ghat**2
    U = np.empty((S, 1))
    for _ in range(200):
        if not act:
            break
        U[:, 0] = u
        Wu = w + U
        Yu = neg / Wu
        norms = np.sqrt(rowdot(Yu, Yu))
        y_norm = norms.tolist()
        sums = np.add.reduce(ghat2 / Wu**3, axis=1).tolist()  # np.sum's row sums
        still, matched = [], []
        for i in act:
            d = dl_[i]
            if abs(y_norm[i] - d) <= tol * d:
                ups[i] = u[i]
                matched.append(i)
                continue
            # the sweep's sum, unless the near-hard branch moved u
            u[i], lo[i], hi[i], y_norm[i], fill = _secular_update(
                ghat_rows[i], w_rows[i], low_rows[i], d, u[i], lo[i], hi[i], y_norm[i],
                lambda v, i=i, u0=u[i]: (sums[i] if v == u0 else
                                         float(np.sum(ghat2[i] / (w_rows[i] + v) ** 3))))
            if fill is None:
                still.append(i)
            else:
                ups[i], Y[i] = u[i], fill
        if len(matched) == S:
            Y = _onto_sphere_rows(Yu, norms, dl)
        elif matched:
            Y[matched] = _onto_sphere_rows(Yu[matched], norms[matched], dl[matched])
        act = still
    if act:
        i = act[0]
        raise _divergence_error(dl_[i], lo[i], hi[i], y_norm[i])

    s = matvec(Q, Y)
    model_dec = -(rowdot(G, s) + 0.5 * rowdot(s, matvec(H, s)))
    # the Cauchy point t g and its model value, as cauchy_point and
    # model_value compute them (t in Python floats)
    gHg = rowdot(G, matvec(H, G)).tolist()
    t = [-(g**2 / c) if c > 0.0 and g**3 <= d * c else -(d / g)
         for g, d, c in zip(gn_, dl_, gHg)]
    c = np.array(t)[:, None] * G
    cauchy_dec = -(rowdot(G, c) + 0.5 * rowdot(c, matvec(H, c)))
    return s, np.array(ups), model_dec, cauchy_dec


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
