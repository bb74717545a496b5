"""Trust-region radius rule and subproblem solvers.

The radius is driven purely by the sampled gradient norm through a
three-case rule; subproblems are solved either by a capped Steihaug-CG
iteration (matrix-free, at-least-Cauchy-decrease) or by an exact dense
solver with a KKT-certifying multiplier.  Both solvers take S
independent subproblems as row stacks, one per lane of the optimizer
loop; a single subproblem is a stack of one row.
"""

from __future__ import annotations

import math

import numpy as np

from typing import Callable

from .core import (
    Array,
    ConfigurationError,
    NumericalError,
    matvec,
    norm,
    rowdot,
)


_EPS = float(np.finfo(float).eps)


def radius_rows(g_norm: Array, alpha, gamma1, gamma2) -> tuple[Array, Array]:
    """Trust-region radii from an array of gradient norms (and per-row
    parameters), with the case each row's rule took.

    Case 1 gives ``gamma1 * alpha * g_norm`` below the first breakpoint
    ``1/gamma1``, case 2 ``alpha`` on the closed middle interval, and
    case 3 ``gamma2 * alpha * g_norm`` above ``1/gamma2``.  Breakpoint
    ties go to the middle case; the induced steplength is continuous in
    ``g_norm``.  The parameters are not validated here: the schedules
    refuse any ``alpha <= 0`` or gammas outside ``0 < gamma2 <= gamma1``.
    """
    case1 = g_norm < 1.0 / gamma1
    case2 = g_norm <= 1.0 / gamma2
    delta = np.where(case1, gamma1 * alpha * g_norm,
                     np.where(case2, alpha, gamma2 * alpha * g_norm))
    case = 3 - case1 - case2  # case1 implies case2, as 1/gamma1 <= 1/gamma2
    return delta, case


def _boundary_tau_rows(s: Array, d: Array, delta: Array) -> Array:
    """Per row, the positive root tau of ||s + tau d|| = delta (s strictly
    inside), in the stable quadratic form."""
    dd = rowdot(d, d)
    sd = rowdot(s, d)
    ss = rowdot(s, s)
    disc = sd * sd + dd * (delta * delta - ss)
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))  # max(disc, 0.0), NaN kept
    # stable quadratic root: avoid cancellation when sd > 0
    return np.where(sd <= 0.0, (root - sd) / dd, (delta * delta - ss) / (sd + root))


def _cube(v: float) -> float:
    """``v ** 3`` in Python floats (libm pow), or NaN where it overflows,
    which fails the Cauchy test ``||g||^3 <= delta g'Hg``: the Cauchy
    point of such a gradient is on the boundary."""
    try:
        return v**3
    except OverflowError:
        return math.nan


def _cauchy_t(g_norm: float, delta: float, gHg: float) -> float:
    """The Cauchy point t g of one subproblem with ||g|| = ``g_norm``,
    radius ``delta`` and curvature ``gHg = g'Hg``, in Python floats:
    t = -||g||^2 / g'Hg where that point is inside the radius, else
    -delta / ||g||."""
    if gHg > 0.0 and _cube(g_norm) <= delta * gHg:
        return -g_norm**2 / gHg
    return -delta / g_norm


def _cauchy_decrease(g_norm: float, delta: float, gHg: float) -> float:
    """The model decrease -(t ||g||^2 + t^2 g'Hg / 2) at ``_cauchy_t``."""
    t = _cauchy_t(g_norm, delta, gHg)
    return -(t * g_norm**2 + 0.5 * t * t * gHg)


def _all_rows_live(g_norm: Array) -> bool:
    """Whether no row has ``g_norm == 0``, raising ``NumericalError`` on
    a non-finite ||g||: a NaN gradient, or one whose norm overflows.
    Such a row is live (it is not 0), and no solve of it is meaningful.

    Both tests run on the norms as Python floats, which at lane counts
    costs a fraction of one NumPy call.  A sum of norms is finite only
    if every norm is; a finite sum that overflows falls through to the
    row test, which passes it."""
    norms = g_norm.tolist()
    if not math.isfinite(sum(norms)):
        finite = np.isfinite(g_norm)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericalError(f"non-finite gradient norm ||g|| = {norms[i]!r} "
                                 f"in row {i} of the subproblems")
    return 0.0 not in norms


def _curvature_error(dHd, delta) -> NumericalError:
    return NumericalError(
        f"non-finite curvature d'Hd = {dHd!r} in Steihaug-CG (delta={delta!r})")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def steihaug_cg_rows(
    G: Array,
    g_norm: Array,
    delta: Array,
    hvp: Callable[[Array, Array], Array] | None,
    max_iters: int = 3,
    residual_tol: float = 1e-10,
) -> tuple[Array, Array, Array, Array]:
    """Truncated CG on S independent row-stacked subproblems at once,
    exiting at the boundary on negative curvature or radius crossing.

    Row i minimizes ``G[i]'s + 0.5 s'H_i s`` over ``||s|| <= delta[i]``
    (``g_norm`` holds the rows' norms).  The first iterate is the Cauchy
    point along -g, so every step attains at least Cauchy decrease; later
    iterations only improve the model.  A row stops after ``max_iters``
    iterations (the per-step cost bound) or once its residual falls to
    ``residual_tol * ||g||``.  ``hvp(rows, V)`` returns the Hessian
    products of the subproblems listed in ``rows`` with the rows of
    ``V``; ``None`` is the zero Hessian, whose linear model steps
    straight to the boundary along -g.

    Returns the steps and the per-row model decrease ``-(g's + 0.5
    s'Hs)``, Cauchy decrease (the same at the Cauchy point) and CG
    iterations.  Rows with ``g_norm == 0`` get the zero step, zero
    decreases and no iterations.  Hessian products consumed equal the
    iterations (none when ``hvp`` is ``None``); the model decrease takes
    one more, diagnostic product.  A non-finite ``g_norm`` raises
    ``NumericalError`` before any product, and so does a non-finite
    curvature ``d'Hd`` on a row still iterating.  Each row is
    independent of the others: ``tests/reference.py`` holds the
    one-subproblem solver every row equals bit for bit.
    """
    if _all_rows_live(g_norm):
        return _steihaug_live_rows(G, g_norm, delta, np.arange(G.shape[0]), hvp,
                                   max_iters, residual_tol)
    # the zero-gradient rows keep zeros; the others are solved as one stack
    rows = np.flatnonzero(g_norm)
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
    (its curvature is never checked).  The rows in each state are counted
    once per sweep, and a sweep in which every row shares its state
    (all iterate, all stay inside, all leave) takes no mask.  The sweeps
    end once no row iterates, after at most ``max_iters``.
    """
    if hvp is None:
        # Linear model: steepest descent straight to the boundary.
        dec = dl * gn
        return -(dl / gn)[:, None] * g, dec, dec, np.ones(gn.size, dtype=np.int64)

    S = gn.size
    s = np.zeros_like(g)
    r = -g
    d = r
    rr = rowdot(r, r)
    r_tol = residual_tol * gn
    it = np.zeros(S, dtype=np.int64)
    act, n_act = None, S  # the rows still iterating and their count (None: every row)
    Hg = None
    for sweep in range(max_iters):
        Hd = hvp(rows, d)
        if sweep == 0:
            Hg = -Hd  # d_0 = -g, so this product doubles as H g
        dHd = rowdot(d, Hd)
        it += 1 if act is None else act
        # a sum of floats is finite only if every term is: the row test
        # runs only when it is not, and skips a stopped row's stale value
        if not math.isfinite(sum(dHd.tolist())):
            bad = ~np.isfinite(dHd)
            if act is not None:
                bad &= act
            if np.count_nonzero(bad):
                i = int(np.argmax(bad))
                raise _curvature_error(float(dHd[i]), float(dl[i]))
        step = (rr / dHd)[:, None]
        s_try = s + step * d
        # dHd is finite on the rows still iterating, so there dHd > 0 negates dHd <= 0
        inner = (dHd > 0.0) & (np.sqrt(rowdot(s_try, s_try)) < dl)  # NaN: outside
        if act is not None:
            inner &= act
        n_in = np.count_nonzero(inner)
        if n_in < n_act:  # some rows leave through the boundary
            # at sweep 0, s = 0 and d d = rr: the root's s terms vanish bit for bit
            tau = np.sqrt(rr * (dl * dl)) / rr if sweep == 0 else _boundary_tau_rows(s, d, dl)
            s_out = s + tau[:, None] * d
            if n_in == 0 and n_act == S:
                s = s_out
            else:
                np.copyto(s, s_out, where=(~inner if act is None else act ^ inner)[:, None])
        if not n_in:
            break
        if n_in == S:
            s = s_try
        else:
            np.copyto(s, s_try, where=inner[:, None])
        r = r - step * Hd
        rr_next = rowdot(r, r)
        stop = np.sqrt(rr_next) <= r_tol
        if np.count_nonzero(stop):
            act = inner & ~stop
            n_act = np.count_nonzero(act)
            if not n_act:
                break
        else:
            act, n_act = (None if n_in == S else inner), n_in
        d = r + (rr_next / rr)[:, None] * d
        rr = rr_next

    # Reference decrease at the Cauchy point from the first product
    cauchy_dec = np.array([_cauchy_decrease(*row) for row in
                           zip(gn.tolist(), dl.tolist(), rowdot(g, Hg).tolist())])
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
            raise NumericalError(f"non-finite Hessian entry (max |H| = {scale!r}) in the exact solver")
        raise ConfigurationError(f"H is not symmetric (max asymmetry {a:.3e})")
    return np.linalg.eigh(H)


def _hard_case(ghat: Array, w: Array, min_block: Array, delta: float):
    """The hard case of one subproblem in H's eigenbasis (g orthogonal to
    the minimal eigenspace): ``(y, u)`` with u = -lambda_min, or None
    when the pseudo-inverse solution does not fit inside the radius (or
    H is positive definite)."""
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
    """One safeguarded Newton update of one subproblem's secular iteration
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
    """Globally solve S independent row-stacked dense trust-region
    subproblems at once.

    Row i minimizes ``G[i]'s + 0.5 s'H_i s`` over ``||s|| <= delta[i]``
    (``g_norm`` holds the rows' norms): the Newton step when H_i is
    positive definite and the step fits, else a safeguarded Newton
    iteration on the secular equation ``1/||s(u)|| = 1/delta`` in the
    eigenbasis.  The hard case (gradient orthogonal to the minimal
    eigenspace) is resolved by adding a null-space component at
    ``u = -lambda_min`` to reach the boundary.  ``H`` is one (n, n)
    matrix every row shares or an (S, n, n) stack, and ``eig`` its
    ``checked_eigh``: the matching pair, or stacks.

    Returns the steps, the multipliers ``u >= 0`` satisfying ``g + (H +
    u I) s = 0``, ``H + u I`` positive semidefinite and ``u * (delta -
    ||s||) = 0`` to within ``tol``, the model decrease ``-(g's + 0.5
    s'Hs)`` and the Cauchy decrease (the same at the Cauchy point along
    -g).  Rows with ``g_norm == 0`` get the zero step, zero decreases and
    a NaN multiplier (their matrices are not read, nor is ``H`` if every
    row is zero).  A nonpositive radius raises ``ConfigurationError``; a
    non-finite ``g_norm``, a radius so small that ``||s(u)||`` or its
    cube underflows to 0, or a secular iteration that does not converge,
    raises ``NumericalError``.
    Each row is independent of the others: ``tests/reference.py`` holds
    the one-subproblem solver every row equals bit for bit.

    Dense path, intended for small dimensions (n <= ~500).
    """
    if _all_rows_live(g_norm):
        return _exact_live_rows(G, g_norm, delta, H, eig, tol)
    rows = np.flatnonzero(g_norm)
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
    every row; each row still iterating then takes its own update
    (``_secular_update``) in Python floats, and leaves the sweeps once
    its norm matches the radius or the near-hard fill ends its solve.
    The rare hard case runs ``_hard_case`` on its row alone.
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
    # the Cauchy point t g (t in Python floats) and its model value
    gHg = rowdot(G, matvec(H, G)).tolist()
    t = [_cauchy_t(*row) for row in zip(gn_, dl_, gHg)]
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
