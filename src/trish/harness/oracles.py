"""Brute-force reference solvers used only to verify the production code.

The trust-region reference enumerates KKT candidates in the eigenbasis
and locates the boundary multiplier by plain bisection on the monotone
norm equation, deliberately avoiding the production solver's
safeguarded-Newton path so the two sides stay independent.
"""

from __future__ import annotations

import numpy as np

from ..core import Array


def reference_trs(g: Array, H: Array, delta: float) -> tuple[Array, float, float]:
    """Globally minimize g's + s'Hs/2 over ||s|| <= delta by enumeration.

    Returns (s, model value, multiplier).  Candidates: the unconstrained
    Newton point when positive definite and feasible, the boundary
    solution found by bisection over the multiplier, and the hard-case
    boundary family (pseudo-inverse solution plus minimal-eigenvector
    fills of both signs).
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    w, Q = np.linalg.eigh(H)
    ghat = Q.T @ g
    lam_min = float(w[0])
    g_norm = float(np.linalg.norm(g))

    def model(y: Array) -> float:
        return float(ghat @ y + 0.5 * np.sum(w * y * y))

    candidates: list[tuple[Array, float]] = []

    if lam_min > 0.0:
        y = -ghat / w
        if np.linalg.norm(y) <= delta * (1.0 + 1e-14):
            candidates.append((y, 0.0))

    lo = max(0.0, -lam_min)
    hi = lo + g_norm / delta + 1.0

    def boundary_norm(ups: float) -> float:
        return float(np.linalg.norm(ghat / (w + ups)))

    # Bisection on the strictly decreasing ||y(u)|| over (lo, hi]; a root
    # exists whenever the norm just above lo exceeds delta.  An iteration
    # that leaves (a, b) as they are leaves them so forever: stop there.
    probe = lo + 1e-13 * max(1.0, hi)
    if boundary_norm(probe) > delta:
        a, b = probe, hi
        for _ in range(300):
            mid = 0.5 * (a + b)
            ab = (mid, b) if boundary_norm(mid) > delta else (a, mid)
            if ab == (a, b):
                break
            a, b = ab
        ups = 0.5 * (a + b)
        candidates.append((-ghat / (w + ups), ups))

    # hard-case family at u = -lam_min
    if lam_min <= 0.0:
        min_block = w <= lam_min + 1e-12 * max(1.0, float(np.max(np.abs(w))))
        y = np.zeros_like(ghat)
        y[~min_block] = -ghat[~min_block] / (w[~min_block] - lam_min)
        y_norm = float(np.linalg.norm(y))
        if y_norm <= delta:
            fill = np.sqrt(max(delta**2 - y_norm**2, 0.0))
            idx = int(np.argmax(min_block))
            for sign in (1.0, -1.0):
                y_hard = y.copy()
                y_hard[idx] += sign * fill
                candidates.append((y_hard, -lam_min))

    if not candidates:  # numerically empty only in pathological inputs
        candidates.append((np.zeros_like(ghat), 0.0))
    best_y, best_ups = min(candidates, key=lambda cand: model(cand[0]))
    return Q @ best_y, model(best_y), best_ups


def random_trs_instance(rng: np.random.Generator, max_dim: int = 10) -> tuple[Array, Array, float]:
    """Random dense instance with a mixed definite/indefinite spectrum."""
    n = int(rng.integers(2, max_dim + 1))
    eigs = rng.uniform(-3.0, 3.0, size=n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    H = (q * eigs) @ q.T
    H = 0.5 * (H + H.T)
    g = rng.standard_normal(n)
    delta = float(rng.uniform(0.1, 3.0))
    return g, H, delta


def hard_case_instance(rng: np.random.Generator, max_dim: int = 10) -> tuple[Array, Array, float]:
    """Instance with g exactly orthogonal to the minimal eigenspace.

    The radius is inflated past the pseudo-inverse solution norm so the
    boundary fill along the minimal eigenvector is genuinely required.
    """
    n = int(rng.integers(2, max_dim + 1))
    eigs = np.sort(rng.uniform(-3.0, 3.0, size=n))
    eigs[0] = -abs(eigs[0]) - 0.5  # ensure a strictly negative, simple minimum
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * eigs) @ q.T
    H = 0.5 * (H + H.T)
    ghat = rng.standard_normal(n)
    ghat[0] = 0.0  # no component along the minimal eigenvector
    g = q @ ghat
    y_pseudo = np.zeros(n)
    y_pseudo[1:] = -ghat[1:] / (eigs[1:] - eigs[0])
    delta = float(np.linalg.norm(y_pseudo) * rng.uniform(1.2, 2.0) + 0.1)
    return g, H, delta
