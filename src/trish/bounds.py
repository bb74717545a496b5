"""Closed-form constants and envelopes for each convergence guarantee.

These are the quantities the Monte-Carlo envelope suites compare
trajectories against.  Where the source statements and their proofs
carry different constants, the proof-consistent form is implemented
(the proofs are the operational ground truth for envelope testing).
Contraction powers are evaluated through ``log1p`` so tiny stepsizes at
large horizons do not lose accuracy to repeated rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigurationError


def _contraction_power(q: float, exponent: int) -> float:
    """(1 - q)^exponent for q in [0, 1], accurate for tiny q."""
    if exponent == 0:
        return 1.0
    if q >= 1.0:
        return 0.0
    return math.exp(exponent * math.log1p(-q))


@dataclass(frozen=True)
class PLFixedConstants:
    """Linear-to-neighborhood envelope: theta + rate^(k-1) * (gap0 - theta)."""

    theta: float
    rate: float


@dataclass(frozen=True)
class SublinearConstants:
    """Sublinear envelope phi / (b + k)."""

    delta1: float
    delta2: float
    phi: float


@dataclass(frozen=True)
class GeometricConstants:
    """Geometric-noise linear-rate envelope: omega * rho^(k-1)."""

    kappa1: float
    kappa2: float
    omega: float
    rho: float


def nonconvex_fixed_bound(
    K: int, gamma1: float, gamma2: float, alpha: float, m_g: float, f1: float, f_min: float
) -> float:
    """Upper bound on E[(1/K) sum ||grad f(x_k)||^2] under fixed parameters:
    a transient (8 / (gamma2 alpha)) (f1 - f_min) / K plus the floor
    (8 gamma1^2 / gamma2^2 - 1) M_g."""
    if K < 1:
        raise ConfigurationError("K must be >= 1")
    transient = (8.0 / (gamma2 * alpha)) * (f1 - f_min)
    floor = (8.0 * gamma1**2 / gamma2**2 - 1.0) * m_g
    return transient / K + floor


def pl_fixed_constants(
    gamma1: float, gamma2: float, alpha: float, m_g: float, c: float
) -> PLFixedConstants:
    theta = 4.0 * (gamma1**2 / gamma2**2 - 0.125) * m_g / c
    return PLFixedConstants(theta=theta, rate=1.0 - 0.25 * gamma2 * c * alpha)


def pl_fixed_envelope(
    k: int, gamma1: float, gamma2: float, alpha: float, m_g: float, c: float, gap0: float
) -> float:
    """Expected-gap envelope under bounded noise and fixed parameters."""
    if alpha > 4.0 / (gamma2 * c):
        raise ConfigurationError("pl_fixed_envelope requires alpha <= 4 / (gamma2 c)")
    consts = pl_fixed_constants(gamma1, gamma2, alpha, m_g, c)
    q = 0.25 * gamma2 * c * alpha
    return consts.theta + _contraction_power(q, k - 1) * (gap0 - consts.theta)


def _sublinear_phi(delta1: float, delta2: float, a: float, b: float, gap0: float) -> float:
    if delta1 * a <= 1.0:
        raise ConfigurationError(
            f"sublinear envelope undefined: need delta1 * a > 1, got {delta1 * a}"
        )
    return max((b + 1.0) * gap0, delta2 * a**2 / (delta1 * a - 1.0))


def pl_sublinear_constants(
    a: float,
    b: float,
    eta: float,
    gamma1: float,
    gamma2_first: float,
    c: float,
    grad_lipschitz: float,
    m_h: float,
    m_g: float,
    gap0: float,
) -> SublinearConstants:
    delta1 = 0.5 * gamma2_first * c
    delta2 = 0.5 * (3.0 * eta + gamma1 * (grad_lipschitz + m_h)) * gamma1 * m_g
    return SublinearConstants(delta1, delta2, _sublinear_phi(delta1, delta2, a, b, gap0))


def pl_sublinear_envelope(
    k: int,
    a: float,
    b: float,
    eta: float,
    gamma1: float,
    gamma2_first: float,
    c: float,
    grad_lipschitz: float,
    m_h: float,
    m_g: float,
    gap0: float,
) -> float:
    """Expected-gap envelope phi/(b+k) for the merging-gamma, diminishing-stepsize regime."""
    consts = pl_sublinear_constants(
        a, b, eta, gamma1, gamma2_first, c, grad_lipschitz, m_h, m_g, gap0
    )
    return consts.phi / (b + k)


def pl_sublinear_fixed_gamma_constants(
    a: float, b: float, gamma1: float, gamma2: float, m_g: float, c: float, gap0: float
) -> SublinearConstants:
    delta1 = 0.25 * gamma2 * c
    # per-step-bound coefficient (gamma1^2/gamma2 - gamma2/8), not the
    # statement's gamma1^2/gamma2^2 variant
    delta2 = (gamma1**2 / gamma2 - gamma2 / 8.0) * m_g
    return SublinearConstants(delta1, delta2, _sublinear_phi(delta1, delta2, a, b, gap0))


def pl_sublinear_fixed_gamma_envelope(
    k: int, a: float, b: float, gamma1: float, gamma2: float, m_g: float, c: float, gap0: float
) -> float:
    """Expected-gap envelope phi/(b+k) for fixed gammas with stepwise noise."""
    consts = pl_sublinear_fixed_gamma_constants(a, b, gamma1, gamma2, m_g, c, gap0)
    return consts.phi / (b + k)


def pl_geometric_constants(
    gamma1: float, gamma2: float, alpha: float, m_g: float, c: float, zeta: float, gap0: float
) -> GeometricConstants:
    kappa1 = gamma2 / 8.0
    kappa2 = (gamma1**2 / gamma2 - gamma2 / 8.0) * m_g
    rho = max(1.0 - c * kappa1 * alpha, zeta)
    if not 0.0 < rho < 1.0:
        raise ConfigurationError(f"geometric envelope requires rho in (0, 1), got {rho}")
    omega = max(gap0, kappa2 / (c * kappa1))
    return GeometricConstants(kappa1, kappa2, omega, rho)


def pl_geometric_envelope(
    k: int,
    gamma1: float,
    gamma2: float,
    alpha: float,
    m_g: float,
    c: float,
    zeta: float,
    gap0: float,
) -> float:
    """Expected-gap envelope omega * rho^(k-1) under geometrically decaying noise."""
    consts = pl_geometric_constants(gamma1, gamma2, alpha, m_g, c, zeta, gap0)
    return consts.omega * consts.rho ** (k - 1)


def complexity_params_check(
    lambda1: float, lambda2: float, lambda3: float, mu1: float, mu2: float
) -> bool:
    """Feasibility of the (lambda, mu) choice for the complexity guarantee.

    True iff lambda1^2 lambda2^2 - mu1/lambda3 - mu2/lambda3^2
    - 2/(3 lambda3^3) >= 1/6.  The stochastic guarantee assumes
    mu1, mu2 in (0, 1/12); mu = 0 is accepted here as the deterministic
    limit.
    """
    for lam in (lambda1, lambda2, lambda3):
        if not 0.0 < lam < 1.0:
            raise ConfigurationError("lambda parameters must lie in (0, 1)")
    for mu in (mu1, mu2):
        if not 0.0 <= mu < 1.0 / 12.0:
            raise ConfigurationError("mu parameters must lie in [0, 1/12)")
    lhs = (
        lambda1**2 * lambda2**2
        - mu1 / lambda3
        - mu2 / lambda3**2
        - 2.0 / (3.0 * lambda3**3)
    )
    return lhs >= 1.0 / 6.0


def complexity_budget(eps: float, hess_lipschitz: float, gap0: float) -> int:
    """Iteration budget ceil(3 L_H^2 gap0 eps^(-3/2)) for the large-multiplier phase."""
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    if gap0 < 0:
        raise ConfigurationError("gap0 must be nonnegative")
    return math.ceil(3.0 * hess_lipschitz**2 * gap0 * eps ** (-1.5))
