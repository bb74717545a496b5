"""Stepsize and gamma-parameter sequences, plus stepsize validity checks.

Two built-in families cover every regime the convergence guarantees
need: constant and ``a/(b+k)`` diminishing stepsizes, and constant or
"merging" gamma pairs with ``gamma2_k = gamma1 * (1 - eta*alpha_k/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConfigurationError, require_finite


@dataclass(frozen=True)
class StepsizeSchedule:
    kind: str  # constant | diminishing
    alpha: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        require_finite(alpha=self.alpha, a=self.a, b=self.b)
        if self.kind == "constant":
            if self.alpha <= 0:
                raise ConfigurationError("constant stepsize must be positive")
        elif self.kind == "diminishing":
            if self.a <= 0 or self.b <= 0:
                raise ConfigurationError("diminishing schedule requires a > 0 and b > 0")
        else:
            raise ConfigurationError(f"unknown stepsize schedule kind {self.kind!r}")

    @classmethod
    def constant(cls, alpha: float) -> "StepsizeSchedule":
        return cls(kind="constant", alpha=alpha)

    @classmethod
    def diminishing(cls, a: float, b: float) -> "StepsizeSchedule":
        """alpha_k = a / (b + k)."""
        return cls(kind="diminishing", a=a, b=b)

    def at(self, k: int) -> float:
        if k < 1:
            raise ConfigurationError("iteration index k is 1-based")
        if self.kind == "constant":
            return self.alpha
        return self.a / (self.b + k)


@dataclass(frozen=True)
class GammaSchedule:
    kind: str  # constant | merging
    gamma1: float
    gamma2: float = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        require_finite(gamma1=self.gamma1, gamma2=self.gamma2, eta=self.eta)
        if self.kind == "constant":
            if not 0.0 < self.gamma2 <= self.gamma1:
                raise ConfigurationError(
                    f"need 0 < gamma2 <= gamma1, got {self.gamma1=} {self.gamma2=}"
                )
        elif self.kind == "merging":
            if self.gamma1 <= 0:
                raise ConfigurationError("merging schedule requires gamma1 > 0")
            if self.eta < 0:
                raise ConfigurationError("merging schedule requires eta >= 0")
        else:
            raise ConfigurationError(f"unknown gamma schedule kind {self.kind!r}")

    @classmethod
    def constant(cls, gamma1: float, gamma2: float) -> "GammaSchedule":
        return cls(kind="constant", gamma1=gamma1, gamma2=gamma2)

    @classmethod
    def merging(cls, gamma1: float, eta: float) -> "GammaSchedule":
        """gamma2_k = gamma1 * (1 - eta * alpha_k / 2): the gap closes with the stepsize."""
        return cls(kind="merging", gamma1=gamma1, eta=eta)


def gammas_at(
    gammas: GammaSchedule, stepsizes: StepsizeSchedule, k: int
) -> tuple[float, float]:
    """(gamma1_k, gamma2_k) at iteration ``k``."""
    if gammas.kind == "constant":
        return gammas.gamma1, gammas.gamma2
    alpha_k = stepsizes.at(k)
    gamma2 = gammas.gamma1 * (1.0 - 0.5 * gammas.eta * alpha_k)
    if gamma2 <= 0.0:
        raise ConfigurationError(
            f"merging schedule gives gamma2_{k} = {gamma2} <= 0 (eta * alpha_k >= 2)"
        )
    return gammas.gamma1, gamma2


def validate_stepsize(
    alpha_k: float,
    gamma1: float,
    gamma2: float,
    grad_lipschitz: float,
    hess_bound: float,
    mode: str = "basic",
    eta: float | None = None,
) -> bool:
    """Whether the stepsize precondition of the per-step decrease bounds holds.

    ``basic``: alpha_k <= gamma2 / (4 gamma1^2 (L_g + M_H)).  ``merging``
    additionally requires alpha_k <= 1 / (6 eta + 2 gamma1 (L_g + M_H)),
    M_H <= eta / (2 gamma1), and the exact gap identity
    gamma1 - gamma2 = eta * gamma1 * alpha_k / 2 (to 1e-12).

    Advisory: returns False instead of raising, since tuning sweeps
    legitimately explore stepsizes outside the theoretical range.
    """
    if min(alpha_k, gamma1, gamma2, grad_lipschitz) <= 0 or hess_bound < 0:
        raise ConfigurationError("validate_stepsize requires positive constants")
    total = grad_lipschitz + hess_bound
    ok = alpha_k <= gamma2 / (4.0 * gamma1**2 * total)
    if mode == "basic":
        return ok
    if mode != "merging":
        raise ConfigurationError(f"unknown validation mode {mode!r}")
    if eta is None or eta <= 0:
        raise ConfigurationError("merging validation requires eta > 0")
    ok = ok and alpha_k <= 1.0 / (6.0 * eta + 2.0 * gamma1 * total)
    ok = ok and hess_bound <= eta / (2.0 * gamma1)
    ok = ok and abs((gamma1 - gamma2) - 0.5 * eta * gamma1 * alpha_k) <= 1e-12
    return ok
