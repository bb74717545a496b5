"""Problem oracles, noise models, and stochastic derivative estimators.

Every noise regime used by the optimizer and the verification suites is
synthesized here with exactly known moments, so that unbiasedness and
variance targets can be asserted rather than assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

Array = npt.NDArray[np.float64]

# Per-run RNG stream ids.  Gradient noise and Hessian perturbations draw from
# distinct streams so that two runs sharing a seed consume identical gradient
# samples regardless of whether either run touches the Hessian stream.
GRADIENT_STREAM = 0
HESSIAN_STREAM = 1

GRADIENT_NOISE_KINDS = ("none", "bounded", "stepwise", "geometric")
HESSIAN_KINDS = ("zero", "exact-capped", "perturbed")


class ConfigurationError(ValueError):
    """Invalid parameter combination supplied by the caller."""


class EvaluationError(RuntimeError):
    """An oracle produced a non-finite value, gradient, or product."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


def require_finite(**values: float | None) -> None:
    """Raise ``ConfigurationError`` naming the first of ``values`` that is
    NaN or infinite (None passes).  Range checks alone let NaN through,
    since every comparison with it is False."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


def rng_stream(seed: int, purpose: int) -> np.random.Generator:
    """Named, seeded RNG stream for a (run, purpose) pair."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


# Row-stacked linear algebra.  Both forms reach the same BLAS kernel per
# row (ddot, gemv) as their 1-D counterparts, so row i is bit-identical
# to ``x @ y`` and ``A @ x`` as long as the rows are unit-stride (a
# strided row takes another kernel path); ``X @ A.T``, einsum and
# ``norm(axis=1)`` are not.


def rowdot(X: Array, Y: Array) -> Array:
    """Row-wise dot products; row i equals ``X[i] @ Y[i]`` bit for bit."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def matvec(A: Array, X: Array) -> Array:
    """Row-wise ``A @ x`` over the rows of ``X``, bit for bit."""
    return np.matmul(A, X[..., None])[..., 0]


def norm(x: Array) -> float:
    """Euclidean norm of a unit-stride 1-D array, bit-identical to
    ``np.linalg.norm(x)`` (both take ``sqrt(x @ x)``) at a fraction of
    its call cost."""
    return math.sqrt(float(x @ x))


def row_norms(X: Array) -> Array:
    """Row-wise Euclidean norms; row i equals ``np.linalg.norm(X[i])``."""
    return np.sqrt(rowdot(X, X))


def libm_pow(x: Array, p: float) -> Array:
    """Python float ``**`` (libm pow) over a 1-D array; numpy's vectorized
    pow can differ by an ulp.  Raises ``OverflowError`` where
    ``float ** p`` does."""
    return np.array([v ** p for v in x.tolist()], dtype=float)


@runtime_checkable
class ProblemOracle(Protocol):
    """Smooth objective with certified constants.

    Required: ``dim``, ``value``, ``grad``, ``hvp`` and the gradient
    Lipschitz constant ``grad_lipschitz``.  ``hess_lipschitz``,
    ``f_min`` (infimum of f) and ``pl_constant`` are ``None`` whenever
    no certified value exists; they are never fabricated.

    Row stacks are part of the contract: ``value`` and ``grad`` also
    take an (S, n) stack of points, and ``hvp`` an (m, n) stack of
    vectors at one point or at the matching row of an (m, n) stack of
    points.  Row i of each result is bit-identical to the call on row i
    alone.  The lockstep lane runner evaluates its lanes this way, and
    ``stacked_dense`` builds an oracle's Hessian from one product on the
    stacked identity rows.

    ``hess_lipschitz == 0.0`` certifies a constant Hessian, so ``hvp(x,
    v)`` must not read x: the lane runner builds and decomposes the
    exact solver's dense H of such an oracle once per run.
    """

    dim: int
    grad_lipschitz: float
    hess_lipschitz: float | None
    f_min: float | None
    pl_constant: float | None

    def value(self, x: Array) -> float: ...

    def grad(self, x: Array) -> Array: ...

    def hvp(self, x: Array, v: Array) -> Array: ...


@dataclass(frozen=True)
class NoiseModel:
    """How stochastic gradient/Hessian estimates are synthesized.

    Gradient kinds and their target total variance E||g - grad f||^2:

    - ``none``:       0
    - ``bounded``:    ``m_g``
    - ``stepwise``:   ``m_g * alpha_k``
    - ``geometric``:  ``m_g * zeta**(k-1)`` with ``zeta`` in (0, 1)

    Noise is additive isotropic Gaussian (per-coordinate variance =
    target total variance / dim), which makes the targets exact.
    Hessian kinds: ``zero``, ``exact-capped`` (true Hessian scaled by
    min{1, m_h / L_g}), ``perturbed`` (exact-capped plus a symmetric
    random perturbation of operator norm <= ``perturbation``, re-capped
    so the certified bound never exceeds ``m_h``).
    """

    kind: str = "none"
    m_g: float = 0.0
    zeta: float = 0.5
    hessian_kind: str = "zero"
    m_h: float = 0.0
    perturbation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GRADIENT_NOISE_KINDS:
            raise ConfigurationError(f"unknown gradient noise kind {self.kind!r}")
        if self.hessian_kind not in HESSIAN_KINDS:
            raise ConfigurationError(f"unknown hessian kind {self.hessian_kind!r}")
        require_finite(m_g=self.m_g, m_h=self.m_h, perturbation=self.perturbation)
        if self.kind != "none" and self.m_g < 0:
            raise ConfigurationError("m_g must be nonnegative")
        if self.kind == "geometric" and not 0.0 < self.zeta < 1.0:
            raise ConfigurationError("geometric noise requires zeta in (0, 1)")
        if self.perturbation < 0:
            raise ConfigurationError("perturbation scale must be nonnegative")

    def gradient_variance(self, k: int, alpha_k: float) -> float:
        """Target total variance of the gradient estimate at iteration ``k`` (1-based)."""
        if self.kind == "none":
            return 0.0
        if self.kind == "bounded":
            return self.m_g
        if self.kind == "stepwise":
            return self.m_g * alpha_k
        return self.m_g * self.zeta ** (k - 1)


def stacked_dense(apply: Callable[[Array], Array], dim: int) -> Array:
    """The C-ordered matrix whose column j is ``apply(e_j)``, from one call
    of a row-stacked ``apply`` on the identity rows."""
    # C order, as the column loop gives: gemv sums in another order on an
    # F-ordered matrix
    return np.ascontiguousarray(apply(_identity(dim)).T)


@functools.lru_cache(maxsize=8)
def _identity(dim: int) -> Array:
    """The (dim, dim) identity the dense builds apply operators to, built
    once per dimension and read-only, since every caller shares it."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def draw_noise_block(rng: np.random.Generator, variances: Array, dim: int) -> Array:
    """The additive gradient noise of a run of iterations, in one draw.

    ``variances`` holds the target total variance of each iteration.  Row
    i is bit-identical to the i-th of successive ``rng.normal(0,
    sqrt(variances[i] / dim), size=dim)`` draws on the same stream; rows
    whose variance is 0 stay zero and consume no random numbers.
    """
    drawn = variances > 0.0
    out = np.zeros((drawn.size, dim))
    scale = np.sqrt(variances[drawn] / dim)[:, None]
    out[drawn] = rng.normal(0.0, scale, size=(scale.size, dim))
    return out


def hessian_cap(oracle: ProblemOracle, noise: NoiseModel) -> float:
    """The factor min{1, m_h / L_g} that scales the true Hessian so the
    estimate's certified bound never exceeds ``m_h``; L_g certifies the
    true Hessian norm."""
    if noise.m_h <= 0:
        raise ConfigurationError("exact-capped/perturbed Hessian estimates require m_h > 0")
    return min(1.0, noise.m_h / oracle.grad_lipschitz)


def hessian_estimate(oracle: ProblemOracle, noise: NoiseModel,
                     seeds: list[int]) -> tuple[Callable, float]:
    """A noise model's Hessian estimate in row-stacked product form, and
    its certified bound, which never exceeds ``m_h``.

    Returns ``(at, bound)``.  ``at(X, lanes)`` draws the estimates at the
    rows of the (S, n) stack X, row i that of lane ``lanes[i]``, and
    returns ``hvp(r, V)``: the products of the estimates of the rows
    ``r`` (an index array) with the matching rows of V, or of row ``r``
    (one int) with every row of V.  It returns None for the zero
    estimate, whose bound is 0.  ``exact-capped`` scales the true
    Hessian by ``hessian_cap``; ``perturbed`` adds a symmetric
    perturbation of operator norm ``perturbation``, drawn at every call
    from the Hessian stream of lane j's seed ``seeds[j]``, and re-caps
    the sum by min{1, m_h / (tau L_g + perturbation)}.
    """
    if noise.hessian_kind == "zero":
        return (lambda X, lanes: None), 0.0
    tau = hessian_cap(oracle, noise)
    if noise.hessian_kind == "exact-capped":
        def capped(X, lanes):
            return lambda r, V: tau * oracle.hvp(X[r], V)

        return capped, tau * oracle.grad_lipschitz

    n, scale = oracle.dim, noise.perturbation
    raw_bound = tau * oracle.grad_lipschitz + scale
    recap = min(1.0, noise.m_h / raw_bound)
    streams = [rng_stream(seed, HESSIAN_STREAM) for seed in seeds]

    def perturbed(X, lanes):
        P = np.stack([_perturbation(streams[lane], n, scale) for lane in lanes])
        return lambda r, V: recap * (tau * oracle.hvp(X[r], V) + matvec(P[r], V))

    return perturbed, recap * raw_bound


def _perturbation(rng: np.random.Generator, dim: int, scale: float) -> Array:
    """The symmetric (dim, dim) perturbation of operator norm ``scale`` that
    one perturbed estimate draws from its Hessian stream (zero when
    ``scale`` or the draw's norm is 0; the draw is made either way)."""
    raw = rng.standard_normal((dim, dim))
    sym = 0.5 * (raw + raw.T)
    sym_norm = float(np.max(np.abs(np.linalg.eigvalsh(sym)))) if dim > 0 else 0.0
    if sym_norm > 0.0 and scale > 0.0:
        return (scale / sym_norm) * sym
    return np.zeros((dim, dim))


def hvp_finite_difference(
    oracle: ProblemOracle, x: Array, v: Array, h: float | None = None
) -> Array:
    """Central-difference Hessian-vector product, the verification oracle for ``hvp``."""
    if h is None:
        h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(x)))
    if h <= 0:
        raise ConfigurationError("finite-difference step h must be positive")
    return (oracle.grad(x + h * v) - oracle.grad(x - h * v)) / (2.0 * h)
