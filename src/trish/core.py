"""Problem oracles, noise models, and stochastic derivative estimators.

Every noise regime used by the optimizer and the verification suites is
synthesized here with exactly known moments, so that unbiasedness and
variance targets can be asserted rather than assumed.
"""

from __future__ import annotations

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


class ZeroGradientError(ValueError):
    """Degenerate zero-gradient input; callers must short-circuit."""


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


def row_norms(X: Array) -> Array:
    """Row-wise Euclidean norms; row i equals ``np.linalg.norm(X[i])``."""
    return np.sqrt(rowdot(X, X))


@runtime_checkable
class ProblemOracle(Protocol):
    """Smooth objective with certified constants.

    Required: ``dim``, ``value``, ``grad``, ``hvp`` and the gradient
    Lipschitz constant ``grad_lipschitz``.  ``hess_lipschitz``,
    ``f_min`` (infimum of f) and ``pl_constant`` are ``None`` whenever
    no certified value exists; they are never fabricated.  Oracles whose
    ``row_stacked`` attribute is true also evaluate an (S, n) stack of
    points row by row, bit-identical to S separate calls; the lockstep
    lane runner requires it.
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


@dataclass(frozen=True)
class HessianEstimate:
    """Symmetric linear operator with a certified operator-norm bound.

    ``is_zero`` flags the exactly-zero operator so solvers can skip
    products entirely (first-order mode costs no Hessian products).
    ``row_stacked`` marks an ``apply`` that also maps an (m, n) stack of
    vectors row by row, bit-identical to m separate calls.
    """

    apply: Callable[[Array], Array]
    norm_bound: float
    is_zero: bool = False
    row_stacked: bool = False

    @staticmethod
    def zero(dim: int) -> "HessianEstimate":
        return HessianEstimate(apply=lambda v: np.zeros(dim), norm_bound=0.0, is_zero=True)

    def dense(self, dim: int) -> Array:
        """Materialize the operator (small dims only) as a C-ordered matrix
        whose column j is ``apply(e_j)``: one product on the stacked
        identity rows when the operator is ``row_stacked``, else one
        product per column."""
        eye = np.eye(dim)
        if self.row_stacked:
            # C order, as the column loop gives: gemv sums in another
            # order on an F-ordered matrix
            return np.ascontiguousarray(self.apply(eye).T)
        return np.column_stack([self.apply(eye[:, j]) for j in range(dim)])


def sample_gradient(
    oracle: ProblemOracle,
    x: Array,
    noise: NoiseModel,
    k: int,
    alpha_k: float,
    rng: np.random.Generator,
    grad: Array | None = None,
) -> Array:
    """Unbiased gradient estimate with the noise model's target variance.

    ``grad`` is the true gradient at ``x`` when the caller already holds
    it; the oracle is then not called again.
    """
    g = np.asarray(oracle.grad(x) if grad is None else grad, dtype=float)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"non-finite gradient at x = {x!r}")
    variance = noise.gradient_variance(k, alpha_k)
    if variance > 0.0:
        g = g + rng.normal(0.0, np.sqrt(variance / oracle.dim), size=oracle.dim)
    return g


def draw_noise_block(rng: np.random.Generator, variances: Array, dim: int) -> Array:
    """The noise ``sample_gradient`` adds over a run of iterations, in one draw.

    ``variances`` holds the target variance of each iteration.  Row i is
    bit-identical to the i-th of successive ``sample_gradient`` draws on
    the same stream; rows whose variance is 0 stay zero and consume no
    random numbers, as ``sample_gradient`` skips the draw there.
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


def sample_hessian(
    oracle: ProblemOracle,
    x: Array,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> HessianEstimate:
    """Hessian estimate whose certified norm bound never exceeds ``m_h``."""
    if noise.hessian_kind == "zero":
        return HessianEstimate.zero(oracle.dim)
    tau = hessian_cap(oracle, noise)
    rows = getattr(oracle, "row_stacked", False)
    if noise.hessian_kind == "exact-capped":
        return HessianEstimate(
            apply=lambda v: tau * oracle.hvp(x, v),
            norm_bound=tau * oracle.grad_lipschitz,
            row_stacked=rows,
        )

    # perturbed: one symmetric perturbation per estimate, fixed across applies
    raw = rng.standard_normal((oracle.dim, oracle.dim))
    sym = 0.5 * (raw + raw.T)
    sym_norm = float(np.max(np.abs(np.linalg.eigvalsh(sym)))) if oracle.dim > 0 else 0.0
    if sym_norm > 0.0 and noise.perturbation > 0.0:
        pert = (noise.perturbation / sym_norm) * sym
    else:
        pert = np.zeros((oracle.dim, oracle.dim))
    raw_bound = tau * oracle.grad_lipschitz + noise.perturbation
    recap = min(1.0, noise.m_h / raw_bound)
    return HessianEstimate(
        apply=lambda v: recap * (tau * oracle.hvp(x, v) + matvec(pert, v)),
        norm_bound=recap * raw_bound,
        row_stacked=rows,
    )


def hvp_finite_difference(
    oracle: ProblemOracle, x: Array, v: Array, h: float | None = None
) -> Array:
    """Central-difference Hessian-vector product, the verification oracle for ``hvp``."""
    if h is None:
        h = float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(x)))
    if h <= 0:
        raise ConfigurationError("finite-difference step h must be positive")
    return (oracle.grad(x + h * v) - oracle.grad(x - h * v)) / (2.0 * h)


# Sampler signature used by the optimizer loops: one call per iteration maps
# (x_k, k, alpha_k) plus the two RNG streams to a (g_k, H_k) pair.
Sampler = Callable[[Array, int, float, np.random.Generator, np.random.Generator],
                   tuple[Array, HessianEstimate]]


def oracle_sampler(oracle: ProblemOracle, noise: NoiseModel) -> Sampler:
    """Sampler backed by a smooth oracle plus a synthetic noise model.

    The returned sampler also takes ``grad=``, the true gradient at ``x``
    when the caller already holds it.
    """

    def sample(x, k, alpha_k, grad_rng, hess_rng, grad=None):
        g = sample_gradient(oracle, x, noise, k, alpha_k, grad_rng, grad=grad)
        hess = sample_hessian(oracle, x, noise, hess_rng)
        return g, hess

    return sample
