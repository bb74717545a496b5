"""Test problems with analytically certified constants.

Each problem exports whichever of (grad Lipschitz, Hessian Lipschitz,
PL constant, infimum) it can certify, and never fabricates the rest.
Quadratics certify everything from their spectrum; the logistic problem
certifies curvature bounds from row norms; Rosenbrock and the quartic
bowl certify constants only on a stated box/ball, which callers must
check trajectories against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GRADIENT_STREAM,
    LANE_CHUNK,
    Array,
    ConfigurationError,
    EvaluationError,
    ProblemOracle,
    libm_pow,
    matvec,
    require_finite,
    rng_stream,
    rowdot,
)

# max |d/dt sigmoid'(t)| = sqrt(3)/18, attained at sigma(t) = 1/2 -+ sqrt(3)/6
SIGMOID_CURVATURE_LIPSCHITZ = np.sqrt(3.0) / 18.0


def _sigmoid(t: Array) -> Array:
    return _sigmoid_given(t, np.exp(-np.abs(t)))


def _sigmoid_given(t: Array, e: Array) -> Array:
    # sigma(t) from e = exp(-|t|): overflow-free on both tails, and bit for
    # bit 1/(1+exp(-t)) where t >= 0 and exp(t)/(1+exp(t)) where t < 0
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _curvature(t: Array) -> Array:
    sig = _sigmoid(t)
    return sig * (1.0 - sig)


def _mean_loss(m: Array, e: Array) -> float | Array:
    # log(1 + exp(-m)) from e = exp(-|m|): each term is within 1 ulp of
    # np.logaddexp(0, -m), and m = 0 gives log 2 exactly; one mean per row
    return np.mean(np.log1p(e) + np.maximum(-m, 0.0), axis=-1)


class QuadraticProblem:
    """f(x) = 0.5 x'Ax - b'x for symmetric A.

    When A is positive definite the PL constant is the smallest
    eigenvalue and the infimum -0.5 b'inv(A)b is attained at inv(A)b;
    otherwise both are reported absent.  The constant Hessian makes the
    Hessian-Lipschitz constant exactly zero.  ``value``, ``grad`` and
    ``hvp`` also take (S, n) row stacks.
    """

    def __init__(self, A: Array, b: Array, eigenvalues: Array | None = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise ConfigurationError("A must be square and match b")
        if np.max(np.abs(A - A.T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
            raise ConfigurationError("A must be symmetric")
        self.A = 0.5 * (A + A.T)
        self.b = b
        self.dim = int(b.shape[0])
        eigs = np.linalg.eigvalsh(self.A) if eigenvalues is None else np.sort(eigenvalues)
        self.eigenvalues = eigs
        self.grad_lipschitz = float(np.max(np.abs(eigs)))
        self.hess_lipschitz = 0.0
        if eigs[0] > 0:
            self.pl_constant: float | None = float(eigs[0])
            self.x_star: Array | None = np.linalg.solve(self.A, b)
            self.f_min: float | None = float(-0.5 * b @ self.x_star)
        else:
            self.pl_constant = None
            self.x_star = None
            self.f_min = None

    def value(self, x: Array) -> float | Array:
        if x.ndim == 2:
            return rowdot(0.5 * x, matvec(self.A, x)) - rowdot(x, self.b)
        return float(0.5 * x @ (self.A @ x) - self.b @ x)

    def grad(self, x: Array) -> Array:
        if x.ndim == 2:
            return matvec(self.A, x) - self.b
        return self.A @ x - self.b

    def hvp(self, x: Array, v: Array) -> Array:
        if v.ndim == 2:
            return matvec(self.A, v)
        return self.A @ v

    def validation_loss(self, x: Array) -> float:
        return self.value(x)


def make_quadratic(n: int, lam_min: float, lam_max: float, seed: int) -> QuadraticProblem:
    """Random-basis quadratic with log-uniform spectrum on [lam_min, lam_max].

    Both endpoints are always included, so the extreme eigenvalues (and
    hence L_g and, if SPD, the PL constant) are recorded exactly.
    """
    if not 0 < lam_min <= lam_max:
        raise ConfigurationError("need 0 < lam_min <= lam_max")
    rng = np.random.default_rng(seed)
    if n == 1:
        eigs = np.array([lam_min])
    else:
        interior = np.exp(rng.uniform(np.log(lam_min), np.log(lam_max), size=n - 2))
        eigs = np.sort(np.concatenate([[lam_min, lam_max], interior]))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))  # fix signs for reproducibility
    A = (q * eigs) @ q.T
    A = 0.5 * (A + A.T)
    v = rng.standard_normal(n)
    b = v / np.linalg.norm(v)
    return QuadraticProblem(A, b, eigenvalues=eigs)


class LogisticProblem:
    """Regularized finite-sum logistic loss over labeled feature rows.

    f(w) = (1/N) sum_i log(1 + exp(-y_i a_i'w)) + (l2/2) ||w||^2 with
    labels in {-1, +1}.  Certified bounds: L_g <= max_i ||a_i||^2 / 4 + l2,
    L_H <= (sqrt(3)/18) * mean_i ||a_i||^3, and c >= l2 when l2 > 0.
    A held-out block, when provided, defines the validation loss.
    ``value``, ``grad``, ``hvp`` and ``batch_gradient`` also take (S, dim)
    row stacks (``batch_gradient`` with one index row per point).
    """

    def __init__(
        self,
        features: Array,
        labels: Array,
        l2: float = 0.0,
        holdout_features: Array | None = None,
        holdout_labels: Array | None = None,
    ):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ConfigurationError("features must be (N, dim) with one label per row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ConfigurationError("labels must be -1 or +1")
        if l2 < 0:
            raise ConfigurationError("l2 must be nonnegative")
        self.X = X
        self.y = y
        self.l2 = float(l2)
        self.n_samples, self.dim = X.shape
        row_norms = np.linalg.norm(X, axis=1)
        self.grad_lipschitz = float(0.25 * np.max(row_norms) ** 2 + l2)
        self.hess_lipschitz = float(SIGMOID_CURVATURE_LIPSCHITZ * np.mean(row_norms**3))
        self.pl_constant = float(l2) if l2 > 0 else None
        self.f_min = None
        self.holdout_X = None if holdout_features is None else np.asarray(holdout_features, float)
        self.holdout_y = None if holdout_labels is None else np.asarray(holdout_labels, float)
        self._memo: tuple = (None, None, None)  # (key, m, e) of the last _margins call

    def _margins(self, x: Array) -> tuple[Array, Array]:
        """Margins m = y * (X @ x) and e = exp(-|m|), the one pass over the data.

        The loop asks for f and then grad f at each iterate (or lane
        stack), so a one-entry memo keyed on x's dtype, shape and bytes
        lets the second call reuse the first one's pass.  A hit returns
        what a miss would compute.
        """
        key = (x.dtype.char, x.shape, x.tobytes())
        memo = self._memo
        if memo[0] != key:
            m = self.y * matvec(self.X, x)
            memo = self._memo = (key, m, np.exp(-np.abs(m)))
        return memo[1], memo[2]

    def value(self, x: Array) -> float | Array:
        m, e = self._margins(x)
        if x.ndim == 2:
            return _mean_loss(m, e) + rowdot(0.5 * self.l2 * x, x)
        return float(_mean_loss(m, e) + 0.5 * self.l2 * x @ x)

    def grad(self, x: Array) -> Array:
        m, e = self._margins(x)
        return self._batch_grad(x, self.X, self.y, _sigmoid_given(-m, e))

    def hvp(self, x: Array, v: Array) -> Array:
        # one curvature pass serves every row of v (a dense build's identity)
        return self._batch_hvp(_curvature(matvec(self.X, x)), v, self.X)

    # The rows X below are the data, one (B, dim) mini-batch, or an
    # (S, B, dim) stack of them with one batch per row of x.

    def _batch_grad(self, x: Array, X: Array, y: Array, sig: Array) -> Array:
        # sig = sigma(-y * (X @ x)) on the rows X
        return matvec(np.swapaxes(X, -1, -2), -y * sig) / X.shape[-2] + self.l2 * x

    def _batch_hvp(self, curv: Array, v: Array, X: Array) -> Array:
        # curv = sigma'(X @ x) on the rows X
        return matvec(np.swapaxes(X, -1, -2), curv * matvec(X, v)) / X.shape[-2] + self.l2 * v

    def batch_gradient(self, x: Array, idx: Array) -> Array:
        X_b, y_b = self.X[idx], self.y[idx]
        return self._batch_grad(x, X_b, y_b, _sigmoid(-y_b * matvec(X_b, x)))

    def validation_loss(self, x: Array) -> float:
        if self.holdout_X is None:
            return self.value(x)
        m = self.holdout_y * (self.holdout_X @ x)
        return float(_mean_loss(m, np.exp(-np.abs(m))) + 0.5 * self.l2 * x @ x)


@dataclass(frozen=True)
class MiniBatchSampler:
    """Uniform-with-replacement mini-batch sampler of a logistic problem.

    One iteration's draw at a point takes ``batch_size`` rows from the
    gradient stream; they parameterize both the gradient estimate and
    (with ``hessian``) the same-batch Hessian estimate, capped at
    ``m_h`` when given, so gradient streams stay aligned across
    algorithms that share a seed.  ``indices`` draws the rows, many
    iterations at a time, and ``draw_rows`` forms the estimates at many
    points at once.  An ``EstimateSource`` that never reads the true
    gradient; its Hessian estimate is the same-batch one.
    """

    reads_true_gradient = False

    problem: LogisticProblem
    batch_size: int
    hessian: bool = False
    m_h: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        require_finite(m_h=self.m_h)
        if self.m_h is not None and self.m_h <= 0:
            raise ConfigurationError("a mini-batch Hessian cap m_h must be positive")

    @property
    def _cap(self) -> float:
        """The factor min{1, m_h / L_g} that caps every Hessian estimate
        (1 without ``m_h``); L_g bounds every sub-batch's Hessian."""
        return 1.0 if self.m_h is None else min(1.0, self.m_h / self.problem.grad_lipschitz)

    def hessian_bound(self, oracle: ProblemOracle) -> float:
        """The certified bound of every Hessian estimate a draw returns."""
        return self._cap * self.problem.grad_lipschitz if self.hessian else 0.0

    def without_hessian(self) -> MiniBatchSampler:
        return replace(self, hessian=False)

    def constant_hessian(self, oracle: ProblemOracle) -> bool:
        return not self.hessian

    def lane_draw(self, oracle: ProblemOracle, seeds: list[int], alphas: Array):
        """Each lane draws ``LANE_CHUNK`` iterations' batch rows at once."""
        K = len(alphas) - 1
        rngs = [rng_stream(seed, GRADIENT_STREAM) for seed in seeds]
        rows = np.zeros((len(seeds), LANE_CHUNK, self.batch_size), dtype=np.int64)

        def draw(k, ids, at, X, TG):
            j = (k - 1) % LANE_CHUNK
            if j == 0:
                count = min(LANE_CHUNK, K - k + 1)
                for lane in ids:
                    rows[lane, :count] = self.indices(rngs[lane], count)
            return self.draw_rows(X, rows[at, j], k)

        return draw

    def indices(self, rng: np.random.Generator, count: int | None = None) -> Array:
        """One iteration's batch rows, or a (count, batch_size) block whose
        row i is bit for bit the i-th of ``count`` successive draws."""
        size = self.batch_size if count is None else (count, self.batch_size)
        return rng.integers(0, self.problem.n_samples, size=size)

    def draw_rows(self, X: Array, idx: Array, k: int):
        """The draws at the rows of X, row i with the batch rows ``idx[i]``.

        Returns the (S, dim) gradient estimates and their Hessian
        estimates' ``hvp(r, V)`` (see ``EstimateSource``); None without
        ``hessian`` (the zero estimate).
        """
        p = self.problem
        G = p.batch_gradient(X, idx)
        _check_finite(G, k, X)
        if not self.hessian:
            return G, None
        X_b = p.X[idx]
        # from the raw X_b @ x: sigma'(m) and sigma'(-m) can differ in the last bit
        curv = _curvature(matvec(X_b, X))
        tau = self._cap
        return G, lambda r, V: tau * p._batch_hvp(curv[r], V, X_b[r])


def _check_finite(g: Array, k: int, x: Array) -> None:
    """Raise on a non-finite mini-batch gradient, naming its point (the
    first such row's, for stacks)."""
    if np.all(np.isfinite(g)):
        return
    bad = int(np.argmin(np.isfinite(g).reshape(-1, g.shape[-1]).all(axis=1)))
    raise EvaluationError(
        f"non-finite mini-batch gradient at k={k}, x = {x.reshape(-1, x.shape[-1])[bad]!r}")


def make_logistic(n_samples: int, dim: int, l2: float, seed: int) -> LogisticProblem:
    """Synthetic separable-with-noise classification data.

    Labels come from a random unit normal plus label noise, so the
    problem is realizably noisy; a held-out block of the same
    distribution, max(64, n_samples // 4) samples, backs the validation
    loss.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    n_holdout = max(64, n_samples // 4)
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim)
    w_true /= np.linalg.norm(w_true)
    total = n_samples + n_holdout
    X = rng.standard_normal((total, dim))
    margins = X @ w_true + 0.3 * rng.standard_normal(total)
    y = np.where(margins >= 0.0, 1.0, -1.0)
    return LogisticProblem(
        X[:n_samples],
        y[:n_samples],
        l2=l2,
        holdout_features=X[n_samples:],
        holdout_labels=y[n_samples:],
    )


class RosenbrockProblem:
    """Chained Rosenbrock with standard coefficients (nonconvex).

    f(x) = sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2; the infimum 0 is
    attained at the all-ones point.  Curvature constants are certified
    only on the box |x_i| <= box_halfwidth (Gershgorin row sums of the
    tridiagonal Hessian); callers asserting them must keep iterates in
    the box.  ``value``, ``grad`` and ``hvp`` also take (S, n) row stacks.
    """

    def __init__(self, n: int, box_halfwidth: float = 2.0):
        if n < 2:
            raise ConfigurationError("chained Rosenbrock needs n >= 2")
        if box_halfwidth <= 0:
            raise ConfigurationError("box_halfwidth must be positive")
        self.dim = n
        self.box_halfwidth = float(box_halfwidth)
        B = self.box_halfwidth
        diag_max = 1200.0 * B**2 + 400.0 * B + 202.0
        self.grad_lipschitz = diag_max + 800.0 * B
        self.hess_lipschitz = 800.0 + float(np.hypot(2400.0 * B, 400.0))
        self.pl_constant = None
        self.f_min = 0.0

    def value(self, x: Array) -> float | Array:
        head, tail = x[..., :-1], x[..., 1:]
        terms = 100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2
        return terms.sum(axis=-1) if x.ndim == 2 else float(np.sum(terms))

    def grad(self, x: Array) -> Array:
        g = np.zeros_like(x)
        head, tail = x[..., :-1], x[..., 1:]
        resid = tail - head**2
        g[..., :-1] += -400.0 * head * resid - 2.0 * (1.0 - head)
        g[..., 1:] += 200.0 * resid
        return g

    def hvp(self, x: Array, v: Array) -> Array:
        out = np.zeros_like(v)
        head, tail = x[..., :-1], x[..., 1:]
        diag_head = 1200.0 * head**2 - 400.0 * tail + 2.0
        off = -400.0 * head
        out[..., :-1] += diag_head * v[..., :-1] + off * v[..., 1:]
        out[..., 1:] += off * v[..., :-1] + 200.0 * v[..., 1:]
        return out

    def validation_loss(self, x: Array) -> float:
        return self.value(x)


class QuarticBowlProblem:
    """Quadratic-plus-quartic bowl with a Lipschitz-certified Hessian.

    f(x) = 0.5 z'Az + (quartic/4) ||z||^4 with z = x - x_star and A
    positive definite; the unique minimizer is x_star with f_min = 0 and
    PL constant lambda_min(A) (global).  L_g and L_H are certified on
    the ball ||z|| <= radius: L_g = lambda_max + 3 q R^2, L_H = 6 q R.
    ``value``, ``grad`` and ``hvp`` also take (S, n) row stacks.
    """

    def __init__(self, A: Array, x_star: Array, quartic: float = 1.0, radius: float = 5.0):
        A = np.asarray(A, dtype=float)
        x_star = np.asarray(x_star, dtype=float)
        if quartic <= 0 or radius <= 0:
            raise ConfigurationError("quartic coefficient and radius must be positive")
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] <= 0:
            raise ConfigurationError("A must be positive definite")
        self.A = 0.5 * (A + A.T)
        self.x_star = x_star
        self.quartic = float(quartic)
        self.radius = float(radius)
        self.dim = int(x_star.shape[0])
        self.grad_lipschitz = float(eigs[-1] + 3.0 * quartic * radius**2)
        self.hess_lipschitz = float(6.0 * quartic * radius)
        self.pl_constant = float(eigs[0])
        self.f_min = 0.0

    def in_ball(self, x: Array) -> bool:
        return bool(np.linalg.norm(x - self.x_star) <= self.radius)

    def value(self, x: Array) -> float | Array:
        z = x - self.x_star
        if x.ndim == 2:
            return (rowdot(0.5 * z, matvec(self.A, z))
                    + 0.25 * self.quartic * libm_pow(rowdot(z, z), 2))
        zz = float(z @ z)
        return float(0.5 * z @ (self.A @ z) + 0.25 * self.quartic * zz**2)

    def grad(self, x: Array) -> Array:
        z = x - self.x_star
        if x.ndim == 2:
            return matvec(self.A, z) + (self.quartic * rowdot(z, z))[:, None] * z
        return self.A @ z + self.quartic * float(z @ z) * z

    def hvp(self, x: Array, v: Array) -> Array:
        z = x - self.x_star
        if v.ndim == 2:
            # z is one point or one per row of v
            zz, zv = rowdot(z, z), rowdot(z, v)
            return matvec(self.A, v) + self.quartic * (
                zz[..., None] * v + (2.0 * zv)[:, None] * z)
        return self.A @ v + self.quartic * (float(z @ z) * v + 2.0 * float(z @ v) * z)

    def validation_loss(self, x: Array) -> float:
        return self.value(x)


def make_quartic_bowl(
    n: int,
    lam_min: float,
    lam_max: float,
    quartic: float,
    radius: float,
    seed: int,
) -> QuarticBowlProblem:
    """Random-basis quartic bowl centered at a random unit-norm point."""
    base = make_quadratic(n, lam_min, lam_max, seed)
    rng = np.random.default_rng(seed + 1)
    x_star = rng.standard_normal(n)
    x_star /= np.linalg.norm(x_star)
    return QuarticBowlProblem(base.A, x_star, quartic=quartic, radius=radius)


def load_quadratic_csv(path: str) -> QuadraticProblem:
    """Quadratic from CSV: n rows of n+1 numbers, [A | b] per row."""
    rows = _read_numeric_csv(path)
    n = len(rows)
    if any(len(r) != n + 1 for r in rows):
        raise ConfigurationError(f"{path}: expected {n} rows of {n + 1} columns ([A | b])")
    data = np.asarray(rows, dtype=float)
    return QuadraticProblem(data[:, :n], data[:, n])


def load_logistic_csv(path: str, l2: float = 0.0) -> LogisticProblem:
    """Logistic data from CSV: feature columns followed by a +-1 label column."""
    rows = _read_numeric_csv(path)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ConfigurationError(f"{path}: expected feature columns plus a label column")
    return LogisticProblem(data[:, :-1], data[:, -1], l2=l2)


def _read_numeric_csv(path: str) -> list[list[float]]:
    """Rows of finite numbers; blank lines are skipped."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            return [_finite_row(path, reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _finite_row(path: str, line: int, row: list[str]) -> list[float]:
    values = []
    for col, cell in enumerate(row, start=1):
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigurationError(
                f"{path}: row {line}, column {col}: {cell!r} is not a finite number")
        values.append(value)
    return values
