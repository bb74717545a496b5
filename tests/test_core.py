import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    HessianEstimate,
    NoiseModel,
    hvp_finite_difference,
    rng_stream,
    sample_gradient,
    sample_hessian,
)
from trish.core import draw_noise_block, rowdot
from trish.problems import QuadraticProblem, RosenbrockProblem, make_quadratic


def diag_quadratic(entries):
    n = len(entries)
    return QuadraticProblem(np.diag(np.asarray(entries, float)), np.zeros(n))


def test_zero_noise_returns_exact_gradient():
    prob = diag_quadratic([1.0, 4.0])
    x = np.array([0.7, -1.3])
    g = sample_gradient(prob, x, NoiseModel(kind="none"), k=1, alpha_k=0.1,
                        rng=rng_stream(0, 0))
    assert np.array_equal(g, prob.grad(x))


def test_bounded_noise_per_coordinate_std_and_variance():
    # total variance M_g = 1 over n = 4 coordinates: std 0.5 per coordinate
    prob = diag_quadratic([1.0, 1.0, 1.0, 1.0])
    x = np.zeros(4)
    noise = NoiseModel(kind="bounded", m_g=1.0)
    rng = rng_stream(1, 0)
    n_draws = 100_000
    diffs = np.array([
        sample_gradient(prob, x, noise, 1, 0.1, rng) - prob.grad(x)
        for _ in range(n_draws)
    ])
    assert np.allclose(diffs.std(axis=0, ddof=1), 0.5, atol=0.01)
    sq = np.sum(diffs**2, axis=1)
    se = sq.std(ddof=1) / np.sqrt(n_draws)
    assert abs(sq.mean() - 1.0) <= 3 * se


def test_noise_block_equals_successive_sample_gradient_draws():
    # zero-variance rows in between must consume no random numbers
    prob = make_quadratic(3, 1.0, 4.0, seed=5)
    x = np.array([0.3, -0.2, 0.5])
    noise = NoiseModel(kind="stepwise", m_g=2.0)
    alphas = [0.5, 0.0, 0.3, 0.0, 0.0, 1.7, 0.2]
    rng = rng_stream(7, 0)
    scalar = np.array([sample_gradient(prob, x, noise, k, a, rng)
                       for k, a in enumerate(alphas, start=1)])
    variances = np.array([noise.gradient_variance(k, a) for k, a in enumerate(alphas, start=1)])
    bulk = prob.grad(x) + draw_noise_block(rng_stream(7, 0), variances, prob.dim)
    assert np.array_equal(bulk, scalar)
    assert np.array_equal(rowdot(bulk, bulk), [g @ g for g in scalar])


def test_geometric_noise_variance_target():
    noise = NoiseModel(kind="geometric", m_g=1.0, zeta=0.5)
    assert noise.gradient_variance(k=3, alpha_k=0.7) == pytest.approx(0.25)
    assert noise.gradient_variance(k=1, alpha_k=0.7) == pytest.approx(1.0)


def test_stepwise_noise_variance_tracks_alpha():
    noise = NoiseModel(kind="stepwise", m_g=2.0)
    assert noise.gradient_variance(k=9, alpha_k=0.25) == pytest.approx(0.5)


def test_noise_model_validation():
    with pytest.raises(ConfigurationError):
        NoiseModel(kind="laplace")
    with pytest.raises(ConfigurationError):
        NoiseModel(kind="geometric", m_g=1.0, zeta=1.5)
    with pytest.raises(ConfigurationError):
        NoiseModel(kind="none", hessian_kind="sketchy")


class TestSampleHessian:
    def test_zero_kind(self):
        prob = diag_quadratic([1.0, 4.0])
        est = sample_hessian(prob, np.zeros(2), NoiseModel(kind="none"), rng_stream(0, 1))
        assert est.is_zero
        assert est.norm_bound == 0.0
        assert np.array_equal(est.apply(np.array([3.0, -2.0])), np.zeros(2))

    def test_exact_capped_no_scaling_needed(self):
        # m_h = 10 >= L_g = 4: tau = 1, operator is the true Hessian
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=10.0)
        est = sample_hessian(prob, np.zeros(2), noise, rng_stream(0, 1))
        v = np.array([1.0, 1.0])
        assert np.array_equal(est.apply(v), np.array([1.0, 4.0]))

    def test_exact_capped_scales_down(self):
        # m_h = 2 < L_g = 4: tau = 0.5
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=2.0)
        est = sample_hessian(prob, np.zeros(2), noise, rng_stream(0, 1))
        assert np.allclose(est.apply(np.array([0.0, 1.0])), np.array([0.0, 2.0]))
        assert est.norm_bound == pytest.approx(2.0)

    def test_perturbed_respects_cap_and_symmetry(self):
        prob = diag_quadratic([1.0, 4.0, 2.0])
        noise = NoiseModel(kind="none", hessian_kind="perturbed", m_h=3.0,
                           perturbation=1.0)
        est = sample_hessian(prob, np.zeros(3), noise, rng_stream(5, 1))
        dense = est.dense(3)
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(dense))) <= 3.0 * (1 + 1e-12)
        assert est.norm_bound <= 3.0 * (1 + 1e-12)

    def test_invalid_cap_raises(self):
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped")
        with pytest.raises(ConfigurationError):
            sample_hessian(prob, np.zeros(2), noise, rng_stream(0, 1))


def column_loop(est, n):
    """The per-column materialization: column j is ``apply(e_j)``."""
    eye = np.eye(n)
    return np.column_stack([est.apply(eye[:, j]) for j in range(n)])


@settings(max_examples=40, deadline=None)
@given(quadratic=st.booleans(), kind=st.sampled_from(["exact-capped", "perturbed"]),
       n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from([0.5, 1.0, 2.0]))
def test_row_stacked_dense_matches_column_loop(quadratic, kind, n, seed, cap):
    rng = np.random.default_rng(seed)
    if quadratic:
        prob = make_quadratic(n, 1.0, 10.0, seed=int(rng.integers(1 << 30)))
    else:
        prob = RosenbrockProblem(n)
    x = rng.uniform(-2.0, 2.0, n)
    noise = NoiseModel(kind="none", hessian_kind=kind, m_h=cap * prob.grad_lipschitz,
                       perturbation=0.3 * prob.grad_lipschitz)
    est = sample_hessian(prob, x, noise, rng_stream(seed, 1))
    assert est.row_stacked
    dense = est.dense(n)
    expected = column_loop(est, n)
    assert dense.flags.c_contiguous
    assert dense.shape == expected.shape and dense.tobytes() == expected.tobytes()


class TestDenseMaterialization:
    def test_custom_operator_keeps_column_loop(self):
        M = make_quadratic(6, 1.0, 5.0, seed=3).A
        calls = []

        def apply(v):
            calls.append(v.shape)
            return M @ v

        dense = HessianEstimate(apply=apply, norm_bound=5.0).dense(6)
        assert calls == [(6,)] * 6
        assert dense.flags.c_contiguous
        assert dense.tobytes() == column_loop(HessianEstimate(lambda v: M @ v, 5.0), 6).tobytes()

    def test_one_product_for_row_stacked_oracle(self):
        prob = make_quadratic(7, 1.0, 5.0, seed=4)
        calls = []
        hvp = prob.hvp
        prob.hvp = lambda x, v: calls.append(v.shape) or hvp(x, v)
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=2.0)
        sample_hessian(prob, np.ones(7), noise, rng_stream(0, 1)).dense(7)
        assert calls == [(7, 7)]

    def test_oracle_without_row_stacks_keeps_column_loop(self):
        class Plain:
            """A quadratic oracle that takes one vector at a time."""

            def __init__(self, prob):
                self.prob, self.dim, self.grad_lipschitz = prob, prob.dim, prob.grad_lipschitz

            def hvp(self, x, v):
                assert v.ndim == 1
                return self.prob.hvp(x, v)

        prob = make_quadratic(5, 1.0, 5.0, seed=8)
        noise = NoiseModel(kind="none", hessian_kind="perturbed", m_h=4.0, perturbation=1.0)
        est = sample_hessian(Plain(prob), np.ones(5), noise, rng_stream(2, 1))
        assert not est.row_stacked
        row = sample_hessian(prob, np.ones(5), noise, rng_stream(2, 1))
        assert est.dense(5).tobytes() == row.dense(5).tobytes()


class TestHvpFiniteDifference:
    def test_quadratic_is_exact_up_to_roundoff(self):
        prob = diag_quadratic([1.0, 4.0])
        x = np.array([0.3, -0.7])
        v = np.array([1.0, 2.0])
        fd = hvp_finite_difference(prob, x, v)
        assert np.allclose(fd, prob.A @ v, atol=1e-9)

    def test_rosenbrock_matches_analytic(self):
        prob = RosenbrockProblem(2)
        x = np.array([1.0, 1.0])
        v = np.array([1.0, 0.0])
        fd = hvp_finite_difference(prob, x, v, h=1e-5)
        exact = prob.hvp(x, v)
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_zero_direction_gives_zero(self):
        prob = diag_quadratic([1.0, 4.0])
        fd = hvp_finite_difference(prob, np.array([0.5, 0.5]), np.zeros(2))
        assert np.array_equal(fd, np.zeros(2))


def test_streams_are_independent_and_reproducible():
    a1 = rng_stream(42, 0).standard_normal(4)
    a2 = rng_stream(42, 0).standard_normal(4)
    b = rng_stream(42, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
