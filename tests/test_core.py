import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    GammaSchedule,
    MiniBatchSampler,
    NoiseModel,
    StepsizeSchedule,
    hvp_finite_difference,
    rng_stream,
    run_sg,
)
from trish.core import draw_noise_block, hessian_estimate, matvec, rowdot, stacked_dense
from trish.problems import (
    QuadraticProblem,
    RosenbrockProblem,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)

from reference import sample_gradient, sample_hessian


def diag_quadratic(entries):
    n = len(entries)
    return QuadraticProblem(np.diag(np.asarray(entries, float)), np.zeros(n))


def test_zero_noise_returns_exact_gradient():
    # without noise the loop steps along the true gradient: x1 = x0 - alpha grad(x0)
    prob = diag_quadratic([1.0, 4.0])
    x = np.array([0.7, -1.3])
    traj = run_sg(prob, x, StepsizeSchedule.constant(0.1), NoiseModel(kind="none"), 1, 0)
    g = prob.grad(x)
    assert traj.column("g_norm")[1] == np.linalg.norm(g)
    assert traj.column("f")[1] == prob.value(x - 0.1 * g)


def test_bounded_noise_per_coordinate_std_and_variance():
    # total variance M_g = 1 over n = 4 coordinates: std 0.5 per coordinate
    # successive sample_gradient draws, in one block
    noise = NoiseModel(kind="bounded", m_g=1.0)
    n_draws = 100_000
    diffs = draw_noise_block(rng_stream(1, 0),
                             np.full(n_draws, noise.gradient_variance(1, 0.1)), 4)
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
    assert bulk.tobytes() == scalar.tobytes()
    assert rowdot(bulk, bulk).tobytes() == np.array([g @ g for g in scalar]).tobytes()
    # per-coordinate scales from 1e-150 to 1e150, in blocks with some rows,
    # every row and no row drawn, and with zero rows: the same bits as
    # successive rng.normal draws, and the stream left where they leave it
    meta = np.random.default_rng(20)
    for case in range(60):
        rows, dim = int(meta.integers(0, 12)), int(meta.integers(1, 8))
        variances = 10.0 ** meta.uniform(-300, 300, rows) * dim
        if case % 3 == 1:
            variances[meta.random(rows) < 0.5] = 0.0
        elif case % 3 == 2 and rows:
            variances[:] = 0.0
        one_by_one, block = rng_stream(case, 0), rng_stream(case, 0)
        expected = np.array([one_by_one.normal(0.0, np.sqrt(v / dim), size=dim) if v > 0.0
                             else np.zeros(dim) for v in variances]).reshape(rows, dim)
        assert draw_noise_block(block, variances, dim).tobytes() == expected.tobytes()
        assert block.random() == one_by_one.random()


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


# one constructor per parameter, at a value v of that parameter alone
PARAMETERS = {
    "alpha": lambda v: StepsizeSchedule.constant(v),
    "a": lambda v: StepsizeSchedule.diminishing(v, 1.0),
    "b": lambda v: StepsizeSchedule.diminishing(1.0, v),
    "gamma1": lambda v: GammaSchedule.constant(v, 1.0),
    "gamma2": lambda v: GammaSchedule.constant(2.0, v),
    "eta": lambda v: GammaSchedule.merging(1.0, v),
    "m_g": lambda v: NoiseModel(kind="bounded", m_g=v),
    "m_h": lambda v: NoiseModel(hessian_kind="exact-capped", m_h=v),
    "perturbation": lambda v: NoiseModel(hessian_kind="perturbed", m_h=1.0, perturbation=v),
    "sampler.m_h": lambda v: MiniBatchSampler(make_logistic(20, 2, l2=0.1, seed=0), 4,
                                              hessian=True, m_h=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(PARAMETERS))
def test_non_finite_parameters_rejected(field, value):
    # NaN fails no range check (every comparison with it is False)
    PARAMETERS[field](1.0)
    with pytest.raises(ConfigurationError, match=f"^{field.split('.')[-1]} must be finite"):
        PARAMETERS[field](value)


def estimate_at(prob, x, noise, seed=0):
    """The library's estimate at the one point x, as the lanes draw it:
    ``(hvp, bound)``, the perturbation from the Hessian stream of ``seed``."""
    at, bound = hessian_estimate(prob, noise, [seed])
    return at(np.asarray(x, dtype=float)[None], [0]), bound


class TestSampleHessian:
    def test_zero_kind(self):
        prob = diag_quadratic([1.0, 4.0])
        assert estimate_at(prob, np.zeros(2), NoiseModel(kind="none")) == (None, 0.0)

    def test_zero_is_a_zero_norm_bound(self):
        # both sources give the zero estimate as no product form and bound 0
        prob = make_logistic(30, 3, l2=0.1, seed=1)
        sampler = MiniBatchSampler(prob, 4)
        assert sampler.norm_bound == 0.0
        assert sampler.draw_rows(np.zeros((2, 3)), np.zeros((2, 4), dtype=np.int64), 1)[1] is None
        assert MiniBatchSampler(prob, 4, hessian=True).norm_bound > 0.0
        zero = NoiseModel(kind="none", hessian_kind="zero", m_h=5.0)
        assert estimate_at(prob, np.zeros(3), zero) == (None, 0.0)

    def test_exact_capped_no_scaling_needed(self):
        # m_h = 10 >= L_g = 4: tau = 1, operator is the true Hessian
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=10.0)
        hvp, bound = estimate_at(prob, np.zeros(2), noise)
        assert np.array_equal(hvp(0, np.array([[1.0, 1.0]])), [[1.0, 4.0]])
        assert bound == 4.0

    def test_exact_capped_scales_down(self):
        # m_h = 2 < L_g = 4: tau = 0.5
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=2.0)
        hvp, bound = estimate_at(prob, np.zeros(2), noise)
        assert np.allclose(hvp(0, np.array([[0.0, 1.0]])), [[0.0, 2.0]])
        assert bound == pytest.approx(2.0)

    def test_perturbed_respects_cap_and_symmetry(self):
        prob = diag_quadratic([1.0, 4.0, 2.0])
        noise = NoiseModel(kind="none", hessian_kind="perturbed", m_h=3.0,
                           perturbation=1.0)
        hvp, bound = estimate_at(prob, np.zeros(3), noise, seed=5)
        dense = stacked_dense(lambda E: hvp(0, E), 3)
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(dense))) <= 3.0 * (1 + 1e-12)
        assert bound <= 3.0 * (1 + 1e-12)

    def test_invalid_cap_raises(self):
        prob = diag_quadratic([1.0, 4.0])
        noise = NoiseModel(kind="none", hessian_kind="exact-capped")
        with pytest.raises(ConfigurationError):
            hessian_estimate(prob, noise, [0])


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["quadratic", "rosenbrock", "logistic", "quartic"]),
       kind=st.sampled_from(["exact-capped", "perturbed"]),
       n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1),
       cap=st.sampled_from([0.5, 1.0, 2.0]), lanes=st.integers(1, 4))
def test_row_stacked_dense_matches_column_loop(family, kind, n, seed, cap, lanes):
    """Each lane's dense estimate, one stacked product of the library's row
    form, is the reference's column loop at that lane's point, drawn
    from the same Hessian stream."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        prob = make_quadratic(n, 1.0, 10.0, seed=int(rng.integers(1 << 30)))
    elif family == "rosenbrock":
        prob = RosenbrockProblem(n)
    elif family == "quartic":
        prob = make_quartic_bowl(n, 1.0, 4.0, quartic=1.0, radius=4.0,
                                 seed=int(rng.integers(1 << 30)))
    else:
        prob = make_logistic(int(rng.integers(1, 400)), n, l2=0.01,
                             seed=int(rng.integers(1 << 30)))
    X = rng.uniform(-2.0, 2.0, (lanes, n))
    noise = NoiseModel(kind="none", hessian_kind=kind, m_h=cap * prob.grad_lipschitz,
                       perturbation=0.3 * prob.grad_lipschitz)
    seeds = [seed + i for i in range(lanes)]
    at, bound = hessian_estimate(prob, noise, seeds)
    hvp = at(X, np.arange(lanes))
    for i in range(lanes):
        est = sample_hessian(prob, X[i], noise, rng_stream(seeds[i], 1))
        dense = stacked_dense(lambda E: hvp(i, E), n)
        expected = est.dense(n)
        assert dense.flags.c_contiguous
        assert dense.shape == expected.shape and dense.tobytes() == expected.tobytes()
        assert bound == est.norm_bound


def signed_draw(rng, *shape):
    """Normal draws with some entries set to 0.0 and -0.0, so that a
    kernel that loses the sign of a zero product differs in its bytes."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(["rows", "shared", "data", "transposed", "stacks"]),
       S=st.integers(1, 9), n=st.integers(0, 48), B=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_row_kernels_are_the_per_row_products(layout, S, n, B, seed):
    """``rowdot`` and ``matvec`` equal the 1-D ``@`` of each row byte for
    byte, on every layout the library passes them: (S, n) rows, one
    shared matrix (the logistic data shape among them), a transposed
    ``swapaxes`` view, and (S, B, dim) stacks."""
    rng = np.random.default_rng(seed)
    if layout == "rows":
        X, Y = signed_draw(rng, S, n), signed_draw(rng, S, n)
        pairs = [(rowdot(X, Y), [x @ y for x, y in zip(X, Y)])]
    elif layout == "shared":
        A, X = signed_draw(rng, n, n), signed_draw(rng, S, n)
        pairs = [(matvec(A, X), [A @ x for x in X])]
    elif layout == "data":  # N = 2000 samples of dimension 20, and its transpose
        A, X, W = signed_draw(rng, 2000, 20), signed_draw(rng, S, 20), signed_draw(rng, S, 2000)
        pairs = [(matvec(A, X), [A @ x for x in X]),
                 (matvec(A.swapaxes(-1, -2), W), [A.T @ w for w in W])]
    elif layout == "transposed":  # the exact solver's Q.T, shared and stacked
        Q, Qs, X = signed_draw(rng, n, n), signed_draw(rng, S, n, n), signed_draw(rng, S, n)
        pairs = [(matvec(Q.swapaxes(-1, -2), X), [Q.T @ x for x in X]),
                 (matvec(Qs.swapaxes(-1, -2), X), [q.T @ x for q, x in zip(Qs, X)])]
    else:  # mini-batch stacks: (S, B, dim) data, (S, dim) points, (S, B) weights
        Xb, Yb = signed_draw(rng, S, B, n), signed_draw(rng, S, B, n)
        x, v = signed_draw(rng, S, n), signed_draw(rng, S, B)
        pairs = [(matvec(Xb, x), [a @ b for a, b in zip(Xb, x)]),
                 (matvec(Xb.swapaxes(-1, -2), v), [a.T @ b for a, b in zip(Xb, v)]),
                 (rowdot(Xb, Yb), [[a @ b for a, b in zip(P, R)] for P, R in zip(Xb, Yb)])]
    for got, expected in pairs:
        expected = np.array(expected, dtype=float).reshape(got.shape)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


class TestDenseMaterialization:
    def test_one_product_for_row_stacked_oracle(self):
        prob = make_quadratic(7, 1.0, 5.0, seed=4)
        calls = []
        hvp = prob.hvp
        prob.hvp = lambda x, v: calls.append(v.shape) or hvp(x, v)
        noise = NoiseModel(kind="none", hessian_kind="exact-capped", m_h=2.0)
        product, _ = estimate_at(prob, np.ones(7), noise)
        stacked_dense(lambda E: product(0, E), 7)
        assert calls == [(7, 7)]


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
