from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    EvaluationError,
    GammaSchedule,
    StepsizeSchedule,
    TrishConfig,
    hvp_finite_difference,
    load_logistic_csv,
    load_quadratic_csv,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
    run_trish,
)
from trish.core import rng_stream
from trish.problems import (
    LogisticProblem,
    MiniBatchSampler,
    QuadraticProblem,
    QuarticBowlProblem,
    RosenbrockProblem,
    _sigmoid,
    make_quartic_bowl,
)


class TestQuadratic:
    def test_isotropic_construction(self):
        prob = make_quadratic(2, 1.0, 1.0, seed=0)
        assert prob.pl_constant == pytest.approx(1.0)
        assert prob.grad_lipschitz == pytest.approx(1.0)
        assert np.allclose(prob.A, np.eye(2), atol=1e-12)

    def test_spectrum_endpoints_recorded_exactly(self):
        prob = make_quadratic(10, 1.0, 10.0, seed=5)
        eigs = np.linalg.eigvalsh(prob.A)
        assert prob.pl_constant == 1.0 and prob.grad_lipschitz == 10.0
        assert abs(eigs[0] - 1.0) < 1e-9 and abs(eigs[-1] - 10.0) < 1e-9

    def test_pl_inequality_spot_check(self):
        prob = make_quadratic(6, 0.5, 8.0, seed=7)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = prob.x_star + rng.standard_normal(6)
            lhs = 2 * prob.pl_constant * (prob.value(x) - prob.f_min)
            assert lhs <= np.linalg.norm(prob.grad(x)) ** 2 * (1 + 1e-9) + 1e-9

    def test_f_min_matches_direct_solve(self):
        prob = make_quadratic(8, 1.0, 4.0, seed=3)
        x_solve = np.linalg.solve(prob.A, prob.b)
        assert abs(prob.value(x_solve) - prob.f_min) <= 1e-10

    def test_indefinite_reports_absent_constants(self):
        prob = QuadraticProblem(np.diag([-1.0, 2.0]), np.zeros(2))
        assert prob.pl_constant is None and prob.f_min is None
        assert prob.grad_lipschitz == pytest.approx(2.0)
        assert prob.hess_lipschitz == 0.0

    def test_diag_example_constants(self):
        prob = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 0.0]))
        assert (prob.grad_lipschitz, prob.hess_lipschitz, prob.pl_constant) == (4.0, 0.0, 1.0)
        assert prob.f_min == pytest.approx(-0.5)


class TestLogistic:
    def test_full_batch_equals_gradient(self):
        prob = make_logistic(80, 5, l2=0.1, seed=13)
        x = np.full(5, 0.2)
        full = prob.batch_gradient(x, np.arange(prob.n_samples))
        assert np.allclose(full, prob.grad(x), atol=1e-15)

    def test_minibatch_mean_matches_full_gradient(self):
        prob = make_logistic(60, 4, l2=0.0, seed=14)
        x = np.array([0.1, -0.2, 0.3, 0.0])
        rng = np.random.default_rng(15)
        draws = np.array([
            prob.batch_gradient(x, rng.integers(0, prob.n_samples, size=6))
            for _ in range(10_000)
        ])
        full = prob.grad(x)
        spread = np.mean(np.sum((draws - full) ** 2, axis=1))
        assert np.linalg.norm(draws.mean(axis=0) - full) <= 3 * np.sqrt(spread / 10_000)

    def test_regularizer_certifies_pl(self):
        prob = make_logistic(50, 3, l2=0.1, seed=16)
        assert prob.pl_constant == pytest.approx(0.1)
        assert make_logistic(50, 3, l2=0.0, seed=16).pl_constant is None

    def test_curvature_bounds(self):
        prob = make_logistic(50, 3, l2=0.2, seed=17)
        rows = np.linalg.norm(prob.X, axis=1)
        assert prob.grad_lipschitz == pytest.approx(0.25 * rows.max() ** 2 + 0.2)
        assert prob.hess_lipschitz == pytest.approx(np.sqrt(3) / 18 * np.mean(rows**3))
        # the certified bound dominates the third-derivative extremum
        x = np.zeros(3)
        v = np.ones(3)
        hv = prob.hvp(x, v)
        assert np.isfinite(hv).all()

    def test_label_validation(self):
        with pytest.raises(ConfigurationError):
            from trish.problems import LogisticProblem
            LogisticProblem(np.ones((3, 2)), np.array([0.0, 1.0, -1.0]))


# The logistic kernels these replaced, kept as references: the masked
# sigmoid, the logaddexp loss, and the curvature recomputed per product.
def masked_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def reference_loss(prob, x, X, y):
    return float(np.mean(np.logaddexp(0.0, -y * (X @ x))) + 0.5 * prob.l2 * x @ x)


def reference_grad(prob, x, X, y):
    weights = -y * masked_sigmoid(-y * (X @ x))
    return X.T @ weights / X.shape[0] + prob.l2 * x


def reference_hvp(prob, x, v, X):
    sig = masked_sigmoid(X @ x)
    curv = sig * (1.0 - sig)
    return X.T @ (curv * (X @ v)) / X.shape[0] + prob.l2 * v


LOGI = make_logistic(60, 5, l2=0.1, seed=31)


def fresh_logistic():
    """A copy of ``LOGI`` whose margin memo is empty."""
    return LogisticProblem(LOGI.X, LOGI.y, LOGI.l2, LOGI.holdout_X, LOGI.holdout_y)


class TestLogisticKernels:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_sigmoid_bit_identical_to_masked_form(self, values):
        t = np.array(values + [0.0, -0.0, 745.5, -745.5, 1e308, -1e308])
        assert _sigmoid(t).tobytes() == masked_sigmoid(t).tobytes()

    # x scales from signed zeros to margins far beyond +-745, where exp underflows
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, -0.0, 1e-8, 0.1, 1.0, 30.0, 1e3, 1e5]),
           st.integers(0, 2**32 - 1))
    def test_kernels_match_references(self, scale, seed):
        prob = fresh_logistic()
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(prob.dim)
        v = rng.standard_normal(prob.dim)
        idx = rng.integers(0, prob.n_samples, size=10)
        X_b, y_b = prob.X[idx], prob.y[idx]

        value = prob.value(x)
        expected = reference_loss(prob, x, prob.X, prob.y)
        assert abs(value - expected) <= 1e-15 * abs(expected)
        assert prob.grad(x).tobytes() == reference_grad(prob, x, prob.X, prob.y).tobytes()
        assert prob.hvp(x, v).tobytes() == reference_hvp(prob, x, v, prob.X).tobytes()
        assert (prob.batch_gradient(x, idx).tobytes()
                == reference_grad(prob, x, X_b, y_b).tobytes())
        apply = prob.batch_hessian(x, idx).apply
        for w in (v, -2.0 * v, v):
            assert apply(w).tobytes() == reference_hvp(prob, x, w, X_b).tobytes()
        held = reference_loss(prob, x, prob.holdout_X, prob.holdout_y)
        assert abs(prob.validation_loss(x) - held) <= 1e-15 * abs(held)

    def test_value_at_zero_is_exact(self):
        x = np.zeros(LOGI.dim)
        assert fresh_logistic().value(x) == reference_loss(LOGI, x, LOGI.X, LOGI.y)
        assert fresh_logistic().value(x) == float(np.mean(np.full(LOGI.n_samples, np.log(2.0))))


class TestMarginMemo:
    """value and grad share a one-entry margin memo; every call must
    return what a problem with an empty memo returns."""

    @staticmethod
    def assert_fresh(prob, x):
        assert prob.value(x) == fresh_logistic().value(x)
        assert prob.grad(x).tobytes() == fresh_logistic().grad(x).tobytes()

    def test_grad_before_value(self):
        prob = fresh_logistic()
        x = np.linspace(-1.0, 1.0, prob.dim)
        g = prob.grad(x)
        assert g.tobytes() == fresh_logistic().grad(x).tobytes()
        assert prob.value(x) == fresh_logistic().value(x)

    def test_x_mutated_in_place_between_calls(self):
        prob = fresh_logistic()
        x = np.linspace(-1.0, 1.0, prob.dim)
        prob.value(x)
        x[2] += 0.5
        assert prob.grad(x).tobytes() == fresh_logistic().grad(x).tobytes()
        assert prob.value(x) == fresh_logistic().value(x)

    def test_two_alternating_points(self):
        prob = fresh_logistic()
        a, b = np.linspace(-1.0, 1.0, prob.dim), np.linspace(2.0, -3.0, prob.dim)
        for x in (a, b, a, b):
            self.assert_fresh(prob, x)
        prob.value(a)
        assert prob.grad(b).tobytes() == fresh_logistic().grad(b).tobytes()

    def test_signed_zero_keys(self):
        prob = fresh_logistic()
        zeros, negative_zeros = np.zeros(prob.dim), np.full(prob.dim, -0.0)
        prob.value(zeros)
        self.assert_fresh(prob, negative_zeros)
        self.assert_fresh(prob, zeros)

    def test_runs_identical_without_memo_hits(self):
        """A run whose value and grad go to two separate problems never
        hits the memo; its trace must equal the shared-memo run's."""
        config = TrishConfig(StepsizeSchedule.constant(0.5), GammaSchedule.constant(2.0, 1.0),
                             iterations=40, seed=4)
        split = SimpleNamespace(dim=LOGI.dim, grad_lipschitz=LOGI.grad_lipschitz,
                                value=fresh_logistic().value, grad=fresh_logistic().grad)
        runs = [run_trish(oracle, np.zeros(LOGI.dim), config,
                          sampler=MiniBatchSampler(LOGI, 10, hessian=True))
                for oracle in (fresh_logistic(), split)]
        shared, separate = (run.records for run in runs)
        for name in shared.dtype.names:
            if name != "wall_ns":
                assert shared[name].tobytes() == separate[name].tobytes(), name
        assert runs[0].final_x.tobytes() == runs[1].final_x.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 9), batch=st.integers(1, 30),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 50.0]), m_h=st.sampled_from([None, 0.3]))
def test_minibatch_draw_rows_match_calls(seed, lanes, batch, scale, m_h):
    """Row i of a stacked draw is what a call at X[i] drawing idx[i] returns."""
    rng = np.random.default_rng(seed)
    prob = make_logistic(int(rng.integers(1, 300)), 6, l2=0.01, seed=seed % 1000)
    sampler = MiniBatchSampler(prob, batch, hessian=True, m_h=m_h)
    X = scale * rng.standard_normal((lanes, prob.dim))
    V = rng.standard_normal((lanes, prob.dim))
    streams = [rng_stream(seed + i, 0) for i in range(lanes)]
    idx = np.stack([sampler.indices(stream) for stream in streams])
    G, hvp = sampler.draw_rows(X, idx, 3)
    rows = np.arange(lanes)[::-1]  # a subset order of rows, as Steihaug passes them
    products = hvp(rows, V[rows])
    for i in range(lanes):
        g, est = sampler(X[i], 3, 0.1, rng_stream(seed + i, 0), None)
        assert g.tobytes() == G[i].tobytes()
        assert est.apply(V[i]).tobytes() == products[lanes - 1 - i].tobytes()
        assert est.norm_bound == sampler.norm_bound
    assert replace(sampler, hessian=False).draw_rows(X, idx, 3)[1] is None


def test_minibatch_sampler_rejects_non_finite_gradient():
    prob = make_logistic(40, 3, l2=0.1, seed=5)
    sample = MiniBatchSampler(prob, 4)
    with pytest.raises(EvaluationError, match="k=7"):
        sample(np.array([np.inf, 0.0, 0.0]), 7, 0.1, rng_stream(0, 0), rng_stream(0, 1))
    X = np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]])
    with pytest.raises(EvaluationError, match=r"k=7, x = array\(\[ 0., inf,  0.\]\)"):
        sample.draw_rows(X, np.zeros((2, 4), dtype=np.int64), 7)


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(7, 1.0, 10.0, seed=8),
    lambda: RosenbrockProblem(6),
    lambda: make_logistic(300, 7, l2=0.05, seed=8),
    lambda: make_quartic_bowl(7, 1.0, 4.0, quartic=1.0, radius=4.0, seed=8),
])
def test_row_stacked_evaluation_matches_rows(make):
    prob = make()
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.5, 1.5, (9, prob.dim))
    V = rng.standard_normal((9, prob.dim))
    values, grads, hvps = prob.value(X), prob.grad(X), prob.hvp(X, V)
    at_one_point = prob.hvp(X[0], V)
    for i in range(9):
        assert values[i] == prob.value(X[i])
        assert np.array_equal(grads[i], prob.grad(X[i]))
        assert np.array_equal(hvps[i], prob.hvp(X[i], V[i]))
        assert np.array_equal(at_one_point[i], prob.hvp(X[0], V[i]))


def test_stacked_quartic_value_squares_like_the_scalar_one():
    # here numpy's vectorized square of ||z||^2 and Python's float ** 2
    # (libm pow) differ in the last bit, and so would the two values
    prob = QuarticBowlProblem(np.eye(1), np.zeros(1))
    X = np.array([[1.125763049464739]])
    assert prob.value(X)[0] == prob.value(X[0])


class TestRosenbrock:
    def test_minimum_at_ones(self):
        prob = RosenbrockProblem(10)
        ones = np.ones(10)
        assert prob.value(ones) == 0.0
        assert np.allclose(prob.grad(ones), np.zeros(10), atol=1e-14)
        assert prob.f_min == 0.0 and prob.pl_constant is None

    def test_gradient_matches_finite_differences(self):
        prob = RosenbrockProblem(6)
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 6)
            g = prob.grad(x)
            h = 1e-6
            fd = np.array([
                (prob.value(x + h * e) - prob.value(x - h * e)) / (2 * h)
                for e in np.eye(6)
            ])
            assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_hvp_matches_finite_difference_operator(self):
        prob = RosenbrockProblem(5)
        rng = np.random.default_rng(20)
        x = rng.uniform(-1.0, 1.0, 5)
        v = rng.standard_normal(5)
        fd = hvp_finite_difference(prob, x, v)
        assert np.linalg.norm(fd - prob.hvp(x, v)) <= 1e-6 * np.linalg.norm(fd)

    def test_box_certificate_bounds_hessian(self):
        prob = RosenbrockProblem(7, box_halfwidth=2.0)
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, 7)
            dense = np.column_stack([prob.hvp(x, e) for e in np.eye(7)])
            assert np.max(np.abs(np.linalg.eigvalsh(dense))) <= prob.grad_lipschitz


class TestQuarticBowl:
    def test_minimum_and_constants(self):
        prob = make_quartic_bowl(5, 1.0, 4.0, quartic=1.0, radius=4.0, seed=23)
        assert prob.value(prob.x_star) == 0.0
        assert np.allclose(prob.grad(prob.x_star), np.zeros(5))
        assert prob.hess_lipschitz == pytest.approx(6.0 * 4.0)
        assert prob.grad_lipschitz >= 4.0

    def test_hessian_lipschitz_certificate_on_ball(self):
        prob = make_quartic_bowl(4, 1.0, 3.0, quartic=0.5, radius=2.0, seed=24)
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(60):
            u = rng.standard_normal(4)
            x = prob.x_star + u / np.linalg.norm(u) * rng.uniform(0, 2.0)
            v = rng.standard_normal(4)
            y = prob.x_star + v / np.linalg.norm(v) * rng.uniform(0, 2.0)
            Hx = np.column_stack([prob.hvp(x, e) for e in np.eye(4)])
            Hy = np.column_stack([prob.hvp(y, e) for e in np.eye(4)])
            lhs = np.linalg.norm(Hx - Hy, 2)
            worst = max(worst, lhs / max(np.linalg.norm(x - y), 1e-12))
        assert worst <= prob.hess_lipschitz * (1 + 1e-9)

    def test_pl_certificate(self):
        prob = make_quartic_bowl(4, 1.0, 3.0, quartic=1.0, radius=3.0, seed=26)
        rng = np.random.default_rng(27)
        for _ in range(500):
            x = prob.x_star + rng.standard_normal(4)
            lhs = 2 * prob.pl_constant * prob.value(x)
            assert lhs <= np.linalg.norm(prob.grad(x)) ** 2 * (1 + 1e-9) + 1e-12


class TestCSVImport:
    def test_quadratic_round_trip(self, tmp_path):
        path = tmp_path / "quad.csv"
        path.write_text("2.0,0.0,1.0\n0.0,3.0,-1.0\n")
        prob = load_quadratic_csv(str(path))
        assert np.allclose(prob.A, np.diag([2.0, 3.0]))
        assert np.allclose(prob.b, [1.0, -1.0])

    def test_quadratic_shape_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ConfigurationError):
            load_quadratic_csv(str(path))

    @pytest.mark.parametrize("load, text, where", [
        (load_logistic_csv, "0.5,1.0,1\n\n-0.5,nan,-1\n", "row 3, column 2"),
        (load_logistic_csv, "0.5,1.0,1\n-0.5,0.2,-inf\n", "row 2, column 3"),
        (load_quadratic_csv, "2.0,0.0,1.0\n0.0,inf,-1.0\n", "row 2, column 2"),
        (load_quadratic_csv, "2.0,x,1.0\n0.0,3.0,-1.0\n", "row 1, column 2"),
    ])
    def test_rejects_cell_that_is_not_a_finite_number(self, tmp_path, load, text, where):
        path = tmp_path / "cells.csv"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=rf"cells\.csv: {where}: "):
            load(str(path))

    def test_logistic_round_trip(self, tmp_path):
        path = tmp_path / "logi.csv"
        path.write_text("0.5,1.0,1\n-0.5,0.2,-1\n0.1,0.9,1\n")
        prob = load_logistic_csv(str(path), l2=0.05)
        assert prob.n_samples == 3 and prob.dim == 2
        assert prob.l2 == 0.05
