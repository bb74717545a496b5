import numpy as np
import pytest

from trish import (
    ConfigurationError,
    EvaluationError,
    hvp_finite_difference,
    load_logistic_csv,
    load_quadratic_csv,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)
from trish.core import rng_stream
from trish.problems import QuadraticProblem, RosenbrockProblem


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


def test_minibatch_sampler_rejects_non_finite_gradient():
    prob = make_logistic(40, 3, l2=0.1, seed=5)
    sample = prob.minibatch_sampler(4)
    with pytest.raises(EvaluationError, match="k=7"):
        sample(np.array([np.inf, 0.0, 0.0]), 7, 0.1, rng_stream(0, 0), rng_stream(0, 1))


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(7, 1.0, 10.0, seed=8),
    lambda: RosenbrockProblem(6),
])
def test_row_stacked_evaluation_matches_rows(make):
    prob = make()
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.5, 1.5, (9, prob.dim))
    V = rng.standard_normal((9, prob.dim))
    values, grads, hvps = prob.value(X), prob.grad(X), prob.hvp(X, V)
    assert prob.row_stacked
    for i in range(9):
        assert values[i] == prob.value(X[i])
        assert np.array_equal(grads[i], prob.grad(X[i]))
        assert np.array_equal(hvps[i], prob.hvp(X[i], V[i]))


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

    def test_logistic_round_trip(self, tmp_path):
        path = tmp_path / "logi.csv"
        path.write_text("0.5,1.0,1\n-0.5,0.2,-1\n0.1,0.9,1\n")
        prob = load_logistic_csv(str(path), l2=0.05)
        assert prob.n_samples == 3 and prob.dim == 2
        assert prob.l2 == 0.05
