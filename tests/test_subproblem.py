import warnings

import numpy as np
import pytest

from trish import (
    ConfigurationError,
    EighMemo,
    HessianEstimate,
    NumericalError,
    RadiusCase,
    ZeroGradientError,
    cauchy_point,
    exact_trs,
    kkt_residuals,
    model_value,
    radius,
    steihaug_cg,
)
from trish.subproblem import steihaug_cg_rows


def op(matrix):
    matrix = np.asarray(matrix, float)
    return HessianEstimate(apply=lambda v: matrix @ v,
                           norm_bound=float(np.max(np.abs(np.linalg.eigvalsh(matrix)))))


class TestRadius:
    @pytest.mark.parametrize("g_norm,alpha,g1,g2,delta,case", [
        (0.05, 0.1, 10.0, 1.0, 0.05, RadiusCase.CASE1),
        (0.5, 0.1, 10.0, 1.0, 0.1, RadiusCase.CASE2),
        (4.0, 0.1, 10.0, 1.0, 0.4, RadiusCase.CASE3),
        (0.1, 0.1, 10.0, 1.0, 0.1, RadiusCase.CASE2),  # tie goes to the middle case
    ])
    def test_three_case_table(self, g_norm, alpha, g1, g2, delta, case):
        assert radius(g_norm, alpha, g1, g2) == (delta, case)

    def test_breakpoint_continuity(self):
        d, _ = radius(1.0 / 10.0, 0.1, 10.0, 1.0)
        assert abs(10.0 * 0.1 * (1.0 / 10.0) - d) <= 1e-12

    def test_gamma_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            radius(1.0, 0.1, 1.0, 2.0)


class TestModelValue:
    def test_origin(self):
        assert model_value(np.array([1.0, 2.0]), op(np.eye(2)), np.zeros(2)) == 0.0

    def test_quadratic_term(self):
        g = np.array([1.0, 0.0])
        assert model_value(g, op(np.eye(2)), np.array([-1.0, 0.0])) == pytest.approx(-0.5)

    def test_linear_model(self):
        g = np.array([1.0, 0.0])
        assert model_value(g, HessianEstimate.zero(2), np.array([-2.0, 0.0])) == pytest.approx(-2.0)


def grid_cauchy_oracle(g, hess, delta, n_grid=200_001):
    """Independent oracle: dense 1-D minimization of the model along -g."""
    g_norm = np.linalg.norm(g)
    ts = np.linspace(0.0, delta, n_grid)
    gHg = float(g @ hess.apply(g))
    values = -ts * g_norm + 0.5 * ts**2 * gHg / g_norm**2
    t_best = ts[np.argmin(values)]
    return -(t_best / g_norm) * g, float(np.min(values))


class TestCauchyPoint:
    def test_interior_case_against_grid_oracle(self):
        g = np.array([1.0, 0.0])
        cp = cauchy_point(g, op(np.eye(2)), 10.0)
        assert np.allclose(cp, [-1.0, 0.0], atol=1e-12)
        oracle_point, oracle_val = grid_cauchy_oracle(g, op(np.eye(2)), 10.0)
        assert model_value(g, op(np.eye(2)), cp) <= oracle_val + 1e-9
        assert np.linalg.norm(cp - oracle_point) <= 10.0 / 200_000 + 1e-12

    def test_no_curvature_hits_boundary(self):
        cp = cauchy_point(np.array([1.0, 0.0]), HessianEstimate.zero(2), 2.0)
        assert np.allclose(cp, [-2.0, 0.0])

    def test_negative_curvature_hits_boundary(self):
        cp = cauchy_point(np.array([1.0, 0.0]), op(np.diag([-1.0, 1.0])), 1.0)
        assert np.allclose(cp, [-1.0, 0.0])

    def test_zero_gradient_signals(self):
        with pytest.raises(ZeroGradientError):
            cauchy_point(np.zeros(2), op(np.eye(2)), 1.0)


def boundary_scan_oracle(g, hess, delta, n_grid=100_000):
    """Independent oracle: dense scan of the model over the 2-D boundary."""
    phis = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    best = np.inf
    for phi in phis:
        s = delta * np.array([np.cos(phi), np.sin(phi)])
        best = min(best, model_value(g, hess, s))
    return best


class TestSteihaugCG:
    def test_linear_model_steepest_descent_to_boundary(self):
        step = steihaug_cg(np.array([1.0, 0.0]), HessianEstimate.zero(2), 2.0,
                           max_iters=3, residual_tol=1e-10)
        assert np.allclose(step.s, [-2.0, 0.0])
        assert step.boundary_hit and step.cg_iterations == 1

    def test_zero_norm_bound_takes_the_linear_model_step(self):
        calls = []
        hess = HessianEstimate(lambda v: calls.append(1) or 0.0 * v, 0.0)
        step = steihaug_cg(np.array([3.0, 4.0]), hess, 2.0)
        assert np.allclose(step.s, [-1.2, -1.6])
        assert step.hessian_products == 0 and not calls

    def test_interior_newton_point(self):
        step = steihaug_cg(np.array([3.0, 4.0]), op(np.eye(2)), 10.0)
        assert np.allclose(step.s, [-3.0, -4.0], atol=1e-12)  # -inv(H) g
        assert not step.boundary_hit

    def test_negative_curvature_exit_matches_boundary_oracle(self):
        g = np.array([1.0, 0.0])
        hess = op(np.diag([-1.0, 1.0]))
        step = steihaug_cg(g, hess, 1.0)
        assert np.allclose(step.s, [-1.0, 0.0])
        assert step.boundary_hit
        oracle_min = boundary_scan_oracle(g, hess, 1.0)
        assert model_value(g, hess, step.s) <= oracle_min + 1e-8

    def test_zero_gradient_returns_zero_step(self):
        step = steihaug_cg(np.zeros(3), op(np.eye(3)), 1.0)
        assert np.array_equal(step.s, np.zeros(3))
        assert step.model_decrease == 0.0

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        hess = op(A @ A.T + np.eye(8))
        g = rng.standard_normal(8)
        step = steihaug_cg(g, hess, 100.0, max_iters=3)
        assert step.cg_iterations <= 3
        assert step.hessian_products <= 3

    def test_cauchy_contract_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            eigs = rng.uniform(-2.0, 3.0, n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            hess = op((q * eigs) @ q.T)
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.05, 2.0))
            step = steihaug_cg(g, hess, delta)
            assert np.linalg.norm(step.s) <= delta * (1 + 1e-12)
            assert step.model_decrease >= step.cauchy_decrease - 1e-10
            bound = 0.5 * np.linalg.norm(g) * min(
                delta, np.linalg.norm(g) / hess.norm_bound)
            assert step.model_decrease >= bound - 1e-10


class TestExactTRS:
    def test_interior_newton_step(self):
        s, ups = exact_trs(np.array([3.0, 4.0]), np.eye(2), 10.0)
        assert np.allclose(s, [-3.0, -4.0], atol=1e-12)
        assert ups == 0.0

    def test_boundary_isotropic_multiplier(self):
        # isotropic H: ups = ||g||/delta - 1
        s, ups = exact_trs(np.array([3.0, 4.0]), np.eye(2), 1.0)
        assert np.allclose(s, [-0.6, -0.8], atol=1e-10)
        assert ups == pytest.approx(4.0, abs=1e-9)

    def test_hard_case_zero_gradient(self):
        s, ups = exact_trs(np.zeros(2), np.diag([-1.0, 2.0]), 1.0)
        assert ups == pytest.approx(1.0)
        assert abs(abs(s[0]) - 1.0) <= 1e-12 and abs(s[1]) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises_at_once(self, bad):
        H = np.diag([1.0, 2.0, 3.0])
        H[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"non-finite Hessian entry \(max \|H\| = "):
                exact_trs(np.ones(3), H, 1.0)

    def test_tiny_positive_eigenvalue_rejects_the_interior_step_quietly(self):
        # 1 / 1e-320 overflows: the interior candidate is infinite, which
        # the radius test rejects without a RuntimeWarning
        H = np.diag([1e-320, 1.0, 2.0])
        g = np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, ups = exact_trs(g, H, 1.0)
        assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-12)
        assert ups > 0.0
        stationarity, psd, complementarity = kkt_residuals(g, H, 1.0, s, ups)
        assert stationarity <= 1e-8 and psd >= 0.0 and complementarity <= 1e-12

    def test_asymmetric_input_rejected(self):
        H = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ConfigurationError):
            exact_trs(np.array([1.0, 1.0]), H, 1.0)

    def test_monotone_objective_in_radius(self):
        rng = np.random.default_rng(3)
        H = np.diag([-1.0, 0.5, 2.0])
        g = rng.standard_normal(3)
        values = []
        for delta in (0.25, 0.5, 1.0, 2.0, 4.0):
            s, _ = exact_trs(g, H, delta)
            values.append(model_value(g, H, s))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        H = np.diag([-1.0, 1.5, 3.0])
        g = rng.standard_normal(3)
        s1, u1 = exact_trs(g, H, 0.7)
        c = 5.0
        s2, u2 = exact_trs(c * g, c * H, 0.7)
        assert np.allclose(s1, s2, atol=1e-9)
        assert u2 == pytest.approx(c * u1, rel=1e-8, abs=1e-9)

    def test_near_hard_instances_keep_kkt_accuracy(self):
        # gradient component along the minimal eigenvector is 1e-13 of the
        # rest: too large for the hard-case branch, stiff for the secular
        # iteration; the bracket-collapse fallback must keep certificates
        rng = np.random.default_rng(5150)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            eigs = np.sort(rng.uniform(-3.0, 3.0, n))
            eigs[0] = -abs(eigs[0]) - 0.3
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            H = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
            ghat = rng.standard_normal(n)
            ghat[0] = 1e-13 * np.linalg.norm(ghat[1:]) * rng.choice([-1.0, 1.0])
            g = q @ ghat
            y = np.zeros(n)
            y[1:] = -ghat[1:] / (eigs[1:] - eigs[0])
            delta = float(np.linalg.norm(y) * rng.uniform(1.1, 2.5) + 0.05)
            s, ups = exact_trs(g, H, delta)
            stat, psd, comp = kkt_residuals(g, H, delta, s, ups)
            assert stat <= 1e-8 and psd >= -1e-8 and comp <= 1e-8
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("spectrum", ["near-hard", "clustered", "clustered-near-hard"])
    def test_large_instances_keep_kkt_accuracy(self, n, spectrum):
        # built as in the near-hard test above; "clustered" draws the other
        # eigenvalues from four centers (relative jitter 1e-9) and repeats
        # the minimal one m times
        rng = np.random.default_rng([n, ["near-hard", "clustered", "clustered-near-hard"]
                                     .index(spectrum)])
        clustered = spectrum.startswith("clustered")
        for _ in range(3):
            if clustered:
                eigs = rng.choice(rng.uniform(-3.0, 3.0, 4), n)
                eigs = np.sort(eigs * (1.0 + 1e-9 * rng.standard_normal(n)))
                m = int(rng.integers(1, 5))
            else:
                eigs = np.sort(rng.uniform(-3.0, 3.0, n))
                m = 1
            eigs[:m] = -abs(eigs[0]) - 0.3
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            H = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
            ghat = rng.standard_normal(n)
            if spectrum.endswith("near-hard"):
                ghat[:m] = (1e-13 * np.linalg.norm(ghat[m:]) / np.sqrt(m)
                            * rng.choice([-1.0, 1.0], m))
            g = q @ ghat
            y = np.zeros(n)
            y[m:] = -ghat[m:] / (eigs[m:] - eigs[0])
            delta = float(np.linalg.norm(y) * rng.uniform(1.1, 2.5) + 0.05)
            s, ups = exact_trs(g, H, delta)
            stat, psd, comp = kkt_residuals(g, H, delta, s, ups)
            assert stat <= 1e-8 and psd >= -1e-8 and comp <= 1e-8
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)
            # a supplied decomposition gives the same solution bit for bit
            eig = np.linalg.eigh(H)
            memo = EighMemo(H.copy(), eig)
            s_memo, ups_memo = exact_trs(g, H, delta, memo=memo)
            assert memo.eig is eig
            assert s_memo.tobytes() == s.tobytes() and ups_memo == ups


class TestEighMemo:
    H = np.diag([-1.0, 0.5, 2.0])
    g = np.array([0.3, -1.0, 0.4])

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append(1) or eigh(H))
        return calls

    def test_unchanged_matrix_decomposed_once(self, monkeypatch):
        calls = self.count_eigh(monkeypatch)
        memo = EighMemo()
        results = [exact_trs(self.g, self.H.copy(), delta, memo=memo) for delta in (0.5, 1.0, 4.0)]
        assert len(calls) == 1
        assert all(s.tobytes() == exact_trs(self.g, self.H, delta)[0].tobytes()
                   for (s, _), delta in zip(results, (0.5, 1.0, 4.0)))

    def test_changed_or_mutated_matrix_decomposed_again(self, monkeypatch):
        calls = self.count_eigh(monkeypatch)
        memo = EighMemo()
        H = self.H.copy()
        exact_trs(self.g, H, 1.0, memo=memo)
        H[2, 2] = 3.0  # mutated in place after the call
        s, ups = exact_trs(self.g, H, 1.0, memo=memo)
        assert len(calls) == 2
        assert s.tobytes() == exact_trs(self.g, H, 1.0)[0].tobytes()

    def test_nan_matrix_never_reused(self, monkeypatch):
        # a non-finite matrix raises before eigh, so the memo never holds one
        calls = self.count_eigh(monkeypatch)
        memo = EighMemo()
        H = self.H.copy()
        H[0, 0] = np.nan
        for _ in range(2):
            with pytest.raises(NumericalError, match="non-finite Hessian entry"):
                exact_trs(self.g, H, 1.0, memo=memo)
        assert len(calls) == 0 and memo.matrix is None

    def test_checks_run_with_a_memo(self):
        memo = EighMemo()
        exact_trs(self.g, self.H, 1.0, memo=memo)
        with pytest.raises(ConfigurationError):
            exact_trs(self.g, self.H, 0.0, memo=memo)
        with pytest.raises(ConfigurationError):
            exact_trs(self.g, self.H + np.triu(np.ones((3, 3)), 1), 1.0, memo=memo)
        with pytest.raises(ConfigurationError):
            exact_trs(self.g[:2], self.H, 1.0, memo=memo)


class TestKKTResiduals:
    def test_interior_optimum(self):
        stat, psd, comp = kkt_residuals(np.array([3.0, 4.0]), np.eye(2), 10.0,
                                        np.array([-3.0, -4.0]), 0.0)
        assert stat == pytest.approx(0.0, abs=1e-14)
        assert psd == pytest.approx(1.0)
        assert comp == 0.0

    def test_boundary_optimum(self):
        stat, psd, comp = kkt_residuals(np.array([3.0, 4.0]), np.eye(2), 1.0,
                                        np.array([-0.6, -0.8]), 4.0)
        assert stat <= 1e-12
        assert psd == pytest.approx(5.0)
        assert comp <= 1e-12

    def test_perturbed_step_detected(self):
        s = np.array([-0.6 + 0.1, -0.8])
        stat, psd, _ = kkt_residuals(np.array([3.0, 4.0]), np.eye(2), 1.0, s, 4.0)
        assert stat >= 0.1 * psd > 0.0


class TestNonFiniteCurvature:
    @pytest.mark.parametrize("H, g", [
        # 1 / 1e-320 overflows the CG step to inf, and inf * 0 is NaN
        (np.diag([1e-320, 1.0]), np.array([1.0, 0.0])),
        # a finite candidate whose norm overflows
        (np.array([[5.00750189e-269, -9.83091900e-270], [-9.83091900e-270, 1.93004357e-270]]),
         np.array([-0.53566937, 0.36159505])),
    ])
    def test_overflowing_candidate_crosses_the_boundary_quietly(self, H, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = steihaug_cg(g, op(H), 1.0)
            rows, *_ = steihaug_cg_rows(g[None], np.linalg.norm(g)[None], np.ones(1),
                                        lambda r, V: V @ H)
        assert step.boundary_hit and step.cg_iterations == 1
        assert np.allclose(step.s, -g / np.linalg.norm(g), rtol=1e-15, atol=0.0)
        assert rows[0].tobytes() == step.s.tobytes()

    def test_nan_hessian_product_raises(self):
        nan_op = HessianEstimate(apply=lambda v: np.full_like(v, np.nan), norm_bound=1.0)
        with pytest.raises(NumericalError, match="curvature"):
            steihaug_cg(np.array([1.0, 2.0]), nan_op, 0.5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_hessian_product_raises_on_later_iteration(self):
        calls = []

        def apply(v):
            calls.append(1)
            return np.array([1.0, 2.0, 3.0]) * v if len(calls) == 1 else np.full_like(v, np.inf)

        with pytest.raises(NumericalError):
            steihaug_cg(np.array([1.0, 2.0, 0.5]), HessianEstimate(apply, 3.0), 10.0)
        assert len(calls) == 2

    def test_row_solver_raises_too(self):
        G = np.array([[1.0, 2.0], [0.5, -1.0]])
        with pytest.raises(NumericalError, match="curvature"):
            steihaug_cg_rows(G, np.linalg.norm(G, axis=1), np.array([0.5, 0.5]),
                             lambda rows, V: np.where(rows[:, None] == 1, np.nan, V))
