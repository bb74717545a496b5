import warnings

import numpy as np
import pytest

from trish import (
    ConfigurationError,
    NumericalError,
    RadiusCase,
    kkt_residuals,
    radius,
)
from trish.core import matvec
from trish.subproblem import checked_eigh, exact_trs_rows, steihaug_cg_rows

from reference import Operator, exact_trs, model_value, solve_row, steihaug_cg


def op(matrix):
    matrix = np.asarray(matrix, float)
    return Operator(apply=lambda v: matrix @ v,
                           norm_bound=float(np.max(np.abs(np.linalg.eigvalsh(matrix)))))


def exact_row(g, H, delta, **options):
    return solve_row(g, H, delta, exact=True, **options)


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
        assert model_value(g, Operator.zero(2), np.array([-2.0, 0.0])) == pytest.approx(-2.0)


def grid_cauchy_oracle(g, H, delta, n_grid=200_001):
    """Independent oracle: dense 1-D minimization of the model along -g."""
    g_norm = np.linalg.norm(g)
    ts = np.linspace(0.0, delta, n_grid)
    gHg = float(g @ H @ g)
    values = -ts * g_norm + 0.5 * ts**2 * gHg / g_norm**2
    t_best = ts[np.argmin(values)]
    return -(t_best / g_norm) * g, float(np.min(values))


class TestCauchyPoint:
    """The Cauchy decrease both rows solvers report: the model decrease at
    the minimizer of the model along -g within the radius."""

    def test_interior_case_against_grid_oracle(self):
        # the Cauchy point is (-1, 0), an interior point of decrease 0.5
        g = np.array([1.0, 0.0])
        _, oracle_val = grid_cauchy_oracle(g, np.eye(2), 10.0)
        for cauchy_dec in (solve_row(g, np.eye(2), 10.0)[2], exact_row(g, np.eye(2), 10.0)[-1]):
            assert cauchy_dec == pytest.approx(0.5, abs=1e-12)
            assert -cauchy_dec <= oracle_val + 1e-9

    def test_no_curvature_hits_boundary(self):
        # the Cauchy point (-2, 0) decreases the linear model by 2
        _, _, cauchy_dec, _ = solve_row(np.array([1.0, 0.0]), None, 2.0)
        assert cauchy_dec == pytest.approx(2.0)
        assert exact_row(np.array([1.0, 0.0]), np.zeros((2, 2)), 2.0)[-1] == pytest.approx(2.0)

    def test_negative_curvature_hits_boundary(self):
        # the Cauchy point (-1, 0): 1 - 0.5
        H = np.diag([-1.0, 1.0])
        assert solve_row(np.array([1.0, 0.0]), H, 1.0)[2] == pytest.approx(1.5)
        assert exact_row(np.array([1.0, 0.0]), H, 1.0)[-1] == pytest.approx(1.5)

    def test_overflowing_cube_hits_boundary(self):
        # ||g||^3 overflows a float for ||g|| above about 5.6e102: the test
        # ||g||^3 <= delta g'Hg then fails, and the Cauchy point is -g/||g||
        g = 1e103 * np.ones(3)
        g_norm = np.linalg.norm(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steihaug = solve_row(g, np.eye(3), 1.0)
            exact = exact_row(g, np.eye(3), 1.0)
            ref = steihaug_cg(g, op(np.eye(3)), 1.0)
        for s, cauchy_dec in ((steihaug[0], steihaug[2]), (exact[0], exact[-1])):
            assert np.all(np.isfinite(s)) and np.linalg.norm(s) <= 1.0 + 1e-12
            assert cauchy_dec == pytest.approx(g_norm - 0.5, rel=1e-15)
        assert steihaug[0].tobytes() == ref.s.tobytes() and steihaug[2] == ref.cauchy_decrease


def boundary_scan_oracle(g, H, delta, n_grid=100_000):
    """Independent oracle: dense scan of the model over the 2-D boundary."""
    phis = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    best = np.inf
    for phi in phis:
        s = delta * np.array([np.cos(phi), np.sin(phi)])
        best = min(best, model_value(g, H, s))
    return best


class TestSteihaugCG:
    def test_linear_model_steepest_descent_to_boundary(self):
        s, _, _, iters = solve_row(np.array([1.0, 0.0]), None, 2.0,
                                   max_iters=3, residual_tol=1e-10)
        assert np.allclose(s, [-2.0, 0.0])
        assert np.linalg.norm(s) == 2.0 and iters == 1

    def test_zero_norm_bound_takes_the_linear_model_step(self):
        # the zero estimate is no hvp at all: no product can be taken
        s, model_dec, cauchy_dec, iters = solve_row(np.array([3.0, 4.0]), None, 2.0)
        assert np.allclose(s, [-1.2, -1.6])
        assert model_dec == cauchy_dec == 10.0 and iters == 1

    def test_interior_newton_point(self):
        s, *_ = solve_row(np.array([3.0, 4.0]), np.eye(2), 10.0)
        assert np.allclose(s, [-3.0, -4.0], atol=1e-12)  # -inv(H) g
        assert np.linalg.norm(s) < 10.0

    def test_negative_curvature_exit_matches_boundary_oracle(self):
        g = np.array([1.0, 0.0])
        H = np.diag([-1.0, 1.0])
        s, model_dec, _, _ = solve_row(g, H, 1.0)
        assert np.allclose(s, [-1.0, 0.0])
        assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-15)
        oracle_min = boundary_scan_oracle(g, H, 1.0)
        assert -model_dec <= oracle_min + 1e-8

    def test_zero_gradient_returns_zero_step(self):
        s, model_dec, _, iters = solve_row(np.zeros(3), np.eye(3), 1.0)
        assert np.array_equal(s, np.zeros(3))
        assert model_dec == 0.0 and iters == 0

    def test_iteration_cap_respected(self):
        # one product per CG iteration, and one more for the model decrease
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        H = A @ A.T + np.eye(8)
        g = rng.standard_normal(8)
        calls = []
        hvp = lambda rows, V: calls.append(1) or V @ H  # noqa: E731
        *_, iters = solve_row(g, hvp, 100.0, max_iters=3)
        assert iters <= 3
        assert len(calls) == iters + 1

    def test_cauchy_contract_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            eigs = rng.uniform(-2.0, 3.0, n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            H = (q * eigs) @ q.T
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.05, 2.0))
            s, model_dec, cauchy_dec, _ = solve_row(g, H, delta)
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)
            assert model_dec >= cauchy_dec - 1e-10
            norm_bound = np.max(np.abs(np.linalg.eigvalsh(H)))
            bound = 0.5 * np.linalg.norm(g) * min(delta, np.linalg.norm(g) / norm_bound)
            assert model_dec >= bound - 1e-10


class TestExactTRS:
    def test_interior_newton_step(self):
        s, ups, _, _ = exact_row(np.array([3.0, 4.0]), np.eye(2), 10.0)
        assert np.allclose(s, [-3.0, -4.0], atol=1e-12)
        assert ups == 0.0

    def test_boundary_isotropic_multiplier(self):
        # isotropic H: ups = ||g||/delta - 1
        s, ups, _, _ = exact_row(np.array([3.0, 4.0]), np.eye(2), 1.0)
        assert np.allclose(s, [-0.6, -0.8], atol=1e-10)
        assert ups == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [1e-160, 1e-300])
    def test_radius_too_small_to_resolve_raises_numerical_error(self, delta):
        # ||s(u)|| (or its cube) underflows to 0 in the secular iteration;
        # the solve used to die there with a ZeroDivisionError
        with pytest.raises(NumericalError, match="underflowed"):
            exact_row(np.array([3.0, 4.0]), np.diag([1.0, 2.0]), delta)

    def test_hard_case_zero_gradient(self):
        # g = 0 takes no solve: the zero step, zero decreases, a NaN multiplier
        H = np.diag([-1.0, 2.0])
        s, ups, model_dec, cauchy_dec = exact_row(np.zeros(2), H, 1.0)
        assert not s.any() and np.isnan(ups) and model_dec == cauchy_dec == 0.0
        # g orthogonal to the minimal eigenvector: the pseudo-inverse step
        # (0, -1/3) filled to the boundary along e_1, at u = -lambda_min
        s, ups, _, _ = exact_row(np.array([0.0, 1.0]), H, 1.0)
        assert ups == pytest.approx(1.0)
        assert abs(abs(s[0]) - np.sqrt(8.0 / 9.0)) <= 1e-12
        assert abs(s[1] + 1.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises_at_once(self, bad):
        H = np.diag([1.0, 2.0, 3.0])
        H[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"non-finite Hessian entry \(max \|H\| = "):
                exact_row(np.ones(3), H, 1.0)

    def test_tiny_positive_eigenvalue_rejects_the_interior_step_quietly(self):
        # 1 / 1e-320 overflows: the interior candidate is infinite, which
        # the radius test rejects without a RuntimeWarning
        H = np.diag([1e-320, 1.0, 2.0])
        g = np.ones(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, ups, _, _ = exact_row(g, H, 1.0)
        assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-12)
        assert ups > 0.0
        stationarity, psd, complementarity = kkt_residuals(g, H, 1.0, s, ups)
        assert stationarity <= 1e-8 and psd >= 0.0 and complementarity <= 1e-12

    def test_asymmetric_input_rejected(self):
        H = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ConfigurationError):
            exact_row(np.array([1.0, 1.0]), H, 1.0)

    def test_checks_reject_bad_radius_matrix_and_shapes(self):
        # the (n, n) shape of H comes from the lane step that builds it
        g, H = np.array([0.3, -1.0, 0.4]), np.diag([-1.0, 0.5, 2.0])
        with pytest.raises(ConfigurationError, match="delta must be positive"):
            exact_row(g, H, 0.0)
        with pytest.raises(ConfigurationError, match="delta must be positive"):
            exact_trs_rows(np.stack([g, g]), np.full(2, np.linalg.norm(g)),
                           np.array([1.0, 0.0]), H, checked_eigh(H))
        with pytest.raises(ConfigurationError, match="not symmetric"):
            exact_row(g, H + np.triu(np.ones((3, 3)), 1), 1.0)

    def test_monotone_objective_in_radius(self):
        rng = np.random.default_rng(3)
        H = np.diag([-1.0, 0.5, 2.0])
        g = rng.standard_normal(3)
        values = [-exact_row(g, H, delta)[2] for delta in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        H = np.diag([-1.0, 1.5, 3.0])
        g = rng.standard_normal(3)
        s1, u1, _, _ = exact_row(g, H, 0.7)
        c = 5.0
        s2, u2, _, _ = exact_row(c * g, c * H, 0.7)
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
            s, ups, _, _ = exact_row(g, H, delta)
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
            s, ups, _, _ = exact_row(g, H, delta)
            stat, psd, comp = kkt_residuals(g, H, delta, s, ups)
            assert stat <= 1e-8 and psd >= -1e-8 and comp <= 1e-8
            assert np.linalg.norm(s) <= delta * (1 + 1e-12)
            # the one-point reference solver gives the same bits
            s_ref, ups_ref = exact_trs(g, H, delta)
            assert s.tobytes() == s_ref.tobytes() and ups == ups_ref


class TestCheckedEigh:
    H = np.diag([-1.0, 0.5, 2.0])

    def test_stack_decomposed_in_one_call_as_single_calls(self):
        rng = np.random.default_rng(4)
        stack = np.stack([0.5 * (m + m.T) for m in rng.standard_normal((5, 6, 6))])
        w, Q = checked_eigh(stack)
        for i in range(5):
            wi, Qi = np.linalg.eigh(stack[i])
            assert w[i].tobytes() == wi.tobytes() and Q[i].tobytes() == Qi.tobytes()

    @pytest.mark.parametrize("defect,error,match", [
        ("nan", NumericalError, r"non-finite Hessian entry \(max \|H\| = nan\)"),
        ("inf", NumericalError, r"non-finite Hessian entry \(max \|H\| = inf\)"),
        ("asymmetric", ConfigurationError, "H is not symmetric"),
    ], ids=["nan", "inf", "asymmetric"])
    def test_first_defective_matrix_raises_what_exact_trs_raises(self, defect, error, match):
        bad = self.H.copy()
        bad[0, 1] = {"nan": np.nan, "inf": np.inf, "asymmetric": 1e-6}[defect]
        with pytest.raises(error, match=match):
            exact_row(np.ones(3), bad, 1.0)
        with pytest.raises(error, match=match):
            checked_eigh(np.stack([self.H, bad, self.H]))


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
            s, _, _, iters = solve_row(g, H, 1.0)
            ref = steihaug_cg(g, op(H), 1.0)
        assert np.linalg.norm(s) == pytest.approx(1.0, rel=1e-15) and iters == 1
        assert np.allclose(s, -g / np.linalg.norm(g), rtol=1e-15, atol=0.0)
        assert ref.boundary_hit and s.tobytes() == ref.s.tobytes()

    def test_nan_hessian_product_raises(self):
        with pytest.raises(NumericalError, match="curvature"):
            solve_row(np.array([1.0, 2.0]), lambda rows, V: np.full_like(V, np.nan), 0.5)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_hessian_product_raises_on_later_iteration(self):
        calls = []

        def hvp(rows, V):
            calls.append(1)
            return np.array([1.0, 2.0, 3.0]) * V if len(calls) == 1 else np.full_like(V, np.inf)

        with pytest.raises(NumericalError):
            solve_row(np.array([1.0, 2.0, 0.5]), hvp, 10.0)
        assert len(calls) == 2

    # ||g|| overflows to inf (the norm is taken outside the solvers)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("exact", [False, True])
    def test_overflowing_gradient_norm_raises_before_any_product(self, exact):
        g, H = np.array([1e160, 0.0]), 1e-300 * np.eye(2)
        calls = []

        def hvp(rows, V):
            calls.append(rows)
            return matvec(H, V)

        with pytest.raises(NumericalError, match=r"gradient norm \|\|g\|\| = inf in row 0"):
            solve_row(g, H if exact else hvp, 1.0, exact=exact)
        assert calls == []
        with pytest.raises(NumericalError, match="gradient norm"):
            exact_trs(g, H, 1.0) if exact else steihaug_cg(g, op(H), 1.0)

    def test_gradient_norm_check_names_the_row(self):
        """Finite norms whose sum overflows pass the check; a NaN norm
        on a later row is reported with its row by both solvers."""
        G, H, delta = np.array([[1e308, 0.0], [0.0, -1e308]]), np.eye(2), np.ones(2)
        g_norm = np.array([1e308, 1e308])
        s, *_ = steihaug_cg_rows(G, g_norm, delta, None)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), delta)
        g_norm[1] = np.nan
        with pytest.raises(NumericalError, match=r"= nan in row 1"):
            steihaug_cg_rows(G, g_norm, delta, None)
        with pytest.raises(NumericalError, match=r"= nan in row 1"):
            exact_trs_rows(G, g_norm, delta, H, checked_eigh(H))

    def test_row_solver_raises_too(self):
        G = np.array([[1.0, 2.0], [0.5, -1.0]])
        with pytest.raises(NumericalError, match="curvature"):
            steihaug_cg_rows(G, np.linalg.norm(G, axis=1), np.array([0.5, 0.5]),
                             lambda rows, V: np.where(rows[:, None] == 1, np.nan, V))

    # Row 0 meets negative curvature and stops at the first sweep; row 1
    # runs on.  The second sweep's product is NaN on one of them.
    MATS = (-np.eye(2), np.diag([1.0, 4.0]))
    G2 = np.array([[1.0, 2.0], [1.0, 1.0]])
    DELTAS = np.array([0.5, 10.0])

    def stale_nan_solve(self, row):
        calls = []

        def hvp(rows, V):
            calls.append(rows)
            out = np.stack([self.MATS[i] @ v for i, v in zip(rows, V)])
            if len(calls) == 2:
                out[list(rows).index(row)] = np.nan
            return out

        return steihaug_cg_rows(self.G2, np.linalg.norm(self.G2, axis=1), self.DELTAS, hvp)

    def test_row_solver_ignores_a_stopped_rows_stale_product(self):
        steps, model_dec, cauchy_dec, iters = self.stale_nan_solve(row=0)
        for i, matrix in enumerate(self.MATS):
            ref = steihaug_cg(self.G2[i], op(matrix), self.DELTAS[i])
            assert steps[i].tobytes() == ref.s.tobytes()
            assert (model_dec[i], cauchy_dec[i], iters[i]) == (
                ref.model_decrease, ref.cauchy_decrease, ref.cg_iterations)
        assert list(iters) == [1, 2]

    def test_row_solver_raises_on_an_active_rows_product(self):
        with pytest.raises(NumericalError, match=r"d'Hd = nan .*delta=10\.0\)"):
            self.stale_nan_solve(row=1)
