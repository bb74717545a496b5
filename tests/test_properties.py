"""Property-based checks of the solver and schedule invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trish import (
    ConfigurationError,
    GammaSchedule,
    NumericalError,
    StepsizeSchedule,
    gammas_at,
    kkt_residuals,
)
from trish.core import libm_pow, row_norms
from trish.subproblem import checked_eigh, exact_trs_rows, radius_rows, steihaug_cg_rows

from reference import (
    Operator, cauchy_point, exact_trs, model_value, radius, solve_row, steihaug_cg,
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def radius_params(draw):
    gamma1 = draw(st.floats(0.1, 50.0, **finite))
    gamma2 = gamma1 * draw(st.floats(0.01, 1.0, **finite))
    alpha = draw(st.floats(1e-4, 2.0, **finite))
    return gamma1, gamma2, alpha


@given(radius_params(), st.lists(st.floats(0.0, 100.0, **finite), min_size=1, max_size=6))
def test_radius_case_matches_interval_definition(params, g_norms):
    # radius_rows on the drawn norms and both breakpoints, row by row
    # against the interval definition and the reference's scalar rule
    gamma1, gamma2, alpha = params
    norms = [*g_norms, 1.0 / gamma1, 1.0 / gamma2]
    deltas, cases = radius_rows(np.array(norms), alpha, gamma1, gamma2)
    for g_norm, delta, case in zip(norms, deltas.tolist(), cases.tolist()):
        if g_norm < 1.0 / gamma1:
            assert case == 1 and delta == gamma1 * alpha * g_norm
        elif g_norm <= 1.0 / gamma2:
            assert case == 2 and delta == alpha
        else:
            assert case == 3 and delta == gamma2 * alpha * g_norm
        assert delta >= 0.0
        assert (delta, case) == radius(g_norm, alpha, gamma1, gamma2)


@given(radius_params())
def test_radius_breakpoint_agreement(params):
    gamma1, gamma2, alpha = params
    (d1, d2), _ = radius_rows(np.array([1.0 / gamma1, 1.0 / gamma2]), alpha, gamma1, gamma2)
    assert abs(gamma1 * alpha / gamma1 - d1) <= 1e-12 * max(1.0, alpha)
    assert abs(gamma2 * alpha / gamma2 - d2) <= 1e-12 * max(1.0, alpha)


@st.composite
def trs_instances(draw):
    n = draw(st.integers(2, 6))
    eigs = np.array([draw(st.floats(-3.0, 3.0, **finite)) for _ in range(n)])
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * eigs) @ q.T
    H = 0.5 * (H + H.T)
    g = rng.standard_normal(n)
    delta = draw(st.floats(0.05, 4.0, **finite))
    return g, H, delta


@settings(max_examples=60, deadline=None)
@given(trs_instances())
def test_steihaug_feasible_and_cauchy(instance):
    g, H, delta = instance
    bound = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    s, model_dec, cauchy_dec, _ = solve_row(g, H, delta)
    assert np.linalg.norm(s) <= delta * (1 + 1e-12)
    assert model_dec >= cauchy_dec - 1e-10
    g_norm = float(np.linalg.norm(g))  # a Python float: a tiny bound gives inf quietly
    ref = min(delta, g_norm / bound) if bound > 0 else delta
    assert model_dec >= 0.5 * g_norm * ref - 1e-10


@settings(max_examples=60, deadline=None)
@given(trs_instances())
def test_exact_trs_kkt_certificate(instance):
    g, H, delta = instance
    s, ups, _, _ = solve_row(g, H, delta, exact=True)
    stat, psd, comp = kkt_residuals(g, H, delta, s, ups)
    assert np.linalg.norm(s) <= delta * (1 + 1e-12)
    assert ups >= 0.0
    assert stat <= 1e-8
    assert psd >= -1e-8
    assert comp <= 1e-8


@settings(max_examples=30, deadline=None)
@given(trs_instances(), st.floats(0.1, 10.0, **finite))
def test_exact_trs_scale_equivariance(instance, c):
    g, H, delta = instance
    s1, u1, _, _ = solve_row(g, H, delta, exact=True)
    s2, u2, _, _ = solve_row(c * g, c * H, delta, exact=True)
    scale = max(1.0, np.linalg.norm(s1))
    assert np.linalg.norm(s1 - s2) <= 1e-6 * scale
    assert abs(u2 - c * u1) <= 1e-6 * max(1.0, abs(c * u1))


@settings(max_examples=30, deadline=None)
@given(trs_instances())
def test_exact_trs_monotone_in_radius(instance):
    g, H, _ = instance
    values = [-solve_row(g, H, delta, exact=True)[2] for delta in (0.2, 0.4, 0.8, 1.6)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


@given(st.floats(0.1, 10.0, **finite), st.floats(0.0, 3.0, **finite),
       st.floats(0.5, 50.0, **finite), st.floats(0.5, 50.0, **finite),
       st.integers(1, 10_000))
def test_merging_gap_identity(gamma1, eta, a, b, k):
    steps = StepsizeSchedule.diminishing(a, b)
    alpha_k = steps.at(k)
    if eta * alpha_k >= 2.0:
        return  # schedule invalid at this k; rejected by gammas_at
    g1, g2 = gammas_at(GammaSchedule.merging(gamma1, eta), steps, k)
    assert 0.0 < g2 <= g1
    assert abs((g1 - g2) - 0.5 * eta * g1 * alpha_k) <= 1e-12 * max(1.0, g1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 2, 3, 5]), st.booleans(), st.sampled_from([0.1, 10.0]))
@example(5, 20, 0, 5, True, 10.0)  # later CG iterations cross the boundary with s'd > 0
def test_row_solver_matches_scalar_solver(n, rows, seed, cap, curved, alpha):
    # indefinite matrices exercise the negative-curvature exit; a zero row
    # exercises the zero-gradient short cut; at alpha = 0.1 the first CG
    # step nearly always leaves the radius, at alpha = 10 later ones do
    rng = np.random.default_rng(seed)
    mats = [0.5 * (m + m.T) for m in rng.standard_normal((rows, n, n))]
    G = rng.standard_normal((rows, n))
    G[rng.integers(rows)] *= float(rng.integers(2))
    g_norm = np.array([float(np.linalg.norm(g)) for g in G])
    delta, case = radius_rows(g_norm, alpha, 4.0, 0.5)
    hvp = (lambda r, V: np.stack([mats[i] @ v for i, v in zip(r, V)])) if curved else None
    steps, model_dec, cauchy_dec, iters = steihaug_cg_rows(G, g_norm, delta, hvp, cap)
    for i in range(rows):
        assert (delta[i], case[i]) == radius(g_norm[i], alpha, 4.0, 0.5)
        if g_norm[i] == 0.0:
            assert not steps[i].any() and iters[i] == 0
            continue
        ref = steihaug_cg(G[i], op_of(mats[i]) if curved else Operator.zero(n),
                          delta[i], cap)
        assert np.array_equal(steps[i], ref.s)
        assert (model_dec[i], cauchy_dec[i], iters[i]) == (
            ref.model_decrease, ref.cauchy_decrease, ref.cg_iterations)


def op_of(matrix):
    return Operator(apply=lambda v: matrix @ v, norm_bound=1.0)


def symmetric_with_spectrum(rng, eigs):
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    H = (q * eigs) @ q.T
    return 0.5 * (H + H.T)


def spectrum(rng, n, kind):
    """Eigenvalues of a definite, indefinite or singular matrix, sometimes
    with a repeated minimal eigenvalue and sometimes of a large scale."""
    eigs = rng.uniform(0.1, 3.0, n) if kind == "definite" else rng.uniform(-3.0, 3.0, n)
    if kind == "singular":
        eigs[rng.integers(n)] = 0.0
    if rng.integers(3) == 0:
        eigs[:rng.integers(1, n + 1)] = eigs.min()
    return eigs * 10.0 ** rng.integers(0, 4)


def exact_row_case(rng, w, Q, g, kind):
    """A gradient and radius for one row: ``interior`` (a radius past the
    Newton step), ``hard`` (g orthogonal to the minimal eigenspace),
    ``near-hard`` (a minute component there, past the hard-case test),
    ``tiny`` (a radius the secular iteration underflows on), ``zero``
    (no gradient) or ``boundary`` (any other)."""
    delta = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
    if kind == "zero":
        return 0.0 * g, delta
    ghat = Q.T @ g
    block = w <= w[0] + 1e-12 * max(1.0, float(np.max(np.abs(w))))
    if kind in ("hard", "near-hard"):
        ghat[block] = 0.0 if kind == "hard" else 10.0 ** -rng.uniform(11.5, 14.0)
        rest = np.where(block, 0.0, ghat / np.where(block, 1.0, w - w[0]))
        delta = float(np.linalg.norm(rest)) * rng.uniform(1.0, 2.0) + 1e-3
    elif kind == "interior" and w[0] > 0.0:
        delta = float(np.linalg.norm(ghat / w)) * rng.uniform(1.0, 3.0)
    elif kind == "tiny":
        delta = 10.0 ** -rng.uniform(150.0, 300.0)
    return Q @ ghat, delta


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from(["definite", "indefinite", "singular"]), st.booleans(),
       st.lists(st.sampled_from(["boundary", "interior", "hard", "near-hard", "zero", "tiny"]),
                min_size=1, max_size=3))
# near-hard rows whose secular bracket collapses onto -lambda_min
@example(6, 20, 1, "indefinite", True, ["near-hard"])
@example(6, 20, 0, "singular", False, ["near-hard"])
def test_exact_row_solver_matches_scalar_solver(n, rows, seed, kind, shared, cases):
    # each row must equal the reference exact_trs, with the model and
    # Cauchy decreases of its trish_step, bit for bit, or the stack must
    # raise a class a row raises
    rng = np.random.default_rng(seed)
    mats = [symmetric_with_spectrum(rng, spectrum(rng, n, kind))
            for _ in range(1 if shared else rows)]
    H = mats[0] if shared else np.stack(mats)
    w, Q = checked_eigh(H)
    G, delta = np.empty((rows, n)), np.empty(rows)
    for i in range(rows):
        wi, Qi = (w, Q) if shared else (w[i], Q[i])
        G[i], delta[i] = exact_row_case(rng, wi, Qi, rng.standard_normal(n),
                                        cases[int(rng.integers(len(cases)))])
    g_norm = row_norms(G)
    expected, errors = [], []
    for i in range(rows):
        Hi = mats[0 if shared else i]
        if g_norm[i] == 0.0:
            expected.append((np.zeros(n), np.nan, 0.0, 0.0))
            continue
        try:
            with np.errstate(all="ignore"):
                s, ups = exact_trs(G[i], Hi, float(delta[i]))
                cp = cauchy_point(G[i], Hi, float(delta[i]))
            expected.append((s, ups, -model_value(G[i], Hi, s), -model_value(G[i], Hi, cp)))
        except (ConfigurationError, NumericalError) as exc:
            errors.append(type(exc))
    if errors:
        with pytest.raises(tuple(errors)):
            exact_trs_rows(G, g_norm, delta, H, (w, Q))
        return
    steps, ups, model_dec, cauchy_dec = exact_trs_rows(G, g_norm, delta, H, (w, Q))
    for i, (s, u, m, c) in enumerate(expected):
        assert steps[i].tobytes() == s.tobytes()
        assert np.array([ups[i], model_dec[i], cauchy_dec[i]]).tobytes() == \
            np.array([u, m, c]).tobytes()


@pytest.mark.parametrize("p", [2, 3])
def test_libm_pow_is_python_float_pow(p):
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1e-160, -1e-160,
              1.5, -2.5, np.inf, -np.inf, np.nan, 1e100, -1e100, 5e102, 1.7976931348623157e308]
    for v in values:
        try:
            expected = float.__pow__(v, p)
        except OverflowError:
            with pytest.raises(OverflowError):
                libm_pow(np.array([v]), p)
            continue
        assert libm_pow(np.array([1.0, v]), p)[1:].tobytes() == np.array([expected]).tobytes()
