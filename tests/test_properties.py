"""Property-based checks of the solver and schedule invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trish import (
    GammaSchedule,
    HessianEstimate,
    StepsizeSchedule,
    exact_trs,
    gammas_at,
    kkt_residuals,
    model_value,
    radius,
    steihaug_cg,
)
from trish.subproblem import radius_rows, steihaug_cg_rows

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def radius_params(draw):
    gamma1 = draw(st.floats(0.1, 50.0, **finite))
    gamma2 = gamma1 * draw(st.floats(0.01, 1.0, **finite))
    alpha = draw(st.floats(1e-4, 2.0, **finite))
    return gamma1, gamma2, alpha


@given(radius_params(), st.floats(0.0, 100.0, **finite))
def test_radius_case_matches_interval_definition(params, g_norm):
    gamma1, gamma2, alpha = params
    delta, case = radius(g_norm, alpha, gamma1, gamma2)
    if g_norm < 1.0 / gamma1:
        assert case == 1 and delta == gamma1 * alpha * g_norm
    elif g_norm <= 1.0 / gamma2:
        assert case == 2 and delta == alpha
    else:
        assert case == 3 and delta == gamma2 * alpha * g_norm
    assert delta >= 0.0


@given(radius_params())
def test_radius_breakpoint_agreement(params):
    gamma1, gamma2, alpha = params
    d1, _ = radius(1.0 / gamma1, alpha, gamma1, gamma2)
    assert abs(gamma1 * alpha / gamma1 - d1) <= 1e-12 * max(1.0, alpha)
    d2, _ = radius(1.0 / gamma2, alpha, gamma1, gamma2)
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
    hess = HessianEstimate(apply=lambda v: H @ v, norm_bound=bound)
    step = steihaug_cg(g, hess, delta)
    assert np.linalg.norm(step.s) <= delta * (1 + 1e-12)
    assert step.model_decrease >= step.cauchy_decrease - 1e-10
    g_norm = float(np.linalg.norm(g))  # a Python float: a tiny bound gives inf quietly
    ref = min(delta, g_norm / bound) if bound > 0 else delta
    assert step.model_decrease >= 0.5 * g_norm * ref - 1e-10


@settings(max_examples=60, deadline=None)
@given(trs_instances())
def test_exact_trs_kkt_certificate(instance):
    g, H, delta = instance
    s, ups = exact_trs(g, H, delta)
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
    s1, u1 = exact_trs(g, H, delta)
    s2, u2 = exact_trs(c * g, c * H, delta)
    scale = max(1.0, np.linalg.norm(s1))
    assert np.linalg.norm(s1 - s2) <= 1e-6 * scale
    assert abs(u2 - c * u1) <= 1e-6 * max(1.0, abs(c * u1))


@settings(max_examples=30, deadline=None)
@given(trs_instances())
def test_exact_trs_monotone_in_radius(instance):
    g, H, _ = instance
    values = []
    for delta in (0.2, 0.4, 0.8, 1.6):
        s, _ = exact_trs(g, H, delta)
        values.append(model_value(g, H, s))
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
       st.sampled_from([1, 2, 3, 5]), st.booleans())
def test_row_solver_matches_scalar_solver(n, rows, seed, cap, curved):
    # indefinite matrices exercise the negative-curvature exit; a zero row
    # exercises the zero-gradient short cut
    rng = np.random.default_rng(seed)
    mats = [0.5 * (m + m.T) for m in rng.standard_normal((rows, n, n))]
    G = rng.standard_normal((rows, n))
    G[rng.integers(rows)] *= float(rng.integers(2))
    g_norm = np.array([float(np.linalg.norm(g)) for g in G])
    delta, case = radius_rows(g_norm, 0.1, 4.0, 0.5)
    hvp = (lambda r, V: np.stack([mats[i] @ v for i, v in zip(r, V)])) if curved else None
    steps, model_dec, cauchy_dec, iters = steihaug_cg_rows(G, g_norm, delta, hvp, cap)
    for i in range(rows):
        assert (delta[i], case[i]) == radius(g_norm[i], 0.1, 4.0, 0.5)
        if g_norm[i] == 0.0:
            assert not steps[i].any() and iters[i] == 0
            continue
        ref = steihaug_cg(G[i], op_of(mats[i]) if curved else HessianEstimate.zero(n),
                          delta[i], cap)
        assert np.array_equal(steps[i], ref.s)
        assert (model_dec[i], cauchy_dec[i], iters[i]) == (
            ref.model_decrease, ref.cauchy_decrease, ref.cg_iterations)


def op_of(matrix):
    return HessianEstimate(apply=lambda v: matrix @ v, norm_bound=1.0)
