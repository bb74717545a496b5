"""Acceptance gate: every criterion at its stated tolerance, full sizes.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  The heavy Monte-Carlo suites run once per session
and are shared across criteria.  Their reports, and those of the quick
suites, must also equal the pinned ones (``tests/suite_reports.py``).
"""

import numpy as np
import pytest

from trish.harness.grid import GridSpec, build_grid
from trish.harness.suites import verify

import suite_reports

ALL_SUITES = (
    "radius", "equivalence", "lemmas", "trs-oracle", "pl-fixed", "pl-merging",
    "pl-sublinear", "geometric", "nonconvex-fixed", "complexity", "oracles",
)


@pytest.fixture(scope="session")
def reports():
    return {name: verify(name) for name in ALL_SUITES}


@pytest.fixture(scope="session")
def quick_reports():
    return {name: verify(name, quick=True) for name in ALL_SUITES}


def _gate(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_radius_rule(reports):
    rep = reports["radius"]
    _gate(1, "radius rule cases, breakpoints, steplength continuity",
          rep.passed and rep.elapsed_s < 1.0,
          f"(elapsed {rep.elapsed_s:.3f}s < 1s)")


def test_criterion_02_collapse_to_sg(reports):
    rep = reports["equivalence"]
    _gate(2, "TRish(H=0, gamma1=gamma2) collapses to SG on the logistic problem",
          rep.passed and rep.elapsed_s < 1.0,
          f"(elapsed {rep.elapsed_s:.3f}s < 1s)")


def test_criterion_03_cauchy_contract(reports):
    checked = 0
    violations = 0
    for name in ALL_SUITES:
        counter = reports[name].contract_counter
        if counter is not None:
            checked += counter.checked
            violations += counter.total_violations
    _gate(3, "Cauchy contracts hold on every recorded step across all suites",
          checked >= 10_000 and violations == 0,
          f"({checked} steps checked, {violations} violations)")


def test_criterion_04_exact_trs_oracle(reports):
    rep = reports["trs-oracle"]
    stats = rep.checks[0].stats
    _gate(4, "exact TRS matches the brute-force oracle with KKT residuals <= 1e-8",
          rep.passed and rep.elapsed_s < 30.0,
          f"(worst objective gap {stats['worst_objective']:.2e}, "
          f"elapsed {rep.elapsed_s:.1f}s < 30s)")


def test_criterion_05_pl_fixed_envelope(reports):
    rep = reports["pl-fixed"]
    _gate(5, "linear-to-neighborhood envelope holds at every k (200 seeds, K=2000)",
          rep.passed and rep.elapsed_s < 120.0,
          f"(elapsed {rep.elapsed_s:.1f}s < 120s)")


def test_criterion_06_pl_merging_envelope(reports):
    rep = reports["pl-merging"]
    _gate(6, "merging-schedule sublinear envelope holds at every k (200 seeds)",
          rep.passed and rep.elapsed_s < 120.0,
          f"(elapsed {rep.elapsed_s:.1f}s < 120s)")


def test_criterion_07_geometric_envelope(reports):
    rep = reports["geometric"]
    _gate(7, "geometric-noise linear-rate envelope holds at every k (200 seeds)",
          rep.passed and rep.elapsed_s < 60.0,
          f"(elapsed {rep.elapsed_s:.1f}s < 60s)")


def test_criterion_08_nonconvex_fixed_bound(reports):
    rep = reports["nonconvex-fixed"]
    stats = rep.checks[0].stats
    _gate(8, "average squared-gradient bound on Rosenbrock (100 seeds, K=5000)",
          rep.passed,
          f"(mean {stats['mean']:.2f} <= bound {stats['bound']:.2f} + 3 SE)")


def test_criterion_09_complexity_property(reports):
    rep = reports["complexity"]
    _gate(9, "per-iteration decrease floor and budget in the exact regime",
          rep.passed and rep.elapsed_s < 60.0,
          f"(elapsed {rep.elapsed_s:.1f}s < 60s)")


def test_criterion_10_tuning_protocol_fidelity():
    spec = GridSpec(
        lambda_exponents=tuple(-1.0 + i / 7.0 for i in range(8)),
        a_exponents=(2.0, 4.0),
        b_exponents=(1.0, 3.0),
    )
    grid = build_grid(1.5644, spec)
    gamma1s = sorted({g1 for _, g1, _ in grid.trish_settings})
    gamma2s = sorted({g2 for _, _, g2 in grid.trish_settings})
    # reported values carry up to 2 units of rounding in the 4th decimal
    ok = (
        np.allclose(gamma1s, [2.5568, 10.2274], atol=2e-4)
        and np.allclose(gamma2s, [0.07990, 0.3196], atol=2e-4)
        and len(grid.sg_stepsizes) == 32
        and abs(grid.sg_stepsizes[0] - 0.00799) <= 2e-4
        and abs(grid.sg_stepsizes[-1] - 10.2275) <= 2e-4
    )
    _gate(10, "grid formulas reproduce the reference tuning values at G=1.5644",
          ok, f"(gamma1={gamma1s}, gamma2={gamma2s})")


def test_criterion_11_oracle_hygiene(reports):
    rep = reports["oracles"]
    _gate(11, "derivative checks at 1e-6 and noise moments within 3 MC SE",
          rep.passed, f"({len(rep.checks)} oracle checks)")


@pytest.mark.parametrize("size", ["full", "quick"])
def test_reports_match_pinned(size, request):
    reports = request.getfixturevalue("reports" if size == "full" else "quick_reports")
    pinned = suite_reports.load()[size]
    assert sorted(pinned) == sorted(ALL_SUITES)
    found = {name: suite_reports.summary(reports[name]) for name in ALL_SUITES}
    assert suite_reports.mismatches(pinned, found) == []
