import pytest

from trish import (
    ConfigurationError,
    GammaSchedule,
    StepsizeSchedule,
    gammas_at,
    validate_stepsize,
)


class TestStepsizeSchedule:
    def test_diminishing_values(self):
        sched = StepsizeSchedule.diminishing(1.0, 1.0)
        assert sched.at(1) == pytest.approx(0.5)
        assert StepsizeSchedule.diminishing(2.0, 3.0).at(7) == pytest.approx(0.2)

    def test_constant(self):
        assert StepsizeSchedule.constant(0.1).at(999) == 0.1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepsizeSchedule.constant(0.0)
        with pytest.raises(ConfigurationError):
            StepsizeSchedule.diminishing(1.0, -1.0)


class TestGammaSchedule:
    def test_merging_values(self):
        gammas = GammaSchedule.merging(1.0, 1.0)
        steps = StepsizeSchedule.constant(0.1)
        assert gammas_at(gammas, steps, 1) == (1.0, pytest.approx(0.95))

    def test_merging_eta_zero_collapses(self):
        gammas = GammaSchedule.merging(2.0, 0.0)
        steps = StepsizeSchedule.constant(0.3)
        assert gammas_at(gammas, steps, 5) == (2.0, 2.0)

    def test_constant_passthrough(self):
        gammas = GammaSchedule.constant(10.0, 1.0)
        assert gammas_at(gammas, StepsizeSchedule.constant(1.0), 3) == (10.0, 1.0)

    def test_merging_gap_identity_and_limit(self):
        gammas = GammaSchedule.merging(2.0, 0.5)
        steps = StepsizeSchedule.diminishing(1.0, 1.0)
        for k in (1, 2, 10, 1000):
            g1, g2 = gammas_at(gammas, steps, k)
            assert g1 - g2 == pytest.approx(0.5 * 0.5 * g1 * steps.at(k), abs=1e-15)
        assert gammas_at(gammas, steps, 10**9)[1] == pytest.approx(2.0, rel=1e-8)

    def test_nonpositive_gamma2_rejected(self):
        gammas = GammaSchedule.merging(1.0, 30.0)
        with pytest.raises(ConfigurationError):
            gammas_at(gammas, StepsizeSchedule.constant(0.1), 1)

    def test_constant_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            GammaSchedule.constant(1.0, 2.0)


class TestValidateStepsize:
    def test_basic_accepts_at_bound(self):
        # bound = gamma2 / (4 gamma1^2 (L + M)) = 0.25
        assert validate_stepsize(0.2, 1.0, 1.0, 0.5, 0.5)
        assert validate_stepsize(0.25, 1.0, 1.0, 0.5, 0.5)

    def test_basic_rejects_above_bound(self):
        assert not validate_stepsize(0.3, 1.0, 1.0, 0.5, 0.5)

    def test_merging_all_conditions(self):
        # alpha=0.1, gamma1=1, gamma2=0.95, eta=1, L+M = 0.4:
        # gap identity 0.05 = eta*gamma1*alpha/2; alpha below both bounds
        assert validate_stepsize(0.1, 1.0, 0.95, 0.3, 0.1, mode="merging", eta=1.0)
        # breaking the gap identity fails
        assert not validate_stepsize(0.1, 1.0, 0.94, 0.3, 0.1, mode="merging", eta=1.0)
        # Hessian cap eta/(2 gamma1) = 0.5 binds
        assert not validate_stepsize(0.1, 1.0, 0.95, 0.3, 0.6, mode="merging", eta=1.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigurationError):
            validate_stepsize(0.1, 1.0, 1.0, -1.0, 0.0)
        with pytest.raises(ConfigurationError):
            validate_stepsize(0.1, 1.0, 1.0, 1.0, 0.0, mode="merging")
