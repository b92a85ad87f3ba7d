import math
from fractions import Fraction

import numpy as np
import pytest

from gipower import (
    InvalidStateError,
    NumericalError,
    StandardForm,
    apply_local_symplectic,
    apply_loss_B,
    closed_form_xyz,
    cross_validate,
    fidelity,
    from_standard_form,
    gip_closed_form,
    gip_from_standard_form,
    gip_pure,
    gip_special,
    is_separable,
    local_invariants,
    log_negativity,
    mean_photon_A,
    random_local_symplectic,
    random_state,
    separable_extremal,
    swap_modes,
    symplectic_eigenvalues,
    tmsv,
    to_standard_form,
    worst_case_qfi,
)

from conftest import random_physical_cm
from oracles import closed_form_mp

S231 = StandardForm(2.0, 3.0, 1.0, -1.0)


class TestClosedForm:
    def test_integer_exact_internals(self):
        # exact arithmetic on the invariants of (2, 3, 1, -1)
        X, Y, Z = closed_form_xyz(4, 9, -1, 25)
        assert (X, Y, Z) == (-673, 888, 249)
        assert math.isqrt(X * X + Y * Z) ** 2 == X * X + Y * Z
        assert Fraction(X + math.isqrt(X * X + Y * Z), 2 * Y) == Fraction(1, 12)

    def test_standard_form_example(self):
        result = gip_closed_form(from_standard_form(S231))
        assert result.value == pytest.approx(1 / 12, abs=1e-12)
        assert result.branch == "general"
        assert result.invariants.astuple() == pytest.approx((4, 9, -1, 25), abs=1e-10)

    def test_product_state_vanishes(self):
        result = gip_closed_form(from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0)))
        assert result.value == pytest.approx(0.0, abs=1e-13)

    def test_tmsv_pure_branch(self):
        result = gip_closed_form(from_standard_form(tmsv(2.0)))
        assert result.value == pytest.approx(0.75, abs=1e-12)
        assert result.branch == "pure"

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            gip_closed_form(np.diag([0.5, 0.5, 1.0, 1.0]))
        with pytest.raises(InvalidStateError):
            gip_closed_form(-np.eye(4))

    def test_large_pure_states(self):
        # det sigma = 1 must hold to well under PURE_TOL; AB - (AB - D)
        # loses ~eps a^4, which sends tmsv(300) to the general branch
        for a in np.geomspace(10.0, 1e4, 60):
            result = gip_closed_form(from_standard_form(tmsv(a)))
            assert result.branch == "pure", a
            assert result.value == pytest.approx(gip_pure(a), rel=1e-12)


class TestClosedFormPrecision:
    """Closed form against exact-rational invariants and a 50-digit root."""

    @staticmethod
    def max_rel_error(sigmas):
        worst = 0.0
        for sigma in sigmas:
            reference = closed_form_mp(sigma)
            worst = max(worst, abs(gip_closed_form(sigma).value - reference) / reference)
        return worst

    def test_random_states(self):
        rng = np.random.default_rng(1406)
        sigmas = [random_state(rng).matrix() for _ in range(2000)]
        assert self.max_rel_error(sigmas) <= 1e-12

    def test_conjugated_near_product_states(self):
        # correlations scaled by 10^U(-6, 0): P_G spans about 1e-18 to 1
        rng = np.random.default_rng(5857)
        sigmas = []
        for _ in range(1000):
            sf = random_state(rng)
            scale = 10.0 ** rng.uniform(-6.0, 0.0)
            cm = from_standard_form(StandardForm(sf.a, sf.b, scale * sf.c, scale * sf.d))
            cm = apply_local_symplectic(cm, random_local_symplectic(rng),
                                        random_local_symplectic(rng))
            sigmas.append(cm.sigma)
        assert self.max_rel_error(sigmas) <= 1e-12


class TestOverflow:
    """det sigma overflows at entries of ~1e150 (D = inf), and the formula at ~1e50 (nan)."""

    HUGE = np.diag([1e150, 1e150, 2e150, 2e150])
    NAN = from_standard_form(StandardForm(1e50, 2e50, 1e50, -1e50))

    def test_numerical_error(self):
        for cm in (self.HUGE, self.NAN):
            for call in (gip_closed_form, cross_validate):
                with pytest.raises(NumericalError):
                    call(cm)
        for other in (self.HUGE, np.eye(4)):
            with pytest.raises(NumericalError):
                fidelity(self.HUGE, other)

    def test_spectra_and_oracle_unaffected(self):
        assert to_standard_form(self.HUGE) == StandardForm(1e150, 2e150, 0.0, 0.0)
        assert symplectic_eigenvalues(self.HUGE) == (9.999999999999998e149, 2e150)
        assert log_negativity(self.HUGE) == 0.0
        result = worst_case_qfi(self.HUGE)
        assert (result.zeta_opt, result.theta_opt, result.at_boundary) == (1.0, 0.0, False)
        assert result.value == pytest.approx(0.0, abs=1e-30)


class TestSpecialForm:
    def test_squeezed_thermal_branch(self):
        assert gip_special(S231) == pytest.approx(1 / 12, abs=1e-15)

    def test_pure_tmsv(self):
        assert gip_special(tmsv(2.0)) == pytest.approx(0.75, abs=1e-12)

    def test_mixed_thermal_branch(self):
        sf = separable_extremal(3.0, 101.0)
        assert gip_special(sf) == pytest.approx(200 / 204, abs=1e-12)

    def test_rejects_generic_d(self):
        with pytest.raises(InvalidStateError):
            gip_special(StandardForm(2.0, 3.0, 1.0, -0.5))

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(InvalidStateError):
            gip_special(StandardForm(1.2, 1.2, 1.2, 1.2))


class TestPureFormula:
    def test_examples(self):
        assert gip_pure(1.0) == 0.0
        assert gip_pure(2.0) == pytest.approx(0.75)
        assert gip_pure(3.0) == pytest.approx(2.0)  # = 1 * (1 + 1), Heisenberg form

    def test_photon_number_form(self):
        for a in (1.3, 2.7, 6.0):
            n = (a - 1) / 2
            assert gip_pure(a) == pytest.approx(n * (n + 1), rel=1e-14)

    def test_rejects_bad_parameter(self):
        with pytest.raises(InvalidStateError):
            gip_pure(0.5)


class TestStandardFormDispatch:
    def test_special_branch(self):
        result = gip_from_standard_form(S231)
        assert result.branch == "special_dc"
        assert result.value == pytest.approx(1 / 12, abs=1e-12)

    def test_pure_branch_wins(self):
        result = gip_from_standard_form(tmsv(2.0))
        assert result.branch == "pure"
        assert result.value == pytest.approx(0.75, abs=1e-12)

    def test_general_branch(self):
        result = gip_from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5))
        assert result.branch == "general"
        assert result.value == gip_closed_form(from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5))).value


class TestCrossValidation:
    def test_spot_states(self):
        for sf in (S231, tmsv(2.0), StandardForm(2.0, 3.0, 0.0, 0.0)):
            report = cross_validate(from_standard_form(sf), tol=1e-3)
            assert report.passed, report

    def test_random_states(self, rng):
        for _ in range(20):
            report = cross_validate(random_physical_cm(rng, conjugate=True), tol=1e-4)
            assert report.passed, report

    def test_one_factor_per_call(self, rng, cholesky_calls):
        # The closed form and the oracle share one physicality gate.
        cm = random_physical_cm(rng, conjugate=True)
        cholesky_calls[0] = 0
        cross_validate(cm)
        assert cholesky_calls[0] == 1

    def test_oracle_is_worst_case_qfi(self, rng):
        # The shared-gate path gives the public oracle's value bit for bit.
        for conjugate in (False, True):
            for _ in range(100):
                cm = random_physical_cm(rng, conjugate=conjugate)
                assert cross_validate(cm).oracle == worst_case_qfi(cm).value / 4

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(InvalidStateError):
            cross_validate(from_standard_form(tmsv(2.0)), tol=tol)


class TestFaithfulness:
    def test_product_states_vanish(self, rng):
        for _ in range(50):
            a, b = rng.uniform(1, 5, size=2)
            cm = apply_local_symplectic(
                from_standard_form(StandardForm(a, b, 0.0, 0.0)),
                random_local_symplectic(rng),
                random_local_symplectic(rng),
            )
            assert gip_closed_form(cm).value < 1e-12

    def test_correlated_states_positive(self, rng):
        found = 0
        while found < 50:
            sf = random_state(rng)
            inv = local_invariants(from_standard_form(sf))
            if abs(inv.C) <= 0.01:
                continue
            found += 1
            assert gip_closed_form(from_standard_form(sf)).value > 0.0


class TestInvariance:
    def test_closed_form_invariant_under_local_symplectics(self, rng):
        for _ in range(50):
            cm = random_physical_cm(rng)
            value0 = gip_closed_form(cm).value
            kicked = apply_local_symplectic(
                cm, random_local_symplectic(rng), random_local_symplectic(rng)
            )
            assert gip_closed_form(kicked).value == pytest.approx(
                value0, abs=1e-9 * max(1, value0)
            )

    def test_monotone_under_loss_on_B(self, rng):
        for _ in range(50):
            cm = random_physical_cm(rng)
            value0 = gip_closed_form(cm).value
            for eta in (0.2, 0.5, 0.8):
                assert gip_closed_form(apply_loss_B(cm, eta)).value <= value0 + 1e-9


class TestModeSwap:
    def test_symmetric_for_special_states(self):
        for sf in (S231, separable_extremal(2.0, 4.0), tmsv(1.8)):
            cm = from_standard_form(sf)
            assert gip_closed_form(swap_modes(cm)).value == pytest.approx(
                gip_closed_form(cm).value, abs=1e-11
            )

    def test_generic_states_asymmetric(self, rng):
        # exhibit one state whose A-probe and B-probe powers differ
        for _ in range(100):
            cm = from_standard_form(random_state(rng))
            p_a = gip_closed_form(cm).value
            p_b = gip_closed_form(swap_modes(cm)).value
            if abs(p_a - p_b) > 1e-3:
                return
        pytest.fail("no asymmetric state found in 100 draws")


class TestOptimalParameters:
    def test_theta_zero_for_standard_form_inputs(self, rng):
        for _ in range(5):
            result = worst_case_qfi(from_standard_form(random_state(rng)))
            folded = min(result.theta_opt, np.pi - result.theta_opt)
            assert folded < 1e-2

    def test_caps_on_random_states(self, rng):
        for _ in range(200):
            cm = from_standard_form(random_state(rng))
            value = gip_closed_form(cm).value
            n = mean_photon_A(cm)
            if is_separable(cm):
                assert value <= n * (1 + 1e-6)
            else:
                assert value <= n * (n + 1) * (1 + 1e-6)
