import collections
import math
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from gipower import (
    InvalidStateError,
    NumericalError,
    StandardForm,
    apply_local_symplectic,
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
    lower_branch1_state,
    lower_branch2_state,
    mean_photon_A,
    nu_zero,
    random_state,
    separable_extremal,
    symplectic_eigenvalues,
    tmsv,
    to_standard_form,
    upper_boundary_state,
    worst_case_qfi,
)

import gipower.symplectic as symplectic
from gipower.power import _cross_check
from gipower.symplectic import _standard_entries
from conftest import random_physical_cm, rounded_tmsv
from oracles import apply_loss_B, closed_form_mp, random_local_symplectic, rotation, squeeze, swap_modes

S231 = StandardForm(2.0, 3.0, 1.0, -1.0)


def near_pure_forms():
    """The first 200 physical standard forms near the pure set that the gate admits.

    |a - b| = a 10^U(-9, -3), and ab - c^2 - 1, ab - d^2 - 1 = 10^U(-12, -2)
    before rounding, so D - 1 spans about 1e-12 to 1e-2.
    """
    rng = np.random.default_rng(11)
    forms = []
    while len(forms) < 200:
        a = 10.0 ** rng.uniform(0.05, 3.0)
        b = a * (1 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0))
        x, y = (a * b - 1 - 10.0 ** rng.uniform(-12.0, -2.0, size=2)).tolist()
        sf = StandardForm(a, b, math.sqrt(max(x, y)), -math.sqrt(min(x, y)))
        try:
            gip_from_standard_form(sf)
        except InvalidStateError:
            continue
        forms.append(sf)
    return forms


def squeezed_thermal_sweep():
    """400 squeezed thermal states: nu_A - 1, nu_B - 1 = 10^U(-8, 0), cosh 2r = 10^U(1, 3.5)."""
    rng = np.random.default_rng(7)
    forms = []
    for _ in range(400):
        nu_a, nu_b = (1 + 10.0 ** rng.uniform(-8.0, 0.0, size=2)).tolist()
        cosh_2r = 10.0 ** rng.uniform(1.0, 3.5)
        ch2, sh2 = (cosh_2r + 1) / 2, (cosh_2r - 1) / 2
        c = (nu_a + nu_b) * math.sqrt(ch2 * sh2)
        forms.append(StandardForm(nu_a * ch2 + nu_b * sh2, nu_a * sh2 + nu_b * ch2, c, -c))
    return forms


def conjugated(forms, seed):
    """The matrices of forms, each kicked by its own random local symplectic."""
    rng = np.random.default_rng(seed)
    return [apply_local_symplectic(from_standard_form(sf), random_local_symplectic(rng),
                                   random_local_symplectic(rng)).sigma for sf in forms]


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
        assert astuple(result.invariants) == pytest.approx((4, 9, -1, 25), abs=1e-10)

    def test_product_state_vanishes(self):
        result = gip_closed_form(from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0)))
        assert result.value == pytest.approx(0.0, abs=1e-13)

    def test_tmsv_pure_branch(self):
        result = gip_closed_form(from_standard_form(tmsv(2.0)))
        assert result.value == pytest.approx(0.75, abs=1e-12)
        assert result.branch == "pure"

    def test_negative_radicand_raises_numerical_error(self, monkeypatch):
        """A radicand X^2 + YZ below -CHECK_TOL max(1, X^2) raises, never a clamp to 0.
        gipower.power is also a function, so the module comes from sys.modules."""
        monkeypatch.setattr(sys.modules["gipower.power"], "_standard_xyz",
                            lambda *form: (1.0, 1.0, -5.0, 1.0))
        with pytest.raises(NumericalError, match=r"^negative radicand -4\.0 in closed formula$"):
            gip_from_standard_form(S231)

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

    def test_pure_states_off_the_pure_branch(self):
        # From a ~ 1e4 on, the gate's D misses PURE_TOL on the rounded tmsv(a)
        # (rounded_tmsv), but the pure switch reads w = D - 1 from (a, b, c, d),
        # the factor the general branch divides by: every value is the exact limit
        # (a^2 - 1)/4 to the rounded input's ~eps a^2, relative, and
        # cross_validate passes up to a = 1e5, where the oracle holds.  These
        # states sit ~eps a^2 off the physical set, within the gate's rounding
        # floor, so the gate admits them all (33 of 71 fell below GATE_TOL alone).
        eps = np.finfo(float).eps
        for a in np.logspace(4.0, 7.5, 71):
            sf = rounded_tmsv(a)
            cm = from_standard_form(sf)
            exact = (a * a - 1) / 4
            for call in (lambda: gip_closed_form(cm).value, lambda: gip_from_standard_form(sf).value,
                         lambda: cross_validate(cm).closed):
                assert abs(call() - exact) <= eps * a * a * exact, a
            if a <= 1e5:
                assert cross_validate(cm).passed, a


class TestClosedFormPrecision:
    """Closed form against exact-rational invariants and a 50-digit root."""

    @staticmethod
    def max_rel_error(sigmas, skip_pure=False):
        worst = 0.0
        for sigma in sigmas:
            result = gip_closed_form(sigma)
            if skip_pure and result.branch == "pure":
                continue
            reference = closed_form_mp(sigma)
            worst = max(worst, abs(result.value - reference) / reference)
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

    def test_near_pure_states(self):
        # X, Y and Z all vanish on the pure set, so each must be formed
        # without cancellation; D - 1 formed from D loses ~eps a^4
        forms = near_pure_forms()
        for sf in forms:
            result = gip_from_standard_form(sf)
            if result.branch == "general":
                reference = closed_form_mp(sf.matrix())
                assert abs(result.value - reference) <= 1e-9 * reference, sf
        assert self.max_rel_error([sf.matrix() for sf in forms], skip_pure=True) <= 1e-9

    def test_near_pure_states_conjugated(self):
        # closed_form_mp reads the conjugated entries, never the standard frame
        assert self.max_rel_error(conjugated(near_pure_forms(), 12), skip_pure=True) <= 1e-9

    def test_squeezed_thermal_sweep_conjugated(self):
        # backward error: the frame's (a, b, c, d) carry ~eps each, and a
        # 1-ulp move of one of them shifts the exact value by up to ~1.4e-9 here
        sigmas = conjugated(squeezed_thermal_sweep(), 13)
        assert self.max_rel_error(sigmas, skip_pure=True) <= 5e-9

    def test_large_entries(self):
        """X^2 + YZ overflows from a ~ 1e19 on; X itself from a ~ 1e39, which must raise, not give 0."""
        for k in range(19, 160):
            a = 10.0 ** k
            cm = from_standard_form(StandardForm(a, 2 * a, a, -a))
            if k <= 38:
                assert gip_closed_form(cm).value == pytest.approx(0.5, rel=1e-12), k
            else:
                with pytest.raises(NumericalError):
                    gip_closed_form(cm)

    def test_overflowing_xyz_raises_not_zero(self):
        """(2, b, 1, -1): P = 1/(4b).  From b ~ 1e77 X = -inf and Y = +inf, which
        Z / (2(root - X)) would turn into a silent 0.0; the closed form raises there."""
        assert gip_from_standard_form((2.0, 1e76, 1.0, -1.0)).value == pytest.approx(
            gip_special(StandardForm(2.0, 1e76, 1.0, -1.0)), rel=1e-12)
        assert gip_special(StandardForm(2.0, 1e76, 1.0, -1.0)) == pytest.approx(2.5e-77, rel=1e-12)
        for b in (1e77, 1e100):
            with pytest.raises(NumericalError, match=r"^closed formula overflows at \(a, b, c, d\) = "):
                gip_from_standard_form((2.0, b, 1.0, -1.0))


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
        assert (result.zeta_opt, result.theta_opt) == (1.0, 0.0)
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

    def test_tuple_input(self):
        assert gip_special((2.0, 3.0, 1.0, -1.0)) == gip_special(S231)
        with pytest.raises(InvalidStateError, match=r"requires c >= \|d\|, got \(0.5, 1.0\)"):
            gip_special((2.0, 2.0, 0.5, 1.0))


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
        assert result.branch == "general"
        assert result.value == pytest.approx(1 / 12, abs=1e-12)

    def test_tuple_input(self):
        assert gip_from_standard_form((2.0, 3.0, 1.0, -1.0)) == gip_from_standard_form(S231)
        with pytest.raises(InvalidStateError, match="overflows the covariance matrix"):
            gip_from_standard_form((1e308, 1.0, 0.0, 0.0))

    def test_pure_branch_wins(self):
        result = gip_from_standard_form(tmsv(2.0))
        assert result.branch == "pure"
        assert result.value == pytest.approx(0.75, abs=1e-12)

    def test_d_equals_minus_or_plus_c(self):
        # no shortcut at d = -+c: the general form agrees with gip_special
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 2000:
            sf = random_state(rng)
            sign = 1.0 if checked % 2 else -1.0
            form = StandardForm(sf.a, sf.b, sf.c, sign * sf.c)
            try:
                result = gip_from_standard_form(form)
            except InvalidStateError:
                continue
            checked += 1
            assert result.branch == "general"
            assert result.value == pytest.approx(gip_special(form), rel=1e-14, abs=0.0), form

    def test_general_branch(self):
        result = gip_from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5))
        assert result.branch == "general"
        assert result.value == gip_closed_form(from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5))).value


def oracle_states(rng):
    """100 standard-form, 100 locally conjugated and 100 mode-A squeezed (by up to 2^6) states."""
    for kind in ("standard", "conjugated", "squeezed"):
        for i in range(100):
            cm = random_physical_cm(rng, conjugate=kind != "standard")
            if kind == "squeezed":
                s_a = rotation(rng.uniform(0, np.pi)) @ squeeze(2.0 ** (i % 7))
                cm = apply_local_symplectic(cm, s_a, np.eye(2))
            yield cm


def product_forms():
    """(a, b, 0, 0) and near-product forms up to b = 1e30."""
    forms = [(a, b, 0.0, 0.0) for a in (1.0, 1.5, 7.0, 1e3) for b in np.logspace(0, 30, 61)]
    forms += [(a, b, c, d) for a in (1.5, 7.0, 1e3) for b in np.logspace(0.5, 30, 60)
              for c, d in ((1e-3, -1e-3), (1e-3, 5e-4), (1e-6, 0.0))]
    return forms


def pure_and_boundary_states():
    """tmsv(a) for a in 10^[0.5, 7.5], and the three boundary families."""
    nus = np.linspace(0.01, 0.99, 50).tolist()
    forms = [upper_boundary_state(nu, b) for nu in nus for b in (100.0, 1e3, 1e6)]
    forms += [lower_branch1_state(nu) for nu in nus if nu > nu_zero()]
    forms += [lower_branch2_state(nu) for nu in nus]
    cms = [from_standard_form(sf) for sf in forms]
    cms += [from_standard_form(tmsv(a)) for a in np.logspace(0.5, 7.5, 71).tolist()]
    return cms


class TestCrossValidation:
    def test_check_on_standard_entries_is_cross_validate(self, rng):
        """verify's numpy-free check on (a, b, c, d) equals cross_validate on the matrix."""
        forms = [random_state(rng) for _ in range(300)] + [tmsv(a) for a in (1.0, 2.0, 300.0)]
        forms += [StandardForm(1.0, b, 0.0, 0.0) for b in (1.0, 1e20, 1e30)]
        for sf in forms:
            for tol in (0.0, 1e-4):
                want = cross_validate(from_standard_form(sf), tol)
                assert _cross_check(_standard_entries(sf.a, sf.b, sf.c, sf.d), tol) == want, sf

    def test_spot_states(self):
        for sf in (S231, tmsv(2.0), StandardForm(2.0, 3.0, 0.0, 0.0)):
            report = cross_validate(from_standard_form(sf), tol=1e-3)
            assert report.passed, report

    def test_random_states(self, rng):
        for _ in range(20):
            report = cross_validate(random_physical_cm(rng, conjugate=True), tol=1e-4)
            assert report.passed, report

    def test_locally_squeezed_states(self, rng):
        # The oracle minimises over every local black box, so a state squeezed
        # on mode A by z = 10^U(1, 3) keeps the closed form's value.
        for _ in range(120):
            z = 10 ** rng.uniform(1, 3)
            s_a = rotation(rng.uniform(0, 2 * np.pi)) @ squeeze(z) @ rotation(rng.uniform(0, 2 * np.pi))
            cm = apply_local_symplectic(random_physical_cm(rng), s_a, random_local_symplectic(rng))
            report = cross_validate(cm)
            assert report.passed, (z, report)
            assert report.abs_diff <= 1e-12 * max(1.0, report.closed), (z, report)

    def test_one_factor_per_call(self, rng, factor_calls):
        # The closed form and the oracle share one physicality gate.
        cm = random_physical_cm(rng, conjugate=True)
        factor_calls[0] = 0
        cross_validate(cm)
        assert factor_calls[0] == 1

    def test_one_oracle_form_per_call(self, rng, qfi_form_calls):
        # The oracle's value and the pencil root come from one _qfi_form.
        for cm in (random_physical_cm(rng, conjugate=True), from_standard_form(tmsv(2.0))):
            qfi_form_calls[0] = 0
            cross_validate(cm)
            assert qfi_form_calls[0] == 1

    def test_one_frame_per_call(self, rng, monkeypatch):
        # The closed form and the oracle share one standard frame, which
        # unsqueezes each mode block once.
        cm = random_physical_cm(rng, conjugate=True)
        calls = [0]
        unsqueeze = symplectic._unsqueeze

        def counted(*block):
            calls[0] += 1
            return unsqueeze(*block)

        monkeypatch.setattr(symplectic, "_unsqueeze", counted)
        cross_validate(cm)
        assert calls[0] == 2

    def test_oracle_is_worst_case_qfi(self, rng):
        # The shared-gate path gives the public oracle's value bit for bit,
        # also on states squeezed on mode A by up to 2^6, on pure and boundary
        # states and on product and near-product forms up to b = 1e30.
        cms = list(oracle_states(rng)) + pure_and_boundary_states()
        cms += [from_standard_form(StandardForm(*form)) for form in product_forms()]
        assert len(cms) > 1000
        for cm in cms:
            assert cross_validate(cm).oracle == worst_case_qfi(cm).value / 4

    def test_closed_is_gip_closed_form(self, rng):
        # The value-only closed form gives the public one's value bit for bit:
        # on the states above, on tmsv(a) (the pure branch) and on product states.
        cms = list(oracle_states(rng))
        branches = collections.Counter()
        for a in np.logspace(0.5, 5, 46):
            cm = from_standard_form(tmsv(a))
            branches[gip_closed_form(cm).branch] += 1
            cms.append(cm)
        assert branches["pure"] >= 30, branches
        cms += [from_standard_form(StandardForm(*rng.uniform(1, 50, size=2), 0.0, 0.0)) for _ in range(50)]
        cms += pure_and_boundary_states() + [from_standard_form(StandardForm(*form)) for form in product_forms()]
        for cm in cms:
            assert cross_validate(cm).closed == gip_closed_form(cm).value

    def test_values_alone(self, rng, value_builds):
        # cross_validate builds no generator map T, no mode-A frame and no IpResult;
        # the public functions build theirs: worst_case_qfi one T on one frame,
        # gip_closed_form one IpResult and no frame, to_standard_form neither.
        for cm in oracle_states(rng):
            value_builds.update(T=0, frame=0, IpResult=0)
            cross_validate(cm)
            assert value_builds == {"T": 0, "frame": 0, "IpResult": 0}
            worst_case_qfi(cm)
            assert value_builds == {"T": 1, "frame": 1, "IpResult": 0}
            gip_closed_form(cm)
            to_standard_form(cm)
            assert value_builds == {"T": 1, "frame": 1, "IpResult": 1}

    def test_product_forms_up_to_huge_b(self):
        # (a, b, 0, 0) and near-product forms up to b = 1e30: on the axis-aligned
        # forms the oracle's Jacobi rotation is exact, (cos, sin) = (0, 1), so
        # its Q does not grow as eps b^2 and every state passes.
        for form in product_forms():
            report = cross_validate(from_standard_form(StandardForm(*form)))
            assert report.passed, (form, report)

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
