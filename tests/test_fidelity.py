import contextlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gipower import (
    BlackBoxParams,
    InvalidStateError,
    NumericalError,
    StandardForm,
    apply_blackbox,
    apply_local_symplectic,
    apply_loss_B,
    blackbox_symplectic,
    cross_validate,
    fidelity,
    from_standard_form,
    local_invariants,
    lower_branch1_state,
    lower_branch2_state,
    nu_zero,
    qfi,
    random_state,
    random_local_symplectic,
    rotation,
    squeeze,
    tmsv,
    upper_boundary_state,
    worst_case_qfi,
)

from gipower.fidelity import _generator_map, _qfi_at, _qfi_form
from gipower.symplectic import TIE_REL, _entries, _standard_frame

from conftest import random_physical_cm
from oracles import (
    closed_form_mp,
    qfi_form_kron,
    qfi_grid_minimum,
    qfi_mp,
    thermal_vs_vacuum_fidelity,
)

S231 = StandardForm(2.0, 3.0, 1.0, -1.0)


def gate_admitted_mixtures(rng):
    """(i, nu, sigma) of 100 beam-splitter mixtures with nu- = nu = 1 - eps, eps <= 3e-8.

    They pass the 1e-7 gate; nu+ is 1/nu for odd i and nu + 3 for even i.
    """
    for i in range(100):
        nu = 1 - 10 ** rng.uniform(-12, -7.5)
        angle = rng.uniform(0, np.pi)
        c, s = math.cos(angle), math.sin(angle)
        splitter = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        nu_plus = 1 / nu if i % 2 else nu + 3
        yield i, nu, splitter @ np.diag([nu, nu, nu_plus, nu_plus]) @ splitter.T


class TestRotation:
    def test_zero_is_identity(self):
        assert np.allclose(rotation(0.0), np.eye(2), atol=0)

    def test_quarter_turn(self):
        assert np.allclose(rotation(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_additive(self, rng):
        for _ in range(20):
            p1, p2 = rng.uniform(-5, 5, size=2)
            assert np.allclose(rotation(p1) @ rotation(p2), rotation(p1 + p2), atol=1e-14)

    def test_orthogonal_unit_determinant(self, rng):
        r = rotation(rng.uniform(0, 2 * np.pi))
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)


class TestSqueeze:
    def test_unit_is_identity(self):
        assert np.array_equal(squeeze(1.0), np.eye(2))

    def test_inverse_pair(self):
        assert np.allclose(squeeze(2.0) @ squeeze(0.5), np.eye(2), atol=0)

    def test_example(self):
        assert np.array_equal(squeeze(2.0), np.diag([2.0, 0.5]))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidStateError):
            squeeze(0.0)
        with pytest.raises(InvalidStateError):
            squeeze(-1.0)


class TestBlackBoxSymplectic:
    def test_unit_squeeze_reduces_to_rotation(self, rng):
        for _ in range(20):
            phi, theta = rng.uniform(0, 2 * np.pi, size=2)
            t = blackbox_symplectic(BlackBoxParams(phi, 1.0, theta))
            assert np.allclose(t, rotation(phi), atol=1e-14)

    def test_zero_phase_example(self):
        t = blackbox_symplectic(BlackBoxParams(0.0, 2.0, 0.0))
        assert np.allclose(t, np.diag([4.0, 0.25]), atol=0)

    def test_symplectic(self, rng):
        for _ in range(100):
            params = BlackBoxParams(rng.uniform(0, 7), 2 ** rng.uniform(-2, 2), rng.uniform(0, 7))
            assert np.linalg.det(blackbox_symplectic(params)) == pytest.approx(1.0, abs=1e-12)

    def test_euler_phase_is_absorbed(self, rng):
        # a leading rotation R(psi) in the Euler form M = R(psi) S R(theta)
        # commutes through R(phi) and cancels
        for _ in range(100):
            phi, theta, psi = rng.uniform(0, 2 * np.pi, size=3)
            zeta = 2 ** rng.uniform(-1, 1)
            m = rotation(psi) @ squeeze(zeta) @ rotation(theta)
            full = m.T @ rotation(phi) @ m
            assert np.allclose(full, blackbox_symplectic(BlackBoxParams(phi, zeta, theta)), atol=1e-13)

    def test_period_pi_in_theta(self, rng):
        for _ in range(20):
            phi, theta = rng.uniform(0, 2 * np.pi, size=2)
            zeta = 2 ** rng.uniform(-1, 1)
            t1 = blackbox_symplectic(BlackBoxParams(phi, zeta, theta))
            t2 = blackbox_symplectic(BlackBoxParams(phi, zeta, theta + np.pi))
            assert np.allclose(t1, t2, atol=1e-12)

    def test_params_normalized(self):
        params = BlackBoxParams(0.3, 1.5, 4.0)
        assert 0 <= params.theta < np.pi
        with pytest.raises(InvalidStateError):
            BlackBoxParams(0.0, 0.0, 0.0)

    def test_params_finite(self):
        for params in ((math.nan, 1.5, 0.2), (0.3, 1.5, math.inf)):
            with pytest.raises(InvalidStateError, match="^black-box parameters must be finite$"):
                BlackBoxParams(*params)

    def test_tuple_input(self):
        assert np.array_equal(blackbox_symplectic((0.3, 1.5, 4.0)),
                              blackbox_symplectic(BlackBoxParams(0.3, 1.5, 4.0)))


class TestApplyBlackbox:
    def test_product_with_unit_squeeze_unchanged(self, rng):
        cm = from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0))
        for phi in rng.uniform(0, 2 * np.pi, size=5):
            out = apply_blackbox(cm, BlackBoxParams(phi, 1.0, 0.0))
            assert np.allclose(out.sigma, cm.sigma, atol=1e-14)

    def test_tmsv_half_turn_negates_correlations(self):
        cm = from_standard_form(tmsv(2.0))
        out = apply_blackbox(cm, BlackBoxParams(np.pi, 1.0, 0.0))
        assert np.allclose(out.alpha, cm.alpha, atol=1e-15)
        assert np.allclose(out.beta, cm.beta, atol=1e-15)
        assert np.allclose(out.gamma, -cm.gamma, atol=1e-15)

    def test_preserves_A_and_D(self, rng):
        cm = random_physical_cm(rng)
        inv0 = local_invariants(cm)
        for _ in range(10):
            params = BlackBoxParams(rng.uniform(0, 7), 2 ** rng.uniform(-2, 2), rng.uniform(0, 3))
            inv = local_invariants(apply_blackbox(cm, params))
            assert inv.A == pytest.approx(inv0.A, rel=1e-9)
            assert inv.D == pytest.approx(inv0.D, rel=1e-9, abs=1e-9)


class TestFidelity:
    def test_self_fidelity(self, rng):
        for _ in range(200):
            cm = random_physical_cm(rng, conjugate=True)
            assert fidelity(cm, cm) == pytest.approx(1.0, abs=1e-10)

    def test_self_fidelity_of_large_pure_states(self):
        # the pure-pair switch needs det sigma = 1 to well under PURE_TOL
        for a in np.geomspace(10.0, 1e3, 40):
            cm = from_standard_form(tmsv(a))
            assert fidelity(cm, cm) == pytest.approx(1.0, abs=1e-9), a

    def test_thermal_vs_vacuum_matches_fock_oracle(self):
        sigma1 = np.diag([3.0, 3.0, 1.0, 1.0])  # thermal n_bar = 1 on A
        expected = thermal_vs_vacuum_fidelity(n_bar=1.0, dim=40)
        assert expected == pytest.approx(0.5, abs=1e-12)
        assert fidelity(sigma1, np.eye(4)) == pytest.approx(expected, abs=1e-9)

    def test_tmsv_small_rotation_quadratic_decay(self):
        # F ~ 1 - (QFI/4) eps^2 with QFI = 3 at the optimum
        cm = from_standard_form(tmsv(2.0))
        rotated = apply_blackbox(cm, BlackBoxParams(0.1, 1.0, 0.0))
        assert fidelity(cm, rotated) == pytest.approx(1 - 0.75 * 0.1**2, abs=1e-4)

    def test_symmetric(self, rng):
        for _ in range(500):
            cm1 = random_physical_cm(rng)
            cm2 = random_physical_cm(rng)
            assert abs(fidelity(cm1, cm2) - fidelity(cm2, cm1)) < 1e-12

    def test_bounded(self, rng):
        for _ in range(300):
            f = fidelity(random_physical_cm(rng), random_physical_cm(rng))
            assert 0.0 <= f <= 1.0 + 1e-9

    def test_invariant_under_local_symplectics(self, rng):
        for _ in range(100):
            cm1, cm2 = random_physical_cm(rng), random_physical_cm(rng)
            s_a, s_b = random_local_symplectic(rng), random_local_symplectic(rng)
            f0 = fidelity(cm1, cm2)
            f1 = fidelity(
                apply_local_symplectic(cm1, s_a, s_b), apply_local_symplectic(cm2, s_a, s_b)
            )
            assert abs(f0 - f1) < 1e-9

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            fidelity(np.diag([0.5, 0.5, 1.0, 1.0]), np.eye(4))

    def test_negative_radicand_raises_numerical_error(self, monkeypatch):
        """A radicand s^2 - Upsilon below -CHECK_TOL max(1, s^2) raises, never a clamp to 0.
        A zero symplectic form makes Gamma = det(-I)/16 on the thermal state 2I, so
        s = 1/4 + 9/4 and s^2 - Upsilon = 6.25 - 16."""
        monkeypatch.setattr(sys.modules["gipower.symplectic"], "OMEGA", np.zeros((4, 4)))
        with pytest.raises(NumericalError, match=r"^fidelity radicand -9\.7\d* negative beyond tolerance$"):
            fidelity(2 * np.eye(4), 2 * np.eye(4))

    def test_states_the_gate_admits_below_the_bound(self, rng):
        # lam = det(sigma + i Omega) as D - (A + B + 2C) + 1 reads ~ -1e-6 on
        # the nu+ = nu + 3 half; from the spectra it is clamped at 0.
        for i, nu, sigma in gate_admitted_mixtures(rng):
            f, f_swapped = fidelity(sigma, 5 * np.eye(4)), fidelity(5 * np.eye(4), sigma)
            assert math.isfinite(f) and 0.0 <= f <= 1.0, (i, nu)
            assert f == f_swapped


class TestQfi:
    def test_tmsv_example(self):
        assert qfi(from_standard_form(tmsv(2.0)), zeta=1.0, theta=0.0) == pytest.approx(3.0, abs=1e-4)

    def test_product_state_insensitive(self):
        value = qfi(from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0)), zeta=1.0, theta=0.4)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_standard_form_example(self):
        assert qfi(from_standard_form(S231), zeta=1.0, theta=0.0) == pytest.approx(1 / 3, abs=1e-4)

    def test_base_point_independence(self, rng):
        # finite differences anchored at phi0, using only public pieces
        cm = random_physical_cm(rng)
        zeta, theta = 1.3, 0.7

        def qfi_from_base(phi0, eps=1e-3):
            def second_diff(e):
                base = apply_blackbox(cm, BlackBoxParams(phi0, zeta, theta))
                f_p = fidelity(base, apply_blackbox(cm, BlackBoxParams(phi0 + e, zeta, theta)))
                f_m = fidelity(base, apply_blackbox(cm, BlackBoxParams(phi0 - e, zeta, theta)))
                return -2 * (f_p + f_m - 2) / e**2

            return (4 * second_diff(eps / 2) - second_diff(eps)) / 3

        reference = qfi(cm, zeta, theta)
        for phi0 in (0.0, 0.3, 1.0):
            assert qfi_from_base(phi0) == pytest.approx(reference, abs=1e-6)

    def test_arrays_match_scalar_calls(self, rng):
        for _ in range(10):
            cm = random_physical_cm(rng, conjugate=True)
            zeta = 2.0 ** rng.uniform(-3.0, 3.0, size=(4, 25))
            theta = rng.uniform(0, np.pi, size=25)
            values = qfi(cm, zeta, theta)
            assert values.shape == (4, 25)
            expected = [[qfi(cm, z, t) for z, t in zip(row, theta)] for row in zeta]
            assert np.array_equal(values, expected)

    def test_rejects_bad_array_elements(self):
        cm = from_standard_form(S231)
        with pytest.raises(InvalidStateError):
            qfi(cm, [1.0, 2.0, -1.0], 0.0)
        with pytest.raises(InvalidStateError):
            qfi(cm, 1.0, [0.0, np.inf])

    def test_value_clamped_nonnegative(self, rng):
        for _ in range(20):
            value = qfi(random_physical_cm(rng), zeta=2 ** rng.uniform(-1, 1), theta=rng.uniform(0, np.pi))
            assert value >= 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidStateError):
            qfi(np.diag([0.5, 0.5, 1.0, 1.0]), 1.0, 0.0)
        with pytest.raises(InvalidStateError):
            qfi(np.eye(4), -1.0, 0.0)

    @pytest.mark.parametrize("zeta", [1e200, 1e-200])
    def test_overflow_raises(self, zeta):
        # zeta^4 beyond the float range: a NumericalError, never nan or inf
        cm = from_standard_form(S231)
        with pytest.raises(NumericalError):
            qfi(cm, zeta, 0.3)
        with pytest.raises(NumericalError):
            cross_validate(np.diag([1e150, 1e150, 2e150, 2e150]))


def _reference_states(rng):
    """(label, sigma) pairs: random, conjugated, pure, nu- = 1 and near-pure."""
    for _ in range(60):
        yield "random", random_physical_cm(rng).sigma
    for _ in range(60):
        yield "conjugated", random_physical_cm(rng, conjugate=True).sigma
    pure = [from_standard_form(tmsv(a)).sigma for a in rng.uniform(1.0, 5.0, size=15)]
    pure += [from_standard_form(lower_branch2_state(nu)).sigma for nu in rng.uniform(0.05, 0.95, size=15)]
    for sigma in pure:
        yield "pure", sigma
    for nu in rng.uniform(nu_zero(), 0.95, size=30):
        yield "nu- = 1", from_standard_form(lower_branch1_state(nu)).sigma
    for delta in np.logspace(-12, -4, 9):
        for sigma in pure[::3]:
            yield f"near-pure {delta:.0e}", sigma * (1 + delta) ** 0.25


class TestQfiAgainstReference:
    def test_matches_mpmath_second_difference(self, rng):
        states = list(_reference_states(rng))
        assert len(states) >= 200
        worst = (0.0, "")
        for label, sigma in states:
            zeta, theta = 2 ** rng.uniform(-2.5, 2.5), rng.uniform(0, np.pi)
            expected = qfi_mp(sigma, zeta, theta)
            worst = max(worst, (abs(qfi(sigma, zeta, theta) - expected) / expected, label))
        assert worst[0] <= 1e-9, f"worst relative deviation {worst[0]:.2e} on a {worst[1]} state"

    def test_locally_squeezed_inputs(self, rng):
        # Local squeezing by z puts entries ~z^2 into sigma; it must not cost
        # accuracy, including at the black box that undoes it (zeta = 1/z).
        z = 10**1.5
        for i in range(12):
            cm = _locally_squeezed(rng, z)
            zeta = 1 / z if i % 2 else 2 ** rng.uniform(-2.5, 2.5)
            theta = rng.uniform(0, np.pi)
            expected = qfi_mp(cm.sigma, zeta, theta)
            assert qfi(cm, zeta, theta) == pytest.approx(expected, rel=1e-9)


def _locally_squeezed(rng, z=10**1.5):
    """A random state squeezed by z on mode A: entries ~z^2 in sigma."""
    s_a = rotation(rng.uniform(0, 2 * np.pi)) @ squeeze(z) @ rotation(rng.uniform(0, 2 * np.pi))
    return apply_local_symplectic(random_physical_cm(rng), s_a, random_local_symplectic(rng))


class TestQfiForm:
    def test_matches_pseudo_inverse_form(self, rng):
        # The Williamson-basis form against the 16x16 pseudo-inverse form, on
        # every (zeta, theta), including degenerate spectra nu- = nu+ (vacuum,
        # symmetric thermal products, tmsv) and their near-pure scalings.
        # The eigh of the pseudo-inverse form loses ~eps a^2: on tmsv(300) it is
        # itself up to ~1.3e-10 off, so a point it misses goes to the 60-digit
        # second difference instead.
        states = list(_reference_states(rng))
        states += [("locally squeezed", _locally_squeezed(rng).sigma) for _ in range(12)]
        degenerate = [np.eye(4)]
        degenerate += [from_standard_form(StandardForm(a, a, 0.0, 0.0)).sigma for a in (1.5, 4.0, 30.0)]
        degenerate += [from_standard_form(tmsv(a)).sigma for a in (1.5, 4.0, 30.0, 300.0)]
        for sigma in degenerate:
            states.append(("nu- = nu+", sigma))
            states += [(f"nu- = nu+ scaled {delta:.0e}", sigma * (1 + delta) ** 0.25)
                       for delta in np.logspace(-12, -4, 9)]
        worst = (0.0, "")
        for label, sigma in states:
            standard, frame = _standard_frame(_entries(sigma))
            form = (_qfi_form(standard), _generator_map(frame))
            (_, q_gz, _), (_, _, q_zx), _ = form[0]
            assert q_gz == 0.0 and q_zx == 0.0, label
            zeta, theta = 2.0 ** rng.uniform(-2.5, 2.5, size=20), rng.uniform(0, np.pi, size=20)
            values = _qfi_at(form, zeta, theta)
            expected = _qfi_at(qfi_form_kron(sigma), zeta, theta)
            for value, ref, z, t in zip(values, expected, zeta, theta):
                error = abs(value - ref) / max(1.0, ref)
                if error > 1e-10:
                    ref = qfi_mp(sigma, z, t)
                    error = abs(value - ref) / max(1.0, ref)
                worst = max(worst, (error, label))
        assert worst[0] <= 1e-10, f"worst deviation {worst[0]:.2e} on a {worst[1]} state"

    def test_states_the_gate_admits_below_the_bound(self, rng):
        # nu- = 1 - eps (eps <= 3e-8) passes the 1e-7 gate.  Mixed by a beam
        # splitter with nu+ = 1/nu- the naive weight (nu+ - nu-)^2/(nu+ nu- - 1)
        # divides by ~0; the form must stay finite and positive semidefinite.
        for i, nu, sigma in gate_admitted_mixtures(rng):
            standard, frame = _standard_frame(_entries(sigma))
            form = (_qfi_form(standard), _generator_map(frame))
            (q_gg, _, q_gx), _, (_, _, q_xx) = form[0]
            assert q_gg * q_xx >= q_gx * q_gx
            zeta, theta = 2.0 ** rng.uniform(-2.5, 2.5, size=20), rng.uniform(0, np.pi, size=20)
            expected = _qfi_at(qfi_form_kron(sigma), zeta, theta)
            error = np.abs(_qfi_at(form, zeta, theta) - expected) / np.maximum(1.0, expected)
            assert error.max() <= 1e-6, (i, nu)
            assert math.isfinite(worst_case_qfi(sigma).value)

    def test_axis_aligned_product_forms(self):
        # On (1, b, 0, 0) and (a, 1, 0, 0) Q_GG = Q_GX = 0: within 4 eps of Q_XX,
        # since nu = sqrt(b) sqrt(b)/b rounds.  The Jacobi rotation there is a
        # quarter turn, and cos(pi/2) = 6e-17 would put Q_GG at Q_XX from b ~ 1e15 on.
        eps = np.finfo(float).eps
        for x in np.logspace(0, 150, 301):
            for standard in ((1.0, x, 0.0, 0.0), (x, 1.0, 0.0, 0.0)):
                (q_gg, _, q_gx), _, (_, _, q_xx) = _qfi_form(standard)
                assert max(abs(q_gg), abs(q_gx)) <= 4 * eps * q_xx, standard


class TestWorstCase:
    def test_one_factor_per_call(self, rng, cholesky_calls):
        cm = random_physical_cm(rng, conjugate=True)
        cholesky_calls[0] = 0
        worst_case_qfi(cm)
        assert cholesky_calls[0] == 1

    def test_standard_form_example(self):
        # d = -c: the QFI is flat in theta at zeta = 1, an exact tie that
        # resolves to theta = 0
        result = worst_case_qfi(from_standard_form(S231))
        assert result.value == pytest.approx(1 / 3, rel=1e-12)
        assert (result.zeta_opt, result.theta_opt) == (1.0, 0.0)

    def test_asymmetric_window_finds_interior_minimum(self, rng):
        # Where the argmin lies inside the asymmetric log2 zeta window (-1, 2),
        # a grid on that window finds the oracle's value to its resolution and
        # never goes below it.
        window = (-1.0, 2.0)
        cases = [from_standard_form(S231)] + [random_physical_cm(rng, conjugate=True) for _ in range(40)]
        held = 0
        for cm in cases:
            result = worst_case_qfi(cm)
            if not window[0] < math.log2(result.zeta_opt) < window[1]:
                continue
            held += 1
            best, resolution = qfi_grid_minimum(cm, window)
            slack = 1e-12 * max(1.0, result.value)
            assert result.value <= best + slack
            assert best - result.value <= resolution
        assert held >= 10

    def test_product_state(self):
        result = worst_case_qfi(from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0)))
        assert result.value == pytest.approx(0.0, abs=1e-6)
        assert result.zeta_opt == 1.0
        assert result.theta_opt == 0.0

    def test_tmsv(self):
        result = worst_case_qfi(from_standard_form(tmsv(2.0)))
        assert result.value == pytest.approx(3.0, abs=1e-3)
        assert result.zeta_opt == pytest.approx(1.0, abs=1e-6)
        assert result.theta_opt == 0.0

    def test_argmin_of_locally_squeezed_states(self, rng):
        # A local squeeze by z on mode A moves the argmin by ~z; qfi there
        # gives the value back.  qfi at far zeta loses digits in h0 = T h.
        cases = [_locally_squeezed(rng, 2.0 ** rng.uniform(0, 6)) for _ in range(40)]
        cases += [apply_local_symplectic(from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5)),
                                         squeeze(2.0**k), np.eye(2)) for k in range(-6, 7)]
        for cm in cases:
            result = worst_case_qfi(cm)
            assert 0.0 <= result.theta_opt < np.pi / 2
            assert abs(qfi(cm, result.zeta_opt, result.theta_opt) - result.value) <= 1e-6 * max(1.0, result.value)

    def test_overflow_raises(self):
        # Entries of 1e200 overflow the QFI form: a NumericalError, never nan or inf.
        cm = np.diag([1e200, 1e200, 2e200, 2e200])
        for call in (worst_case_qfi, cross_validate):
            with pytest.raises(NumericalError, match="QFI form"):
                call(cm)

    def test_form_intermediates_raise_numerical_error(self):
        # Near the float range the form's intermediates fail before Q does: on
        # diag(x, x, 2x, 2x) at x = 10^153.8 nu+ overflows and nu- becomes 0,
        # a divisor; the rounded frames of tmsv(a) from a ~ 1e60 on take the
        # square root of a negative pivot or divide by a zero one.  Each is the
        # form's NumericalError, or a finite form.
        raised = 0
        for k in range(11):
            cm = np.diag([1.0, 1.0, 2.0, 2.0]) * 10 ** (153 + k / 10)
            with contextlib.suppress(NumericalError):
                assert math.isfinite(cross_validate(cm).oracle)
            try:
                assert math.isfinite(worst_case_qfi(cm).value)
            except NumericalError as error:
                assert "QFI form" in str(error)
                raised += 1
        for a in np.logspace(60, 150, 46):
            try:
                _qfi_form(_standard_frame(_entries(from_standard_form(tmsv(a)).sigma))[0])
            except NumericalError as error:
                assert "QFI form" in str(error)
                raised += 1
        assert raised >= 10

    def test_degenerate_pencil_raises_numerical_error(self, monkeypatch):
        # The product states (1, b, 0, 0), b from 1e25 on, once rounded the pencil's
        # root to 0; with Q exact there, every one has a finite value.
        for b in np.logspace(25, 150, 126):
            assert math.isfinite(worst_case_qfi(from_standard_form(StandardForm(1.0, b, 0.0, 0.0))).value)
        # A Q with h0 on the light cone puts the root at 0: mapping the argmin back is
        # a NumericalError, never a ZeroDivisionError.  On the vacuum T is the identity
        # and the QFI at zeta = 1 is Q_GG = 1, above the minimum 0, so the map is reached.
        # The module comes from sys.modules: gipower.fidelity is also the function.
        light_cone = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]
        monkeypatch.setattr(sys.modules["gipower.fidelity"], "_qfi_form", lambda standard: light_cone)
        with pytest.raises(NumericalError, match="degenerate pencil"):
            worst_case_qfi(from_standard_form(StandardForm(1.0, 1.0, 0.0, 0.0)))

    def test_deterministic(self, rng):
        cm = random_physical_cm(rng, conjugate=True)
        r1 = worst_case_qfi(cm)
        r2 = worst_case_qfi(cm)
        assert (r1.value, r1.zeta_opt, r1.theta_opt) == (r2.value, r2.zeta_opt, r2.theta_opt)

    def test_twin_with_smaller_theta(self, rng):
        # (zeta, theta) and (1/zeta, theta + pi/2) are one minimum; the one
        # with theta < pi/2 is reported, unless the QFI at zeta = 1 ties the
        # value within TIE_REL: then exactly (1, 0) is.
        cases = [random_physical_cm(rng, conjugate=True) for _ in range(20)]
        forms = [random_state(rng) for _ in range(200)]
        forms += [tmsv(a) for a in (1.0, 1.01, 2.0, 30.0, 300.0)]
        forms += [StandardForm(a, b, c, sign * c) for sign in (-1.0, 1.0)
                  for a, b, c in ((2.0, 3.0, 1.0), (5.0, 1.5, 0.6), (40.0, 41.0, 38.0))]
        forms += [StandardForm(a, b, 0.0, 0.0) for a, b in ((1.0, 1.0), (2.0, 3.0), (50.0, 1.2))]
        cases += [from_standard_form(sf) for sf in forms]
        tied = 0
        for i, cm in enumerate(cases):
            result = worst_case_qfi(cm)
            assert 0.0 <= result.theta_opt < np.pi / 2
            at_one = qfi(cm, 1.0, 0.0) <= result.value + TIE_REL * max(1.0, result.value)
            assert ((result.zeta_opt, result.theta_opt) == (1.0, 0.0)) == at_one, i
            tied += at_one
            if not at_one:
                twin = qfi(cm, 1 / result.zeta_opt, result.theta_opt + np.pi / 2)
                assert twin == pytest.approx(result.value, rel=1e-12)
        assert 0 < tied < len(cases)

    def test_value_is_a_lower_bound_in_the_window(self, rng):
        # The value is the minimum over every black box, so no qfi in any
        # log2 zeta window of test points lies below it.
        for i in range(100):
            cm = random_physical_cm(rng, conjugate=True) if i % 4 else _locally_squeezed(rng, 2.0**rng.uniform(1, 6))
            lo, hi = (-2.5, 2.5) if i % 2 else np.sort(rng.uniform(-6.0, 6.0, size=2))
            result = worst_case_qfi(cm)
            slack = 1e-12 * max(1.0, result.value)
            lz, theta = rng.uniform(lo, hi, size=50), rng.uniform(0, np.pi, size=50)
            values = qfi(cm, 2.0**lz, theta)
            assert np.all(result.value <= values + slack), (i, lz[values.argmin()], theta[values.argmin()])

    def test_no_grid_point_is_lower(self, rng):
        # A theory-free check of the global minimum: a brute-force grid of qfi
        # values on any log2 zeta window never beats the oracle, and where the
        # window holds the argmin or its twin the oracle is never lower than
        # the grid can resolve.
        cases = [(random_physical_cm(rng), (-2.5, 2.5)) for _ in range(10)]
        cases += [(random_physical_cm(rng, conjugate=True), (-2.5, 2.5)) for _ in range(10)]
        cases += [(random_physical_cm(rng, conjugate=i % 2 == 0), tuple(np.sort(rng.uniform(-3, 3, size=2))))
                  for i in range(20)]
        cases += [(random_physical_cm(rng, conjugate=True), (x, x)) for x in (0.0, 0.0, 1.0, 1.0)]
        held = 0
        for cm, (lo, hi) in cases:
            result = worst_case_qfi(cm)
            best, resolution = qfi_grid_minimum(cm, (lo, hi))
            assert result.value <= best + 1e-12 * max(1.0, result.value), (lo, hi)
            if lo < math.log2(result.zeta_opt) < hi or lo < -math.log2(result.zeta_opt) < hi:
                held += 1
                assert best - result.value <= resolution, (lo, hi)
        assert held >= 20

    def test_monotone_under_loss_on_B(self, rng):
        # Loss on mode B, which the black box does not touch, cannot raise the
        # worst-case QFI.  The closed form has the same test; the oracle never
        # reads the invariants that one depends on.
        for i in range(200):
            cm = random_physical_cm(rng, conjugate=i % 2 == 1)
            value = worst_case_qfi(cm).value
            for eta in (0.1, 0.5, 0.9, 0.999):
                lossy = worst_case_qfi(apply_loss_B(cm, eta)).value
                assert lossy <= value + 1e-12 * max(1.0, value), (i, eta, lossy - value)


def _pure_reference(sigma):
    """(A - 1)/4 with A = det alpha exact; the closed form is 0/0 on pure states."""
    (s00, s01), (_, s11) = (map(Fraction, row) for row in sigma[:2, :2].tolist())
    return float((s00 * s11 - s01 * s01 - 1) / 4)


class TestWorstCasePrecision:
    def test_matches_closed_form_reference(self, rng):
        # The oracle never reads (A, B, C, D); a 50-digit closed form checks it.
        states = [("random", random_physical_cm(rng).sigma) for _ in range(80)]
        states += [("conjugated", random_physical_cm(rng, conjugate=True).sigma)
                   for _ in range(150)]
        states += [("nu- = 1", from_standard_form(lower_branch1_state(nu)).sigma)
                   for nu in rng.uniform(nu_zero(), 0.95, size=40)]
        states += [("upper boundary", from_standard_form(upper_boundary_state(nu, 1e3)).sigma)
                   for nu in rng.uniform(0.05, 0.95, size=40)]
        pure = [tmsv(a) for a in rng.uniform(1.0, 5.0, size=20)]
        pure += [lower_branch2_state(nu) for nu in rng.uniform(0.05, 0.95, size=20)]
        states += [("pure", from_standard_form(sf).sigma) for sf in pure]
        assert len(states) >= 300
        worst = (0.0, "")
        for label, sigma in states:
            expected = _pure_reference(sigma) if label == "pure" else closed_form_mp(sigma)
            error = abs(worst_case_qfi(sigma).value / 4 - expected) / max(1.0, expected)
            worst = max(worst, (error, label))
        assert worst[0] <= 1e-11, f"worst deviation {worst[0]:.2e} on a {worst[1]} state"

    def test_axis_squeezes(self, rng):
        # diag(2^k, 2^-k) on mode A rounds no entry, so closed_form_mp is that
        # of the unsqueezed state, while the argmin moves to log2 zeta ~ -k.
        forms = [StandardForm(2.0, 3.0, 1.0, -0.5), S231] + [random_state(rng) for _ in range(3)]
        worst = (0.0, None)
        for sf in forms:
            for k in range(3, 31):
                sigma = apply_local_symplectic(from_standard_form(sf), squeeze(2.0**k), np.eye(2)).sigma
                expected = closed_form_mp(sigma)
                error = abs(worst_case_qfi(sigma).value / 4 - expected) / max(1.0, expected)
                worst = max(worst, (error, (sf, k)), key=lambda w: w[0])
        assert worst[0] <= 1e-11, f"worst deviation {worst[0]:.2e} at {worst[1]}"
