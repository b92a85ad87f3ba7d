import json
import math
import re
import tokenize
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipower import (
    CovarianceMatrix,
    InvalidStateError,
    InvalidTransformError,
    NumericalError,
    StandardForm,
    apply_local_symplectic,
    cross_validate,
    fidelity,
    from_standard_form,
    gip_closed_form,
    gip_from_standard_form,
    is_separable,
    local_invariants,
    log_negativity,
    lower_branch2_state,
    mean_photon_A,
    pt_min_symplectic_eigenvalue,
    qfi,
    random_state,
    symplectic_eigenvalues,
    to_standard_form,
    tmsv,
    validate_bona_fide,
    worst_case_qfi,
)
import gipower.power as power
import gipower.symplectic as symplectic
from gipower.cli import main
from gipower.symplectic import OMEGA, _entries, _log_negativity, _physical_nu

from conftest import random_physical_cm
from oracles import (
    apply_loss_B,
    block_determinants_det,
    partial_transpose_B,
    random_local_symplectic,
    rotation,
    squeeze,
    standard_nu_mp,
    swap_modes,
    symplectic_spectrum_from_eigs,
)

S231 = StandardForm(2.0, 3.0, 1.0, -1.0)


def test_omega_invariants():
    assert np.array_equal(OMEGA @ OMEGA, -np.eye(4))
    assert np.array_equal(OMEGA.T, -OMEGA)


class TestCovarianceMatrix:
    def test_symmetrizes_input(self):
        m = np.eye(4)
        m[0, 1] = 1e-13
        cm = CovarianceMatrix(m)
        assert np.array_equal(cm.sigma, cm.sigma.T)
        assert cm.sigma[0, 1] == pytest.approx(5e-14)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidStateError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_non_finite(self):
        m = np.eye(4)
        m[2, 2] = np.nan
        with pytest.raises(InvalidStateError):
            CovarianceMatrix(m)

    def test_rejects_overflow_of_the_symmetrisation(self):
        """Finite entries whose (M + M^T)/2 overflows are refused, with no numpy warning."""
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 1e308
        with pytest.raises(InvalidStateError, match="non-finite entries or overflows"):
            CovarianceMatrix(m)

    def test_repr(self):
        assert repr(CovarianceMatrix(np.diag([2.0, 2.0, 3.0, 3.0]))) == (
            "CovarianceMatrix([[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], "
            "[0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 3.0]])")

    def test_immutable(self):
        cm = CovarianceMatrix(np.eye(4))
        with pytest.raises(ValueError):
            cm.sigma[0, 0] = 2.0

    def test_blocks(self):
        cm = from_standard_form(S231)
        assert np.array_equal(cm.alpha, 2 * np.eye(2))
        assert np.array_equal(cm.beta, 3 * np.eye(2))
        assert np.array_equal(cm.gamma, np.diag([1.0, -1.0]))

    def test_json_round_trip(self):
        cm = from_standard_form(S231)
        again = CovarianceMatrix.from_dict(cm.to_dict())
        assert np.array_equal(cm.sigma, again.sigma)
        d = cm.to_dict()
        assert d["ordering"] == "qA,pA,qB,pB"
        assert d["hbar"] == 1

    def test_from_dict_validates(self):
        with pytest.raises(InvalidStateError):
            CovarianceMatrix.from_dict({"ordering": "qA,qB,pA,pB", "sigma": np.eye(4).tolist()})
        with pytest.raises(InvalidStateError):
            CovarianceMatrix.from_dict({"hbar": 2, "sigma": np.eye(4).tolist()})
        with pytest.raises(InvalidStateError):
            CovarianceMatrix.from_dict({})


class TestStandardForm:
    def test_constraints(self):
        with pytest.raises(InvalidStateError):
            StandardForm(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidStateError):
            StandardForm(2.0, 2.0, 0.5, 1.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        fields = {"a": 2.0, "b": 2.0, "c": 0.5, "d": -0.5, field: value}
        with pytest.raises(InvalidStateError, match=f"non-finite {field}"):
            StandardForm(**fields)

    def test_fields_are_floats(self):
        sf = StandardForm(2, np.float64(3.0), np.int64(1), -1)
        assert [type(x) for x in (sf.a, sf.b, sf.c, sf.d)] == [float] * 4
        assert sf == S231


class TestBonaFide:
    def test_vacuum_saturates(self):
        report = validate_bona_fide(np.eye(4))
        assert report.physical
        assert report.nu_min == pytest.approx(1.0, abs=1e-14)

    def test_sub_vacuum_variance_invalid(self):
        report = validate_bona_fide(np.diag([0.5, 0.5, 1.0, 1.0]))
        assert not report.physical
        assert report.nu_min == pytest.approx(0.5, abs=1e-12)

    def test_standard_form_example(self):
        # oracle: direct evaluation of the radical with Delta = 11, D = 25
        expected = math.sqrt((11 - math.sqrt(21)) / 2)
        report = validate_bona_fide(from_standard_form(S231))
        assert report.physical
        assert report.nu_min == pytest.approx(expected, abs=1e-12)

    def test_non_finite_entries_rejected(self):
        m = np.eye(4)
        m[0, 0] = np.inf
        with pytest.raises(InvalidStateError):
            validate_bona_fide(m)

    def test_agrees_with_hermitian_eigenvalue_test(self, rng):
        # physicality via nu_minus matches positivity of sigma + i*Omega
        for _ in range(200):
            cm = random_physical_cm(rng, conjugate=True)
            scale = rng.uniform(0.5, 1.5)
            sigma = scale * cm.sigma
            by_nu = validate_bona_fide(sigma).physical
            by_eig = np.linalg.eigvalsh(sigma + 1j * OMEGA).min() >= -1e-9
            assert by_nu == by_eig


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(4)) == pytest.approx((1.0, 1.0))

    def test_williamson_diagonal(self):
        assert symplectic_eigenvalues(np.diag([3.0, 3.0, 5.0, 5.0])) == pytest.approx((3.0, 5.0))

    def test_standard_form_example(self):
        nu = symplectic_eigenvalues(from_standard_form(S231))
        assert nu[0] == pytest.approx(math.sqrt((11 - math.sqrt(21)) / 2), abs=1e-12)
        assert nu[1] == pytest.approx(math.sqrt((11 + math.sqrt(21)) / 2), abs=1e-12)

    def test_matches_spectrum_oracle(self, rng):
        for _ in range(100):
            cm = random_physical_cm(rng, conjugate=True)
            assert symplectic_eigenvalues(cm) == pytest.approx(
                symplectic_spectrum_from_eigs(cm.sigma), abs=1e-9
            )

    def test_pure_states_are_degenerate(self):
        # nu- = nu+ = 1 on a pure state; a cancelling discriminant such as
        # that of x^2 - (A + B + 2C) x + D misses it by ~sqrt(eps) a^2.
        states = [tmsv(a) for a in np.geomspace(1.001, 1000.0, 200)]
        states += [lower_branch2_state(nu) for nu in np.linspace(0.01, 0.99, 200)]
        for sf in states:
            nu_minus, nu_plus = symplectic_eigenvalues(from_standard_form(sf))
            assert nu_minus == pytest.approx(1.0, abs=1e-9), sf
            assert nu_plus == pytest.approx(1.0, abs=1e-9), sf

    @pytest.mark.parametrize("cosh_2r", [10.0, 30.0, 100.0])
    @pytest.mark.parametrize("nu_a, nu_b", [(1 - 1e-4, 1 + 1e-4), (1 - 1e-4, 1.0), (1 - 3e-5, 1 + 3e-5)])
    def test_near_degenerate_unphysical_states(self, cosh_2r, nu_a, nu_b):
        # Two-mode squeezed thermal state with symplectic eigenvalues
        # (nu_a, nu_b): nu_a < 1 must show, however close nu_b is to it.
        ch2, sh2 = (cosh_2r + 1) / 2, (cosh_2r - 1) / 2
        c = (nu_a + nu_b) * math.sqrt(ch2 * sh2)
        cm = from_standard_form(StandardForm(nu_a * ch2 + nu_b * sh2, nu_a * sh2 + nu_b * ch2, c, -c))
        assert symplectic_eigenvalues(cm) == pytest.approx((nu_a, nu_b), abs=1e-9)
        assert not validate_bona_fide(cm).physical
        with pytest.raises(InvalidStateError):
            gip_closed_form(cm)

    def test_not_positive_definite(self):
        # -I has the invariants of the vacuum
        report = validate_bona_fide(-np.eye(4))
        assert not report.physical and report.nu_min == 0.0
        with pytest.raises(InvalidStateError):
            symplectic_eigenvalues(-np.eye(4))
        with pytest.raises(InvalidStateError):
            pt_min_symplectic_eigenvalue(-np.eye(4))


class TestLocalInvariants:
    def test_vacuum(self):
        inv = local_invariants(np.eye(4))
        assert astuple(inv) == pytest.approx((1.0, 1.0, 0.0, 1.0))

    def test_standard_form_example(self):
        # D oracle: (ab - c^2)(ab - d^2) = 5 * 5
        inv = local_invariants(from_standard_form(S231))
        assert inv.A == pytest.approx(4.0, abs=1e-12)
        assert inv.B == pytest.approx(9.0, abs=1e-12)
        assert inv.C == pytest.approx(-1.0, abs=1e-12)
        assert inv.D == pytest.approx((6 - 1) * (6 - 1), abs=1e-10)

    def test_tmsv_pure(self):
        inv = local_invariants(from_standard_form(tmsv(2.0)))
        assert astuple(inv) == pytest.approx((4.0, 4.0, -3.0, 1.0), abs=1e-10)

    def test_D_is_the_gates(self, rng):
        # (det L)**2 bit for bit, not AB - (AB - D), which loses ~eps a^4:
        # on tmsv(300) that difference read 0.99999714.
        states = [from_standard_form(tmsv(a)) for a in (10.0, 100.0, 300.0, 1000.0)]
        for cm in states:
            assert abs(local_invariants(cm).D - 1) < 1e-9
        states += [random_physical_cm(rng, conjugate=True) for _ in range(100)]
        for cm in states:
            assert local_invariants(cm).D == gip_closed_form(cm).invariants.D

    def test_D_off_the_positive_definite_set(self):
        # No Cholesky factor, so no D: the same error as symplectic_eigenvalues.
        for sigma in (np.diag([1.0, 2.0, -1.0, -3.0]), -np.eye(4)):
            with pytest.raises(InvalidStateError, match="sigma is not positive definite"):
                local_invariants(sigma)


class TestInvariantKernel:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log10_corr=st.floats(-6.0, 0.0),
        kick=st.booleans(),
        transpose=st.booleans(),
    )
    def test_matches_determinant_reference(self, seed, log10_corr, kick, transpose):
        rng = np.random.default_rng(seed)
        sf = random_state(rng)
        corr = 10.0**log10_corr
        cm = from_standard_form(StandardForm(sf.a, sf.b, corr * sf.c, corr * sf.d))
        if kick:
            cm = apply_local_symplectic(
                cm, random_local_symplectic(rng), random_local_symplectic(rng)
            )
        if transpose:
            sigma, nu_min = partial_transpose_B(cm).sigma, pt_min_symplectic_eigenvalue(cm)
        else:
            sigma, nu_min = cm.sigma, symplectic_eigenvalues(cm)[0]
        ref = block_determinants_det(sigma)
        size = np.abs(sigma).max() ** 2
        for got, want, degree in zip(astuple(local_invariants(sigma)), ref, (1, 1, 1, 2)):
            assert got == pytest.approx(want, abs=1e-12 * size**degree)
        assert nu_min == pytest.approx(symplectic_spectrum_from_eigs(sigma)[0], abs=1e-9)

    def test_nu_tilde_is_the_partial_transpose_nu_minus(self, rng):
        """The one factor's nu~ is nu- of the partial transpose's own factor, bit for bit:
        random states to a_max = b_max = 20, every other one locally conjugated, and pure ones."""
        cms = [random_physical_cm(rng, 20.0, 20.0, conjugate=k % 2 == 1) for k in range(3000)]
        cms += [from_standard_form(sf) for sf in (tmsv(2.0), tmsv(300.0), lower_branch2_state(0.3))]
        for cm in cms:
            nu_tilde = symplectic._nu_pair(_entries(cm.sigma))[2]
            want = symplectic._nu_pair(_entries(partial_transpose_B(cm).sigma))[0]
            assert nu_tilde.hex() == want.hex(), cm

    #: _nu_pair's (nu-, nu+, nu~, det L) as hex on general sigma: six random states, each
    #: locally conjugated; tmsv(300) locally squeezed and rotated; diag(1, 1, 1, 0), whose
    #: last pivot is 0; and diag(-1, -1, 1, 1), which is not > 0.
    GENERAL_NU = [
        ("0x1.220289d8caa33p+1", "0x1.1157453e3bc80p+2", "0x1.8311781aedb9bp+0", "0x1.35a7924e3842ep+3"),
        ("0x1.ebc8a05acf045p+0", "0x1.2f66f32bdcdf3p+1", "0x1.dff6a3c4ccb12p+0", "0x1.236c1d6f89357p+2"),
        ("0x1.6b5c87a539e56p+0", "0x1.a813db04d22cdp+0", "0x1.cff07098f4558p-1", "0x1.2cf6b7b35c7a9p+1"),
        ("0x1.fd6d208a8925cp+0", "0x1.7e641f1787268p+1", "0x1.fd575d0cef0cfp+0", "0x1.7c7809873bb9ep+2"),
        ("0x1.8df20655fcc09p+0", "0x1.4142a0dda47a1p+2", "0x1.cf9dddeb03a44p+0", "0x1.f3640c6741aaap+2"),
        ("0x1.383e927c373cep+1", "0x1.b293398a82e84p+1", "0x1.379c24f73793cp+1", "0x1.0906d339c97e5p+3"),
        ("0x1.ffffffffef74ap-1", "0x1.000000001d3a0p+0", "0x1.b4e86ad815ff0p-10", "0x1.0000000014f45p+0"),
        ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
        None,
    ]

    def test_general_sigma_pinned(self):
        """_nu_pair bit for bit on sigma off the standard form, zero pivots and sigma not > 0."""
        rng = np.random.default_rng(7)
        cms = [random_physical_cm(rng, conjugate=True) for _ in range(6)]
        cms.append(apply_local_symplectic(from_standard_form(tmsv(300.0)), squeeze(3.0) @ rotation(0.4),
                                          rotation(-1.1) @ squeeze(0.5)))
        cms += [CovarianceMatrix(np.diag(diagonal)) for diagonal in ([1.0, 1.0, 1.0, 0.0], [-1.0, -1.0, 1.0, 1.0])]
        got = []
        for cm in cms:
            nu = symplectic._nu_pair(_entries(cm.sigma))
            got.append(None if nu is None else tuple(x.hex() for x in nu))
        assert got == self.GENERAL_NU

    def test_stacked_gate_is_the_scalar_gate(self, rng):
        """_standard_nu on a stack of standard forms, with math.hypot per element, gives each
        state's _nu_pair (nu-, nu~), bit for bit."""
        forms = [random_state(rng, 20.0, 20.0) for _ in range(200)]
        forms += [tmsv(2.0), tmsv(300.0), lower_branch2_state(0.3), StandardForm(3.0, 2.0, 0.0, 0.0)]
        stack = (np.array([getattr(sf, name) for sf in forms]) for name in "abcd")
        stacked = symplectic._standard_nu(*stack, np.sqrt, symplectic._hypot_each)
        for i, sf in enumerate(forms):
            nu = symplectic._nu_pair(symplectic._standard_entries(sf.a, sf.b, sf.c, sf.d))
            assert [float(field[i]).hex() for field in stacked] == [nu[0].hex(), nu[2].hex()], i


class TestStandardFormReduction:
    def test_fixed_point(self):
        sf = to_standard_form(from_standard_form(S231))
        assert (sf.a, sf.b, sf.c, sf.d) == pytest.approx((2, 3, 1, -1), abs=1e-10)

    def test_recovers_after_local_rotations(self):
        # c = |d| here, a double root of x^2 - (c^2 + d^2) x + C^2; the
        # reduction reads c and d off singular values instead of its roots.
        cm = apply_local_symplectic(from_standard_form(S231), rotation(0.3), rotation(-0.7))
        sf = to_standard_form(cm)
        assert (sf.a, sf.b, sf.c, sf.d) == pytest.approx((2, 3, 1, -1), abs=1e-12)
        inv = np.array(astuple(local_invariants(from_standard_form(sf))))
        assert np.allclose(inv, (4, 9, -1, 25), atol=1e-9 * 25)

    def test_product_state(self):
        sf = to_standard_form(np.diag([2.0, 2.0, 5.0, 5.0]))
        assert (sf.a, sf.b) == pytest.approx((2, 5), abs=1e-12)
        assert sf.c == pytest.approx(0.0, abs=1e-6)
        assert sf.d == 0.0

    def test_round_trip_preserves_invariants(self, rng):
        for _ in range(200):
            cm = random_physical_cm(rng, conjugate=True)
            sf = to_standard_form(cm)
            assert sf.c >= abs(sf.d) >= 0
            inv0 = np.array(astuple(local_invariants(cm)))
            inv1 = np.array(astuple(local_invariants(from_standard_form(sf))))
            assert np.allclose(inv0, inv1, atol=1e-9 * max(1, np.abs(inv0).max()))

    def test_large_pure_states_round_trip(self, rng):
        pure = [tmsv(a) for a in np.geomspace(1.001, 1e4, 60)]
        pure += [lower_branch2_state(nu) for nu in np.linspace(0.01, 0.99, 60)]
        for sf in pure:
            cm = from_standard_form(sf)
            kicked = apply_local_symplectic(cm, random_local_symplectic(rng),
                                            random_local_symplectic(rng))
            for state in (cm, kicked):
                back = to_standard_form(state)
                assert (back.a, back.b, back.c, back.d) == pytest.approx(
                    (sf.a, sf.b, sf.c, sf.d), rel=1e-12), sf

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            to_standard_form(np.diag([0.5, 0.5, 1.0, 1.0]))

    @pytest.mark.parametrize("block, det", [
        ([[385502830.9378021, -251750850.72400752], [-251750850.72400752, 164404735.2028062]], "0.0"),
        ([[365674750.8172904, 259621049.9251213], [259621049.9251213, 184325249.18270966]], "-8.0"),
    ])
    def test_cancelled_block_determinant_raises(self, block, det):
        """A rotated squeezed vacuum on mode A (squeeze factor ~5.5e8) that the gate admits, whose
        mode-A block determinant rounds to 0 or below: every reader of the standard frame raises
        NumericalError, not ZeroDivisionError or a math domain error."""
        sigma = np.eye(4)
        sigma[:2, :2] = block
        assert log_negativity(sigma) == 0.0  # the gate passes
        for call in (to_standard_form, gip_closed_form, cross_validate, worst_case_qfi):
            with pytest.raises(NumericalError, match=f"^mode block determinant {re.escape(det)} is not > 0$"):
                call(sigma)


class TestGateRecords:
    """Only the callers that report an ip result build an IpResult, once per state."""

    S_A, S_B = np.array([[2.0, 0.5], [0.0, 0.5]]), np.array([[1.0, 0.0], [0.7, 1.0]])
    #: to_standard_form's (a, b, c, d), qfi(cm, 1.3, 0.4) and worst_case_qfi's (value, zeta, theta)
    #: of each state of the test, as they were when each call built a record of the state.
    PINNED = {
        S231: ["0x1.ffffffffffffep+0", "0x1.8000000000001p+1", "0x1.0000000000000p+0",
               "-0x1.ffffffffffffdp-1", "0x1.1a704b70b91c0p+5", "0x1.5555555555552p-2",
               "0x1.085c8be3faed1p+1", "0x1.8234d7f6ecb9cp+0"],
        StandardForm(3.0, 2.0, 2.0, -1.5): [
            "0x1.7ffffffffffffp+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1",
            "-0x1.7fffffffffffep+0", "0x1.a7b85efec0e1fp+5", "0x1.d10c439c4b678p+0",
            "0x1.ed7482012b03dp+0", "0x1.830a64559ac86p+0"],
        tmsv(2.0): ["0x1.ffffffffffffep+0", "0x1.0000000000000p+1", "0x1.bb67ae8584cabp+0",
                    "-0x1.bb67ae8584ca9p+0", "0x1.3a9a82dd144bcp+6", "0x1.7fffffffffffdp+1",
                    "0x1.085c8be3faecfp+1", "0x1.8234d7f6ecb9dp+0"],
    }

    def test_checks_alone_build_no_record(self, monkeypatch, tmp_path, capsys):
        """to_standard_form, qfi and worst_case_qfi check physicality and build no IpResult, with
        the values they had when each built a record; gip_closed_form, gip_from_standard_form and
        each ip report (from flags and from --input) build one, log_negativity and fidelity none."""
        built = [0]

        class CountedResult(power.IpResult):
            def __init__(self, *fields):
                built[0] += 1
                super().__init__(*fields)

        monkeypatch.setattr(power, "IpResult", CountedResult)
        for sf, want in self.PINNED.items():
            cm = apply_local_symplectic(from_standard_form(sf), self.S_A @ rotation(0.3), self.S_B)
            got = to_standard_form(cm)
            result = worst_case_qfi(cm)
            values = [got.a, got.b, got.c, got.d, qfi(cm, 1.3, 0.4), result.value, result.zeta_opt,
                      result.theta_opt]
            assert [value.hex() for value in values] == want, sf
            assert built == [0]
            gip_closed_form(cm)
            assert built == [1]
            gip_from_standard_form(sf)
            assert built == [2]
            value = log_negativity(cm)
            fidelity(cm, cm)
            assert built == [2]
            path = tmp_path / "state.json"
            path.write_text(json.dumps(cm.to_dict()))
            flags = [f"--{name}={getattr(sf, name)!r}" for name in "abcd"]
            for count, argv in enumerate((["ip", *flags], ["ip", "--input", str(path)]), start=3):
                assert main(argv) == 0
                assert built == [count], argv
            capsys.readouterr()
            assert value.hex() == _log_negativity(_physical_nu(_entries(cm.sigma))[2]).hex(), sf
            built[0] = 0
        with pytest.raises(InvalidStateError, match="state is unphysical"):
            to_standard_form(np.diag([0.5, 0.5, 1.0, 1.0]))


class TestGateFloor:
    """The gate refuses a nu_minus only where it lies below 1 - GATE_TOL and below the rounding
    floor 1 - 2 eps min(s00 s11, s22 s33) (_physical_nu)."""

    @staticmethod
    def exactly_pure_forms():
        """200 pure forms, physical as given: a log-uniform in 10^[3, 7.5], c stepped down from
        sqrt((a - 1)(a + 1)) until a^2 - c^2 >= 1 holds in Fractions; then tmsv at 71 a in
        10^[4, 7.5].  The gate refused 21 and 8 of them with GATE_TOL alone."""
        forms = []
        for a in (10 ** np.random.default_rng(15).uniform(3, 7.5, 200)).tolist():
            c = math.sqrt((a - 1) * (a + 1))
            while Fraction(c) ** 2 > Fraction(a) ** 2 - 1:
                c = math.nextafter(c, 0.0)
            forms.append(StandardForm(a, a, c, -c))
        return forms + [tmsv(a) for a in np.logspace(4, 7.5, 71).tolist()]

    def test_exactly_pure_forms_pass(self):
        for sf in self.exactly_pure_forms():
            assert standard_nu_mp(sf.a, sf.b, sf.c, sf.d)[0] >= 1, sf
            gip_from_standard_form(sf)
            log_negativity(from_standard_form(sf))

    @pytest.mark.parametrize("diagonal", [(1e10, 1e-11, 1, 1), (1e200, 1e-201, 1, 1), (1e10, 1e10, 1, 1e-10)])
    def test_resolvably_unphysical_states_are_refused(self, diagonal):
        """nu_minus is 0.316, 0.316 and 1e-5: a floor from max|sigma_ij|^2 admitted the first two
        (the second then overflowed), and one from the larger mode's product the third."""
        with pytest.raises(InvalidStateError, match="state is unphysical: nu_minus"):
            gip_closed_form(np.diag(diagonal))


class TestFromStandardForm:
    def test_vacuum(self):
        assert np.array_equal(from_standard_form(StandardForm(1, 1, 0, 0)).sigma, np.eye(4))

    def test_tmsv_placement(self):
        c = math.sqrt(3)
        sigma = from_standard_form(StandardForm(2, 2, c, -c)).sigma
        expected = np.array([[2, 0, c, 0], [0, 2, 0, -c], [c, 0, 2, 0], [0, -c, 0, 2]])
        assert np.allclose(sigma, expected, atol=0)

    def test_tuple_input(self):
        assert np.array_equal(from_standard_form((2.0, 3.0, 1.0, -1.0)).sigma,
                              from_standard_form(S231).sigma)
        with pytest.raises(InvalidStateError, match=r"requires a, b >= 1, got \(0.5, 1.0\)"):
            from_standard_form((0.5, 1.0, 0.0, 0.0))

    def test_round_trip_identity(self):
        for sf in (StandardForm(1, 1, 0, 0), S231, tmsv(1.7), StandardForm(2.5, 1.5, 0.8, 0.3)):
            back = to_standard_form(from_standard_form(sf))
            assert (back.a, back.b, back.c, back.d) == pytest.approx(
                (sf.a, sf.b, sf.c, sf.d), abs=1e-9
            )


class TestPartialTranspose:
    def test_identity(self):
        assert np.array_equal(partial_transpose_B(np.eye(4)).sigma, np.eye(4))

    def test_flips_d(self):
        pt = partial_transpose_B(from_standard_form(S231))
        sf = to_standard_form(pt)
        assert (sf.a, sf.b, sf.c, sf.d) == pytest.approx((2, 3, 1, 1), abs=1e-10)

    def test_involution(self, rng):
        cm = random_physical_cm(rng, conjugate=True)
        assert np.allclose(partial_transpose_B(partial_transpose_B(cm)).sigma, cm.sigma, atol=0)


class TestEntanglement:
    def test_product_state_not_entangled(self):
        assert log_negativity(np.diag([2.0, 2.0, 5.0, 5.0])) == 0.0
        assert is_separable(np.diag([2.0, 2.0, 5.0, 5.0]))

    def test_tmsv_example(self):
        # oracle: H = 14, D = 1, radical gives nu_tilde = 2 - sqrt(3)
        cm = from_standard_form(tmsv(2.0))
        assert pt_min_symplectic_eigenvalue(cm) == pytest.approx(2 - math.sqrt(3), abs=1e-12)
        assert log_negativity(cm) == pytest.approx(-math.log(2 - math.sqrt(3)), abs=1e-12)
        assert not is_separable(cm)

    def test_separable_example(self):
        # oracle: H = 15, D = 25, radical gives nu_tilde ~ 1.3820 -> E_N = 0
        cm = from_standard_form(S231)
        nu = pt_min_symplectic_eigenvalue(cm)
        assert nu == pytest.approx(math.sqrt((15 - math.sqrt(125)) / 2), abs=1e-12)
        assert log_negativity(cm) == 0.0
        assert is_separable(cm)

    def test_zero_log_negativity_iff_separable(self, rng):
        for _ in range(300):
            cm = random_physical_cm(rng)
            assert (log_negativity(cm) == 0.0) == is_separable(cm)


    def test_report_flags_separable_states(self, rng):
        for _ in range(200):
            cm = random_physical_cm(rng, conjugate=True)
            assert validate_bona_fide(cm).separable == is_separable(cm)
        assert not validate_bona_fide(-np.eye(4)).separable

    def test_log_negativity_factors_sigma_once(self, factor_calls):
        log_negativity(from_standard_form(S231))
        assert factor_calls[0] == 1


class TestPhotonNumber:
    def test_examples(self):
        assert mean_photon_A(np.eye(4)) == 0.0
        assert mean_photon_A(from_standard_form(StandardForm(2, 1, 0, 0))) == pytest.approx(0.5)
        assert mean_photon_A(from_standard_form(StandardForm(3, 1, 0, 0))) == pytest.approx(1.0)


class TestLocalSymplectic:
    def test_identity_transforms(self, rng):
        cm = random_physical_cm(rng)
        out = apply_local_symplectic(cm, np.eye(2), np.eye(2))
        assert np.allclose(out.sigma, cm.sigma, atol=0)

    def test_preserves_invariants(self, rng):
        for _ in range(1000):
            cm = random_physical_cm(rng)
            out = apply_local_symplectic(
                cm, random_local_symplectic(rng), random_local_symplectic(rng)
            )
            inv0 = np.array(astuple(local_invariants(cm)))
            inv1 = np.array(astuple(local_invariants(out)))
            assert np.allclose(inv0, inv1, atol=1e-9 * max(1.0, np.abs(inv0).max()))

    def test_squeeze_preserves_block_determinant(self):
        cm = from_standard_form(S231)
        out = apply_local_symplectic(cm, np.diag([1.7, 1 / 1.7]), np.eye(2))
        assert not np.allclose(out.alpha, cm.alpha)
        assert np.linalg.det(out.alpha) == pytest.approx(np.linalg.det(cm.alpha), rel=1e-12)

    def test_rejects_non_symplectic(self):
        with pytest.raises(InvalidTransformError):
            apply_local_symplectic(np.eye(4), 2 * np.eye(2), np.eye(2))

    def test_rejects_non_finite(self):
        for s_a, s_b, name in ((np.diag([np.nan, 1.0]), np.eye(2), "S_A"),
                               (np.eye(2), [[1.0, np.inf], [0.0, 1.0]], "S_B")):
            with pytest.raises(InvalidTransformError, match=f"^{name} must be a finite 2x2 matrix$"):
                apply_local_symplectic(np.eye(4), s_a, s_b)

    def test_pure_iff_unit_determinant(self, rng):
        for a in (1.0, 1.5, 2.0, 4.0):
            cm = from_standard_form(tmsv(a))
            assert abs(local_invariants(cm).D - 1) < 1e-9
            assert symplectic_eigenvalues(cm) == pytest.approx((1.0, 1.0), abs=1e-9)
            kicked = apply_local_symplectic(
                cm, random_local_symplectic(rng), random_local_symplectic(rng)
            )
            assert abs(local_invariants(kicked).D - 1) < 1e-9
            assert symplectic_eigenvalues(kicked) == pytest.approx((1.0, 1.0), abs=1e-9)


class TestLossChannel:
    def test_unit_transmissivity_is_identity(self, rng):
        cm = random_physical_cm(rng)
        assert np.allclose(apply_loss_B(cm, 1.0).sigma, cm.sigma, atol=1e-15)

    def test_full_loss_gives_thermal_times_vacuum(self):
        cm = from_standard_form(tmsv(2.0))
        out = apply_loss_B(cm, 1e-12)
        assert np.allclose(out.sigma, np.diag([2.0, 2.0, 1.0, 1.0]), atol=2e-6)
        assert log_negativity(out) == pytest.approx(0.0, abs=1e-9)
        assert is_separable(out)

    def test_preserves_physicality(self, rng):
        for _ in range(100):
            cm = random_physical_cm(rng)
            for eta in np.linspace(0.05, 1.0, 8):
                assert validate_bona_fide(apply_loss_B(cm, eta)).physical


def test_random_local_symplectic_determinant(rng):
    for _ in range(500):
        s = random_local_symplectic(rng)
        assert abs(np.linalg.det(s) - 1) < 1e-12


def test_swap_modes(rng):
    sf = to_standard_form(swap_modes(from_standard_form(S231)))
    assert (sf.a, sf.b) == pytest.approx((3, 2), abs=1e-12)
    cm = random_physical_cm(rng, conjugate=True)
    assert np.allclose(swap_modes(swap_modes(cm)).sigma, cm.sigma, atol=0)


def test_tolerances_live_in_one_table():
    """No float literal in scientific notation in src/gipower outside symplectic.py's table,
    and every name the table defines is read somewhere in src/gipower outside an import."""
    src = Path(symplectic.__file__).parent
    lines = (src / "symplectic.py").read_text().splitlines()
    first = lines.index("# Tolerances and budgets, in one table; the other modules import them.") + 1
    last = next(i for i in range(first, len(lines)) if lines[i].startswith(("class ", "def ")))
    table = {m[1] for m in (re.match(r"([A-Z_]+) = ", line) for line in lines[first:last]) if m}
    assert {"CHECK_TOL", "GATE_TOL", "TIE_REL"} <= table
    found, read = [], set()
    for path in sorted(src.glob("*.py")):
        with path.open() as handle:
            in_import = False
            for tok in tokenize.generate_tokens(handle.readline):
                in_table = path.name == "symplectic.py" and first < tok.start[0] <= last
                if (tok.type == tokenize.NUMBER and not in_table
                        and re.fullmatch(r"[\d_.]*[eE][+-]?[\d_]+j?", tok.string)):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
                in_import = (in_import or tok.string in ("import", "from")) and tok.type != tokenize.NEWLINE
                if tok.type == tokenize.NAME and not in_table and not in_import:
                    read.add(tok.string)
    assert found == []
    assert sorted(table - read) == []
