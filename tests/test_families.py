import json
import math
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import gipower.families as families
import gipower.power as power
from gipower import (
    CovarianceMatrix,
    InvalidStateError,
    NumericalError,
    build_family,
    en_threshold,
    entangled_st_nu,
    from_standard_form,
    gip_closed_form,
    is_separable,
    log_negativity,
    lower_bound,
    lower_bound_branch1,
    lower_bound_branch2,
    lower_branch1_state,
    lower_branch2_state,
    mean_photon_A,
    mixed_thermal,
    nu_zero,
    pt_min_symplectic_eigenvalue,
    random_state,
    sample_figure2,
    sample_figure3,
    separable_extremal,
    squeezed_thermal,
    StandardForm,
    tmsv,
    upper_bound,
    upper_boundary_state,
    validate_bona_fide,
)
from gipower._streams import _child_streams, _fill, _pool, _Uniforms
from gipower.power import _closed_form
from gipower.symplectic import (
    GUARD_BAND,
    _entries,
    _hypot_each,
    _invariants,
    _log_negativity,
    _nu_pair,
    _physical_nu,
    _separable,
    _standard_entries,
    _standard_nu,
)
from oracles import random_state_scalar, sample_records_scalar, standard_nu_50, standard_nu_mp


def ratio_of(sf) -> float:
    cm = from_standard_form(sf)
    return gip_closed_form(cm).value / mean_photon_A(cm)


def bits(items):
    """Exact contents of StandardForms or SampleRecords: floats as hex, so -0.0 != 0.0."""
    def fields(x):
        if isinstance(x, StandardForm):
            return (x.a, x.b, x.c, x.d)
        return (*fields(x.sf), x.n_bar_A, x.e_n, x.p_g, x.nu_tilde, x.separable)
    return [bits_of(fields(x)) for x in items]


def bits_of(values):
    """A tuple of floats and bools, floats as hex."""
    return tuple(v if isinstance(v, bool) else float(v).hex() for v in values)


def sampled_draws(bound, seed=1, n=200):
    """(a, b, c, d) arrays of random_state's draw at a_max = b_max = bound from each of the n
    child streams of default_rng(seed), in stream order: the scalar sampler's draws."""
    forms = [random_state(stream, bound, bound) for stream in np.random.default_rng(seed).spawn(n)]
    return tuple(np.array([(sf.a, sf.b, sf.c, sf.d) for sf in forms]).T)


def outcome(sample, *args):
    """bits of the records sample(*args) returns, or the message of the InvalidStateError it raises."""
    try:
        return bits(sample(*args))
    except InvalidStateError as exc:
        return str(exc)


SAMPLERS = [(sample_figure2, False), (sample_figure3, True)]


class TestTmsv:
    def test_vacuum(self):
        sf = tmsv(1.0)
        assert (sf.a, sf.b, sf.c, sf.d) == (1.0, 1.0, 0.0, 0.0)

    def test_parametrization(self):
        sf = tmsv(2.0)
        assert (sf.a, sf.b) == (2.0, 2.0)
        assert sf.c == pytest.approx(math.sqrt(3), rel=1e-15)
        assert sf.d == -sf.c

    def test_pt_eigenvalue(self):
        # oracle: nu_tilde = a - sqrt(a^2 - 1) for a two-mode squeezed state
        for a in (1.2, 2.0, 3.5):
            nu = pt_min_symplectic_eigenvalue(from_standard_form(tmsv(a)))
            assert nu == pytest.approx(a - math.sqrt(a * a - 1), abs=1e-12)

    def test_exactly_physical(self):
        # a^2 - c^2 >= 1 in exact arithmetic on 200 log-spaced a in [1, 10^7.5],
        # where sqrt(a*a - 1) rounded gives 110 unphysical c; stepping down from
        # the rounded sqrt((a - 1)(a + 1)) costs at most one ulp of c there.
        for a in np.logspace(0, 7.5, 200).tolist():
            c = tmsv(a).c
            assert Fraction(a) ** 2 - Fraction(c) ** 2 >= 1, a
            assert math.sqrt((a - 1) * (a + 1)) - c <= math.ulp(c), a

    def test_rejects_a_below_one(self):
        with pytest.raises(InvalidStateError):
            tmsv(0.9)


class TestThermalFamilies:
    def test_squeezed_thermal_layout(self):
        sf = squeezed_thermal(2.0, 3.0, 1.0)
        assert (sf.c, sf.d) == (1.0, -1.0)

    def test_mixed_thermal_layout(self):
        sf = mixed_thermal(2.0, 3.0, 1.0)
        assert (sf.c, sf.d) == (1.0, 1.0)

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidStateError):
            squeezed_thermal(2.0, 3.0, 2.4)
        with pytest.raises(InvalidStateError):
            mixed_thermal(1.5, 1.5, 1.4)


class TestSeparableExtremal:
    def test_example_ratio(self):
        # oracle: minus-sign branch value 200/(2(303 - 200 - 1)) per photon 1
        sf = separable_extremal(3.0, 101.0)
        assert sf.c == pytest.approx(math.sqrt(200), rel=1e-15)
        assert ratio_of(sf) == pytest.approx(200 / 204, abs=1e-9)

    def test_large_b_approaches_shot_noise(self):
        assert ratio_of(separable_extremal(3.0, 1e4)) == pytest.approx(1.0, abs=1e-3)

    def test_vacuum_mode_A_gives_product(self):
        sf = separable_extremal(1.0, 7.0)
        assert gip_closed_form(from_standard_form(sf)).value == pytest.approx(0.0, abs=1e-13)

    def test_rejects_a_or_b_below_one(self):
        with pytest.raises(InvalidStateError, match=r"^separable_extremal requires a, b >= 1, got \(2.0, 0.5\)$"):
            separable_extremal(2.0, 0.5)

    def test_always_separable(self):
        for a, b in ((1.5, 1.5), (2.0, 9.0), (4.0, 2.0)):
            cm = from_standard_form(separable_extremal(a, b))
            assert is_separable(cm)
            assert log_negativity(cm) == 0.0


class TestEntangledStNu:
    def test_pt_eigenvalue_matches_target(self):
        for a, b, nu in ((1.5, 2.5, 0.7), (2.0, 2.8, 0.5), (1.2, 1.3, 0.9)):
            cm = from_standard_form(entangled_st_nu(a, b, nu))
            assert pt_min_symplectic_eigenvalue(cm) == pytest.approx(nu, abs=1e-9)

    def test_rejects_unphysical_combination(self):
        # strong correlations at small nu violate the uncertainty relation
        with pytest.raises(InvalidStateError):
            entangled_st_nu(2.0, 3.0, 0.1)

    def test_rejects_bad_nu(self):
        with pytest.raises(InvalidStateError):
            entangled_st_nu(2.0, 3.0, 0.0)
        with pytest.raises(InvalidStateError):
            entangled_st_nu(2.0, 3.0, 1.0)

    def test_rejects_a_or_b_below_one(self):
        with pytest.raises(InvalidStateError, match=r"^entangled_st_nu requires a, b >= 1, got \(0.5, 3.0\)$"):
            entangled_st_nu(0.5, 3.0, 0.5)


class TestUpperBoundary:
    def test_sits_on_physicality_boundary(self):
        for nu, b in ((0.3, 10.0), (0.5, 100.0), (0.8, 7.0)):
            report = validate_bona_fide(from_standard_form(upper_boundary_state(nu, b)))
            assert report.physical
            assert report.nu_min == pytest.approx(1.0, abs=1e-9)

    def test_large_b_ratio(self):
        # limit value (1 + nu)/(2 nu) = 1.5 at nu = 0.5
        assert ratio_of(upper_boundary_state(0.5, 1e3)) == pytest.approx(1.5, abs=2e-2)

    def test_ratio_below_limit(self):
        for b in (10.0, 100.0, 1000.0):
            assert ratio_of(upper_boundary_state(0.5, b)) < 1.5

    def test_target_nu(self):
        cm = from_standard_form(upper_boundary_state(0.5, 1e3))
        assert pt_min_symplectic_eigenvalue(cm) == pytest.approx(0.5, abs=1e-9)

    def test_limit_at_weak_entanglement(self):
        assert upper_bound(1 - 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_nu(self):
        for nu in (0.0, 1.0):
            with pytest.raises(InvalidStateError, match=rf"^upper_boundary_state requires 0 < nu < 1, got {nu}$"):
                upper_boundary_state(nu, 50.0)


class TestLowerBranch1:
    def test_frozen_point(self):
        # oracle: direct substitution of the printed parametrization
        nu = 0.14
        a = (math.sqrt(2 * (nu + 1) ** 3) + 3 * nu + 1) / (1 - nu)
        b = math.sqrt(2 * (nu + 1)) + nu + 2
        sf = lower_branch1_state(nu)
        assert (sf.a, sf.b) == pytest.approx((a, b), rel=1e-12)
        assert (sf.a, sf.b) == pytest.approx((3.653, 3.650), abs=2e-3)
        assert ratio_of(sf) == pytest.approx(2.320, abs=2e-3)

    def test_state_ratio_matches_bound_formula(self):
        for nu in (0.2, 0.5, 0.9):
            assert ratio_of(lower_branch1_state(nu)) == pytest.approx(
                float(lower_bound_branch1(nu)), abs=1e-6
            )

    def test_threshold_point_ratio_one(self):
        assert ratio_of(lower_branch1_state(math.exp(-1.135))) == pytest.approx(1.0, abs=1e-3)

    def test_vanishes_toward_separability(self):
        assert float(lower_bound_branch1(1 - 1e-6)) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(InvalidStateError):
            lower_branch1_state(0.13)  # below the branch point: unphysical

    def test_target_nu(self):
        cm = from_standard_form(lower_branch1_state(0.4))
        assert pt_min_symplectic_eigenvalue(cm) == pytest.approx(0.4, abs=1e-9)


class TestLowerBranch2:
    def test_frozen_point(self):
        nu = 2 - math.sqrt(3)
        sf = lower_branch2_state(nu)
        assert sf.a == pytest.approx(2.0, abs=1e-12)
        assert ratio_of(sf) == pytest.approx(1.5, abs=1e-9)

    def test_ratio_exact_formula(self):
        for nu in (0.05, 0.3, 0.7):
            sf = lower_branch2_state(nu)
            assert ratio_of(sf) == pytest.approx((1 + nu) ** 2 / (4 * nu), rel=1e-9)
            assert pt_min_symplectic_eigenvalue(from_standard_form(sf)) == pytest.approx(
                nu, abs=1e-9
            )

    def test_limit_at_weak_entanglement(self):
        assert float(lower_bound_branch2(1 - 1e-9)) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_nu(self):
        for nu in (0.0, 1.0):
            with pytest.raises(InvalidStateError, match=rf"^lower_branch2_state requires 0 < nu < 1, got {nu}$"):
                lower_branch2_state(nu)


class TestBranchPoint:
    def test_cubic_root(self):
        x = nu_zero()
        assert abs(x**3 + x**2 + 7 * x - 1) < 1e-12
        assert x == pytest.approx(0.1397, abs=1e-3)
        # sign change brackets the root
        assert (0.139**3 + 0.139**2 + 7 * 0.139 - 1) < 0
        assert (0.140**3 + 0.140**2 + 7 * 0.140 - 1) > 0

    def test_correctly_rounded(self):
        with mpmath.workdps(50):
            assert nu_zero() == float(mpmath.findroot(lambda x: x**3 + x**2 + 7 * x - 1, 0.14))

    def test_branches_agree_at_branch_point(self):
        x = nu_zero()
        assert float(lower_bound_branch1(x)) == pytest.approx(
            float(lower_bound_branch2(x)), abs=1e-6
        )
        assert float(lower_bound_branch1(x)) == pytest.approx(2.32, abs=5e-3)

    def test_branch1_state_degenerates_to_pure(self):
        # at the branch point the thermal extremal state is the pure one
        sf1 = lower_branch1_state(nu_zero() + 1e-9)
        sf2 = lower_branch2_state(nu_zero() + 1e-9)
        assert (sf1.a, sf1.b) == pytest.approx((sf2.a, sf2.b), abs=1e-6)


class TestEnThreshold:
    def test_quoted_value(self):
        assert en_threshold() == pytest.approx(1.135, abs=0.002)

    def test_correctly_rounded(self):
        with mpmath.workdps(50):
            def g(nu):
                return 2 / (nu + 1) - 2 / (nu - 1) - 2 * mpmath.sqrt(2) / mpmath.sqrt(nu + 1) - 1

            assert en_threshold() == float(-mpmath.log(mpmath.findroot(lambda nu: g(nu) - 1, 0.32)))

    def test_root_condition(self):
        assert float(lower_bound_branch1(math.exp(-en_threshold()))) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_bound_monotone_near_root(self):
        root = math.exp(-en_threshold())
        assert float(lower_bound_branch1(root - 1e-3)) > 1.0
        assert float(lower_bound_branch1(root + 1e-3)) < 1.0


class TestBoundCurves:
    def test_piecewise_continuity(self):
        x = nu_zero()
        assert float(lower_bound(x - 1e-12)) == pytest.approx(float(lower_bound(x + 1e-12)), abs=1e-6)

    def test_lower_below_upper(self):
        nus = np.linspace(0.01, 0.99, 200)
        assert np.all(lower_bound(nus) <= upper_bound(nus))

    def test_pure_states_above_lower_bound(self):
        for nu in np.linspace(nu_zero() + 1e-3, 0.99, 50):
            assert float(lower_bound_branch2(nu)) >= float(lower_bound(nu)) - 1e-12

    def test_domain_checks(self):
        with pytest.raises(InvalidStateError):
            lower_bound(0.0)
        with pytest.raises(InvalidStateError):
            upper_bound(1.0)

    @pytest.mark.parametrize("curve", [lower_bound, upper_bound])
    @pytest.mark.parametrize("nu", [math.nan, [0.5, math.nan]])
    def test_nan_refused(self, curve, nu):
        """NaN is outside (0, 1): a NaN scalar, or an array that holds one, is refused."""
        with pytest.raises(InvalidStateError, match="^boundary curves are defined for 0 < nu < 1$"):
            curve(nu)


#: Two parameter sets of each family kind, the second at or near a domain edge.
FAMILY_PARAMS = {
    "tmsv": [(2.5,), (1.0,)],
    "squeezed_thermal": [(2.0, 3.0, 1.0), (1.5, 1.5, 0.5)],
    "mixed_thermal": [(2.0, 3.0, 1.0), (3.0, 2.0, 0.5)],
    "separable_extremal": [(2.0, 3.0), (1.0, 7.0)],
    "entangled_st_nu": [(2.0, 3.0, 0.5), (4.0, 1.5, 0.9)],
    "upper_boundary": [(0.5, 3.0), (0.2, 10.0)],
    "lower_branch1": [(0.5,), (0.9,)],
    "lower_branch2": [(0.5,), (0.05,)],
}

#: Runs in a fresh interpreter, numpy blocked if argv[1] is "block": builds each
#: state of the JSON {kind: [params, ...]} argv[2] and prints its fields as hex.
FAMILY_RUN = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # import numpy now raises
from gipower import build_family
for kind, sets in json.loads(sys.argv[2]).items():
    for params in sets:
        sf = build_family(kind, tuple(params))
        print(kind, params, *(x.hex() for x in (sf.a, sf.b, sf.c, sf.d)))
"""


class TestBuildFamily:
    def test_every_kind_builds_without_numpy(self):
        """The constructors are plain math: with numpy blocked, every kind gives a plain run's fields."""
        assert set(FAMILY_PARAMS) == set(families.FAMILY_KINDS)
        blocked, plain = (subprocess.run([sys.executable, "-c", FAMILY_RUN, mode, json.dumps(FAMILY_PARAMS)],
                                         capture_output=True, text=True, timeout=60)
                          for mode in ("block", "plain"))
        assert blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout and blocked.stdout.count("\n") == 16

    def test_dispatch(self):
        sf = build_family("tmsv", (2.0,))
        assert sf == tmsv(2.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidStateError):
            build_family("bogus", ())

    def test_wrong_arity(self):
        with pytest.raises(InvalidStateError):
            build_family("tmsv", (2.0, 3.0))


def constructed_states() -> list:
    """One state of each family constructor, at generic and boundary parameters."""
    return (
        [tmsv(a) for a in (1.0, 1.7, 3.0)]
        + [
            squeezed_thermal(2.0, 3.0, 1.0),
            mixed_thermal(2.0, 3.0, 1.0),
            separable_extremal(2.5, 8.0),
            entangled_st_nu(1.5, 2.5, 0.7),
            upper_boundary_state(0.4, 50.0),
            lower_branch1_state(0.3),
            lower_branch1_state(0.8),
            lower_branch2_state(0.2),
            lower_branch2_state(0.9),
        ]
    )


def test_all_constructors_pass_validation():
    # nu_minus >= 1 - 1e-9 even for boundary families
    for sf in constructed_states():
        report = validate_bona_fide(from_standard_form(sf))
        assert report.physical, sf


def gate_bits(e):
    """(A, B, C, D, nu_minus, nu_plus, nu_tilde) of sigma's entries e as hex, from _physical_nu and
    _invariants, or the message of the InvalidStateError the physicality check raises."""
    try:
        nu_minus, nu_plus, nu_tilde, det_root = _physical_nu(e)
    except InvalidStateError as exc:
        return str(exc)
    inv = _invariants(e, det_root)
    return tuple(float(v).hex() for v in (inv.A, inv.B, inv.C, inv.D, nu_minus, nu_plus, nu_tilde))


class TestStandardFormGate:
    """The check and invariants of (a, b, c, d) against those of from_standard_form's matrix, bit for bit."""

    @staticmethod
    def assert_same_gate(a, b, c, d):
        got = gate_bits(_standard_entries(a, b, c, d))
        want = gate_bits(_entries(from_standard_form(StandardForm(a, b, c, d)).sigma))
        assert got == want, (a, b, c, d)

    def test_entries_are_the_matrix_entries(self):
        """Bit for bit through StandardForm, from floats, ints or numpy floats, up to the
        largest x whose x + x is finite; past it StandardForm and CovarianceMatrix refuse."""
        top = 2.0**1023  # the least x whose x + x overflows
        forms = [(2.0, 3.0, 1.0, -1.0), (2, 3, 1, -1), (np.float64(2.5), 1.0, 0.5, -0.0),
                 (math.nextafter(top, 0), 1.0, 0.0, 0.0), (1e307, 1e307, 1e307, -1e307)]
        for form in forms:
            sf = StandardForm(*form)
            want = _entries(from_standard_form(sf).sigma)
            got = _standard_entries(sf.a, sf.b, sf.c, sf.d)
            assert all(type(x) is float for x in got), form
            assert [x.hex() for x in got] == [x.hex() for x in want], form
        for form in [(top, 1.0, 0.0, 0.0), (1.5, 1e308, 0.0, 0.0), (1e308, 1e308, 1e308, -1e308),
                     (np.float64(1e308), 1.0, 0.0, 0.0)]:
            with pytest.raises(InvalidStateError, match="overflows the covariance matrix"):
                StandardForm(*form)
            a, b, c, d = form
            pattern = [[a, 0, c, 0], [0, a, 0, d], [c, 0, b, 0], [0, d, 0, b]]
            with pytest.raises(InvalidStateError, match="non-finite entries or overflows"):
                CovarianceMatrix(pattern)

    @pytest.mark.parametrize("bounds", [(5.0, 5.0), (1.05, 1.05), (100.0, 100.0)])
    def test_draws(self, bounds):
        for u in np.random.default_rng(8).random((10_000, 4)).tolist():
            self.assert_same_gate(*families._draw(u, *bounds))

    def test_family_constructors(self):
        for sf in constructed_states():
            self.assert_same_gate(sf.a, sf.b, sf.c, sf.d)


#: (a_max, b_max) of the _standard_nu checks, from near-product draws to a far from b.
NU_BOUNDS = [(1.05, 1.05), (5.0, 5.0), (100.0, 100.0), (1e4, 1e4), (1e6, 3.0)]
#: (a_max, b_max) of the sampler's decision sweep: the vacuum corner and a hair above it,
#: NU_BOUNDS, and bounds where GUARD_BAND * a * b is past 1, the last two at a*b ~ 1e150.
SWEEP = [(1.0, 1.0), (1.0, 1 + 1e-7), *NU_BOUNDS, (1e20, 1e20), (1e150, 1.0), (1e150, 2.0)]
#: The bound pair of SWEEP whose every draw lies in _accept's band: (1e150, 2), where the
#: band, ~1e137 (a + b)^2, holds every f.  No draw of the others is decided in it: those
#: with a_max or b_max at 1 are product states (a, b, 0, 0), whose f = (a^2 - tau)(b^2 - tau)
#: lies in the band where a or b is 1, but which _accept decides by c = 0.
IN_BAND = [(1e150, 2.0)]


def scalar_decisions(forms):
    """([physical], [physical and entangled]) of each (a, b, c, d) of forms, as random_state
    decides it and as is_separable would: _nu_minus_pt on floats."""
    threshold = 1 - families.CHECK_TOL
    nu = [families._nu_minus_pt(*form) for form in forms]
    return ([nu_minus >= threshold for nu_minus, _ in nu],
            [nu_minus >= threshold > nu_tilde for nu_minus, nu_tilde in nu])


class TestStandardNu:
    """_standard_nu against _nu_pair of _standard_entries, (nu-, nu~) bit for bit."""

    @staticmethod
    def forms(bounds):
        """3000 draws at bounds, tmsv states and one state of each family constructor."""
        u = np.random.default_rng(9).random((3000, 4)).tolist()
        states = constructed_states() + [tmsv(a) for a in (1.0 + 2**-40, 10.0, 300.0, 1e4)]
        return [families._draw(row, *bounds) for row in u] + [(sf.a, sf.b, sf.c, sf.d) for sf in states]

    @staticmethod
    def scalar(form):
        """_nu_pair's (nu-, nu~) of form, as hex; every form here is positive definite."""
        nu_minus, _, nu_tilde, _ = _nu_pair(_standard_entries(*form))
        return nu_minus.hex(), nu_tilde.hex()

    @pytest.mark.parametrize("bounds", NU_BOUNDS)
    def test_floats(self, bounds):
        for form in self.forms(bounds):
            got = _standard_nu(*form, math.sqrt, math.hypot)
            assert (got[0].hex(), got[1].hex()) == self.scalar(form), form

    @staticmethod
    def assert_within_guard_band(forms):
        """_nu_minus_pt's nu- and nu~ of each form within GUARD_BAND * a * b of standard_nu_mp's."""
        for form in forms:
            got, want = families._nu_minus_pt(*form), standard_nu_mp(*form)
            for x, y in zip(got, want):
                assert abs(x - y) <= GUARD_BAND * form[0] * form[1], (form, got, want)

    @pytest.mark.parametrize("bounds", SWEEP)
    def test_forward_error_within_guard_band(self, bounds):
        """GUARD_BAND's premise on 10^4 draws at each bound pair of the sweep."""
        u = np.random.default_rng(10).random((10_000, 4)).tolist()
        self.assert_within_guard_band({families._draw(row, *bounds) for row in u})

    def test_reference_is_mpmath(self):
        """standard_nu_mp's integer square roots give standard_nu_50's 50-digit floats: equal on
        300 draws at each bound pair of the sweep and on the boundary families, within one ulp on
        the pure states (a, a, c, -c).  Their nu~ = a - c is exact, often a tie between two
        floats, and two references ~1e-50 apart may round a tie apart."""
        u = np.random.default_rng(11).random((300, 4)).tolist()
        forms = [families._draw(row, *bounds) for bounds in SWEEP for row in u]
        nus = np.linspace(0.01, 0.99, 33).tolist()
        forms += [(sf.a, sf.b, sf.c, sf.d) for sf in [upper_boundary_state(nu, 1e3) for nu in nus]
                  + [lower_branch1_state(nu) for nu in nus if nu > nu_zero()]]
        for form in forms:
            assert standard_nu_mp(*form) == standard_nu_50(*form), form
        for sf in [tmsv(a) for a in np.geomspace(1.0, 1e7, 50).tolist()] + [lower_branch2_state(nu) for nu in nus]:
            for x, y in zip(standard_nu_mp(sf.a, sf.b, sf.c, sf.d), standard_nu_50(sf.a, sf.b, sf.c, sf.d)):
                assert abs(x - y) <= math.ulp(y), sf

    def test_forward_error_on_pure_and_boundary_states(self):
        """GUARD_BAND's premise on tmsv to a = 1e7 and the three boundary families."""
        nus = np.linspace(0.01, 0.99, 99).tolist()
        states = [tmsv(a) for a in np.geomspace(1.0, 1e7, 300).tolist()]
        states += [upper_boundary_state(nu, b) for nu in nus for b in (100.0, 1e3, 1e6)]
        states += [lower_branch1_state(nu) for nu in nus if nu > nu_zero()]
        states += [lower_branch2_state(nu) for nu in np.linspace(1e-4, 0.9999, 300).tolist()]
        self.assert_within_guard_band([(sf.a, sf.b, sf.c, sf.d) for sf in states])

    @pytest.mark.parametrize("bounds", NU_BOUNDS)
    def test_stacks(self, bounds):
        """On arrays, with math.hypot per element (_hypot_each), as _kept_columns reads it."""
        forms = self.forms(bounds)
        stacked = _standard_nu(*map(np.array, zip(*forms)), np.sqrt, _hypot_each)
        got = [(nu.hex(), nu_tilde.hex()) for nu, nu_tilde in zip(*(field.tolist() for field in stacked))]
        assert got == [self.scalar(form) for form in forms]


class TestRandomState:
    def test_physical_and_in_range(self, rng):
        for _ in range(200):
            sf = random_state(rng, a_max=4.0, b_max=3.0)
            assert 1.0 <= sf.a <= 4.0
            assert 1.0 <= sf.b <= 3.0
            assert sf.c >= abs(sf.d)
            assert validate_bona_fide(from_standard_form(sf)).physical

    def test_no_physical_state_raises(self):
        """A stream whose every draw is unphysical (a = b = 3, c and d near c_max) runs out of draws."""
        with pytest.raises(InvalidStateError, match=r"^no physical state in 10000 draws$"):
            families._random_state(lambda k: [0.5, 0.5, 0.999, 0.999], 5.0, 5.0)

    def test_deterministic_given_seed(self):
        draws1 = [random_state(np.random.default_rng(7)) for _ in range(1)]
        draws2 = [random_state(np.random.default_rng(7)) for _ in range(1)]
        assert draws1 == draws2

    @pytest.mark.parametrize("bounds", [(5.0, 5.0), (1.05, 1.05)])
    def test_keeps_its_stream(self, bounds):
        """Same states as the four-rng.uniform draw loop, and the stream left where it left it."""
        for seed in range(200):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            sf, want = random_state(rng, *bounds), random_state_scalar(ref, *bounds)
            assert bits([sf]) == bits([want]), seed
            assert rng.random() == ref.random(), seed


class TestSampling:
    def test_figure2_records(self):
        records = sample_figure2(11, 50)
        assert len(records) == 50
        for r in records:
            cm = from_standard_form(r.sf)
            assert r.n_bar_A == pytest.approx(mean_photon_A(cm), abs=1e-9)
            assert r.e_n == pytest.approx(log_negativity(cm), abs=1e-9)
            assert r.p_g == pytest.approx(gip_closed_form(cm).value, abs=1e-9)
            assert r.separable == is_separable(cm)
            assert r.nu_tilde == pt_min_symplectic_eigenvalue(cm)

    def test_one_factor_per_record(self, factor_calls, standard_nu_calls):
        """The kept rows of a chunk share one stacked _standard_nu; no row factors its state
        alone.  Draw decisions call it only on the draws in the band: never at the default
        bounds here, nor at the vacuum corner, whose product states are decided by c = 0,
        and once per round at (1e150, 2), where every draw is in it."""
        u = np.random.default_rng(4).random((8, 32, 4))
        for entangled_only in (False, True):
            families._accept(u, 5.0, 5.0, entangled_only)
            families._accept(u, 1.0, 1.0, entangled_only)
        assert standard_nu_calls == [0, 0]
        families._accept(u, 1e150, 2.0, True)
        assert standard_nu_calls == [0, 1]
        families._kept_columns(tuple(np.array([(2.0, 3.0, 1.0, -1.0), (1.5, 1.2, 0.3, 0.1)]).T))
        assert standard_nu_calls == [0, 2]
        assert factor_calls == [0]

    def test_columns_equal_scalar_gate(self, rng):
        """Every column, bit for bit, as _physical_nu and _closed_form give it row by row: random,
        product, pure (tmsv, the pure branch) and near-pure rows."""
        forms = [random_state(rng, 50.0, 50.0) for _ in range(200)]
        forms += [StandardForm(3.0, 2.0, 0.0, 0.0), tmsv(2.0), tmsv(300.0), lower_branch2_state(0.3),
                  lower_branch1_state(0.5), upper_boundary_state(0.4, 7.0)]
        draws = [(sf.a, sf.b, sf.c, sf.d) for sf in forms]
        columns = families._kept_columns(tuple(np.array(draws).T))
        for i, draw in enumerate(draws):
            nu_tilde = _physical_nu(_standard_entries(*draw))[2]
            want = (*draw, (draw[0] + draw[0] - 2) / 4, _log_negativity(nu_tilde),
                    _closed_form(draw)[0], _separable(nu_tilde), nu_tilde)
            got = tuple(column[i].item() for column in columns)
            assert bits_of(got) == bits_of(want), i
        assert _closed_form(draws[-5])[1] == "pure"

    @pytest.mark.parametrize("bound", [1e3, 1e20])
    def test_fallback_rows_equal_scalar_sampler(self, monkeypatch, bound):
        """Rows the columns leave to _closed_form (X^2 overflows at 1e20) come out as the scalar sampler's."""
        scalar_calls = []
        monkeypatch.setattr(power, "_closed_form", lambda *args: scalar_calls.append(1) or _closed_form(*args))
        got = bits(sample_figure2(1, 200, bound, bound))
        assert bool(scalar_calls) == (bound == 1e20)
        want = bits(sample_records_scalar(1, 200, bound, bound, False))
        assert got == want

    @pytest.mark.parametrize("bound, fallback_rows", [
        (5.0, range(1)), (1e3, range(1)), (1e20, range(1, 200)), (1e30, range(200, 201))],
        ids=["5", "1e3", "1e20", "1e30"])
    def test_closed_form_columns_equal_scalar(self, monkeypatch, bound, fallback_rows):
        """_closed_form_columns alone gives _closed_form on each row, bit for bit, on each of
        200 sampled draws: by its array pass up to 1e3, and through its fallback
        for some rows at 1e20 and for every row at 1e30, where X^2 overflows."""
        draws = sampled_draws(bound)
        scalar_calls = []
        monkeypatch.setattr(power, "_closed_form", lambda *args: scalar_calls.append(1) or _closed_form(*args))
        got = power._closed_form_columns(draws).tolist()
        want = [_closed_form(row)[0] for row in zip(*(column.tolist() for column in draws))]
        assert bits_of(got) == bits_of(want)
        assert len(scalar_calls) in fallback_rows

    def test_first_error_is_the_scalar_samplers(self):
        """A row whose closed form fails raises what the scalar sampler raises for it, through the
        sampler and through _closed_form_columns alone on the same draws in stream order."""
        errors = []
        for sample in (sample_figure2, lambda *args: sample_records_scalar(*args, False),
                       lambda seed, n, bound, _: power._closed_form_columns(sampled_draws(bound, seed, n))):
            with pytest.raises(NumericalError) as exc:
                sample(1, 200, 1e45, 1e45)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == errors[2]

    def test_no_matrix_per_draw_or_record(self, monkeypatch):
        """Draws, their re-decisions in the band (widened to hold all) and records stay on (a, b, c, d)."""
        def forbidden(*args):
            raise AssertionError("built a 4x4 matrix")

        monkeypatch.setattr(CovarianceMatrix, "__init__", forbidden)
        monkeypatch.setattr(StandardForm, "matrix", forbidden)
        random_state(np.random.default_rng(1))
        for band in (families.GUARD_BAND, 1e3):
            monkeypatch.setattr(families, "GUARD_BAND", band)
            assert len(sample_figure2(2, 50, 1.05, 1.05)) == 50
            assert len(sample_figure3(3, 50)) == 50

    def test_figure3_entangled_only(self):
        records = sample_figure3(13, 50)
        assert len(records) == 50
        assert not any(r.separable for r in records)

    def test_sorted_canonically(self):
        records = sample_figure2(17, 30)
        keys = [(r.sf.a, r.sf.b, r.sf.c, r.sf.d) for r in records]
        assert keys == sorted(keys)

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidStateError):
            sample_figure2(1, 0)

    @pytest.mark.parametrize("rng", [
        np.random.default_rng(1),
        np.random.Generator(np.random.MT19937(1)),
        np.random.Generator(np.random.PCG64DXSM(1)),
        np.random.RandomState(1),
    ], ids=["PCG64", "MT19937", "PCG64DXSM", "RandomState"])
    def test_rejects_a_generator(self, rng):
        for sample, _ in SAMPLERS:
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                sample(rng, 5)


class TestBatchedSampler:
    """The batched sampler against the scalar one, which draws and validates one state at a time."""

    @pytest.mark.parametrize("bounds", [(5.0, 5.0), (2.0, 1.5), (1.05, 1.05)])
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_equals_scalar_sampler(self, n, bounds):
        for seed in range(1, 6):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(seed, n, *bounds))
                want = bits(sample_records_scalar(seed, n, *bounds, entangled_only))
                assert got == want, (seed, sample.__name__)

    def test_threads_draw_from_their_own_generator(self, monkeypatch):
        """Eight threads sampling at once, switching every microsecond, each get a serial call's
        rows: long blocks keep each fill, which runs without the GIL, open to a shared generator."""
        monkeypatch.setattr(families, "_BLOCK", 4096)
        want = bits(sample_figure3(5, 16))
        results = [None] * 8

        def run(k):
            results[k] = bits(sample_figure3(5, 16))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 8

    @pytest.mark.parametrize("bounds", SWEEP)
    def test_decisions_equal_scalar(self, bounds, monkeypatch, standard_nu_calls):
        """_accept's masks on 10^5 draws, fig2's and fig3's, against _nu_minus_pt per draw,
        with no RuntimeWarning.  The stacked kernel runs only where draws other than
        product states lie in f's band (IN_BAND), once, with math.hypot per element."""
        u = np.random.default_rng(5).random((3125, 32, 4))
        forms = [families._draw(row, *bounds) for row in u.reshape(-1, 4).tolist()]
        physical, entangled = scalar_decisions(forms)
        stacks, counted = [], families._standard_nu
        monkeypatch.setattr(families, "_standard_nu", lambda *args: stacks.append(args) or counted(*args))
        for entangled_only, want in ((False, physical), (True, entangled)):
            standard_nu_calls[:] = [0, 0]
            stacks.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = families._accept(u, *bounds, entangled_only)
            assert got[0].reshape(-1).tolist() == physical, entangled_only
            assert got[1].reshape(-1).tolist() == want, entangled_only
            assert standard_nu_calls == [0, len(stacks)] and len(stacks) == (bounds in IN_BAND)
            assert all(stack[-1] is _hypot_each for stack in stacks)

    def test_stack_nan_where_scalar_none(self, monkeypatch, standard_nu_calls):
        """A stack mixing positive-definite and other sigma: _standard_nu is nan where
        _nu_pair gives None, except at a zero pivot, where it is 0; _nu_minus_pt gives
        _nu_pair's (nu-, nu~), or (0, 0) where it gives None; and _accept decides every
        row as the scalar checks do, by the polynomials (no _standard_nu call) and, with a
        band that holds every row, by one stacked _standard_nu per call on every row."""
        u = np.random.default_rng(6).random((40, 4))
        forms = [*map(tuple, np.transpose(families._draw(u.T, 5.0, 5.0)).tolist()),
                 (2.0, 2.0, 1.7, -1.7), (1.0, 1.0, 0.5, -0.5),  # entangled; not physical
                 (1.0, 1.0, 2.0, 0.0), (1.0, 1.0, 1.0, 0.0),  # ab < c^2; ab = c^2
                 (2.0, 2.0, 0.0, 3.0), (1.0, 1.0, 0.0, 1.0),  # ab < d^2; ab = d^2, last pivot 0
                 (0.0, 1.0, 0.0, 0.0), (-1.0, 2.0, 0.0, 0.0), (2.0, -1.0, 0.0, 0.0)]
        scalar = [_nu_pair(_standard_entries(*form)) for form in forms]
        assert sum(nu is None for nu in scalar) == 6
        assert scalar[-4][0] == 0.0  # a zero last pivot gives nu = 0, not None
        zero_pivot = [form in ((1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1.0)) for form in forms]  # ab = c^2, d^2
        nan = [nu is None and not zero for nu, zero in zip(scalar, zero_pivot)]
        with np.errstate(all="ignore"):
            stacked = _standard_nu(*map(np.array, zip(*forms)), np.sqrt, _hypot_each)
        for field in stacked:
            assert np.isnan(field).tolist() == nan
            assert field[zero_pivot].tolist() == [0.0, 0.0]
        want = [(nu[0], nu[2]) if nu else (0.0, 0.0) for nu in scalar]
        assert [families._nu_minus_pt(*form) for form in forms] == want
        assert standard_nu_calls == [len(forms), 0]
        monkeypatch.setattr(families, "_draw", lambda u, a_max, b_max, power=pow: u)  # u holds the forms
        threshold = 1 - families.CHECK_TOL
        for band, stacked_calls in ((families.GUARD_BAND, 0), (1e3, 1)):
            monkeypatch.setattr(families, "GUARD_BAND", band)
            for entangled_only in (False, True):
                standard_nu_calls[:] = [0, 0]
                physical, accepted = families._accept(np.array(forms), 5.0, 5.0, entangled_only)
                assert physical.tolist() == [nu >= threshold for nu, _ in want]
                assert accepted.tolist() == [nu >= threshold and not (entangled_only and nu_pt >= threshold)
                                             for nu, nu_pt in want]
                assert standard_nu_calls == [0, stacked_calls], band
        assert physical.any() and accepted.any() and not physical.all()

    @pytest.mark.parametrize("bounds", [(1.05, 1.05), (5.0, 5.0), (100.0, 100.0)])
    def test_decisions_equal_scalar_in_a_wider_band(self, monkeypatch, bounds):
        """GUARD_BAND = 1e-4 puts hundreds of draws in f's band, all decided by one call of the
        scalar kernel; every decision is still _nu_minus_pt's."""
        u = np.random.default_rng(5).random((3125, 32, 4))
        physical, entangled = scalar_decisions([families._draw(row, *bounds) for row in u.reshape(-1, 4).tolist()])
        monkeypatch.setattr(families, "GUARD_BAND", 1e-4)
        sizes, standard_nu = [], families._standard_nu

        def stacked(a, b, c, d, sqrt, hypot):
            sizes.append(len(a))
            return standard_nu(a, b, c, d, sqrt, hypot)

        monkeypatch.setattr(families, "_standard_nu", stacked)
        for entangled_only, want in ((False, physical), (True, entangled)):
            sizes.clear()
            got = families._accept(u, *bounds, entangled_only)
            assert got[0].reshape(-1).tolist() == physical, entangled_only
            assert got[1].reshape(-1).tolist() == want, entangled_only
            assert len(sizes) == 1 and sizes[0] > 0, sizes

    def test_scalar_decisions_inside_the_band(self, monkeypatch):
        """A band wide enough to hold every draw hands every decision to the scalar checks."""
        monkeypatch.setattr(families, "GUARD_BAND", 1e3)
        for seed in range(1, 4):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(seed, 20, 2.0, 1.5))
                want = bits(sample_records_scalar(seed, 20, 2.0, 1.5, entangled_only))
                assert got == want, (seed, sample.__name__)

    @pytest.mark.parametrize("block, chunk", [(1, 4), (3, 5)])
    def test_streams_over_many_blocks_and_chunks(self, monkeypatch, block, chunk):
        """Tiny blocks make most streams read several, carrying their counts over."""
        monkeypatch.setattr(families, "_BLOCK", block)
        monkeypatch.setattr(families, "_CHUNK", chunk)
        for seed in range(1, 6):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(seed, 23, 1.05, 1.05))
                want = bits(sample_records_scalar(seed, 23, 1.05, 1.05, entangled_only))
                assert got == want, (seed, sample.__name__)

    @pytest.mark.parametrize("max_draws, block", [(3, None), (3, 1), (3, 2), (3, 5), (7, 2)],
                             ids=["None", "1", "2", "5", "7-2"])
    @pytest.mark.parametrize("bounds", [(1.05, 1.05), (2.0, 1.01)])
    def test_budgets_match_scalar_sampler(self, monkeypatch, max_draws, block, bounds):
        """With MAX_DRAWS = 3, each seed returns, or raises the same error, as the scalar sampler.

        Two streams per call, so a call raises for the first stream that fails.  With
        MAX_DRAWS = 7 and _BLOCK = 2, blocks grow and are capped by the budget left: 2, 4, 1.
        """
        monkeypatch.setattr(families, "MAX_DRAWS", max_draws)
        if block is not None:
            monkeypatch.setattr(families, "_BLOCK", block)
        seen = set()
        for seed in range(50):
            for sample, entangled_only in SAMPLERS:
                got = outcome(sample, seed, 2, *bounds)
                want = outcome(sample_records_scalar, seed, 2, *bounds, entangled_only)
                assert got == want, (seed, sample.__name__)
                seen.add(got if isinstance(got, str) else "records")
        assert {"records", f"no physical state in {max_draws} draws"} <= seen
        if bounds == (2.0, 1.01):
            assert f"no entangled state in {max_draws} draws; raise a_max or b_max" in seen

    def test_rounds_hold_at_most_a_chunk_of_blocks(self, monkeypatch):
        """With every draw physical and none accepted, each fig3 stream spends its whole
        budget: blocks double for a few streams, but no round decides more than
        _CHUNK * _BLOCK draws, and each stream's blocks add up to MAX_DRAWS."""
        monkeypatch.setattr(families, "MAX_DRAWS", 200)
        shapes = []

        def separable_only(u, *args):
            shapes.append(u.shape)
            return np.ones(u.shape[:-1], dtype=bool), np.zeros(u.shape[:-1], dtype=bool)

        monkeypatch.setattr(families, "_accept", separable_only)
        for n, streams in ((300, families._CHUNK), (40, 40)):
            shapes.clear()
            with pytest.raises(InvalidStateError, match="^no entangled state in 200 draws"):
                sample_figure3(1, n)
            assert {pending for pending, _, _ in shapes} == {streams}
            assert sum(block for _, block, _ in shapes) == 200
            assert max(pending * block for pending, block, _ in shapes) <= families._CHUNK * families._BLOCK
        assert [block for _, block, _ in shapes] == [32, 64, 104]

    @pytest.mark.parametrize("bounds", [(1.0, 1.0), (1.0, 5.0), (5.0, 1.0)])
    def test_product_bounds_refused_before_any_draw(self, monkeypatch, bounds):
        """With a_max or b_max at 1, c_max = 0 and every draw is a product state: fig3 raises the
        scalar sampler's error before any stream is drawn, at any budget."""
        calls = []
        monkeypatch.setattr(families, "_first_accepted", lambda *args: calls.append(args))
        for max_draws in (10_000, 5):
            monkeypatch.setattr(families, "MAX_DRAWS", max_draws)
            want = f"no entangled state in {max_draws} draws; raise a_max or b_max"
            with pytest.raises(InvalidStateError, match=f"^{re.escape(want)}$"):
                sample_figure3(1, 3, *bounds)
        assert outcome(sample_records_scalar, 1, 3, *bounds, True) == want
        assert calls == []

    @pytest.mark.parametrize("bounds", [(0.5, 2.0), (float("nan"), 2.0), (1e200, 1e200)])
    def test_bad_bounds(self, bounds):
        for sample, _ in SAMPLERS:
            with pytest.raises(InvalidStateError, match="need a_max, b_max >= 1"):
                sample(1, 3, *bounds)


#: Seeds of the seeding checks, of one (0, 1, 2**32 - 1), two, three, five and seven
#: uint32 words; the words of the 200-bit seed beyond the pool size are mixed in last.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, 2**199 + 0x5DEECE66D * 2**97 + 11]


class TestChildStreams:
    """The sampler's streams against numpy's: SeedSequence(seed).spawn, then PCG64 and Generator.random."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_equal_numpy_spawn(self, seed):
        states, incs = _child_streams(_pool(seed), 0, 40)
        want = [np.random.PCG64(child).state["state"]
                for child in np.random.SeedSequence(seed).spawn(40)]
        assert [{"state": s, "inc": i} for s, i in zip(states, incs)] == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_of_children_near_two_to_the_32(self, seed):
        """The last one-word child indices, checked against children built by index."""
        first = 2**32 - 3
        states, incs = _child_streams(_pool(seed), first, 3)
        for k in range(3):
            child = np.random.SeedSequence(seed, spawn_key=(first + k,))
            assert np.random.PCG64(child).state["state"] == {"state": states[k], "inc": incs[k]}

    @pytest.mark.parametrize("first, count", [(250, 256), (250, 1), (0, 1)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_from_a_later_child(self, seed, first, count):
        """A chunk that starts past child 0, and a chunk of one child, against numpy's spawn."""
        states, incs = _child_streams(_pool(seed), first, count)
        want = [np.random.PCG64(child).state["state"]
                for child in np.random.SeedSequence(seed).spawn(first + count)[first:]]
        assert [{"state": s, "inc": i} for s, i in zip(states, incs, strict=True)] == want

    def test_child_indices_past_the_spawn_counter_raise(self, monkeypatch):
        """numpy counts children spawned in 32 bits: n past MAX_ROWS (< 2**32) is refused
        before any stream is seeded, so every child index stays in one word."""
        def seeded(seed):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(families, "_pool", seeded)
        for n in (families.MAX_ROWS + 1, 2**32, 2**64):
            with pytest.raises(InvalidStateError, match=f"^sample count must be <= 1000000, got {n}$"):
                families._sample_columns(1, n, 5.0, 5.0, False)

    @pytest.mark.parametrize("block, budget", [(1, 3), (3, 3), (32, 3), (3, 7), (32, 127)],
                             ids=["1", "3", "32", "3-7", "32-127"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_numpy_streams(self, monkeypatch, block, budget, seed):
        """Every uniform of each stream's blocks, bit for bit, and the seeds left as they
        were: no draw is accepted, so each stream reads blocks until MAX_DRAWS = budget
        _BLOCK unphysical draws, in blocks of _BLOCK and 2 _BLOCK, 4 _BLOCK more at budget
        7, and at budget 127 (4,064 draws at the default _BLOCK) blocks that double up to
        the round's cap, each read after advancing the re-seeded stream up to 14,616 steps."""
        rounds = []

        def reject_all(u, *args):
            rounds.append(u.copy())
            no = np.zeros(u.shape[:-1], dtype=bool)
            return no, no

        monkeypatch.setattr(families, "_BLOCK", block)
        monkeypatch.setattr(families, "MAX_DRAWS", budget * block)
        monkeypatch.setattr(families, "_accept", reject_all)
        states, incs = _child_streams(_pool(seed), 0, 5)
        seeds = (list(states), list(incs))
        errors = families._first_accepted(states, incs, 5.0, 5.0, False)[1]
        assert errors == dict.fromkeys(range(5), f"no physical state in {budget * block} draws")
        assert (states, incs) == seeds
        got = np.concatenate(rounds, axis=1).reshape(5, -1)
        want = [np.random.Generator(np.random.PCG64(child)).random(4 * budget * block)
                for child in np.random.SeedSequence(seed).spawn(5)]
        assert got.tobytes() == np.array(want).tobytes()


class TestFill:
    """_fill(states, incs, rows, skip, out) on its own: each row's stream re-seeded and
    moved on skip steps by PCG64.advance, against the same stream drawn step by step."""

    STEPS = [0, 1, 2, 3, 31, 32, 127, 128, 129, 1000, 32768]

    @pytest.mark.parametrize("skip", STEPS)
    def test_equals_numpy_stream_stepwise(self, skip):
        """The uniforms after numpy's child stream gave skip, rows in any order and one row
        twice, the seeds left as they were, and the same in a thread of its own."""
        for seed in SEEDS:
            states, incs = _child_streams(_pool(seed), 0, 3)
            seeds = (list(states), list(incs))
            rows = [2, 0, 2]
            want = [np.random.Generator(np.random.PCG64(child)).random(skip + 8)[skip:]
                    for child in np.random.SeedSequence(seed).spawn(3)]
            out = np.empty((len(rows), 8))
            _fill(states, incs, rows, skip, out)
            assert out.tobytes() == np.array([want[k] for k in rows]).tobytes(), seed
            assert (states, incs) == seeds
            in_thread = np.empty_like(out)
            thread = threading.Thread(target=_fill, args=(states, incs, rows, skip, in_thread))
            thread.start()
            thread.join()
            assert in_thread.tobytes() == out.tobytes(), seed

    @pytest.mark.parametrize("skip", STEPS)
    def test_equals_int_stream(self, skip):
        """The uniforms of PCG64 stepped in int arithmetic (_Uniforms at the child's
        (state, inc)) after skip doubles, so advance is checked without numpy's stepping."""
        for seed in SEEDS[::3]:
            states, incs = _child_streams(_pool(seed), 5, 2)
            out = np.empty((2, 4))
            _fill(states, incs, [1, 0], skip, out)
            for row, k in enumerate((1, 0)):
                stream = _Uniforms.__new__(_Uniforms)
                stream.state, stream.inc = states[k], incs[k]
                stream(skip)
                assert out[row].tolist() == stream(4), (seed, k)


#: Seeds of the numpy-free stream: SEEDS, every seed below 60, and two more
#: of three and five words.
STREAM_SEEDS = [*range(60), *(seed for seed in SEEDS if seed >= 60), 2**64 + 5, 2**128 + 1]


class TestUniforms:
    """verify's numpy-free stream (_streams._Uniforms) against default_rng(seed).random."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equals_default_rng(self, seed):
        for k in (1, 4, 7, 128):
            assert _Uniforms(seed)(k) == np.random.default_rng(seed).random(k).tolist()
        # reads of each size in turn, so each crosses the ends of the reads before it
        uniforms, rng = _Uniforms(seed), np.random.default_rng(seed)
        for k in (1, 4, 7, 128, 7, 4, 1, 128):
            assert uniforms(k) == rng.random(k).tolist(), k

    def test_random_state_reads_it_as_a_generator(self):
        """_random_state on the stream: random_state's states, rejections included."""
        for seed, bounds in ((1, (5.0, 5.0)), (2, (1.05, 1.05)), (3, (40.0, 1.5))):
            uniforms, rng = _Uniforms(seed), np.random.default_rng(seed)
            for _ in range(300):
                assert families._random_state(uniforms, *bounds) == random_state(rng, *bounds)

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-3)
        for refuse in (_Uniforms, lambda seed: sample_figure2(seed, 5)):
            with pytest.raises(InvalidStateError) as error:
                refuse(-3)
            assert str(error.value) == str(numpy_error.value) == "expected non-negative integer"
