import math

import numpy as np
import pytest

import gipower.families as families
from gipower import (
    CovarianceMatrix,
    FamilySpec,
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
from gipower.power import _closed_form
from gipower.symplectic import (
    _entries,
    _gate,
    _gates,
    _hypot_each,
    _hypot_nested,
    _nu_pair,
    _require_physical,
    _standard_entries,
)
from oracles import random_state_scalar, sample_records_scalar


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


class TestBuildFamily:
    def test_dispatch(self):
        sf = build_family(FamilySpec("tmsv", (2.0,)))
        assert sf == tmsv(2.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidStateError):
            build_family(FamilySpec("bogus", ()))

    def test_wrong_arity(self):
        with pytest.raises(InvalidStateError):
            build_family(FamilySpec("tmsv", (2.0, 3.0)))


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


def gate_bits(make):
    """The seven _Gate fields make() returns, as hex, or the message of the InvalidStateError it raises."""
    try:
        return tuple(float(v).hex() for v in make())
    except InvalidStateError as exc:
        return str(exc)


class TestStandardFormGate:
    """The gate built from (a, b, c, d) against the gate of from_standard_form's matrix, bit for bit."""

    @staticmethod
    def assert_same_gate(a, b, c, d):
        got = gate_bits(lambda: _gate(_standard_entries(a, b, c, d)))
        want = gate_bits(lambda: _require_physical(from_standard_form(StandardForm(a, b, c, d)))[1])
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
        records = sample_figure2(np.random.default_rng(11), 50)
        assert len(records) == 50
        for r in records:
            cm = from_standard_form(r.sf)
            assert r.n_bar_A == pytest.approx(mean_photon_A(cm), abs=1e-9)
            assert r.e_n == pytest.approx(log_negativity(cm), abs=1e-9)
            assert r.p_g == pytest.approx(gip_closed_form(cm).value, abs=1e-9)
            assert r.separable == is_separable(cm)
            assert r.nu_tilde == pt_min_symplectic_eigenvalue(cm)

    def test_one_factor_per_record(self, cholesky_calls):
        """The kept rows of a chunk share one stacked factor; no row factors its state alone."""
        families._kept_columns([(2.0, 3.0, 1.0, -1.0), (1.5, 1.2, 0.3, 0.1)])
        assert cholesky_calls == [0, 1]

    def test_columns_equal_scalar_gate(self, rng):
        """Every column, bit for bit, as _gate and _closed_form give it row by row: random,
        product, pure (tmsv, the pure branch) and near-pure rows."""
        forms = [random_state(rng, 50.0, 50.0) for _ in range(200)]
        forms += [StandardForm(3.0, 2.0, 0.0, 0.0), tmsv(2.0), tmsv(300.0), lower_branch2_state(0.3),
                  lower_branch1_state(0.5), upper_boundary_state(0.4, 7.0)]
        draws = [(sf.a, sf.b, sf.c, sf.d) for sf in forms]
        columns = families._kept_columns(draws)
        for i, draw in enumerate(draws):
            gate = _gate(_standard_entries(*draw))
            want = (*draw, (draw[0] + draw[0] - 2) / 4, gate.log_negativity,
                    _closed_form(gate, draw)[0], gate.separable, gate.nu_tilde)
            got = tuple(column[i].item() for column in columns)
            assert bits_of(got) == bits_of(want), i
        assert _closed_form(_gate(_standard_entries(*draws[-5])), draws[-5])[1] == "pure"

    @pytest.mark.parametrize("bound", [1e3, 1e20])
    def test_fallback_rows_equal_scalar_sampler(self, monkeypatch, bound):
        """Rows the columns leave to _closed_form (X^2 overflows at 1e20) come out as the scalar sampler's."""
        scalar_calls = []
        closed_form = families._closed_form
        monkeypatch.setattr(families, "_closed_form",
                            lambda *args: scalar_calls.append(1) or closed_form(*args))
        got = bits(sample_figure2(np.random.default_rng(1), 200, bound, bound))
        assert bool(scalar_calls) == (bound == 1e20)
        want = bits(sample_records_scalar(np.random.default_rng(1), 200, bound, bound, False))
        assert got == want

    def test_first_error_is_the_scalar_samplers(self):
        """A row whose closed form fails raises what the scalar sampler raises for it."""
        errors = []
        for sample in (sample_figure2, lambda *args: sample_records_scalar(*args, False)):
            with pytest.raises(NumericalError) as exc:
                sample(np.random.default_rng(1), 200, 1e45, 1e45)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_no_matrix_per_draw_or_record(self, monkeypatch):
        """Draws, their re-decisions in the band (widened to hold all) and records stay on (a, b, c, d)."""
        def forbidden(*args):
            raise AssertionError("built a 4x4 matrix")

        monkeypatch.setattr(CovarianceMatrix, "__init__", forbidden)
        monkeypatch.setattr(StandardForm, "matrix", forbidden)
        random_state(np.random.default_rng(1))
        for band in (families.GUARD_BAND, 1e3):
            monkeypatch.setattr(families, "GUARD_BAND", band)
            assert len(sample_figure2(np.random.default_rng(2), 50, 1.05, 1.05)) == 50
            assert len(sample_figure3(np.random.default_rng(3), 50)) == 50

    def test_figure3_entangled_only(self):
        records = sample_figure3(np.random.default_rng(13), 50)
        assert len(records) == 50
        assert not any(r.separable for r in records)

    def test_sorted_canonically(self):
        records = sample_figure2(np.random.default_rng(17), 30)
        keys = [(r.sf.a, r.sf.b, r.sf.c, r.sf.d) for r in records]
        assert keys == sorted(keys)

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidStateError):
            sample_figure2(np.random.default_rng(1), 0)

    def test_calls_in_a_row_take_the_next_children(self):
        """Two calls on one rng read its child streams [0, n), then [n, 2n), as rng.spawn does."""
        for sample, entangled_only in SAMPLERS:
            rng, ref = np.random.default_rng(7), np.random.default_rng(7)
            for _ in range(2):
                got = bits(sample(rng, 9))
                want = bits(sample_records_scalar(ref, 9, 5.0, 5.0, entangled_only))
                assert got == want, sample.__name__
            assert rng.bit_generator.seed_seq.n_children_spawned == 18

    @pytest.mark.parametrize("rng", [
        np.random.Generator(np.random.MT19937(1)),
        np.random.Generator(np.random.PCG64DXSM(1)),
        np.random.RandomState(1),
    ], ids=["MT19937", "PCG64DXSM", "RandomState"])
    def test_rejects_a_generator_not_over_pcg64(self, rng):
        for sample, _ in SAMPLERS:
            with pytest.raises(TypeError, match="needs a numpy Generator over PCG64"):
                sample(rng, 3)


class TestBatchedSampler:
    """The batched sampler against the scalar one, which draws and validates one state at a time."""

    @pytest.mark.parametrize("bounds", [(5.0, 5.0), (2.0, 1.5), (1.05, 1.05)])
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_equals_scalar_sampler(self, n, bounds):
        for seed in range(1, 6):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(np.random.default_rng(seed), n, *bounds))
                want = bits(sample_records_scalar(np.random.default_rng(seed), n, *bounds,
                                                  entangled_only))
                assert got == want, (seed, sample.__name__)

    def test_array_nu_matches_scalar(self):
        """_gates with _hypot_nested on a stack of draws against _nu_pair per draw, far inside GUARD_BAND."""
        u = np.random.default_rng(5).random((1000, 4))
        for bounds in ((5.0, 5.0), (1.05, 1.05), (100.0, 100.0)):
            a, b, c, d = families._draw(u.T, *bounds)
            gate = _gates(_standard_entries(a, b, c, d), _hypot_nested)
            nu, nu_pt = gate.nu_minus, gate.nu_tilde
            for i in range(len(u)):
                scalar = _nu_pair(_standard_entries(*families._draw(u[i].tolist(), *bounds)))
                for got, pt in ((nu[i], False), (nu_pt[i], True)):
                    want = (scalar or (0.0,) * 4)[2 if pt else 0]
                    assert abs(got - want) <= 1e-14 * a[i] * b[i] * max(1.0, want), (bounds, i, pt)

    def test_stack_nan_where_scalar_none(self, monkeypatch):
        """A stack mixing positive-definite and other sigma: _gates is nan exactly where
        _nu_pair gives None, and _accept decides every row as the scalar checks do."""
        u = np.random.default_rng(6).random((40, 4))
        forms = [*map(tuple, np.transpose(families._draw(u.T, 5.0, 5.0)).tolist()),
                 (2.0, 2.0, 1.7, -1.7), (1.0, 1.0, 0.5, -0.5),  # entangled; not physical
                 (1.0, 1.0, 2.0, 0.0), (1.0, 1.0, 1.0, 0.0),  # ab < c^2; ab = c^2
                 (2.0, 2.0, 0.0, 3.0), (1.0, 1.0, 0.0, 1.0),  # ab < d^2; ab = d^2, last pivot 0
                 (0.0, 1.0, 0.0, 0.0), (-1.0, 2.0, 0.0, 0.0), (2.0, -1.0, 0.0, 0.0)]
        scalar = [_nu_pair(_standard_entries(*form)) for form in forms]
        assert sum(nu is None for nu in scalar) == 6
        assert scalar[-4][0] == 0.0  # a zero last pivot gives nu = 0, not None
        for hypot in (_hypot_each, _hypot_nested):
            gate = _gates(_standard_entries(*map(np.array, zip(*forms))), hypot)
            for field in (gate.nu_minus, gate.nu_tilde, gate.D):
                assert np.isnan(field).tolist() == [nu is None for nu in scalar]
        monkeypatch.setattr(families, "_draw", lambda u, a_max, b_max: u)  # u holds the forms
        threshold = 1 - families.CHECK_TOL
        for entangled_only in (False, True):
            physical, accepted = families._accept(np.array(forms), 5.0, 5.0, entangled_only)
            want = [families._nu_minus_pt(*form) for form in forms]
            assert physical.tolist() == [nu >= threshold for nu, _ in want]
            assert accepted.tolist() == [nu >= threshold and not (entangled_only and nu_pt >= threshold)
                                         for nu, nu_pt in want]
        assert physical.any() and accepted.any() and not physical.all()

    def test_scalar_decisions_inside_the_band(self, monkeypatch):
        """A band wide enough to hold every draw hands every decision to the scalar checks."""
        monkeypatch.setattr(families, "GUARD_BAND", 1e3)
        for seed in range(1, 4):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(np.random.default_rng(seed), 20, 2.0, 1.5))
                want = bits(sample_records_scalar(np.random.default_rng(seed), 20, 2.0, 1.5,
                                                  entangled_only))
                assert got == want, (seed, sample.__name__)

    @pytest.mark.parametrize("block, chunk", [(1, 4), (3, 5)])
    def test_streams_over_many_blocks_and_chunks(self, monkeypatch, block, chunk):
        """Tiny blocks make most streams read several, carrying their counts over."""
        monkeypatch.setattr(families, "_BLOCK", block)
        monkeypatch.setattr(families, "_CHUNK", chunk)
        for seed in range(1, 6):
            for sample, entangled_only in SAMPLERS:
                got = bits(sample(np.random.default_rng(seed), 23, 1.05, 1.05))
                want = bits(sample_records_scalar(np.random.default_rng(seed), 23, 1.05, 1.05,
                                                  entangled_only))
                assert got == want, (seed, sample.__name__)

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("bounds", [(1.05, 1.05), (2.0, 1.01)])
    def test_budgets_match_scalar_sampler(self, monkeypatch, block, bounds):
        """With MAX_DRAWS = 3, each seed returns, or raises the same error, as the scalar sampler.

        Two streams per call, so a call raises for the first stream that fails.
        """
        monkeypatch.setattr(families, "MAX_DRAWS", 3)
        if block is not None:
            monkeypatch.setattr(families, "_BLOCK", block)
        seen = set()
        for seed in range(50):
            for sample, entangled_only in SAMPLERS:
                got = outcome(sample, np.random.default_rng(seed), 2, *bounds)
                want = outcome(sample_records_scalar, np.random.default_rng(seed), 2, *bounds,
                               entangled_only)
                assert got == want, (seed, sample.__name__)
                seen.add(got if isinstance(got, str) else "records")
        assert {"records", "no physical state in 3 draws"} <= seen
        if bounds == (2.0, 1.01):
            assert "no entangled state in 3 draws; raise a_max or b_max" in seen

    @pytest.mark.parametrize("bounds", [(0.5, 2.0), (float("nan"), 2.0), (1e200, 1e200)])
    def test_bad_bounds(self, bounds):
        for sample, _ in SAMPLERS:
            with pytest.raises(InvalidStateError, match="need a_max, b_max >= 1"):
                sample(np.random.default_rng(1), 3, *bounds)


#: (entropy, spawn_key, n_children_spawned) of the parents whose child streams are checked.
PARENTS = [(seed, (), 0) for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3)] + [
    ([5, 2], (), 0),
    (7, (3, 2**33), 0),
    (7, (), 11),
]


class TestChildStreams:
    """The sampler's streams against numpy's: SeedSequence.spawn, then PCG64 and Generator.random."""

    @pytest.mark.parametrize("entropy, key, spawned", PARENTS)
    def test_seeds_equal_numpy_spawn(self, entropy, key, spawned):
        seq = np.random.SeedSequence(entropy, spawn_key=key, n_children_spawned=spawned)
        states, incs = families._child_streams(seq, spawned, 40)
        want = [np.random.PCG64(child).state["state"] for child in seq.spawn(40)]
        assert [{"state": s, "inc": i} for s, i in zip(states, incs)] == want

    @pytest.mark.parametrize("entropy, key", [(1, ()), (7, (3, 2**33))])
    def test_seeds_of_children_near_two_to_the_32(self, entropy, key):
        """The last one-word child indices, checked against children built by index."""
        seq = np.random.SeedSequence(entropy, spawn_key=key)
        first = 2**32 - 3
        states, incs = families._child_streams(seq, first, 3)
        for k in range(3):
            child = np.random.SeedSequence(entropy, spawn_key=(*key, first + k))
            assert np.random.PCG64(child).state["state"] == {"state": states[k], "inc": incs[k]}

    def test_child_indices_past_the_spawn_counter_raise(self):
        """numpy counts children spawned in 32 bits, so indices from 2**32 - 1 on are refused."""
        seq = np.random.SeedSequence(1, n_children_spawned=2**32 - 3)
        with pytest.raises(InvalidStateError, match="spawn count limit"):
            families._sample_columns(seq, 3, 5.0, 5.0, False)
        assert len(families._sample_columns(seq, 2, 5.0, 5.0, False).a) == 2

    @pytest.mark.parametrize("block", [1, 3, 32])
    @pytest.mark.parametrize("entropy, key, spawned", PARENTS)
    def test_draws_equal_numpy_streams(self, monkeypatch, block, entropy, key, spawned):
        """Every uniform of three blocks per stream, bit for bit: no draw is accepted,
        so each stream reads blocks until MAX_DRAWS = 3 _BLOCK unphysical draws."""
        rounds = []

        def reject_all(u, *args):
            rounds.append(u.copy())
            no = np.zeros(u.shape[:-1], dtype=bool)
            return no, no

        monkeypatch.setattr(families, "_BLOCK", block)
        monkeypatch.setattr(families, "MAX_DRAWS", 3 * block)
        monkeypatch.setattr(families, "_accept", reject_all)
        seq = np.random.SeedSequence(entropy, spawn_key=key, n_children_spawned=spawned)
        with pytest.raises(InvalidStateError, match=f"no physical state in {3 * block} draws"):
            families._sample_columns(seq, 5, 5.0, 5.0, False)
        assert seq.n_children_spawned == spawned
        got = np.concatenate(rounds, axis=1).reshape(5, -1)
        want = [np.random.Generator(np.random.PCG64(child)).random(12 * block)
                for child in seq.spawn(5)]
        assert got.tobytes() == np.array(want).tobytes()


#: Seeds of the numpy-free stream: one, two, three and five uint32 words, and a
#: 200-bit int, whose words beyond the pool size are mixed in last.
STREAM_SEEDS = [*range(60), 2**32, 2**64 + 5, 2**128 + 1, 2**199 + 0x5DEECE66D * 2**97 + 11]


class TestUniforms:
    """verify's numpy-free stream (families._Uniforms) against default_rng(seed).random."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equals_default_rng(self, seed):
        for k in (1, 4, 7, 128):
            assert families._Uniforms(seed)(k) == np.random.default_rng(seed).random(k).tolist()
        # reads of each size in turn, so each crosses the ends of the reads before it
        uniforms, rng = families._Uniforms(seed), np.random.default_rng(seed)
        for k in (1, 4, 7, 128, 7, 4, 1, 128):
            assert uniforms(k) == rng.random(k).tolist(), k

    def test_random_state_reads_it_as_a_generator(self):
        """_random_state on the stream: random_state's states, rejections included."""
        for seed, bounds in ((1, (5.0, 5.0)), (2, (1.05, 1.05)), (3, (40.0, 1.5))):
            uniforms, rng = families._Uniforms(seed), np.random.default_rng(seed)
            for _ in range(300):
                assert families._random_state(uniforms, *bounds) == random_state(rng, *bounds)

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence(-3)
        with pytest.raises(InvalidStateError) as error:
            families._Uniforms(-3)
        assert str(error.value) == str(numpy_error.value) == "expected non-negative integer"
