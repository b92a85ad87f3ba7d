"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The scatter-based criteria (5 and 6) run at 10^4
samples by default; every quantitative bound is checked exactly, not
visually.
"""

import math
from fractions import Fraction

import numpy as np

from gipower import (
    apply_local_symplectic,
    closed_form_xyz,
    en_threshold,
    fidelity,
    from_standard_form,
    gip_closed_form,
    local_invariants,
    lower_bound,
    lower_bound_branch1,
    lower_bound_branch2,
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
    worst_case_qfi,
)

from oracles import apply_loss_B, random_local_symplectic, thermal_vs_vacuum_fidelity

SAMPLES = 10_000


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_fidelity_sanity():
    rng = np.random.default_rng(101)
    worst_self = 0.0
    for _ in range(1000):
        cm = from_standard_form(random_state(rng))
        worst_self = max(worst_self, abs(fidelity(cm, cm) - 1.0))

    thermal_vac = np.diag([3.0, 3.0, 1.0, 1.0])  # n_bar = 1 on mode A
    implemented = fidelity(thermal_vac, np.eye(4))
    oracle = thermal_vs_vacuum_fidelity(n_bar=1.0, dim=40)
    fock_dev = abs(implemented - oracle)

    passed = worst_self <= 1e-10 and fock_dev <= 1e-9 and abs(oracle - 0.5) <= 1e-9
    report(
        1,
        passed,
        f"self-fidelity worst dev {worst_self:.2e} (tol 1e-10); "
        f"thermal-vs-vacuum dev from Fock oracle {fock_dev:.2e} (tol 1e-9)",
    )


def test_criterion_2_closed_form_vs_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_sf = None
    failures = 0
    for _ in range(500):
        sf = random_state(rng)
        cm = from_standard_form(sf)
        closed = gip_closed_form(cm).value
        oracle = worst_case_qfi(cm).value / 4
        dev = abs(closed - oracle)
        if dev > worst:
            worst, worst_sf = dev, sf
        if dev > 1e-4 * max(1.0, closed):
            failures += 1
    report(
        2,
        failures == 0,
        f"500 states, worst |closed - oracle/4| = {worst:.2e} at "
        f"(a,b,c,d)=({worst_sf.a:.4f},{worst_sf.b:.4f},{worst_sf.c:.4f},{worst_sf.d:.4f}) "
        f"(tol 1e-4 * max(1, value))",
    )


def test_criterion_3_exact_spot_values():
    pure = gip_closed_form(from_standard_form(tmsv(2.0)))
    pure_ok = pure.branch == "pure" and abs(pure.value - 0.75) < 1e-14

    # integer-exact internals for (2, 3, 1, -1): A=4, B=9, C=-1, D=25
    X, Y, Z = closed_form_xyz(4, 9, -1, 25)
    radical = math.isqrt(X * X + Y * Z)
    exact_ok = (
        (X, Y, Z) == (-673, 888, 249)
        and radical == 821
        and radical * radical == X * X + Y * Z
        and Fraction(X + radical, 2 * Y) == Fraction(1, 12)
    )
    float_value = gip_closed_form(from_standard_form(StandardForm(2, 3, 1, -1))).value
    float_ok = abs(float_value - 1 / 12) < 1e-12

    report(
        3,
        pure_ok and exact_ok and float_ok,
        f"tmsv(2) -> {pure.value} ({pure.branch} branch); "
        f"(2,3,1,-1) internals X={X}, Y={Y}, Z={Z}, radical={radical}, "
        f"value=(X+821)/(2Y)={Fraction(X + radical, 2 * Y)}; float path dev "
        f"{abs(float_value - 1 / 12):.1e}",
    )


def test_criterion_4_faithfulness():
    rng = np.random.default_rng(404)
    product_max = 0.0
    for _ in range(200):
        a, b = rng.uniform(1.0, 5.0, size=2)
        cm = apply_local_symplectic(
            from_standard_form(StandardForm(a, b, 0.0, 0.0)),
            random_local_symplectic(rng),
            random_local_symplectic(rng),
        )
        product_max = max(product_max, gip_closed_form(cm).value)

    correlated_min = np.inf
    found = 0
    while found < 200:
        sf = random_state(rng)
        if abs(local_invariants(from_standard_form(sf)).C) <= 0.01:
            continue
        found += 1
        correlated_min = min(correlated_min, gip_closed_form(from_standard_form(sf)).value)

    passed = product_max < 1e-12 and correlated_min > 0.0
    report(
        4,
        passed,
        f"200 product states: max P_G = {product_max:.2e} (tol 1e-12); "
        f"200 correlated states (|C| > 0.01): min P_G = {correlated_min:.2e} > 0",
    )


def test_criterion_5_scaling_caps():
    records = sample_figure2(505, SAMPLES)
    sep_viol = sum(
        1 for r in records if r.separable and r.p_g > r.n_bar_A * (1 + 1e-6)
    )
    ent_viol = sum(
        1
        for r in records
        if not r.separable and r.p_g > r.n_bar_A * (r.n_bar_A + 1) * (1 + 1e-6)
    )

    cm = from_standard_form(separable_extremal(3.0, 1e4))
    sep_extremal_ratio = gip_closed_form(cm).value / mean_photon_A(cm)

    heis_dev = 0.0
    for a in (1.5, 2.0, 3.0, 5.0):
        cm = from_standard_form(tmsv(a))
        n = mean_photon_A(cm)
        heis_dev = max(
            heis_dev, abs(gip_closed_form(cm).value - n * (n + 1)) / max(1.0, n * (n + 1))
        )

    passed = sep_viol == 0 and ent_viol == 0 and sep_extremal_ratio >= 0.999 and heis_dev < 1e-12
    report(
        5,
        passed,
        f"{SAMPLES} samples: {sep_viol} shot-noise violations, {ent_viol} Heisenberg "
        f"violations; separable_extremal(3, 1e4) reaches {sep_extremal_ratio:.6f} n_bar "
        f"(needs >= 0.999); tmsv Heisenberg saturation dev {heis_dev:.1e}",
    )


def test_criterion_6_boundary_reproduction():
    records = sample_figure3(606, SAMPLES)
    nu = np.array([pt_min_symplectic_eigenvalue(from_standard_form(r.sf)) for r in records])
    ratio = np.array([r.p_g / r.n_bar_A for r in records])
    viol = int(np.count_nonzero(~((lower_bound(nu) - 1e-6 <= ratio) & (ratio <= upper_bound(nu) + 1e-6))))

    upper_dev = 0.0
    for nu in (0.2, 0.5, 0.8):
        cm = from_standard_form(upper_boundary_state(nu, 1e3))
        ratio = gip_closed_form(cm).value / mean_photon_A(cm)
        limit = (1 + nu) / (2 * nu)
        upper_dev = max(upper_dev, abs(ratio - limit) / limit)

    branch_point = nu_zero()
    residual = abs(branch_point**3 + branch_point**2 + 7 * branch_point - 1)
    continuity = abs(
        float(lower_bound_branch1(branch_point)) - float(lower_bound_branch2(branch_point))
    )
    threshold = en_threshold()

    passed = (
        viol == 0
        and upper_dev <= 0.02
        and residual < 1e-12
        and abs(branch_point - 0.1397) <= 1e-3
        and continuity <= 1e-6
        and abs(threshold - 1.135) <= 0.002
    )
    report(
        6,
        passed,
        f"{SAMPLES} entangled samples: {viol} outside [lower-1e-6, upper+1e-6]; "
        f"upper-boundary states within {100 * upper_dev:.2f}% of (1+nu)/(2nu) (needs <= 2%); "
        f"nu_zero = {branch_point:.6f} (residual {residual:.1e}), branch continuity "
        f"{continuity:.1e} (tol 1e-6); en_threshold = {threshold:.4f} (1.135 +- 0.002)",
    )


def test_criterion_7_loss_monotonicity():
    rng = np.random.default_rng(707)
    violations = 0
    worst_jump = -np.inf
    for _ in range(500):
        cm = from_standard_form(random_state(rng))
        base = gip_closed_form(cm).value
        for eta in np.arange(0.1, 0.95, 0.1):
            lossy = gip_closed_form(apply_loss_B(cm, float(eta))).value
            worst_jump = max(worst_jump, lossy - base)
            if lossy > base + 1e-9:
                violations += 1
    report(
        7,
        violations == 0,
        f"500 states x 9 transmissivities: {violations} monotonicity violations "
        f"(worst increase {worst_jump:.2e}, tol 1e-9)",
    )


def test_criterion_8_invariance_and_optimal_parameters():
    rng = np.random.default_rng(808)

    closed_dev = 0.0
    oracle_dev = 0.0
    for _ in range(10):
        cm = from_standard_form(random_state(rng))
        closed_base = gip_closed_form(cm).value
        oracle_base = worst_case_qfi(cm).value / 4
        for _ in range(10):
            kicked = apply_local_symplectic(
                cm, random_local_symplectic(rng), random_local_symplectic(rng)
            )
            closed_dev = max(
                closed_dev,
                abs(gip_closed_form(kicked).value - closed_base) / max(1.0, closed_base),
            )
            oracle_dev = max(
                oracle_dev,
                abs(worst_case_qfi(kicked).value / 4 - oracle_base) / max(1.0, oracle_base),
            )

    # 50 random physical d = -+c states: optimum at zeta = 1, theta = 0 mod pi
    zeta_dev = 0.0
    theta_dev = 0.0
    for i in range(50):
        a, b = rng.uniform(1.2, 3.0, size=2)
        u = rng.uniform(0.1, 1.0)
        if i % 2 == 0:
            prod = a * b - 1
            c_sq = u * (prod - math.sqrt(prod * prod - (a * a - 1) * (b * b - 1)))
            sf = squeezed_thermal(a, b, math.sqrt(c_sq))
        else:
            c_sq = u * (a - 1) * (b - 1)
            sf = mixed_thermal(a, b, math.sqrt(c_sq))
        result = worst_case_qfi(from_standard_form(sf))
        zeta_dev = max(zeta_dev, abs(result.zeta_opt - 1.0))
        theta_dev = max(
            theta_dev, min(result.theta_opt, math.pi - result.theta_opt)
        )

    passed = (
        closed_dev <= 1e-9 and oracle_dev <= 1e-3 and zeta_dev <= 1e-3 and theta_dev <= 1e-2
    )
    report(
        8,
        passed,
        f"100 local-symplectic conjugations: closed-form dev {closed_dev:.2e} (tol 1e-9), "
        f"oracle dev {oracle_dev:.2e} (tol 1e-3); 50 d=-+c states: max |zeta_opt - 1| = "
        f"{zeta_dev:.2e}, max theta_opt (mod pi) = {theta_dev:.2e}",
    )
