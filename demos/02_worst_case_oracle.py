"""The worst-case QFI search, and why the closed formula can be trusted.

The power of a probe state is one quarter of the infimum of the quantum
Fisher information over the unknown local dynamics (zeta, theta).  The
QFI is a quadratic form in the black box's generator, built in plain
arithmetic from the Williamson decomposition of the state's standard form.
This script shows the QFI landscape for one state, runs the exact
minimizer (one 2x2 eigenvector of that form on its hyperboloid, global
over every zeta and theta), and cross-validates the closed formula against
it on a batch of random states.
"""

import numpy as np

from gipower import (
    StandardForm,
    cross_validate,
    from_standard_form,
    gip_closed_form,
    qfi,
    random_state,
    tmsv,
    worst_case_qfi,
)

cm = from_standard_form(StandardForm(2, 3, 1, -1))

print("QFI landscape of (2,3,1,-1) along zeta at theta = 0:")
for log2_zeta in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
    marker = "  <- minimum at zeta = 1" if log2_zeta == 0.0 else ""
    print(f"  zeta = 2^{log2_zeta:+.1f}: QFI = {qfi(cm, 2.0**log2_zeta, 0.0):.6f}{marker}")

print()
result = worst_case_qfi(cm)
closed = gip_closed_form(cm).value
print(f"worst case: QFI = {result.value:.8f} at zeta = {result.zeta_opt:.6f}, "
      f"theta = {result.theta_opt:.6f}")
print(f"power = inf QFI / 4 = {result.value / 4:.8f}")
print(f"closed formula      = {closed:.8f}   (exact value 1/12 = {1 / 12:.8f})")

print()
print("pure probe: the worst case of tmsv(2) saturates at 4 * 0.75 = 3")
pure = worst_case_qfi(from_standard_form(tmsv(2.0)))
print(f"  QFI = {pure.value:.8f} at zeta = {pure.zeta_opt}, theta = {pure.theta_opt}")

print()
print("cross-validation on 20 random states (seed 42):")
rng = np.random.default_rng(42)
worst = 0.0
for _ in range(20):
    check = cross_validate(from_standard_form(random_state(rng)), tol=1e-4)
    worst = max(worst, check.abs_diff)
    assert check.passed
print(f"  all passed; worst |closed - oracle| = {worst:.2e}")
