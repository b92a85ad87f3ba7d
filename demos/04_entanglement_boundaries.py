"""Power per photon versus entanglement: the two-sided envelope.

At fixed entanglement (log-negativity, equivalently the partial-transpose
eigenvalue nu), the normalized power P / n_bar is pinched between two
curves.  Highly thermalized states sit on the upper one; pure two-mode
squeezed states become the *worst* probes once entanglement is strong.
Same rows as `gipower sample --which fig3 --seed 11 --n 2000`; see also `gipower bounds`.
"""

import numpy as np

from gipower import (
    en_threshold,
    from_standard_form,
    gip_closed_form,
    lower_bound,
    lower_bound_branch1,
    lower_bound_branch2,
    lower_branch1_state,
    lower_branch2_state,
    mean_photon_A,
    nu_zero,
    sample_figure3,
    upper_bound,
    upper_boundary_state,
)

print("boundary curves on a nu grid (E_N = -ln nu):")
print("  nu      E_N     lower    upper")
for nu in (0.05, 0.14, 0.3, 0.5, 0.7, 0.9):
    print(f"  {nu:.2f}  {-np.log(nu):6.3f}  {float(lower_bound(nu)):7.4f}"
          f"  {float(upper_bound(nu)):7.4f}")

branch_point = nu_zero()
print(f"\nlower-boundary branch point: nu_0 = {branch_point:.6f}")
print(f"  thermal branch value there: {float(lower_bound_branch1(branch_point)):.6f}")
print(f"  pure branch value there:    {float(lower_bound_branch2(branch_point)):.6f}")
print(f"entanglement threshold to always beat shot noise: E_N >= {en_threshold():.4f}")

print("\nextremal families converge to their curves:")
nu = 0.5
for b in (10.0, 100.0, 1000.0):
    cm = from_standard_form(upper_boundary_state(nu, b))
    ratio = gip_closed_form(cm).value / mean_photon_A(cm)
    print(f"  upper family, b = {b:>6.0f}: P/n_bar = {ratio:.5f} "
          f"(limit {float(upper_bound(nu)):.5f})")
for nu in (0.2, 0.6):
    cm = from_standard_form(lower_branch1_state(nu))
    ratio = gip_closed_form(cm).value / mean_photon_A(cm)
    print(f"  lower thermal family, nu = {nu}: P/n_bar = {ratio:.5f} "
          f"(curve {float(lower_bound_branch1(nu)):.5f})")
cm = from_standard_form(lower_branch2_state(0.1))
print(f"  lower pure family,    nu = 0.1: P/n_bar = "
      f"{gip_closed_form(cm).value / mean_photon_A(cm):.5f} "
      f"(curve {float(lower_bound_branch2(0.1)):.5f})")

N = 2000
records = sample_figure3(11, N)
inside = 0
for r in records:
    from gipower import pt_min_symplectic_eigenvalue

    nu = pt_min_symplectic_eigenvalue(from_standard_form(r.sf))
    ratio = r.p_g / r.n_bar_A
    if lower_bound(nu) - 1e-6 <= ratio <= upper_bound(nu) + 1e-6:
        inside += 1
print(f"\n{inside}/{N} random entangled states fall inside the envelope")
