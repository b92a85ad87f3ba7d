"""Power versus mean photon number: shot-noise and Heisenberg scaling.

Random separable probes never beat the shot-noise line P = n_bar, and
random entangled probes never beat the Heisenberg curve P = n_bar(n_bar+1);
two named families saturate those envelopes.  Same data as
`gipower sample --which fig2 --seed 7 --n 2000`, row for row.
"""

import numpy as np

from gipower import (
    from_standard_form,
    gip_closed_form,
    mean_photon_A,
    sample_figure2,
    separable_extremal,
    tmsv,
)

N = 2000
records = sample_figure2(7, N)

separable = [r for r in records if r.separable]
entangled = [r for r in records if not r.separable]
print(f"sampled {N} random states: {len(separable)} separable, {len(entangled)} entangled")

sep_margin = max(r.p_g / r.n_bar_A for r in separable if r.n_bar_A > 1e-6)
ent_margin = max(r.p_g / (r.n_bar_A * (r.n_bar_A + 1)) for r in entangled)
print(f"  largest separable  P / n_bar           = {sep_margin:.6f}  (shot-noise cap: 1)")
print(f"  largest entangled  P / [n_bar(n_bar+1)] = {ent_margin:.6f}  (Heisenberg cap: 1)")

print()
print("separable family d = c = sqrt((a-1)(b-1)) approaches shot noise as b grows (a = 3):")
for b in (10.0, 100.0, 1e3, 1e4):
    cm = from_standard_form(separable_extremal(3.0, b))
    print(f"  b = {b:>8.0f}: P / n_bar = {gip_closed_form(cm).value / mean_photon_A(cm):.6f}")

print()
print("two-mode squeezed vacuum sits exactly on the Heisenberg curve:")
for a in (1.5, 2.0, 4.0):
    cm = from_standard_form(tmsv(a))
    n = mean_photon_A(cm)
    print(f"  a = {a}: n_bar = {n:.3f}, P = {gip_closed_form(cm).value:.6f}, "
          f"n_bar(n_bar+1) = {n * (n + 1):.6f}")

print()
print("coarse scatter summary (power quantiles per photon-number bin):")
bins = np.linspace(0.0, 2.0, 6)
for lo, hi in zip(bins[:-1], bins[1:]):
    chunk = [r.p_g for r in records if lo <= r.n_bar_A < hi]
    if chunk:
        q = np.percentile(chunk, [50, 95, 100])
        print(f"  n_bar in [{lo:.1f}, {hi:.1f}): median {q[0]:.4f}, "
              f"95% {q[1]:.4f}, max {q[2]:.4f}  ({len(chunk)} states)")
