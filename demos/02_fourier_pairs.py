"""Fourier transforms on finite abelian groups and group von Neumann algebras.

Every instance is a pair of tracial algebras (source, dual) with a
transform between their coordinates: the FFT for abelian groups, a dense
matrix and the inversion formula for the others.  For Z_N the source
is N scalar blocks of weight 1 (functions on the group with counting
measure) and the dual is N scalar blocks of weight 1/N (the normalization
that makes the transform a unitary between the two L_2 spaces).  For a
nonabelian group the dual has one matrix block per irreducible
representation, of size n_pi and weight n_pi / |G|.

Run with:  python3 demos/02_fourier_pairs.py
"""

import numpy as np

from ncfourier import (
    build_finite_abelian,
    build_group_vna,
    fourier,
    inverse_fourier,
    lp_norm,
    conjugate_exponent,
    random_element,
    resolve_group,
)

print("=== Z_12 ===")
pair = build_finite_abelian([12])
print(f"source: {pair.source.num_blocks} blocks, weights all {pair.source.weights[0]:g}")
print(f"dual:   {pair.dual.num_blocks} blocks, weights all {pair.dual.weights[0]:g}")

# a point mass at the identity transforms to the constant function 1
delta = pair.source.basis_element(0)
fd = fourier(pair, delta)
coords = fd.row  # the stacked coordinates: blocks raveled row-major
print(f"F(delta_e) has coordinates {np.round(coords.real, 12)[:4]} ... (all 1)")

print()
print("=== Plancherel and inversion, numerically ===")
x = random_element(pair.source, 7)
fx = fourier(pair, x)
back = inverse_fourier(pair, fx)
print(f"| ||F x||_2 - ||x||_2 |      = {abs(lp_norm(fx, 2) - lp_norm(x, 2)):.3e}")
print(f"||F^-1(F x) - x||_2          = {lp_norm(back - x, 2):.3e}")

print()
print("=== Hausdorff-Young ratios on Z_12 ===")
# ||F x||_{p'} <= ||x||_p for 1 <= p <= 2, with constant exactly 1
rng = np.random.default_rng(2)
for p in (1.0, 4.0 / 3.0, 1.5, 2.0):
    pc = conjugate_exponent(p)
    worst = 0.0
    for _ in range(300):
        y = random_element(pair.source, int(rng.integers(2**32)))
        worst = max(worst, lp_norm(fourier(pair, y), pc) / lp_norm(y, p))
    print(f"  p = {p:<5.3g} p' = {pc:<4g} max ratio over 300 draws = {worst:.12f}")

print()
print("=== the symmetric group S3 ===")
gpair = build_group_vna(resolve_group("S3"))
dual = gpair.dual
print(f"dual blocks {dual.dims} with weights {np.round(np.asarray(dual.weights), 6)}")
print("two characters and one 2-dimensional representation; weights n_pi/|G|")

x = random_element(gpair.source, 11)
fx = fourier(gpair, x)
back = inverse_fourier(gpair, fx)
print(f"Plancherel defect  {abs(lp_norm(fx, 2) - lp_norm(x, 2)):.3e}")
print(f"roundtrip defect   {lp_norm(back - x, 2):.3e}")

print()
print("=== transforms see the group, not just its size ===")
# Z_6 and S3 have the same order but different dual shapes
apair = build_finite_abelian([6])
print(f"Z_6 dual blocks {apair.dual.dims}")
print(f"S3  dual blocks {gpair.dual.dims}")
y = random_element(apair.source, 3)
print(f"||F y||_inf on Z_6 dual:  {lp_norm(fourier(apair, y), np.inf):.6f}")
z = random_element(gpair.source, 3)
print(f"||F z||_inf on S3 dual:   {lp_norm(fourier(gpair, z), np.inf):.6f}")
