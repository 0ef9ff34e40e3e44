"""Tour of the right shift: the standard example of a non-normal operator
that still attains its norm on every closed subspace.

Run:  python demos/01_right_shift_tour.py
"""

import numpy as np

import opspectra as osp

r = osp.right_shift()

print("matrix corner of R:")
print(r.truncate(4).real)

# R is an isometry: R*R is exactly the identity, while RR* misses |e0><e0|.
print("\nR*R == I:", osp.gram(r) == osp.identity())
commutator = osp.self_commutator(r)
print("self-commutator corner (rank one, positive):")
print(commutator.truncate(3).real)

# The band tails form the symbol a(z) = z; its curve is the unit circle and
# carries all essential-spectral information.
curve = osp.essential_spectrum(r)
print("\nessential spectrum is a circle of radius", curve.is_circle)
print("winding of the symbol around 0:", osp.winding(osp.symbol(r), 0))
print("Fredholm index at 0:", osp.fredholm_index(r, 0))
print("index cross-check from truncation null spaces:",
      osp.index_by_truncation(r, 0, 256))

print("\nnorm:", osp.operator_norm(r))
print("minimum modulus:", osp.min_modulus(r))
print("essential minimum modulus:", osp.ess_min_modulus(r))

# The filled-in spectrum is the whole closed unit disc.
area = osp.spectral_area(r)
print(f"\nspectral area {area.value:.4f} (pi is {np.pi:.4f}, "
      f"error bound {area.error:.4f})")

report = osp.classify(r)
print("\nclassification:")
for label in ("is_normal", "is_hyponormal", "is_paranormal", "is_AN"):
    print(f"  {label:<15s}", getattr(report, label).value)
print("  alpha          ", report.alpha)
