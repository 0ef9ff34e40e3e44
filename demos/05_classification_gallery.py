"""Classification gallery: membership tests over a spread of operators,
including the exact diagonal oracle and the paranormal-pair implication.

Run:  python demos/05_classification_gallery.py
"""

import numpy as np

import opspectra as osp
from opspectra.specfiles import BUNDLED, load_bundled
from opspectra.suites import diagonal_oracle, random_diagonal

print(f"{'operator':<22s} {'normal':>8s} {'hypo':>8s} {'para':>8s} "
      f"{'AN':>8s} {'alpha':>8s}")
gallery = {name: load_bundled(name).operator for name in BUNDLED}
gallery["adjoint shift"] = osp.right_shift().adjoint()
gallery["nilpotent corner"] = osp.from_dense_corner(
    np.array([[0.0, 0.0], [1.0, 0.0]]))

for name, op in gallery.items():
    r = osp.classify(op)
    alpha = f"{r.alpha:.3f}" if r.alpha is not None else "-"
    print(f"{name:<22s} {r.is_normal.value:>8s} {r.is_hyponormal.value:>8s} "
          f"{r.is_paranormal.value:>8s} {r.is_AN.value:>8s} {alpha:>8s}")

# Diagonals admit an exact oracle: the spectrum is the prefix plus the tail,
# so interior/annulus point counts are pure bookkeeping.
print("\ndiagonal oracle spot check (seeded):")
rng = np.random.default_rng(0)
for i in range(4):
    op = random_diagonal(rng, max_prefix=4)
    oracle = diagonal_oracle(op)
    eq = osp.check_an_normal_equivalence(op)
    print(f"  sample {i}: alpha={oracle['alpha']:.3f} "
          f"interior oracle={len(oracle['interior'])} "
          f"checker={sum(m for _, m in eq.interior_points)} "
          f"agree={eq.agree}")

# If T and its adjoint are both paranormal and T is AN, normality follows.
# Each paranormality premise says how it was decided: "pencil" (exact, for
# a symbol c z^k) or "grid" (a falsifier only).
print("\nparanormal-pair implication:")
for name in ("unitary_diag", "right_shift"):
    op = gallery[name]
    rec = osp.paranormal_pair_normality(op)
    methods = [osp.check_paranormal(x).witness["method"]
               for x in (op, op.adjoint())]
    status = ("premises hold, normality confirmed" if rec.holds
              else "vacuous (premises fail)")
    print(f"  {name}: {status} (T: {rec.paranormal.value} by {methods[0]}, "
          f"T*: {rec.adjoint_paranormal.value} by {methods[1]})")
