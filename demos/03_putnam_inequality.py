"""Putnam's inequality: for hyponormal T the self-commutator norm is at most
Area(spectrum)/pi.  The right shift attains equality; normal operators sit at
zero on both sides unless the spectrum has positive area.

Run:  python demos/03_putnam_inequality.py
"""

import numpy as np

import opspectra as osp
from opspectra.specfiles import BUNDLED, load_bundled
from opspectra.suites import random_hyponormal

print(f"{'operator':<28s} {'||[T*,T]||':>12s} {'area/pi':>12s} {'holds':>6s}")

for name in BUNDLED:
    t = load_bundled(name).operator
    rec = osp.putnam_check(t, assume_hyponormal=True)
    print(f"{name:<28s} {rec.commutator_norm:12.6f} {rec.area_over_pi:12.6f}"
          f" {str(rec.holds):>6s}")

rng = np.random.default_rng(7)
for i in range(8):
    t = random_hyponormal(rng)
    rec = osp.putnam_check(t, assume_hyponormal=True)
    print(f"{'random hyponormal ' + str(i):<28s} {rec.commutator_norm:12.6f}"
          f" {rec.area_over_pi:12.6f} {str(rec.holds):>6s}")

print("\nA consequence: a hyponormal AN operator whose symbol winds around "
      "nothing (Weyl spectrum equals the essential spectrum) must be normal.")
for name in ("unitary_diag", "right_shift"):
    rec = osp.weyl_normality_criterion(load_bundled(name).operator)
    print(f"  {name}: windings {rec.component_windings or '()'} -> "
          f"{'normality forced and confirmed' if rec.holds else 'criterion not applicable'}")
