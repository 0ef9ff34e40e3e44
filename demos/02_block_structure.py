"""Block structure of hyponormal norm-attaining operators.

Every such operator splits over three subspaces: finitely many scaled
unitaries above the essential level, a scaled isometry S1 on the essential
eigenspace H1, and a finite block below it coupled through a single strip A
with S1* A = 0 and A*A + S2*S2 a direct sum of level squares.  Every block
comes from the M x M window of T*T, with nothing truncated: H1 is spanned by
the r corner null vectors and e_M, e_(M+1), ..., and S1 is a structured
operator there, whose co-rank is the winding of the symbol about 0.

Run:  python demos/02_block_structure.py
"""

import numpy as np

import opspectra as osp
from opspectra.specfiles import load_bundled


def show(name):
    t = load_bundled(name).operator
    dec = osp.structure_decompose(t)
    rec = osp.verify_decomposition(dec, t)
    print(f"== {name} ==")
    print(f"  essential level alpha = {dec.alpha:g}, case {dec.case_label}")
    for blk in dec.h0_blocks:
        print(f"  upper level {blk.level:g} with dim {blk.dim} (unitary block)")
    print(f"  essential eigenspace: {dec.null_dim} corner null vectors, "
          f"then e_j for j >= {len(dec.basis)}")
    print(f"  S1 tails {np.round(dec.S1.tails, 6)}, "
          f"window {dec.S1.window.shape[0]} x {dec.S1.window.shape[1]}")
    for level, dim in dec.h2_blocks:
        print(f"  lower level {level:g} with dim {dim}")
    print(f"  ||A|| = {rec.a_norm:g}")
    if dec.h2_dim:
        print("  S2 block:")
        print(np.round(dec.S2, 6))
        gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
        print("  A*A + S2*S2 (must be the level squares):")
        print(np.round(gram_h2.real, 9))
    print(f"  worst residual {rec.max_residual:.2e}")
    verdict = osp.normality_from_blocks(dec, operator=t)
    print(f"  S1 unitary? {verdict.verdict.value} (corank {verdict.corank}) "
          f"=> normal iff yes\n")


# A shift with a damped two-dimensional head: non-normal, the A strip is rank
# one with norm 1/2, and the essential block is a proper isometry (corank 1).
show("defect_shift")

# A doubled shift with a nilpotent head: the lower block squares to zero.
show("nilpotent_head_shift")

# A tripled shift with a diagonal head: the lower Gram is diag(1, 4).
show("diagonal_head_shift")

# A unitary diagonal: everything lives at the essential level, S1 is unitary,
# and the operator is normal.
show("unitary_diag")
