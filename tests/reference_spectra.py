"""Reference isolated eigenvalues from dense truncations.

Before the Schur-complement engine, ``classify._region_clusters`` took the
eigenvalues of the dense n and 2n sections, kept those selected by a
predicate, and accepted the clusters when both sizes agreed.  That body
lives on here as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from opspectra.numerics import _auto_trunc, _clusters_match, cluster_values


def region_clusters_by_sections(t, keep, trunc=None, tol=1e-8, hermitian=False):
    """Clusters of section eigenvalues selected by ``keep`` (an elementwise
    predicate) at sizes n and 2n, and whether the two lists agree."""
    n = trunc if trunc is not None else _auto_trunc(t)

    def at(size):
        m = t.truncate(size)
        vals = np.linalg.eigvalsh(m) if hermitian else np.linalg.eigvals(m)
        return cluster_values([complex(v) for v in vals[keep(vals)]],
                              100.0 * tol)

    a = at(n)
    b = at(2 * n)
    return b, _clusters_match(a, b, tol)
