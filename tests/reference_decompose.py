"""Reference block decomposition on a dense n-section.

Before the exact corner form, ``decompose.structure_decompose`` conjugated
the dense n x n section of T by the corner eigenvectors of T*T (extended by
the natural coordinates past the corner) and read every block off that
section; ``normality_from_blocks`` then judged S1 by the defect of S1 S1* on
the interior of the section and counted its co-rank as the singular values
of the section below 1/2.  Those bodies live on here as an independent
oracle: every block they return that does not depend on n (alpha, the H0
and H2 levels, ||A||, A*A + S2*S2, the eigenvalues of S2, the co-rank) must
equal the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from opspectra.classify import check_an
from opspectra.core import gram


@dataclass(frozen=True)
class SectionBlocks:
    alpha: float
    h0_blocks: tuple          # ((level, unitary), ...)
    h1_dim: int
    S1: np.ndarray
    A: np.ndarray
    h2_blocks: tuple          # ((level, dim), ...)
    S2: np.ndarray
    bandwidth: int


def section_decompose(t, n: int = 128, tol: float = 1e-8) -> SectionBlocks:
    """The blocks of a hyponormal AN operator on its dense n-section."""
    alpha = float(check_an(t).alpha)
    level2 = alpha * alpha
    p = gram(t)
    corner = max(p.corner_size, t.corner_size) + max(p.bandwidth, t.bandwidth) + 1
    if n < 2 * corner + 8:
        raise ValueError(f"section {n} too small for corner {corner}")
    assign = max(tol, 1e-12) * max(1.0, p.magnitude())
    gc = p.truncate(corner) - level2 * np.eye(corner)
    gamma, vecs = np.linalg.eigh(0.5 * (gc + gc.conj().T))

    def embed(cols):
        out = np.zeros((n, len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            out[:corner, j] = vecs[:, i]
        return out

    def grouped(idx, descending):
        pairs = sorted((math.sqrt(max(0.0, level2 + float(gamma[i]))), i)
                       for i in idx)
        groups = []
        for lv, i in pairs:
            if groups and abs(lv - groups[-1][0] / groups[-1][1]) <= 100.0 * tol:
                s, c, mem = groups[-1]
                groups[-1] = (s + lv, c + 1, mem + [i])
            else:
                groups.append((lv, 1, [i]))
        out = [(s / c, mem) for s, c, mem in groups]
        out.sort(key=lambda g: -g[0] if descending else g[0])
        return out

    h0 = grouped([i for i, g in enumerate(gamma) if g > assign], True)
    h2 = grouped([i for i, g in enumerate(gamma) if g < -assign], False)
    null = [i for i, g in enumerate(gamma) if abs(g) <= assign]
    pieces = ([embed(mem) for _, mem in h0]
              + [np.hstack([embed(null), np.eye(n, dtype=complex)[:, corner:]])]
              + [embed(mem) for _, mem in h2])
    basis = np.hstack(pieces)
    starts = np.concatenate([[0], np.cumsum([c.shape[1] for c in pieces])])
    b = basis.conj().T @ t.truncate(n) @ basis

    def block(i, j):
        return b[starts[i]:starts[i + 1], starts[j]:starts[j + 1]]

    k1 = len(h0)
    d1 = pieces[k1].shape[1]
    s1 = block(k1, k1) / alpha if alpha > 1e-14 else np.zeros((d1, d1))
    a = np.hstack([block(k1, k1 + 1 + j) for j in range(len(h2))]
                  or [np.zeros((d1, 0))])
    s2 = (np.block([[block(k1 + 1 + i, k1 + 1 + j) for j in range(len(h2))]
                    for i in range(len(h2))]) if h2 else np.zeros((0, 0)))
    h0_blocks = tuple((lv, block(k, k) / lv) for k, (lv, _) in enumerate(h0))
    return SectionBlocks(alpha, h0_blocks, d1, s1, a,
                         tuple((lv, len(mem)) for lv, mem in h2), s2,
                         t.bandwidth)


def section_normality(sec: SectionBlocks, tol: float = 1e-8):
    """(unitary verdict, co-rank) of S1 from its section: the defect of
    S1 S1* on the interior, and the singular values below 1/2."""
    d1 = sec.h1_dim
    if d1 == 0 or sec.alpha <= 1e-14:
        return True, 0
    bw = max(1, sec.bandwidth)
    lo, hi = bw, max(bw, d1 - bw)
    e = np.eye(d1) - sec.S1 @ sec.S1.conj().T
    interior = float(np.linalg.norm(e[lo:hi, lo:hi], 2)) if hi > lo else 0.0
    corank = int(np.count_nonzero(np.linalg.svd(sec.S1, compute_uv=False) < 0.5))
    return interior <= max(tol, 1e-8) and corank == 0, corank
