"""Block decomposition of hyponormal norm-attaining operators at a truncation.

For operators in the representable class, T*T equals (essential level)^2 times
the identity plus a finite-rank part, so every eigenvector for an eigenvalue
away from the essential level is supported exactly in a finite corner.  The
corner is diagonalized once; the essential eigenspace basis keeps the natural
coordinate tail so that the isometry defect of the compressed shift stays in
the last columns, where interior-block tests can ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Verdict, check_an, check_hyponormal, check_normal
from .core import StructuredOperator, gram
from .errors import NotHyponormal, NotNormAttainingClass, TemplateMismatch
from .numerics import hermitian_eig

CASE_NORM = "lambda_equals_norm"
CASE_EIGEN_INF = "case1"


@dataclass(frozen=True)
class H0Block:
    """One level above the essential one: lambda_i times a unitary."""

    level: float
    dim: int
    unitary: np.ndarray


@dataclass(frozen=True)
class BlockDecomposition:
    """Truncated block data of the structure decomposition.

    Block invariants (checked by verify_decomposition):
    every H0 unitary is unitary within tol; S1 is isometric on the interior
    columns; S1* A = 0; A*A + S2*S2 equals the direct sum of delta_j^2 times
    identities on the H2 level blocks.
    """

    alpha: float
    h0_blocks: tuple
    h1_dim: int
    S1: np.ndarray
    A: np.ndarray
    h2_blocks: tuple
    S2: np.ndarray
    basis: np.ndarray
    case_label: str
    trunc: int
    bandwidth: int

    @property
    def h0_dim(self) -> int:
        return sum(b.dim for b in self.h0_blocks)

    @property
    def h2_dim(self) -> int:
        return sum(d for _, d in self.h2_blocks)


def structure_decompose(t: StructuredOperator, n: int = 128,
                        tol: float = 1e-8) -> BlockDecomposition:
    """Build the three-space block form of a hyponormal AN operator.

    The essential level alpha comes from the (exact) constant symbol level of
    T*T; corner eigenvectors only assign directions to levels.
    """
    hy = check_hyponormal(t)
    if hy.verdict is not Verdict.YES:
        raise NotHyponormal(f"hyponormality verdict: {hy.verdict} ({hy.witness})")
    an = check_an(t)
    if an.verdict is not Verdict.YES:
        raise NotNormAttainingClass(
            f"absolutely-norm-attaining verdict: {an.verdict} ({an.witness})")
    alpha = float(an.alpha)
    level2 = alpha * alpha

    p = gram(t)
    corner = max(p.corner_size, t.corner_size) + max(p.bandwidth, t.bandwidth) + 1
    if n < 2 * corner + 8:
        raise ValueError(
            f"truncation {n} too small for corner {corner}; use n >= {2 * corner + 8}")

    scale2 = max(1.0, p.magnitude())
    assign = max(tol, 1e-12) * scale2
    # past the corner T*T is level2 * I (its symbol is constant), so a larger
    # corner adds only eigenvalues at 0 of T*T - level2 * I
    gc = p.truncate(corner) - level2 * np.eye(corner)
    es = hermitian_eig(0.5 * (gc + gc.conj().T), tol=1e-8)
    gamma, vecs = es.values, es.vectors

    null_idx = [i for i, g in enumerate(gamma) if abs(g) <= assign]
    up_idx = [i for i, g in enumerate(gamma) if g > assign]
    down_idx = [i for i, g in enumerate(gamma) if g < -assign]

    def embed(cols):
        out = np.zeros((n, len(cols)), dtype=complex)
        for j, i in enumerate(cols):
            out[:corner, j] = vecs[:, i]
        return out

    def grouped(idx, descending):
        pairs = sorted((math.sqrt(max(0.0, level2 + float(gamma[i]))), i)
                       for i in idx)
        gap = 100.0 * tol
        groups = []
        for lv, i in pairs:
            if groups and abs(lv - groups[-1][0] / groups[-1][1]) <= gap:
                s, c, mem = groups[-1]
                groups[-1] = (s + lv, c + 1, mem + [i])
            else:
                groups.append((lv, 1, [i]))
        out = [(s / c, mem) for s, c, mem in groups]
        out.sort(key=lambda g: -g[0] if descending else g[0])
        return out

    h0_groups = grouped(up_idx, descending=True)
    h2_groups = grouped(down_idx, descending=False)

    h0_cols = [embed(members) for _, members in h0_groups]
    h1_cols = np.hstack([embed(null_idx),
                         np.eye(n, dtype=complex)[:, corner:]])
    h2_cols = [embed(members) for _, members in h2_groups]

    pieces = h0_cols + [h1_cols] + h2_cols
    basis = np.hstack(pieces)
    sizes = [c.shape[1] for c in pieces]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n_h0 = len(h0_groups)
    h1_pos = n_h0
    d1 = sizes[h1_pos]

    m = t.truncate(n)
    b = basis.conj().T @ m @ basis
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    gate = max(tol, 1e-8) * scale

    def block(i, j):
        return b[starts[i]:starts[i + 1], starts[j]:starts[j + 1]]

    # template: H0 groups are reducing and mutually orthogonal; everything
    # below the (H1, H2) column stack vanishes
    offenders = {}
    total = len(sizes)
    for i in range(total):
        for j in range(total):
            # allowed: diagonal blocks, the A strip (H1 rows over H2
            # columns), and anything inside the H2 square (S2 may couple
            # its level groups)
            on_template = (i == j
                           or (i == h1_pos and j > h1_pos)
                           or (i > h1_pos and j > h1_pos))
            if on_template:
                continue
            sub = block(i, j)
            norm = float(np.linalg.norm(sub, 2)) if min(sub.shape) else 0.0
            if norm > gate:
                offenders[(i, j)] = norm
    if offenders:
        raise TemplateMismatch(
            f"block zero pattern violated beyond {gate:.3e}", offenders)

    h0_blocks = []
    for k, (level, members) in enumerate(h0_groups):
        sub = block(k, k)
        u = sub / level if level > 0 else sub
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(len(members)), 2))
        if defect > max(100.0 * tol, 1e-8):
            raise TemplateMismatch(
                f"upper level {level:.6g} block is not a scaled unitary "
                f"(defect {defect:.3e})", {("h0", k): defect})
        h0_blocks.append(H0Block(level, len(members), u))

    s1 = block(h1_pos, h1_pos) / alpha if alpha > 1e-14 else \
        np.zeros((d1, d1), dtype=complex)
    if h2_groups:
        a_block = np.hstack([block(h1_pos, h1_pos + 1 + j)
                             for j in range(len(h2_groups))])
        s2 = np.block([[block(h1_pos + 1 + i, h1_pos + 1 + j)
                        for j in range(len(h2_groups))]
                       for i in range(len(h2_groups))])
    else:
        a_block = np.zeros((d1, 0), dtype=complex)
        s2 = np.zeros((0, 0), dtype=complex)

    case = CASE_NORM if not h0_blocks else CASE_EIGEN_INF
    return BlockDecomposition(
        alpha, tuple(h0_blocks), d1, s1, a_block,
        tuple((lv, len(members)) for lv, members in h2_groups),
        s2, basis, case, n, t.bandwidth)


@dataclass(frozen=True)
class VerificationRecord:
    residuals: dict
    a_norm: float
    ok: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def verify_decomposition(dec: BlockDecomposition, t: StructuredOperator,
                         n: int | None = None, tol: float = 1e-6) -> VerificationRecord:
    """Re-check every block invariant; failures are reported as residuals."""
    n = n if n is not None else dec.trunc
    if n != dec.trunc:
        raise ValueError("decomposition was produced at a different truncation")
    m = t.truncate(n)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    res = {}

    basis = dec.basis
    res["basis_orthonormality"] = float(
        np.linalg.norm(basis.conj().T @ basis - np.eye(n), 2))

    # reconstruction through the zeroed template
    b = basis.conj().T @ m @ basis
    template = np.zeros_like(b)
    blocks = [blk.dim for blk in dec.h0_blocks] + [dec.h1_dim] + \
        [d for _, d in dec.h2_blocks]
    starts = np.concatenate([[0], np.cumsum(blocks)]).astype(int)
    n_h0 = len(dec.h0_blocks)
    h1_lo, h1_hi = starts[n_h0], starts[n_h0 + 1]
    for k in range(n_h0):
        lo, hi = starts[k], starts[k + 1]
        template[lo:hi, lo:hi] = b[lo:hi, lo:hi]
    template[h1_lo:h1_hi, h1_lo:] = b[h1_lo:h1_hi, h1_lo:]
    template[h1_hi:, h1_hi:] = b[h1_hi:, h1_hi:]
    res["reconstruction"] = float(
        np.linalg.norm(basis @ template @ basis.conj().T - m, 2)) / scale

    for k, blk in enumerate(dec.h0_blocks):
        res[f"h0_{k}_unitarity"] = float(np.linalg.norm(
            blk.unitary.conj().T @ blk.unitary - np.eye(blk.dim), 2))

    d1 = dec.h1_dim
    cut = max(0, d1 - max(1, dec.bandwidth))
    if d1 and dec.alpha > 1e-14:
        e = dec.S1.conj().T @ dec.S1 - np.eye(d1)
        res["s1_isometry_interior"] = float(np.linalg.norm(e[:cut, :cut], 2))
    else:
        res["s1_isometry_interior"] = 0.0

    if dec.A.size:
        res["s1_star_a"] = float(np.linalg.norm(dec.S1.conj().T @ dec.A, 2))
    else:
        res["s1_star_a"] = 0.0

    d2 = dec.h2_dim
    if d2:
        target = np.zeros((d2, d2), dtype=complex)
        pos = 0
        for level, dim in dec.h2_blocks:
            target[pos:pos + dim, pos:pos + dim] = (level * level) * np.eye(dim)
            pos += dim
        gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
        res["h2_gram"] = float(np.linalg.norm(gram_h2 - target, 2))
    else:
        res["h2_gram"] = 0.0

    a_norm = float(np.linalg.norm(dec.A, 2)) if dec.A.size else 0.0
    ok = all(v <= tol * max(1.0, scale) for v in res.values())
    return VerificationRecord(res, a_norm, ok)


@dataclass(frozen=True)
class BlockNormalityRecord:
    verdict: Verdict
    interior_defect: float
    corank: int
    cross_check: Verdict | None


def normality_from_blocks(dec: BlockDecomposition, tol: float = 1e-8,
                          operator: StructuredOperator | None = None) -> BlockNormalityRecord:
    """Normal iff the essential-level compression is unitary.

    A truncated proper isometry looks unitary except at the boundary, so the
    defect is measured on the interior block and combined with a co-rank
    estimate from the singular values of the full block; co-rank zero plus a
    clean interior is the unitary verdict.
    """
    cross = check_normal(operator, max(tol, 1e-8)).verdict if operator is not None else None
    d1 = dec.h1_dim
    if d1 == 0 or dec.alpha <= 1e-14:
        return BlockNormalityRecord(Verdict.YES, 0.0, 0, cross)
    bw = max(1, dec.bandwidth)
    lo, hi = bw, max(bw, d1 - bw)
    e = np.eye(d1) - dec.S1 @ dec.S1.conj().T
    interior = float(np.linalg.norm(e[lo:hi, lo:hi], 2)) if hi > lo else 0.0
    svals = np.linalg.svd(dec.S1, compute_uv=False)
    corank = int(np.count_nonzero(svals < 0.5))
    verdict = Verdict.YES if (interior <= max(tol, 1e-8) and corank == 0) \
        else Verdict.NO
    return BlockNormalityRecord(verdict, interior, corank, cross)


@dataclass(frozen=True)
class InclusionRecord:
    checked: int
    violators: tuple
    all_inside: bool


def spectrum_inclusion_check(t: StructuredOperator, dec: BlockDecomposition,
                             n: int | None = None, tol: float = 1e-6) -> InclusionRecord:
    """Truncation eigenvalues must sit in the closed alpha-disc or on one of
    the upper-level circles (inflated by tol); stragglers are reported as
    truncation artifacts."""
    n = n if n is not None else dec.trunc
    vals = np.linalg.eigvals(t.truncate(n))
    upper = [blk.level for blk in dec.h0_blocks]
    violators = []
    for v in vals:
        r = abs(v)
        if r <= dec.alpha + tol:
            continue
        if any(abs(r - lv) <= tol for lv in upper):
            continue
        violators.append(complex(v))
    return InclusionRecord(len(vals), tuple(violators), not violators)
