"""Block decomposition of hyponormal absolutely norm attaining operators.

The structure theorem writes such an operator as

    T = (+)_i lambda_i U_i  (+)  [[alpha S1, A], [0, S2]]  on  H0 (+) H1 (+) H2,

with every U_i unitary, S1 an isometry, and H0, H2 finite-dimensional.  In
the representable class T*T = alpha^2 I + F, with F inside the leading M x M
window B of T*T.  So every block is finite or structured:

- H0 and H2 are spanned by the eigenvectors of B - alpha^2 above and below 0;
- H1 is spanned by the r null vectors of B - alpha^2 and e_M, e_(M+1), ...;
- in that basis, S1 = T|H1 / alpha is a StructuredOperator with tails a/alpha;
- A and S2 are finite matrices.

With E = diag(V, I), V the ordered corner eigenvectors, every block entry
that is not a tail of S1 is an entry of the leading L x L section of E* T E,
L = max(M, len(t.window)) + 2 bandwidth + 1: outside it, E* T E only
couples e_j to e_k for j, k >= M, through the tails of T.  Nothing is
truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import Verdict, check_an, check_hyponormal, check_normal
from .core import StructuredOperator, gram, identity
from .errors import (DimensionMismatch, NotHyponormal, NotNormAttainingClass,
                     TemplateMismatch)
from .numerics import MERGE_FACTOR, _greedy_clusters, frobenius_within, hermitian_eig
from .symbols import symbol, winding

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
    """Exact block data of the structure decomposition.

    ``basis`` is the M x M unitary of corner eigenvectors, its columns
    ordered H0 (by level, descending), the null vectors, H2 (ascending).
    ``S1`` acts on H1 in the basis [null vectors, e_M, e_(M+1), ...]; ``A``
    maps H2 into the leading rows of that basis.  ``h1_dim`` is
    dim(H1 within C^trunc) when a section size ``trunc`` was given, else
    None (H1 is infinite-dimensional).

    Block invariants (checked by verify_decomposition): every H0 unitary is
    unitary within tol; S1 is an isometry; S1* A = 0; A*A + S2*S2 equals the
    direct sum of delta_j^2 times identities on the H2 level blocks.
    """

    alpha: float
    h0_blocks: tuple
    h1_dim: int | None
    S1: StructuredOperator
    A: np.ndarray
    h2_blocks: tuple
    S2: np.ndarray
    basis: np.ndarray
    case_label: str
    trunc: int | None

    @property
    def h0_dim(self) -> int:
        return sum(b.dim for b in self.h0_blocks)

    @property
    def h2_dim(self) -> int:
        return sum(d for _, d in self.h2_blocks)

    @property
    def null_dim(self) -> int:
        """r, the number of corner null vectors at the head of H1."""
        return len(self.basis) - self.h0_dim - self.h2_dim


def _section(t: StructuredOperator, basis: np.ndarray, h0_dim: int,
             null_dim: int):
    """The leading L x L section of E* T E with E's columns in block order
    (H0, H1 = [null vectors, e_M, ..., e_(L-1)], H2), and the size of its
    H1 block."""
    m = len(basis)
    size = max(m, len(t.window)) + 2 * t.bandwidth + 1
    split, tail = h0_dim + null_dim, size - m
    e = np.zeros((size, size), dtype=complex)
    e[:m, :split] = basis[:, :split]
    e[m:, split:split + tail] = np.eye(tail)
    e[:m, split + tail:] = basis[:, split:]
    return e.conj().T @ t.truncate(size) @ e, null_dim + tail


def structure_decompose(t: StructuredOperator, n: int | None = None,
                        tol: float = 1e-8) -> BlockDecomposition:
    """Build the exact block form of a hyponormal AN operator.

    The essential level alpha comes from the (exact) constant symbol level of
    T*T; the eigenvectors of its M x M window only assign directions to
    levels.  ``n`` only names a section C^n in which ``h1_dim`` is counted;
    it must cover the window.  Frobenius norms clear blocks before any SVD.
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
    m = len(p.window)
    if n is not None and n < m:
        raise DimensionMismatch(
            f"section {n} is smaller than the {m} x {m} window of T*T")
    assign = max(tol, 1e-12) * max(1.0, p.magnitude())
    gamma, vecs = np.zeros(0), np.zeros((0, 0), dtype=complex)
    if m:
        # past the window T*T is level2 * I (its symbol is constant)
        gc = p.window - level2 * np.eye(m)
        es = hermitian_eig(0.5 * (gc + gc.conj().T))
        gamma, vecs = es.values, es.vectors

    def grouped(idx, descending):
        pairs = sorted((math.sqrt(max(0.0, level2 + float(gamma[i]))), i)
                       for i in idx)
        return sorted(_greedy_clusters(pairs, MERGE_FACTOR * tol),
                      key=lambda g: -g[0] if descending else g[0])

    h0_groups = grouped([i for i, g in enumerate(gamma) if g > assign], True)
    h2_groups = grouped([i for i, g in enumerate(gamma) if g < -assign], False)
    null_idx = [i for i, g in enumerate(gamma) if abs(g) <= assign]
    basis = vecs[:, [i for _, mem in h0_groups for i in mem] + null_idx
                 + [i for _, mem in h2_groups for i in mem]]
    h0_dim = sum(len(mem) for _, mem in h0_groups)

    b, d1 = _section(t, basis, h0_dim, len(null_idx))
    sizes = ([len(mem) for _, mem in h0_groups] + [d1]
             + [len(mem) for _, mem in h2_groups])
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    h1_pos = len(h0_groups)

    def block(i, j):
        return b[starts[i]:starts[i + 1], starts[j]:starts[j + 1]]

    # template: H0 groups are reducing and mutually orthogonal; everything
    # below the (H1, H2) column stack vanishes.  Allowed: diagonal blocks,
    # the A strip (H1 rows over H2 columns), and anything inside the H2
    # square (S2 may couple its level groups)
    off = [(i, j) for i in range(len(sizes)) for j in range(len(sizes))
           if not (i == j or (i >= h1_pos and j > h1_pos))]
    # b's largest column norm is at most ||b||_2, so a block within the low
    # gate is within the gate: ||b||_2 is taken only when some block is not
    rel = max(tol, 1e-8)
    low = rel * max(1.0, float(np.linalg.norm(b, axis=0).max(initial=0.0)))
    if not all(frobenius_within(block(i, j), low) for i, j in off):
        gate = rel * max(1.0, float(np.linalg.norm(b, 2)))
        norms = {(i, j): float(np.linalg.norm(block(i, j), 2)) for i, j in off
                 if not frobenius_within(block(i, j), gate)}
        offenders = {k: v for k, v in norms.items() if v > gate}
        if offenders:
            raise TemplateMismatch(
                f"block zero pattern violated beyond {gate:.3e}", offenders)

    h0_blocks = []
    for k, (level, members) in enumerate(h0_groups):
        u = block(k, k) / level
        gap, limit = u.conj().T @ u - np.eye(len(members)), max(100.0 * tol, 1e-8)
        defect = 0.0 if frobenius_within(gap, limit) else float(np.linalg.norm(gap, 2))
        if defect > limit:
            raise TemplateMismatch(
                f"upper level {level:.6g} block is not a scaled unitary "
                f"(defect {defect:.3e})", {("h0", k): defect})
        h0_blocks.append(H0Block(level, len(members), u))

    # with alpha = 0, T vanishes on H1 and any isometry serves as S1
    s1 = (StructuredOperator._of(t.tails / alpha, block(h1_pos, h1_pos) / alpha)
          if alpha > 1e-14 else identity())
    h2 = range(h1_pos + 1, len(sizes))
    a_block = np.hstack([block(h1_pos, j) for j in h2]
                        or [np.zeros((d1, 0), dtype=complex)])
    s2 = (np.block([[block(i, j) for j in h2] for i in h2]) if h2_groups
          else np.zeros((0, 0), dtype=complex))
    # dim(H1 within C^n) = n - dim H0 - dim H2 = n - m + r
    return BlockDecomposition(
        alpha, tuple(h0_blocks), None if n is None else n - m + len(null_idx),
        s1, a_block, tuple((lv, len(members)) for lv, members in h2_groups),
        s2, basis, CASE_EIGEN_INF if h0_blocks else CASE_NORM, n)


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
    """Re-check every block invariant; failures are reported as residuals.

    ``reconstruction`` compares the blocks, placed in the zero template,
    with the L x L section of E* T E, which holds every entry of T outside
    H1's Toeplitz part; ``s1_isometry`` is the largest entry of S1*S1 - I,
    computed exactly on the structured S1.
    """
    if n is not None and n != dec.trunc:
        raise ValueError("decomposition was produced for a different section")
    basis = dec.basis
    b, d1 = _section(t, basis, dec.h0_dim, dec.null_dim)
    res = {"basis_orthonormality": float(np.linalg.norm(
        basis.conj().T @ basis - np.eye(len(basis)), 2)) if len(basis) else 0.0}

    template = np.zeros_like(b)
    lo = 0
    for k, blk in enumerate(dec.h0_blocks):
        template[lo:lo + blk.dim, lo:lo + blk.dim] = blk.level * blk.unitary
        res[f"h0_{k}_unitarity"] = float(np.linalg.norm(
            blk.unitary.conj().T @ blk.unitary - np.eye(blk.dim), 2))
        lo += blk.dim
    hi = lo + d1
    s1 = dec.S1.truncate(d1)
    template[lo:hi, lo:hi] = dec.alpha * s1
    template[lo:hi, hi:] = dec.A
    template[hi:, hi:] = dec.S2
    res["reconstruction"] = float(np.linalg.norm(b - template, 2))

    res["s1_isometry"] = (gram(dec.S1) - identity()).magnitude()
    # the section's A vanishes past row r + bandwidth < d1 - bandwidth (and
    # reconstruction holds dec.A to it), so S1's leading d1 x d1 block gives
    # all of S1* A
    res["s1_star_a"] = float(np.linalg.norm(s1.conj().T @ dec.A, 2)) \
        if dec.A.size else 0.0

    d2 = dec.h2_dim
    if d2:
        target = np.diag(np.concatenate([np.full(dim, level * level)
                                         for level, dim in dec.h2_blocks]))
        gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
        res["h2_gram"] = float(np.linalg.norm(gram_h2 - target, 2))
    else:
        res["h2_gram"] = 0.0

    a_norm = float(np.linalg.norm(dec.A, 2)) if dec.A.size else 0.0
    # ||b||_2 >= b's largest column norm; only a worse residual needs its SVD
    worst = float(np.max(list(res.values())))
    ok = (worst <= tol * max(1.0, float(np.max(np.linalg.norm(b, axis=0))) * (1.0 - 1e-8))
          or worst <= tol * max(1.0, float(np.linalg.norm(b, 2))))
    return VerificationRecord(res, a_norm, ok)


@dataclass(frozen=True)
class BlockNormalityRecord:
    verdict: Verdict
    isometry_defect: float
    corank: int
    cross_check: Verdict | None


def normality_from_blocks(dec: BlockDecomposition,
                          operator: StructuredOperator | None = None) -> BlockNormalityRecord:
    """Normal iff the isometry S1 is unitary, iff its co-rank
    dim ker S1* = -index(S1) = winding(a / alpha, 0) is 0.

    ``isometry_defect`` is the largest entry of S1*S1 - I; the verdict is
    "yes" when the co-rank is 0 and that defect is within 1e-8.
    """
    cross = check_normal(operator).verdict if operator is not None else None
    defect = (gram(dec.S1) - identity()).magnitude()
    corank = winding(symbol(dec.S1), 0.0)
    verdict = Verdict.YES if corank == 0 and defect <= 1e-8 else Verdict.NO
    return BlockNormalityRecord(verdict, defect, corank, cross)


@dataclass(frozen=True)
class InclusionRecord:
    checked: int
    violators: tuple
    all_inside: bool


def spectrum_inclusion_check(t: StructuredOperator,
                             dec: BlockDecomposition) -> InclusionRecord:
    """The finite spectra the triangular form allows: lambda_i eig(U_i) on
    the circle of radius lambda_i, and eig(S2) in the closed alpha-disc,
    each within 1e-6 max(1, magnitude of T).  The spectrum of alpha S1 lies
    in that disc because S1 is an isometry."""
    slack = 1e-6 * max(1.0, t.magnitude())
    violators = [complex(v) for blk in dec.h0_blocks
                 for v in blk.level * np.linalg.eigvals(blk.unitary)
                 if abs(abs(v) - blk.level) > slack]
    violators += [complex(v) for v in np.linalg.eigvals(dec.S2)
                  if abs(v) > dec.alpha + slack]
    return InclusionRecord(dec.h0_dim + dec.h2_dim, tuple(violators),
                           not violators)
