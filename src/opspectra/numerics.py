"""Desk-scale numerics on truncations.

Eigenvalue extraction below the essential level relies on two facts about the
representable class: truncations of a self-adjoint operator have spectrum
inside the numerical range of the full operator (no pollution below the
bottom), and discrete eigenvalues below the essential minimum have localized
eigenvectors, so an n vs 2n agreement check certifies stabilization.  No
rigorous enclosure is attempted; an unstable family is reported as such
rather than counted.  Whether a truncation has any eigenvalue below a level
is decided by a banded Cholesky factorization, so eigenvalues are computed
only when something lies below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, eig_banded

from .core import StructuredOperator, gram, memoized, selfadjoint_defect
from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotStabilized
from .symbols import _laurent_roots, symbol, symbol_max_modulus

TRUNC_CAP = 4096
MERGE_FACTOR = 100.0        # eigenvalues within 100*tol are one cluster


@dataclass(frozen=True)
class EigenSystem:
    """Full Hermitian eigendecomposition with a residual certificate."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # orthonormal columns
    residual: float             # max ||Mv - lambda v|| / ||M||


@dataclass(frozen=True)
class DiscreteEigenReport:
    """Eigenvalues found strictly below the queried bound.

    stabilized is False when the n and 2n truncation lists disagreed up to
    the size cap; the best-effort list from the larger truncation is kept.
    near_boundary counts eigenvalues within tol of the bound, which are
    assigned to the essential level rather than listed.
    """

    eigenvalues: tuple          # ((value, multiplicity), ...)
    stabilized: bool
    sizes_used: tuple
    near_boundary: int = 0


def hermitian_eig(matrix, tol: float = 1e-8) -> EigenSystem:
    """Full spectrum of a dense Hermitian matrix (accuracy contract only)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if n > TRUNC_CAP:
        raise ValueError(f"matrix size {n} exceeds the {TRUNC_CAP} cap")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
        raise NotHermitian("matrix is not Hermitian to 1e-12")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    norm2 = float(np.max(np.abs(values))) if n else 0.0
    raw = float(np.max(np.linalg.norm(m @ vectors - vectors * values, axis=0)))
    residual = raw / norm2 if norm2 > 0 else 0.0
    if residual > tol:
        raise ConvergenceFailure(f"residual {residual:.3e} exceeds tol {tol:.3e}")
    return EigenSystem(values, vectors, residual)


def svd_polar(matrix):
    """Polar factors (V, P) with M = V P, P = sqrt(M*M) positive semidefinite.

    V is a partial isometry with initial space range(P): it is zero on the
    numerical null space rather than completed to a unitary.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    try:
        u, s, wh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    cutoff = (s[0] if s.size else 0.0) * max(m.shape) * np.finfo(float).eps
    r = int(np.count_nonzero(s > cutoff))
    v = u[:, :r] @ wh[:r, :]
    p = (wh.conj().T * s) @ wh
    p = 0.5 * (p + p.conj().T)
    return v, p


def isometry_extension(v, tol: float = 1e-9) -> np.ndarray:
    """Extend a partial isometry V to an isometry S = V + W.

    W maps null(V) isometrically onto a subspace of range(V)-perp.  At a
    square truncation both defect spaces have equal dimension; a genuine
    shortfall (wide rectangular input) is a truncation artifact and raises
    DimensionMismatch with the suggestion to enlarge the section.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    e = v.conj().T @ v
    if float(np.max(np.abs(e @ e - e))) > max(tol, 1e-9):
        raise ValueError("input is not a partial isometry (V*V not a projection)")
    u, s, wh = np.linalg.svd(v)
    small = s < 0.5

    def canonical_phase(col):
        lead = col[int(np.argmax(np.abs(col)))]
        return col * (abs(lead) / lead) if lead != 0 else col

    null_cols = [canonical_phase(wh.conj().T[:, i]) for i in range(wh.shape[0])
                 if i >= s.size or small[i]]
    coker_cols = [canonical_phase(u[:, i]) for i in range(u.shape[1])
                  if i >= s.size or small[i]]
    if len(null_cols) > len(coker_cols):
        raise DimensionMismatch(
            "null space exceeds the cokernel at this truncation; "
            "retry with a larger section")
    if not null_cols:
        return v.copy()
    nb = np.column_stack(null_cols)
    cb = np.column_stack(coker_cols[: len(null_cols)])
    sout = v + cb @ nb.conj().T
    if float(np.linalg.norm(sout.conj().T @ sout - np.eye(v.shape[1]))) > max(tol, 1e-9):
        raise ConvergenceFailure("extension failed to produce an isometry")
    return sout


def cluster_values(values, gap: float):
    """Greedy 1-d / complex clustering; returns ((center, count), ...)."""
    vals = sorted(values, key=lambda z: (z.real, z.imag) if isinstance(z, complex)
                  else z)
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0] / clusters[-1][1]) <= gap:
            total, count = clusters[-1]
            clusters[-1] = (total + v, count + 1)
        else:
            clusters.append((v, 1))
    return tuple((total / count, count) for total, count in clusters)


def _clusters_match(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x[0] - y[0]) <= max(tol, 1e-12) * max(1.0, abs(x[0]))
               and x[1] == y[1] for x, y in zip(a, b))


def _auto_trunc(*ops: StructuredOperator) -> int:
    """Starting truncation: always covers the finite corner with headroom,
    never smaller than 64 even for trivial corners.  Given several operators,
    it covers the largest corner and bandwidth among them, as a linear
    combination of them generically needs."""
    corner = max(t.corner_size for t in ops)
    width = max(t.bandwidth for t in ops)
    need = 2 * corner + 4 * width + 32
    return int(min(max(64, need), TRUNC_CAP))


def _all_above(band: np.ndarray, level: float) -> bool:
    """Whether every eigenvalue of the Hermitian matrix held in lower band
    storage exceeds ``level``: band - level*I has a banded Cholesky
    factorization exactly when it is positive definite."""
    shifted = band.copy()
    shifted[0] -= level
    try:
        cholesky_banded(shifted, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


def discrete_eigs_below(t: StructuredOperator, bound: float, tol: float = 1e-8,
                        n: int | None = None, cap: int = TRUNC_CAP) -> DiscreteEigenReport:
    """Eigenvalues of a positive (self-adjoint, real symbol) operator strictly
    below ``bound``, certified by agreement of truncations at n and 2n.

    Eigenvalues within tol of the bound are assigned to the essential level
    and only counted in ``near_boundary``.  Each truncation goes to LAPACK in
    lower band storage; when its Cholesky factorization shows every
    eigenvalue above bound + tol, nothing is listed, and otherwise only the
    eigenvalues up to bound + tol are computed.  The report is kept in t's
    memo under its arguments.
    """
    return memoized(t, ("discrete_eigs_below", bound, tol, n, cap),
                    lambda: _discrete_eigs_below(t, bound, tol, n, cap))


def _discrete_eigs_below(t, bound, tol, n, cap) -> DiscreteEigenReport:
    sym = symbol(t)
    scale = max(1.0, t.magnitude())
    if not sym.is_real(1e-12):
        raise NotHermitian("operator symbol is not real")
    if selfadjoint_defect(t) > 1e-12 * scale:
        raise NotHermitian("operator is not self-adjoint to 1e-12")
    ess_min = symbol_min_modulus_signed(sym)
    if bound > ess_min + max(tol, 1e-10) * scale:
        raise ValueError(f"bound {bound} exceeds the essential minimum {ess_min}")
    if n is None:
        n = _auto_trunc(t)

    def eigs_at(size):
        band = t.lower_band(size)
        if _all_above(band, bound + tol):
            return (), 0
        vals = eig_banded(band, lower=True, eigvals_only=True,
                          select="v", select_range=(-np.inf, bound + tol))
        below = vals[vals < bound - tol]
        near = int(np.count_nonzero((vals >= bound - tol) & (vals <= bound + tol)))
        return cluster_values(below.tolist(), MERGE_FACTOR * tol), near

    size = n
    current, near = eigs_at(size)
    last_pair = (size, size)
    while 2 * size <= cap:
        bigger, near = eigs_at(2 * size)
        last_pair = (size, 2 * size)
        if _clusters_match(current, bigger, tol):
            return DiscreteEigenReport(bigger, True, last_pair, near)
        current = bigger
        size *= 2
    return DiscreteEigenReport(current, False, last_pair, near)


def symbol_min_modulus_signed(sym) -> float:
    """Minimum of a real symbol over the circle (signed, not |a|), read at
    the projected roots of sum k c_k z^k, its critical points."""
    if set(sym.coeffs) <= {0}:
        return float(sym.coeffs.get(0, 0j).real)
    critical = _laurent_roots({k: k * c for k, c in sym.coeffs.items()})[1]
    if not critical.size:   # c_0 + c_k z^k, real only up to its tiny c_k
        critical = np.ones(1)
    return float(np.min(sym.evaluate(critical).real))


def operator_norm(t: StructuredOperator, tol: float = 1e-8,
                  n: int | None = None, cap: int = TRUNC_CAP) -> float:
    """Operator norm via max(symbol modulus, largest truncation singular value).

    The symbol supremum equals the essential norm and dominates the slowly
    converging Toeplitz part; truncation singular values capture the discrete
    part and increase monotonically to the norm.  The value is kept in t's
    memo under the arguments.
    """
    return memoized(t, ("operator_norm", tol, n, cap),
                    lambda: _operator_norm(t, tol, n, cap))


def _operator_norm(t, tol, n, cap) -> float:
    ess = symbol_max_modulus(symbol(t))
    if n is None:
        n = _auto_trunc(t)

    def candidate(size):
        return max(ess, float(np.linalg.norm(t.truncate(size), 2)))

    size = n
    value = candidate(size)
    while 2 * size <= cap:
        nxt = candidate(2 * size)
        if abs(nxt - value) <= tol * max(1.0, nxt):
            return nxt
        value = nxt
        size *= 2
    raise NotStabilized(
        f"operator norm still changing at truncation {size} (last {value})")


def min_modulus(t: StructuredOperator, tol: float = 1e-8,
                n: int | None = None) -> float:
    """Minimum modulus m(T): sqrt of the bottom of spectrum(T*T)."""
    g = gram(t)
    ess = symbol_min_modulus_signed(symbol(g))
    report = discrete_eigs_below(g, ess, tol=tol, n=n)
    if not report.stabilized:
        raise NotStabilized("discrete spectrum below the essential level "
                            "did not stabilize")
    bottom = min([ess] + [v.real if isinstance(v, complex) else v
                          for v, _ in report.eigenvalues])
    return float(np.sqrt(max(0.0, bottom)))


def positive_truncations(band_at, tol: float, scale: float, n: int,
                         cap: int):
    """Tri-state positivity of a self-adjoint operator from its truncations.

    ``band_at(size)`` returns the leading size-by-size corner in lower band
    storage.  Every truncation is a compression of the operator, so by
    Cauchy interlacing an eigenvalue below -tol*scale at any size proves
    non-positivity: the answer is "no" at the first size that shows one,
    without waiting for the n / 2n agreement.  Otherwise the eigenvalues
    below -tol are clustered at sizes n, 2n, ... up to ``cap``, and two
    consecutive lists that match give "yes".

    Returns (verdict, value): the lowest eigenvalue of the deciding
    truncation for "no", the most negative cluster (0.0 when none) for
    "yes", and None for "undetermined".
    """
    size, previous = n, None
    while True:
        band = band_at(size)
        if not _all_above(band, -tol * scale):
            lowest = eig_banded(band, lower=True, eigvals_only=True,
                                select="i", select_range=(0, 0))
            return "no", float(lowest[0])
        if _all_above(band, -tol):
            clusters = ()
        else:
            vals = eig_banded(band, lower=True, eigvals_only=True,
                              select="v", select_range=(-np.inf, -tol))
            clusters = cluster_values(vals[vals < -tol].tolist(),
                                      MERGE_FACTOR * tol)
        if previous is not None and _clusters_match(previous, clusters, tol):
            return "yes", min((v for v, _ in clusters), default=0.0)
        if 2 * size > cap:
            return "undetermined", None
        size, previous = 2 * size, clusters


def positivity_verdict(d: StructuredOperator, tol: float,
                       n: int | None = None):
    """Tri-state positivity of a self-adjoint structured operator.

    Returns (verdict, witness) with verdict in {"yes", "no", "undetermined"}.
    The essential part is tested on the symbol, the discrete part on the
    truncations of ``d`` by ``positive_truncations``.
    """
    scale = max(1.0, d.magnitude())
    sym = symbol(d)
    if not sym.is_real(1e-12):
        raise NotHermitian("operator is not self-adjoint (complex symbol)")
    if selfadjoint_defect(d) > 1e-12 * scale:
        raise NotHermitian("operator is not self-adjoint to 1e-12")
    ess_min = symbol_min_modulus_signed(sym)
    if ess_min < -tol * scale:
        return "no", {"symbol_min": ess_min}
    verdict, value = positive_truncations(
        d.lower_band, tol, scale, n if n is not None else _auto_trunc(d),
        TRUNC_CAP)
    if verdict == "undetermined":
        return verdict, {"symbol_min": ess_min, "reason": "not stabilized"}
    return verdict, {"symbol_min": ess_min, "most_negative_eigenvalue": value}
