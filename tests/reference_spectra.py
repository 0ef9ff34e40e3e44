"""Reference spectra from dense and banded truncations.

Before the Schur-complement engines, ``classify._region_clusters`` took the
eigenvalues of the dense n and 2n sections, kept those selected by a
predicate, and accepted the clusters when both sizes agreed, and
``numerics.discrete_eigs_below`` did the same with banded sections below a
level.  Those bodies live on here as independent oracles, with the
starting size and the agreement rule they shared, next to the seed-by-seed
Newton iteration that ``numerics._schur_newton`` batches, the kernel
count that sets its level from the exact top eigenvalue on every call, the
contour engine on the raster region that bandwidth-1 tails took before
their quadratic pencil, and the paranormality test that built q(s) as an
operator and counted it shift by shift.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eig_banded

from opspectra.classify import (REGION_RESOLUTION, Verdict, _pencil_shifts,
                                default_paranormal_grid)
from opspectra.core import constant_diagonal, gram
from opspectra.numerics import (MERGE_FACTOR, TRUNC_CAP, _corner_coupling, _schur_spectra,
                                cluster_values, operator_norm, schur_eigenvalues)
from opspectra.symbols import (_all_above, _wiener_hopf_block, _winding_raster,
                               _zero_winding_region, symbol)


def _clusters_match(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x[0] - y[0]) <= max(tol, 1e-12) * max(1.0, abs(x[0]))
               and x[1] == y[1] for x, y in zip(a, b))


def _auto_trunc(*ops) -> int:
    """Starting truncation: always covers the finite corner with headroom,
    never smaller than 64 even for trivial corners.  Given several operators,
    it covers the largest corner and bandwidth among them, as a linear
    combination of them generically needs."""
    corner = max(t.corner_size for t in ops)
    width = max(t.bandwidth for t in ops)
    need = 2 * corner + 4 * width + 32
    return int(min(max(64, need), TRUNC_CAP))


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


def eigs_below_by_sections(t, bound, tol=1e-8, n=None, cap=TRUNC_CAP):
    """Clusters of the eigenvalues of the self-adjoint t below bound - tol
    from its banded sections at sizes n, 2n, ... up to ``cap``, until two
    consecutive lists agree.  Returns (clusters, agreed, (size, 2 size))."""
    size = n if n is not None else _auto_trunc(t)

    def eigs_at(size):
        band = t.lower_band(size)
        if _all_above(band, bound + tol):
            return ()
        vals = eig_banded(band, lower=True, eigvals_only=True,
                          select="v", select_range=(-np.inf, bound + tol))
        return cluster_values(vals[vals < bound - tol].tolist(), MERGE_FACTOR * tol)

    current = eigs_at(size)
    while 2 * size <= cap:
        bigger = eigs_at(2 * size)
        if _clusters_match(current, bigger, tol):
            return bigger, True, (size, 2 * size)
        current, size = bigger, 2 * size
    return current, False, (size // 2, size)


def schur_newton_per_seed(t, seed, scale):
    """Newton on det S(lam) from one seed, one ``_wiener_hopf_block`` call
    per step: the zero, or None where the roots do not split at lam or
    lam +- h, or after 50 steps."""
    q_block, r_block = _corner_coupling(t)
    eye = np.eye(len(t.window))
    h = 1e-8 * scale
    lam = complex(seed)
    for _ in range(50):
        g, ok = _wiener_hopf_block(t.tails, [lam, lam + h, lam - h])
        if not ok.all():
            return None
        slope = -eye - q_block @ ((g[1] - g[2]) / (2 * h)) @ r_block
        schur = t.window - lam * eye - q_block @ g[0] @ r_block
        try:
            step = 1.0 / np.trace(np.linalg.solve(schur, slope))
        except np.linalg.LinAlgError:           # S(lam) exactly singular
            return lam
        lam -= step
        if abs(step) <= 1e-12 * scale:
            return lam
    return None


def kernel_count_exact(t, n=512):
    """``symbols.kernel_count_by_truncation`` before its row-sum
    certificate: ``eig_banded`` finds the top mu of the n x n corner of T*T
    first, which sets the level (1e-6 max(1, sqrt(top)))^2."""
    band = gram(t).lower_band(n)
    top = eig_banded(band, lower=True, eigvals_only=True, select="i",
                     select_range=(n - 1, n - 1))[0]
    if top <= 0:
        return n
    level = (1e-6 * max(1.0, math.sqrt(top))) ** 2
    if _all_above(band, level):
        return 0
    return len(eig_banded(band, lower=True, eigvals_only=True, select="v",
                          select_range=(-np.inf, level)))


def region_clusters_by_contour(t):
    """``classify._region_clusters`` for two-sided tails without ``keep``,
    as bandwidth-1 tails took it before their pencil: ``schur_eigenvalues``
    on the region of the ``REGION_RESOLUTION`` raster.  Returns (clusters,
    certified, the raster's cell diagonal)."""
    sym, norm = symbol(t), operator_norm(t)
    raster = _winding_raster(sym, REGION_RESOLUTION)
    region = _zero_winding_region(sym, raster, 1.05 * norm, 1e-6 * max(1.0, norm))
    found, certified = ((), False) if region is None else schur_eigenvalues(
        t, *region, max(1.0, norm))
    return found, certified, raster.estimate.cell_diagonal


def count_below(h, lam):
    """(eigenvalues of self-adjoint H below lam, valid): the negative ones of
    S(lam), valid where the roots of b - lam split, which needs lam < min b;
    the count behind each shift of ``paranormal_by_shifts``.  Where nothing
    couples the window to the rest (a constant symbol, or no window), S(lam)
    is the window less lam, and valid."""
    q_block, r_block = coupling = _corner_coupling(h)
    if q_block.size and r_block.size:
        mu, ok = _schur_spectra(h, lam, coupling)
        return int(np.count_nonzero(mu[0] < 0)), bool(ok[0])
    s = h.window - float(lam) * np.eye(len(h.window))
    return int(np.count_nonzero(np.linalg.eigvalsh(0.5 * (s + s.conj().T)) < 0)), True


def paranormal_by_shifts(t, grid=None, tol=1e-10, invalid=()):
    """``classify.check_paranormal`` before its batched passes, as (verdict,
    failed_at, method, proved): q(s) = T*^2 T^2 - 2s T*T + s^2 I built as a
    structured operator and counted by ``count_below`` one shift after
    another, in grid order.  The shifts in ``invalid`` read as not valid."""
    quartic, quad = gram(t.compose(t)), gram(t)
    if grid is None and np.count_nonzero(t.tails) <= 1:
        grid, method = _pencil_shifts(quartic, quad), "pencil"
    else:
        grid = default_paranormal_grid(t) if grid is None else grid
        grid, method = tuple(float(s) for s in grid), "grid"
    outcome, failed_at = Verdict.YES, None
    for s in grid:
        q = quartic + quad.scaled(-2.0 * s) + constant_diagonal(s * s)
        count, valid = count_below(q, -tol * max(1.0, q.magnitude()))
        if not valid or s in invalid:
            outcome = Verdict.UNDETERMINED
        elif count:
            outcome, failed_at = Verdict.NO, s
            break
    proved = outcome is Verdict.NO or (outcome is Verdict.YES and method == "pencil")
    return outcome, failed_at, method, proved
