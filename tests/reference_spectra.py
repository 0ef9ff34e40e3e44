"""Reference spectra from dense and banded truncations.

Before the Schur-complement engines, ``classify._region_clusters`` took the
eigenvalues of the dense n and 2n sections, kept those selected by a
predicate, and accepted the clusters when both sizes agreed, and
``numerics.discrete_eigs_below`` did the same with banded sections below a
level.  Those bodies live on here as independent oracles, with the
starting size and the agreement rule they shared, next to the seed-by-seed
Newton iteration that ``numerics._schur_newton`` batches, the kernel
count that sets its level from the exact top eigenvalue on every call, the
contour engine that bandwidth-1 tails took before their quadratic pencil,
the paranormality test that built q(s) as an operator and counted it
shift by shift, and the winding raster that gave the spectral area and its
components before the exact arrangement of the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.linalg import eig_banded

from opspectra.classify import Verdict, _pencil_shifts, default_paranormal_grid
from opspectra.core import constant_diagonal, gram
from opspectra.numerics import (MERGE_FACTOR, TRUNC_CAP, _corner_coupling, _schur_spectra,
                                cluster_values, operator_norm, schur_eigenvalues)
from opspectra import symbols
from opspectra.errors import PointOnCurve
from opspectra.symbols import _all_above, _wiener_hopf_block


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
    as bandwidth-1 tails took it before their pencil: ``schur_eigenvalues``,
    the count on the boundary of the winding-0 set.  Returns (clusters,
    certified)."""
    return schur_eigenvalues(t, max(1.0, operator_norm(t)))


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


@dataclass(frozen=True)
class RasterComponent:
    """One bounded 4-connected component of the raster's cells off the curve."""

    winding: int
    area: float
    representative: complex
    cells: int


@dataclass(frozen=True)
class RasterEstimate:
    """The raster area of {winding != 0} together with the curve, its error
    bound, the components, the cells the curve touches and a cell's diagonal."""

    value: float
    error: float
    components: tuple
    curve_cells: int
    cell_diagonal: float


def raster_regions(s, resolution=512):
    """``symbols.winding_regions`` as a raster, before the arrangement.

    The cells of the bounding box that the curve's samples touch are marked,
    the samples doubled from 4096 until they lie less than half a cell apart
    (or reach 2^20), and each bounded 4-connected component of the other
    cells gets the exact winding (``symbols.winding``) of its deepest cell
    in chessboard distance to the curve, the first in scan order; one that
    lies on the curve reads 0.  Error bound: curve length x cell diagonal.
    A segment curve, and one below the rounding of its shift, has no
    component and area 0."""
    empty = RasterEstimate(0.0, 0.0, (), 0, 0.0)
    if s.is_segment():
        return empty
    pts = s.on_circle(4096)
    scale = max(1.0, s.magnitude())
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    if extent <= 1e-13 * scale:
        return empty
    pad = extent / resolution
    xmin, xmax = float(np.min(pts.real)) - pad, float(np.max(pts.real)) + pad
    ymin, ymax = float(np.min(pts.imag)) - pad, float(np.max(pts.imag)) + pad
    cw = (xmax - xmin) / resolution
    ch = (ymax - ymin) / resolution
    cell_area = cw * ch
    cell_diag = math.hypot(cw, ch)
    m = 4096
    while True:
        gaps = np.abs(np.diff(np.append(pts, pts[0])))
        if float(np.max(gaps)) < 0.5 * min(cw, ch) or m >= 2 ** 20:
            break
        m *= 2
        pts = s.on_circle(m)
    curve_len = float(np.sum(np.abs(np.diff(np.append(pts, pts[0])))))
    ix = np.clip(((pts.real - xmin) / cw).astype(int), 0, resolution - 1)
    iy = np.clip(((pts.imag - ymin) / ch).astype(int), 0, resolution - 1)
    curve_mask = np.zeros((resolution, resolution), dtype=bool)
    curve_mask[iy, ix] = True
    curve_cells = int(np.count_nonzero(curve_mask))
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, n_labels = ndimage.label(~curve_mask, structure=four)
    depth = ndimage.distance_transform_cdt(~curve_mask, metric="chessboard")
    border = np.unique(np.concatenate([labels[0, :], labels[-1, :],
                                       labels[:, 0], labels[:, -1]]))
    unbounded = set(int(b) for b in border if b != 0)
    bounded = [lab for lab in range(1, n_labels + 1) if lab not in unbounded]
    counts = np.bincount(labels.ravel(), minlength=n_labels + 1)
    boxes = ndimage.find_objects(labels)
    components = []
    inside_cells = 0
    for lab in bounded:
        box = boxes[lab - 1]
        crop = np.where(labels[box] == lab, depth[box], -1)
        ry, rx = np.unravel_index(np.argmax(crop), crop.shape)
        q = complex(xmin + (box[1].start + rx + 0.5) * cw,
                    ymin + (box[0].start + ry + 0.5) * ch)
        try:
            w = symbols.winding(s, q)
        except PointOnCurve:        # the curve passes through a cell it missed
            w = 0
        cells = int(counts[lab])
        if w != 0:
            inside_cells += cells
        components.append(RasterComponent(w, cells * cell_area, q, cells))
    value = (inside_cells + curve_cells) * cell_area
    error = (curve_len + 4 * cell_diag) * cell_diag
    return RasterEstimate(value, error, tuple(components), curve_cells, cell_diag)
