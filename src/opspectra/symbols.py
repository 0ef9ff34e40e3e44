"""Laurent symbols of band tails and the spectral data they carry.

The band tails of a structured operator form a Laurent polynomial a(z); the
prefix deviations and rank terms are finite rank and therefore invisible to
Fredholm theory.  The curve a(T), T the unit circle, is the essential
spectrum, and -winding(a - lambda) is the Fredholm index off the curve.  This
identification is classical Toeplitz theory, used here as an external
correctness dependency and cross-validated against truncation null-space
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .core import StructuredOperator
from .errors import EssentialPoint, PointOnCurve

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_SEGMENT_TOL = 1e-12


@dataclass(frozen=True)
class LaurentSymbol:
    """Finite Laurent polynomial a(z) = sum coeffs[k] z^k on |z| = 1."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {int(k): complex(c) for k, c in sorted(self.coeffs.items())
                   if complex(c) != 0}
        object.__setattr__(self, "coeffs", cleaned)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for k, c in self.coeffs.items():
            out = out + c * z ** k
        return out

    def on_circle(self, m: int) -> np.ndarray:
        theta = np.arange(m) * (_TWO_PI / m)
        return self.evaluate(np.exp(1j * theta))

    def conjugated(self) -> "LaurentSymbol":
        return LaurentSymbol({-k: c.conjugate() for k, c in self.coeffs.items()})

    def product(self, other: "LaurentSymbol") -> "LaurentSymbol":
        out: dict = {}
        for k1 in sorted(self.coeffs):
            for k2 in sorted(other.coeffs):
                out[k1 + k2] = out.get(k1 + k2, 0j) + self.coeffs[k1] * other.coeffs[k2]
        return LaurentSymbol(out)

    def magnitude(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether a is real-valued on the circle (Hermitian coefficients)."""
        scale = max(1.0, self.magnitude())
        return all(abs(self.coeffs.get(-k, 0j) - c.conjugate()) <= tol * scale
                   for k, c in self.coeffs.items())

    def is_segment(self) -> bool:
        """Whether the curve a(T) lies on one line segment; a constant
        symbol counts (a point is a degenerate segment).

        That holds iff a = c + e^{i phi} r with r real on the circle, i.e. iff
        one unimodular u satisfies a_{-k} = u conj(a_k) for every k >= 1
        (u = e^{2 i phi}).  u is taken from the largest pair.  The tolerance
        is relative to the non-constant coefficients, so a shift c does not
        change the answer unless they lie below the rounding of a's values."""
        scale = max(sum(abs(c) for k, c in self.coeffs.items() if k),
                    _EPS * max(1.0, self.magnitude()))
        pairs = [(self.coeffs.get(k, 0j), self.coeffs.get(-k, 0j))
                 for k in sorted({abs(k) for k in self.coeffs if k})]
        if not pairs:
            return True
        ak, amk = max(pairs, key=lambda p: abs(p[0]) + abs(p[1]))
        w = amk * ak
        u = w / abs(w) if w else 1.0
        return all(abs(amk - u * ak.conjugate()) <= _SEGMENT_TOL * scale
                   for ak, amk in pairs)


def symbol(t: StructuredOperator) -> LaurentSymbol:
    """The tail coefficients; the window's deviations are finite rank and
    do not contribute."""
    w = len(t.tails) // 2
    return LaurentSymbol(dict(zip(range(-w, w + 1), t.tails.tolist())))


def symbol_curve(s: LaurentSymbol, m: int) -> np.ndarray:
    """Samples a(e^{2 pi i j / m}) for j = 0 .. m-1."""
    if m < 16:
        raise ValueError("need at least 16 samples")
    return s.on_circle(m)


# -- winding numbers ---------------------------------------------------------

def _laurent_roots(coeffs: dict):
    """Roots of the polynomial z^(-min k) sum c_k z^k, from ``np.roots``,
    and the same roots projected onto the unit circle.

    A value read at a projected root is a value the symbol takes on the
    circle, so a minimum over those points never lies below the true one
    and no root needs to be filtered out.  Zero coefficients are dropped;
    a single term has no roots."""
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    lo, hi = min(coeffs), max(coeffs)
    poly = np.zeros(hi - lo + 1, dtype=complex)
    for k, c in coeffs.items():
        poly[hi - k] = c                # np.roots takes the top degree first
    roots = np.roots(poly)
    size = np.abs(roots)
    return roots, np.divide(roots, size, out=np.ones_like(roots), where=size > 0)


def winding(s: LaurentSymbol, lam) -> int:
    """Winding number of a - lam around 0: the number of roots of
    z^(-lo) (a - lam) inside the disc, plus lo, the lowest power with a
    nonzero coefficient (argument principle).

    Raises PointOnCurve when a - lam is zero or when a - lam is within
    1e-14 * scale of 0 at some root projected onto the circle.
    """
    lam = complex(lam)
    scale = max(1.0, s.magnitude(), abs(lam))
    shifted = LaurentSymbol({**s.coeffs, 0: s.coeffs.get(0, 0j) - lam})
    if not shifted.coeffs:
        raise PointOnCurve(f"{lam} lies on the symbol curve")
    roots, unit = _laurent_roots(shifted.coeffs)
    if np.any(np.abs(shifted.evaluate(unit)) <= 1e-14 * scale):
        raise PointOnCurve(f"{lam} lies on the symbol curve")
    return int(np.count_nonzero(np.abs(roots) < 1.0)) + min(shifted.coeffs)


def polygon_winding(points: np.ndarray, q: complex) -> int:
    """Exact winding of the closed sampled polygon around q (crossing count)."""
    x = points.real - q.real
    y = points.imag - q.imag
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    cross = x * y2 - x2 * y
    up = (y <= 0) & (y2 > 0) & (cross > 0)
    down = (y > 0) & (y2 <= 0) & (cross < 0)
    return int(np.count_nonzero(up)) - int(np.count_nonzero(down))


def fredholm_index(t: StructuredOperator, lam, validate: bool = False,
                   n: int = 512) -> int:
    """ind(T - lam) = dim N(T - lam) - dim N((T - lam)*) = -winding(a, lam).

    With validate=True the result is cross-checked against null-space counts
    of tall truncations; a mismatch raises ConvergenceFailure.
    """
    try:
        index = -winding(symbol(t), lam)
    except PointOnCurve as exc:
        raise EssentialPoint(str(exc)) from exc
    if validate:
        oracle = index_by_truncation(t, lam, n)
        if oracle != index:
            from .errors import ConvergenceFailure
            raise ConvergenceFailure(
                f"winding index {index} disagrees with truncation count {oracle}")
    return index


def kernel_count_by_truncation(t: StructuredOperator, n: int = 512,
                               rel_threshold: float = 1e-6) -> int:
    """Numerical dim N(T) from the tall rectangular section.

    The (n + bandwidth) x n section captures every row that the first n
    columns can touch, so its near-kernel counts decaying kernel vectors.
    """
    k = t.bandwidth
    tall = t.truncate(n + k)[:, :n] if k else t.truncate(n)
    svals = np.linalg.svd(tall, compute_uv=False)
    if svals.size == 0 or svals[0] == 0:
        return n
    return int(np.count_nonzero(svals <= rel_threshold * max(1.0, svals[0])))


def index_by_truncation(t: StructuredOperator, lam, n: int = 512) -> int:
    """Independent index estimate: null-space counts of tall sections."""
    from .core import constant_diagonal
    shifted = t - constant_diagonal(lam)
    return (kernel_count_by_truncation(shifted, n)
            - kernel_count_by_truncation(shifted.adjoint(), n))


# -- essential spectrum ------------------------------------------------------

CIRCLE_RTOL = 1e-9          # relative size of the non-constant coefficients
CIRCLE_SAMPLES = 1024


def _nearly_constant(s: LaurentSymbol) -> bool:
    """Whether the non-constant coefficients of s sum to at most
    CIRCLE_RTOL * max(|c_0|, 1) in modulus."""
    rest = sum(abs(c) for k, c in s.coeffs.items() if k)
    return rest <= CIRCLE_RTOL * max(abs(s.coeffs.get(0, 0j)), 1.0)


def modulus_constant(s: LaurentSymbol) -> float | None:
    """Radius alpha when |a| is constant on the circle, else None: the
    non-constant coefficients of g = a conj(a) are small against g_0, and
    alpha = sqrt(g_0)."""
    if len(s.coeffs) == 1:
        return abs(next(iter(s.coeffs.values())))
    g = s.product(s.conjugated())
    if _nearly_constant(g):
        return math.sqrt(g.coeffs.get(0, 0j).real)
    return None


def constant_value(s: LaurentSymbol) -> complex | None:
    """The constant c_0 when the other coefficients of a are small against
    it, else None."""
    if _nearly_constant(s):
        return s.coeffs.get(0, 0j)
    return None


@dataclass(frozen=True)
class EssentialCurve:
    """Sampled essential spectrum a(T) with circle detection."""

    theta: np.ndarray
    points: np.ndarray
    is_circle: float | None

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def sampled(cls, s: LaurentSymbol, samples: int = CIRCLE_SAMPLES) -> "EssentialCurve":
        theta = np.arange(samples) * (_TWO_PI / samples)
        return cls(theta, s.evaluate(np.exp(1j * theta)), modulus_constant(s))


def essential_spectrum(t: StructuredOperator, samples: int = CIRCLE_SAMPLES) -> EssentialCurve:
    return EssentialCurve.sampled(symbol(t), samples)


def _refined_extremum(s: LaurentSymbol, want_max: bool) -> float:
    """min or max of |a| on the circle, read at the projected roots of the
    derivative polynomial of g = a conj(a) (its critical points) and of a
    itself: at a multiple zero of a the critical points of g are ill
    conditioned, the zeros of a less so."""
    if not s.coeffs:
        return 0.0
    if len(s.coeffs) == 1:
        return abs(next(iter(s.coeffs.values())))  # |c z^k| is exactly constant
    g = s.product(s.conjugated())
    critical = _laurent_roots({k: k * c for k, c in g.coeffs.items()})[1]
    z = np.concatenate([critical, _laurent_roots(s.coeffs)[1]])
    mods = np.abs(s.evaluate(z))
    return float(np.max(mods) if want_max else np.min(mods))


def symbol_min_modulus(s: LaurentSymbol) -> float:
    return _refined_extremum(s, want_max=False)


def symbol_max_modulus(s: LaurentSymbol) -> float:
    return _refined_extremum(s, want_max=True)


def ess_min_modulus(t: StructuredOperator) -> float:
    """Essential minimum modulus: min of |a| on the circle.

    |T| = sqrt(T*T) has essential spectrum [min |a|, max |a|]; rank terms and
    prefixes cannot move it.
    """
    return symbol_min_modulus(symbol(t))


# -- spectral area by winding raster ----------------------------------------

@dataclass(frozen=True)
class RegionComponent:
    """One bounded complementary component of the symbol curve."""

    winding: int
    area: float
    representative: complex
    cells: int


@dataclass(frozen=True)
class AreaEstimate:
    """Raster estimate of the area of {winding != 0} together with the curve."""

    value: float
    error: float
    components: tuple
    curve_cells: int
    cell_diagonal: float
    resolution: int


@dataclass(frozen=True)
class _WindingRaster:
    """The area raster of a symbol curve, kept for winding lookups.

    ``labels`` numbers the 4-connected off-curve components (0 on the curve),
    ``depth`` is each cell's chessboard distance in cells to the nearest curve
    cell, and ``label_winding`` the winding of each label (0 for components
    that touch the border).  ``safe_depth`` is None when there is no raster
    (segment or sub-rounding curves) or when the gap test failed at
    ``max_curve_samples``; the lookup then decides nothing."""

    estimate: AreaEstimate
    origin: complex = 0j
    cell: tuple = (0.0, 0.0)
    labels: np.ndarray | None = None
    depth: np.ndarray | None = None
    label_winding: np.ndarray | None = None
    safe_depth: int | None = None

    def deep_windings(self, z: np.ndarray, clearance: float):
        """Returns (decided, winding) for the points z.

        A point is decided when it lies in the box, in a cell deeper than
        ``safe_depth``, and the cells are larger than ``clearance``.  Such a
        point lies more than reach plus one cell from every curve cell, so
        the raster's refined polygon deforms into the 4096-point polygon
        ``on_circle(4096)`` without crossing it, and both wind around it as
        around the representative of its label.  It also lies farther than
        ``clearance`` from every edge of either polygon."""
        z = np.asarray(z, dtype=complex)
        decided = np.zeros(z.shape, dtype=bool)
        winding = np.zeros(z.shape, dtype=int)
        if self.safe_depth is None or min(self.cell) <= clearance:
            return decided, winding
        size = self.labels.shape[0]
        fx = (z.real - self.origin.real) / self.cell[0]
        fy = (z.imag - self.origin.imag) / self.cell[1]
        inside = np.flatnonzero((fx >= 0) & (fx < size) & (fy >= 0) & (fy < size))
        ix, iy = fx[inside].astype(int), fy[inside].astype(int)
        deep = self.depth[iy, ix] > self.safe_depth
        found = inside[deep]
        decided[found] = True
        winding[found] = self.label_winding[self.labels[iy[deep], ix[deep]]]
        return decided, winding


def _winding_raster(s: LaurentSymbol, resolution: int = 512,
                    max_curve_samples: int = 2 ** 20) -> _WindingRaster:
    """Rasterize the bounding box, label the 4-connected off-curve
    components, and winding-test one representative per bounded component
    (winding is locally constant off the curve).  The representative is the
    component's deepest cell, the first one in scan order.  Error bound:
    curve length x cell diagonal.

    A segment curve (a self-adjoint symbol up to rotation and shift) has a
    connected complement and planar measure 0, which is returned exactly and
    without sampling: its raster box is flat, so the gap test would drive the
    sampling to ``max_curve_samples``."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    empty = _WindingRaster(AreaEstimate(0.0, 0.0, (), 0, 0.0, resolution))
    if s.is_segment():
        return empty
    coarse = pts = s.on_circle(4096)
    scale = max(1.0, s.magnitude())
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    if extent <= 1e-13 * scale:     # a curve below the rounding of its shift
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
        closed = float(np.max(gaps)) < 0.5 * min(cw, ch)
        if closed or m >= max_curve_samples:
            break
        m *= 2
        pts = s.on_circle(m)
    curve_len = float(np.sum(np.abs(np.diff(np.append(pts, pts[0])))))
    # Sample j * m / 4096 of the refined curve is coarse sample j exactly (m
    # is 4096 times a power of 2).  reach bounds how far each block of
    # refined samples strays from the start of its 4096-point chord; the
    # block's end lies less than half a cell further.  Within that disc the
    # refined path deforms into the chord, so the two polygons wind alike
    # around every point more than reach + one cell from the curve cells.
    safe_depth = None
    if closed:
        blocks = pts.reshape(coarse.size, -1)
        reach = float(np.max(np.abs(blocks - coarse[:, None])))
        safe_depth = math.ceil(reach / min(cw, ch)) + 1

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
    label_winding = np.zeros(n_labels + 1, dtype=int)
    components = []
    inside_cells = 0
    for lab in bounded:
        box = boxes[lab - 1]
        crop = np.where(labels[box] == lab, depth[box], -1)
        ry, rx = np.unravel_index(np.argmax(crop), crop.shape)
        q = complex(xmin + (box[1].start + rx + 0.5) * cw,
                    ymin + (box[0].start + ry + 0.5) * ch)
        w = polygon_winding(pts, q)
        cells = int(counts[lab])
        label_winding[lab] = w
        if w != 0:
            inside_cells += cells
        components.append(RegionComponent(w, cells * cell_area, q, cells))

    value = (inside_cells + curve_cells) * cell_area
    error = (curve_len + 4 * cell_diag) * cell_diag
    estimate = AreaEstimate(value, error, tuple(components), curve_cells,
                            cell_diag, resolution)
    return _WindingRaster(estimate, complex(xmin, ymin), (cw, ch), labels,
                          depth, label_winding, safe_depth)


def winding_regions(s: LaurentSymbol, resolution: int = 512,
                    max_curve_samples: int = 2 ** 20) -> AreaEstimate:
    """Components of the complement of the curve a(T) with their windings,
    and the raster area of {winding != 0} together with the curve; see
    ``_winding_raster``."""
    return _winding_raster(s, resolution, max_curve_samples).estimate


def spectral_area(t: StructuredOperator, resolution: int = 512) -> AreaEstimate:
    """Planar measure of the spectrum's filled-in part.

    For hyponormal operators this is the area entering Putnam's inequality;
    isolated eigenvalues contribute nothing.
    """
    return winding_regions(symbol(t), resolution)


# -- summary container -------------------------------------------------------

@dataclass(frozen=True)
class SpectralSummary:
    """Bundle of spectral data for reporting.

    eigenvalues holds only isolated eigenvalues of finite multiplicity
    (stabilized truncation clusters off the curve with winding zero); it is
    empty when eigenvalues_stabilized is False.
    Invariants: 0 <= min_modulus <= ess_min_modulus <= norm_upper, area >= 0.
    """

    ess_curve: EssentialCurve
    ess_is_circle: float | None
    weyl_extra: tuple
    eigenvalues: tuple
    min_modulus: float
    ess_min_modulus: float
    norm_upper: float
    area: float
    area_error: float
    eigenvalues_stabilized: bool
