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

import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import StructuredOperator, constant_diagonal, gram
from .errors import ConvergenceFailure, EssentialPoint, PointOnCurve

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_SEGMENT_TOL = 1e-12
ROOT_RTOL = 8 * _EPS        # root finding drops coefficients this small, relative


def _deferred(name: str):
    """Module ``name``, executed on its first attribute access (the stdlib
    ``LazyLoader`` recipe), or the module itself when already imported.
    scipy serves only the winding raster and the banded oracles (truncation
    counts here, sections in ``suites``), so a run that needs neither never
    pays for loading it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


ndimage = _deferred("scipy.ndimage")
linalg = _deferred("scipy.linalg")


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


# -- winding numbers ---------------------------------------------------------

def _tail_span(tails) -> tuple:
    """(p, q): the largest positive and negative offsets (or 0) of the
    tails above ROOT_RTOL times the largest, as ``_laurent_roots`` keeps."""
    size = np.abs(tails)
    offsets = np.flatnonzero(size > ROOT_RTOL * size.max()) - len(tails) // 2
    return int(max(offsets.max(initial=0), 0)), int(max(-offsets.min(initial=0), 0))


def _laurent_roots(coeffs: dict):
    """Roots of the polynomial z^(-lo) sum c_k z^k, from ``np.roots``; the
    same roots projected onto the unit circle; and lo.  Coefficients at most
    ROOT_RTOL times the largest are dropped first: that moves the symbol by
    less than its rounding, while as a leading or trailing coefficient one
    sends ``np.roots`` wrong.

    A value read at a projected root is a value the symbol takes on the
    circle, so a minimum over those points never lies below the true one
    and no root needs to be filtered out.  A single term has no roots."""
    top = max(abs(c) for c in coeffs.values())
    coeffs = {k: c for k, c in coeffs.items() if abs(c) > ROOT_RTOL * top}
    lo, hi = min(coeffs), max(coeffs)
    poly = np.zeros(hi - lo + 1, dtype=complex)
    for k, c in coeffs.items():
        poly[hi - k] = c                # np.roots takes the top degree first
    roots = np.roots(poly)
    size = np.abs(roots)
    return roots, np.divide(roots, size, out=np.ones_like(roots), where=size > 0), lo


def winding(s: LaurentSymbol, lam) -> int:
    """Winding number of a - lam around 0: the number of roots of
    z^(-lo) (a - lam) inside the disc, plus lo, the lowest power with a
    coefficient that ``_laurent_roots`` keeps (argument principle).

    Raises PointOnCurve when a - lam is zero or when a - lam is within
    1e-14 * scale of 0 at some root projected onto the circle.
    """
    lam = complex(lam)
    scale = max(1.0, s.magnitude(), abs(lam))
    shifted = LaurentSymbol({**s.coeffs, 0: s.coeffs.get(0, 0j) - lam})
    if not shifted.coeffs:
        raise PointOnCurve(f"{lam} lies on the symbol curve")
    roots, unit, lo = _laurent_roots(shifted.coeffs)
    if np.any(np.abs(shifted.evaluate(unit)) <= 1e-14 * scale):
        raise PointOnCurve(f"{lam} lies on the symbol curve")
    return int(np.count_nonzero(np.abs(roots) < 1.0)) + lo


def _geometric_product(ratios: np.ndarray, n: int) -> np.ndarray:
    """The first n power-series coefficients of prod_i 1 / (1 - rho_i x),
    one row per row of ``ratios``.  Coefficient k of the product over the
    first i ratios is h_k(rho_1..rho_i), the complete homogeneous
    polynomial, and h_k(rho_1..rho_i) = sum_(j <= i) rho_j h_(k-1)(rho_1..rho_j):
    one cumulative sum over the ratios per k, the additions of multiplying
    by 1 + rho_i x + rho_i^2 x^2 ... one ratio at a time.  (Expanding
    prod_i (1 - rho_i x) first and inverting that series instead loses up
    to 1e-11 of the result for 16 ratios near the circle.)"""
    out = np.zeros((len(ratios), n), dtype=complex)
    out[:, 0] = 1.0
    h = np.ones(ratios.shape, dtype=complex)
    for k in range(1, n):
        h = np.cumsum(ratios * h, axis=1)
        out[:, k] = h[:, -1]
    return out


def _split_roots(poly: np.ndarray, lam, q: int) -> tuple:
    """(inner, outer, ok): the q roots of least modulus and the rest of
    ``poly`` (top degree first; or one per row) less lam z^q, one row per lam,
    from one batched companion eigenvalue call; ok where they split across
    the circle (no margin)."""
    d = poly.shape[-1] - 1
    lam = np.asarray(lam, dtype=complex).ravel()
    companion = np.zeros((lam.size, d, d), dtype=complex)
    companion[:, 0, :] = -poly[..., 1:] / poly[..., :1]
    companion[:, 0, d - q - 1] += lam / poly[..., 0]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    roots = np.take_along_axis(roots, np.argsort(np.abs(roots), axis=1), axis=1)
    ok = (np.abs(roots[:, q - 1]) < 1.0) & (np.abs(roots[:, q]) > 1.0)
    return roots[:, :q], roots[:, q:], ok


def _block_from_roots(inner: np.ndarray, outer: np.ndarray, lead) -> np.ndarray:
    """The q-by-p leading block G of T(a - lam)^(-1), one per row of the q
    roots r_i in the disc (``inner``) and the p roots s_j outside it
    (``outer``) of z^q (a(z) - lam), whose leading coefficient is ``lead``:
    a - lam = a_+ a_- with a_+ = lead prod (z - s_j) and
    a_- = prod (1 - r_i / z), and Widom's formula gives T(a - lam) =
    T(a_-) T(a_+) and T(a - lam)^(-1) = T(1/a_+) T(1/a_-) exactly.  The
    block is L U, with L the lower triangular Toeplitz matrix of the first
    q coefficients of 1/a_+ and U the upper triangular one of the first p
    coefficients of 1/a_- (in powers of 1/z)."""
    q, p = inner.shape[1], outer.shape[1]
    b = _geometric_product(1.0 / outer, q) / (lead * np.prod(-outer, axis=1))[:, None]
    c = _geometric_product(inner, p)
    lag = np.arange(q)[:, None] - np.arange(q)                 # i - l
    lower = np.where(lag >= 0, b[:, np.clip(lag, 0, None)], 0)
    ahead = np.arange(p) - np.arange(q)[:, None]               # j - l
    upper = np.where(ahead >= 0, c[:, np.clip(ahead, 0, p - 1)], 0)
    return lower @ upper


def _wiener_hopf_block(tails: np.ndarray, lam) -> tuple:
    """(G(lam), ok) for every lam, G of shape (len(lam), q, p), p and q from
    ``_tail_span`` (both at least 1); ok is False, and G meaningless, where
    the roots do not split q : p (lam off winding 0 or on the curve)."""
    w = len(tails) // 2
    p, q = _tail_span(tails)
    poly = tails[w - q: w + p + 1][::-1]          # a_p first, a_-q last
    inner, outer, ok = _split_roots(poly, lam, q)
    return _block_from_roots(inner, outer, poly[0]), ok


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
            raise ConvergenceFailure(
                f"winding index {index} disagrees with truncation count {oracle}")
    return index


def _all_above(band: np.ndarray, level: float) -> bool:
    """Whether every eigenvalue of the Hermitian matrix held in lower band
    storage exceeds ``level``: band - level*I has a banded Cholesky
    factorization exactly when it is positive definite."""
    shifted = band.copy()
    shifted[0] -= level
    try:
        linalg.cholesky_banded(shifted, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


def _row_sum_bound(band: np.ndarray) -> float:
    """Largest row sum of |A|, A Hermitian in lower band storage, rounded
    up: at least its top eigenvalue (Gershgorin)."""
    mag = np.abs(band)
    rows = mag.sum(axis=0)
    for u in range(1, len(band)):
        rows[u:] += mag[u, :-u]
    return float(rows.max()) * (1.0 + 1e-8)


def kernel_count_by_truncation(t: StructuredOperator, n: int = 512) -> int:
    """Numerical dim N(T) from the tall rectangular section.

    The (n + bandwidth) x n section captures every row that the first n
    columns can touch, so its near-kernel counts decaying kernel vectors:
    the singular values s <= 1e-6 max(1, s_max).  Its Gram
    matrix is exactly the leading n x n corner of T*T, so the squares mu
    of those singular values are counted in its lower band storage: a
    banded Cholesky factorization at the level set by a row-sum bound of
    mu_max shows when none lies at or below it, and otherwise
    ``eig_banded`` finds mu_max and counts them (n for the zero operator).
    """
    band = gram(t).lower_band(n)
    if _all_above(band, (1e-6 * max(1.0, math.sqrt(_row_sum_bound(band)))) ** 2):
        return 0
    top = linalg.eig_banded(band, lower=True, eigvals_only=True, select="i",
                            select_range=(n - 1, n - 1))[0]
    if top <= 0:
        return n
    level = (1e-6 * max(1.0, math.sqrt(top))) ** 2
    return len(linalg.eig_banded(band, lower=True, eigvals_only=True, select="v",
                                 select_range=(-np.inf, level)))


def index_by_truncation(t: StructuredOperator, lam, n: int = 512) -> int:
    """Independent index estimate: null-space counts of tall sections."""
    shifted = t - constant_diagonal(lam)
    return (kernel_count_by_truncation(shifted, n)
            - kernel_count_by_truncation(shifted.adjoint(), n))


# -- essential spectrum ------------------------------------------------------

CIRCLE_RTOL = 1e-9          # relative size of the non-constant coefficients
CIRCLE_SAMPLES = 1024


def _nonconstant_size(s: LaurentSymbol):
    """(sum of |c_k| over k != 0, CIRCLE_RTOL * max(|c_0|, 1)): s is nearly
    constant when the sum is at most that bound."""
    return (sum(abs(c) for k, c in s.coeffs.items() if k),
            CIRCLE_RTOL * max(abs(s.coeffs.get(0, 0j)), 1.0))


def modulus_constant(s: LaurentSymbol) -> float | None:
    """Radius alpha when |a| is constant on the circle, else None: the
    non-constant coefficients of g = a conj(a) are small against g_0, and
    alpha = sqrt(g_0)."""
    if len(s.coeffs) == 1:
        return abs(next(iter(s.coeffs.values())))
    g = s.product(s.conjugated())
    rest, bound = _nonconstant_size(g)
    return math.sqrt(g.coeffs.get(0, 0j).real) if rest <= bound else None


def constant_value(s: LaurentSymbol) -> complex | None:
    """The constant c_0 when the other coefficients of a are small against
    it, else None."""
    rest, bound = _nonconstant_size(s)
    return s.coeffs.get(0, 0j) if rest <= bound else None


@dataclass(frozen=True)
class EssentialCurve:
    """Sampled essential spectrum a(T) with circle detection."""

    theta: np.ndarray
    points: np.ndarray
    is_circle: float | None

    @classmethod
    def sampled(cls, s: LaurentSymbol, samples: int = CIRCLE_SAMPLES) -> "EssentialCurve":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        theta = np.arange(samples) * (_TWO_PI / samples)
        return cls(theta, s.evaluate(np.exp(1j * theta)), modulus_constant(s))


def essential_spectrum(t: StructuredOperator) -> EssentialCurve:
    return EssentialCurve.sampled(symbol(t))


def _refined_extremum(s: LaurentSymbol) -> float:
    """min of |a| on the circle, read at the projected roots of the
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
    return float(np.min(np.abs(s.evaluate(z))))


def symbol_min_modulus(s: LaurentSymbol) -> float:
    return _refined_extremum(s)


def _curve_distance(s: LaurentSymbol, lam) -> float:
    """The distance from lam to the curve a(T): min |a - lam| on the circle."""
    return symbol_min_modulus(
        LaurentSymbol({**s.coeffs, 0: s.coeffs.get(0, 0j) - complex(lam)}))


def ess_min_modulus(t: StructuredOperator) -> float:
    """Essential minimum modulus: min of |a| on the circle.

    |T| = sqrt(T*T) has essential spectrum [min |a|, max |a|]; rank terms and
    prefixes cannot move it.
    """
    return symbol_min_modulus(symbol(t))


# -- the boundary of the winding-0 set ---------------------------------------

def _zero_winding_mask(t: StructuredOperator, z, radius: float, margin: float):
    """Mask of the points z where the isolated eigenvalues of t are sought:
    inside the circle |z| = ``radius``, at winding 0 (the roots of
    z^q (a - z) split q : p; ``_wiener_hopf_block``, so p, q >= 1) and
    farther than ``margin`` from the curve."""
    z = np.asarray(z, dtype=complex).ravel()
    inside = _wiener_hopf_block(t.tails, z)[1] & (np.abs(z) < radius)
    sym = symbol(t)
    inside[inside] = [_curve_distance(sym, v) > margin for v in z[inside]]
    return inside


def _segment_box(s: LaurentSymbol, margin: float):
    """A box around a segment curve, aligned with the longest chord of its
    4096 samples and widened by ``margin``, as the map of an angle in
    [0, 2 pi) to its boundary that stretches (cos, -sin) of it onto it:
    clockwise, with the outside on its left."""
    pts = s.on_circle(4096)
    far = pts[np.argmax(np.abs(pts - pts[0]))]
    tip = pts[np.argmax(np.abs(pts - far))]
    axis = (tip - far) / abs(tip - far) if tip != far else 1.0
    local = (pts - far) / axis
    lo = complex(local.real.min() - margin, local.imag.min() - margin)
    hi = complex(local.real.max() + margin, local.imag.max() + margin)

    def point(angle):
        x, y = (np.clip(math.sqrt(2) * f(-np.asarray(angle)), -1, 1) for f in (np.cos, np.sin))
        return far + axis * (lo + hi + x * (hi - lo).real + 1j * y * (hi - lo).imag) / 2

    return point


def _curve_symmetry(tails: np.ndarray) -> tuple:
    """(g, u): g the gcd of the offsets that ``_tail_span`` keeps, so that
    a(z) = b(z^g), and u unimodular with a_-k = u^k a_k for every k within
    the segment tolerance, so that a(u / z) = a(z) and the curve is traced
    back and forth; None when there is no such u."""
    w = len(tails) // 2
    size = np.abs(tails)
    offsets = np.flatnonzero(size > ROOT_RTOL * size.max()) - w
    g = int(np.gcd.reduce(offsets[offsets != 0]))
    k = int(offsets[offsets > 0].min())
    j, tol = np.arange(1, w + 1), _SEGMENT_TOL * (size.sum() - size[w])
    phase = np.angle(tails[w - k] / tails[w + k]) + _TWO_PI * np.arange(k)
    for u in np.exp(1j * phase / k):
        if np.all(np.abs(tails[w - j] - u ** j * tails[w + j]) <= tol):
            return g, u
    return g, None


def _boundary_block(tails: np.ndarray, s) -> tuple:
    """(lam, G, side, reach) at lam = a(e^(i theta)),
    theta = (s + 0.382 (2 pi / 128)) / g: s in [0, 2 pi) runs once round
    the period 2 pi / g (``_curve_symmetry``), and no point of a grid of 128
    lands on a tip of a curve traced back and forth.  G is the boundary
    value of ``_wiener_hopf_block`` from a winding-0 face beside the curve:
    ``_block_from_roots`` on the roots of z^q (a(z) - lam) split as seen
    from there.

    The roots e^(i theta) w^j, w = e^(2 pi i / g), lie on the circle, and
    moving lam to the left of the curve moves them inside.  With them
    divided out and k of the other roots strictly inside, the left face is
    at winding 0 when k = q - g (side 1; they join the inner roots), the right
    face when k = q (side -1; they join the outer roots); side 0 means
    neither.  When a(u / z) = a(z), the partners u e^(-i theta) w^j are
    divided out too and join the outer roots; side is then 1 or 0.  ``reach`` is
    (|r| - 1) / |dr/ds| for the other root r nearest the circle at that
    rate: to first order, no root crosses the circle in a shorter step."""
    w = len(tails) // 2
    p, q = _tail_span(tails)
    poly = tails[w - q: w + p + 1][::-1]
    slope = poly * (p - np.arange(p + q + 1))     # z^(q+1) a'(z), top degree first
    g, u = _curve_symmetry(tails)
    z = np.exp(1j * (np.asarray(s, dtype=float) + 0.382 * _TWO_PI / 128) / g)
    lam = np.polyval(poly, z) / z ** q
    marks = [z[:, None] * np.exp(2j * np.pi * np.arange(g) / g)]
    if u is not None:
        marks.append(u * marks[0].conj())
    rest = np.tile(poly, (len(z), 1))
    rest[:, p] -= lam
    for mark in marks:                  # divide by z^g - mark^g
        rest = rest[:, :-g].copy()
        for i in range(g, rest.shape[1]):
            rest[:, i] += mark[:, 0] ** g * rest[:, i - g]
    rest = _split_roots(rest, np.zeros(len(z)), 0)[1]
    size = np.abs(rest)
    k = np.count_nonzero(size < 1, axis=1)
    side = np.where(k == q - g, 1, np.where((k == q) & (u is None), -1, 0))
    # dr/ds = lam'(theta) / (g a'(r)), with |lam'| = |z a'(z)| on the circle
    ratio = np.append((size - 1) * np.abs(np.polyval(slope, rest)) / size ** (q + 1),
                      np.full((len(z), 1), np.inf), axis=1)
    reach = np.take_along_axis(ratio, np.argmin(np.abs(ratio), axis=1)[:, None], axis=1)
    reach = reach[:, 0] * g / np.abs(np.polyval(slope, z))
    roots = np.concatenate([rest] + marks, axis=1)
    key = np.concatenate([size, np.where(side < 0, np.inf, -1.0)[:, None] * np.ones(g)]
                         + [np.full((len(z), g), np.inf)] * (len(marks) - 1), axis=1)
    roots = np.take_along_axis(roots, np.argsort(key, axis=1), axis=1)
    return lam, _block_from_roots(roots[:, :q], roots[:, q:], poly[0]), side, reach


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
    """The area of {winding != 0} together with the curve: a raster
    estimate, or exact with ``error``, ``curve_cells``, ``cell_diagonal``
    and every component's ``cells`` 0 (segments, circles and ellipses)."""

    value: float
    error: float
    components: tuple
    curve_cells: int
    cell_diagonal: float
    resolution: int


MAX_CURVE_SAMPLES = 2 ** 20     # the raster's gap test gives up at this many


def winding_regions(s: LaurentSymbol, resolution: int = 512) -> AreaEstimate:
    """Components of the complement of the curve a(T) with their windings,
    and the raster area of {winding != 0} together with the curve.

    The cells of the bounding box that the curve's samples touch are marked,
    the samples doubled from 4096 until they lie less than half a cell apart
    (or reach ``MAX_CURVE_SAMPLES``), and each bounded 4-connected component
    of the other cells gets the exact winding (``winding``) of its deepest
    cell in chessboard distance to the curve, the first in scan order; one
    that lies on the curve reads 0.  Error bound: curve length x cell
    diagonal.  A segment curve has a connected complement and measure 0,
    returned exactly without sampling: its flat box would drive the
    sampling to ``MAX_CURVE_SAMPLES``."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    empty = AreaEstimate(0.0, 0.0, (), 0, 0.0, resolution)
    if s.is_segment():
        return empty
    pts = s.on_circle(4096)
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
        if float(np.max(gaps)) < 0.5 * min(cw, ch) or m >= MAX_CURVE_SAMPLES:
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
            w = winding(s, q)
        except PointOnCurve:        # the curve passes through a cell it missed
            w = 0
        cells = int(counts[lab])
        if w != 0:
            inside_cells += cells
        components.append(RegionComponent(w, cells * cell_area, q, cells))

    value = (inside_cells + curve_cells) * cell_area
    error = (curve_len + 4 * cell_diag) * cell_diag
    return AreaEstimate(value, error, tuple(components), curve_cells,
                        cell_diag, resolution)


def _exact_regions(s: LaurentSymbol, resolution: int = 512) -> AreaEstimate | None:
    """The regions of a = c z^k (k != 0) and of a non-segment
    a = a_-1 / z + a_0 + a_1 z exactly; None for every other symbol.

    c z^k traces the circle |lambda| = |c| k times: the open disc is one
    component at winding k and the area is pi |c|^2.  a_-1 / z + a_0 + a_1 z
    traces an ellipse about a_0 with semi-axes |a_1| + |a_-1| and
    ||a_1| - |a_-1||, once, so its inside is one component at winding
    sign(|a_1| - |a_-1|) and the area is pi ||a_1|^2 - |a_-1|^2|.  The
    outside is at winding 0 and the curve has measure 0.  Only these exact
    forms qualify: a near-circle is left to the raster, and a segment
    (|a_1| = |a_-1|) to its exact path there.  ``resolution`` is only
    recorded."""
    if len(s.coeffs) == 1 and 0 not in s.coeffs:
        (k, c), = s.coeffs.items()
        area, centre = math.pi * abs(c) ** 2, 0j
    elif set(s.coeffs) <= {-1, 0, 1} and not s.is_segment():
        big, small = abs(s.coeffs.get(1, 0j)), abs(s.coeffs.get(-1, 0j))
        k = 1 if big > small else -1
        area, centre = math.pi * abs(big ** 2 - small ** 2), s.coeffs.get(0, 0j)
    else:
        return None
    return AreaEstimate(area, 0.0, (RegionComponent(k, area, centre, 0),), 0, 0.0,
                        resolution)


def spectral_area(t: StructuredOperator, resolution: int = 512) -> AreaEstimate:
    """Planar measure of the spectrum's filled-in part.

    For hyponormal operators this is the area entering Putnam's inequality;
    isolated eigenvalues contribute nothing.  Exact for a monomial symbol, a
    bandwidth-1 symbol (an ellipse; ``_exact_regions``) and a segment curve,
    and builds no raster for them; a raster otherwise.
    """
    sym = symbol(t)
    return _exact_regions(sym, resolution) or winding_regions(sym, resolution)


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
