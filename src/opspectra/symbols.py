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

from .core import StructuredOperator, constant_diagonal, gram, memoized
from .errors import ConvergenceFailure, EssentialPoint, PointOnCurve

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_SEGMENT_TOL = 1e-12
ROOT_RTOL = 8 * _EPS        # root finding drops coefficients this small, relative


def _deferred(name: str):
    """Module ``name``, executed on its first attribute access (the stdlib
    ``LazyLoader`` recipe), or the module itself when already imported.
    scipy serves only the banded oracles (truncation counts here, sections
    in ``suites``), so a run that needs none never pays for loading it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
    if offsets.min() >= 0 or offsets.max() <= 0:       # a one-sided tail is traced once
        return g, None
    k = int(offsets[offsets > 0].min())
    j, tol = np.arange(1, w + 1), _SEGMENT_TOL * (size.sum() - size[w])
    phase = np.angle(tails[w - k] / tails[w + k]) + _TWO_PI * np.arange(k)
    for u in np.exp(1j * phase / k):
        if np.all(np.abs(tails[w - j] - u ** j * tails[w + j]) <= tol):
            return g, u
    return g, None


def _boundary_block(tails: np.ndarray, theta, side) -> tuple:
    """(lam, G) at lam = b(e^(i theta)) = a(e^(i theta / g)), a = b(z^g)
    (``_curve_symmetry``): G is the boundary value of ``_wiener_hopf_block``
    from the winding-0 face on the left of the curve (``side`` 1) or on its
    right (-1), ``_block_from_roots`` on the roots of z^q (a(z) - lam) split
    as seen from there; where side is 0, G means nothing.

    The roots e^(i theta / g) w^j, w = e^(2 pi i / g), lie on the circle,
    and moving lam to the left of the curve moves them inside.  With them
    divided out, they and the q - g other roots of least modulus are the
    inner roots for side 1, and the q least alone for side -1.  When
    a(u / z) = a(z), the partners u e^(-i theta / g) w^j are divided out too
    and join the outer roots."""
    w = len(tails) // 2
    p, q = _tail_span(tails)
    poly = tails[w - q: w + p + 1][::-1]
    g, u = _curve_symmetry(tails)
    z = np.exp(1j * np.asarray(theta, dtype=float) / g)
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
    roots = np.concatenate([rest] + marks, axis=1)
    key = np.concatenate([np.abs(rest), np.where(np.asarray(side) < 0, np.inf, -1.0)[:, None]
                          * np.ones(g)] + [np.full((len(z), g), np.inf)] * (len(marks) - 1),
                         axis=1)
    roots = np.take_along_axis(roots, np.argsort(key, axis=1), axis=1)
    return lam, _block_from_roots(roots[:, :q], roots[:, q:], poly[0])


# -- the arrangement of the symbol curve --------------------------------------

ARRANGEMENT_PIECES = 256        # pieces of the first crossing search
ARRANGEMENT_DEPTH = 30          # halvings before an unsettled pair counts as error
ARRANGEMENT_BUDGET = 200_000    # pair tests before the search gives up


@dataclass(frozen=True)
class RegionComponent:
    """One bounded face of the complement of the symbol curve."""

    winding: int
    area: float
    representative: complex


@dataclass(frozen=True)
class AreaEstimate:
    """The area of {winding != 0} and the bounded faces of the curve;
    ``error`` bounds what the pairs of arcs left unsettled can move (inf
    when the search gave up or its windings contradict).  ``edges`` is the
    edge table of b, a = b(z^g): (start, stop, side) per edge between
    consecutive crossing parameters of b, side 1 where the face on its left
    is at winding 0, -1 where the one on its right is and 0 where neither
    is; empty for a segment or where the search gave up."""

    value: float
    error: float
    components: tuple
    edges: tuple = field(default=(), compare=False, repr=False)


def _arc(curve, theta) -> tuple:
    """(b, b') at the angles theta for curve = (lo, c, bend):
    b = sum_j c_j e^(i (lo + j) theta), and bend = sum k^2 |b_k| >= |b''|."""
    lo, c, _ = curve
    z = np.exp(1j * np.asarray(theta, dtype=float))
    power = z ** lo
    return (np.polyval(c[::-1], z) * power,
            1j * np.polyval((c * np.arange(lo, lo + len(c)))[::-1], z) * power)


def _chord_boxes(curve, start, length) -> tuple:
    """(lo, hi, ends): corners of boxes holding the arcs from start to
    start + length, the chords' boxes padded by length^2 bend / 8."""
    ends = _arc(curve, np.concatenate([start, start + length]))[0].reshape(2, -1)
    pad = (1 + 1j) * length ** 2 * curve[2] / 8
    lo = np.minimum(ends[0].real, ends[1].real) + 1j * np.minimum(ends[0].imag, ends[1].imag)
    hi = np.maximum(ends[0].real, ends[1].real) + 1j * np.maximum(ends[0].imag, ends[1].imag)
    return lo - pad, hi + pad, ends


def _boxes_meet(lo, hi, other_lo, other_hi):
    return ((lo.real <= other_hi.real) & (other_lo.real <= hi.real)
            & (lo.imag <= other_hi.imag) & (other_lo.imag <= hi.imag))


def _cross(a, b):
    return (a.conjugate() * b).imag


def _sides(start, stop, points):
    """The signed distances of the points to the line from start to stop."""
    return _cross((stop - start) / np.abs(stop - start), points - start)


def _circle_gap(x, y):
    """|x - y| for angles, on the circle."""
    return np.abs(np.angle(np.exp(1j * (x - y))))


def _crossings(curve, mirror=None) -> tuple:
    """(crossings, error): the parameter pairs (s, t) at which the curve
    crosses itself, and the box area of the pairs of arcs left unsettled.
    With b(mirror - theta) = b(theta), a pair of pieces that meets its own
    mirror image traces one arc back and forth, and is settled.

    Each pair of the ARRANGEMENT_PIECES pieces of the curve (a piece with
    itself too) is tested.  Pieces do not meet when their boxes part, or
    when the other's chord ends lie more than twice the pad to one side of
    the first's chord.  Over a piece widened by a quarter each side, b' lies
    within 3/4 length bend of its value at the middle, a cone of
    directions.  A piece, or two consecutive ones, turning by less than pi
    does not cross itself; two pieces whose cones share no line cross at
    most once (a chord between two crossings would run along both), and
    Newton on b(s) = b(t) from their middles finds it when it lands inside
    the widened pair at rounding level, where the arcs near it cross each
    other's chords beyond their pads (so arcs that only touch get none).
    The pair holding it records it, and a crossing found inside another's
    widened pair is that one.  Other pairs are split in four.  At ARRANGEMENT_DEPTH the hull of a pair's
    boxes counts as error; past ARRANGEMENT_BUDGET pair tests it is inf."""
    h = _TWO_PI / ARRANGEMENT_PIECES
    lo, hi, _ = _chord_boxes(curve, np.arange(ARRANGEMENT_PIECES) * h, h)
    s, t = (k * h for k in np.nonzero(np.triu(_boxes_meet(lo[:, None], hi[:, None], lo, hi))))
    length, found, error, tests = np.full(len(s), h), [], 0.0, 0
    for depth in range(ARRANGEMENT_DEPTH + 1):
        tests += len(s)
        if not len(s) or tests > ARRANGEMENT_BUDGET:
            break
        pair, gap = len(s), _circle_gap(t, s) / length      # 0, 1 or >= 2
        both, widths = np.concatenate([s, t]), np.tile(length, 2)
        lo, hi, ends = _chord_boxes(curve, both, widths)
        beside = _sides(ends[0, :pair], ends[1, :pair], ends[:, pair:])
        pad = length ** 2 * curve[2] / 8
        slope = _arc(curve, both + widths / 2)[1]
        half = np.arcsin(np.minimum(0.75 * widths * curve[2] / np.abs(slope), 1))
        spread, turn = half[:pair] + half[pair:], np.abs(np.angle(slope[pair:] / slope[:pair]))
        settled = np.select([gap < 0.5, gap < 1.5], [spread < np.pi, turn + spread < np.pi],
                            ~_boxes_meet(lo[:pair], hi[:pair], lo[pair:], hi[pair:])
                            | (beside.min(axis=0) > 2 * pad) | (beside.max(axis=0) < -2 * pad))
        if mirror is not None:
            settled |= _circle_gap(s + t + length, mirror) <= length
        apart = ~settled & (gap > 1.5) & (np.minimum(turn, np.pi - turn) > spread)
        if apart.any():
            width = np.tile(length[apart], 2)
            middle = np.append(s[apart], t[apart]) + width / 2
            a, b = np.split(middle, 2)
            for _ in range(8):
                (fa, fb), (da, db) = (np.split(v, 2) for v in _arc(curve, np.append(a, b)))
                jacobian = np.tile(_cross(da, db), 2)
                step = np.append(_cross(fb - fa, db), -_cross(da, fb - fa)) / jacobian
                a, b = np.split(np.append(a, b) + step, 2)
                if np.all(np.abs(step) <= 1e-14):
                    break
            # a crossing within r of (a, b): each arc there runs from beyond its
            # pad on one side of the other's chord to beyond it on the other
            r = width[:len(a)] / 8
            ends = _arc(curve, np.concatenate([a - r, b - r, a + r, b + r]))[0]
            p0, q0, p1, q1 = np.split(ends, 4)
            proper = np.all([(d[0] * d[1] < 0) & (np.abs(d).min(axis=0) > r * r * curve[2] / 2)
                             for d in (_sides(q0, q1, np.array([p0, p1])),
                                       _sides(p0, p1, np.array([q0, q1])))], axis=0)
            off = _circle_gap(np.append(a, b), middle) / width
            near = np.all(np.split(off <= 0.625, 2), axis=0) & proper \
                & (np.abs(fb - fa) <= 1e-13 * curve[2])
            own = near & np.all(np.split(off <= 0.5 + 1e-9, 2), axis=0)   # and its neighbours'
            found += zip(a[own], b[own], middle[:len(a)][own], middle[len(a):][own],
                         0.75 * width[:len(a)][own])
            settled[np.flatnonzero(apart)[near]] = True
        if depth == ARRANGEMENT_DEPTH:      # the hull of the boxes left
            span = np.maximum(hi[:pair], hi[pair:]) - np.minimum(lo[:pair], lo[pair:])
            error = float(np.sum((span.real * span.imag)[~settled]))
        s, t, same = s[~settled], t[~settled], gap[~settled] < 0.5
        length = length[~settled] / 2
        # of a piece with itself, the child (s + l, t) repeats (s, t + l)
        keep = np.concatenate([np.ones(2 * len(s), bool), ~same, np.ones(len(s), bool)])
        s = np.concatenate([s, s, s + length, s + length])[keep]
        t = np.concatenate([t, t + length, t, t + length])[keep]
        length = np.tile(length, 4)[keep]
    crossings = np.empty((0, 5))      # (s, t, middles of the pair, reach)
    for root in np.array(found).reshape(-1, 5):
        # one root inside the other's widened pair, in either order, is that root
        kept = np.vstack([crossings, crossings[:, [1, 0, 3, 2, 4]]])
        same = np.all(_circle_gap(root[:2], kept[:, 2:4]) <= kept[:, 4:], axis=1) \
            | np.all(_circle_gap(kept[:, :2], root[2:4]) <= root[4], axis=1)
        if not same.any():
            crossings = np.vstack([crossings, root])
    return crossings[:, :2] % _TWO_PI, error if tests <= ARRANGEMENT_BUDGET else math.inf


def _arc_areas(curve, start, stop) -> np.ndarray:
    """(1/2) Im of the integral of conj(b) db from start to stop, in closed
    form: conj(b) b' = sum_m w_m e^(i m theta), w_m = sum_(k - j = m)
    conj(b_j) i k b_k."""
    lo, c, _ = curve
    weight = np.correlate(1j * np.arange(lo, lo + len(c)) * c, c, "full")
    m = np.arange(1 - len(c), len(c))
    start, stop = start[:, None], stop[:, None]
    integral = np.where(m == 0, stop - start, (np.exp(1j * m * stop) - np.exp(1j * m * start))
                        / (1j * np.where(m, m, 1)))
    return 0.5 * (integral @ weight).imag


def _clearance(curve, points, start, stop) -> np.ndarray:
    """A lower bound, within a factor 2, on the distance from each point to
    the curve from its start to its stop: pieces of that arc are halved
    until each box lies at least half the nearest chord end's distance away."""
    owner = np.repeat(np.arange(len(points)), 16)
    length = np.repeat((stop - start) / 16, 16)
    begin = np.repeat(start, 16) + length * np.tile(np.arange(16), len(points))
    nearest, bound = np.full(len(points), np.inf), np.full(len(points), np.inf)
    for depth in range(ARRANGEMENT_DEPTH + 1):
        lo, hi, ends = _chord_boxes(curve, begin, length)
        np.minimum.at(nearest, owner, np.abs(ends[0] - points[owner]))
        off = np.maximum((lo - points[owner]).view(float), (points[owner] - hi).view(float))
        gap = np.hypot(*np.maximum(off, 0).reshape(-1, 2).T)
        done = (gap >= nearest[owner] / 2) | (depth == ARRANGEMENT_DEPTH)
        np.minimum.at(bound, owner[done], gap[done])
        if done.all():
            return bound
        owner, begin = np.repeat(owner[~done], 2), np.repeat(begin[~done], 2)
        length = np.repeat(length[~done] / 2, 2)
        begin[1::2] += length[1::2]


def _faces(curve, crossings):
    """The bounded faces of the curve crossing itself at the parameter pairs
    ``crossings``, as (winding, area, point inside) of b, and its edge table
    (``AreaEstimate``); None when their windings contradict each other.

    The edges run between consecutive crossing parameters, as forward
    half-edges 2j and backward ones 2j + 1.  At a crossing the half-edge
    after one arriving is the outgoing one just clockwise of its twin by the
    angle of +-b', which keeps the face on the left (the DCEL of de Berg et
    al., Computational Geometry, ch. 2).  Faces sum ``_arc_areas``; the
    unbounded face has the least area and winding 0, and across a forward
    edge left = right + 1 (Alexander's numbering).  A bounded face whose sum
    falls below 0 lies below its rounding and reads 0.  A face's point lies
    left of the middle of its edge that allows the longest step, half the
    ``_clearance`` of the rest of the curve: the arc within |b'| / bend of
    the middle meets the normal there only at the middle."""
    theta = np.sort(crossings.ravel()) if len(crossings) else np.zeros(1)
    stop = np.append(theta[1:], theta[0] + _TWO_PI)
    after = np.arange(2 * len(theta))
    if len(crossings):
        place = np.searchsorted(theta, crossings)[:, [0, 0, 1, 1]]
        out = (2 * place - [0, 1, 0, 1]) % len(after)
        turn = np.argsort(np.angle(_arc(curve, theta)[1][place] * [1, -1, 1, -1]), axis=1)
        out = np.take_along_axis(out, turn, axis=1)
        after[out ^ 1] = np.roll(out, 1, axis=1)
    face, count = np.full(len(after), -1), 0
    for first in range(len(after)):
        edge = first
        while face[edge] < 0:
            face[edge], edge = count, after[edge]
        count += face[first] == count
    edge_area = _arc_areas(curve, theta, stop)
    area = np.bincount(face, np.ravel([edge_area, -edge_area], order="F"), count)
    left, right, outer = face[0::2], face[1::2], np.argmin(area)
    winding = np.full(count, np.nan)
    winding[outer] = 0
    for _ in range(count):
        known = np.isnan(winding[left]) & ~np.isnan(winding[right])
        winding[left[known]] = winding[right[known]] + 1
        known = np.isnan(winding[right]) & ~np.isnan(winding[left])
        winding[right[known]] = winding[left[known]] - 1
    if np.any(winding[left] != winding[right] + 1):
        return None
    middle = (theta + stop) / 2
    value, slope = _arc(curve, middle)
    reach = np.minimum(np.abs(slope) / curve[2], (stop - theta) / 2)
    step = np.repeat(_clearance(curve, value, middle + reach, middle + _TWO_PI - reach) / 2, 2)
    point = np.repeat(value, 2) + step * np.ravel([1j * slope, -1j * slope], order="F") \
        / np.repeat(np.abs(slope), 2)
    order = np.lexsort((step, face))            # by face, the longest step last
    best = order[np.searchsorted(face[order], np.arange(count), side="right") - 1]
    side = np.where(winding[left] == 0, 1, np.where(winding[right] == 0, -1, 0))
    return ([(int(winding[f]), max(float(area[f]), 0.0), complex(point[best[f]]))
             for f in range(count) if f != outer],
            tuple(zip(theta.tolist(), stop.tolist(), side.tolist())))


def winding_regions(s: LaurentSymbol) -> AreaEstimate:
    """The bounded faces of the complement of the curve a(T) with their
    windings, areas and representatives, and the area of {winding != 0}:
    the exact arrangement of the curve.

    With (g, u) from ``_curve_symmetry``, a(z) = b(z^g), and the faces are
    b's with windings times g.  A curve traced back and forth (u, segments)
    bounds no face; with u, b(u^g / z) = b(z), and the edges run between the
    parameters at which its arc crosses itself (``_crossings`` with that
    mirror), each at side 1, or there are none when that search gives up.
    When b's offsets
    lie in {-1, 0, 1}, b traces an ellipse about b_0 once: one face at
    winding sign(|b_1| - |b_-1|), of area pi ||b_1|^2 - |b_-1|^2|, on the
    left of its one edge when b runs counterclockwise.  Any other b less
    its constant is cut by ``_crossings`` into ``_faces``; when they
    contradict, the error is inf and no face or edge is listed."""
    if s.is_segment():
        return AreaEstimate(0.0, 0.0, ())
    w = max(abs(k) for k in s.coeffs)
    g, u = _curve_symmetry(np.array([s.coeffs.get(k, 0j) for k in range(-w, w + 1)]))
    centre = s.coeffs.get(0, 0j)
    b = {k // g: c for k, c in s.coeffs.items() if k and k % g == 0}
    if u is None and set(b) <= {-1, 1}:
        big, small = abs(b.get(1, 0j)), abs(b.get(-1, 0j))
        area = math.pi * abs(big ** 2 - small ** 2)
        face = RegionComponent(g if big > small else -g, area, centre)
        return AreaEstimate(area, 0.0, (face,), ((0.0, _TWO_PI, -1 if big > small else 1),))
    lo, c = min(b), np.zeros(max(b) - min(b) + 1, dtype=complex)
    c[np.array(list(b)) - lo] = list(b.values())
    curve = (lo, c, float(sum(k * k * abs(v) for k, v in b.items())))
    if u is not None:
        crossings, error = _crossings(curve, g * np.angle(u))
        theta = np.sort(crossings.ravel()) if len(crossings) else np.zeros(1)
        stop = np.append(theta[1:], theta[0] + _TWO_PI)
        edges = tuple((start, end, 1) for start, end in zip(theta.tolist(), stop.tolist()))
        return AreaEstimate(0.0, 0.0, (), edges if error < math.inf else ())
    crossings, error = _crossings(curve)
    arrangement = _faces(curve, crossings) if error < math.inf else None
    if arrangement is None:
        return AreaEstimate(0.0, math.inf, ())
    faces, edges = arrangement
    components = tuple(RegionComponent(g * k, area, centre + point)
                       for k, area, point in faces)
    return AreaEstimate(sum(c.area for c in components if c.winding), error, components,
                        edges)


def spectral_area(t: StructuredOperator) -> AreaEstimate:
    """Planar measure of the spectrum's filled-in part, the area entering
    Putnam's inequality for hyponormal operators, with the faces and edge
    table of the curve (``winding_regions``), kept in t's memo."""
    return memoized(t, "spectral_area", lambda: winding_regions(symbol(t)))


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
