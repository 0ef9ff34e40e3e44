"""The winding raster behind winding_regions, checked against a test-local
oracle, and the region ``_zero_winding_region`` cuts from it for isolated
eigenvalues, checked against ``winding`` and ``_curve_distance``."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from opspectra import (LaurentSymbol, PointOnCurve, load_bundled, suites, symbol,
                       winding_regions)
from opspectra import symbols as symbols_module
from opspectra.classify import _region_clusters
from opspectra.specfiles import BUNDLED
from opspectra.symbols import (AreaEstimate, RegionComponent, _curve_distance,
                               _winding_raster, _zero_winding_region,
                               polygon_winding, winding)


def _edt_winding_regions(s, resolution, max_curve_samples=2 ** 20):
    """The raster as it was built with a Euclidean distance transform, whose
    maximum_position chose each component's representative."""
    if s.is_segment():
        return AreaEstimate(0.0, 0.0, (), 0, 0.0, resolution)
    pts = s.on_circle(4096)
    scale = max(1.0, s.magnitude())
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    if extent <= 1e-13 * scale:
        return AreaEstimate(0.0, 0.0, (), 0, 0.0, resolution)
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
        if float(np.max(gaps)) < 0.5 * min(cw, ch) or m >= max_curve_samples:
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
    border = np.unique(np.concatenate([labels[0, :], labels[-1, :],
                                       labels[:, 0], labels[:, -1]]))
    unbounded = set(int(b) for b in border if b != 0)
    bounded = [lab for lab in range(1, n_labels + 1) if lab not in unbounded]
    components = []
    inside_cells = 0
    if bounded:
        dist = ndimage.distance_transform_edt(~curve_mask)
        reps = ndimage.maximum_position(dist, labels=labels, index=bounded)
        counts = ndimage.sum_labels(np.ones_like(labels), labels=labels,
                                    index=bounded)
        for (ry, rx), cells in zip(np.atleast_2d(reps), np.atleast_1d(counts)):
            q = complex(xmin + (rx + 0.5) * cw, ymin + (ry + 0.5) * ch)
            w = polygon_winding(pts, q)
            cells = int(cells)
            if w != 0:
                inside_cells += cells
            components.append(RegionComponent(w, cells * cell_area, q, cells))
    value = (inside_cells + curve_cells) * cell_area
    error = (curve_len + 4 * cell_diag) * cell_diag
    return AreaEstimate(value, error, tuple(components), curve_cells,
                        cell_diag, resolution)


def _suite_symbols(count=12):
    out = []
    for seed in range(count):
        rng = np.random.default_rng([20, seed])
        out.append(symbol(suites.random_banded_symbol(rng, max_bandwidth=3)))
        out.append(symbol(suites.random_weighted_shift(rng)))
        out.append(symbol(suites.random_hyponormal(rng)))
    return out


TRAPS = [{1: 1.0, -1: 0.5j}, {1: 1.0, -1: 1.0, 2: 1.0, -2: 1j},
         {0: 1e6, 1: 1e-7}, {0: 1e6, 1: 1e-7, -1: 0.5e-7j}, {0: 1e6, 1: 1e-8},
         {1: 1.0, -1: 1.0}]


@pytest.mark.parametrize("resolution", [128, 512])
def test_raster_matches_the_distance_transform_version(resolution, pool_bases):
    symbols = (_suite_symbols() + [LaurentSymbol(c) for c in TRAPS]
               + [symbol(t) for t in pool_bases]
               + [symbol(load_bundled(name).operator) for name in BUNDLED])
    for s in symbols:
        got = winding_regions(s, resolution)
        want = _edt_winding_regions(s, resolution)
        assert (got.value, got.error, got.curve_cells, got.cell_diagonal) == \
            (want.value, want.error, want.curve_cells, want.cell_diagonal)
        assert [(c.winding, c.cells, c.area) for c in got.components] == \
            [(c.winding, c.cells, c.area) for c in want.components]


def test_representative_on_the_curve_leaves_the_raster_open(pool_bases, monkeypatch):
    """Where ``winding`` finds a representative on the curve, no cell's
    winding is known: the raster is not closed and nothing is certified.
    Pool base (2, 8, 0): a bandwidth-1 tail would take the pencil."""
    t = pool_bases[2]
    assert _winding_raster(symbol(t), 512).closed

    def on_curve(s, lam):
        raise PointOnCurve(f"{lam} lies on the symbol curve")

    monkeypatch.setattr(symbols_module, "winding", on_curve)
    raster = _winding_raster(symbol(t), 512)
    assert raster.estimate.components and not raster.closed
    assert all(c.winding == 0 for c in raster.estimate.components)
    assert _region_clusters(t, raster=raster) == ((), False)


def _chessboard_depth(curve):
    """Chebyshev distance in cells to the nearest curve cell, by dilation."""
    depth = np.zeros(curve.shape, dtype=int)
    reached = curve.copy()
    step = 0
    while not reached.all():
        step += 1
        grown = ndimage.binary_dilation(reached, structure=np.ones((3, 3)))
        depth[grown & ~reached] = step
        reached = grown
    return depth


@pytest.mark.parametrize("s", _suite_symbols(4) + [LaurentSymbol(c)
                                                   for c in TRAPS[:2]])
def test_representative_is_the_first_deepest_cell_of_its_component(s):
    raster = _winding_raster(s, 128)
    if raster.labels is None:
        assert raster.estimate.components == ()
        return
    depth = _chessboard_depth(raster.labels == 0)
    assert np.array_equal(raster.depth, depth)
    (cw, ch), origin = raster.cell, raster.origin
    for comp in raster.estimate.components:
        rx = round((comp.representative.real - origin.real) / cw - 0.5)
        ry = round((comp.representative.imag - origin.imag) / ch - 0.5)
        member = raster.labels == raster.labels[ry, rx]
        assert raster.labels[ry, rx] != 0
        assert np.count_nonzero(member) == comp.cells
        deepest = member & (depth == depth[member].max())
        assert np.flatnonzero(deepest)[0] == ry * raster.labels.shape[1] + rx


# -- the region where isolated eigenvalues are sought --------------------------

def _edge_distance(curve_pts, q):
    """Least distance from q to an edge of the closed polygon, each edge
    parametrized as a + s (b - a), s in [0, 1]."""
    a, b = curve_pts, np.roll(curve_pts, -1)
    d = b - a
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.real((q - a) / d)         # the projection parameter on each edge
    s = np.where(d == 0, 0.0, np.clip(s, 0.0, 1.0))
    return float(np.min(np.abs(a + s * d - q)))


def _winding_and_distance(s, z):
    """Per point: whether the curve winds zero times around it, and its
    distance to the curve.  Symbols of low degree use ``winding`` and
    ``_curve_distance``; for high degree, whose roots are costly, the curve
    is the polygon of 2^16 samples, whose chords stray from it by less than
    a tenth of a 512 raster cell.  Coefficients below 1e-12 of the largest are
    dropped first: they move the curve by far less than any clearance
    tested, and ``winding`` miscounts the roots of a polynomial whose top
    coefficient is that small."""
    top = max(abs(c) for c in s.coeffs.values())
    s = LaurentSymbol({k: c for k, c in s.coeffs.items() if abs(c) >= 1e-12 * top})
    if max(max(s.coeffs), 0) - min(min(s.coeffs), 0) <= 8:
        zero, dist = [], []
        for q in z:
            try:
                zero.append(winding(s, q) == 0)
            except PointOnCurve:
                zero.append(False)
            dist.append(_curve_distance(s, q))
        return np.array(zero), np.array(dist)
    fine = s.on_circle(2 ** 16)
    return (np.array([polygon_winding(fine, complex(q)) == 0 for q in z]),
            np.array([_edge_distance(fine, complex(q)) for q in z]))


def _lookup_points(s, raster, rng, count=200):
    """Random box points, points 0.3-30 cells from the curve, and points
    outside the box."""
    curve = s.on_circle(4096)
    lo = complex(curve.real.min(), curve.imag.min())
    hi = complex(curve.real.max(), curve.imag.max())
    span = hi - lo
    box = lo + rng.uniform(-0.02, 1.02, count) * span.real \
        + 1j * rng.uniform(-0.02, 1.02, count) * span.imag
    cell = min(raster.cell)
    theta = rng.uniform(0, 2 * np.pi, count)
    near = s.evaluate(np.exp(1j * theta)) + cell * np.exp(
        rng.uniform(np.log(0.3), np.log(30), count)
        + 1j * rng.uniform(0, 2 * np.pi, count))
    outside = np.concatenate([lo - span * rng.uniform(0.05, 1, 10),
                              hi + span * rng.uniform(0.05, 1, 10)])
    return np.concatenate([box, near, outside])


def _region(s, raster, clearance):
    """``_zero_winding_region`` with a square that holds every test point."""
    return _zero_winding_region(s, raster, 4.0 * max(1.0, s.magnitude()), clearance)


def _check_region(s, raster, z, clearance):
    """Every point of z in the region is at winding 0 and farther than the
    clearance from the curve, and farther than 0.4 cell when the region
    is cut cell by cell; then every point of z at winding 0 farther than
    two cell diagonals from the curve is in it.  Returns the mask."""
    inside = _region(s, raster, clearance)[1](z)
    zero, dist = _winding_and_distance(s, z)
    by_cells = raster.labels is not None and min(raster.cell) > 2 * clearance
    least = max(clearance, 0.4 * min(raster.cell)) if by_cells else clearance
    assert zero[inside].all()
    assert (dist[inside] > least).all()
    if by_cells:
        band = 2 * math.hypot(*raster.cell)
        assert inside[zero & (dist > band)].all()
    return inside


def _in_raster_box(raster, z):
    far = raster.origin + raster.labels.shape[0] * complex(*raster.cell)
    return ((z.real >= raster.origin.real) & (z.real < far.real)
            & (z.imag >= raster.origin.imag) & (z.imag < far.imag))


coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                 allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), coefficient, min_size=1, max_size=6),
       st.sampled_from([64, 256, 512]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-6, 1e-3]))
def test_isolated_mask_matches_the_per_point_predicate(coeffs, resolution,
                                                       seed, clearance):
    """The region's membership mask against ``winding`` and
    ``_curve_distance`` on random symbols, rasters and clearances."""
    s = LaurentSymbol(coeffs)
    assume(not s.is_segment())
    raster = _winding_raster(s, resolution)
    assume(raster.labels is not None)
    if not raster.closed:       # a flat curve that 2^20 samples do not close
        assert _region(s, raster, clearance) is None
        return
    z = _lookup_points(s, raster, np.random.default_rng(seed))
    _check_region(s, raster, z, clearance)


@pytest.mark.parametrize("coeffs, resolution, max_samples, decides", [
    # the 4096-point polygon strays up to about 0.1 from this curve
    ({1: 1.0, 1500: 0.05}, 512, 2 ** 20, True),
    # a star polygon: each coarse chord spans 17.6 degrees of the circle
    ({200: 1.0}, 512, 2 ** 20, True),
    ({1: 1.0, -1: 0.5j}, 512, 2 ** 20, True),
    # the gap test fails at MAX_CURVE_SAMPLES: there is no region
    ({1: 1.0, 1500: 0.05}, 512, 4096, False),
    # cells no wider than twice the clearance: the curve's whole box is cut out
    ({1: 1e-7, -2: 0.3e-7}, 256, 2 ** 20, False),
])
def test_isolated_mask_on_fixed_symbols(coeffs, resolution, max_samples,
                                        decides, monkeypatch):
    """``decides`` says whether the region reaches into the raster box."""
    s = LaurentSymbol(coeffs)
    monkeypatch.setattr(symbols_module, "MAX_CURVE_SAMPLES", max_samples)
    raster = _winding_raster(s, resolution)
    assert raster.closed == (max_samples > 4096)
    if not raster.closed:
        assert _region(s, raster, 1e-6) is None
        assert not decides
        return
    for seed in range(3):
        z = _lookup_points(s, raster, np.random.default_rng(seed), count=100)
        inside = _check_region(s, raster, z, 1e-6)
        assert inside[_in_raster_box(raster, z)].any() == decides


def test_segment_symbol_has_no_raster_and_falls_back():
    s = LaurentSymbol({1: 1.0, -1: 1.0})
    raster = _winding_raster(s, 512)
    assert raster.labels is None and not raster.closed
    z = np.array([0.0, 0.5j, 3.0, 1.0 + 1e-9j])
    assert _region(s, raster, 1e-6)[1](z).tolist() == [False, True, True, False]


def test_points_on_a_segment_curve_between_its_samples_are_not_isolated():
    """On the curve of z + 1/z the 4096 samples lie up to 3e-3 apart; a point
    on an edge between two of them is on the curve, whatever its distance to
    the samples."""
    s = LaurentSymbol({1: 1.0, -1: 1.0})
    curve = s.on_circle(4096)
    middles = (0.5 * (curve + np.roll(curve, -1)))[960:1088]   # around 0
    assert float(np.min(np.abs(curve[:, None] - middles), axis=0).min()) > 1e-3
    contains = _region(s, _winding_raster(s, 512), 1e-6)[1]
    assert not contains(middles).any()
    assert contains(middles + 1e-3j).all()


def _coarse_chord_points(s, raster):
    """Points a quarter cell apart along every chord of the 4096-point
    polygon."""
    curve = s.on_circle(4096)
    ends = np.roll(curve, -1)
    steps = int(np.ceil(np.max(np.abs(ends - curve))
                        / (0.25 * min(raster.cell)))) + 1
    t = np.linspace(0.0, 1.0, steps + 1)
    return (curve[:, None] + t * (ends - curve)[:, None]).ravel()


@pytest.mark.parametrize("coeffs", [
    {1: 1.0}, {1: 1.0, 2: 0.1}, {1: 1.0, -1: 0.5j}, {1: 1.0, 2: 0.4},
    {1: 1.0, -1: 1.0, 2: 1.0, -2: 1j},
    # chords that cut far inside the curve
    {200: 1.0}, {1: 1.0, 1500: 0.05}, {20: 1.0, -20: 1.0, 40: 1.0, -40: 1j},
])
def test_lookup_decides_no_point_of_a_coarse_chord(coeffs):
    """The chords of the 4096-point polygon pass within a fraction of a cell
    of the curve or cut across it into other windings; no chord point is
    put in the region wrongly (up to 64 of those in it are checked)."""
    s = LaurentSymbol(coeffs)
    raster = _winding_raster(s, 512)
    z = _coarse_chord_points(s, raster)
    inside = _region(s, raster, 1e-6)[1](z)
    picked = np.random.default_rng(0).permutation(np.flatnonzero(inside))[:64]
    zero, dist = _winding_and_distance(s, z[picked])
    assert zero.all() and (dist > 0.4 * min(raster.cell)).all()
