"""The winding raster oracle (``reference_spectra.raster_regions``), checked
against a test-local one built with a Euclidean distance transform, with the
arrangement's area inside its error; and the region ``_zero_winding_mask``
where isolated eigenvalues are sought, checked against ``winding`` and
``_curve_distance``."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from opspectra import (LaurentSymbol, PointOnCurve, load_bundled, suites, symbol,
                       toeplitz, winding_regions)
from opspectra import symbols as symbols_module
from opspectra.specfiles import BUNDLED
from opspectra.symbols import (AreaEstimate, _curve_distance, _segment_box, _tail_span,
                               _zero_winding_mask, polygon_winding, winding)
from reference_spectra import RasterComponent, RasterEstimate, raster_regions


def _curve_cells(s, resolution):
    """The raster's geometry as ``raster_regions`` builds it: ((xmin, ymin),
    (cell width, cell height), the refined curve samples, the mask of the
    cells they touch), or None for a segment or a curve below rounding."""
    if s.is_segment():
        return None
    pts = s.on_circle(4096)
    scale = max(1.0, s.magnitude())
    extent = max(np.ptp(pts.real), np.ptp(pts.imag))
    if extent <= 1e-13 * scale:
        return None
    pad = extent / resolution
    xmin, xmax = float(np.min(pts.real)) - pad, float(np.max(pts.real)) + pad
    ymin, ymax = float(np.min(pts.imag)) - pad, float(np.max(pts.imag)) + pad
    cw = (xmax - xmin) / resolution
    ch = (ymax - ymin) / resolution
    m = 4096
    while True:
        gaps = np.abs(np.diff(np.append(pts, pts[0])))
        if float(np.max(gaps)) < 0.5 * min(cw, ch) or m >= 2 ** 20:
            break
        m *= 2
        pts = s.on_circle(m)
    ix = np.clip(((pts.real - xmin) / cw).astype(int), 0, resolution - 1)
    iy = np.clip(((pts.imag - ymin) / ch).astype(int), 0, resolution - 1)
    curve_mask = np.zeros((resolution, resolution), dtype=bool)
    curve_mask[iy, ix] = True
    return (xmin, ymin), (cw, ch), pts, curve_mask


def _edt_winding_regions(s, resolution):
    """The raster as it was built with a Euclidean distance transform, whose
    maximum_position chose each component's representative."""
    cells = _curve_cells(s, resolution)
    if cells is None:
        return RasterEstimate(0.0, 0.0, (), 0, 0.0)
    (xmin, ymin), (cw, ch), pts, curve_mask = cells
    cell_area = cw * ch
    cell_diag = math.hypot(cw, ch)
    curve_len = float(np.sum(np.abs(np.diff(np.append(pts, pts[0])))))
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
            components.append(RasterComponent(w, cells * cell_area, q, cells))
    value = (inside_cells + curve_cells) * cell_area
    error = (curve_len + 4 * cell_diag) * cell_diag
    return RasterEstimate(value, error, tuple(components), curve_cells, cell_diag)


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
    """The oracle against the distance-transform raster, and the area of the
    arrangement inside the oracle's error wherever the oracle marks cells
    (a curve below the rounding of its shift has none)."""
    symbols = (_suite_symbols() + [LaurentSymbol(c) for c in TRAPS]
               + [symbol(t) for t in pool_bases]
               + [symbol(load_bundled(name).operator) for name in BUNDLED])
    for s in symbols:
        got = raster_regions(s, resolution)
        want = _edt_winding_regions(s, resolution)
        assert (got.value, got.error, got.curve_cells, got.cell_diagonal) == \
            (want.value, want.error, want.curve_cells, want.cell_diagonal)
        assert [(c.winding, c.cells, c.area) for c in got.components] == \
            [(c.winding, c.cells, c.area) for c in want.components]
        exact = winding_regions(s)
        assert exact.error == 0
        assert got.curve_cells == 0 or abs(exact.value - got.value) <= got.error


def test_representative_on_the_curve_reads_winding_zero(pool_bases, monkeypatch):
    """Where ``winding`` finds a representative on the curve, the oracle's
    component reads winding 0."""
    t = pool_bases[2]
    assert any(c.winding for c in raster_regions(symbol(t), 512).components)

    def on_curve(s, lam):
        raise PointOnCurve(f"{lam} lies on the symbol curve")

    monkeypatch.setattr(symbols_module, "winding", on_curve)
    components = raster_regions(symbol(t), 512).components
    assert components and all(c.winding == 0 for c in components)


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
    cells = _curve_cells(s, 128)
    if cells is None:
        assert raster_regions(s, 128).components == ()
        return
    origin, (cw, ch), _, curve = cells
    labels = ndimage.label(~curve, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])[0]
    depth = _chessboard_depth(curve)
    for comp in raster_regions(s, 128).components:
        rx = round((comp.representative.real - origin[0]) / cw - 0.5)
        ry = round((comp.representative.imag - origin[1]) / ch - 0.5)
        member = labels == labels[ry, rx]
        assert labels[ry, rx] != 0
        assert np.count_nonzero(member) == comp.cells
        deepest = member & (depth == depth[member].max())
        assert np.flatnonzero(deepest)[0] == ry * labels.shape[1] + rx


# -- the region where isolated eigenvalues are sought --------------------------

def _mask(s, z, clearance):
    """``_zero_winding_mask`` with a circle that holds every test point."""
    return _zero_winding_mask(toeplitz(s.coeffs), z, 4.0 * max(1.0, s.magnitude()), clearance)


def _lookup_points(s, rng, count=200):
    """Random points of the curve's box, points 1e-7 to 1e-1 of its extent
    from the curve, and points outside the box."""
    curve = s.on_circle(4096)
    lo = complex(curve.real.min(), curve.imag.min())
    hi = complex(curve.real.max(), curve.imag.max())
    span = hi - lo
    box = lo + rng.uniform(-0.02, 1.02, count) * span.real \
        + 1j * rng.uniform(-0.02, 1.02, count) * span.imag
    theta = rng.uniform(0, 2 * np.pi, count)
    near = s.evaluate(np.exp(1j * theta)) + abs(span) * np.exp(
        rng.uniform(np.log(1e-7), np.log(1e-1), count)
        + 1j * rng.uniform(0, 2 * np.pi, count))
    outside = np.concatenate([lo - span * rng.uniform(0.05, 1, 10),
                              hi + span * rng.uniform(0.05, 1, 10)])
    return np.concatenate([box, near, outside])


coefficient = st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                 allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), coefficient, min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-6, 1e-3]))
def test_isolated_mask_matches_the_per_point_predicate(coeffs, seed, clearance):
    """The mask of the region against ``winding`` and ``_curve_distance``
    point by point, on random two-sided symbols and clearances: a point is
    in it exactly when it lies at winding 0 inside the circle and farther
    than the clearance from the curve, with no band along the curve."""
    s = LaurentSymbol(coeffs)
    assume(not s.is_segment() and 0 not in _tail_span(toeplitz(coeffs).tails))
    z = _lookup_points(s, np.random.default_rng(seed))
    radius = 4.0 * max(1.0, s.magnitude())
    want = []
    for v in z:
        try:
            zero = winding(s, v) == 0
        except PointOnCurve:
            zero = False
        want.append(zero and abs(v) < radius and _curve_distance(s, v) > clearance)
    assert _mask(s, z, clearance).tolist() == want


def test_segment_symbol_has_no_raster_and_falls_back():
    """A segment curve bounds no face, and the count cuts it out as a box:
    clockwise around the segment, widened by the clearance."""
    s = LaurentSymbol({1: 1.0, -1: 1.0})
    assert winding_regions(s) == AreaEstimate(0.0, 0.0, ())
    z = np.array([0.0, 0.5j, 3.0, 1.0 + 1e-9j])
    assert _mask(s, z, 1e-6).tolist() == [False, True, True, False]
    box = _segment_box(s, 1e-6)(np.linspace(0, 2 * np.pi, 400, endpoint=False))
    assert all(polygon_winding(box, v) == -1 for v in s.on_circle(64) if abs(v) < 1.9)
    assert np.allclose([box.imag.min(), box.imag.max()], [-1e-6, 1e-6], rtol=1e-6, atol=0)
    assert np.allclose([box.real.min(), box.real.max()], [-2 - 1e-6, 2 + 1e-6])


def test_points_on_a_segment_curve_between_its_samples_are_not_isolated():
    """On the curve of z + 1/z the 4096 samples lie up to 3e-3 apart; a point
    on an edge between two of them is on the curve, whatever its distance to
    the samples."""
    s = LaurentSymbol({1: 1.0, -1: 1.0})
    curve = s.on_circle(4096)
    middles = (0.5 * (curve + np.roll(curve, -1)))[960:1088]   # around 0
    assert float(np.min(np.abs(curve[:, None] - middles), axis=0).min()) > 1e-3
    assert not _mask(s, middles, 1e-6).any()
    assert _mask(s, middles + 1e-3j, 1e-6).all()
