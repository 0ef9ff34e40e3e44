"""The exact arrangement of the symbol curve (``symbols.winding_regions``):
its faces against the trace formula sum winding * area = pi sum k |a_k|^2,
against ``winding`` at their representatives and against the raster oracle,
on random symbols and on fixed cases."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_perfbench
from opspectra import AreaEstimate, LaurentSymbol, symbol, winding, winding_regions
from opspectra import symbols as symbols_module
from reference_spectra import raster_regions
from test_no_warnings import symmetric_tail

workloads = load_perfbench("workloads")


def check_faces(s, est):
    """The faces of ``est`` sum winding * area to pi sum k |a_k|^2, each has
    a positive area, and ``winding`` reads its winding at its representative."""
    flux = sum(k * abs(c) ** 2 for k, c in s.coeffs.items())
    size = sum(abs(k) * abs(c) ** 2 for k, c in s.coeffs.items())
    total = sum(face.winding * face.area for face in est.components)
    assert abs(total - math.pi * flux) <= 1e-12 * max(1.0, size)
    assert all(face.area > 0 for face in est.components)
    assert [winding(s, face.representative) for face in est.components] == \
        [face.winding for face in est.components]


def gaussian_draw(index):
    """Draw ``index`` of default_rng(0): bandwidth integers(2, 7), tails
    normal(size=2w+1) + 1j normal(size=2w+1)."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        w = int(rng.integers(2, 7))
        tails = rng.normal(size=2 * w + 1) + 1j * rng.normal(size=2 * w + 1)
    return LaurentSymbol(dict(zip(range(-w, w + 1), tails)))


def crossings(s):
    """``symbols._crossings`` of s less its constant, s of gcd 1."""
    b = {k: c for k, c in s.coeffs.items() if k}
    lo = min(b)
    c = np.zeros(max(b) - lo + 1, dtype=complex)
    c[np.array(list(b)) - lo] = list(b.values())
    return symbols_module._crossings((lo, c, float(sum(k * k * abs(v) for k, v in b.items()))))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_random_faces_satisfy_the_trace_formula_and_the_oracle(bandwidth, seed):
    rng = np.random.default_rng(seed)
    s = LaurentSymbol({k: complex(*rng.uniform(-1, 1, 2))
                       for k in range(-bandwidth, bandwidth + 1)})
    est = winding_regions(s)
    assert est.error < math.inf
    check_faces(s, est)
    oracle = raster_regions(s, 256)
    assert abs(est.value - oracle.value) <= oracle.error + est.error


def uniform_draws():
    """60 draws of default_rng(5): bandwidth 2-4, coefficients U(-1, 1)^2."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        w = int(rng.integers(2, 5))
        tails = rng.uniform(-1, 1, 2 * w + 1) + 1j * rng.uniform(-1, 1, 2 * w + 1)
        yield LaurentSymbol(dict(zip(range(-w, w + 1), tails)))


def test_pool_bases_and_260_draws_are_exact():
    """The 11 pool bases, 60 uniform and 200 Gaussian draws: error 0, the
    trace formula, positive areas, ``winding`` at every representative and
    the area inside the error of the 512 raster oracle."""
    symbols = ([symbol(workloads.generic_base(*key)) for key in workloads.GENERIC_POOL]
               + list(uniform_draws()) + [gaussian_draw(i) for i in range(200)])
    for s in symbols:
        est, oracle = winding_regions(s), raster_regions(s, 512)
        assert est.error == 0
        check_faces(s, est)
        assert abs(est.value - oracle.value) <= oracle.error


@pytest.mark.parametrize("key, faces, raster_faces", [((3, 16, 1), 4, 12), ((2, 8, 0), 2, 3)])
def test_pool_bases_have_the_faces_the_raster_splits(key, faces, raster_faces):
    """The raster oracle splits faces into needle components; the
    arrangement lists each face once, with the raster's area to its error."""
    s = symbol(workloads.generic_base(*key))
    est, oracle = winding_regions(s), raster_regions(s, 512)
    assert est.error == 0
    check_faces(s, est)
    assert sum(1 for face in est.components if face.winding) == faces
    assert sum(1 for face in oracle.components if face.winding) == raster_faces
    assert abs(est.value - oracle.value) <= oracle.error


def test_two_crossings_closer_than_a_fine_grid_bound_a_small_face():
    """Draw 108 crosses itself 14 times.  Two of its crossing parameters lie
    5.6e-5 apart, inside one step of a 32,768-sample grid, so a count of
    side changes on that grid cannot tell them apart; between them lies a
    face of area 2.5e-6, whose representative ``winding`` reads right."""
    s = gaussian_draw(108)
    found, error = crossings(s)
    assert len(found) == 14 and error == 0
    theta = np.sort(found.ravel())
    gaps = np.diff(theta)
    close = int(np.argmin(gaps))
    assert gaps[close] == pytest.approx(5.56e-5, rel=1e-2)
    step = 2 * np.pi / 32768
    assert theta[close] // step == theta[close + 1] // step
    est = winding_regions(s)
    check_faces(s, est)
    assert min(face.area for face in est.components) == pytest.approx(2.5166e-6, rel=1e-3)


def test_a_symbol_of_z_cubed_has_the_faces_of_its_base_times_three():
    b = symbol(workloads.generic_base(2, 8, 0))
    a = LaurentSymbol({3 * k: c for k, c in b.coeffs.items()})
    base, est = winding_regions(b), winding_regions(a)
    assert est.error == base.error == 0
    assert [(face.winding, face.area, face.representative) for face in est.components] == \
        [(3 * face.winding, face.area, face.representative) for face in base.components]
    check_faces(a, est)


def test_a_curve_traced_back_and_forth_bounds_no_face():
    """z + 1/z + i (z^2 + 1/z^2) satisfies a(1/z) = a(z): the curve runs
    back over itself and encloses nothing, though it is not a segment."""
    s = LaurentSymbol({1: 1.0, -1: 1.0, 2: 1j, -2: 1j})
    assert not s.is_segment()
    assert winding_regions(s) == AreaEstimate(0.0, 0.0, ())


def test_a_bitwise_symmetric_tail_has_an_exact_mirror():
    """For a_-k = a_k bitwise, u is 1 exactly (a quotient of the two equal
    coefficients is 1 - 9.3e-18j here), so the mirror test settles the
    pairs at the tip theta = 0 and no chord is halved to length 0: no
    warning, one edge of side 1 and no face."""
    tails = symbol(symmetric_tail()).coeffs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = winding_regions(LaurentSymbol(tails))
    assert symbols_module._curve_symmetry(symmetric_tail().tails) == (1, 1)
    assert est == AreaEstimate(0.0, 0.0, ())
    assert est.edges == ((0.0, 2 * math.pi, 1),)


@pytest.mark.parametrize("offset", [-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3])
def test_a_near_tangent_pair_gives_the_right_faces_or_a_finite_error(offset):
    """z + 0.6 / z^2 + x z^3 has two arcs that touch near x = 0.9: below,
    three bounded faces; above, the arcs cross twice and bound two more.  Away from the touch the faces are exact; within 1e-12 of
    it the lens lies below the rounding of the curve, and either count may
    come out, with a finite error and the trace formula kept."""
    s = LaurentSymbol({1: 1.0, -2: 0.6, 3: 0.9 + offset})
    est = winding_regions(s)
    assert est.error < math.inf
    if abs(offset) > 1e-12:
        assert est.error == 0 and len(est.components) == (3 if offset < 0 else 5)
        check_faces(s, est)
    else:           # a lens below the rounding of the area sums reads area 0
        assert len(est.components) in (3, 5) and all(face.area >= 0 for face in est.components)
        total = sum(face.winding * face.area for face in est.components)
        assert total == pytest.approx(math.pi * (1 - 2 * 0.36 + 3 * (0.9 + offset) ** 2), rel=1e-12)


@pytest.mark.parametrize("tau, loop", [(0.4686, 4.77e-10), (0.46865, 6.84e-13)])
def test_small_loops_near_a_cusp_are_faces(tau, loop):
    """z + 0.6 / z^2 + tau z^2 grows a cusp near tau = 0.4686539; just
    before, two mirror loops of winding -1 close off, their branches nearly
    parallel along the way.  Each is a face of its own, found exactly."""
    s = LaurentSymbol({1: 1.0, -2: 0.6, 2: tau})
    est = winding_regions(s)
    assert est.error == 0
    check_faces(s, est)
    loops = sorted(face.area for face in est.components if face.winding == -1)
    assert loops == pytest.approx([loop, loop], rel=1e-2)


def test_arcs_that_touch_add_no_crossing():
    """z + 1/z + (i/2) z^2 touches itself at -i/2, where its two lobes meet
    tangentially.  No crossing is certified there: the lobes read as one
    face of winding 1, whose area pi/2 is the trace formula's."""
    s = LaurentSymbol({1: 1.0, -1: 1.0, 2: 0.5j})
    est = winding_regions(s)
    assert est.error < math.inf
    assert [face.winding for face in est.components] == [1]
    check_faces(s, est)


def test_loops_below_rounding_near_a_cusp_end_the_search():
    """Closer to the cusp (tau = 0.4686538) the loops have areas near 1e-16
    and their branches run within rounding of each other: the fat-line test
    parts them, and the search ends with a finite error, the trace formula
    and the large face's winding."""
    s = LaurentSymbol({1: 1.0, -2: 0.6, 2: 0.4686538})
    est = winding_regions(s)
    assert est.error < math.inf
    total = sum(face.winding * face.area for face in est.components)
    assert total == pytest.approx(math.pi * (1 - 2 * 0.36 + 2 * 0.4686538 ** 2), rel=1e-12)
    large = max(est.components, key=lambda face: face.area)
    assert large.winding == winding(s, large.representative) == 1
