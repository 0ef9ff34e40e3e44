from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import (EssentialPoint, LaurentSymbol, PointOnCurve, compose,
                       diagonal, ess_min_modulus, essential_spectrum,
                       fredholm_index, gram, identity, index_by_truncation,
                       right_shift, spectral_area, symbol, symbol_curve,
                       toeplitz, winding, winding_regions, zero)
from opspectra.specfiles import load_bundled
from opspectra.symbols import (AreaEstimate, constant_value,
                               modulus_constant, polygon_winding,
                               symbol_max_modulus, symbol_min_modulus)


def test_symbol_extraction():
    assert symbol(right_shift()).coeffs == {1: 1.0 + 0j}
    assert symbol(gram(load_bundled("defect_shift").operator)).coeffs == {0: 1.0 + 0j}
    assert symbol(toeplitz({1: 2.0})).coeffs == {1: 2.0 + 0j}
    assert symbol(zero()).coeffs == {}


def test_symbol_ignores_prefixes_and_rank_terms():
    t = load_bundled("defect_shift").operator
    assert symbol(t).coeffs == {1: 1.0 + 0j}


def test_symbol_curve_values():
    pts = symbol_curve(LaurentSymbol({1: 1.0}), 16)
    np.testing.assert_allclose(pts[[0, 4, 8, 12]], [1, 1j, -1, -1j], atol=1e-15)
    const = symbol_curve(LaurentSymbol({0: 2.5}), 16)
    np.testing.assert_array_equal(const, np.full(16, 2.5 + 0j))
    real = symbol_curve(LaurentSymbol({1: 1.0, -1: 1.0}), 64)
    assert np.max(np.abs(real.imag)) < 1e-14
    assert np.min(real.real) >= -2 - 1e-12 and np.max(real.real) <= 2 + 1e-12


def test_symbol_curve_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        symbol_curve(LaurentSymbol({1: 1.0}), 8)


def test_winding_examples():
    z = LaurentSymbol({1: 1.0})
    assert winding(z, 0) == 1
    assert winding(z, 2) == 0
    assert winding(LaurentSymbol({2: 1.0}), 0) == 2
    assert winding(LaurentSymbol({-1: 1.0}), 0) == -1


def test_winding_raises_on_curve():
    with pytest.raises(PointOnCurve):
        winding(LaurentSymbol({1: 1.0}), 1.0)
    with pytest.raises(PointOnCurve):
        winding(LaurentSymbol({1: 1.0}), np.exp(0.3j))


def test_winding_refines_near_the_curve():
    z = LaurentSymbol({1: 1.0})
    assert winding(z, 0.9999) == 1
    assert winding(z, 1.0001) == 0
    assert winding(z, 0.999 * np.exp(1.1j)) == 1


def test_polygon_winding_matches_argument_winding():
    pts = np.exp(1j * np.linspace(0, 2 * np.pi, 257)[:-1])
    assert polygon_winding(pts, 0.3 + 0.1j) == 1
    assert polygon_winding(pts, 1.7) == 0
    double = LaurentSymbol({2: 1.0}).on_circle(512)
    assert polygon_winding(double, 0j) == 2


def test_fredholm_index_examples():
    r = right_shift()
    assert fredholm_index(r, 0) == -1
    assert fredholm_index(identity(), 0.5) == 0
    assert fredholm_index(compose(r, r), 0) == -2
    assert fredholm_index(r.adjoint(), 0) == 1


def test_fredholm_index_on_essential_point():
    with pytest.raises(EssentialPoint):
        fredholm_index(right_shift(), 1.0)
    with pytest.raises(EssentialPoint):
        fredholm_index(identity(), 1.0)


def test_index_agrees_with_truncation_null_counts():
    r = right_shift()
    for op, lam in [(r, 0j), (compose(r, r), 0j), (r.adjoint(), 0j),
                    (r, 0.4 + 0.2j), (toeplitz({1: 1.0, -1: 0.25}), 0j)]:
        assert fredholm_index(op, lam) == index_by_truncation(op, lam, 256)


def test_index_validation_on_request():
    assert fredholm_index(right_shift(), 0j, validate=True, n=128) == -1


def test_index_additivity():
    a = toeplitz({1: 1.0, 0: 0.1})
    b = toeplitz({1: 0.5, 0: 0.2})
    ab = compose(a, b)
    assert fredholm_index(ab, 0) == fredholm_index(a, 0) + fredholm_index(b, 0)


def test_essential_spectrum_examples():
    curve = essential_spectrum(right_shift())
    assert curve.is_circle == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.abs(curve.points) - 1.0)) < 1e-12

    gram_curve = essential_spectrum(gram(load_bundled("defect_shift").operator))
    np.testing.assert_allclose(gram_curve.points, np.ones(1024), atol=1e-14)

    diag_curve = essential_spectrum(diagonal((0.5, 0.5), 1.0))
    np.testing.assert_allclose(diag_curve.points, np.ones(1024), atol=1e-14)


def test_modulus_and_value_constancy():
    assert modulus_constant(LaurentSymbol({1: 3.0})) == 3.0
    assert modulus_constant(LaurentSymbol({1: 1.0, -1: 1.0})) is None
    assert constant_value(LaurentSymbol({0: 2.0 + 1j})) == 2.0 + 1j
    assert constant_value(LaurentSymbol({1: 1.0})) is None
    assert constant_value(LaurentSymbol({})) == 0j


def test_ess_min_modulus_examples():
    assert ess_min_modulus(right_shift()) == 1.0
    assert ess_min_modulus(zero()) == 0.0
    assert ess_min_modulus(load_bundled("defect_shift").operator) == 1.0
    assert symbol_min_modulus(LaurentSymbol({1: 1.0, -1: 1.0})) < 1e-10
    band = LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0})  # 2 + 2cos(theta) >= 0
    assert symbol_min_modulus(band) == pytest.approx(0.0, abs=1e-9)
    assert symbol_max_modulus(band) == pytest.approx(4.0, abs=1e-9)


def test_ess_min_bounds_interior_section_singular_values():
    # tall sections over columns past the corner cannot dip below the
    # essential minimum
    for name in ("right_shift", "defect_shift", "unitary_diag"):
        t = load_bundled(name).operator
        n = 96
        lo = t.corner_size + t.bandwidth
        hi = n - t.bandwidth - 1
        section = t.truncate(n)[:, lo:hi]
        smin = float(np.min(np.linalg.svd(section, compute_uv=False)))
        assert smin >= ess_min_modulus(t) - 1e-6


def test_symbol_conjugation_property():
    t = load_bundled("defect_shift").operator + toeplitz({-2: 0.5j})
    s = symbol(t)
    sc = symbol(t.adjoint())
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 37))
    np.testing.assert_allclose(sc.evaluate(z), np.conj(s.evaluate(z)), atol=1e-14)


coeff = st.builds(complex, st.integers(-8, 8).map(lambda k: k / 4),
                  st.integers(-8, 8).map(lambda k: k / 4))
symbol_ops = st.dictionaries(st.integers(-2, 2), coeff, max_size=4).map(toeplitz)


@settings(max_examples=60, deadline=None)
@given(symbol_ops, symbol_ops)
def test_symbol_multiplicativity(a, b):
    product = symbol(compose(a, b))
    direct = symbol(a).product(symbol(b))
    assert product.coeffs == direct.coeffs


def test_spectral_area_of_disc():
    est = spectral_area(right_shift(), 256)
    assert abs(est.value - np.pi) <= est.error
    assert est.components and est.components[0].winding == 1


def test_spectral_area_selfadjoint_vanishes():
    est = spectral_area(load_bundled("selfadjoint_band").operator, 256)
    assert est.value <= est.error
    assert all(c.winding == 0 for c in est.components)


def test_spectral_area_scaled_disc():
    est = spectral_area(toeplitz({1: 2.0}), 256)
    assert abs(est.value - 4 * np.pi) <= est.error


def test_spectral_area_converges_under_refinement():
    coarse = spectral_area(right_shift(), 128)
    fine = spectral_area(right_shift(), 256)
    assert abs(fine.value - coarse.value) <= coarse.error


def test_spectral_area_degenerate_curve():
    est = spectral_area(diagonal((3.0,), 1.0), 128)
    assert est.value == 0.0 and est.error == 0.0


def test_winding_regions_structure():
    est = winding_regions(LaurentSymbol({1: 1.0, 0: 0.2}), 128)
    inside = [c for c in est.components if c.winding != 0]
    assert len(inside) == 1
    assert abs(inside[0].representative - 0.2) < 0.2


def _no_sampling(self, m):
    raise AssertionError("a segment curve must not be sampled")


@pytest.mark.parametrize("coeffs", [
    {1: 1.0, -1: 1.0},                                          # z + 1/z
    {1: 1j, -1: 1j, 0: 2.0},                                    # i(z + 1/z) + 2
    {k: np.exp(0.3j) * c for k, c in
     {1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5}.items()} | {0: -1.0},   # rotated, shifted
    {2: 1.0, -2: 1.0, 1: 1e-13, -1: 1e-13j},    # a pair below tol sets no u
])
def test_segment_curve_has_no_area_and_is_not_sampled(coeffs, monkeypatch):
    s = LaurentSymbol(coeffs)
    monkeypatch.setattr(LaurentSymbol, "on_circle", _no_sampling)
    assert s.is_segment()
    assert winding_regions(s, 512) == AreaEstimate(0.0, 0.0, (), 0, 0.0, 512)


@pytest.mark.parametrize("coeffs, area, curve_cells, components", [
    # ellipse, semi-axes 1.5 and 0.5: |a_1| != |a_-1|
    ({1: 1.0, -1: 0.5j}, 2.3938421888212655, 956, [(1, 29936)]),
    # u = 1 at k = 1 but u = i at k = 2
    ({1: 1.0, -1: 1.0, 2: 1.0, -2: 1j}, 5.521341105980958, 1489,
     [(-1, 10165), (1, 10094)]),
    # a small circle and a small ellipse around a large constant: a shift
    # does not make a curve a segment
    ({0: 1e6, 1: 1e-7}, 3.170141936233446e-14, 964, [(1, 50156)]),
    ({0: 1e6, 1: 1e-7, -1: 0.5e-7j}, 2.3931937942311555e-14, 956,
     [(1, 29892)]),
])
def test_near_segment_traps_stay_on_the_raster(coeffs, area, curve_cells,
                                               components):
    s = LaurentSymbol(coeffs)
    assert not s.is_segment()
    est = winding_regions(s, 256)
    assert est.value == pytest.approx(area, rel=1e-12)
    assert est.curve_cells == curve_cells
    assert [(c.winding, c.cells) for c in est.components] == components


def test_curve_below_the_rounding_of_its_shift_has_no_area():
    # not a segment, but its extent 2e-8 is below 1e-13 * 1e6
    s = LaurentSymbol({0: 1e6, 1: 1e-8})
    assert not s.is_segment()
    assert winding_regions(s, 256) == AreaEstimate(0.0, 0.0, (), 0, 0.0, 256)


unit = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=4), unit,
       st.floats(0, 2 * np.pi), st.tuples(unit, unit))
def test_rotated_shifted_real_symbol_is_segment(pairs, r0, phi, shift):
    rot = np.exp(1j * phi)
    coeffs = {0: rot * r0 + complex(*shift)}
    for k, (re, im) in enumerate(pairs, start=1):
        coeffs[k] = rot * complex(re, im)
        coeffs[-k] = rot * complex(re, -im)
    s = LaurentSymbol(coeffs)
    assert s.is_segment()
    with mock.patch.object(LaurentSymbol, "on_circle", _no_sampling):
        est = winding_regions(s, 128)
    assert est == AreaEstimate(0.0, 0.0, (), 0, 0.0, 128)
