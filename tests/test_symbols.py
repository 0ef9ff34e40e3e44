from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_perfbench
from opspectra import (ConvergenceFailure, EssentialPoint, LaurentSymbol,
                       PointOnCurve, diagonal, ess_min_modulus,
                       essential_spectrum, fredholm_index, gram, identity,
                       index_by_truncation, right_shift, spectral_area, suites,
                       symbol, toeplitz, winding, winding_regions, zero)
from opspectra import symbols as symbols_module
from opspectra.numerics import symbol_min_modulus_signed
from opspectra.specfiles import load_bundled
from opspectra.symbols import (AreaEstimate, RegionComponent, constant_value,
                               modulus_constant, polygon_winding,
                               symbol_min_modulus)
from reference_spectra import raster_regions


def test_symbol_extraction():
    assert symbol(right_shift()).coeffs == {1: 1.0 + 0j}
    assert symbol(gram(load_bundled("defect_shift").operator)).coeffs == {0: 1.0 + 0j}
    assert symbol(toeplitz({1: 2.0})).coeffs == {1: 2.0 + 0j}
    assert symbol(zero()).coeffs == {}


def test_symbol_ignores_prefixes_and_rank_terms():
    t = load_bundled("defect_shift").operator
    assert symbol(t).coeffs == {1: 1.0 + 0j}


def test_symbol_curve_values():
    pts = LaurentSymbol({1: 1.0}).on_circle(16)
    np.testing.assert_allclose(pts[[0, 4, 8, 12]], [1, 1j, -1, -1j], atol=1e-15)
    const = LaurentSymbol({0: 2.5}).on_circle(16)
    np.testing.assert_array_equal(const, np.full(16, 2.5 + 0j))
    real = LaurentSymbol({1: 1.0, -1: 1.0}).on_circle(64)
    assert np.max(np.abs(real.imag)) < 1e-14
    assert np.min(real.real) >= -2 - 1e-12 and np.max(real.real) <= 2 + 1e-12


def test_winding_examples():
    z = LaurentSymbol({1: 1.0})
    assert winding(z, 0) == 1
    assert winding(z, 2) == 0
    assert winding(LaurentSymbol({2: 1.0}), 0) == 2
    assert winding(LaurentSymbol({-1: 1.0}), 0) == -1


def test_winding_drops_coefficients_below_rounding():
    # kept, a coefficient 1e-48 of the others is np.roots' leading or
    # trailing one and sends the other roots wrong
    assert winding(LaurentSymbol({2: 1, 3: 2.6e-48}), 1.2) == 0
    assert winding(LaurentSymbol({-2: 1, 1: 2.6e-48}), 0.5) == -2


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
    assert fredholm_index(r.compose(r), 0) == -2
    assert fredholm_index(r.adjoint(), 0) == 1


def test_fredholm_index_on_essential_point():
    with pytest.raises(EssentialPoint):
        fredholm_index(right_shift(), 1.0)
    with pytest.raises(EssentialPoint):
        fredholm_index(identity(), 1.0)


def test_index_agrees_with_truncation_null_counts():
    r = right_shift()
    for op, lam in [(r, 0j), (r.compose(r), 0j), (r.adjoint(), 0j),
                    (r, 0.4 + 0.2j), (toeplitz({1: 1.0, -1: 0.25}), 0j)]:
        assert fredholm_index(op, lam) == index_by_truncation(op, lam, 256)


def test_index_validation_on_request():
    assert fredholm_index(right_shift(), 0j, validate=True, n=128) == -1


def test_index_additivity():
    a = toeplitz({1: 1.0, 0: 0.1})
    b = toeplitz({1: 0.5, 0: 0.2})
    ab = a.compose(b)
    assert fredholm_index(ab, 0) == fredholm_index(a, 0) + fredholm_index(b, 0)


def test_essential_spectrum_examples():
    curve = essential_spectrum(right_shift())
    assert curve.is_circle == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.abs(curve.points) - 1.0)) < 1e-12

    gram_curve = essential_spectrum(gram(load_bundled("defect_shift").operator))
    np.testing.assert_allclose(gram_curve.points, np.ones(1024), atol=1e-14)

    diag_curve = essential_spectrum(diagonal((0.5, 0.5), 1.0))
    np.testing.assert_allclose(diag_curve.points, np.ones(1024), atol=1e-14)


def test_sampled_curve_refuses_fewer_than_one_sample():
    s = symbol(right_shift())
    assert len(symbols_module.EssentialCurve.sampled(s, 1).points) == 1
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            symbols_module.EssentialCurve.sampled(s, samples)


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
    product = symbol(a.compose(b))
    direct = symbol(a).product(symbol(b))
    assert product.coeffs == direct.coeffs


def test_spectral_area_of_disc():
    est = spectral_area(right_shift())
    assert abs(est.value - np.pi) <= est.error
    assert est.components and est.components[0].winding == 1


def test_spectral_area_selfadjoint_vanishes():
    est = spectral_area(load_bundled("selfadjoint_band").operator)
    assert est.value <= est.error
    assert all(c.winding == 0 for c in est.components)


def test_spectral_area_scaled_disc():
    est = spectral_area(toeplitz({1: 2.0}))
    assert abs(est.value - 4 * np.pi) <= est.error


def test_spectral_area_converges_under_refinement():
    """The raster oracle closes in on the exact area as its cells shrink."""
    exact = spectral_area(right_shift())
    coarse = raster_regions(symbol(right_shift()), 128)
    fine = raster_regions(symbol(right_shift()), 256)
    assert fine.error < coarse.error
    assert abs(exact.value - coarse.value) <= coarse.error
    assert abs(exact.value - fine.value) <= fine.error


def test_spectral_area_degenerate_curve():
    est = spectral_area(diagonal((3.0,), 1.0))
    assert est.value == 0.0 and est.error == 0.0


def test_winding_regions_structure():
    est = winding_regions(LaurentSymbol({1: 1.0, 0: 0.2}))
    inside = [c for c in est.components if c.winding != 0]
    assert len(inside) == 1
    assert abs(inside[0].representative - 0.2) < 0.2


def _monomial_operators():
    """c z^k for k in {-2, -1, 1, 3} with |c| from 1e-3 to 2, the bundled
    specs whose symbol is c z, and 20 weighted shifts."""
    ops = [toeplitz({k: r * np.exp(1j * phase)})
           for k in (-2, -1, 1, 3)
           for r, phase in ((1e-3, 0.3), (0.37, 2.0), (1.0, -1.1), (2.0, 4.0))]
    ops += [load_bundled(name).operator for name in
            ("right_shift", "defect_shift", "nilpotent_head_shift",
             "diagonal_head_shift")]
    rng = np.random.default_rng(14)
    ops += [suites.random_weighted_shift(rng) for _ in range(20)]
    return ops


@pytest.mark.parametrize("op", _monomial_operators())
def test_monomial_area_is_exact_and_inside_the_raster_error(op):
    """The exact area pi |c|^2 of c z^k, against the 512 raster of its
    curve: within the raster's error, with the single nonzero winding k."""
    (k, c), = symbol(op).coeffs.items()
    exact = np.pi * abs(c) ** 2
    est = spectral_area(op)
    assert est.value == exact and est.error == 0.0
    assert [r.winding for r in est.components] == [k]
    raster = raster_regions(symbol(op), 512)
    assert abs(raster.value - exact) <= raster.error
    assert tuple(r.winding for r in raster.components if r.winding) == (k,)


def _ellipse_symbols():
    """a_-1 / z + a_0 + a_1 z: the tails of the 4 bandwidth-1 pool bases,
    among them the thin curve of (1, 8, 1), a shifted and a far-off tiny
    circle, and 8 draws."""
    workloads = load_perfbench("workloads")
    coeffs = [symbol(workloads.generic_base(*key)).coeffs
              for key in workloads.GENERIC_POOL if key[0] == 1]
    coeffs += [{1: 1.0, 0: 0.2}, {0: 1e6, 1: 1e-7}, {1: 1.0, -1: 0.5j},
               {-1: 2.0, 0: 1j, 1: 0.3}]
    rng = np.random.default_rng(13)
    return coeffs + [{k: complex(*rng.uniform(-1, 1, 2)) for k in (-1, 0, 1)}
                     for _ in range(8)]


@pytest.mark.parametrize("coeffs", _ellipse_symbols())
def test_ellipse_area_is_exact_and_inside_the_raster_error(coeffs):
    """The exact area pi ||a_1|^2 - |a_-1|^2| of a bandwidth-1 symbol, with
    one component at winding sign(|a_1| - |a_-1|) about a_0, against the
    512 raster of its curve: within the raster's error, with that single
    nonzero winding, and sum winding * area = pi sum k |a_k|^2."""
    op, s = toeplitz(coeffs), LaurentSymbol(coeffs)
    a1, a_m1 = abs(s.coeffs.get(1, 0j)), abs(s.coeffs.get(-1, 0j))
    exact = np.pi * abs(a1 ** 2 - a_m1 ** 2)
    est = spectral_area(op)
    assert est.value == exact and est.error == 0.0
    assert [(r.winding, r.representative) for r in est.components] == \
        [(1 if a1 > a_m1 else -1, s.coeffs.get(0, 0j))]
    assert sum(r.winding * r.area for r in est.components) == pytest.approx(
        np.pi * sum(k * abs(c) ** 2 for k, c in s.coeffs.items()), rel=1e-12)
    raster = raster_regions(s, 512)
    assert abs(raster.value - exact) <= raster.error
    assert {r.winding for r in raster.components if r.winding} == {est.components[0].winding}


@pytest.mark.parametrize("coeffs", [{1: 1.0, -1: 1.0}, {1: 2j, -1: -2.0, 0: 0.3}])
def test_ellipse_with_equal_outer_moduli_has_no_area(coeffs):
    """|a_1| = |a_-1| flattens the ellipse to a segment: area 0, no component."""
    assert spectral_area(toeplitz(coeffs)) == AreaEstimate(0.0, 0.0, ())


@pytest.mark.parametrize("coeffs", [{2: 1.0, 0: 0.2}, {0: 1e6, 2: 1e-7},
                                    {1: 1.0, 2: 1e-12}])
def test_near_monomial_area_is_the_raster(coeffs):
    """Two terms past bandwidth 1, however small the second, once took the
    raster: the arrangement gives their area with error 0, inside the error
    of the 512 raster oracle."""
    est = spectral_area(toeplitz(coeffs))
    oracle = raster_regions(LaurentSymbol(coeffs), 512)
    assert est == winding_regions(LaurentSymbol(coeffs))
    assert est.error == 0 and abs(est.value - oracle.value) <= oracle.error


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
    assert winding_regions(s) == AreaEstimate(0.0, 0.0, ())


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
    """Curves near a segment, pinned on the 256 raster oracle, get faces:
    the arrangement's area lies inside the oracle's error, with the same
    nonzero windings."""
    s = LaurentSymbol(coeffs)
    assert not s.is_segment()
    oracle = raster_regions(s, 256)
    assert oracle.value == pytest.approx(area, rel=1e-12)
    assert oracle.curve_cells == curve_cells
    assert [(c.winding, c.cells) for c in oracle.components] == components
    est = winding_regions(s)
    assert est.error == 0 and abs(est.value - oracle.value) <= oracle.error
    assert sorted(c.winding for c in est.components if c.winding) == \
        sorted(w for w, _ in components if w)


def test_a_circle_below_the_rounding_of_its_shift_keeps_its_area():
    """Not a segment: a circle of radius 1e-8 about 1e6.  Its extent is
    below the raster oracle's rounding bound 1e-13 * 1e6, where the oracle
    sees no curve, but the arrangement reads the disc off the coefficients."""
    s = LaurentSymbol({0: 1e6, 1: 1e-8})
    assert not s.is_segment()
    assert raster_regions(s, 256).components == ()
    area = np.pi * 1e-8 ** 2
    assert winding_regions(s) == AreaEstimate(area, 0.0, (RegionComponent(1, area, 1e6),))


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
        est = winding_regions(s)
    assert est == AreaEstimate(0.0, 0.0, ())


# -- roots against the sampled oracles ------------------------------------------
#
# Extrema and winding numbers were once answered by sampling: a grid plus a
# golden-section search for the extrema, and an argument sum whose sample
# count doubles until consecutive steps stay below pi/2 for the winding.
# Those implementations are kept here as oracles for the roots.

def _golden_min(f, a, b, iters=80):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    best = min(fc, fd)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        best = min(best, fc, fd)
    return best


def _sampled_extremum(s, want_max, samples=1024):
    """Grid of |a| plus a golden-section search around each local extremum."""
    if not s.coeffs:
        return 0.0
    if len(s.coeffs) == 1:
        return abs(next(iter(s.coeffs.values())))
    theta = np.arange(samples) * (2 * np.pi / samples)
    g = np.abs(s.evaluate(np.exp(1j * theta)))
    g = -g if want_max else g

    def f(t):
        v = abs(complex(s.evaluate(np.exp(1j * t))))
        return -v if want_max else v

    local = np.nonzero((g <= np.roll(g, 1)) & (g <= np.roll(g, -1)))[0]
    best = float(np.min(g))
    h = 2 * np.pi / samples
    for i in local:
        best = min(best, _golden_min(f, theta[i] - h, theta[i] + h))
    return -best if want_max else best


def _sampled_min_signed(s):
    """Minimum of a real symbol: a 2048-point grid plus a golden search."""
    if set(s.coeffs) <= {0}:
        return float(s.coeffs.get(0, 0j).real)
    theta = np.arange(2048) * (2 * np.pi / 2048)
    vals = s.evaluate(np.exp(1j * theta)).real
    i = int(np.argmin(vals))
    h = 2 * np.pi / 2048

    def f(x):
        return float(s.evaluate(np.exp(1j * x)).real)

    return min(float(vals[i]), _golden_min(f, theta[i] - h, theta[i] + h))


def _sampled_winding(s, lam, samples=256, cap=2 ** 20):
    """Accumulated argument of a - lam, sampling doubled until every step
    is below pi/2."""
    lam = complex(lam)
    scale = max(1.0, s.magnitude(), abs(lam))
    m = max(16, samples)
    while True:
        pts = s.on_circle(m) - lam
        if np.min(np.abs(pts)) <= 1e-14 * scale:
            raise PointOnCurve(f"{lam} lies on the symbol curve")
        steps = np.angle(np.roll(pts, -1) / pts)
        if np.max(np.abs(steps)) < np.pi / 2:
            return int(round(float(np.sum(steps)) / (2 * np.pi)))
        if m >= cap:
            raise PointOnCurve(f"{lam} is not resolved by {cap} samples")
        m *= 2


SUITE_GENERATORS = (suites.random_diagonal, suites.random_weighted_shift,
                    suites.random_hyponormal, suites.random_finite_rank,
                    suites.random_normal_corner, suites.random_an_hyponormal,
                    suites.random_banded_symbol)
suite_operators = st.builds(lambda make, seed: make(np.random.default_rng(seed)),
                            st.sampled_from(SUITE_GENERATORS),
                            st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(suite_operators)
def test_root_extrema_are_never_worse_than_the_sampled_ones(t):
    for s in (symbol(t), symbol(gram(t))):
        scale = max(1.0, s.magnitude())
        assert symbol_min_modulus(s) <= _sampled_extremum(s, False) + 1e-13 * scale
    g = symbol(gram(t))
    assert (symbol_min_modulus_signed(g)
            <= _sampled_min_signed(g) + 1e-13 * max(1.0, g.magnitude()))


@settings(max_examples=80, deadline=None)
@given(suite_operators, st.lists(st.tuples(st.floats(-1.5, 1.5),
                                           st.floats(-1.5, 1.5)),
                                 min_size=1, max_size=6))
def test_root_winding_matches_the_sampled_winding_off_the_curve(t, points):
    s = symbol(t)
    scale = max(1.0, s.magnitude())
    curve = s.on_circle(4096)
    for x, y in points:
        lam = complex(x, y) * scale
        if np.min(np.abs(curve - lam)) < 1e-3 * scale:
            continue
        assert winding(s, lam) == _sampled_winding(s, lam)


def _real_with_zero(phi):
    """b = z + 1/z - 2 cos(phi), real on the circle, zero at e^{+-i phi}."""
    return LaurentSymbol({1: 1.0, -1: 1.0, 0: -2.0 * np.cos(phi)})


@pytest.mark.parametrize("phi", [0.7, 1.3, np.pi / 2, 2.9])
def test_double_zero_on_the_circle_reads_zero(phi):
    # b^2 has double zeros on the circle.  Read only at the critical points
    # of |b^2|^2 (quadruple zeros), min |b^2| would come out near 1e-11.
    b2 = _real_with_zero(phi).product(_real_with_zero(phi))
    scale = max(1.0, b2.magnitude())
    assert symbol_min_modulus(b2) <= 1e-14 * scale
    assert abs(symbol_min_modulus_signed(b2)) <= 1e-14 * scale


def test_signed_minimum_of_a_symbol_real_up_to_one_tiny_term():
    # is_real(1e-12) accepts c_0 + c_3 z^3 with |c_3| = 1e-13, whose
    # derivative polynomial has a single term and hence no roots
    s = LaurentSymbol({0: 2.0, 3: 1e-13})
    assert s.is_real(1e-12)
    assert symbol_min_modulus_signed(s) == pytest.approx(2.0, abs=1e-12)


def test_selfadjoint_band_essential_minimum_is_exactly_zero():
    t = load_bundled("selfadjoint_band").operator
    assert ess_min_modulus(t) == 0.0
    assert symbol_min_modulus(symbol(gram(t))) <= 1e-14


def test_winding_raises_when_the_shifted_symbol_vanishes():
    with pytest.raises(PointOnCurve):
        winding(LaurentSymbol({0: 2.0}), 2.0)
    with pytest.raises(PointOnCurve):
        winding(LaurentSymbol({}), 0)
    assert winding(LaurentSymbol({0: 2.0}), 1.0) == 0
    assert winding(LaurentSymbol({}), 1j) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=6),
       st.lists(st.floats(-0.35, 0.35), min_size=6, max_size=6),
       st.floats(0, 2 * np.pi), st.integers(0, 6),
       st.tuples(st.floats(0.2, 2), st.floats(0, 2 * np.pi)),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
def test_winding_counts_roots_within_1e9_of_the_circle(inside, jitter, start,
                                                       p, c, lam):
    # a - lam = c z^(-p) prod (z - r_j) with |r_j| = 1 -+ 1e-9 and the
    # angles at least 0.3 apart; the winding is #{|r_j| < 1} - p
    n = len(inside)
    angles = start + 2 * np.pi * np.arange(n) / n + np.array(jitter[:n])
    radii = np.where(inside, 1 - 1e-9, 1 + 1e-9)
    poly = c[0] * np.exp(1j * c[1]) * np.poly(radii * np.exp(1j * angles))
    lam = complex(*lam)
    coeffs = {n - i - p: complex(v) for i, v in enumerate(poly)}
    coeffs[0] = coeffs.get(0, 0j) + lam
    assert winding(LaurentSymbol(coeffs), lam) == sum(inside) - p


def test_fredholm_index_validation_reports_a_disagreement(monkeypatch):
    monkeypatch.setattr(symbols_module, "index_by_truncation", lambda t, lam, n: 0)
    with pytest.raises(ConvergenceFailure):
        fredholm_index(right_shift(), 0j, validate=True, n=64)


def test_index_crossval_fails_a_mismatch_once(monkeypatch):
    monkeypatch.setattr(suites, "index_by_truncation", lambda t, lam, n: 99)
    records = suites.suite_index_crossval(seed=0, symbols_count=2, n=64)
    random = [r for r in records if r[0].startswith("index:random_")]
    assert [name for name, _, _ in random] == ["index:random_0", "index:random_1"]
    for _, ok, detail in random:
        assert not ok and detail.startswith("5 of 5 points disagree, first lam=")
        assert detail.endswith("truncation 99")


def test_index_crossval_fails_a_shortfall(monkeypatch):
    monkeypatch.setattr(suites, "_INDEX_DRAWS", 3)
    records = suites.suite_index_crossval(seed=0, symbols_count=2, n=64)
    random = [r for r in records if r[0].startswith("index:random_")]
    assert len(random) == 2
    for _, ok, detail in random:
        assert not ok and detail.startswith("only ") and detail.endswith(" in 3 draws")
