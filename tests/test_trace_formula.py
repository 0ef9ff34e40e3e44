"""The trace formula tr [T*, T] = sum_k k |a_k|^2 for T = T(a) + K
(Helton-Howe, Carey-Pincus), checked on the finite corner of [T*, T] and,
multiplied by pi, against the sum of winding times area over the faces of
the curve's arrangement and of the raster oracle."""

import math

import numpy as np
import pytest

from opspectra import self_commutator, suites, symbol, winding_regions
from opspectra.specfiles import BUNDLED, load_bundled
from reference_spectra import raster_regions

GENERATORS = (suites.random_diagonal, suites.random_weighted_shift,
              suites.random_hyponormal, suites.random_finite_rank,
              suites.random_normal_corner, suites.random_an_hyponormal,
              suites.random_banded_symbol)


@pytest.fixture(scope="module")
def operators(pool_bases):
    """The bundled specs, the generic_scaling pool bases and 25 draws from
    each suites generator."""
    return ([load_bundled(name).operator for name in BUNDLED] + pool_bases
            + [make(np.random.default_rng([7, seed]))
               for make in GENERATORS for seed in range(25)])


def test_commutator_symbol_is_exactly_zero(operators):
    # T*T and TT* get their tails from one np.convolve call order, so the
    # tails of [T*, T] cancel exactly and it is a finite corner; also on
    # banded-plus-corner sums, whose corner meets the Hankel terms
    sums = [suites.random_banded_symbol(rng, 3) + suites.random_normal_corner(rng)
            for rng in (np.random.default_rng([11, seed]) for seed in range(200))]
    for t in operators + sums:
        assert symbol(self_commutator(t)).coeffs == {}


def flux(t):
    """sum_k k |a_k|^2 and the scale sum_k |k| |a_k|^2 of its terms."""
    coeffs = symbol(t).coeffs
    return (sum(k * abs(c) ** 2 for k, c in coeffs.items()),
            sum(abs(k) * abs(c) ** 2 for k, c in coeffs.items()))


def test_commutator_corner_trace_is_the_coefficient_sum(operators):
    for t in operators:
        d = self_commutator(t)          # zero symbol: finite rank
        trace = np.trace(d.truncate(max(1, d.corner_size))).real
        value, size = flux(t)
        assert abs(trace - value) <= 1e-13 * max(1.0, size)


@pytest.mark.parametrize("resolution", [256, 512])
def test_raster_winding_area_is_pi_times_the_coefficient_sum(operators,
                                                             resolution):
    # the arrangement's faces give the sum to rounding; every error of the
    # raster sits in its curve cells, and a curve cell carries at most the
    # largest winding
    for t in operators:
        value, size = flux(t)
        exact = winding_regions(symbol(t))
        total = sum(c.winding * c.area for c in exact.components)
        assert exact.error == 0
        assert abs(total - math.pi * value) <= 1e-13 * max(1.0, size)
        est = raster_regions(symbol(t), resolution)
        total = sum(c.winding * c.area for c in est.components)
        cell = est.components[0].area / est.components[0].cells \
            if est.components else 0.0
        most = max([1] + [abs(c.winding) for c in est.components])
        bound = most * est.curve_cells * cell + 1e-12 * max(1.0, size)
        assert abs(total - math.pi * value) <= bound
