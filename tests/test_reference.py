"""The (tails, window) operator against the earlier descriptor-based one.

Each case is one operator built twice from the same data: once by
``opspectra`` and once by ``reference_core``, whose rank terms stay terms.
Without rank terms the two layouts hold the same numbers, so truncations,
band storage and the structural sizes agree bit for bit; with rank terms the
window sums them in another order, and the agreement is to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_core as ref
from conftest import load_perfbench
from opspectra import StructuredOperator, suites
from test_kernels import GENERATORS

workloads = load_perfbench("workloads")

dyadic = st.integers(-32, 32).map(lambda k: k / 16.0)
cdyadic = st.builds(complex, dyadic, dyadic)
vectors = st.lists(cdyadic, min_size=1, max_size=3).map(tuple)
dyadic_data = st.tuples(
    st.dictionaries(st.integers(-3, 3),
                    st.tuples(st.lists(cdyadic, max_size=4).map(tuple), cdyadic),
                    max_size=4),
    st.lists(st.tuples(vectors, vectors), max_size=2).map(tuple))


def from_data(data):
    return StructuredOperator(*data), ref.StructuredOperator(*data)


def from_generator(make, seed):
    ours = make(np.random.default_rng(seed))
    with ref.reference_constructors(suites):
        theirs = make(np.random.default_rng(seed))
    return ours, theirs


def from_pool(key):
    ours = workloads.generic_base(*key)
    with ref.reference_constructors(workloads.core):
        theirs = workloads.generic_base(*key)
    return ours, theirs


pairs = st.one_of(
    dyadic_data.map(from_data),
    st.builds(from_generator, st.sampled_from(GENERATORS),
              st.integers(0, 2 ** 32 - 1)),
    st.sampled_from(workloads.GENERIC_POOL).map(from_pool))


def lower_triangle(band, n):
    """The lower triangle that LAPACK lower band storage describes."""
    out = np.zeros((n, n), dtype=complex)
    for u in range(len(band)):
        out += np.diag(band[u, : n - u], -u)
    return out


def assert_agree(ours, theirs, exact):
    """Equal leading sections, band storage and structure when ``exact``,
    else equal sections and lower triangles within 1e-13 of their scale."""
    n = (max(ours.corner_size, theirs.corner_size)
         + max(ours.bandwidth, theirs.bandwidth) + 3)
    want = theirs.truncate(n)
    if exact:
        assert (ours.bandwidth, ours.corner_size) == (theirs.bandwidth,
                                                      theirs.corner_size)
        np.testing.assert_array_equal(ours.truncate(n), want)
        for size in (1, n // 2 + 1, n):
            np.testing.assert_array_equal(ours.lower_band(size),
                                          theirs.lower_band(size))
        return
    scale = 1e-13 * max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(ours.truncate(n), want, rtol=0, atol=scale)
    np.testing.assert_allclose(lower_triangle(ours.lower_band(n), n),
                               lower_triangle(theirs.lower_band(n), n),
                               rtol=0, atol=scale)


@settings(max_examples=150, deadline=None)
@given(pairs)
def test_views_match_the_reference(pair):
    ours, theirs = pair
    exact = not theirs.rank_terms
    assert_agree(ours, theirs, exact)
    assert_agree(ours.adjoint(), theirs.adjoint(), exact)


@settings(max_examples=150, deadline=None)
@given(pairs, pairs)
def test_sum_and_product_match_the_reference(a, b):
    (ours_a, theirs_a), (ours_b, theirs_b) = a, b
    exact = not (theirs_a.rank_terms or theirs_b.rank_terms)
    assert_agree(ours_a + ours_b, theirs_a + theirs_b, exact)
    # np.convolve's two argument orders round differently, so products agree
    # to rounding; dyadic products, which are exact, are checked bit for bit
    assert_agree(ours_a @ ours_b, theirs_a.compose(theirs_b), False)


@settings(max_examples=100, deadline=None)
@given(pairs, st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1,
                       max_size=12))
def test_apply_matches_the_reference(pair, x):
    ours, theirs = pair
    got, want = ref.apply(ours, x), theirs.apply(x)
    if not theirs.rank_terms:
        np.testing.assert_array_equal(got, want)
        return
    n = max(len(got), len(want))
    got, want = np.pad(got, (0, n - len(got))), np.pad(want, (0, n - len(want)))
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * max(1.0, float(np.max(np.abs(want),
                                                                  initial=0))))


@settings(max_examples=100, deadline=None)
@given(dyadic_data, dyadic_data)
def test_dyadic_products_are_bit_equal(a, b):
    (ours_a, theirs_a), (ours_b, theirs_b) = from_data(a), from_data(b)
    product, expected = ours_a @ ours_b, theirs_a.compose(theirs_b)
    n = expected.corner_size + expected.bandwidth + 3
    np.testing.assert_array_equal(product.truncate(n), expected.truncate(n))
