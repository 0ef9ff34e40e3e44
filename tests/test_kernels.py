"""The array kernels against dense references on non-dyadic operators.

``compose`` is checked against the dense product of truncations, and the
banded ``discrete_eigs_below`` against a dense ``eigvalsh`` reference that
keeps the earlier full-spectrum implementation of the same n / 2n rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import StructuredOperator, discrete_eigs_below, gram, identity
from opspectra import suites
from opspectra.numerics import (MERGE_FACTOR, TRUNC_CAP, DiscreteEigenReport,
                                _auto_trunc, _clusters_match, cluster_values,
                                symbol_min_modulus_signed)
from opspectra.symbols import symbol


def _mixed(rng) -> StructuredOperator:
    """Laurent tail, dense corner and finite rank at once, so the Hankel
    corner, the prefix products and the rank terms all meet."""
    return (suites.random_banded_symbol(rng, max_bandwidth=3)
            + suites.random_normal_corner(rng)
            + suites.random_finite_rank(rng))


GENERATORS = (suites.random_diagonal, suites.random_weighted_shift,
              suites.random_hyponormal, suites.random_finite_rank,
              suites.random_normal_corner, suites.random_an_hyponormal,
              suites.random_banded_symbol, _mixed)

operators = st.builds(lambda gen, seed: gen(np.random.default_rng(seed)),
                      st.sampled_from(GENERATORS), st.integers(0, 2 ** 32 - 1))


# -- compose -------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(operators, operators)
def test_compose_matches_dense_product(a, b):
    product = a.compose(b)
    k = a.bandwidth + b.bandwidth
    n = product.corner_size + k + 3           # corner plus pure-tail rows
    direct = (a.truncate(n + k) @ b.truncate(n + k))[:n, :n]
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert float(np.max(np.abs(product.truncate(n) - direct))) <= 1e-13 * scale


@settings(max_examples=120, deadline=None)
@given(operators, operators)
def test_compose_corner_bound(a, b):
    bound = max(a.corner_size, b.corner_size) + a.bandwidth + b.bandwidth
    assert a.compose(b).corner_size <= bound


@settings(max_examples=120, deadline=None)
@given(operators)
def test_compose_identity_is_bitwise(t):
    assert t @ identity() == t
    assert identity() @ t == t


@settings(max_examples=60, deadline=None)
@given(operators, st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1,
                           max_size=12))
def test_apply_matches_truncation(t, x):
    x = np.asarray(x, dtype=complex)
    n = max(len(x) + t.bandwidth, t.rank_support, 1)
    dense = t.truncate(n)[:, : len(x)] @ x
    got = t.apply(x)
    out = np.zeros(n, dtype=complex)
    out[: len(got)] = got
    np.testing.assert_allclose(out, dense, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(dense))))


@settings(max_examples=60, deadline=None)
@given(operators)
def test_lower_band_holds_the_truncation(t):
    g = gram(t)
    n = g.corner_size + g.bandwidth + 5
    band = g.lower_band(n)
    dense = g.truncate(n)
    assert band.shape[0] - 1 == min(max(g.bandwidth, g.rank_support - 1), n - 1)
    for u in range(band.shape[0]):
        np.testing.assert_allclose(band[u, : n - u], np.diagonal(dense, -u),
                                   rtol=0, atol=1e-13 * max(1.0, g.magnitude()))
    assert np.all(np.tril(dense, -band.shape[0]) == 0)


# -- discrete_eigs_below -------------------------------------------------------------

def dense_eigs_below(t, bound, tol=1e-8, n=None, cap=TRUNC_CAP):
    """Reference: the full dense spectrum of each truncation, filtered."""
    if n is None:
        n = _auto_trunc(t)

    def eigs_at(size):
        vals = np.linalg.eigvalsh(t.truncate(size))
        below = vals[vals < bound - tol]
        near = int(np.count_nonzero((vals >= bound - tol) & (vals <= bound + tol)))
        return cluster_values(below.tolist(), MERGE_FACTOR * tol), near

    size = n
    current, near = eigs_at(size)
    last_pair = (size, size)
    while 2 * size <= cap:
        bigger, near = eigs_at(2 * size)
        last_pair = (size, 2 * size)
        if _clusters_match(current, bigger, tol):
            return DiscreteEigenReport(bigger, True, last_pair, near)
        current = bigger
        size *= 2
    return DiscreteEigenReport(current, False, last_pair, near)


@settings(max_examples=40, deadline=None)
@given(operators)
def test_banded_eigs_match_dense_reference(t):
    tol = 1e-8
    g = gram(t)
    bound = symbol_min_modulus_signed(symbol(g))
    cap = 512                      # keeps the dense reference quick
    got = discrete_eigs_below(g, bound, tol=tol, cap=cap)
    want = dense_eigs_below(g, bound, tol=tol, cap=cap)
    assert got.stabilized == want.stabilized
    assert got.near_boundary == want.near_boundary
    assert got.sizes_used == want.sizes_used
    assert len(got.eigenvalues) == len(want.eigenvalues)
    for (x, m), (y, k) in zip(got.eigenvalues, want.eigenvalues):
        assert m == k
        assert abs(x - y) <= MERGE_FACTOR * tol
