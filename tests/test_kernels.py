"""The array kernels against dense references on non-dyadic operators.

``compose`` is checked against the dense product of truncations, and the
banded ``discrete_eigs_below`` against a dense ``eigvalsh`` reference that
keeps the earlier full-spectrum implementation of the same n / 2n rule.  The
Cholesky positivity certificate is checked against ``eigvalsh``, and
``positivity_verdict`` and ``check_paranormal`` against the earlier
shifted-operator implementations built on those references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import (StructuredOperator, check_paranormal, constant_diagonal,
                       diagonal, discrete_eigs_below, gram, identity,
                       self_commutator)
from opspectra import numerics, suites
from opspectra.classify import Verdict, default_paranormal_grid
from opspectra.numerics import (MERGE_FACTOR, TRUNC_CAP, DiscreteEigenReport,
                                _all_above, _auto_trunc, _clusters_match,
                                cluster_values, positivity_verdict,
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
    n = max(len(x), t.corner_size) + t.bandwidth
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
    assert band.shape[0] - 1 == min(g.bandwidth, n - 1)
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


# -- positivity ----------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
def test_all_above_matches_eigvalsh(n, width, seed):
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n), dtype=complex)
    for u in range(min(width, n - 1) + 1):
        diag = rng.normal(size=n - u) + 1j * rng.normal(size=n - u)
        dense += np.diag(diag.real if u == 0 else diag, -u)
    dense = np.tril(dense) + np.tril(dense, -1).conj().T
    band = np.array([np.concatenate([np.diagonal(dense, -u), np.zeros(u)])
                     for u in range(min(width, n - 1) + 1)])
    lowest = float(np.linalg.eigvalsh(dense)[0])
    margin = 1e-6 * max(1.0, float(np.max(np.abs(dense))))
    assert _all_above(band, lowest - margin)
    assert not _all_above(band, lowest + margin)


def positivity_reference(d, tol, cap):
    """The earlier positivity_verdict: shift d above zero and list the
    eigenvalues below the shift with the dense n / 2n reference."""
    scale = max(1.0, d.magnitude())
    ess_min = symbol_min_modulus_signed(symbol(d))
    if ess_min < -tol * scale:
        return "no", {"symbol_min": ess_min}
    shift = 1.0 + max(0.0, -ess_min)
    report = dense_eigs_below(d + constant_diagonal(shift), shift, tol=tol,
                              cap=cap)
    negatives = [v - shift for v, _ in report.eigenvalues]
    worst = min(negatives, default=0.0)
    if negatives and worst < -tol * scale:
        return "no", {"symbol_min": ess_min, "most_negative_eigenvalue": worst}
    if not report.stabilized:
        return "undetermined", {"symbol_min": ess_min, "reason": "not stabilized"}
    return "yes", {"symbol_min": ess_min, "most_negative_eigenvalue": worst}


def assert_same_positivity(d, tol=1e-10, cap=512):
    """The truncation cap is lowered for both sides, to keep the dense
    reference quick; positivity_verdict reads it at call time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "TRUNC_CAP", cap)
        got, witness = positivity_verdict(d, tol)
        want, reference = positivity_reference(d, tol, cap)
    assert got == want
    if got == "yes":
        assert abs(witness["most_negative_eigenvalue"]
                   - reference["most_negative_eigenvalue"]) <= MERGE_FACTOR * tol


@settings(max_examples=40, deadline=None)
@given(operators)
def test_positivity_of_self_commutator_matches_reference(t):
    assert_same_positivity(self_commutator(t))


@settings(max_examples=40, deadline=None)
@given(operators, st.floats(0.01, 10.0))
def test_positivity_of_paranormal_shift_matches_reference(t, s):
    q = gram(t @ t) + gram(t).scaled(-2.0 * s) + constant_diagonal(s * s)
    assert_same_positivity(q)


@pytest.mark.parametrize("low", [-5e-11, -5e-10, -5e-9, 0.0, 0.3])
def test_positivity_thresholds_match_reference(low):
    # scale 10: the early "no" needs an eigenvalue below -tol * 10, while
    # eigenvalues in [-tol * 10, -tol] are listed and stabilize to "yes"
    assert_same_positivity(diagonal((low, 1.0), 10.0))


def paranormal_reference(t, grid, tol=1e-10):
    """The earlier grid loop: one structured operator per shift."""
    quartic, quad = gram(t @ t), gram(t)
    outcome = Verdict.YES
    for s in grid:
        q = quartic + quad.scaled(-2.0 * s) + constant_diagonal(s * s)
        verdict, _ = positivity_verdict(q, tol)
        if verdict == "no":
            return Verdict.NO, s
        if verdict == "undetermined":
            outcome = Verdict.UNDETERMINED
    return outcome, None


@settings(max_examples=30, deadline=None)
@given(operators)
def test_check_paranormal_matches_per_shift_reference(t):
    for op in (t, t.adjoint()):
        grid = default_paranormal_grid(op)
        if not grid:
            continue
        res = check_paranormal(op, grid=grid)
        want, failed_at = paranormal_reference(op, grid)
        assert res.verdict is want
        assert res.witness["failed_at"] == failed_at
