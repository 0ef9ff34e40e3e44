import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

from conftest import load_perfbench
from opspectra import (NotHermitian, NotStabilized, check_an,
                       constant_diagonal, diagonal, discrete_eigs_below,
                       from_dense_corner, gram, hermitian_eig, identity, min_modulus, operator_norm,
                       right_shift, suites, svd_polar, symbol, toeplitz, zero)
from opspectra import numerics
from opspectra.numerics import (_paranormal_counts, cluster_values,
                                positivity_verdict, symbol_min_modulus_signed)
from opspectra.specfiles import load_bundled
from reference_spectra import count_below, eigs_below_by_sections


def char_poly_roots_3x3(m):
    """Independent eigenvalue oracle: roots of the characteristic polynomial
    assembled from traces and minors."""
    tr = np.trace(m)
    minors = sum(np.linalg.det(m[np.ix_(idx, idx)]).real
                 for idx in ([0, 1], [0, 2], [1, 2]))
    det = np.linalg.det(m)
    roots = np.roots([1.0, -tr.real, minors, -det.real])
    return np.sort(roots.real)


# -- hermitian_eig ---------------------------------------------------------------

def test_hermitian_eig_identity():
    es = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(es.values, [1, 1, 1])
    assert es.residual <= 1e-12


def test_hermitian_eig_swap_matrix():
    es = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(es.values, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_defect_gram_truncation():
    g = gram(load_bundled("defect_shift").operator)
    es = hermitian_eig(g.truncate(6))
    np.testing.assert_allclose(es.values, [0.25, 0.25, 1, 1, 1, 1], atol=1e-14)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_orthonormal_vectors():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    m = m + m.conj().T
    es = hermitian_eig(m)
    np.testing.assert_allclose(es.vectors.conj().T @ es.vectors, np.eye(12),
                               atol=1e-10)


def test_hermitian_eig_matches_char_poly_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        es = hermitian_eig(m)
        np.testing.assert_allclose(es.values, char_poly_roots_3x3(m), atol=1e-10)


# -- svd_polar --------------------------------------------------------------------

def test_svd_polar_identity():
    v, p = svd_polar(np.eye(4))
    np.testing.assert_allclose(v, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(p, np.eye(4), atol=1e-14)


def test_svd_polar_truncated_shift():
    m = right_shift().truncate(4)
    v, p = svd_polar(m)
    np.testing.assert_allclose(p, np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(v, m, atol=1e-14)  # partial isometry: zero on null(P)


def test_svd_polar_sign_extraction():
    v, p = svd_polar(np.diag([-3.0, 0.0]))
    np.testing.assert_allclose(p, np.diag([3.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(v, np.diag([-1.0, 0.0]), atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_svd_polar_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    v, p = svd_polar(m)
    assert np.linalg.norm(v @ p - m, 2) <= 1e-9 * np.linalg.norm(m, 2)
    evals = np.linalg.eigvalsh(p)
    assert np.min(evals) >= -1e-10
    # V*V acts as identity on range(P)
    assert np.linalg.norm(v.conj().T @ v @ p - p, 2) <= 1e-9 * np.linalg.norm(m, 2)


# -- discrete_eigs_below -------------------------------------------------------------

def test_discrete_eigs_defect_gram():
    rep = discrete_eigs_below(gram(load_bundled("defect_shift").operator), 1.0)
    assert rep.stabilized
    assert len(rep.eigenvalues) == 1
    value, mult = rep.eigenvalues[0]
    assert value == pytest.approx(0.25, abs=1e-12) and mult == 2


def test_discrete_eigs_identity_empty():
    rep = discrete_eigs_below(identity(), 1.0)
    assert rep.stabilized and rep.eigenvalues == ()


def test_discrete_eigs_diagonal():
    rep = discrete_eigs_below(diagonal((9.0, 4.0), 25.0), 25.0)
    assert rep.stabilized
    assert [(round(float(np.real(v)), 9), m) for v, m in rep.eigenvalues] \
        == [(4.0, 1), (9.0, 1)]


def test_discrete_eigs_rejects_complex_symbol():
    with pytest.raises(NotHermitian):
        discrete_eigs_below(right_shift(), 0.5)


def test_discrete_eigs_rejects_non_selfadjoint_prefix():
    # real symbol but a complex prefix entry breaks self-adjointness
    with pytest.raises(NotHermitian):
        discrete_eigs_below(diagonal((1j,), 1.0), 1.0)


def test_discrete_eigs_rejects_bound_above_essential():
    with pytest.raises(ValueError):
        discrete_eigs_below(identity(), 2.0)


def test_discrete_eigs_matches_diagonal_filter_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        prefix = tuple(rng.uniform(0.0, 3.0, size=rng.integers(0, 6)))
        tail = rng.uniform(1.5, 3.0)
        op = diagonal(prefix, tail)
        rep = discrete_eigs_below(op, tail, tol=1e-9)
        oracle = sorted(p for p in prefix if p < tail - 1e-9)
        got = []
        for v, m in rep.eigenvalues:
            got.extend([float(np.real(v))] * m)
        assert rep.stabilized
        np.testing.assert_allclose(got, oracle, atol=1e-9)


def test_interlacing_sanity():
    for op, bound in [(gram(load_bundled("defect_shift").operator), 1.0),
                      (diagonal((9.0, 4.0), 25.0), 25.0)]:
        rep = discrete_eigs_below(op, bound)
        bottom = min([bound] + [float(np.real(v)) for v, _ in rep.eigenvalues])
        smallest = float(np.min(np.linalg.eigvalsh(op.truncate(128))))
        assert smallest >= bottom - 1e-8


def test_cluster_values_merges_by_gap():
    clusters = cluster_values([1.0, 1.0 + 1e-10, 2.0], 1e-8)
    assert [(round(c, 6), m) for c, m in clusters] == [(1.0, 2), (2.0, 1)]


def test_cluster_values_keeps_a_complex_cluster_whole_across_a_value_between():
    # sorted by real part, 2 + 0.5j falls between the two members near 2
    clusters = cluster_values([2 - 1e-9, 2 + 0.5j, 2 + 1e-9], 1e-6)
    assert [m for _, m in clusters] == [2, 1]
    assert abs(clusters[0][0] - 2) < 1e-12 and clusters[1][0] == 2 + 0.5j
    # a real value past the gap of the last cluster still starts a new one
    assert [m for _, m in cluster_values([1.0, 1.5, 2.0, 1.0 + 1e-9], 1e-6)] == [2, 1, 1]


# -- operator_norm / min_modulus ------------------------------------------------------

def test_operator_norm_examples():
    assert operator_norm(right_shift()) == 1.0
    assert operator_norm(load_bundled("diagonal_head_shift").operator) \
        == pytest.approx(3.0, abs=1e-12)
    assert operator_norm(zero()) == 0.0


def test_operator_norm_dominated_by_symbol():
    # tridiagonal symbol norm 2 is reached by the symbol bound immediately
    assert operator_norm(toeplitz({1: 1.0, -1: 1.0})) == pytest.approx(2.0, abs=1e-12)


def test_operator_norm_raises_where_the_roots_do_not_split(monkeypatch):
    block = numerics._wiener_hopf_block
    monkeypatch.setattr(numerics, "_wiener_hopf_block",
                        lambda tails, lam: (block(tails, lam)[0], np.zeros(np.size(lam), bool)))
    # T*T = T(1.25 + 0.5 (z + 1/z)) plus a 1 x 1 corner: two-sided tails
    with pytest.raises(NotStabilized):
        operator_norm(toeplitz({0: 1.0, -1: 0.5}))


def test_min_modulus_examples():
    assert min_modulus(right_shift()) == 1.0
    assert min_modulus(load_bundled("defect_shift").operator) \
        == pytest.approx(0.5, abs=1e-12)
    assert min_modulus(zero()) == 0.0


def test_positivity_verdict_cases():
    verdict, _ = positivity_verdict(diagonal((0.5,), 1.0), 1e-10)
    assert verdict == "yes"
    verdict, witness = positivity_verdict(diagonal((-0.5,), 1.0), 1e-10)
    assert verdict == "no"
    assert witness["most_negative_eigenvalue"] == pytest.approx(-0.5, abs=1e-9)


def test_norm_and_min_modulus_block_oracle():
    # block direct sums have exactly computable extremes: the corner is a
    # normal matrix with known moduli, the shift block has norm equal to its
    # weight supremum and minimum modulus equal to its first weight
    from opspectra import embed_at, from_dense_corner, weighted_shift
    rng = np.random.default_rng(29)
    for _ in range(15):
        tail = rng.uniform(0.8, 2.0)
        weights = np.sort(rng.uniform(0.1, tail, size=rng.integers(0, 4)))
        n = int(rng.integers(1, 4))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(z)
        lam = np.array([rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(0, 6.28))
                        for _ in range(n)])
        op = from_dense_corner((q * lam) @ q.conj().T) \
            + embed_at(weighted_shift(tuple(weights), tail), n)
        expected_norm = max(float(np.max(np.abs(lam))), tail)
        first_weight = float(weights[0]) if len(weights) else tail
        expected_min = min(float(np.min(np.abs(lam))), first_weight)
        assert operator_norm(op) == pytest.approx(expected_norm, abs=1e-8)
        assert min_modulus(op) == pytest.approx(expected_min, abs=1e-8)


def test_distant_prefix_structure_is_not_missed():
    # a deviation sitting past the default truncation size must still be seen
    prefix = (1.0,) * 300 + (5.0,)
    op = diagonal(prefix, 1.0)
    assert operator_norm(op) == pytest.approx(5.0, abs=1e-10)
    low = diagonal((1.0,) * 300 + (0.25,), 1.0)
    assert min_modulus(low) == pytest.approx(0.25, abs=1e-10)
    rep = discrete_eigs_below(low, 1.0)
    assert rep.stabilized
    assert [(float(np.real(v)), m) for v, m in rep.eigenvalues] == [(0.25, 1)]


# -- the count on the corner ------------------------------------------------------

def test_eigenvalue_below_the_essential_level_that_sections_miss():
    # gram(T) has an eigenvalue 6.3e-5 below its essential level, whose
    # eigenvector decays so slowly that the sections 88 and 176 agree on none
    t = suites.random_toeplitz_corner(np.random.default_rng(177))
    g = gram(t)
    ess = symbol_min_modulus_signed(symbol(g))
    assert ess == pytest.approx(7.38653e-5, rel=1e-5)
    oracle = eig_banded(g.lower_band(8192), lower=True, eigvals_only=True,
                        select="v", select_range=(-np.inf, ess))
    assert oracle == pytest.approx([1.13439e-5], rel=1e-5)
    rep = discrete_eigs_below(g, ess)
    assert rep.stabilized and len(rep.eigenvalues) == 1
    value, mult = rep.eigenvalues[0]
    assert value == pytest.approx(oracle[0], abs=1e-10) and mult == 1
    assert min_modulus(t) == pytest.approx(math.sqrt(oracle[0]), rel=1e-5)
    assert eigs_below_by_sections(g, ess) == ((), True, (88, 176))


def test_paranormal_shift_with_an_eigenvalue_the_sections_miss():
    # pool base (2, 8, 1): q(s) has an eigenvalue near -6.9e-8, below
    # -tol * scale = -6.89e-9, that the sections 104 and 208 do not show
    t = load_perfbench("workloads").generic_base(2, 8, 1)
    s = 0.015462412962404925
    q = gram(t @ t) - gram(t).scaled(2 * s) + constant_diagonal(s * s)
    scale = max(1.0, q.magnitude())
    assert -1e-10 * scale == pytest.approx(-6.89e-9, rel=1e-3)
    verdict, witness = positivity_verdict(q, 1e-10)
    assert verdict == "no"
    assert count_below(q, -1e-10 * scale) == (1, True)
    counts, valid = _paranormal_counts(gram(t @ t), gram(t), [s], 1e-10)
    assert (counts.tolist(), valid.tolist()) == ([1], [True])
    section = eig_banded(q.lower_band(2048), lower=True, eigvals_only=True,
                         select="i", select_range=(0, 0))[0]
    assert section == pytest.approx(-6.88e-8, rel=1e-2)
    assert witness["most_negative_eigenvalue"] <= section


def test_near_boundary_counts_no_copies_of_the_essential_level():
    assert discrete_eigs_below(identity(), 1.0).near_boundary == 0
    assert check_an(diagonal((0.5, 2.0), 1.0)).witness["near_boundary"] == 0


def test_count_ignores_an_outer_tail_below_rounding():
    g = gram(suites.random_toeplitz_corner(np.random.default_rng(177)))
    w = len(g.tails) // 2
    padded = g + toeplitz({w + 1: 1e-30, -w - 1: 1e-30})
    assert len(padded.tails) == len(g.tails) + 2
    ess = symbol_min_modulus_signed(symbol(g))
    for lam in (-1.0, 0.5 * ess, ess - 1e-10):
        assert count_below(padded, lam) == count_below(g, lam)
    assert count_below(g, ess - 1e-10) == (1, True)


# -- branches that only broken or unusual input reaches --------------------------

def _roots_split_only(monkeypatch, where=lambda lam: np.zeros(np.size(lam), bool)):
    """Make ``_wiener_hopf_block`` report its roots split only where the mask
    ``where(lam)`` is True (nowhere by default), keeping its blocks."""
    block = numerics._wiener_hopf_block

    def patched(tails, lam):
        g, ok = block(tails, lam)
        return g, ok & where(lam)

    monkeypatch.setattr(numerics, "_wiener_hopf_block", patched)


def test_positivity_verdict_rejects_a_complex_symbol():
    with pytest.raises(NotHermitian):
        positivity_verdict(toeplitz({1: 1.0}), 1e-10)


def test_positivity_verdict_rejects_a_non_selfadjoint_window():
    with pytest.raises(NotHermitian):
        positivity_verdict(diagonal((1j,), 1.0), 1e-10)


def test_positivity_verdict_no_from_the_symbol_minimum():
    # z + 1/z = 2 cos(theta) reaches -2: no eigenvalue needs to be sought
    assert positivity_verdict(toeplitz({1: 1.0, -1: 1.0}), 1e-10) == (
        "no", {"symbol_min": -2.0})


def test_positivity_verdict_undetermined_where_the_roots_do_not_split(monkeypatch):
    _roots_split_only(monkeypatch)
    d = toeplitz({-1: 1.0, 0: 3.0, 1: 1.0}) + from_dense_corner([[-5.0]])
    verdict, witness = positivity_verdict(d, 1e-10)
    assert verdict == "undetermined"
    assert witness["symbol_min"] == pytest.approx(1.0)
    assert "most_negative_eigenvalue" not in witness


def _eigenvalue_below_the_band():
    """z + 1/z plus -5 at (0, 0): one eigenvalue, -5.2, below -2."""
    return toeplitz({-1: 1.0, 1: 1.0}) + from_dense_corner([[-5.0]])


def test_eigs_below_invalid_after_the_bracket(monkeypatch):
    h = _eigenvalue_below_the_band()
    vals, ok = numerics._eigs_below(h, -2.1)
    assert ok and vals == pytest.approx([-5.2])
    # the bracket [lo, level] is evaluated in one call, every falsi step alone
    _roots_split_only(monkeypatch, lambda lam: np.full(np.size(lam), np.size(lam) > 1))
    vals, ok = numerics._eigs_below(h, -2.1)
    assert not ok and not len(vals)


def test_eigs_below_not_converged(monkeypatch):
    monkeypatch.setattr(numerics, "FALSI_STEPS", 0)
    vals, ok = numerics._eigs_below(_eigenvalue_below_the_band(), -2.1)
    assert not ok and not len(vals)


def _on_square(s):
    """The square with corners +-1 +-1j, counterclockwise from -1 - 1j, at
    s in [0, 2 pi)."""
    corners = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    edge, along = np.divmod(4 * np.asarray(s) / (2 * np.pi), 1.0)
    edge = edge.astype(int) % 4
    return corners[edge] + along * (np.roll(corners, -1)[edge] - corners[edge])


def _read(log_f):
    """``log_f`` along the square as ``_loop_turns`` takes it."""
    return lambda i, s: log_f(_on_square(s))


def test_loop_turns_counts_and_gives_up():
    assert numerics._loop_turns(_read(np.log), [np.zeros(0)]) == 1
    assert numerics._loop_turns(_read(lambda z: np.full(z.shape, np.nan + 0j)),
                                [np.zeros(0)]) is None


def test_loop_turns_budget(monkeypatch):
    monkeypatch.setattr(numerics, "LOOP_BUDGET", 127)
    assert numerics._loop_turns(_read(np.log), [np.zeros(0)]) is None


def test_loop_turns_reads_each_side_and_adds_no_point_at_its_cuts(monkeypatch):
    """A path whose phase turns the other way counts -1.  A path is read
    piece by piece between the cuts given, with a first point EDGE_INSET
    each side of every cut and no point added between them: a run between
    cuts at 0.30 and 0.32, inside one first step, along which the phase
    turns back by pi, against 3 pi forward along the rest and a jump of
    pi/2 at each cut, counts 1.  Without the cuts the run is only found by
    halving a step across it, the jumps at its ends are halved until the
    budget runs out, and the count gives up (a budget of 2,000 points, ten
    times what the count with the cuts takes, gets there quickly)."""
    none = [np.zeros(0)]
    assert numerics._loop_turns(_read(lambda z: np.log(z).conj()), none) == -1
    lo, hi, inset = 0.30, 0.32, numerics.EDGE_INSET
    taken = []

    def run(i, s):
        taken.append(s)
        inside = (lo <= s) & (s < hi)
        return 1j * np.where(inside, np.pi / 2 - np.pi * (s - lo) / (hi - lo),
                             3 * np.pi * ((s - hi) % (2 * np.pi)) / (2 * np.pi - hi + lo))

    assert numerics._loop_turns(run, [np.array([hi, lo])]) == 1
    s = np.concatenate(taken)
    assert np.all(np.isin([lo - inset, lo + inset, hi - inset, hi + inset], s))
    for cut in (lo, hi):
        assert not np.any((cut - inset < s) & (s < cut + inset))
    assert len(s) * 10 <= 2000
    monkeypatch.setattr(numerics, "LOOP_BUDGET", 2000)
    assert numerics._loop_turns(run, none) is None
    assert numerics._loop_turns(_read(np.log), none * 2) == 2


def test_min_modulus_not_stabilized(monkeypatch):
    _roots_split_only(monkeypatch)
    with pytest.raises(NotStabilized):
        min_modulus(toeplitz({0: 2.0, 1: 1.0}) + from_dense_corner([[0.1]]))
