import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_core as ref
from opspectra import (DiagonalDescriptor, FiniteRankTerm, StructuredOperator,
                       core, diagonal, embed_at, from_dense_corner, gram,
                       identity, rank_one, right_shift, self_commutator,
                       toeplitz, weighted_shift, zero)
from opspectra.specfiles import load_bundled
from test_symbols import suite_operators


def defect_shift():
    return load_bundled("defect_shift").operator


# -- construction and canonical form ------------------------------------------

def test_descriptor_canonicalization():
    d = DiagonalDescriptor((1.0, 2.0, 3.0, 3.0), 3.0)
    assert d.prefix == (1.0 + 0j, 2.0 + 0j)
    assert d.prefix[1] == 2.0
    assert d.tail == 3.0


def test_zero_bands_dropped():
    t = StructuredOperator({0: DiagonalDescriptor((), 0.0),
                            2: DiagonalDescriptor((0.0, 0.0), 0.0)})
    assert t == zero()
    assert t.bandwidth == 0


def test_rank_term_canonicalization():
    term = FiniteRankTerm((1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
    assert term.left == (1.0 + 0j,)
    assert term.right == (0j, 2.0 + 0j)
    assert StructuredOperator({}, (FiniteRankTerm((0.0,), (1.0,)),)) == zero()


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        DiagonalDescriptor((float("nan"),), 0.0)
    with pytest.raises(ValueError):
        diagonal((), complex(0, float("inf")))


# -- adjoint -------------------------------------------------------------------

def test_adjoint_of_shift_is_transpose():
    r = right_shift()
    assert r.adjoint().bands == {-1: DiagonalDescriptor((), 1.0)}


def test_adjoint_fixes_selfadjoint_diagonal():
    d = diagonal((0.5, 0.5), 1.0)
    assert d.adjoint() == d


def test_adjoint_matches_stated_formula():
    # T(x) = (x1/2, 0, x2/2, x3, ...) has T*(x) = (x1/2, x3/2, x4, ...)
    ts = defect_shift().adjoint()
    np.testing.assert_array_equal(ref.apply(ts, [1, 0, 0, 0]), [0.5])
    np.testing.assert_array_equal(ref.apply(ts, [0, 0, 1, 0]), [0, 0.5])
    np.testing.assert_array_equal(ref.apply(ts, [0, 0, 0, 1]), [0, 0, 1])


# -- add / scale ---------------------------------------------------------------

def test_add_zero_is_identity_map():
    t = defect_shift()
    assert t + zero() == t


def test_add_cancels_exactly():
    r = right_shift()
    assert r + r.scaled(-1) == zero()


def test_gram_of_defect_shift_is_identity_minus_finite_diagonal():
    t = defect_shift()
    assert identity() - diagonal((0.75, 0.75), 0.0) == gram(t)


def test_scale_examples():
    r = right_shift()
    assert r.scaled(0) == zero()
    assert r.scaled(2).bands[1].tail == 2.0
    assert identity().scaled(1j).bands[0].tail == 1j
    assert r.scaled(1) == r


# -- compose -------------------------------------------------------------------

def test_shift_is_isometry():
    r = right_shift()
    assert r.adjoint().compose(r) == identity()


def test_shift_coisometry_defect():
    r = right_shift()
    product = r.compose(r.adjoint())
    # oracle: direct truncation product on a section wide enough for bandwidth 2
    direct = (r.truncate(5) @ r.adjoint().truncate(5))[:3, :3]
    np.testing.assert_array_equal(product.truncate(3), direct)
    # entrywise equal to I - |e0><e0| (band form vs rank form)
    assert (product - (identity() - rank_one((1.0,), (1.0,)))).is_zero(0.0)


def test_defect_gram_matches_stated_diagonal():
    assert gram(defect_shift()) == diagonal((0.25, 0.25), 1.0)


def test_self_commutator_of_diagonal_vanishes():
    assert self_commutator(diagonal((0.5j, -2.0), 1.0)).is_zero(0.0)


def test_self_commutator_of_shift():
    d = self_commutator(right_shift())
    oracle = (right_shift().adjoint().truncate(4) @ right_shift().truncate(4)
              - right_shift().truncate(4) @ right_shift().adjoint().truncate(4))
    np.testing.assert_array_equal(d.truncate(3), oracle[:3, :3])
    assert not d.is_zero(0.0)


def test_self_commutator_of_defect_shift_nonzero():
    d = self_commutator(defect_shift())
    assert not d.is_zero(1e-12)
    assert np.min(np.linalg.eigvalsh(d.truncate(16))) >= -1e-12


# -- truncate / apply ----------------------------------------------------------

def test_truncate_identity():
    np.testing.assert_array_equal(identity().truncate(3), np.eye(3))


def test_truncate_shift():
    np.testing.assert_array_equal(right_shift().truncate(3),
                                  np.eye(3, k=-1))


def test_truncate_diagonal_head_shift():
    t = load_bundled("diagonal_head_shift").operator
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1
    expected[1, 1] = 2
    expected[3, 2] = 3
    np.testing.assert_array_equal(t.truncate(4), expected)


def test_truncate_requires_positive_size():
    with pytest.raises(ValueError):
        identity().truncate(0)


def test_apply_examples():
    np.testing.assert_array_equal(ref.apply(right_shift(), [1]), [0, 1])
    np.testing.assert_array_equal(ref.apply(defect_shift(), [0, 1]), [0, 0, 0.5])
    assert ref.apply(zero(), [1, 2, 3]).size == 0


# -- is_zero -------------------------------------------------------------------

def test_is_zero_examples():
    assert self_commutator(diagonal((2.0,), 1.0)).is_zero(0.0)
    assert not right_shift().is_zero(0.0)
    theta = 0.7367
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    assert self_commutator(from_dense_corner(u)).is_zero(1e-12)


def test_is_zero_detects_band_rank_cancellation():
    # a band prefix and a rank-one term describing the same matrix cancel
    band = StructuredOperator({0: DiagonalDescriptor((1.0,), 0.0)})
    assert (band - rank_one((1.0,), (1.0,))).is_zero(0.0)


def test_is_zero_rejects_negative_tol():
    with pytest.raises(ValueError):
        identity().is_zero(-1.0)


# -- algebraic property tests (exact dyadic arithmetic) -------------------------

dyadic = st.integers(-32, 32).map(lambda k: k / 16.0)
cdyadic = st.builds(complex, dyadic, dyadic)
descriptors = st.builds(
    DiagonalDescriptor,
    st.lists(cdyadic, max_size=4).map(tuple),
    cdyadic)
vectors = st.lists(cdyadic, min_size=1, max_size=3).map(tuple)
terms = st.builds(FiniteRankTerm, vectors, vectors)
operators = st.builds(
    StructuredOperator,
    st.dictionaries(st.integers(-3, 3), descriptors, max_size=4),
    st.lists(terms, max_size=2).map(tuple))


@settings(max_examples=80, deadline=None)
@given(operators)
def test_adjoint_is_involutive(t):
    assert t.adjoint().adjoint() == t


@settings(max_examples=80, deadline=None)
@given(operators)
def test_truncate_commutes_with_adjoint(t):
    np.testing.assert_array_equal(t.adjoint().truncate(6),
                                  t.truncate(6).conj().T)


@settings(max_examples=60, deadline=None)
@given(operators, operators)
def test_ring_law_on_truncations(a, b):
    k = a.bandwidth + b.bandwidth
    n = 5
    product = a.compose(b).truncate(n)
    direct = (a.truncate(n + k) @ b.truncate(n + k))[:n, :n]
    np.testing.assert_array_equal(product, direct)


@settings(max_examples=80, deadline=None)
@given(operators)
def test_unit_laws(t):
    assert t.compose(identity()) == t
    assert identity().compose(t) == t
    assert t + zero() == t


@settings(max_examples=80, deadline=None)
@given(operators)
def test_canonicalization_is_idempotent(t):
    rebuilt = StructuredOperator(dict(t.bands), t.rank_terms)
    assert rebuilt == t


@settings(max_examples=60, deadline=None)
@given(operators, operators)
def test_add_is_entrywise(a, b):
    np.testing.assert_array_equal((a + b).truncate(6),
                                  a.truncate(6) + b.truncate(6))


def test_weighted_shift_builder():
    w = weighted_shift((0.5,), 1.0)
    np.testing.assert_array_equal(ref.apply(w, [1]), [0, 0.5])
    np.testing.assert_array_equal(ref.apply(w, [0, 1]), [0, 0, 1.0])


def test_from_dense_corner_round_trip():
    m = np.array([[1.0, 2.0], [3.0 + 1j, 4.0]])
    op = from_dense_corner(m)
    np.testing.assert_array_equal(op.truncate(3)[:2, :2], m)
    assert np.all(op.truncate(4)[2:, :] == 0)


def test_toeplitz_builder():
    t = toeplitz({1: 1.0, -1: 1.0})
    m = t.truncate(4)
    np.testing.assert_array_equal(m, np.eye(4, k=1) + np.eye(4, k=-1))


# -- the (tails, window) representation ------------------------------------------

def test_rank_terms_fold_into_the_window():
    assert diagonal((1.0,), 0.0) == rank_one((1.0,), (1.0,))
    t = rank_one((1.0, 2.0), (0.0, 1j))
    assert t.rank_terms == ()
    assert StructuredOperator(dict(t.bands)) == t
    np.testing.assert_array_equal(t.window, [[0, -1j], [0, -2j]])


def test_structure_comes_from_the_window():
    # tails a_1 = 1; the window deviates at (0, 0) and (3, 1)
    t = StructuredOperator({1: ((), 1.0), 0: ((5.0,), 0.0), 2: ((0.0, 4.0), 0.0)})
    assert t.tails.tolist() == [0, 0, 1]
    assert t.window.shape == (4, 4)
    assert (t.bandwidth, t.corner_size) == (2, 2)


def _family(a, b, start):
    """a, b and what the class's operations build from them."""
    return (a, b, a + b, a - b, a.compose(b), b.compose(a), a.adjoint(),
            b.adjoint(), embed_at(a, start), embed_at(b.adjoint(), start))


@settings(max_examples=60, deadline=None)
@given(suite_operators, suite_operators, st.integers(0, 5))
def test_recorded_structure_matches_the_window_oracle(a, b, start):
    for t in _family(a, b, start):
        assert t._structure == ref.structure(t)
        assert (t.bandwidth, t.corner_size) == ref.structure(t)[:2]


def test_pool_bases_record_their_structure_and_read_it_without_a_block(
        monkeypatch, pool_bases):
    built = [t for a, b in zip(pool_bases, pool_bases[1:] + pool_bases[:1])
             for t in _family(a, b, 3)] + [defect_shift(), zero()]
    calls = []
    block = core._toeplitz_block
    monkeypatch.setattr(core, "_toeplitz_block",
                        lambda *args: calls.append(args) or block(*args))
    assert ([(t.bandwidth, t.corner_size) for t in built]
            == [ref.structure(t)[:2] for t in built])
    assert calls == []
    assert all(t._structure == ref.structure(t) for t in built)


def test_arrays_are_read_only():
    t = defect_shift()
    with pytest.raises(ValueError):
        t.window[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.tails[0] = 1.0
    with pytest.raises(AttributeError):
        t.window = np.zeros((1, 1))


def test_pickles_and_copies_carry_no_memo():
    t = defect_shift()
    gram(t)
    assert t._derived
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again == t and not again._derived
        assert not again.window.flags.writeable
