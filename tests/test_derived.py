"""The per-operator memo of derived data (adjoint, T*T, [T*, T], the norm
and the eigenvalues below the essential level): sharing it changes no
result, saves the repeated algebra, and leaves identity, equality, repr and
pickling of the operator as they were."""

import gc
import json
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import (StructuredOperator, classify, from_dense_corner, gram,
                       rank_one, self_commutator, spectral_summary, suites,
                       symbol, toeplitz)
from opspectra.cli import summary_to_dict
from opspectra.core import is_selfadjoint, memoized, selfadjoint_defect
from opspectra.numerics import (discrete_eigs_below, operator_norm,
                                symbol_min_modulus_signed)

GENERATORS = (suites.random_diagonal, suites.random_weighted_shift,
              suites.random_hyponormal, suites.random_finite_rank,
              suites.random_normal_corner, suites.random_an_hyponormal,
              suites.random_banded_symbol)
SMALL = {"samples": 256}


def generic(bandwidth=2, corner=8, seed=1):
    """A random Laurent tail, a dense corner and one rank-one term: a
    non-normal, non-hyponormal T(a) + K."""
    rng = np.random.default_rng([bandwidth, corner, seed])
    coeffs = {k: complex(*rng.uniform(-1, 1, 2))
              for k in range(-bandwidth, bandwidth + 1)}
    head = (rng.normal(size=(corner, corner))
            + 1j * rng.normal(size=(corner, corner))) / math.sqrt(corner)
    support = int(rng.integers(1, corner + 1))
    left, right = (tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(support))
                   for _ in range(2))
    return toeplitz(coeffs) + from_dense_corner(head) + rank_one(left, right)


def outputs(report, summary):
    """Everything classify and spectral_summary report, in exactly
    comparable form."""
    return repr(report), summary_to_dict(summary)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GENERATORS), st.integers(0, 2 ** 32 - 1))
def test_shared_memo_gives_the_results_of_fresh_operators(make, seed):
    def fresh():
        return make(np.random.default_rng(seed))

    alone = outputs(classify(fresh()), spectral_summary(fresh(), **SMALL))
    t = fresh()
    report = classify(t)
    assert outputs(report, spectral_summary(t, **SMALL)) == alone
    u = fresh()
    summary = spectral_summary(u, **SMALL)
    assert outputs(classify(u), summary) == alone


def test_classify_and_summary_compose_at_most_four_times(monkeypatch):
    t = generic()
    calls = []
    compose = StructuredOperator.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(StructuredOperator, "compose", counted)
    report = classify(t)
    spectral_summary(t, **SMALL)
    # the paranormal grid ran: T*T, TT*, T^2 and (T^2)*(T^2)
    assert report.is_hyponormal.value == "no"
    assert len(calls) <= 4


def test_memo_holds_no_reference_cycle():
    t = generic()
    classify(t)
    spectral_summary(t, **SMALL)
    assert {"adjoint", "gram", "self_commutator"} <= set(t._derived)
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_threads_sharing_one_operator_get_the_results_of_fresh_ones():
    """Threads racing on one memo entry compute it twice and store equal
    values, so every thread reports what a fresh operator gives."""
    expected = outputs(classify(generic()), spectral_summary(generic(), **SMALL))
    t, results = generic(), []

    def work():
        results.append(outputs(classify(t), spectral_summary(t, **SMALL)))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)


def test_filled_memo_leaves_equality_repr_and_pickle_alone():
    t, u = generic(), generic()
    classify(t)
    spectral_summary(t, **SMALL)
    assert t._derived and not u._derived
    assert t == u and repr(t) == repr(u)
    assert pickle.dumps(t) == pickle.dumps(u)
    again = pickle.loads(pickle.dumps(t))
    assert again == t and not again._derived
    with pytest.raises(TypeError):
        hash(t)


def test_derived_values_are_computed_once_per_operator():
    t = generic()
    assert t.adjoint() is t.adjoint()
    assert gram(t) is gram(t)
    assert self_commutator(t) is self_commutator(t)
    assert operator_norm(t) == t._derived["operator_norm"]
    g = gram(t)
    bound = symbol_min_modulus_signed(symbol(g))
    assert discrete_eigs_below(g, bound) is discrete_eigs_below(g, bound)
    # an equal operator has its own memo
    assert gram(generic()) is not gram(t)


def test_summary_and_singular_levels_share_one_count(monkeypatch):
    # min_modulus and discrete_singular_levels key the memo on the same
    # essential level of T*T, so the second reads the first's report
    from opspectra import numerics
    from opspectra.classify import discrete_singular_levels
    from opspectra.specfiles import load_bundled
    from conftest import PERFBENCH
    calls = []
    count = numerics._discrete_eigs_below
    monkeypatch.setattr(numerics, "_discrete_eigs_below",
                        lambda *a: calls.append(a) or count(*a))
    # generic(): min |a|^2 and the minimum of the symbol of T*T differ in
    # their last bits
    u = generic()
    spectral_summary(u, **SMALL)
    discrete_singular_levels(u)
    assert len(calls) == 1
    t = load_bundled("selfadjoint_band").operator
    spectral_summary(t, **SMALL)
    levels, stabilized = discrete_singular_levels(t)
    assert len(calls) == 2
    golden = json.loads((PERFBENCH / "golden_cli.json").read_text())
    want = golden["spectrum/selfadjoint_band/structured"]["fields"]
    assert stabilized is want["stabilized"]
    assert len(levels) == len(want["levels"])
    for (value, mult), (gv, gm) in zip(levels, want["levels"]):
        assert abs(value - gv) <= 1e-6 and mult == gm


def test_an_exception_stores_nothing():
    t = generic()
    attempts = []

    def compute():
        attempts.append(1)
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")
        return 42

    with pytest.raises(RuntimeError):
        memoized(t, "answer", compute)
    assert "answer" not in t._derived
    assert memoized(t, "answer", compute) == 42
    assert memoized(t, "answer", compute) == 42
    assert len(attempts) == 2


def test_selfadjoint_operators_store_no_adjoint(pool_bases):
    # the self-adjointness checks read selfadjoint_defect, so the memo of
    # T*T and of [T*, T] holds no copy of the operator itself
    for t in pool_bases[:3]:
        classify(t)
        spectral_summary(t, **SMALL)
        assert "adjoint" not in gram(t)._derived
        assert "adjoint" not in self_commutator(t)._derived


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GENERATORS), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 32 - 1))
def test_selfadjoint_defect_is_the_magnitude_of_t_minus_its_adjoint(make, a, b):
    # sums and products of the generators, so that both the tails and the
    # corners of T - T* are nonzero
    s, u = make(np.random.default_rng(a)), make(np.random.default_rng(b))
    for t in (s, s + u.scaled(1j), s.compose(u), gram(s)):
        direct = (t - t.adjoint()).magnitude()
        scale = max(1.0, t.magnitude())
        assert abs(selfadjoint_defect(t) - direct) <= 1e-15 * scale
    g = gram(s)
    assert is_selfadjoint(g, 1e-12 * max(1.0, g.magnitude()))
