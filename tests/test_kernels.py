"""The array kernels against dense references on non-dyadic operators.

``compose`` is checked against the dense product of truncations, and
``discrete_eigs_below`` and ``positivity_verdict`` one-sidedly against
sections: a section is a compression, so each of its eigenvalues bounds the
operator's from above.  The Cholesky positivity certificate is checked
against ``eigvalsh``, and ``check_paranormal`` against the earlier
shifted-operator implementations.  The truncation kernel count is checked
against its exact-top reference, and the certificates that stand in for
``eig_banded`` and the SVD, and the batched paranormal passes, are guarded
by call counts.
"""

import importlib
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

from opspectra import (StructuredOperator, check_paranormal, constant_diagonal,
                       diagonal, fredholm_index, gram, identity, right_shift,
                       self_commutator, structure_decompose)
from opspectra import suites
from opspectra import symbols as symbols_module
from opspectra.classify import Verdict, default_paranormal_grid
from opspectra.errors import PointOnCurve
from opspectra.numerics import (_paranormal_counts, operator_norm, positivity_verdict,
                                symbol_min_modulus_signed)
from opspectra.symbols import (_all_above, _row_sum_bound, kernel_count_by_truncation,
                               symbol, winding)
from conftest import load_perfbench
from reference_core import apply
from reference_spectra import kernel_count_exact, paranormal_by_shifts

classify_module = importlib.import_module("opspectra.classify")


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
    got = apply(t, x)
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

@settings(max_examples=40, deadline=None)
@given(operators)
def test_banded_eigs_match_dense_reference(t):
    """Against the 2048-section (``suites.against_section``): the k-th
    eigenvalue listed 0.01 scale or more below the essential level is the
    section's k-th, multiplicities counted, and no section eigenvalue below
    that level less 1e-6 scale is missing."""
    report, unmatched, missed = suites.against_section(gram(t))
    assert report.stabilized and not unmatched and not missed


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


def assert_same_positivity(d, tol=1e-10):
    """positivity_verdict against the eigenvalues below 0 of the
    2048-section, sigma the lowest (0.0 when none), scale = max(1, magnitude
    of d).  The section is a compression, so by interlacing sigma lies at or
    above d's lowest eigenvalue: sigma below -tol scale forces "no", and the
    witness of a "no" lies at or below sigma; from 0.01 scale below 0 the
    section has settled, and the witness is one of its eigenvalues.  With a
    constant symbol the section holds the whole window, and the verdict and
    the witness are those of the section."""
    verdict, witness = positivity_verdict(d, tol)
    scale = max(1.0, d.magnitude())
    vals = eig_banded(d.lower_band(2048), lower=True, eigvals_only=True,
                      select="v", select_range=(-np.inf, 0.0))
    sigma = min(vals, default=0.0)
    if sigma < -tol * scale - 1e-12 * scale:
        assert verdict == "no"
    if verdict == "no" and "most_negative_eigenvalue" in witness:
        value = witness["most_negative_eigenvalue"]
        assert value <= sigma + 1e-12 * scale
        if value <= -0.01 * scale:
            assert np.min(np.abs(vals - value)) <= 1e-8 * scale
    if set(symbol(d).coeffs) <= {0}:
        assert verdict == ("no" if sigma < -tol * scale else "yes")
        below = vals[vals < min(-tol, symbol_min_modulus_signed(symbol(d)) - tol)]
        want = below[0] if len(below) else 0.0
        assert abs(witness.get("most_negative_eigenvalue", want) - want) \
            <= 1e-12 * scale


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
    # scale 10: "no" needs an eigenvalue below -tol * 10, while one in
    # [-tol * 10, -tol) is the witness of a "yes"
    assert_same_positivity(diagonal((low, 1.0), 10.0))
    assert positivity_verdict(diagonal((low, 1.0), 10.0), 1e-10)[0] \
        == ("no" if low == -5e-9 else "yes")


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
# an eigenvalue 2.5e-9 below an essential level 0, where the computed
# S(lam) is Hermitian only to 7e-8: counts and witnesses need its Hermitian part
@example(t=_mixed(np.random.default_rng(1207)))
@example(t=suites.random_banded_symbol(np.random.default_rng(1207)))
def test_check_paranormal_matches_per_shift_reference(t):
    for op in (t, t.adjoint()):
        grid = default_paranormal_grid(op)
        if not grid:
            continue
        res = check_paranormal(op, grid=grid)
        want, failed_at = paranormal_reference(op, grid)
        assert res.verdict is want
        assert res.witness["failed_at"] == failed_at
        if failed_at is not None:
            assert_same_positivity(gram(op @ op) + gram(op).scaled(-2.0 * failed_at)
                                   + constant_diagonal(failed_at ** 2))


def _paranormal_outcome(t, grid=None):
    res = check_paranormal(t, grid=grid)
    return tuple(res.witness[k] if k != "verdict" else res.verdict
                 for k in ("verdict", "failed_at", "method", "proved"))


def test_batched_paranormal_passes_match_the_per_shift_oracle_on_the_pool(pool_bases):
    """The eleven pool bases and three quarter-turn copies of each, T and T*."""
    workloads = load_perfbench("workloads")
    for base in pool_bases:
        copies = [workloads.unitary_copy(base, r, g)
                  for r, g in ((1j, 1), (-1, 1j), (-1j, -1))]
        for t in [base] + copies:
            for op in (t, t.adjoint()):
                assert _paranormal_outcome(op) == paranormal_by_shifts(op)


SUITE_GENERATORS = (suites.random_diagonal, suites.random_weighted_shift,
                    suites.random_hyponormal, suites.random_finite_rank,
                    suites.random_normal_corner, suites.random_an_hyponormal,
                    suites.random_banded_symbol, suites.random_toeplitz_corner)


@pytest.mark.parametrize("i", range(len(SUITE_GENERATORS)))
def test_batched_paranormal_passes_match_the_per_shift_oracle_on_suite_draws(i):
    """60 draws per generator, T and T*: grid and pencil, "yes" and "no"."""
    rng = np.random.default_rng([77, i])
    for _ in range(60):
        t = SUITE_GENERATORS[i](rng)
        for op in (t, t.adjoint()):
            assert _paranormal_outcome(op) == paranormal_by_shifts(op)


def _reading_invalid(monkeypatch, invalid):
    """Make the batched count read the shifts in ``invalid`` as not valid."""
    def counts(quartic, quad, shifts, tol):
        got, valid = _paranormal_counts(quartic, quad, shifts, tol)
        return got, valid & ~np.isin(shifts, invalid)
    monkeypatch.setattr(classify_module, "_paranormal_counts", counts)


def test_an_invalid_shift_before_a_failing_one_reads_no(monkeypatch, pool_bases):
    """Shifts read as not valid before the first failing one, in the default
    grid and in a user grid of two, leave a proved "no" at that shift, as in
    the per-shift oracle."""
    for t in pool_bases[:4]:
        grid = default_paranormal_grid(t)
        verdict, failed_at, _, _ = _paranormal_outcome(t, grid)
        assert verdict is Verdict.NO and grid.index(failed_at) >= 2
        for user, invalid in ((grid, grid[:1]), (grid, grid[1: grid.index(failed_at)]),
                              ((grid[0], failed_at), grid[:1])):
            want = paranormal_by_shifts(t, user, invalid=invalid)
            _reading_invalid(monkeypatch, invalid)
            assert _paranormal_outcome(t, user) == want == (Verdict.NO, failed_at, "grid", True)
            monkeypatch.undo()


def test_shifts_past_the_symbol_all_pass(pool_bases):
    """Past 10 ||T||^2 the symbol (g - s)^2 of q(s) is far from 0: every
    shift is valid and passes, a grid "yes" that proves nothing."""
    for t in pool_bases:
        norm2 = operator_norm(t) ** 2
        grid = tuple(np.geomspace(10 * norm2, 100 * norm2, 5))
        assert (_paranormal_outcome(t, grid) == paranormal_by_shifts(t, grid)
                == (Verdict.YES, None, "grid", False))


def test_paranormal_passes_build_no_operator_per_shift(monkeypatch, pool_bases):
    """With 4 and with 32 shifts that all pass, ``check_paranormal`` builds
    the same operators (T^2 and the Gram operators) and solves one batched
    companion problem of size p' + q' per pass, ceil(log2(len(grid) + 1))
    of them."""
    workloads = load_perfbench("workloads")
    norm2 = operator_norm(pool_bases[2]) ** 2
    built, companions, of, eigvals = [], [], StructuredOperator._of.__func__, np.linalg.eigvals
    monkeypatch.setattr(StructuredOperator, "_of", classmethod(
        lambda cls, tails, window: built.append(1) or of(cls, tails, window)))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: companions.append(np.shape(a)) or eigvals(a))
    operators = []
    for n in (4, 32):
        t = workloads.generic_base(2, 8, 0)          # a fresh memo
        built.clear()
        companions.clear()
        res = check_paranormal(t, grid=np.geomspace(10 * norm2, 100 * norm2, n))
        assert res.verdict is Verdict.YES
        assert len(companions) <= math.ceil(math.log2(n + 1))
        # g = |a|^2 has offsets -4..4: half the degree 16 of (g - s)^2 + tau
        assert all(shape[-1] == 8 for shape in companions)
        operators.append(len(built))
    assert operators[0] == operators[1]


# -- truncation kernel counts --------------------------------------------------

def _index_point(sym, wound: bool):
    """A point off the curve a(T): of winding 0 (beyond the disc about a_0
    that holds the curve), or else of nonzero winding, looked for at a_0 and
    between a_0 and the curve; None when no such point turns up."""
    pts = sym.on_circle(64)
    centre = sym.coeffs.get(0, 0j)
    if not wound:
        return centre + 1.0 + 2.0 * float(np.max(np.abs(pts - centre)))
    for lam in np.concatenate([[centre], 0.5 * (centre + pts), 0.1 * centre + 0.9 * pts]):
        try:
            if winding(sym, lam):
                return complex(lam)
        except PointOnCurve:
            continue
    return None


KERNEL_GENERATORS = (suites.random_banded_symbol, suites.random_toeplitz_corner,
                     suites.random_weighted_shift, suites.random_hyponormal, None)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_GENERATORS), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((64, 256)), st.booleans())
def test_kernel_count_certificate_matches_the_exact_top(pool_bases, gen, seed, n, wound):
    """The row-sum certificate changes no count: T - lam and its adjoint
    count as with the exact top, and the bound is at least that top.
    ``None`` draws a pool base."""
    t = (gen(np.random.default_rng(seed)) if gen is not None
         else pool_bases[seed % len(pool_bases)])
    lam = _index_point(symbol(t), wound)
    assume(lam is not None)
    shifted = t - constant_diagonal(lam)
    for side in (shifted, shifted.adjoint()):
        assert kernel_count_by_truncation(side, n) == kernel_count_exact(side, n)
        band = gram(side).lower_band(n)
        top = eig_banded(band, lower=True, eigvals_only=True, select="i",
                         select_range=(n - 1, n - 1))[0]
        assert _row_sum_bound(band) >= top * (1.0 - 1e-12)


def test_index_validation_calls_eig_banded_only_on_a_side_with_kernel(monkeypatch):
    linalg, count = symbols_module.linalg, symbols_module.kernel_count_by_truncation
    calls, sides = [], []
    monkeypatch.setattr(symbols_module, "linalg", SimpleNamespace(
        cholesky_banded=linalg.cholesky_banded,
        eig_banded=lambda *a, **kw: calls.append(kw["select"]) or linalg.eig_banded(*a, **kw)))

    def counted(t, n):
        before = len(calls)
        dim = count(t, n)
        sides.append((dim, len(calls) - before))
        return dim

    monkeypatch.setattr(symbols_module, "kernel_count_by_truncation", counted)
    shift = right_shift()
    # (operator, lam, index, [(dim N, eig_banded calls) for T - lam, then its adjoint])
    for op, lam, index, want in ((shift, 2.0, 0, [(0, 0), (0, 0)]),
                                 (shift, 0.3, -1, [(0, 0), (1, 2)]),
                                 (shift.adjoint(), 0.3j, 1, [(1, 2), (0, 0)]),
                                 (shift @ shift, 0.0, -2, [(0, 0), (2, 2)])):
        sides.clear()
        assert fredholm_index(op, lam, validate=True, n=256) == index
        assert sides == want


def test_structure_decompose_computes_no_block_svd_inside_the_gate(monkeypatch):
    """On valid draws every off-template block lies inside the gate built
    from the section's largest column norm, a lower bound on its 2-norm,
    and every H0 unitarity defect inside its own: ``structure_decompose``
    takes no 2-norm at all."""
    norm, taken = np.linalg.norm, []

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and sys._getframe(1).f_globals["__name__"] == "opspectra.decompose":
            taken.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    rng = np.random.default_rng(3)
    with_h0 = 0
    for _ in range(20):
        taken.clear()
        dec = structure_decompose(suites.random_an_hyponormal(rng))
        with_h0 += bool(dec.h0_blocks)
        assert taken == []
    assert with_h0 >= 5
