import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from opspectra import (DimensionMismatch, NotHyponormal,
                       NotNormAttainingClass, TemplateMismatch, Verdict, diagonal, embed_at,
                       from_dense_corner, gram, identity,
                       normality_from_blocks, right_shift,
                       spectrum_inclusion_check, structure_decompose,
                       toeplitz, verify_decomposition, weighted_shift)
from opspectra.specfiles import load_bundled
from opspectra.suites import random_an_hyponormal, random_diagonal
from reference_decompose import section_decompose, section_normality


def defect_shift():
    return load_bundled("defect_shift").operator


def test_defect_shift_block_pattern():
    t = defect_shift()
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 1.0
    assert dec.h0_blocks == ()
    assert dec.h1_dim == 62
    assert dec.h2_blocks == ((0.5, 2),)
    assert np.linalg.norm(dec.A, 2) == pytest.approx(0.5, abs=1e-12)
    # S1 is the shift in the natural tail basis, an isometry exactly
    assert dec.S1 == right_shift()
    assert gram(dec.S1) == identity()
    # the basis is the unitary of the 2 x 2 window of T*T
    assert dec.basis.shape == (2, 2)
    # S2 has the level pair {1/2, 0}
    np.testing.assert_allclose(np.sort(np.abs(np.linalg.eigvals(dec.S2))),
                               [0.0, 0.5], atol=1e-12)
    assert dec.case_label == "lambda_equals_norm"


def test_defect_shift_round_trip():
    t = defect_shift()
    dec = structure_decompose(t, n=64)
    rec = verify_decomposition(dec, t, 64)
    assert rec.ok
    assert rec.max_residual <= 1e-10
    assert rec.a_norm == pytest.approx(0.5, abs=1e-12)


def test_monotone_stability_of_residuals():
    t = defect_shift()
    res64 = verify_decomposition(structure_decompose(t, n=64), t, 64)
    res128 = verify_decomposition(structure_decompose(t, n=128), t, 128)
    # n only counts dim H1 within C^n: the blocks and residuals ignore it
    assert res128.residuals == res64.residuals
    assert res128.max_residual <= 1e-12


def test_basis_orthonormality():
    dec = structure_decompose(defect_shift(), n=64)
    m = len(gram(defect_shift()).window)
    assert dec.basis.shape == (m, m)
    assert np.linalg.norm(dec.basis.conj().T @ dec.basis - np.eye(m), 2) <= 1e-12


def test_nilpotent_head_block():
    t = load_bundled("nilpotent_head_shift").operator
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 2.0
    assert dec.h2_blocks == ((1.0, 2),)
    assert np.linalg.norm(dec.A, 2) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(dec.S2 @ dec.S2, 2) <= 1e-12
    assert verify_decomposition(dec, t, 64).ok


def test_diagonal_head_block():
    t = load_bundled("diagonal_head_shift").operator
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 3.0
    assert dec.h2_blocks == ((1.0, 1), (2.0, 1))
    gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
    np.testing.assert_allclose(gram_h2, np.diag([1.0, 4.0]), atol=1e-12)
    assert np.linalg.norm(dec.A, 2) <= 1e-12
    assert verify_decomposition(dec, t, 64).ok


def test_unitary_diagonal_trivial_blocks():
    t = load_bundled("unitary_diag").operator
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 1.0
    assert dec.h0_blocks == () and dec.h2_blocks == ()
    assert dec.h1_dim == 64
    rec = verify_decomposition(dec, t, 64)
    assert rec.ok and rec.max_residual <= 1e-12


def test_pure_shift_decomposition():
    dec = structure_decompose(right_shift(), n=64)
    assert dec.alpha == 1.0
    assert dec.h0_blocks == () and dec.h2_blocks == ()
    assert dec.S1 == right_shift()
    assert dec.basis.shape == (0, 0) and dec.h1_dim == 64


def test_upper_level_block_is_scaled_unitary():
    t = diagonal((3.0,), 1.0)
    dec = structure_decompose(t, n=64)
    assert [(b.level, b.dim) for b in dec.h0_blocks] == [(3.0, 1)]
    u = dec.h0_blocks[0].unitary
    assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0)) <= 1e-10
    assert dec.case_label == "case1"


def test_mixed_corner_plus_shift():
    t = from_dense_corner(np.array([[3.0]])) + embed_at(defect_shift(), 1)
    dec = structure_decompose(t, n=64)
    assert [(b.level, b.dim) for b in dec.h0_blocks] == [(3.0, 1)]
    assert dec.alpha == 1.0
    assert dec.h2_blocks == ((0.5, 2),)
    assert verify_decomposition(dec, t, 64).ok


def test_normality_verdicts_from_blocks():
    cases = [("defect_shift", Verdict.NO), ("unitary_diag", Verdict.YES),
             ("diagonal_head_shift", Verdict.NO), ("right_shift", Verdict.NO)]
    for name, expected in cases:
        t = load_bundled(name).operator
        dec = structure_decompose(t, n=64)
        rec = normality_from_blocks(dec, operator=t)
        assert rec.verdict is expected, name
        assert rec.cross_check is expected, name


def test_corank_counts_shift_deficiency():
    dec = structure_decompose(defect_shift(), n=64)
    rec = normality_from_blocks(dec)
    assert rec.corank == 1 and rec.isometry_defect == 0.0


def test_corrupted_a_block_is_flagged():
    t = defect_shift()
    dec = structure_decompose(t, n=64)
    bad_a = dec.A.copy()
    bad_a[0, 0] += 0.1
    bad = dataclasses.replace(dec, A=bad_a)
    rec = verify_decomposition(bad, t, 64)
    assert not rec.ok
    assert rec.residuals["h2_gram"] == pytest.approx(0.1, rel=0.5)


def test_verify_ok_between_the_column_bound_and_the_section_norm(monkeypatch):
    """A spread rank-one term added to the section lifts its 2-norm well
    above its largest column norm; at tolerances whose worst residual lies
    between the two scales, and on either side of them, ``ok`` is the rule
    max residual <= tol * max(1, ||b||_2)."""
    import opspectra.decompose as decompose
    t = defect_shift()
    dec = structure_decompose(t, n=64)
    section, seen = decompose._section, []

    def spread(*args):
        b, d1 = section(*args)
        seen.append(b + 4.0 / len(b))
        return seen[-1], d1

    monkeypatch.setattr(decompose, "_section", spread)
    worst = verify_decomposition(dec, t, 64).max_residual
    b = seen[-1]
    low = worst / max(1.0, float(np.linalg.norm(b, 2)))
    high = worst / max(1.0, float(np.max(np.linalg.norm(b, axis=0))))
    assert 2.0 * low < high
    for tol in (0.99 * low, 1.01 * low, np.sqrt(low * high), 0.99 * high, 1.01 * high):
        rec = verify_decomposition(dec, t, 64, tol=tol)
        assert rec.ok == all(v <= tol * max(1.0, float(np.linalg.norm(b, 2)))
                             for v in rec.residuals.values()), tol
        assert rec.ok == (tol > low), tol


def test_requires_hyponormal():
    with pytest.raises(NotHyponormal):
        structure_decompose(right_shift().adjoint(), n=64)


def test_requires_norm_attaining_class():
    with pytest.raises(NotNormAttainingClass):
        structure_decompose(toeplitz({1: 1.0, -1: 1.0}), n=64)


def test_truncation_too_small():
    # the section must cover the 2 x 2 window of T*T
    with pytest.raises(DimensionMismatch):
        structure_decompose(defect_shift(), n=1)
    assert structure_decompose(defect_shift(), n=2).h1_dim == 0


def test_spectrum_inclusion():
    for name, checked in (("defect_shift", 2), ("unitary_diag", 0),
                          ("nilpotent_head_shift", 2)):
        t = load_bundled(name).operator
        dec = structure_decompose(t, n=64)
        rec = spectrum_inclusion_check(t, dec)
        assert rec.all_inside, (name, rec.violators)
        assert rec.checked == checked == dec.h0_dim + dec.h2_dim
    # an S2 eigenvalue outside the alpha-disc is reported
    t = defect_shift()
    bad = dataclasses.replace(structure_decompose(t), S2=np.diag([2.0, 0.0]))
    assert spectrum_inclusion_check(t, bad).violators == (2.0,)


def test_compact_operator_decomposition():
    # finite rank: essential level zero, no H2, upper levels unitary blocks
    t = from_dense_corner(np.diag([2.0, 1.0]))
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 0.0
    assert [(b.level, b.dim) for b in dec.h0_blocks] == [(2.0, 1), (1.0, 1)]
    assert dec.h2_blocks == ()
    assert normality_from_blocks(dec, operator=t).verdict is Verdict.YES


def test_degenerate_upper_cluster_with_phases():
    # two corner eigenvalues of equal modulus above the essential level form
    # one block whose normalized matrix is unitary but not diagonal-real
    theta = 0.83
    corner = np.diag([2 * np.exp(1j * theta), 2 * np.exp(-1j * theta), 0.5])
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    t = from_dense_corner(q @ corner @ q.conj().T) + embed_at(right_shift(), 3)
    dec = structure_decompose(t, n=64)
    assert dec.alpha == 1.0
    assert [b.dim for b in dec.h0_blocks] == [2]
    assert dec.h0_blocks[0].level == pytest.approx(2.0, abs=1e-9)
    assert len(dec.h2_blocks) == 1
    assert dec.h2_blocks[0][0] == pytest.approx(0.5, abs=1e-9)
    assert dec.h2_blocks[0][1] == 1
    u = dec.h0_blocks[0].unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) <= 1e-9
    rec = verify_decomposition(dec, t, 64)
    assert rec.ok, rec.residuals


def test_upper_clusters_are_ordered_descending():
    t = diagonal((3.0, 1.5, 2.0), 1.0)
    dec = structure_decompose(t, n=64)
    assert [b.level for b in dec.h0_blocks] == [3.0, 2.0, 1.5]


def test_decomposition_round_trip_on_random_an_family():
    from opspectra.suites import random_an_hyponormal, random_diagonal
    rng = np.random.default_rng(11)
    for i in range(25):
        t = random_an_hyponormal(rng)
        dec = structure_decompose(t, n=96, tol=1e-8)
        rec = verify_decomposition(dec, t, 96, tol=1e-6)
        assert rec.ok, (i, rec.residuals)
        total = dec.h0_dim + dec.h1_dim + dec.h2_dim
        assert total == 96, i
        for blk in dec.h0_blocks:
            assert blk.level > dec.alpha
        for level, _ in dec.h2_blocks:
            assert level < dec.alpha


def test_large_corner_shift_decomposes():
    # a 200-weight head gives T*T a 200 x 200 window; nothing is sized past
    # the L-section
    t = weighted_shift(tuple(np.linspace(0.1, 0.9, 200)), 1.0)
    dec = structure_decompose(t)
    assert dec.h1_dim is None and dec.basis.shape == (200, 200)
    assert verify_decomposition(dec, t).ok
    rec = normality_from_blocks(dec)
    assert rec.verdict is Verdict.NO and rec.corank == 1


def test_blocks_use_only_the_corner_and_the_l_section(monkeypatch):
    import opspectra.core as core
    import opspectra.decompose as decompose
    sizes, eig_shapes = [], []
    truncate, eig = core.StructuredOperator.truncate, decompose.hermitian_eig
    monkeypatch.setattr(core.StructuredOperator, "truncate",
                        lambda self, n: sizes.append(n) or truncate(self, n))
    monkeypatch.setattr(decompose, "hermitian_eig",
                        lambda m, **kw: eig_shapes.append(m.shape) or eig(m, **kw))
    for name in ("right_shift", "defect_shift", "diagonal_head_shift",
                 "unitary_diag"):
        t = load_bundled(name).operator
        m = len(gram(t).window)
        size = max(m, len(t.window)) + 2 * t.bandwidth + 1
        sizes.clear()
        eig_shapes.clear()
        dec = structure_decompose(t, n=64)
        verify_decomposition(dec, t, 64)
        normality_from_blocks(dec)
        spectrum_inclusion_check(t, dec)
        assert sizes and max(sizes) <= size, (name, sizes)
        assert eig_shapes == ([(m, m)] if m else []), name


def _section_size(t):
    p = gram(t)
    corner = max(p.corner_size, t.corner_size) + max(p.bandwidth, t.bandwidth) + 1
    return max(64, 2 * corner + 8)


def _same_points(a, b, tol):
    return len(a) == len(b) and all(
        np.min(np.abs(np.asarray(b) - z)) <= tol for z in a)


def test_exact_blocks_match_section_oracle():
    theta = 0.83
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    phases = np.diag([2 * np.exp(1j * theta), 2 * np.exp(-1j * theta), 0.5])
    cases = [load_bundled(name).operator for name in
             ("right_shift", "defect_shift", "nilpotent_head_shift",
              "diagonal_head_shift", "unitary_diag")]
    cases += [from_dense_corner(np.diag([2.0, 1.0])),
              from_dense_corner(q @ phases @ q.conj().T) + embed_at(right_shift(), 3),
              diagonal((3.0, 1.5, 2.0), 1.0),
              from_dense_corner(np.array([[3.0]])) + embed_at(defect_shift(), 1),
              # corner null vectors at the head of H1 (r = 1)
              diagonal((np.exp(1j), 0.5), 1.0),
              from_dense_corner(q @ np.diag([np.exp(0.4j), 2.0, 0.3]) @ q.conj().T)
              + embed_at(weighted_shift((0.5,), 1.0), 3)]
    rng = np.random.default_rng(20240)
    cases += [random_an_hyponormal(rng) for _ in range(200)]
    # normal diagonals, often with corner null vectors (|d_i| = |tail|)
    cases += [random_diagonal(rng) for _ in range(40)]
    for i, t in enumerate(cases):
        dec = structure_decompose(t)
        sec = section_decompose(t, n=_section_size(t))
        assert dec.alpha == sec.alpha, i
        for got, want in (([(b.level, b.dim) for b in dec.h0_blocks],
                           [(lv, len(u)) for lv, u in sec.h0_blocks]),
                          (dec.h2_blocks, sec.h2_blocks)):
            assert [d for _, d in got] == [d for _, d in want], i
            np.testing.assert_allclose([lv for lv, _ in got],
                                       [lv for lv, _ in want], atol=1e-9)
        a_norm = np.linalg.norm(dec.A, 2) if dec.A.size else 0.0
        a_ref = np.linalg.norm(sec.A, 2) if sec.A.size else 0.0
        assert abs(a_norm - a_ref) <= 1e-9, i
        gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
        gram_ref = sec.A.conj().T @ sec.A + sec.S2.conj().T @ sec.S2
        np.testing.assert_allclose(gram_h2, gram_ref, atol=1e-9)
        assert _same_points(np.linalg.eigvals(dec.S2), np.linalg.eigvals(sec.S2),
                            1e-6), i
        rec = normality_from_blocks(dec)
        unitary, corank = section_normality(sec)
        assert (rec.verdict is Verdict.YES) == unitary, i
        assert rec.corank == corank, i
        assert rec.isometry_defect <= 1e-12 and verify_decomposition(dec, t).ok, i


def _patched_eigenvectors(monkeypatch, change):
    """Feed ``structure_decompose`` the window's eigensystem after ``change``;
    returns the list that collects the sections E* T E it builds."""
    import opspectra.decompose as decompose
    eig, section, sections = decompose.hermitian_eig, decompose._section, []
    monkeypatch.setattr(decompose, "hermitian_eig",
                        lambda m, **kw: change(eig(m, **kw)))

    def collect(*args):
        sections.append(section(*args))
        return sections[-1]

    monkeypatch.setattr(decompose, "_section", collect)
    return sections


def _template_offenders(b, sizes, h1_pos, tol=1e-8):
    """The 2-norm of every off-template block of the section b above the
    gate, each block's SVD taken: the check before its Frobenius bounds."""
    gate = max(tol, 1e-8) * max(1.0, float(np.linalg.norm(b, 2)))
    starts = np.cumsum([0] + sizes)
    offenders = {}
    for i in range(len(sizes)):
        for j in range(len(sizes)):
            if i == j or (i >= h1_pos and j > h1_pos):
                continue
            norm = float(np.linalg.norm(
                b[starts[i]:starts[i + 1], starts[j]:starts[j + 1]], 2))
            if norm > gate:
                offenders[(i, j)] = norm
    return offenders


def test_decompose_refuses_blocks_off_the_template(monkeypatch):
    # rotating the eigenvectors of levels 2 and 0.5 couples H0 to H2
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    sections = _patched_eigenvectors(monkeypatch, lambda es: dataclasses.replace(
        es, vectors=es.vectors @ rotation))
    with pytest.raises(TemplateMismatch) as err:
        structure_decompose(diagonal((2.0, 0.5), 1.0))
    assert set(err.value.block_norms) == {(0, 2), (2, 0)}
    (b, d1), = sections
    assert err.value.block_norms == _template_offenders(b, [1, d1, 1], 1)


@pytest.mark.parametrize("seed", range(5))
def test_template_offenders_are_the_blocks_above_the_gate(monkeypatch, seed):
    """A near-identity rotation of the window's eigenvectors, its couplings
    10^-11 to 10^-5 (10^-13 to 10^-12 for seed 4), moves some off-template
    blocks above the gate and leaves others inside it: exactly the former
    are reported, each with its 2-norm."""
    t = diagonal((3.0, 3.0j, 2.0, 0.5, 0.5j, 0.25), 1.0)
    clean = structure_decompose(t)
    rng = np.random.default_rng(seed)
    low, high = (-13, -12) if seed == 4 else (-11, -5)
    a = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(low, high, size=(6, 6))
    rotation = expm(a - a.T)
    sections = _patched_eigenvectors(monkeypatch, lambda es: dataclasses.replace(
        es, vectors=es.vectors @ rotation))
    reported = {}
    try:
        structure_decompose(t)
    except TemplateMismatch as err:
        reported = err.block_norms
    (b, d1), = sections
    sizes = ([blk.dim for blk in clean.h0_blocks] + [d1]
             + [dim for _, dim in clean.h2_blocks])
    assert reported == _template_offenders(b, sizes, len(clean.h0_blocks))
    assert bool(reported) == (seed != 4)


def test_decompose_refuses_an_h0_block_that_is_not_a_scaled_unitary(monkeypatch):
    # doubled eigenvalues put the upper level at sqrt(7) instead of 2
    sections = _patched_eigenvectors(monkeypatch, lambda es: dataclasses.replace(
        es, values=2.0 * es.values))
    with pytest.raises(TemplateMismatch) as err:
        structure_decompose(diagonal((2.0, 0.5), 1.0))
    assert set(err.value.block_norms) == {("h0", 0)}
    u = sections[0][0][:1, :1] / np.sqrt(7.0)
    np.testing.assert_allclose(err.value.block_norms[("h0", 0)],
                               np.linalg.norm(u.conj().T @ u - 1.0, 2), rtol=1e-14)
