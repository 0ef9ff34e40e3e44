"""Acceptance suite: each test prints one [PASS]/[FAIL] line (run with -s).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import functools
import time

import numpy as np

from opspectra import (Verdict, check_an, check_hyponormal, check_normal,
                       classify, diagonal, discrete_eigs_below,
                       ess_min_modulus, essential_spectrum, fredholm_index,
                       gram, hermitian_eig, identity, index_by_truncation,
                       paranormal_pair_normality, putnam_check, right_shift,
                       structure_decompose, svd_polar, symbol,
                       verify_decomposition)
from opspectra.decompose import normality_from_blocks
from opspectra.specfiles import BUNDLED, load_bundled
from opspectra.suites import (diagonal_oracle, random_banded_symbol,
                              random_diagonal, random_finite_rank,
                              random_hyponormal, random_normal_corner,
                              suite_diagonal_oracle)

SEED = 2026


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {name}")
                raise
            print(f"\n[PASS] {name}")
        return wrapper
    return decorate


@criterion("right shift: AN with alpha exactly 1, hyponormal, non-normal, "
           "unit-circle essential spectrum, m_e = 1, under 5 s at defaults")
def test_right_shift_golden():
    start = time.perf_counter()
    r = right_shift()
    report = classify(r)
    assert report.is_AN is Verdict.YES
    assert report.alpha == 1.0
    assert report.is_hyponormal is Verdict.YES
    assert report.is_normal is Verdict.NO

    mods = np.abs(symbol(r).on_circle(1024))
    assert float(np.max(np.abs(mods - 1.0))) < 1e-12

    curve = essential_spectrum(r)
    assert float(np.max(np.abs(np.abs(curve.points) - 1.0))) < 1e-12
    assert curve.is_circle is not None and abs(curve.is_circle - 1.0) < 1e-12

    assert ess_min_modulus(r) == 1.0
    assert time.perf_counter() - start < 5.0


@criterion("defect shift: exact Gram, discrete level (0.25 x2), "
           "classification, block form at n=64 with residuals < 1e-6")
def test_defect_shift_golden():
    t = load_bundled("defect_shift").operator

    expected_gram = identity() - diagonal((0.75, 0.75), 0.0)
    assert (gram(t) - expected_gram).is_zero(1e-12)
    assert gram(t) == diagonal((0.25, 0.25), 1.0)

    rep = discrete_eigs_below(gram(t), 1.0)
    assert rep.stabilized
    assert len(rep.eigenvalues) == 1
    value, mult = rep.eigenvalues[0]
    assert abs(float(np.real(value)) - 0.25) < 1e-12 and mult == 2

    report = classify(t)
    assert report.is_hyponormal is Verdict.YES
    assert report.is_AN is Verdict.YES
    assert report.is_normal is Verdict.NO

    dec = structure_decompose(t, n=64)
    rec = verify_decomposition(dec, t, 64, tol=1e-6)
    assert rec.ok and rec.max_residual < 1e-6
    assert dec.alpha == 1.0
    assert dec.h0_blocks == ()
    assert dec.h1_dim == 62
    assert dec.h2_blocks == ((0.5, 2),)
    assert abs(np.linalg.norm(dec.A, 2) - 0.5) < 1e-9
    gram_h2 = dec.A.conj().T @ dec.A + dec.S2.conj().T @ dec.S2
    assert np.linalg.norm(gram_h2 - 0.25 * np.eye(2), 2) < 1e-9
    blocks = normality_from_blocks(dec, operator=t)
    assert blocks.verdict is Verdict.NO and blocks.corank == 1


@criterion("head shifts: hyponormal AN non-normal; diagonal-head H2 Gram "
           "diag(1, 4) within 1e-9; nilpotent-head S2 square below 1e-9")
def test_head_shift_golden():
    for name in ("nilpotent_head_shift", "diagonal_head_shift"):
        t = load_bundled(name).operator
        report = classify(t)
        assert report.is_hyponormal is Verdict.YES, name
        assert report.is_AN is Verdict.YES, name
        assert report.is_normal is Verdict.NO, name

    t2 = load_bundled("diagonal_head_shift").operator
    dec2 = structure_decompose(t2, n=64)
    gram_h2 = dec2.A.conj().T @ dec2.A + dec2.S2.conj().T @ dec2.S2
    assert np.linalg.norm(gram_h2 - np.diag([1.0, 4.0]), 2) < 1e-9

    t1 = load_bundled("nilpotent_head_shift").operator
    dec1 = structure_decompose(t1, n=64)
    assert np.linalg.norm(dec1.S2 @ dec1.S2, 2) < 1e-9


@criterion("Putnam inequality on bundled + 50 seeded hyponormal operators; "
           "near equality for the right shift")
def test_putnam_suite():
    rec = putnam_check(right_shift(), assume_hyponormal=True)
    assert rec.holds
    assert abs(rec.commutator_norm - 1.0) <= 0.02
    assert abs(rec.area_over_pi - 1.0) <= 0.02

    for name in BUNDLED:
        op = load_bundled(name).operator
        assert check_hyponormal(op).verdict is Verdict.YES, name
        rec = putnam_check(op, assume_hyponormal=True)
        assert rec.commutator_norm <= rec.area_over_pi \
            + rec.grid_error_over_pi + 1e-6, name

    rng = np.random.default_rng(SEED)
    for i in range(50):
        op = random_hyponormal(rng)
        rec = putnam_check(op, assume_hyponormal=True)
        assert rec.commutator_norm <= rec.area_over_pi \
            + rec.grid_error_over_pi + 1e-6, f"random operator {i}"


@criterion("compact hyponormal forces normal: 200 seeded finite-rank "
           "operators, zero violations")
def test_compact_hyponormal_implies_normal():
    rng = np.random.default_rng(SEED + 1)
    hyponormal_count = 0
    for i in range(200):
        op = random_normal_corner(rng) if i % 2 == 0 else random_finite_rank(rng)
        assert not symbol(op).coeffs, "generator must produce finite rank"
        if check_hyponormal(op, tol=1e-10).verdict is Verdict.YES:
            hyponormal_count += 1
            assert check_normal(op, tol=1e-8).verdict is Verdict.YES, i
    assert hyponormal_count >= 50  # the normal half must be recognized


@criterion("diagonal oracle: 500 seeded diagonals classified identically "
           "to the exact brute-force oracle")
def test_diagonal_oracle_agreement():
    results = suite_diagonal_oracle(seed=SEED + 2, count=500)
    failures = [r for r in results if not r[1]]
    assert not failures, failures[:5]
    summary = results[-1]
    assert "500/500" in summary[2]


@criterion("Fredholm index matches truncation null-space counts (size 512) "
           "for shifts and 20 random banded symbols at 5 points each")
def test_index_cross_validation():
    r = right_shift()
    for op, lam in ((r, 0j), (r.compose(r), 0j), (r.adjoint(), 0j)):
        assert fredholm_index(op, lam) == index_by_truncation(op, lam, 512)

    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for _ in range(20):
        op = random_banded_symbol(rng)
        pts = symbol(op).on_circle(2048)
        scale = max(1.0, float(np.max(np.abs(pts))))
        found = 0
        while found < 5:
            lam = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)) * scale
            if float(np.min(np.abs(pts - lam))) < 0.25 * scale:
                continue
            found += 1
            checked += 1
            assert fredholm_index(op, lam) == index_by_truncation(op, lam, 512)
    assert checked == 100


@criterion("numerics floor: eigenvalues match characteristic-polynomial "
           "roots within 1e-10; polar reconstruction within 1e-9")
def test_numerics_floor():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        tr = np.trace(m)
        minors = sum(np.linalg.det(m[np.ix_(idx, idx)])
                     for idx in ([0, 1], [0, 2], [1, 2]))
        det = np.linalg.det(m)
        roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)
        es = hermitian_eig(m)
        assert float(np.max(np.abs(es.values - roots))) < 1e-10

    for _ in range(25):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        v, p = svd_polar(m)
        assert np.linalg.norm(v @ p - m, 2) < 1e-9 * np.linalg.norm(m, 2)


@criterion("paranormal-pair and null-space implication suites: zero "
           "contradictions over bundled and seeded operators")
def test_paranormal_pair_implications():
    rng = np.random.default_rng(SEED + 5)
    ops = [load_bundled(name).operator for name in BUNDLED]
    ops += [random_diagonal(rng, max_prefix=3) for _ in range(15)]
    ops += [random_normal_corner(rng) for _ in range(10)]
    ops += [random_hyponormal(rng) for _ in range(10)]
    nonvacuous = 0
    for i, op in enumerate(ops):
        rec = paranormal_pair_normality(op, trunc=64)
        assert rec.holds is not False, f"pair implication violated at {i}"
        assert rec.null_variant_holds is not False, \
            f"null-space implication violated at {i}"
        if rec.premises_hold:
            nonvacuous += 1
    assert nonvacuous >= 15  # diagonals and unitaries must trigger the premises


def _oracle_smoke():
    op = diagonal((0.5, 2.0), 1.0)
    data = diagonal_oracle(op)
    assert data["interior"] == [0.5] and data["annulus"] == [2.0]


def test_oracle_helper_is_sane():
    _oracle_smoke()
    res = check_an(diagonal((0.5, 2.0), 1.0))
    assert res.verdict is Verdict.YES and res.alpha == 1.0
