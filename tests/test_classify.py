import dataclasses
import importlib

import numpy as np
import pytest

from opspectra import (LaurentSymbol, NotHyponormal, Verdict, check_am_normal, check_an,
                       check_an_normal_equivalence, check_an_positive,
                       check_an_selfadjoint, check_hyponormal, check_normal,
                       check_paranormal, check_selfadjoint, classify,
                       constant_diagonal, diagonal, from_dense_corner, gram,
                       identity, paranormal_pair_normality, putnam_check,
                       right_shift, spectral_area, spectral_summary, toeplitz,
                       weyl_normality_criterion, zero)
from opspectra import numerics
from opspectra.classify import ANResult, CheckResult, default_paranormal_grid
from opspectra.core import StructuredOperator
from opspectra.specfiles import BUNDLED, load_bundled
from opspectra.symbols import CIRCLE_RTOL
from opspectra.suites import (random_an_hyponormal, random_constant_modulus,
                              random_diagonal, random_finite_rank,
                              random_hyponormal, random_normal_corner,
                              random_weighted_shift)

SELF_ADJOINT_BAND = toeplitz({1: 1.0, -1: 1.0})


def defect_shift():
    return load_bundled("defect_shift").operator


# -- normal / hyponormal / paranormal -----------------------------------------

def test_check_normal():
    assert check_normal(diagonal((2.0, 1j), 0.5)).verdict is Verdict.YES
    res = check_normal(right_shift())
    assert res.verdict is Verdict.NO
    assert res.witness["commutator_magnitude"] == pytest.approx(1.0)
    assert check_normal(from_dense_corner(np.diag([1.0, 2.0]))).verdict is Verdict.YES


def test_check_hyponormal():
    assert check_hyponormal(right_shift()).verdict is Verdict.YES
    assert check_hyponormal(defect_shift()).verdict is Verdict.YES
    assert check_hyponormal(right_shift().adjoint()).verdict is Verdict.NO


def test_check_paranormal_isometry():
    assert check_paranormal(right_shift()).verdict is Verdict.YES


def test_check_paranormal_consistent_with_hyponormal():
    for op in (defect_shift(), load_bundled("nilpotent_head_shift").operator):
        assert check_paranormal(op).verdict is Verdict.YES


def test_check_paranormal_rejects_nilpotent():
    nil = from_dense_corner(np.array([[0.0, 0.0], [1.0, 0.0]]))
    res = check_paranormal(nil)
    assert res.verdict is Verdict.NO
    assert res.witness["failed_at"] is not None
    assert res.witness["grid"], "tested shifts must be recorded"


def test_check_paranormal_zero_operator():
    res = check_paranormal(zero())
    assert res.verdict is Verdict.YES
    assert res.witness == {"grid": (), "failed_at": None, "method": "pencil",
                           "proved": True}


def test_check_paranormal_rejects_nonpositive_grid():
    with pytest.raises(ValueError):
        check_paranormal(right_shift(), grid=(1.0, -0.5))


def test_check_paranormal_rejects_empty_grid():
    with pytest.raises(ValueError):
        check_paranormal(right_shift(), grid=[])


def test_check_paranormal_accepts_array_grid():
    res = check_paranormal(right_shift(), grid=np.array([0.5, 1.0]))
    assert res.verdict is Verdict.YES
    assert res.witness["grid"] == (0.5, 1.0)
    assert res.witness["method"] == "grid"


def _constant_plus_corner(seed):
    """The first draw of the constant-|a| generator at k = 0: T = cI + K,
    c complex N(0, 1), K an n x n complex Gaussian head (n from 2 to 8)
    scaled by 10^U(-3, 0), strictly upper triangular half of the time."""
    rng = np.random.default_rng(seed)
    c = complex(rng.normal(), rng.normal())
    n = int(rng.integers(2, 9))
    head = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
        * 10 ** rng.uniform(-3, 0)
    if rng.random() < 0.5:
        head = np.triu(head, 1)
    return constant_diagonal(c) + from_dense_corner(head), n


def _paranormal_witness(t, n):
    """A unit x with ||Tx||^2 > ||T^2 x||, or None.  T*T and T*^2 T^2 are
    |c|^2 I and |c|^4 I past the n x n window, so q(s) = T*^2 T^2 - 2s T*T
    + s^2 is Q(s) = s^2 - 2s B + A on the window (A, B its leading blocks)
    plus (|c|^2 - s)^2 >= 0.  The lowest eigenvalue of Q(s) changes sign
    only where det Q(s) = 0, at real eigenvalues of the linearization
    [[0, I], [-A, 2B]], so it is negative at the midpoint of two
    consecutive ones wherever it is negative at all.  Its eigenvector x
    there has x*Ax - 2s x*Bx + s^2 < 0, and by AM-GM
    2s ||T^2 x|| <= ||T^2 x||^2 + s^2 < 2s ||Tx||^2."""
    a, b = gram(t.compose(t)).truncate(n), gram(t).truncate(n)
    pencil = np.block([[np.zeros((n, n)), np.eye(n)], [-a, 2 * b]])
    ev = np.linalg.eigvals(pencil)
    real = np.sort(ev.real[(np.abs(ev.imag) <= 1e-8 * np.abs(ev).max()) & (ev.real > 0)])
    lowest = min((np.linalg.eigh(s * s * np.eye(n) - 2 * s * b + a)
                  for s in (real[1:] + real[:-1]) / 2),
                 key=lambda wv: wv[0][0], default=None)
    if lowest is None or lowest[0][0] >= 0:
        return None
    return lowest[1][:, 0]


def test_constant_plus_corner_has_a_vector_witness_against_paranormality():
    t, n = _constant_plus_corner(101)
    x = _paranormal_witness(t, n)
    section = t.truncate(n + 1)
    tx = section @ np.append(x, 0)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(tx) ** 2 - np.linalg.norm(section @ tx) > 1e-4


def test_check_paranormal_says_no_on_constant_plus_corner():
    t, _ = _constant_plus_corner(101)
    assert check_paranormal(t).verdict is Verdict.NO


def _lowest_section_eigenvalue(t, s, n):
    """Lowest eigenvalue of the n-section of q(s) = T*^2 T^2 - 2s T*T + s^2,
    a compression: a negative value proves q(s) is not positive."""
    q = gram(t.compose(t)) - gram(t).scaled(2.0 * s) + constant_diagonal(s * s)
    return np.linalg.eigvalsh(q.truncate(n))[0]


def test_pair_theorem_refuses_a_false_counterexample():
    """The second draw of ``random_constant_modulus`` at seed 100, T = cI + K
    with a 3 x 3 head, was read paranormal with its adjoint by the 32-shift
    grid, so the pair theorem seemed to fail (holds=False).  The pencil
    shifts find both not paranormal, and a section confirms each."""
    rng = np.random.default_rng(100)
    random_constant_modulus(rng)
    t = random_constant_modulus(rng)
    assert len(t.tails) == 1 and t.window.shape == (3, 3)
    for op, failed_at in ((t, 1.7856250268595), (t.adjoint(), 1.7841427232549)):
        res = check_paranormal(op)
        assert res.verdict is Verdict.NO and res.witness["method"] == "pencil"
        assert res.witness["failed_at"] == pytest.approx(failed_at, rel=1e-9)
        assert _lowest_section_eigenvalue(op, res.witness["failed_at"], 8) < -1e-5
    rec = paranormal_pair_normality(t)
    assert (rec.paranormal, rec.adjoint_paranormal, rec.an) == (
        Verdict.NO, Verdict.NO, Verdict.YES)
    assert rec.holds is None and rec.null_spaces_equal


def test_pencil_refutes_whatever_the_grid_refutes_on_constant_modulus_draws():
    """450 draws of ``random_constant_modulus`` (seeds 100-102): where the
    default grid, passed explicitly, says "no" for T or T*, so does the
    pencil, and no draw contradicts the pair theorem."""
    refuted = 0
    for seed in (100, 101, 102):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            t = random_constant_modulus(rng)
            rec = paranormal_pair_normality(t)
            assert rec.holds is not False and rec.null_variant_holds is not False
            for op, pencil in ((t, rec.paranormal),
                               (t.adjoint(), rec.adjoint_paranormal)):
                grid = check_paranormal(op, grid=default_paranormal_grid(op))
                if grid.verdict is Verdict.NO:
                    refuted += 1
                    assert pencil is Verdict.NO
    assert refuted > 100


@pytest.mark.parametrize("generate", [random_an_hyponormal, random_weighted_shift,
                                      random_normal_corner, random_diagonal,
                                      random_finite_rank])
def test_pencil_says_yes_on_hyponormal_single_term_draws(generate):
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = generate(rng)
        for op in (t, t.adjoint()):
            if (np.count_nonzero(op.tails) <= 1
                    and check_hyponormal(op).verdict is Verdict.YES):
                res = check_paranormal(op)
                assert res.verdict is Verdict.YES, res.witness
                assert res.witness["method"] == "pencil"


def test_single_term_symbols_use_no_grid_and_no_section(monkeypatch):
    """Neither the default grid nor a square section is built for a
    single-term symbol; the two-term ``selfadjoint_band`` keeps the grid."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    rng = np.random.default_rng(3)
    ops = [load_bundled(name).operator for name in BUNDLED]
    ops += [random_constant_modulus(rng) for _ in range(20)]
    single = [t for t in ops if np.count_nonzero(t.tails) <= 1]
    assert len(single) == 25      # all but selfadjoint_band
    monkeypatch.setattr(StructuredOperator, "truncate", refuse)
    band = load_bundled("selfadjoint_band").operator
    assert check_paranormal(band).witness["method"] == "grid"
    paranormal_pair_normality(band)
    monkeypatch.setattr(importlib.import_module("opspectra.classify"),
                        "default_paranormal_grid", refuse)
    for t in single:
        for op in (t, t.adjoint()):
            assert check_paranormal(op).witness["method"] == "pencil"
        paranormal_pair_normality(t)


def test_check_selfadjoint():
    assert check_selfadjoint(SELF_ADJOINT_BAND).verdict is Verdict.YES
    assert check_selfadjoint(right_shift()).verdict is Verdict.NO


# -- absolutely norm attaining --------------------------------------------------

def test_check_an_positive_examples():
    res = check_an_positive(gram(defect_shift()))
    assert res.verdict is Verdict.YES and res.alpha == 1.0
    res = check_an_positive(diagonal((0.0,), 1.0))
    assert res.verdict is Verdict.YES and res.alpha == 1.0
    spread = toeplitz({0: 2.0, 1: 1.0, -1: 1.0})  # symbol 2 + 2cos, not constant
    res = check_an_positive(spread)
    assert res.verdict is Verdict.NO and res.alpha is None


@pytest.mark.parametrize("p, deviation, level", [
    (toeplitz({0: 2.0, 1: 1.0, -1: 1.0}), 2.0, 2.0),
    (toeplitz({-2: 0.5j, 0: 0.1, 2: -0.5j}) + diagonal((3.0,), 0.0), 1.0, 0.1),
    (gram(toeplitz({0: 1.0, 1: 3.0})), 6.0, 10.0)])
def test_check_an_positive_no_states_the_exact_coefficient_sum(p, deviation, level,
                                                               monkeypatch):
    """The "no" witness is the sum of |c_k| over k != 0 of the symbol and
    the bound CIRCLE_RTOL * max(|c_0|, 1) it exceeds, read off the
    coefficients: no curve sample is drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("the AN check sampled the curve")
    monkeypatch.setattr(LaurentSymbol, "on_circle", refuse)
    res = check_an_positive(p)
    assert res.verdict is Verdict.NO and res.alpha is None
    assert res.witness == {"symbol_deviation": deviation,
                           "bound": CIRCLE_RTOL * max(level, 1.0)}


def test_check_an_examples():
    res = check_an(right_shift())
    assert res.verdict is Verdict.YES and res.alpha == 1.0
    res = check_an(defect_shift())
    assert res.verdict is Verdict.YES and res.alpha == 1.0
    assert check_an(SELF_ADJOINT_BAND).verdict is Verdict.NO


def test_isometries_are_norm_attaining():
    r = right_shift()
    for op in (r, r.compose(r), diagonal((1j,), 1.0)):
        assert gram(op) == identity()
        res = check_an(op)
        assert res.verdict is Verdict.YES and res.alpha == 1.0


def test_equivalence_on_diagonal():
    op = diagonal((0.5j, -0.5), 1.0)
    rec = check_an_normal_equivalence(op)
    assert rec.applicable and rec.agree
    assert rec.an is Verdict.YES
    assert rec.alpha == pytest.approx(1.0, abs=1e-12)
    points = sorted((complex(v) for v, _ in rec.interior_points),
                    key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(points, [-0.5, 0.5j], atol=1e-9)


def test_equivalence_circles_count_points_of_equal_modulus():
    # 0.5 and -0.5 are one level of T*T, of multiplicity 2
    rec = check_an_normal_equivalence(diagonal((0.5, -0.5, 0.3j), 1.0))
    assert (rec.an, rec.spectral, rec.circles) == (Verdict.YES,) * 3
    assert rec.agree


def test_equivalence_radii_count_multiplicity():
    # one eigenvalue 0.5 of multiplicity 2 and two eigenvalues of modulus 0.5
    # are two points on the same circle
    for points in ((0.5, 0.5), (0.5, -0.5)):
        rec = check_an_normal_equivalence(diagonal(points, 1.0))
        assert len(rec.radii) == 1, points
        radius, count = rec.radii[0]
        assert radius == pytest.approx(0.5, abs=1e-9) and count == 2, points


def test_equivalence_circles_see_a_missing_interior_point(monkeypatch):
    clusters = classify_module._region_clusters
    monkeypatch.setattr(classify_module, "_region_clusters",
                        lambda *a: (clusters(*a)[0][1:], True))
    rec = check_an_normal_equivalence(diagonal((0.5, -0.5, 0.3j), 1.0))
    assert (rec.an, rec.spectral, rec.circles) == (Verdict.YES, Verdict.YES,
                                                   Verdict.NO)
    assert not rec.agree


def test_equivalence_on_identity():
    rec = check_an_normal_equivalence(identity())
    assert rec.applicable and rec.agree and rec.interior_points == ()
    assert rec.alpha == pytest.approx(1.0, abs=1e-12)


def test_equivalence_refuses_non_normal():
    rec = check_an_normal_equivalence(right_shift())
    assert not rec.applicable
    # the shift is AN even though the disc condition fails for it; the
    # equivalence is only claimed for normal operators
    assert check_an(right_shift()).verdict is Verdict.YES


def test_selfadjoint_an_examples():
    rec = check_an_selfadjoint(diagonal((0.0,), 1.0))
    assert rec.applicable and rec.verdict is Verdict.YES
    assert rec.alpha == pytest.approx(1.0, abs=1e-12)
    assert [(v, m) for v, m in rec.interior_points] == [(0.0, 1)]

    rec = check_an_selfadjoint(SELF_ADJOINT_BAND)
    assert rec.applicable and rec.verdict is Verdict.NO

    rec = check_an_selfadjoint(diagonal((-1.0,), 1.0))
    assert rec.verdict is Verdict.YES
    assert rec.interior_points == ()          # |-1| sits on the boundary
    assert any(abs(v + 1.0) <= 1e-8 for v in rec.boundary_points)


def test_am_normal_examples():
    rec = check_am_normal(identity())
    assert rec.applicable and rec.verdict is Verdict.YES
    assert rec.beta == pytest.approx(1.0, abs=1e-12)
    assert rec.annulus_points == ()

    rec = check_am_normal(diagonal((2.0,), 1.0))
    assert rec.verdict is Verdict.YES
    assert [(complex(v), m) for v, m in rec.annulus_points] == [(2.0 + 0j, 1)]

    assert check_am_normal(SELF_ADJOINT_BAND).verdict is Verdict.NO


# -- Putnam inequality -----------------------------------------------------------

def test_putnam_near_equality_for_shift():
    rec = putnam_check(right_shift(), resolution=256, assume_hyponormal=True)
    assert rec.holds
    assert rec.commutator_norm == pytest.approx(1.0, abs=1e-12)
    assert rec.area_over_pi == pytest.approx(1.0, abs=0.05)


def test_putnam_trivial_for_normal():
    rec = putnam_check(diagonal((0.5,), 1.0), resolution=128,
                       assume_hyponormal=True)
    assert rec.holds and rec.commutator_norm <= 1e-14


def test_putnam_scaled_shift_block():
    rec = putnam_check(load_bundled("nilpotent_head_shift").operator,
                       resolution=256, assume_hyponormal=True)
    assert rec.holds
    assert rec.commutator_norm <= 4.0 + 1e-9


def test_putnam_is_exact_for_the_shift():
    rec = putnam_check(right_shift())
    assert rec.area_over_pi == pytest.approx(1.0, abs=1e-15)
    assert rec.grid_error_over_pi == 0


MONOMIAL_SPECS = ("right_shift", "defect_shift", "nilpotent_head_shift",
                  "diagonal_head_shift")


def test_monomial_symbols_build_no_raster(monkeypatch, pool_bases):
    """c z^k has exact regions: with the raster disabled, every caller of
    the area and the windings still answers.  A symbol of bandwidth 2
    (pool base (2, 8, 0)) builds one raster, for the area alone: its
    isolated eigenvalues are counted on the curve."""
    symbols_module = importlib.import_module("opspectra.symbols")
    raster, built = symbols_module.winding_regions, []

    def no_raster(*args, **kwargs):
        raise AssertionError("a monomial symbol must not be rasterized")

    def counted(*args, **kwargs):
        built.append(args)
        return raster(*args, **kwargs)

    monkeypatch.setattr(symbols_module, "winding_regions", no_raster)
    ops = [load_bundled(name).operator for name in MONOMIAL_SPECS]
    for op in ops + [toeplitz({-2: 0.5j})]:
        spectral_summary(op)
        spectral_area(op)
        putnam_check(op, assume_hyponormal=True)
        weyl_normality_criterion(op)

    monkeypatch.setattr(symbols_module, "winding_regions", counted)
    spectral_summary(pool_bases[2])
    assert len(built) == 1


def test_bandwidth_one_symbols_build_no_raster_and_run_no_contour(monkeypatch):
    """For a = a_-1 / z + a_0 + a_1 z beside a corner, the area, the
    windings and the isolated eigenvalues are exact: no raster is built, no
    contour engine runs, and no Wiener-Hopf block of a - lam is formed (the
    Haynsworth counts on T*T, of another symbol, still run).  The
    hyponormal and AN verdicts are taken as yes, so that
    ``weyl_normality_criterion`` reaches its regions."""
    classify_module = importlib.import_module("opspectra.classify")
    symbols_module = importlib.import_module("opspectra.symbols")
    t = toeplitz({-1: 0.4 - 0.2j, 0: 0.3, 1: 1.0j}) + from_dense_corner(
        np.random.default_rng(2).normal(size=(5, 5)))
    block = numerics._wiener_hopf_block

    def refused(*args, **kwargs):
        raise AssertionError("a bandwidth-1 symbol must take its exact path")

    def other_symbols_only(tails, lam):
        if np.array_equal(tails, t.tails):
            refused()
        return block(tails, lam)

    monkeypatch.setattr(symbols_module, "winding_regions", refused)
    monkeypatch.setattr(classify_module, "schur_eigenvalues", refused)
    monkeypatch.setattr(numerics, "_wiener_hopf_block", other_symbols_only)
    summary = spectral_summary(t)
    assert summary.eigenvalues_stabilized and summary.eigenvalues
    assert summary.area_error == 0.0 and [c.winding for c in summary.weyl_extra] == [1]
    assert spectral_area(t).error == 0.0
    yes = CheckResult(Verdict.YES)
    monkeypatch.setattr(classify_module, "check_hyponormal", lambda op: yes)
    monkeypatch.setattr(classify_module, "check_an", lambda op: ANResult(Verdict.YES, 1.0))
    record = weyl_normality_criterion(t)
    assert record.premises_ok and record.component_windings == (1,)


def test_putnam_requires_hyponormal():
    with pytest.raises(NotHyponormal):
        putnam_check(right_shift().adjoint())


# -- Weyl criterion ----------------------------------------------------------------

def test_weyl_criterion_normal_diagonal():
    rec = weyl_normality_criterion(diagonal((0.5,), 1.0))
    assert rec.premises_ok and rec.weyl_equals_essential and rec.holds


def test_weyl_criterion_inapplicable_for_shift():
    rec = weyl_normality_criterion(right_shift())
    assert rec.premises_ok
    assert rec.weyl_equals_essential is False
    assert rec.holds is None
    assert 1 in rec.component_windings


def test_weyl_criterion_inapplicable_for_defect_shift():
    rec = weyl_normality_criterion(defect_shift())
    assert rec.premises_ok and rec.weyl_equals_essential is False


# -- paranormal pair implication -----------------------------------------------------

def test_paranormal_pair_on_normal_diagonal():
    rec = paranormal_pair_normality(diagonal((0.5,), 1.0), trunc=64)
    assert rec.premises_hold and rec.holds
    assert rec.null_spaces_equal and rec.null_variant_holds


def test_paranormal_pair_vacuous_for_shift():
    rec = paranormal_pair_normality(right_shift(), trunc=64)
    assert rec.adjoint_paranormal is Verdict.NO
    assert not rec.premises_hold and rec.holds is None
    assert not rec.null_spaces_equal


def test_paranormal_pair_unitary_diagonal():
    rec = paranormal_pair_normality(load_bundled("unitary_diag").operator,
                                    trunc=64)
    assert rec.premises_hold and rec.holds


# -- implication chain over generated operators ---------------------------------------

def test_verdict_chain_never_reversed():
    rng = np.random.default_rng(23)
    ops = [right_shift(), right_shift().adjoint(), defect_shift(),
           SELF_ADJOINT_BAND, zero(), identity()]
    ops += [random_hyponormal(rng) for _ in range(5)]
    ops += [random_finite_rank(rng) for _ in range(5)]
    rank = {Verdict.NO: 0, Verdict.UNDETERMINED: 1, Verdict.YES: 2}
    for op in ops:
        nr = check_normal(op).verdict
        hy = check_hyponormal(op).verdict
        pa = check_paranormal(op).verdict
        assert not (rank[nr] == 2 and rank[hy] == 0)
        assert not (rank[hy] == 2 and rank[pa] == 0)


def test_compact_hyponormal_implies_normal_small_sample():
    rng = np.random.default_rng(7)
    for _ in range(20):
        op = random_normal_corner(rng)
        if check_hyponormal(op, tol=1e-10).verdict is Verdict.YES:
            assert check_normal(op, tol=1e-8).verdict is Verdict.YES


def test_classify_report_consistency():
    report = classify(right_shift())
    assert report.is_normal is Verdict.NO
    assert report.is_hyponormal is Verdict.YES
    assert report.is_paranormal is Verdict.YES
    assert report.is_AN is Verdict.YES
    assert report.alpha == 1.0
    assert report.is_AM_normal is Verdict.NO  # not in the *normal* AM class
    assert not report.any_undetermined
    assert dict(report.witnesses)["hyponormal"] is not None
    assert report.tolerances["hyponormal"] == 1e-10


def test_the_report_records_the_tolerance_of_every_verdict(monkeypatch):
    """One key per verdict field, and the self-adjoint and AM checks record
    the tolerances they are run at."""
    used = {}
    for name, key in (("check_selfadjoint", "self_adjoint"),
                      ("check_am_normal", "am_normal")):
        def recorded(t, tol, check=getattr(classify_module, name), key=key):
            used[key] = tol
            return check(t, tol)
        monkeypatch.setattr(classify_module, name, recorded)
    report = classify(defect_shift(), tol_an=1e-7)
    verdicts = {f.name[len("is_"):].lower() for f in dataclasses.fields(report)
                if f.name.startswith("is_")}
    assert set(report.tolerances) == verdicts
    assert used == {"self_adjoint": report.tolerances["self_adjoint"],
                    "am_normal": report.tolerances["am_normal"]}
    assert report.tolerances["am_normal"] == report.tolerances["an"] == 1e-7


def test_classify_alpha_present_iff_an():
    yes = classify(diagonal((0.5,), 1.0))
    assert yes.is_AN is Verdict.YES and yes.alpha is not None
    no = classify(SELF_ADJOINT_BAND)
    assert no.is_AN is Verdict.NO and no.alpha is None


def test_classify_zero_operator():
    report = classify(zero())
    assert report.is_normal is Verdict.YES
    assert report.is_AN is Verdict.YES and report.alpha == 0.0
    assert report.is_AM_normal is Verdict.YES


# -- spectral summary -----------------------------------------------------------------

def test_spectral_summary_invariants():
    for op in (right_shift(), defect_shift(), diagonal((0.5j,), 1.0)):
        summary = spectral_summary(op, samples=256, resolution=128)
        assert 0 <= summary.min_modulus <= summary.ess_min_modulus
        assert summary.ess_min_modulus <= summary.norm_upper + 1e-12
        assert summary.area >= 0


def test_spectral_summary_isolated_eigenvalues():
    summary = spectral_summary(diagonal((0.5j,), 1.0), samples=256,
                               resolution=128)
    assert len(summary.eigenvalues) == 1
    value, mult = summary.eigenvalues[0]
    assert mult == 1 and abs(value - 0.5j) < 1e-9


def test_spectral_summary_keeps_a_double_eigenvalue_whole_beside_a_complex_one():
    t = diagonal((2 - 1e-9, 2 + 0.5j, 2 + 1e-9), 1.0)
    for points in (spectral_summary(t).eigenvalues,
                   check_am_normal(t).annulus_points):
        assert [m for _, m in points] == [2, 1]
        assert abs(points[0][0] - 2) < 1e-12 and abs(points[1][0] - (2 + 0.5j)) < 1e-12


def test_spectral_summary_shift_has_no_isolated_points():
    summary = spectral_summary(right_shift(), samples=256, resolution=128)
    assert summary.eigenvalues == ()
    assert summary.weyl_extra and summary.weyl_extra[0].winding == 1


def test_shifting_by_scalar_preserves_hyponormality():
    rng = np.random.default_rng(1)
    op = random_hyponormal(rng)
    shifted = op + constant_diagonal(0.3 - 0.7j)
    assert check_hyponormal(shifted).verdict is Verdict.YES


# -- branches that only broken or unusual input reaches --------------------------

classify_module = importlib.import_module("opspectra.classify")


def test_check_paranormal_says_which_verdicts_are_proved():
    nil = from_dense_corner(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert check_paranormal(nil).witness["proved"] is True            # a "no"
    assert check_paranormal(right_shift()).witness["proved"] is True  # pencil "yes"
    res = check_paranormal(right_shift(), grid=(1.0,))
    assert res.verdict is Verdict.YES and res.witness["proved"] is False


def test_check_paranormal_undetermined_where_the_count_is_not_valid(monkeypatch):
    monkeypatch.setattr(classify_module, "_paranormal_counts",
                        lambda quartic, quad, shifts, tol: (np.zeros(len(shifts), int),
                                                            np.zeros(len(shifts), bool)))
    res = check_paranormal(right_shift(), grid=(0.5, 2.0))
    assert res.verdict is Verdict.UNDETERMINED
    assert res.witness["failed_at"] is None and res.witness["proved"] is False


def test_check_an_positive_refuses_a_non_selfadjoint_operator():
    with pytest.raises(ValueError):
        check_an_positive(right_shift())


def test_check_an_positive_undetermined_where_the_roots_do_not_split(monkeypatch):
    # the tails 1e-10 (z + 1/z) keep the level 1 nearly constant but two-sided
    p = diagonal((0.5,), 1.0) + toeplitz({-1: 1e-10, 1: 1e-10})
    block = numerics._wiener_hopf_block
    monkeypatch.setattr(numerics, "_wiener_hopf_block",
                        lambda tails, lam: (block(tails, lam)[0],
                                            np.zeros(np.size(lam), bool)))
    res = check_an_positive(p)
    assert res.verdict is Verdict.UNDETERMINED and res.alpha is None
    assert res.witness["level"] == 1.0


def test_equivalence_without_a_constant_modulus():
    rec = check_an_normal_equivalence(SELF_ADJOINT_BAND)
    assert rec.applicable and rec.alpha is None
    assert (rec.an, rec.spectral, rec.circles) == (Verdict.NO,) * 3
    assert rec.interior_points == () and rec.radii == () and rec.agree


def test_region_clusters_keep_on_the_two_sided_path():
    t = toeplitz({-1: 0.3, 1: 1.0}) + from_dense_corner(np.diag([3.0, -3.0]))
    found, certified = classify_module._region_clusters(t)
    assert certified and len(found) == 2
    kept = classify_module._region_clusters(t, lambda z: z.real > 0)
    assert kept == (tuple(c for c in found if c[0].real > 0), True)
    assert len(kept[0]) == 1
