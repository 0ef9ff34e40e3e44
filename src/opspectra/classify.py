"""Membership tests and implication checks, each returning a verdict plus
witnesses.

A count on the corner is valid only where the roots of the symbol split
off the circle, and a paranormality grid only falsifies, so every verdict is
tri-state; "undetermined" is a first-class outcome and is never silently
coerced to yes or no.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (StructuredOperator, gram, is_selfadjoint, selfadjoint_defect,
                   self_commutator)
from .errors import NotHyponormal, NotStabilized
from .numerics import (MERGE_FACTOR, _gram_levels_below, _paranormal_counts,
                       cluster_values, discrete_eigs_below, min_modulus,
                       operator_norm, positivity_verdict, schur_eigenvalues)
from .symbols import (CIRCLE_SAMPLES, EssentialCurve, SpectralSummary,
                      _nonconstant_size, _tail_span, _zero_winding_mask,
                      constant_value, modulus_constant, spectral_area, symbol,
                      symbol_min_modulus)


class Verdict(enum.Enum):
    NO = "no"
    UNDETERMINED = "undetermined"
    YES = "yes"

    def __str__(self):  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CheckResult:
    verdict: Verdict
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ANResult:
    verdict: Verdict
    alpha: float | None
    witness: dict = field(default_factory=dict)


# -- elementary membership tests ---------------------------------------------

def check_selfadjoint(t: StructuredOperator, tol: float = 1e-10) -> CheckResult:
    defect = selfadjoint_defect(t)
    return CheckResult(Verdict.YES if defect <= tol else Verdict.NO,
                       {"selfadjoint_defect": defect})


def check_normal(t: StructuredOperator, tol: float = 1e-8) -> CheckResult:
    """Normal iff the self-commutator vanishes entrywise within tol."""
    d = self_commutator(t)
    return CheckResult(Verdict.YES if d.is_zero(tol) else Verdict.NO,
                       {"commutator_magnitude": d.magnitude()})


def check_hyponormal(t: StructuredOperator, tol: float = 1e-10) -> CheckResult:
    """Hyponormal iff T*T - TT* is positive."""
    verdict, witness = positivity_verdict(self_commutator(t), tol)
    return CheckResult(Verdict(verdict), witness)


def default_paranormal_grid(t: StructuredOperator):
    """32 log-spaced positive shifts covering [m(T)^2/10, 10 ||T||^2]."""
    norm = operator_norm(t)
    if norm == 0.0:
        return ()
    try:
        m = min_modulus(t)
    except NotStabilized:
        m = 0.0
    lo = max(m * m / 10.0, 1e-6 * max(norm * norm, 1.0))
    hi = 10.0 * norm * norm
    return tuple(np.geomspace(lo, hi, 32))


def _pencil_shifts(quartic: StructuredOperator, quad: StructuredOperator):
    """Shifts deciding q(s) >= 0 for T = c z^k + K: past the m x m windows
    q(s) is (|c|^2 - s)^2 I, and on them Q(s) = s^2 - 2s B + A (A, B their
    blocks) is singular only at real eigenvalues of [[0, I], [-A, 2B]]
    (Tisseur & Meerbergen 2001), so a midpoint per gap from 0 on decides."""
    m = max(len(quartic.window), len(quad.window))
    a, b = quartic._block(m, m), quad._block(m, m)
    ev = np.linalg.eigvals(np.block([[np.zeros((m, m)), np.eye(m)], [-a, 2 * b]]))
    real = ev.real[(abs(ev.imag) <= 1e-6 * abs(ev).max(initial=1.0)) & (ev.real > 0)]
    ends = np.concatenate(([0.0], np.sort(real)))
    return tuple(float(s) for s in (ends[1:] + ends[:-1]) / 2)


def check_paranormal(t: StructuredOperator, grid=None,
                     tol: float = 1e-10) -> CheckResult:
    """Test of the shifted-square positivity characterization (Ando 1972).

    q(s) = T*^2 T^2 - 2 s T*T + s^2 I must be positive for every s > 0.  The
    witness's ``method`` is "pencil" (``_pencil_shifts``, which decide) for a
    single-term symbol and no ``grid``, else "grid" (only a falsifier);
    ``proved`` is True for a "no" (a count at one shift) and a pencil "yes".

    The symbol of q(s) is (|a|^2 - s)^2 >= 0, so each shift is decided by
    the count on the corner below -tol max(1, magnitude of q(s))
    (``_paranormal_counts``); where that count is not valid, "undetermined".
    The shifts go in grid order, in passes of 1, 2, 4, ... at once, up to
    the first pass that holds a valid failing shift.
    """
    quartic = gram(t.compose(t))
    quad = gram(t)
    for g in (quartic, quad):
        if not is_selfadjoint(g, 1e-12 * max(1.0, g.magnitude())):  # pragma: no cover
            raise AssertionError("Gram operator lost Hermitian symmetry")
    squared = np.convolve(quad.tails, quad.tails)
    pad = (len(squared) - len(quartic.tails)) // 2
    gap = np.pad(quartic.tails, max(pad, 0)) - np.pad(squared, max(-pad, 0))
    if np.abs(gap).max() > 1e-12 * max(1.0, np.abs(squared).sum()):  # pragma: no cover
        raise AssertionError("symbol(T*^2 T^2) is not symbol(T*T)^2")
    if grid is None and np.count_nonzero(t.tails) <= 1:
        grid, method = _pencil_shifts(quartic, quad), "pencil"
    else:
        grid = default_paranormal_grid(t) if grid is None else grid
        grid, method = tuple(float(s) for s in grid), "grid"
        if not grid or any(s <= 0 for s in grid):
            raise ValueError("grid must hold at least one shift, all positive")
    outcome, failed_at, start = Verdict.YES, None, 0
    while failed_at is None and start < len(grid):
        batch = grid[start: 2 * start + 1]
        for s, count, valid in zip(batch, *_paranormal_counts(quartic, quad, batch, tol)):
            if not valid:
                outcome = Verdict.UNDETERMINED
            elif count:
                outcome, failed_at = Verdict.NO, s
                break
        start += len(batch)
    proved = outcome is Verdict.NO or (outcome is Verdict.YES and method == "pencil")
    return CheckResult(outcome, {"grid": grid, "failed_at": failed_at,
                                 "method": method, "proved": proved})


# -- absolutely norm attaining -----------------------------------------------

def check_an_positive(p: StructuredOperator, tol: float = 1e-8) -> ANResult:
    """Positive operator test: singleton essential spectrum plus finitely
    many eigenvalues below it.  A "no" states the sum of |c_k| over k != 0
    of the symbol (``symbol_deviation``) and the ``bound`` it exceeds."""
    if not is_selfadjoint(p, 1e-10 * max(1.0, p.magnitude())):
        raise ValueError("input must be self-adjoint (positive)")
    c = constant_value(symbol(p))
    if c is None:
        deviation, bound = _nonconstant_size(symbol(p))
        return ANResult(Verdict.NO, None, {"symbol_deviation": deviation, "bound": bound})
    level = float(c.real)
    report = discrete_eigs_below(p, bound=level, tol=tol)
    witness = {"level": level,
               "eigenvalues_below": tuple((float(np.real(v)), m)
                                          for v, m in report.eigenvalues),
               "near_boundary": report.near_boundary,
               "corner": report.corner}
    if not report.stabilized:
        return ANResult(Verdict.UNDETERMINED, None, witness)
    return ANResult(Verdict.YES, level, witness)


def check_an(t: StructuredOperator, tol: float = 1e-8) -> ANResult:
    """Absolutely norm attaining via the positivity transfer T in AN iff T*T in AN.

    alpha is the essential level of |T| (square root of the T*T level).
    """
    res = check_an_positive(gram(t), tol)
    if res.verdict is Verdict.YES:
        return ANResult(Verdict.YES, math.sqrt(max(0.0, res.alpha)), res.witness)
    return res


# -- isolated eigenvalues ------------------------------------------------------

def _region_clusters(t: StructuredOperator, keep=None, tol: float = 1e-8):
    """The isolated eigenvalues of T at winding 0 off the curve, as
    ((value, multiplicity), ...) selected by ``keep`` (an elementwise
    predicate on an array of values), and whether the list is certified.

    Every path lists the values that ``_zero_winding_mask`` keeps, at the
    clearance 1e-6 max(1, ||T||).  Past m = len(window), T is exactly T(a).
    When the tails are one-sided (p = 0 or q = 0), T is block triangular,
    so these are the eigenvalues of the window (none for an empty window,
    by Coburn's lemma), listed with their clusters; the list is exact.
    For a = a_-1 / z + a_0 + a_1 z, lam = a(r) is one at winding 0 iff
    r S(a(r)) = r^2 a_1 (E - I) + r (W - a_0 I) - a_-1 I is singular
    (W the window, E = e_(m-1) e_(m-1)^T) for the root r of z (a - lam)
    with |r| < 1 < |a_-1 / (a_1 r)|: a quadratic eigenproblem, solved as
    the 2m companion matrix of s = 1 / r (Tisseur & Meerbergen 2001); the
    list is exact.  Otherwise they are the zeros of the corner's Schur
    complement inside the circle of radius 1.05 max(1, ||T||), counted on
    the boundary of the winding-0 set there (``numerics.schur_eigenvalues``)."""
    norm = operator_norm(t)
    m = len(t.window)
    if not m or 0 in _tail_span(t.tails):
        vals = np.linalg.eigvals(t.window)
    elif len(t.tails) == 3:
        a_m1, a0, a1 = t.tails
        eye, last = np.eye(m), np.diag(np.arange(m) == m - 1)
        s = np.linalg.eigvals(np.block([[np.zeros((m, m)), eye],
                                        [a1 * (last - eye) / a_m1,
                                         (t.window - a0 * eye) / a_m1]]))
        s = s[(np.abs(s) > 1.0) & (np.abs(a_m1 * s / a1) > 1.0)]
        vals = a_m1 * s + a0 + a1 / s
    else:
        found, certified = schur_eigenvalues(t, max(1.0, norm))
        if keep is not None:
            mask = keep(np.array([v for v, _ in found], dtype=complex))
            found = tuple(c for c, k in zip(found, mask) if k)
        return found, certified
    vals = vals[_zero_winding_mask(t, vals, np.inf, 1e-6 * max(1.0, norm))]
    if keep is not None:
        vals = vals[keep(vals)]
    return cluster_values([complex(v) for v in vals], MERGE_FACTOR * tol), True


def _points_match(points, expected, atol: float) -> bool:
    """Whether ((value, multiplicity), ...) lists the values ``expected``,
    counted with multiplicity, within ``atol`` once both are sorted by real,
    then imaginary part."""
    values = np.sort_complex([v for v, m in points for _ in range(int(m))])
    expected = np.sort_complex(expected)
    return values.shape == expected.shape and bool(np.all(abs(values - expected) <= atol))


@dataclass(frozen=True)
class EquivalenceRecord:
    """The three normal-AN conditions of ``check_an_normal_equivalence``."""

    applicable: bool
    an: Verdict | None = None
    spectral: Verdict | None = None
    circles: Verdict | None = None
    alpha: float | None = None
    interior_points: tuple = ()
    radii: tuple = ()
    agree: bool | None = None
    reason: str = ""


def check_an_normal_equivalence(t: StructuredOperator) -> EquivalenceRecord:
    """For normal T, evaluate the three equivalent characterizations at tol
    1e-8 and report whether they agree; refuses non-normal input.  ``circles``
    compares the moduli of ``spectral``'s points with the square roots of
    ``check_an``'s levels of T*T, both below min(alpha - tol, sqrt(alpha^2 - tol))."""
    tol = 1e-8
    if check_normal(t).verdict is not Verdict.YES:
        return EquivalenceRecord(applicable=False,
                                 reason="equivalence applies to normal operators only")
    an = check_an(t)

    alpha = modulus_constant(symbol(t))
    if alpha is None:
        spectral = circles = Verdict.NO
        interior, radii = (), ()
    else:
        interior, stable = _region_clusters(t, lambda z: abs(z) < alpha - tol)
        spectral = Verdict.YES if stable else Verdict.UNDETERMINED
        radii = cluster_values([abs(c) for c, m in interior for _ in range(m)],
                               MERGE_FACTOR * tol) if stable else ()
        top = min(alpha - tol, math.sqrt(max(0.0, alpha * alpha - tol)))
        roots = [r for v, m in an.witness.get("eigenvalues_below", ())
                 for r in [math.sqrt(max(0.0, v))] * m if r < top]
        same = _points_match([(abs(v), m) for v, m in interior if abs(v) < top],
                             roots, 100.0 * tol * max(1.0, alpha))
        circles = (Verdict.UNDETERMINED if not stable or an.verdict is not Verdict.YES
                   else Verdict.YES if same else Verdict.NO)
    return EquivalenceRecord(True, an.verdict, spectral, circles, alpha,
                             tuple(interior), tuple(radii),
                             agree=an.verdict is spectral is circles)


@dataclass(frozen=True)
class SelfadjointANRecord:
    applicable: bool
    verdict: Verdict | None = None
    alpha: float | None = None
    interior_points: tuple = ()
    boundary_points: tuple = ()
    reason: str = ""


def check_an_selfadjoint(t: StructuredOperator) -> SelfadjointANRecord:
    """Self-adjoint specialization at tol 1e-8: essential spectrum inside
    {-alpha, alpha} and finitely many spectrum points strictly between."""
    tol = 1e-8
    if check_selfadjoint(t, tol).verdict is not Verdict.YES:
        return SelfadjointANRecord(applicable=False,
                                   reason="input is not self-adjoint")
    c = constant_value(symbol(t))
    if c is None:
        return SelfadjointANRecord(True, Verdict.NO, None, (), (),
                                   reason="essential spectrum is a nondegenerate interval")
    alpha = abs(c)
    clusters, stable = _region_clusters(
        t, lambda z: (abs(z) < alpha - tol) | (abs(abs(z) - alpha) <= tol))
    verdict = Verdict.YES if stable else Verdict.UNDETERMINED
    interior = [(v, m) for v, m in clusters if abs(v) < alpha - tol]
    # points on {-alpha, alpha} belong to the essential set, the essential
    # point c itself included; list the distinct values without (meaningless)
    # multiplicities
    boundary = cluster_values([float(c.real)] + [float(v.real) for v, m in clusters
                                                 if abs(v) >= alpha - tol],
                              MERGE_FACTOR * tol)
    return SelfadjointANRecord(
        True, verdict, alpha,
        tuple((float(v.real), m) for v, m in interior),
        tuple(float(v) for v, _ in boundary))


@dataclass(frozen=True)
class AMRecord:
    applicable: bool
    verdict: Verdict | None = None
    beta: float | None = None
    annulus_points: tuple = ()
    reason: str = ""


def check_am_normal(t: StructuredOperator, tol: float = 1e-8) -> AMRecord:
    """Normal absolutely-minimum-attaining test: essential spectrum on a
    circle of radius beta and finitely many spectrum points outside it."""
    if check_normal(t, max(tol, 1e-10)).verdict is not Verdict.YES:
        return AMRecord(applicable=False,
                        reason="classifier covers normal operators only")
    beta = modulus_constant(symbol(t))
    if beta is None:
        return AMRecord(True, Verdict.NO, None, (),
                        reason="essential spectrum is not a circle")
    clusters, stable = _region_clusters(t, lambda z: abs(z) > beta + tol, tol)
    verdict = Verdict.YES if stable else Verdict.UNDETERMINED
    return AMRecord(True, verdict, beta, tuple(clusters))


# -- inequality and implication records ---------------------------------------

@dataclass(frozen=True)
class PutnamRecord:
    commutator_norm: float
    area_over_pi: float
    grid_error_over_pi: float
    holds: bool


def putnam_check(t: StructuredOperator, assume_hyponormal: bool = False) -> PutnamRecord:
    """Commutator norm against spectral area / pi for hyponormal input."""
    if not assume_hyponormal:
        if check_hyponormal(t).verdict is not Verdict.YES:
            raise NotHyponormal("Putnam check requires a hyponormal operator")
    lhs = operator_norm(self_commutator(t))
    est = spectral_area(t)
    rhs = est.value / math.pi
    slack = est.error / math.pi + 1e-6
    return PutnamRecord(lhs, rhs, est.error / math.pi, bool(lhs <= rhs + slack))


@dataclass(frozen=True)
class WeylRecord:
    premises_ok: bool
    weyl_equals_essential: bool | None = None
    component_windings: tuple = ()
    normal: Verdict | None = None
    holds: bool | None = None
    reason: str = ""


def weyl_normality_criterion(t: StructuredOperator) -> WeylRecord:
    """If no off-curve point has nonzero index, a hyponormal AN operator must
    be normal; one winding test per bounded complementary component suffices
    because the winding is locally constant off the curve.  The components
    are the bounded faces of ``spectral_area``'s arrangement."""
    if check_hyponormal(t).verdict is not Verdict.YES:
        return WeylRecord(False, reason="not (verifiably) hyponormal")
    if check_an(t).verdict is not Verdict.YES:
        return WeylRecord(False, reason="not (verifiably) absolutely norm attaining")
    regions = spectral_area(t)
    windings = tuple(c.winding for c in regions.components)
    equal = all(w == 0 for w in windings)
    if not equal:
        return WeylRecord(True, False, windings, None, None,
                          reason="criterion inapplicable: Weyl spectrum exceeds "
                                 "the essential spectrum")
    normal = check_normal(t).verdict
    return WeylRecord(True, True, windings, normal, normal is Verdict.YES)


@dataclass(frozen=True)
class PairNormalityRecord:
    paranormal: Verdict
    adjoint_paranormal: Verdict
    an: Verdict
    premises_hold: bool
    normal: Verdict | None
    holds: bool | None
    null_spaces_equal: bool | None
    null_variant_premises: bool
    null_variant_holds: bool | None


def _null_projection(t: StructuredOperator, n: int):
    """Projection onto the null space of the section T[:n + bandwidth, :n]."""
    _, s, wh = np.linalg.svd(t._block(n + t.bandwidth, n))
    basis = wh.conj().T[:, s < max(1e-12, 1e-8 * s[0])]
    return basis @ basis.conj().T


def paranormal_pair_normality(t: StructuredOperator,
                              trunc: int | None = None) -> PairNormalityRecord:
    """Both implication tests: (T, T* paranormal, T in AN) forces normality,
    and (T paranormal, T in AN, N(T) = N(T*)) forces normality.

    For a symbol c z^k, N(T) and N(T*) lie in C^n, n the largest window of
    T, T*T and TT*, or (c = 0) agree past it, so ``_null_projection``
    compares them exactly.  Any other symbol is not AN, and its
    ``null_spaces_equal`` is None.  tol is 1e-8; ``trunc`` is ignored.
    """
    p1 = check_paranormal(t, tol=1e-8).verdict
    p2 = check_paranormal(t.adjoint(), tol=1e-8).verdict
    an = check_an(t).verdict
    premises = all(v is Verdict.YES for v in (p1, p2, an))
    null_equal = None
    if np.count_nonzero(t.tails) <= 1:
        n = max(1, len(t.window), len(gram(t).window), len(gram(t.adjoint()).window))
        gap = _null_projection(t, n) - _null_projection(t.adjoint(), n)
        null_equal = bool(np.linalg.norm(gap, 2) <= 1e-8)
    variant = (p1 is Verdict.YES) and (an is Verdict.YES) and bool(null_equal)
    normal = check_normal(t).verdict if premises or variant else None
    holds = normal is Verdict.YES
    return PairNormalityRecord(p1, p2, an, premises, normal if premises else None,
                               holds if premises else None, null_equal, variant,
                               holds if variant else None)


# -- full report ---------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    """Verdict bundle; the normal => hyponormal => paranormal chain is
    enforced during assembly, and alpha is present exactly when AN holds."""

    is_self_adjoint: Verdict
    is_normal: Verdict
    is_hyponormal: Verdict
    is_paranormal: Verdict
    is_AN: Verdict
    is_AM_normal: Verdict
    alpha: float | None
    witnesses: tuple
    tolerances: dict

    @property
    def any_undetermined(self) -> bool:
        return Verdict.UNDETERMINED in (self.is_self_adjoint, self.is_normal,
                                        self.is_hyponormal, self.is_paranormal,
                                        self.is_AN, self.is_AM_normal)


def classify(t: StructuredOperator, tol_an: float = 1e-8) -> ClassificationReport:
    """Run every membership test, reusing implications to stay consistent."""
    witnesses = []

    sa = check_selfadjoint(t, 1e-8)
    witnesses.append(("self_adjoint", sa.witness))

    nr = check_normal(t)
    witnesses.append(("normal", nr.witness))

    if nr.verdict is Verdict.YES:
        hy = CheckResult(Verdict.YES, {"implied_by": "normal"})
    else:
        hy = check_hyponormal(t)
    witnesses.append(("hyponormal", hy.witness))

    if hy.verdict is Verdict.YES:
        pa = CheckResult(Verdict.YES, {"implied_by": "hyponormal"})
    else:
        pa = check_paranormal(t)
    witnesses.append(("paranormal", pa.witness))

    an = check_an(t, tol_an)
    witnesses.append(("absolutely_norm_attaining", an.witness))

    am = check_am_normal(t, tol_an)
    # is_AM_normal asks for membership in the *normal* AM class, so a
    # non-normal operator is a definite no, not an undetermined one
    am_verdict = am.verdict if am.applicable else Verdict.NO
    witnesses.append(("am_normal", {"applicable": am.applicable,
                                    "beta": am.beta,
                                    "annulus_points": am.annulus_points,
                                    "reason": am.reason}))

    return ClassificationReport(
        sa.verdict, nr.verdict, hy.verdict, pa.verdict, an.verdict, am_verdict,
        an.alpha if an.verdict is Verdict.YES else None,
        tuple(witnesses),
        {"self_adjoint": 1e-8, "normal": 1e-8, "hyponormal": 1e-10,
         "paranormal": 1e-10, "an": tol_an, "am_normal": tol_an})


def spectral_summary(t: StructuredOperator, samples: int = CIRCLE_SAMPLES,
                     tol: float = 1e-8) -> SpectralSummary:
    """Assemble the full spectral report for an operator.

    The area and the faces at nonzero winding are those of the exact
    arrangement of the curve (``spectral_area``).  The isolated eigenvalues
    are those of ``_region_clusters``.  When their list is not certified,
    none are listed and ``eigenvalues_stabilized`` is False."""
    sym = symbol(t)
    curve = EssentialCurve.sampled(sym, samples)
    regions = spectral_area(t)
    norm_upper = operator_norm(t)
    me = symbol_min_modulus(sym)
    m_modulus = min(min_modulus(t), me)  # guard float rounding on the invariant

    clusters, stable = _region_clusters(t, None, tol)
    eigenvalues = tuple(clusters) if stable else ()
    weyl = tuple(c for c in regions.components if c.winding != 0)
    return SpectralSummary(curve, curve.is_circle, weyl, eigenvalues,
                           float(m_modulus), float(me), float(norm_upper),
                           float(regions.value), float(regions.error),
                           bool(stable))


def discrete_singular_levels(t: StructuredOperator, tol: float = 1e-8):
    """Moduli levels of |T| strictly below the essential level, via T*T
    (keyed in its memo as ``min_modulus`` keys it)."""
    report = _gram_levels_below(t, tol)[2]
    levels = tuple((float(np.sqrt(max(0.0, np.real(v)))), m)
                   for v, m in report.eigenvalues)
    return levels, report.stabilized
