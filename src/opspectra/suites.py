"""Seeded random operator generators and the property suites built on them.

Each suite returns a list of (name, passed, detail) triples so both the test
harness and the command line can run them; generation is deterministic for a
fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .classify import (Verdict, _points_match, check_am_normal, check_an,
                       check_an_normal_equivalence, check_hyponormal,
                       check_normal, classify, paranormal_pair_normality,
                       putnam_check, spectral_summary, weyl_normality_criterion)
from .core import (StructuredOperator, constant_diagonal, diagonal, embed_at,
                   from_dense_corner, gram, right_shift, toeplitz,
                   weighted_shift)
from .decompose import (normality_from_blocks, structure_decompose,
                        verify_decomposition)
from .numerics import discrete_eigs_below, symbol_min_modulus_signed
from .specfiles import BUNDLED, load_bundled
from .symbols import (_curve_distance, fredholm_index, index_by_truncation,
                      linalg, symbol, winding, winding_regions)


def _complex(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def random_diagonal(rng, max_prefix: int = 8) -> StructuredOperator:
    """Diagonal with a short prefix and a nonzero tail, moduli kept away from
    the tail modulus so oracle comparisons are never borderline."""
    tail = _complex(rng)
    while abs(tail) < 0.3:
        tail = _complex(rng)
    prefix = []
    for _ in range(rng.integers(0, max_prefix + 1)):
        if rng.random() < 0.15:
            prefix.append(tail * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        else:
            r = abs(tail) * (rng.uniform(0.1, 0.8) if rng.random() < 0.5
                             else rng.uniform(1.2, 2.0))
            prefix.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return diagonal(tuple(prefix), tail)


def random_weighted_shift(rng) -> StructuredOperator:
    """Weighted shift with nondecreasing nonnegative weights (hyponormal)."""
    tail = rng.uniform(0.5, 2.0)
    k = int(rng.integers(0, 7))
    weights = np.sort(rng.uniform(0.0, tail, size=k))
    return weighted_shift(tuple(weights), tail)


def random_hyponormal(rng) -> StructuredOperator:
    """Hyponormal by construction: shifted weighted shifts, normal corners,
    and block direct sums of the two."""
    kind = rng.integers(0, 3)
    shift_part = random_weighted_shift(rng) + constant_diagonal(_complex(rng, 0.8))
    if kind == 0:
        return shift_part
    corner = random_normal_corner(rng, max_size=4)
    if kind == 1:
        return corner + embed_at(shift_part, corner.corner_size)
    return random_diagonal(rng, max_prefix=4)


def random_finite_rank(rng) -> StructuredOperator:
    terms = []
    for _ in range(rng.integers(1, 4)):
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        terms.append((tuple(_complex(rng) for _ in range(n1)),
                      tuple(_complex(rng) for _ in range(n2))))
    return StructuredOperator({}, tuple(terms))


def random_normal_corner(rng, max_size: int = 5) -> StructuredOperator:
    """Finite normal matrix in the corner: unitary conjugate of a diagonal."""
    n = int(rng.integers(1, max_size + 1))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    lam = np.array([_complex(rng, 1.5) for _ in range(n)])
    return from_dense_corner((q * lam) @ q.conj().T)


def random_an_hyponormal(rng) -> StructuredOperator:
    """Hyponormal and absolutely norm attaining by construction: a normal
    corner (zero tails keep the symbol untouched) direct-summed with a
    nondecreasing weighted shift whose symbol has constant modulus."""
    tail = rng.uniform(0.8, 2.0)
    k = int(rng.integers(0, 5))
    weights = np.sort(rng.uniform(0.0, tail, size=k))
    shift_block = weighted_shift(tuple(weights), tail)
    n = int(rng.integers(0, 4))
    if n == 0:
        return shift_block
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    moduli = np.where(rng.random(n) < 0.5,
                      rng.uniform(0.1, 0.8, n), rng.uniform(1.2, 2.5, n)) * tail
    lam = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    corner = from_dense_corner((q * lam) @ q.conj().T)
    return corner + embed_at(shift_block, n)


def random_constant_modulus(rng) -> StructuredOperator:
    """c z^k + K: k in -1..2, c complex N(0, 1), K an n x n (n in 2..8) complex
    Gaussian head times 10^U(-3, 0), strictly upper triangular half the time."""
    k, c = int(rng.integers(-1, 3)), complex(rng.normal(), rng.normal())
    n = int(rng.integers(2, 9))
    head = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) \
        * 10 ** rng.uniform(-3, 0)
    head = np.triu(head, 1) if rng.random() < 0.5 else head
    return toeplitz({k: c}) + from_dense_corner(head)


def random_banded_symbol(rng, max_bandwidth: int = 2) -> StructuredOperator:
    coeffs = {}
    k = int(rng.integers(1, max_bandwidth + 1))
    for off in range(-k, k + 1):
        if rng.random() < 0.7:
            coeffs[off] = _complex(rng, 1.2)
    if not coeffs:
        coeffs[1] = 1.0 + 0j
    return toeplitz(coeffs)


def random_toeplitz_corner(rng) -> StructuredOperator:
    """Generic non-normal T(a) + K: a Laurent tail with every offset from
    -k to k (k from 1 to 3) and a dense complex corner of size 4 to 12."""
    k = int(rng.integers(1, 4))
    coeffs = {off: _complex(rng) for off in range(-k, k + 1)}
    n = int(rng.integers(4, 13))
    head = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return toeplitz(coeffs) + from_dense_corner(head)


# -- exact oracle for diagonal operators --------------------------------------

def diagonal_oracle(t: StructuredOperator):
    """Brute-force classification of a purely diagonal operator.

    The spectrum is the prefix values plus the tail; the essential spectrum is
    the tail alone, so membership reduces to counting prefix moduli on either
    side of |tail| (farther than 1e-8 from it).
    """
    if set(t.bands) - {0}:
        raise ValueError("oracle only covers purely diagonal operators")
    desc = t.bands.get(0)
    prefix = desc.prefix if desc else ()
    tail = desc.tail if desc else 0j
    alpha = abs(tail)
    interior = [p for p in prefix if abs(p) < alpha - 1e-8]
    annulus = [p for p in prefix if abs(p) > alpha + 1e-8]
    return {
        "alpha": alpha,
        "an": "yes",          # finitely many prefix values below the tail level
        "am": "yes",          # and finitely many above
        "interior": sorted(interior, key=lambda z: (z.real, z.imag)),
        "annulus": sorted(annulus, key=lambda z: (z.real, z.imag)),
    }


# -- suites -------------------------------------------------------------------

def suite_golden():
    """Expected classifications of the bundled operators; each AN one is
    also decomposed, its blocks verified, and the co-rank of S1 (the
    winding of the symbol about 0) and its normality verdict compared.
    Each one with a monomial symbol c z^k, k != 0, has the spectral area
    pi |c|^2 and one face, at winding k."""
    expected = {
        "right_shift": ("no", "yes", 1.0, 1),
        "defect_shift": ("no", "yes", 1.0, 1),
        "nilpotent_head_shift": ("no", "yes", 2.0, 1),
        "diagonal_head_shift": ("no", "yes", 3.0, 1),
        "unitary_diag": ("yes", "yes", 1.0, 0),
        "selfadjoint_band": ("yes", "no", None, None),
    }
    results = []
    for name in BUNDLED:
        op = load_bundled(name).operator
        report = classify(op)
        normal, an, alpha, corank = expected[name]
        ok = (report.is_normal.value == normal and report.is_AN.value == an)
        detail = (f"normal={report.is_normal} an={report.is_AN} "
                  f"alpha={report.alpha}")
        if alpha is not None:
            ok = ok and report.alpha is not None and abs(report.alpha - alpha) < 1e-9
            dec = structure_decompose(op)
            blocks = normality_from_blocks(dec)
            ok = (ok and verify_decomposition(dec, op).ok
                  and blocks.verdict.value == normal and blocks.corank == corank)
            detail += f" blocks={blocks.verdict} corank={blocks.corank}"
        ok = ok and report.is_hyponormal is not Verdict.NO
        results.append((f"golden:{name}", ok, detail))
        sym = symbol(op)
        if len(sym.coeffs) == 1 and 0 not in sym.coeffs:
            (k, c), = sym.coeffs.items()
            exact = math.pi * abs(c) ** 2
            area = spectral_summary(op).area
            windings = [face.winding for face in winding_regions(sym).components]
            results.append((f"golden:{name}:area", area == exact and windings == [k],
                            f"area={area:.12g} pi|c|^2={exact:.12g} windings={windings}"))
    return results


def suite_compact_hyponormal(seed: int = 0, count: int = 200):
    """Finite-rank operators that pass the hyponormality test must be normal."""
    rng = np.random.default_rng(seed)
    results = []
    hyponormal_seen = 0
    for i in range(count):
        if i % 2 == 0:
            op = random_normal_corner(rng)
        else:
            op = random_finite_rank(rng)
        hy = check_hyponormal(op, tol=1e-10)
        if hy.verdict is not Verdict.YES:
            continue
        hyponormal_seen += 1
        nr = check_normal(op, tol=1e-8)
        if nr.verdict is not Verdict.YES:
            results.append((f"compact_hyponormal:{i}", False,
                            f"hyponormal finite-rank operator not normal: "
                            f"{nr.witness}"))
    results.append(("compact_hyponormal:summary", True,
                    f"{hyponormal_seen} hyponormal instances, 0 violations"))
    return results


def suite_putnam(seed: int = 0, count: int = 50):
    """Commutator norm never exceeds spectral area / pi (plus its error)."""
    rng = np.random.default_rng(seed)
    ops = [(name, load_bundled(name).operator) for name in BUNDLED]
    ops += [(f"random_{i}", random_hyponormal(rng)) for i in range(count)]
    results = []
    for name, op in ops:
        rec = putnam_check(op, assume_hyponormal=True)
        results.append((f"putnam:{name}", rec.holds,
                        f"lhs={rec.commutator_norm:.6f} rhs={rec.area_over_pi:.6f}"))
    return results


def suite_diagonal_oracle(seed: int = 0, count: int = 500):
    """Classifier verdicts on random diagonals match the exact oracle."""
    rng = np.random.default_rng(seed)
    results = []
    failures = 0
    for i in range(count):
        op = random_diagonal(rng)
        oracle = diagonal_oracle(op)
        ok = True
        detail = ""
        an = check_an(op)
        if an.verdict.value != oracle["an"] or \
                abs((an.alpha or np.inf) - oracle["alpha"]) > 1e-7:
            ok, detail = False, f"an={an.verdict} alpha={an.alpha}"
        eq = check_an_normal_equivalence(op)
        if not (eq.applicable and eq.agree and eq.an.value == oracle["an"]
                and _points_match(eq.interior_points, oracle["interior"], 1e-7)):
            ok, detail = False, detail + f" equivalence={eq}"
        am = check_am_normal(op)
        if not (am.applicable and am.verdict.value == oracle["am"]
                and _points_match(am.annulus_points, oracle["annulus"], 1e-7)):
            ok, detail = False, detail + f" am={am.verdict}"
        if not ok:
            failures += 1
            results.append((f"diagonal_oracle:{i}", False, detail))
    results.append(("diagonal_oracle:summary", failures == 0,
                    f"{count - failures}/{count} oracle matches"))
    return results


_INDEX_DRAWS = 400


def suite_index_crossval(seed: int = 0, symbols_count: int = 20, n: int = 512):
    """Winding-based index equals truncation null-space counting.  A random
    symbol passes when 5 points, drawn in ``_INDEX_DRAWS`` tries at least
    0.25 scale off its curve, all agree; it gets one record either way, which
    names the first mismatch or the shortfall when it fails."""
    rng = np.random.default_rng(seed)
    results = []
    shift = right_shift()
    cases = [("R", shift, 0j), ("R2", shift.compose(shift), 0j),
             ("R_adj", shift.adjoint(), 0j)]
    for name, op, lam in cases:
        got = fredholm_index(op, lam)
        oracle = index_by_truncation(op, lam, n)
        results.append((f"index:{name}", got == oracle,
                        f"winding-based {got}, truncation {oracle}"))
    for i in range(symbols_count):
        op = random_banded_symbol(rng)
        sym = symbol(op)
        pts = sym.on_circle(2048)
        scale = max(1.0, float(np.max(np.abs(pts))))
        found = 0
        attempts = 0
        mismatches = []
        while found < 5 and attempts < _INDEX_DRAWS:
            attempts += 1
            lam = complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)) * scale
            if float(np.min(np.abs(pts - lam))) < 0.25 * scale:
                continue
            found += 1
            got = fredholm_index(op, lam)
            oracle = index_by_truncation(op, lam, n)
            if got != oracle:
                mismatches.append(f"lam={lam:.3f} winding {got} truncation {oracle}")
        if mismatches:
            ok, detail = False, (f"{len(mismatches)} of {found} points disagree, "
                                 f"first {mismatches[0]}")
        elif found < 5:
            ok, detail = False, f"only {found} points off the curve in {attempts} draws"
        else:
            ok, detail = True, f"{found} points agreed"
        results.append((f"index:random_{i}", ok, detail))
    return results


def suite_isolated_eigenvalues(seed: int = 0, count: int = 8):
    """The isolated eigenvalues of ``spectral_summary`` against a dense
    512-section, on random T(a) + K: each one listed lies within 1e-6 scale
    of a section eigenvalue, and every section eigenvalue at winding 0
    farther than 0.1 scale from the curve is listed (scale = max(1, ||T||)).
    An uncertified list fails."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(count):
        op = random_toeplitz_corner(rng)
        summary = spectral_summary(op, samples=256)
        scale = max(1.0, summary.norm_upper)
        sym = symbol(op)
        listed = np.array([v for v, _ in summary.eigenvalues], dtype=complex)
        section = np.linalg.eigvals(op.truncate(512))
        unmatched = [v for v in listed if np.min(np.abs(section - v)) > 1e-6 * scale]
        missed = []
        for v in section:
            if (_curve_distance(sym, v) > 0.1 * scale and winding(sym, v) == 0
                    and np.min(np.abs(listed - v), initial=np.inf) > 1e-6 * scale):
                missed.append(v)
        ok = summary.eigenvalues_stabilized and not unmatched and not missed
        results.append((f"isolated_eigenvalues:{i}", ok,
                        f"certified={summary.eigenvalues_stabilized} "
                        f"listed={len(listed)} unmatched={len(unmatched)} "
                        f"missed={len(missed)}"))
    return results


def against_section(g: StructuredOperator):
    """(report, unmatched, missed): ``discrete_eigs_below(g, ess)`` against
    the 2048-section of self-adjoint g, scale = max(1, magnitude of g).  The
    section's k-th eigenvalue bounds g's from above (interlacing) and has
    settled from 0.01 scale below ess.  unmatched: k-th listed eigenvalues
    (multiplicities counted) settled below ess and farther than 1e-8 scale
    from the k-th section eigenvalue; missed: k-th section eigenvalues below
    ess - 1e-6 scale with at most k listed up to 1e-8 scale above them."""
    scale = max(1.0, g.magnitude())
    ess = symbol_min_modulus_signed(symbol(g))
    report = discrete_eigs_below(g, ess)
    listed = np.array([v.real for v, m in report.eigenvalues for _ in range(m)])
    section = linalg.eig_banded(g.lower_band(2048), lower=True, eigvals_only=True,
                                select="v", select_range=(-np.inf, ess))
    settled = listed[listed <= ess - 0.01 * scale]
    rank = np.append(section, np.full(len(settled), np.inf))[:len(settled)]
    unmatched = settled[np.abs(settled - rank) > 1e-8 * scale].tolist()
    missed = [v for k, v in enumerate(section[section < ess - 1e-6 * scale])
              if np.count_nonzero(listed <= v + 1e-8 * scale) <= k]
    return report, unmatched, missed


def suite_eigs_below(seed: int = 0, count: int = 8):
    """``against_section`` on T*T for random T(a) + K; unstable reports fail."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(count):
        report, unmatched, missed = against_section(gram(random_toeplitz_corner(rng)))
        results.append((f"eigs_below:{i}",
                        report.stabilized and not unmatched and not missed,
                        f"listed={sum(m for _, m in report.eigenvalues)} "
                        f"unmatched={len(unmatched)} missed={len(missed)}"))
    return results


def suite_paranormal_pair(seed: int = 0, count: int = 20):
    """Paranormal pairs with the AN property must be normal (both variants)."""
    rng = np.random.default_rng(seed)
    ops = [load_bundled(name).operator for name in BUNDLED]
    ops += [random_diagonal(rng, max_prefix=3) for _ in range(count)]
    ops += [random_constant_modulus(rng) for _ in range(count)]
    results = []
    for i, op in enumerate(ops):
        rec = paranormal_pair_normality(op)
        ok = (rec.holds is not False) and (rec.null_variant_holds is not False)
        results.append((f"paranormal_pair:{i}", ok,
                        f"premises={rec.premises_hold} holds={rec.holds} "
                        f"null_variant={rec.null_variant_holds}"))
    return results


def suite_weyl(seed: int = 0, count: int = 10):
    """Zero winding everywhere plus hyponormal AN forces normality."""
    rng = np.random.default_rng(seed)
    ops = [load_bundled(name).operator for name in BUNDLED]
    ops += [random_diagonal(rng, max_prefix=3) for _ in range(count)]
    results = []
    for i, op in enumerate(ops):
        rec = weyl_normality_criterion(op)
        ok = rec.holds is not False
        results.append((f"weyl:{i}", ok,
                        f"premises={rec.premises_ok} "
                        f"equal={rec.weyl_equals_essential} holds={rec.holds}"))
    return results


def run_all(seed: int = 0, quick: bool = True):
    """Every suite with sizes suitable for a command-line run."""
    scale = 1 if quick else 4
    out = []
    out += suite_golden()
    out += suite_compact_hyponormal(seed, count=50 * scale)
    out += suite_putnam(seed, count=5 * scale)
    out += suite_diagonal_oracle(seed, count=60 * scale)
    out += suite_index_crossval(seed, symbols_count=4 * scale, n=256 if quick else 512)
    out += suite_isolated_eigenvalues(seed, count=2 * scale)
    out += suite_eigs_below(seed, count=4 * scale)
    out += suite_paranormal_pair(seed, count=5 * scale)
    out += suite_weyl(seed, count=5 * scale)
    return out
