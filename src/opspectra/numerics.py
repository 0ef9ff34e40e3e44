"""Desk-scale numerics on truncations and on the finite corner.

Eigenvalue extraction below the essential level relies on two facts about the
representable class: truncations of a self-adjoint operator have spectrum
inside the numerical range of the full operator (no pollution below the
bottom), and discrete eigenvalues below the essential minimum have localized
eigenvectors, so an n vs 2n agreement check certifies stabilization.  No
rigorous enclosure is attempted; an unstable family is reported as such
rather than counted.  Whether a truncation has any eigenvalue below a level
is decided by a banded Cholesky factorization, so eigenvalues are computed
only when something lies below.

Isolated eigenvalues of a non-normal T(a) + K at winding 0 need no
truncation: they are the zeros of a Schur complement on the corner
(``schur_eigenvalues``), counted by the argument principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, eig_banded

from .core import StructuredOperator, gram, memoized, selfadjoint_defect
from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotStabilized
from .symbols import (_laurent_roots, _wiener_hopf_block, symbol,
                      symbol_max_modulus)

TRUNC_CAP = 4096
MERGE_FACTOR = 100.0        # eigenvalues within 100*tol are one cluster
ROUNDING_MULTIPLE = 8.0     # eigenvalues of T*T within 8 eps * scale of 0 are 0
LOOP_BUDGET = 2 ** 15       # most points at which _loop_turns evaluates


@dataclass(frozen=True)
class EigenSystem:
    """Full Hermitian eigendecomposition with a residual certificate."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # orthonormal columns
    residual: float             # max ||Mv - lambda v|| / ||M||


@dataclass(frozen=True)
class DiscreteEigenReport:
    """Eigenvalues found strictly below the queried bound.

    stabilized is False when the n and 2n truncation lists disagreed up to
    the size cap; the best-effort list from the larger truncation is kept.
    near_boundary counts eigenvalues within tol of the bound, which are
    assigned to the essential level rather than listed.
    """

    eigenvalues: tuple          # ((value, multiplicity), ...)
    stabilized: bool
    sizes_used: tuple
    near_boundary: int = 0


def hermitian_eig(matrix, tol: float = 1e-8) -> EigenSystem:
    """Full spectrum of a dense Hermitian matrix (accuracy contract only)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if n > TRUNC_CAP:
        raise ValueError(f"matrix size {n} exceeds the {TRUNC_CAP} cap")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
        raise NotHermitian("matrix is not Hermitian to 1e-12")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    norm2 = float(np.max(np.abs(values))) if n else 0.0
    raw = float(np.max(np.linalg.norm(m @ vectors - vectors * values, axis=0)))
    residual = raw / norm2 if norm2 > 0 else 0.0
    if residual > tol:
        raise ConvergenceFailure(f"residual {residual:.3e} exceeds tol {tol:.3e}")
    return EigenSystem(values, vectors, residual)


def svd_polar(matrix):
    """Polar factors (V, P) with M = V P, P = sqrt(M*M) positive semidefinite.

    V is a partial isometry with initial space range(P): it is zero on the
    numerical null space rather than completed to a unitary.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    try:
        u, s, wh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    cutoff = (s[0] if s.size else 0.0) * max(m.shape) * np.finfo(float).eps
    r = int(np.count_nonzero(s > cutoff))
    v = u[:, :r] @ wh[:r, :]
    p = (wh.conj().T * s) @ wh
    p = 0.5 * (p + p.conj().T)
    return v, p


def isometry_extension(v, tol: float = 1e-9) -> np.ndarray:
    """Extend a partial isometry V to an isometry S = V + W.

    W maps null(V) isometrically onto a subspace of range(V)-perp.  At a
    square truncation both defect spaces have equal dimension; a genuine
    shortfall (wide rectangular input) is a truncation artifact and raises
    DimensionMismatch with the suggestion to enlarge the section.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    e = v.conj().T @ v
    if float(np.max(np.abs(e @ e - e))) > max(tol, 1e-9):
        raise ValueError("input is not a partial isometry (V*V not a projection)")
    u, s, wh = np.linalg.svd(v)
    small = s < 0.5

    def canonical_phase(col):
        lead = col[int(np.argmax(np.abs(col)))]
        return col * (abs(lead) / lead) if lead != 0 else col

    null_cols = [canonical_phase(wh.conj().T[:, i]) for i in range(wh.shape[0])
                 if i >= s.size or small[i]]
    coker_cols = [canonical_phase(u[:, i]) for i in range(u.shape[1])
                  if i >= s.size or small[i]]
    if len(null_cols) > len(coker_cols):
        raise DimensionMismatch(
            "null space exceeds the cokernel at this truncation; "
            "retry with a larger section")
    if not null_cols:
        return v.copy()
    nb = np.column_stack(null_cols)
    cb = np.column_stack(coker_cols[: len(null_cols)])
    sout = v + cb @ nb.conj().T
    if float(np.linalg.norm(sout.conj().T @ sout - np.eye(v.shape[1]))) > max(tol, 1e-9):
        raise ConvergenceFailure("extension failed to produce an isometry")
    return sout


def cluster_values(values, gap: float):
    """Greedy 1-d / complex clustering; returns ((center, count), ...)."""
    vals = sorted(values, key=lambda z: (z.real, z.imag) if isinstance(z, complex)
                  else z)
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0] / clusters[-1][1]) <= gap:
            total, count = clusters[-1]
            clusters[-1] = (total + v, count + 1)
        else:
            clusters.append((v, 1))
    return tuple((total / count, count) for total, count in clusters)


def _clusters_match(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x[0] - y[0]) <= max(tol, 1e-12) * max(1.0, abs(x[0]))
               and x[1] == y[1] for x, y in zip(a, b))


def _auto_trunc(*ops: StructuredOperator) -> int:
    """Starting truncation: always covers the finite corner with headroom,
    never smaller than 64 even for trivial corners.  Given several operators,
    it covers the largest corner and bandwidth among them, as a linear
    combination of them generically needs."""
    corner = max(t.corner_size for t in ops)
    width = max(t.bandwidth for t in ops)
    need = 2 * corner + 4 * width + 32
    return int(min(max(64, need), TRUNC_CAP))


def _all_above(band: np.ndarray, level: float) -> bool:
    """Whether every eigenvalue of the Hermitian matrix held in lower band
    storage exceeds ``level``: band - level*I has a banded Cholesky
    factorization exactly when it is positive definite."""
    shifted = band.copy()
    shifted[0] -= level
    try:
        cholesky_banded(shifted, overwrite_ab=True, lower=True)
    except np.linalg.LinAlgError:
        return False
    return True


def discrete_eigs_below(t: StructuredOperator, bound: float, tol: float = 1e-8,
                        n: int | None = None, cap: int = TRUNC_CAP) -> DiscreteEigenReport:
    """Eigenvalues of a positive (self-adjoint, real symbol) operator strictly
    below ``bound``, certified by agreement of truncations at n and 2n.

    Eigenvalues within tol of the bound are assigned to the essential level
    and only counted in ``near_boundary``.  Each truncation goes to LAPACK in
    lower band storage; when its Cholesky factorization shows every
    eigenvalue above bound + tol, nothing is listed, and otherwise only the
    eigenvalues up to bound + tol are computed.  The report is kept in t's
    memo under its arguments.
    """
    return memoized(t, ("discrete_eigs_below", bound, tol, n, cap),
                    lambda: _discrete_eigs_below(t, bound, tol, n, cap))


def _discrete_eigs_below(t, bound, tol, n, cap) -> DiscreteEigenReport:
    sym = symbol(t)
    scale = max(1.0, t.magnitude())
    if not sym.is_real(1e-12):
        raise NotHermitian("operator symbol is not real")
    if selfadjoint_defect(t) > 1e-12 * scale:
        raise NotHermitian("operator is not self-adjoint to 1e-12")
    ess_min = symbol_min_modulus_signed(sym)
    if bound > ess_min + max(tol, 1e-10) * scale:
        raise ValueError(f"bound {bound} exceeds the essential minimum {ess_min}")
    if n is None:
        n = _auto_trunc(t)

    def eigs_at(size):
        band = t.lower_band(size)
        if _all_above(band, bound + tol):
            return (), 0
        vals = eig_banded(band, lower=True, eigvals_only=True,
                          select="v", select_range=(-np.inf, bound + tol))
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


def _loop_turns(log_f, loops):
    """Total winding around 0 of a function along closed polygons, or None.

    ``log_f`` maps an array of points to log f there (any branch; NaN
    where f cannot be evaluated).  Each loop starts with 128 points evenly
    spaced in arc length, and every gap across which log f changes by more
    than pi/4 (phase wrapped to (-pi, pi]) is halved, all loops in one batch
    per round, until none does.  None means a NaN or more than
    ``LOOP_BUDGET`` points in all."""
    paths = []
    for v in loops:
        lengths = np.abs(np.roll(v, -1) - v)
        paths.append((v, np.concatenate([[0.0], np.cumsum(lengths)]), lengths))

    def points(path, s):
        v, cum, lengths = path
        i = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(v) - 1)
        return v[i] + (s - cum[i]) / lengths[i] * (np.roll(v, -1)[i] - v[i])

    params = [np.zeros(0)] * len(paths)
    values = [np.zeros(0, dtype=complex)] * len(paths)
    new = [np.linspace(0.0, cum[-1], 128, endpoint=False) for _, cum, _ in paths]
    total = 0
    while any(len(s) for s in new):
        total += sum(len(s) for s in new)
        if total > LOOP_BUDGET:
            return None
        got = log_f(np.concatenate([points(path, s) for path, s in zip(paths, new)]))
        if np.isnan(got).any():
            return None
        turns = 0.0
        for i, path in enumerate(paths):
            got_i, got = got[: len(new[i])], got[len(new[i]):]
            order = np.argsort(np.concatenate([params[i], new[i]]))
            params[i] = np.concatenate([params[i], new[i]])[order]
            values[i] = np.concatenate([values[i], got_i])[order]
            step = np.roll(values[i], -1) - values[i]
            phase = (step.imag + np.pi) % (2 * np.pi) - np.pi
            turns += np.sum(phase) / (2 * np.pi)
            gaps = np.flatnonzero(np.hypot(step.real, phase) > np.pi / 4)
            ends = np.append(params[i][1:], path[1][-1])
            new[i] = 0.5 * (params[i][gaps] + ends[gaps])
    return turns


def schur_eigenvalues(t: StructuredOperator, loops, contains, scale: float):
    """Eigenvalues of T = T(a) + K, a with both positive and negative
    offsets, inside a region D at winding 0 given by its boundary ``loops``
    (D on their left) and its membership mask ``contains``.

    Past m = len(window), T is exactly T(a), so lam at winding 0 is an
    eigenvalue iff the m-by-m Schur complement
    S(lam) = (T - lam)[:m, :m] - Q G(lam) R is singular, with
    Q = T[:m, m:m+q], R = T[m:m+p, :m] and G(lam) the leading q-by-p block
    of T(a - lam)^(-1) (``_wiener_hopf_block``).  Newton on det S refines
    the eigenvalues at winding 0 of a section of size m + 8 (p + q) into
    zeros, and the argument principle on det S, divided by the zeros found,
    counts the zeros still missing in D; when some are, the seeds come once
    more from a section four times as large.  A zero is simple unless the
    count asks for more, and then each zero's multiplicity is counted on a
    small circle around it.  The scale ``scale`` sets Newton's difference
    step and stopping rule.

    Returns (((value, multiplicity), ...) sorted by real then imaginary
    part, certified), where certified says the multiplicities add up to
    the count."""
    m = len(t.window)
    w = len(t.tails) // 2
    offsets = np.flatnonzero(t.tails) - w
    p, q = int(offsets.max()), int(-offsets.min())
    window = t.window
    q_block = t._block(m, m + q)[:, m:]
    r_block = t._block(m + p, m)[m:, :]
    eye = np.eye(m)

    def schur(lam, g):
        return window - lam[:, None, None] * eye - q_block @ g @ r_block

    def log_det(lam):
        g, ok = _wiener_hopf_block(t.tails, lam)
        out = np.empty(lam.size, dtype=complex)
        chunk = max(1, 2 ** 17 // (m * m))     # at most 2 MB of matrices at once
        for lo in range(0, lam.size, chunk):
            part = slice(lo, lo + chunk)
            sign, logabs = np.linalg.slogdet(schur(lam[part], g[part]))
            out[part] = logabs + 1j * np.angle(sign)
        out[~ok] = np.nan
        return out

    h = 1e-8 * scale

    def newton(lam):
        for _ in range(50):
            g, ok = _wiener_hopf_block(t.tails, [lam, lam + h, lam - h])
            if not ok.all():
                return None
            slope = -eye - q_block @ ((g[1] - g[2]) / (2 * h)) @ r_block
            try:
                step = 1.0 / np.trace(np.linalg.solve(schur(np.array([lam]), g[:1])[0],
                                                      slope))
            except np.linalg.LinAlgError:       # S(lam) exactly singular
                return lam
            lam -= step
            if abs(step) <= 1e-12 * scale:
                return lam
        return None

    zeros = np.zeros(0, dtype=complex)
    window_eigs = np.linalg.eigvals(window)
    outside = window_eigs[~contains(window_eigs)]
    # a zero near the curve has a slowly decaying eigenvector, which a small
    # section may not resolve: when the count shows zeros missing, the seeds
    # come once more from a section four times as large
    for size in (m + 8 * (p + q), 4 * (m + 8 * (p + q))):
        seeds = np.linalg.eigvals(t.truncate(size))
        for seed in seeds[_wiener_hopf_block(t.tails, seeds)[1]]:   # at winding 0
            z = newton(complex(seed))
            if z is not None and np.all(np.abs(zeros - z) > 1e-7 * scale):
                zeros = np.append(zeros, z)
        zeros = zeros[np.lexsort((zeros.imag, zeros.real))]
        inside = zeros[contains(zeros)]
        # det S ~ (-lam)^m far out.  Divided by (lam - z) for every zero z
        # found and by (lam - mu) for every eigenvalue mu of the window
        # outside D, it winds around D once per zero missed: the divisor
        # winds once around each zero found in D and not at all around
        # points outside D.  The division also flattens the phase near the
        # zeros found and along the square, so that few samples follow it.
        roots = np.concatenate([zeros, outside])

        def deflated(lam):
            return log_det(lam) - np.sum(np.log(lam[:, None] - roots), axis=1)

        missing = _loop_turns(deflated, loops)
        if missing is None:
            return tuple((z, 1) for z in inside), False
        missing = round(missing)
        if missing == 0:
            return tuple((z, 1) for z in inside), True
    found = []
    for z in inside:
        gap = min([abs(z - y) for y in zeros if y != z], default=np.inf)
        circle = z + min(1e-4 * scale, 0.4 * gap) * np.exp(2j * np.pi * np.arange(16) / 16)
        turns = _loop_turns(log_det, [circle]) if contains(circle).all() else None
        if turns is None:
            return tuple((z, 1) for z in inside), False
        found.append((z, round(turns)))
    return tuple(found), (all(k >= 1 for _, k in found)
                          and sum(k - 1 for _, k in found) == missing)


def symbol_min_modulus_signed(sym) -> float:
    """Minimum of a real symbol over the circle (signed, not |a|), read at
    the projected roots of sum k c_k z^k, its critical points."""
    if set(sym.coeffs) <= {0}:
        return float(sym.coeffs.get(0, 0j).real)
    critical = _laurent_roots({k: k * c for k, c in sym.coeffs.items()})[1]
    if not critical.size:   # c_0 + c_k z^k, real only up to its tiny c_k
        critical = np.ones(1)
    return float(np.min(sym.evaluate(critical).real))


def operator_norm(t: StructuredOperator, tol: float = 1e-8,
                  n: int | None = None, cap: int = TRUNC_CAP) -> float:
    """Operator norm via max(symbol modulus, largest truncation singular value).

    The symbol supremum equals the essential norm and dominates the slowly
    converging Toeplitz part; truncation singular values capture the discrete
    part and increase monotonically to the norm.  The value is kept in t's
    memo under the arguments.
    """
    return memoized(t, ("operator_norm", tol, n, cap),
                    lambda: _operator_norm(t, tol, n, cap))


def _operator_norm(t, tol, n, cap) -> float:
    ess = symbol_max_modulus(symbol(t))
    if n is None:
        n = _auto_trunc(t)

    def candidate(size):
        return max(ess, float(np.linalg.norm(t.truncate(size), 2)))

    size = n
    value = candidate(size)
    while 2 * size <= cap:
        nxt = candidate(2 * size)
        if abs(nxt - value) <= tol * max(1.0, nxt):
            return nxt
        value = nxt
        size *= 2
    raise NotStabilized(
        f"operator norm still changing at truncation {size} (last {value})")


def min_modulus(t: StructuredOperator, tol: float = 1e-8,
                n: int | None = None) -> float:
    """Minimum modulus m(T): sqrt of the bottom of spectrum(T*T), read as 0
    when that bottom is at most ROUNDING_MULTIPLE * eps * max(1, magnitude
    of T*T)."""
    g = gram(t)
    ess = symbol_min_modulus_signed(symbol(g))
    report = discrete_eigs_below(g, ess, tol=tol, n=n)
    if not report.stabilized:
        raise NotStabilized("discrete spectrum below the essential level "
                            "did not stabilize")
    bottom = min([ess] + [v.real if isinstance(v, complex) else v
                          for v, _ in report.eigenvalues])
    # the banded solver leaves a zero bottom anywhere within a few
    # eps * scale of 0, and the square root would lift that to ~1e-8
    if bottom <= ROUNDING_MULTIPLE * np.finfo(float).eps * max(1.0, g.magnitude()):
        return 0.0
    return float(np.sqrt(bottom))


def positive_truncations(band_at, tol: float, scale: float, n: int,
                         cap: int):
    """Tri-state positivity of a self-adjoint operator from its truncations.

    ``band_at(size)`` returns the leading size-by-size corner in lower band
    storage.  Every truncation is a compression of the operator, so by
    Cauchy interlacing an eigenvalue below -tol*scale at any size proves
    non-positivity: the answer is "no" at the first size that shows one,
    without waiting for the n / 2n agreement.  Otherwise the eigenvalues
    below -tol are clustered at sizes n, 2n, ... up to ``cap``, and two
    consecutive lists that match give "yes".

    Returns (verdict, value): the lowest eigenvalue of the deciding
    truncation for "no", the most negative cluster (0.0 when none) for
    "yes", and None for "undetermined".
    """
    size, previous = n, None
    while True:
        band = band_at(size)
        if not _all_above(band, -tol * scale):
            lowest = eig_banded(band, lower=True, eigvals_only=True,
                                select="i", select_range=(0, 0))
            return "no", float(lowest[0])
        if _all_above(band, -tol):
            clusters = ()
        else:
            vals = eig_banded(band, lower=True, eigvals_only=True,
                              select="v", select_range=(-np.inf, -tol))
            clusters = cluster_values(vals[vals < -tol].tolist(),
                                      MERGE_FACTOR * tol)
        if previous is not None and _clusters_match(previous, clusters, tol):
            return "yes", min((v for v, _ in clusters), default=0.0)
        if 2 * size > cap:
            return "undetermined", None
        size, previous = 2 * size, clusters


def positivity_verdict(d: StructuredOperator, tol: float,
                       n: int | None = None):
    """Tri-state positivity of a self-adjoint structured operator.

    Returns (verdict, witness) with verdict in {"yes", "no", "undetermined"}.
    The essential part is tested on the symbol, the discrete part on the
    truncations of ``d`` by ``positive_truncations``.
    """
    scale = max(1.0, d.magnitude())
    sym = symbol(d)
    if not sym.is_real(1e-12):
        raise NotHermitian("operator is not self-adjoint (complex symbol)")
    if selfadjoint_defect(d) > 1e-12 * scale:
        raise NotHermitian("operator is not self-adjoint to 1e-12")
    ess_min = symbol_min_modulus_signed(sym)
    if ess_min < -tol * scale:
        return "no", {"symbol_min": ess_min}
    verdict, value = positive_truncations(
        d.lower_band, tol, scale, n if n is not None else _auto_trunc(d),
        TRUNC_CAP)
    if verdict == "undetermined":
        return verdict, {"symbol_min": ess_min, "reason": "not stabilized"}
    return verdict, {"symbol_min": ess_min, "most_negative_eigenvalue": value}
