"""Desk-scale numerics on the finite corner: past m = len(window) an
operator is exactly the Toeplitz operator of its symbol.

For self-adjoint H = T(b) + K and lam < min b, T(b - lam) is positive
definite, so by Haynsworth's inertia additivity H has as many eigenvalues
below lam as S(lam) = (H - lam)[:m, :m] - Q G(lam) Q* has negative ones,
G(lam) the leading block of T(b - lam)^(-1) (``_eigs_below``).  Isolated
eigenvalues of a non-normal T(a) + K at winding 0 are the zeros of the same
Schur complement (``schur_eigenvalues``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StructuredOperator, gram, memoized, selfadjoint_defect
from .errors import ConvergenceFailure, NotHermitian, NotStabilized
from .symbols import (_block_from_roots, _boundary_block, _laurent_roots,
                      _segment_box, _split_roots, _tail_span, _wiener_hopf_block,
                      _zero_winding_mask, spectral_area, symbol)

TRUNC_CAP = 4096            # largest dense matrix hermitian_eig accepts
MERGE_FACTOR = 100.0        # eigenvalues within 100*tol are one cluster
ROUNDING_MULTIPLE = 8.0     # eigenvalues of T*T within 8 eps * scale of 0 are 0
LOOP_BUDGET = 2 ** 15       # most points at which _loop_turns evaluates
TIP_SHIFT = 0.382 * 2 * np.pi / 128     # no first point on a tip of a curve traced back and forth
EDGE_INSET = 2 * np.pi * 2.0 ** -28     # a piece's first points lie this far inside its ends
FALSI_STEPS = 100           # most S(lam) evaluations per eigenvalue in _eigs_below


@dataclass(frozen=True)
class EigenSystem:
    """Full Hermitian eigendecomposition with a residual certificate."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # orthonormal columns
    residual: float             # max ||Mv - lambda v|| / ||M||


@dataclass(frozen=True)
class DiscreteEigenReport:
    """Eigenvalues found strictly below the queried bound.

    stabilized is False when the roots of b - lam did not split at some lam
    where S(lam) was evaluated, or an eigenvalue did not converge.  corner
    is m, the size of S; near_boundary counts eigenvalues assigned to the
    essential level rather than listed (see ``discrete_eigs_below``)."""

    eigenvalues: tuple          # ((value, multiplicity), ...)
    stabilized: bool
    corner: int
    near_boundary: int = 0


def hermitian_eig(matrix) -> EigenSystem:
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
    if residual > 1e-8:
        raise ConvergenceFailure(f"residual {residual:.3e} exceeds 1e-8")
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


def frobenius_within(matrix, limit: float) -> bool:
    """Whether ||matrix||_F >= ||matrix||_2 lies within limit, rounding included."""
    return float(np.linalg.norm(matrix)) * (1.0 + 1e-8) <= limit


def _greedy_clusters(pairs, gap: float) -> list:
    """Greedy clustering of (value, member) pairs by ascending real part: a
    value joins the latest cluster whose running mean is within ``gap``; a
    mean more than ``gap`` left of a value is out of reach for good."""
    clusters, live = [], []
    for v, member in pairs:
        live = [c for c in live if v.real - c[0].real / len(c[1]) <= gap]
        near = [c for c in live if abs(v - c[0] / len(c[1])) <= gap]
        if near:
            near[-1][0] += v
            near[-1][1].append(member)
        else:
            clusters.append([v, [member]])
            live.append(clusters[-1])
    return [(total / len(members), members) for total, members in clusters]


def cluster_values(values, gap: float):
    """Greedy 1-d / complex clustering; returns ((center, count), ...)."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    return tuple((mean, len(members))
                 for mean, members in _greedy_clusters(zip(vals, vals), gap))


def _corner_coupling(t: StructuredOperator):
    """Q = T[:m, m:m+q] and R = T[m:m+p, :m], which couple the window to
    the rest; p, q from ``_tail_span``."""
    m = len(t.window)
    p, q = _tail_span(t.tails)
    return t._block(m, m + q)[:, m:], t._block(m + p, m)[m:, :]


def _schur_spectra(h: StructuredOperator, lam, coupling):
    """The ascending eigenvalues of S(lam) = (H - lam)[:m, :m] - Q G(lam) R
    for self-adjoint H, one row per real lam, and where the roots of b - lam
    split (elsewhere the row means nothing); (Q, R) is ``coupling``, from
    ``_corner_coupling(h)``, neither of them empty, and G(lam) from
    ``_wiener_hopf_block``.

    S(lam) is Hermitian, but the computed G is not: where roots of b - lam
    pair up near the circle the split into a_+ a_- is ill-conditioned, and
    its error lands in the anti-Hermitian part of Q G R (7e-8 of 19, 2.5e-9
    below an essential level 0) while the Hermitian part stays accurate.
    The eigenvalues are those of the Hermitian part, not of one triangle."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    q_block, r_block = coupling
    g, ok = _wiener_hopf_block(h.tails, lam)
    s = h.window - lam[:, None, None] * np.eye(len(h.window)) - q_block @ g @ r_block
    return np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(-1, -2))), ok


def _paranormal_counts(quartic: StructuredOperator, quad: StructuredOperator,
                       shifts, tol: float):
    """(counts, valid) per shift s: the eigenvalues of q(s) = A - 2s B + s^2
    below lam = -tol max(1, magnitude of q(s)), from S(lam) at one size m,
    A = ``quartic``, B = ``quad``, symbol(A) = g^2, g = symbol(B) real on
    the circle.  With tau = -lam, (g - s)^2 + tau = (g - mu)(g - conj mu),
    mu = s + i sqrt(tau), and as g(1/conj z) = conj g(z) the roots of
    z^q'(g - conj mu) are 1/conj r for the roots r of z^q'(g - mu): one
    companion of size p' + q' gives them all, and p = q = p' + q'."""
    s = np.asarray(shifts, dtype=float)
    m = max(len(quartic.window), len(quad.window))
    (pg, qg), wb = _tail_span(quad.tails), len(quad.tails) // 2
    w, d = max(len(quartic.tails) // 2, wb), pg + qg
    block = (quartic._block(m + d, m + d)
             + (-2.0 * s[:, None, None]) * quad._block(m + d, m + d))
    window = block[:, :m, :m] + (s * s)[:, None, None] * np.eye(m)
    tails = (np.pad(quartic.tails, w - len(quartic.tails) // 2)
             + (-2.0 * s[:, None]) * np.pad(quad.tails, w - wb))
    tails[:, w] += s * s
    tau = tol * np.maximum(1.0, np.maximum(np.abs(tails).max(axis=1),
                                           np.abs(window).max(axis=(1, 2), initial=0.0)))
    window = window + tau[:, None, None] * np.eye(m)
    q_block, r_block, ok = block[:, :m, m:], block[:, m:, :m], np.ones(s.size, dtype=bool)
    if q_block.size and r_block.size:
        poly = quad.tails[wb - qg: wb + pg + 1][::-1]        # g_p' first
        inner, outer, ok = _split_roots(poly, s + 1j * np.sqrt(tau), qg)
        window = window - q_block @ _block_from_roots(
            np.concatenate([inner, 1 / outer.conj()], axis=1),
            np.concatenate([outer, 1 / inner.conj()], axis=1), poly[0] ** 2) @ r_block
    mu = np.linalg.eigvalsh(0.5 * (window + window.conj().swapaxes(-1, -2)))
    return np.count_nonzero(mu < 0, axis=1), ok


def _eigs_below(h: StructuredOperator, level: float, first: int | None = None):
    """The eigenvalues of self-adjoint H = T(b) + K below level < min b,
    ascending (only the ``first`` lowest when given), and whether every S
    was valid and every eigenvalue converged.  dS/dlam <= -I, so the j-th
    eigenvalue of S(lam) falls with slope at most -1 and crosses 0 at the
    j-th of H: regula falsi (Illinois) in the tightest bracket all
    evaluations give finds it to a few rounding units of S."""
    if not len(h.window) or 0 in _tail_span(h.tails):
        vals = np.linalg.eigvalsh(h.window)
        return vals[vals < level][:first], True
    # |H| <= its largest absolute row sum, so lo lies below every eigenvalue
    bound = float(np.abs(h.window).sum(axis=1).max() + np.abs(h.tails).sum())
    lo = min(level, -bound) - bound
    rounding = 4 * np.finfo(float).eps
    lams = [lo, level]
    coupling = _corner_coupling(h)
    mus, ok = _schur_spectra(h, lams, coupling)
    if not ok.all():
        return np.zeros(0), False
    mus, found = list(mus), []
    for j in range(int(np.count_nonzero(mus[1] < 0)))[:first]:
        a, fa = max((x, mu[j]) for x, mu in zip(lams, mus) if mu[j] >= 0)
        b, fb = min((x, mu[j]) for x, mu in zip(lams, mus) if mu[j] < 0)
        side = 0
        for _ in range(FALSI_STEPS):
            x = b - fb * (b - a) / (fb - fa)
            x = x if a < x < b else 0.5 * (a + b)
            mu, valid = _schur_spectra(h, x, coupling)
            if not valid[0]:
                return np.sort(found), False
            lams.append(x)
            mus.append(mu[0])
            fx = mu[0][j]
            if (abs(fx) <= rounding * max(bound, np.abs(mu[0]).max())
                    or b - a <= rounding * bound):
                break
            if fx >= 0:
                a, fa, fb = x, fx, fb * (0.5 if side > 0 else 1.0)
            else:
                b, fb, fa = x, fx, fa * (0.5 if side < 0 else 1.0)
            side = 1 if fx >= 0 else -1
        else:
            return np.sort(found), False
        found.append(x)
    return np.sort(found), True


def discrete_eigs_below(t: StructuredOperator, bound: float,
                        tol: float = 1e-8) -> DiscreteEigenReport:
    """Eigenvalues of a self-adjoint operator with real symbol strictly
    below ``bound`` <= ess + max(tol, 1e-10) scale, ess its essential level:
    those below min(bound, ess) - tol in clusters, and in ``near_boundary``
    the count of the rest below min(bound, ess - tol / 100).  The report is
    kept in t's memo under its arguments."""
    return memoized(t, ("discrete_eigs_below", bound, tol),
                    lambda: _discrete_eigs_below(t, bound, tol))


def _selfadjoint_level(t: StructuredOperator):
    """(minimum of the real symbol, scale = max(1, magnitude)) of self-adjoint
    t; NotHermitian for a complex symbol or a defect above 1e-12 scale."""
    scale = max(1.0, t.magnitude())
    sym = symbol(t)
    if not sym.is_real(1e-12):
        raise NotHermitian("operator symbol is not real")
    if selfadjoint_defect(t) > 1e-12 * scale:
        raise NotHermitian("operator is not self-adjoint to 1e-12")
    return symbol_min_modulus_signed(sym), scale


def _discrete_eigs_below(t, bound, tol) -> DiscreteEigenReport:
    ess_min, scale = _selfadjoint_level(t)
    if bound > ess_min + max(tol, 1e-10) * scale:
        raise ValueError(f"bound {bound} exceeds the essential minimum {ess_min}")
    vals, ok = _eigs_below(t, min(bound, ess_min - 0.01 * tol))
    below = vals[vals < min(bound, ess_min) - tol]
    return DiscreteEigenReport(cluster_values(below.tolist(), MERGE_FACTOR * tol),
                               ok, len(t.window), len(vals) - len(below))


def _loop_turns(log_f, cuts):
    """Total winding around 0 of a function along closed paths, or None.

    ``log_f(i, s)`` maps arrays of path indices (sorted) and parameters s
    in [0, 2 pi) to (log f, side): log f on any branch, NaN where f cannot
    be evaluated; side 1 or -1 where the path is read forward or backward,
    0 where it is not read.  ``cuts[i]`` splits path i into pieces, each
    read on its own.  Each path starts with 128 points, evenly spaced, and
    a point ``EDGE_INSET`` each side of every cut, and all take their new
    points in one batch per round.  A step between points of one piece and
    one side counts with that side, halved while log f changes by more than
    pi/4 (phase wrapped to (-pi, pi]); any other step is neither read nor
    halved.  Returns the nearest integer, or None for a NaN where a
    path is read, more than ``LOOP_BUDGET`` points, or a total more than
    0.1 from it."""
    cuts = [np.sort(cut) for cut in cuts]
    points = [np.zeros((3, 0), dtype=complex)] * len(cuts)         # s, log f, side
    new = [np.mod(np.concatenate([np.arange(128) * (2 * np.pi / 128), cut - EDGE_INSET,
                                  cut + EDGE_INSET]), 2 * np.pi) for cut in cuts]
    total = 0
    while any(len(s) for s in new):
        total += sum(len(s) for s in new)
        if total > LOOP_BUDGET:
            return None
        got = np.array(log_f(np.repeat(np.arange(len(cuts)), [len(s) for s in new]),
                             np.concatenate(new)))
        if np.isnan(got[0, got[1] != 0]).any():
            return None
        got[0, got[1] == 0], turns = 0.0, 0.0
        for i, k in enumerate(len(s) for s in new):
            merged = np.concatenate([points[i], np.vstack([new[i], got[:, :k]])], axis=1)
            points[i], got = merged[:, np.argsort(merged[0].real)], got[:, k:]
            s, side = points[i][0].real, points[i][2].real
            gap = np.diff(np.append(s, s[0] + 2 * np.pi))
            step = np.diff(np.append(points[i][1], points[i][1, :1]))
            phase = (step.imag + np.pi) % (2 * np.pi) - np.pi
            piece = np.searchsorted(cuts[i], s) % max(len(cuts[i]), 1)
            read = (piece == np.roll(piece, -1)) & (side == np.roll(side, -1)) & (side != 0)
            turns += np.sum(np.where(read, side * phase, 0.0)) / (2 * np.pi)
            split = read & (np.hypot(step.real, phase) > np.pi / 4)
            new[i] = np.mod((s + 0.5 * gap)[split], 2 * np.pi)
    return round(turns) if abs(turns - round(turns)) <= 0.1 else None


def _schur_newton(t: StructuredOperator, coupling, seeds, scale: float) -> list:
    """Newton's method on det S(lam) of ``schur_eigenvalues`` from every seed
    at once; (Q, R) is ``coupling``.  A step is 1 / trace(S^(-1) S'), with
    S' = -I - Q G' R and G' the central difference of G over
    h = 1e-8 ``scale``; G at lam and lam +- h comes for every seed still
    moving from one ``_wiener_hopf_block`` call, and S^(-1) S' from one
    batched solve (seed by seed when some S is exactly singular, and then
    that lam is its zero).  A seed stops when its step is at most
    1e-12 ``scale``.  Returns one entry per seed: its zero, or None where
    the roots of a - lam did not split q : p at lam or lam +- h (so seeds
    off winding 0 give None) or 50 steps did not converge."""
    q_block, r_block = coupling
    eye = np.eye(len(t.window))
    h = 1e-8 * scale
    lam = np.array(seeds, dtype=complex)
    zeros = [None] * lam.size
    active = np.arange(lam.size)
    for _ in range(50):
        if not active.size:
            break
        x, k = lam[active], active.size
        g, ok = _wiener_hopf_block(t.tails, np.concatenate([x, x + h, x - h]))
        ok = ok[:k] & ok[k:2 * k] & ok[2 * k:]
        g = g.reshape(3, k, *g.shape[1:])[:, ok]
        active, x = active[ok], x[ok]
        s = t.window - x[:, None, None] * eye - q_block @ g[0] @ r_block
        slope = -eye - q_block @ ((g[1] - g[2]) / (2 * h)) @ r_block
        moving = np.ones(active.size, dtype=bool)
        try:
            trace = np.trace(np.linalg.solve(s, slope), axis1=1, axis2=2)
        except np.linalg.LinAlgError:           # some S(lam) exactly singular
            trace = np.ones(active.size, dtype=complex)
            for i in range(active.size):
                try:
                    trace[i] = np.trace(np.linalg.solve(s[i], slope[i]))
                except np.linalg.LinAlgError:
                    zeros[active[i]], moving[i] = x[i], False
        step = 1.0 / trace
        x = x - step
        done = moving & (np.abs(step) <= 1e-12 * scale)
        for i in np.flatnonzero(done):
            zeros[active[i]] = x[i]
        lam[active] = x
        active = active[moving & ~done]
    return zeros


def schur_eigenvalues(t: StructuredOperator, scale: float):
    """Eigenvalues of T = T(a) + K, a with both positive and negative
    offsets, at winding 0 inside the circle |lam| = R = 1.05 ``scale`` and
    farther than 1e-6 ``scale`` from the curve (``_zero_winding_mask``).

    Past m = len(window), T is exactly T(a), so lam at winding 0 is an
    eigenvalue iff the m-by-m Schur complement
    S(lam) = (T - lam)[:m, :m] - Q G(lam) R is singular, with
    Q = T[:m, m:m+q], R = T[m:m+p, :m] and G(lam) the leading q-by-p block
    of T(a - lam)^(-1) (``_wiener_hopf_block``).  Newton on det S refines
    the eigenvalues at winding 0 of a section of size m + 8 (p + q) into
    zeros, and the argument principle on det S, divided by the zeros found,
    counts the zeros still missing; when some are, the seeds come once more
    from a section four times as large.  The count runs along the circle and
    the curve itself, cut at the crossing parameters of the curve's edge
    table (``spectral_area``, built once per operator): each edge with a
    winding-0 face beside it is read with that face on its left and S's
    boundary values from it (``_boundary_block``).  Where the arrangement
    gave up, the list is uncertified.  A segment curve, which folds onto
    itself, is cut out as a box (``_segment_box``).  A zero is simple
    unless the count asks for more, and then each zero's multiplicity is
    counted on a small circle around it.  ``scale`` also sets Newton's
    step and stopping rule.

    Returns (((value, multiplicity), ...) sorted by real then imaginary
    part, certified), where certified says the multiplicities add up to
    the count."""
    m = len(t.window)
    p, q = _tail_span(t.tails)
    q_block, r_block = _corner_coupling(t)
    radius = 1.05 * scale

    def contains(z):
        return _zero_winding_mask(t, z, radius, 1e-6 * scale)

    def loop(f):            # the path s -> f(s) off the curve, read forward
        def at(s):
            lam = f(s)
            g, ok = _wiener_hopf_block(t.tails, lam)
            return lam, g, ok, np.ones(s.size)
        return at, np.zeros(0)

    def count(paths, roots):
        """The turns of det S / prod (lam - r), r in ``roots``, along
        ``paths`` ((map of s to (lam, G, ok, side), cuts) pairs), or None."""
        def log_f(i, s):       # i is sorted by path
            lam, g, ok, side = (np.concatenate(x) for x in zip(
                *[paths[j][0](s[i == j]) for j in np.unique(i)]))
            out = np.empty(s.size, dtype=complex)
            chunk = max(1, 2 ** 17 // (m * m))     # at most 2 MB of matrices at once
            for lo in range(0, s.size, chunk):
                part = slice(lo, lo + chunk)
                sign, logabs = np.linalg.slogdet(t.window - lam[part, None, None] * np.eye(m)
                                                 - q_block @ g[part] @ r_block)
                out[part] = logabs + 1j * np.angle(sign)
            out[~ok] = np.nan
            return out - np.sum(np.log(lam[:, None] - roots), axis=1), side

        return _loop_turns(log_f, [cut for _, cut in paths])

    zeros = np.zeros(0, dtype=complex)
    window_eigs = np.linalg.eigvals(t.window)
    outside = window_eigs[~(_wiener_hopf_block(t.tails, window_eigs)[1]
                            & (np.abs(window_eigs) < radius))]
    sym = symbol(t)
    paths = [loop(lambda s: radius * np.exp(1j * s))]
    edges = np.reshape(spectral_area(t).edges, (-1, 3))     # start, stop, side in b's theta
    if sym.is_segment():
        paths.append(loop(_segment_box(sym, 1e-6 * scale)))
    elif len(edges):
        start, side = edges[:, 0], edges[:, 2]

        def curve(s):       # s + TIP_SHIFT is b's parameter
            theta = s + TIP_SHIFT
            at = side[np.searchsorted(start, theta % (2 * np.pi), side="right") - 1]
            return (*_boundary_block(t.tails, theta, at), np.ones(s.size, dtype=bool), at)

        paths.append((curve, np.mod(start - TIP_SHIFT, 2 * np.pi) if len(start) > 1
                       else np.zeros(0)))
    else:                   # the arrangement gave up: nothing to count along
        paths = []
    # a zero near the curve has a slowly decaying eigenvector, which a small
    # section may not resolve: when the count shows zeros missing, the seeds
    # come once more from a section four times as large
    for size in (m + 8 * (p + q), 4 * (m + 8 * (p + q))):
        seeds = np.linalg.eigvals(t.truncate(size))
        seeds = seeds[_wiener_hopf_block(t.tails, seeds)[1]]        # at winding 0
        for z in _schur_newton(t, (q_block, r_block), seeds, scale):
            if z is not None and np.all(np.abs(zeros - z) > 1e-7 * scale):
                zeros = np.append(zeros, z)
        zeros = zeros[np.lexsort((zeros.imag, zeros.real))]
        inside = zeros[contains(zeros)]
        # det S ~ (-lam)^m far out.  Divided by (lam - z) for every zero z
        # found and by (lam - mu) for every eigenvalue mu of the window not
        # at winding 0 in the disc, it winds around the contour once per
        # zero missed: the divisor winds once around each zero found inside
        # and not at all around points outside.  The division also flattens
        # the phase near the zeros found and along the circle, so that few
        # samples follow it.
        missing = count(paths, np.concatenate([zeros, outside])) if paths else None
        if missing is None:
            return tuple((z, 1) for z in inside), False
        if missing == 0:
            return tuple((z, 1) for z in inside), True
    found = []
    for z in inside:
        gap = min([abs(z - y) for y in zeros if y != z], default=np.inf)
        r = min(1e-4 * scale, 0.4 * gap)
        circle = z + r * np.exp(2j * np.pi * np.arange(16) / 16)
        turns = (count([loop(lambda s: z + r * np.exp(1j * s))], np.zeros(0))
                 if contains(circle).all() else None)
        if turns is None:
            return tuple((z, 1) for z in inside), False
        found.append((z, turns))
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


def operator_norm(t: StructuredOperator) -> float:
    """Operator norm: sqrt of the top of T*T, the larger of max |a|^2 and
    the lowest eigenvalue of -T*T below its essential level less
    1e-8 max(1, max |a|^2).  The value is kept in t's memo; raises
    NotStabilized where the roots of the symbol do not split."""
    def compute():
        negated = gram(t).scaled(-1.0)
        level = symbol_min_modulus_signed(symbol(negated))
        top, ok = _eigs_below(negated, level - 1e-8 * max(1.0, abs(level)), first=1)
        if not ok:
            raise NotStabilized("the roots of the symbol of T*T did not split "
                                "above its essential level")
        return float(np.sqrt(max(0.0, -level, *-top)))
    return memoized(t, "operator_norm", compute)


def _gram_levels_below(t: StructuredOperator, tol: float):
    """(T*T, its essential level, ``discrete_eigs_below`` of T*T there)."""
    g = gram(t)
    level = symbol_min_modulus_signed(symbol(g))
    return g, level, discrete_eigs_below(g, level, tol)


def min_modulus(t: StructuredOperator) -> float:
    """Minimum modulus m(T): sqrt of the bottom of spectrum(T*T), read as 0
    when that bottom is at most ROUNDING_MULTIPLE * eps * max(1, magnitude
    of T*T)."""
    g, ess, report = _gram_levels_below(t, 1e-8)
    if not report.stabilized:
        raise NotStabilized("the roots of the symbol of T*T did not split "
                            "below its essential level")
    bottom = min([ess] + [v for v, _ in report.eigenvalues])
    # the eigenvalues of S leave a zero bottom anywhere within a few
    # eps * scale of 0, and the square root would lift that to ~1e-8
    if bottom <= ROUNDING_MULTIPLE * np.finfo(float).eps * max(1.0, g.magnitude()):
        return 0.0
    return float(np.sqrt(bottom))


def positivity_verdict(d: StructuredOperator, tol: float):
    """Tri-state positivity of a self-adjoint structured operator.

    Returns (verdict, witness) with verdict in {"yes", "no", "undetermined"}:
    "no" when the symbol's minimum or an eigenvalue lies below -tol scale,
    scale = max(1, magnitude of d).  most_negative_eigenvalue is the lowest
    eigenvalue below min(-tol, symbol_min - tol) (0.0 when none);
    "undetermined" means the roots of the symbol did not split there.
    """
    ess_min, scale = _selfadjoint_level(d)
    if ess_min < -tol * scale:
        return "no", {"symbol_min": ess_min}
    lowest, ok = _eigs_below(d, min(-tol, ess_min - tol), first=1)
    if not ok:
        return "undetermined", {"symbol_min": ess_min,
                                "reason": "roots of the symbol did not split "
                                          "off the circle"}
    value = float(lowest[0]) if len(lowest) else 0.0
    return ("no" if value < -tol * scale else "yes",
            {"symbol_min": ess_min, "most_negative_eigenvalue": value})
