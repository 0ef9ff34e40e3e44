"""Banded operators on l2(N) with eventually constant diagonals plus finite rank.

The representable class consists of operators whose matrix is a finite set of
diagonals, each eventually constant, plus finitely many rank-one terms.  This
class is closed under addition, scaling, composition and adjoints, and every
member is a Toeplitz operator plus a finite-rank perturbation.  Diagonals that
converge to their limit without reaching it (genuinely compact, non-banded
parts) are outside the class and are not encoded.

Conventions: the band offset is k = row - column (the right shift sits at
offset +1), and the position along a diagonal is m = min(row, column), which
is invariant under transposition.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np


def _coerce(value):
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite scalar {value!r} in operator data")
    return z


def _coerce_vector(seq):
    vec = tuple(_coerce(v) for v in seq)
    while vec and vec[-1] == 0:
        vec = vec[:-1]
    return vec


@dataclass(frozen=True)
class DiagonalDescriptor:
    """One diagonal: an explicit finite prefix followed by a constant tail.

    Canonical form never stores trailing prefix entries equal to the tail.
    """

    prefix: tuple = ()
    tail: complex = 0j

    def __post_init__(self):
        tail = _coerce(self.tail)
        prefix = tuple(_coerce(v) for v in self.prefix)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    def value_at(self, m: int) -> complex:
        if m < len(self.prefix):
            return self.prefix[m]
        return self.tail

    def values(self, length: int) -> np.ndarray:
        """The first ``length`` entries of the diagonal."""
        out = np.full(length, self.tail, dtype=complex)
        p = min(len(self.prefix), length)
        if p:
            out[:p] = self.prefix[:p]
        return out

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0

    def conjugated(self) -> "DiagonalDescriptor":
        return DiagonalDescriptor(tuple(v.conjugate() for v in self.prefix),
                                  self.tail.conjugate())

    def scaled(self, c: complex) -> "DiagonalDescriptor":
        return DiagonalDescriptor(tuple(c * v for v in self.prefix), c * self.tail)


@dataclass(frozen=True)
class FiniteRankTerm:
    """Rank-one map x -> <x, right> * left, stored as two finite vectors."""

    left: tuple = ()
    right: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "left", _coerce_vector(self.left))
        object.__setattr__(self, "right", _coerce_vector(self.right))

    def is_zero(self) -> bool:
        return not self.left or not self.right

    def swapped(self) -> "FiniteRankTerm":
        return FiniteRankTerm(self.right, self.left)

    def support(self) -> int:
        return max(len(self.left), len(self.right))


@dataclass(frozen=True)
class StructuredOperator:
    """A banded-plus-finite-rank operator in canonical form.

    Matrix entry (i, j) is ``bands[i-j].value_at(min(i, j))`` plus the sum of
    ``left[i] * conj(right[j])`` over the rank terms.  Finite bandwidth and
    bounded diagonals make every instance a bounded operator.

    Each instance keeps a private memo of derived data (see ``memoized``).
    It is not a field, so equality, ``repr`` and pickling ignore it.
    """

    bands: dict = field(default_factory=dict)
    rank_terms: tuple = ()

    def __post_init__(self):
        bands = {}
        for offset, desc in dict(self.bands).items():
            if not isinstance(desc, DiagonalDescriptor):
                desc = DiagonalDescriptor(*desc)
            if not desc.is_zero():
                bands[int(offset)] = desc
        terms = tuple(
            t if isinstance(t, FiniteRankTerm) else FiniteRankTerm(*t)
            for t in self.rank_terms
        )
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "rank_terms",
                           tuple(t for t in terms if not t.is_zero()))
        object.__setattr__(self, "_derived", {})

    def __reduce__(self):
        return StructuredOperator, (self.bands, self.rank_terms)

    # -- structural metadata -------------------------------------------------

    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k in self.bands), default=0)

    @property
    def max_prefix_len(self) -> int:
        return max((len(d.prefix) for d in self.bands.values()), default=0)

    @property
    def rank_support(self) -> int:
        return max((t.support() for t in self.rank_terms), default=0)

    @property
    def corner_size(self) -> int:
        """Size beyond which every entry is a pure band tail."""
        return max(self.max_prefix_len, self.rank_support)

    # -- pointwise access ----------------------------------------------------

    def band_entry(self, i: int, j: int) -> complex:
        d = self.bands.get(i - j)
        return d.value_at(min(i, j)) if d is not None else 0j

    def entry(self, i: int, j: int) -> complex:
        val = self.band_entry(i, j)
        for t in self.rank_terms:
            if i < len(t.left) and j < len(t.right):
                val += t.left[i] * t.right[j].conjugate()
        return val

    # -- exact algebra -------------------------------------------------------

    def adjoint(self) -> "StructuredOperator":
        def compute():
            bands = {-k: d.conjugated() for k, d in self.bands.items()}
            return StructuredOperator(bands,
                                      tuple(t.swapped() for t in self.rank_terms))
        return memoized(self, "adjoint", compute)

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        bands = {}
        for k in set(self.bands) | set(other.bands):
            a = self.bands.get(k, DiagonalDescriptor())
            b = other.bands.get(k, DiagonalDescriptor())
            n = max(len(a.prefix), len(b.prefix))
            prefix = tuple(a.value_at(m) + b.value_at(m) for m in range(n))
            bands[k] = DiagonalDescriptor(prefix, a.tail + b.tail)
        return StructuredOperator(bands, self.rank_terms + other.rank_terms)

    def __neg__(self) -> "StructuredOperator":
        return self.scaled(-1)

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + other.scaled(-1)

    def scaled(self, c) -> "StructuredOperator":
        c = _coerce(c)
        bands = {k: d.scaled(c) for k, d in self.bands.items()}
        terms = tuple(FiniteRankTerm(tuple(c * v for v in t.left), t.right)
                      for t in self.rank_terms)
        return StructuredOperator(bands, terms)

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    def _band_apply(self, x) -> np.ndarray:
        """Band part applied to a finite vector (length len(x) + bandwidth)."""
        x = np.asarray(x, dtype=complex)
        return self._band_block(len(x) + self.bandwidth, len(x)) @ x

    def _band_adjoint_apply(self, x) -> np.ndarray:
        """Adjoint of the band part applied to a finite vector."""
        x = np.asarray(x, dtype=complex)
        return self._band_block(len(x), len(x) + self.bandwidth).conj().T @ x

    def apply(self, x) -> np.ndarray:
        """Exact image of a finitely supported vector (trailing zeros trimmed)."""
        x = np.asarray(x, dtype=complex)
        n_out = max(len(x) + self.bandwidth, self.rank_support, 1)
        out = np.zeros(n_out, dtype=complex)
        band_part = self._band_apply(x)
        out[: len(band_part)] += band_part
        for t in self.rank_terms:
            m = min(len(x), len(t.right))
            coeff = np.vdot(t.right[:m], x[:m])
            if coeff != 0:
                out[: len(t.left)] += coeff * np.asarray(t.left)
        nz = np.nonzero(out)[0]
        return out[: nz[-1] + 1] if len(nz) else np.zeros(0, dtype=complex)

    def compose(self, other: "StructuredOperator") -> "StructuredOperator":
        """Exact matrix product self @ other, closed in the class.

        Write each band part as T(a) + D, with a the Laurent polynomial of the
        tails and D the prefix deviations.  Widom's formula
        T(a)T(b) = T(ab) - H(a)H(b~) gives

            AB = T(ab) - H(a)H(b~) + D_A B + T(a) D_B,

        so the product's tails are the Laurent product ab (np.convolve), and
        an entry can deviate from its tail only inside the Hankel corner or
        the supports of D_A B and T(a) D_B.  Those entries come from one dense
        product of band truncations; every other entry is the tail value
        itself, which keeps canonical prefixes short and deterministic.
        """
        ka, kb = self.bandwidth, other.bandwidth
        tails = np.convolve(self._tail_vector(), other._tail_vector())
        # H(a)H(b~) lives in the h_rows-by-h_cols corner: h_rows subdiagonals
        # of T(a) and h_cols superdiagonals of T(b) reach past index 0
        h_rows = max([k for k, d in self.bands.items() if d.tail != 0] + [0])
        h_cols = max([-k for k, d in other.bands.items() if d.tail != 0] + [0])
        ra, ca = self._deviation_extent()
        rb, cb = other._deviation_extent()
        rows = max(ra, rb + h_rows if rb else 0, h_rows if h_cols else 0)
        cols = max(ca + h_cols if ca else 0, cb, h_cols if h_rows else 0)
        if rows and cols:
            inner = min(rows + ka, cols + kb)
            dense = self._band_block(rows, inner) @ other._band_block(inner, cols)
            dev_a, tail_a = self._support_masks(rows, inner)
            dev_b, tail_b = other._support_masks(inner, cols)
            live = (dev_a @ (dev_b + tail_b) + tail_a @ dev_b) > 0
            live[:h_rows, :h_cols] = True
        bands = {}
        for k in range(-(ka + kb), ka + kb + 1):
            tail = complex(tails[k + ka + kb])
            prefix = ()
            if rows and cols:
                mask = np.diagonal(live, offset=-k)
                hits = np.flatnonzero(mask)
                if len(hits):
                    stop = hits[-1] + 1
                    diag = np.diagonal(dense, offset=-k)[:stop]
                    prefix = tuple(np.where(mask[:stop], diag, tail).tolist())
            if prefix or tail != 0:
                bands[k] = DiagonalDescriptor(prefix, tail)

        terms = []
        for t in other.rank_terms:                      # (band of self) @ term
            terms.append(FiniteRankTerm(tuple(self._band_apply(t.left)), t.right))
        for t in self.rank_terms:                       # term @ (band of other)
            terms.append(FiniteRankTerm(
                t.left, tuple(other._band_adjoint_apply(t.right))))
        for ta in self.rank_terms:                      # term @ term
            for tb in other.rank_terms:
                m = min(len(tb.left), len(ta.right))
                coeff = complex(np.vdot(ta.right[:m], tb.left[:m]))
                terms.append(FiniteRankTerm(tuple(coeff * v for v in ta.left),
                                            tb.right))
        return StructuredOperator(bands, tuple(terms))

    def __matmul__(self, other):
        return self.compose(other)

    # -- dense views ---------------------------------------------------------

    def _tail_vector(self) -> np.ndarray:
        """Tails at offsets -bandwidth..bandwidth (the Laurent coefficients)."""
        w = self.bandwidth
        out = np.zeros(2 * w + 1, dtype=complex)
        for k, d in self.bands.items():
            out[k + w] = d.tail
        return out

    def _deviation_extent(self):
        """(rows, cols) of the smallest leading window holding every prefix
        entry; (0, 0) for a pure Toeplitz band part."""
        rows = max((len(d.prefix) + max(k, 0) for k, d in self.bands.items()
                    if d.prefix), default=0)
        cols = max((len(d.prefix) + max(-k, 0) for k, d in self.bands.items()
                    if d.prefix), default=0)
        return rows, cols

    def _window_diagonals(self, rows: int, cols: int):
        """(descriptor, flat start, length) of each band that meets the
        leading rows-by-cols window; a diagonal is the flat slice
        ``start : start + length * (cols + 1) : cols + 1``."""
        for k, d in self.bands.items():
            r0, c0 = max(k, 0), max(-k, 0)
            length = min(rows - r0, cols - c0)
            if length > 0:
                yield d, r0 * cols + c0, length

    def _band_block(self, rows: int, cols: int) -> np.ndarray:
        """Band part (rank terms excluded) on the leading rows-by-cols window."""
        out = np.zeros((rows, cols), dtype=complex)
        flat, step = out.reshape(-1), cols + 1
        for d, start, length in self._window_diagonals(rows, cols):
            flat[start: start + length * step: step] = d.values(length)
        return out

    def _support_masks(self, rows: int, cols: int):
        """0/1 float masks of the prefix entries and of the nonzero-tail
        diagonals on a rows-by-cols window, ready for counting matmuls."""
        dev = np.zeros((rows, cols))
        tail = np.zeros((rows, cols))
        dev_flat, tail_flat, step = dev.reshape(-1), tail.reshape(-1), cols + 1
        for d, start, length in self._window_diagonals(rows, cols):
            p = min(len(d.prefix), length)
            dev_flat[start: start + p * step: step] = 1.0
            if d.tail != 0:
                tail_flat[start: start + length * step: step] = 1.0
        return dev, tail

    def _rank_block(self, s: int) -> np.ndarray:
        """Sum of the rank terms on the leading s-by-s window."""
        left = np.zeros((s, len(self.rank_terms)), dtype=complex)
        right = np.zeros((s, len(self.rank_terms)), dtype=complex)
        for r, t in enumerate(self.rank_terms):
            left[: min(s, len(t.left)), r] = t.left[: s]
            right[: min(s, len(t.right)), r] = t.right[: s]
        return left @ right.conj().T

    def truncate(self, n: int) -> np.ndarray:
        """Leading n-by-n corner as a dense complex matrix."""
        if n < 1:
            raise ValueError("truncation size must be >= 1")
        out = self._band_block(n, n)
        s = min(n, self.rank_support)
        out[:s, :s] += self._rank_block(s)
        return out

    def lower_band(self, n: int) -> np.ndarray:
        """Leading n-by-n corner in LAPACK lower band storage.

        Row u holds the u-th subdiagonal: ``out[u, j] = T[j + u, j]``.  The
        width is max(bandwidth, rank_support - 1), capped at n - 1, so the
        rank terms fold into the band.  Only the lower triangle is stored,
        which describes the corner exactly when T is self-adjoint.
        """
        if n < 1:
            raise ValueError("truncation size must be >= 1")
        width = min(max(self.bandwidth, self.rank_support - 1), n - 1)
        out = np.zeros((width + 1, n), dtype=complex)
        for k, d in self.bands.items():
            if 0 <= k <= width:
                out[k, : n - k] = d.values(n - k)
        s = min(n, self.rank_support)
        corner = self._rank_block(s)
        for u in range(s):
            out[u, : s - u] += np.diagonal(corner, offset=-u)
        return out

    def is_zero(self, tol: float = 0.0) -> bool:
        """Entrywise zero test; exact when tol == 0.

        Checks all band tails plus one corner truncation that covers every
        prefix entry and the full rank-term support, so cancellations between
        bands and rank terms are detected.
        """
        if tol < 0:
            raise ValueError("tolerance must be >= 0")
        if any(abs(d.tail) > tol for d in self.bands.values()):
            return False
        n = self.corner_size + self.bandwidth + 1
        return bool(np.all(np.abs(self.truncate(n)) <= tol))

    def magnitude(self) -> float:
        """Crude scale bound: max entry magnitude over tails and the corner."""
        scale = max((abs(d.tail) for d in self.bands.values()), default=0.0)
        n = self.corner_size + self.bandwidth + 1
        return max(scale, float(np.max(np.abs(self.truncate(n)))))


# -- module-level operation names -------------------------------------------

def memoized(t: StructuredOperator, key, compute):
    """The value stored under ``key`` in t's memo, or ``compute()``, stored.

    Only immutable results that are pure functions of t and ``key`` belong
    here.  An exception stores nothing, so the next call recomputes.  A
    stored value must not refer back to t: the memo would then keep t alive
    in a reference cycle.
    """
    if key not in t._derived:
        t._derived[key] = compute()
    return t._derived[key]


def adjoint(t: StructuredOperator) -> StructuredOperator:
    return t.adjoint()


def add(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    return a + b


def scale(c, t: StructuredOperator) -> StructuredOperator:
    return t.scaled(c)


def compose(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    return a.compose(b)


def truncate(t: StructuredOperator, n: int) -> np.ndarray:
    return t.truncate(n)


def apply(t: StructuredOperator, x) -> np.ndarray:
    return t.apply(x)


def is_zero(t: StructuredOperator, tol: float = 0.0) -> bool:
    return t.is_zero(tol)


def self_commutator(t: StructuredOperator) -> StructuredOperator:
    """T*T - TT*, self-adjoint by construction (verified on the corner)."""
    def compute():
        d = gram(t) - t.compose(t.adjoint())
        if selfadjoint_defect(d) > 1e-12 * max(1.0, d.magnitude()):  # pragma: no cover
            raise AssertionError("self-commutator lost Hermitian symmetry")
        return d
    return memoized(t, "self_commutator", compute)


def gram(t: StructuredOperator) -> StructuredOperator:
    """T*T."""
    return memoized(t, "gram", lambda: t.adjoint().compose(t))


def selfadjoint_defect(t: StructuredOperator) -> float:
    """Largest entry of T - T*, without building T* or the difference:
    |a_k - conj(a_-k)| over the tails, and |M - M^H| on the leading window
    of size corner_size + bandwidth + 1, past which every entry of T - T*
    is a tail."""
    tails = t._tail_vector()
    window = t.truncate(t.corner_size + t.bandwidth + 1)
    return max(float(np.max(np.abs(tails - tails[::-1].conj()))),
               float(np.max(np.abs(window - window.conj().T))))


def is_selfadjoint(t: StructuredOperator, tol: float = 0.0) -> bool:
    return selfadjoint_defect(t) <= tol


# -- constructors ------------------------------------------------------------

def zero() -> StructuredOperator:
    return StructuredOperator({})


def identity() -> StructuredOperator:
    return StructuredOperator({0: DiagonalDescriptor((), 1.0)})


def constant_diagonal(c) -> StructuredOperator:
    return StructuredOperator({0: DiagonalDescriptor((), c)})


def diagonal(prefix, tail) -> StructuredOperator:
    return StructuredOperator({0: DiagonalDescriptor(tuple(prefix), tail)})


def right_shift() -> StructuredOperator:
    return StructuredOperator({1: DiagonalDescriptor((), 1.0)})


def weighted_shift(weight_prefix, weight_tail) -> StructuredOperator:
    """Shift e_m -> w_m e_{m+1} with eventually constant weights."""
    return StructuredOperator({1: DiagonalDescriptor(tuple(weight_prefix),
                                                     weight_tail)})


def toeplitz(coeffs: dict) -> StructuredOperator:
    """Pure band operator from Laurent coefficients {offset: value}."""
    return StructuredOperator({k: DiagonalDescriptor((), c)
                               for k, c in coeffs.items()})


def rank_one(left, right) -> StructuredOperator:
    return StructuredOperator({}, (FiniteRankTerm(tuple(left), tuple(right)),))


def from_dense_corner(matrix) -> StructuredOperator:
    """Embed a finite matrix into the top-left corner (zero elsewhere)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("corner matrix must be square")
    n = m.shape[0]
    bands = {}
    for k in range(-(n - 1), n):
        diag = np.diagonal(m, offset=-k)  # numpy offset is column - row
        bands[k] = DiagonalDescriptor(tuple(diag), 0.0)
    return StructuredOperator(bands)


def embed_at(t: StructuredOperator, start: int) -> StructuredOperator:
    """Shift an operator down the diagonal: entry (i, j) -> (i+start, j+start)."""
    if start < 0:
        raise ValueError("start must be >= 0")
    bands = {k: DiagonalDescriptor((0j,) * start + d.prefix, d.tail)
             for k, d in t.bands.items()}
    terms = tuple(FiniteRankTerm((0j,) * start + t_.left, (0j,) * start + t_.right)
                  for t_ in t.rank_terms)
    return StructuredOperator(bands, terms)

