"""Banded Toeplitz operators plus a finite corner on l2(N).

Every member of the representable class is T = T(a) + K: the Toeplitz
operator of a Laurent polynomial a plus a finite matrix K in the top-left
corner.  An instance stores exactly that, as two read-only complex arrays:

- ``tails``, the coefficients a_k for k = -w..w, where w is the largest |k|
  with a_k != 0 (``tails[k + w]`` is a_k);
- ``window``, the full entries T[:M, :M], where M is the smallest size past
  which every entry equals its tail.

The class is closed under addition, scaling, composition and adjoints.
Diagonals that converge to their limit without reaching it (genuinely
compact, non-banded parts) are outside the class and are not encoded.

Conventions: the band offset is k = row - column (the right shift sits at
offset +1), and the position along a diagonal is m = min(row, column), which
is invariant under transposition.  ``DiagonalDescriptor`` (one diagonal as a
prefix plus a tail) and ``FiniteRankTerm`` (a rank-one map) are input and
serialization forms: the constructor accepts them, adds the rank terms into
the window, and ``bands`` gives an operator back as descriptors.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

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

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0


@dataclass(frozen=True)
class FiniteRankTerm:
    """Rank-one map x -> <x, right> * left, stored as two finite vectors."""

    left: tuple = ()
    right: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "left", _coerce_vector(self.left))
        object.__setattr__(self, "right", _coerce_vector(self.right))


def _toeplitz_block(tails, rows: int, cols: int) -> np.ndarray:
    """T(a) on the leading rows-by-cols window, a given by ``tails``."""
    w = len(tails) // 2
    out = np.zeros((rows, cols), dtype=complex)
    flat, step = out.reshape(-1), cols + 1
    for k in np.flatnonzero(tails) - w:
        r0, c0 = max(k, 0), max(-k, 0)
        length = min(rows - r0, cols - c0)
        if length > 0:
            start = r0 * cols + c0
            flat[start: start + length * step: step] = tails[k + w]
    return out


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


class StructuredOperator:
    """T(a) + K in canonical form: ``tails`` and ``window`` (see the module
    docstring).  Entry (i, j) is ``window[i, j]`` inside the window and the
    tail a_(i-j) outside it.  Finite bandwidth and bounded entries make every
    instance a bounded operator.

    ``StructuredOperator(bands, rank_terms)`` builds an operator from
    ``{offset: DiagonalDescriptor or (prefix, tail)}`` and a sequence of
    ``FiniteRankTerm`` or ``(left, right)`` pairs; each rank term is added
    into the window.  ``==`` compares the two arrays, so a band prefix and a
    rank term describing the same matrix compare equal.

    Each instance keeps a private memo of derived data (see ``memoized``);
    equality, ``repr`` and pickling ignore it.
    """

    __slots__ = ("tails", "window", "_structure", "_derived", "__weakref__")

    def __init__(self, bands=None, rank_terms=()):
        descs = {int(k): d if isinstance(d, DiagonalDescriptor)
                 else DiagonalDescriptor(*d) for k, d in dict(bands or {}).items()}
        terms = [t if isinstance(t, FiniteRankTerm) else FiniteRankTerm(*t)
                 for t in rank_terms]
        w = max((abs(k) for k, d in descs.items() if d.tail != 0), default=0)
        tails = np.zeros(2 * w + 1, dtype=complex)
        for k, d in descs.items():
            if d.tail != 0:
                tails[k + w] = d.tail
        m = max([len(d.prefix) + abs(k) for k, d in descs.items() if d.prefix]
                + [max(len(t.left), len(t.right)) for t in terms] + [0])
        window = _toeplitz_block(tails, m, m)
        flat = window.reshape(-1)
        for k, d in descs.items():
            start = max(k, 0) * m + max(-k, 0)
            flat[start: start + len(d.prefix) * (m + 1): m + 1] = d.prefix
        if terms:
            left = np.zeros((m, len(terms)), dtype=complex)
            right = np.zeros((m, len(terms)), dtype=complex)
            for r, t in enumerate(terms):
                left[: len(t.left), r] = t.left
                right[: len(t.right), r] = t.right
            window += left @ right.conj().T
        self._set(tails, window)

    @classmethod
    def _of(cls, tails, window) -> "StructuredOperator":
        """Canonical operator from tail coefficients (odd length, centred on
        offset 0) and a square leading window of full entries."""
        self = object.__new__(cls)
        self._set(tails, window)
        return self

    def _set(self, tails, window):
        tails = np.asarray(tails, dtype=complex)
        window = np.asarray(window, dtype=complex)
        if not (np.all(np.isfinite(tails)) and np.all(np.isfinite(window))):
            raise ValueError("non-finite entry in operator data")
        w = len(tails) // 2
        offsets = np.flatnonzero(tails) - w
        keep = int(np.max(np.abs(offsets))) if offsets.size else 0
        tails = tails[w - keep: w + keep + 1]
        rows, cols = np.nonzero(window != _toeplitz_block(tails, *window.shape))
        # bandwidth, corner_size, one past the last deviating row and column
        structure = ((max(keep, int(np.abs(rows - cols).max())),
                      int(np.minimum(rows, cols).max()) + 1,
                      int(rows.max()) + 1, int(cols.max()) + 1)
                     if rows.size else (keep, 0, 0, 0))
        m = max(structure[2:])
        object.__setattr__(self, "tails", _frozen(tails))
        object.__setattr__(self, "window", _frozen(window[:m, :m]))
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"StructuredOperator is immutable ({name})")

    def __reduce__(self):
        return StructuredOperator._of, (self.tails, self.window)

    def __eq__(self, other):
        if not isinstance(other, StructuredOperator):
            return NotImplemented
        return (np.array_equal(self.tails, other.tails)
                and np.array_equal(self.window, other.window))

    __hash__ = None

    def __repr__(self):
        return (f"StructuredOperator(tails={self.tails.tolist()!r}, "
                f"window={self.window.tolist()!r})")

    # -- structural metadata -------------------------------------------------

    @property
    def bandwidth(self) -> int:
        """Largest |k| over the nonzero tails and the window entries that
        differ from their tail."""
        return self._structure[0]

    @property
    def corner_size(self) -> int:
        """Largest min(i, j) + 1 over the window entries that differ from
        their tail: past it, every diagonal is constant."""
        return self._structure[1]

    # -- input and serialization views ---------------------------------------

    @property
    def bands(self) -> dict:
        """The operator as ``{offset: DiagonalDescriptor}``, one per nonzero
        diagonal, with the window's entries as prefixes."""
        w, bw = len(self.tails) // 2, self.bandwidth
        out = {}
        for k in range(-bw, bw + 1):
            tail = self.tails[k + w] if abs(k) <= w else 0j
            desc = DiagonalDescriptor(
                tuple(np.diagonal(self.window, -k).tolist()), tail)
            if not desc.is_zero():
                out[k] = desc
        return out

    @property
    def rank_terms(self) -> tuple:
        """Always empty: rank terms are added into the window on input."""
        return ()

    # -- exact algebra -------------------------------------------------------

    def _block(self, rows: int, cols: int) -> np.ndarray:
        """Leading rows-by-cols window of T as a new dense array."""
        out = _toeplitz_block(self.tails, rows, cols)
        m = len(self.window)
        out[: min(rows, m), : min(cols, m)] = self.window[:rows, :cols]
        return out

    def adjoint(self) -> "StructuredOperator":
        return memoized(self, "adjoint", lambda: StructuredOperator._of(
            self.tails[::-1].conj(), self.window.conj().T))

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        wa, wb = len(self.tails) // 2, len(other.tails) // 2
        w = max(wa, wb)
        tails = np.zeros(2 * w + 1, dtype=complex)
        tails[w - wa: w + wa + 1] = self.tails
        tails[w - wb: w + wb + 1] += other.tails
        m = max(len(self.window), len(other.window))
        return StructuredOperator._of(tails, self._block(m, m) + other._block(m, m))

    def __neg__(self) -> "StructuredOperator":
        return self.scaled(-1)

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return self + other.scaled(-1)

    def scaled(self, c) -> "StructuredOperator":
        c = _coerce(c)
        return StructuredOperator._of(c * self.tails, c * self.window)

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__

    def compose(self, other: "StructuredOperator") -> "StructuredOperator":
        """Exact matrix product self @ other, closed in the class.

        Write each operator as T(a) + D, with a the Laurent polynomial of the
        tails and D the window's deviations from T(a).  Widom's formula
        T(a)T(b) = T(ab) - H(a)H(b~) gives

            AB = T(ab) - H(a)H(b~) + D_A B + T(a) D_B,

        so the product's tails are the Laurent product ab (np.convolve, with
        its two arguments in a fixed order, so that T*T and TT* get bit-equal
        tails), and an entry can deviate from its tail only inside the Hankel
        corner or the supports of D_A B and T(a) D_B.  Those entries come
        from one dense product of leading windows; every other entry is the
        tail value itself, which keeps windows small and deterministic.
        """
        ka, kb = self.bandwidth, other.bandwidth
        tails = np.convolve(*sorted((self.tails, other.tails),
                                    key=lambda v: v.tobytes()))
        # H(a)H(b~) lives in the h_rows-by-h_cols corner: the nonzero
        # subdiagonal tails of a and superdiagonal tails of b reach past index 0
        wa, wb = len(self.tails) // 2, len(other.tails) // 2
        h_rows = max(np.flatnonzero(self.tails[wa + 1:]) + 1, default=0)
        h_cols = max(wb - np.flatnonzero(other.tails[:wb]), default=0)
        (_, _, ra, ca), (_, _, rb, cb) = self._structure, other._structure
        rows = max(ra, rb + h_rows if rb else 0, h_rows if h_cols else 0)
        cols = max(ca + h_cols if ca else 0, cb, h_cols if h_rows else 0)
        m = max(rows, cols) if rows and cols else 0
        window = _toeplitz_block(tails, m, m)
        if m:
            inner = min(rows + ka, cols + kb)
            a, b = self._block(rows, inner), other._block(inner, cols)
            toeplitz_a = _toeplitz_block(self.tails, rows, inner)
            toeplitz_b = _toeplitz_block(other.tails, inner, cols)
            # 0/1 masks of the deviations D and of the nonzero-tail diagonals,
            # multiplied to count the terms that can reach each entry
            dev_a, dev_b = (a != toeplitz_a) * 1.0, (b != toeplitz_b) * 1.0
            tail_a, tail_b = (toeplitz_a != 0) * 1.0, (toeplitz_b != 0) * 1.0
            live = (dev_a @ (dev_b + tail_b) + tail_a @ dev_b) > 0
            live[:h_rows, :h_cols] = True
            window[:rows, :cols][live] = (a @ b)[live]
        return StructuredOperator._of(tails, window)

    def __matmul__(self, other):
        return self.compose(other)

    # -- dense views ---------------------------------------------------------

    def truncate(self, n: int) -> np.ndarray:
        """Leading n-by-n corner as a dense complex matrix."""
        if n < 1:
            raise ValueError("truncation size must be >= 1")
        return self._block(n, n)

    def lower_band(self, n: int) -> np.ndarray:
        """Leading n-by-n corner in LAPACK lower band storage.

        Row u holds the u-th subdiagonal: ``out[u, j] = T[j + u, j]``, for u
        up to min(bandwidth, n - 1).  Only the lower triangle is stored,
        which describes the corner exactly when T is self-adjoint.
        """
        if n < 1:
            raise ValueError("truncation size must be >= 1")
        width = min(self.bandwidth, n - 1)
        w, m = len(self.tails) // 2, min(len(self.window), n)
        out = np.zeros((width + 1, n), dtype=complex)
        for u in range(width + 1):
            if u <= w:
                out[u, : n - u] = self.tails[w + u]
            out[u, : max(m - u, 0)] = np.diagonal(self.window[:m, :m], -u)
        return out

    def is_zero(self, tol: float = 0.0) -> bool:
        """Entrywise zero test on the tails and the window; exact when
        tol == 0."""
        if tol < 0:
            raise ValueError("tolerance must be >= 0")
        return self.magnitude() <= tol

    def magnitude(self) -> float:
        """Crude scale bound: max entry magnitude over tails and the window."""
        return float(max(np.max(np.abs(self.tails)),
                         np.max(np.abs(self.window), initial=0.0)))


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


def self_commutator(t: StructuredOperator) -> StructuredOperator:
    """T*T - TT*, self-adjoint by construction (verified on the window)."""
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
    |a_k - conj(a_-k)| over the tails, and |W - W^H| on the window, past
    which every entry of T - T* is a tail."""
    tails, window = t.tails, t.window
    return float(max(np.max(np.abs(tails - tails[::-1].conj())),
                     np.max(np.abs(window - window.conj().T), initial=0.0)))


def is_selfadjoint(t: StructuredOperator, tol: float = 0.0) -> bool:
    return selfadjoint_defect(t) <= tol


# -- constructors ------------------------------------------------------------

def toeplitz(coeffs: dict) -> StructuredOperator:
    """Pure band operator from Laurent coefficients {offset: value}."""
    w = max((abs(int(k)) for k in coeffs), default=0)
    tails = np.zeros(2 * w + 1, dtype=complex)
    for k, c in coeffs.items():
        tails[int(k) + w] = _coerce(c)
    return StructuredOperator._of(tails, np.zeros((0, 0)))


def zero() -> StructuredOperator:
    return toeplitz({})


def identity() -> StructuredOperator:
    return toeplitz({0: 1.0})


def constant_diagonal(c) -> StructuredOperator:
    return toeplitz({0: c})


def diagonal(prefix, tail) -> StructuredOperator:
    return StructuredOperator._of([_coerce(tail)],
                                  np.diag(np.asarray(prefix, dtype=complex)))


def right_shift() -> StructuredOperator:
    return toeplitz({1: 1.0})


def weighted_shift(weight_prefix, weight_tail) -> StructuredOperator:
    """Shift e_m -> w_m e_{m+1} with eventually constant weights."""
    weights = np.asarray(weight_prefix, dtype=complex)
    return StructuredOperator._of([0, 0, _coerce(weight_tail)],
                                  np.diag(weights, -1))


def rank_one(left, right) -> StructuredOperator:
    return StructuredOperator({}, ((left, right),))


def from_dense_corner(matrix) -> StructuredOperator:
    """Embed a finite matrix into the top-left corner (zero elsewhere)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("corner matrix must be square")
    return StructuredOperator._of([0], m)


def embed_at(t: StructuredOperator, start: int) -> StructuredOperator:
    """Shift an operator down the diagonal: entry (i, j) -> (i+start, j+start).

    The entries with min(i, j) < start are zero, also on the tail diagonals.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    m = max(len(t.window), len(t.tails) // 2)
    window = np.zeros((start + m, start + m), dtype=complex)
    window[start:, start:] = t._block(m, m)
    return StructuredOperator._of(t.tails, window)
