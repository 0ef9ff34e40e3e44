"""Reference operator: the earlier descriptor-based layout of T(a) + K.

Each band is a ``DiagonalDescriptor`` (finite prefix plus constant tail) and
each rank-one term is kept apart as a ``FiniteRankTerm``; ``compose`` keeps
the rank terms as terms.  It is an independent oracle for the (tails, window)
representation of ``opspectra.core``, with ``apply`` as its entry oracle,
and it also offers the constructors
that ``opspectra.suites`` and ``perfbench/workloads.py`` call, so the same
random operators can be built in both layouts (``reference_constructors``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import pytest


@dataclass(frozen=True)
class DiagonalDescriptor:
    prefix: tuple = ()
    tail: complex = 0j

    def __post_init__(self):
        tail = complex(self.tail)
        prefix = tuple(complex(v) for v in self.prefix)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    def value_at(self, m: int) -> complex:
        return self.prefix[m] if m < len(self.prefix) else self.tail

    def values(self, length: int) -> np.ndarray:
        out = np.full(length, self.tail, dtype=complex)
        p = min(len(self.prefix), length)
        out[:p] = self.prefix[:p]
        return out

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0


@dataclass(frozen=True)
class FiniteRankTerm:
    left: tuple = ()
    right: tuple = ()

    def __post_init__(self):
        for name in ("left", "right"):
            vec = tuple(complex(v) for v in getattr(self, name))
            while vec and vec[-1] == 0:
                vec = vec[:-1]
            object.__setattr__(self, name, vec)

    def is_zero(self) -> bool:
        return not self.left or not self.right


@dataclass(frozen=True)
class StructuredOperator:
    bands: dict = field(default_factory=dict)
    rank_terms: tuple = ()

    def __post_init__(self):
        bands = {}
        for offset, desc in dict(self.bands).items():
            if not isinstance(desc, DiagonalDescriptor):
                desc = DiagonalDescriptor(*desc)
            if not desc.is_zero():
                bands[int(offset)] = desc
        terms = tuple(t if isinstance(t, FiniteRankTerm) else FiniteRankTerm(*t)
                      for t in self.rank_terms)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "rank_terms",
                           tuple(t for t in terms if not t.is_zero()))

    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k in self.bands), default=0)

    @property
    def rank_support(self) -> int:
        return max((max(len(t.left), len(t.right)) for t in self.rank_terms),
                   default=0)

    @property
    def corner_size(self) -> int:
        return max([len(d.prefix) for d in self.bands.values()]
                   + [self.rank_support, 0])

    def adjoint(self):
        bands = {-k: DiagonalDescriptor(tuple(v.conjugate() for v in d.prefix),
                                        d.tail.conjugate())
                 for k, d in self.bands.items()}
        return StructuredOperator(bands, tuple(FiniteRankTerm(t.right, t.left)
                                               for t in self.rank_terms))

    def __add__(self, other):
        bands = {}
        for k in set(self.bands) | set(other.bands):
            a = self.bands.get(k, DiagonalDescriptor())
            b = other.bands.get(k, DiagonalDescriptor())
            n = max(len(a.prefix), len(b.prefix))
            prefix = tuple(a.value_at(m) + b.value_at(m) for m in range(n))
            bands[k] = DiagonalDescriptor(prefix, a.tail + b.tail)
        return StructuredOperator(bands, self.rank_terms + other.rank_terms)

    def scaled(self, c):
        c = complex(c)
        bands = {k: DiagonalDescriptor(tuple(c * v for v in d.prefix), c * d.tail)
                 for k, d in self.bands.items()}
        terms = tuple(FiniteRankTerm(tuple(c * v for v in t.left), t.right)
                      for t in self.rank_terms)
        return StructuredOperator(bands, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

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


def structure(t):
    """(bandwidth, corner_size, rows, cols) of an ``opspectra.core`` operator,
    read off the window entries that differ from T(a), with T(a) built here
    entry by entry: rows (cols) is one past the last row (column) of such an
    entry."""
    m, w = len(t.window), len(t.tails) // 2
    offsets = np.subtract.outer(np.arange(m), np.arange(m))
    toeplitz_part = np.where(np.abs(offsets) <= w,
                             t.tails[np.clip(offsets + w, 0, 2 * w)], 0)
    rows, cols = np.nonzero(t.window != toeplitz_part)
    if not rows.size:
        return w, 0, 0, 0
    return (max(w, int(np.max(np.abs(rows - cols)))),
            int(np.max(np.minimum(rows, cols))) + 1,
            int(rows.max()) + 1, int(cols.max()) + 1)


def apply(t, x) -> np.ndarray:
    """Exact image of a finitely supported vector under an ``opspectra.core``
    operator, from one dense block of T (trailing zeros trimmed)."""
    x = np.asarray(x, dtype=complex)
    out = t._block(len(x) + t.bandwidth, len(x)) @ x
    nz = np.flatnonzero(out)
    return out[: nz[-1] + 1] if len(nz) else np.zeros(0, dtype=complex)


# -- constructors, under the names opspectra.core gives them ----------------------

def toeplitz(coeffs):
    return StructuredOperator({k: ((), c) for k, c in coeffs.items()})


def constant_diagonal(c):
    return toeplitz({0: c})


def right_shift():
    return toeplitz({1: 1.0})


def diagonal(prefix, tail):
    return StructuredOperator({0: (tuple(prefix), tail)})


def weighted_shift(weight_prefix, weight_tail):
    return StructuredOperator({1: (tuple(weight_prefix), weight_tail)})


def rank_one(left, right):
    return StructuredOperator({}, ((tuple(left), tuple(right)),))


def from_dense_corner(matrix):
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    return StructuredOperator({k: (tuple(np.diagonal(m, offset=-k)), 0.0)
                               for k in range(-(n - 1), n)})


def embed_at(t, start):
    bands = {k: ((0j,) * start + d.prefix, d.tail) for k, d in t.bands.items()}
    terms = tuple(((0j,) * start + r.left, (0j,) * start + r.right)
                  for r in t.rank_terms)
    return StructuredOperator(bands, terms)


CONSTRUCTORS = ("StructuredOperator", "toeplitz", "constant_diagonal",
                "right_shift", "diagonal", "weighted_shift", "rank_one",
                "from_dense_corner", "embed_at")


@contextlib.contextmanager
def reference_constructors(*modules):
    """Within the block, the given modules build reference operators: each
    constructor name they hold is bound to the one above."""
    this = globals()
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            for name in CONSTRUCTORS:
                if hasattr(module, name):
                    patch.setattr(module, name, this[name])
        yield
