"""Dense linear algebra over GF(2) with machine-word packed rows.

Matrices are stored row-major, 64 columns to a ``uint64`` word, least
significant bit first.  Everything rests on two routines:

* :func:`mul`, the one dense product of 0/1 arrays; every layer-map
  product of the codec goes through it.  It has three routes, picked from
  the shape alone.  With at least 64 left rows and 2**25 multiply-adds,
  ``_mul_words`` multiplies packed words: for each 64-column word of the
  left operand, the 256-entry XOR tables of ``_table_xor`` combine the
  right operand's rows that the word's bits name (M4RM), so every entry
  stays one bit until the result is unpacked.  Below that, float32 BLAS
  from 2**12 multiply-adds (exact while the inner dimension stays below
  2**24), and a uint8 matmul for the rest.  ``BitMatrix @`` takes the
  packed route on its own words under the same rule, and :func:`mul`'s
  other routes otherwise.
* ``_reduce``, one in-place Gauss-Jordan pass over the packed rows: each
  pivot is XORed into every other row holding its column, above and below
  alike.  It runs one 64-column stripe (one word) at a time, after M4RI: a
  column loop over two 1-D arrays (each row's stripe word and its mask of
  the stripe's pivot rows absorbed so far) picks the pivots, then up to
  eight 256-entry XOR tables over the stripe's pivot rows apply all of the
  stripe's row operations to the words right of it in one pass.
  Each elimination job has one front-end over it: :func:`rank`,
  :func:`solve` (free variables zero), :class:`PrefactoredSolver` (unique
  solves) and :func:`independent_rows`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInput, json_field, json_int

__all__ = [
    "BitMatrix",
    "BitVector",
    "PrefactoredSolver",
    "mul",
    "vstack",
    "rank",
    "solve",
    "independent_rows",
]

_ONE = np.uint64(1)
# _BITS[b] is the word with only bit b set
_BITS = _ONE << np.arange(64, dtype=np.uint64)
# multiply-adds at which a float32 BLAS product overtakes the uint8 loop
_BLAS_MIN_OPS = 1 << 12
# multiply-adds at which, given 64 left rows, the packed product overtakes
# float32 BLAS; below 64 rows it never does
_PACKED_MIN_OPS = 1 << 25
# float32 holds every integer below this, so shorter dot products are exact
_FLOAT32_EXACT = 1 << 24


def _n_words(cols: int) -> int:
    return (cols + 63) >> 6


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., cols) 0/1 array into (..., n_words) uint64."""
    cols = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (_n_words(cols) * 8,), np.uint8)
    if cols:
        out[..., : (cols + 7) >> 3] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view(np.uint64)


def _unpack_bits(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: the first ``cols`` bits of each row."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=cols, bitorder="little")


def mul(a, b) -> np.ndarray:
    """GF(2) product of 0/1 arrays: ``(..., k) @ (k, m)`` as uint8 bits.

    Three routes, picked from the shape alone.  With at least 64 left rows
    (the leading axes of ``a`` together) and 2**25 multiply-adds, the
    product runs packed in :func:`_mul_words`, at one bit per entry until
    the result is unpacked.  Other products of 2**12 multiply-adds or more
    use float32 BLAS, which is exact only while the inner dimension stays
    below 2**24; the rest, and longer inner dimensions, use a uint8 matmul,
    whose wrap-around mod 256 keeps the parity.
    """
    a = np.asarray(a, np.uint8)
    b = np.asarray(b, np.uint8)
    k, m = b.shape
    # the packed rule implies this one, and most products fail it at once
    if a.size * m >= _BLAS_MIN_OPS:
        rows = a.size // k
        if _packed_wins(rows, k, m):
            words = _mul_words(_pack_bits(a.reshape(rows, k)), _pack_bits(b))
            return _unpack_bits(words, m).reshape(a.shape[:-1] + (m,))
        if k < _FLOAT32_EXACT:
            prod = a.reshape(rows, k).astype(np.float32) @ b.astype(np.float32)
            bits = (prod.astype(np.int32) & 1).astype(np.uint8)
            return bits.reshape(a.shape[:-1] + (m,))
    return (a @ b) & 1


def _packed_wins(rows: int, k: int, m: int) -> bool:
    """Whether a (rows, k) @ (k, m) product takes the packed route."""
    return rows >= 64 and rows * k * m >= _PACKED_MIN_OPS


def _mul_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed GF(2) product of the row words ``a`` (rows x words) and ``b``
    (one row per column of ``a``): for each 64-column word of ``a``,
    :func:`_table_xor` XORs together the 64 rows of ``b`` its bits name
    (Method of Four Russians).  Bits of ``a`` past the last row of ``b``
    are ignored."""
    out = np.zeros((a.shape[0], b.shape[1]), np.uint64)
    stripes = np.ascontiguousarray(a.T)
    for s in range(min(a.shape[1], _n_words(b.shape[0]))):
        out ^= _table_xor(b[s << 6 : (s + 1) << 6], stripes[s])
    return out


class BitMatrix:
    """A rows x cols matrix over GF(2), packed 64 columns per word.

    Attributes:
        rows: Number of rows.
        cols: Number of columns.
        words: Backing ``uint64`` array of shape (rows, ceil(cols/64)).
    """

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        if words is None:
            words = np.zeros((rows, _n_words(cols)), np.uint64)
        self.words = words

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls(n, n)
        i = np.arange(n)
        m.words[i, i >> 6] = _BITS[i & 63]
        return m

    @classmethod
    def from_bits(cls, bits) -> "BitMatrix":
        """Build from any 2-D array-like of 0/1 entries."""
        arr = np.asarray(bits, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array of bits")
        return cls(arr.shape[0], arr.shape[1], _pack_bits(arr))

    # -- inspection -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_bits(self) -> np.ndarray:
        """Return a (rows, cols) uint8 array of the matrix entries."""
        return _unpack_bits(self.words, self.cols)

    def is_zero(self) -> bool:
        return not self.words.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):  # pragma: no cover - mutable, not hashable
        raise TypeError("BitMatrix is mutable and unhashable")

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        if _packed_wins(self.rows, self.cols, other.cols):
            return BitMatrix(self.rows, other.cols, _mul_words(self.words, other.words))
        return BitMatrix.from_bits(mul(self.to_bits(), other.to_bits()))

    def mul_vec(self, vec: "BitVector") -> "BitVector":
        """Matrix-vector product over GF(2)."""
        if vec.n != self.cols:
            raise ValueError("dimension mismatch")
        if self.cols == 0:
            return BitVector.zeros(self.rows)
        # a row's parity is the parity of its popcounts' sum; the uint8
        # product wraps modulo 256, which keeps it, and sums faster than
        # a reduction along the short word axis
        ones = np.ones(self.words.shape[1], np.uint8)
        parity = (np.bitwise_count(self.words & vec.words) @ ones) & 1
        return BitVector(self.rows, _pack_bits(parity))

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_bits(self.to_bits().T)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Return the {"rows", "cols", "data"} dict form; rows as '01' strings."""
        bits = self.to_bits()
        data = ["".join("1" if b else "0" for b in row) for row in bits]
        return {"rows": self.rows, "cols": self.cols, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> "BitMatrix":
        """Inverse of :meth:`to_json`; a malformed object raises InvalidInput."""
        rows, cols = json_field(obj, "rows", json_int), json_field(obj, "cols", json_int)
        data = json_field(obj, "data")
        if not (
            isinstance(data, list)
            and len(data) == rows
            and all(isinstance(s, str) and len(s) == cols and not s.strip("01") for s in data)
        ):
            raise InvalidInput("'data': malformed matrix payload")
        bits = np.array([[ch == "1" for ch in s] for s in data], np.uint8)
        return cls.from_bits(bits.reshape(rows, cols))


def vstack(mats: Sequence[BitMatrix]) -> BitMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch")
    return BitMatrix(sum(m.rows for m in mats), cols, np.concatenate([m.words for m in mats]))


class BitVector:
    """A length-n bit vector packed into uint64 words (LSB-first)."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: np.ndarray | None = None):
        self.n = n
        if words is None:
            words = np.zeros(_n_words(n), np.uint64)
        self.words = words

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n)

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8).ravel() & 1
        return cls(arr.size, _pack_bits(arr))

    def to_bits(self) -> np.ndarray:
        return _unpack_bits(self.words, self.n)

    def __repr__(self) -> str:
        return f"BitVector(n={self.n})"


# ---------------------------------------------------------------------------
# elimination kernel
# ---------------------------------------------------------------------------


def _reduce(words: np.ndarray, n_cols: int):
    """In-place Gauss-Jordan reduction with pivots taken in the first
    ``n_cols`` columns, one 64-column stripe (one word) at a time.

    Column loop: within a stripe only two 1-D arrays change, each row's
    stripe word and ``dep``, a 64-bit mask of the stripe's pivot rows the
    row has absorbed.  For each column the first still-free row holding its
    bit becomes the pivot and is XORed into every other row holding it,
    above and below alike.  A free row is zero left of the current column,
    so the words left of the stripe never change.

    Table pass: every row now equals its value at the stripe's start plus
    the raw pivot rows its mask names.  Up to eight 256-entry XOR tables
    over the stripe's raw pivot rows, one per byte of the mask, apply all
    of those row operations to the words right of the stripe in one pass
    (M4RI: Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).

    On return the first ``rank`` rows hold the pivot rows in pivot order,
    the free rows follow in their original order.  Returns
    (rank, pivot_columns).
    """
    m = words.shape[0]
    free = np.ones(m, np.uint64)  # 1 until the row is a pivot; masks ``hit``
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for s in range((n_cols + 63) >> 6):
        if len(pivot_rows) == m:
            break
        col = words[:, s].copy()
        dep = np.zeros(m, np.uint64)
        prows: list[int] = []
        for b in range(min(64, n_cols - (s << 6))):
            hit = (col >> np.uint64(b)) & _ONE
            cand = hit & free
            p = int(cand.argmax())
            if not cand[p]:
                continue
            hit[p] = 0
            col ^= hit * col[p]
            dep ^= hit * (dep[p] ^ _BITS[len(prows)])
            free[p] = 0
            prows.append(p)
            pivot_cols.append((s << 6) + b)
            if len(pivot_rows) + len(prows) == m:
                break
        words[:, s] = col
        trail = words[:, s + 1 :]
        if prows and trail.shape[1]:
            trail ^= _table_xor(trail[prows], dep)
        pivot_rows += prows
    words[:] = words[pivot_rows + np.flatnonzero(free).tolist()]
    return len(pivot_rows), pivot_cols


def _table_xor(raw: np.ndarray, dep: np.ndarray) -> np.ndarray:
    """Row i of the result is the XOR of the rows of ``raw`` that the bits
    of ``dep[i]`` name, looked up one mask byte at a time in 256-entry
    tables of all combinations of eight rows."""
    n_tab = (raw.shape[0] + 7) >> 3
    padded = np.zeros((n_tab * 8, raw.shape[1]), np.uint64)
    padded[: raw.shape[0]] = raw
    padded = padded.reshape(n_tab, 8, -1)
    tables = np.zeros((n_tab, 256, raw.shape[1]), np.uint64)
    for j in range(8):
        np.bitwise_xor(
            tables[:, : 1 << j], padded[:, j, None], out=tables[:, 1 << j : 2 << j]
        )
    mask_bytes = dep.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = np.take(tables[0], mask_bytes[:, 0], axis=0)
    for t in range(1, n_tab):
        out ^= np.take(tables[t], mask_bytes[:, t], axis=0)
    return out


def _reduce_augmented(a: BitMatrix, rhs: BitMatrix):
    """Reduce the packed ``[A | rhs]``, rhs starting at the word after A's
    last, with pivots in A's columns only.

    Returns (rank, pivots, reduced rhs words): the first ``rank`` rows of
    the rhs part belong to the pivot rows, the rest must vanish for
    A X = rhs to be consistent.
    """
    if a.rows != rhs.rows:
        raise ValueError("row count mismatch")
    w = np.concatenate([a.words, rhs.words], axis=1)
    r, pivots = _reduce(w, a.cols)
    return r, pivots, w[:, a.words.shape[1] :]


def rank(m: BitMatrix) -> int:
    """Matrix rank over GF(2): the pivot count of one Gauss-Jordan pass."""
    r, _ = _reduce(m.words.copy(), m.cols)
    return r


def solve(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Solve A X = B over GF(2) for X (n x k), with A r x n and B r x k,
    setting free variables to zero.

    Raises:
        ValueError: "inconsistent system" if no solution exists.
    """
    r, pivots, rhs = _reduce_augmented(a, b)
    if rhs[r:].any():
        raise ValueError("inconsistent system")
    x = BitMatrix(a.cols, b.cols)
    x.words[pivots] = rhs[:r]
    return x


class PrefactoredSolver:
    """Reusable unique-solution solver for a fixed coefficient matrix.

    Reducing the packed ``[A | I]`` once (the same Gauss-Jordan pass as
    :func:`solve`, with I from the word after A's last) records the row
    operations ``ops``, I's word slice, a rows x rows map:
    its first ``rank`` rows, beside A's pivot rows, form the solve map S
    (x = S b when A has full column rank), the rows below the rank form the
    residual map C (C b == 0 exactly when the system is consistent).  Every
    further right-hand side costs one packed matrix-vector product instead
    of a fresh elimination.  ``ops`` is public, so a caller can also push a
    matrix of right-hand sides through it, or keep a residual that is not
    yet known to vanish.
    """

    __slots__ = ("rows", "cols", "rank", "ops")

    def __init__(self, a: BitMatrix) -> None:
        self.rows, self.cols = a.rows, a.cols
        r, _, ops = _reduce_augmented(a, BitMatrix.identity(a.rows))
        self.rank = r
        self.ops = BitMatrix(a.rows, a.rows, np.ascontiguousarray(ops))

    def solve_unique(self, b) -> np.ndarray:
        """Solve A x = b for one right-hand side.

        Args:
            b: Bit vector of length ``rows`` (any 0/1 array-like).

        Returns:
            x as a uint8 bit vector of length ``cols``.

        Raises:
            ValueError: "underdetermined" if A lacks full column rank,
                "inconsistent system" if b is outside A's column space,
                "row count mismatch" on a wrong-length b.
        """
        vec = BitVector.from_bits(b)
        if vec.n != self.rows:
            raise ValueError("row count mismatch")
        if self.rank < self.cols:
            raise ValueError("underdetermined")
        z = self.ops.mul_vec(vec).to_bits()
        if z[self.rank :].any():
            raise ValueError("inconsistent system")
        return z[: self.rank]


def independent_rows(m: BitMatrix) -> tuple[np.ndarray, BitMatrix]:
    """Split rows into a maximal independent prefix and their dependents.

    Reducing the transpose does it: its pivot columns are the independent
    rows, and each non-pivot column of the reduced form lists the
    independent rows that sum to that dependent row.

    Returns:
        (perm, V): ``perm`` lists row indices, independent rows first (in
        order of first appearance) followed by the dependent rows; V is a
        (num_dependent x num_independent) matrix with
        ``M[dependent] = V @ M[independent]``.
    """
    reduced = m.transpose().words
    _, pivots = _reduce(reduced, m.rows)
    dependent = np.setdiff1d(np.arange(m.rows), pivots)
    perm = np.concatenate([np.asarray(pivots, np.int64), dependent])
    v = _unpack_bits(reduced, m.rows)[: len(pivots), dependent].T
    return perm, BitMatrix.from_bits(v)
