"""Dense linear algebra over GF(2) with machine-word packed rows.

Matrices are stored row-major, 64 columns to a ``uint64`` word, least
significant bit first.  Everything rests on two routines:

* :func:`mul`, the one dense product of 0/1 arrays; ``BitMatrix @`` and
  every layer-map product of the codec go through it.
* ``_reduce``, one in-place Gauss-Jordan pass over the packed rows: each
  pivot is XORed into every other row holding its column, above and below
  alike.  :func:`rank`, :func:`rref`, :func:`solve`, :func:`solve_unique`,
  :func:`invert`, :func:`independent_rows` and :class:`PrefactoredSolver`
  are thin front-ends over it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidInput, json_field

__all__ = [
    "BitMatrix",
    "BitVector",
    "mul",
    "rank",
    "rref",
    "solve",
    "solve_unique",
    "invert",
    "independent_rows",
]

_ONE = np.uint64(1)
# multiply-adds at which a float32 BLAS product overtakes the uint8 loop
_BLAS_MIN_OPS = 1 << 12
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

    Small products use a uint8 matmul (wrap-around mod 256 keeps the
    parity); large ones use float32 BLAS, which is exact only while the
    inner dimension stays below 2**24, so longer ones stay on uint8.
    """
    a = np.asarray(a, np.uint8)
    b = np.asarray(b, np.uint8)
    k = b.shape[0]
    if a.size * b.shape[1] < _BLAS_MIN_OPS or k >= _FLOAT32_EXACT:
        return (a @ b) & 1
    prod = a.reshape(-1, k).astype(np.float32) @ b.astype(np.float32)
    bits = (prod.astype(np.int32) & 1).astype(np.uint8)
    return bits.reshape(a.shape[:-1] + (b.shape[1],))


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
        for i in range(n):
            m.words[i, i >> 6] = _ONE << np.uint64(i & 63)
        return m

    @classmethod
    def from_bits(cls, bits) -> "BitMatrix":
        """Build from any 2-D array-like of 0/1 entries."""
        arr = np.asarray(bits, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array of bits")
        return cls(arr.shape[0], arr.shape[1], _pack_bits(arr))

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        if rows == 0 or cols == 0:
            return cls(rows, cols)
        return cls.from_bits(rng.integers(0, 2, (rows, cols), dtype=np.uint8))

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

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return BitMatrix(self.rows, self.cols, self.words ^ other.words)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
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

    def take_rows(self, idx) -> "BitMatrix":
        idx = np.asarray(idx, dtype=np.int64)
        return BitMatrix(len(idx), self.cols, self.words[idx].copy())

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Return the {"rows", "cols", "data"} dict form; rows as '01' strings."""
        bits = self.to_bits()
        data = ["".join("1" if b else "0" for b in row) for row in bits]
        return {"rows": self.rows, "cols": self.cols, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> "BitMatrix":
        """Inverse of :meth:`to_json`; a malformed object raises InvalidInput."""
        rows, cols = json_field(obj, "rows", int), json_field(obj, "cols", int)
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
    return BitMatrix.from_bits(np.concatenate([m.to_bits() for m in mats], axis=0))


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


def _reduce(words: np.ndarray, n_cols: int, max_cols: int | None = None):
    """In-place Gauss-Jordan reduction, pivots taken in the first ``max_cols``
    columns.

    Each column's bit is scanned once over all rows; the first still-free
    row holding it becomes the pivot and is XORed into every other row that
    holds it.  A free row is zero left of its pivot column, so the XOR starts
    at the pivot's word.  On return the first ``rank`` rows hold the pivot
    rows in pivot order.  Returns (rank, pivot_columns).
    """
    m = words.shape[0]
    if max_cols is None:
        max_cols = n_cols
    free = np.ones(m, bool)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for c in range(max_cols):
        if len(pivot_rows) == m:
            break
        wi = c >> 6
        hits = np.nonzero((words[:, wi] >> np.uint64(c & 63)) & _ONE)[0]
        candidates = hits[free[hits]]
        if candidates.size == 0:
            continue
        p = int(candidates[0])
        others = hits[hits != p]
        if others.size:
            words[others, wi:] ^= words[p, wi:]
        free[p] = False
        pivot_rows.append(p)
        pivot_cols.append(c)
    words[:] = words[pivot_rows + np.nonzero(free)[0].tolist()]
    return len(pivot_rows), pivot_cols


def _reduce_augmented(a: BitMatrix, rhs: np.ndarray):
    """Reduce ``[A | rhs]`` with pivots in A's columns only.

    Returns (rank, pivots, reduced rhs bits): the first ``rank`` rows of the
    rhs part belong to the pivot rows, the rest must vanish for A X = rhs to
    be consistent.
    """
    if a.rows != rhs.shape[0]:
        raise ValueError("row count mismatch")
    cols = a.cols + rhs.shape[1]
    w = _pack_bits(np.concatenate([a.to_bits(), rhs], axis=1))
    r, pivots = _reduce(w, cols, max_cols=a.cols)
    return r, pivots, _unpack_bits(w, cols)[:, a.cols :]


def rank(m: BitMatrix) -> int:
    """Matrix rank over GF(2): the pivot count of one Gauss-Jordan pass."""
    r, _ = _reduce(m.words.copy(), m.cols)
    return r


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns:
        (R, pivots): R has the same shape as ``m``; ``pivots`` is the tuple
        of pivot column indices, one per nonzero row of R.
    """
    w = m.words.copy()
    _, pivots = _reduce(w, m.cols)
    return BitMatrix(m.rows, m.cols, w), tuple(pivots)


def _solve(a: BitMatrix, b: BitMatrix, unique: bool) -> BitMatrix:
    r, pivots, rhs = _reduce_augmented(a, b.to_bits())
    if unique and r < a.cols:
        raise ValueError("underdetermined")
    if rhs[r:].any():
        raise ValueError("inconsistent system")
    x = np.zeros((a.cols, b.cols), np.uint8)
    x[np.asarray(pivots, np.intp)] = rhs[:r]
    return BitMatrix.from_bits(x)


def solve(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Solve A X = B over GF(2), setting free variables to zero.

    Args:
        a: Coefficient matrix (r x n).
        b: Right-hand side (r x k).

    Returns:
        X of shape (n x k).

    Raises:
        ValueError: If the system is inconsistent.
    """
    return _solve(a, b, unique=False)


def solve_unique(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Solve A X = B over GF(2), insisting the solution is unique.

    Same contract as :func:`solve` except that A must have full column
    rank, i.e. there must be exactly one X.

    Raises:
        ValueError: "underdetermined" if A is column-rank deficient,
            "inconsistent system" if no solution exists.
    """
    return _solve(a, b, unique=True)


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises ValueError("singular") otherwise."""
    if m.rows != m.cols:
        raise ValueError("singular")
    try:
        return solve_unique(m, BitMatrix.identity(m.rows))
    except ValueError:
        raise ValueError("singular") from None


class PrefactoredSolver:
    """Reusable unique-solution solver for a fixed coefficient matrix.

    Reducing ``[A | I]`` once (the same Gauss-Jordan pass as
    :func:`solve`) records the row operations ``ops``, a rows x rows map:
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
        r, _, ops = _reduce_augmented(a, np.eye(a.rows, dtype=np.uint8))
        self.rank = r
        self.ops = BitMatrix.from_bits(ops)

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
    reduced, pivots = rref(m.transpose())
    dependent = np.setdiff1d(np.arange(m.rows), pivots)
    perm = np.concatenate([np.asarray(pivots, np.int64), dependent])
    v = reduced.to_bits()[: len(pivots), dependent].T
    return perm, BitMatrix.from_bits(v)
