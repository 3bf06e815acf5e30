"""Differential tests of the packed GF(2) kernel against a dense reference."""

from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

from streamcode import gf2


def dense_gauss(bits: np.ndarray) -> tuple[int, np.ndarray]:
    """Reference rank + reduced row-echelon form, one column at a time."""
    a = bits.copy().astype(np.uint8)
    r = 0
    rows, cols = a.shape
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r, a


def low_rank_bits(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    """A random rows x cols 0/1 matrix of rank at most ``rank``."""
    left = rng.integers(0, 2, (rows, rank), dtype=np.uint8)
    return gf2.mul(left, rng.integers(0, 2, (rank, cols), dtype=np.uint8))


def reference_reduce(words: np.ndarray, n_cols: int) -> tuple[int, list[int]]:
    """The per-pivot Gauss-Jordan loop ``gf2._reduce`` must reproduce word
    for word: each pivot row is XORed across the full width into every
    other row holding its column."""
    m = words.shape[0]
    free = np.ones(m, bool)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for c in range(n_cols):
        if len(pivot_rows) == m:
            break
        hits = np.nonzero((words[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1))[0]
        candidates = hits[free[hits]]
        if candidates.size == 0:
            continue
        p = int(candidates[0])
        others = hits[hits != p]
        words[others] ^= words[p]
        free[p] = False
        pivot_rows.append(p)
        pivot_cols.append(c)
    words[:] = words[pivot_rows + np.nonzero(free)[0].tolist()]
    return len(pivot_rows), pivot_cols


def test_rank_and_rref_match_dense_reference():
    rng = np.random.default_rng(42)
    for trial in range(230):
        if trial < 200:
            rows = int(rng.integers(0, 40))
            cols = int(rng.integers(0, 200))
            density = rng.uniform(0.05, 0.9)
            bits = (rng.random((rows, cols)) < density).astype(np.uint8)
        else:
            # taller matrices over several column words, every other one
            # rank deficient so free rows are left below the pivots
            rows = int(rng.integers(64, 151))
            cols = int(rng.integers(65, 260))
            if trial % 2:
                bits = low_rank_bits(rng, rows, cols, int(rng.integers(1, 64)))
            else:
                bits = (rng.random((rows, cols)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
        m = gf2.BitMatrix.from_bits(bits)
        r_ref, rr_ref = dense_gauss(bits)
        assert gf2.rank(m) == r_ref, trial
        words = m.words.copy()
        r, pivots = gf2._reduce(words, cols)
        assert r == r_ref, trial
        assert np.array_equal(gf2._unpack_bits(words, cols), rr_ref), trial
        assert len(pivots) == r_ref
        assert list(pivots) == sorted(pivots)
        # the original matrix must be untouched
        assert np.array_equal(m.to_bits(), bits)


def kernel_cases():
    """Seeded (bits, n_cols) pairs for the elimination kernel: column counts
    on both sides of byte and stripe edges, rank-deficient, zero and
    duplicate rows, more than 64 pivots, and pivots limited to a prefix."""
    rng = np.random.default_rng(2024)
    for cols in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 300):
        for rows in (0, 1, 5, 40, 70, 150):
            yield rng.integers(0, 2, (rows, cols), dtype=np.uint8), cols
            if rows:
                yield low_rank_bits(rng, rows, cols, int(rng.integers(1, min(rows, cols) + 1))), cols
                bits = (rng.random((rows, cols)) < 0.3).astype(np.uint8)
                bits[rng.integers(0, rows, max(1, rows // 5))] = 0
                bits[rng.integers(0, rows, max(1, rows // 5))] = bits[0]
                yield bits, cols
            yield rng.integers(0, 2, (rows, cols), dtype=np.uint8), int(rng.integers(0, cols + 1))


def test_reduce_matches_the_per_pivot_loop_word_for_word():
    n_wide = 0
    for trial, (bits, n_cols) in enumerate(kernel_cases()):
        words = gf2.BitMatrix.from_bits(bits).words
        want_words = words.copy()
        want = reference_reduce(want_words, n_cols)
        got = gf2._reduce(words, n_cols)
        assert got == want, trial
        # pivot rows, free rows and every bit right of n_cols alike
        assert np.array_equal(words, want_words), trial
        n_wide += want[0] > 64
    assert n_wide >= 10


def test_prefactored_ops_are_the_reduced_identity_half():
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (9, 7), (70, 65), (130, 64), (150, 100), (184, 144), (904, 768)]
    for trial, (rows, cols) in enumerate(shapes):
        bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
        if trial % 2:
            bits = low_rank_bits(rng, rows, cols, cols // 2 + 1)
        # the reference packs I right after A's last column, not at a word edge
        aug = np.concatenate([bits, np.eye(rows, dtype=np.uint8)], axis=1)
        words = gf2.BitMatrix.from_bits(aug).words
        r, _ = reference_reduce(words, cols)
        want = gf2.BitMatrix.from_bits(gf2._unpack_bits(words, cols + rows)[:, cols:])
        solver = gf2.PrefactoredSolver(gf2.BitMatrix.from_bits(bits))
        assert solver.rank == r, trial
        assert solver.ops == want, trial
        assert solver.ops.words.flags.c_contiguous


def test_solve_returns_a_solution_with_free_vars_zero():
    rng = np.random.default_rng(7)
    for trial in range(150):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(1, 8))
        a = gf2.BitMatrix.from_bits(
            rng.integers(0, 2, (int(rng.integers(1, 80)), n), dtype=np.uint8)
        )
        x_true = gf2.BitMatrix.from_bits(rng.integers(0, 2, (n, k), dtype=np.uint8))
        b = a @ x_true
        x = gf2.solve(a, b)
        assert (a @ x) == b, trial


def test_solve_inconsistent_raises():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        ab = rng.integers(0, 2, (int(rng.integers(1, 30)), n), dtype=np.uint8)
        bb = gf2.mul(ab, rng.integers(0, 2, (n, 1), dtype=np.uint8))
        # duplicate an equation but flip its right-hand side
        a2 = gf2.BitMatrix.from_bits(np.concatenate([ab, ab[:1]]))
        b2 = gf2.BitMatrix.from_bits(np.concatenate([bb, bb[:1] ^ 1]))
        with pytest.raises(ValueError, match="inconsistent"):
            gf2.solve(a2, b2)


def test_independent_rows_decomposition():
    rng = np.random.default_rng(3)
    for trial in range(120):
        rows = int(rng.integers(0, 30))
        cols = int(rng.integers(1, 25))
        bits = (rng.random((rows, cols)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        perm, v = gf2.independent_rows(gf2.BitMatrix.from_bits(bits))
        r_ref, _ = dense_gauss(bits)
        n_ind = rows - v.rows
        assert n_ind == r_ref, trial
        assert sorted(perm.tolist()) == list(range(rows))
        ind = bits[perm[:n_ind]]
        dependent = bits[perm[n_ind:]]
        recon = (v.to_bits().astype(np.int64) @ ind.astype(np.int64)) & 1
        assert np.array_equal(recon.astype(np.uint8), dependent), trial


def test_worked_examples():
    assert gf2.rank(gf2.BitMatrix.from_bits([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2
    x = gf2.solve(gf2.BitMatrix.from_bits([[1, 1]]), gf2.BitMatrix.from_bits([[1]]))
    assert x.to_bits().tolist() == [[1], [0]]
    perm, v = gf2.independent_rows(gf2.BitMatrix.from_bits([[0, 0], [1, 1], [1, 1]]))
    assert perm.tolist() == [1, 0, 2]
    assert v.to_bits().tolist() == [[0], [1]]


def test_matmul_mul_vec_transpose_agree_with_dense():
    rng = np.random.default_rng(19)
    for trial in range(60):
        r = int(rng.integers(1, 40))
        c = int(rng.integers(1, 40))
        k = int(rng.integers(1, 40))
        ab = rng.integers(0, 2, (r, c), dtype=np.uint8)
        bb = rng.integers(0, 2, (c, k), dtype=np.uint8)
        a = gf2.BitMatrix.from_bits(ab)
        b = gf2.BitMatrix.from_bits(bb)
        prod_ref = (ab.astype(np.int64) @ bb.astype(np.int64)) & 1
        assert np.array_equal((a @ b).to_bits(), prod_ref.astype(np.uint8))
        assert np.array_equal(a.transpose().to_bits(), ab.T)
        vb = rng.integers(0, 2, c, dtype=np.uint8)
        v = gf2.BitVector.from_bits(vb)
        ref = (ab.astype(np.int64) @ vb.astype(np.int64)) & 1
        assert np.array_equal(a.mul_vec(v).to_bits(), ref.astype(np.uint8))


def test_json_roundtrip():
    rng = np.random.default_rng(23)
    for trial in range(40):
        r = int(rng.integers(0, 20))
        c = int(rng.integers(0, 90))
        m = gf2.BitMatrix.from_bits(rng.integers(0, 2, (r, c), dtype=np.uint8))
        assert gf2.BitMatrix.from_json(m.to_json()) == m


def test_rank_scales_to_simulation_sized_systems():
    rng = np.random.default_rng(99)
    a = gf2.BitMatrix.from_bits(rng.integers(0, 2, (1808, 1792), dtype=np.uint8))
    x_true = gf2.BitMatrix.from_bits(rng.integers(0, 2, (1792, 1), dtype=np.uint8))
    b = a @ x_true
    x = gf2.solve(a, b)
    assert (a @ x) == b
    # a random square-ish system is full rank with overwhelming probability
    assert gf2.rank(a) == 1792


def test_solve_unique_accepts_only_full_column_rank():
    rng = np.random.default_rng(31)
    for trial in range(30):
        r = int(rng.integers(5, 30))
        c = int(rng.integers(1, r + 1))
        ab = rng.integers(0, 2, (r, c), dtype=np.uint8)
        a = gf2.BitMatrix.from_bits(ab)
        if gf2.rank(a) < c:
            continue
        x_true = rng.integers(0, 2, (c, 2), dtype=np.uint8)
        b = gf2.mul(ab, x_true)
        solver = gf2.PrefactoredSolver(a)
        for j in range(2):
            # unique, so it must be *the* solution
            assert np.array_equal(solver.solve_unique(b[:, j]), x_true[:, j])
    # a dependent column makes the system ambiguous even when solvable
    wide = gf2.PrefactoredSolver(gf2.BitMatrix.from_bits([[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(ValueError, match="underdetermined"):
        wide.solve_unique(np.zeros(2, np.uint8))
    tall = gf2.PrefactoredSolver(gf2.BitMatrix.from_bits([[1, 1], [1, 1], [0, 0]]))
    with pytest.raises(ValueError, match="underdetermined"):
        tall.solve_unique(np.zeros(3, np.uint8))
    bad = gf2.PrefactoredSolver(gf2.BitMatrix.from_bits([[1], [1]]))
    with pytest.raises(ValueError, match="inconsistent"):
        bad.solve_unique(np.array([1, 0], np.uint8))


def test_prefactored_solver_matches_one_shot_solves():
    rng = np.random.default_rng(77)
    for trial in range(27):
        if trial < 25:
            r = int(rng.integers(4, 40))
            c = int(rng.integers(0, r + 1))
            bits = rng.integers(0, 2, (r, c), dtype=np.uint8)
        elif trial == 25:
            # tall, over several words, full column rank
            r, c = 150, 70
            bits = rng.integers(0, 2, (r, c), dtype=np.uint8)
        else:
            # tall and rank deficient: [A | I] must take pivots in A's
            # columns only, never in I's
            r, c = 150, 100
            bits = low_rank_bits(rng, r, c, 60)
        a = gf2.BitMatrix.from_bits(bits)
        solver = gf2.PrefactoredSolver(a)
        assert solver.rank == gf2.rank(a) == dense_gauss(bits)[0]
        assert trial < 25 or solver.rank == (70, 60)[trial - 25]
        rhs = [rng.integers(0, 2, r, dtype=np.uint8) for _ in range(3)]
        if trial >= 25:
            rhs.append(gf2.mul(bits, rng.integers(0, 2, (c, 1), dtype=np.uint8))[:, 0])
        for b in rhs:
            if solver.rank < c:
                with pytest.raises(ValueError, match="underdetermined"):
                    solver.solve_unique(b)
                continue
            try:
                want = gf2.solve(a, gf2.BitMatrix.from_bits(b[:, None]))
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    solver.solve_unique(b)
                continue
            assert np.array_equal(solver.solve_unique(b), want.to_bits()[:, 0])


def test_prefactored_solver_amortizes_a_tall_system():
    # one elimination, many right-hand sides: the decoder's steady pattern
    rng = np.random.default_rng(5)
    a = gf2.BitMatrix.from_bits(rng.integers(0, 2, (200, 150), dtype=np.uint8))
    solver = gf2.PrefactoredSolver(a)
    for seed in range(5):
        x_true = np.random.default_rng(seed).integers(0, 2, 150, dtype=np.uint8)
        b = a.mul_vec(gf2.BitVector.from_bits(x_true)).to_bits()
        assert np.array_equal(solver.solve_unique(b), x_true)
    with pytest.raises(ValueError, match="row count mismatch"):
        solver.solve_unique(np.zeros(7, np.uint8))


def test_all_lists_the_public_surface():
    public = {
        name
        for name, obj in vars(gf2).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == gf2.__name__
    }
    assert all(hasattr(gf2, name) for name in gf2.__all__)
    assert public <= set(gf2.__all__)


def test_mul_matches_int64_reference():
    rng = np.random.default_rng(13)
    shapes = [
        ((3, 5), (5, 2)),  # tiny: uint8 path
        ((40, 30), (30, 3)),  # just below the float32 cut-over
        ((64, 300), (300, 80)),  # float32 path, inner dimension above 255
        ((1, 301), (301, 1)),  # uint8 path, inner dimension above 255
        ((2, 5001), (5001, 3)),  # float32 path, odd sums far above 255
        ((4, 7, 9), (9, 3)),  # 3-D left operand, small
        ((8, 30, 40), (40, 50)),  # 3-D left operand, large
        ((0, 5), (5, 3)),
        ((4, 0), (0, 3)),
        ((4, 5), (5, 0)),
        ((2, 0, 3), (3, 4)),
        ((0, 5000), (5000, 10)),
        ((60, 0), (0, 900)),
    ]
    for a_shape, b_shape in shapes:
        for fill in ("random", "ones"):
            if fill == "ones":
                a = np.ones(a_shape, np.uint8)
                b = np.ones(b_shape, np.uint8)
            else:
                a = rng.integers(0, 2, a_shape, dtype=np.uint8)
                b = rng.integers(0, 2, b_shape, dtype=np.uint8)
            got = gf2.mul(a, b)
            want = (a.astype(np.int64) @ b.astype(np.int64)) & 1
            assert got.dtype == np.uint8, (a_shape, b_shape)
            assert got.shape == want.shape, (a_shape, b_shape)
            assert np.array_equal(got, want), (a_shape, b_shape, fill)
    # float32 stops counting exactly at 2**24: a longer all-ones dot product
    # has odd parity that a float32 sum would round away
    k = (1 << 24) + 1
    assert gf2.mul(np.ones((1, k), np.uint8), np.ones((k, 1), np.uint8)).tolist() == [[1]]


# Shapes around the packed product's rule (64 left rows, 2**25 multiply-adds):
# left rows on both sides of 64, inner widths on both sides of a word edge,
# output widths from one bit to five words, a 3-D left operand, empty axes
PACKED_EDGE_SHAPES = [
    ((rows, k), (k, m))
    for rows in (63, 64, 65)
    for k in (64, 65, 129, 352)
    for m in (1, 63, 64, 65, 320)
] + [
    ((2, 33, 129), (129, 65)),  # 66 left rows together
    ((65, 1, 352), (352, 64)),
    ((64, 0), (0, 65)),
    ((0, 352), (352, 65)),
    ((65, 352), (352, 0)),
    ((0, 64, 65), (65, 3)),
    # the rule's edge: exactly 2**25 multiply-adds, then one row or column fewer
    ((64, 512), (512, 1024)),
    ((63, 512), (512, 1024)),
    ((64, 512), (512, 1023)),
]


@pytest.mark.parametrize("min_ops", [gf2._PACKED_MIN_OPS, 0], ids=["rule", "packed-from-64-rows"])
def test_mul_and_matmul_match_int64_reference_around_the_packed_rule(min_ops, monkeypatch):
    monkeypatch.setattr(gf2, "_PACKED_MIN_OPS", min_ops)
    rng = np.random.default_rng(37)
    n_packed = 0
    for a_shape, b_shape in PACKED_EDGE_SHAPES:
        k, m = b_shape
        rows = int(np.prod(a_shape[:-1]))
        n_packed += gf2._packed_wins(rows, k, m)
        for fill in ("random", "ones"):
            if fill == "ones":
                a, b = np.ones(a_shape, np.uint8), np.ones(b_shape, np.uint8)
            else:
                a = rng.integers(0, 2, a_shape, dtype=np.uint8)
                b = rng.integers(0, 2, b_shape, dtype=np.uint8)
            want = ((a.astype(np.int64) @ b.astype(np.int64)) & 1).astype(np.uint8)
            case = (a_shape, b_shape, fill)
            got = gf2.mul(a, b)
            assert got.dtype == np.uint8 and got.shape == want.shape, case
            assert np.array_equal(got, want), case
            if a.ndim == 2:
                prod = gf2.BitMatrix.from_bits(a) @ gf2.BitMatrix.from_bits(b)
                # words, not just bits: the padding past the last column stays zero
                assert prod == gf2.BitMatrix.from_bits(want), case
    if min_ops:
        assert gf2._packed_wins(64, 512, 1024)
        assert not gf2._packed_wins(63, 512, 1024) and not gf2._packed_wins(64, 512, 1023)
        assert n_packed == 1
    else:
        assert n_packed == 46


def test_packed_product_peak_stays_below_one_float32_copy():
    # the bound is the data layout: a float32 copy of the left operand alone
    # takes 4 bytes per bit, the packed route one bit per bit until it unpacks
    rng = np.random.default_rng(41)
    a = rng.integers(0, 2, (520, 520), dtype=np.uint8)
    b = rng.integers(0, 2, (520, 320), dtype=np.uint8)
    tracemalloc.start()
    try:
        got = gf2.mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (520, 320)
    assert peak < 520 * 520 * 4
