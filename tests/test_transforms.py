"""Reduction pipeline: layered triangular form, block-diagonalization, and
trace-level map application."""

from fractions import Fraction

import numpy as np
import pytest

from streamcode import gf2, rates, sources, transforms
from streamcode.errors import InvalidInput, InvariantViolation

from helpers import assert_transition, diag_transition, stacked_timeline


def bm(rows) -> gf2.BitMatrix:
    return gf2.BitMatrix.from_bits(np.array(rows, np.uint8))


def trace_arrays_equal(a, b) -> bool:
    if tuple(a.widths) != tuple(b.widths) or a.tail_depth != b.tail_depth:
        return False
    return np.array_equal(stacked_timeline(a), stacked_timeline(b))


# ------------------------------------------------------ full-rank coupling


def one_shot(spec):
    """Reduce a spec whose coupling has full row rank: the forward pass must
    peel nothing, so the backward map alone does the reduction."""
    fmap, tri = transforms.lf_transform(spec)
    assert fmap.matrix == gf2.BitMatrix.identity(spec.N0 + spec.Nd)
    return transforms.lb_transform(tri)


def test_case1_identity_coupling():
    spec = sources.SemiDetSpec(N0=2, Nd=2, A=gf2.BitMatrix.identity(2), B=gf2.BitMatrix.zeros(2, 2))
    lmap, out = one_shot(spec)
    assert lmap.matrix == gf2.BitMatrix.identity(4)
    assert out.widths == (2, 2)
    assert out.R[0] == gf2.BitMatrix.identity(2)


def test_case1_single_bit():
    spec = sources.SemiDetSpec(N0=1, Nd=1, A=bm([[1]]), B=bm([[1]]))
    lmap, out = one_shot(spec)
    # the adjusted innovation is the XOR of both sub-symbols
    assert lmap.matrix == bm([[1, 1], [0, 1]])
    trace = sources.gen_semidet(spec, n=4, T=24, seed=5)
    moved = transforms.apply_map(lmap, trace)
    full = stacked_timeline(trace)
    assert np.array_equal(stacked_timeline(moved)[:, :, 0], full[:, :, 0] ^ full[:, :, 1])
    assert_transition(moved, diag_transition(out), out.widths)


def test_case1_random_full_rank():
    rng = np.random.default_rng(11)
    a = bm([[1, 1], [0, 1]])
    for _ in range(5):
        b = gf2.BitMatrix.from_bits(rng.integers(0, 2, (2, 2), dtype=np.uint8))
        spec = sources.SemiDetSpec(N0=2, Nd=2, A=a, B=b)
        lmap, out = one_shot(spec)
        out.validate()
        trace = sources.gen_semidet(spec, n=3, T=20, seed=int(rng.integers(1 << 30)))
        moved = transforms.apply_map(lmap, trace)
        assert_transition(moved, diag_transition(out), out.widths)
        back = transforms.invert_map(lmap, moved)
        assert trace_arrays_equal(back, trace)


# ---------------------------------------------------------------- forward


def test_lf_full_row_rank_is_single_layer():
    a = bm([[1, 0, 1], [0, 1, 1]])
    b = bm([[1, 1], [0, 1]])
    spec = sources.SemiDetSpec(N0=3, Nd=2, A=a, B=b)
    lmap, tri = transforms.lf_transform(spec)
    assert tri.widths == (3, 2)
    assert tri.block(1, 0) == a
    assert tri.block(1, 1) == b
    assert lmap.matrix == gf2.BitMatrix.identity(5)


def test_lf_zero_coupling_terminal():
    spec = sources.SemiDetSpec(N0=2, Nd=3, A=gf2.BitMatrix.zeros(3, 2), B=bm([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    lmap, tri = transforms.lf_transform(spec)
    assert tri.widths == (2, 3)  # wider than the innovation: allowed, block is zero
    assert tri.block(1, 0).is_zero()
    tri.validate()
    # the backward pass then drops everything deterministic
    bmap, diag = transforms.lb_transform(tri)
    assert diag.widths == (2,)
    assert bmap.drop is not None and bmap.drop.width == 3


def test_lf_random_block_structure():
    rng = np.random.default_rng(404)
    for trial in range(8):
        a = gf2.BitMatrix.from_bits(rng.integers(0, 2, (5, 4), dtype=np.uint8))
        b = gf2.BitMatrix.from_bits(rng.integers(0, 2, (5, 5), dtype=np.uint8))
        spec = sources.SemiDetSpec(N0=4, Nd=5, A=a, B=b)
        lmap, tri = transforms.lf_transform(spec)
        assert sum(tri.widths[1:]) == 5
        tri.validate()
        K = tri.K
        terminal_zero = tri.block(K, K - 1).is_zero()
        for j in range(1, K + 1):
            sub = tri.block(j, j - 1)
            expect = 0 if (j == K and terminal_zero) else tri.widths[j]
            assert gf2.rank(sub) == expect
        # a generated trace obeys the triangular relations after the map
        trace = sources.gen_semidet(spec, n=3, T=16, seed=trial)
        moved = transforms.apply_map(lmap, trace)
        assert_transition(moved, tri.transition_bits(), tri.widths)


# ---------------------------------------------------------------- backward


def test_lb_block_diagonal_is_identity():
    r10 = bm([[1, 0, 1], [0, 1, 1]])
    tri = transforms.UpperTriSpec((3, 2), {(1, 0): r10, (1, 1): gf2.BitMatrix.zeros(2, 2)})
    lmap, diag = transforms.lb_transform(tri)
    assert lmap.matrix == gf2.BitMatrix.identity(5)
    assert lmap.drop is None
    assert diag.widths == (3, 2)
    assert diag.R[0] == r10


def test_lb_matches_hand_composed_two_layer_path():
    rng = np.random.default_rng(77)
    for trial in range(6):
        r10 = gf2.BitMatrix.from_bits(np.array([[1, 0, 0], [0, 1, 0]], np.uint8))
        if trial % 2:
            r10 = gf2.BitMatrix.from_bits(rng.integers(0, 2, (2, 3), dtype=np.uint8))
            if gf2.rank(r10) != 2:
                continue
        r21 = gf2.BitMatrix.from_bits(np.array([[1, 0]], np.uint8))
        r11b, r12b, r22b = (
            rng.integers(0, 2, shape, dtype=np.uint8) for shape in ((2, 2), (2, 1), (1, 1))
        )
        r11, r12, r22 = (gf2.BitMatrix.from_bits(b) for b in (r11b, r12b, r22b))
        tri = transforms.UpperTriSpec(
            (3, 2, 1),
            {(1, 0): r10, (1, 1): r11, (1, 2): r12, (2, 1): r21, (2, 2): r22},
        )
        lmap, diag = transforms.lb_transform(tri)

        # step one: cancel the bottom row's diagonal block
        x1 = gf2.solve(r21, r22)
        d1 = np.eye(6, dtype=np.uint8)
        d1[3:5, 5:6] = x1.to_bits()
        # updated top-row blocks after conjugating with the first step
        x1b, r21b = x1.to_bits(), r21.to_bits()
        r11t = gf2.BitMatrix.from_bits(r11b ^ gf2.mul(x1b, r21b))
        r12t = gf2.BitMatrix.from_bits(
            r12b ^ gf2.mul(x1b, r22b) ^ gf2.mul(gf2.mul(x1b, r21b), x1b) ^ gf2.mul(r11b, x1b)
        )
        # step two: fold the leftovers into the innovation
        x12 = gf2.solve(r10, r11t)
        x22 = gf2.solve(r10, r12t)
        d2 = np.eye(6, dtype=np.uint8)
        d2[0:3, 3:5] = x12.to_bits()
        d2[0:3, 5:6] = x22.to_bits()
        hand = (d2.astype(np.int32) @ d1.astype(np.int32)) & 1
        assert lmap.matrix == gf2.BitMatrix.from_bits(hand)
        assert diag.widths == (3, 2, 1)
        assert diag.R[0] == r10 and diag.R[1] == r21


def test_lb_dropped_layer_tracks_initial_tail():
    n = 4
    r10 = bm([[1, 1], [0, 1]])
    r11 = bm([[0, 1], [1, 0]])
    r12 = bm([[1, 0], [0, 1]])
    tri = transforms.UpperTriSpec(
        (2, 2, 2),
        {
            (1, 0): r10,
            (1, 1): r11,
            (1, 2): r12,
            (2, 1): gf2.BitMatrix.zeros(2, 2),
            (2, 2): gf2.BitMatrix.identity(2),
        },
    )
    rng = np.random.default_rng(9)
    anchor = rng.integers(0, 2, (n, 2), dtype=np.uint8)
    lmap, diag = transforms.lb_transform(tri, initial_tail=anchor)
    assert lmap.drop is not None
    assert lmap.drop.initial == tuple(tuple(int(x) for x in row) for row in anchor)
    # identity self-map: the dropped layer stays at its anchor forever
    assert np.array_equal(lmap.drop.offset_streams(anchor, 11)[0][1:], np.broadcast_to(anchor, (10, n, 2)))

    # build a conforming trace by hand and push it through
    T, depth = 12, 1
    total = T + depth
    innov = rng.integers(0, 2, (total, n, 2), dtype=np.uint8)
    l1 = np.zeros((total, n, 2), np.uint8)
    l2 = np.broadcast_to(anchor, (total, n, 2)).copy()
    l1[0] = rng.integers(0, 2, (n, 2), dtype=np.uint8)
    for t in range(1, total):
        l1[t] = (
            (innov[t - 1].astype(np.int32) @ r10.to_bits().T)
            ^ (l1[t - 1].astype(np.int32) @ r11.to_bits().T)
            ^ (l2[t - 1].astype(np.int32) @ r12.to_bits().T)
        ).astype(np.uint8) & 1
    trace = sources.StreamTrace(
        kind="diagonal",
        n=n,
        T=T,
        widths=(2, 2, 2),
        sub=[innov[depth:], l1[depth:], l2[depth:]],
        tail=[innov[:depth], l1[:depth], l2[:depth]],
    )
    moved = transforms.apply_map(lmap, trace)
    assert moved.widths == (2, 2)
    assert moved.meta["drop_anchor"] == anchor.tolist()
    assert_transition(moved, diag_transition(diag), diag.widths)
    back = transforms.invert_map(lmap, moved)
    assert trace_arrays_equal(back, trace)

    # a trace whose terminal layer breaks the self-map is refused loudly
    bad = sources.StreamTrace(
        kind="diagonal",
        n=n,
        T=T,
        widths=(2, 2, 2),
        sub=[innov[depth:], l1[depth:], rng.integers(0, 2, (T, n, 2), dtype=np.uint8)],
        tail=[innov[:depth], l1[:depth], l2[:depth]],
    )
    with pytest.raises(InvalidInput, match="self-map"):
        transforms.apply_map(lmap, bad)


# ------------------------------------------------------- map application


def test_apply_identity_and_width_checks():
    spec = sources.random_diagonal_spec(np.random.default_rng(3), K=2)
    trace = sources.gen_diagonal(spec, n=2, T=10, seed=1)
    eye = gf2.BitMatrix.identity(sum(spec.widths))
    ident = transforms.LinearMap(eye, spec.widths, spec.widths, eye)
    same = transforms.apply_map(ident, trace)
    assert trace_arrays_equal(same, trace)
    skinny = sources.StreamTrace(
        kind="diagonal",
        n=2,
        T=4,
        widths=(1,),
        sub=[np.zeros((4, 2, 1), np.uint8)],
        tail=[np.zeros((0, 2, 1), np.uint8)],
    )
    with pytest.raises(InvalidInput, match="widths"):
        transforms.apply_map(ident, skinny)
    with pytest.raises(InvalidInput, match="widths"):
        transforms.invert_map(ident, skinny)


def test_map_refuses_an_inverse_that_does_not_invert():
    m = gf2.BitMatrix.from_bits(np.array([[1, 1], [0, 1]], np.uint8))
    transforms.LinearMap(m, (2,), (2,), m)  # an involution is its own inverse
    with pytest.raises(InvariantViolation, match="does not invert"):
        transforms.LinearMap(m, (2,), (2,), gf2.BitMatrix.identity(2))


def test_invert_requires_anchor_metadata():
    tri = transforms.UpperTriSpec(
        (1, 1),
        {(1, 0): gf2.BitMatrix.zeros(1, 1), (1, 1): gf2.BitMatrix.identity(1)},
    )
    lmap, diag = transforms.lb_transform(tri)
    stripped = sources.StreamTrace(
        kind="diagonal",
        n=2,
        T=3,
        widths=(1,),
        sub=[np.zeros((3, 2, 1), np.uint8)],
        tail=[np.zeros((1, 2, 1), np.uint8)],
    )
    with pytest.raises(InvalidInput, match="anchor"):
        transforms.invert_map(lmap, stripped)


def _pipeline_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for trial in range(20):
        kind = trial % 4
        if kind == 0:
            spec = sources.random_semidet_spec(rng, max_n0=5, max_nd=6)
        elif kind == 1:  # zero coupling: everything decoder-computable
            n0, nd = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            spec = sources.SemiDetSpec(
                N0=n0,
                Nd=nd,
                A=gf2.BitMatrix.zeros(nd, n0),
                B=gf2.BitMatrix.from_bits(rng.integers(0, 2, (nd, nd), dtype=np.uint8)),
            )
        elif kind == 2:  # rank-starved coupling: several peeling rounds
            n0, nd = 2, int(rng.integers(3, 6))
            col = rng.integers(0, 2, (nd, 1), dtype=np.uint8)
            spec = sources.SemiDetSpec(
                N0=n0,
                Nd=nd,
                A=gf2.BitMatrix.from_bits(np.concatenate([col, col], axis=1)),
                B=gf2.BitMatrix.from_bits(rng.integers(0, 2, (nd, nd), dtype=np.uint8)),
            )
        else:
            spec = sources.random_semidet_spec(rng, max_n0=3, max_nd=5)
        cases.append((trial, spec))
    return cases


def test_pipeline_roundtrip_and_structure():
    for trial, spec in _pipeline_cases():
        fmap, tri = transforms.lf_transform(spec)
        assert sum(tri.widths) == spec.N0 + spec.Nd  # forward pass conserves width
        bmap, diag = transforms.lb_transform(tri)
        dropped = bmap.drop.width if bmap.drop is not None else 0
        assert sum(diag.widths) == sum(tri.widths) - dropped

        trace = sources.gen_semidet(spec, n=3, T=14, seed=trial)
        hat = transforms.apply_map(fmap, trace)
        assert_transition(hat, tri.transition_bits(), tri.widths)
        tilde = transforms.apply_map(bmap, hat)
        assert_transition(tilde, diag_transition(diag), diag.widths)
        back = transforms.invert_map(fmap, transforms.invert_map(bmap, tilde))
        assert trace_arrays_equal(back, trace)


def _window_info_bits(spec, B: int, W: int) -> int:
    """Rank arithmetic for the information shared between the symbol right
    after a burst and the one at the recovery deadline, given time zero:
    express both as linear images of the interim innovations and use
    rank(U) + rank(V) - rank(U stacked on V)."""
    p = B + W + 1
    a = spec.A.to_bits().astype(np.int32)
    b = spec.B.to_bits().astype(np.int32)
    powers = [a % 2]
    for _ in range(p):
        powers.append((b @ powers[-1]) % 2)

    def image(rows_innov: int, det_coef) -> np.ndarray:
        out = np.zeros((spec.N0 + spec.Nd, p * spec.N0), np.int32)
        if rows_innov >= 1:
            c = (rows_innov - 1) * spec.N0
            out[: spec.N0, c : c + spec.N0] = np.eye(spec.N0, dtype=np.int32)
        for t, coef in det_coef:
            c = (t - 1) * spec.N0
            out[spec.N0 :, c : c + spec.N0] = coef
        return out % 2

    u = image(B, [(t, powers[B - 1 - t]) for t in range(1, B)])
    v = image(p, [(t, powers[B + W - t]) for t in range(1, B + W + 1)])
    ru = gf2.rank(gf2.BitMatrix.from_bits(u.astype(np.uint8)))
    rv = gf2.rank(gf2.BitMatrix.from_bits(v.astype(np.uint8)))
    ruv = gf2.rank(gf2.BitMatrix.from_bits(np.concatenate([u, v]).astype(np.uint8)))
    return ru + rv - ruv


def test_pipeline_rate_matches_rank_arithmetic():
    for trial, spec in _pipeline_cases():
        _, tri = transforms.lf_transform(spec)
        _, diag = transforms.lb_transform(tri)
        for B in (0, 1, 2, 3):
            for W in (0, 1, 2):
                want = Fraction(spec.N0) + Fraction(_window_info_bits(spec, B, W), W + 1)
                assert rates.diagonal_rate(diag.widths, B, W) == want, (trial, B, W)


def test_transformed_innovation_uniform():
    rng = np.random.default_rng(12)
    a = gf2.BitMatrix.from_bits(rng.integers(0, 2, (5, 4), dtype=np.uint8))
    b = gf2.BitMatrix.from_bits(rng.integers(0, 2, (5, 5), dtype=np.uint8))
    spec = sources.SemiDetSpec(N0=4, Nd=5, A=a, B=b)
    fmap, tri = transforms.lf_transform(spec)
    bmap, diag = transforms.lb_transform(tri)
    trace = sources.gen_semidet(spec, n=7, T=1500, seed=99)
    tilde = transforms.apply_map(bmap, transforms.apply_map(fmap, trace))
    innov = tilde.sub[0].reshape(-1, 4)
    codes = innov @ (1 << np.arange(4))
    counts = np.bincount(codes, minlength=16)
    expect = innov.shape[0] / 16
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert innov.shape[0] >= 10_000
    assert chi2 < 30.578  # 1% critical value, 15 degrees of freedom


# ---------------------------------------------------------- serialization


def test_map_json_roundtrip():
    spec = sources.SemiDetSpec(
        N0=3,
        Nd=3,
        A=bm([[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
        B=bm([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    )
    fmap, tri = transforms.lf_transform(spec)
    bmap, _ = transforms.lb_transform(tri)
    dropping = transforms.UpperTriSpec(
        (1, 1),
        {(1, 0): gf2.BitMatrix.zeros(1, 1), (1, 1): gf2.BitMatrix.identity(1)},
    )
    dmap, _ = transforms.lb_transform(dropping, initial_tail=np.array([[1], [0]], np.uint8))
    for lm in (fmap, bmap, dmap):
        obj = lm.to_json()
        assert gf2.BitMatrix.from_json(obj["matrix"]) == lm.matrix
        assert obj["in_widths"] == list(lm.in_widths)
        assert obj["out_widths"] == list(lm.out_widths)
        assert (obj["drop"] is None) == (lm.drop is None)
        if lm.drop is not None:
            assert gf2.BitMatrix.from_json(obj["drop"]["square"]) == lm.drop.square
            assert gf2.BitMatrix.from_json(obj["drop"]["coupling"]) == lm.drop.coupling
            initial = obj["drop"]["initial"]
            assert lm.drop.initial == (None if initial is None else tuple(map(tuple, initial)))
    assert dmap.drop is not None and dmap.drop.initial == ((1,), (0,))


def test_tri_validation_errors():
    with pytest.raises(InvalidInput, match="triangular band"):
        transforms.UpperTriSpec((2, 1), {(1, 2): gf2.BitMatrix.zeros(1, 1)})
    with pytest.raises(InvalidInput, match="wrong shape"):
        transforms.UpperTriSpec((2, 1), {(1, 0): gf2.BitMatrix.zeros(2, 2)})
    widening = transforms.UpperTriSpec(
        (1, 2, 2),
        {(1, 0): gf2.BitMatrix.zeros(2, 1), (2, 1): gf2.BitMatrix.identity(2)},
    )
    with pytest.raises(InvariantViolation, match="wider"):
        widening.validate()
    deficient = transforms.UpperTriSpec(
        (2, 2, 1),
        {(1, 0): gf2.BitMatrix.zeros(2, 2), (2, 1): bm([[1, 0]])},
    )
    with pytest.raises(InvariantViolation, match="rank deficient"):
        deficient.validate()
