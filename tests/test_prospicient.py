"""Lookahead codec: encoding, linear binning, and the two-mode decoder."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from streamcode import channel, gf2, prospicient, rates, sources
from streamcode.errors import DecodeFailure, InvalidInput, PatternViolation


def bm(rows) -> gf2.BitMatrix:
    return gf2.BitMatrix.from_bits(np.array(rows, np.uint8))


def unit_chain(depth: int) -> sources.DiagonalSourceSpec:
    """All widths 1, every inter-layer map the 1x1 identity."""
    return sources.DiagonalSourceSpec(
        (1,) * (depth + 1), tuple(gf2.BitMatrix.identity(1) for _ in range(depth))
    )


def symbol_at(trace: sources.StreamTrace, t: int) -> list:
    return [trace.symbol(t, j) for j in range(len(trace.widths))]


def run_decode(trace, spec, B, W, code, pattern=None):
    stream = prospicient.encode(trace, spec, B, W, code)
    if pattern is not None:
        stream = stream.with_erasures(pattern)
    return prospicient.decode_stream(stream, code, symbol_at(trace, -1))


def check_outputs(trace, out, window=()):
    """Recovered symbols must match the trace; window times must be skipped."""
    window = set(window)
    for t in range(trace.T):
        if t in window:
            assert out[t] is None, f"time {t} should be a skip marker"
        else:
            assert out[t] is not None, f"time {t} missing"
            for j in range(len(trace.widths)):
                assert np.array_equal(out[t][j], trace.sub[j][t]), (t, j)


# --------------------------------------------------------------- bin code


def test_bincode_matrices_reproducible_and_time_varying():
    code = prospicient.BinCode(seed=5, n=4, r0_bits=3, packet_bits=7)
    again = prospicient.BinCode(seed=5, n=4, r0_bits=3, packet_bits=7)
    assert np.array_equal(code.matrix(2), again.matrix(2))
    assert not np.array_equal(code.matrix(2), code.matrix(3))
    ident = prospicient.BinCode(seed=5, n=4, r0_bits=3, packet_bits=12)
    assert ident.identity_mode
    vec = np.random.default_rng(0).integers(0, 2, (4, 3), dtype=np.uint8)
    assert np.array_equal(ident.hash_vec(1, vec), vec.reshape(-1))


def test_design_bincode_sizing_and_feasibility():
    rng = np.random.default_rng(3)
    spec = sources.random_diagonal_spec(rng, K=3)
    B, W, n = 2, 1, 16
    code = prospicient.design_bincode(spec, B, W, n, delta=8, seed=1)
    need = math.ceil(rates.diagonal_rate(spec.widths, B, W) * n)
    assert code.packet_bits == min(need + 8, n * code.r0_bits)
    assert code.r0_bits == spec.widths[0] + spec.widths[2] + spec.widths[3]
    with pytest.raises(InvalidInput, match="delta must be nonnegative, got -1"):
        prospicient.design_bincode(spec, B, W, n, delta=-1)
    # a huge delta saturates at the raw codeword width (binning disabled)
    full = prospicient.design_bincode(spec, B, W, n, delta=10**6)
    assert full.identity_mode


# ----------------------------------------------------------------- encode


def identity_packets(spec, B, W, n, T, seed):
    """Encode a fresh trace with binning disabled (delta=10**6), so each
    packet is its codeword verbatim: the layout's parts side by side."""
    code = prospicient.design_bincode(spec, B, W, n=n, delta=10**6, seed=2)
    assert code.identity_mode
    trace = sources.gen_diagonal(spec, n=n, T=T, seed=seed)
    stream = prospicient.encode(trace, spec, B, W, code)
    for pkt in stream.packets:
        assert pkt.shape == (code.packet_bits,)
    return trace, [pkt.reshape(n, -1) for pkt in stream.packets]


def test_rearrange_w0_parts_are_the_layers():
    spec = sources.random_diagonal_spec(np.random.default_rng(1), K=2)
    trace, words = identity_packets(spec, B=2, W=0, n=5, T=4, seed=7)
    for t in range(trace.T):
        # with no decode delay every product collapses to the identity
        assert np.array_equal(words[t], np.concatenate(symbol_at(trace, t), axis=1))


def test_rearrange_b0_is_the_innovation_alone():
    spec = sources.random_diagonal_spec(np.random.default_rng(2), K=2)
    trace, words = identity_packets(spec, B=0, W=2, n=4, T=3, seed=8)
    for t in range(trace.T):
        assert np.array_equal(words[t], trace.symbol(t, 0))


def test_rearrange_unit_chain_carries_previous_innovation():
    # depth-2 chain of 1-bit layers: the deep part of the codeword at time i
    # is exactly the innovation from time i-1
    trace, words = identity_packets(unit_chain(2), B=1, W=1, n=6, T=10, seed=9)
    for t in range(trace.T):
        assert words[t].shape == (6, 2)
        assert np.array_equal(words[t][:, :1], trace.symbol(t, 0))
        assert np.array_equal(words[t][:, 1:], trace.symbol(t - 1, 0))


def test_encode_identity_mode_emits_codewords_verbatim():
    spec = unit_chain(2)
    code = prospicient.design_bincode(spec, 1, 1, n=4, delta=10**6, seed=2)
    assert code.identity_mode and code.packet_bits == 4 * 2
    trace = sources.gen_diagonal(spec, n=4, T=6, seed=11)
    stream = prospicient.encode(trace, spec, 1, 1, code)
    for t in range(6):
        want = np.concatenate([trace.symbol(t, 0), trace.symbol(t - 1, 0)], axis=1)
        assert np.array_equal(stream.packets[t], want.reshape(-1)), t


def test_encode_rejects_bad_layouts():
    spec = unit_chain(2)
    n, T = 3, 4
    trace = sources.gen_diagonal(spec, n, T, seed=10)
    code = prospicient.design_bincode(spec, 1, 1, n, seed=2)
    with pytest.raises(InvalidInput, match="normalize"):
        prospicient.encode(trace, spec, 1, 0, code)
    bad = {
        "missing layer": trace.sub[:2],
        "wider layer": [np.zeros((T, n, 2), np.uint8)] + trace.sub[1:],
        "fewer copies": [a[:, :2] for a in trace.sub],
        "fewer times": [a[:-1] for a in trace.sub],
    }
    for sub in bad.values():
        with pytest.raises(InvalidInput, match=r"\(T, n, N_j\)"):
            prospicient.encode(dataclasses.replace(trace, sub=sub), spec, 1, 1, code)


def test_encode_zero_trace_gives_zero_packets():
    spec = unit_chain(2)
    code = prospicient.design_bincode(spec, 1, 1, n=4, seed=3)
    trace = sources.gen_diagonal(spec, n=4, T=5, seed=12)
    for arr in trace.sub + trace.tail:
        arr[:] = 0
    stream = prospicient.encode(trace, spec, 1, 1, code)
    for pkt in stream.packets:
        assert not pkt.any()


def test_encode_is_linear_and_memoryless():
    rng = np.random.default_rng(4)
    spec = sources.random_diagonal_spec(rng, K=2)
    B, W, n, T = 1, 1, 8, 7
    code = prospicient.design_bincode(spec, B, W, n, seed=4)
    a = sources.gen_diagonal(spec, n, T, seed=13)
    b = sources.gen_diagonal(spec, n, T, seed=14)
    xor = sources.StreamTrace(
        kind=a.kind,
        n=n,
        T=T,
        widths=a.widths,
        sub=[x ^ y for x, y in zip(a.sub, b.sub)],
        tail=[x ^ y for x, y in zip(a.tail, b.tail)],
    )
    sa = prospicient.encode(a, spec, B, W, code)
    sb = prospicient.encode(b, spec, B, W, code)
    sx = prospicient.encode(xor, spec, B, W, code)
    for t in range(T):
        assert np.array_equal(sx.packets[t], sa.packets[t] ^ sb.packets[t])
    # memoryless: history rewrites cannot touch the time-t packet
    mangled = sources.StreamTrace(
        kind=a.kind,
        n=n,
        T=T,
        widths=a.widths,
        sub=[x.copy() for x in a.sub],
        tail=[np.ones_like(x) for x in a.tail],
    )
    t_check = T - 1
    for j in range(len(a.widths)):
        mangled.sub[j][:t_check] ^= b.sub[j][:t_check]
    sm = prospicient.encode(mangled, spec, B, W, code)
    assert np.array_equal(sm.packets[t_check], sa.packets[t_check])


# ----------------------------------------------------------------- decode


def test_clean_stream_decodes_every_symbol():
    rng = np.random.default_rng(5)
    spec = sources.random_diagonal_spec(rng, K=2, max_width=3)
    trace = sources.gen_diagonal(spec, n=16, T=20, seed=15)
    code = prospicient.design_bincode(spec, 1, 1, n=16, seed=5)
    out = run_decode(trace, spec, 1, 1, code)
    check_outputs(trace, out)


def test_recovery_after_every_burst_position():
    rng = np.random.default_rng(6)
    spec = sources.random_diagonal_spec(rng, K=3, max_width=3)
    B, W, n, T = 2, 1, 16, 24
    trace = sources.gen_diagonal(spec, n, T, seed=16)
    code = prospicient.design_bincode(spec, B, W, n, seed=6)
    stream = prospicient.encode(trace, spec, B, W, code)
    tail = symbol_at(trace, -1)
    for bp in (1, 2):
        for j in range(T - bp + 1):
            erased = stream.with_erasures(channel.single_burst(j, bp, T))
            out = prospicient.decode_stream(erased, code, tail)
            deadline = j + bp + W
            window = range(j, min(deadline, T))
            check_outputs(trace, out, window)


def test_w0_deadline_and_steady_step_share_one_code():
    # with W = 0 a deadline solves one packet at t, the shape of a steady
    # step at t, so the two must keep separate solvers on a shared code
    rng = np.random.default_rng(12)
    spec = sources.random_diagonal_spec(rng, K=2, max_width=3)
    B, W, n, T = 2, 0, 16, 12
    trace = sources.gen_diagonal(spec, n, T, seed=25)
    code = prospicient.design_bincode(spec, B, W, n, seed=12)
    stream = prospicient.encode(trace, spec, B, W, code)
    tail = symbol_at(trace, -1)
    for bp in (1, 2):
        for j in range(T - bp + 1):
            check_outputs(trace, prospicient.decode_stream(stream, code, tail))
            erased = stream.with_erasures(channel.single_burst(j, bp, T))
            out = prospicient.decode_stream(erased, code, tail)
            check_outputs(trace, out, window=range(j, j + bp))


def test_recovery_on_padded_shallow_spec():
    # depth-1 source used at a (B, W) needing depth 2: normalize_K pads a
    # zero-width layer, and the deep codeword part for that slot is empty
    rng = np.random.default_rng(7)
    base = sources.random_diagonal_spec(rng, K=1, max_width=3)
    B, W, n, T = 1, 1, 12, 12
    norm = sources.normalize_K(base, B, W)
    spec = norm.spec
    assert spec.widths[-1] == 0 and not norm.tail_rule
    trace = sources.gen_diagonal(spec, n, T, seed=17)
    code = prospicient.design_bincode(spec, B, W, n, seed=7)
    out = run_decode(trace, spec, B, W, code, channel.single_burst(4, 1, T))
    check_outputs(trace, out, window=range(4, 6))


def test_burst_running_off_the_horizon_skips_the_tail():
    spec = unit_chain(2)
    B, W, n, T = 1, 1, 8, 10
    trace = sources.gen_diagonal(spec, n, T, seed=18)
    code = prospicient.design_bincode(spec, B, W, n, seed=8)
    out = run_decode(trace, spec, B, W, code, channel.single_burst(T - 1, 1, T))
    check_outputs(trace, out, window=(T - 1,))  # deadline never arrives
    out = run_decode(trace, spec, B, W, code, channel.single_burst(T - 2, 1, T))
    check_outputs(trace, out, window=(T - 2, T - 1))


def test_pattern_violations():
    spec = unit_chain(1)  # K = 1 fits B=1, W=0 and B=0, W=1
    n, T = 8, 8
    trace = sources.gen_diagonal(spec, n, T, seed=19)
    code = prospicient.design_bincode(spec, 0, 1, n, seed=9)
    with pytest.raises(PatternViolation, match="B = 0"):
        run_decode(trace, spec, 0, 1, code, channel.single_burst(3, 1, T))
    code = prospicient.design_bincode(spec, 1, 0, n, seed=9)
    with pytest.raises(PatternViolation, match="longer"):
        run_decode(trace, spec, 1, 0, code, channel.single_burst(3, 2, T))
    # second burst before the first recovery window closes
    spec2 = unit_chain(2)
    code2 = prospicient.design_bincode(spec2, 1, 1, n, seed=9)
    trace2 = sources.gen_diagonal(spec2, n, T, seed=20)
    pattern = channel.ErasurePattern(T=T, erased=frozenset({2, 4}))
    with pytest.raises(PatternViolation, match="recovery window"):
        run_decode(trace2, spec2, 1, 1, code2, pattern)
    # adequate guard spacing: two bursts decode fine
    pattern = channel.ErasurePattern(T=T, erased=frozenset({1, 5}))
    out = run_decode(trace2, spec2, 1, 1, code2, pattern)
    check_outputs(trace2, out, window={1, 2, 5, 6})


def test_one_code_serves_specs_with_equal_widths():
    # the window solver depends on the layer maps, not only on the
    # widths, so a code shared by two such specs must keep one per spec
    specs = [
        sources.DiagonalSourceSpec((3, 2, 1), (bm([[1, 0, 0], [0, 1, 0]]), bm([[1, 0]]))),
        sources.DiagonalSourceSpec((3, 2, 1), (bm([[0, 1, 1], [1, 0, 1]]), bm([[1, 1]]))),
    ]
    n, T = 16, 10
    code = prospicient.design_bincode(specs[0], 1, 1, n, delta=16, seed=3)
    for i, spec in enumerate(specs):
        trace = sources.gen_diagonal(spec, n, T, seed=30 + i)
        out = run_decode(trace, spec, 1, 1, code, channel.single_burst(3, 1, T))
        check_outputs(trace, out, window=(3, 4))


def test_undersized_packets_raise_decode_failure():
    spec = unit_chain(2)
    n, T = 8, 4
    trace = sources.gen_diagonal(spec, n, T, seed=21)
    # below the information threshold: steady unknowns can never be pinned
    code = prospicient.BinCode(seed=10, n=n, r0_bits=2, packet_bits=n - 1)
    with pytest.raises(DecodeFailure, match="underdetermined"):
        run_decode(trace, spec, 1, 1, code)


@pytest.mark.parametrize(
    "tail",
    [
        lambda sym: [],
        lambda sym: sym[:1],
        lambda sym: [np.zeros((16, 0), np.uint8) for _ in sym],
        lambda sym: [layer[:3] for layer in sym],
    ],
    ids=["empty", "one-layer", "zero-width", "three-copies"],
)
def test_malformed_tail_symbol_is_an_input_error(tail):
    spec = sources.DiagonalSourceSpec((3, 2, 1), (bm([[1, 0, 0], [0, 1, 0]]), bm([[1, 0]])))
    n, T = 16, 4
    trace = sources.gen_diagonal(spec, n, T, seed=26)
    code = prospicient.design_bincode(spec, 1, 1, n, seed=13)
    stream = prospicient.encode(trace, spec, 1, 1, code)
    with pytest.raises(InvalidInput, match="tail symbol"):
        prospicient.decode_stream(stream, code, tail(symbol_at(trace, -1)))


@pytest.mark.parametrize(
    "bad",
    [
        lambda p: p * np.uint8(2),
        lambda p: p * np.uint8(3),
        lambda p: p * np.uint8(255),
        # the uint8 cast would truncate these to the valid packet or to zeros,
        lambda p: p * 1.7,
        lambda p: p * 0.6,
        # wrap them mod 256,
        lambda p: p.astype(np.int64) * 256,
        lambda p: p.astype(np.int64) * 257,
        # or overflow
        lambda p: [256 * int(b) for b in p],
    ],
    ids=["2", "3", "255", "float-1.7", "float-0.6", "int64-256", "int64-257", "list-256"],
)
def test_packet_entry_other_than_0_or_1_is_an_input_error(bad):
    spec = sources.DiagonalSourceSpec((3, 2, 1), (bm([[1, 0, 0], [0, 1, 0]]), bm([[1, 0]])))
    n = 16
    trace = sources.gen_diagonal(spec, n, 2, seed=26)
    code = prospicient.design_bincode(spec, 1, 1, n, seed=13)
    packet = prospicient.encode(trace, spec, 1, 1, code).packets[0]
    state = prospicient.DecoderState(0, "steady", symbol_at(trace, -1))
    # the valid packet decodes; the same packet with its 1s written as
    # another value is refused before any solve
    _, layers = prospicient.decode_step(state, packet, spec, 1, 1, code)
    assert np.array_equal(layers[0], trace.sub[0][0])
    state = prospicient.DecoderState(0, "steady", symbol_at(trace, -1))
    with pytest.raises(InvalidInput, match="packet entries must be 0 or 1"):
        prospicient.decode_step(state, bad(packet), spec, 1, 1, code)
    assert state.time == 0


def test_dropped_code_is_freed_without_the_cycle_collector():
    # a codec holds no reference back to its code, so dropping the code
    # frees it, its hashes and its solvers at once
    spec = unit_chain(2)
    n, T = 8, 6
    trace = sources.gen_diagonal(spec, n, T, seed=28)
    gc.disable()
    try:
        code = prospicient.design_bincode(spec, 1, 1, n, seed=15)
        out = run_decode(trace, spec, 1, 1, code, channel.single_burst(2, 1, T))
        check_outputs(trace, out, window=(2, 3))
        built = len(code.codec(spec, 1, 1)._solvers)
        assert built > 0
        ref = weakref.ref(code)
        del code
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------- window composition


def deep_spec() -> sources.DiagonalSourceSpec:
    """The (3, 2, 1) source of the streaming acceptance gate."""
    return sources.DiagonalSourceSpec((3, 2, 1), (bm([[1, 0, 1], [0, 1, 1]]), bm([[1, 1]])))


def decode_or_failure(trace, spec, B, W, code, pattern, flip=None):
    """Decoded symbols as bytes (None for skip markers), or the
    DecodeFailure text; ``flip`` names a packet whose first bit is flipped."""
    stream = prospicient.encode(trace, spec, B, W, code).with_erasures(pattern)
    if flip is not None and stream.packets[flip] is not None:
        stream.packets[flip] = stream.packets[flip].copy()
        stream.packets[flip][0] ^= 1
    try:
        out = prospicient.decode_stream(stream, code, symbol_at(trace, -1))
    except DecodeFailure as exc:
        return str(exc)
    return [None if o is None else tuple(layer.tobytes() for layer in o) for o in out]


def window_solvers(code, spec, B, W) -> dict:
    return {key: s for key, s in code.codec(spec, B, W)._solvers.items() if key[1]}


def test_composed_windows_match_the_stacked_solve(monkeypatch):
    # seeded random cases, a few of them with a flipped bit inside the
    # recovery window; small delta makes both failure kinds common
    rng = np.random.default_rng(40)
    T = 10
    cases = []
    for _ in range(150):
        B, W = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        spec = sources.random_diagonal_spec(rng, K=B + W, max_width=3)
        n, delta = int(rng.integers(1, 9)), int(rng.integers(0, 4))
        blen = int(rng.integers(1, B + 1))
        start = int(rng.integers(0, T - blen - W))
        flip = start + blen + int(rng.integers(0, W + 1)) if rng.random() < 0.3 else None
        cases.append((spec, B, W, n, delta, int(rng.integers(1 << 16)), start, blen, flip))

    def run_all():
        outs, kinds = [], set()
        for spec, B, W, n, delta, seed, start, blen, flip in cases:
            code = prospicient.design_bincode(spec, B, W, n, delta=delta, seed=seed)
            trace = sources.gen_diagonal(spec, n, T, seed=seed)
            pattern = channel.single_burst(start, blen, T)
            outs.append(decode_or_failure(trace, spec, B, W, code, pattern, flip))
            kinds.update(type(s) for s in window_solvers(code, spec, B, W).values())
        return outs, kinds

    composed, kinds = run_all()
    assert prospicient._Composed in kinds
    monkeypatch.setattr(prospicient._Codec, "_compose", lambda *args: None)
    stacked, kinds = run_all()
    assert kinds == {gf2.PrefactoredSolver}
    assert composed == stacked
    # both failure kinds were reached at a recovery deadline
    deadlines = [
        f"time {start + blen + W}: " for _, _, W, _, _, _, start, blen, _ in cases
    ]
    for kind in ("underdetermined", "inconsistent system"):
        assert any(out == d + kind for out, d in zip(composed, deadlines)), kind


def test_rank_deficient_steady_block_falls_back_to_the_stacked_solve(monkeypatch):
    # n=4, delta=1: a packet has 15 bits for 12 innovation bits, so H0_t is
    # rank deficient at a fair share of times; the burst at 2 opens the
    # window 3..4, whose key (4, 1) cannot be composed when H0_3 is deficient
    spec, n, T = deep_spec(), 4, 6
    pattern = channel.single_burst(2, 1, T)

    def full_rank(code, t):
        h0 = code.matrix(t).reshape(code.packet_bits, n, 4)[:, :, :3]
        return gf2.rank(gf2.BitMatrix.from_bits(h0.reshape(code.packet_bits, -1))) == 3 * n

    outcomes = set()
    for seed in range(150):
        code = prospicient.design_bincode(spec, 1, 1, n, delta=1, seed=seed)
        # only H0_3 deficient, so every steady step decodes
        if [full_rank(code, t) for t in range(T)] != [True] * 3 + [False] + [True] * 2:
            continue
        trace = sources.gen_diagonal(spec, n, T, seed=seed)
        got = decode_or_failure(trace, spec, 1, 1, code, pattern)
        assert isinstance(window_solvers(code, spec, 1, 1)[4, 1], gf2.PrefactoredSolver)
        with monkeypatch.context() as m:
            m.setattr(prospicient._Codec, "_compose", lambda *args: None)
            code = prospicient.design_bincode(spec, 1, 1, n, delta=1, seed=seed)
            assert decode_or_failure(trace, spec, 1, 1, code, pattern) == got
        outcomes.add(got if isinstance(got, str) else "decoded")
    # the stacked solve pins H0_3's kernel through packet 4 in some codes
    assert {"decoded", "time 4: underdetermined"} <= outcomes


def test_composed_windows_cache_a_tenth_of_the_stacked_bytes():
    spec, n, T = deep_spec(), 64, 16
    code = prospicient.design_bincode(spec, 1, 1, n, seed=3)
    trace = sources.gen_diagonal(spec, n, T, seed=41)
    for j in range(T):
        out = run_decode(trace, spec, 1, 1, code, channel.single_burst(j, 1, T))
        check_outputs(trace, out, window=range(j, j + 2))
    windows = window_solvers(code, spec, 1, 1)
    assert len(windows) == T - 2
    assert all(isinstance(s, prospicient._Composed) for s in windows.values())
    held = sum(s.reduced.ops.words.nbytes + s.lift.words.nbytes for s in windows.values())
    # a stacked solver reduces [A | I]: 2 packets over 2 innovations and 1 deep part
    rows, cols = 2 * code.packet_bits, n * (3 + 3 + 1)
    stacked = len(windows) * rows * 8 * ((cols + rows + 63) // 64)
    assert held < stacked / 10
