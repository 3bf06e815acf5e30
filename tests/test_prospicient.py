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


def one_layer_code(n, r0_bits, packet_bits, seed):
    """A code whose codeword is one layer of r0_bits (B = W = 0)."""
    spec = sources.DiagonalSourceSpec((r0_bits,), ())
    return prospicient.BinCode(spec, 0, 0, n, packet_bits, seed)


def test_bincode_matrices_reproducible_and_time_varying():
    code = one_layer_code(n=4, r0_bits=3, packet_bits=7, seed=5)
    again = one_layer_code(n=4, r0_bits=3, packet_bits=7, seed=5)
    assert np.array_equal(code.matrix(2), again.matrix(2))
    assert not np.array_equal(code.matrix(2), code.matrix(3))
    ident = one_layer_code(n=4, r0_bits=3, packet_bits=12, seed=5)
    assert ident.identity_mode
    vec = np.random.default_rng(0).integers(0, 2, (4, 3), dtype=np.uint8)
    assert np.array_equal(ident.hash_vec(1, vec), vec.reshape(-1))
    # every time shares one identity, and both modes check the time
    assert ident.packed(1) is ident.packed(2)
    for c in (code, ident):
        with pytest.raises(InvalidInput, match="packet times are nonnegative"):
            c.hash_vec(-1, vec)


@pytest.mark.parametrize(
    "n, r0_bits, packet_bits", [(1, 5, 0), (3, 3, 7), (2, 5, 9), (5, 13, 60), (4, 48, 185)]
)
def test_hash_is_numpys_uniform_bit_draw_for_seed_and_time(n, r0_bits, packet_bits):
    # the hash definition is pinned; the bit counts 0, 63, 90, 3900 and
    # 35520 include ones that are not a multiple of 8 or of 64
    for seed in (0, 5, 2**31):
        code = one_layer_code(n, r0_bits, packet_bits, seed)
        for t in (0, 1, 300):
            want = np.random.default_rng([seed, t]).integers(
                0, 2, (packet_bits, n * r0_bits), dtype=np.uint8
            )
            assert np.array_equal(code.matrix(t), want), (seed, t)


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
    with pytest.raises(InvalidInput, match="normalize"):
        prospicient.design_bincode(spec, 1, 0, n, seed=2)
    code = prospicient.design_bincode(spec, 1, 1, n, seed=2)
    with pytest.raises(InvalidInput, match="designed for another"):
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


@pytest.mark.parametrize("shape", ["random", "padded"])
@pytest.mark.parametrize("B, W", [(B, W) for B in range(3) for W in range(3)])
def test_every_burst_decodes_bit_exactly_on_both_codes(B, W, shape):
    # every burst start and length <= B, and the clean stream; "padded" is a
    # spec one layer short that normalize_K pads, so the deep part of the last
    # burst slot has width zero; the binned code (delta=16) bins wherever the
    # rate leaves room, and the other code is the identity
    rng = np.random.default_rng([B, W])
    K = B + W if shape == "random" else max(B + W - 1, 0)
    spec = sources.normalize_K(sources.random_diagonal_spec(rng, K=K, max_width=3), B, W).spec
    n, T = 64, 9
    trace = sources.gen_diagonal(spec, n, T, seed=3 * B + W)
    tail = symbol_at(trace, -1) if spec.K else []  # a K = 0 source has no tail
    bursts = [(j, blen) for blen in range(1, B + 1) for j in range(T - blen + 1)]
    for delta in (16, n * sum(spec.widths)):
        code = prospicient.design_bincode(spec, B, W, n, delta=delta, seed=B + 3 * W)
        no_room = rates.diagonal_rate(spec.widths, B, W) == code.r0_bits
        assert code.identity_mode == (delta > 16 or no_room)
        stream = prospicient.encode(trace, spec, B, W, code)
        check_outputs(trace, prospicient.decode_stream(stream, code, tail))
        for j, blen in bursts:
            pattern = channel.single_burst(j, blen, T)
            out = prospicient.decode_stream(stream.with_erasures(pattern), code, tail)
            check_outputs(trace, out, channel.recovery_window(pattern, B, W))


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


def test_code_refuses_another_spec_with_equal_widths():
    # the solvers depend on the layer maps, not only on the widths, so a
    # code serves the spec it was designed for and refuses every other
    spec = sources.DiagonalSourceSpec((3, 2, 1), (bm([[1, 0, 0], [0, 1, 0]]), bm([[1, 0]])))
    other = sources.DiagonalSourceSpec((3, 2, 1), (bm([[0, 1, 1], [1, 0, 1]]), bm([[1, 1]])))
    n, T = 16, 10
    code = prospicient.design_bincode(spec, 1, 1, n, delta=16, seed=3)
    with pytest.raises(InvalidInput, match="designed for another"):
        prospicient.encode(sources.gen_diagonal(other, n, T, seed=31), other, 1, 1, code)
    trace = sources.gen_diagonal(spec, n, T, seed=30)
    packet = prospicient.encode(trace, spec, 1, 1, code).packets[0]
    state = prospicient.DecoderState.initial(symbol_at(trace, -1))
    with pytest.raises(InvalidInput, match="designed for another"):
        prospicient.decode_step(state, packet, other, 1, 1, code)
    assert state.time == 0
    # an equal spec read back from JSON is the same design point
    again = sources.DiagonalSourceSpec.from_json(spec.to_json())
    assert again is not spec
    out = run_decode(trace, again, 1, 1, code, channel.single_burst(3, 1, T))
    check_outputs(trace, out, window=(3, 4))


def test_undersized_packets_raise_decode_failure():
    spec = unit_chain(2)
    n, T = 8, 4
    trace = sources.gen_diagonal(spec, n, T, seed=21)
    # below the information threshold: steady unknowns can never be pinned
    code = prospicient.BinCode(spec, 1, 1, n, packet_bits=n - 1, seed=10)
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
    # no solver holds a reference back to its code, so dropping the code
    # frees it, its hashes and its solvers at once
    spec = unit_chain(2)
    n, T = 8, 6
    trace = sources.gen_diagonal(spec, n, T, seed=28)
    gc.disable()
    try:
        code = prospicient.design_bincode(spec, 1, 1, n, seed=15)
        out = run_decode(trace, spec, 1, 1, code, channel.single_burst(2, 1, T))
        check_outputs(trace, out, window=(2, 3))
        built = len(code._solvers)
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


def window_solvers(code) -> dict:
    return {key: s for key, s in code._solvers.items() if key[1]}


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
            kinds.update(type(s) for s in window_solvers(code).values())
        return outs, kinds

    composed, kinds = run_all()
    assert prospicient._Composed in kinds
    monkeypatch.setattr(prospicient.BinCode, "_compose", lambda *args: None)
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
        assert isinstance(window_solvers(code)[4, 1], gf2.PrefactoredSolver)
        with monkeypatch.context() as m:
            m.setattr(prospicient.BinCode, "_compose", lambda *args: None)
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
    windows = window_solvers(code)
    assert len(windows) == T - 2
    assert all(isinstance(s, prospicient._Composed) for s in windows.values())
    held = sum(s.reduced.ops.words.nbytes + s.lift.words.nbytes for s in windows.values())
    # a stacked solver reduces [A | I]: 2 packets over 2 innovations and 1 deep part
    rows, cols = 2 * code.packet_bits, n * (3 + 3 + 1)
    stacked = len(windows) * rows * 8 * ((cols + rows + 63) // 64)
    assert held < stacked / 10


# ---------------------------------------------------------- bounded caches


def held_bytes(code) -> int:
    """Bytes of the hash and solver words a code holds."""
    total = sum(m.words.nbytes for m in code._packed.values())
    for s in code._solvers.values():
        if isinstance(s, prospicient._Composed):
            total += s.reduced.ops.words.nbytes + s.lift.words.nbytes
        else:
            total += s.ops.words.nbytes
    return total


def periodic_bursts(T, period=16, first=5):
    """A single-packet burst every ``period`` times, and the windows it opens."""
    starts = range(first, T - 2, period)
    pattern = channel.multi_burst([(j, 1) for j in starts], 2, T)
    return pattern, [j + i for j in starts for i in (0, 1)]


@pytest.mark.parametrize("n", [4, 32], ids=["identity", "binned"])
def test_code_memory_stays_flat_however_long_the_stream(n):
    spec, held = deep_spec(), prospicient._HELD_TIMES
    sizes = []
    for T in (2 * held, 4 * held):
        code = prospicient.design_bincode(spec, 1, 1, n, seed=11)
        assert code.identity_mode == (n == 4)
        trace = sources.gen_diagonal(spec, n, T, seed=42)
        pattern, window = periodic_bursts(T)
        check_outputs(trace, run_decode(trace, spec, 1, 1, code, pattern), window)
        if code.identity_mode:
            # one hash for every time: one solver per erased count, nothing per time
            assert not code._packed and len(code._solvers) <= 2
        else:
            assert len(code._packed) == held
            assert {t for t, _ in code._solvers} <= code._packed.keys()
        sizes.append(held_bytes(code))
    assert sizes[0] == sizes[1]


def test_reusing_a_code_over_one_horizon_builds_no_solver_twice(monkeypatch):
    # acceptance #5 and the benchmark's warm streams reuse one code this way
    spec, n, T = deep_spec(), 32, 64
    code = prospicient.design_bincode(spec, 1, 1, n, seed=12)
    trace = sources.gen_diagonal(spec, n, T, seed=43)
    pattern, window = periodic_bursts(T)
    built = []

    class Counting(gf2.PrefactoredSolver):
        def __init__(self, a):
            built.append(a.shape)
            super().__init__(a)

    monkeypatch.setattr(gf2, "PrefactoredSolver", Counting)
    check_outputs(trace, run_decode(trace, spec, 1, 1, code, pattern), window)
    assert len(built) >= T
    built.clear()
    check_outputs(trace, run_decode(trace, spec, 1, 1, code, pattern), window)
    assert built == []


def test_identity_code_builds_one_solver_per_erased_count(monkeypatch):
    # binning disabled: every time hashes by the same identity, so every
    # system of one erased count is the same, however long the stream
    spec, B, W, n, T = deep_spec(), 1, 1, 8, 300
    code = prospicient.design_bincode(spec, B, W, n, delta=10**6, seed=13)
    assert code.identity_mode
    trace = sources.gen_diagonal(spec, n, T, seed=44)
    pattern, window = periodic_bursts(T)
    built = []

    class Counting(gf2.PrefactoredSolver):
        def __init__(self, a):
            built.append(a.shape)
            super().__init__(a)

    monkeypatch.setattr(gf2, "PrefactoredSolver", Counting)
    check_outputs(trace, run_decode(trace, spec, B, W, code, pattern), window)
    assert 0 < len(built) <= B + 1


# --------------------------------------------------------- certified code


def certified_code(spec, B, W, n, delta=0, seed=1):
    code = prospicient.design_bincode(spec, B, W, n, delta=delta, seed=seed, certified=True)
    assert code.identity_mode or code.attempt is not None
    return code


def counting_solvers(monkeypatch) -> list:
    """Record the matrix of every solver built from here on."""
    built = []

    class Counting(gf2.PrefactoredSolver):
        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(gf2, "PrefactoredSolver", Counting)
    return built


def test_certified_hash_is_one_uniform_bit_draw_for_seed_and_attempt():
    # deep_spec at n=4, delta=0: the draws of attempts 0..9 of seed 1 fail
    code = certified_code(deep_spec(), 1, 1, n=4)
    assert code.attempt == 10
    want = np.random.default_rng([1, code.attempt]).integers(
        0, 2, (code.packet_bits, code.in_bits), dtype=np.uint8
    )
    for t in (0, 1, 300):
        assert np.array_equal(code.matrix(t), want), t
    assert code.packed(0) is code.packed(300)
    with pytest.raises(InvalidInput, match="packet times are nonnegative"):
        code.packed(-1)
    # the fields rebuild the code
    again = prospicient.BinCode(code.spec, 1, 1, 4, code.packet_bits, 1, code.attempt)
    assert np.array_equal(again.matrix(5), want)


def test_certified_systems_are_the_same_at_every_time(monkeypatch):
    B, W, n = 2, 1, 6
    spec = sources.random_diagonal_spec(np.random.default_rng(8), K=B + W, max_width=3)
    for certified in (True, False):
        code = prospicient.design_bincode(spec, B, W, n, delta=0, seed=3, certified=certified)
        assert not code.identity_mode
        built = counting_solvers(monkeypatch)
        for bp in range(B + 1):
            for t in (4, 9):
                code._stack(t - W, t, bp)
            same = built[-2] == built[-1]
            # per-time hashes give each time its own system
            assert same == certified, (certified, bp)


def test_certified_code_holds_one_hash_and_its_key_solvers(monkeypatch):
    spec, B, W, n, T = deep_spec(), 1, 1, 16, 64
    code = certified_code(spec, B, W, n)
    assert len(code._solvers) == B + 1
    trace = sources.gen_diagonal(spec, n, T, seed=45)
    pattern, window = periodic_bursts(T)
    built = counting_solvers(monkeypatch)
    check_outputs(trace, run_decode(trace, spec, B, W, code, pattern), window)
    # design built every solver that decoding reads
    assert built == []
    assert not code._packed and len(code._solvers) == B + 1
    assert code.packed(0) is code.packed(T - 1)


def test_certification_names_delta_when_no_draw_passes(monkeypatch):
    monkeypatch.setattr(prospicient, "_CERTIFY_ATTEMPTS", 1)
    with pytest.raises(InvalidInput, match="at delta=0"):
        prospicient.design_bincode(deep_spec(), 1, 1, 4, delta=0, seed=1, certified=True)
    # the per-time code is not certified, and a full packet needs no draw
    assert prospicient.design_bincode(deep_spec(), 1, 1, 4, delta=0, seed=1).attempt is None
    full = prospicient.design_bincode(deep_spec(), 1, 1, 4, delta=10**6, seed=1, certified=True)
    assert full.identity_mode and full.attempt is None


@pytest.mark.parametrize("B, W", [(1, 0), (1, 1), (2, 1), (1, 2), (2, 0), (2, 2)])
def test_certified_codes_decode_every_burst_without_error_at_delta_0(B, W):
    # zero-error within the single-burst contract: every burst start and
    # length <= B decodes bit-exactly at exactly the rate's packet size
    rng = np.random.default_rng([7, B, W])
    T = 20
    bursts = [(j, blen) for blen in range(1, B + 1) for j in range(T - blen + 1)]
    for _ in range(5):
        spec = sources.random_diagonal_spec(rng, K=B + W, max_width=3)
        n = int(rng.integers(4, 12))
        code = certified_code(spec, B, W, n, seed=int(rng.integers(1 << 16)))
        assert code.packet_bits == math.ceil(rates.diagonal_rate(spec.widths, B, W) * n)
        trace = sources.gen_diagonal(spec, n, T, seed=int(rng.integers(1 << 16)))
        stream = prospicient.encode(trace, spec, B, W, code)
        tail = symbol_at(trace, -1)
        check_outputs(trace, prospicient.decode_stream(stream, code, tail))
        for j, blen in bursts:
            pattern = channel.single_burst(j, blen, T)
            out = prospicient.decode_stream(stream.with_erasures(pattern), code, tail)
            check_outputs(trace, out, channel.recovery_window(pattern, B, W))
