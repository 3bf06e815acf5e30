"""Layered Gaussian scheme: rate split, quantizer, rearrangement, pipeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from streamcode import gaussian_stream, gf2
from streamcode.errors import InvalidInput, PatternViolation
from streamcode.gaussian_stream import (
    QUANT_GAP,
    expected_delivery,
    gaussian_pipeline,
    layer_rates,
    layer_rearrange,
    normalize_distortions,
    rate_grid,
    source_spec,
    sr_codec,
    sr_decode,
    sr_encode,
)
from streamcode.rates import gaussian_rate

ACCEPT_D = (0.5, 0.6, 0.70710678)  # sqrt(2)/2 to the printed precision


def test_normalize_pads_and_truncates():
    assert normalize_distortions((0.5,), 1, 1) == (0.5, 1.0, 1.0)
    assert normalize_distortions((0.1, 0.2, 0.3, 0.4), 1, 0) == (0.1, 0.2)
    with pytest.raises(InvalidInput, match="nondecreasing"):
        normalize_distortions((0.5, 0.4), 1, 0)
    with pytest.raises(InvalidInput, match=r"\(0, 1\]"):
        normalize_distortions((0.0, 0.5), 1, 0)


def test_layer_rates_single_layer():
    r = layer_rates((0.25,), 0, 0)
    assert r.tilde == (1.0,)
    assert r.cumulative == (1.0,)
    assert r.layer_targets == (0.25,)
    assert r.total == 1.0


def test_layer_rates_flat_targets_collapse_middle_layers():
    r = layer_rates((0.4, 0.4, 0.4), 2, 0)
    assert r.tilde[0] == pytest.approx(0.0, abs=1e-12)
    assert r.tilde[1] == pytest.approx(0.0, abs=1e-12)
    assert r.tilde[2] == pytest.approx(0.5 * math.log2(1 / 0.4))
    assert len(set(r.cumulative)) == 1


def test_layer_rates_match_closed_form_rate():
    d = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
    for B, W in [(2, 0), (1, 1), (3, 2), (5, 0)]:
        r = layer_rates(d, B, W)
        assert r.cumulative[0] == pytest.approx(sum(r.tilde))
        assert r.total == pytest.approx(gaussian_rate(d, B, W), abs=1e-12)
    r = layer_rates(d, 2, 0)
    assert r.tilde[0] == pytest.approx(0.5 * math.log2(0.25 / 0.1))
    assert r.tilde[1] == pytest.approx(0.5 * math.log2(0.4 / 0.25))
    assert r.tilde[2] == pytest.approx(0.5 * math.log2(1 / 0.4))


def test_rate_grid_snaps_and_rejects():
    m, fracs = rate_grid(layer_rates(ACCEPT_D, 1, 1))
    assert m == 4
    assert [str(f) for f in fracs] == ["1/4", "1/4"]
    # 0.25/0.1 gives an increment of half log2(2.5): not on any coarse grid
    with pytest.raises(InvalidInput, match="rational grid"):
        rate_grid(layer_rates((0.1, 0.25), 1, 0))


def test_quantizer_single_layer_meets_budget():
    codec = sr_codec(layer_rates((0.25,), 0, 0))
    assert codec.group == 1
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100_000)
    bits = sr_encode(codec, x, time=0, seed=4)
    xh = sr_decode(codec, bits, n=x.size, from_layer=0, time=0, seed=4)
    mse = float(np.mean((xh - x) ** 2))
    assert mse <= QUANT_GAP * 0.25
    # decoding is deterministic given (time, seed)
    again = sr_decode(codec, bits, n=x.size, from_layer=0, time=0, seed=4)
    assert np.array_equal(xh, again)


def test_quantizer_refinement_is_monotone():
    codec = sr_codec(layer_rates(ACCEPT_D, 1, 1))
    offs = codec.block_offsets(4000)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4000)
    bits = sr_encode(codec, x, time=3, seed=7)
    fine = sr_decode(codec, bits, n=x.size, from_layer=0, time=3, seed=7)
    coarse = sr_decode(codec, bits[offs[1] :], n=x.size, from_layer=1, time=3, seed=7)
    m0 = float(np.mean((fine - x) ** 2))
    m1 = float(np.mean((coarse - x) ** 2))
    assert m0 < m1
    assert m0 <= QUANT_GAP * 0.5
    assert m1 <= QUANT_GAP * 0.70710678


def test_quantizer_zero_rate_returns_the_mean():
    codec = sr_codec(layer_rates((1.0,), 1, 1))
    assert codec.carrier is None
    x = np.random.default_rng(0).standard_normal(24)
    bits = sr_encode(codec, x)
    assert bits.size == 0
    assert np.array_equal(sr_decode(codec, bits, n=24), np.zeros(24))


def test_dither_varies_with_time_and_seed():
    codec = sr_codec(layer_rates((0.25,), 0, 0))
    x = np.random.default_rng(2).standard_normal(64)
    a = sr_encode(codec, x, time=0, seed=1)
    b = sr_encode(codec, x, time=1, seed=1)
    c = sr_encode(codec, x, time=0, seed=2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rearranged_stream_is_a_valid_layered_source():
    codec = sr_codec(layer_rates(ACCEPT_D, 1, 1))
    K = 2
    rng = np.random.default_rng(8)
    blocks = np.stack(
        [sr_encode(codec, rng.standard_normal(8), time=t - 2 * K) for t in range(6 + 2 * K)]
    )
    spec, trace = layer_rearrange(codec, blocks)
    spec.validate()
    assert trace.widths == spec.widths
    assert trace.tail_depth == K
    for t in range(-K + 1, trace.T):
        for j in range(spec.K):
            got = trace.symbol(t, j + 1)
            want = (trace.symbol(t - 1, j) @ spec.R[j].to_bits().T) & 1
            assert np.array_equal(got, want), (t, j)


def test_expected_delivery_layout():
    assert expected_delivery(7, 2, 1) == ((7, 0), (6, 0), (5, 1), (4, 2))
    assert expected_delivery(3, 0, 2) == ((3, 0), (2, 0), (1, 0))


@pytest.mark.parametrize("B, W", [(B, W) for B in range(3) for W in range(3)])
def test_rearranged_layer_j_is_the_jth_expected_block(B, W):
    # every digit layer carries rate, so each suffix is a distinct slice
    d = (0.25,) * (W + 1) + tuple(0.25 * 2 ** (k / 2) for k in range(1, B + 1))
    codec = sr_codec(layer_rates(d, B, W))
    offs = codec.block_offsets(8)
    lead, T = 2 * (B + W), 5
    rng = np.random.default_rng(3 * B + W)
    blocks = rng.integers(0, 2, (lead + T, offs[-1]), dtype=np.uint8)
    _, trace = layer_rearrange(codec, blocks)
    assert trace.tail_depth == B + W
    for t in range(-trace.tail_depth, T):
        for j, (src, k) in enumerate(expected_delivery(t, B, W)):
            assert np.array_equal(trace.symbol(t, j)[0], blocks[lead + src, offs[k] :]), (t, j)


def test_pipeline_clean_channel_serves_everything():
    rep = gaussian_pipeline(ACCEPT_D, 1, 1, n=64, T=10, mode="ideal", seed=1)
    assert rep.skipped == ()
    assert sorted(rep.delivered) == list(range(10))
    assert rep.all_met
    assert np.isfinite(rep.mse).all()
    assert rep.rate["per_sample"] == pytest.approx(rep.rate["closed_form"], abs=1e-6)
    assert rep.rate["per_sample"] == pytest.approx(0.625)


def test_pipeline_burst_skips_exactly_the_window():
    rep = gaussian_pipeline(ACCEPT_D, 1, 1, n=64, T=12, burst=(3, 1), mode="ideal", seed=3)
    assert rep.skipped == (3, 4)
    assert 3 not in rep.delivered and 4 not in rep.delivered
    for t in rep.delivered:
        assert rep.delivered[t] == expected_delivery(t, 1, 1)
    assert rep.all_met


def test_pipeline_every_burst_position_deeper_design():
    # B = 2, W = 0 on a dyadic target vector; both burst lengths at every start
    d = (0.25, 0.5, 0.70710678)
    for start in range(0, 7):
        for length in (1, 2):
            rep = gaussian_pipeline(
                d, 2, 0, n=16, T=9, burst=(start, length), mode="ideal", seed=start
            )
            want = tuple(range(start, min(start + length, 9)))
            assert rep.skipped == want, (start, length)
            for t in range(9):
                if t in want:
                    assert t not in rep.delivered
                else:
                    assert rep.delivered[t] == expected_delivery(t, 2, 0)


def test_pipeline_binned_transport_matches_ideal():
    kw = dict(n=8, T=8, burst=(2, 1), seed=2)
    ideal = gaussian_pipeline(ACCEPT_D, 1, 1, mode="ideal", **kw)
    binned = gaussian_pipeline(ACCEPT_D, 1, 1, mode="binned", **kw)
    assert binned.skipped == ideal.skipped
    assert binned.delivered == ideal.delivered
    np.testing.assert_array_equal(binned.mse, ideal.mse)
    assert binned.rate["packet_bits"] >= math.ceil(8 * binned.rate["per_sample"])


def test_pipeline_rejects_bad_patterns_and_inputs():
    with pytest.raises(PatternViolation, match="longer"):
        gaussian_pipeline(ACCEPT_D, 1, 1, n=8, T=8, burst=(2, 2), mode="ideal")
    with pytest.raises(PatternViolation, match="B = 0"):
        gaussian_pipeline((0.5,), 0, 0, n=4, T=6, burst=(1, 1), mode="ideal")
    with pytest.raises(InvalidInput, match="mode"):
        gaussian_pipeline(ACCEPT_D, 1, 1, n=8, T=4, mode="exact")
    with pytest.raises(InvalidInput, match="multiple of the group"):
        gaussian_pipeline(ACCEPT_D, 1, 1, n=6, T=4, mode="ideal")


def test_pipeline_zero_rate_targets():
    rep = gaussian_pipeline((1.0, 1.0), 1, 0, n=12, T=6, mode="ideal", seed=9)
    assert rep.rate["per_sample"] == 0.0
    assert rep.all_met  # variance-level reconstruction is inside the budget
    assert all(abs(v - 1.0) < 0.6 for v in rep.lag_mse)


def test_source_spec_widths_track_the_codec():
    codec = sr_codec(layer_rates(ACCEPT_D, 1, 1))
    spec = source_spec(codec, 8)
    w = codec.layer_widths(8)
    assert spec.widths == (sum(w), sum(w), sum(w) - w[0])
    spec.validate()


def test_carrier_span_above_64_bits_packs_exactly():
    # 2**(-1/32) asks 1/64 bit per sample: groups of 64 slots with four
    # levels each, so one group's carrier index spans 2**128 values
    codec = sr_codec(layer_rates((2 ** (-1 / 32),), 0, 0))
    assert codec.group == 64 and codec.group_bits == (128,)
    assert math.prod(int(x) for x in codec.levels) > 1 << 62
    n = 64 * 64
    x = np.random.default_rng(12).standard_normal(n)
    bits = sr_encode(codec, x, time=5, seed=3)
    # reference: the same quantizer indices, packed with Python integers
    u = codec._dither(n, 5, 3)
    w = np.clip(x, -codec.clamp, codec.clamp).reshape(-1, 64) + u
    f = np.floor(w / codec.step0).astype(np.int64)
    idx = np.clip(f, -codec.shift, codec.levels - codec.shift - 1) + codec.shift
    want = ""
    for row in idx.tolist():
        v = 0
        for r, digit in zip(codec.levels.tolist(), row):
            v = v * r + digit
        want += format(v, "0128b")
    assert "".join(map(str, bits.tolist())) == want
    xh = sr_decode(codec, bits, n=n, time=5, seed=3)
    assert float(np.mean((xh - x) ** 2)) <= QUANT_GAP * 2 ** (-1 / 32)


@pytest.mark.parametrize(
    "d, B, W",
    [(ACCEPT_D, 1, 1), ((0.25, 0.5, 0.5, 0.70710678), 2, 1), ((0.25,), 0, 0)],
    ids=["B1W1", "B2W1", "B0W0"],
)
def test_binned_and_ideal_serve_the_same_pairs_for_every_burst(d, B, W):
    T = 8
    cases = [(None, 0)] + [
        ((start, length), start) for length in range(1, B + 1) for start in range(T - length + 1)
    ]
    for burst, seed in cases:
        kw = dict(n=8, T=T, burst=burst, seed=seed)
        ideal = gaussian_pipeline(d, B, W, mode="ideal", **kw)
        binned = gaussian_pipeline(d, B, W, mode="binned", **kw)
        assert binned.skipped == ideal.skipped, burst
        assert binned.delivered == ideal.delivered, burst
        assert binned.mse.tobytes() == ideal.mse.tobytes(), burst


def test_pipeline_decodes_each_digit_block_once(monkeypatch):
    calls = []

    def counting(codec, bits, **kw):
        calls.append((kw["time"], kw["from_layer"]))
        return sr_decode(codec, bits, **kw)

    monkeypatch.setattr(gaussian_stream, "sr_decode", counting)
    rep = gaussian_pipeline(ACCEPT_D, 1, 1, n=8, T=8, burst=(3, 1), mode="ideal")
    held = {block for blocks in rep.delivered.values() for block in blocks}
    assert len(held) == 14
    assert sorted(calls) == sorted(held)


def test_binned_pipeline_runs_a_certified_code_of_b_plus_1_eliminations(monkeypatch):
    # one shared hash: B+1 key solvers per accepted draw, none while decoding
    codes, reduced = [], []
    design, reduce = gaussian_stream.design_bincode, gf2._reduce

    def designing(*args, **kw):
        codes.append(design(*args, **kw))
        return codes[-1]

    monkeypatch.setattr(gaussian_stream, "design_bincode", designing)
    monkeypatch.setattr(gf2, "_reduce", lambda *a, **k: reduced.append(a) or reduce(*a, **k))
    for B, W, d in [(1, 1, ACCEPT_D), (2, 1, (0.25, 0.5, 0.5, 0.70710678))]:
        codes.clear()
        reduced.clear()
        gaussian_pipeline(d, B, W, n=8, T=8, burst=(3, B), mode="binned", seed=4)
        (code,) = codes
        assert code.attempt is not None and list(code._times) == [None]
        assert len(reduced) <= (B + 1) * (code.attempt + 1)
        assert len(code._times[None][1]) == B + 1
