"""Lossy streaming of i.i.d. Gaussian samples with sliding-window targets.

The encoder quantizes each time block with a successive-refinement scalar
quantizer: one uniform grid per sample, nested so that dropping the finest
digits leaves a coarser but still valid quantizer.  Digits are split into
layers sized by the per-layer rate increments; each layer's block is one
mixed-radix packing of its per-slot digits.  The layers are rearranged
into a layered linear bit source (fresh finest digits enter at the top,
coarser suffixes drain diagonally), and that bit source rides the same
burst-robust transport as any other layered source.  After a burst of up
to B packet losses the decoder resumes at full quality W+1 packets later,
while older samples remain reconstructable at the coarser targets.

Both transports serve exactly the times outside the channel's recovery
window.  "ideal" serves them straight from the digit blocks and skips the
transport; "binned" actually hashes the rearranged bit source into packets
and runs the streaming decoder, so every delivered bit is solved from the
hashes, and checks by decoding that it serves that same set.  Its code is
certified: one hash shared by every time, checked at design time, so it
decodes every burst within the (B, W) contract.

Subtractive dither is drawn uniform over the *coarsest* cell of each
sample's grid.  Because every finer step divides the coarsest one exactly,
the reconstruction error at every layer is uniform over that layer's cell,
giving mean squared error step^2/12 independent of the input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import channel
from .errors import InvalidInput, InvariantViolation
from .prospicient import decode_stream, design_bincode, encode
from .rates import _check_distortions, _half_log2_inv, diagonal_rate, gaussian_rate
from .sources import DiagonalSourceSpec, StreamTrace
from . import gf2

# multiplicative gap of dithered uniform quantization over the rate-distortion
# bound; per-lag budgets in reports are gap * target
QUANT_GAP = math.pi * math.e / 6.0

# quantizer design: the safety factor on every layer's error budget
# (gap * target), and the representable range in standard deviations
_GAMMA = 0.9
_CLAMP = 5.0

# digit layout: the largest group size (and rate denominator) a layer split
# may need, and how far a rate may sit from its rational snap
_MAX_DENOMINATOR = 64
_SNAP_TOL = 1e-6

_TIME_MASK = (1 << 63) - 1


def normalize_distortions(d: Sequence[float], B: int, W: int) -> tuple[float, ...]:
    """Pad or truncate a lag-distortion vector to exactly B + W + 1 lags.

    Lags beyond the window the transport can serve are dropped (they are
    met for free by the deeper layers); missing lags are padded with 1.0,
    i.e. no requirement beyond the variance.
    """
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    vals = _check_distortions(d)
    want = B + W + 1
    vals = vals[:want] + [1.0] * (want - len(vals))
    return tuple(vals)


@dataclass(frozen=True)
class LayerRates:
    """Per-layer rate split for the layered Gaussian scheme.

    ``lag_targets`` are the normalized per-lag distortions; ``layer_targets``
    the distortion each layer suffix must reach (layer 0 = full quality,
    layer j >= 1 = quality at lag W + j).  ``tilde`` holds the incremental
    bits per sample each layer contributes and ``cumulative`` the bits per
    sample carried by the suffix from each layer down.
    """

    B: int
    W: int
    lag_targets: tuple[float, ...]
    layer_targets: tuple[float, ...]
    tilde: tuple[float, ...]
    cumulative: tuple[float, ...]

    @property
    def total(self) -> float:
        """Transported bits per sample: full suffix once, deep suffixes
        amortized over the W+1 packets that repeat them."""
        return gaussian_rate(self.lag_targets, self.B, self.W)


def layer_rates(d: Sequence[float], B: int, W: int) -> LayerRates:
    """Split the target distortions into per-layer rate increments."""
    lag = normalize_distortions(d, B, W)
    layer = (lag[0],) + tuple(lag[W + k] for k in range(1, B + 1))
    cumulative = tuple(_half_log2_inv(x) for x in layer)
    tilde = tuple(
        cumulative[j] - (cumulative[j + 1] if j < B else 0.0) for j in range(B + 1)
    )
    if any(t < -1e-12 for t in tilde):
        raise InvariantViolation("layer rate increments must be nonnegative")
    return LayerRates(
        B=B,
        W=W,
        lag_targets=lag,
        layer_targets=layer,
        tilde=tuple(max(0.0, t) for t in tilde),
        cumulative=cumulative,
    )


def rate_grid(rates: LayerRates) -> tuple[int, tuple[Fraction, ...]]:
    """Smallest group size m such that every layer contributes an integer
    number of bits per m samples.  Requires the rate increments to be
    rationals with denominator at most 64, within 1e-6; otherwise no
    fixed-rate digit layout exists and the caller should adjust the
    targets.  The snap tolerance forgives targets given to a few decimal
    places while still rejecting rates that genuinely miss every coarse
    grid."""
    fracs = []
    for t in rates.tilde:
        fr = Fraction(t).limit_denominator(_MAX_DENOMINATOR)
        if abs(float(fr) - t) > _SNAP_TOL:
            raise InvalidInput(
                "layer rates have no exact rational grid with denominator "
                f"<= {_MAX_DENOMINATOR}; adjust the distortion targets"
            )
        fracs.append(fr)
    m = math.lcm(*(fr.denominator for fr in fracs)) if fracs else 1
    if m > _MAX_DENOMINATOR:
        raise InvalidInput(
            f"rational grid needs {m} samples per group, above the cap "
            f"{_MAX_DENOMINATOR}; adjust the distortion targets"
        )
    return m, tuple(fracs)


@dataclass(eq=False)
class SRCodec:
    """Successive-refinement dithered quantizer on a fixed digit layout.

    Samples are processed in groups of ``group``; within a group, each
    layer's fractional bits-per-sample become an exact integer bit count,
    spread over the group with a rotating remainder so no position is
    systematically starved.  The coarsest layer that carries any rate (the
    ``carrier``) stores whole grid indices over a clamped range; finer
    layers store power-of-two refinement digits.
    """

    rates: LayerRates
    group: int
    fracs: tuple[Fraction, ...]
    clamp: float
    carrier: int | None
    refine_bits: np.ndarray = field(repr=False)  # (B+1, group) bits per slot
    below: np.ndarray = field(repr=False)  # bits finer than each layer
    step0: np.ndarray = field(repr=False)  # finest step per slot
    levels: np.ndarray = field(repr=False)  # carrier level count per slot
    shift: np.ndarray = field(repr=False)  # carrier index offset per slot
    group_bits: tuple[int, ...] = ()  # wire bits per group, per layer

    def layer_widths(self, n: int) -> tuple[int, ...]:
        """Wire bits per layer for an n-sample block."""
        g = self._groups(n)
        return tuple(g * b for b in self.group_bits)

    def block_offsets(self, n: int) -> tuple[int, ...]:
        w = self.layer_widths(n)
        offs = [0]
        for x in w:
            offs.append(offs[-1] + x)
        return tuple(offs)

    def _groups(self, n: int) -> int:
        if n < 1 or n % self.group:
            raise InvalidInput(
                f"sample count must be a positive multiple of the group size {self.group}"
            )
        return n // self.group

    def _dither(self, n: int, time: int, seed: int) -> np.ndarray:
        """Per-sample dither, uniform over the carrier's cell in each slot.
        A codec without a carrier sends no bits and draws no dither."""
        rng = np.random.default_rng([0xD17, seed, time & _TIME_MASK])
        carrier_step = self.step0 * 2.0 ** self.below[self.carrier]
        return (rng.random((n // self.group, self.group)) - 0.5) * carrier_step


def sr_codec(rates: LayerRates) -> SRCodec:
    """Design the quantizer for a rate split.

    The per-slot steps are chosen so every layer's modelled error (step^2/12,
    exact under the dither) sits inside 0.9 of its budget (gap * target),
    and the carrier represents samples clamped to 5 standard deviations.
    """
    m, fracs = rate_grid(rates)
    B = rates.B
    carrier = None
    for j in range(B, -1, -1):
        if rates.layer_targets[j] < 1.0 - 1e-12:
            carrier = j
            break
    refine = np.zeros((B + 1, m), dtype=np.int64)
    if carrier is not None:
        ptr = 0
        for j in range(carrier):
            bits = int(fracs[j] * m)
            base, rem = divmod(bits, m)
            refine[j, :] = base
            refine[j, (ptr + np.arange(rem)) % m] += 1
            ptr = (ptr + rem) % m
    below = np.zeros((B + 1, m), dtype=np.int64)
    for j in range(1, B + 1):
        below[j] = below[j - 1] + refine[j - 1]

    if carrier is None:
        step0 = np.zeros(m)
        levels = np.zeros(m, dtype=np.int64)
        shift = np.zeros(m, dtype=np.int64)
        group_bits = (0,) * (B + 1)
    else:
        budgets = np.array(
            [QUANT_GAP * rates.layer_targets[j] for j in range(carrier + 1)]
        )
        expo = 4.0 ** below[: carrier + 1]  # variance growth per layer
        shape = 1.0 / np.max(expo / budgets[:, None], axis=0)
        kappa = _GAMMA * np.min(budgets / (expo * shape[None, :]).mean(axis=1))
        step0 = np.sqrt(12.0 * kappa * shape)
        cstep = step0 * 2.0 ** below[carrier]
        fmax = np.floor((_CLAMP + cstep / 2) / cstep).astype(np.int64)
        fmin = np.floor(-(_CLAMP + cstep / 2) / cstep).astype(np.int64)
        levels = fmax - fmin + 1
        shift = -fmin
        span = math.prod(int(x) for x in levels)
        gbits = (span - 1).bit_length() if span > 1 else 0
        group_bits = tuple(
            int(fracs[j] * m) if j < carrier else (gbits if j == carrier else 0)
            for j in range(B + 1)
        )
    return SRCodec(
        rates=rates,
        group=m,
        fracs=fracs,
        clamp=_CLAMP,
        carrier=carrier,
        refine_bits=refine,
        below=below,
        step0=step0,
        levels=levels,
        shift=shift,
        group_bits=group_bits,
    )


def _pack_mixed_radix(idx: np.ndarray, radices: np.ndarray, width: int) -> np.ndarray:
    """Pack per-slot indices (g, m) with per-slot radices into width-bit rows.

    Row i holds, most significant bit first, the integer whose mixed-radix
    digits are idx[i] (slot 0 most significant).  The arithmetic runs on
    Python integers, so it is exact at any span; ``width`` must hold it.
    """
    nbytes = -(-width // 8)
    rad = [int(r) for r in radices]
    buf = bytearray()
    for row in idx.tolist():
        v = 0
        for r, x in zip(rad, row):
            v = v * r + x
        buf += v.to_bytes(nbytes, "big")
    packed = np.frombuffer(bytes(buf), np.uint8).reshape(idx.shape[0], nbytes)
    return np.unpackbits(packed, axis=1)[:, 8 * nbytes - width :]


def _unpack_mixed_radix(bits: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """Inverse of _pack_mixed_radix: (g, width) bits -> (g, m) indices.
    A value beyond the span keeps only its digits modulo the radices."""
    g, width = bits.shape
    rad = [int(r) for r in radices][::-1]
    packed = np.packbits(bits, axis=1)
    nbytes = packed.shape[1]
    data = packed.tobytes()
    out = []
    for i in range(g):
        v = int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "big") >> (8 * nbytes - width)
        for r in rad:
            v, x = divmod(v, r)
            out.append(x)
    return np.array(out, dtype=np.int64).reshape(g, len(rad))[:, ::-1]


def sr_encode(
    codec: SRCodec, samples: np.ndarray, *, time: int = 0, seed: int = 0
) -> np.ndarray:
    """Quantize one time block into its layered digit bits.

    Each layer's block is one mixed-radix packing per group of its per-slot
    digits: radix 2**refine_bits for a refinement layer (so its bits are
    the slots' digits written MSB-first and concatenated), the carrier's
    level counts for the carrier.  Returns the concatenated per-layer bit
    blocks (finest first) as a flat uint8 array; slicing off the first k
    blocks leaves exactly the bits a decoder needs for quality at lag W + k.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInput("samples must be a 1-D array")
    n = x.shape[0]
    g = codec._groups(n)
    if codec.carrier is None:
        return np.zeros(0, np.uint8)
    u = codec._dither(n, time, seed)
    w = np.clip(x, -codec.clamp, codec.clamp).reshape(g, codec.group) + u
    f = np.floor(w / codec.step0[None, :]).astype(np.int64)
    blocks: list[np.ndarray] = []
    for j in range(codec.carrier):
        rho = 1 << codec.refine_bits[j]
        blocks.append(_pack_mixed_radix(np.mod(f, rho), rho, codec.group_bits[j]).ravel())
        f = np.floor_divide(f, rho)
    fmax = codec.levels - codec.shift - 1
    idx = np.clip(f, -codec.shift, fmax) + codec.shift
    blocks.append(
        _pack_mixed_radix(idx, codec.levels, codec.group_bits[codec.carrier]).ravel()
    )
    return np.concatenate(blocks)


def sr_decode(
    codec: SRCodec,
    bits: np.ndarray,
    *,
    n: int,
    from_layer: int = 0,
    time: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Reconstruct a time block from the digit suffix starting at a layer.

    ``bits`` must be the concatenation of the layer blocks from
    ``from_layer`` down to the coarsest; quality matches the layer's
    target (full quality for layer 0, lag W + k quality for layer k).
    """
    if not 0 <= from_layer <= codec.rates.B:
        raise InvalidInput("layer index out of range")
    g = codec._groups(n)
    offs = codec.block_offsets(n)
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.shape[0] != offs[-1] - offs[from_layer]:
        raise InvalidInput("bit count does not match the layer suffix width")
    if codec.carrier is None or from_layer > codec.carrier:
        return np.zeros(n)
    base = offs[from_layer]
    layer = lambda j: bits[offs[j] - base : offs[j + 1] - base].reshape(g, -1)
    f = _unpack_mixed_radix(layer(codec.carrier), codec.levels) - codec.shift[None, :]
    for j in range(codec.carrier - 1, from_layer - 1, -1):
        rho = 1 << codec.refine_bits[j]
        f = f * rho[None, :] + _unpack_mixed_radix(layer(j), rho)
    u = codec._dither(n, time, seed)
    step = codec.step0 * 2.0 ** codec.below[from_layer]
    return ((f + 0.5) * step[None, :] - u).ravel()


def _layout(B: int, W: int) -> tuple[tuple[int, int], ...]:
    """(lag, digit layer) of each layer of the rearranged source: the last
    W+1 packets carry a time's full digit block, and the suffix from digit
    layer k rides once more at lag W + k."""
    return tuple((ell, 0) for ell in range(W + 1)) + tuple((W + k, k) for k in range(1, B + 1))


def layer_rearrange(codec: SRCodec, blocks: np.ndarray) -> tuple[DiagonalSourceSpec, StreamTrace]:
    """Rearrange per-time digit blocks into a layered linear bit source.

    ``blocks`` holds one encoded row per time for times [-2(B+W), T); that
    lead is exactly what the deepest layer of the earliest revealed tail
    time reaches back to.  Layer l <= W of the result repeats the full
    digit block from l steps ago; layer W + k carries the coarse suffix
    from W + k steps ago, so each inter-layer map is either an identity or
    a projection that drops one finer block -- full row rank either way.
    """
    B, W = codec.rates.B, codec.rates.W
    K = B + W
    blk = np.asarray(blocks, dtype=np.uint8)
    if blk.ndim != 2:
        raise InvalidInput("blocks must be a (times, bits) array")
    lead = 2 * K
    T = blk.shape[0] - lead
    if T < 0:
        raise InvalidInput("not enough blocks for the lead-in")
    total = blk.shape[1]
    n = total * codec.group // sum(codec.group_bits) if sum(codec.group_bits) else codec.group
    offs = codec.block_offsets(n)
    if total != offs[-1]:
        raise InvalidInput("block width does not match the codec layout")
    spec = source_spec(codec, n)
    layout = _layout(B, W)
    trace = StreamTrace(
        kind="diagonal",
        n=1,
        T=T,
        widths=spec.widths,
        sub=[blk[lead - lag : lead - lag + T, None, offs[k] :] for lag, k in layout],
        tail=[blk[lead - K - lag : lead - lag, None, offs[k] :].copy() for lag, k in layout],
    )
    return spec, trace


def source_spec(codec: SRCodec, n: int) -> DiagonalSourceSpec:
    """Layered-source description of the rearranged digit stream."""
    offs = codec.block_offsets(n)
    w = [offs[-1] - offs[k] for _, k in _layout(codec.rates.B, codec.rates.W)]
    maps = [
        gf2.BitMatrix.from_bits(np.eye(w[j], w[j - 1], w[j - 1] - w[j], dtype=np.uint8))
        for j in range(1, len(w))
    ]
    return DiagonalSourceSpec(widths=tuple(w), R=tuple(maps))


def expected_delivery(t: int, B: int, W: int) -> tuple[tuple[int, int], ...]:
    """Digit blocks a decoder holds for output time t: the full blocks of
    the last W+1 times plus one coarse suffix per deeper lag."""
    return tuple((t - lag, k) for lag, k in _layout(B, W))


@dataclass
class DistortionReport:
    """Outcome of one streaming run: which times were served, with which
    digit blocks, and the per-lag error against the budgeted targets."""

    mode: str
    B: int
    W: int
    T: int
    targets: tuple[float, ...]  # normalized per-lag distortions
    skipped: tuple[int, ...]  # times inside a recovery window
    delivered: dict[int, tuple[tuple[int, int], ...]]
    mse: np.ndarray  # (T, B+W+1), NaN where not served
    lag_mse: tuple[float, ...]
    met: tuple[bool, ...]  # lag_mse <= QUANT_GAP * target
    rate: dict

    @property
    def all_met(self) -> bool:
        return all(self.met)


def gaussian_pipeline(
    d: Sequence[float],
    B: int,
    W: int,
    *,
    n: int,
    T: int,
    burst=None,
    mode: str = "ideal",
    seed: int = 0,
    delta: int = 8,
) -> DistortionReport:
    """Run the layered Gaussian scheme end to end and measure it.

    Parameters
    ----------
    d, B, W : targets and channel design bounds.
    n, T : samples per time block and number of streamed blocks.
    burst : None (no erasure) or a (start, length) pair of one burst.
    mode : both serve exactly the times outside the recovery window.
        "ideal" serves them from the digit blocks and skips the transport;
        "binned" hashes the rearranged bit source into packets, runs the
        streaming decoder on what survives and checks that it decodes
        every one of those times, bit-exact.
    delta : extra packet bits above the rate floor (binned accounting);
        a negative delta would put the packet below the floor and is
        refused in both modes.  The binned code is certified (see
        ``design_bincode``): it shares one hash across all times and is
        zero-error within the single-burst contract, so delta buys fewer
        redraws of that hash, not a failure bound.

    Returns a DistortionReport; raises PatternViolation when the erasures
    break the (B, W) contract, InvariantViolation if the realized rate
    accounting drifts from the closed form, and in binned mode
    InvalidInput when no draw of the hash passes certification.

    ``rate["per_sample"]`` is that closed-form accounting of the layer
    split, not the bits a packet spends: the carrier layer ships whole
    clamped grid indices at a fixed length, so ``rate["per_sample_wire"]``
    and, in binned mode, ``rate["packet_bits"] / n`` are several times
    larger.  At d=(0.5, 0.6, 0.70710678), B=W=1, n=128 it reads 0.625,
    while a binned packet carries 520 bits, 4.06 bits/sample.
    """
    rates_split = layer_rates(d, B, W)
    codec = sr_codec(rates_split)
    if mode not in ("ideal", "binned"):
        raise InvalidInput("mode must be 'ideal' or 'binned'")
    if T < 1:
        raise InvalidInput("need at least one time block")
    if delta < 0:
        raise InvalidInput(f"delta must be nonnegative, got {delta}")
    K = B + W
    lead = 2 * K
    start, length = (0, 0) if burst is None else burst
    pattern = channel.single_burst(int(start), int(length), T)
    window = channel.recovery_window(pattern, B, W)

    rng = np.random.default_rng([seed, 0])
    samples = rng.standard_normal((T + lead, n))
    blocks = np.stack(
        [sr_encode(codec, samples[r], time=r - lead, seed=seed) for r in range(T + lead)]
    )
    offs = codec.block_offsets(n)

    if mode == "binned":
        spec, trace = layer_rearrange(codec, blocks)
        bincode = design_bincode(spec, B, W, n=1, delta=delta, seed=seed, certified=True)
        stream = encode(trace, spec, B, W, bincode).with_erasures(pattern)
        # time -1 is revealed history; a K = 0 source has none and needs none
        tail_symbol = [layer[-1] for layer in trace.tail] if trace.tail_depth else []
        for t, out in enumerate(decode_stream(stream, bincode, tail_symbol)):
            if out is None and t not in window:
                raise InvariantViolation(f"time {t} undelivered outside any recovery window")
            if out is not None and not all(
                np.array_equal(sym, trace.symbol(t, j)) for j, sym in enumerate(out)
            ):
                raise InvariantViolation(f"decoded bits diverge from the encoder at time {t}")

    # a block serves every output time that holds it, so decode it once
    @functools.cache
    def block_mse(src: int, layer: int) -> float:
        bits = blocks[lead + src, offs[layer] :]
        xh = sr_decode(codec, bits, n=n, from_layer=layer, time=src, seed=seed)
        return float(np.mean((xh - samples[lead + src]) ** 2))

    delivered = {t: expected_delivery(t, B, W) for t in range(T) if t not in window}
    mse = np.full((T, K + 1), np.nan)
    for t, held in delivered.items():
        for lag, block in enumerate(held):
            mse[t, lag] = block_mse(*block)

    lag_mse = tuple(
        float(np.mean(col[np.isfinite(col)])) if np.isfinite(col).any() else float("nan")
        for col in mse.T
    )
    met = tuple(
        np.isfinite(v) and v <= QUANT_GAP * tgt
        for v, tgt in zip(lag_mse, rates_split.lag_targets)
    )

    formula_widths = [n * sum(codec.fracs[k:], start=Fraction(0)) for _, k in _layout(B, W)]
    if any(fw.denominator != 1 for fw in formula_widths):
        raise InvariantViolation("rate grid does not divide the block length")
    formula_widths = tuple(int(fw) for fw in formula_widths)
    dr = diagonal_rate(formula_widths, B, W)
    closed = gaussian_rate(rates_split.lag_targets, B, W)
    if abs(float(dr) / n - closed) > 1e-6 * max(1.0, closed):
        raise InvariantViolation("rate accounting diverged from the closed form")
    wire_widths = tuple(offs[-1] - offs[k] for _, k in _layout(B, W))
    wire_rate = diagonal_rate(wire_widths, B, W)
    packet_bits = bincode.packet_bits if mode == "binned" else math.ceil(dr) + delta
    rate = {
        "group_size": codec.group,
        "per_sample": float(dr) / n,
        "closed_form": closed,
        "per_sample_wire": float(wire_rate) / n,
        "formula_widths": formula_widths,
        "wire_widths": wire_widths,
        "packet_bits": packet_bits,
        "delta": delta,
    }
    return DistortionReport(
        mode=mode,
        B=B,
        W=W,
        T=T,
        targets=rates_split.lag_targets,
        skipped=tuple(sorted(window)),
        delivered=delivered,
        mse=mse,
        lag_mse=lag_mse,
        met=met,
        rate=rate,
    )
