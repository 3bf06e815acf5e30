"""Lookahead streaming codec for layered GF(2) sources.

The encoder is memoryless: at each time it rearranges the current symbol
into a short codeword — the innovation layer plus, for each burst slot
k = 1..B, the image of layer k under the layer-to-layer products that
will matter W+k steps later — and transmits a seeded random linear hash
of the codeword across all n spatial copies.  The decoder has one
rule, a joint linear solve over a window of received packets: after a
burst of B' <= B erasures it buffers W+1 packets and solves one stacked
system whose unknowns are the (W+1)·n·N_0 fresh innovation bits plus the
n·sum(N_{W+k}) deep-codeword bits the burst destroyed.  A steady step is
the zero-erasure case of the same solve: one packet, whose n·N_0
innovation bits are the only unknowns.  Everything outside the
error-propagation window [burst_start, burst_start+B'+W-1] is emitted
bit-exactly; window times are emitted as explicit skip markers.

A BinCode is only the seeded hash, so one code can serve several specs.
For each (spec, B, W) it is used with, the code keeps one codec, built on
first use, that holds the layer-map products and one cache of that
code's prefactored solvers, keyed by (t, erased count).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import channel, gf2, rates
from .errors import DecodeFailure, InvalidInput, PatternViolation
from .sources import DiagonalSourceSpec


class _Codec:
    """Everything fixed by one (spec, B, W) design point and one BinCode:
    codeword part widths, cached layer-to-layer map products as dense bit
    arrays, and the code's prefactored solvers for ``solve_window``, in one
    dict keyed by (t, erased count); a steady step is the zero-erasure
    window (t, 0).  The code-less codec of ``rearrange`` and
    ``reconstruct_symbol`` never solves.
    """

    def __init__(self, spec: DiagonalSourceSpec, B: int, W: int, code: BinCode | None = None):
        if B < 0 or W < 0:
            raise InvalidInput("B and W must be nonnegative")
        if spec.K != B + W:
            raise InvalidInput(
                "spec depth must equal B+W; normalize the spec first"
            )
        self.spec = spec
        self.B = B
        self.W = W
        # a proxy, so that a code and its codecs form no reference cycle and
        # a dropped code frees its hashes and solvers at once
        self.code = None if code is None else weakref.proxy(code)
        self.widths = spec.widths
        self.part_widths = (spec.widths[0],) + tuple(
            spec.widths[W + k] for k in range(1, B + 1)
        )
        self.offs = [0, *accumulate(self.part_widths)]
        self.r0 = self.offs[-1]
        self._rbits = [None] + [m.to_bits() for m in spec.R]
        self._prods: dict[tuple[int, int], np.ndarray] = {}
        # by (t, erased count): a steady step is (t, 0), a deadline (t, bp >= 1)
        self._solvers: dict[tuple[int, int], gf2.PrefactoredSolver] = {}

    def prod(self, hi: int, lo: int) -> np.ndarray:
        """Dense product of the inter-layer maps from layer lo up to hi."""
        assert 0 <= lo <= hi <= self.spec.K
        if hi == lo:
            return np.eye(self.widths[hi], dtype=np.uint8)
        key = (hi, lo)
        got = self._prods.get(key)
        if got is None:
            got = gf2.mul(self._rbits[hi], self.prod(hi - 1, lo))
            self._prods[key] = got
        return got

    def rearrange(self, symbol: Sequence[np.ndarray]) -> CodewordBlock:
        if len(symbol) != self.spec.K + 1:
            raise InvalidInput("symbol must have one layer per spec width")
        layers = [np.asarray(s, np.uint8) for s in symbol]
        for j, s in enumerate(layers):
            if s.ndim != 2 or s.shape[1] != self.widths[j]:
                raise InvalidInput("symbol layer widths do not match the spec")
        parts = [layers[0]]
        for k in range(1, self.B + 1):
            parts.append(gf2.mul(layers[k], self.prod(self.W + k, k).T))
        return CodewordBlock(tuple(parts))

    def solve_window(
        self,
        t: int,
        j0: int,
        packets: Sequence[np.ndarray],
        pre: Sequence[np.ndarray],
    ) -> list[np.ndarray]:
        """Joint decode of the packets of times t-L+1..t, L = len(packets).

        Times j0..t-L were erased and ``pre`` is the full symbol at j0-1.
        A steady step is the case j0 = t, L = 1; a recovery deadline has
        bp = t-L+1-j0 >= 1 erased times and L = W+1, so (t, bp) fixes the
        system.  Unknowns: the innovation of each received time, plus the
        deep codeword parts c_{t-W, 1..bp} the erasures destroyed.  Every
        codeword bit of the received packets is affine in these, because
        part k of time tau is the innovation of time tau-k pushed through
        the layer products — and tau-k is either received (an unknown
        innovation), erased (an unknown deep part), or before j0 (known,
        propagated from ``pre``).
        """
        code = self.code
        n, W, B = code.n, self.W, self.B
        n0 = self.widths[0]
        L = len(packets)
        first = t - L + 1
        bp = first - j0

        zw = [n0] * L + [self.widths[W + k] for k in range(1, bp + 1)]
        zoffs = [0, *accumulate(zw)]
        zdim = n * zoffs[-1]

        rows = code.packet_bits
        # the stacked coefficient matrix is fixed by the code and the key;
        # only the right-hand side (which folds in ``pre``) changes between
        # decodes, so the elimination is kept and a repeat costs one product
        solver = self._solvers.get((t, bp))
        m_parts = [] if solver is None else None
        rhs_parts = []
        for i, tau in enumerate(range(first, t + 1)):
            base = np.zeros((n, self.r0), np.uint8)
            for k in range(1, B + 1):
                if self.part_widths[k] == 0:
                    continue
                b = tau - k  # time whose innovation feeds this part
                if b < j0:
                    src = pre[k - (tau - j0 + 1)]
                    base[:, self.offs[k] : self.offs[k + 1]] = gf2.mul(
                        src, self.prod(W + k, k - (tau - j0 + 1)).T
                    )
            rhs_parts.append(packets[i] ^ code.hash_vec(tau, base))
            if m_parts is None:
                continue
            h3 = code.matrix(tau).reshape(rows, n, self.r0)
            acc = np.zeros((rows, zdim), np.uint8)
            acc[:, n * zoffs[i] : n * zoffs[i + 1]] ^= h3[:, :, :n0].reshape(rows, n * n0)
            for k in range(1, B + 1):
                if self.part_widths[k] == 0:
                    continue
                sl = slice(self.offs[k], self.offs[k + 1])
                b = tau - k
                if b >= first:
                    blk = b - first
                    coef = self.prod(W + k, 0)
                elif b >= j0:
                    blk = L + (first - b) - 1
                    coef = self.prod(W + k, W + first - b)
                else:
                    continue
                contrib = gf2.mul(h3[:, :, sl], coef)
                acc[:, n * zoffs[blk] : n * zoffs[blk + 1]] ^= contrib.reshape(rows, -1)
            m_parts.append(acc)
        if solver is None:
            solver = gf2.PrefactoredSolver(
                gf2.BitMatrix.from_bits(np.concatenate(m_parts))
            )
            self._solvers[t, bp] = solver

        z = _solve_bits(solver, np.concatenate(rhs_parts), t)
        blocks = [
            z[n * zoffs[b] : n * zoffs[b + 1]].reshape(n, zw[b]) for b in range(len(zw))
        ]
        return self.assemble(blocks[:L], blocks[L:], (pre, t - j0 + 1))

    def assemble(
        self,
        innovations: Sequence[np.ndarray],
        deep_parts: Sequence[np.ndarray],
        anchor: tuple[Sequence[np.ndarray], int] | None,
    ) -> list[np.ndarray]:
        # a steady step brings one innovation, a recovery window W+1
        K, w = self.spec.K, len(innovations) - 1
        layers: list = [None] * (K + 1)
        layers[0] = np.asarray(innovations[-1], np.uint8)
        for j in range(1, min(w, K) + 1):
            layers[j] = gf2.mul(innovations[-1 - j], self.prod(j, 0).T)
        for k, part in enumerate(deep_parts, start=1):
            layers[w + k] = np.asarray(part, np.uint8)
        if anchor is not None:
            src, delta = anchor
            for j in range(w + len(deep_parts) + 1, K + 1):
                layers[j] = gf2.mul(src[j - delta], self.prod(j, j - delta).T)
        assert all(l is not None for l in layers), "missing reconstruction dependency"
        return layers


def _solve_bits(solver: gf2.PrefactoredSolver, rhs: np.ndarray, t: int) -> np.ndarray:
    """Unique GF(2) solve, mapped onto the decoder's failure contract."""
    try:
        return solver.solve_unique(rhs)
    except ValueError as exc:
        raise DecodeFailure(f"time {t}: {exc}") from exc


@dataclass(frozen=True)
class CodewordBlock:
    """One time-step's rearranged codeword: part 0 is the innovation
    layer verbatim; part k (k = 1..B) is layer k pushed forward to the
    depth it will occupy when it becomes decodable."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(np.asarray(p, np.uint8) for p in self.parts))
        if any(p.ndim != 2 or p.shape[0] != self.parts[0].shape[0] for p in self.parts):
            raise InvalidInput("codeword parts must share the copy dimension")

    @property
    def n(self) -> int:
        return self.parts[0].shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(p.shape[1] for p in self.parts)

    def vec(self) -> np.ndarray:
        """(n, total_bits) array; one codeword row per spatial copy."""
        return np.concatenate(self.parts, axis=1)


def rearrange(
    symbol: Sequence[np.ndarray], spec: DiagonalSourceSpec, B: int, W: int
) -> CodewordBlock:
    """Memoryless rearrangement of one symbol into its codeword block.

    ``symbol`` lists the layers at a single time, layer j of shape
    (n, N_j).  Requires ``spec.K == B + W`` (see sources.normalize_K).
    """
    return _Codec(spec, B, W).rearrange(symbol)


@dataclass
class BinCode:
    """Seeded per-time random linear hash of the flattened codeword.

    The time-i matrix is reproducible from (seed, i).  When
    ``packet_bits == n * r0_bits`` the hash degenerates to the identity
    and packets carry the codeword verbatim (binning disabled).
    """

    seed: int
    n: int
    r0_bits: int
    packet_bits: int
    _packed: dict = field(default_factory=dict, repr=False, compare=False)
    _codecs: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.r0_bits < 0:
            raise InvalidInput("need n >= 1 and a nonnegative codeword width")
        if not 0 <= self.packet_bits <= self.in_bits:
            raise InvalidInput("packet size must lie in [0, codeword bits]")

    @property
    def in_bits(self) -> int:
        return self.n * self.r0_bits

    @property
    def identity_mode(self) -> bool:
        return self.packet_bits == self.in_bits

    def matrix(self, t: int) -> np.ndarray:
        """Hash matrix for time t as a (packet_bits, in_bits) bit array."""
        return self.packed(t).to_bits()

    def packed(self, t: int) -> gf2.BitMatrix:
        """Time-t hash as a packed bit matrix, the code's one cached form."""
        if t < 0:
            raise InvalidInput("packet times are nonnegative")
        got = self._packed.get(t)
        if got is None:
            if self.identity_mode:
                got = gf2.BitMatrix.identity(self.in_bits)
            else:
                rng = np.random.default_rng([self.seed, t])
                got = gf2.BitMatrix.from_bits(
                    rng.integers(0, 2, (self.packet_bits, self.in_bits), dtype=np.uint8)
                )
            self._packed[t] = got
        return got

    def hash_vec(self, t: int, vec: np.ndarray) -> np.ndarray:
        """Apply the time-t hash to an (n, r0_bits) codeword array."""
        flat = np.asarray(vec, np.uint8).reshape(-1)
        if flat.shape[0] != self.in_bits:
            raise InvalidInput("codeword size does not match the hash input")
        if self.identity_mode:
            return flat.copy()
        return self.packed(t).mul_vec(gf2.BitVector.from_bits(flat)).to_bits()

    def codec(self, spec: DiagonalSourceSpec, B: int, W: int) -> _Codec:
        """This code's codec for one design point, built on first use.  The
        codec keeps ``spec`` alive, so its id stays a valid key."""
        key = (id(spec), B, W)
        got = self._codecs.get(key)
        if got is None:
            got = _Codec(spec, B, W, self)
            if got.r0 != self.r0_bits:
                raise InvalidInput("bin code was sized for a different design point")
            self._codecs[key] = got
        return got


def design_bincode(
    spec: DiagonalSourceSpec,
    B: int,
    W: int,
    n: int,
    delta: int = 8,
    seed: int = 0,
    packet_bits: int | None = None,
) -> BinCode:
    """Size a BinCode for the given source and channel design point.

    The packet carries ceil(n * diagonal_rate(N, B, W)) + delta bits
    (delta slack bits per packet buy a 2**-((W+1)*delta) failure bound),
    capped at the raw codeword size, which disables binning.  An
    explicit ``packet_bits`` below the information threshold is refused.
    """
    r0 = _Codec(spec, B, W).r0
    need = math.ceil(rates.diagonal_rate(spec.widths, B, W) * n)
    cap = n * r0
    if packet_bits is None:
        packet_bits = min(need + delta, cap)
    if not need <= packet_bits <= cap:
        raise InvalidInput(
            f"packet_bits must lie in [{need}, {cap}] for this design point"
        )
    return BinCode(seed=seed, n=n, r0_bits=r0, packet_bits=packet_bits)


@dataclass
class PacketStream:
    """A horizon of fixed-size packets, with None marking erased slots."""

    spec: DiagonalSourceSpec
    B: int
    W: int
    n: int
    packet_bits: int
    seed: int
    packets: list

    @property
    def T(self) -> int:
        return len(self.packets)

    def with_erasures(self, pattern: channel.ErasurePattern) -> "PacketStream":
        return replace(self, packets=channel.apply(pattern, self.packets))


def encode(
    trace, spec: DiagonalSourceSpec, B: int, W: int, bincode: BinCode
) -> PacketStream:
    """Hash each time-step's rearranged codeword into one packet."""
    codec = bincode.codec(spec, B, W)
    if tuple(trace.widths) != tuple(spec.widths):
        raise InvalidInput("trace widths do not match the source spec")
    if trace.n != bincode.n:
        raise InvalidInput("bin code was sized for a different design point")
    packets = []
    for t in range(trace.T):
        block = codec.rearrange([trace.sub[j][t] for j in range(spec.K + 1)])
        packets.append(bincode.hash_vec(t, block.vec()))
    return PacketStream(
        spec=spec,
        B=B,
        W=W,
        n=trace.n,
        packet_bits=bincode.packet_bits,
        seed=bincode.seed,
        packets=packets,
    )


@dataclass
class DecoderState:
    """Receiver state machine.

    In steady mode ``last_known`` holds the full symbol at ``time - 1``.
    During recovery it freezes at the pre-burst symbol while packets
    accumulate in ``buffered``; the stacked solve fires once W+1 of
    them have arrived.
    """

    time: int
    mode: str  # "steady" | "recovering"
    last_known: list
    recovered_time: int
    burst_start: int | None = None
    burst_len: int = 0
    buffered: list = field(default_factory=list)

    @classmethod
    def initial(cls, tail_symbol: Sequence[np.ndarray]) -> "DecoderState":
        """Start at time 0 given the revealed symbol at time -1."""
        layers = [np.asarray(s, np.uint8) for s in tail_symbol]
        return cls(time=0, mode="steady", last_known=layers, recovered_time=-1)


def decode_step(
    state: DecoderState,
    packet,
    spec: DiagonalSourceSpec,
    B: int,
    W: int,
    bincode: BinCode,
):
    """Consume the time-``state.time`` channel output.

    Returns ``(state, layers)`` where ``layers`` is the full symbol for
    that time, or None when the time falls inside a burst or its
    recovery window (a "not required" marker).

    Raises:
        PatternViolation: the erasure pattern breaks the single-burst /
            guard-spacing contract this codec is designed for.
        DecodeFailure: the hash did not pin the unknowns down uniquely.
    """
    codec = bincode.codec(spec, B, W)
    t = state.time
    if packet is None:
        if state.mode == "steady":
            if B == 0:
                raise PatternViolation("erasure on a channel designed for B = 0")
            state.mode = "recovering"
            state.burst_start = t
            state.burst_len = 1
            state.buffered = []
        else:
            if state.buffered:
                raise PatternViolation(
                    "new burst began inside the recovery window"
                )
            state.burst_len += 1
            if state.burst_len > B:
                raise PatternViolation("burst longer than the design bound B")
        state.time += 1
        return state, None

    arr = np.asarray(packet, np.uint8)
    if arr.shape != (bincode.packet_bits,):
        raise InvalidInput("packet size does not match the bin code")

    if state.mode == "steady":
        layers = codec.solve_window(t, t, [arr], state.last_known)
    else:
        state.buffered.append(arr)
        if len(state.buffered) < W + 1:
            state.time += 1
            return state, None
        layers = codec.solve_window(t, state.burst_start, state.buffered, state.last_known)
        state.mode = "steady"
        state.burst_start = None
        state.burst_len = 0
        state.buffered = []
    state.last_known = layers
    state.recovered_time = t
    state.time += 1
    return state, layers


def decode_stream(stream: PacketStream, bincode: BinCode, tail_symbol) -> list:
    """Run the decoder over a whole PacketStream; one entry per time."""
    state = DecoderState.initial(tail_symbol)
    out = []
    for t in range(stream.T):
        state, layers = decode_step(
            state, stream.packets[t], stream.spec, stream.B, stream.W, bincode
        )
        out.append(layers)
    return out


def reconstruct_symbol(
    spec: DiagonalSourceSpec,
    B: int,
    W: int,
    innovations: Sequence[np.ndarray],
    deep_parts: Sequence[np.ndarray] = (),
    anchor: tuple[Sequence[np.ndarray], int] | None = None,
) -> list[np.ndarray]:
    """Rebuild the full symbol at time i from recovered codeword pieces.

    Args:
        innovations: the last W+1 innovation layers, times i-W .. i.
        deep_parts: codeword parts c_{i-W, 1..L}; part k lands verbatim
            as layer W+k of time i.
        anchor: (symbol_layers, delta) for layers deeper than W+L, taken
            from the full symbol at time i-delta.

    Layer j <= W comes from the innovation of time i-j pushed down j
    steps; with L = B and spec.K == B+W nothing else is needed.
    """
    codec = _Codec(spec, B, W)
    if len(innovations) != W + 1:
        raise InvalidInput("need exactly W+1 innovation layers")
    if len(deep_parts) > B:
        raise InvalidInput("more deep parts than burst slots")
    return codec.assemble(innovations, deep_parts, anchor)
