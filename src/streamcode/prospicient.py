"""Lookahead streaming codec for layered GF(2) sources.

The encoder is memoryless: each time's codeword is a fixed linear map of
that time's symbol — the innovation layer plus, for each burst slot
k = 1..B, layer k pushed through the layer-to-layer products to depth
W+k — so ``encode`` builds the codewords of the whole trace with one
product per part, then transmits a seeded random linear hash of each
time's codeword across all n spatial copies.  The decoder has one
rule, a joint linear solve over a window of received packets: after a
burst of B' <= B erasures it buffers W+1 packets and solves for the
(W+1)·n·N_0 fresh innovation bits plus the n·sum(N_{W+k}) deep-codeword
bits the burst destroyed.  A steady step is the zero-erasure case of the
same solve: one packet, whose n·N_0 innovation bits are the only
unknowns, solved by the steady solver of its time.  A recovery window is
composed from the steady solvers of its times: each packet gives its
innovation as an affine function of the deep parts, and what its steady
solver cannot absorb leaves check equations in the deep parts alone, one
small system for the whole window.  Only when some time's innovation
columns lack full column rank is the window solved as one stacked system.
Everything outside the error-propagation window
[burst_start, burst_start+B'+W-1] is emitted bit-exactly; window times are
emitted as explicit skip markers.

A BinCode is only the seeded hash, so one code can serve several specs.
For each (spec, B, W) it is used with, the code keeps one codec, built on
first use, that holds the layer-map products and one cache of that
code's solvers, keyed by (t, erased count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import channel, gf2, rates
from .errors import DecodeFailure, InvalidInput, PatternViolation
from .sources import DiagonalSourceSpec


class _Codec:
    """Everything fixed by one (spec, B, W) design point: codeword part
    widths, cached layer-to-layer map products as dense bit arrays, and the
    solvers of ``solve_window``, in one dict keyed by (t, erased count).
    Key (t, 0) holds the steady solver of time t, the building block of
    every decode; a recovery key (t, bp >= 1) holds the window composed
    from the steady solvers of its times (a small solver for the deep parts
    plus the map that lifts them onto the innovations), or a stacked solver
    when some time's innovation columns lack full column rank.

    The solvers belong to the BinCode that keeps this codec (see
    ``BinCode.codec``); the codec holds no reference back to it, since
    ``solve_window`` receives the code.  So a code and its codecs form no
    reference cycle, and a dropped code frees its hashes and solvers at
    once.
    """

    def __init__(self, spec: DiagonalSourceSpec, B: int, W: int):
        if B < 0 or W < 0:
            raise InvalidInput("B and W must be nonnegative")
        if spec.K != B + W:
            raise InvalidInput(
                "spec depth must equal B+W; normalize the spec first"
            )
        self.spec = spec
        self.B = B
        self.W = W
        self.widths = spec.widths
        self.part_widths = (spec.widths[0],) + tuple(
            spec.widths[W + k] for k in range(1, B + 1)
        )
        self.offs = [0, *accumulate(self.part_widths)]
        self.r0 = self.offs[-1]
        self._rbits = [None] + [m.to_bits() for m in spec.R]
        self._prods: dict[tuple[int, int], np.ndarray] = {}
        # by (t, erased count): a steady step is (t, 0), a deadline (t, bp >= 1)
        self._solvers: dict[tuple[int, int], gf2.PrefactoredSolver | _Composed] = {}

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

    def solve_window(
        self,
        code: BinCode,
        t: int,
        j0: int,
        packets: Sequence[np.ndarray],
        pre: Sequence[np.ndarray],
    ) -> list[np.ndarray]:
        """Joint decode of the packets of times t-L+1..t, L = len(packets),
        hashed by ``code``, the BinCode that keeps this codec.

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

        A steady step is one solve by the steady solver of time t.  A window
        is composed from the steady solvers of its times (see ``_compose``):
        a pass of steady solves with the deep parts set to zero, one small
        solve for the deep parts, and one product that lifts them onto the
        innovations.  When some time's innovation columns lack full column
        rank, the window is solved as one stacked system instead.  Both
        routes give the same bits and the same ``DecodeFailure`` text.
        """
        n, n0 = code.n, self.widths[0]
        L = len(packets)
        first = t - L + 1
        bp = first - j0
        if L == 1 and bp == 0:
            y = packets[0] ^ code.hash_vec(t, self._known(n, t, j0, first, pre, None))
            u = _solve_bits(self._steady(code, t), y, t)
            return self.assemble([u.reshape(n, n0)], [], (pre, 1))

        # the coefficient matrices are fixed by the code and the key; only the
        # right-hand side (which folds in ``pre``) changes between decodes
        solver = self._solvers.get((t, bp))
        if solver is None:
            solver = self._compose(code, first, t, bp) or self._stack(code, first, t, bp)
            self._solvers[t, bp] = solver
        if isinstance(solver, _Composed):
            innov, checks = [], []
            for tau, packet in zip(range(first, t + 1), packets):
                y = gf2.BitVector.from_bits(
                    packet ^ code.hash_vec(tau, self._known(n, tau, j0, first, pre, innov))
                )
                z = self._steady(code, tau).ops.mul_vec(y).to_bits()
                innov.append(z[: n * n0].reshape(n, n0))
                checks.append(z[n * n0 :])
            deep = _solve_bits(solver.reduced, np.concatenate(checks), t)
            lifted = solver.lift.mul_vec(gf2.BitVector.from_bits(deep)).to_bits()
            innov = np.concatenate(innov).reshape(-1) ^ lifted
        else:
            rhs = [
                packet ^ code.hash_vec(tau, self._known(n, tau, j0, first, pre, None))
                for tau, packet in zip(range(first, t + 1), packets)
            ]
            z = _solve_bits(solver, np.concatenate(rhs), t)
            innov, deep = z[: L * n * n0], z[L * n * n0 :]
        dw = [self.widths[self.W + m] for m in range(1, bp + 1)]
        doffs = [0, *accumulate(n * w for w in dw)]
        return self.assemble(
            list(innov.reshape(L, n, n0)),
            [deep[doffs[m] : doffs[m + 1]].reshape(n, dw[m]) for m in range(bp)],
            (pre, t - j0 + 1),
        )

    def _known(self, n, tau, j0, first, pre, innov) -> np.ndarray:
        """The (n, r0) codeword of time tau with its known parts filled in:
        a part fed by a time before j0 comes from ``pre``, one fed by a
        window time b >= first from ``innov[b - first]`` (unless ``innov``
        is None); the innovation part and the parts fed by erased times
        stay zero."""
        W = self.W
        base = np.zeros((n, self.r0), np.uint8)
        for k in range(1, self.B + 1):
            if self.part_widths[k] == 0:
                continue
            b = tau - k  # time whose innovation feeds this part
            if b < j0:
                lag = tau - j0 + 1  # pre is the symbol at j0-1
                src, lo = pre[k - lag], k - lag
            elif b >= first and innov is not None:
                src, lo = innov[b - first], 0
            else:
                continue
            base[:, self.offs[k] : self.offs[k + 1]] = gf2.mul(src, self.prod(W + k, lo).T)
        return base

    def _reads(self, code: BinCode, tau: int, first: int, j0: int):
        """Packet tau's hash columns on each unknown it reads, as pairs
        (b, bits): b >= first reads the innovation of time b (b = tau is its
        own), an erased b < first the deep part that b's innovation became,
        layer W + first - b of the deadline symbol; bits is a
        (packet_bits, n * width) 0/1 array."""
        n, W, rows = code.n, self.W, code.packet_bits
        h3 = code.matrix(tau).reshape(rows, n, self.r0)
        yield tau, h3[:, :, : self.widths[0]].reshape(rows, n * self.widths[0])
        for k in range(1, self.B + 1):
            if self.part_widths[k] == 0:
                continue
            b = tau - k
            if b >= first:
                lo = 0
            elif b >= j0:
                lo = W + first - b
            else:
                continue
            cols = h3[:, :, self.offs[k] : self.offs[k + 1]]
            yield b, gf2.mul(cols, self.prod(W + k, lo)).reshape(rows, n * self.widths[lo])

    def _steady(self, code: BinCode, tau: int) -> gf2.PrefactoredSolver:
        """The cached solver of key (tau, 0), over the innovation columns
        H0_tau of the time-tau hash."""
        got = self._solvers.get((tau, 0))
        if got is None:
            got = self._solvers[tau, 0] = self._stack(code, tau, tau, 0)
        return got

    def _stack(self, code: BinCode, first: int, t: int, bp: int) -> gf2.PrefactoredSolver:
        """One solver over the stacked system of the packets first..t after
        bp erasures; unknown blocks: the L innovations in time order, then
        the deep parts of times first-1, first-2, ..."""
        n, L = code.n, t - first + 1
        zw = [self.widths[0]] * L + [self.widths[self.W + m] for m in range(1, bp + 1)]
        zoffs = [0, *accumulate(n * w for w in zw)]
        blocks = []
        for tau in range(first, t + 1):
            acc = np.zeros((code.packet_bits, zoffs[-1]), np.uint8)
            for b, bits in self._reads(code, tau, first, first - bp):
                i = b - first if b >= first else L + first - b - 1
                acc[:, zoffs[i] : zoffs[i + 1]] ^= bits
            blocks.append(acc)
        return gf2.PrefactoredSolver(gf2.BitMatrix.from_bits(np.concatenate(blocks)))

    def _compose(self, code: BinCode, first: int, t: int, bp: int) -> _Composed | None:
        """The window of key (t, bp) reduced to its deep parts d, or None
        when some time's H0_tau lacks full column rank.

        Packet tau reads its own innovation only through H0_tau, which the
        steady solver of tau factors into a solve map S and a check map C.
        Substituting forward from the first time, with reads_tau the hash
        columns packet tau puts on d directly and through the earlier
        innovations: u_tau = a_tau + U_tau d with U_tau = S reads_tau, and
        the packet holds exactly when (C reads_tau) d = C y_tau, where y_tau
        is the packet with every known part and a_b folded in.  Each u_tau
        is a function of d, so the stacked system and the reduced one share
        their rank deficit and their consistency, hence every decoded bit
        and every failure message.
        """
        n = code.n
        doffs = [0, *accumulate(n * self.widths[self.W + m] for m in range(1, bp + 1))]
        lifts, checks = [], []
        for tau in range(first, t + 1):
            steady = self._steady(code, tau)
            if steady.rank < steady.cols:
                return None
            reads = np.zeros((code.packet_bits, doffs[-1]), np.uint8)
            for b, bits in self._reads(code, tau, first, first - bp):
                if b == tau:
                    continue
                if b >= first:
                    reads ^= gf2.mul(bits, lifts[b - first])
                else:
                    m = first - b
                    reads[:, doffs[m - 1] : doffs[m]] ^= bits
            moved = gf2.mul(steady.ops.to_bits(), reads)
            lifts.append(moved[: steady.cols])
            checks.append(moved[steady.cols :])
        return _Composed(
            gf2.PrefactoredSolver(gf2.BitMatrix.from_bits(np.concatenate(checks))),
            gf2.BitMatrix.from_bits(np.concatenate(lifts)),
        )

    def assemble(
        self,
        innovations: Sequence[np.ndarray],
        deep_parts: Sequence[np.ndarray],
        anchor: tuple[Sequence[np.ndarray], int],
    ) -> list[np.ndarray]:
        # a steady step brings one innovation, a recovery window W+1
        K, w = self.spec.K, len(innovations) - 1
        layers: list = [None] * (K + 1)
        layers[0] = np.asarray(innovations[-1], np.uint8)
        for j in range(1, min(w, K) + 1):
            layers[j] = gf2.mul(innovations[-1 - j], self.prod(j, 0).T)
        for k, part in enumerate(deep_parts, start=1):
            layers[w + k] = np.asarray(part, np.uint8)
        src, delta = anchor
        for j in range(w + len(deep_parts) + 1, K + 1):
            layers[j] = gf2.mul(src[j - delta], self.prod(j, j - delta).T)
        assert all(l is not None for l in layers), "missing reconstruction dependency"
        return layers


@dataclass(frozen=True)
class _Composed:
    """A recovery window solved through the steady solvers of its times:
    ``reduced`` solves the stacked check equations for the deep parts d,
    and ``lift`` (rows: the window's innovation bits in time order) adds
    each innovation's share of d to its steady solve."""

    reduced: gf2.PrefactoredSolver
    lift: gf2.BitMatrix


def _solve_bits(solver: gf2.PrefactoredSolver, rhs: np.ndarray, t: int) -> np.ndarray:
    """Unique GF(2) solve, mapped onto the decoder's failure contract."""
    try:
        return solver.solve_unique(rhs)
    except ValueError as exc:
        raise DecodeFailure(f"time {t}: {exc}") from exc


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
            got = _Codec(spec, B, W)
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
) -> BinCode:
    """Size a BinCode for the given source and channel design point.

    The packet carries ceil(n * diagonal_rate(N, B, W)) + delta bits
    (delta slack bits per packet buy a 2**-((W+1)*delta) failure bound),
    capped at the raw codeword size, which disables binning.  A negative
    ``delta`` puts the packet below the information threshold and is
    refused.
    """
    if delta < 0:
        raise InvalidInput(f"delta must be nonnegative, got {delta}")
    r0 = _Codec(spec, B, W).r0
    need = math.ceil(rates.diagonal_rate(spec.widths, B, W) * n)
    cap = n * r0
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
    packets: list

    @property
    def T(self) -> int:
        return len(self.packets)

    def with_erasures(self, pattern: channel.ErasurePattern) -> "PacketStream":
        return replace(self, packets=channel.apply(pattern, self.packets))


def encode(
    trace, spec: DiagonalSourceSpec, B: int, W: int, bincode: BinCode
) -> PacketStream:
    """Hash each time-step's codeword into one packet.  Part 0 of the
    codeword is the innovation layer; part k (k = 1..B) is layer k pushed
    to depth W+k, one product over the whole trace per part."""
    codec = bincode.codec(spec, B, W)
    layers = [np.asarray(a, np.uint8) for a in trace.sub]
    if [a.shape for a in layers] != [(trace.T, bincode.n, w) for w in spec.widths]:
        raise InvalidInput("trace layers must be (T, n, N_j) arrays for the spec and code")
    parts = [layers[0]] + [
        gf2.mul(layers[k], codec.prod(W + k, k).T) for k in range(1, B + 1)
    ]
    words = np.concatenate(parts, axis=2)
    packets = [bincode.hash_vec(t, words[t]) for t in range(trace.T)]
    return PacketStream(spec=spec, B=B, W=W, packets=packets)


@dataclass
class DecoderState:
    """Receiver state machine.

    In steady mode ``last_known`` holds the full symbol at ``time - 1``.
    During recovery it freezes at the pre-burst symbol while packets
    accumulate in ``buffered``; the window solve fires once W+1 of
    them have arrived.
    """

    time: int
    mode: str  # "steady" | "recovering"
    last_known: list
    burst_start: int | None = None
    burst_len: int = 0
    buffered: list = field(default_factory=list)

    @classmethod
    def initial(cls, tail_symbol: Sequence[np.ndarray]) -> "DecoderState":
        """Start at time 0 given the revealed symbol at time -1."""
        layers = [np.asarray(s, np.uint8) for s in tail_symbol]
        return cls(time=0, mode="steady", last_known=layers)


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
        InvalidInput: at time 0, the revealed tail symbol lacks an
            (n, N_j) layer for some j < K (the layers the decoder reads).
    """
    codec = bincode.codec(spec, B, W)
    t = state.time
    if t == 0:
        _check_tail(state.last_known, spec, bincode.n)
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

    # values are checked before the uint8 cast, which would wrap or truncate them
    raw = np.asarray(packet)
    if raw.shape != (bincode.packet_bits,):
        raise InvalidInput("packet size does not match the bin code")
    if not ((raw == 0) | (raw == 1)).all():
        raise InvalidInput("packet entries must be 0 or 1")
    arr = np.asarray(raw, np.uint8)

    if state.mode == "steady":
        layers = codec.solve_window(bincode, t, t, [arr], state.last_known)
    else:
        state.buffered.append(arr)
        if len(state.buffered) < W + 1:
            state.time += 1
            return state, None
        layers = codec.solve_window(
            bincode, t, state.burst_start, state.buffered, state.last_known
        )
        state.mode = "steady"
        state.burst_start = None
        state.burst_len = 0
        state.buffered = []
    state.last_known = layers
    state.time += 1
    return state, layers


def _check_tail(tail: Sequence[np.ndarray], spec: DiagonalSourceSpec, n: int) -> None:
    """Layers 0..K-1 of the time -1 symbol feed the first decode; the
    deepest layer K feeds nothing, so a K = 0 source needs no tail."""
    want = [(n, w) for w in spec.widths[: spec.K]]
    if len(tail) < spec.K or any(np.shape(layer) != s for layer, s in zip(tail, want)):
        raise InvalidInput(
            f"tail symbol must hold layers of shapes {want} (n copies by N_j bits)"
        )


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

