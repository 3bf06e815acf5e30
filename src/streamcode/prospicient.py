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
bits the burst destroyed; a steady step is the zero-erasure case, one
packet solved by the steady solver of its time.  A recovery window is
composed from the steady solvers of its times: each packet gives its
innovation as an affine function of the deep parts, and what its steady
solver cannot absorb leaves check equations in the deep parts alone, one
small system for the whole window (a stacked system only where some
time's innovation columns lack full column rank).  Every symbol layer and
codeword part is an earlier innovation pushed through the layer maps, and
one rule (``BinCode._held``) says where the decoder holds each innovation:
a layer of the last decoded symbol before the burst, a solved innovation
in the window, the destroyed deep part at an erased time.  The known
codeword parts, the emitted symbols and the columns each packet puts on
the unknowns all read it.  Everything outside the error-propagation window
[burst_start, burst_start+B'+W-1] is emitted bit-exactly; window times are
emitted as explicit skip markers.

A BinCode is the code of one design point: the spec and the pair (B, W)
fix the codeword parts and, through R(B, W), the packet size, so
``encode`` and ``decode_step`` refuse any other (spec, B, W).  By default
the time-t hash is the top bit of each byte of the raw PCG64 stream
seeded by [seed, t], which is bit for bit numpy's
``default_rng([seed, t]).integers(0, 2, (packet_bits, in_bits), dtype=np.uint8)``,
and each decode fails with a small probability that ``delta`` bounds.
The code holds one cache entry per time: the time's packed hash and its
solvers, by erased count (the layer-map products are the spec's own,
``DiagonalSourceSpec.prod``).  It holds the entries of its _HELD_TIMES
most recently used times only, so its memory stays flat however long the
stream runs; a time's hash and solvers are dropped together, and drawn
and rebuilt on the time's next use.

A certified code (``design_bincode(..., certified=True)``) shares one
hash across all times, so a system depends on its erased count alone:
the code holds one entry, and its B+1 solvers are checked once, at
design time.  That is a time-invariant code, zero-error within the
single-burst contract (Martinian and Sundberg, IEEE Trans. IT, 2004).
With binning disabled the hash is the identity, the same one-entry case.
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

# A per-time code keeps the entries (hash and solvers) of this many times.
# The decoder looks back at most one burst plus its recovery window, and the
# longest horizon a caller reuses one code over is 64 times, so reuse never
# rebuilds a solver.
_HELD_TIMES = 128

# A certified code draws its shared hash at most this many times.  About 0.3
# of draws pass at delta=0 and each slack bit of delta halves a key's chance
# of failing, so a design point that exhausts them is all but infeasible.
_CERTIFY_ATTEMPTS = 64

# holders of ``BinCode._held``: last symbol, window innovations, deep parts
_PRE, _INNOV, _DEEP = range(3)


def _part_widths(spec: DiagonalSourceSpec, B: int, W: int) -> tuple[int, ...]:
    """Codeword part widths of a design point: the innovation layer, then
    layer W+k for each burst slot k = 1..B."""
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    if spec.K != B + W:
        raise InvalidInput("spec depth must equal B+W; normalize the spec first")
    return (spec.widths[0],) + tuple(spec.widths[W + k] for k in range(1, B + 1))


@dataclass(eq=False)
class BinCode:
    """The code of one design point (spec, B, W): a seeded random linear
    hash of the flattened codeword, and everything the decoder derives
    from it.

    With ``attempt`` None each time t draws its own matrix, reproducible
    from (seed, t): row by row, its bits are the top bits of the bytes of
    ``PCG64([seed, t]).random_raw``, the bits that ``default_rng([seed,
    t]).integers(0, 2, (packet_bits, in_bits), dtype=np.uint8)`` returns,
    for less than half its cost.  With ``attempt`` set, every time shares
    the one matrix drawn the same way from (seed, attempt), the draw that
    ``design_bincode`` certified.  When ``packet_bits == n * r0_bits`` the
    hash degenerates to the identity, shared by every time whatever
    ``attempt`` is, and packets carry the codeword verbatim (binning
    disabled).

    The code also holds the codeword part widths and, in ``_times``, one
    entry per time: its packed hash and the solvers of ``solve_window`` by
    erased count bp.  The layer-map products are the spec's (``prod``).
    Key (t, 0) is the steady solver of time t, the building block of every
    decode; a recovery key (t, bp >= 1) is the window of bp erasures that
    ends at t, composed from the steady solvers of its times (a small
    solver for the deep parts plus the map that lifts them onto the
    innovations), or stacked when some time's innovation columns lack full
    column rank.

    A per-time code keys its entries by t, least recently used first, and
    every read of a time's hash or solvers marks it recent; holding one
    more time than _HELD_TIMES drops the least recent entry, hash and
    solvers together.  With a shared hash the systems are the same at
    every time, so the code holds one entry, under the key None.
    """

    spec: DiagonalSourceSpec
    B: int
    W: int
    n: int
    packet_bits: int
    seed: int
    attempt: int | None = None

    def __post_init__(self) -> None:
        self.part_widths = _part_widths(self.spec, self.B, self.W)
        if self.n < 1:
            raise InvalidInput("need n >= 1")
        self.widths = self.spec.widths
        self.offs = [0, *accumulate(self.part_widths)]
        # bits doffs[i]:doffs[i+1] of a window's deep unknowns: time first-1-i
        self.doffs = [0, *accumulate(self.n * w for w in self.part_widths[1:])]
        self.r0_bits = self.offs[-1]
        self.in_bits = self.n * self.r0_bits
        if not 0 <= self.packet_bits <= self.in_bits:
            raise InvalidInput("packet size must lie in [0, codeword bits]")
        self.identity_mode = self.packet_bits == self.in_bits
        # key (t, or None for a shared hash) -> (hash, {erased count: solver})
        self._times: dict[int | None, tuple[gf2.BitMatrix, dict]] = {}

    def _check_design_point(self, spec: DiagonalSourceSpec, B: int, W: int) -> None:
        if B != self.B or W != self.W or (spec is not self.spec and spec != self.spec):
            raise InvalidInput("bin code was designed for another (spec, B, W)")

    def matrix(self, t: int) -> np.ndarray:
        """Hash matrix for time t as a (packet_bits, in_bits) bit array."""
        return self.packed(t).to_bits()

    def packed(self, t: int) -> gf2.BitMatrix:
        """Time-t hash as a packed bit matrix, the code's one cached form."""
        return self._time(t)[0]

    def _time(self, t: int) -> tuple[gf2.BitMatrix, dict]:
        """The entry of time t, its hash and its solvers by erased count,
        marked most recently used.  A shared hash (certified, or the
        identity) is one entry under the key None; a per-time code keys by
        t and, holding _HELD_TIMES entries, drops the least recent one to
        draw a new time."""
        if t < 0:
            raise InvalidInput("packet times are nonnegative")
        per_time = self.attempt is None and not self.identity_mode
        key = t if per_time else None
        got = self._times.pop(key, None)
        if got is None:
            if len(self._times) >= _HELD_TIMES:
                del self._times[next(iter(self._times))]
            if self.identity_mode:
                got = (gf2.BitMatrix.identity(self.in_bits), {})
            else:
                got = (self._draw(t if per_time else self.attempt), {})
        self._times[key] = got
        return got

    def _draw(self, stream: int) -> gf2.BitMatrix:
        # numpy's integers(0, 2) on uint8 keeps the top bit of each raw
        # byte, taking the bytes of each 64-bit word low to high
        bits = self.packet_bits * self.in_bits
        raw = np.random.PCG64([self.seed, stream]).random_raw(-(-bits // 8))
        top = raw.astype("<u8", copy=False).view(np.uint8)[:bits]
        top >>= 7
        shape = (self.packet_bits, self.in_bits)
        return gf2.BitMatrix(*shape, gf2._pack_bits(top.reshape(shape)))

    def hash_vec(self, t: int, vec: np.ndarray) -> np.ndarray:
        """Apply the time-t hash to an (n, r0_bits) codeword array."""
        flat = np.asarray(vec, np.uint8).reshape(-1)
        if flat.shape[0] != self.in_bits:
            raise InvalidInput("codeword size does not match the hash input")
        return self.packed(t).mul_vec(gf2.BitVector.from_bits(flat)).to_bits()

    def hash_trace(self, words: np.ndarray) -> list[np.ndarray]:
        """Packets of times 0..T-1 from a (T, n, r0_bits) codeword array:
        one product when every time reads the entry of a shared hash, else
        one per time."""
        flat = words.reshape(len(words), self.in_bits)
        if len(flat) and self._time(0) is self._times.get(None):
            return list(gf2.mul(flat, self.matrix(0).T))
        return [self.hash_vec(t, w) for t, w in enumerate(words)]

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
        deep codeword parts c_{t-W, 1..bp} the erasures destroyed.  Part k
        of the codeword of tau is the innovation of time tau-k pushed
        through the layer products, and ``_held`` says where that is held:
        in ``pre`` before j0 (known), in the window (an unknown innovation)
        or at an erased time (an unknown deep part).  So every codeword bit
        of the packets is affine in the unknowns, and once they are solved
        the same rule builds the symbol at t.

        A steady step is one solve by the steady solver of time t.  A window
        is composed from the steady solvers of its times (see ``_compose``),
        or solved as one stacked system when some time's innovation columns
        lack full column rank; both routes give the same bits and the same
        ``DecodeFailure`` text.
        """
        n, n0 = self.n, self.widths[0]
        L = len(packets)
        first = t - L + 1
        bp = first - j0
        if L == 1 and bp == 0:
            u = _solve_bits(self._solver(t, t, 0), self._rhs(t, packets[0], j0, first, pre), t)
            return self._symbol(t, j0, first, pre, (u.reshape(n, n0),))

        solver = self._solver(first, t, bp)
        if isinstance(solver, _Composed):
            innov, checks = [], []
            for tau, packet in enumerate(packets, first):
                y = gf2.BitVector.from_bits(self._rhs(tau, packet, j0, first, pre, innov))
                z = self._solver(tau, tau, 0).ops.mul_vec(y).to_bits()
                innov.append(z[: n * n0].reshape(n, n0))
                checks.append(z[n * n0 :])
            deep = _solve_bits(solver.reduced, np.concatenate(checks), t)
            lifted = solver.lift.mul_vec(gf2.BitVector.from_bits(deep)).to_bits()
            innov = np.concatenate(innov).reshape(-1) ^ lifted
        else:
            rhs = [self._rhs(tau, p, j0, first, pre) for tau, p in enumerate(packets, first)]
            z = _solve_bits(solver, np.concatenate(rhs), t)
            innov, deep = z[: L * n * n0], z[L * n * n0 :]
        d = self.doffs
        parts = [deep[d[i] : d[i + 1]].reshape(n, self.part_widths[i + 1]) for i in range(bp)]
        return self._symbol(t, j0, first, pre, innov.reshape(L, n, n0), parts)

    def _held(self, b: int, j0: int, first: int) -> tuple[int, int, int]:
        """Where a window of packets first..t after the erasures j0..first-1
        holds the innovation of time b: (h, i, lo), layer lo of entry i of
        holder h.  ``_PRE``, the symbol at j0-1, holds b < j0 at layer
        j0-1-b; ``_INNOV`` holds b >= first at layer 0; ``_DEEP``, the deep
        parts the erasures destroyed, holds erased b at layer W+first-b."""
        if b < j0:
            return _PRE, j0 - 1 - b, j0 - 1 - b
        if b >= first:
            return _INNOV, b - first, 0
        return _DEEP, first - b - 1, self.W + first - b

    def _feed(self, b: int, layer: int, j0: int, first: int, held) -> np.ndarray | None:
        """The innovation of time b pushed to ``layer``, one product from
        where ``held`` (the holders (pre, innov, deep) of ``_held``) holds
        it, or None while it is unknown there."""
        h, i, lo = self._held(b, j0, first)
        src = held[h][i] if i < len(held[h]) else None
        return src if src is None or layer == lo else gf2.mul(src, self.spec.prod(layer, lo).T)

    def _rhs(self, tau: int, packet: np.ndarray, j0: int, first: int, pre, innov=()) -> np.ndarray:
        """Packet tau less the hash of its known codeword parts, with
        ``innov`` the window's innovations solved so far: part k >= 1 is the
        innovation of time tau-k pushed to layer W+k; unknown parts are zero."""
        base = np.zeros((self.n, self.r0_bits), np.uint8)
        for k in range(1, self.B + 1):
            if self.part_widths[k]:
                feed = self._feed(tau - k, self.W + k, j0, first, (pre, innov, ()))
                if feed is not None:
                    base[:, self.offs[k] : self.offs[k + 1]] = feed
        return packet ^ self.hash_vec(tau, base)

    def _symbol(self, t: int, j0: int, first: int, pre, innov, deep=()) -> list[np.ndarray]:
        """The symbol at t: layer j is the innovation of time t-j pushed to layer j."""
        held = (pre, innov, deep)
        layers = [self._feed(t - j, j, j0, first, held) for j in range(self.spec.K + 1)]
        assert all(x is not None for x in layers), "missing reconstruction dependency"
        return layers

    def _reads(self, tau: int, first: int, j0: int):
        """Packet tau's hash columns on each unknown it reads, as triples
        (h, i, bits) naming the unknown as ``_held`` does: part k of the
        codeword reads the innovation of time tau-k (k = 0 its own), unless
        ``pre`` holds it; bits is a (packet_bits, n * width) 0/1 array."""
        n, rows = self.n, self.packet_bits
        h3 = self.matrix(tau).reshape(rows, n, self.r0_bits)
        for k in range(self.B + 1):
            layer = self.W + k if k else 0
            h, i, lo = self._held(tau - k, j0, first)
            if h == _PRE or self.part_widths[k] == 0:
                continue
            cols = h3[:, :, self.offs[k] : self.offs[k + 1]]
            if layer != lo:
                cols = gf2.mul(cols, self.spec.prod(layer, lo))
            yield h, i, cols.reshape(rows, n * self.widths[lo])

    def _solver(self, first: int, t: int, bp: int) -> gf2.PrefactoredSolver | _Composed:
        """The cached solver of key (t, bp), held in t's entry: with bp = 0
        the steady solver of time t (first = t), over the innovation columns
        H0_t of its hash; else the window of packets first..t, composed, or
        stacked when some time's innovation columns lack full column rank.
        Its matrices are fixed by the code and the key; only the right-hand
        side, which folds in ``pre``, changes between decodes."""
        solvers = self._time(t)[1]
        got = solvers.get(bp)
        if got is None:
            got = self._compose(first, t, bp) if bp else None
            got = solvers[bp] = got or self._stack(first, t, bp)
        return got

    def _certified(self) -> bool:
        """Whether every key of a shared hash has full column rank: the
        steady key, then the window of each erased count 1..B.  The keys do
        not depend on t, so the window after erasures 0..bp-1 stands for
        all; the solvers built here are the ones decoding reads."""
        keys = [(0, 0, 0)] + [(bp, bp + self.W, bp) for bp in range(1, self.B + 1)]
        return all(_full_rank(self._solver(*key)) for key in keys)

    def _stack(self, first: int, t: int, bp: int) -> gf2.PrefactoredSolver:
        """One solver over the stacked system of the packets first..t after
        bp erasures; unknown blocks: the L innovations in time order, then
        the deep parts of times first-1, first-2, ..."""
        inn, L = self.n * self.widths[0], t - first + 1
        blocks = []
        for tau in range(first, t + 1):
            acc = np.zeros((self.packet_bits, L * inn + self.doffs[bp]), np.uint8)
            for h, i, bits in self._reads(tau, first, first - bp):
                c = i * inn if h == _INNOV else L * inn + self.doffs[i]
                acc[:, c : c + bits.shape[1]] ^= bits
            blocks.append(acc)
        return gf2.PrefactoredSolver(gf2.BitMatrix.from_bits(np.concatenate(blocks)))

    def _compose(self, first: int, t: int, bp: int) -> _Composed | None:
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
        steadies = [self._solver(tau, tau, 0) for tau in range(first, t + 1)]
        if any(steady.rank < steady.cols for steady in steadies):
            return None
        d = self.doffs
        lifts, checks = [], []
        for tau, steady in enumerate(steadies, first):
            reads = np.zeros((self.packet_bits, d[bp]), np.uint8)
            for h, i, bits in self._reads(tau, first, first - bp):
                if h == _DEEP:
                    reads[:, d[i] : d[i + 1]] ^= bits
                elif first + i < tau:  # an earlier innovation, through its lift
                    reads ^= (gf2.BitMatrix.from_bits(bits) @ lifts[i]).to_bits()
            moved = (steady.ops @ gf2.BitMatrix.from_bits(reads)).words
            lifts.append(gf2.BitMatrix(steady.cols, d[bp], moved[: steady.cols]))
            checks.append(gf2.BitMatrix(steady.rows - steady.cols, d[bp], moved[steady.cols :]))
        return _Composed(gf2.PrefactoredSolver(gf2.vstack(checks)), gf2.vstack(lifts))


@dataclass(frozen=True)
class _Composed:
    """A recovery window solved through the steady solvers of its times:
    ``reduced`` solves the stacked check equations for the deep parts d,
    and ``lift`` (rows: the window's innovation bits in time order) adds
    each innovation's share of d to its steady solve."""

    reduced: gf2.PrefactoredSolver
    lift: gf2.BitMatrix


def _full_rank(solver: gf2.PrefactoredSolver | _Composed) -> bool:
    """Whether a key's system pins its unknowns down: the reduced system of
    a composed window, else the solver's own."""
    s = solver.reduced if isinstance(solver, _Composed) else solver
    return s.rank == s.cols


def _solve_bits(solver: gf2.PrefactoredSolver, rhs: np.ndarray, t: int) -> np.ndarray:
    """Unique GF(2) solve, mapped onto the decoder's failure contract."""
    try:
        return solver.solve_unique(rhs)
    except ValueError as exc:
        raise DecodeFailure(f"time {t}: {exc}") from exc


def design_bincode(
    spec: DiagonalSourceSpec,
    B: int,
    W: int,
    n: int,
    delta: int = 8,
    seed: int = 0,
    certified: bool = False,
) -> BinCode:
    """Build the BinCode of the given source and channel design point.

    The packet carries ceil(n * diagonal_rate(N, B, W)) + delta bits,
    capped at the raw codeword size, which disables binning.  A negative
    ``delta`` puts the packet below the information threshold and is
    refused.

    The default code draws a hash per time, and delta buys a
    2**-((W+1)*delta) bound on each decode's failure.  A ``certified``
    code shares one hash, drawn from [seed, attempt] for attempt = 0, 1,
    ...: the first draw whose steady key and B windows all have full
    column rank, or InvalidInput after _CERTIFY_ATTEMPTS draws.  It is
    zero-error within the single-burst contract, so there delta buys
    fewer redraws, not a failure bound.  The per-time code stays the
    default until the benchmark holds one window of samples, since there
    the certified code's speed would read as more memory.
    """
    if delta < 0:
        raise InvalidInput(f"delta must be nonnegative, got {delta}")
    r0 = sum(_part_widths(spec, B, W))
    need = math.ceil(rates.diagonal_rate(spec.widths, B, W) * n)
    cap = n * r0
    packet_bits = min(need + delta, cap)
    if not need <= packet_bits <= cap:
        raise InvalidInput(
            f"packet_bits must lie in [{need}, {cap}] for this design point"
        )
    if not certified or packet_bits == cap:
        return BinCode(spec, B, W, n, packet_bits, seed)
    for attempt in range(_CERTIFY_ATTEMPTS):
        code = BinCode(spec, B, W, n, packet_bits, seed, attempt)
        if code._certified():
            return code
    raise InvalidInput(
        f"no hash of {_CERTIFY_ATTEMPTS} draws gave every key full column rank "
        f"at delta={delta}; raise delta"
    )


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
    to depth W+k, one product over the whole trace per part.  The code
    must be the one designed for (spec, B, W)."""
    bincode._check_design_point(spec, B, W)
    layers = [np.asarray(a, np.uint8) for a in trace.sub]
    if [a.shape for a in layers] != [(trace.T, bincode.n, w) for w in spec.widths]:
        raise InvalidInput("trace layers must be (T, n, N_j) arrays for the spec and code")
    parts = [layers[0]] + [
        gf2.mul(layers[k], bincode.spec.prod(W + k, k).T) for k in range(1, B + 1)
    ]
    words = np.concatenate(parts, axis=2)
    return PacketStream(spec=spec, B=B, W=W, packets=bincode.hash_trace(words))


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
        InvalidInput: (spec, B, W) is not the design point of ``bincode``;
            or at time 0, the revealed tail symbol lacks an (n, N_j) layer
            for some j < K (the layers the decoder reads).
    """
    bincode._check_design_point(spec, B, W)
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
        layers = bincode.solve_window(t, t, [arr], state.last_known)
    else:
        state.buffered.append(arr)
        if len(state.buffered) < W + 1:
            state.time += 1
            return state, None
        layers = bincode.solve_window(t, state.burst_start, state.buffered, state.last_known)
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

