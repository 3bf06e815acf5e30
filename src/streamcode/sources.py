"""Source models: layered linear bit sources over GF(2) and
semi-deterministic two-layer sources, with their trace generators.

A trace holds ``n`` spatially independent copies of one temporal process,
each sub-symbol as a (T, n, width) uint8 array.  Times before zero live in
a seeded tail that generators expose so decoders can treat pre-stream
history as known.  (Markov sample paths are drawn by
``sw_binning.sample_path``; the Gaussian pipeline draws its own samples.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import gf2
from .errors import InvalidInput, InvariantViolation, json_field, json_int


@dataclass(frozen=True)
class DiagonalSourceSpec:
    """Layered linear source: sub-symbol j at time i is a full-row-rank map
    of sub-symbol j-1 at time i-1, so content drains diagonally across
    layers and nothing else enters after the innovation."""

    widths: tuple[int, ...]
    R: tuple[gf2.BitMatrix, ...]  # R[j-1] maps layer j-1 to layer j

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "R", tuple(self.R))
        if not self.widths or any(w < 0 for w in self.widths):
            raise InvalidInput("widths must be nonnegative and non-empty")
        if len(self.R) != len(self.widths) - 1:
            raise InvalidInput("need exactly one map per adjacent layer pair")
        for j, m in enumerate(self.R, start=1):
            if m.shape != (self.widths[j], self.widths[j - 1]):
                raise InvalidInput(f"map into layer {j} has the wrong shape")
        object.__setattr__(self, "_prods", {})

    @property
    def K(self) -> int:
        return len(self.widths) - 1

    def validate(self) -> None:
        """Full structural check: every inter-layer map has full row rank."""
        for j, m in enumerate(self.R, start=1):
            if gf2.rank(m) != self.widths[j]:
                raise InvariantViolation(f"map into layer {j} is not full row rank")

    def composed(self, j: int) -> gf2.BitMatrix:
        """Depth-j map from the innovation layer: identity for j = 0."""
        if not 0 <= j <= self.K:
            raise InvalidInput("layer index out of range")
        return gf2.BitMatrix.from_bits(self.prod(j, 0))

    def prod(self, hi: int, lo: int) -> np.ndarray:
        """Product of the maps from layer lo up to layer hi, as a read-only
        dense bit array, cached: the one chain that the generator, the
        encoder and the decoder read."""
        assert 0 <= lo <= hi <= self.K
        got = self._prods.get((hi, lo))
        if got is None:
            if hi == lo:
                got = np.eye(self.widths[hi], dtype=np.uint8)
            elif hi == lo + 1:
                got = self.R[lo].to_bits()
            else:
                got = gf2.mul(self.prod(hi, hi - 1), self.prod(hi - 1, lo))
            got.flags.writeable = False
            self._prods[hi, lo] = got
        return got

    def to_json(self) -> dict:
        return {
            "kind": "diagonal",
            "widths": list(self.widths),
            "R": [m.to_json() for m in self.R],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiagonalSourceSpec":
        """Inverse of :meth:`to_json`; a malformed object raises InvalidInput."""
        return cls(
            widths=json_field(obj, "widths", lambda v: tuple(json_int(w) for w in v)),
            R=json_field(obj, "R", lambda v: tuple(gf2.BitMatrix.from_json(m) for m in v)),
        )


@dataclass(frozen=True)
class SemiDetSpec:
    """Two-layer source: a fresh innovation plus a deterministic layer fed
    by both previous sub-symbols."""

    N0: int
    Nd: int
    A: gf2.BitMatrix  # couples the previous innovation into the det layer
    B: gf2.BitMatrix  # couples the previous det layer into itself

    def __post_init__(self) -> None:
        if self.N0 < 0 or self.Nd < 0:
            raise InvalidInput("widths must be nonnegative")
        if self.A.shape != (self.Nd, self.N0):
            raise InvalidInput("innovation coupling has the wrong shape")
        if self.B.shape != (self.Nd, self.Nd):
            raise InvalidInput("deterministic coupling has the wrong shape")

    def to_json(self) -> dict:
        return {
            "kind": "semidet",
            "N0": self.N0,
            "Nd": self.Nd,
            "A": self.A.to_json(),
            "B": self.B.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SemiDetSpec":
        """Inverse of :meth:`to_json`; a malformed object raises InvalidInput."""
        return cls(
            N0=json_field(obj, "N0", json_int),
            Nd=json_field(obj, "Nd", json_int),
            A=json_field(obj, "A", gf2.BitMatrix.from_json),
            B=json_field(obj, "B", gf2.BitMatrix.from_json),
        )


@dataclass
class StreamTrace:
    """n spatial copies of a source over times [0, T), plus a revealed tail
    for times [-tail_depth, 0)."""

    kind: str
    n: int
    T: int
    widths: tuple[int, ...]
    sub: list[np.ndarray]
    tail: list[np.ndarray]
    meta: dict = field(default_factory=dict)  # apply_map keeps a drop anchor here

    @property
    def tail_depth(self) -> int:
        return self.tail[0].shape[0] if self.tail else 0

    def symbol(self, t: int, j: int = 0) -> np.ndarray:
        """Sub-symbol j at time t (negative t reads the tail)."""
        if t >= self.T or t < -self.tail_depth:
            raise InvalidInput(f"time {t} outside the trace")
        if t >= 0:
            return self.sub[j][t]
        return self.tail[j][t + self.tail_depth]


def gen_diagonal(spec: DiagonalSourceSpec, n: int, T: int, seed: int) -> StreamTrace:
    """Drive a layered linear source with i.i.d. uniform innovations.

    The tail, times [-K, 0), is produced from the same seed and satisfies
    every layer relation, so decoders may treat all negative times as known
    history.
    """
    if n < 1 or T < 0:
        raise InvalidInput("need n >= 1 and T >= 0")
    K = spec.K
    rng = np.random.default_rng(seed)
    # innovations reach back 2K steps, so that even the deepest layer of the
    # earliest tail time is defined
    innov = rng.integers(0, 2, (T + 2 * K, n, spec.widths[0]), dtype=np.uint8)
    sub: list[np.ndarray] = []
    tail: list[np.ndarray] = []
    for j in range(K + 1):
        mapped = gf2.mul(innov[K - j : len(innov) - j], spec.prod(j, 0).T)
        tail.append(mapped[:K])
        sub.append(mapped[K:])
    return StreamTrace(
        kind="diagonal",
        n=n,
        T=T,
        widths=spec.widths,
        sub=sub,
        tail=tail,
    )


def gen_semidet(
    spec: SemiDetSpec, n: int, T: int, seed: int, tail_depth: int = 1
) -> StreamTrace:
    """Drive a semi-deterministic source from a uniform initial state."""
    if n < 1 or T < 0:
        raise InvalidInput("need n >= 1 and T >= 0")
    if tail_depth < 1:
        raise InvalidInput("tail depth must be at least 1")
    rng = np.random.default_rng(seed)
    total = T + tail_depth
    s0 = rng.integers(0, 2, (total, n, spec.N0), dtype=np.uint8)
    sd = np.zeros((total, n, spec.Nd), np.uint8)
    sd[0] = rng.integers(0, 2, (n, spec.Nd), dtype=np.uint8)
    a_t, b_t = spec.A.to_bits().T, spec.B.to_bits().T
    for t in range(1, total):
        sd[t] = gf2.mul(s0[t - 1], a_t) ^ gf2.mul(sd[t - 1], b_t)
    return StreamTrace(
        kind="semidet",
        n=n,
        T=T,
        widths=(spec.N0, spec.Nd),
        sub=[s0[tail_depth:], sd[tail_depth:]],
        tail=[s0[:tail_depth], sd[:tail_depth]],
    )


@dataclass(frozen=True)
class NormalizedSpec:
    """Result of normalize_K: the depth-adjusted spec plus reconstruction
    maps for any truncated layers (layer depth -> map from the innovation)."""

    spec: DiagonalSourceSpec
    tail_rule: dict  # {j: BitMatrix} for dropped layers j > B+W


def normalize_K(spec: DiagonalSourceSpec, B: int, W: int) -> NormalizedSpec:
    """Bring a layered spec to depth exactly B+W.

    Shallow specs gain zero-width layers (pure padding).  Deeper specs are
    truncated: every dropped layer is a fixed map of an innovation at least
    B+W+1 steps old, so by the time a decoder needs it the source symbol it
    derives from predates any burst still being repaired; the returned tail
    rule carries those maps.
    """
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    target = B + W
    if spec.K == target:
        return NormalizedSpec(spec=spec, tail_rule={})
    if spec.K < target:
        widths = list(spec.widths)
        maps = list(spec.R)
        for _ in range(target - spec.K):
            maps.append(gf2.BitMatrix.zeros(0, widths[-1]))
            widths.append(0)
        return NormalizedSpec(
            spec=DiagonalSourceSpec(widths=tuple(widths), R=tuple(maps)),
            tail_rule={},
        )
    rule = {j: spec.composed(j) for j in range(target + 1, spec.K + 1)}
    return NormalizedSpec(
        spec=DiagonalSourceSpec(
            widths=spec.widths[: target + 1], R=spec.R[:target]
        ),
        tail_rule=rule,
    )


def random_diagonal_spec(
    rng: np.random.Generator, K: int, max_width: int = 4
) -> DiagonalSourceSpec:
    """Random spec with nonincreasing positive widths and full-row-rank maps."""
    widths = [int(rng.integers(1, max_width + 1))]
    for _ in range(K):
        widths.append(int(rng.integers(1, widths[-1] + 1)))
    return _full_rank_spec(rng, widths)


def _full_rank_spec(rng: np.random.Generator, widths: Sequence[int]) -> DiagonalSourceSpec:
    """Spec with the given widths and rejection-sampled full-row-rank maps.

    A full-row-rank map into layer j exists only when layer j is no wider
    than layer j-1, so other widths raise InvalidInput naming the layer
    instead of sampling forever.
    """
    for j, w in enumerate(widths):
        if w < 0:
            raise InvalidInput(f"layer {j} has negative width {w}")
        if j and w > widths[j - 1]:
            raise InvalidInput(
                f"layer {j} is wider than layer {j - 1}: no full-row-rank map into it"
            )
    maps = []
    for j in range(1, len(widths)):
        while True:
            cand = gf2.BitMatrix.from_bits(
                rng.integers(0, 2, (widths[j], widths[j - 1]), dtype=np.uint8)
            )
            if gf2.rank(cand) == widths[j]:
                maps.append(cand)
                break
    return DiagonalSourceSpec(widths=tuple(widths), R=tuple(maps))


def random_semidet_spec(
    rng: np.random.Generator, max_n0: int = 5, max_nd: int = 5
) -> SemiDetSpec:
    n0 = int(rng.integers(1, max_n0 + 1))
    nd = int(rng.integers(1, max_nd + 1))
    return SemiDetSpec(
        N0=n0,
        Nd=nd,
        A=gf2.BitMatrix.from_bits(rng.integers(0, 2, (nd, n0), dtype=np.uint8)),
        B=gf2.BitMatrix.from_bits(rng.integers(0, 2, (nd, nd), dtype=np.uint8)),
    )
