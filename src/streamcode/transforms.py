"""Invertible GF(2) reductions that turn a semi-deterministic source into a
layered diagonal one, plus trace-level application of the resulting maps.

The forward pass peels the deterministic part into layers until each layer
is fed only by the one above it at the previous time (an upper-triangular
transition).  The backward pass then cancels everything to the right of the
sub-diagonal, one row block per step from the bottom up.  A zero terminal
sub-diagonal block means that layer never receives fresh content; it is
split off as a decoder-computable side stream instead of being folded into
the matrix.

Every two-layer source takes this one route.  When the coupling A has full
row rank the forward pass peels nothing (its map is the identity and the
triangular spec keeps two widths), and the backward pass is a single step
that folds X s_d, with A X = B, into the innovation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .errors import InvalidInput, InvariantViolation
from .sources import DiagonalSourceSpec, SemiDetSpec, StreamTrace


def _offsets(widths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(widths, dtype=np.int64)))


@dataclass(frozen=True)
class UpperTriSpec:
    """Layered source whose transition is block upper-triangular with one
    sub-diagonal: layer j at time i may depend on layers j-1..K at time i-1.

    ``widths`` lists the innovation width first, then the layer widths.
    ``blocks[(j, k)]`` maps layer k (k = 0 is the innovation) at the
    previous time into layer j; absent keys are zero blocks.
    """

    widths: tuple[int, ...]
    blocks: dict[tuple[int, int], gf2.BitMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 0 for w in self.widths):
            raise InvalidInput("widths must be nonnegative and non-empty")
        K = self.K
        for (j, k), m in self.blocks.items():
            if not (1 <= j <= K and j - 1 <= k <= K):
                raise InvalidInput(f"block ({j},{k}) outside the triangular band")
            if m.shape != (self.widths[j], self.widths[k]):
                raise InvalidInput(f"block ({j},{k}) has the wrong shape")

    @property
    def K(self) -> int:
        return len(self.widths) - 1

    @property
    def det_width(self) -> int:
        return sum(self.widths[1:])

    def block(self, j: int, k: int) -> gf2.BitMatrix:
        got = self.blocks.get((j, k))
        if got is None:
            return gf2.BitMatrix.zeros(self.widths[j], self.widths[k])
        return got

    def transition_bits(self) -> np.ndarray:
        """Dense (det_width x total_width) one-step transition."""
        rows = _offsets(self.widths[1:])
        cols = _offsets(self.widths)
        out = np.zeros((self.det_width, cols[-1]), np.uint8)
        for (j, k), m in self.blocks.items():
            out[rows[j - 1] : rows[j], cols[k] : cols[k + 1]] = m.to_bits()
        return out

    def validate(self) -> None:
        """Width ordering and sub-diagonal rank checks.

        A terminal layer wider than its parent is tolerated only when its
        sub-diagonal block is zero (the layer is then decoder-computable
        and gets dropped by the backward transform anyway).
        """
        K = self.K
        terminal_zero = K >= 1 and self.block(K, K - 1).is_zero()
        for j in range(1, K + 1):
            if j == K and terminal_zero:
                continue
            if self.widths[j] > self.widths[j - 1]:
                raise InvariantViolation(f"layer {j} is wider than layer {j - 1}")
        for j in range(1, K + 1):
            sub = self.block(j, j - 1)
            if j == K and terminal_zero:
                continue
            if gf2.rank(sub) != self.widths[j]:
                raise InvariantViolation(f"sub-diagonal block into layer {j} is rank deficient")


@dataclass(frozen=True)
class DropPlan:
    """Side-stream bookkeeping for a terminal layer with no fresh input.

    The layer evolves on its own (``square``) and leaks into the kept
    layers (``coupling``); both the encoder and decoder can regenerate it
    from a single anchor value, so it is removed before the matrix part of
    the map is applied.  ``sub`` is the kept-layer part of the transition,
    used to propagate the compensating offset.
    """

    width: int
    square: gf2.BitMatrix
    coupling: gf2.BitMatrix
    sub: gf2.BitMatrix
    initial: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.square.shape != (self.width, self.width):
            raise InvalidInput("self-map has the wrong shape")
        if self.coupling.shape[1] != self.width:
            raise InvalidInput("coupling has the wrong shape")
        kept = self.coupling.shape[0]
        if self.sub.shape != (kept, kept):
            raise InvalidInput("kept-layer transition has the wrong shape")

    def offset_streams(self, anchor: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Dropped-layer values and kept-layer offsets for the whole
        timeline, anchored at slot 0 where the offset is zero."""
        anchor = np.asarray(anchor, np.uint8)
        n = anchor.shape[0]
        kept = self.coupling.shape[0]
        w = np.empty((steps, n, self.width), np.uint8)
        u = np.zeros((steps, n, kept), np.uint8)
        w[0] = anchor
        sq_t = self.square.to_bits().T
        sub_t = self.sub.to_bits().T
        coup_t = self.coupling.to_bits().T
        for t in range(1, steps):
            w[t] = gf2.mul(w[t - 1], sq_t)
            u[t] = gf2.mul(u[t - 1], sub_t) ^ gf2.mul(w[t - 1], coup_t)
        return w, u

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "square": self.square.to_json(),
            "coupling": self.coupling.to_json(),
            "sub": self.sub.to_json(),
            "initial": None if self.initial is None else [list(r) for r in self.initial],
        }


@dataclass(frozen=True)
class LinearMap:
    """Memoryless invertible change of per-symbol coordinates.

    ``matrix`` acts on the concatenated sub-symbols of one time step.  When
    ``drop`` is set, the final input layer is checked against its self-map,
    removed, and its influence on the kept layers cancelled before the
    matrix is applied; the inverse regenerates it from the stored anchor.
    The builder of a map knows its ``inverse``, so the map only checks
    that the product of the two is the identity, with no elimination.
    """

    matrix: gf2.BitMatrix
    in_widths: tuple[int, ...]
    out_widths: tuple[int, ...]
    inverse: gf2.BitMatrix = field(repr=False, compare=False)
    drop: DropPlan | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "in_widths", tuple(int(w) for w in self.in_widths))
        object.__setattr__(self, "out_widths", tuple(int(w) for w in self.out_widths))
        dropped = self.drop.width if self.drop is not None else 0
        size = sum(self.in_widths) - dropped
        if self.matrix.shape != (size, size):
            raise InvalidInput("matrix does not match the declared widths")
        if sum(self.out_widths) != size:
            raise InvalidInput("output widths do not match the matrix")
        if self.matrix @ self.inverse != gf2.BitMatrix.identity(size):
            raise InvariantViolation("map inverse does not invert the matrix")

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "in_widths": list(self.in_widths),
            "out_widths": list(self.out_widths),
            "drop": None if self.drop is None else self.drop.to_json(),
        }


def lf_transform(spec: SemiDetSpec) -> tuple[LinearMap, UpperTriSpec]:
    """Peel the deterministic part into layers, innermost first.

    Each round looks at how the not-yet-assigned rows depend on the layer
    fixed in the previous round (the innovation at round one).  Rows that
    depend independently become the next layer; dependent rows get the
    matching combination of independent rows added so that dependence
    cancels, and are reconsidered in the next round.  The loop stops when
    the residual dependence is full row rank or vanishes entirely; Nd = 0
    stops at once with an empty deterministic layer.  The triangular result
    is checked by :func:`lb_transform`, which validates its input.
    """
    n0, nd = spec.N0, spec.Nd
    a = spec.A.to_bits()
    b = spec.B.to_bits()
    g = np.eye(nd, dtype=np.uint8)
    ginv = np.eye(nd, dtype=np.uint8)
    widths = [n0]
    fixed = 0
    prev = n0
    for _ in range(nd + 1):
        phi = np.concatenate([gf2.mul(g, a), gf2.mul(gf2.mul(g, b), ginv)], axis=1)
        rem = nd - fixed
        acur = phi[fixed:, n0 + fixed - prev : n0 + fixed]
        perm, v = gf2.independent_rows(gf2.BitMatrix.from_bits(acur))
        r = v.cols
        if r == rem or r == 0:
            widths.append(rem)
            break
        reorder = np.zeros((rem, rem), np.uint8)
        reorder[np.arange(rem), perm] = 1
        cancel = np.eye(rem, dtype=np.uint8)
        cancel[r:, :r] = v.to_bits()
        # the step is cancel @ reorder; cancel is its own inverse and reorder
        # a permutation, so the step's inverse is reorder.T @ cancel
        g[fixed:] = gf2.mul(gf2.mul(cancel, reorder), g[fixed:])
        ginv[:, fixed:] = gf2.mul(ginv[:, fixed:], gf2.mul(reorder.T, cancel))
        widths.append(r)
        fixed += r
        prev = r
    else:  # pragma: no cover - termination is guaranteed by the rank drop
        raise AssertionError("layer peeling did not terminate within the width bound")

    # the loop breaks before g changes, so phi is the final g's transition
    rows = _offsets(widths[1:])
    cols = _offsets(widths)
    K = len(widths) - 1
    blocks: dict[tuple[int, int], gf2.BitMatrix] = {}
    for j in range(1, K + 1):
        for k in range(0, K + 1):
            blk = phi[rows[j - 1] : rows[j], cols[k] : cols[k + 1]]
            if k < j - 1:
                assert not blk.any(), "transition escaped the triangular band"
            elif blk.any() or k == j - 1:
                blocks[(j, k)] = gf2.BitMatrix.from_bits(blk)
    tri = UpperTriSpec(tuple(widths), blocks)
    full = np.eye(n0 + nd, dtype=np.uint8)
    full_inv = full.copy()
    full[n0:, n0:] = g
    full_inv[n0:, n0:] = ginv
    lmap = LinearMap(
        gf2.BitMatrix.from_bits(full), (n0, nd), tuple(widths), gf2.BitMatrix.from_bits(full_inv)
    )
    return lmap, tri


def lb_transform(
    tri: UpperTriSpec, initial_tail: np.ndarray | None = None
) -> tuple[LinearMap, DiagonalSourceSpec]:
    """Cancel the above-diagonal blocks of a layered triangular source.

    If the terminal layer has a zero sub-diagonal block it is removed
    first (see DropPlan).  Then, from the bottom row up, each step solves
    for combination matrices against the sub-diagonal block of the row and
    redefines the layer above so that the row keeps only its sub-diagonal
    term.  Solutions take free variables as zero, so the construction is
    deterministic.  The steps leave every sub-diagonal block as it was, so
    the derived maps are the blocks ``tri.validate()`` ranked on entry.
    """
    tri.validate()
    widths = list(tri.widths)
    n0 = widths[0]
    K = tri.K
    phi = tri.transition_bits()
    drop: DropPlan | None = None
    if K >= 1 and widths[K] > 0 and tri.block(K, K - 1).is_zero():
        rows = _offsets(widths[1:])
        cols = _offsets(widths)
        kept = int(rows[K - 1])
        init = None
        if initial_tail is not None:
            arr = np.asarray(initial_tail, np.uint8)
            if arr.ndim != 2 or arr.shape[1] != widths[K]:
                raise InvalidInput("initial tail does not match the dropped layer width")
            init = tuple(tuple(int(x) for x in row) for row in arr)
        drop = DropPlan(
            width=widths[K],
            square=tri.block(K, K),
            coupling=gf2.BitMatrix.from_bits(phi[:kept, cols[K] : cols[K + 1]]),
            sub=gf2.BitMatrix.from_bits(phi[:kept, n0 : n0 + kept]),
            initial=init,
        )
        phi = phi[:kept, : n0 + kept]
        widths = widths[:K]
        K -= 1

    det = sum(widths[1:])
    total = n0 + det
    rows = _offsets(widths[1:])
    cols = _offsets(widths)

    def blk(mat: np.ndarray, j: int, k: int) -> np.ndarray:
        return mat[rows[j - 1] : rows[j], cols[k] : cols[k + 1]]

    m = np.eye(total, dtype=np.uint8)
    m_inv = m.copy()
    psi = phi
    for j in range(1, K + 1):
        l = K - j
        sub = gf2.BitMatrix.from_bits(blk(psi, l + 1, l))
        d = np.eye(total, dtype=np.uint8)
        for k in range(1, j + 1):
            target = gf2.BitMatrix.from_bits(blk(psi, l + 1, l + k))
            x = gf2.solve(sub, target)  # full row rank: always consistent
            d[cols[l] : cols[l + 1], cols[l + k] : cols[l + k + 1]] = x.to_bits()
        psi = gf2.mul(gf2.mul(d[n0:, n0:], psi), d)  # d is its own inverse over GF(2)
        m = gf2.mul(d, m)
        m_inv = gf2.mul(m_inv, d)

    spec_maps = []
    for j in range(1, K + 1):
        for k in range(j, K + 1):
            assert not blk(psi, j, k).any(), "off-diagonal block survived"
        r = gf2.BitMatrix.from_bits(blk(psi, j, j - 1))
        if r != tri.block(j, j - 1):
            raise InvariantViolation(f"backward pass changed the sub-diagonal block into layer {j}")
        spec_maps.append(r)
    out = DiagonalSourceSpec(widths=tuple(widths), R=tuple(spec_maps))
    lmap = LinearMap(
        gf2.BitMatrix.from_bits(m), tri.widths, tuple(widths),
        gf2.BitMatrix.from_bits(m_inv), drop=drop,
    )
    return lmap, out


def _timeline(trace: StreamTrace) -> np.ndarray:
    """(tail_depth + T, n, total) uint8 view of a layered bit trace."""
    parts = []
    for layer in range(len(trace.widths)):
        parts.append(np.concatenate([trace.tail[layer], trace.sub[layer]], axis=0))
    return np.concatenate(parts, axis=2).astype(np.uint8)


def _split(data: np.ndarray, widths, depth: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    cols = _offsets(widths)
    tails, subs = [], []
    for j in range(len(widths)):
        chunk = np.ascontiguousarray(data[:, :, cols[j] : cols[j + 1]])
        tails.append(chunk[:depth])
        subs.append(chunk[depth:])
    return subs, tails


def apply_map(m: LinearMap, trace: StreamTrace) -> StreamTrace:
    """Per-time, per-copy matrix application; widths must match the map."""
    if tuple(trace.widths) != m.in_widths:
        raise InvalidInput("trace widths do not match the map input")
    data = _timeline(trace)
    steps = data.shape[0]
    meta = dict(trace.meta)
    if m.drop is not None:
        keep = data.shape[2] - m.drop.width
        anchor = data[0, :, keep:]
        w, u = m.drop.offset_streams(anchor, steps)
        if not np.array_equal(data[:, :, keep:], w):
            raise InvalidInput("dropped layer does not follow its self-map")
        data = data[:, :, :keep].copy()
        data[:, :, m.in_widths[0] :] ^= u
        meta["drop_anchor"] = anchor.tolist()
    out = gf2.mul(data, m.matrix.to_bits().T)
    subs, tails = _split(out, m.out_widths, trace.tail_depth)
    return StreamTrace(
        kind="diagonal",
        n=trace.n,
        T=trace.T,
        widths=m.out_widths,
        sub=subs,
        tail=tails,
        meta=meta,
    )


def invert_map(m: LinearMap, trace: StreamTrace) -> StreamTrace:
    """Inverse of apply_map; reconstructs any dropped layer from the anchor."""
    if tuple(trace.widths) != m.out_widths:
        raise InvalidInput("trace widths do not match the map output")
    data = _timeline(trace)
    steps = data.shape[0]
    back = gf2.mul(data, m.inverse.to_bits().T)
    meta = dict(trace.meta)
    if m.drop is not None:
        stored = meta.pop("drop_anchor", None)
        if stored is None:
            raise InvalidInput("missing dropped-layer anchor in trace metadata")
        anchor = np.asarray(stored, np.uint8)
        w, u = m.drop.offset_streams(anchor, steps)
        back[:, :, m.in_widths[0] :] ^= u
        back = np.concatenate([back, w], axis=2)
    subs, tails = _split(back, m.in_widths, trace.tail_depth)
    kind = "semidet" if len(m.in_widths) == 2 else "diagonal"
    return StreamTrace(
        kind=kind,
        n=trace.n,
        T=trace.T,
        widths=m.in_widths,
        sub=subs,
        tail=tails,
        meta=meta,
    )
