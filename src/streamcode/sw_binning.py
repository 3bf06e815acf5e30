"""Desk-scale distributed-compression oracle for tiny blocks.

Each time step emits a length-n block of iid copies of a finite Markov
chain; the encoder sends only a seeded hash ("bin index") of the block.
Block lengths stay small enough that the receiver can enumerate every
candidate sequence exactly, so maximum-likelihood bin decoding is
computed by brute force instead of typicality arguments: filter each
unknown block's candidates by its bin, then run an exact max-sum pass
over the chain structure linking consecutive blocks.  This gives a
ground-truth harness for rate thresholds: recovery succeeds with high
probability once the bin rate clears the matching conditional-entropy
rate, and the transition is observable in a few thousand trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channel
from .errors import ImpossibleBin, InvalidInput
from .markov import FiniteMarkovChain, k_step

_SPLIT = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BLOCK_BUDGET = 2**20  # candidates per block
_WINDOW_BUDGET = 2**26  # joint candidates per decode window
_TIE_TOL = 1e-9
_MODES = ("steady", "post_burst", "delayed")


def _mix64(z):
    """splitmix64 finalizer over a uint64 scalar or array."""
    with np.errstate(over="ignore"):
        z = z * _SPLIT
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def _check_hash_params(n: int, rate_bits: float, alphabet: int) -> int:
    """Validate sizes and return the bin count."""
    if n < 1 or alphabet < 2:
        raise InvalidInput("need block length >= 1 over an alphabet of >= 2")
    if alphabet**n > _BLOCK_BUDGET:
        raise InvalidInput("block too large to enumerate")
    if rate_bits < 0:
        raise InvalidInput("rate must be nonnegative")
    if rate_bits * n > 62:
        raise InvalidInput("bin index must fit in 62 bits")
    if rate_bits >= math.log2(alphabet) - 1e-12:
        return alphabet**n  # injective regime: one bin per sequence
    return max(1, round(2 ** (rate_bits * n)))


def _rank(x: Sequence[int], alphabet: int) -> int:
    r = 0
    for v in x:
        if not 0 <= int(v) < alphabet:
            raise InvalidInput("symbol outside the alphabet")
        r = r * alphabet + int(v)
    return r


def _digits(ranks: np.ndarray, n: int, alphabet: int) -> np.ndarray:
    """Base-`alphabet` digits (most significant first) of each rank."""
    out = np.empty((len(ranks), n), np.int64)
    r = ranks.astype(np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = r % alphabet
        r //= alphabet
    return out


def _bin_of(ranks, nbins: int, n_seqs: int, seed: int, time: int):
    """The seeded bin rule for uint64 sequence ranks at one time step: the
    rank itself when every one of the n_seqs sequences has its own bin,
    else a time-salted splitmix64 hash reduced mod nbins."""
    if nbins == n_seqs:
        return ranks
    with np.errstate(over="ignore"):
        salt = _mix64(np.uint64(seed)) + np.uint64(time) + np.uint64(1)
        return _mix64(ranks ^ _mix64(salt)) % np.uint64(nbins)


def _hash_all(n: int, rate_bits: float, seed: int, alphabet: int, time: int) -> np.ndarray:
    """Bin index of every length-n sequence (by rank), for one time step."""
    nbins = _check_hash_params(n, rate_bits, alphabet)
    ranks = np.arange(alphabet**n, dtype=np.uint64)
    return _bin_of(ranks, nbins, alphabet**n, seed, time)


def hash_bin(
    x: Sequence[int], rate_bits: float, seed: int, alphabet: int = 2, time: int = 0
) -> int:
    """Seeded hash of one block into ~2**(n*rate_bits) bins.

    Deterministic in (x, seed, time); at rate_bits >= log2(alphabet) the
    hash becomes the sequence's lexicographic rank, hence injective.
    """
    n = len(x)
    nbins = _check_hash_params(n, rate_bits, alphabet)
    rank = np.uint64(_rank(x, alphabet))
    return int(_bin_of(rank, nbins, alphabet**n, seed, time))


def bin_count(n: int, rate_bits: float, alphabet: int = 2) -> int:
    """Number of distinct bins hash_bin can produce."""
    return _check_hash_params(n, rate_bits, alphabet)


def _log_safe(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log2(p)


def _pair_scores(logt: np.ndarray, da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """(len(da), len(db)) table of summed log transition scores."""
    acc = np.zeros((len(da), len(db)))
    for pos in range(da.shape[1]):
        acc += logt[np.ix_(da[:, pos], db[:, pos])]
    return acc


def ml_decode(
    bins: Sequence[int],
    side_info: Sequence[int],
    chain: FiniteMarkovChain,
    times: Sequence[int],
    *,
    n: int,
    rate_bits: float,
    seed: int,
    side_gap: int = 1,
    _tables: Sequence[np.ndarray] | None = None,
) -> tuple[list[tuple[int, ...]], bool]:
    """Exact maximum-likelihood decoding of a window of binned blocks.

    Args:
        bins: one bin index per unknown block, aligned with ``times``.
        side_info: the known block ``side_gap`` steps before ``times[0]``.
        times: consecutive time indices of the unknown blocks (each block
            was hashed with its own time salt).
        _tables: private; the caller's read-only ``_hash_all`` tables for
            these n, rate_bits, seed and alphabet, indexed by time, so a
            window reuses them instead of rebuilding its own.

    Returns:
        (blocks, tie): the jointly most likely blocks consistent with
        every bin, and whether that optimum was non-unique (resolved to
        the lexicographically first tuple).

    Raises:
        ImpossibleBin: no candidate tuple matches all bins with nonzero
            probability.
        InvalidInput: window too large to enumerate, malformed sizes.
    """
    a = chain.alphabet_size
    L = len(times)
    if L == 0 or len(bins) != L:
        raise InvalidInput("need one bin per unknown time")
    if list(times) != list(range(times[0], times[0] + L)):
        raise InvalidInput("unknown times must be consecutive")
    if side_gap < 1:
        raise InvalidInput("side info must precede the window")
    if a ** (n * L) > _WINDOW_BUDGET:
        raise InvalidInput("enumeration budget exceeded for this window")

    cand_digits: list[np.ndarray] = []
    for t, b in zip(times, bins):
        table = _hash_all(n, rate_bits, seed, a, t) if _tables is None else _tables[t]
        ranks = np.nonzero(table == np.uint64(b))[0]
        if len(ranks) == 0:
            raise ImpossibleBin(f"no sequence hashes to bin {b} at time {t}")
        cand_digits.append(_digits(ranks, n, a))

    logt = _log_safe(chain.P)
    d0 = cand_digits[0]
    side = np.asarray(side_info, np.int64)
    if side.shape != (n,):
        raise InvalidInput("side info must be one length-n block")
    logg = _log_safe(k_step(chain, side_gap))
    prior = logg[side[None, :], d0].sum(axis=1)

    # max-sum pass from the back: beta[l][i] = best score of any suffix
    # starting at block l candidate i; counts track optimum multiplicity
    beta = [np.zeros(len(c)) for c in cand_digits]
    counts = [np.ones(len(c)) for c in cand_digits]
    pair = [
        _pair_scores(logt, cand_digits[x], cand_digits[x + 1]) for x in range(L - 1)
    ]
    for x in range(L - 2, -1, -1):
        m = pair[x] + beta[x + 1][None, :]
        beta[x] = m.max(axis=1)
        hit = np.isclose(m, beta[x][:, None], rtol=0.0, atol=_TIE_TOL)
        counts[x] = (hit * counts[x + 1][None, :]).sum(axis=1)

    total = prior + beta[0]
    best = total.max()
    if best == -np.inf:
        raise ImpossibleBin("bins admit no tuple of positive probability")
    top = np.isclose(total, best, rtol=0.0, atol=_TIE_TOL)
    tie = (top * counts[0]).sum() > 1.0 + 1e-6

    # walk front-to-back picking the first optimal candidate at each block;
    # candidates are rank-ordered, so this is the lexicographically first
    # optimal tuple
    idx = int(np.nonzero(top)[0][0])
    picked = [idx]
    for x in range(L - 1):
        target = beta[x][picked[-1]]
        row = pair[x][picked[-1]] + beta[x + 1]
        idx = int(np.nonzero(np.isclose(row, target, rtol=0.0, atol=_TIE_TOL))[0][0])
        picked.append(idx)
    blocks = [
        tuple(int(v) for v in cand_digits[x][picked[x]]) for x in range(L)
    ]
    return blocks, bool(tie)


def sample_path(
    chain: FiniteMarkovChain, n: int, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """(horizon+1, n) iid chain copies; row 0 is the revealed time -1."""
    cpi = np.cumsum(chain.pi)
    ccum = np.cumsum(chain.P, axis=1)
    path = np.empty((horizon + 1, n), np.int64)
    path[0] = (rng.random(n)[:, None] > cpi[None, :]).sum(axis=1)
    for t in range(1, horizon + 1):
        path[t] = (rng.random(n)[:, None] > ccum[path[t - 1]]).sum(axis=1)
    return path


@dataclass
class ModeStats:
    """Trial bookkeeping for one decoding mode."""

    decodes: int = 0
    errors: int = 0
    ties: int = 0

    @property
    def error_rate(self) -> float:
        return 0.0 if self.decodes == 0 else self.errors / self.decodes


def streaming_sw_experiment(
    chain: FiniteMarkovChain,
    B: int,
    W: int,
    T: int,
    rate_bits: float,
    n: int,
    trials: int,
    seed: int,
    horizon: int | None = None,
    modes: Sequence[str] = _MODES,
) -> dict[str, ModeStats]:
    """Monte-Carlo error rates for the three bin-decoding modes.

    Per trial one path is sampled and a length-B burst is placed at a
    rotating position j.  ``steady`` decodes each unerased block outside
    the window from its own bin plus the true previous block; ``post_burst``
    runs the joint decode of the W+1 blocks after the burst, scored on
    the deadline block (the first one that is required again);
    ``delayed`` is the decode-delay variant: the T+1 blocks surviving
    the burst are solved jointly by the first one's deadline and scored
    as a tuple (B=0 gives the erasure-free delayed decoder).  Decodes
    are genie-aided (true side info) so each counts an independent
    threshold event.
    """
    if B < 0 or W < 0 or T < 0:
        raise InvalidInput("nonnegative design parameters required")
    if trials < 1:
        raise InvalidInput(f"trials must be positive, got {trials}")
    if horizon is None:
        horizon = B + max(W, T) + 5
    positions = horizon - B - max(W, T)
    if positions < 1:
        raise InvalidInput("horizon too short for the burst sweep")
    for m in modes:
        if m not in _MODES:
            raise InvalidInput(
                f"unknown decoding mode {m!r}; choose from {', '.join(_MODES)}"
            )
    a = chain.alphabet_size
    stats = {m: ModeStats() for m in _MODES}
    # built once per time and shared with every ml_decode window below
    tables = [_hash_all(n, rate_bits, seed, a, t) for t in range(horizon)]
    for table in tables:
        table.flags.writeable = False
    powers = (a ** np.arange(n - 1, -1, -1, dtype=np.int64))

    def decode(ts, side, gap):
        return ml_decode(
            [bins[t] for t in ts],
            side,
            chain,
            ts,
            n=n,
            rate_bits=rate_bits,
            seed=seed,
            side_gap=gap,
            _tables=tables,
        )

    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        path = sample_path(chain, n, horizon, rng)
        bins = [int(tables[t][int(path[t + 1] @ powers)]) for t in range(horizon)]
        j = trial % positions
        deadline = j + B + W
        if "steady" in modes:
            for t in range(horizon):
                if j <= t <= deadline:
                    continue
                blocks, tie = decode([t], path[t], 1)
                stats["steady"].decodes += 1
                stats["steady"].errors += int(blocks[0] != tuple(path[t + 1]))
                stats["steady"].ties += int(tie)
        if "post_burst" in modes and B > 0:
            blocks, tie = decode(list(range(j + B, deadline + 1)), path[j], B + 1)
            stats["post_burst"].decodes += 1
            stats["post_burst"].errors += int(blocks[-1] != tuple(path[deadline + 1]))
            stats["post_burst"].ties += int(tie)
        if "delayed" in modes:
            ts = list(range(j + B, j + B + T + 1))
            blocks, tie = decode(ts, path[j], B + 1)
            stats["delayed"].decodes += 1
            stats["delayed"].errors += int(
                any(blocks[m] != tuple(path[ts[m] + 1]) for m in range(T + 1))
            )
            stats["delayed"].ties += int(tie)
    return stats


def periodic_delay_run(
    chain: FiniteMarkovChain,
    B: int,
    T: int,
    rate_bits: float,
    n: int,
    horizon: int,
    seed: int,
) -> list[tuple]:
    """Delay-T bin decoding over the period-(B+T+1) erasure channel.

    Every period erases the first B bins; the T+1 surviving blocks of
    the period are decoded jointly once the last of them arrives, which
    is exactly the deadline of the earliest one.  Erased times are
    emitted as ("window",); a final truncated period yields ("pending",).
    Side info chains through the previously recovered block, so the run
    is self-contained after the revealed time -1.

    Returns one tuple per time: ("recovered", block) | ("window",) |
    ("pending",).
    """
    if B < 0:
        raise InvalidInput("B must be nonnegative")
    if T < 0:
        raise InvalidInput("T must be nonnegative")
    p = B + T + 1
    pattern = channel.periodic(p, B, horizon)
    rng = np.random.default_rng([seed])
    path = sample_path(chain, n, horizon, rng)
    a = chain.alphabet_size
    out: list[tuple] = [("pending",)] * horizon
    for t in range(horizon):
        if pattern.is_erased(t):
            out[t] = ("window",)
    side = tuple(int(v) for v in path[0])
    side_time = -1
    for start in range(0, horizon, p):
        ts = list(range(start + B, start + B + T + 1))
        if ts[-1] >= horizon:
            break  # truncated final period stays pending
        bins = [
            hash_bin(path[t + 1], rate_bits, seed, alphabet=a, time=t) for t in ts
        ]
        blocks, _ = ml_decode(
            bins,
            side,
            chain,
            ts,
            n=n,
            rate_bits=rate_bits,
            seed=seed,
            side_gap=ts[0] - side_time,
        )
        for t, blk in zip(ts, blocks):
            out[t] = ("recovered", blk)
        side, side_time = blocks[-1], ts[-1]
    return out
