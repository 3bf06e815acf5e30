"""Burst-erasure patterns and their application to packet streams.

Erasures are signaled out-of-band: applying a pattern replaces lost
payloads with ``None`` (an explicit absent marker), never with zeros, so
receivers always know which positions were lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInput, PatternViolation


@dataclass(frozen=True)
class ErasurePattern:
    """A horizon plus the set of erased packet times within it."""

    T: int
    erased: frozenset[int]

    def __post_init__(self) -> None:
        if self.T < 0:
            raise InvalidInput("horizon must be nonnegative")
        object.__setattr__(self, "erased", frozenset(self.erased))
        if any(t < 0 or t >= self.T for t in self.erased):
            raise InvalidInput("erased indices must lie in [0, T)")

    def is_erased(self, t: int) -> bool:
        return t in self.erased


def single_burst(j: int, b: int, T: int) -> ErasurePattern:
    """Erase exactly the packets [j, j+b-1]; b = 0 erases nothing."""
    if j < 0 or b < 0:
        raise InvalidInput("burst start and length must be nonnegative")
    if j + b > T:
        raise InvalidInput("burst extends past the horizon")
    return ErasurePattern(T=T, erased=frozenset(range(j, j + b)))


def periodic(p: int, B: int, T: int) -> ErasurePattern:
    """Erase the first B packets of every length-p period that fits."""
    if p < 1:
        raise InvalidInput("period must be positive")
    if not 0 <= B < p:
        raise InvalidInput("burst must be shorter than the period")
    erased: set[int] = set()
    k = 0
    while k * p + B <= T:
        erased.update(range(k * p, k * p + B))
        k += 1
    return ErasurePattern(T=T, erased=frozenset(erased))


def multi_burst(bursts: Sequence[tuple[int, int]], guard: int, T: int) -> ErasurePattern:
    """Union of bursts (start, length), each pair separated by at least
    ``guard`` non-erased packets strictly between them."""
    if guard < 0:
        raise InvalidInput("guard must be nonnegative")
    spans = sorted((int(j), int(b)) for j, b in bursts if b > 0)
    erased: set[int] = set()
    prev_end = None
    for j, b in spans:
        if j < 0 or j + b > T:
            raise InvalidInput("burst outside the horizon")
        if prev_end is not None and j - prev_end < guard:
            raise PatternViolation(
                f"only {j - prev_end} clear packets between bursts, need {guard}"
            )
        erased.update(range(j, j + b))
        prev_end = j + b
    return ErasurePattern(T=T, erased=frozenset(erased))


def recovery_window(pattern: ErasurePattern, B: int, W: int) -> frozenset[int]:
    """Times a decoder designed for (B, W) may leave unserved: each burst
    [j, j+b) of the pattern and the W times after it, cut at the horizon.

    Raises:
        PatternViolation: the pattern breaks the (B, W) contract -- any
            erasure when B = 0, a burst longer than B, or a burst that
            begins within W packets of the previous one's end.
    """
    runs: list[list[int]] = []  # [start, length] of each maximal burst
    for t in sorted(pattern.erased):
        if runs and t == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    if runs and B == 0:
        raise PatternViolation("erasure on a channel designed for B = 0")
    if any(b > B for _, b in runs):
        raise PatternViolation("burst longer than the design bound B")
    for (j1, b1), (j2, _) in zip(runs, runs[1:]):
        if j2 - (j1 + b1) <= W:
            raise PatternViolation("new burst began inside the recovery window")
    return frozenset(t for j, b in runs for t in range(j, min(j + b + W, pattern.T)))


def apply(pattern: ErasurePattern, stream: Sequence) -> list:
    """Replace erased entries with None, pass everything else through."""
    if len(stream) != pattern.T:
        raise InvalidInput("stream length must equal the pattern horizon")
    return [None if pattern.is_erased(t) else x for t, x in enumerate(stream)]
