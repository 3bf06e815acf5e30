"""Closed-form rate calculators for burst-erasure streaming recovery.

Every experiment baseline in the package is computed here.  Markov-source
rates are in bits per source symbol; linear-source rates count sub-symbol
widths (exact rationals); Gaussian rates are bits per spatial sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput, InvariantViolation
from .markov import (
    FiniteMarkovChain,
    block_cond_entropy,
    cond_entropy_gap,
    cond_mutual_info,
)

_AGREE_TOL = 1e-9


@dataclass(frozen=True)
class RateQuery:
    """Channel/recovery parameters: burst length B and window slack W."""

    B: int
    W: int

    def __post_init__(self) -> None:
        if self.B < 0 or self.W < 0:
            raise InvalidInput("B and W must be nonnegative")


def r_plus(chain: FiniteMarkovChain, q: RateQuery) -> float:
    """Achievable rate: one-step entropy plus the window-averaged mutual
    information carried across the burst by the next state."""
    direct = cond_entropy_gap(chain, 1) + cond_mutual_info(chain, q.B, 1) / (q.W + 1)
    via_block = block_cond_entropy(chain, q.B, q.W) / (q.W + 1)
    if abs(direct - via_block) > _AGREE_TOL:
        raise InvariantViolation("rate identity violated between the two forms")
    return direct


def r_minus(chain: FiniteMarkovChain, q: RateQuery) -> float:
    """Converse bound; the mutual-information term reaches across the whole
    recovery window, so it can only be smaller than the one in r_plus."""
    return cond_entropy_gap(chain, 1) + cond_mutual_info(chain, q.B, q.W + 1) / (q.W + 1)


def r_delay(chain: FiniteMarkovChain, B: int, T: int) -> float:
    """Rate for immediate-window recovery (W=0) with decode delay T."""
    if B < 0:
        raise InvalidInput("B must be nonnegative")
    if T < 0:
        raise InvalidInput("T must be nonnegative")
    direct = (
        cond_entropy_gap(chain, B + 1) + T * cond_entropy_gap(chain, 1)
    ) / (T + 1)
    via_block = block_cond_entropy(chain, B, T) / (T + 1)
    if abs(direct - via_block) > _AGREE_TOL:
        raise InvariantViolation("rate identity violated between the two forms")
    return direct


def _check_widths(N: Sequence[int]) -> list[int]:
    widths = list(N)
    if not widths:
        raise InvalidInput("width list must be non-empty")
    for w in widths:
        if int(w) != w or w < 0:
            raise InvalidInput("sub-symbol widths must be nonnegative integers")
    return [int(w) for w in widths]


def _window_rate(values: Sequence, B: int, W: int):
    """v_0 plus the window average of the deep values v_{W+1}..v_{W+B}
    that the list holds: the rate shape every layered scheme shares."""
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    deep = values[W + 1 : W + B + 1]
    return values[0] + sum(deep, 0 * values[0]) / (W + 1)


def diagonal_rate(N: Sequence[int], B: int, W: int) -> Fraction:
    """Exact optimal rate (in bits per symbol) for a layered linear source
    with sub-symbol widths N_0..N_K: the innovation width plus the window-
    averaged widths of the sub-symbols that must be retransmitted."""
    return _window_rate([Fraction(w) for w in _check_widths(N)], B, W)


def _check_distortions(d: Sequence[float]) -> list[float]:
    vals = [float(x) for x in d]
    if not vals:
        raise InvalidInput("distortion vector must be non-empty")
    if any(not 0.0 < x <= 1.0 for x in vals):
        raise InvalidInput("distortions must lie in (0, 1]")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise InvalidInput("distortions must be nondecreasing")
    return vals


def _half_log2_inv(x: float) -> float:
    return 0.5 * math.log2(1.0 / x)


def gaussian_rate(d: Sequence[float], B: int, W: int) -> float:
    """Lossy recovery rate for the layered Gaussian scheme."""
    return _window_rate([_half_log2_inv(x) for x in _check_distortions(d)], B, W)


def baseline_rates(d: Sequence[float], B: int, W: int) -> tuple[float, float, float]:
    """Reference schemes: ignore decoder memory entirely (r_si), re-send the
    burst-deep layers at full rate (r_wz), or protect the top layer with an
    erasure code (r_fec)."""
    vals = _check_distortions(d)
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    K = len(vals) - 1
    r_si = sum(_half_log2_inv(x) for x in vals)
    r_wz = sum(_half_log2_inv(vals[k]) for k in range(0, min(B, K) + 1))
    r_fec = Fraction(B + W + 1, W + 1) * _half_log2_inv(vals[0])
    return r_si, r_wz, float(r_fec)
