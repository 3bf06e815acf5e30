"""Finite-alphabet Markov chain models and exact entropy calculators.

All information quantities are in bits (base-2 logs) with the convention
0*log(0) = 0.  Chains are stationary and first-order; the stationary
distribution is derived from the transition matrix, never user-supplied.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import InvalidInput, InvariantViolation, json_field

_ROW_TOL = 1e-12
_PI_RESIDUAL = 1e-13
_BALANCE_TOL = 1e-12


def _entropy_bits(p: np.ndarray, axis: int | None = None) -> Any:
    """Shannon entropy of probability vector(s) along ``axis``, in bits."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log2(np.maximum(p, 1e-300)), 0.0)
    return terms.sum(axis=axis)


class FiniteMarkovChain:
    """A stationary first-order Markov chain on a finite alphabet.

    Parameters
    ----------
    transition : array_like
        Square row-stochastic matrix; entry (a, b) is the probability of
        moving from state a to state b.

    Attributes
    ----------
    P : ndarray
        The validated transition matrix (copied, read-only).
    pi : ndarray
        Stationary distribution with ``pi @ P == pi``, derived by damped
        power iteration to a 1e-13 residual.
    alphabet_size : int
        Number of states.
    """

    def __init__(self, transition: Any) -> None:
        try:
            P = np.asarray(transition, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInput("transition matrix must be a numeric 2-D array") from exc
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
            raise InvalidInput("transition matrix must be square and non-empty")
        if not np.all((P >= 0.0) & (P <= 1.0)):  # NaN entries fail too
            raise InvalidInput("transition probabilities must lie in [0, 1]")
        row_err = np.abs(P.sum(axis=1) - 1.0).max()
        if row_err > _ROW_TOL:
            raise InvalidInput(f"rows must sum to 1 (off by {row_err:.3e})")
        self.P = P.copy()
        self.P.setflags(write=False)
        self.pi = self._stationary(self.P)
        self.pi.setflags(write=False)

    @property
    def alphabet_size(self) -> int:
        return self.P.shape[0]

    @staticmethod
    def _stationary(P: np.ndarray) -> np.ndarray:
        # Damping by (P + I)/2 keeps the fixed points of P while breaking
        # periodicity, so plain power iteration always settles.
        n = P.shape[0]
        damped = 0.5 * (P + np.eye(n))
        pi = np.full(n, 1.0 / n)
        for _ in range(200_000):
            nxt = pi @ damped
            nxt /= nxt.sum()
            if np.abs(nxt @ P - nxt).max() <= _PI_RESIDUAL:
                return nxt
            pi = nxt
        raise InvariantViolation("stationary distribution did not converge")

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteMarkovChain":
        """The chain of a parsed ``{"P": matrix}`` object; an optional
        ``alphabet`` must match the matrix size."""
        chain = cls(json_field(obj, "P"))
        if "alphabet" in obj and json_field(obj, "alphabet", int) != chain.alphabet_size:
            raise InvalidInput("alphabet field disagrees with matrix size")
        return chain

    def __repr__(self) -> str:
        return f"FiniteMarkovChain(alphabet_size={self.alphabet_size})"


class BinarySymmetricChain(FiniteMarkovChain):
    """Binary chain where each step flips the previous bit with fixed odds.

    Parameters
    ----------
    flip_prob : float
        Per-step flip probability in [0, 1].
    """

    def __init__(self, flip_prob: float) -> None:
        eps = float(flip_prob)
        if not 0.0 <= eps <= 1.0:
            raise InvalidInput("flip probability must lie in [0, 1]")
        self.flip_prob = eps
        super().__init__([[1.0 - eps, eps], [eps, 1.0 - eps]])

    def __repr__(self) -> str:
        return f"BinarySymmetricChain(flip_prob={self.flip_prob})"


def k_step(chain: FiniteMarkovChain, k: int) -> np.ndarray:
    """k-step transition matrix P^k (identity for k = 0)."""
    if k < 0:
        raise InvalidInput("step count must be nonnegative")
    return np.linalg.matrix_power(chain.P, k)


def cond_entropy_gap(chain: FiniteMarkovChain, k: int) -> float:
    """Entropy in bits of the state k steps ahead given the current state.

    Parameters
    ----------
    chain : FiniteMarkovChain
    k : int
        Gap between the conditioning state and the target state, k >= 1.
    """
    if k < 1:
        raise InvalidInput("gap must be at least 1")
    Pk = k_step(chain, k)
    return float(np.dot(chain.pi, _entropy_bits(Pk, axis=1)))


def cond_mutual_info(chain: FiniteMarkovChain, B: int, gap: int) -> float:
    """Mutual information between states B and B+gap given state 0, in bits.

    Built from the exact three-variable joint
    p(a) * P^B(a, b) * P^gap(b, c); B = 0 gives 0 because the first
    argument collapses onto the conditioning state.
    """
    if B < 0:
        raise InvalidInput("B must be nonnegative")
    if gap < 1:
        raise InvalidInput("gap must be at least 1")
    if B == 0:
        return 0.0
    PB = k_step(chain, B)
    Pg = k_step(chain, gap)
    joint = chain.pi[:, None, None] * PB[:, :, None] * Pg[None, :, :]
    h_pair = _entropy_bits(joint)  # H(s_0, s_B, s_{B+gap}) grouped below
    h_first = _entropy_bits(joint.sum(axis=2))  # H(s_0, s_B)
    h_last = _entropy_bits(joint.sum(axis=1))  # H(s_0, s_{B+gap})
    h_cond = _entropy_bits(joint.sum(axis=(1, 2)))  # H(s_0)
    return float(h_first + h_last - h_pair - h_cond)


def block_cond_entropy(chain: FiniteMarkovChain, B: int, W: int) -> float:
    """Entropy in bits of the (W+1)-state block starting B+1 steps ahead,
    given state 0.

    The chain rule collapses the block term to a single long-gap entropy
    plus W copies of the one-step entropy.
    """
    if B < 0 or W < 0:
        raise InvalidInput("B and W must be nonnegative")
    return cond_entropy_gap(chain, B + 1) + W * cond_entropy_gap(chain, 1)


def is_symmetric(chain: FiniteMarkovChain) -> bool:
    """True when the chain satisfies detailed balance within 1e-12.

    Detailed balance (pi_a * P[a,b] == pi_b * P[b,a]) makes the pair
    distribution of consecutive states invariant under time reversal.
    """
    flow = chain.pi[:, None] * chain.P
    return bool(np.abs(flow - flow.T).max() <= _BALANCE_TOL)


def random_chain(rng: np.random.Generator, alphabet_size: int) -> FiniteMarkovChain:
    """Random ergodic chain for property tests.

    Rows are normalized positive draws mixed with 1% uniform mass, which
    bounds every entry away from zero (>= 1e-3 for alphabets up to 10) and
    rules out periodic or absorbing structure.
    """
    if alphabet_size < 1:
        raise InvalidInput("alphabet size must be positive")
    raw = rng.random((alphabet_size, alphabet_size))
    raw /= raw.sum(axis=1, keepdims=True)
    P = 0.99 * raw + 0.01 / alphabet_size
    return FiniteMarkovChain(P)
