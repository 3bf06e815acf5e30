"""Rate calculator tests: closed forms, enumeration oracles, rank oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from streamcode import gf2, markov, rates
from streamcode.errors import InvalidInput

from helpers import h_b, oracle_cond_entropy, oracle_cond_mutual_info


def test_iid_chain_is_a_fixed_point():
    half = markov.BinarySymmetricChain(0.5)
    for B in range(4):
        for W in range(4):
            q = rates.RateQuery(B=B, W=W)
            assert abs(rates.r_plus(half, q) - 1.0) <= 1e-12
            assert abs(rates.r_minus(half, q) - 1.0) <= 1e-12
        for T in range(4):
            assert abs(rates.r_delay(half, B, T) - 1.0) <= 1e-12


def test_r_plus_examples():
    rng = np.random.default_rng(0)
    for _ in range(10):
        chain = markov.random_chain(rng, int(rng.integers(2, 6)))
        q = rates.RateQuery(B=0, W=int(rng.integers(0, 4)))
        assert abs(rates.r_plus(chain, q) - markov.cond_entropy_gap(chain, 1)) <= 1e-12
    quarter = markov.BinarySymmetricChain(0.25)
    got = rates.r_plus(quarter, rates.RateQuery(B=1, W=0))
    assert abs(got - h_b(0.375)) <= 1e-12
    assert abs(got - 0.954434) < 1e-6
    assert abs(got - oracle_cond_entropy(quarter, 2)) < 1e-10


def test_r_minus_examples():
    quarter = markov.BinarySymmetricChain(0.25)
    got = rates.r_minus(quarter, rates.RateQuery(B=1, W=1))
    want = h_b(0.25) + 0.5 * oracle_cond_mutual_info(quarter, 1, 2)
    assert abs(got - want) < 1e-10


def test_bounds_coincide_at_w0():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = markov.random_chain(rng, int(rng.integers(2, 7)))
        q = rates.RateQuery(B=int(rng.integers(0, 5)), W=0)
        assert abs(rates.r_plus(chain, q) - rates.r_minus(chain, q)) <= 1e-12


def test_bound_ordering_and_block_identity():
    rng = np.random.default_rng(2)
    for _ in range(40):
        chain = markov.random_chain(rng, int(rng.integers(2, 7)))
        q = rates.RateQuery(B=int(rng.integers(0, 5)), W=int(rng.integers(0, 5)))
        up = rates.r_plus(chain, q)
        lo = rates.r_minus(chain, q)
        assert lo <= up + 1e-12
        assert abs((q.W + 1) * up - markov.block_cond_entropy(chain, q.B, q.W)) <= 1e-9


def test_bound_gap_shrinks_with_window():
    rng = np.random.default_rng(3)
    chains = [markov.BinarySymmetricChain(0.2)] + [
        markov.random_chain(rng, 4) for _ in range(2)
    ]
    for chain in chains:
        B = 2
        i_terms = [markov.cond_mutual_info(chain, B, W + 1) for W in range(13)]
        for later, earlier in zip(i_terms[1:], i_terms[:-1]):
            assert later <= earlier + 1e-11
        gaps = [
            rates.r_plus(chain, rates.RateQuery(B=B, W=W))
            - rates.r_minus(chain, rates.RateQuery(B=B, W=W))
            for W in range(13)
        ]
        assert abs(gaps[0]) <= 1e-12
        assert gaps[12] <= gaps[1] + 1e-12
        assert gaps[12] <= i_terms[0] / 13 + 1e-12


def test_r_plus_closed_form_over_a_two_step_window():
    quarter = markov.BinarySymmetricChain(0.25)
    got = rates.r_plus(quarter, rates.RateQuery(B=1, W=1))
    assert abs(got - (h_b(0.375) + h_b(0.25)) / 2) <= 1e-12


def test_r_delay_examples():
    rng = np.random.default_rng(4)
    for _ in range(10):
        chain = markov.random_chain(rng, int(rng.integers(2, 6)))
        B = int(rng.integers(0, 4))
        assert abs(
            rates.r_delay(chain, B, 0) - markov.cond_entropy_gap(chain, B + 1)
        ) <= 1e-12
    quarter = markov.BinarySymmetricChain(0.25)
    eps3 = (1 - 0.5**3) / 2
    assert eps3 == 0.4375
    got = rates.r_delay(quarter, 2, 1)
    assert abs(got - (h_b(eps3) + h_b(0.25)) / 2) <= 1e-12


def test_diagonal_rate_examples():
    assert rates.diagonal_rate([3, 2, 1], 1, 1) == Fraction(7, 2)
    assert rates.diagonal_rate([2, 1], 1, 0) == Fraction(3)
    for N in ([4], [3, 2], [2, 2, 1]):
        K = len(N) - 1
        for W in range(K, K + 3):
            got = rates.diagonal_rate(N, 2, W)
            assert isinstance(got, Fraction) and got == Fraction(N[0])
    assert isinstance(rates.diagonal_rate([3, 2, 1], 1, 1), Fraction)


def _random_full_row_rank(rng, r, c):
    while True:
        m = gf2.BitMatrix.from_bits(rng.integers(0, 2, (r, c), dtype=np.uint8))
        if gf2.rank(m) == r:
            return m


def test_diagonal_rate_matches_rank_oracle():
    # independently evaluate the rate from the ranks of the composed
    # sub-diagonal maps, in exact rational arithmetic
    rng = np.random.default_rng(5)
    for _ in range(25):
        B = int(rng.integers(0, 4))
        W = int(rng.integers(0, 4))
        K = B + W
        widths = [int(rng.integers(1, 5))]
        for _ in range(K):
            widths.append(int(rng.integers(1, widths[-1] + 1)))
        blocks = [
            _random_full_row_rank(rng, widths[j], widths[j - 1])
            for j in range(1, K + 1)
        ]
        composed = []
        acc = None
        for blk in blocks:
            acc = blk if acc is None else blk @ acc
            composed.append(acc)
        ranks = [gf2.rank(m) for m in composed]  # rank of depth-k map, k=1..K
        total = sum(ranks[k - 1] for k in range(1, B + W + 1)) - sum(
            ranks[k - 1] for k in range(1, W + 1)
        )
        want = Fraction(widths[0]) + Fraction(total, W + 1)
        assert rates.diagonal_rate(widths, B, W) == want


def test_gaussian_rate_and_baselines():
    d = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
    got = rates.gaussian_rate(d, 2, 0)
    want = 0.5 * (math.log2(10) + math.log2(4) + math.log2(2.5))
    assert abs(got - want) <= 1e-12
    assert abs(got - 3.3219) < 1e-4
    r_si, r_wz, r_fec = rates.baseline_rates(d, 2, 0)
    assert abs(got - r_wz) <= 1e-9
    assert abs(r_fec - 3 * 0.5 * math.log2(10)) <= 1e-12
    assert abs(r_fec - 4.9829) < 1e-4
    for W in range(6):
        g = rates.gaussian_rate(d, 2, W)
        si, wz, _ = rates.baseline_rates(d, 2, W)
        assert g <= wz + 1e-12
        assert wz <= si + 1e-12
    # zero-cost tail layers
    assert abs(rates.gaussian_rate((0.3, 1.0, 1.0), 2, 0) - 0.5 * math.log2(1 / 0.3)) <= 1e-12
    assert rates.baseline_rates((1.0, 1.0), 1, 0) == (0.0, 0.0, 0.0)


def test_validation():
    with pytest.raises(InvalidInput):
        rates.RateQuery(B=-1, W=0)
    with pytest.raises(InvalidInput):
        rates.r_delay(markov.BinarySymmetricChain(0.25), 0, -2)
    # r_delay takes (B, T): no W to blame
    with pytest.raises(InvalidInput, match="^B must be nonnegative$"):
        rates.r_delay(markov.BinarySymmetricChain(0.25), -1, 0)
    with pytest.raises(InvalidInput):
        rates.gaussian_rate((0.5, 0.4), 1, 0)  # decreasing
    with pytest.raises(InvalidInput):
        rates.gaussian_rate((0.0, 0.5), 1, 0)  # zero distortion
    with pytest.raises(InvalidInput):
        rates.gaussian_rate((0.5, 1.2), 1, 0)  # above 1
    with pytest.raises(InvalidInput):
        rates.diagonal_rate([2, -1], 1, 0)
    with pytest.raises(InvalidInput):
        rates.diagonal_rate([], 1, 0)
    layered = (
        (rates.diagonal_rate, [2, 1]),
        (rates.gaussian_rate, (0.5, 0.6)),
        (rates.baseline_rates, (0.5, 0.6)),
    )
    for rate, first in layered:
        for B, W in ((-1, 0), (0, -1)):
            with pytest.raises(InvalidInput, match="^B and W must be nonnegative$"):
                rate(first, B, W)
