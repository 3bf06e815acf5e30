"""Markov calculator tests against brute-force path enumeration oracles."""

from __future__ import annotations

import numpy as np
import pytest

from streamcode import markov
from streamcode.errors import InvalidInput

from helpers import (
    h_b,
    oracle_block_cond_entropy,
    oracle_cond_entropy,
    oracle_cond_mutual_info,
)


def test_k_step_closed_form():
    rng = np.random.default_rng(0)
    chain = markov.random_chain(rng, 5)
    assert np.array_equal(markov.k_step(chain, 0), np.eye(5))
    for eps in (0.05, 0.25, 0.4, 0.75):
        bsc = markov.BinarySymmetricChain(eps)
        for k in range(1, 9):
            eps_k = (1 - (1 - 2 * eps) ** k) / 2
            Pk = markov.k_step(bsc, k)
            assert abs(Pk[0, 1] - eps_k) < 1e-12
            assert abs(Pk[1, 0] - eps_k) < 1e-12
    half = markov.BinarySymmetricChain(0.5)
    for k in (1, 3, 7):
        assert np.allclose(markov.k_step(half, k), 0.5, atol=1e-15)


def test_cond_entropy_gap_examples():
    assert markov.cond_entropy_gap(markov.BinarySymmetricChain(0.5), 1) == 1.0
    frozen = markov.BinarySymmetricChain(0.0)
    for k in (1, 2, 5):
        assert markov.cond_entropy_gap(frozen, k) == 0.0
    quarter = markov.BinarySymmetricChain(0.25)
    got = markov.cond_entropy_gap(quarter, 2)
    assert abs(got - h_b(0.375)) < 1e-12
    assert abs(got - 0.954434) < 1e-6
    assert abs(got - oracle_cond_entropy(quarter, 2)) < 1e-10


def test_cond_entropy_gap_matches_oracle_on_random_chains():
    rng = np.random.default_rng(1)
    for _ in range(15):
        chain = markov.random_chain(rng, int(rng.integers(2, 6)))
        for k in (1, 2, 3):
            assert abs(
                markov.cond_entropy_gap(chain, k) - oracle_cond_entropy(chain, k)
            ) < 1e-10


def test_cond_mutual_info_examples_and_oracle():
    rng = np.random.default_rng(2)
    chain = markov.random_chain(rng, 4)
    assert markov.cond_mutual_info(chain, 0, 3) == 0.0
    half = markov.BinarySymmetricChain(0.5)
    assert abs(markov.cond_mutual_info(half, 2, 1)) < 1e-12
    quarter = markov.BinarySymmetricChain(0.25)
    assert abs(
        markov.cond_mutual_info(quarter, 1, 1)
        - oracle_cond_mutual_info(quarter, 1, 1)
    ) < 1e-10
    for _ in range(10):
        chain = markov.random_chain(rng, int(rng.integers(2, 5)))
        B = int(rng.integers(1, 3))
        gap = int(rng.integers(1, 3))
        assert abs(
            markov.cond_mutual_info(chain, B, gap)
            - oracle_cond_mutual_info(chain, B, gap)
        ) < 1e-10


def test_block_cond_entropy_examples_and_oracle():
    rng = np.random.default_rng(3)
    chain = markov.random_chain(rng, 4)
    for B in (0, 1, 2):
        assert markov.block_cond_entropy(chain, B, 0) == markov.cond_entropy_gap(
            chain, B + 1
        )
    half = markov.BinarySymmetricChain(0.5)
    for B, W in ((0, 0), (1, 2), (3, 1)):
        assert abs(markov.block_cond_entropy(half, B, W) - (W + 1)) < 1e-12
    quarter = markov.BinarySymmetricChain(0.25)
    got = markov.block_cond_entropy(quarter, 1, 2)
    assert abs(got - (h_b(0.375) + 2 * h_b(0.25))) < 1e-12
    assert abs(got - oracle_block_cond_entropy(quarter, 1, 2)) < 1e-10
    for _ in range(8):
        chain = markov.random_chain(rng, int(rng.integers(2, 4)))
        B = int(rng.integers(0, 3))
        W = int(rng.integers(0, 3))
        assert abs(
            markov.block_cond_entropy(chain, B, W)
            - oracle_block_cond_entropy(chain, B, W)
        ) < 1e-10


def test_chain_rule_identity_both_forms():
    # H(block | s_0) splits into the one-step entropies plus the mutual
    # information carried across the gap by the state right after it
    rng = np.random.default_rng(4)
    for _ in range(40):
        chain = markov.random_chain(rng, int(rng.integers(2, 7)))
        B = int(rng.integers(0, 5))
        W = int(rng.integers(0, 5))
        block = markov.block_cond_entropy(chain, B, W)
        via_mi = markov.cond_mutual_info(chain, B, 1) + (W + 1) * markov.cond_entropy_gap(chain, 1)
        assert abs(block - via_mi) < 1e-9


def test_cond_mutual_info_nonincreasing_in_gap():
    rng = np.random.default_rng(5)
    for _ in range(20):
        chain = markov.random_chain(rng, int(rng.integers(2, 6)))
        B = int(rng.integers(1, 4))
        vals = [markov.cond_mutual_info(chain, B, gap) for gap in range(1, 5)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-11


def test_cond_entropy_gap_nondecreasing_for_symmetric_chains():
    for eps in (0.02, 0.1, 0.25, 0.45):
        chain = markov.BinarySymmetricChain(eps)
        vals = [markov.cond_entropy_gap(chain, k) for k in range(1, 7)]
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert hi >= lo - 1e-12


def test_is_symmetric():
    for eps in (0.0, 0.1, 0.5, 0.9):
        assert markov.is_symmetric(markov.BinarySymmetricChain(eps))
    two_state = markov.FiniteMarkovChain([[0.9, 0.1], [0.4, 0.6]])
    assert np.allclose(two_state.pi, [0.8, 0.2], atol=1e-12)
    assert abs(two_state.pi[0] * 0.1 - 0.08) < 1e-12
    assert markov.is_symmetric(two_state)
    cyclic = markov.FiniteMarkovChain(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )
    assert not markov.is_symmetric(cyclic)


def test_stationary_matches_direct_solve():
    rng = np.random.default_rng(6)
    for _ in range(100):
        chain = markov.random_chain(rng, int(rng.integers(2, 7)))
        n = chain.alphabet_size
        # direct solve of pi (P - I) = 0 with the normalization row appended
        a = np.vstack([chain.P.T - np.eye(n), np.ones(n)])
        b = np.concatenate([np.zeros(n), [1.0]])
        pi_ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(chain.pi - pi_ref).max() < 1e-10
        assert np.abs(chain.pi @ chain.P - chain.pi).max() <= 1e-12
        assert abs(chain.pi.sum() - 1.0) < 1e-12
    cyclic = markov.FiniteMarkovChain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert np.allclose(cyclic.pi, 1 / 3, atol=1e-12)


def test_validation_and_json():
    with pytest.raises(InvalidInput):
        markov.FiniteMarkovChain([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(InvalidInput):
        markov.FiniteMarkovChain([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(InvalidInput):
        markov.FiniteMarkovChain([[1.0, 0.0]])
    with pytest.raises(InvalidInput):
        markov.BinarySymmetricChain(1.5)
    with pytest.raises(InvalidInput):
        markov.cond_entropy_gap(markov.BinarySymmetricChain(0.3), 0)
    chain = markov.FiniteMarkovChain([[0.9, 0.1], [0.4, 0.6]])
    again = markov.FiniteMarkovChain.from_json({"P": chain.P.tolist()})
    assert np.array_equal(again.P, chain.P)
    with pytest.raises(InvalidInput):
        markov.FiniteMarkovChain.from_json({"P": [[0.5, 0.5], [0.5, 0.5]], "alphabet": 3})
