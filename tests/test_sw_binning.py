"""Small-block binning oracle: hashing, exact ML window decoding, thresholds."""

import itertools

import numpy as np
import pytest

from streamcode import rates, sw_binning
from streamcode.errors import ImpossibleBin, InvalidInput
from streamcode.markov import BinarySymmetricChain, random_chain

CHI2_63_99 = 92.010  # upper 1% point of chi-square with 63 dof


def test_hash_is_deterministic_and_salted_by_time_and_seed():
    x = (0, 1, 1, 0, 1)
    b = sw_binning.hash_bin(x, 0.4, seed=9, time=3)
    assert b == sw_binning.hash_bin(x, 0.4, seed=9, time=3)
    assert 0 <= b < sw_binning.bin_count(5, 0.4)
    others = {
        sw_binning.hash_bin(x, 0.4, seed=9, time=t) for t in range(20)
    } | {sw_binning.hash_bin(x, 0.4, seed=s, time=3) for s in range(20)}
    assert len(others) > 1  # salts actually move the bin


def test_full_rate_hash_is_injective():
    seen = {
        sw_binning.hash_bin(x, 1.0, seed=2, time=5)
        for x in itertools.product((0, 1), repeat=8)
    }
    assert len(seen) == 2**8
    seen3 = {
        sw_binning.hash_bin(x, np.log2(3), seed=2, alphabet=3)
        for x in itertools.product((0, 1, 2), repeat=5)
    }
    assert len(seen3) == 3**5


def test_hash_uniformity_chi_square():
    table = sw_binning._hash_all(20, 0.3, seed=11, alphabet=2, time=0)
    nbins = sw_binning.bin_count(20, 0.3)
    assert nbins == 64
    counts = np.bincount(table[:100_000].astype(np.int64), minlength=nbins)
    expected = 100_000 / nbins
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < CHI2_63_99


def test_injective_bins_invert_exactly():
    rng = np.random.default_rng(3)
    chain = random_chain(rng, 3)
    n = 6
    for trial in range(20):
        side = tuple(rng.integers(0, 3, n))
        block = tuple(rng.integers(0, 3, n))
        b = sw_binning.hash_bin(block, np.log2(3), seed=4, alphabet=3, time=trial)
        out, tie = sw_binning.ml_decode(
            [b], side, chain, [trial], n=n, rate_bits=np.log2(3), seed=4
        )
        assert out == [block] and not tie


def test_decoded_blocks_rehash_to_the_given_bins():
    rng = np.random.default_rng(5)
    chain = BinarySymmetricChain(0.2)
    n, rate = 10, 0.7
    for trial in range(15):
        side = tuple(rng.integers(0, 2, n))
        truth = [tuple(rng.integers(0, 2, n)) for _ in range(2)]
        bins = [
            sw_binning.hash_bin(blk, rate, seed=6, time=t)
            for t, blk in enumerate(truth)
        ]
        out, _ = sw_binning.ml_decode(
            bins, side, chain, [0, 1], n=n, rate_bits=rate, seed=6
        )
        for t, blk in enumerate(out):
            assert sw_binning.hash_bin(blk, rate, seed=6, time=t) == bins[t]


def test_deterministic_chain_decodes_to_the_continuation():
    chain = BinarySymmetricChain(0.0)
    n = 8
    side = tuple([1] * n)
    for rate in (0.0, 0.25):
        bins = [
            sw_binning.hash_bin(side, rate, seed=7, time=t) for t in (3, 4)
        ]
        out, tie = sw_binning.ml_decode(
            bins, side, chain, [3, 4], n=n, rate_bits=rate, seed=7
        )
        assert out == [side, side] and not tie


def test_impossible_bins_raise():
    chain = BinarySymmetricChain(0.0)
    n = 6
    zeros, ones = tuple([0] * n), tuple([1] * n)
    rate = 0.5
    wrong = sw_binning.hash_bin(ones, rate, seed=8, time=0)
    if wrong == sw_binning.hash_bin(zeros, rate, seed=8, time=0):
        wrong = (wrong + 1) % sw_binning.bin_count(n, rate)
    with pytest.raises(ImpossibleBin, match="positive probability"):
        sw_binning.ml_decode(
            [wrong], zeros, chain, [0], n=n, rate_bits=rate, seed=8
        )
    with pytest.raises(ImpossibleBin, match="no sequence"):
        sw_binning.ml_decode(
            [sw_binning.bin_count(n, rate) + 5],
            zeros,
            chain,
            [0],
            n=n,
            rate_bits=rate,
            seed=8,
        )


def test_ties_are_flagged_and_broken_lexicographically():
    chain = BinarySymmetricChain(0.5)
    n = 3
    out, tie = sw_binning.ml_decode(
        [0], (0, 0, 0), chain, [0], n=n, rate_bits=0.0, seed=9
    )
    assert tie
    assert out == [(0, 0, 0)]  # every candidate equally likely; first wins


def test_sample_path_frozen_toggling_and_flip_rate():
    frozen = sw_binning.sample_path(BinarySymmetricChain(0.0), 5, 30, np.random.default_rng(0))
    assert (frozen == frozen[0]).all()
    toggle = sw_binning.sample_path(BinarySymmetricChain(1.0), 5, 30, np.random.default_rng(0))
    assert (toggle[1:] == 1 - toggle[:-1]).all()
    eps = 0.25
    path = sw_binning.sample_path(BinarySymmetricChain(eps), 100, 1000, np.random.default_rng(5))
    flips = (path[1:] != path[:-1]).mean()
    sigma = (eps * (1 - eps) / (1000 * 100)) ** 0.5
    assert abs(flips - eps) < 3 * sigma


def test_validation_rejects_oversized_or_malformed_windows():
    chain = BinarySymmetricChain(0.1)
    with pytest.raises(InvalidInput, match="budget"):
        sw_binning.ml_decode(
            [0, 0, 0], None, chain, [0, 1, 2], n=12, rate_bits=0.5, seed=1
        )
    with pytest.raises(InvalidInput, match="62"):
        sw_binning.hash_bin((0,) * 16, 4.0, seed=1)
    with pytest.raises(InvalidInput, match="consecutive"):
        sw_binning.ml_decode(
            [0, 0], None, chain, [0, 2], n=4, rate_bits=0.5, seed=1
        )
    with pytest.raises(InvalidInput, match="side info"):
        sw_binning.ml_decode(
            [0], (0, 1), chain, [0], n=4, rate_bits=0.5, seed=1
        )


def test_experiment_is_error_free_at_log_alphabet_rate():
    chain = BinarySymmetricChain(0.3)
    stats = sw_binning.streaming_sw_experiment(
        chain, B=1, W=0, T=1, rate_bits=1.0, n=6, trials=30, seed=10
    )
    for mode in ("steady", "post_burst", "delayed"):
        assert stats[mode].decodes > 0
        assert stats[mode].errors == 0


def test_experiment_errors_stay_high_on_incompressible_source():
    chain = BinarySymmetricChain(0.5)
    stats = sw_binning.streaming_sw_experiment(
        chain,
        B=1,
        W=0,
        T=0,
        rate_bits=0.6,
        n=10,
        trials=60,
        seed=11,
        modes=("steady", "post_burst"),
    )
    assert stats["steady"].error_rate > 0.2
    assert stats["post_burst"].error_rate > 0.2


def test_post_burst_error_falls_past_the_rate_threshold():
    chain = BinarySymmetricChain(0.25)
    thr = rates.r_plus(chain, rates.RateQuery(B=1, W=0))
    lo = sw_binning.streaming_sw_experiment(
        chain, 1, 0, 0, thr - 0.1, n=12, trials=400, seed=12, modes=("post_burst",)
    )["post_burst"]
    hi = sw_binning.streaming_sw_experiment(
        chain, 1, 0, 0, thr + 0.15, n=12, trials=400, seed=12, modes=("post_burst",)
    )["post_burst"]
    assert lo.error_rate > hi.error_rate
    assert hi.error_rate < 0.15


def test_periodic_delay_run_with_deterministic_chain_is_exact():
    chain = BinarySymmetricChain(0.0)
    n, horizon, seed = 6, 12, 7
    out = sw_binning.periodic_delay_run(
        chain, B=2, T=1, rate_bits=0.5, n=n, horizon=horizon, seed=seed
    )
    path = sw_binning.sample_path(chain, n, horizon, np.random.default_rng([seed]))
    for t in range(horizon):
        if t % 4 in (0, 1):
            assert out[t] == ("window",)
        else:
            status, block = out[t]
            assert status == "recovered"
            assert block == tuple(path[t + 1])
