"""Trace generators: structural relations, determinism, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from streamcode import gf2, sources
from streamcode.errors import InvalidInput, InvariantViolation


def mul(bits: np.ndarray, m: gf2.BitMatrix) -> np.ndarray:
    if m.rows == 0:
        return np.zeros(bits.shape[:-1] + (0,), np.uint8)
    return (bits @ m.to_bits().T) & 1


def test_gen_diagonal_satisfies_layer_relations():
    rng = np.random.default_rng(0)
    for trial in range(12):
        K = int(rng.integers(0, 4))
        spec = sources.random_diagonal_spec(rng, K)
        trace = sources.gen_diagonal(spec, n=3, T=12, seed=trial)
        assert trace.tail_depth == K
        for j in range(1, K + 1):
            for t in range(-trace.tail_depth + 1, trace.T):
                got = trace.symbol(t, j)
                want = mul(trace.symbol(t - 1, j - 1), spec.R[j - 1])
                assert np.array_equal(got, want), (trial, t, j)
        # depth-j symbols are the j-steps-back innovation pushed through
        for j in range(K + 1):
            comp = spec.composed(j)
            for t in range(j, trace.T):
                assert np.array_equal(
                    trace.symbol(t, j), mul(trace.symbol(t - j, 0), comp)
                )


def test_gen_diagonal_special_cases():
    iid = sources.DiagonalSourceSpec(widths=(2,), R=())
    trace = sources.gen_diagonal(iid, n=4, T=50, seed=1)
    assert trace.sub[0].shape == (50, 4, 2)
    shift = sources.DiagonalSourceSpec(
        widths=(1, 1), R=(gf2.BitMatrix.from_bits([[1]]),)
    )
    tr = sources.gen_diagonal(shift, n=2, T=20, seed=2)
    for t in range(0, 20):
        assert np.array_equal(tr.symbol(t, 1), tr.symbol(t - 1, 0))


def test_gen_diagonal_deterministic_in_seed():
    rng = np.random.default_rng(3)
    spec = sources.random_diagonal_spec(rng, 2)
    a = sources.gen_diagonal(spec, n=2, T=10, seed=7)
    b = sources.gen_diagonal(spec, n=2, T=10, seed=7)
    c = sources.gen_diagonal(spec, n=2, T=10, seed=8)
    for j in range(spec.K + 1):
        assert np.array_equal(a.sub[j], b.sub[j])
        assert np.array_equal(a.tail[j], b.tail[j])
    assert any(not np.array_equal(a.sub[j], c.sub[j]) for j in range(spec.K + 1))


def test_gen_semidet_recursion():
    rng = np.random.default_rng(4)
    for trial in range(10):
        spec = sources.random_semidet_spec(rng)
        tr = sources.gen_semidet(spec, n=3, T=15, seed=trial, tail_depth=2)
        for t in range(-1, 15):
            want = mul(tr.symbol(t - 1, 0), spec.A) ^ mul(tr.symbol(t - 1, 1), spec.B)
            assert np.array_equal(tr.symbol(t, 1), want)
    zero = sources.SemiDetSpec(
        N0=2, Nd=2, A=gf2.BitMatrix.zeros(2, 2), B=gf2.BitMatrix.zeros(2, 2)
    )
    tr = sources.gen_semidet(zero, n=2, T=6, seed=0)
    assert not tr.sub[1].any()
    ident = sources.SemiDetSpec(
        N0=2, Nd=2, A=gf2.BitMatrix.identity(2), B=gf2.BitMatrix.zeros(2, 2)
    )
    tr = sources.gen_semidet(ident, n=2, T=10, seed=1)
    for t in range(10):
        assert np.array_equal(tr.symbol(t, 1), tr.symbol(t - 1, 0))


def test_spatial_copies_look_independent():
    iid = sources.DiagonalSourceSpec(widths=(1,), R=())
    tr = sources.gen_diagonal(iid, n=2, T=8192, seed=9)
    bits = tr.sub[0][:, :, 0]
    counts = np.zeros(4)
    for a, b in bits:
        counts[2 * a + b] += 1
    expected = 8192 / 4
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 20.0


def test_normalize_k():
    rng = np.random.default_rng(6)
    spec = sources.random_diagonal_spec(rng, 2)
    same = sources.normalize_K(spec, 1, 1)
    assert same.spec == spec and same.tail_rule == {}
    shallow = sources.random_diagonal_spec(rng, 1)
    padded = sources.normalize_K(shallow, 1, 1).spec
    assert padded.K == 2
    assert padded.widths == shallow.widths + (0,)
    padded.validate()
    deep = sources.random_diagonal_spec(rng, 3)
    norm = sources.normalize_K(deep, 1, 1)
    assert norm.spec.K == 2
    assert norm.spec.widths == deep.widths[:3]
    assert set(norm.tail_rule) == {3}
    # the emitted rule reproduces the dropped layer from old innovations
    tr = sources.gen_diagonal(deep, n=2, T=10, seed=3)
    for t in range(3, 10):
        want = mul(tr.symbol(t - 3, 0), norm.tail_rule[3])
        assert np.array_equal(tr.symbol(t, 3), want)


def test_spec_validation():
    rng = np.random.default_rng(7)
    spec = sources.random_diagonal_spec(rng, 3)
    spec.validate()
    bad = sources.DiagonalSourceSpec(
        widths=(2, 2), R=(gf2.BitMatrix.from_bits([[1, 0], [1, 0]]),)
    )
    with pytest.raises(InvariantViolation):
        bad.validate()
    with pytest.raises(InvalidInput):
        sources.DiagonalSourceSpec(widths=(2, 2), R=(gf2.BitMatrix.zeros(1, 2),))
    with pytest.raises(InvalidInput):
        sources.SemiDetSpec(N0=2, Nd=1, A=gf2.BitMatrix.zeros(2, 2), B=gf2.BitMatrix.zeros(1, 1))


def test_symbol_bounds():
    copy = sources.DiagonalSourceSpec(widths=(1, 1), R=(gf2.BitMatrix.identity(1),))
    tr = sources.gen_diagonal(copy, n=2, T=4, seed=0)
    with pytest.raises(InvalidInput):
        tr.symbol(4, 0)
    with pytest.raises(InvalidInput):
        tr.symbol(-2, 0)
