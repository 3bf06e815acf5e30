"""Erasure pattern construction and application."""

from __future__ import annotations

import pytest

from streamcode import channel
from streamcode.errors import InvalidInput, PatternViolation


def test_single_burst():
    assert channel.single_burst(3, 0, 10).erased == frozenset()
    assert channel.single_burst(0, 2, 10).erased == {0, 1}
    for T in (1, 5, 9):
        for j in range(T):
            for b in range(T - j + 1):
                pat = channel.single_burst(j, b, T)
                assert pat.erased == set(range(j, j + b))
    with pytest.raises(InvalidInput):
        channel.single_burst(8, 3, 10)


def test_periodic():
    assert channel.periodic(4, 0, 12).erased == frozenset()
    assert channel.periodic(3, 1, 9).erased == {0, 3, 6}
    # delayed-decoder layout: period B+T+1 with B=2, T=1
    pat = channel.periodic(4, 2, 11)
    assert pat.erased == {0, 1, 4, 5, 8, 9}
    with pytest.raises(InvalidInput):
        channel.periodic(2, 2, 10)


def test_multi_burst_guard():
    one = channel.multi_burst([(2, 1)], 2, 10)
    assert one.erased == channel.single_burst(2, 1, 10).erased
    two = channel.multi_burst([(1, 1), (4, 1)], 2, 10)
    assert two.erased == {1, 4}
    with pytest.raises(PatternViolation):
        channel.multi_burst([(1, 1), (3, 1)], 2, 10)
    # zero-length bursts do not count against the guard
    ok = channel.multi_burst([(1, 1), (2, 0), (4, 1)], 2, 10)
    assert ok.erased == {1, 4}


def test_apply_uses_absent_marker():
    pat = channel.single_burst(1, 2, 5)
    out = channel.apply(pat, ["a", "b", "c", "d", "e"])
    assert out == ["a", None, None, "d", "e"]
    with pytest.raises(InvalidInput):
        channel.apply(pat, ["a", "b"])


def test_pattern_rejects_erasures_outside_the_horizon():
    with pytest.raises(InvalidInput):
        channel.ErasurePattern(T=4, erased=frozenset({4}))


def test_recovery_window_and_its_contract():
    bursts = channel.multi_burst([(1, 2), (6, 1)], 2, 8)
    assert channel.recovery_window(bursts, 2, 2) == {1, 2, 3, 4, 6, 7}
    assert channel.recovery_window(channel.single_burst(0, 0, 5), 0, 0) == frozenset()
    # the contract is checked in this order: B = 0, burst length, guard
    for pattern, B, W, message in [
        (channel.single_burst(1, 2, 5), 0, 0, "B = 0"),
        (channel.multi_burst([(0, 1), (2, 3)], 0, 8), 2, 1, "longer"),
        (channel.multi_burst([(0, 1), (2, 1)], 0, 8), 1, 1, "inside the recovery window"),
    ]:
        with pytest.raises(PatternViolation, match=message):
            channel.recovery_window(pattern, B, W)
