"""The brute-force oracle against its own two definitions."""

import random
import string

import pytest
from hypothesis import given, strategies as st

from swapmatch.oracle import (
    enumerate_swapped_versions,
    oracle_match_at,
    oracle_search,
)
from swapmatch.smalgo import exhaustive_strings


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_enumerate_single_swap():
    assert enumerate_swapped_versions("ab") == {"ab", "ba"}


def test_enumerate_equal_symbols_never_swap():
    assert enumerate_swapped_versions("aa") == {"aa"}


def test_enumerate_distinct_four():
    assert len(enumerate_swapped_versions("abcd")) == 5


def test_enumerate_aba():
    assert enumerate_swapped_versions("aba") == {"aba", "baa", "aab"}


def test_enumerate_bytes():
    assert enumerate_swapped_versions(b"ab") == {b"ab", b"ba"}


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_swapped_versions("")
    with pytest.raises(ValueError):
        enumerate_swapped_versions("a" * 26)


def test_fibonacci_counts_for_distinct_symbols():
    for p in range(1, 13):
        pattern = string.ascii_lowercase[:p]
        assert len(enumerate_swapped_versions(pattern)) == fib(p + 1)


@given(st.text(alphabet="abc", min_size=1, max_size=9))
def test_versions_are_disjoint_adjacent_transpositions(pattern):
    p = len(pattern)
    for version in enumerate_swapped_versions(pattern):
        assert sorted(version) == sorted(pattern)
        diff = [i for i in range(p) if version[i] != pattern[i]]
        # differing positions pair up as (i, i+1) swaps of unequal symbols
        assert len(diff) % 2 == 0
        for a, b in zip(diff[::2], diff[1::2]):
            assert b == a + 1
            assert version[a] == pattern[b] and version[b] == pattern[a]
            assert pattern[a] != pattern[b]


@given(
    st.text(alphabet="abc", min_size=1, max_size=8),
    st.text(alphabet="abc", min_size=1, max_size=8),
)
def test_match_at_agrees_with_enumeration(pattern, window):
    if len(window) != len(pattern):
        window = (window * len(pattern))[: len(pattern)]
    expected = window in enumerate_swapped_versions(pattern)
    assert oracle_match_at(pattern, window, 1) == expected


def test_match_at_agreement_seeded_bulk():
    rng = random.Random(20240)
    for _ in range(20_000):
        p = rng.randint(1, 10)
        pattern = "".join(rng.choice("abc") for _ in range(p))
        window = "".join(rng.choice("abc") for _ in range(p))
        assert oracle_match_at(pattern, window, 1) == (
            window in enumerate_swapped_versions(pattern)
        )


@pytest.mark.parametrize(
    "sigma, p_max, as_bytes",
    [("ab", 10, False), ("abc", 6, False), ("ab", 8, True), ("abc", 4, True)],
)
def test_match_at_equals_enumeration_exhaustive(sigma, p_max, as_bytes):
    # every pattern against every window of its length over the same
    # alphabet: the windows the parse accepts are exactly the versions
    for p in range(1, p_max + 1):
        windows = list(exhaustive_strings(sigma, p, p))
        if as_bytes:
            windows = [w.encode() for w in windows]
        for pattern in windows:
            accepted = {w for w in windows if oracle_match_at(pattern, w, 1)}
            assert accepted == enumerate_swapped_versions(pattern), pattern


def test_match_at_known_instances():
    assert oracle_match_at("abab", "aaba", 1) is False
    assert oracle_match_at("acbab", "babcabc", 2) is True
    assert oracle_match_at("ab", "ab", 1) is True


def test_match_at_range_errors():
    with pytest.raises(ValueError):
        oracle_match_at("ab", "abc", 0)
    with pytest.raises(ValueError):
        oracle_match_at("ab", "abc", 3)
    with pytest.raises(ValueError):
        oracle_match_at("abc", "ab", 1)  # pattern longer than text


def test_match_at_takes_the_search_inputs():
    with pytest.raises(ValueError):
        oracle_match_at("", "ab", 1)
    with pytest.raises(TypeError):
        oracle_match_at("ab", b"ab", 1)
    with pytest.raises(TypeError):
        oracle_match_at(b"ab", "ab", 1)


def test_search_flaw_instance_rejects():
    assert oracle_search("abab", "aaba").positions == ()


def test_search_regression_aba_aabaa():
    # every window of aabaa is a swapped version of aba
    assert oracle_search("aba", "aabaa").positions == (1, 2, 3)


def test_search_no_match():
    assert oracle_search("a", "bbb").positions == ()


def test_search_longer_pattern_is_empty():
    assert oracle_search("abc", "ab").positions == ()


def test_search_bytes():
    assert oracle_search(b"ab", b"ba").positions == (1,)
