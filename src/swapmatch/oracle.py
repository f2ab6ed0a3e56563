"""Ground-truth swap matching by definition.

A swap permutation reorders a string by disjoint transpositions of adjacent,
unequal symbols; a pattern swap-matches a text window when some swapped
version equals the window. A swap exchanges two unequal symbols, so no
swap starts where the window already equals the pattern, and one must
start where they differ: a match decomposes in exactly one way. This
module decides a match two ways:

* explicit enumeration of every swapped version (the primitive definition,
  exponential, guarded to short patterns), and
* a greedy left-to-right parse of the window by that one decomposition,
  usable at any pattern length.

Neither route keeps the signal states of the bit-parallel matchers, so
they can serve as the oracle those matchers are validated against.
"""

from __future__ import annotations

from typing import TypeVar

from .report import MatchReport, check_search_inputs

S = TypeVar("S", str, bytes)

# enumerate_swapped_versions() grows like Fibonacci(p+1); refuse patterns
# where the set itself becomes unreasonable and point callers at the parse.
ENUMERATION_LIMIT = 26


def enumerate_swapped_versions(pattern: S) -> frozenset[S]:
    """All distinct swapped versions of the pattern.

    Built suffix by suffix from the end of the pattern: a version of
    pattern[i:] starts with pattern[i], or, where pattern[i] !=
    pattern[i+1], with pattern[i+1] pattern[i]; the two starts differ, so
    no version is built twice. Raises ValueError for empty patterns and
    for p >= 26, where the Fibonacci-sized result is no longer desk-scale.
    """
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    if p >= ENUMERATION_LIMIT:
        raise ValueError(
            f"refusing to enumerate swapped versions for p={p} >= "
            f"{ENUMERATION_LIMIT}; use oracle_match_at / oracle_search"
        )
    # the versions of pattern[i+2:] and of pattern[i+1:]
    after, here = [pattern[:0]], [pattern[p - 1:]]
    for i in range(p - 2, -1, -1):
        head = pattern[i:i + 1]
        versions = [head + v for v in here]
        if pattern[i] != pattern[i + 1]:
            swap = pattern[i + 1:i + 2] + head
            versions += [swap + v for v in after]
        after, here = here, versions
    return frozenset(here)


def _window_matches(pattern, text, k0: int) -> bool:
    """Greedy parse: does text[k0 : k0+p] equal some swapped version?

    Where the window equals the pattern no swap can start, so the parse
    steps one symbol; where they differ a swap must start, so it needs
    the two symbols exchanged and steps two.
    """
    p, i = len(pattern), 0
    while i < p:
        c = text[k0 + i]
        if c == pattern[i]:
            i += 1
        elif i + 1 < p and c == pattern[i + 1] and text[k0 + i + 1] == pattern[i]:
            i += 2
        else:
            return False
    return True


def oracle_match_at(pattern: str | bytes, text: str | bytes, k: int) -> bool:
    """True iff some swapped version of the pattern equals text[k : k+p-1] (1-based k).

    Takes the inputs every searcher takes (:func:`check_search_inputs`)
    and raises ``ValueError`` for a position outside 1..t-p+1.
    """
    check_search_inputs(pattern, text)
    p, t = len(pattern), len(text)
    if not 1 <= k <= t - p + 1:
        raise ValueError(f"position {k} outside 1..{t - p + 1}")
    return _window_matches(pattern, text, k - 1)


def oracle_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """Every 1-based position where the pattern swap-matches the text."""
    check_search_inputs(pattern, text)
    p, t = len(pattern), len(text)
    positions = [k0 + 1 for k0 in range(t - p + 1) if _window_matches(pattern, text, k0)]
    return MatchReport("oracle", tuple(positions), p, t)
