"""Ground-truth swap matching by definition.

A swap permutation reorders a string by disjoint transpositions of adjacent,
unequal symbols; a pattern swap-matches a text window when some swapped
version equals the window. This module decides that two ways:

* explicit enumeration of every swapped version (the primitive definition,
  exponential, guarded to short patterns), and
* a two-state linear scan usable at any pattern length.

Both routes are deliberately independent of the bit-parallel matchers so
they can serve as the oracle those matchers are validated against.
"""

from __future__ import annotations

from typing import TypeVar

from .report import MatchReport, check_search_inputs

S = TypeVar("S", str, bytes)

# enumerate_swapped_versions() grows like Fibonacci(p+1); refuse patterns
# where the set itself becomes unreasonable and point callers at the scan.
ENUMERATION_LIMIT = 26


def _join(template: str | bytes, items: list) -> str | bytes:
    if isinstance(template, bytes):
        return bytes(items)
    return "".join(items)


def enumerate_swapped_versions(pattern: S) -> frozenset[S]:
    """All distinct swapped versions of the pattern.

    Generated by choosing every set of non-overlapping adjacent
    transpositions (i, i+1) with unequal symbols; equal-symbol swaps are
    never generated. Raises ValueError for empty patterns and for
    p >= 26, where the Fibonacci-sized result is no longer desk-scale.
    """
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    if p >= ENUMERATION_LIMIT:
        raise ValueError(
            f"refusing to enumerate swapped versions for p={p} >= "
            f"{ENUMERATION_LIMIT}; use oracle_match_at / oracle_search"
        )
    out: set[S] = set()

    def extend(i: int, acc: list) -> None:
        if i == p:
            out.add(_join(pattern, acc))  # type: ignore[arg-type]
            return
        acc.append(pattern[i])
        extend(i + 1, acc)
        acc.pop()
        if i + 1 < p and pattern[i] != pattern[i + 1]:
            acc.append(pattern[i + 1])
            acc.append(pattern[i])
            extend(i + 2, acc)
            acc.pop()
            acc.pop()

    extend(0, [])
    return frozenset(out)


def _window_matches(pattern, text, k0: int) -> bool:
    """Two-state scan: does text[k0 : k0+p] equal some swapped version?

    State a: positions 1..i of the window tiled entirely by pattern
    positions 1..i. State b: position i consumed pattern symbol i+1 and
    pattern symbol i is still owed to window position i+1.
    """
    p = len(pattern)
    a, b = True, False
    for i in range(p):
        c = text[k0 + i]
        na = (a and c == pattern[i]) or (b and c == pattern[i - 1])
        nb = a and i + 1 < p and pattern[i] != pattern[i + 1] and c == pattern[i + 1]
        a, b = na, nb
        if not (a or b):
            return False
    return a


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
    positions = [
        k0 + 1 for k0 in range(t - p + 1) if _window_matches(pattern, text, k0)
    ]
    return MatchReport("oracle", tuple(positions), p, t)
