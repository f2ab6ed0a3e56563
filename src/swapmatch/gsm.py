"""GSM: bit-parallel swap matching over the pattern graph.

The matcher keeps one prefix-match bit vector per graph row: ``ru`` for
signals that arrived by an upward swap (row -1), ``rm`` for unswapped
positions (row 0) and ``rd`` for signals owing a swap to the next column
(row +1). Each text symbol costs one propagate-then-filter round of 13
bitwise vector operations, so the whole search is linear in the text for
patterns up to the word size and degrades only by the word count beyond.

``gsm_step`` is the literal per-symbol round over :class:`BitVector`
values; ``gsm_search``/``gsm_search_stream`` run the same recurrence on
raw ints with precomputed row masks for speed. The two are equivalence-
tested against each other and against the brute-force oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .bitvec import BitVector
from .report import MatchReport


@dataclass(frozen=True)
class GsmMasks:
    """Per-symbol position masks: bit i of ``d[x]`` set iff pattern[i] == x."""

    p: int
    d: Mapping[object, BitVector]
    alphabet: frozenset

    def mask_for(self, symbol) -> BitVector:
        """Mask for a symbol; symbols outside the alphabet kill all signals."""
        vec = self.d.get(symbol)
        if vec is None:
            return BitVector.zeros(self.p)
        return vec


@dataclass(frozen=True)
class GsmState:
    """Signals of the three graph rows after some number of steps."""

    ru: BitVector
    rm: BitVector
    rd: BitVector

    def __post_init__(self) -> None:
        p = self.ru.length
        if self.rm.length != p or self.rd.length != p:
            raise ValueError("row vectors must share one length")
        if p >= 1 and self.ru.get_bit(1):
            raise ValueError("row -1 has no column-1 vertex; ru bit 1 must be 0")
        if p >= 1 and self.rd.get_bit(p):
            raise ValueError("row +1 has no column-p vertex; rd bit p must be 0")

    @property
    def p(self) -> int:
        return self.ru.length


def zero_state(p: int) -> GsmState:
    return GsmState(BitVector.zeros(p), BitVector.zeros(p), BitVector.zeros(p))


def gsm_precompute(pattern: str | bytes, alphabet: Iterable | None = None) -> GsmMasks:
    """Build the symbol masks; the masks partition positions 1..p.

    The alphabet defaults to the symbols occurring in the pattern. A
    declared alphabet may widen it (absent symbols get zero masks) but
    must cover every pattern symbol.
    """
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    symbols = frozenset(pattern)
    declared = symbols if alphabet is None else frozenset(alphabet)
    if not symbols <= declared:
        missing = sorted(symbols - declared, key=repr)
        raise ValueError(f"alphabet does not cover pattern symbols: {missing}")
    values: dict = {x: 0 for x in declared}
    for i, x in enumerate(pattern):
        values[x] |= 1 << i
    d = {x: BitVector(p, v) for x, v in values.items()}
    return GsmMasks(p, d, declared)


def gsm_step(state: GsmState, masks: GsmMasks, symbol) -> GsmState:
    """One propagate-then-filter round; exactly 13 bitwise vector ops."""
    d = masks.mask_for(symbol)
    ru_prop = state.rd.lso()
    rm_prop = (state.rm | state.ru).lso()
    rd_prop = (state.rm | state.ru).lso()
    return GsmState(
        ru=ru_prop & d.lshift1(),
        rm=rm_prop & d,
        rd=rd_prop & d.rshift1(),
    )


def gsm_accepts(state: GsmState, p: int | None = None) -> bool:
    """A signal at column p of row -1 or row 0 completes a match."""
    if p is None:
        p = state.p
    if p < 1 or p > state.p:
        return False
    return bool(state.ru.get_bit(p) or state.rm.get_bit(p))


# -- fast engine on raw ints --------------------------------------------------

_ZERO3 = (0, 0, 0)


def _mask_triples(masks: GsmMasks, for_bytes: bool):
    """Precompute (filter, filter<<1, filter>>1) per symbol for the scan loop.

    The table maps every symbol, including those outside the alphabet
    (which get all-zero filters): a list indexed by byte value for bytes,
    a defaultdict for str.
    """
    p = masks.p
    full = (1 << p) - 1
    table = [_ZERO3] * 256 if for_bytes else defaultdict(lambda: _ZERO3)
    for x, v in masks.d.items():
        table[x] = (v.value, (v.value << 1) & full, v.value >> 1)
    return table


def _scan_chunk(table, j, p, chunk, ru, rm, rd, out):
    """Feed one chunk through the recurrence; returns the carried state."""
    accept = 1 << (p - 1)
    start_off = 1 - p
    append = out.append
    for c in chunk:
        d, dl, dr = table[c]
        prop = ((rm | ru) << 1) | 1
        ru = ((rd << 1) | 1) & dl
        rm = prop & d
        rd = prop & dr
        j += 1
        if (ru | rm) & accept:
            append(j + start_off)
    return j, ru, rm, rd


def gsm_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """All 1-based positions where the pattern swap-matches the text."""
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    is_bytes = isinstance(pattern, bytes)
    if is_bytes != isinstance(text, bytes):
        raise TypeError("pattern and text must both be str or both be bytes")
    masks = gsm_precompute(pattern)
    table = _mask_triples(masks, is_bytes)
    out: list[int] = []
    _scan_chunk(table, 0, p, text, 0, 0, 0, out)
    return MatchReport("gsm", tuple(out), p, len(text))


def gsm_search_stream(
    pattern: str | bytes, chunks: Iterable[str | bytes]
) -> Iterator[int]:
    """Stream variant: match positions for the concatenation of the chunks.

    State is constant-size in the text length; positions are yielded as
    soon as the chunk containing their last symbol has been consumed.
    """
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    is_bytes = isinstance(pattern, bytes)
    masks = gsm_precompute(pattern)
    table = _mask_triples(masks, is_bytes)
    j = ru = rm = rd = 0
    for chunk in chunks:
        if is_bytes != isinstance(chunk, bytes):
            raise TypeError("chunks must match the pattern type")
        out: list[int] = []
        j, ru, rm, rd = _scan_chunk(table, j, p, chunk, ru, rm, rd, out)
        yield from out
