"""GSM: bit-parallel swap matching over the pattern graph.

The matcher keeps one prefix-match bit vector per graph row: ``ru`` for
signals that arrived by an upward swap (row -1), ``rm`` for unswapped
positions (row 0) and ``rd`` for signals owing a swap to the next column
(row +1). In the paper's form each text symbol costs one propagate-then-
filter round of 13 bitwise vector operations, so the whole search is
linear in the text for patterns up to the word size and degrades only by
the word count beyond.

``gsm_step`` is the literal per-symbol round over :class:`BitVector`
values, kept as the reference. ``gsm_scans``, the one scan loop behind
``gsm_search``, ``gsm_search_stream`` and ``search --algo gsm``, runs
the same recurrence transposed, for speed: bit-parallel over blocks of
text positions, one pattern column at a time, so Python pays per column
and per block instead of per symbol. Each block reads p - 1 symbols past
its end and reports the windows that start in it, so every window is
found whole in one block and no signal crosses a block edge; a scan
likewise keeps only the last p - 1 symbols it read for the next one. A
block stops as soon as every window in it has died. A block's occurrence
ints take one translate per pattern symbol, or per four symbols packed
in hex nibbles when the pattern has more than two. A block still alive
after a few columns is re-based: its tail, which no live signal can
reach, is cut off, and the cut block's occurrence ints are built afresh.
A swap exchanges two unequal symbols, so the scan keeps no pending-swap
signal at a column whose symbol equals the next one: there it is a
subset of the unswapped signal and feeds nothing that signal does not.
``gsm_step`` and the scan are equivalence-tested against each other and
against the brute-force oracle. ``gsm_scans`` also runs any other searcher.
"""

from __future__ import annotations

import functools
from binascii import a2b_hex
from collections import deque
from itertools import chain, compress
from typing import Callable, Iterable, Iterator

from .bitvec import BitVector
from .report import MatchReport, _Record, check_search_inputs, pattern_alphabet


class GsmState(_Record):
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


def gsm_precompute(pattern: str | bytes, alphabet: Iterable | None = None) -> dict:
    """Build the symbol masks ``{x: BitVector}`` for ``gsm_step``: bit i of
    ``masks[x]`` is set iff pattern[i] == x, so they partition positions 1..p.

    The alphabet defaults to the symbols occurring in the pattern. A
    declared alphabet may widen it (absent symbols get zero masks) but
    must cover every pattern symbol.
    """
    values: dict = {x: 0 for x in pattern_alphabet(pattern, alphabet)}
    for i, x in enumerate(pattern):
        values[x] |= 1 << i
    return {x: BitVector(len(pattern), v) for x, v in values.items()}


def gsm_step(state: GsmState, masks: dict, symbol) -> GsmState:
    """One propagate-then-filter round; exactly 13 bitwise vector ops.

    A symbol without a mask (outside the alphabet) filters every signal
    out.
    """
    d = masks.get(symbol)
    if d is None:
        d = BitVector.zeros(state.p)
    ru_prop = state.rd.lso()
    rm_prop = (state.rm | state.ru).lso()
    rd_prop = (state.rm | state.ru).lso()
    return GsmState(
        ru=ru_prop & d.lshift1(),
        rm=rm_prop & d,
        rd=rd_prop & d.rshift1(),
    )


def gsm_accepts(state: GsmState) -> bool:
    """A signal at column p of row -1 or row 0 completes a match."""
    p = state.p
    return p >= 1 and bool(state.ru.get_bit(p) or state.rm.get_bit(p))


# -- fast engine: the recurrence column by column over text blocks -------------

# text symbols per block; one block is one big int per live signal
BLOCK = 1 << 15

# column at which a live block is re-based: its tail that no signal can
# reach is cut off and the cut block's ints built afresh. On 2 Mbase random
# ACGT with planted swapped copies gsm_search time is flat from 12 to 48; at
# 8, p = 64 takes 40% longer and p = 512 twice as long (live random blocks
# pay for the re-base), and without a re-base p = 512 takes 70-100% longer.
REBASE_COLUMN = 16

# symbols before a window that a searcher run by ``gsm_scans`` may read:
# SMALGO-II's checkup and checkdown read two back
LEAD = 2

# bit 0 of each nibble of a block's hex lanes. A block holds BLOCK + p - 1
# symbols, so a mask of two blocks' lanes serves every p <= BLOCK + 1;
# ``&`` costs only the shorter operand, so its width costs nothing.
_LANES = int.from_bytes(b"\x11" * BLOCK, "big")


class _ZeroMap(dict):
    """str.translate table: its own symbols to digits, every other to "0"."""

    def __missing__(self, key):
        self[key] = "0"
        return "0"


class _Occurrences(dict):
    """Occurrence ints of one block, built on first use: for symbol index k,
    lane n-1-j (bit w*(n-1-j)) is set when block position j holds that
    symbol. A re-base cuts the block and builds new ones for the cut block."""

    def __init__(self, block, tables, w, lanes):
        self.block, self.tables, self.w, self.lanes = block, tables, w, lanes
        self.groups = {}

    def __missing__(self, k):
        if self.w == 1:
            value = int(self.block.translate(self.tables[k]), 2)
        else:
            g, r = divmod(k, 4)
            if g not in self.groups:
                hexits = self.block.translate(self.tables[g])
                hexits = hexits.zfill(len(hexits) + len(hexits) % 2)
                self.groups[g] = int.from_bytes(a2b_hex(hexits), "big")
            group = self.groups[g]
            value = (group >> r if r else group) & self.lanes
        self[k] = value
        return value


def _mask_triples(pattern: str | bytes):
    """Per-column plan and translate tables for the block scan.

    The pattern's symbols are numbered in order of first occurrence.
    Column i of the plan is ``(pat[i], pat[i-1], pat[i+1])`` as those
    numbers (``None`` past either end): the transposed form of the
    per-symbol filters ``(d, d<<1, d>>1)`` of ``gsm_step``. The third is
    also ``None`` where pat[i] == pat[i+1], since a swap exchanges only
    unequal symbols. There the pending-swap signal B_i = S(A_{i-1}) &
    O[pat[i+1]] (see ``_scan_chunk``) is a subset of A_i, and what it
    feeds, S(B_i) & O[pat[i]] in A_{i+1}, A_i feeds already; so B_i is
    left 0, which saves a shift, two ANDs and an OR.

    An occurrence int holds one lane of w bits per block position. With
    at most two pattern symbols w = 1 and ``block.translate(tables[k])``
    is a "0"/"1" string, "1" where the block holds symbol k. Otherwise
    w = 4 and ``tables[g]`` turns symbol 4g + r into the hex digit
    ``"1248"[r]``: one translate and one ``a2b_hex`` give an int with four
    occurrence ints packed one-hot in its nibbles, each taken out by
    ``(x >> r) & lanes``, with bit 0 of each nibble set in ``lanes`` (see
    ``_LANES``). Any other symbol becomes "0" and matches nothing.
    Returns ``(plan, tables, w)``.
    """
    symbols = list(dict.fromkeys(pattern))
    index = {x: k for k, x in enumerate(symbols)}
    cols = [index[x] for x in pattern]
    p = len(cols)
    plan = tuple(
        (
            cols[i],
            cols[i - 1] if i else None,
            cols[i + 1] if i + 1 < p and cols[i + 1] != cols[i] else None,
        )
        for i in range(p)
    )
    w = 1 if len(symbols) <= 2 else 4
    groups = range(0, len(symbols), w)
    if isinstance(pattern, bytes):
        tables = [bytearray(b"0" * 256) for _ in groups]
        for k, x in enumerate(symbols):
            tables[k // w][x] = b"1248"[k % w]
    else:
        tables = [_ZeroMap(zip(map(ord, symbols[k:k + w]), "1248")) for k in groups]
    return plan, tables, w


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _extend_positions(out: list, a: int, first: int, w: int) -> None:
    """Append to ``out`` the positions of ``a``'s set lanes as one piece:
    ``first + k`` for the lane k lanes below its top lane.

    Lanes are w bits wide, and each is one digit of ``a`` in binary (w = 1)
    or hex (w = 4); ``a`` has n = ceil(bit_length / w) of them, its top
    lane set. A block where every window matches (a periodic text) has
    all n set, and its piece is ``range(first, first + n)``, built with
    no per-lane work. The test, ``bit_count() == n``, is exact: n lanes
    from the top set lane down to lane 0 are all set only when their
    positions are consecutive, and a set lane holds exactly one set bit.
    Otherwise the piece is a list. Sparse lanes are found one
    ``str.find`` call each; dense ones by one C pass of ``compress`` over
    all digits, which is cheaper once at least one lane in 8 is set: over
    a block of 2^15 lanes a ``find`` call costs about 170-300 ns per set
    lane and ``compress`` 25-35 ns per lane, set or not (CPython 3.11), so
    they cross between one set lane in 6 and one in 10.
    """
    n = (a.bit_length() + w - 1) // w
    count = a.bit_count()
    if count == n:
        out.append(range(first, first + n))
        return
    bits = format(a, "b" if w == 1 else "x")
    if count * 8 < n:
        find = bits.find
        piece = []
        k = find("1")
        while k >= 0:
            piece.append(first + k)
            k = find("1", k + 1)
    else:
        piece = list(compress(range(first, first + n), bits.encode().translate(_BIT_BYTES)))
    out.append(piece)


def _scan_chunk(table, j, p, chunk, out):
    """Append to ``out`` the 1-based positions of the windows of ``chunk``
    that fit in it, one ascending piece per block with a match (a list, or
    a range when every window of the block matches, see
    ``_extend_positions``); ``j`` is the number of text symbols before the
    chunk.

    The recurrence runs transposed: bit-parallel over the text positions
    of a block, one pattern column at a time. Block b holds
    ``chunk[b*BLOCK : b*BLOCK + BLOCK + p - 1]``, so each window that
    starts in its first ``BLOCK`` positions lies whole in it; every window
    is found in the block where it starts, and no signal crosses a block
    edge. In a block of n symbols, lane n-1-k of an int (w bits from bit
    w*(n-1-k)) stands for block position k, so the first symbol is the
    top lane and a translated block reads as it is. With ``O[x]`` the
    occurrence int of symbol x and ``S`` the shift to the next position
    (one lane down), column i takes

        A_i = S(A_{i-1}) & O[pat[i]] | S(B_{i-1}) & O[pat[i-1]]
        B_i = S(A_{i-1}) & O[pat[i+1]]

    where A is the ru|rm signal and B the rd signal (A_0 = O[pat[0]],
    B_0 = O[pat[1]]), and B_i is 0 where pat[i] == pat[i+1] (see
    ``_mask_triples``); each set lane of A_{p-1} is a match ending at its
    position. A block costs one C pass of ``translate`` per pattern symbol
    (w = 1) or per four of them (w = 4, see ``_mask_triples``), plus a few
    big-int operations per column over the lanes up to the top live one.
    A block stops early once A_i and B_i are 0; on random text that is
    after a handful of columns whatever p is. A block still alive at
    ``REBASE_COLUMN`` is re-based: signals move one lane down per column,
    so the last s symbols of the block, more than p - i lanes below the
    lowest live one, cannot reach a match. They are cut off and the cut
    block's occurrence ints built afresh: lane n-1-k-s of the old block is
    lane n-s-1-k of the cut one, so they line up with ``a`` and ``b``
    shifted down s lanes, and a column then costs the live span, not the
    whole block. ``gsm_step`` is the literal 13-op per-symbol reference.
    """
    plan, tables, w = table
    lanes = _LANES
    if p > BLOCK + 1:  # a block holds more lanes than _LANES covers
        lanes = int.from_bytes(b"\x11" * ((BLOCK + p) // 2), "big")
    cur0, _, nxt0 = plan[0]
    for start in range(0, len(chunk) - p + 1, BLOCK):
        block = chunk[start:start + BLOCK + p - 1]
        occ = _Occurrences(block, tables, w, lanes)
        a = occ[cur0]
        b = 0 if nxt0 is None else occ[nxt0]
        for i in range(1, p):
            if not (a or b):
                break  # a is 0: no match in this block
            if i == REBASE_COLUMN:
                # the lowest live lane lo ends at lo - (p - i) by column
                # p - 1; the last s symbols lie below that and are cut off
                ab = a | b
                s = max(0, ((ab & -ab).bit_length() - 1) // w - (p - i))
                if s:
                    a, b = a >> w * s, b >> w * s
                    block = block[:len(block) - s]
                    occ = _Occurrences(block, tables, w, lanes)
            cur, prev, nxt = plan[i]
            sa = a >> w
            sb = b >> w
            a = sa & occ[cur]
            if sb:
                a |= sb & occ[prev]
            b = sa & occ[nxt] if sa and nxt is not None else 0
        if a:
            first = j + start + len(block) + 2 - p - (a.bit_length() + w - 1) // w
            _extend_positions(out, a, first, w)


@functools.lru_cache(maxsize=1)
def _plan(pattern: str | bytes):
    """The last pattern's ``_mask_triples`` (``'ab'`` and ``b'ab'`` differ);
    built through the module global, shared, so read-only."""
    return _mask_triples(pattern)


def gsm_scans(
    pattern: str | bytes, chunks: Iterable[str | bytes], search: Callable | None = None
) -> Iterator[tuple[int, list[int] | range]]:
    """The one scan loop: yields ``(symbols read, piece)`` per piece of each scan.

    Chunks are gathered until at least ``BLOCK`` new symbols are pending,
    then scanned with the last p - 1 symbols of the scan before (p - 1 +
    ``LEAD`` when ``search``, any ``(pattern, text) -> MatchReport``, runs
    in place of GSM's block scan). So no chunk is cut, and memory stays
    bounded by one block plus that carry plus one chunk, and one scan's
    positions. A scan's positions are those whose window ends in its new
    symbols, so each window is reported once. They come in ascending
    pieces, each after the one before and every later scan's after them:
    one per block with a match of GSM's scan, as ``_scan_chunk`` makes
    them (a ``range`` for a block where every window matches, whatever
    the number of blocks in the scan), or one list from ``search``. Each
    scan yields at least one piece, empty if nothing matches, so the
    last count read is the text length.
    """
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    is_bytes = isinstance(pattern, bytes)
    table = _plan(pattern) if search is None else None
    carry = p - 1 if search is None else p - 1 + LEAD
    join = b"".join if is_bytes else "".join
    read = size = 0
    pending: list = []
    end = object()  # follows the last chunk
    for chunk in chain(chunks, [end]):
        if chunk is not end:
            if is_bytes != isinstance(chunk, bytes):
                raise TypeError("chunks must match the pattern type")
            pending.append(chunk)
            size += len(chunk)
            if size < BLOCK:
                continue
        elif not size:
            return
        text = join(pending)
        read += size
        pending = [text[max(0, len(text) - carry):]]
        pieces = _scan(pattern, table, search, text, read - len(text), len(text) - size)
        size = 0
        # each piece leaves the deque as it is yielded, so no local keeps
        # it once the caller has dropped it
        while pieces:
            yield read, pieces.popleft()


def _scan(pattern, table, search, text, j, carried) -> deque:
    """One scan of ``gsm_scans``: the pieces of positions of the windows
    of ``text`` that end past its first ``carried`` symbols, ``j`` symbols
    preceding it, in order; at least one, an empty list if none matches.

    GSM's block scan gives one piece per block with a match, as it makes
    them: a list, or a ``range`` for a block where every window matches
    (see ``_extend_positions``). ``search`` gives one list.
    """
    p = len(pattern)
    if search is None:
        out: deque = deque()
        _scan_chunk(table, j, p, text, out)
        return out or deque([[]])
    return deque([[j + k for k in search(pattern, text).positions if k + p - 1 > carried]])


def gsm_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """All 1-based positions where the pattern swap-matches the text.

    ``gsm_scans`` over the one chunk ``text``; joining one chunk
    returns it as it is, so nothing is copied.
    """
    check_search_inputs(pattern, text)
    positions = tuple(chain.from_iterable(out for _, out in gsm_scans(pattern, (text,))))
    return MatchReport("gsm", positions, len(pattern), len(text))


def gsm_search_stream(
    pattern: str | bytes, chunks: Iterable[str | bytes]
) -> Iterator[int]:
    """Stream variant: match positions for the concatenation of the chunks.

    Memory stays bounded by one block plus p - 1 symbols plus one chunk
    (see ``gsm_scans``).
    Positions are yielded once the scan holding their last symbol is
    done, at the latest when the chunks run out.
    """
    for _, out in gsm_scans(pattern, chunks):
        yield from out
