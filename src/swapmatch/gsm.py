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
ints take one translate per pattern symbol, one bit per text position,
when the pattern has at most two symbols. Otherwise they take one
translate per four symbols, one-hot in hex nibbles, and the block's
window starts are cut into up to four quarters, one per bit of each
nibble, so that each column's shifts and ANDs run over every bit of the
lanes. A block still alive after a few columns is re-based: its tail,
which no live signal can reach, is cut off, and the occurrence ints are
built afresh over what is left. A swap exchanges two unequal symbols, so
the scan keeps no pending-swap signal at a column whose symbol equals
the next one: there it is a subset of the unswapped signal and feeds
nothing that signal does not.
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
# reach is cut off and the occurrence ints built afresh. On 2 Mbase random
# ACGT with 5 planted swapped copies per pattern (in process, min of 5 runs
# in each of 5 rounds), gsm_search time at p = 64 and 512 is flat from 16
# to 48; at 12 they take 7-12% longer and at 8 60-80% longer (live random
# blocks pay for the re-base), and without a re-base p = 512 takes 27%
# longer while p = 64 does not change.
REBASE_COLUMN = 16

# symbols before a window that a searcher run by ``gsm_scans`` may read:
# SMALGO-II's checkup and checkdown read two back
LEAD = 2


@functools.lru_cache(maxsize=4)
def _lane_masks(lanes: int) -> tuple:
    """Bit 0 of each of ``lanes`` hex lanes, and the same moved up 1 to 6
    bits: bit s of each lane, or for s >= 4 bit s - 4 of the lane above."""
    bit0 = int.from_bytes(b"\x11" * ((lanes + 1) // 2), "big")
    return tuple(bit0 << s for s in range(7))


class _ZeroMap(dict):
    """str.translate table: its own symbols to digits, every other to "0"."""

    def __missing__(self, key):
        self[key] = "0"
        return "0"


class _Occurrences(dict):
    """Occurrence ints of one block, built on first use.

    The block is read in quarters: quarter q is the n symbols from
    ``starts[q]`` (fewer where the block ends), and its position j is lane
    n-1-j. For symbol index k, bit q of that lane (bit w*(n-1-j) + q) is
    set when quarter q holds symbol k there. With w = 1 a block is one
    quarter, and one translate per symbol gives the int. With w = 4 one
    translate per quarter and four symbols, padded with "0" to n digits,
    and one ``a2b_hex`` give that quarter's four symbols one-hot in its
    nibbles (see ``_mask_triples``); each quarter's int is kept moved up q
    bits, and symbol 4g + r's int gathers bit q + r of each
    (``masks[q + r]``) and moves it down r bits, so bit r of quarter q
    lands in bit q. A re-base builds new ones from the first n - s
    symbols of each quarter.
    """

    def __init__(self, block, tables, w, masks, starts, n):
        self.block, self.tables, self.w, self.masks = block, tables, w, masks
        self.starts, self.n = starts, n
        self.groups = {}

    def _quarters(self, table):
        block, n = self.block, self.n
        zero = b"0" if isinstance(block, bytes) else "0"
        moved = []
        for q, s in enumerate(self.starts):
            digits = block[s:s + n].translate(table).ljust(n, zero)
            # a2b_hex reads whole bytes: an odd n takes a leading "0"
            moved.append(int.from_bytes(a2b_hex(digits.zfill(n + n % 2)), "big") << q)
        return moved

    def __missing__(self, k):
        if self.w == 1:
            value = int(self.block[:self.n].translate(self.tables[k]), 2)
        else:
            g, r = divmod(k, 4)
            if g not in self.groups:
                self.groups[g] = self._quarters(self.tables[g])
            value = 0
            for q, moved in enumerate(self.groups[g]):
                value |= moved & self.masks[q + r]
            value >>= r
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

    An occurrence int holds one lane of w bits per quarter position. With
    at most two pattern symbols w = 1, a block is one quarter, and
    ``block.translate(tables[k])`` is a "0"/"1" string, "1" where the
    block holds symbol k. Otherwise w = 4 and ``tables[g]`` turns symbol
    4g + r into the hex digit ``"1248"[r]``: one translate and one
    ``a2b_hex`` per quarter give an int with four symbols' occurrences
    one-hot in its nibbles, and ``_Occurrences`` gathers each symbol's
    bits of up to four quarters into the four bits of its lanes. Any
    other symbol becomes "0" and matches nothing. Returns
    ``(plan, tables, w)``.
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
    or hex (w = 4) with at most its bit 0 set; ``a`` has n = ceil(bit_length
    / w) of them, its top lane set. A quarter where every window matches (a
    periodic text) has all n set, and its piece is ``range(first, first +
    n)``, built with no per-lane work. The test, ``bit_count() == n``, is
    exact: n lanes from the top set lane down to lane 0 are all set only
    when their positions are consecutive, and a set lane holds exactly one
    set bit. Otherwise the piece is a list. Sparse lanes are found one
    ``str.find`` call each; dense ones by one C pass of ``compress`` over
    all digits, which is cheaper once at least one lane in 8 is set: over
    a quarter of 2^13 hex lanes or a block of 2^15 bit lanes a ``find``
    call costs about 140-260 ns per set lane and ``compress`` 20-33 ns per
    lane, set or not (CPython 3.11, two runs at densities 1/2 to 1/32), so
    they cross between one set lane in 6 and one in 12.
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
    that fit in it, one ascending piece per quarter with a match (a list,
    or a range when every window of the quarter matches, see
    ``_extend_positions``); ``j`` is the number of text symbols before the
    chunk.

    The recurrence runs transposed: bit-parallel over the text positions
    of a block, one pattern column at a time. Block b holds the m <=
    ``BLOCK`` windows that start in ``chunk[b*BLOCK : b*BLOCK + BLOCK]``
    and fit in the chunk. Its window starts are cut into quarters of qs =
    ceil(m / Q) (Q from ``_quarter_count``; 1 with 1-bit lanes), and
    quarter q reads the n = qs + p - 1 symbols from its first window start
    to its last window's end, so every window is found whole in the
    quarter where it starts, and no signal crosses a quarter edge. Lane
    n-1-k of an int (w bits from bit w*(n-1-k)) stands for position k of
    every quarter, quarter q in its bit q, so the first symbol is the top
    lane and a translated quarter reads as it is. With ``O[x]`` the
    occurrence int of symbol x and ``S`` the shift to the next position
    (one lane down, in every quarter at once), column i takes

        A_i = S(A_{i-1}) & O[pat[i]] | S(B_{i-1}) & O[pat[i-1]]
        B_i = S(A_{i-1}) & O[pat[i+1]]

    where A is the ru|rm signal and B the rd signal (A_0 = O[pat[0]],
    B_0 = O[pat[1]]), and B_i is 0 where pat[i] == pat[i+1] (see
    ``_mask_triples``); each set bit of A_{p-1} is a match ending at its
    lane's position in its quarter. A block costs one C pass of
    ``translate`` per pattern symbol (w = 1) or per quarter and four
    symbols (w = 4, see ``_Occurrences``), plus a few big-int operations
    per column over the lanes up to the top live one; packing the
    quarters into the bits of each lane makes those lanes a quarter as
    many. A block stops early once A_i and B_i are 0; on random text that
    is after a handful of columns whatever p is. A block still alive at
    ``REBASE_COLUMN`` is re-based: signals move one lane down per column,
    so the last s lanes, more than p - i below the lowest live one of any
    quarter, cannot reach a match (nor can a window that starts past its
    quarter's last window start, which is dropped there first). They are
    cut off and the occurrence ints built afresh over the first n - s
    symbols of each quarter: lane n-1-k-s of the old ints is lane n-s-1-k
    of the new ones, so they line up with ``a`` and ``b`` shifted down s
    lanes, and a column then costs the live span, not the whole block.
    Positions are taken quarter by quarter, bit q of each lane for
    quarter q.
    ``gsm_step`` is the literal 13-op per-symbol reference.
    """
    plan, tables, w = table
    quarters = 1 if w == 1 else _quarter_count(p)
    # a quarter has at most ceil(BLOCK / quarters) + p - 1 lanes
    masks = _lane_masks(-(-BLOCK // quarters) + p - 1) if w == 4 else None
    cur0, _, nxt0 = plan[0]
    windows = len(chunk) - p + 1
    for start in range(0, windows, BLOCK):
        m = min(BLOCK, windows - start)
        qs = -(-m // quarters)
        starts = range(0, m, qs)
        n = qs + p - 1
        block = chunk[start:start + BLOCK + p - 1]
        occ = _Occurrences(block, tables, w, masks, starts, n)
        a = occ[cur0]
        b = 0 if nxt0 is None else occ[nxt0]
        for i in range(1, p):
            if not (a or b):
                break  # a is 0: no match in this block
            if i == REBASE_COLUMN:
                # a window that starts past its quarter's last window start
                # runs out of the quarter's symbols before column p - 1; by
                # now it sits below lane p - 1 - i, where it would keep the
                # cut small, so it is dropped
                keep = -1 << w * (p - 1 - i)
                a, b = a & keep, b & keep
                # the lowest live lane lo ends at lo - (p - i) by column
                # p - 1; the last s lanes lie below that and are cut off
                ab = a | b
                s = max(0, ((ab & -ab).bit_length() - 1) // w - (p - i))
                if s:
                    a, b = a >> w * s, b >> w * s
                    n -= s
                    occ = _Occurrences(block, tables, w, masks, starts, n)
            cur, prev, nxt = plan[i]
            sa = a >> w
            sb = b >> w
            a = sa & occ[cur]
            if sb:
                a |= sb & occ[prev]
            b = sa & occ[nxt] if sa and nxt is not None else 0
        if a:
            for q, s in enumerate(starts):
                x = (a >> q) & masks[0] if quarters > 1 else a
                if x:
                    first = j + start + s + n + 2 - p - (x.bit_length() + w - 1) // w
                    _extend_positions(out, x, first, w)


def _quarter_count(p: int) -> int:
    """Quarters of a block with hex lanes: 4, or fewer once the p - 1
    symbols that each quarter reads past its last window start outweigh
    its BLOCK / Q window starts."""
    return max(1, min(4, BLOCK // p))


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
