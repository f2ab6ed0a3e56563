"""The SMALGO matchers, reimplemented faithfully, flaws included.

SMALGO-I filters a Shift-And run with degenerate symbol masks plus
triplet path masks over the pattern graph; SMALGO-II replaces the
triplets with up/down/middle masks of where each labeled edge lands,
and filters columns by the union of those three. Both rest
on the assumption that consecutive locally-feasible triplets (or pairs)
share vertices, which is false, so both report false positives (for
example pattern ``abab`` over text ``aaba``). This module reproduces that behavior
bit-exactly on purpose; :func:`compare_with_oracle` hunts such instances
against the brute-force oracle, running the oracle once per pair for
every algorithm it checks, and :func:`find_discrepancies` is its
one-algorithm form. Both collect what one loop, ``_pair_discrepancies``,
yields pair by pair; ``verify`` writes its records out as they come.

Both searches read one set of six int tables, :class:`SmalgoMasks`, with
pattern column c at bit c - 1. :func:`smalgo_precompute` reads them off
the pattern graph of :mod:`swapmatch.model` in one pass: each mask is a
per-column view of the graph's labeled paths, and the graph is the one
BMA sweeps. The engines take their tables from a one-entry cache keyed
on the pattern, as the graph is, so a pattern's graph and masks are built
once while it repeats: once per pair for BMA, both engines and every
re-check on that pair, and once per pattern in exhaustive mode.

SMALGO-II here follows the repaired form of the original pseudocode
(initialization and indexing fixed); the repairs do not remove the
false positives.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

from .bitvec import BitVector
from .gsm import gsm_search
from .model import _pgraph, bma_search
from .oracle import oracle_match_at, oracle_search
from .report import MatchReport, _Record, check_search_inputs

Pair = tuple[object, object]
Triple = tuple[object, object, object]


class SmalgoMasks(_Record):
    """Every SMALGO mask as an int; column c of the pattern graph sits at bit c - 1.

    ``dtilde[x]`` marks columns whose degenerate symbol set contains x
    (supersets of the plain masks). ``pmask3[(x1,x2,x3)]`` marks columns
    that sit mid-path on a labeled triplet; column 1 is set in every
    entry, and a triple with no entry reads as 1. The pair masks drive
    SMALGO-II: ``up``/``down``/``middle`` mark the columns where an edge
    labeled (x, y) lands on row -1 / +1 / 0. An edge enters column c
    exactly when it lands on one of those rows there, so SMALGO-II's
    column filter for the pair is their union plus column 1.

    Both searches and ``flaw-demo`` read these ints; :meth:`pmask3_for`
    returns one triplet mask as a ``BitVector``, the form in which the
    tests state the paper's table.
    """

    p: int
    dtilde: dict[object, int]
    pmask3: dict[Triple, int]
    up: dict[Pair, int]
    down: dict[Pair, int]
    middle: dict[Pair, int]

    def pmask3_for(self, triple: Triple) -> BitVector:
        return BitVector(self.p, self.pmask3.get(triple, 1))


def smalgo_precompute(pattern: str | bytes) -> SmalgoMasks:
    """Every SMALGO mask, read off the (cached) pattern graph; needs p >= 2.

    A column's labels set its bit in ``dtilde``. Each edge into column c
    sets bit c - 1 in the landing row of its label pair and, with each
    successor of its head, in ``pmask3``.
    """
    p = len(pattern)
    if p < 2:
        raise ValueError("SMALGO masks need a pattern of length >= 2")
    graph = _pgraph(pattern)
    labels, successors = graph.labels, graph.successors
    dtilde: dict = {}
    pmask3: dict = {}
    rows: dict[int, dict] = {-1: {}, 0: {}, 1: {}}  # up, middle, down
    for (_, c), x in labels.items():
        dtilde[x] = dtilde.get(x, 0) | 1 << (c - 1)
    for u, heads in successors.items():
        x = labels[u]
        for v in heads:
            y = labels[v]
            bit = 1 << (v[1] - 1)
            pair = (x, y)
            lands = rows[v[0]]
            lands[pair] = lands.get(pair, 0) | bit
            for w in successors[v]:
                triple = (x, y, labels[w])
                pmask3[triple] = pmask3.get(triple, 1) | bit
    return SmalgoMasks(
        p=p,
        dtilde=dtilde,
        pmask3=pmask3,
        up=rows[-1],
        down=rows[1],
        middle=rows[0],
    )


@functools.lru_cache(maxsize=1)
def _pattern_masks(pattern: str | bytes) -> SmalgoMasks:
    """The last pattern's masks, built through the module's ``smalgo_precompute``."""
    return smalgo_precompute(pattern)


def _single_symbol_search(algorithm: str, pattern, text) -> MatchReport:
    # Swap matching a length-1 pattern degenerates to plain Shift-And,
    # i.e. exact matching of the single symbol.
    sym = pattern[0]
    positions = tuple(i + 1 for i, c in enumerate(text) if c == sym)
    return MatchReport(algorithm, positions, 1, len(text))


class Smalgo1Step(_Record):
    """One full SMALGO-I iteration, as displayed in a mask-table trace."""

    j: int  # 1-based index of the text symbol whose vector is produced
    lso_r: BitVector
    dtilde_cur: BitVector
    rshift_dtilde_next: BitVector
    pmask: BitVector
    pmask_key: Triple
    r_next: BitVector


def _smalgo1(pattern, text, steps: list[Smalgo1Step] | None = None):
    """Shared SMALGO-I engine: R^1 as an int and the report.

    Optionally records every full iteration's vectors in ``steps``.
    """
    p, t = len(pattern), len(text)
    masks = _pattern_masks(pattern)
    dt, pm3 = masks.dtilde, masks.pmask3
    check = 1 << (p - 2)
    positions: list[int] = []

    # A set check bit at R^j claims p-1 matched symbols ending at j plus
    # the lookahead, i.e. a window starting at j-p+2. Only j <= t-1 has a
    # lookahead symbol, so the rounds stop at R^{t-1}.
    r = r1 = 1 & dt.get(text[0], 0) if t else 0
    if r & check and p - 1 <= 1 <= t - 1:
        positions.append(3 - p)
    for j0 in range(1, t - 1):
        cur, nxt = text[j0], text[j0 + 1]
        key = (text[j0 - 1], cur, nxt)
        lso = (r << 1) | 1
        dcur = dt.get(cur, 0)
        dnext_shifted = dt.get(nxt, 0) >> 1
        pmask = pm3.get(key, 1)
        r = lso & dcur & dnext_shifted & pmask
        if steps is not None:
            steps.append(
                Smalgo1Step(
                    j=j0 + 1,
                    lso_r=BitVector(p, lso),
                    dtilde_cur=BitVector(p, dcur),
                    rshift_dtilde_next=BitVector(p, dnext_shifted),
                    pmask=BitVector(p, pmask),
                    pmask_key=key,
                    r_next=BitVector(p, r),
                )
            )
        if r & check and j0 + 1 >= p - 1:
            positions.append(j0 - p + 3)
    return r1, MatchReport("smalgo1", tuple(positions), p, t)


def smalgo1_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """SMALGO-I positions, false positives and all."""
    check_search_inputs(pattern, text)
    if len(pattern) == 1:
        return _single_symbol_search("smalgo1", pattern, text)
    if len(text) < len(pattern):
        return MatchReport("smalgo1", (), len(pattern), len(text))
    return _smalgo1(pattern, text)[1]


def smalgo1_trace(pattern: str | bytes, text: str | bytes):
    """Run SMALGO-I and capture R^1 plus every full iteration's vectors."""
    if len(pattern) < 2:
        raise ValueError("trace needs a pattern of length >= 2")
    check_search_inputs(pattern, text)
    steps: list[Smalgo1Step] = []
    r1, report = _smalgo1(pattern, text, steps)
    return BitVector(len(pattern), r1), steps, report


def smalgo2_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """Corrected SMALGO-II positions (the false positives survive).

    Each text pair (x, y) keeps the columns an edge labeled (x, y)
    enters, plus column 1: an edge enters column c exactly when it lands
    on row -1, 0 or +1 there, so the filter is ``u | dn | mi | 1``.
    """
    check_search_inputs(pattern, text)
    p, t = len(pattern), len(text)
    if p == 1:
        return _single_symbol_search("smalgo2", pattern, text)
    if t < p:
        return MatchReport("smalgo2", (), p, t)

    masks = _pattern_masks(pattern)
    dt = masks.dtilde
    up, down, middle = masks.up, masks.down, masks.middle

    last = 1 << (p - 1)
    positions: list[int] = []

    # A bit shifted past column p is cleared by the next column filter.
    r = (1 & dt.get(text[0], 0)) << 1
    checkup = checkdown = 0
    for j in range(t - 1):
        pair = (text[j], text[j + 1])
        d = dt.get(text[j + 1], 0)
        u = up.get(pair, 0)
        dn = down.get(pair, 0)
        mi = middle.get(pair, 0)

        r &= (u | dn | mi | 1) & d
        r &= ~checkup | dn | mi
        checkup = (u & ~dn & ~mi) << 1
        r &= ~checkdown | u
        checkdown = (dn & ~u) << 1
        if r & last:
            # match ends at text index j+1 (0-based): start = j - p + 3 1-based
            positions.append(j - p + 3)
        r = (r << 1) | 1
    return MatchReport("smalgo2", tuple(positions), p, t)


# -- discrepancy hunting -------------------------------------------------------

SEARCHERS = {
    "gsm": gsm_search,
    "bma": bma_search,
    "oracle": oracle_search,
    "smalgo1": smalgo1_search,
    "smalgo2": smalgo2_search,
}


@functools.lru_cache(maxsize=1)
def _reported_positions(search, pattern, text) -> frozenset:
    """The positions one search function reports on one pair.

    Keyed on the function, not on a name, so an engine replaced in
    ``SEARCHERS`` is searched afresh. One entry is enough:
    :func:`_pair_discrepancies` builds all records of an algorithm on a
    pair one after another, so each such pair is searched once more, not
    once per record.
    """
    return frozenset(search(pattern, text).positions)


class Discrepancy(_Record):
    """A position where an algorithm and the oracle disagree; re-verified on construction."""

    algorithm: str
    pattern: str | bytes
    text: str | bytes
    position: int
    kind: str  # "false-positive" | "false-negative"

    def __post_init__(self) -> None:
        if self.kind not in ("false-positive", "false-negative"):
            raise ValueError(f"unknown kind {self.kind!r}")
        search = SEARCHERS.get(self.algorithm)
        if search is None:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        reported = self.position in _reported_positions(search, self.pattern, self.text)
        # raises ValueError for a position outside the text, which no
        # genuine record can hold
        truth = oracle_match_at(self.pattern, self.text, self.position)
        expected = self.kind == "false-positive"
        if (reported, truth) != (expected, not expected):
            raise ValueError(
                f"not a genuine {self.kind}: {self.algorithm} on "
                f"({self.pattern!r}, {self.text!r}) at {self.position}"
            )


class ScanResult(_Record):
    discrepancies: tuple[Discrepancy, ...]
    pairs_scanned: int


def _pair_discrepancies(
    pairs: Iterable[tuple[str | bytes, str | bytes]],
    algorithms: Iterable[str],
) -> Iterator[list[Discrepancy]]:
    """The one comparison loop: for each pair, the discrepancies found on it.

    The oracle runs once per pair and each algorithm is compared with that
    one result, so the pairs are consumed in a single pass and may come
    from a lazy generator. One list is yielded per pair, in input order,
    and is empty where every algorithm agrees with the oracle. It holds
    the records of each algorithm in the order given; within one
    algorithm the false positives come first, by ascending position,
    then the false negatives, by ascending position. Nothing is kept from
    one pair to the next, so a caller that does not keep the records
    scans in bounded memory.
    """
    names = list(dict.fromkeys(algorithms))
    for name in names:
        if name not in SEARCHERS or name == "oracle":
            raise ValueError(f"cannot scan algorithm {name!r}")
    runs = [(name, SEARCHERS[name]) for name in names]
    for pattern, text in pairs:
        found: list[Discrepancy] = []
        want = oracle_search(pattern, text).positions
        for algorithm, search in runs:
            got = search(pattern, text).positions
            if got == want:
                continue
            want_set = frozenset(want)
            got_set = frozenset(got)
            for k in got:
                if k not in want_set:
                    found.append(
                        Discrepancy(algorithm, pattern, text, k, "false-positive")
                    )
            for k in want:
                if k not in got_set:
                    found.append(
                        Discrepancy(algorithm, pattern, text, k, "false-negative")
                    )
        yield found


def compare_with_oracle(
    pairs: Iterable[tuple[str | bytes, str | bytes]],
    algorithms: Iterable[str],
) -> dict[str, ScanResult]:
    """Check every algorithm against the oracle on each (pattern, text) pair.

    Collects what ``_pair_discrepancies`` finds: every algorithm has one
    result, keyed by its name, whose discrepancies keep input order and,
    within a pair, that loop's order.
    """
    names = list(dict.fromkeys(algorithms))
    kept: dict[str, list[Discrepancy]] = {name: [] for name in names}
    scanned = 0
    for found in _pair_discrepancies(pairs, names):
        scanned += 1
        for d in found:
            kept[d.algorithm].append(d)
    return {name: ScanResult(tuple(kept[name]), scanned) for name in names}


def find_discrepancies(
    patterns: Iterable[str | bytes],
    texts: Sequence[str | bytes] | Iterable[str | bytes],
    algorithm: str,
) -> ScanResult:
    """Scan pattern x text for positions where ``algorithm`` contradicts the oracle.

    ``texts`` is materialized once and replayed per pattern. Output order
    is that of ``compare_with_oracle``: input order, then within a pair
    the false positives ascending and then the false negatives ascending.
    """
    text_list = list(texts)
    pairs = ((pattern, text) for pattern in patterns for text in text_list)
    return compare_with_oracle(pairs, [algorithm])[algorithm]


def exhaustive_strings(alphabet: str, min_len: int, max_len: int) -> Iterator[str]:
    """Every string over the alphabet with length in [min_len, max_len]."""
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def _text_field(value: str | bytes) -> str:
    return value.decode("latin-1") if isinstance(value, bytes) else value


def format_discrepancies(items: Iterable[Discrepancy]) -> str:
    """Line-oriented fixture: algo<TAB>pattern<TAB>text<TAB>position<TAB>kind."""
    return "".join(
        f"{d.algorithm}\t{_text_field(d.pattern)}\t{_text_field(d.text)}"
        f"\t{d.position}\t{d.kind}\n"
        for d in items
    )

