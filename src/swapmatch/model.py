"""Graph model of swapped patterns and the reference matcher that runs on it.

A pattern P of length p induces a 3-row labeled DAG: row 0 column c carries
P_c, row -1 column c carries P_{c-1} (the symbol swapped up into c), and
row +1 column c carries P_{c+1} (the symbol swapped down into c). The two
corner vertices that would read outside the pattern are removed. Every
column-1 to column-p path spells a swapped version of P, and vice versa.
``build_pgraph`` stores the graph as three tables (labels, columns and
successors), the one rule for which vertices and edges exist. BMA and the
SMALGO masks read the last pattern's graph from one cached build.

The Basic Matching Algorithm (BMA) decides a swap match at one text
position by sweeping a set of live vertices across the columns:
filter by the current text symbol, check acceptance at column p,
propagate along the edges. The sweep reads the graph's tables through
two indexes built from them once per search: the set of vertices of each
(column, symbol) pair, grouped from ``labels``, and a memo that maps each
live set met to the union of its vertices' ``successors``. So a column
costs one set intersection and one lookup. It is O(t*p) reference
machinery, not a production matcher.
"""

from __future__ import annotations

import functools

from .report import MatchReport, _Record, check_search_inputs

Vertex = tuple[int, int]  # (row, column), row in {-1, 0, +1}, column 1-based

# The prefix-match signal of a BMA run: the set of vertices currently
# marked 1 (the characteristic-set form of a vertex -> {0,1} labeling).
SignalState = frozenset[Vertex]

_ROWS = (-1, 0, 1)


class PGraph(_Record):
    """The 3 x p swap graph of a pattern, as three tables.

    ``labels`` maps each vertex to its symbol, column by column, rows -1,
    0, +1 within a column. ``columns[c]`` holds the vertices of column c;
    index 0 and p + 1 stay empty. ``successors`` maps each vertex to the
    heads of its edges: rows -1 and 0 feed rows 0 and +1 of the next
    column, row +1 feeds row -1.
    """

    pattern: str | bytes
    labels: dict[Vertex, object]
    columns: tuple[tuple[Vertex, ...], ...]
    successors: dict[Vertex, tuple[Vertex, ...]]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.successors.values()))


def build_pgraph(pattern: str | bytes) -> PGraph:
    """Swap graph of the pattern; rejects empty patterns."""
    p = len(pattern)
    if p == 0:
        raise ValueError("pattern must be non-empty")
    # vertex (r, c) reads pattern position r + c; the corners (-1, 1)
    # and (1, p) would read positions 0 and p + 1 and are left out
    labels = {
        (r, c): pattern[r + c - 1]
        for c in range(1, p + 1)
        for r in _ROWS
        if 1 <= r + c <= p
    }
    columns: list[list[Vertex]] = [[] for _ in range(p + 2)]
    for v in labels:
        columns[v[1]].append(v)
    successors = {
        (r, c): tuple(w for w in columns[c + 1] if (w[0] == -1) == (r == 1))
        for r, c in labels
    }
    return PGraph(pattern, labels, tuple(map(tuple, columns)), successors)


@functools.lru_cache(maxsize=1)
def _pgraph(pattern: str | bytes) -> PGraph:
    """The last pattern's graph (``'ab'`` and ``b'ab'`` differ); shared, so read-only."""
    return build_pgraph(pattern)


def _sweep(graph: PGraph):
    """The BMA sweep over one graph, as a function of (text, k).

    ``symbol_sets[c][x]`` is the set of column-c vertices labeled x, read
    from ``graph.labels``. ``unions`` maps a live set to the union of
    ``graph.successors`` over its vertices; it fills as live sets are met,
    and is shared by every position swept with this function. The live
    set is a frozenset (``frozenset & set`` stays one), so it can key
    ``unions``.
    """
    p = len(graph.pattern)
    symbol_sets: list[dict[object, set[Vertex]]] = [{} for _ in graph.columns]
    for v, x in graph.labels.items():
        symbol_sets[v[1]].setdefault(x, set()).add(v)
    successors = graph.successors
    unions: dict[SignalState, SignalState] = {}
    start: SignalState = frozenset(graph.columns[1])
    empty: SignalState = frozenset()

    def accepts(text: str | bytes, k: int) -> bool:
        signal = start
        for c in range(1, p):
            signal &= symbol_sets[c].get(text[k + c - 2], empty)
            if not signal:
                return False
            live = unions.get(signal)
            if live is None:
                live = unions[signal] = frozenset(w for v in signal for w in successors[v])
            signal = live
        # the live set lies in column p, so a vertex survives the last
        # filter exactly when a column-p vertex holds a signal
        return not signal.isdisjoint(symbol_sets[p].get(text[k + p - 2], empty))

    return accepts


def bma_at(graph: PGraph, text: str | bytes, k: int) -> bool:
    """Does the pattern swap-match the text at 1-based position k?

    Runs the signal sweep: per column, intersect the live set with the
    column's vertices labeled by the text symbol, stop when no signal
    survives, accept when a column-p vertex holds a signal, and otherwise
    move to the union of the live vertices' successors. Builds the
    sweep's indexes for this one position; ``bma_search`` builds them
    once for all positions. The graph's pattern and the text meet the
    searchers' input contract.
    """
    check_search_inputs(graph.pattern, text)
    p = len(graph.pattern)
    t = len(text)
    if not 1 <= k <= t - p + 1:
        raise ValueError(f"position {k} outside 1..{t - p + 1}")
    return _sweep(graph)(text, k)


def bma_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """All swap-match positions, by running the sweep at every offset."""
    check_search_inputs(pattern, text)
    p, t = len(pattern), len(text)
    if p > t:
        return MatchReport("bma", (), p, t)
    accepts = _sweep(_pgraph(pattern))
    positions = tuple(k for k in range(1, t - p + 2) if accepts(text, k))
    return MatchReport("bma", positions, p, t)
