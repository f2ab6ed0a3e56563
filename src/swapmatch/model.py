"""Graph model of swapped patterns and the reference matcher that runs on it.

A pattern P of length p induces a 3-row labeled DAG: row 0 column c carries
P_c, row -1 column c carries P_{c-1} (the symbol swapped up into c), and
row +1 column c carries P_{c+1} (the symbol swapped down into c). The two
corner vertices that would read outside the pattern are removed. Every
column-1 to column-p path spells a swapped version of P, and vice versa.

The Basic Matching Algorithm (BMA) decides a swap match at one text
position by sweeping a set of live vertices across the columns:
filter by the current text symbol, check acceptance at column p,
propagate along the edges. It is O(t*p) reference machinery, not a
production matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .report import MatchReport, check_search_inputs

Vertex = tuple[int, int]  # (row, column), row in {-1, 0, +1}, column 1-based

# The prefix-match signal of a BMA run: the set of vertices currently
# marked 1 (the characteristic-set form of a vertex -> {0,1} labeling).
SignalState = set[Vertex]

_ROWS = (-1, 0, 1)


@dataclass(frozen=True)
class PGraph:
    """The 3 x p swap graph of a pattern, stored as labels plus the edge rule.

    Edges are fixed by column index (rows -1 and 0 feed rows 0 and +1 of
    the next column; row +1 feeds row -1). The vertex labels, the columns
    and the successor lists are computed from that rule once per graph,
    on first use, and every query below reads those tables.
    """

    pattern: str | bytes

    @property
    def p(self) -> int:
        return len(self.pattern)

    @cached_property
    def _labels(self) -> dict[Vertex, object]:
        # vertex (r, c) reads pattern position r + c; the corners (-1, 1)
        # and (1, p) would read positions 0 and p + 1 and are left out
        pattern, p = self.pattern, len(self.pattern)
        return {
            (r, c): pattern[r + c - 1]
            for c in range(1, p + 1)
            for r in _ROWS
            if 1 <= r + c <= p
        }

    @cached_property
    def _columns(self) -> tuple[tuple[Vertex, ...], ...]:
        # index c holds column c; index 0 and p + 1 stay empty
        columns: list[list[Vertex]] = [[] for _ in range(self.p + 2)]
        for v in self._labels:
            columns[v[1]].append(v)
        return tuple(map(tuple, columns))

    @cached_property
    def _successors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        columns = self._columns
        return {
            (r, c): tuple(w for w in columns[c + 1] if (w[0] == -1) == (r == 1))
            for r, c in self._labels
        }

    def label(self, r: int, c: int):
        """Symbol at vertex (r, c): pattern position r + c."""
        try:
            return self._labels[(r, c)]
        except KeyError:
            raise KeyError(f"no vertex ({r}, {c})") from None

    def vertices(self) -> Iterator[Vertex]:
        """Every vertex, column by column, rows -1, 0, +1 within a column."""
        return iter(self._labels)

    def column(self, c: int) -> tuple[Vertex, ...]:
        return self._columns[c] if 1 <= c <= self.p else ()

    def successors(self, r: int, c: int) -> tuple[Vertex, ...]:
        """Heads of the edges out of (r, c); () for a position that is no vertex."""
        return self._successors.get((r, c), ())

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for u in self.vertices():
            for v in self.successors(*u):
                yield (u, v)

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._successors.values()))

    def accepting(self) -> tuple[Vertex, ...]:
        """Column-p vertices; a signal surviving there completes a match."""
        return self.column(self.p)

    def path_strings(self) -> frozenset:
        """Labels of every column-1 to column-p path (the swapped versions)."""
        out = set()

        def walk(v: Vertex, acc: list) -> None:
            acc.append(self.label(*v))
            if v[1] == self.p:
                if isinstance(self.pattern, bytes):
                    out.add(bytes(acc))
                else:
                    out.add("".join(acc))
            else:
                for nxt in self.successors(*v):
                    walk(nxt, acc)
            acc.pop()

        for start in self.column(1):
            walk(start, [])
        return frozenset(out)


def build_pgraph(pattern: str | bytes) -> PGraph:
    """Swap graph of the pattern; rejects empty patterns."""
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty")
    return PGraph(pattern)


def bma_at(graph: PGraph, text: str | bytes, k: int) -> bool:
    """Does the pattern swap-match the text at 1-based position k?

    Runs the signal sweep literally: filter by symbol, stop when no signal
    survives, accept only when a column-p vertex holds a signal, then
    propagate along the edges. Labels, columns and successors are read
    from the graph's tables, which are built once per graph.
    """
    p = graph.p
    t = len(text)
    if not 1 <= k <= t - p + 1:
        raise ValueError(f"position {k} outside 1..{t - p + 1}")
    labels, successors = graph._labels, graph._successors
    accepting = graph._columns[p]
    signal: SignalState = set(graph._columns[1])
    for i in range(p):
        x = text[k - 1 + i]
        signal = {v for v in signal if labels[v] == x}
        if not signal:
            return False
        if not signal.isdisjoint(accepting):
            return True
        signal = {w for v in signal for w in successors[v]}
    return False


def bma_search(pattern: str | bytes, text: str | bytes) -> MatchReport:
    """All swap-match positions, by running the sweep at every offset."""
    check_search_inputs(pattern, text)
    p, t = len(pattern), len(text)
    if p > t:
        return MatchReport("bma", (), p, t)
    graph = build_pgraph(pattern)
    positions = tuple(k for k in range(1, t - p + 2) if bma_at(graph, text, k))
    return MatchReport("bma", positions, p, t)
