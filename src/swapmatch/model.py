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
    the next column; row +1 feeds row -1), so they are enumerated from the
    rule on demand instead of being materialized.
    """

    pattern: str | bytes

    @property
    def p(self) -> int:
        return len(self.pattern)

    def has_vertex(self, r: int, c: int) -> bool:
        if r not in _ROWS or not 1 <= c <= self.p:
            return False
        if r == -1 and c == 1:
            return False
        if r == 1 and c == self.p:
            return False
        return True

    def label(self, r: int, c: int):
        """Symbol at vertex (r, c): pattern position r + c."""
        if not self.has_vertex(r, c):
            raise KeyError(f"no vertex ({r}, {c})")
        return self.pattern[r + c - 1]

    def vertices(self) -> Iterator[Vertex]:
        for c in range(1, self.p + 1):
            for r in _ROWS:
                if self.has_vertex(r, c):
                    yield (r, c)

    def column(self, c: int) -> tuple[Vertex, ...]:
        return tuple((r, c) for r in _ROWS if self.has_vertex(r, c))

    def successors(self, r: int, c: int) -> tuple[Vertex, ...]:
        if c >= self.p:
            return ()
        if r == 1:
            targets = ((-1, c + 1),)
        else:
            targets = ((0, c + 1), (1, c + 1))
        return tuple(v for v in targets if self.has_vertex(*v))

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for u in self.vertices():
            for v in self.successors(*u):
                yield (u, v)

    @property
    def vertex_count(self) -> int:
        return sum(1 for _ in self.vertices())

    @property
    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

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

    def to_dot(self) -> str:
        """DOT rendering with vertex names m_r_c; layout is not guaranteed."""
        lines = ["digraph pgraph {", "  rankdir=LR;"]
        for r, c in self.vertices():
            sym = self.label(r, c)
            shown = chr(sym) if isinstance(sym, int) else str(sym)
            lines.append(f'  "m_{r}_{c}" [label="{shown}"];')
        for (r1, c1), (r2, c2) in self.edges():
            lines.append(f'  "m_{r1}_{c1}" -> "m_{r2}_{c2}";')
        lines.append("}")
        return "\n".join(lines)


def build_pgraph(pattern: str | bytes) -> PGraph:
    """Swap graph of the pattern; rejects empty patterns."""
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty")
    return PGraph(pattern)


def bma_at(graph: PGraph, text: str | bytes, k: int) -> bool:
    """Does the pattern swap-match the text at 1-based position k?

    Runs the signal sweep literally: filter by symbol, stop when no signal
    survives, accept only when a column-p vertex holds a signal, then
    propagate along the edges.
    """
    p = graph.p
    t = len(text)
    if not 1 <= k <= t - p + 1:
        raise ValueError(f"position {k} outside 1..{t - p + 1}")
    signal: SignalState = set(graph.column(1))
    for i in range(p):
        x = text[k - 1 + i]
        signal = {v for v in signal if graph.label(*v) == x}
        if not signal:
            return False
        if any(c == p for _, c in signal):
            return True
        signal = {w for v in signal for w in graph.successors(*v)}
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
