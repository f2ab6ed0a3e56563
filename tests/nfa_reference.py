"""Reference automata for the swap language: the pattern-graph NFA,
generic subset construction, and the Aho–Corasick automaton of the
enumerated swapped versions.

``swapmatch.dfa.determinize`` builds the DFA as the reachable GSM signal
states. The tests check it against the textbook route kept here: build
the NFA whose start state self-loops on the alphabet and feeds the
pattern graph, then determinize it over frozensets of NFA states. The
conformance ``dfa`` engine is built here too, so it does not rest on GSM,
and so are the two runners that read a DFA table over a text
(``dfa_accepts``, ``dfa_scan_ends``). ``build_version_dfa`` reaches the
same language from the definition alone, with no pattern graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from swapmatch.dfa import Dfa
from swapmatch.model import build_pgraph
from swapmatch.oracle import enumerate_swapped_versions
from swapmatch.report import pattern_alphabet


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; missing (state, symbol) entries mean no move."""

    n_states: int
    start: int
    alphabet: tuple
    transitions: Mapping[tuple[int, object], frozenset[int]]
    accepting: frozenset[int]


def build_swap_nfa(pattern: str | bytes, alphabet: Iterable | None = None) -> Nfa:
    """NFA accepting every string whose length-p suffix is a swapped version of the pattern.

    State 0 self-loops on the whole alphabet and guesses where the suffix
    starts; the remaining states are the pattern-graph vertices, entered
    on their labels.
    """
    alpha = tuple(sorted(pattern_alphabet(pattern, alphabet), key=repr))

    graph = build_pgraph(pattern)
    labels = graph.labels
    ids = {v: i + 1 for i, v in enumerate(labels)}
    transitions: dict[tuple[int, object], set[int]] = {}

    def add(src: int, symbol, dst: int) -> None:
        transitions.setdefault((src, symbol), set()).add(dst)

    for x in alpha:
        add(0, x, 0)
    for v in graph.columns[1]:
        add(0, labels[v], ids[v])
    for u, heads in graph.successors.items():
        for v in heads:
            add(ids[u], labels[v], ids[v])

    accepting = frozenset(ids[v] for v in graph.columns[len(pattern)])
    return Nfa(
        n_states=len(ids) + 1,
        start=0,
        alphabet=alpha,
        transitions={k: frozenset(v) for k, v in transitions.items()},
        accepting=accepting,
    )


def nfa_accepts(nfa: Nfa, s: str | bytes | Iterable) -> bool:
    """Subset simulation of the NFA on one input string."""
    moves = nfa.transitions
    current = {nfa.start}
    for x in s:
        current = set().union(*(moves.get((q, x), ()) for q in current))
    return bool(current & nfa.accepting)


def reference_determinize(nfa: Nfa) -> Dfa:
    """Subset construction over reachable subsets only, numbered in BFS order."""
    moves = nfa.transitions
    start = frozenset({nfa.start})
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    table: list[tuple[int, ...]] = []
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        row = []
        for x in nfa.alphabet:
            target = frozenset().union(*(moves.get((q, x), ()) for q in subset))
            tid = ids.get(target)
            if tid is None:
                tid = ids[target] = len(order)
                order.append(target)
            row.append(tid)
        table.append(tuple(row))
    accepting = frozenset(
        i for i, subset in enumerate(order) if subset & nfa.accepting
    )
    return Dfa(alphabet=nfa.alphabet, transitions=tuple(table), accepting=accepting)


def build_version_dfa(pattern: str | bytes, alphabet: Iterable | None = None) -> Dfa:
    """DFA of "anything, then a swapped version of the pattern", from the definition.

    The Aho–Corasick automaton (Aho & Corasick, CACM 1975) of the set
    ``enumerate_swapped_versions(pattern)``: the trie of the versions, in
    which a missing move goes where the node's failure link (its longest
    proper suffix in the trie) goes. Every version has length p, so the
    accepting states are the trie's leaves. No pattern graph, signal
    state or scan is involved. Nodes are numbered in insertion order;
    compare languages through ``minimize``.
    """
    alpha = tuple(sorted(pattern_alphabet(pattern, alphabet), key=repr))
    trie: list[dict] = [{}]
    leaves = set()
    for version in enumerate_swapped_versions(pattern):
        node = 0
        for x in version:
            if x not in trie[node]:
                trie[node][x] = len(trie)
                trie.append({})
            node = trie[node][x]
        leaves.add(node)
    table: list = [None] * len(trie)
    table[0] = tuple(trie[0].get(x, 0) for x in alpha)
    fail = [0] * len(trie)
    queue = list(trie[0].values())
    for node in queue:  # breadth first: a failure link points to a shallower node
        row = table[fail[node]]
        table[node] = tuple(trie[node].get(x, row[a]) for a, x in enumerate(alpha))
        for a, x in enumerate(alpha):
            child = trie[node].get(x)
            if child is not None:
                fail[child] = row[a]
                queue.append(child)
    return Dfa(alphabet=alpha, transitions=tuple(table), accepting=frozenset(leaves))


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    """View a DFA as an NFA (singleton move sets)."""
    transitions = {
        (s, x): frozenset({dfa.transitions[s][a]})
        for s in range(dfa.n_states)
        for a, x in enumerate(dfa.alphabet)
    }
    return Nfa(
        n_states=dfa.n_states,
        start=dfa.start,
        alphabet=dfa.alphabet,
        transitions=transitions,
        accepting=dfa.accepting,
    )


def dfa_accepts(dfa: Dfa, s: str | bytes | Iterable) -> bool:
    """Run the DFA over one input string; True if it ends in an accepting state."""
    index = {x: i for i, x in enumerate(dfa.alphabet)}
    state = dfa.start
    for x in s:
        state = dfa.transitions[state][index[x]]
    return state in dfa.accepting


def dfa_scan_ends(dfa: Dfa, text: str | bytes) -> list[int]:
    """1-based positions where a prefix of the text lands in an accepting state.

    For a swap NFA's DFA these are match END positions; subtracting p-1
    gives the start positions the searchers report.
    """
    index = {x: i for i, x in enumerate(dfa.alphabet)}
    state = dfa.start
    out = []
    for n, x in enumerate(text, 1):
        state = dfa.transitions[state][index[x]]
        if state in dfa.accepting:
            out.append(n)
    return out
