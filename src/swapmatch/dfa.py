"""Automata for the swap-match language and its exponential DFA blowup.

The language of a pattern P is "anything, then a swapped version of P".
Its natural NFA is small: a self-looping start state feeding the pattern
graph. Determinizing and minimizing it, however, cannot stay small: for
the family ``ac(abc)^k`` the minimal DFA needs at least 2^k states, and
this module both builds the automata (subset construction, then Moore
partition refinement to a canonical minimal table) and verifies the bound
empirically, including the pairwise distinguishing-extension argument
behind it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import build_pgraph
from .oracle import oracle_match_at
from .report import pattern_alphabet

DEFAULT_STATE_CAP = 1 << 20

# largest k that verify_lower_bound accepts
MAX_FAMILY_K = 10


class StateLimitExceeded(RuntimeError):
    """Subset construction hit the configured state cap."""


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; missing (state, symbol) entries mean no move."""

    n_states: int
    start: int
    alphabet: tuple
    transitions: Mapping[tuple[int, object], frozenset[int]]
    accepting: frozenset[int]


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton with a dense, total transition table."""

    alphabet: tuple
    transitions: tuple[tuple[int, ...], ...]  # [state][symbol index] -> state
    accepting: frozenset[int]
    start: int = 0

    @property
    def n_states(self) -> int:
        return len(self.transitions)


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


def determinize(nfa: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Subset construction over reachable subsets only."""
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
                tid = len(order)
                if tid >= state_cap:
                    raise StateLimitExceeded(
                        f"subset construction exceeded {state_cap} states"
                    )
                ids[target] = tid
                order.append(target)
            row.append(tid)
        table.append(tuple(row))
    accepting = frozenset(
        i for i, subset in enumerate(order) if subset & nfa.accepting
    )
    return Dfa(alphabet=nfa.alphabet, transitions=tuple(table), accepting=accepting)


def dfa_accepts(dfa: Dfa, s: str | bytes | Iterable) -> bool:
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


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement; returns the canonical minimal DFA.

    Blocks start as the accepting/non-accepting split. Each round gives
    every state the signature (own block, block of each successor) and
    renumbers blocks by signature; it stops when a round splits no block.
    The result numbers the blocks in BFS order from the start block, so
    blocks holding only unreachable states are dropped and equal
    languages give equal tables.

    Round r separates the states that some word of length <= r tells
    apart, so the rounds number one more than the longest shortest
    distinguishing word. In a swap DFA for a length-p pattern every
    state agrees on words of p or more symbols (only the self-looping
    start state still reaches acceptance on them), so refinement stops
    within p rounds. A round builds the signatures in one C-level
    ``map``/``zip`` pass over the transposed table and numbers them in
    one dict pass.
    """
    columns = list(zip(*dfa.transitions))  # [symbol index][state] -> state
    block = [s in dfa.accepting for s in range(dfa.n_states)]
    n_blocks = len(set(block))
    while True:
        signatures = zip(block, *(map(block.__getitem__, c) for c in columns))
        ids: dict[tuple, int] = {}
        block = [ids.setdefault(sig, len(ids)) for sig in signatures]
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)

    member = dict(zip(block, range(dfa.n_states)))  # one state per block
    order = [block[dfa.start]]
    new_id = {order[0]: 0}
    rows: list[tuple[int, ...]] = []
    for b in order:
        targets = [block[t] for t in dfa.transitions[member[b]]]
        for t in targets:
            if t not in new_id:
                new_id[t] = len(order)
                order.append(t)
        rows.append(tuple(map(new_id.__getitem__, targets)))
    accepting = frozenset(i for i, b in enumerate(order) if member[b] in dfa.accepting)
    return Dfa(alphabet=dfa.alphabet, transitions=tuple(rows), accepting=accepting)


# -- the exponential family ----------------------------------------------------

def pattern_family(k: int) -> str:
    """The blowup family member: 'ac' followed by k copies of 'abc'."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return "ac" + "abc" * k


def distinguishing_text(k: int, i: int) -> str:
    """Distinguishing text i: 'ac' then one block per bit of i, MSB first.

    Block j (from the most significant bit) is 'abc' for a 0 bit and
    'bac' (the swapped block) for a 1 bit, so texts for distinct i differ
    and all share the pattern's length.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= i < (1 << k):
        raise ValueError(f"i={i} outside 0..{(1 << k) - 1}")
    blocks = ["bac" if (i >> (k - 1 - j)) & 1 else "abc" for j in range(k)]
    return "ac" + "".join(blocks)


@dataclass(frozen=True)
class LowerBoundReport:
    k: int
    pattern: str
    nfa_states: int
    dfa_states: int
    min_dfa_states: int
    bound: int  # 2^k
    bound_ok: bool
    pairs_checked: int
    pairs_ok: bool


def _distinguishing_pair_ok(k: int, i: int, j: int) -> bool:
    """Check the separating-extension argument for one pair i < j.

    The first differing block (depth m from the left) gets both texts
    extended by m+1 clean blocks; the pattern must swap-match the suffix
    of the extended j-text and must not swap-match the suffix of the
    extended i-text.
    """
    pattern = pattern_family(k)
    p = len(pattern)
    m = next(
        m for m in range(k) if ((i >> (k - 1 - m)) ^ (j >> (k - 1 - m))) & 1
    )
    ti = distinguishing_text(k, i) + "abc" * (m + 1)
    tj = distinguishing_text(k, j) + "abc" * (m + 1)
    x, y = ti[-p:], tj[-p:]
    if not (x.startswith("bc") and y.startswith("ac")):
        return False
    accept_i = oracle_match_at(pattern, ti, len(ti) - p + 1)
    accept_j = oracle_match_at(pattern, tj, len(tj) - p + 1)
    return accept_j and not accept_i


def verify_lower_bound(
    k: int,
    pair_samples: int = 100,
    seed: int = 0,
    state_cap: int = DEFAULT_STATE_CAP,
) -> LowerBoundReport:
    """Build, determinize and minimize the family automaton and check the bound.

    Also exercises the pairwise distinguishing argument on sampled (i, j)
    pairs (all pairs when there are few). k is capped at
    ``MAX_FAMILY_K`` to keep runs at desk scale.
    """
    if k > MAX_FAMILY_K:
        raise ValueError(f"k={k} exceeds the cap {MAX_FAMILY_K}")
    return _lower_bound(k, pair_samples, seed, state_cap)


def _lower_bound(k: int, pair_samples: int, seed: int, state_cap: int) -> LowerBoundReport:
    pattern = pattern_family(k)
    nfa = build_swap_nfa(pattern, "abc")
    dfa = determinize(nfa, state_cap)
    mdfa = minimize(dfa)
    bound = 1 << k

    total = 1 << k
    all_pairs = total * (total - 1) // 2
    if all_pairs <= pair_samples:
        pairs = [(i, j) for i in range(total) for j in range(i + 1, total)]
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < pair_samples:
            i, j = rng.sample(range(total), 2)
            chosen.add((min(i, j), max(i, j)))
        pairs = sorted(chosen)
    pairs_ok = all(_distinguishing_pair_ok(k, i, j) for i, j in pairs)

    return LowerBoundReport(
        k=k,
        pattern=pattern,
        nfa_states=nfa.n_states,
        dfa_states=dfa.n_states,
        min_dfa_states=mdfa.n_states,
        bound=bound,
        bound_ok=mdfa.n_states >= bound,
        pairs_checked=len(pairs),
        pairs_ok=pairs_ok,
    )


GROWTH_CSV_HEADER = "k,pattern_length,nfa_states,dfa_states,min_dfa_states,bound_2k"


def growth_table(
    k_max: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[LowerBoundReport]:
    """Lower-bound reports for k = 1..k_max, without pair checks.

    k_max is not capped: the state cap bounds the work.
    """
    if k_max < 1:
        raise ValueError("k-max must be >= 1")
    return [_lower_bound(k, 0, 0, state_cap) for k in range(1, k_max + 1)]


def growth_csv(rows: Iterable[LowerBoundReport]) -> str:
    lines = [GROWTH_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.k},{len(r.pattern)},{r.nfa_states},{r.dfa_states},"
            f"{r.min_dfa_states},{r.bound}"
        )
    return "\n".join(lines) + "\n"
