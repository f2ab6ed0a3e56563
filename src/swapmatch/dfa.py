"""Automata for the swap-match language and its exponential DFA blowup.

The language of a pattern P is "anything, then a swapped version of P".
Its natural NFA is small: a self-looping start state feeding the pattern
graph (``nfa_state_count``). Its DFA is the set of GSM signal states
(ru, rm, rd) that some text reaches: subset construction over the NFA
finds exactly these states, so this module builds the DFA by a
breadth-first walk over signal triples. It cannot stay small: for the
family ``ac(abc)^k`` the minimal DFA needs at least 2^k states, so a
text can drive GSM into at least 2^k distinct signal states. The module
builds the automata (signal-state DFA, then Moore partition refinement
to a canonical minimal table) and verifies the bound empirically,
including the pairwise distinguishing-extension argument behind it. It
returns records and formats no output; the CLI prints them as CSV.
"""

from __future__ import annotations

import random
from typing import Iterable

from .model import build_pgraph
from .oracle import oracle_match_at
from .report import _Record, pattern_alphabet

DEFAULT_STATE_CAP = 1 << 20

# largest k that verify_lower_bound accepts
MAX_FAMILY_K = 10


class StateLimitExceeded(RuntimeError):
    """Determinization hit the configured state cap."""


class Dfa(_Record):
    """Deterministic automaton with a dense, total transition table."""

    alphabet: tuple
    transitions: tuple[tuple[int, ...], ...]  # [state][symbol index] -> state
    accepting: frozenset[int]
    start: int = 0

    @property
    def n_states(self) -> int:
        return len(self.transitions)


def nfa_state_count(pattern: str | bytes) -> int:
    """States of the pattern's NFA: the graph's vertices and the start state."""
    return build_pgraph(pattern).vertex_count + 1


def determinize(
    pattern: str | bytes,
    alphabet: Iterable | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Dfa:
    """The DFA of "anything, then a swapped version of the pattern", as the
    GSM signal states that some text reaches.

    A state is the int triple (ru, rm, rd) of GSM row signals, bit i for
    column i + 1. It is the subset construction's state {start} plus the
    pattern-graph vertices that hold a signal, bit for bit: the NFA's
    self-looping start state is the ``| 1`` that injects a fresh signal at
    column 1 on every symbol. So a breadth-first walk from (0, 0, 0),
    stepping with the symbols in sorted-``repr`` order, finds the same
    states in the same order as subset construction over that NFA, and
    gives the same table, numbering and accepting set. A state accepts
    when row -1 or row 0 holds a signal at column p.

    The alphabet goes through ``pattern_alphabet``; a symbol the pattern
    lacks filters every signal out and leads back to the start state.
    Raises ``StateLimitExceeded`` when more than ``state_cap`` states are
    reached.
    """
    alpha = tuple(sorted(pattern_alphabet(pattern, alphabet), key=repr))
    # per symbol, the filters of rows -1, 0 and +1 (gsm_step's d << 1, d
    # and d >> 1); row -1 has no column-1 vertex, so its filter's bit 0 is
    # clear and its propagate needs no | 1
    filters = []
    for x in alpha:
        d = sum(1 << i for i, y in enumerate(pattern) if y == x)
        filters.append((d << 1, d, d >> 1))
    start = (0, 0, 0)
    ids = {start: 0}
    order = [start]
    table: list[tuple[int, ...]] = []
    for ru, rm, rd in order:
        ru_prop = rd << 1
        rm_prop = (rm | ru) << 1 | 1  # also rd's propagate
        row = []
        for f_ru, f_rm, f_rd in filters:
            target = (ru_prop & f_ru, rm_prop & f_rm, rm_prop & f_rd)
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
    top = 1 << (len(pattern) - 1)
    accepting = frozenset(
        i for i, (ru, rm, _) in enumerate(order) if (ru | rm) & top
    )
    return Dfa(alphabet=alpha, transitions=tuple(table), accepting=accepting)


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


class LowerBoundReport(_Record):
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


def verify_lower_bound(k: int, pair_samples: int = 100, seed: int = 0) -> LowerBoundReport:
    """Build, determinize and minimize the family automaton and check the bound.

    Also exercises the pairwise distinguishing argument on sampled (i, j)
    pairs (all pairs when there are few). k is capped at
    ``MAX_FAMILY_K`` to keep runs at desk scale; that keeps the family DFA
    at 18,902 states or fewer, far below ``DEFAULT_STATE_CAP``.
    """
    if k > MAX_FAMILY_K:
        raise ValueError(f"k={k} exceeds the cap {MAX_FAMILY_K}")
    return _lower_bound(k, pair_samples, seed, DEFAULT_STATE_CAP)


def _lower_bound(k: int, pair_samples: int, seed: int, state_cap: int) -> LowerBoundReport:
    pattern = pattern_family(k)
    dfa = determinize(pattern, "abc", state_cap)
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
        nfa_states=nfa_state_count(pattern),
        dfa_states=dfa.n_states,
        min_dfa_states=mdfa.n_states,
        bound=bound,
        bound_ok=mdfa.n_states >= bound,
        pairs_checked=len(pairs),
        pairs_ok=pairs_ok,
    )


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
