"""Swap-language automata: construction, determinization, minimization, blowup."""

import random
from pathlib import Path

import pytest

from swapmatch.cli import main
from swapmatch.dfa import (
    MAX_FAMILY_K,
    Dfa,
    StateLimitExceeded,
    determinize,
    growth_table,
    minimize,
    pattern_family,
    distinguishing_text,
    verify_lower_bound,
)
from swapmatch.gsm import gsm_search
from swapmatch.oracle import oracle_match_at
from swapmatch.smalgo import exhaustive_strings

from nfa_reference import (
    Nfa,
    build_swap_nfa,
    build_version_dfa,
    dfa_accepts,
    dfa_scan_ends,
    dfa_to_nfa,
    nfa_accepts,
    reference_determinize,
)

DATA = Path(__file__).parent / "data"

# frozen minimal-DFA state counts for the blowup family, k = 1..6
FAMILY_MIN_STATES = {1: 21, 2: 56, 3: 127, 4: 272, 5: 565, 6: 1154}


def hopcroft_minimize(dfa: Dfa) -> Dfa:
    """Reference minimizer: Hopcroft's worklist refinement, same canonical numbering.

    Drops unreachable states first, refines the accepting/non-accepting
    split by preimages of splitter blocks, then numbers the blocks in BFS
    order from the start block.
    """
    reach = [dfa.start]
    seen = {dfa.start}
    for s in reach:
        for t in dfa.transitions[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    remap = {old: new for new, old in enumerate(reach)}
    n = len(reach)
    n_sym = len(dfa.alphabet)
    trans = [
        [remap[dfa.transitions[old][a]] for a in range(n_sym)] for old in reach
    ]
    accepting = {remap[s] for s in dfa.accepting if s in remap}

    inverse: list[list[list[int]]] = [
        [[] for _ in range(n)] for _ in range(n_sym)
    ]
    for s in range(n):
        for a in range(n_sym):
            inverse[a][trans[s][a]].append(s)

    finals = frozenset(accepting)
    others = frozenset(range(n)) - finals
    partition: set[frozenset[int]] = {b for b in (finals, others) if b}
    block_of = {}
    for block in partition:
        for s in block:
            block_of[s] = block
    worklist: set[frozenset[int]] = set()
    if finals and others:
        worklist.add(finals if len(finals) <= len(others) else others)

    while worklist:
        splitter = worklist.pop()
        for a in range(n_sym):
            preimage: dict[frozenset[int], set[int]] = {}
            for t in splitter:
                for s in inverse[a][t]:
                    preimage.setdefault(block_of[s], set()).add(s)
            for block, hit in preimage.items():
                if len(hit) == len(block):
                    continue
                part1 = frozenset(hit)
                part2 = block - part1
                partition.remove(block)
                partition.add(part1)
                partition.add(part2)
                for s in part1:
                    block_of[s] = part1
                for s in part2:
                    block_of[s] = part2
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(part1)
                    worklist.add(part2)
                else:
                    worklist.add(part1 if len(part1) <= len(part2) else part2)

    start_block = block_of[remap[dfa.start]]
    block_ids = {start_block: 0}
    block_order = [start_block]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(block_order):
        block = block_order[i]
        i += 1
        probe = next(iter(block))
        row = []
        for a in range(n_sym):
            target = block_of[trans[probe][a]]
            tid = block_ids.get(target)
            if tid is None:
                tid = len(block_order)
                block_ids[target] = tid
                block_order.append(target)
            row.append(tid)
        rows.append(tuple(row))
    new_accepting = frozenset(
        block_ids[b] for b in block_order if next(iter(b)) in finals
    )
    return Dfa(alphabet=dfa.alphabet, transitions=tuple(rows), accepting=new_accepting)


def reachable(dfa: Dfa) -> set[int]:
    seen = {dfa.start}
    todo = [dfa.start]
    for s in todo:
        for t in dfa.transitions[s]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def suffix_swap_matches(pattern: str, s: str) -> bool:
    p = len(pattern)
    if len(s) < p:
        return False
    return oracle_match_at(pattern, s, len(s) - p + 1)


def test_nfa_accepts_suffix_swaps():
    nfa = build_swap_nfa("ab")
    assert nfa_accepts(nfa, "ab")
    assert nfa_accepts(nfa, "ba")
    assert nfa_accepts(nfa, "aaba")  # suffix ba
    assert not nfa_accepts(nfa, "aa")
    assert not nfa_accepts(nfa, "a")
    assert not nfa_accepts(nfa, "")


def test_nfa_with_wider_alphabet():
    nfa = build_swap_nfa("ab", alphabet="abx")
    assert nfa_accepts(nfa, "xba")
    assert not nfa_accepts(nfa, "bax")


def test_nfa_rejects_flaw_text():
    assert not nfa_accepts(build_swap_nfa("abab"), "aaba")


def test_nfa_single_symbol_pattern():
    nfa = build_swap_nfa("a", "ab")
    assert nfa_accepts(nfa, "a")
    assert nfa_accepts(nfa, "ba")
    assert not nfa_accepts(nfa, "ab")
    assert not nfa_accepts(nfa, "")


def test_nfa_alphabet_must_cover_pattern():
    with pytest.raises(ValueError):
        build_swap_nfa("abc", alphabet="ab")


def test_nfa_acceptance_equals_oracle_suffix_check():
    rng = random.Random(31)
    for _ in range(10_000):
        p = rng.randint(1, 6)
        pattern = "".join(rng.choice("abc") for _ in range(p))
        s = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        nfa = build_swap_nfa(pattern, "abc")
        assert nfa_accepts(nfa, s) == suffix_swap_matches(pattern, s), (pattern, s)


def test_determinize_preserves_language():
    rng = random.Random(77)
    nfa = build_swap_nfa("acab", "abc")
    dfa = determinize("acab", "abc")
    for _ in range(10_000):
        s = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        assert dfa_accepts(dfa, s) == nfa_accepts(nfa, s), s


def test_determinize_single_path_nfa():
    # a linear NFA: determinizing adds at most a dead state
    nfa = Nfa(
        n_states=3,
        start=0,
        alphabet=("a", "b"),
        transitions={(0, "a"): frozenset({1}), (1, "b"): frozenset({2})},
        accepting=frozenset({2}),
    )
    dfa = reference_determinize(nfa)
    assert dfa.n_states <= nfa.n_states + 1
    assert dfa_accepts(dfa, "ab")
    assert not dfa_accepts(dfa, "ba")


def test_determinize_idempotent_up_to_minimize():
    once = determinize("acbab", "abc")
    twice = reference_determinize(dfa_to_nfa(once))
    assert minimize(once).n_states == minimize(twice).n_states


def test_determinize_state_cap():
    with pytest.raises(StateLimitExceeded, match="^subset construction exceeded 10 states$"):
        determinize(pattern_family(4), "abc", state_cap=10)


def assert_equals_subset_construction(pattern, alphabet=None):
    want = reference_determinize(build_swap_nfa(pattern, alphabet))
    assert determinize(pattern, alphabet) == want, (pattern, alphabet)


@pytest.mark.parametrize("k", range(1, 11))
def test_determinize_equals_subset_construction_on_family(k):
    assert_equals_subset_construction(pattern_family(k), "abc")


def test_determinize_equals_subset_construction_on_random_patterns():
    rng = random.Random(2016)
    for i in range(500):
        symbols = "abcd"[: rng.randint(1, 4)]
        pattern = "".join(rng.choice(symbols) for _ in range(rng.randint(1, 12)))
        assert_equals_subset_construction(pattern, "abcd" if i % 2 else None)


@pytest.mark.parametrize(
    "pattern, alphabet",
    [
        (b"acabc", None),
        (b"dad", None),  # repr order puts 100 before 97
        (b"\x00\x01\x00\x01", b"\x00\x01\xff"),
        (b"ab\xffab", None),
    ],
)
def test_determinize_equals_subset_construction_on_bytes(pattern, alphabet):
    assert_equals_subset_construction(pattern, alphabet)


def test_determinize_equals_subset_construction_on_wider_alphabet():
    assert_equals_subset_construction("ab", "abx")
    assert determinize("ab", "abx").alphabet == ("a", "b", "x")


@pytest.mark.parametrize(
    "patterns, alphabet",
    [
        (tuple(exhaustive_strings("ab", 1, 10)), "ab"),
        (tuple(exhaustive_strings("abc", 1, 6)), "abc"),
        (tuple(map(pattern_family, range(1, 7))), "abc"),
        (tuple(p.encode() for p in exhaustive_strings("ab", 1, 6)), b"ab"),
    ],
    ids=["ab-p10", "abc-p6", "family-k6", "ab-p6-bytes"],
)
def test_determinize_equals_version_automaton(patterns, alphabet):
    # the definition (the Aho–Corasick automaton of the enumerated versions)
    # and the signal-state walk accept one language per pattern, over all
    # texts; raw tables differ, the minimized ones are canonical
    for pattern in patterns:
        want = minimize(build_version_dfa(pattern, alphabet))
        assert minimize(determinize(pattern, alphabet)) == want, pattern


def _determinize_with_swap_shortcut(pattern, alphabet) -> Dfa:
    """``determinize``'s walk with the block scan's shortcut: row +1 holds
    no signal at a column whose symbol equals the next one (bit i of its
    filter cleared where pattern[i] == pattern[i + 1], as ``_mask_triples``
    leaves that column's pending-swap row out)."""
    keep = sum(1 << i for i in range(len(pattern) - 1) if pattern[i] != pattern[i + 1])
    filters = []
    for x in alphabet:
        d = sum(1 << i for i, y in enumerate(pattern) if y == x)
        filters.append((d << 1, d, d >> 1 & keep))
    ids = {(0, 0, 0): 0}
    order = [(0, 0, 0)]
    table = []
    for ru, rm, rd in order:
        ru_prop, rm_prop = rd << 1, (rm | ru) << 1 | 1
        row = []
        for f_ru, f_rm, f_rd in filters:
            target = (ru_prop & f_ru, rm_prop & f_rm, rm_prop & f_rd)
            row.append(ids.setdefault(target, len(order)))
            if row[-1] == len(order):
                order.append(target)
        table.append(tuple(row))
    top = 1 << (len(pattern) - 1)
    accepting = frozenset(i for i, (ru, rm, _) in enumerate(order) if (ru | rm) & top)
    return Dfa(alphabet=alphabet, transitions=tuple(table), accepting=accepting)


def test_swap_shortcut_keeps_the_minimal_dfa():
    # the recurrence with the block scan's pending-swap shortcut accepts
    # the same language as the recurrence itself, for every text: decided
    # per pattern, for every ab pattern with p <= 10 and every abc pattern
    # with p <= 6 (3,138 patterns)
    patterns = [*exhaustive_strings("ab", 1, 10), *exhaustive_strings("abc", 1, 6)]
    assert len(patterns) == 3138
    fewer_states = 0
    for pattern in patterns:
        dfa = determinize(pattern)
        shortcut = _determinize_with_swap_shortcut(pattern, dfa.alphabet)
        assert minimize(shortcut) == minimize(dfa), pattern
        fewer_states += shortcut.n_states < dfa.n_states
    # the shortcut is not vacuous: it leaves some signal states unreached
    assert fewer_states > 0


def test_version_automaton_accepts_texts_ending_in_a_version():
    dfa = build_version_dfa("abab")
    accepted = {w for w in exhaustive_strings("ab", 4, 4) if dfa_accepts(dfa, w)}
    assert accepted == {"abab", "baab", "aabb", "abba", "baba"}
    assert dfa_accepts(dfa, "bbbbaab") and not dfa_accepts(dfa, "abaaba")


def test_minimize_keeps_minimal_dfa():
    dfa = minimize(determinize("ab"))
    again = minimize(dfa)
    assert again.n_states == dfa.n_states


def test_minimize_shrinks_duplicated_states():
    # states 1 and 2 are interchangeable accept states
    redundant = Dfa(
        alphabet=("a", "b"),
        transitions=((1, 2), (1, 2), (1, 2)),
        accepting=frozenset({1, 2}),
    )
    assert minimize(redundant).n_states == 2


def test_minimize_drops_unreachable_states():
    dfa = Dfa(
        alphabet=("a",),
        transitions=((0,), (1,)),  # state 1 unreachable
        accepting=frozenset(),
    )
    assert minimize(dfa).n_states == 1


def test_minimize_is_canonical_across_constructions():
    # same language, two different NFAs: via the swap NFA and via a
    # re-determinization round trip
    a = minimize(determinize("acabc", "abc"))
    b = minimize(reference_determinize(dfa_to_nfa(determinize("acabc", "abc"))))
    assert a.n_states == b.n_states


@pytest.mark.parametrize("k", range(1, 7))
def test_minimize_equals_hopcroft_on_family(k):
    dfa = reference_determinize(build_swap_nfa(pattern_family(k), "abc"))
    assert minimize(dfa) == hopcroft_minimize(dfa)


def random_dfa(rng: random.Random, kind: int) -> Dfa:
    """Up to 40 states over 1-3 symbols, with a random start state.

    ``kind`` 0 makes every state accepting and 1 none; otherwise each state
    accepts with probability 0.4. Random successors leave some states
    unreachable from the start.
    """
    n = rng.randint(1, 40)
    alphabet = tuple("xyz"[: rng.randint(1, 3)])
    transitions = tuple(
        tuple(rng.randrange(n) for _ in alphabet) for _ in range(n)
    )
    if kind == 0:
        accepting = frozenset(range(n))
    elif kind == 1:
        accepting = frozenset()
    else:
        accepting = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(alphabet, transitions, accepting, start=rng.randrange(n))


def test_minimize_equals_hopcroft_on_random_dfas():
    rng = random.Random(8)
    with_unreachable = 0
    for i in range(3000):
        dfa = random_dfa(rng, i % 10)
        assert minimize(dfa) == hopcroft_minimize(dfa), dfa
        with_unreachable += len(reachable(dfa)) < dfa.n_states
    assert with_unreachable >= 1000


def test_minimize_equals_hopcroft_on_swap_patterns():
    rng = random.Random(14)
    for p in list(range(1, 15)) * 3:
        pattern = "".join(rng.choice("abcd") for _ in range(p))
        dfa = reference_determinize(build_swap_nfa(pattern, "abcd"))
        assert minimize(dfa) == hopcroft_minimize(dfa), pattern


def chain_dfa(n: int) -> Dfa:
    """Two equivalent copies of an n-state chain that only long words tell apart.

    In each copy, 'a' steps to the next state (the last one loops) and 'b'
    jumps to the start of the other copy; only the last states accept.
    States j < i of one copy first differ on a^(n-1-i), so states 0 and 1
    need a word of n - 2 symbols and refinement runs n - 1 rounds. The two
    copies merge.
    """
    rows = []
    for copy in (0, n):
        other = n - copy
        for i in range(n):
            rows.append((copy + min(i + 1, n - 1), other))
    return Dfa(("a", "b"), tuple(rows), frozenset({n - 1, 2 * n - 1}))


def test_minimize_equals_hopcroft_on_long_chain():
    dfa = chain_dfa(30)
    got = minimize(dfa)
    assert got == hopcroft_minimize(dfa)
    assert got.n_states == 30
    assert dfa_accepts(got, "a" * 29) and not dfa_accepts(got, "a" * 28)


def test_dfa_growth_k8_matches_golden(capsys):
    # k = 7 and 8 (2335 and 4700 minimal states) are pinned only here
    assert main(["dfa-growth", "--k-max", "8"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (DATA / "dfa_growth_k8.csv").read_bytes()


def test_minimized_language_unchanged():
    rng = random.Random(5)
    nfa = build_swap_nfa("abcab", "abc")
    mdfa = minimize(determinize("abcab", "abc"))
    for _ in range(10_000):
        s = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        assert dfa_accepts(mdfa, s) == nfa_accepts(nfa, s), s


def test_pattern_family_examples():
    assert pattern_family(2) == "acabcabc"
    assert pattern_family(1) == "acabc"
    for k in range(1, 21):
        assert len(pattern_family(k)) == 2 + 3 * k
    with pytest.raises(ValueError):
        pattern_family(0)


def test_distinguishing_text_table():
    assert distinguishing_text(2, 0) == "acabcabc" == pattern_family(2)
    assert distinguishing_text(2, 1) == "acabcbac"
    assert distinguishing_text(2, 2) == "acbacabc"
    assert distinguishing_text(2, 3) == "acbacbac"


def test_distinguishing_text_distinct_equal_length():
    k = 4
    texts = [distinguishing_text(k, i) for i in range(1 << k)]
    assert len(set(texts)) == len(texts)
    assert {len(t) for t in texts} == {2 + 3 * k}


def test_distinguishing_text_range_errors():
    with pytest.raises(ValueError):
        distinguishing_text(2, 4)
    with pytest.raises(ValueError):
        distinguishing_text(2, -1)


def test_lower_bound_frozen_counts():
    for k, want in FAMILY_MIN_STATES.items():
        r = verify_lower_bound(k, pair_samples=20, seed=3)
        assert r.min_dfa_states == want
        assert r.bound_ok
        assert r.min_dfa_states >= 2**k
        assert r.pairs_ok


def test_lower_bound_counts_monotone():
    counts = [verify_lower_bound(k, pair_samples=0).min_dfa_states for k in range(1, 7)]
    assert counts == sorted(counts)


def test_lower_bound_complete_certificate_and_exact_size():
    # every pair of the 2^k texts is separated (k <= 8): a Myhill-Nerode
    # proof of the 2^k bound that rests on the oracle alone
    for k in range(1, 9):
        n = 2**k
        r = verify_lower_bound(k, pair_samples=n * (n - 1) // 2)
        assert r.pairs_checked == n * (n - 1) // 2
        assert r.pairs_ok
    # the exact minimal size, a measured formula for 2 <= k <= MAX_FAMILY_K
    counts = [r.min_dfa_states for r in growth_table(MAX_FAMILY_K)]
    assert counts == [21] + [37 * 2 ** (k - 1) - 3 * k - 12 for k in range(2, MAX_FAMILY_K + 1)]


def test_lower_bound_k_cap():
    with pytest.raises(ValueError):
        verify_lower_bound(11)


def test_distinguishing_pair_example():
    # the k=2, i=0, j=1 worked example: suffixes bcabcabc vs acabcabc
    from swapmatch.dfa import _distinguishing_pair_ok

    pattern = pattern_family(2)
    ti = distinguishing_text(2, 0) + "abc" * 2
    tj = distinguishing_text(2, 1) + "abc" * 2
    assert ti == "acabcabcabcabc"
    assert tj == "acabcbacabcabc"
    assert ti[-8:] == "bcabcabc"
    assert tj[-8:] == "acabcabc"
    assert not suffix_swap_matches(pattern, ti)
    assert suffix_swap_matches(pattern, tj)
    assert _distinguishing_pair_ok(2, 0, 1)


def test_growth_csv_shape(capsys):
    assert main(["dfa-growth", "--k-max", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [
        f"{r.k},{len(r.pattern)},{r.nfa_states},{r.dfa_states},{r.min_dfa_states},{r.bound}\n"
        for r in growth_table(3)
    ]
    assert out == "k,pattern_length,nfa_states,dfa_states,min_dfa_states,bound_2k\n" + "".join(rows)
    assert rows[0].startswith("1,5,") and rows[1].startswith("2,8,")


def test_wider_alphabet_leaves_state_counts_unchanged():
    # a symbol the pattern lacks sends every state back to the start
    # state, so it adds no state and merges or splits none
    cases = [(p, "abc") for p in exhaustive_strings("ab", 1, 6)]
    cases += [(pattern_family(k), "abcd") for k in range(1, 5)]
    assert len(cases) == 130
    for pattern, alphabet in cases:
        narrow, wide = determinize(pattern), determinize(pattern, alphabet)
        assert wide.alphabet != narrow.alphabet
        assert wide.n_states == narrow.n_states, pattern
        assert minimize(wide).n_states == minimize(narrow).n_states, pattern


def test_dfa_scan_ends_cross_checks_gsm():
    rng = random.Random(11)
    pattern = "acab"
    mdfa = minimize(determinize(pattern, "abc"))
    for _ in range(50):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(0, 60)))
        ends = dfa_scan_ends(mdfa, text)
        starts = tuple(e - len(pattern) + 1 for e in ends)
        assert starts == gsm_search(pattern, text).positions, text
