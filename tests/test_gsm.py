"""GSM matcher: masks, the 13-op step, searches, and oracle equivalence."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from swapmatch import gsm
from swapmatch.bitvec import BitVector, count_ops
from swapmatch.cli import main
from swapmatch.gsm import (
    BLOCK,
    GsmState,
    _mask_triples,
    _scan_chunk,
    gsm_accepts,
    gsm_precompute,
    gsm_scans,
    gsm_search,
    gsm_search_stream,
    gsm_step,
    zero_state,
)
from swapmatch.oracle import oracle_match_at, oracle_search
from swapmatch.smalgo import exhaustive_strings

from test_conformance import (
    BLOCK_PATTERN_LENGTHS,
    _block_cases,
    _oracle_positions,
    _plant,
    _planted_text,
    _rebase_text,
)

patterns = st.text(alphabet="abc", min_size=1, max_size=9)
texts = st.text(alphabet="abcd", min_size=0, max_size=40)


# -- reference reachability DPs ------------------------------------------------

def reach_sets(pattern: str, text: str, strict: bool) -> list[set]:
    """For each prefix T[1..j], the set of (row, column) a prefix swap-match
    can end in. ``strict`` forbids swapping equal symbols, matching the
    definition; relaxed mode is plain graph reachability."""
    p = len(pattern)
    out: list[set] = []
    prev: set = set()
    for c in text:
        candidates = {(0, 1), (1, 1)}
        for r, i in prev:
            if i + 1 > p:
                continue
            if r == 1:
                candidates.add((-1, i + 1))
            else:
                candidates.add((0, i + 1))
                candidates.add((1, i + 1))
        cur: set = set()
        for r, i in candidates:
            if r == -1 and i == 1:
                continue
            if r == 1 and i == p:
                continue
            if c != pattern[r + i - 1]:
                continue
            if strict:
                if r == -1 and pattern[i - 2] == pattern[i - 1]:
                    continue
                if r == 1 and pattern[i - 1] == pattern[i]:
                    continue
            cur.add((r, i))
        out.append(cur)
        prev = cur
    return out


def state_bits(state: GsmState) -> set:
    bits = set()
    for r, vec in ((-1, state.ru), (0, state.rm), (1, state.rd)):
        for i in vec.positions():
            bits.add((r, i))
    return bits


# -- precompute ------------------------------------------------------------------

def test_precompute_positions():
    masks = gsm_precompute("abab")
    assert masks["a"].positions() == (1, 3)
    assert masks["b"].positions() == (2, 4)


def test_precompute_uniform():
    masks = gsm_precompute("aaaa", alphabet="ab")
    assert masks["a"].positions() == (1, 2, 3, 4)
    assert masks["b"].positions() == ()


def test_precompute_acbab():
    masks = gsm_precompute("acbab")
    assert masks["a"].positions() == (1, 4)
    assert masks["c"].positions() == (2,)
    assert masks["b"].positions() == (3, 5)


def test_precompute_masks_partition_positions():
    masks = gsm_precompute("abcabcxyz")
    for i in range(1, 10):
        owners = [x for x, v in masks.items() if v.get_bit(i)]
        assert len(owners) == 1


def test_precompute_errors():
    with pytest.raises(ValueError):
        gsm_precompute("")
    with pytest.raises(ValueError):
        gsm_precompute("abc", alphabet="ab")


def test_unknown_symbol_filters_to_zero():
    masks = gsm_precompute("ab")
    assert "z" not in masks
    state = gsm_step(zero_state(2), masks, "a")
    assert state_bits(state) == {(0, 1)}
    assert state_bits(gsm_step(state, masks, "z")) == set()


# -- the step ----------------------------------------------------------------------

def test_step_hand_example_match_symbol():
    masks = gsm_precompute("ab")
    st1 = gsm_step(zero_state(2), masks, "a")
    assert state_bits(st1) == {(0, 1)}


def test_step_hand_example_swap_pending():
    masks = gsm_precompute("ab")
    st1 = gsm_step(zero_state(2), masks, "b")
    assert state_bits(st1) == {(1, 1)}


def test_step_figure_prefix_accepts_after_five():
    masks = gsm_precompute("acbab")
    state = zero_state(5)
    seen_accept = []
    for c in "abcab":
        state = gsm_step(state, masks, c)
        seen_accept.append(gsm_accepts(state))
    assert seen_accept == [False, False, False, False, True]


def test_step_is_thirteen_bitwise_ops():
    masks = gsm_precompute("acbab")
    state = zero_state(5)
    for c in "abcab":
        with count_ops() as ops:
            state = gsm_step(state, masks, c)
        assert sum(ops.values()) == 13
        assert ops == {"lshift": 4, "or": 5, "and": 3, "rshift": 1}


def test_accepts_cases():
    p = 4
    state = GsmState(
        BitVector.zeros(p),
        BitVector.from_positions(p, [p]),
        BitVector.zeros(p),
    )
    assert gsm_accepts(state) is True
    assert gsm_accepts(zero_state(p)) is False


def test_state_invariants_rejected():
    with pytest.raises(ValueError):
        GsmState(
            BitVector.from_positions(3, [1]),
            BitVector.zeros(3),
            BitVector.zeros(3),
        )
    with pytest.raises(ValueError):
        GsmState(
            BitVector.zeros(3),
            BitVector.zeros(3),
            BitVector.from_positions(3, [3]),
        )


@given(patterns, texts)
def test_state_invariants_hold_under_fuzz(pattern, text):
    masks = gsm_precompute(pattern)
    state = zero_state(len(pattern))
    for c in text:
        state = gsm_step(state, masks, c)  # GsmState validates on construction
        assert state.ru.length == len(pattern)


# -- searches -----------------------------------------------------------------------

def test_search_rejects_flaw_instance():
    assert gsm_search("abab", "aaba").positions == ()


def test_search_figure_example():
    assert gsm_search("acbab", "babcabc").positions == (2,)


def test_search_alternating():
    assert gsm_search("ab", "bababa").positions == (1, 2, 3, 4, 5)


def test_search_single_symbol_pattern():
    assert gsm_search("a", "abca").positions == (1, 4)


def test_search_empty_pattern_rejected():
    with pytest.raises(ValueError):
        gsm_search("", "abc")


def test_search_type_mismatch():
    with pytest.raises(TypeError):
        gsm_search("ab", b"ab")


def test_search_builds_no_bitvector(monkeypatch):
    # the block scan reads the pattern directly; BitVector is only for
    # the gsm_step reference
    built = []
    init = BitVector.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BitVector, "__init__", counting_init)
    assert gsm_search("acbab", "babcabc").positions == (2,)
    assert list(gsm_search_stream(b"acbab", [b"bab", b"cabc"])) == [2]
    assert built == []
    gsm_precompute("acbab")
    assert built


def test_search_high_byte_values():
    pattern = bytes([200, 255])
    text = bytes([1, 255, 200, 200, 255, 7])
    assert (
        gsm_search(pattern, text).positions
        == oracle_search(pattern, text).positions
        == (2, 4)
    )


def test_search_bytes_and_str_agree():
    assert (
        gsm_search(b"acbab", b"babcabc").positions
        == gsm_search("acbab", "babcabc").positions
    )


@given(patterns, texts)
@settings(max_examples=200)
def test_search_equals_oracle(pattern, text):
    assert gsm_search(pattern, text).positions == oracle_search(pattern, text).positions


@given(patterns, texts)
def test_search_equals_step_chain(pattern, text):
    p = len(pattern)
    masks = gsm_precompute(pattern)
    state = zero_state(p)
    hits = []
    for j, c in enumerate(text, 1):
        state = gsm_step(state, masks, c)
        if gsm_accepts(state) and j >= p:
            hits.append(j - p + 1)
    assert tuple(hits) == gsm_search(pattern, text).positions


def test_search_multiword_random_vs_oracle():
    rng = random.Random(99)
    for _ in range(300):
        sigma = rng.choice(["ab", "abcd", "abcdefghijklmnopqrst"])
        t = rng.randint(1, 400)
        p = rng.randint(1, min(96, t))
        pattern = "".join(rng.choice(sigma) for _ in range(p))
        text = "".join(rng.choice(sigma) for _ in range(t))
        assert (
            gsm_search(pattern, text).positions
            == oracle_search(pattern, text).positions
        ), (pattern, text)


# -- pointwise signal semantics ---------------------------------------------------

def test_signals_match_graph_reachability_and_oracle_certificates():
    rng = random.Random(4242)
    for _ in range(300):
        p = rng.randint(1, 8)
        t = rng.randint(p, 20)
        pattern = "".join(rng.choice("abc") for _ in range(p))
        text = "".join(rng.choice("abc") for _ in range(t))
        relaxed = reach_sets(pattern, text, strict=False)
        strict = reach_sets(pattern, text, strict=True)
        masks = gsm_precompute(pattern)
        state = zero_state(p)
        for j in range(1, t + 1):
            state = gsm_step(state, masks, text[j - 1])
            bits = state_bits(state)
            # signals are exactly graph reachability
            assert bits == relaxed[j - 1], (pattern, text, j)
            # a definition-level certificate always raises the signal
            assert strict[j - 1] <= bits, (pattern, text, j)
            # accepting signals certify a real window match
            if j >= p:
                for r in (-1, 0):
                    if (r, p) in bits:
                        assert oracle_match_at(pattern, text, j - p + 1)


def test_equal_symbol_swap_signal_is_relaxed_only():
    # reading 'a' against pattern 'aa' raises the pending-swap signal even
    # though the definition forbids swapping equal symbols; the relaxed
    # graph semantics allows it and match-level answers stay correct
    masks = gsm_precompute("aa")
    state = gsm_step(zero_state(2), masks, "a")
    assert (1, 1) in state_bits(state)
    assert reach_sets("aa", "a", strict=True)[0] == {(0, 1)}
    assert gsm_search("aa", "aa").positions == oracle_search("aa", "aa").positions


# -- streaming ----------------------------------------------------------------------

def test_stream_known_chunks():
    assert list(gsm_search_stream("abab", ["aab", "a"])) == []
    assert list(gsm_search_stream("acbab", ["bab", "cabc"])) == [2]


def test_stream_single_chunk_equals_search():
    text = "babcabcaabbacbab"
    assert (
        tuple(gsm_search_stream("acbab", [text]))
        == gsm_search("acbab", text).positions
    )


def test_stream_empty_iterator():
    assert list(gsm_search_stream("ab", [])) == []


def test_stream_type_mismatch():
    with pytest.raises(TypeError):
        list(gsm_search_stream("ab", [b"ab"]))


def test_stream_bytes_chunks():
    chunks = [b"bab", b"cab", b"c"]
    assert list(gsm_search_stream(b"acbab", chunks)) == [2]


@pytest.mark.parametrize("search", [None, oracle_search], ids=["gsm", "oracle"])
def test_scans_keep_no_positions_while_suspended(search):
    # a caller that drops each scan's positions before asking for the next
    # holds one scan's positions at a time only if gsm_scans keeps none
    scans = gsm_scans("ab", ["ab" * BLOCK] * 3, search)
    for _, out in scans:
        assert out
        assert not [v for v in scans.gi_frame.f_locals.values() if v is out]


def test_shared_masks_across_threads():
    # one mask table, several concurrent stepped searches
    from concurrent.futures import ThreadPoolExecutor

    pattern = "acbab"
    masks = gsm_precompute(pattern)
    rng = random.Random(64)
    texts_ = ["".join(rng.choice("abc") for _ in range(200)) for _ in range(8)]

    def run(text):
        state = zero_state(len(pattern))
        hits = []
        for j, c in enumerate(text, 1):
            state = gsm_step(state, masks, c)
            if gsm_accepts(state) and j >= len(pattern):
                hits.append(j - len(pattern) + 1)
        return tuple(hits)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, texts_))
    assert results == [gsm_search(pattern, t).positions for t in texts_]


@given(patterns, texts, st.lists(st.integers(min_value=0, max_value=40), max_size=6))
def test_stream_equals_search_any_chunking(pattern, text, cuts):
    bounds = sorted({min(c, len(text)) for c in cuts})
    chunks = []
    prev = 0
    for b in bounds + [len(text)]:
        chunks.append(text[prev:b])
        prev = b
    assert "".join(chunks) == text
    assert (
        tuple(gsm_search_stream(pattern, chunks))
        == gsm_search(pattern, text).positions
    )


# -- texts longer than one scan block ---------------------------------------------
# The block instances and their oracle positions are the conformance
# harness's; gsm and gsm_stream run on all of them there. The tests below
# pin gsm_search on ACGT and non-ASCII str texts of three blocks and a bit.


def _acgt_block_cases():
    for p in BLOCK_PATTERN_LENGTHS:
        rng = random.Random(p)
        pattern = "".join(rng.choice("ACGT") for _ in range(p))
        text, starts = _planted_text(pattern, "ACGT", seed=p)
        yield pattern, text, [start + 1 for start in starts]


@pytest.mark.parametrize("as_bytes", [False, True])
def test_search_equals_oracle_across_blocks(as_bytes):
    for pattern, text, starts in _acgt_block_cases():
        if as_bytes:
            pattern, text = pattern.encode(), text.encode()
        want = _oracle_positions(pattern, text)
        assert set(starts) <= set(want)
        assert gsm_search(pattern, text).positions == want, len(pattern)


def test_search_non_ascii_str_across_blocks():
    sigma = "a\u00e9\u03b2\u20ac\U0001d11e"
    rng = random.Random(9)
    pattern = "".join(rng.choice(sigma) for _ in range(65))
    text, starts = _planted_text(pattern, sigma, seed=9)
    want = oracle_search(pattern, text).positions
    assert {start + 1 for start in starts} <= set(want)
    assert gsm_search(pattern, text).positions == want


@pytest.mark.parametrize("as_bytes", [False, True])
def test_stream_across_blocks_any_cut(as_bytes):
    # cuts one symbol either side of each block boundary, an empty chunk
    # and a one-symbol chunk
    cuts = [5, 5, 6] + [k * BLOCK + d for k in (1, 2, 3) for d in (-1, 1)]
    for pattern, text, _ in _block_cases():
        if isinstance(text, bytes) != as_bytes:
            continue
        chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        assert b"" in chunks or "" in chunks
        assert chunks[2:3] == [text[5:6]]
        assert (
            tuple(gsm_search_stream(pattern, chunks))
            == _oracle_positions(pattern, text)
        ), len(pattern)


# -- what a block reads and where it is re-based --------------------------------
# Neither rule changes an output of a whole search, so no oracle test can
# catch a slip in one.


@pytest.mark.parametrize("sigma", ["ab", "ACGT"])
@pytest.mark.parametrize("p", [64, 512])
def test_block_finds_exactly_the_windows_that_start_in_it(sigma, p):
    # a block reads p - 1 symbols past its end and no signal crosses an
    # edge: block k alone gives the whole text's positions in it
    rng = random.Random(p)
    pattern = "".join(rng.choice(sigma) for _ in range(p))
    text, starts = _planted_text(pattern, sigma, seed=p)
    want = _oracle_positions(pattern, text)
    assert {start + 1 for start in starts} <= set(want)
    for k in range(4):
        out = []
        chunk = text[k * BLOCK:(k + 1) * BLOCK + p - 1]
        _scan_chunk(_mask_triples(pattern), k * BLOCK, p, chunk, out)
        assert out == [x for x in want if k * BLOCK < x <= (k + 1) * BLOCK], k


def _record_occurrences(monkeypatch) -> list:
    """The blocks' ``_Occurrences`` as they are made; each keeps in ``stored``
    the symbol indexes it stored an int for, in order."""
    made = []

    class Recording(gsm._Occurrences):
        def __init__(self, *args):
            super().__init__(*args)
            self.stored = []
            made.append(self)

        def __setitem__(self, k, value):
            self.stored.append(k)
            super().__setitem__(k, value)

    monkeypatch.setattr(gsm, "_Occurrences", Recording)
    return made


def test_rebase_by_zero_keeps_occurrences_and_positions(monkeypatch):
    # the periodic texts match up to their last windows, so at the re-base
    # column a lane within p - 16 of the bottom is live and nothing is cut:
    # the block keeps its one _Occurrences (each occurrence int is stored
    # once) and no position moves
    made = _record_occurrences(monkeypatch)
    for pattern, text in (("ab" * 32, "ab" * 1000), ("ACGT" * 16, "ACGT" * 500)):
        made.clear()
        assert gsm_search(pattern, text).positions == oracle_search(pattern, text).positions
        assert len(made) == 1
        assert len(made[0].stored) == len(set(made[0].stored)), pattern


@pytest.mark.parametrize("as_bytes", [False, True])
@pytest.mark.parametrize("sigma, text_sigma", [("ACGT", "ACGT"), ("ab", "abcd")])
def test_rebase_cuts_the_block(sigma, text_sigma, as_bytes, monkeypatch):
    # ACGT takes hex lanes, ab 1-bit lanes; the text is over four symbols,
    # so no window but the planted copy at k lives to the re-base column.
    # Block 0 is re-based there and cut to end with that copy: it adds one
    # _Occurrences, over a proper prefix of the block; block 1 dies early.
    p, k = 64, 200
    rng = random.Random(len(sigma))
    pattern = "".join(rng.choice(sigma) for _ in range(p))
    text = _plant(pattern, text_sigma, BLOCK + 1000, [k], seed=p)
    if as_bytes:
        pattern, text = pattern.encode(), text.encode()
    made = _record_occurrences(monkeypatch)
    want = oracle_search(pattern, text).positions
    assert gsm_search(pattern, text).positions == want and k + 1 in want
    block0, block1 = text[:BLOCK + p - 1], text[BLOCK:]
    assert [occ.block for occ in made] == [block0, block0[:k + p], block1]


# -- no swap row between equal symbols ------------------------------------------------
# A swap exchanges two unequal symbols, so the plan has no pending-swap
# symbol at a column whose symbol equals the next one.


@pytest.mark.parametrize(
    "pattern", ["a", "aa", "ab", "AAAAAAAA", "AAAACCCCGGGG", "aabbaabb", "abcab", b"xxyx"]
)
def test_plan_drops_swap_row_exactly_between_equal_symbols(pattern):
    plan, _, _ = _mask_triples(pattern)
    numbers = {x: k for k, x in enumerate(dict.fromkeys(pattern))}
    for i, (cur, prev, nxt) in enumerate(plan):
        assert cur == numbers[pattern[i]]
        assert prev == (numbers[pattern[i - 1]] if i else None)
        if i + 1 == len(pattern) or pattern[i] == pattern[i + 1]:
            assert nxt is None, (pattern, i)
        else:
            assert nxt == numbers[pattern[i + 1]], (pattern, i)


def test_exhaustive_verify_builds_one_plan_per_pattern(monkeypatch, capsys):
    # the plan is cached for the last pattern, and verify runs each
    # pattern over every text in turn
    gsm._plan.cache_clear()
    builds = []

    def counting(pattern):
        builds.append(pattern)
        return _mask_triples(pattern)

    monkeypatch.setattr(gsm, "_mask_triples", counting)
    argv = ["verify", "--mode", "exhaustive", "--algos", "gsm",
            "--sigma", "ab", "--p-min", "2", "--p-max", "4", "--t-max", "6"]
    assert main(argv) == 0
    assert builds == list(exhaustive_strings("ab", 2, 4))
    assert "algo=gsm" in capsys.readouterr().out


def _runs_pattern(sigma: str, p: int, seed: int) -> str:
    # runs of 1 to 5 equal symbols, each run's symbol unlike the last one's
    rng = random.Random(seed)
    out = [rng.choice(sigma)]
    while len(out) < p:
        x = rng.choice(sigma.replace(out[-1], ""))
        out += x * rng.randint(1, 5)
    return "".join(out[:p])


def _repeated_neighbour_cases():
    for pattern, sigma in (
        ("AAAAAAAA", "ACGT"),
        ("AAAACCCCGGGG", "ACGT"),
        ("aabbaabb", "ab"),
        ("aaaa", "ab"),
    ):
        yield pattern, *_planted_text(pattern, sigma, seed=len(pattern))
    for p in (64, 512):
        for sigma in ("ab", "ACGT"):
            pattern = _runs_pattern(sigma, p, seed=p)
            yield pattern, *_planted_text(pattern, sigma, seed=p)
            yield pattern, *_rebase_text(pattern, sigma, seed=p)


def test_repeated_neighbours_equal_oracle_across_blocks():
    # copies straddle every block edge and every stream cut; p >= 64 also
    # takes the re-base
    cuts = [k * BLOCK + d for k in (1, 2, 3) for d in (-1, 1)]
    for pattern, text, starts in _repeated_neighbour_cases():
        want = oracle_search(pattern, text).positions
        assert {start + 1 for start in starts} <= set(want), pattern
        assert gsm_search(pattern, text).positions == want, pattern
        chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        assert tuple(gsm_search_stream(pattern, chunks)) == want, pattern
        data = pattern.encode(), text.encode()
        assert gsm_search(*data).positions == want, pattern


# -- position extraction ---------------------------------------------------------------


@pytest.mark.parametrize("w", [1, 4])
def test_extend_positions_branches_agree_around_crossover(w, monkeypatch):
    # one set lane in 2 to 1 in 64: dense lanes go through compress, sparse
    # ones through find, and both give every set lane's position
    calls = []
    compress = gsm.compress
    monkeypatch.setattr(gsm, "compress", lambda *args: calls.append(1) or compress(*args))
    rng = random.Random(w)
    n = 4096
    branches = set()
    for density in (2, 4, 6, 7, 9, 10, 16, 64):
        for first in (1, 77):
            lanes = [1] + [int(rng.random() < 1 / density) for _ in range(n - 1)]
            a = 0
            for bit in lanes:
                a = a << w | bit
            out = [-1]
            calls.clear()
            gsm._extend_positions(out, a, first, w)
            branches.add("compress" if calls else "find")
            assert out == [-1] + [first + k for k, bit in enumerate(lanes) if bit], density
    assert branches == {"compress", "find"}
