"""One conformance harness: every correct engine against the oracle.

Each engine in ``ENGINES`` maps (pattern, text) to the 1-based match
starts and runs on the same instance space: every |Σ| = 2 pair with
p <= 4 and t <= 7, and seeded random instances over larger alphabets.
A new engine is covered by adding it to ``ENGINES``. The knowingly
flawed SMALGO engines are not here; fixtures pin them instead.

The engines that scan in blocks of ``BLOCK`` symbols (``BLOCK_ENGINES``)
also run on texts of two blocks and more, with swapped copies planted
across every block edge and where a block gets re-based, with a pattern
longer than a block, and with a run of matches at consecutive positions;
and, for patterns that take hex lanes, with copies across and on every
edge between the quarters a block is scanned in, and last blocks of every
window count modulo 4.
The stream engine cuts its input at every block edge and a few random
places. ``bma``, ``dfa`` and ``gsm_step`` are left out there: they cost
O(t·p) per instance, and the DFA of a p = 512 pattern is too large to
build.

The block scan also runs with ``BLOCK`` and ``REBASE_COLUMN`` shrunk to
1, 2 and 3, over every small instance, so that block edges and re-bases
meet every window, with four quarters per block at ``BLOCK`` 2, 3 and 5
over small ``abc`` instances, and with ``BLOCK`` at 24 over texts with
few matches, so that position extraction takes its sparse route; there
the truth is read off the enumerated swapped versions, so it does not
rest on any scan.

``gsm_scans`` runs every other searcher, the SMALGO engines too, scan by
scan for ``search``. Over every small ``ab`` and ``abc`` instance cut at
every position, those scans must equal that searcher's own whole-text
search: each engine reads at most ``LEAD`` symbols before a window.
"""

import functools
import random

import pytest

import swapmatch.gsm as gsm
from swapmatch.dfa import minimize
from swapmatch.gsm import (
    BLOCK,
    REBASE_COLUMN,
    gsm_accepts,
    gsm_precompute,
    gsm_scans,
    gsm_search,
    gsm_search_stream,
    gsm_step,
    zero_state,
)
from swapmatch.model import bma_search
from swapmatch.oracle import enumerate_swapped_versions, oracle_search
from swapmatch.smalgo import SEARCHERS, exhaustive_strings

from nfa_reference import build_swap_nfa, dfa_scan_ends, reference_determinize

# symbols any instance below may use; the DFA reads only its alphabet
ALPHABET = "abcd"


def _step_chain(pattern, text):
    p = len(pattern)
    masks = gsm_precompute(pattern)
    state = zero_state(p)
    hits = []
    for j, c in enumerate(text, 1):
        state = gsm_step(state, masks, c)
        if j >= p and gsm_accepts(state):
            hits.append(j - p + 1)
    return tuple(hits)


def _stream_random_cuts(pattern, text):
    rng = random.Random(f"{pattern}|{text}")
    cuts = [rng.randint(0, len(text)) for _ in range(rng.randint(0, 4))]
    cuts = sorted([*cuts, *range(BLOCK, len(text), BLOCK)])
    chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    return tuple(gsm_search_stream(pattern, chunks))


@functools.cache
def _min_dfa(pattern):
    return minimize(reference_determinize(build_swap_nfa(pattern, ALPHABET)))


def _dfa_starts(pattern, text):
    return tuple(end - len(pattern) + 1 for end in dfa_scan_ends(_min_dfa(pattern), text))


ENGINES = {
    "gsm": lambda pattern, text: gsm_search(pattern, text).positions,
    "gsm_step": _step_chain,
    "gsm_stream": _stream_random_cuts,
    "bma": lambda pattern, text: bma_search(pattern, text).positions,
    "dfa": _dfa_starts,
}


@functools.cache
def _exhaustive():
    return [
        (pattern, text, oracle_search(pattern, text).positions)
        for pattern in exhaustive_strings("ab", 1, 4)
        for text in exhaustive_strings("ab", 0, 7)
    ]


@functools.cache
def _random_instances():
    rng = random.Random(20161)
    out = []
    for _ in range(400):
        sigma = ALPHABET[: rng.randint(2, 4)]
        p = rng.randint(1, 9)
        t = rng.randint(0, 48)
        pattern = "".join(rng.choice(sigma) for _ in range(p))
        text = "".join(rng.choice(sigma) for _ in range(t))
        out.append((pattern, text, oracle_search(pattern, text).positions))
    return out


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_equals_oracle_exhaustive_sigma2(engine):
    search = ENGINES[engine]
    instances = _exhaustive()
    assert len(instances) == 30 * 255
    for pattern, text, want in instances:
        assert search(pattern, text) == want, (pattern, text)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_equals_oracle_random(engine):
    search = ENGINES[engine]
    instances = _random_instances()
    assert sum(bool(want) for _, _, want in instances) >= 40
    for pattern, text, want in instances:
        assert search(pattern, text) == want, (pattern, text)


# -- texts longer than one scan block --------------------------------------------

BLOCK_ENGINES = ("gsm", "gsm_stream")
BLOCK_PATTERN_LENGTHS = (1, 2, 31, 64, 65, 512)
# a block is re-based only when p is well above REBASE_COLUMN
REBASE_PATTERN_LENGTHS = (64, 512)
# a block reads p - 1 symbols past its end, more than a block here
LONG_PATTERN_LENGTH = BLOCK + 37

# (pattern symbols, text symbols, also as bytes): two symbols take the
# 1-bit lanes; ACGT takes the hex lanes, and the N in the text matches no
# lane; five non-ASCII symbols need two groups of hex lanes
BLOCK_ALPHABETS = (
    ("ab", "ab", True),
    ("ACGT", "ACGTN", True),
    ("a\u00e9\u03b2\u20ac\U0001d11e", "a\u00e9\u03b2\u20ac\U0001d11e", False),
)


def _swapped(pattern: str, rng: random.Random) -> str:
    out = list(pattern)
    i = 0
    while i + 1 < len(out):
        if rng.random() < 0.4:
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return "".join(out)


def _plant(pattern: str, sigma: str, n: int, starts: list, seed: int) -> str:
    rng = random.Random(seed)
    text = [rng.choice(sigma) for _ in range(n)]
    for start in starts:
        text[start:start + len(pattern)] = _swapped(pattern, rng)
    return "".join(text)


def _planted_text(pattern: str, sigma: str, seed: int) -> tuple[str, list[int]]:
    """Random text of 3 blocks and a bit, with a swapped copy of the pattern
    straddling each block boundary; returns the text and the copies' starts."""
    starts = [k * BLOCK - len(pattern) // 2 for k in (1, 2, 3)]
    return _plant(pattern, sigma, 3 * BLOCK + 700, starts, seed), starts


def _rebase_text(pattern: str, sigma: str, seed: int) -> tuple[str, list[int]]:
    """Random text of 3 blocks and an odd-length fourth, with swapped copies
    where a block is still alive at the re-base column: near block 0's
    first position; two far apart in block 1; one straddling into the
    last block, which a second copy keeps alive at the re-base column.
    Returns the text and the copies' starts."""
    p = len(pattern)
    starts = [
        3,
        BLOCK + 200,
        BLOCK + 20000,
        3 * BLOCK - p // 2,
        3 * BLOCK + p // 2 + 40,
    ]
    return _plant(pattern, sigma, 3 * BLOCK + 2 * p + 177, starts, seed), starts


def _long_text(pattern: str, sigma: str, seed: int) -> tuple[str, list[int]]:
    """Random text of 3 blocks and a bit for a pattern longer than a block,
    with a swapped copy at the first position, the top lane of a block
    that reads p - 1 symbols past its end, and one across block edges 2
    and 3. Returns the text and the copies' starts."""
    starts = [0, 2 * BLOCK - 20]
    return _plant(pattern, sigma, 3 * BLOCK + 700, starts, seed), starts


# -- quarters of a block ---------------------------------------------------------
# With hex lanes a block's window starts are cut into up to four quarters,
# each reading p - 1 symbols past its last window start; the last two
# pattern lengths sit on either side of the length past which a block
# takes fewer quarters. Each text has two blocks and a last one of
# LAST_WINDOWS windows: 1000 to 1003, every window count modulo 4, or 1
# to 3, fewer quarters than four of one window each.
QUARTER_PATTERN_LENGTHS = (3, 5, 8, 64, 512, BLOCK // 4, BLOCK // 4 + 1)
LAST_WINDOWS = (1000, 1001, 1002, 1003, 1, 2, 3)

# (pattern symbols, text symbols, as bytes): four symbols take one group
# of hex lanes, five non-ASCII ones two
QUARTER_ALPHABETS = (
    ("ACGT", "ACGT", True),
    ("a\u00e9\u03b2\u20ac\U0001d11e", "a\u00e9\u03b2\u20ac\U0001d11e", False),
)


def _quarter_edges(t: int, p: int) -> list[int]:
    """Where each quarter starts in a text of t symbols."""
    windows = t - p + 1
    edges = []
    for start in range(0, windows, BLOCK):
        m = min(BLOCK, windows - start)
        edges += range(start, start + m, -(-m // gsm._quarter_count(p)))
    return edges


def _quarter_text(pattern: str, sigma: str, last: int, seed: int) -> tuple[str, list[int]]:
    """Random text of two blocks and a last one of ``last`` windows, with
    swapped copies of the pattern that start, at each quarter edge in
    turn, about p // 2 before it and after it, one symbol before it, or
    on it, as far as they fit apart, and one on the last window. Returns
    the text and the copies' starts."""
    p = len(pattern)
    t = 2 * BLOCK + last + p - 1
    starts = []
    for e, edge in enumerate(_quarter_edges(t, p)):
        near = ((-(p // 2), (p + 1) // 2), (-1,), (0,))[e % 3]
        for start in (edge + d for d in near):
            if start >= (starts[-1] + p if starts else 0) and start + p <= t:
                starts.append(start)
    if starts[-1] + p <= t - p:
        starts.append(t - p)
    return _plant(pattern, sigma, t, starts, seed), starts


@functools.cache
def _quarter_cases():
    """(pattern, text, planted 1-based starts) for every quarter instance."""
    out = []
    for a, (pattern_sigma, text_sigma, as_bytes) in enumerate(QUARTER_ALPHABETS):
        rng = random.Random(a)
        for i, p in enumerate(QUARTER_PATTERN_LENGTHS):
            pattern = ""
            while len(set(pattern)) < 3:  # hex lanes
                pattern = "".join(rng.choice(pattern_sigma) for _ in range(p))
            last = LAST_WINDOWS[(i + 3 * a) % len(LAST_WINDOWS)]
            text, starts = _quarter_text(pattern, text_sigma, last, seed=p)
            ones = [start + 1 for start in starts]
            if as_bytes:
                pattern, text = pattern.encode(), text.encode()
            out.append((pattern, text, ones))
    return out


@functools.cache
def _block_cases():
    """(pattern, text, planted 1-based starts) for every block instance,
    the quarter instances last."""
    out = []
    for seed, (pattern_sigma, text_sigma, as_bytes) in enumerate(BLOCK_ALPHABETS):
        rng = random.Random(seed)
        planted = [(p, _planted_text) for p in BLOCK_PATTERN_LENGTHS]
        planted += [(p, _rebase_text) for p in REBASE_PATTERN_LENGTHS]
        planted.append((LONG_PATTERN_LENGTH, _long_text))
        for p, make in planted:
            pattern = "".join(rng.choice(pattern_sigma) for _ in range(p))
            if make is _rebase_text:
                # the last symbol first shows up past the re-base column,
                # so its occurrence int is built after the re-base
                late = REBASE_COLUMN + 4
                head = "".join(rng.choice(pattern_sigma[:-1]) for _ in range(late))
                pattern = head + pattern[late:]
            text, starts = make(pattern, text_sigma, seed=p)
            ones = [start + 1 for start in starts]
            out.append((pattern, text, ones))
            if as_bytes:
                out.append((pattern.encode(), text.encode(), ones))
    # an alternating run across block edge 1 matches at 49 consecutive
    # positions, yet the block stays sparse enough that position extraction
    # takes its one-find-per-lane route
    rng = random.Random(len(BLOCK_ALPHABETS))
    noise = "".join(rng.choice("ab") for _ in range(2 * BLOCK))
    start = BLOCK - 40
    text = noise[:start] + "ab" * 40 + noise[start + 80:]
    ones = list(range(start + 1, start + 50))
    out += [("ab" * 16, text, ones), (b"ab" * 16, text.encode(), ones)]
    return out + _quarter_cases()


@functools.cache
def _oracle_positions(pattern, text):
    return oracle_search(pattern, text).positions


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_engine_equals_oracle_across_blocks(engine):
    search = ENGINES[engine]
    for pattern, text, starts in _block_cases():
        want = _oracle_positions(pattern, text)
        assert set(starts) <= set(want), (len(pattern), text[:1])
        assert search(pattern, text) == want, (len(pattern), text[:1])


def test_quarter_cases_cover_the_seams():
    assert gsm._quarter_count(BLOCK // 4) == 4 > gsm._quarter_count(BLOCK // 4 + 1)
    lasts = set()
    for pattern, text, starts in _quarter_cases():
        assert len(set(pattern)) > 2
        lasts.add((len(text) - len(pattern) + 1) % BLOCK)
        if len(pattern) <= 512:
            # a copy across or on every quarter edge of the two whole blocks
            edges = [e for e in _quarter_edges(len(text), len(pattern)) if 0 < e < 2 * BLOCK]
            assert len(edges) == 7
            assert all(any(0 <= e + 1 - s < len(pattern) for s in starts) for e in edges)
    assert {m % 4 for m in lasts} == {0, 1, 2, 3} and {1, 2, 3} <= lasts


# -- the block scan at small scope ---------------------------------------------

def _definition_cases(sigma: str, p_max: int, t_min: int, t_max: int, min_symbols: int = 1):
    """(pattern, text, positions) for every pattern over sigma with p <= p_max
    and at least ``min_symbols`` distinct symbols, and every text with
    max(p, t_min) <= t <= t_max; a window matches when it is an enumerated
    version."""
    out = []
    for pattern in exhaustive_strings(sigma, 1, p_max):
        if len(set(pattern)) < min_symbols:
            continue
        p = len(pattern)
        versions = enumerate_swapped_versions(pattern)
        for text in exhaustive_strings(sigma, max(p, t_min), t_max):
            want = tuple(k + 1 for k in range(len(text) - p + 1) if text[k:k + p] in versions)
            out.append((pattern, text, want))
    return out


@functools.cache
def _small_scope_cases():
    # ab takes the 1-bit lanes; abc patterns with all three symbols take the
    # hex lanes (those with fewer take 1-bit lanes, as ab does)
    return _definition_cases("ab", 5, 0, 6) + _definition_cases("abc", 4, 0, 5, min_symbols=3)


@functools.cache
def _small_scope_cut_cases():
    return _definition_cases("ab", 4, 6, 6)


@functools.cache
def _sparse_cases():
    """(pattern, text, positions) for every ``ab`` pattern with p <= 4 and
    every ``abc`` one with all three symbols and p <= 4, over texts holding
    two copies of one word of 2 to 4 pattern symbols, 17 symbols apart in a
    filler that matches nothing; a window matches when it is an enumerated
    version."""
    out = []
    for sigma, filler in (("ab", "c"), ("abc", "d")):
        words = list(exhaustive_strings(sigma, 2, 4))
        for pattern in exhaustive_strings(sigma, 1, 4):
            if len(set(pattern)) < len(sigma):
                continue
            p = len(pattern)
            versions = enumerate_swapped_versions(pattern)
            for word in words:
                text = filler * 2 + word + filler * 17 + word + filler * 6
                want = tuple(k + 1 for k in range(len(text) - p + 1) if text[k:k + p] in versions)
                out.append((pattern, text, want))
    return out


def test_block_scan_equals_definition_over_sparse_blocks(monkeypatch):
    # a block of 24 holds at most a few matches, so position extraction
    # takes its one-find-per-lane route, which blocks of 1 to 3 never take;
    # with p >= 3 a block is re-based at column 2, cut after its last live window
    monkeypatch.setattr(gsm, "BLOCK", 24)
    monkeypatch.setattr(gsm, "REBASE_COLUMN", 2)
    for pattern, text, want in _sparse_cases():
        assert gsm_search(pattern, text).positions == want, (pattern, text)


def _scanned(pattern, chunks, search=None):
    """The positions ``gsm_scans`` yields over the chunks, and its last count read."""
    positions, read = [], 0
    for read, out in gsm_scans(pattern, chunks, search):
        positions += out
    return tuple(positions), read


@pytest.mark.parametrize("rebase", (1, 2, 3))
@pytest.mark.parametrize("block", (1, 2, 3))
def test_block_scan_equals_definition_at_small_scope(block, rebase, monkeypatch):
    monkeypatch.setattr(gsm, "BLOCK", block)
    monkeypatch.setattr(gsm, "REBASE_COLUMN", rebase)
    for pattern, text, want in _small_scope_cases():
        assert gsm_search(pattern, text).positions == want, (pattern, text)
    # every text of length 6 cut once at every position, and into single symbols
    for pattern, text, want in _small_scope_cut_cases():
        for cut in range(len(text) + 1):
            chunks = (text[:cut], text[cut:])
            assert _scanned(pattern, chunks) == (want, len(text)), (pattern, text, cut)
        assert _scanned(pattern, list(text)) == (want, len(text)), (pattern, text)


@functools.cache
def _quarter_scope_cases():
    return _definition_cases("abc", 3, 0, 7, min_symbols=3)


@pytest.mark.parametrize("block", (2, 3, 5))
def test_quarters_equal_definition_at_small_scope(block, monkeypatch):
    # four quarters of a block whatever p is: one window start each in a
    # block of 2 or 3, so a block has fewer than four, and two in a block
    # of 5, the last quarter one; a last block has fewer still. A quarter
    # that read one symbol past its last window would find the next
    # quarter's first window too.
    monkeypatch.setattr(gsm, "BLOCK", block)
    monkeypatch.setattr(gsm, "REBASE_COLUMN", 2)
    monkeypatch.setattr(gsm, "_quarter_count", lambda p: 4)
    for pattern, text, want in _quarter_scope_cases():
        assert gsm_search(pattern, text).positions == want, (pattern, text)


@functools.cache
def _lead_cases():
    """(pattern, text) for every ``ab`` pattern with p <= 4 and ``ab`` text
    with t <= 7, and every ``abc`` pattern with p <= 3 and ``abc`` text with
    t <= 5."""
    return [
        (pattern, text)
        for sigma, p_max, t_max in (("ab", 4, 7), ("abc", 3, 5))
        for pattern in exhaustive_strings(sigma, 1, p_max)
        for text in exhaustive_strings(sigma, 0, t_max)
    ]


@pytest.mark.parametrize("algo", ["bma", "oracle", "smalgo1", "smalgo2"])
def test_scans_with_searcher_equal_whole_text_search(algo, monkeypatch):
    # one-symbol chunks and blocks of 1 cut the text at every position, and
    # every scan is shorter than the p - 1 + LEAD symbols it carries; no
    # engine reads more than LEAD symbols before a window, so its scans
    # report what its whole-text search reports, and each window once
    monkeypatch.setattr(gsm, "BLOCK", 1)
    search = SEARCHERS[algo]
    for pattern, text in _lead_cases():
        want = search(pattern, text).positions
        assert _scanned(pattern, list(text), search) == (want, len(text)), (pattern, text)


@pytest.mark.parametrize("algo", sorted(SEARCHERS))
def test_searchers_share_input_contract(algo):
    search = SEARCHERS[algo]
    for empty, text in (("", "abc"), (b"", b"abc"), ("", b"abc")):
        with pytest.raises(ValueError):
            search(empty, text)
    for pattern, text in (("ab", b"ab"), (b"ab", "ab"), ("abc", b"a"), (b"a", "")):
        with pytest.raises(TypeError):
            search(pattern, text)
