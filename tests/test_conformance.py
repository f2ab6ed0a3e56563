"""One conformance harness: every correct engine against the oracle.

Each engine in ``ENGINES`` maps (pattern, text) to the 1-based match
starts and runs on the same instance space: every |Σ| = 2 pair with
p <= 4 and t <= 7, and seeded random instances over larger alphabets.
A new engine is covered by adding it to ``ENGINES``. The knowingly
flawed SMALGO engines are not here; fixtures pin them instead.
"""

import functools
import random

import pytest

from swapmatch.dfa import dfa_scan_ends, minimize
from swapmatch.gsm import (
    gsm_accepts,
    gsm_precompute,
    gsm_search,
    gsm_search_stream,
    gsm_step,
    zero_state,
)
from swapmatch.model import bma_search
from swapmatch.oracle import oracle_search
from swapmatch.smalgo import SEARCHERS, exhaustive_strings

from nfa_reference import build_swap_nfa, reference_determinize

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
    cuts = sorted(rng.randint(0, len(text)) for _ in range(rng.randint(0, 4)))
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


@pytest.mark.parametrize("algo", sorted(SEARCHERS))
def test_searchers_share_input_contract(algo):
    search = SEARCHERS[algo]
    for empty, text in (("", "abc"), (b"", b"abc"), ("", b"abc")):
        with pytest.raises(ValueError):
            search(empty, text)
    for pattern, text in (("ab", b"ab"), (b"ab", "ab"), ("abc", b"a"), (b"a", "")):
        with pytest.raises(TypeError):
            search(pattern, text)
