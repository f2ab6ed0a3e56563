"""P-graph / T-graph structure and the BMA reference matcher."""

from itertools import product

import pytest

from swapmatch.model import build_pgraph, bma_at, bma_search
from swapmatch.oracle import enumerate_swapped_versions, oracle_search


def test_pgraph_figure_example():
    g = build_pgraph("abcbbac")
    assert g.vertex_count == 19
    assert g.edge_count == 26
    # row -1 holds the symbol swapped up from the left: -, a, b, c, b, b, a
    assert [g.labels[(-1, c)] for c in range(2, 8)] == list("abcbba")
    assert [g.labels[(0, c)] for c in range(1, 8)] == list("abcbbac")
    assert [g.labels[(1, c)] for c in range(1, 7)] == list("bcbbac")
    assert (-1, 1) not in g.labels
    assert (1, 7) not in g.labels


def test_pgraph_single_symbol():
    g = build_pgraph("a")
    assert g.vertex_count == 1
    assert g.edge_count == 0
    assert list(g.labels) == [(0, 1)]
    assert g.columns[1] == ((0, 1),)


def test_pgraph_p4_counts():
    g = build_pgraph("abab")
    assert g.vertex_count == 10
    assert g.edge_count == 11


def test_pgraph_closed_forms():
    for p in range(2, 65):
        g = build_pgraph("ab" * (p // 2) + "a" * (p % 2))
        assert g.vertex_count == 3 * p - 2
        if p >= 3:
            assert g.edge_count == 5 * (p - 1) - 4
    # at p=2 the two removed corner vertices share an edge, so the
    # construction keeps one edge more than the p>=3 closed form
    assert build_pgraph("ab").edge_count == 2


@pytest.mark.xfail(
    strict=True,
    reason="closed form 5(p-1)-4 undercounts the p=2 construction by one",
)
def test_pgraph_p2_closed_form_literal():
    assert build_pgraph("ab").edge_count == 5 * (2 - 1) - 4


def test_pgraph_rejects_empty():
    with pytest.raises(ValueError):
        build_pgraph("")


def test_pgraph_path_strings_match_oracle_enumeration():
    # the lemma: the column-1 to column-p paths spell exactly the swapped
    # versions, so BMA accepts a length-p string iff the oracle lists it
    for pattern in ["a", "ab", "aa", "abab", "acbab", "abcbbac", "aabbaabb"]:
        g = build_pgraph(pattern)
        swapped = enumerate_swapped_versions(pattern)
        symbols = sorted(set(pattern))
        for w in map("".join, product(symbols, repeat=len(pattern))):
            assert bma_at(g, w, 1) == (w in swapped), (pattern, w)


def test_bma_at_figure_example():
    g = build_pgraph("acbab")
    assert bma_at(g, "babcabc", 2) is True
    assert bma_at(g, "babcabc", 1) is False
    assert bma_at(g, "babcabc", 3) is False


def test_bma_at_rejects_flaw_instance():
    assert bma_at(build_pgraph("abab"), "aaba", 1) is False


def test_bma_at_single_symbol():
    assert bma_at(build_pgraph("a"), "a", 1) is True


def test_bma_at_position_errors():
    g = build_pgraph("ab")
    with pytest.raises(ValueError):
        bma_at(g, "abc", 0)
    with pytest.raises(ValueError):
        bma_at(g, "abc", 3)


def test_bma_at_takes_the_search_inputs():
    with pytest.raises(TypeError):
        bma_at(build_pgraph("ab"), b"ab", 1)
    assert bma_at(build_pgraph(b"ab"), b"ba", 1) is True


def test_bma_search_examples():
    assert bma_search("acbab", "babcabc").positions == (2,)
    assert bma_search("ab", "ba").positions == (1,)
    assert bma_search("aa", "aa").positions == (1,)


def test_bma_search_empty_when_pattern_longer():
    assert bma_search("abc", "ab").positions == ()


def test_bma_search_bytes():
    assert bma_search(b"acbab", b"babcabc").positions == (2,)



def test_bma_search_equals_oracle_on_every_abc_text_of_length_6():
    # A greedy de Bruijn sequence (Martin 1934): append the last symbol of
    # "cba" whose length-6 window is new. It holds every abc text of
    # length 6 as a window, so one search per pattern over it checks each
    # pattern at every position of every such text.
    text = "a" * 6
    seen = {text}
    while True:
        for x in "cba":
            window = text[-5:] + x
            if window not in seen:
                seen.add(window)
                text += x
                break
        else:
            break
    assert len(seen) == 3**6 and len(text) == 3**6 + 5
    patterns = ["".join(w) for p in range(1, 6) for w in product("abc", repeat=p)]
    # longer patterns whose neighbours repeat, so live sets share columns
    patterns += ["aabbcc", "abbcca", "aaabbb", "abccba", "aabbaabb"]
    for pattern in patterns:
        got = bma_search(pattern, text).positions
        assert got == oracle_search(pattern, text).positions, pattern
