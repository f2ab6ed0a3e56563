"""SMALGO mask tables, flawed searches, and the discrepancy scanner."""

import itertools
from pathlib import Path

import pytest

from swapmatch import model, smalgo
from swapmatch.bitvec import BitVector
from swapmatch.cli import main
from swapmatch.model import build_pgraph
from swapmatch.oracle import oracle_search
from swapmatch.report import MatchReport
from swapmatch.smalgo import (
    SEARCHERS,
    Discrepancy,
    compare_with_oracle,
    exhaustive_strings,
    find_discrepancies,
    format_discrepancies,
    smalgo1_search,
    smalgo1_trace,
    smalgo2_search,
    smalgo_precompute,
)

DATA = Path(__file__).parent / "data"

# expected mask table for pattern abab, column by column
ABAB_PMASKS = {
    "aaa": "1000",
    "aab": "1110",
    "aba": "1110",
    "baa": "1100",
    "abb": "1110",
    "bab": "1110",
    "bba": "1010",
    "bbb": "1000",
}


def test_degenerate_masks_abab():
    masks = smalgo_precompute("abab")
    assert BitVector(4, masks.dtilde["a"]).to01() == "1111"
    assert BitVector(4, masks.dtilde["b"]).to01() == "1111"


def test_pmask_columns_abab():
    masks = smalgo_precompute("abab")
    for key, want in ABAB_PMASKS.items():
        got = masks.pmask3_for(tuple(key)).to01()
        assert got == want, f"P({key}) = {got}, want {want}"


def test_pmask_bit_one_always_set():
    masks = smalgo_precompute("acbab")
    for triple in itertools.product("abcz", repeat=3):
        assert masks.pmask3_for(triple).get_bit(1) == 1


def test_degenerate_masks_ab():
    masks = smalgo_precompute("ab")
    assert BitVector(2, masks.dtilde["a"]).to01() == "11"
    assert BitVector(2, masks.dtilde["b"]).to01() == "11"


def test_degenerate_supersets_of_plain():
    from swapmatch.gsm import gsm_precompute

    for pattern in ["ab", "abab", "acbab", "aabba", "abcbbac"]:
        smasks = smalgo_precompute(pattern)
        gmasks = gsm_precompute(pattern)
        for x, plain in gmasks.items():
            degenerate = smasks.dtilde.get(x, 0)
            assert degenerate & plain.value == plain.value


def _graph_walk_tables(pattern):
    """The SMALGO masks by walking the pattern graph, column c at bit c - 1.

    The reference construction: degenerate masks from the column labels,
    pair and landing-row masks from every edge, triplet masks from every
    edge and each successor of its head. Returns the ``SmalgoMasks``
    fields and, apart, the pair masks (columns an edge labeled (x, y)
    enters, column 1 set), which SMALGO-II reads from the landing rows.
    """
    p = len(pattern)
    graph = build_pgraph(pattern)
    dtilde = {}
    labels, successors = graph.labels, graph.successors
    for c in range(1, p + 1):
        for v in graph.columns[c]:
            x = labels[v]
            dtilde[x] = dtilde.get(x, 0) | (1 << (c - 1))
    pmask3, pmask2 = {}, {}
    lands = {-1: {}, 0: {}, 1: {}}
    for u, heads in successors.items():
        for v in heads:
            x, y = labels[u], labels[v]
            r2, c2 = v
            bit = 1 << (c2 - 1)
            pmask2[(x, y)] = pmask2.get((x, y), 0) | bit
            lands[r2][(x, y)] = lands[r2].get((x, y), 0) | bit
            for w in successors[v]:
                key = (x, y, labels[w])
                pmask3[key] = pmask3.get(key, 0) | bit
    tables = {
        "p": p,
        "dtilde": dtilde,
        "pmask3": {key: v | 1 for key, v in pmask3.items()},
        "up": lands[-1],
        "down": lands[1],
        "middle": lands[0],
    }
    return tables, {key: v | 1 for key, v in pmask2.items()}


def _table_patterns():
    yield from exhaustive_strings("abc", 2, 7)
    yield from (b"ab", b"abab", b"\x00\xff\x00", b"ACGTTGCA", bytes(range(9)))


def test_int_tables_equal_graph_walk():
    checked = 0
    for pattern in _table_patterns():
        masks = smalgo_precompute(pattern)
        tables, pmask2 = _graph_walk_tables(pattern)
        assert vars(masks) == tables, pattern
        # SMALGO-II's column filter: the landing rows plus column 1 give
        # the pair mask, and a pair with no edge reads 1
        for pair in itertools.product({*pattern, None}, repeat=2):
            lands = masks.up.get(pair, 0) | masks.down.get(pair, 0) | masks.middle.get(pair, 0)
            assert lands | 1 == pmask2.get(pair, 1), (pattern, pair)
        checked += 1
    assert checked == sum(3**p for p in range(2, 8)) + 5


def test_precompute_rejects_short_patterns():
    with pytest.raises(ValueError):
        smalgo_precompute("a")
    with pytest.raises(ValueError):
        smalgo_precompute("")


def test_smalgo1_false_positive_instance():
    assert smalgo1_search("abab", "aaba").positions == (1,)
    assert oracle_search("abab", "aaba").positions == ()


def test_smalgo1_trace_matches_expected_run():
    r1, steps, report = smalgo1_trace("abab", "aaba")
    assert r1.to01() == "1000"
    assert len(steps) == 2

    s2 = steps[0]
    assert s2.j == 2
    assert s2.lso_r.to01() == "1100"
    assert s2.dtilde_cur.to01() == "1111"
    assert s2.rshift_dtilde_next.to01() == "1110"
    assert s2.pmask_key == ("a", "a", "b")
    assert s2.pmask.to01() == "1110"
    assert s2.r_next.to01() == "1100"

    s3 = steps[1]
    assert s3.j == 3
    assert s3.lso_r.to01() == "1110"
    assert s3.dtilde_cur.to01() == "1111"
    assert s3.rshift_dtilde_next.to01() == "1110"
    assert s3.pmask_key == ("a", "b", "a")
    assert s3.pmask.to01() == "1110"
    assert s3.r_next.to01() == "1110"

    assert report.positions == (1,)


def test_smalgo1_trace_takes_the_search_inputs():
    with pytest.raises(TypeError):
        smalgo1_trace("abab", b"aaba")
    with pytest.raises(ValueError, match="trace needs a pattern of length >= 2"):
        smalgo1_trace("a", b"aaba")


def test_smalgo1_correct_on_figure_instance():
    got = smalgo1_search("acbab", "babcabc").positions
    assert got == (2,)  # frozen from the implementation; contains the true match
    assert set(oracle_search("acbab", "babcabc").positions) <= set(got)


def test_smalgo1_trivial_swap():
    assert smalgo1_search("ab", "ba").positions == (1,)
    assert smalgo1_search("ab", "ab").positions == (1,)


def test_smalgo1_single_symbol_fallback():
    assert smalgo1_search("a", "aba").positions == (1, 3)
    assert smalgo2_search("b", "aba").positions == (2,)


def test_smalgo1_short_text():
    assert smalgo1_search("abab", "ab").positions == ()


def test_smalgo1_bytes():
    assert smalgo1_search(b"abab", b"aaba").positions == (1,)


def test_smalgo2_false_positive_survives_corrections():
    assert 1 in smalgo2_search("abab", "aaba").positions
    assert oracle_search("abab", "aaba").positions == ()


def test_smalgo2_identity():
    assert smalgo2_search("ab", "ab").positions == (1,)
    assert smalgo2_search("ab", "ba").positions == (1,)


def test_smalgo2_misses_offset_one_windows():
    # the original pseudocode never seeds the window starting at the
    # second text symbol, so the genuine match at position 2 is lost
    assert oracle_search("aa", "aaa").positions == (1, 2)
    assert smalgo2_search("aa", "aaa").positions == (1,)


def test_superset_property_exhaustive_small():
    # SMALGO-I over-approximates: no false negatives appeared anywhere in
    # the frozen scan space; spot-check the relation on a smaller cube
    for p in range(2, 5):
        for pat in map("".join, itertools.product("ab", repeat=p)):
            for t in range(p, 7):
                for txt in map("".join, itertools.product("ab", repeat=t)):
                    got = set(smalgo1_search(pat, txt).positions)
                    want = set(oracle_search(pat, txt).positions)
                    assert want <= got, (pat, txt)


def test_find_discrepancies_includes_flaw_instance():
    pats = list(exhaustive_strings("ab", 4, 4))
    txts = list(exhaustive_strings("ab", 4, 4))
    res = find_discrepancies(pats, txts, "smalgo1")
    assert res.pairs_scanned == 256
    keys = {(d.pattern, d.text, d.position, d.kind) for d in res.discrepancies}
    assert ("abab", "aaba", 1, "false-positive") in keys


def test_find_discrepancies_unary_alphabet():
    pats = list(exhaustive_strings("a", 1, 4))
    txts = list(exhaustive_strings("a", 1, 6))
    assert find_discrepancies(pats, txts, "smalgo1").discrepancies == ()
    # SMALGO-II still loses the never-seeded offset-one window here
    res2 = find_discrepancies(pats, txts, "smalgo2")
    assert {(d.position, d.kind) for d in res2.discrepancies} == {
        (2, "false-negative")
    }


def test_find_discrepancies_gsm_clean():
    pats = list(exhaustive_strings("ab", 1, 4))
    txts = list(exhaustive_strings("ab", 1, 5))
    res = find_discrepancies(pats, txts, "gsm")
    assert res.discrepancies == ()


def test_compare_with_oracle_equals_one_scan_per_algorithm():
    pats = list(exhaustive_strings("ab", 1, 4))
    txts = list(exhaustive_strings("ab", 1, 6))
    algos = ["smalgo2", "gsm", "smalgo1", "bma", "smalgo1"]
    pairs = ((pat, txt) for pat in pats for txt in txts)
    results = compare_with_oracle(pairs, algos)
    assert list(results) == ["smalgo2", "gsm", "smalgo1", "bma"]
    for algo in algos:
        assert results[algo] == find_discrepancies(pats, txts, algo)
    assert results["smalgo1"].pairs_scanned == len(pats) * len(txts)


def _count_graph_builds(monkeypatch):
    """Empty both one-entry caches and record every pattern graph built."""
    model._pgraph.cache_clear()
    smalgo._pattern_masks.cache_clear()
    builds = []

    def counting(pattern):
        builds.append(pattern)
        return build_pgraph(pattern)

    monkeypatch.setattr(model, "build_pgraph", counting)
    return builds


def test_mask_cache_keys_on_the_pattern():
    # BMA and both SMALGO engines share one cached graph and one mask
    # build per pattern; a str pattern and its bytes form, or patterns A,
    # B, A in turn, must not share them
    runs = [("abab", "aababbaba"), (b"abab", b"aababbaba"), ("abab", "aaba"),
            ("abba", "abbaabab"), ("abab", "abbaabab"), ("abba", "abbaabab"),
            (b"abba", b"abbaabab"), ("abab", "aababbaba")]
    engines = (SEARCHERS["bma"], smalgo1_search, smalgo2_search)
    cached = [search(p, t).positions for p, t in runs for search in engines]
    fresh = []
    for p, t in runs:
        for search in engines:
            model._pgraph.cache_clear()
            smalgo._pattern_masks.cache_clear()
            fresh.append(search(p, t).positions)
    assert cached == fresh
    assert any(cached)
    assert smalgo_precompute("abab") is not smalgo_precompute("abab")
    assert model._pgraph("abab") is not model._pgraph(b"abab")


def test_compare_with_oracle_builds_masks_once_per_pattern(monkeypatch):
    # K runs of consecutive equal patterns cost K graph builds and K mask
    # builds, whatever the number of engines, texts and re-checked
    # discrepancies
    patterns = ["abab", "abba", b"abab", "abab", "aabab"]
    texts = ["aaba", "abbaabab", "aababbaba", "babababa"]
    pairs = [
        (pattern, text.encode() if isinstance(pattern, bytes) else text)
        for pattern in patterns
        for text in texts
    ]
    graphs = _count_graph_builds(monkeypatch)
    masks = []

    def counting(pattern):
        masks.append(pattern)
        return smalgo_precompute(pattern)

    monkeypatch.setattr(smalgo, "smalgo_precompute", counting)
    results = compare_with_oracle(pairs, ["bma", "smalgo1", "smalgo2"])
    assert graphs == masks == patterns
    assert not results["bma"].discrepancies
    assert results["smalgo1"].discrepancies and results["smalgo2"].discrepancies


def test_exhaustive_verify_builds_one_graph_per_pattern(monkeypatch, capsys):
    graphs = _count_graph_builds(monkeypatch)
    argv = ["verify", "--mode", "exhaustive", "--algos", "bma,smalgo1,smalgo2",
            "--sigma", "ab", "--p-min", "2", "--p-max", "4", "--t-max", "6"]
    assert main(argv) == 0
    assert graphs == list(exhaustive_strings("ab", 2, 4))
    assert "algo=smalgo1" in capsys.readouterr().out


def test_find_discrepancies_rejects_oracle():
    with pytest.raises(ValueError):
        find_discrepancies(["ab"], ["ab"], "oracle")


def test_frozen_scan_fixture():
    # regression: the exhaustive {a,b} scan (p<=5, t<=7) frozen at build time
    pats = list(exhaustive_strings("ab", 1, 5))
    txts = list(exhaustive_strings("ab", 1, 7))
    res = find_discrepancies(pats, txts, "smalgo1")
    fixture = (DATA / "smalgo1_scan_ab_p5_t7.tsv").read_text()
    assert format_discrepancies(res.discrepancies) == fixture
    assert len(res.discrepancies) == 1878
    # finding: SMALGO-I produced only false positives in this space
    assert {d.kind for d in res.discrepancies} == {"false-positive"}


def test_smalgo2_scan_counts_frozen():
    # regression: the exhaustive {a,b} scan (p<=5, t<=7) frozen like SMALGO-I's
    pats = list(exhaustive_strings("ab", 1, 5))
    txts = list(exhaustive_strings("ab", 1, 7))
    res = find_discrepancies(pats, txts, "smalgo2")
    fixture = (DATA / "smalgo2_scan_ab_p5_t7.tsv").read_text()
    assert format_discrepancies(res.discrepancies) == fixture
    kinds = {"false-positive": 0, "false-negative": 0}
    for d in res.discrepancies:
        kinds[d.kind] += 1
    assert kinds == {"false-positive": 316, "false-negative": 2390}


def test_discrepancy_reverifies_on_construction():
    Discrepancy("smalgo1", "abab", "aaba", 1, "false-positive")  # genuine
    with pytest.raises(ValueError):
        Discrepancy("smalgo1", "abab", "aaba", 1, "false-negative")
    with pytest.raises(ValueError):
        Discrepancy("gsm", "abab", "aaba", 1, "false-positive")
    with pytest.raises(ValueError):
        Discrepancy("smalgo1", "abab", "aaba", 1, "nonsense")
    with pytest.raises(ValueError):
        Discrepancy("nope", "abab", "aaba", 1, "false-positive")
    for position in (0, 2):  # outside 1..t-p+1
        for kind in ("false-positive", "false-negative"):
            with pytest.raises(ValueError):
                Discrepancy("smalgo1", "abab", "aaba", position, kind)


def test_reverify_searches_a_replaced_engine_afresh(monkeypatch):
    # the re-check must re-run the engine that reported, not one it
    # remembers under the same name
    pairs = [("abab", "aabab")]
    monkeypatch.setitem(
        SEARCHERS, "smalgo1", lambda p, t: MatchReport("smalgo1", (), len(p), len(t))
    )
    missed = compare_with_oracle(pairs, ["smalgo1"])["smalgo1"].discrepancies
    assert [(d.position, d.kind) for d in missed] == [(2, "false-negative")]
    monkeypatch.undo()
    found = compare_with_oracle(pairs, ["smalgo1"])["smalgo1"].discrepancies
    assert [(d.position, d.kind) for d in found] == [(1, "false-positive")]


def test_fixture_round_trip():
    items = (
        Discrepancy("smalgo1", "abab", "aaba", 1, "false-positive"),
        Discrepancy("smalgo2", "aa", "aaa", 2, "false-negative"),
    )
    payload = format_discrepancies(items)
    assert payload == (
        "smalgo1\tabab\taaba\t1\tfalse-positive\n"
        "smalgo2\taa\taaa\t2\tfalse-negative\n"
    )
