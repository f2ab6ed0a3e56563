"""MatchReport invariant enforcement, and the value semantics of every result record."""

import copy
import pickle

import pytest

from swapmatch.bitvec import BitVector
from swapmatch.cli import BenchRecord
from swapmatch.dfa import Dfa, LowerBoundReport
from swapmatch.gsm import GsmState
from swapmatch.model import PGraph, build_pgraph
from swapmatch.report import MatchReport
from swapmatch.smalgo import Discrepancy, ScanResult, Smalgo1Step, SmalgoMasks, smalgo_precompute


def test_valid_report():
    r = MatchReport("gsm", (1, 3, 5), 2, 6)
    assert bool(r)
    assert r.positions == (1, 3, 5)


def test_empty_report_is_falsy():
    assert not MatchReport("gsm", (), 4, 2)


def test_positions_coerced_to_tuple():
    assert MatchReport("gsm", [2, 3], 2, 6).positions == (2, 3)


def test_rejects_unsorted_positions():
    with pytest.raises(ValueError):
        MatchReport("gsm", (3, 1), 2, 6)
    with pytest.raises(ValueError):
        MatchReport("gsm", (2, 2), 2, 6)


def test_rejects_out_of_range_positions():
    with pytest.raises(ValueError):
        MatchReport("gsm", (0,), 2, 6)
    with pytest.raises(ValueError):
        MatchReport("gsm", (6,), 2, 6)  # window would overhang the text


def test_rejects_decrease_at_last_pair_only():
    with pytest.raises(ValueError, match=r"positions\[3\]=9 >= positions\[4\]=8"):
        MatchReport("gsm", (1, 2, 5, 9, 8), 2, 10)


def test_rejects_duplicate_across_batch_edge():
    # a duplicate at indices 4095/4096 straddles a 4096-position batch
    pos = list(range(1, 4097)) + [4096] + list(range(4097, 5000))
    with pytest.raises(ValueError, match=r"positions\[4095\]=4096 >= positions\[4096\]=4096"):
        MatchReport("gsm", pos, 2, 6000)


def test_rejects_first_position_zero():
    with pytest.raises(ValueError, match="position 0 outside"):
        MatchReport("gsm", (0, 1, 2), 2, 6)


def test_rejects_last_position_past_last_window():
    # t - p + 1 = 5: every position but the last is valid
    assert MatchReport("gsm", (1, 3, 5), 2, 6).positions == (1, 3, 5)
    with pytest.raises(ValueError, match="position 6 outside 1..5"):
        MatchReport("gsm", (1, 3, 5, 6), 2, 6)


def test_list_and_generator_positions_coerced_to_tuple():
    assert MatchReport("gsm", [1, 4], 2, 6).positions == (1, 4)
    assert MatchReport("gsm", (k for k in (2, 5)), 2, 6).positions == (2, 5)
    assert MatchReport("gsm", iter(()), 2, 6).positions == ()


def test_unsorted_error_message_is_bounded():
    pos = list(range(1, 100_001)) + [100_000]
    with pytest.raises(ValueError) as info:
        MatchReport("gsm", pos, 2, 200_000)
    assert len(str(info.value)) < 200
    assert "positions[99999]=100000 >= positions[100000]=100000" in str(info.value)


def _error(positions, p, t):
    """The ``ValueError`` message of ``MatchReport`` over ``positions``, or None."""
    try:
        MatchReport("gsm", positions, p, t)
    except ValueError as exc:
        return str(exc)
    return None


def test_ascending_range_kept_as_it_is():
    # a positive-step range strictly increases by construction: it is
    # kept, not copied into a tuple, and still checked at both ends
    for r in (range(1, 6), range(2, 6, 2), range(3, 4)):
        report = MatchReport("gsm", r, 2, 6)
        assert report.positions is r
        assert list(report.positions) == list(MatchReport("gsm", tuple(r), 2, 6).positions)


@pytest.mark.parametrize("r", [range(5, 3, -1), range(5, 0, -2), range(3, 1, -1)])
def test_descending_range_raises_as_its_tuple(r):
    assert len(r) >= 2
    message = _error(r, 2, 6)
    assert message is not None and message.startswith("positions not strictly increasing")
    assert message == _error(tuple(r), 2, 6)


@pytest.mark.parametrize(
    "r", [range(4, 4), range(4, 1), range(0, 3), range(1, 7), range(6, 9), range(0, 9, 3)]
)
def test_empty_and_out_of_window_ranges_behave_as_their_tuples(r):
    assert _error(r, 2, 6) == _error(tuple(r), 2, 6)
    if not r:
        assert not MatchReport("gsm", r, 2, 6)
    else:
        assert _error(r, 2, 6).startswith("position ")


def _records():
    """Every result record class, with its field names, one instance's
    values, and the values of an unequal instance."""
    g = build_pgraph("ab")
    m = smalgo_precompute("abc")
    v, w = BitVector(3, 0b101), BitVector(3, 0b010)
    found = Discrepancy("smalgo1", "abab", "aaba", 1, "false-positive")
    return [
        (MatchReport, ("algorithm", "positions", "pattern_len", "text_len"),
         ("gsm", (1, 3), 2, 6), ("bma", (1, 3), 2, 6)),
        (GsmState, ("ru", "rm", "rd"), (w, v, BitVector(3, 0b001)), (w, w, w.rshift1())),
        (PGraph, ("pattern", "labels", "columns", "successors"),
         ("ab", g.labels, g.columns, g.successors), ("ba", g.labels, g.columns, g.successors)),
        (SmalgoMasks, ("p", "dtilde", "pmask3", "up", "down", "middle"),
         (3, m.dtilde, m.pmask3, m.up, m.down, m.middle),
         (3, m.dtilde, m.pmask3, m.up, m.down, {})),
        (Smalgo1Step,
         ("j", "lso_r", "dtilde_cur", "rshift_dtilde_next", "pmask", "pmask_key", "r_next"),
         (2, v, v, v, v, ("a", "b", "c"), v), (2, v, v, v, v, ("a", "b", "c"), w)),
        (Discrepancy, ("algorithm", "pattern", "text", "position", "kind"),
         ("smalgo1", "abab", "aaba", 1, "false-positive"),
         ("smalgo2", "aa", "aaa", 2, "false-negative")),
        (ScanResult, ("discrepancies", "pairs_scanned"), ((found,), 4), ((found,), 5)),
        (Dfa, ("alphabet", "transitions", "accepting", "start"),
         (("a", "b"), ((1, 0), (1, 1)), frozenset({1}), 0),
         (("a", "b"), ((1, 0), (1, 1)), frozenset({1}), 1)),
        (LowerBoundReport,
         ("k", "pattern", "nfa_states", "dfa_states", "min_dfa_states", "bound",
          "bound_ok", "pairs_checked", "pairs_ok"),
         (1, "acabc", 14, 6, 4, 2, True, 1, True), (1, "acabc", 14, 6, 4, 2, True, 1, False)),
        (BenchRecord,
         ("algo", "p", "t", "sigma", "words", "reps", "median_ns",
          "throughput_sym_per_s", "seed"),
         ("gsm", 8, 100, 4, 1, 3, 1500, 6.5e7, 7), ("gsm", 8, 100, 4, 1, 3, 1500, 6.5e7, 8)),
    ]


UNHASHABLE = {"PGraph", "SmalgoMasks"}  # they hold dicts


@pytest.mark.parametrize("index", range(10))
def test_records_are_immutable_values(index):
    cls, names, values, other = _records()[index]
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert rec != cls(*other)
    assert rec != values and rec != object()
    assert tuple(getattr(rec, name) for name in names) == values
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(rec) == f"{cls.__qualname__}({fields})"
    if cls.__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(*values))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in names) == values
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec


def test_record_constructors_keep_their_signatures():
    assert Dfa(("a",), ((0,),), frozenset()) == Dfa(("a",), ((0,),), frozenset(), 0)
    assert Dfa(("a",), ((0,),), frozenset()).start == 0
    for cls, names, values, _ in _records():
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[-1]: values[-1], "nonsense": 1})
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values[:1], **{names[0]: values[0]})


def test_match_report_repr_and_keyword_checks():
    rec = MatchReport(algorithm="gsm", positions=[1, 3], pattern_len=2, text_len=6)
    assert repr(rec) == "MatchReport(algorithm='gsm', positions=(1, 3), pattern_len=2, text_len=6)"
    assert MatchReport("gsm", (k for k in (1, 3)), 2, 6) == rec
    with pytest.raises(ValueError, match="not strictly increasing"):
        MatchReport(algorithm="gsm", positions=[3, 1], pattern_len=2, text_len=6)
    with pytest.raises(ValueError, match="position 6 outside 1..5"):
        MatchReport(algorithm="gsm", positions=(6,), pattern_len=2, text_len=6)
