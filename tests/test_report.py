"""MatchReport invariant enforcement."""

import pytest

from swapmatch.report import MatchReport


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
