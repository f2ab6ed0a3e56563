"""Search results shared by every matcher in the package."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import lt


def check_search_inputs(pattern, text) -> None:
    """The input contract every searcher shares.

    Raises ``ValueError`` for an empty pattern and ``TypeError`` unless
    the pattern and the text are both ``str`` or both ``bytes``.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if isinstance(pattern, bytes) != isinstance(text, bytes):
        raise TypeError("pattern and text must both be str or both be bytes")


def pattern_alphabet(pattern, alphabet=None) -> frozenset:
    """The alphabet a pattern's automaton or masks are built over.

    It defaults to the symbols occurring in the pattern. A declared
    alphabet may widen it but must cover every pattern symbol; an empty
    pattern or an uncovered symbol raises ``ValueError``.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    symbols = frozenset(pattern)
    declared = symbols if alphabet is None else frozenset(alphabet)
    if not symbols <= declared:
        missing = sorted(symbols - declared, key=repr)
        raise ValueError(f"alphabet does not cover pattern symbols: {missing}")
    return declared


@dataclass(frozen=True)
class MatchReport:
    """Positions (1-based match starts, ascending) reported by one algorithm.

    Construction checks that the positions strictly increase and that
    every window fits in the text, and raises ``ValueError`` otherwise.
    The increase is checked pairwise in one C-level pass (``map`` of
    ``operator.lt``) rather than a Python loop, because a text where
    every window matches hands over one position per symbol; once the
    positions increase, only the first and the last can be out of range.
    The error names the first offending pair, not the whole tuple, so
    its size does not grow with the report.
    """

    algorithm: str
    positions: tuple[int, ...]
    pattern_len: int
    text_len: int

    def __post_init__(self) -> None:
        pos = self.positions
        if not isinstance(pos, tuple):
            pos = tuple(pos)
            object.__setattr__(self, "positions", pos)
        if not pos:
            return
        if not all(map(lt, pos, islice(pos, 1, None))):
            i = next(i for i in range(len(pos) - 1) if pos[i] >= pos[i + 1])
            raise ValueError(
                "positions not strictly increasing: "
                f"positions[{i}]={pos[i]} >= positions[{i + 1}]={pos[i + 1]}"
            )
        last_valid = self.text_len - self.pattern_len + 1
        for k in (pos[0], pos[-1]):
            if not 1 <= k <= last_valid:
                raise ValueError(
                    f"position {k} outside 1..{last_valid} "
                    f"(p={self.pattern_len}, t={self.text_len})"
                )

    def __bool__(self) -> bool:
        return bool(self.positions)
