"""Search results shared by every matcher in the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MatchReport:
    """Positions (1-based match starts, ascending) reported by one algorithm."""

    algorithm: str
    positions: tuple[int, ...]
    pattern_len: int
    text_len: int

    def __post_init__(self) -> None:
        if not isinstance(self.positions, tuple):
            object.__setattr__(self, "positions", tuple(self.positions))
        last_valid = self.text_len - self.pattern_len + 1
        prev = 0
        for k in self.positions:
            if k <= prev:
                raise ValueError(f"positions not strictly increasing: {self.positions}")
            if not 1 <= k <= last_valid:
                raise ValueError(
                    f"position {k} outside 1..{last_valid} "
                    f"(p={self.pattern_len}, t={self.text_len})"
                )
            prev = k

    def __bool__(self) -> bool:
        return bool(self.positions)
