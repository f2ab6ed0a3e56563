"""Fixed-length bit vectors with 1-based logical indexing.

:class:`BitVector` is the value type of the reference GSM step
(``gsm_step``) and of the SMALGO-I trace. It holds ``length`` logical
bits in one int, bit 1 being the least significant. Values are kept
canonical: every bit at a position greater than ``length`` is zero after
every operation, so shifts silently discard overflow instead of growing
the vector. The operations are exactly those of the paper's 13-op step:
``lshift1``, ``lso``, ``rshift1``, ``&`` and ``|``.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator

from .report import _Record

# Live operation tally, or None when instrumentation is off.  Enabled via
# count_ops() so the bitwise cost of an algorithm step can be asserted.
_COUNTS: Counter[str] | None = None


def _tally(op: str) -> None:
    if _COUNTS is not None:
        _COUNTS[op] += 1


@contextmanager
def count_ops() -> Iterator[Counter[str]]:
    """Count primitive bitwise operations executed inside the block.

    Yields a live Counter keyed by operation kind (``lshift``, ``rshift``,
    ``and``, ``or``). Nesting restores the previous tally.
    """
    global _COUNTS
    prev = _COUNTS
    _COUNTS = Counter()
    try:
        yield _COUNTS
    finally:
        _COUNTS = prev


class BitVector(_Record):
    """Immutable bit vector of a fixed logical length (may be 0).

    A record with fields ``length`` and ``value``, the value masked to
    ``length`` bits; only its ``repr``, in binary, is its own.
    """

    length: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"bit length must be >= 0, got {self.length}")
        self.__dict__["value"] = self.value & ((1 << self.length) - 1)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        """All-zero vector of the given logical length."""
        return cls(length)

    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "BitVector":
        """Vector with exactly the given 1-based bit positions set."""
        value = 0
        for i in positions:
            if not 1 <= i <= length:
                raise IndexError(f"bit index {i} out of range 1..{length}")
            value |= 1 << (i - 1)
        return cls(length, value)

    # -- primitive operations ------------------------------------------------

    def lshift1(self) -> "BitVector":
        """Shift every bit one position up; bit 1 becomes 0, overflow is lost."""
        _tally("lshift")
        return BitVector(self.length, self.value << 1)

    def lso(self) -> "BitVector":
        """Left-shift-or-one: lshift1 with bit 1 forced to 1."""
        shifted = self.lshift1()
        _tally("or")
        return BitVector(self.length, shifted.value | 1)

    def rshift1(self) -> "BitVector":
        """Shift every bit one position down; the old bit 1 is lost."""
        _tally("rshift")
        return BitVector(self.length, self.value >> 1)

    def _require_same_length(self, other: "BitVector") -> None:
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        _tally("and")
        return BitVector(self.length, self.value & other.value)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        _tally("or")
        return BitVector(self.length, self.value | other.value)

    # -- bit access ----------------------------------------------------------

    def get_bit(self, i: int) -> int:
        """Read logical bit i (1-based)."""
        if not 1 <= i <= self.length:
            raise IndexError(f"bit index {i} out of range 1..{self.length}")
        return (self.value >> (i - 1)) & 1

    def positions(self) -> tuple[int, ...]:
        """Ascending 1-based positions of all set bits."""
        return tuple(i for i in range(1, self.length + 1) if (self.value >> (i - 1)) & 1)

    def to01(self) -> str:
        """Debug rendering, bit 1 first: bits {1,2,3} of length 4 -> '1110'."""
        return "".join("1" if (self.value >> i) & 1 else "0" for i in range(self.length))

    # -- dunder plumbing -----------------------------------------------------

    def __repr__(self) -> str:
        return f"BitVector({self.length}, {self.value:#b})"
