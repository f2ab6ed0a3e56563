"""Search results shared by every matcher in the package, and ``_Record``:
the one immutable value type, and constructor, of every record and ``BitVector``."""

from __future__ import annotations

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


class _Record:
    """An immutable value record: the base of every result class in the package.

    A subclass declares its fields as class annotations, in order; a
    class-level value is that field's default. It is built positionally
    or by keyword, and then ``__post_init__`` checks it. Records with
    equal fields of the same class are equal and hash alike (a record
    holding a dict is unhashable), the ``repr`` lists every field, and
    assigning or deleting an attribute raises ``AttributeError``. Pickle
    and ``copy`` restore the fields without running the check again.
    ``__init__`` binds the arguments like a function would, and is the
    one constructor of every record.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given"
            )
        store = self.__dict__
        store.update(zip(fields, args))
        for name in kwargs:
            if name in store or name not in fields:
                problem = "multiple values for" if name in store else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        store.update(kwargs)
        for name in fields[len(args):]:
            if name not in store:
                if name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                store[name] = cls.__dict__[name]
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a record with an invariant overrides this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MatchReport(_Record):
    """Positions (1-based match starts, ascending) reported by one algorithm.

    Construction checks that the positions strictly increase and that
    every window fits in the text, and raises ``ValueError`` otherwise.
    A ``range`` with a positive step is kept as it is: it strictly
    increases by construction, so only its first and last are checked,
    and a block where every window matches hands it on with no
    per-position work (such a report equals one holding the same range,
    not one holding its positions as a tuple). Any other sequence is kept
    as a tuple, and its increase is checked pairwise in one C-level pass
    (``map`` of ``operator.lt``) rather than a Python loop, because a text
    where every window matches hands over one position per symbol; once
    the positions increase, only the first and the last can be out of
    range. The error names the first offending pair, not the whole tuple,
    so its size does not grow with the report.
    """

    algorithm: str
    positions: tuple[int, ...] | range
    pattern_len: int
    text_len: int

    def __post_init__(self) -> None:
        pos = self.positions
        if not (isinstance(pos, range) and pos.step > 0):
            if not isinstance(pos, tuple):
                pos = tuple(pos)
                self.__dict__["positions"] = pos
            if not all(map(lt, pos, islice(pos, 1, None))):
                i = next(i for i in range(len(pos) - 1) if pos[i] >= pos[i + 1])
                raise ValueError(
                    "positions not strictly increasing: "
                    f"positions[{i}]={pos[i]} >= positions[{i + 1}]={pos[i + 1]}"
                )
        if not pos:
            return
        last_valid = self.text_len - self.pattern_len + 1
        for k in (pos[0], pos[-1]):
            if not 1 <= k <= last_valid:
                raise ValueError(
                    f"position {k} outside 1..{last_valid} "
                    f"(p={self.pattern_len}, t={self.text_len})"
                )

    def __bool__(self) -> bool:
        return bool(self.positions)
