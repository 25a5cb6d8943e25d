"""Keys, key names, and ordered key sets.

A key name is a sequence of non-empty segments joined by '/'. Names are
case-sensitive and ordered by their display form (plain code-point order,
which equals byte order for UTF-8). A KeySet holds at most one Key per name
and iterates in that order.

Values and metadata are strings. Newlines (LF or CR) are forbidden in values,
metadata values, name segments, and property names so that every key stays
representable in the line-oriented spec format. '=' is forbidden in name
segments and property names because it terminates the name on an assignment
line.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import InvalidNameError, InvalidValueError

SEPARATOR = "/"

_SEGMENT_FORBIDDEN = ("/", "\n", "\r", "=", "\0")
_VALUE_FORBIDDEN = ("\n", "\r", "\0")


def _check_segment(segment: str) -> str:
    if not segment:
        raise InvalidNameError("empty name segment")
    for ch in _SEGMENT_FORBIDDEN:
        if ch in segment:
            raise InvalidNameError(f"segment {segment!r} contains forbidden {ch!r}")
    return segment


def _check_value(value: str, what: str) -> str:
    for ch in _VALUE_FORBIDDEN:
        if ch in value:
            raise InvalidValueError(f"{what} contains {ch!r}")
    return value


class Record:
    """Base of the package's small value types: one slot per field, and
    equality, hash and repr over the fields in slot order, as a dataclass
    would give. It stands in for dataclasses, whose import also loads
    inspect, ast and dis, in every CLI call."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, in __init__, through _init."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())


class KeyName(FrozenRecord):
    """Hierarchical key name, identified by its display text: the segments
    joined by '/'."""

    __slots__ = ("display",)

    def __init__(self, segments: Tuple[str, ...]):
        segments = tuple(segments)
        if not segments:
            raise InvalidNameError("key name needs at least one segment")
        for segment in segments:
            _check_segment(segment)
        self._init(SEPARATOR.join(segments))

    @classmethod
    def parse(cls, text: Union[str, "KeyName"]) -> "KeyName":
        """Parse a display-form name. Raises InvalidNameError."""
        # the naming rules tested on the whole text, by plain `in` scans,
        # which on a name of a dozen characters cost less than one regex
        # search; a name they refuse is split to raise the segment's message
        if (isinstance(text, str) and text and text[0] != SEPARATOR
                and text[-1] != SEPARATOR and "//" not in text and "=" not in text
                and "\n" not in text and "\r" not in text and "\0" not in text):
            name = object.__new__(cls)
            object.__setattr__(name, "display", text)
            return name
        if isinstance(text, KeyName):
            return text
        if not isinstance(text, str):
            raise InvalidNameError(f"not a name: {text!r}")
        if not text:
            raise InvalidNameError("empty key name")
        if text.startswith(SEPARATOR) or text.endswith(SEPARATOR):
            raise InvalidNameError(f"name {text!r} has a leading or trailing '/'")
        return cls(tuple(text.split(SEPARATOR)))

    @property
    def segments(self) -> Tuple[str, ...]:
        return tuple(self.display.split(SEPARATOR))

    def __str__(self) -> str:
        return self.display

    def __repr__(self) -> str:
        return f"KeyName(segments={self.segments!r})"


NameLike = Union[str, KeyName]


class Key(FrozenRecord):
    """Immutable key: name, string value, string-to-string metadata."""

    __slots__ = ("name", "value", "meta")

    def __init__(self, name: NameLike, value: str = "", meta: Optional[Mapping[str, str]] = None):
        if not isinstance(name, KeyName):
            name = KeyName.parse(name)
        _check_value(value, "value")
        frozen: Dict[str, str] = {}
        for prop, val in (meta or {}).items():
            if not prop:
                raise InvalidNameError("empty metadata property name")
            if "=" in prop:
                raise InvalidNameError(f"property {prop!r} contains '='")
            _check_value(prop, "property name")
            _check_value(val, f"property {prop!r} value")
            frozen[prop] = val
        # one Key per spec entry: set the fields without _init's loop
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "meta", frozen)


class KeySet:
    """Ordered, duplicate-free set of keys addressed by display name."""

    __slots__ = ("_by_name", "_order")

    def __init__(self, keys: Iterable[Key] = ()):
        self._by_name: Dict[str, Key] = {}
        self._order: Optional[List[str]] = None
        for key in keys:
            self.insert(key)

    def insert(self, key: Key) -> None:
        """Insert or replace; the name is the identity."""
        display = key.name.display
        if display not in self._by_name:
            self._order = None
        self._by_name[display] = key

    def get(self, name: NameLike) -> Optional[Key]:
        """Exact lookup by name; None when absent."""
        display = name.display if isinstance(name, KeyName) else name
        return self._by_name.get(display)

    def remove(self, name: NameLike) -> Optional[Key]:
        display = name.display if isinstance(name, KeyName) else name
        key = self._by_name.pop(display, None)
        if key is not None:
            self._order = None
        return key

    def below(self, prefix: NameLike) -> List[Key]:
        """Keys strictly below prefix (the prefix key itself excluded).

        Their names are the ones whose text starts with prefix + '/', and
        those are adjacent in the sorted names."""
        head = KeyName.parse(prefix).display + SEPARATOR
        order = self._sorted_names()
        found: List[Key] = []
        for i in range(bisect_left(order, head), len(order)):
            if not order[i].startswith(head):
                break
            found.append(self._by_name[order[i]])
        return found

    def names(self) -> List[str]:
        return list(self._sorted_names())

    def _sorted_names(self) -> List[str]:
        if self._order is None:
            self._order = sorted(self._by_name)
        return self._order

    def __iter__(self) -> Iterator[Key]:
        return iter([self._by_name[d] for d in self._sorted_names()])

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, KeyName):
            return name.display in self._by_name
        return isinstance(name, str) and name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        return self._by_name == other._by_name

    def __repr__(self) -> str:
        return f"KeySet({len(self._by_name)} keys)"
