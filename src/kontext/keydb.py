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

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class KeyName:
    """Hierarchical key name as a tuple of segments."""

    segments: Tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidNameError("key name needs at least one segment")
        for segment in self.segments:
            _check_segment(segment)

    @classmethod
    def parse(cls, text: Union[str, "KeyName"]) -> "KeyName":
        """Parse a display-form name. Raises InvalidNameError."""
        if isinstance(text, KeyName):
            return text
        if not isinstance(text, str):
            raise InvalidNameError(f"not a name: {text!r}")
        if not text:
            raise InvalidNameError("empty key name")
        if text.startswith(SEPARATOR) or text.endswith(SEPARATOR):
            raise InvalidNameError(f"name {text!r} has a leading or trailing '/'")
        return cls(tuple(_check_segment(s) for s in text.split(SEPARATOR)))

    @property
    def display(self) -> str:
        return SEPARATOR.join(self.segments)

    def __str__(self) -> str:
        return self.display

    def is_prefix_of(self, other: "KeyName") -> bool:
        """Strict: equal names are not each other's prefix."""
        return (
            len(self.segments) < len(other.segments)
            and other.segments[: len(self.segments)] == self.segments
        )


NameLike = Union[str, KeyName]


@dataclass(frozen=True)
class Key:
    """Immutable key: name, string value, string-to-string metadata."""

    name: KeyName
    value: str = ""
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, KeyName):
            object.__setattr__(self, "name", KeyName.parse(self.name))
        _check_value(self.value, "value")
        frozen: Dict[str, str] = {}
        for prop, val in self.meta.items():
            if not prop:
                raise InvalidNameError("empty metadata property name")
            if "=" in prop:
                raise InvalidNameError(f"property {prop!r} contains '='")
            _check_value(prop, "property name")
            _check_value(val, f"property {prop!r} value")
            frozen[prop] = val
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
        """Keys strictly below prefix (the prefix key itself excluded)."""
        parsed = KeyName.parse(prefix) if not isinstance(prefix, KeyName) else prefix
        return [
            self._by_name[d]
            for d in self._sorted_names()
            if parsed.is_prefix_of(self._by_name[d].name)
        ]

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
