"""Line-oriented spec format: parse and serialize key sets.

Grammar, applied line by line after comment stripping and trimming:

  * empty line                      ignored
  * [NAME]                          opens (or reopens) the section for NAME
  * NAME=VALUE outside any section  plain key entry
  * PROP=VALUE inside a section     metadata property of the section key
  * value=VALUE inside a section    sets the section key's value (reserved)

A '#' starts a comment when it is the first character of the line or is
preceded by a space or tab. Whitespace around names, values, and property
names is trimmed. A section stays open until the next section header. The
first hard error aborts the parse; duplicate assignments are warnings and
the last one wins.

Serialization is canonical: metadata-free keys are emitted first as plain
lines, then one section per remaining key, both groups in name order. That
layout is the one the grammar can re-read unambiguously, and it makes
serialize(parse(serialize(ks))) byte-identical to serialize(ks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .errors import InvalidNameError, InvalidValueError, SpecParseError, UnserializableError
from .fsutil import PathLike, atomic_write_text
from .keydb import Key, KeyName, KeySet

ENV_SPEC = "KONTEXT_SPEC"  # the spec file a shimmed process reads; the CLI's --spec fallback
VALUE_PROPERTY = "value"


class ParseErrorKind(enum.Enum):
    BAD_SECTION = "bad-section"
    BAD_ASSIGNMENT = "bad-assignment"
    PROPERTY_OUTSIDE_SECTION = "property-outside-section"
    DUPLICATE_KEY = "duplicate-key"  # warning, never fatal
    INVALID_NAME = "invalid-name"
    ENCODING = "encoding"


@dataclass(frozen=True)
class ParseIssue:
    line: int
    kind: ParseErrorKind
    message: str


@dataclass
class SpecDocument:
    """Parse result: the key set plus bookkeeping for diagnostics."""

    keyset: KeySet
    warnings: List[ParseIssue] = field(default_factory=list)
    line_index: Dict[str, int] = field(default_factory=dict)
    source: Optional[str] = None


class _Entry:
    __slots__ = ("name", "value", "meta", "value_set")

    def __init__(self, name: KeyName):
        self.name = name
        self.value = ""
        self.meta: Dict[str, str] = {}
        self.value_set = False


def strip_comment(line: str) -> str:
    """Drop the comment part: '#' at line start or after space/tab."""
    if line.startswith("#"):
        return ""
    pos = line.find("#")
    while pos > 0:
        if line[pos - 1] in " \t":
            return line[:pos]
        pos = line.find("#", pos + 1)
    return line


def _decode(text: Union[str, bytes]) -> str:
    """Text of a spec; a NUL or invalid UTF-8 is an ENCODING error at its line."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            nul = text.find(b"\0", 0, exc.start)
            bad = exc.start if nul < 0 else nul
            raise SpecParseError(
                text.count(b"\n", 0, bad) + 1,
                ParseErrorKind.ENCODING,
                f"NUL byte or invalid UTF-8 at byte {bad}",
            ) from None
    nul = text.find("\0")
    if nul >= 0:
        raise SpecParseError(
            text.count("\n", 0, nul) + 1, ParseErrorKind.ENCODING, f"NUL byte at offset {nul}"
        )
    return text


def parse_spec(text: Union[str, bytes], source: Optional[str] = None) -> SpecDocument:
    """Parse spec text into a SpecDocument. Raises SpecParseError."""
    decoded = _decode(text)
    entries: Dict[str, _Entry] = {}
    warnings: List[ParseIssue] = []
    line_index: Dict[str, int] = {}
    section: Optional[str] = None

    def fail(line_no: int, kind: ParseErrorKind, message: str) -> SpecParseError:
        return SpecParseError(line_no, kind, message)

    for line_no, raw in enumerate(decoded.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if "\r" in raw:
            raise fail(line_no, ParseErrorKind.BAD_ASSIGNMENT, "stray carriage return")
        stripped = strip_comment(raw).strip(" \t")
        if not stripped:
            continue

        if stripped.startswith("["):
            if len(stripped) < 2 or not stripped.endswith("]"):
                raise fail(line_no, ParseErrorKind.BAD_SECTION, "unclosed section header")
            inner = stripped[1:-1].strip(" \t")
            try:
                name = KeyName.parse(inner)
            except InvalidNameError as exc:
                raise fail(line_no, ParseErrorKind.INVALID_NAME, str(exc)) from None
            display = name.display
            if display not in entries:
                entries[display] = _Entry(name)
                line_index[display] = line_no
            section = display
            continue

        if "=" in stripped:
            lhs, rhs = stripped.split("=", 1)
            name_text = lhs.rstrip(" \t")
            value = rhs.strip(" \t")

            if section is not None:
                entry = entries[section]
                if name_text == VALUE_PROPERTY:
                    if entry.value_set:
                        warnings.append(
                            ParseIssue(
                                line_no,
                                ParseErrorKind.DUPLICATE_KEY,
                                f"value of {section!r} assigned again",
                            )
                        )
                    entry.value = value
                    entry.value_set = True
                else:
                    if not name_text:
                        raise fail(line_no, ParseErrorKind.INVALID_NAME, "empty property name")
                    if name_text in entry.meta:
                        warnings.append(
                            ParseIssue(
                                line_no,
                                ParseErrorKind.DUPLICATE_KEY,
                                f"property {name_text!r} of {section!r} assigned again",
                            )
                        )
                    entry.meta[name_text] = value
                continue

            if name_text == VALUE_PROPERTY:
                raise fail(
                    line_no,
                    ParseErrorKind.PROPERTY_OUTSIDE_SECTION,
                    "reserved property 'value' outside any section",
                )
            try:
                name = KeyName.parse(name_text)
            except InvalidNameError as exc:
                raise fail(line_no, ParseErrorKind.INVALID_NAME, str(exc)) from None
            display = name.display
            if display in entries:
                warnings.append(
                    ParseIssue(
                        line_no,
                        ParseErrorKind.DUPLICATE_KEY,
                        f"key {display!r} assigned again",
                    )
                )
            else:
                entries[display] = _Entry(name)
                line_index[display] = line_no
            entries[display].value = value
            entries[display].value_set = True
            continue

        raise fail(
            line_no, ParseErrorKind.BAD_ASSIGNMENT, "expected NAME=VALUE or [NAME]"
        )

    keyset = KeySet()
    for entry in entries.values():
        try:
            keyset.insert(Key(entry.name, entry.value, entry.meta))
        except (InvalidNameError, InvalidValueError) as exc:
            line = line_index.get(entry.name.display, 0)
            raise fail(line, ParseErrorKind.INVALID_NAME, str(exc)) from None
    return SpecDocument(keyset=keyset, warnings=warnings, line_index=line_index, source=source)


def _check_representable(text: str, what: str) -> None:
    if "\n" in text or "\r" in text:
        raise UnserializableError(f"{what} {text!r} contains a newline")
    if text != text.strip(" \t"):
        raise UnserializableError(f"{what} {text!r} has leading or trailing whitespace")
    if text.startswith("#"):
        raise UnserializableError(f"{what} {text!r} starts with '#'")
    for idx, ch in enumerate(text):
        if ch == "#" and text[idx - 1] in " \t":
            raise UnserializableError(
                f"{what} {text!r} contains '#' after whitespace (comment rule)"
            )


def _plain_line_safe(key: Key) -> bool:
    if key.meta:
        return False
    display = key.name.display
    return display != VALUE_PROPERTY and not display.startswith("[")


def serialize_spec(keys: Union[KeySet, SpecDocument]) -> str:
    """Render a key set in canonical form. Raises UnserializableError."""
    keyset = keys.keyset if isinstance(keys, SpecDocument) else keys
    plain: List[Key] = []
    sectioned: List[Key] = []
    for key in keyset:
        (plain if _plain_line_safe(key) else sectioned).append(key)

    lines: List[str] = []
    for key in plain:
        _check_representable(key.name.display, "name")
        _check_representable(key.value, "value")
        lines.append(f"{key.name.display}={key.value}")
    for key in sectioned:
        _check_representable(key.name.display, "name")
        _check_representable(key.value, "value")
        if lines:
            lines.append("")
        lines.append(f"[{key.name.display}]")
        if key.value:
            lines.append(f"{VALUE_PROPERTY}={key.value}")
        for prop in sorted(key.meta):
            if prop == VALUE_PROPERTY:
                raise UnserializableError("metadata property named 'value' is reserved")
            if prop.startswith("["):
                raise UnserializableError(f"property {prop!r} starts with '['")
            _check_representable(prop, "property")
            _check_representable(key.meta[prop], "property value")
            lines.append(f"{prop}={key.meta[prop]}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def load_spec(path: PathLike) -> SpecDocument:
    """Read and parse a spec file. IO errors propagate as OSError."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_spec(data, source=str(path))


def save_spec(path: PathLike, keys: Union[KeySet, SpecDocument]) -> None:
    """Serialize and atomically replace the spec file."""
    atomic_write_text(path, serialize_spec(keys))
