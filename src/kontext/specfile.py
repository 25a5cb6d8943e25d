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
from typing import Dict, List, Optional, Union

from .errors import InvalidNameError, SpecParseError, UnserializableError
from .fsutil import PathLike, atomic_write_text
from .keydb import FrozenRecord, Key, KeyName, KeySet, Record

ENV_SPEC = "KONTEXT_SPEC"  # the spec file a shimmed process reads; the CLI's --spec fallback
VALUE_PROPERTY = "value"


class ParseErrorKind(enum.Enum):
    BAD_SECTION = "bad-section"
    BAD_ASSIGNMENT = "bad-assignment"
    PROPERTY_OUTSIDE_SECTION = "property-outside-section"
    DUPLICATE_KEY = "duplicate-key"  # warning, never fatal
    INVALID_NAME = "invalid-name"
    ENCODING = "encoding"


class ParseIssue(FrozenRecord):
    __slots__ = ("line", "kind", "message")

    def __init__(self, line: int, kind: ParseErrorKind, message: str):
        self._init(line, kind, message)


class SpecDocument(Record):
    """Parse result: the key set plus bookkeeping for diagnostics."""

    __slots__ = ("keyset", "warnings", "line_index")

    def __init__(
        self,
        keyset: KeySet,
        warnings: Optional[List[ParseIssue]] = None,
        line_index: Optional[Dict[str, int]] = None,
    ):
        self.keyset = keyset
        self.warnings: List[ParseIssue] = [] if warnings is None else warnings
        self.line_index: Dict[str, int] = {} if line_index is None else line_index


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


def _parse_name(text: str, line_no: int) -> KeyName:
    try:
        return KeyName.parse(text)
    except InvalidNameError as exc:
        raise SpecParseError(line_no, ParseErrorKind.INVALID_NAME, str(exc)) from None


def parse_spec(text: Union[str, bytes]) -> SpecDocument:
    """Parse spec text into a SpecDocument. Raises SpecParseError."""
    decoded = _decode(text)
    # display -> [name, value, meta, value_set], in first-seen order
    entries: Dict[str, list] = {}
    warnings: List[ParseIssue] = []
    line_index: Dict[str, int] = {}
    section: Optional[list] = None  # the open section's entry

    for line_no, raw in enumerate(decoded.split("\n"), start=1):
        if "\r" in raw:
            if raw.endswith("\r"):
                raw = raw[:-1]
            if "\r" in raw:
                raise SpecParseError(
                    line_no, ParseErrorKind.BAD_ASSIGNMENT, "stray carriage return"
                )
        if "#" in raw:
            raw = strip_comment(raw)
        stripped = raw.strip(" \t")
        if not stripped:
            continue

        if stripped[0] == "[":
            if len(stripped) < 2 or stripped[-1] != "]":
                raise SpecParseError(
                    line_no, ParseErrorKind.BAD_SECTION, "unclosed section header"
                )
            name = _parse_name(stripped[1:-1].strip(" \t"), line_no)
            section = entries.get(name.display)
            if section is None:
                section = entries[name.display] = [name, "", {}, False]
                line_index[name.display] = line_no
            continue

        lhs, equals, rhs = stripped.partition("=")
        if not equals:
            raise SpecParseError(
                line_no, ParseErrorKind.BAD_ASSIGNMENT, "expected NAME=VALUE or [NAME]"
            )
        name_text = lhs.rstrip(" \t")
        value = rhs.lstrip(" \t")  # the line's end is already trimmed

        if section is not None:
            if name_text == VALUE_PROPERTY:
                if section[3]:
                    warnings.append(ParseIssue(
                        line_no,
                        ParseErrorKind.DUPLICATE_KEY,
                        f"value of {section[0].display!r} assigned again",
                    ))
                section[1] = value
                section[3] = True
            else:
                if not name_text:
                    raise SpecParseError(
                        line_no, ParseErrorKind.INVALID_NAME, "empty property name"
                    )
                meta = section[2]
                if name_text in meta:
                    warnings.append(ParseIssue(
                        line_no,
                        ParseErrorKind.DUPLICATE_KEY,
                        f"property {name_text!r} of {section[0].display!r} assigned again",
                    ))
                meta[name_text] = value
            continue

        if name_text == VALUE_PROPERTY:
            raise SpecParseError(
                line_no,
                ParseErrorKind.PROPERTY_OUTSIDE_SECTION,
                "reserved property 'value' outside any section",
            )
        name = _parse_name(name_text, line_no)
        entry = entries.get(name.display)
        if entry is None:
            entries[name.display] = [name, value, {}, True]
            line_index[name.display] = line_no
        else:
            warnings.append(ParseIssue(
                line_no, ParseErrorKind.DUPLICATE_KEY, f"key {name.display!r} assigned again"
            ))
            entry[1] = value
            entry[3] = True

    keyset = KeySet()
    for name, value, meta, _ in entries.values():
        keyset.insert(Key(name, value, meta))
    return SpecDocument(keyset=keyset, warnings=warnings, line_index=line_index)


def _check_representable(text: str, what: str) -> None:
    if "\n" in text or "\r" in text:
        raise UnserializableError(f"{what} {text!r} contains a newline")
    if text != text.strip(" \t"):
        raise UnserializableError(f"{what} {text!r} has leading or trailing whitespace")
    if text.startswith("#"):
        raise UnserializableError(f"{what} {text!r} starts with '#'")
    if " #" in text or "\t#" in text:
        raise UnserializableError(f"{what} {text!r} contains '#' after whitespace (comment rule)")


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
    return parse_spec(data)


def save_spec(path: PathLike, keys: Union[KeySet, SpecDocument]) -> None:
    """Serialize and atomically replace the spec file."""
    atomic_write_text(path, serialize_spec(keys))
