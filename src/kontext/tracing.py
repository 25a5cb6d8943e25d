"""Trace files written by the preload shim: parsing and call analysis.

A trace is tab-separated records, one per line:

    <monotonic-ns> TAB <kind> TAB <fields...>

Record kinds and their fields:

    getenv       name, outcome (hit|fallthrough|null), value (may be empty)
    open         canonical path, outcome, shadow path (on hit)
    start        mode (active|passthrough), '-' (unused, so the record
                 keeps its shape), process t0 in monotonic ns (constructor
                 timestamp)
    init         spec image outcome (mapped|written[:<found>]|stale|
                 refused:<rule>|unwritable|-), and the us the first call spent
                 per stage: read=..;hash=..;load=..;write=..;state=..;slots=..;
                 total=..
    init-failed  why the process stays passthrough: spec unreadable (errno
                 N) (missing, no permission), spec refused: not a regular
                 file (a directory, FIFO or device), spec parse failed: line
                 N: message, answer slots: out of memory, or name table: out
                 of memory
    note         topic, then what failed open and why: lookup-error (key,
                 error), shadow-render-error (key, error),
                 shadow-store-refused (store), state-refused (rule: symlink,
                 unreadable, type, owner, links or mode), state-read-failed
                 (path), state-corrupt (error). The state notes repeat at
                 each read of the file that fails, at most one per word move
                 and one per once-a-second full check.
    reload       generation of the state adopted (not written for the
                 state the first call loads)

A process writes each record with one write(), so every count survives
_exit, exec and a fatal signal: calls are the getenv records, hits those
with outcome hit, reloads the reload records.

Tabs, newlines, carriage returns, and backslashes inside fields are escaped
as \\t, \\n, \\r, \\\\.

The analysis splits getenv activity at a startup cutoff: names first seen
after ``t0 + startup_ms`` are the calls a restart would not have served,
and the subset present in the spec under getenv/ is what context switching
could retarget live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import UnparseableTraceError
from .keydb import KeySet

RECORD_GETENV = "getenv"
RECORD_START = "start"

GETENV_OUTCOMES = ("hit", "fallthrough", "null")

_UNESCAPE = {"t": "\t", "n": "\n", "r": "\r", "\\": "\\"}


def unescape_field(text: str, line_no: int = 0) -> str:
    if "\\" not in text:
        return text
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n or text[i + 1] not in _UNESCAPE:
            raise UnparseableTraceError(line_no, f"bad escape in field {text!r}")
        out.append(_UNESCAPE[text[i + 1]])
        i += 2
    return "".join(out)


def escape_field(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


@dataclass(frozen=True)
class TraceRecord:
    ns: int
    kind: str
    fields: Tuple[str, ...]  # everything after the kind, unescaped


def parse_trace(text: str) -> List[TraceRecord]:
    """Parse trace text strictly. Raises UnparseableTraceError."""
    records: List[TraceRecord] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise UnparseableTraceError(line_no, "record needs at least ns and kind")
        if not parts[0].isdigit():
            raise UnparseableTraceError(line_no, f"bad timestamp {parts[0]!r}")
        ns = int(parts[0])
        kind = parts[1]
        fields = tuple(unescape_field(p, line_no) for p in parts[2:])
        if kind == RECORD_GETENV:
            if len(fields) != 3:
                raise UnparseableTraceError(line_no, "getenv record needs 5 columns")
            if fields[1] not in GETENV_OUTCOMES:
                raise UnparseableTraceError(line_no, f"bad outcome {fields[1]!r}")
        records.append(TraceRecord(ns, kind, fields))
    return records


def load_trace(path) -> List[TraceRecord]:
    try:
        # names and values are the traced program's bytes, not always UTF-8
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return parse_trace(handle.read())
    except FileNotFoundError:
        return []  # the child never initialized the shim: an empty trace


@dataclass
class TraceReport:
    """Startup-window analysis of getenv records."""

    total_calls: int
    unique_names: int
    later_unique: int
    config_candidates: int
    t0_ns: int
    startup_ms: int
    later_names: List[str] = field(default_factory=list)
    config_names: List[str] = field(default_factory=list)
    mode: Optional[str] = None


def aggregate(
    records: Iterable[TraceRecord],
    startup_ms: int,
    spec_keyset: Optional[KeySet] = None,
    fallback_t0_ns: Optional[int] = None,
) -> TraceReport:
    """Build the call report from parsed records.

    t0 priority: the shim's start record (which carries the constructor
    timestamp), then fallback_t0_ns (a monotonic reading taken by the
    parent just before spawning), then the first record's timestamp.
    """
    records = list(records)
    t0: Optional[int] = None
    mode: Optional[str] = None
    for rec in records:
        if rec.kind == RECORD_START:
            if len(rec.fields) >= 1:
                mode = rec.fields[0]
            if len(rec.fields) >= 3 and rec.fields[2].isdigit():
                t0 = int(rec.fields[2])
            else:
                t0 = rec.ns
            break
    if t0 is None:
        t0 = fallback_t0_ns
    if t0 is None:
        t0 = records[0].ns if records else 0

    cutoff = t0 + startup_ms * 1_000_000
    first_seen: Dict[str, int] = {}
    total = 0
    for rec in records:
        if rec.kind != RECORD_GETENV:
            continue
        total += 1
        name = rec.fields[0]
        if name not in first_seen or rec.ns < first_seen[name]:
            first_seen[name] = rec.ns

    later = sorted(name for name, ns in first_seen.items() if ns > cutoff)
    keyset = spec_keyset if spec_keyset is not None else KeySet()
    config = sorted(name for name in later if keyset.get("getenv/" + name) is not None)
    return TraceReport(
        total_calls=total,
        unique_names=len(first_seen),
        later_unique=len(later),
        config_candidates=len(config),
        t0_ns=t0,
        startup_ms=startup_ms,
        later_names=later,
        config_names=config,
        mode=mode,
    )
