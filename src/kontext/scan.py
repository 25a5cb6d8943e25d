"""Source tree scanner: find getenv call sites and classify them.

For every file with a known extension the scanner separates comment,
string, and code regions using the language's comment and string syntax,
then finds whole-word, case-insensitive `getenv` occurrences and classifies
each:

    CALL               code occurrence followed by '(' (whitespace and
                       comments may intervene, across lines)
    COMMENT_OR_STRING  occurrence inside a comment or string literal
    IDENTIFIER         any other code occurrence (wrappers, assignments,
                       function pointers)

LOC counts lines that still contain non-whitespace after comment removal;
string content counts as code for this purpose. The per-tree summary also
derives lines-per-call, a coarse call-density figure.
"""

from __future__ import annotations

import enum
import functools
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORD_RE = re.compile(r"(?i)(?<![0-9A-Za-z_])getenv(?![0-9A-Za-z_])")

DEFAULT_EXTENSIONS = ("c", "h", "cc", "cpp", "hpp", "py", "sh", "js")


class OccurrenceKind(enum.Enum):
    CALL = "call"
    COMMENT_OR_STRING = "comment-or-string"
    IDENTIFIER = "identifier"


@dataclass(frozen=True)
class LanguageSyntax:
    line_comments: Tuple[str, ...] = ()
    block_comments: Tuple[Tuple[str, str], ...] = ()
    quotes: Tuple[str, ...] = ()
    triple_quotes: Tuple[str, ...] = ()
    escape_in_quotes: bool = True


C_LIKE = LanguageSyntax(
    line_comments=("//",),
    block_comments=(("/*", "*/"),),
    quotes=('"', "'"),
)
PYTHON = LanguageSyntax(
    line_comments=("#",),
    quotes=('"', "'"),
    triple_quotes=('"""', "'''"),
)
SHELL = LanguageSyntax(
    line_comments=("#",),
    quotes=('"', "'"),
    escape_in_quotes=False,
)
JS = LanguageSyntax(
    line_comments=("//",),
    block_comments=(("/*", "*/"),),
    quotes=('"', "'", "`"),
)

LANGUAGES: Dict[str, LanguageSyntax] = {
    "c": C_LIKE,
    "h": C_LIKE,
    "cc": C_LIKE,
    "cpp": C_LIKE,
    "hpp": C_LIKE,
    "cxx": C_LIKE,
    "hh": C_LIKE,
    "java": C_LIKE,
    "go": C_LIKE,
    "rs": C_LIKE,
    "py": PYTHON,
    "pyi": PYTHON,
    "sh": SHELL,
    "bash": SHELL,
    "js": JS,
    "ts": JS,
}

# per-character region classes
_CODE = "c"
_COMMENT = "m"
_STRING = "s"
_COMMENT_RUN = re.compile(_COMMENT + "+")


@functools.lru_cache(maxsize=None)
def _regions(syntax: LanguageSyntax) -> Tuple[re.Pattern, Dict[str, Tuple[str, re.Pattern]]]:
    """The opener alternation, and for each opener its region class and
    the pattern of the region after the opener. A pattern that does not
    match leaves the region open to the end of the text."""
    regions: Dict[str, Tuple[str, re.Pattern]] = {}
    for marker in syntax.line_comments:
        regions.setdefault(marker, (_COMMENT, re.compile(r"[^\n]*")))
    for begin, end in syntax.block_comments:
        regions.setdefault(begin, (_COMMENT, re.compile(r"(?s:.*?)" + re.escape(end))))
    for quote in syntax.triple_quotes:
        regions.setdefault(quote, (_STRING, re.compile(r"(?s:.*?)" + re.escape(quote))))
    for quote in syntax.quotes:
        # a plain string ends at its close or at the line end; an escape
        # skips one character, never the newline
        q = re.escape(quote)
        plain = rf"[^{q}\\\n]*"
        body = rf"{plain}(?:\\[^\n]?{plain})*" if syntax.escape_in_quotes else rf"[^{q}\n]*"
        regions.setdefault(quote, (_STRING, re.compile(body + q + "?")))
    # dict order is priority order; the alternation tries it left to right
    opener = re.compile("|".join(re.escape(marker) for marker in regions))
    return opener, regions


def _mask(text: str, syntax: LanguageSyntax) -> str:
    """One region class per character of text: code, comment or string."""
    opener, regions = _regions(syntax)
    if not regions:
        return _CODE * len(text)
    parts: List[str] = []
    pos = 0
    while True:
        found = opener.search(text, pos)
        if found is None:
            break
        cls, body = regions[found.group()]
        closed = body.match(text, found.end())
        end = closed.end() if closed else len(text)
        parts.append(_CODE * (found.start() - pos))
        parts.append(cls * (end - found.start()))
        pos = end
    parts.append(_CODE * (len(text) - pos))
    return "".join(parts)


@dataclass(frozen=True)
class Occurrence:
    line: int  # 1-based
    column: int  # 0-based
    kind: OccurrenceKind


@dataclass
class FileReport:
    path: str
    loc: int = 0
    occurrences: List[Occurrence] = field(default_factory=list)
    error: Optional[str] = None

    def count(self, kind: OccurrenceKind) -> int:
        return sum(1 for occ in self.occurrences if occ.kind is kind)


@dataclass
class ScanTotals:
    files: int = 0
    loc: int = 0
    calls: int = 0
    comment_or_string: int = 0
    identifiers: int = 0
    errors: int = 0

    @property
    def lines_per_call(self) -> Optional[int]:
        if self.calls == 0:
            return None
        return round(self.loc / self.calls)


@dataclass
class ScanReport:
    files: List[FileReport]
    totals: ScanTotals


def scan_text(path: str, text: str, syntax: LanguageSyntax) -> FileReport:
    mask = _mask(text, syntax)
    report = FileReport(path=path)

    # a line counts when something other than comment and whitespace is left
    kept: List[str] = []
    pos = 0
    for run in _COMMENT_RUN.finditer(mask):
        kept.append(text[pos:run.start()])
        kept.append("\n" * text.count("\n", run.start(), run.end()))
        pos = run.end()
    kept.append(text[pos:])
    report.loc = sum(1 for line in "".join(kept).split("\n") if line.strip())

    line, line_start = 1, 0
    for match in WORD_RE.finditer(text):
        start = match.start()
        line += text.count("\n", line_start, start)
        line_start = text.rfind("\n", 0, start) + 1
        if mask[start] != _CODE:
            kind = OccurrenceKind.COMMENT_OR_STRING
        else:
            i = match.end()
            while i < len(text) and (mask[i] == _COMMENT or text[i].isspace()):
                i += 1
            kind = OccurrenceKind.CALL if text.startswith("(", i) else OccurrenceKind.IDENTIFIER
        report.occurrences.append(Occurrence(line=line, column=start - line_start, kind=kind))
    return report


def scan_file(path) -> FileReport:
    path = Path(path)
    syntax = LANGUAGES.get(path.suffix.lstrip(".").lower())
    if syntax is None:
        return FileReport(path=str(path), error="unknown extension")
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        return FileReport(path=str(path), error=str(exc))
    return scan_text(str(path), text, syntax)


def scan_tree(root, extensions: Sequence[str] = DEFAULT_EXTENSIONS) -> ScanReport:
    """Scan every matching file under root (deterministic order)."""
    wanted = {ext.lstrip(".").lower() for ext in extensions}
    reports: List[FileReport] = []
    root = Path(root)
    if root.is_file():
        reports.append(scan_file(root))
    else:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                ext = Path(filename).suffix.lstrip(".").lower()
                if ext in wanted:
                    reports.append(scan_file(Path(dirpath) / filename))

    totals = ScanTotals()
    for rep in reports:
        if rep.error is not None:
            totals.errors += 1
            continue
        totals.files += 1
        totals.loc += rep.loc
        totals.calls += rep.count(OccurrenceKind.CALL)
        totals.comment_or_string += rep.count(OccurrenceKind.COMMENT_OR_STRING)
        totals.identifiers += rep.count(OccurrenceKind.IDENTIFIER)
    return ScanReport(files=reports, totals=totals)
