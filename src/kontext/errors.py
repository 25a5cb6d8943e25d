"""Exception hierarchy shared across the package.

Everything raised on purpose derives from KontextError so callers can catch
one base class at API boundaries (the CLI maps them to exit codes).
"""

from __future__ import annotations

from typing import Optional, Sequence


class KontextError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNameError(KontextError):
    """A key name, segment, or property name violates the naming rules."""


class InvalidValueError(KontextError):
    """A key value or metadata value contains forbidden characters."""


class InvalidLayerError(KontextError):
    """A layer name or layer value cannot be represented."""


class TemplateError(KontextError):
    """Base class for template parse and render problems."""


class UnterminatedPlaceholderError(TemplateError):
    """A '%' opened a placeholder that never closed."""


class EmptyLayerNameError(TemplateError):
    """A placeholder contains no layer name after trimming."""


class UnanchoredTemplateError(TemplateError):
    """The template is empty or does not start with a literal part."""


class CycleDetectedError(KontextError):
    """Contextual resolution revisited a key already on the chain."""

    def __init__(self, chain: Sequence[str]):
        self.chain = tuple(chain)
        super().__init__("resolution cycle: " + " -> ".join(self.chain))


class DepthExceededError(KontextError):
    """Contextual resolution chain grew past the depth limit."""

    def __init__(self, chain: Sequence[str], limit: int):
        self.chain = tuple(chain)
        self.limit = limit
        super().__init__(f"resolution chain longer than {limit} keys")


class SpecParseError(KontextError):
    """Fatal problem while parsing spec text; carries line and kind."""

    def __init__(self, line: int, kind: "object", message: str):
        self.line = line
        self.kind = kind
        super().__init__(f"line {line}: {message}")


class UnserializableError(KontextError):
    """The line-oriented format cannot represent this key set faithfully."""


class CorruptStateError(KontextError):
    """The layer state file does not match the expected grammar."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"state line {line}: {message}")


class LockTimeoutError(KontextError):
    """The state file lock could not be acquired within the deadline."""


class UnsafeLockError(KontextError):
    """The state file's lock path is a symbolic link; writers refuse it."""


class UnparseableTraceError(KontextError):
    """A trace file line does not match the record grammar."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"trace line {line}: {message}")


class ExecFailedError(KontextError):
    """The target program could not be launched."""

    def __init__(self, program: str, reason: Optional[str] = None):
        self.program = program
        msg = f"cannot execute {program!r}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
