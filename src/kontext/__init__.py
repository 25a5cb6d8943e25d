"""kontext: context-aware configuration for unmodified programs.

Configuration keys live in a line-oriented spec file. Keys can delegate
their value to a name template rendered against the current set of context
layers (interface=wlan, network=home, ...). Layer state is a tiny file any
process may update atomically; a preloaded shared object intercepts getenv
and read-only open calls so existing binaries pick up context changes live,
without code changes or restarts.
"""

from .context import (
    CONTEXT_PROPERTY,
    WILDCARD,
    ContextState,
    LookupOutcome,
    candidates,
    contextual_lookup,
)
from .engine import PureBackend, make_backend
from .errors import (
    CorruptStateError,
    CycleDetectedError,
    DepthExceededError,
    EmptyLayerNameError,
    ExecFailedError,
    InvalidLayerError,
    InvalidNameError,
    InvalidValueError,
    KontextError,
    LockTimeoutError,
    SpecParseError,
    TemplateError,
    UnanchoredTemplateError,
    UnparseableTraceError,
    UnsafeLockError,
    UnserializableError,
    UnterminatedPlaceholderError,
)
from .keydb import Key, KeyName, KeySet
from .layerstate import (
    NotifyResult,
    default_state_path,
    notify,
    state_parse,
    state_read,
    state_serialize,
    state_set_layer,
    state_write,
)
from .scan import FileReport, OccurrenceKind, ScanReport, scan_file, scan_tree
from .shim import ShimSession, child_environment, preload_library_path
from .specfile import (
    ParseErrorKind,
    ParseIssue,
    SpecDocument,
    load_spec,
    parse_spec,
    save_spec,
    serialize_spec,
)
from .tracing import TraceRecord, TraceReport, aggregate, load_trace, parse_trace

__version__ = "0.1.0"

__all__ = [
    "CONTEXT_PROPERTY",
    "FileReport",
    "OccurrenceKind",
    "PureBackend",
    "ScanReport",
    "ShimSession",
    "TraceRecord",
    "TraceReport",
    "WILDCARD",
    "ContextState",
    "CorruptStateError",
    "CycleDetectedError",
    "DepthExceededError",
    "EmptyLayerNameError",
    "ExecFailedError",
    "InvalidLayerError",
    "InvalidNameError",
    "InvalidValueError",
    "Key",
    "KeyName",
    "KeySet",
    "KontextError",
    "LockTimeoutError",
    "LookupOutcome",
    "NotifyResult",
    "ParseErrorKind",
    "ParseIssue",
    "SpecDocument",
    "SpecParseError",
    "TemplateError",
    "UnanchoredTemplateError",
    "UnparseableTraceError",
    "UnsafeLockError",
    "UnserializableError",
    "UnterminatedPlaceholderError",
    "aggregate",
    "candidates",
    "child_environment",
    "contextual_lookup",
    "default_state_path",
    "load_spec",
    "load_trace",
    "make_backend",
    "notify",
    "parse_spec",
    "parse_trace",
    "preload_library_path",
    "save_spec",
    "scan_file",
    "scan_tree",
    "serialize_spec",
    "state_parse",
    "state_read",
    "state_serialize",
    "state_set_layer",
    "state_write",
    "__version__",
]
