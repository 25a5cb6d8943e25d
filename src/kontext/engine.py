"""The Python lookup engine behind `kontext get` and the tests' reference.

The preload shim runs the C engine (native/core.c); the test suite checks
the two against each other through a ctypes binding of core.c. Here there
is one backend: contextual_lookup over a parsed KeySet.
"""

from __future__ import annotations

from typing import Optional, Union

from .context import ContextState, LookupOutcome, contextual_lookup
from .keydb import KeySet
from .specfile import SpecDocument, parse_spec

SpecLike = Union[SpecDocument, KeySet, str, bytes]


def _as_document(spec: SpecLike) -> SpecDocument:
    if isinstance(spec, SpecDocument):
        return spec
    if isinstance(spec, KeySet):
        return SpecDocument(keyset=spec)
    return parse_spec(spec)


class PureBackend:
    """contextual_lookup over a parsed KeySet."""

    name = "pure"

    def __init__(self, keyset: KeySet):
        self._keyset = keyset

    def has_key(self, name: str) -> bool:
        return self._keyset.get(name) is not None

    def lookup(self, name: str, ctx: ContextState) -> Optional[LookupOutcome]:
        return contextual_lookup(self._keyset, name, ctx)


def make_backend(spec: SpecLike, backend: str = "auto") -> PureBackend:
    """Build the lookup backend from a spec in any shape.

    `backend` is "auto" or "pure"; both give the Python engine.
    """
    # kept for perfbench's make_backend(doc, "auto"); goes when the benchmark retires it
    if backend not in ("auto", "pure"):
        raise ValueError(f"unknown backend {backend!r} (auto or pure)")
    return PureBackend(_as_document(spec).keyset)
