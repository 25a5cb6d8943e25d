"""make_backend, for perfbench's engine.lookup_us reading; no command imports
this module. The Python engine is contextual_lookup (context.py) over a
parsed KeySet, which `kontext get` calls directly.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from .context import contextual_lookup
from .specfile import SpecDocument


# kept for perfbench's make_backend(doc, "auto"); goes when the benchmark retires it
def make_backend(doc: SpecDocument, backend: str = "auto") -> SimpleNamespace:
    """An object whose lookup(name, ctx) is contextual_lookup over doc's keys;
    `backend` is not read."""
    return SimpleNamespace(lookup=partial(contextual_lookup, doc.keyset))
