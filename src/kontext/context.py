"""Layered context, name templates, and contextual key lookup.

A context is a set of layers, each a name bound to a single string value,
plus a generation counter bumped on every change. Templates are key names
with %layer% placeholders, read as text one piece at a time like core.c's
kx_piece; rendering one against a context yields the list of candidate
names to probe, most specific first. A key whose metadata carries the
`context` property resolves indirectly: the first candidate present in the
key set is followed, recursively, until a key without the property
supplies the value.

Candidate order is fixed: with k placeholders referencing active layers,
all 2^k combinations of {concrete, *} are emitted in descending order of
the binary string formed by writing 1 for concrete and 0 for *, leftmost
placeholder first. Placeholders naming unset layers are pinned to *.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

from .errors import (
    CycleDetectedError,
    DepthExceededError,
    EmptyLayerNameError,
    InvalidLayerError,
    InvalidNameError,
    TemplateError,
    UnanchoredTemplateError,
    UnterminatedPlaceholderError,
)
from .keydb import FrozenRecord, KeyName, KeySet, NameLike

WILDCARD = "*"
CONTEXT_PROPERTY = "context"
MAX_CHAIN_LENGTH = 16
MAX_TEMPLATE_REFS = 16

_LAYER_NAME_FORBIDDEN = ("/", "=", "\n", "\r", "%", "\0")
_LAYER_VALUE_FORBIDDEN = ("/", "=", "\n", "\r", "\0")


def check_layer_name(name: str) -> str:
    if not name or name != name.strip(" \t"):
        raise InvalidLayerError(f"bad layer name {name!r}")
    for ch in _LAYER_NAME_FORBIDDEN:
        if ch in name:
            raise InvalidLayerError(f"layer name {name!r} contains forbidden {ch!r}")
    return name


def check_layer_value(value: str) -> str:
    if not value or value != value.strip(" \t"):
        raise InvalidLayerError(f"bad layer value {value!r}")
    if value == WILDCARD:
        raise InvalidLayerError("layer value '*' would alias the wildcard")
    for ch in _LAYER_VALUE_FORBIDDEN:
        if ch in value:
            raise InvalidLayerError(f"layer value {value!r} contains forbidden {ch!r}")
    return value


class ContextState(FrozenRecord):
    """Immutable snapshot of active layers plus a generation counter."""

    __slots__ = ("layers", "generation")

    def __init__(self, layers: Optional[Mapping[str, str]] = None, generation: int = 0):
        frozen = {}
        for name, value in (layers or {}).items():
            frozen[check_layer_name(name)] = check_layer_value(value)
        self._init(frozen, generation)

    def with_layer(self, name: str, value: str) -> "ContextState":
        """New state with the layer set; generation always advances."""
        layers = dict(self.layers)
        layers[check_layer_name(name)] = check_layer_value(value)
        return ContextState(layers, self.generation + 1)

    def without_layer(self, name: str) -> "ContextState":
        """New state with the layer unset; generation always advances."""
        layers = dict(self.layers)
        layers.pop(name, None)
        return ContextState(layers, self.generation + 1)

    def get(self, name: str) -> Optional[str]:
        return self.layers.get(name)


def template_pieces(text: str) -> List[Tuple[bool, str]]:
    """The pieces of a template, left to right, as (is_ref, text) pairs.

    A piece is a run of literal text, the '%' of a "%%", or a %layer%
    reference, whose layer name is trimmed of spaces and tabs. Raises a
    TemplateError for an unterminated placeholder, an empty layer name, a
    template that does not start with literal text, or more than
    MAX_TEMPLATE_REFS references.
    """
    pieces: List[Tuple[bool, str]] = []
    i, n = 0, len(text)
    while i < n:
        if text[i] != "%":
            end = text.find("%", i)
            end = n if end < 0 else end
            pieces.append((False, text[i:end]))
            i = end
        elif text.startswith("%%", i):
            pieces.append((False, "%"))
            i += 2
        else:
            end = text.find("%", i + 1)
            if end < 0:
                raise UnterminatedPlaceholderError(f"unterminated placeholder in {text!r}")
            layer = text[i + 1 : end].strip(" \t")
            if not layer:
                raise EmptyLayerNameError(f"empty layer name in {text!r}")
            pieces.append((True, layer))
            i = end + 1
    if not pieces:
        raise UnanchoredTemplateError("empty template")
    if pieces[0][0]:
        raise UnanchoredTemplateError(f"template {text!r} must start with a literal")
    if sum(is_ref for is_ref, _ in pieces) > MAX_TEMPLATE_REFS:
        raise UnanchoredTemplateError(
            f"template {text!r} has more than {MAX_TEMPLATE_REFS} layer references"
        )
    return pieces


def candidates(template_text: str, ctx: ContextState) -> List[str]:
    """Candidate key names, most specific first.

    Exactly 2^a names for a active references; references to unset layers
    always render as '*'. Order is descending over the concrete/wildcard
    bitmask read leftmost-reference-first.
    """
    return list(_each_candidate(template_text, ctx))


def _each_candidate(template_text: str, ctx: ContextState) -> Iterator[str]:
    """candidates one at a time, each rendered and checked only when asked
    for, so a lookup stops rendering at its first hit as kx_lookup does."""
    pieces = template_pieces(template_text)
    values = [ctx.get(s) for is_ref, s in pieces if is_ref]
    k = len(values)
    active = 0
    for value in values:
        active = active << 1 | (value is not None)

    mask = active
    while True:
        out: List[str] = []
        ref = 0
        for is_ref, s in pieces:
            if is_ref:
                s = values[ref] if mask >> (k - 1 - ref) & 1 else WILDCARD
                ref += 1
            out.append(s)
        rendered = "".join(out)
        try:
            KeyName.parse(rendered)
        except InvalidNameError:
            raise TemplateError(
                f"template {template_text!r} renders invalid name {rendered!r}"
            ) from None
        yield rendered
        if mask == 0:
            return
        mask = (mask - 1) & active


class LookupOutcome(FrozenRecord):
    """Successful contextual resolution. Names are in display form."""

    __slots__ = ("value", "matched_name", "chain")

    def __init__(self, value: str, matched_name: str, chain: Tuple[str, ...]):
        self._init(value, matched_name, chain)


def contextual_lookup(
    keys: KeySet, name: NameLike, ctx: ContextState
) -> Optional[LookupOutcome]:
    """Resolve a key through its `context` metadata, recursively.

    Returns None when the key is absent, or when an indirection finds no
    candidate and the indirecting key has an empty own value. Raises
    CycleDetectedError on a revisited name and DepthExceededError when the
    chain would exceed MAX_CHAIN_LENGTH keys. Template errors propagate.
    """
    current = KeyName.parse(name).display
    chain: List[str] = []

    while True:
        if current in chain:
            raise CycleDetectedError(chain + [current])
        if len(chain) >= MAX_CHAIN_LENGTH:
            raise DepthExceededError(chain, MAX_CHAIN_LENGTH)
        chain.append(current)

        key = keys.get(current)
        if key is None:
            return None
        template_text = key.meta.get(CONTEXT_PROPERTY)
        if template_text is None:
            return LookupOutcome(key.value, current, tuple(chain))

        chosen = next((c for c in _each_candidate(template_text, ctx) if c in keys), None)
        if chosen is None:
            if key.value:
                return LookupOutcome(key.value, current, tuple(chain))
            return None
        current = chosen
