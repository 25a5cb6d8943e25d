"""Layered context, name templates, and contextual key lookup.

A context is a set of layers, each a name bound to a single string value,
plus a generation counter bumped on every change. Templates are key names
with %layer% placeholders; rendering one against a context yields the list
of candidate names to probe, most specific first. A key whose metadata
carries the `context` property resolves indirectly: the first candidate
present in the key set is followed, recursively, until a key without the
property supplies the value.

Candidate order is fixed: with k placeholders referencing active layers,
all 2^k combinations of {concrete, *} are emitted in descending order of
the binary string formed by writing 1 for concrete and 0 for *, leftmost
placeholder first. Placeholders naming unset layers are pinned to *.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

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
from .keydb import Key, KeyName, KeySet, NameLike

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


@dataclass(frozen=True)
class ContextState:
    """Immutable snapshot of active layers plus a generation counter."""

    layers: Mapping[str, str] = field(default_factory=dict)
    generation: int = 0

    def __post_init__(self):
        frozen = {}
        for name, value in self.layers.items():
            frozen[check_layer_name(name)] = check_layer_value(value)
        object.__setattr__(self, "layers", frozen)

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


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class LayerRef:
    layer: str


TemplatePart = Union[Literal, LayerRef]


@dataclass(frozen=True)
class Template:
    """Parsed template; display form round-trips to the source text."""

    text: str
    parts: Tuple[TemplatePart, ...]

    @property
    def refs(self) -> Tuple[str, ...]:
        return tuple(p.layer for p in self.parts if isinstance(p, LayerRef))

    def __str__(self) -> str:
        return self.text


def template_parse(text: str) -> Template:
    """Parse %layer% placeholders; %% is a literal percent sign."""
    parts: List[TemplatePart] = []
    literal: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "%":
            literal.append(ch)
            i += 1
            continue
        if i + 1 < n and text[i + 1] == "%":
            literal.append("%")
            i += 2
            continue
        end = text.find("%", i + 1)
        if end < 0:
            raise UnterminatedPlaceholderError(f"unterminated placeholder in {text!r}")
        name = text[i + 1 : end].strip(" \t")
        if not name:
            raise EmptyLayerNameError(f"empty layer name in {text!r}")
        if literal:
            parts.append(Literal("".join(literal)))
            literal = []
        parts.append(LayerRef(name))
        i = end + 1
    if literal:
        parts.append(Literal("".join(literal)))
    if not parts:
        raise UnanchoredTemplateError("empty template")
    if not isinstance(parts[0], Literal):
        raise UnanchoredTemplateError(f"template {text!r} must start with a literal")
    if sum(1 for p in parts if isinstance(p, LayerRef)) > MAX_TEMPLATE_REFS:
        raise UnanchoredTemplateError(
            f"template {text!r} has more than {MAX_TEMPLATE_REFS} layer references"
        )
    return Template(text=text, parts=tuple(parts))


def candidates(template: Template, ctx: ContextState) -> List[KeyName]:
    """Candidate key names, most specific first.

    Exactly 2^a names for a active references; references to unset layers
    always render as '*'. Order is descending over the concrete/wildcard
    bitmask read leftmost-reference-first.
    """
    ref_parts = [p for p in template.parts if isinstance(p, LayerRef)]
    k = len(ref_parts)
    active_mask = 0
    values: List[Optional[str]] = []
    for idx, part in enumerate(ref_parts):
        value = ctx.get(part.layer)
        values.append(value)
        if value is not None:
            active_mask |= 1 << (k - 1 - idx)

    names: List[KeyName] = []

    def render(mask: int) -> KeyName:
        out: List[str] = []
        ref_idx = 0
        for part in template.parts:
            if isinstance(part, Literal):
                out.append(part.text)
            else:
                bit = 1 << (k - 1 - ref_idx)
                if mask & bit:
                    out.append(values[ref_idx])  # active, guaranteed not None
                else:
                    out.append(WILDCARD)
                ref_idx += 1
        rendered = "".join(out)
        try:
            return KeyName.parse(rendered)
        except InvalidNameError:
            raise TemplateError(
                f"template {template.text!r} renders invalid name {rendered!r}"
            ) from None

    mask = active_mask
    while True:
        names.append(render(mask))
        if mask == 0:
            break
        mask = (mask - 1) & active_mask
    return names


@dataclass(frozen=True)
class LookupOutcome:
    """Successful contextual resolution. Names are in display form."""

    value: str
    matched_name: str
    chain: Tuple[str, ...]


def contextual_lookup(
    keys: KeySet,
    name: NameLike,
    ctx: ContextState,
    template_cache: Optional[Dict[str, Template]] = None,
) -> Optional[LookupOutcome]:
    """Resolve a key through its `context` metadata, recursively.

    Returns None when the key is absent, or when an indirection finds no
    candidate and the indirecting key has an empty own value. Raises
    CycleDetectedError on a revisited name and DepthExceededError when the
    chain would exceed MAX_CHAIN_LENGTH keys. Template errors propagate.
    """
    current = KeyName.parse(name) if not isinstance(name, KeyName) else name
    chain: List[str] = []
    seen: set = set()

    while True:
        display = current.display
        if display in seen:
            raise CycleDetectedError(chain + [display])
        if len(chain) >= MAX_CHAIN_LENGTH:
            raise DepthExceededError(chain, MAX_CHAIN_LENGTH)
        chain.append(display)
        seen.add(display)

        key = keys.get(current)
        if key is None:
            return None
        template_text = key.meta.get(CONTEXT_PROPERTY)
        if template_text is None:
            return LookupOutcome(key.value, display, tuple(chain))

        if template_cache is not None and template_text in template_cache:
            template = template_cache[template_text]
        else:
            template = template_parse(template_text)
            if template_cache is not None:
                template_cache[template_text] = template

        chosen: Optional[KeyName] = None
        for candidate in candidates(template, ctx):
            if keys.get(candidate) is not None:
                chosen = candidate
                break
        if chosen is None:
            if key.value:
                return LookupOutcome(key.value, display, tuple(chain))
            return None
        current = chosen
