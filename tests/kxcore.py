"""ctypes binding of the C engine: native/core.c built alone as _kxcore.so.

Key sets are reached only through core.h's accessors, so the binding does
not depend on their layout; the state, result and error structs mirror
core.h's. Every call raises the Python engine's exception with the same kind
and line, so the equivalence tests drive both engines through one contract.
Call load() once before using anything else.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from ctypes import (POINTER, Structure, byref, c_char, c_char_p, c_int, c_longlong, c_size_t,
                    c_uint64, c_void_p)
from typing import Dict, List, Mapping, Optional, Tuple

from kontext.context import ContextState, LookupOutcome
from kontext.errors import (
    CorruptStateError,
    CycleDetectedError,
    DepthExceededError,
    InvalidNameError,
    KontextError,
    SpecParseError,
    TemplateError,
)
from kontext.keydb import KeyName
from kontext.specfile import ParseErrorKind

KX_OK, KX_ABSENT, KX_E_NOMEM = 0, 1, -1
KX_E_TEMPLATE, KX_E_CYCLE, KX_E_DEPTH = -4, -5, -6
KX_MAX_CHAIN = 16

_PARSE_KINDS = {
    1: ParseErrorKind.BAD_SECTION,
    2: ParseErrorKind.BAD_ASSIGNMENT,
    3: ParseErrorKind.PROPERTY_OUTSIDE_SECTION,
    4: ParseErrorKind.INVALID_NAME,
    5: ParseErrorKind.ENCODING,
}


class Error(Structure):
    _fields_ = [("line", c_int), ("kind", c_int), ("message", c_char * 160)]


class State(Structure):
    _fields_ = [("names", POINTER(c_char_p)), ("values", POINTER(c_char_p)),
                ("len", c_size_t), ("cap", c_size_t), ("generation", c_longlong)]


class Result(Structure):
    _fields_ = [("value", c_char_p), ("matched", c_char_p),
                ("chain", POINTER(c_char_p)), ("chain_len", c_size_t)]


# every core.h function the binding calls: (restype, argtypes)
# (key sets and keys are opaque pointers)
SIGNATURES = {
    "kx_keyset_sizeof": (c_size_t, []),
    "kx_keyset_free": (None, [c_void_p]),
    "kx_keyset_len": (c_size_t, [c_void_p]),
    "kx_keyset_at": (c_void_p, [c_void_p, c_size_t]),
    "kx_keyset_get": (c_void_p, [c_void_p, c_char_p]),
    "kx_key_name": (c_char_p, [c_void_p]),
    "kx_key_value": (c_char_p, [c_void_p]),
    "kx_key_nprops": (c_size_t, [c_void_p]),
    "kx_key_prop": (c_char_p, [c_void_p, c_size_t, POINTER(c_char_p)]),
    "kx_keyset_image": (c_void_p, [c_void_p, c_char_p, c_size_t, POINTER(c_size_t)]),
    "kx_keyset_from_image": (c_int, [c_void_p, c_size_t, c_uint64, c_uint64, c_void_p,
                                     POINTER(c_char_p)]),
    "kx_hash64": (c_uint64, [c_char_p, c_size_t]),
    "kx_name_valid": (c_int, [c_char_p]),
    "kx_parse_spec": (c_int, [c_char_p, c_size_t, c_void_p, POINTER(Error)]),
    "kx_state_init": (None, [POINTER(State)]),
    "kx_state_free": (None, [POINTER(State)]),
    "kx_state_set": (c_int, [POINTER(State), c_char_p, c_char_p]),
    "kx_parse_state": (c_int, [c_char_p, c_size_t, POINTER(State), POINTER(Error)]),
    "kx_candidates": (c_int, [c_char_p, POINTER(State), POINTER(POINTER(c_char_p)),
                              POINTER(c_size_t), POINTER(Error)]),
    "kx_names_free": (None, [POINTER(c_char_p), c_size_t]),
    "kx_lookup": (c_int, [c_void_p, c_char_p, POINTER(State), POINTER(Result),
                          POINTER(Error)]),
    "kx_result_free": (None, [POINTER(Result)]),
}

_lib: Optional[ctypes.CDLL] = None


def load(path) -> ctypes.CDLL:
    """Bind the _kxcore.so at `path` for every later call."""
    global _lib
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in SIGNATURES.items():
        func = getattr(lib, name)
        func.restype, func.argtypes = restype, argtypes
    _lib = lib
    return lib


def _as_bytes(text) -> bytes:
    return text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)


def _message(err: Error) -> str:
    return err.message.decode("utf-8", "replace")


@contextmanager
def _state(layers: Mapping[str, str]):
    st = State()
    _lib.kx_state_init(byref(st))
    try:
        for name, value in layers.items():
            if _lib.kx_state_set(byref(st), _as_bytes(name), _as_bytes(value)) != KX_OK:
                raise MemoryError()
        yield st
    finally:
        _lib.kx_state_free(byref(st))


class ImageRefused(Exception):
    """kx_keyset_from_image refused an image; args[0] names the rule."""


class Engine:
    """A spec parsed by kx_parse_spec, or an image adopted by
    kx_keyset_from_image; the backend contract served by kx_lookup."""

    name = "c"

    def __init__(self, spec_text):
        self._ks = ctypes.create_string_buffer(_lib.kx_keyset_sizeof())
        self._text = data = _as_bytes(spec_text)
        err = Error()
        rc = _lib.kx_parse_spec(data, len(data), self._ks, byref(err))
        if rc == KX_E_NOMEM:
            raise MemoryError()
        if rc != KX_OK:
            raise SpecParseError(err.line, _PARSE_KINDS.get(err.kind), _message(err))

    @classmethod
    def from_image(cls, image, spec_text) -> "Engine":
        """The key set in `image`, a writable buffer (bytearray, mmap) kept
        alive with the engine, checked against `spec_text`."""
        self = cls.__new__(cls)
        self._ks = ctypes.create_string_buffer(_lib.kx_keyset_sizeof())
        self._image, self._text = image, _as_bytes(spec_text)
        address = ctypes.addressof(ctypes.c_char.from_buffer(image))
        why = c_char_p()
        rc = _lib.kx_keyset_from_image(address, len(image), len(self._text), hash64(self._text),
                                       self._ks, byref(why))
        if rc != KX_OK:
            raise ImageRefused(why.value.decode())
        return self

    def __del__(self):
        _lib.kx_keyset_free(self._ks)

    def image(self) -> bytes:
        """The image of the parsed spec: what the shim writes as <spec>.kxi."""
        size = c_size_t()
        address = _lib.kx_keyset_image(self._ks, self._text, len(self._text), byref(size))
        return ctypes.string_at(address, size.value)

    def entries(self) -> Dict[str, Tuple[str, Dict[str, str]]]:
        """{name: (value, meta)} in key set order."""
        out = {}
        for i in range(_lib.kx_keyset_len(self._ks)):
            key, meta = _lib.kx_keyset_at(self._ks, i), {}
            for j in range(_lib.kx_key_nprops(key)):
                value = c_char_p()
                prop = _lib.kx_key_prop(key, j, byref(value))
                meta[prop.decode()] = value.value.decode()
            out[_lib.kx_key_name(key).decode()] = (_lib.kx_key_value(key).decode(), meta)
        return out

    def has_key(self, name: str) -> bool:
        return bool(_lib.kx_keyset_get(self._ks, _as_bytes(name)))

    def lookup(self, name: str, ctx: ContextState) -> Optional[LookupOutcome]:
        if not name_valid(name):
            KeyName.parse(name)  # the pure engine's exception and message
            raise InvalidNameError(f"invalid key name: {name!r}")
        res, err = Result(), Error()
        data = _as_bytes(name)  # the chain's first entry points into it
        with _state(ctx.layers) as st:
            rc = _lib.kx_lookup(self._ks, data, byref(st), byref(res), byref(err))
        chain = tuple(link.decode() for link in res.chain[: res.chain_len])
        outcome = None
        if rc == KX_OK:
            outcome = LookupOutcome(res.value.decode(), res.matched.decode(), chain)
        _lib.kx_result_free(byref(res))
        if rc in (KX_OK, KX_ABSENT):
            return outcome
        if rc == KX_E_CYCLE:
            raise CycleDetectedError(chain)
        if rc == KX_E_DEPTH:
            raise DepthExceededError(chain, KX_MAX_CHAIN)
        if rc == KX_E_TEMPLATE:
            raise TemplateError(_message(err))
        if rc == KX_E_NOMEM:
            raise MemoryError()
        raise KontextError(_message(err))


def candidates(template_text: str, layers: Mapping[str, str]) -> List[str]:
    """Candidate names for a template under the given layers, in order."""
    names, count, err = POINTER(c_char_p)(), c_size_t(), Error()
    with _state(layers) as st:
        rc = _lib.kx_candidates(_as_bytes(template_text), byref(st), byref(names),
                                byref(count), byref(err))
    if rc == KX_E_NOMEM:
        raise MemoryError()
    if rc != KX_OK:
        raise TemplateError(_message(err))
    out = [name.decode() for name in names[: count.value]]
    _lib.kx_names_free(names, count)
    return out


def hash64(data: bytes) -> int:
    """kx_hash64 of data: the spec hash and checksum of an image's header."""
    return _lib.kx_hash64(data, len(data))


def name_valid(name: str) -> bool:
    """True when the C core accepts this key name."""
    return _lib.kx_name_valid(_as_bytes(name)) != 0


def parse_state(data: bytes) -> Tuple[int, Dict[str, str]]:
    """(generation, layers) from kx_parse_state; CorruptStateError like state_read."""
    st, err = State(), Error()
    rc = _lib.kx_parse_state(data, len(data), byref(st), byref(err))
    if rc == KX_E_NOMEM:
        raise MemoryError()
    if rc != KX_OK:
        raise CorruptStateError(err.line, _message(err))
    try:
        layers = {st.names[i].decode(): st.values[i].decode() for i in range(st.len)}
        return st.generation, layers
    finally:
        _lib.kx_state_free(byref(st))
