"""The Python engine's contract, and its equivalence with the C engine."""

from __future__ import annotations

import random
from functools import partial
from types import SimpleNamespace

import pytest

from kontext.context import ContextState, contextual_lookup
from kontext.errors import CycleDetectedError, DepthExceededError, InvalidNameError, SpecParseError
from kontext.keydb import Key, KeyName, KeySet
from kontext.specfile import ParseErrorKind, parse_spec, serialize_spec
from lookup_oracle import make_instance, oracle_lookup

SPEC = """\
http_proxy/*/* = fallback.example.com
http_proxy/eth/work = proxy.example.com

[getenv/http_proxy]
context = http_proxy/%interface%/%network%
value = fallback.example.com
"""


def entries_keyset(entries):
    ks = KeySet()
    for name, (value, template) in entries.items():
        meta = {"context": template} if template is not None else {}
        ks.insert(Key(name, value, meta))
    return ks


def outcome_tuple(lookup, name, layers):
    """Normalized lookup result: ("ok", ...), ("absent",), or error class."""
    try:
        out = lookup(name, ContextState(layers))
    except CycleDetectedError as exc:
        return ("cycle", tuple(exc.chain))
    except DepthExceededError as exc:
        return ("depth", tuple(exc.chain))
    if out is None:
        return ("absent",)
    return ("ok", out.value, out.matched_name, tuple(out.chain))


@pytest.fixture
def backend(request):
    """SPEC's lookup and has_key in the Python engine (contextual_lookup over
    the parsed key set), or in the C engine through its ctypes binding."""
    if request.param == "pure":
        keyset = parse_spec(SPEC).keyset
        return SimpleNamespace(lookup=partial(contextual_lookup, keyset),
                               has_key=keyset.__contains__)
    return request.getfixturevalue("kxcore").Engine(SPEC)


@pytest.mark.parametrize("backend", ["pure", "c"], indirect=True)
class TestBackendContract:
    def test_contextual_hit(self, backend):
        out = backend.lookup(
            "getenv/http_proxy", ContextState({"interface": "eth", "network": "work"})
        )
        assert out.value == "proxy.example.com"
        assert out.matched_name == "http_proxy/eth/work"
        assert out.chain == ("getenv/http_proxy", "http_proxy/eth/work")

    def test_wildcard_fallback(self, backend):
        out = backend.lookup("getenv/http_proxy", ContextState())
        assert out.value == "fallback.example.com"
        assert out.matched_name == "http_proxy/*/*"

    def test_absent(self, backend):
        assert backend.lookup("getenv/nope", ContextState()) is None

    def test_has_key(self, backend):
        assert backend.has_key("http_proxy/eth/work")
        assert backend.has_key("getenv/http_proxy")
        assert not backend.has_key("getenv/nope")

    @pytest.mark.parametrize("bad", ["", "a//b", "a/", "/a", "a/b\n"])
    def test_invalid_lookup_name(self, backend, bad):
        with pytest.raises(InvalidNameError):
            backend.lookup(bad, ContextState())

    def test_outcome_strings_are_plain(self, backend):
        out = backend.lookup("getenv/http_proxy", ContextState())
        assert isinstance(out.value, str)
        assert isinstance(out.matched_name, str)
        assert all(isinstance(link, str) for link in out.chain)


class TestPureCompiledParity:
    @pytest.mark.parametrize("seed", range(150))
    def test_randomized_instances(self, kxcore, seed):
        rng = random.Random(20_000 + seed)
        entries, layers, query = make_instance(rng, seed_cycle=(seed % 7 == 0))
        text = serialize_spec(entries_keyset(entries))
        keyset = parse_spec(text).keyset
        pure = partial(contextual_lookup, keyset)
        compiled = kxcore.Engine(text)

        names = sorted(entries) + [query, "getenv/missing", "no/such/key"]
        for name in names:
            got_pure = outcome_tuple(pure, name, layers)
            got_compiled = outcome_tuple(compiled.lookup, name, layers)
            assert got_pure == got_compiled, f"{name} under {layers}"
            assert (name in keyset) == compiled.has_key(name)

        kind, payload = oracle_lookup(entries, query, layers)
        expected = ("ok",) + payload if kind == "ok" else None
        got = outcome_tuple(pure, query, layers)
        if kind == "ok":
            assert got == (
                "ok",
                payload[0],
                payload[1],
                payload[2],
            )
        elif kind == "absent":
            assert got == ("absent",)
        else:
            assert got == (kind, payload)

    def test_cycle_chains_match(self, kxcore):
        entries = {
            "cyc/a": ("", "cyc/b"),
            "cyc/b": ("", "cyc/a"),
        }
        text = serialize_spec(entries_keyset(entries))
        chains = []
        for lookup in (partial(contextual_lookup, parse_spec(text).keyset),
                       kxcore.Engine(text).lookup):
            with pytest.raises(CycleDetectedError) as exc:
                lookup("cyc/a", ContextState())
            chains.append(tuple(exc.value.chain))
        assert chains[0] == chains[1] == ("cyc/a", "cyc/b", "cyc/a")


class TestCompiledParser:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("[a\n", ParseErrorKind.BAD_SECTION),
            ("[]\n", ParseErrorKind.INVALID_NAME),
            ("just words\n", ParseErrorKind.BAD_ASSIGNMENT),
            ("=v\n", ParseErrorKind.INVALID_NAME),
            ("value=x\n", ParseErrorKind.PROPERTY_OUTSIDE_SECTION),
            ("a//b=v\n", ParseErrorKind.INVALID_NAME),
            (b"a=\xff\n", ParseErrorKind.ENCODING),
            ("a\x00b=1\n", ParseErrorKind.ENCODING),
            ("x=1\na=b\x00c\n", ParseErrorKind.ENCODING),
            (b"x=1\na=\x00\xff\n", ParseErrorKind.ENCODING),
        ],
    )
    def test_fatal_errors_match_python_parser(self, kxcore, text, kind):
        with pytest.raises(SpecParseError) as py_exc:
            parse_spec(text)
        with pytest.raises(SpecParseError) as c_exc:
            kxcore.Engine(text)
        assert py_exc.value.kind == kind
        assert c_exc.value.kind == py_exc.value.kind
        assert c_exc.value.line == py_exc.value.line

    def test_name_valid_agrees_with_parse(self, kxcore):
        names = [
            "a", "a/b", "getenv/http_proxy", "a/*/b", "*", "a.b-c_d",
            "", "/", "a//b", " a", "a ", "a/b ", "a=b", "a\nb", "a/", "/a",
        ]
        for name in names:
            try:
                KeyName.parse(name)
                valid = True
            except InvalidNameError:
                valid = False
            assert kxcore.name_valid(name) == valid, name
