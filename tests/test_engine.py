"""The Python engine's contract, and its equivalence with the C engine."""

from __future__ import annotations

import random

import pytest

from kontext import (
    ContextState,
    CycleDetectedError,
    DepthExceededError,
    InvalidNameError,
    Key,
    KeyName,
    KeySet,
    PureBackend,
    SpecParseError,
    make_backend,
    parse_spec,
    serialize_spec,
)
from kontext.specfile import ParseErrorKind
from lookup_oracle import make_instance, oracle_lookup

SPEC = """\
http_proxy/*/* = fallback.example.com
http_proxy/eth/work = proxy.example.com

[getenv/http_proxy]
context = http_proxy/%interface%/%network%
value = fallback.example.com
"""


def test_package_exports_resolve_once():
    import kontext

    assert [n for n in kontext.__all__ if not hasattr(kontext, n)] == []
    assert len(set(kontext.__all__)) == len(kontext.__all__)


def entries_keyset(entries):
    ks = KeySet()
    for name, (value, template) in entries.items():
        meta = {"context": template} if template is not None else {}
        ks.insert(Key(name, value, meta))
    return ks


def outcome_tuple(backend, name, layers):
    """Normalized lookup result: ("ok", ...), ("absent",), or error class."""
    try:
        out = backend.lookup(name, ContextState(layers))
    except CycleDetectedError as exc:
        return ("cycle", tuple(exc.chain))
    except DepthExceededError as exc:
        return ("depth", tuple(exc.chain))
    if out is None:
        return ("absent",)
    return ("ok", out.value, out.matched_name, tuple(out.chain))


class TestMakeBackend:
    def test_unknown_choice(self):
        for choice in ("turbo", "compiled"):
            with pytest.raises(ValueError):
                make_backend(SPEC, choice)

    def test_pure_always_works(self):
        backend = make_backend(SPEC, "pure")
        assert isinstance(backend, PureBackend)
        assert backend.name == "pure"

    @pytest.mark.parametrize("choice", ["pure", "auto"])
    def test_accepts_every_spec_shape(self, choice):
        doc = parse_spec(SPEC)
        shapes = [SPEC, SPEC.encode(), doc, doc.keyset]
        for spec in shapes:
            backend = make_backend(spec, choice)
            out = backend.lookup(
                "getenv/http_proxy",
                ContextState({"interface": "eth", "network": "work"}),
            )
            assert out is not None and out.value == "proxy.example.com"

    def test_auto_falls_back_on_unserializable_keyset(self):
        ks = KeySet()
        ks.insert(Key("a/b", "padded "))  # trailing space survives in-memory only
        backend = make_backend(ks, "auto")
        assert isinstance(backend, PureBackend)
        out = backend.lookup("a/b", ContextState())
        assert out is not None and out.value == "padded "


@pytest.fixture
def backend(request):
    """The Python engine, or the C engine through its ctypes binding."""
    if request.param == "pure":
        return make_backend(SPEC, "pure")
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
        pure = make_backend(text, "pure")
        compiled = kxcore.Engine(text)

        names = sorted(entries) + [query, "getenv/missing", "no/such/key"]
        for name in names:
            got_pure = outcome_tuple(pure, name, layers)
            got_compiled = outcome_tuple(compiled, name, layers)
            assert got_pure == got_compiled, f"{name} under {layers}"
            assert pure.has_key(name) == compiled.has_key(name)

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
        for engine in (make_backend(text, "pure"), kxcore.Engine(text)):
            with pytest.raises(CycleDetectedError) as exc:
                engine.lookup("cyc/a", ContextState())
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
