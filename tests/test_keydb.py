from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kontext.context import ContextState
from kontext.errors import InvalidNameError, InvalidValueError, KontextError
from kontext.keydb import Key, KeyName, KeySet


class TestKeyName:
    def test_parse_and_display_round_trip(self):
        name = KeyName.parse("getenv/http_proxy")
        assert name.segments == ("getenv", "http_proxy")
        assert name.display == "getenv/http_proxy"
        assert str(name) == "getenv/http_proxy"

    def test_single_segment(self):
        assert KeyName.parse("top").segments == ("top",)

    def test_wildcard_segments_allowed(self):
        assert KeyName.parse("a/*/b").segments == ("a", "*", "b")

    @pytest.mark.parametrize(
        "bad",
        ["", "a//b", "/a", "a/", "a=b", "a\nb", "a\rb", "a/b/", "a\0b"],
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(InvalidNameError):
            KeyName.parse(bad)

    def test_parse_accepts_keyname(self):
        name = KeyName.parse("x/y")
        assert KeyName.parse(name) is name

    def test_names_are_hashable_and_equal_by_value(self):
        assert KeyName.parse("a/b") == KeyName.parse("a/b")
        assert len({KeyName.parse("a/b"), KeyName.parse("a/b")}) == 1


class TestKey:
    def test_defaults(self):
        key = Key("a/b")
        assert key.value == ""
        assert key.meta == {}

    def test_name_coerced_from_string(self):
        assert Key("a/b").name == KeyName.parse("a/b")

    def test_meta_is_copied_and_validated(self):
        source = {"context": "a/%x%"}
        key = Key("a", "v", source)
        source["context"] = "mutated"
        assert key.meta["context"] == "a/%x%"

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb", "a\0b"])
    def test_value_rejects_line_breaks(self, bad):
        with pytest.raises(InvalidValueError):
            Key("a", bad)

    def test_meta_prop_rejects_equals(self):
        with pytest.raises(InvalidNameError):
            Key("a", "", {"pr=op": "v"})

    def test_meta_prop_rejects_empty(self):
        with pytest.raises(InvalidNameError):
            Key("a", "", {"": "v"})


class TestKeySet:
    def test_insert_get_remove(self):
        ks = KeySet()
        ks.insert(Key("a/b", "1"))
        assert ks.get("a/b").value == "1"
        ks.insert(Key("a/b", "2"))
        assert ks.get("a/b").value == "2"
        assert len(ks) == 1
        removed = ks.remove("a/b")
        assert removed.value == "2"
        assert ks.get("a/b") is None
        assert ks.remove("a/b") is None

    def test_iteration_is_lexicographic(self):
        ks = KeySet([Key("b"), Key("a/z"), Key("a"), Key("a/*")])
        assert [k.name.display for k in ks] == ["a", "a/*", "a/z", "b"]
        assert ks.names() == ["a", "a/*", "a/z", "b"]

    def test_below_is_strict(self):
        ks = KeySet([Key("p"), Key("p/a"), Key("p/a/b"), Key("pq"), Key("q")])
        names = [k.name.display for k in ks.below("p")]
        assert names == ["p/a", "p/a/b"]

    def test_below_empty(self):
        ks = KeySet([Key("a")])
        assert ks.below("zz") == []

    def test_contains(self):
        ks = KeySet([Key("a/b")])
        assert "a/b" in ks
        assert "a" not in ks

    def test_equality(self):
        assert KeySet([Key("a", "1")]) == KeySet([Key("a", "1")])
        assert KeySet([Key("a", "1")]) != KeySet([Key("a", "2")])


class TestImmutable:
    @pytest.mark.parametrize("value, field", [
        (KeyName.parse("a/b"), "display"),
        (Key("a", "v", {"p": "1"}), "value"),
        (ContextState({"net": "home"}, 1), "generation"),
    ], ids=["KeyName", "Key", "ContextState"])
    def test_fields_cannot_be_assigned_or_deleted(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, "x")
        with pytest.raises(AttributeError):
            delattr(value, field)


# the naming rules restated from the module docstring, apart from the code
_FORBIDDEN_IN_SEGMENT = set("=\n\r\0")
_FORBIDDEN_IN_VALUE = set("\n\r\0")


@settings(max_examples=800, deadline=None)
@given(st.text(alphabet="ab /=*\n\r\0", max_size=10))
@example("")
@example("a//b")
@example("/a")
@example("a/")
@example("a b/*")
@example("a\0b")
def test_name_parse_accepts_exactly_the_valid_names(text):
    segments = text.split("/")
    valid = bool(text) and all(seg and not set(seg) & _FORBIDDEN_IN_SEGMENT for seg in segments)
    try:
        name = KeyName.parse(text)
    except InvalidNameError:
        assert not valid
    else:
        assert valid
        assert name.display == text
        assert name.segments == tuple(segments)
        assert name == KeyName(tuple(segments))


@settings(max_examples=800, deadline=None)
@given(st.text(alphabet="ab =\n\r\0", max_size=6), st.sampled_from(["value", "prop", "meta"]))
def test_key_rejects_exactly_the_forbidden_characters(text, place):
    if place == "value":
        bad = bool(set(text) & _FORBIDDEN_IN_VALUE)
        args = (text, {})
    elif place == "prop":
        bad = not text or bool(set(text) & (_FORBIDDEN_IN_VALUE | {"="}))
        args = ("", {"ok": "1", text: "v"})
    else:
        bad = bool(set(text) & _FORBIDDEN_IN_VALUE)
        args = ("", {"ok": "1", "p": text})
    try:
        key = Key("a", *args)
    except KontextError as exc:
        assert bad
        assert isinstance(exc, (InvalidNameError, InvalidValueError))
    else:
        assert not bad
        assert (key.value, key.meta) == args


# names that share text with a/b but not its segments: '-' and '.' sort
# before '/', 'c' after it
_BELOW_NAMES = ["a", "a/b", "a/bc", "a/b-c", "a/b.c", "a/b/c", "a/b/c/d", "a/b/*", "a/*", "ab"]
_drawn_names = st.lists(st.text(alphabet="ab-.*", min_size=1, max_size=2),
                        min_size=1, max_size=3).map("/".join)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_BELOW_NAMES), _drawn_names), max_size=24),
       st.one_of(st.sampled_from(_BELOW_NAMES), _drawn_names))
def test_below_matches_its_linear_definition(names, prefix):
    ks = KeySet(Key(name) for name in names)
    head = tuple(prefix.split("/"))
    expected = [key for key in ks
                if len(key.name.segments) > len(head)
                and key.name.segments[:len(head)] == head]
    assert ks.below(prefix) == expected
    assert ks.below(KeyName.parse(prefix)) == expected
