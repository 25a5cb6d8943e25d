from __future__ import annotations

import pytest

from kontext.errors import InvalidNameError, InvalidValueError
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

    def test_is_prefix_of_is_strict(self):
        base = KeyName.parse("a/b")
        assert base.is_prefix_of(KeyName.parse("a/b/c"))
        assert not base.is_prefix_of(base)
        assert not base.is_prefix_of(KeyName.parse("a/bc"))
        assert not base.is_prefix_of(KeyName.parse("a"))

    def test_child(self):
        assert KeyName.parse("a").child("b", "c").display == "a/b/c"

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

    def test_with_value_and_with_meta(self):
        key = Key("a", "v1", {"p": "1"})
        assert key.with_value("v2").value == "v2"
        assert key.with_meta("q", "2").meta == {"p": "1", "q": "2"}
        assert key.meta == {"p": "1"}


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

    def test_copy_is_independent(self):
        ks = KeySet([Key("a", "1")])
        clone = ks.copy()
        clone.insert(Key("a", "2"))
        assert ks.get("a").value == "1"
        assert clone.get("a").value == "2"

    def test_equality(self):
        assert KeySet([Key("a", "1")]) == KeySet([Key("a", "1")])
        assert KeySet([Key("a", "1")]) != KeySet([Key("a", "2")])
