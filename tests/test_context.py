from __future__ import annotations

import random

import pytest

from kontext.context import (
    MAX_CHAIN_LENGTH,
    ContextState,
    candidates,
    check_layer_name,
    check_layer_value,
    contextual_lookup,
    template_pieces,
)
from kontext.errors import (
    CycleDetectedError,
    DepthExceededError,
    EmptyLayerNameError,
    InvalidLayerError,
    TemplateError,
    UnanchoredTemplateError,
    UnterminatedPlaceholderError,
)
from kontext.keydb import Key, KeySet

from lookup_oracle import make_instance, oracle_candidates, oracle_lookup


def cand_names(template_text, layers):
    return candidates(template_text, ContextState(layers))


class TestLayerValidation:
    @pytest.mark.parametrize("good", ["network", "a b", "x.y", "0"])
    def test_names_ok(self, good):
        assert check_layer_name(good) == good

    @pytest.mark.parametrize("bad", ["", " pad", "pad ", "a/b", "a=b", "a%b", "a\nb", "a\0b"])
    def test_names_rejected(self, bad):
        with pytest.raises(InvalidLayerError):
            check_layer_name(bad)

    @pytest.mark.parametrize("good", ["home", "a%b", "x y"])
    def test_values_ok(self, good):
        assert check_layer_value(good) == good

    @pytest.mark.parametrize("bad", ["", "*", " v", "v ", "a/b", "a=b", "a\rb", "a\0b"])
    def test_values_rejected(self, bad):
        with pytest.raises(InvalidLayerError):
            check_layer_value(bad)


class TestContextState:
    def test_generation_advances_on_every_change(self):
        ctx = ContextState()
        assert ctx.generation == 0
        ctx = ctx.with_layer("network", "home")
        assert ctx.generation == 1
        ctx = ctx.with_layer("network", "home")  # same value still counts
        assert ctx.generation == 2
        ctx = ctx.without_layer("missing")
        assert ctx.generation == 3
        assert ctx.layers == {"network": "home"}

    def test_layers_snapshot_independent(self):
        src = {"a": "b"}
        ctx = ContextState(src)
        src["a"] = "changed"
        assert ctx.get("a") == "b"

    def test_validates_on_construction(self):
        with pytest.raises(InvalidLayerError):
            ContextState({"bad/name": "v"})
        with pytest.raises(InvalidLayerError):
            ContextState({"name": "*"})


class TestTemplateParse:
    def test_parts_and_refs(self):
        assert template_pieces("base/%interface%/%network%") == [
            (False, "base/"),
            (True, "interface"),
            (False, "/"),
            (True, "network"),
        ]

    def test_escape(self):
        assert template_pieces("lit%%eral") == [(False, "lit"), (False, "%"), (False, "eral")]

    def test_ref_names_trimmed(self):
        assert template_pieces("a/% net %") == [(False, "a/"), (True, "net")]

    def test_unterminated(self):
        with pytest.raises(UnterminatedPlaceholderError):
            template_pieces("a/%x")

    def test_escape_then_bare_percent(self):
        # %% escape consumes the first two; the trailing % never closes
        with pytest.raises(UnterminatedPlaceholderError):
            template_pieces("a/%%%")

    def test_empty_ref_tab_only(self):
        with pytest.raises(EmptyLayerNameError):
            template_pieces("a/%\t%")

    def test_empty_placeholder(self):
        with pytest.raises(EmptyLayerNameError):
            template_pieces("a/% %")

    def test_unanchored(self):
        with pytest.raises(UnanchoredTemplateError):
            template_pieces("%x%/a")
        with pytest.raises(UnanchoredTemplateError):
            template_pieces("")

    def test_too_many_refs(self):
        text = "b" + "".join(f"/%l{i}%" for i in range(17))
        with pytest.raises(TemplateError):
            template_pieces(text)


class TestCandidates:
    def test_proxy_template_two_active(self):
        names = cand_names(
            "http_proxy/%interface%/%network%",
            {"interface": "eth", "network": "work"},
        )
        assert names == [
            "http_proxy/eth/work",
            "http_proxy/eth/*",
            "http_proxy/*/work",
            "http_proxy/*/*",
        ]

    def test_inactive_ref_pinned_to_wildcard(self):
        names = cand_names("http_proxy/%interface%/%network%", {"network": "work"})
        assert names == ["http_proxy/*/work", "http_proxy/*/*"]

    def test_zero_refs(self):
        assert cand_names("plain/name", {}) == ["plain/name"]

    def test_repeated_layer(self):
        names = cand_names("b/%x%/%x%", {"x": "v"})
        assert names == ["b/v/v", "b/v/*", "b/*/v", "b/*/*"]

    def test_render_failure_raises_template_error(self):
        # literal part makes every rendered candidate an invalid key name
        with pytest.raises(TemplateError):
            cand_names("b=x/%l%", {"l": "v"})

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force_oracle(self, seed):
        rng = random.Random(seed)
        k = rng.randint(0, 3)
        refs = [rng.choice(["l1", "l2", "l3"]) for _ in range(k)]
        template = "base" + "".join(f"/%{r}%" for r in refs)
        layers = {
            name: rng.choice(["red", "blue"])
            for name in {"l1", "l2", "l3"}
            if rng.random() < 0.5
        }
        assert cand_names(template, layers) == oracle_candidates(template, layers)


def build_keyset(entries):
    ks = KeySet()
    for name, (value, template) in entries.items():
        meta = {"context": template} if template is not None else {}
        ks.insert(Key(name, value, meta))
    return ks


class TestContextualLookup:
    def proxy_keys(self):
        return build_keyset(
            {
                "getenv/http_proxy": (
                    "default.example.com",
                    "http_proxy/%interface%/%network%",
                ),
                "http_proxy/eth/work": ("proxy.example.com", None),
                "http_proxy/wlan/home": ("proxy.example.org", None),
                "http_proxy/*/*": ("default.example.com", None),
            }
        )

    def test_most_specific_wins(self):
        out = contextual_lookup(
            self.proxy_keys(),
            "getenv/http_proxy",
            ContextState({"interface": "eth", "network": "work"}),
        )
        assert out.value == "proxy.example.com"
        assert out.matched_name == "http_proxy/eth/work"
        assert out.chain == ("getenv/http_proxy", "http_proxy/eth/work")

    def test_wildcard_fallback(self):
        out = contextual_lookup(
            self.proxy_keys(),
            "getenv/http_proxy",
            ContextState({"interface": "usb", "network": "cafe"}),
        )
        assert out.value == "default.example.com"
        assert out.matched_name == "http_proxy/*/*"

    def test_absent_key(self):
        assert contextual_lookup(self.proxy_keys(), "getenv/nope", ContextState()) is None

    def test_plain_key_returns_own_value(self):
        ks = build_keyset({"a/b": ("v", None)})
        out = contextual_lookup(ks, "a/b", ContextState())
        assert (out.value, out.matched_name, out.chain) == ("v", "a/b", ("a/b",))

    def test_no_candidate_falls_back_to_own_value(self):
        ks = build_keyset({"getenv/x": ("own", "miss/%l%")})
        out = contextual_lookup(ks, "getenv/x", ContextState({"l": "v"}))
        assert out.value == "own"
        assert out.matched_name == "getenv/x"

    def test_no_candidate_and_empty_value_is_absent(self):
        ks = build_keyset({"getenv/x": ("", "miss/%l%")})
        assert contextual_lookup(ks, "getenv/x", ContextState({"l": "v"})) is None

    def test_chain_through_indirection(self):
        ks = build_keyset(
            {
                "a": ("", "b"),
                "b": ("", "c"),
                "c": ("end", None),
            }
        )
        out = contextual_lookup(ks, "a", ContextState())
        assert out.value == "end"
        assert out.chain == ("a", "b", "c")

    def test_cycle_detected(self):
        ks = build_keyset({"a": ("", "b"), "b": ("", "a")})
        with pytest.raises(CycleDetectedError) as info:
            contextual_lookup(ks, "a", ContextState())
        assert info.value.chain == ("a", "b", "a")

    def test_self_cycle(self):
        ks = build_keyset({"a": ("", "a")})
        with pytest.raises(CycleDetectedError) as info:
            contextual_lookup(ks, "a", ContextState())
        assert info.value.chain == ("a", "a")

    def test_depth_exceeded(self):
        entries = {}
        for i in range(MAX_CHAIN_LENGTH + 2):
            entries[f"k{i:02d}"] = ("", f"k{i + 1:02d}")
        entries[f"k{MAX_CHAIN_LENGTH + 2:02d}"] = ("end", None)
        ks = build_keyset(entries)
        with pytest.raises(DepthExceededError) as info:
            contextual_lookup(ks, "k00", ContextState())
        assert len(info.value.chain) == MAX_CHAIN_LENGTH

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_naive_oracle(self, seed):
        rng = random.Random(1000 + seed)
        entries, layers, query = make_instance(rng, seed_cycle=seed % 10 == 0)
        ks = build_keyset(entries)
        ctx = ContextState(layers)
        verdict, payload = oracle_lookup(entries, query, layers)
        if verdict == "cycle":
            with pytest.raises(CycleDetectedError) as info:
                contextual_lookup(ks, query, ctx)
            assert info.value.chain == payload
        elif verdict == "depth":
            with pytest.raises(DepthExceededError):
                contextual_lookup(ks, query, ctx)
        elif verdict == "absent":
            assert contextual_lookup(ks, query, ctx) is None
        else:
            out = contextual_lookup(ks, query, ctx)
            assert (out.value, out.matched_name, out.chain) == payload
