"""Spec images: the key set block kx_parse_spec builds, which the shim writes
next to the spec as <spec>.kxi and later processes map instead of parsing.

An image must never change an answer. The text parse, the image written and
mapped again, and the Python engine agree on drawn specs; every refusal rule
answers like the text parse; damaged images are refused or answer the same;
processes that race on a spec with no image leave one whole image; and a
spec rewritten in place is parsed again.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import IMAGE_HEADER, PROXY_SPEC, resign_image
from kontext.context import ContextState, contextual_lookup
from kontext.errors import CycleDetectedError, DepthExceededError, TemplateError
from kontext.layerstate import state_set_layer
from kontext.shim import child_environment
from kontext.specfile import parse_spec
from kontext.tracing import load_trace

# kx_image_header (native/core.c): offsets of the fields the tests damage
# or read; the text follows the header, the key table follows the text
VERSION, TEXT_LEN, SPEC_HASH = 16, 28, 48

LAYERS = ("l1", "l2")
_SEG = st.sampled_from(["a", "b", "x", "*", "é"])
_NAME = st.lists(_SEG, min_size=1, max_size=3).map("/".join)
_VALUE = st.sampled_from(["", "v", "w 1", "é", "50%"])


@st.composite
def contextual_specs(draw):
    """(spec text, its key names, layers): plain keys and sections, some
    with a context template over the drawn names and two layers."""
    names = draw(st.lists(_NAME, min_size=1, max_size=10, unique=True))
    plain, sections = [], []
    for name in names:
        kind = draw(st.sampled_from(["plain", "section", "context"]))
        if kind == "plain":
            plain.append(f"{name} = {draw(_VALUE)}")
            continue
        block = [f"[{name}]"]
        if draw(st.booleans()):
            block.append(f"value = {draw(_VALUE)}")
        if kind == "context":
            refs = draw(st.lists(st.sampled_from(LAYERS), max_size=2))
            block.append("context = " + draw(st.sampled_from(names)) +
                         "".join(f"/%{ref}%" for ref in refs))
        for prop in draw(st.lists(st.sampled_from(["owner", "x", "template"]), max_size=2,
                                  unique=True)):
            block.append(f"{prop} = {draw(_VALUE)}")
        sections.append("\n".join(block))
    layers = draw(st.dictionaries(st.sampled_from(LAYERS), st.sampled_from(["a", "b", "x"])))
    # plain lines go before every section, or a section would own them
    return "\n".join(plain + sections) + "\n", names, layers


def outcome(lookup, name, layers):
    try:
        out = lookup(name, ContextState(layers))
    except (CycleDetectedError, DepthExceededError) as exc:
        return (type(exc).__name__, tuple(exc.chain))
    except TemplateError:
        return ("template",)
    return ("absent",) if out is None else ("ok", out.value, out.matched_name, tuple(out.chain))


def python_spec(text):
    return {key.name.display: (key.value, dict(key.meta)) for key in parse_spec(text).keyset}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=contextual_specs())
@example(drawn=(PROXY_SPEC, ["getenv/http_proxy", "http_proxy/eth/work"],
                {"interface": "eth", "network": "work"}))
def test_image_answers_like_text_and_python(kxcore, tmp_path, drawn):
    text, names, layers = drawn
    parsed = kxcore.Engine(text)
    path = tmp_path / "spec.ks.kxi"
    path.write_bytes(parsed.image())
    with open(path, "rb") as f:
        image = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    mapped = kxcore.Engine.from_image(image, text)
    keyset = parse_spec(text).keyset
    assert mapped.entries() == parsed.entries() == python_spec(text)
    for name in names + ["no/such/key"]:
        want = outcome(partial(contextual_lookup, keyset), name, layers)
        assert outcome(parsed.lookup, name, layers) == want, name
        assert outcome(mapped.lookup, name, layers) == want, name
        assert mapped.has_key(name) == (name in keyset)


FUZZ_TEXT = "plain/key = 7\n" + PROXY_SPEC + "[getenv/KXT]\nowner = me\nvalue = plain\n"
FUZZ_NAMES = ["getenv/http_proxy", "getenv/KXT", "plain/key", "http_proxy/wlan/home"]
FUZZ_LAYERS = {"interface": "wlan", "network": "home"}


@settings(max_examples=400, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1,
                      max_size=4),
       signed=st.booleans())
def test_damaged_image_is_refused_or_answers_the_same(kxcore, flips, signed):
    # signed: the checksum is made right again, so the offset checks are
    # what stands between the damage and the reader
    parsed = kxcore.Engine(FUZZ_TEXT)
    image = bytearray(parsed.image())
    for pos, bits in flips:
        image[pos % len(image)] ^= bits
    if signed:
        resign_image(kxcore, image)
    try:
        engine = kxcore.Engine.from_image(image, FUZZ_TEXT)
    except kxcore.ImageRefused:
        return
    if signed:
        # a deliberate rewrite may change answers, but reading it stays in bounds
        try:
            engine.entries()
            [outcome(engine.lookup, name, FUZZ_LAYERS) for name in FUZZ_NAMES]
        except UnicodeDecodeError:
            pass
        return
    assert engine.entries() == parsed.entries()
    assert [outcome(engine.lookup, n, FUZZ_LAYERS) for n in FUZZ_NAMES] == [
        outcome(parsed.lookup, n, FUZZ_LAYERS) for n in FUZZ_NAMES]


# ------------------------------------------------------------ in the shim

# plain lines first: after a section header they would be its properties
SPEC = "getenv/KXT_PLAIN = from-spec\n" + "".join(
    f"filler/{i:03d} = {i}\n" for i in range(200)) + PROXY_SPEC
NAMES = ["http_proxy", "KXT_PLAIN", "KXT_UNREGISTERED"]
ANSWERS = ["proxy.example.com", "from-spec", "(unset)"]


class Shim:
    """Preloaded sync_getenv_ptr runs over a spec in dir, traced."""

    def __init__(self, exe, dir, text=SPEC):
        self.exe = exe
        self.spec = dir / "spec.ks"
        self.spec.write_text(text)
        self.image = dir / "spec.ks.kxi"
        self.trace = dir / "trace"
        state = dir / "state.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        base = {k: v for k, v in os.environ.items() if not k.startswith("KXT")}
        self.env = child_environment(spec=self.spec, state=state,
                                     base=dict(base, KONTEXT_TRACE=str(self.trace)))

    def run(self, names=NAMES):
        """(answers, image outcome of this process's init record)."""
        out = subprocess.run([str(self.exe)], env=self.env, input="".join(n + "\n" for n in names),
                             capture_output=True, text=True, timeout=30, check=True).stdout
        inits = [r for r in load_trace(self.trace) if r.kind == "init"]
        return [line.rsplit(" ", 1)[0] for line in out.splitlines()], inits[-1].fields[0]

    def images(self):
        return sorted(p.name for p in self.spec.parent.iterdir() if ".kxi" in p.name)


@pytest.fixture
def shim(demo_bins, preload_so, tmp_path):
    return Shim(demo_bins["sync_getenv_ptr"], tmp_path)


def test_first_process_writes_and_next_maps(shim):
    assert shim.run() == (ANSWERS, "written")
    assert shim.run() == (ANSWERS, "mapped")
    assert shim.images() == ["spec.ks.kxi"]
    stat = shim.image.stat()
    assert (stat.st_mode & 0o777, stat.st_uid) == (0o600, os.geteuid())
    record = [r for r in load_trace(shim.trace) if r.kind == "init"][-1]
    stages = dict(part.split("=") for part in record.fields[1].split(";"))
    assert list(stages) == ["read", "hash", "load", "write", "state", "slots", "total"]
    assert float(stages["write"]) == 0.0  # a mapping process writes nothing


def _rewrite(path, damage):
    data = bytearray(path.read_bytes())
    damage(data)
    path.write_bytes(data)  # same inode, owner and mode


def _other_name(image):
    other = image.with_name("elsewhere")
    image.rename(other)
    image.symlink_to(other)


def _bounds(kxcore):
    def damage(data):
        (text_len,) = struct.unpack_from("=I", data, TEXT_LEN)
        first_key = IMAGE_HEADER + (text_len + 7) // 8 * 8
        data[first_key:first_key + 4] = struct.pack("=i", -(1 << 30))  # its name, far before
        resign_image(kxcore, data)
    return damage


REFUSALS = {
    "owner": (lambda image, kxcore: os.chown(image, 65534, 65534), "refused:owner"),
    "mode": (lambda image, kxcore: os.chmod(image, 0o620), "refused:mode"),
    "symlink": (lambda image, kxcore: _other_name(image), "refused:symlink"),
    "links": (lambda image, kxcore: os.link(image, image.with_name("second")), "refused:links"),
    "truncated": (lambda image, kxcore: os.truncate(image, image.stat().st_size // 2),
                  "refused:size"),
    "magic": (lambda image, kxcore: _rewrite(image, lambda d: d.__setitem__(0, d[0] ^ 1)),
              "refused:magic"),
    "version": (lambda image, kxcore: _rewrite(
        image, lambda d: d.__setitem__(VERSION, d[VERSION] + 1)), "refused:version"),
    "stale": (lambda image, kxcore: _rewrite(
        image, lambda d: d.__setitem__(SPEC_HASH, d[SPEC_HASH] ^ 1)), "stale"),
    "checksum": (lambda image, kxcore: _rewrite(
        image, lambda d: d.__setitem__(len(d) - 2, d[-2] ^ 1)), "refused:checksum"),
    "bounds": (lambda image, kxcore: _rewrite(image, _bounds(kxcore)), "refused:bounds"),
}


@pytest.mark.parametrize("rule", sorted(REFUSALS))
def test_refused_image_answers_like_the_text(shim, kxcore, rule):
    damage, why = REFUSALS[rule]
    assert shim.run() == (ANSWERS, "written")
    damage(shim.image, kxcore)
    # parsed from the text, and the image written anew over the refused one
    assert shim.run() == (ANSWERS, f"written:{why}")
    assert shim.run() == (ANSWERS, "mapped")
    assert not shim.image.is_symlink()


def test_spec_of_another_user_gets_no_image(shim):
    os.chown(shim.spec, 65534, 65534)
    assert shim.run() == (ANSWERS, "unwritable")
    assert shim.images() == []


def test_racing_first_processes_leave_one_image(demo_bins, preload_so, tmp_path):
    # a spec that takes a while to parse, so the eight first calls overlap
    text = "".join(f"big/{i:05d} = value {i}\n" for i in range(6000)) + SPEC
    shim = Shim(demo_bins["sync_getenv_ptr"], tmp_path, text)
    children = [subprocess.Popen([str(shim.exe)], env=shim.env, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True) for _ in range(8)]
    for child in children:  # each waits for its first line before its first getenv
        child.stdin.write("".join(n + "\n" for n in NAMES))
        child.stdin.flush()
    for child in children:
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        assert [line.rsplit(" ", 1)[0] for line in out.splitlines()] == ANSWERS
    outcomes = [r.fields[0] for r in load_trace(shim.trace) if r.kind == "init"]
    assert len(outcomes) == 8 and "written" in outcomes
    assert shim.images() == ["spec.ks.kxi"]  # and no temp file left
    assert shim.run() == (ANSWERS, "mapped")


def test_spec_rewritten_in_place_is_parsed_again(shim):
    assert shim.run() == (ANSWERS, "written")
    assert shim.run() == (ANSWERS, "mapped")
    before = shim.spec.stat()
    shim.spec.write_text(SPEC.replace("from-spec", "from-SPEC"))
    after = shim.spec.stat()
    assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
    want = [answer.replace("from-spec", "from-SPEC") for answer in ANSWERS]
    assert shim.run() == (want, "written:stale")
    assert shim.run() == (want, "mapped")
