"""The C engine through its ctypes binding: symbol visibility, warning-clean
builds of both libraries, a run of the shim under AddressSanitizer and UBSan
and of its lock-free readers, untraced and traced, under ThreadSanitizer,
the spec and state parsers and the template walk checked against the Python
ones by differential testing (McKeeman, "Differential Testing for Software",
1998), also against a sanitized core, and the spec parser's independence
from line order.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (DEMO_SRC, DIRECTORY_SUFFIXES, ENV_SCAN_CASES, PROXY_SPEC, ThreadsFlip,
                      path_spec, path_spellings, resign_image, wait_for_getenv_record)
from kontext.context import ContextState, candidates, contextual_lookup
from kontext.errors import CorruptStateError, SpecParseError, TemplateError
from kontext.layerstate import state_read, state_set_layer
from kontext.nativebuild import NATIVE, PRELOAD_FLAGS
from kontext.shim import child_environment
from kontext.specfile import parse_spec
from kontext.tracing import parse_trace

# bytes that exercise both grammars, plus what the engines once disagreed
# on: NUL, stray \r, non-ASCII digits and invalid UTF-8
_HOSTILE = [b"\x00", b"\r", "²".encode(), "٣".encode(), "é".encode(),
            b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe0\x80\x80"]
SPEC_TOKENS = [b"[", b"]", b"=", b"#", b" ", b"\t", b"/", b"*", b"%", b"a", b"b", b"a/b",
               b"value", b"context", b"%l%", b"0", b"9", b".", b"-"] + _HOSTILE
SPEC_PREFIXES = [b"", b"[", b"getenv/", b"a/b=", b"value=", b"context=", b"#"]
STATE_TOKENS = [b"=", b" ", b"\t", b"/", b"%", b"*", b"a", b"b", b"0", b"1", b"9",
                b"9223372036854775807", b"9223372036854775808"] + _HOSTILE
STATE_PREFIXES = [b"", b"generation=", b"layer/", b"layer/a="]


def _text(prefixes, tokens):
    line = st.tuples(st.sampled_from(prefixes), st.lists(st.sampled_from(tokens), max_size=6))
    return st.lists(line.map(lambda t: t[0] + b"".join(t[1])), max_size=6).map(b"\n".join)


def spec_outcome(parse):
    """("ok", {name: (value, meta)}) or ("error", kind, line)."""
    try:
        return ("ok", parse())
    except SpecParseError as exc:
        return ("error", exc.kind, exc.line)


def state_outcome(parse):
    """("ok", generation, layers) or ("error", line)."""
    try:
        return ("ok",) + tuple(parse())
    except CorruptStateError as exc:
        return ("error", exc.line)


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "state.ks"


def python_spec(data):
    return {key.name.display: (key.value, dict(key.meta)) for key in parse_spec(data).keyset}


def python_state(path, data):
    path.write_bytes(data)
    ctx = state_read(path)
    return ctx.generation, dict(ctx.layers)


def test_engine_symbols_exported_only_from_kxcore(kxcore, kxcore_so, preload_so):
    core = ctypes.CDLL(str(kxcore_so))
    assert [name for name in kxcore.SIGNATURES if not hasattr(core, name)] == []
    # in a child: loading _preload.so runs its constructor
    probe = "import ctypes, sys; lib = ctypes.CDLL(sys.argv[1]); " \
            "print(hasattr(lib, 'kx_lookup'), hasattr(lib, 'kx_parse_spec'))"
    ran = subprocess.run([sys.executable, "-c", probe, str(preload_so)],
                         capture_output=True, text=True, check=True)
    assert ran.stdout.split() == ["False", "False"]


def test_every_core_export_has_a_caller(kxcore):
    # a core.h function that neither the shim, nor this binding, nor the
    # benchmark's C programs call is dead code
    exports = re.findall(r"^KX_API\b[^(;]*?\b(kx_\w+)\s*\(", (NATIVE / "core.h").read_text(),
                         re.M)
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "native"
    callers = "".join(path.read_text() for path in [NATIVE / "interpose.c",
                                                    *sorted(bench.glob("*.c"))])
    assert len(exports) > 20
    assert [name for name in exports if name not in kxcore.SIGNATURES
            and not re.search(rf"\b{name}\s*\(", callers)] == []


def test_preload_builds_warning_clean(tmp_path, cc):
    cmd = [cc, *PRELOAD_FLAGS, "-Wall", "-Wextra", "-Werror",
           "-I", str(NATIVE), str(NATIVE / "core.c"), str(NATIVE / "interpose.c"), "-ldl",
           "-o", str(tmp_path / "_preload.so")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kxcore_builds_warning_clean(tmp_path, cc):
    # core.c alone, exported as for _kxcore.so: a static that only the
    # shim used must not be left behind unused
    cmd = [cc, *PRELOAD_FLAGS, "-Wall", "-Wextra", "-Werror", "-I", str(NATIVE),
           '-DKX_API=__attribute__((visibility("default")))', str(NATIVE / "core.c"),
           "-o", str(tmp_path / "_kxcore.so")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# the unregistered getenv and open paths, the registered open's lookup, and
# engine functions they must precede
HOT_PATH = ("getenv", "secure_getenv", "open", "open64", "__open_2", "__open64_2", "fopen",
            "fopen64", "kx_shadow_for", "kx_shadow_lookup", "kx_env_scan")
ENGINE = ("kx_parse_spec", "kx_keyset_get", "kx_lookup")
# first-call work, which the linker puts ahead of the hot path
COLD = ("kx_resolve", "kx_init_slow")


def _text_symbols(library):
    """{name: (address, size)} of the library's code symbols, from nm."""
    out = subprocess.run(["nm", "-n", "-S", str(library)], capture_output=True, text=True,
                         check=True).stdout
    return {parts[3]: (int(parts[0], 16), int(parts[1], 16))
            for parts in map(str.split, out.splitlines())
            if len(parts) == 4 and parts[2] in "tT"}


def test_hot_path_is_pinned_ahead_of_the_engine(preload_so, tmp_path, monkeypatch):
    import kontext.nativebuild as nativebuild

    before = _text_symbols(preload_so)
    assert max(before[name][0] for name in HOT_PATH) < min(before[name][0] for name in ENGINE)
    # core.h's name hash is inlined into every probe, getenv's included
    assert "kx_name_hash" not in before
    assert max(before[name][0] for name in COLD) < min(before[name][0] for name in HOT_PATH)
    # the same build from a copy whose core.c ends in a 5 KB function that
    # nothing calls: it lands ahead of interpose.c's ordinary code, and the
    # hot path does not move
    for source in ("core.c", "core.h", "interpose.c"):
        shutil.copy(NATIVE / source, tmp_path / source)
    pad = "".join(f"    p[{i}] = {i};\n" for i in range(512))
    with open(tmp_path / "core.c", "a") as core:
        core.write(f"\nvoid kx_placement_pad(volatile int *p) {{\n{pad}}}\n")
    monkeypatch.setattr(nativebuild, "NATIVE", tmp_path)
    after = _text_symbols(nativebuild.build_preload(tmp_path / "_preload.so"))
    assert after["kx_placement_pad"][1] >= 4096
    assert after["kx_slot_fill"][0] > before["kx_slot_fill"][0]
    assert {name: after[name][0] for name in HOT_PATH} == \
        {name: before[name][0] for name in HOT_PATH}


def test_exports_are_the_hot_path_entries(preload_so):
    # every entry point the library defines is pinned ahead of the engine
    # above, so a new one must join HOT_PATH to be exported
    out = subprocess.run(["readelf", "-W", "--dyn-syms", str(preload_so)], capture_output=True,
                         text=True, check=True).stdout
    defined = {parts[7] for parts in map(str.split, out.splitlines())
               if len(parts) >= 8 and parts[3] == "FUNC" and parts[6] != "UND"}
    assert defined == {"getenv", "secure_getenv", "open", "open64", "__open_2", "__open64_2",
                       "fopen", "fopen64"}
    assert defined <= set(HOT_PATH)


@pytest.mark.parametrize("data, want", [
    (b"", 0x5ce92b3315c03889),
    (b"a", 0x0f8cfd57d4d3b3a2),
    (bytes(range(64)), 0x1987eecbfd994af5),
    (bytes(range(65)), 0x4f2b689c2a4ad269),
    (bytes(i % 251 for i in range(1000)), 0x8ebb020291018a36),
])
def test_hash_is_pinned(kxcore, data, want):
    # an image's header holds these hashes, so a change to kx_hash64 would
    # leave every image on disk stale
    assert kxcore.hash64(data) == want


def test_benchmark_core_probe_builds(tmp_path, cc):
    # perfbench links coreprobe.c straight against core.c; build it with the
    # benchmark's own recipe, so a core.h change that would break the
    # benchmark's traced run fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "nativebuild.py"
    spec = importlib.util.spec_from_file_location("perfbench_nativebuild", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    args = bench._recipes(NATIVE)["coreprobe"]
    proc = subprocess.run([cc, *args, "-o", str(tmp_path / "coreprobe")], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def _sanitized_preload(cc, out, *flags, core_only=False):
    """_preload.so, or with core_only _kxcore.so, built by `cc` with extra
    sanitizer flags."""
    sources = (['-DKX_API=__attribute__((visibility("default")))', str(NATIVE / "core.c")]
               if core_only else [str(NATIVE / "core.c"), str(NATIVE / "interpose.c"), "-ldl"])
    cmd = [cc, *PRELOAD_FLAGS, *flags, "-fno-omit-frame-pointer", "-I", str(NATIVE),
           *sources, "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _threads_flip(exe, env, state, path=None, fopen=False, cwd=None):
    """t15_threads_flip (or, given `path`, t20_threads_open) through 12
    flips, run in `cwd`: ThreadsFlip.close()'s result and the number of
    calls the child made. A traced child gets the first flip only after its
    first call."""
    child = ThreadsFlip(exe, env, state, path, fopen, cwd)
    if "KONTEXT_TRACE" in env:
        wait_for_getenv_record(Path(env["KONTEXT_TRACE"]), kind="open" if path else "getenv")
    for layer in [("network", "work"), ("network", "home"), ("interface", "wlan")] * 4:
        child.flip(*layer)
    return child.close(), child.calls


def test_preload_runs_clean_under_sanitizers(demo_bins, preload_so, kxcore, tmp_path, cc):
    asan_so = tmp_path / "_preload_asan.so"
    _sanitized_preload(cc, asan_so, "-fsanitize=address,undefined")
    runtime = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    real = tmp_path / "app.conf"
    real.write_text("real file\n")
    spec = tmp_path / "spec.ks"
    spec.write_text(f"conf/app/host = shadow.example\n{PROXY_SPEC}"
                    f"[open{real}]\ntemplate = conf/app\n")

    def flips(env, state):
        # answers and which earlier answer each pointer repeats: the
        # addresses themselves differ between the builds
        child = subprocess.Popen([str(demo_bins["sync_getenv_ptr"])], env=env, text=True,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, bufsize=1)
        seen, lines = {}, []
        try:
            for layer in [None, ("network", "work"), ("network", "home"),
                          ("interface", "wlan"), ("network", "work"), ("network", "home")]:
                if layer:
                    state_set_layer(state, *layer)
                for name in ("http_proxy", "HOME", "http_proxy"):
                    child.stdin.write(name + "\n")
                    child.stdin.flush()
                    answer, _, address = child.stdout.readline().rstrip("\n").rpartition(" ")
                    lines.append(f"{answer} {seen.setdefault(address, len(seen))}")
        except BrokenPipeError:
            pass  # the child died; its stderr says why
        out, err = child.communicate(timeout=60)
        return child.returncode, "\n".join(lines) + out, err

    def run(stem, preload, *args):
        state = tmp_path / f"{stem}-{preload.name}.ks"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=spec, state=state, preload=preload,
                                base=dict(os.environ, UBSAN_OPTIONS="halt_on_error=1",
                                          KXT_PLAIN="plain-value", TMPDIR=str(tmp_path)))
        if preload is asan_so:
            env["LD_PRELOAD"] = f"{runtime} {asan_so}"  # the runtime must load first
        if stem == "sync_getenv_ptr":
            return flips(env, state)
        if stem == "t15_threads_flip":
            return _threads_flip(demo_bins[stem], env, state)[0]
        ran = subprocess.run([str(demo_bins[stem]), *args], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        return ran.returncode, ran.stdout, ran.stderr

    for stem in ("t10_mixed", "t11_fork_threads", "sync_getenv_ptr", "t15_threads_flip"):
        plain = run(stem, preload_so)
        assert plain[0] == 0, (stem, plain)
        assert run(stem, asan_so) == (0, plain[1], ""), stem
    # the environment scan over entries that are heap copies of their own
    # length: a read past an entry's NUL is an ASan report
    names = [name for name, _ in ENV_SCAN_CASES]
    plain = run("t16_env_scan", preload_so, *names)
    assert plain[0] == 0 and plain[1].count("\n") == len(names), plain
    assert run("t16_env_scan", asan_so, *names) == (0, plain[1], "")
    # open and fopen of the registered path, spelled every way, and of
    # directories named by a trailing /, /. or /..: the absolute spelling
    # finds the slot as given, the relative ones only after canonicalization
    for stem in ("t05_open_read", "t07_fopen_read"):
        for arg, shadow in [*path_spellings(real),
                            *((f"{real}{suffix}", False) for suffix in DIRECTORY_SUFFIXES)]:
            plain = run(stem, preload_so, arg)
            assert (plain[1] == "host=shadow.example\n") == shadow, (stem, arg, plain)
            assert run(stem, asan_so, arg) == (plain[0], plain[1], ""), (stem, arg)

    # every run above but the first mapped the spec's image; now damaged
    # ones: refused, so the answers stay the text's, or, re-signed, read in
    # bounds
    image = spec.with_name(spec.name + ".kxi")
    pristine = image.read_bytes()
    state = tmp_path / "damaged.ks"
    state_set_layer(state, "interface", "eth")
    env = child_environment(spec=spec, state=state, preload=asan_so,
                            base=dict(os.environ, UBSAN_OPTIONS="halt_on_error=1",
                                      KXT_PLAIN="plain-value"))
    env["LD_PRELOAD"] = f"{runtime} {asan_so}"
    names = "http_proxy\nKXT_PLAIN\nHOME\n"

    def answers():
        ran = subprocess.run([str(demo_bins["sync_getenv_ptr"])], env=env, input=names,
                             capture_output=True, text=True, timeout=120)
        assert (ran.returncode, ran.stderr) == (0, "")
        return [line.rpartition(" ")[0] for line in ran.stdout.splitlines()]

    want = answers()
    rng = random.Random(11)
    for round in range(16):
        data = bytearray(pristine)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
        signed = round % 2 == 1
        image.write_bytes(resign_image(kxcore, data) if signed else data)
        got = answers()
        assert signed or got == want, round

    # the spec's text rewritten under its old image: the image is refused as
    # stale, and the answers are the new text's, read once
    image.write_bytes(pristine)
    spec.write_text(spec.read_text().replace("default.example.com", "rewritten.example.com"))
    trace = tmp_path / "stale.trace"
    env["KONTEXT_TRACE"] = str(trace)
    rewritten = [answer.replace("default.example.com", "rewritten.example.com")
                 for answer in want]
    assert rewritten != want
    assert answers() == rewritten
    assert [r.fields[0] for r in parse_trace(trace.read_text()) if r.kind == "init"] == [
        "written:stale"]


def test_threads_run_clean_under_thread_sanitizer(tmp_path, cc):
    # the fixture is instrumented too, so TSan sees the rounds' ordering
    tsan_so = tmp_path / "_preload_tsan.so"
    _sanitized_preload(cc, tsan_so, "-fsanitize=thread")
    exe = tmp_path / "t15_threads_flip"
    subprocess.run([cc, "-O1", "-fsanitize=thread", "-o", str(exe),
                    str(DEMO_SRC / "t15_threads_flip.c")], check=True, capture_output=True)
    spec = tmp_path / "spec.ks"
    spec.write_text(PROXY_SPEC)
    # untraced, then traced: both read without the lock
    for trace in (None, tmp_path / "trace.log"):
        state = tmp_path / f"state-{trace is not None}.ks"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=spec, state=state, preload=tsan_so, trace=trace,
                                base=dict(os.environ, KXT_PLAIN="plain-value"))
        (code, out, err), calls = _threads_flip(exe, env, state)
        assert (code, err) == (0, ""), trace
        assert out == "ok\n" * 12 + "rounds=12 failures=0\n"
    records = parse_trace(trace.read_text())
    assert sum(r.kind == "getenv" for r in records) == calls > 0
    assert sum(r.kind == "reload" for r in records) == 12

    # then a child started before any state or lock file: it watches the
    # still word until the full check maps the first lock file, so the first
    # answer that changes shows "soon" and the rest at the next read
    state, trace = tmp_path / "state-none.ks", tmp_path / "trace-none.log"
    env = child_environment(spec=spec, state=state, preload=tsan_so, trace=trace,
                            base=dict(os.environ, KXT_PLAIN="plain-value"))
    child = ThreadsFlip(exe, env, state)
    wait_for_getenv_record(trace)  # initialized with no state
    state_set_layer(state, "interface", "wlan")  # the answer stays the default
    child.layers["interface"] = "wlan"
    flips = [("network", "home"), ("network", "work"), ("interface", "eth")] * 4
    for i, layer in enumerate(flips):
        child.flip(*layer, mode="soon" if i == 0 else "next")
    code, out, err = child.close()
    assert (code, err) == (0, "")
    assert out == "ok\n" * 12 + "rounds=12 failures=0\n"


def test_path_threads_run_clean_under_thread_sanitizer(tmp_path, cc):
    # registered opens read their path's slot without the lock, as getenv
    # reads a name's; the flips make the slot render its file again
    tsan_so = tmp_path / "_preload_tsan.so"
    _sanitized_preload(cc, tsan_so, "-fsanitize=thread")
    exe = tmp_path / "t20_threads_open"
    subprocess.run([cc, "-O1", "-fsanitize=thread", "-o", str(exe),
                    str(DEMO_SRC / "t20_threads_open.c")], check=True, capture_output=True)
    real = tmp_path / "app.conf"
    real.write_text("real file\n")
    spec = tmp_path / "spec.ks"
    spec.write_text(path_spec(real))
    # untraced, traced, then through fopen: the threads' first calls, made
    # at once, also resolve the real function. The absolute path finds its
    # slot as given; the relative one, traced, only after canonicalization.
    runs = ((None, False, real), (tmp_path / "trace.log", False, real), (None, True, real),
            (tmp_path / "trace-relative.log", False, Path(real.name)))
    for trace, fopen, path in runs:
        state = tmp_path / f"state-{trace is not None}-{fopen}-{path.is_absolute()}.ks"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=spec, state=state, preload=tsan_so, trace=trace,
                                base=dict(os.environ, TMPDIR=str(tmp_path)))
        (code, out, err), calls = _threads_flip(exe, env, state, path, fopen, cwd=tmp_path)
        assert (code, err) == (0, ""), (trace, fopen, path)
        assert out == "ok\n" * 12 + "rounds=12 failures=0\n"
        if trace:
            records = parse_trace(trace.read_text())
            assert sum(r.kind == "open" for r in records) == calls > 0
            assert {r.fields[0] for r in records if r.kind == "open"} == {str(real)}
            assert sum(r.kind == "reload" for r in records) == 12


@settings(max_examples=600, deadline=None)
@given(data=_text(SPEC_PREFIXES, SPEC_TOKENS))
@example(data=b"a\x00b=1\n")
@example(data=b"a=b\x00c\n")
@example(data=b"[s]\nk=v\x00\n")
@example(data=b"a=1\nb=\x00\xff\n")
@example(data=b"a=\xff\nb=\x00\n")
# later lines win: a key assigned twice, a reopened section, a section
# over a plain key without value=, a property set twice
@example(data=b"a=1\na=2\n")
@example(data=b"[a]\nx=1\n[b]\ny=2\n[a]\nz=3\n")
@example(data=b"a=1\n[a]\nx=2\n")
@example(data=b"[a]\nx=1\nx=2\n")
def test_spec_parsers_agree(kxcore, data):
    assert spec_outcome(lambda: kxcore.Engine(data).entries()) == spec_outcome(
        lambda: python_spec(data)
    )


_NAME = st.lists(st.text(alphabet="abZé~-.", min_size=1, max_size=3), min_size=1,
                 max_size=3).map("/".join)
_VALUE = st.text(alphabet="a1é%*/ ", max_size=4)


@st.composite
def _spec_blocks(draw):
    """(plain lines, section blocks) of a spec whose names are all distinct."""
    plain, sections = [], []
    for name in draw(st.lists(_NAME, min_size=1, max_size=12, unique=True)):
        if draw(st.booleans()):
            plain.append(f"{name} = {draw(_VALUE)}")
        else:
            props = draw(st.dictionaries(st.sampled_from(["value", "owner", "x"]), _VALUE,
                                         max_size=3))
            sections.append("\n".join([f"[{name}]"] + [f"{p} = {v}" for p, v in props.items()]))
    return plain, sections


@settings(max_examples=300, deadline=None)
@given(blocks=_spec_blocks(), data=st.data())
def test_spec_line_order_does_not_matter(kxcore, blocks, data):
    # plain lines go before every section, or a section would own them
    plain, sections = blocks
    text = "\n".join(plain + sections) + "\n"
    shuffled = "\n".join(data.draw(st.permutations(plain)) +
                         data.draw(st.permutations(sections))) + "\n"
    entries = kxcore.Engine(text).entries()
    assert list(kxcore.Engine(shuffled).entries().items()) == list(entries.items())
    assert entries == python_spec(text)
    # kx_keyset_get's binary search needs the items strictly increasing
    names = [name.encode() for name in entries]
    assert all(a < b for a, b in zip(names, names[1:]))


def _best_parse_s(kxcore, text, runs=3):
    """The least of `runs` times kx_parse_spec took over text, in seconds."""
    data, times = text.encode(), []
    for _ in range(runs):
        start = time.perf_counter()
        kxcore.Engine(data)
        times.append(time.perf_counter() - start)
    return min(times)


def test_spec_parse_time_does_not_depend_on_line_order(kxcore):
    lines = [f"k/{i:05d} = v{i}" for i in range(10_000)]
    in_order = _best_parse_s(kxcore, "\n".join(lines))
    reversed_ = _best_parse_s(kxcore, "\n".join(reversed(lines)))
    assert reversed_ <= 3 * in_order, (reversed_, in_order)
    # one section with as many properties: each line probes the index, not
    # the section's earlier properties
    one_section = _best_parse_s(
        kxcore, "\n".join(["[s]"] + [f"p{i:05d} = v{i}" for i in range(10_000)]))
    assert one_section <= 3 * in_order, (one_section, in_order)


def test_spec_parse_time_does_not_depend_on_property_names_repeating(kxcore):
    # every section has a property `label`: the section's seed must spread
    # those entries over the parser's table, or they fill one run of buckets
    # that every later probe crosses
    sections = 20_000
    shared = _best_parse_s(kxcore, "".join(f"[s{i}]\nlabel = v\n" for i in range(sections)), 5)
    distinct = _best_parse_s(
        kxcore, "".join(f"[s{i}]\nlabel{i} = v\n" for i in range(sections)), 5)
    assert shared <= 3 * distinct, (shared, distinct)


@settings(max_examples=600, deadline=None)
@given(data=_text(STATE_PREFIXES, STATE_TOKENS))
@example(data="generation=²\n".encode())
@example(data="generation=٣\n".encode())
@example(data=b"generation=9223372036854775808\n")
@example(data=b"generation=9223372036854775807\n")
@example(data=b"generation=1\nlayer/a\x00=b\n")
@example(data=b"generation=1\nlayer/a=b\x00c\n")
@example(data=b"generation=1\nlayer/a=\xff\n")
@example(data=b"generation=1\rlayer/a=b\n")
@example(data=b"generation=1\nlayer/b=x\nlayer/a=y\n")
@example(data=b"generation=1\r\nlayer/b=x\r\nlayer/a=y\r\n")
@example(data=b"generation=1\nlayer/b=x\nlayer/a=y")
@example(data=b"generation=1\nlayer/a=\n")
@example(data=b"generation=1\nlayer/b=x\nlayer/a=y\nlayer/b=z\n")
def test_state_parsers_agree(kxcore, state_path, data):
    assert state_outcome(lambda: kxcore.parse_state(data)) == state_outcome(
        lambda: python_state(state_path, data)
    )


@pytest.mark.parametrize("data,line", [
    ("generation=\u00b2\n".encode(), 1),
    ("generation=\u0663\n".encode(), 1),
    (b"generation=9223372036854775808\n", 1),
    (b"generation=1\nlayer/a\x00=b\n", 0),
    (b"generation=1\nlayer/a=\xff\n", 0),
])
def test_corrupt_states_rejected(kxcore, state_path, data, line):
    assert state_outcome(lambda: kxcore.parse_state(data)) == ("error", line)
    assert state_outcome(lambda: python_state(state_path, data)) == ("error", line)


# template text: literal runs, "%%", stray '%', spaced and tabbed references,
# non-ASCII, and runs of references around KX_MAX_TEMPLATE_REFS, most of a
# run naming a layer that is never set, so a run has few candidates
TEMPLATE_TOKENS = ["%", "%%", " ", "\t", "/", "*", "a", "b", "é", "%l1%", "% l1 %", "%l2%"]
_TEMPLATE_PIECES = st.lists(st.sampled_from(TEMPLATE_TOKENS), max_size=8).map("".join)
_LAYERS = st.dictionaries(st.sampled_from(["l1", "l2"]), st.sampled_from(["v", "é", "a b", "%"]))


@st.composite
def _templates(draw):
    text = draw(_TEMPLATE_PIECES)
    if draw(st.booleans()):
        refs = draw(st.lists(st.sampled_from(["%l1%", "% l2 %"]), max_size=3))
        run = ["%unset%"] * (draw(st.integers(15, 18)) - len(refs)) + refs
        text += "".join(draw(st.permutations(run))) + draw(_TEMPLATE_PIECES)
    return text


def template_outcome(run):
    """("ok", result) or ("error",) for a TemplateError."""
    try:
        return ("ok", run())
    except TemplateError:
        return ("error",)


@settings(max_examples=1000, deadline=None)
@given(text=_templates(), layers=_LAYERS, hits=st.lists(st.integers(0, 1 << 16), max_size=2),
       own=st.sampled_from(["", "own"]))
@example(text="a/%l1%%%", layers={"l1": "v"}, hits=[0], own="")
@example(text="a/%l1%%", layers={}, hits=[], own="")
@example(text="%% a/% l1 %", layers={"l1": "a b"}, hits=[1], own="own")
@example(text="a" + "/%l1%" * 16, layers={}, hits=[0], own="")
@example(text="a" + "/%l1%" * 17, layers={}, hits=[0], own="")
def test_template_walks_agree(kxcore, text, layers, hits, own):
    # candidates of the text itself, then a lookup through a key whose
    # context it is (the spec trims the text) and a few of whose candidates
    # are keys
    assert template_outcome(lambda: kxcore.candidates(text, layers)) == template_outcome(
        lambda: candidates(text, ContextState(layers)))
    names = template_outcome(lambda: candidates(text.strip(" \t"), ContextState(layers)))
    keys = [names[1][i % len(names[1])] for i in hits] if names[0] == "ok" else []
    spec = "".join(f"{name} = hit{i}\n" for i, name in enumerate(keys))
    spec += f"[q]\ncontext = {text}\nvalue = {own}\n"
    try:
        keyset = parse_spec(spec).keyset
    except SpecParseError:
        return  # a candidate a spec line cannot carry
    assert template_outcome(lambda: kxcore.Engine(spec).lookup("q", ContextState(layers))) == (
        template_outcome(lambda: contextual_lookup(keyset, "q", ContextState(layers))))


def test_core_runs_clean_under_sanitizers(tmp_path, cc):
    # the state parser's and the template walk's differentials and criterion
    # 3's oracle instances, in a child Python that loads the ASan runtime
    # before the sanitized core
    core = tmp_path / "_kxcore_asan.so"
    _sanitized_preload(cc, core, "-fsanitize=address,undefined", core_only=True)
    runtime = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    tests = Path(__file__).resolve().parent
    script = ("import sys; from pathlib import Path; import kxcore; kxcore.load(sys.argv[1]); "
              "import test_core_binding, test_acceptance; "
              "test_core_binding.test_state_parsers_agree(kxcore=kxcore, "
              "state_path=Path('state.ks')); "
              "test_core_binding.test_template_walks_agree(kxcore=kxcore); "
              "test_acceptance.test_criterion_03_lookup_oracle_equivalence(kxcore)")
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
               PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src")]))
    ran = subprocess.run([sys.executable, "-c", script, str(core)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert (ran.returncode, ran.stderr) == (0, ""), ran.stderr[-4000:]
