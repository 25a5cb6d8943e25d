from __future__ import annotations

import io
import os
import shutil
import struct
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# child interpreters the tests start (python -m kontext) import the tree
# under test too, also when only pytest's own sys.path holds it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))
DEMO_SRC = FIXTURES / "demos"
SCAN_CORPUS = FIXTURES / "scancorpus"

# Canonical proxy example used throughout: one contextual key delegating to
# a two-layer template, three pattern entries including the full wildcard.
PROXY_SPEC = """\
http_proxy/*/* = default.example.com
http_proxy/eth/work = proxy.example.com
http_proxy/wlan/home = proxy.example.org

[getenv/http_proxy]
context = http_proxy/%interface%/%network%
value = default.example.com
"""

# every value PROXY_SPEC gives getenv("http_proxy")
PROXY_VALUES = ("default.example.com", "proxy.example.com", "proxy.example.org")


def path_spec(real: Path) -> str:
    """PROXY_SPEC plus `real` registered with template conf/app, whose one
    key, conf/app/host, takes http_proxy's value under every state."""
    return (f"{PROXY_SPEC}\n[conf/app/host]\ncontext = http_proxy/%interface%/%network%\n"
            f"\n[open{real}]\ntemplate = conf/app\n")


def path_spellings(real: Path):
    """Ways to open the registered file `real` from its own directory, each
    as (argument, whether the shim serves the shadow). Matching is textual,
    after the cwd join and the collapse of ., .. and //, so every spelling of
    the path does, missing/../ included; a file of the same name elsewhere
    does not. Makes the directories and the other file these go through."""
    base, name = real.parent, real.name
    (base / "sub").mkdir(exist_ok=True)
    (base / "other").mkdir(exist_ok=True)
    (base / "other" / name).write_text("other file\n")
    return [(str(real), True), (name, True), (f"./{name}", True), (f"sub/../{name}", True),
            (f"missing/../{name}", True), (f".//{name}", True), (f"{base}//{name}", True),
            (f"other/{name}", False)]


# after a registered path, these name a directory: the shim leaves the open
# to libc, which fails it with ENOTDIR
DIRECTORY_SUFFIXES = ("/", "/.", "/..")


# (name, what libc's getenv answers) for t16_env_scan's own entries over an
# otherwise empty environment, as the fixture prints it: bytes outside
# printable ASCII as \xNN. The names reach the fixture through os.fsencode,
# so \udcff is the byte 0xff.
ENV_SCAN_CASES = (
    ("Q", "one"), ("QQ", "two"), ("Q=", "(unset)"), ("Z", "(unset)"), ("Y", "yes"),
    ("NOEQ", "after"), ("PREFIX", "(unset)"), ("PREFIXED", "long"), ("P", "short"),
    ("A=B", "C"), ("", "(unset)"), ("=", "eq"), ("=x", "(unset)"), ("==", "(unset)"),
    ("==e", "(unset)"), ("LONGNAM", "(unset)"), ("LONGNAME", "full"),
    ("LONGNAME" + "X" * 300, "(unset)"), ("\u00e9T\udcff", r"\xe2\x82\xac\x80"),
    ("\u00e9T", "(unset)"))


KONTEXT_CMD = [sys.executable, "-m", "kontext"]

# a spec image's checksum and header size (kx_image_header, native/core.c)
IMAGE_CHECKSUM, IMAGE_HEADER = 56, 64


def resign_image(kxcore, data: bytearray) -> bytearray:
    """A damaged spec image with its checksum made right again by core.c's
    own hash, so only the offset checks stand between it and a reader."""
    data[IMAGE_CHECKSUM:IMAGE_HEADER] = struct.pack(
        "=Q", kxcore.hash64(bytes(data[IMAGE_HEADER:])))
    return data


class ThreadsFlip:
    """A running t15_threads_flip child under `env`, a shim over PROXY_SPEC
    and `state`, with KXT_PLAIN=plain-value; or, given `path`, a
    t20_threads_open child reading that registered path, whose shadow file
    holds one line, host=<http_proxy's value> (path_spec), through open or,
    with `fopen`, through fopen. The child runs in `cwd`, where a relative
    `path` starts.

    flip() sets one layer and then tells the child the value http_proxy has
    now ("next": each thread's next read must return it, "soon": within
    3 s). The value is computed before the flip, so the round reaches the
    child as soon as the flip returns. After close(), `calls` holds the
    number of getenv calls (or opens) the child's threads made.
    """

    def __init__(self, exe, env, state, path=None, fopen=False, cwd=None):
        from kontext.layerstate import state_read
        from kontext.specfile import parse_spec

        self.keyset = parse_spec(PROXY_SPEC).keyset
        self.state = state
        self.layers = dict(state_read(state).layers)
        self.lines = []
        self.calls = None
        self.form = "host={}" if path else "{}"
        argv = [str(exe), *(["fopen"] if fopen else []), *([str(path)] if path else []),
                *(self.form.format(v) for v in PROXY_VALUES)]
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, bufsize=1)

    def flip(self, name, value, mode="next"):
        """One round: the child's "ok" or "fail", or "" if it died."""
        from kontext.context import ContextState, contextual_lookup
        from kontext.layerstate import state_set_layer

        self.layers[name] = value
        expected = self.form.format(contextual_lookup(
            self.keyset, "getenv/http_proxy", ContextState(self.layers, 0)).value)
        state_set_layer(self.state, name, value)
        try:
            self.proc.stdin.write(f"{mode} {expected}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the child died; its stderr says why
        self.lines.append(self.proc.stdout.readline())
        return self.lines[-1].strip()

    def close(self):
        """(exit code, stdout, stderr); stdout holds "ok" per round and the
        summary, and the calls line goes to `calls`."""
        try:
            out, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, err = self.proc.communicate()
        summary, _, calls = out.rpartition("calls=")
        if calls.strip().isdigit():
            out, self.calls = summary, int(calls)
        return self.proc.returncode, "".join(self.lines) + out, err


def wait_for_getenv_record(trace, timeout=10.0, kind="getenv"):
    """Wait until a traced child wrote its first getenv record (or record of
    `kind`): its shim has then loaded the state, so a later flip is a
    reload."""
    deadline = time.monotonic() + timeout
    while not (trace.exists() and f"\t{kind}\t" in trace.read_text()):
        assert time.monotonic() < deadline, f"no {kind} record in {trace}"
        time.sleep(0.01)


def c_compiler() -> Optional[str]:
    """The C compiler kontext.nativebuild runs, $CC or else cc; None when it
    is not on PATH. Every native build of the tests goes through it."""
    cc = os.environ.get("CC", "cc")
    return cc if shutil.which(cc) else None


@pytest.fixture(scope="session")
def cc() -> str:
    """c_compiler(); skips the test without one."""
    compiler = c_compiler()
    if compiler is None:
        pytest.skip("no C compiler on PATH")
    return compiler


@pytest.fixture(scope="session")
def _session_preload(tmp_path_factory) -> Optional[Path]:
    """_preload.so compiled once from the current sources; None without a
    C compiler (c_compiler).

    It goes to a pytest temp dir, never into src/, so the packaged-path
    fallback of preload_library_path() stays what a bare checkout has.
    A compile error fails the session with the compiler's stderr.
    """
    if c_compiler() is None:
        return None
    from kontext.nativebuild import build_preload

    return build_preload(tmp_path_factory.mktemp("preload") / "_preload.so")


@pytest.fixture(scope="session")
def kxcore_so(tmp_path_factory, cc) -> Path:
    """_kxcore.so (core.c alone, kx_* exported) built once, like _session_preload."""
    from kontext.nativebuild import build_core

    return build_core(tmp_path_factory.mktemp("kxcore") / "_kxcore.so")


@pytest.fixture(scope="session")
def kxcore(kxcore_so):
    """The C engine through its ctypes binding (tests/kxcore.py)."""
    import kxcore as binding

    binding.load(kxcore_so)
    return binding


@pytest.fixture(autouse=True)
def _clean_kontext_env(monkeypatch, _session_preload):
    for var in (
        "KONTEXT_SPEC",
        "KONTEXT_STATE",
        "KONTEXT_TRACE",
        "KONTEXT_PRELOAD",
        "LD_PRELOAD",
    ):
        monkeypatch.delenv(var, raising=False)
    # in-process `kontext run/trace`, CLI subprocesses and child_environment()
    # without preload= all resolve the session-built library
    if _session_preload is not None:
        monkeypatch.setenv("KONTEXT_PRELOAD", str(_session_preload))


@pytest.fixture
def proxy_spec(tmp_path) -> Path:
    path = tmp_path / "proxy.ks"
    path.write_text(PROXY_SPEC)
    return path


@pytest.fixture
def state_file(tmp_path) -> Path:
    return tmp_path / "state.ks"


@pytest.fixture(scope="session")
def demo_bins(tmp_path_factory, cc):
    """Compile every fixture C program once; {stem: executable path}."""
    outdir = tmp_path_factory.mktemp("demo-bins")
    bins = {}
    for src in sorted(DEMO_SRC.glob("*.c")):
        exe = outdir / src.stem
        subprocess.run(
            [cc, "-O1", "-o", str(exe), str(src)],
            check=True,
            capture_output=True,
        )
        bins[src.stem] = exe
    return bins


@pytest.fixture(scope="session")
def preload_so(_session_preload) -> Path:
    if _session_preload is None:
        pytest.skip("no C compiler on PATH")
    return _session_preload


def run_cli(*argv):
    """Run the CLI in-process; (exit_code, stdout, stderr)."""
    from kontext.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli():
    return run_cli
