"""Child environments for the preload library, and the real shim's
behaviour in running children."""

from __future__ import annotations

import errno
import os
import re
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DIRECTORY_SUFFIXES, ENV_SCAN_CASES, KONTEXT_CMD, PROXY_SPEC, ThreadsFlip,
                      path_spec, path_spellings, wait_for_getenv_record)
from kontext.context import ContextState
from kontext.errors import KontextError, UnsafeLockError
from kontext.layerstate import state_read, state_set_layer, state_write
from kontext.shim import child_environment, preload_library_path
from kontext.tracing import load_trace, parse_trace


@pytest.fixture(params=["preload"])
def shim(request, probe_child):
    """Start the real _preload.so over PROXY_SPEC in a running child:
    (state, environ=None) -> object with getenv. The id names the shim the
    test runs on."""
    return probe_child


class TestGetenvPath:
    def test_unregistered_falls_through(self, tmp_path, shim):
        sess = shim(tmp_path / "s.ks", {"PATH": "/usr/bin"})
        assert sess.getenv("PATH") == "/usr/bin"

    def test_unregistered_missing_is_none(self, tmp_path, shim):
        sess = shim(tmp_path / "s.ks")
        assert sess.getenv("NO_SUCH_VAR") is None

    def test_registered_hit_without_state(self, tmp_path, shim):
        sess = shim(tmp_path / "s.ks", {"http_proxy": "ignored"})
        assert sess.getenv("http_proxy") == "default.example.com"

    def test_registered_hit_with_layers(self, tmp_path, shim):
        state = tmp_path / "s.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        sess = shim(state)
        assert sess.getenv("http_proxy") == "proxy.example.com"

    def test_environment_never_consulted_on_hit(self, probe_child, tmp_path):
        # every state's answer comes from the spec, also where the template
        # finds only the full wildcard
        state = tmp_path / "s.ks"
        child = probe_child(state, {"http_proxy": "env-proxy"})
        for layer, answer in [(("interface", "eth"), "default.example.com"),
                              (("network", "work"), "proxy.example.com"),
                              (("interface", "wlan"), "default.example.com"),
                              (("network", "home"), "proxy.example.org")]:
            state_set_layer(state, *layer)
            assert child.getenv("http_proxy") == answer

    def test_invalid_names_fall_through(self, probe_child, tmp_path):
        # names the key grammar cannot hold are never registered
        child = probe_child(tmp_path / "s.ks", {"a//b": "weird"})
        assert child.getenv("a//b") == "weird"
        assert child.getenv("") is None

    def test_lookup_failure_falls_open(self, demo_bins, preload_so, tmp_path):
        # a template that does not parse, and a chain of 17 keys, one more
        # than a lookup follows
        spec = tmp_path / "broken.ks"
        chain = "".join(f"[chain/{i}]\ncontext = chain/{i + 1}\n" for i in range(15))
        spec.write_text("chain/15 = end\n[getenv/bad]\ncontext = bad/%unterminated\n"
                        f"[getenv/deep]\ncontext = chain/0\n{chain}")
        child = _Probe(demo_bins["sync_getenv_ptr"], spec, tmp_path / "s.ks",
                       {"bad": "env-bad", "deep": "env-deep"})
        try:
            assert [child.getenv("bad"), child.getenv("deep")] == ["env-bad", "env-deep"]
        finally:
            child.close()


class TestStateRefresh:
    def test_reload_on_state_change(self, tmp_path, shim):
        state = tmp_path / "s.ks"
        state_set_layer(state, "interface", "wlan")
        state_set_layer(state, "network", "work")
        sess = shim(state)
        assert sess.getenv("http_proxy") == "default.example.com"

        state_set_layer(state, "network", "home")
        assert sess.getenv("http_proxy") == "proxy.example.org"

    def test_no_reload_when_file_unchanged(self, demo_bins, preload_so, proxy_spec, tmp_path):
        state, trace = tmp_path / "s.ks", tmp_path / "trace.log"
        state_set_layer(state, "interface", "eth")
        child = _Probe(demo_bins["sync_getenv_ptr"], proxy_spec, state,
                       dict(os.environ, KONTEXT_TRACE=str(trace)))
        try:
            for _ in range(5):
                assert child.getenv("http_proxy") == "default.example.com"
            time.sleep(1.1)  # past the next full check, which finds the file unchanged
            assert child.getenv("http_proxy") == "default.example.com"
        finally:
            child.close()
        records = parse_trace(trace.read_text())
        assert [r.fields[1] for r in records if r.kind == "getenv"] == ["hit"] * 6
        assert [r for r in records if r.kind == "reload"] == []

    def test_stale_generation_not_adopted(self, probe_child, tmp_path):
        state = tmp_path / "s.ks"
        state_write(state, ContextState({"interface": "eth", "network": "work"}, 9))
        child = probe_child(state)
        assert child.getenv("http_proxy") == "proxy.example.com"

        # a rewrite that moves the counter backwards is ignored; one that
        # moves it past the adopted state is not
        state_write(state, ContextState({"interface": "wlan", "network": "home"}, 3))
        assert child.getenv("http_proxy") == "proxy.example.com"
        state_write(state, ContextState({"interface": "wlan", "network": "home"}, 10))
        assert child.getenv("http_proxy") == "proxy.example.org"

    @pytest.mark.parametrize("change", ["stale", "corrupt", "deleted"])
    def test_preload_keeps_cached_answer(self, probe_child, tmp_path, change):
        # an older generation moves the word backwards, a hand-written
        # corrupt file moves no word and is read at the once-a-second check,
        # a deleted file is missing there
        state = tmp_path / "s.ks"
        state_write(state, ContextState({"interface": "eth", "network": "work"}, 9))
        child = probe_child(state)
        assert child.getenv("http_proxy") == "proxy.example.com"
        if change == "stale":
            state_write(state, ContextState({"interface": "wlan", "network": "home"}, 3))
        elif change == "corrupt":
            state.write_text("generation=zzz\n")
        else:
            state.unlink()
        assert child.getenv("http_proxy") == "proxy.example.com"
        time.sleep(1.1)  # past the next full check
        assert child.getenv("http_proxy") == "proxy.example.com"

    def test_deleted_state_keeps_cached_context(self, probe_child, tmp_path):
        # the adopted state outlives its file, and a state published after
        # the deletion is adopted
        state = tmp_path / "s.ks"
        state_write(state, ContextState({"interface": "eth", "network": "work"}, 2))
        child = probe_child(state)
        assert child.getenv("http_proxy") == "proxy.example.com"

        state.unlink()
        time.sleep(1.1)  # the next full check finds no file
        assert child.getenv("http_proxy") == "proxy.example.com"

        state_write(state, ContextState({"interface": "wlan", "network": "home"}, 3))
        assert child.getenv("http_proxy") == "proxy.example.org"

    def test_corrupt_rewrite_keeps_cached_context(self, probe_child, tmp_path):
        # a corrupt state behind a word that moved forward is read on the
        # next call, not at the once-a-second check, and the adopted state stays
        state = tmp_path / "s.ks"
        state_write(state, ContextState({"interface": "eth", "network": "work"}, 2))
        child = probe_child(state)
        assert child.getenv("http_proxy") == "proxy.example.com"

        state.write_text("generation=zzz\n")
        with open(tmp_path / "s.ks.lock", "r+b") as lock:
            lock.write((3).to_bytes(8, sys.byteorder))
        assert child.getenv("http_proxy") == "proxy.example.com"

    def test_corrupt_file_remembered_until_it_changes(self, probe_child, tmp_path):
        state = tmp_path / "s.ks"
        state_write(state, ContextState({"interface": "eth", "network": "work"}, 2))
        child = probe_child(state)
        assert child.getenv("http_proxy") == "proxy.example.com"

        state.write_text("garbage\n")
        time.sleep(1.1)  # the next full check reads the bad file and keeps the state
        assert child.getenv("http_proxy") == "proxy.example.com"

        state_write(state, ContextState({"interface": "wlan", "network": "home"}, 7))
        assert child.getenv("http_proxy") == "proxy.example.org"


class TestChildEnvironment:
    def test_requires_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "kontext.shim.preload_library_path", lambda: None
        )
        with pytest.raises(KontextError):
            child_environment(base={})

    def test_missing_explicit_library_rejected(self, tmp_path):
        with pytest.raises(KontextError):
            child_environment(base={}, preload=tmp_path / "nope.so")

    def test_sets_preload_and_absolute_paths(self, tmp_path):
        lib = tmp_path / "fake_preload.so"
        lib.write_bytes(b"\x7fELF")
        env = child_environment(
            spec="rel-spec.ks",
            state=tmp_path / "state.ks",
            trace=tmp_path / "out.trace",
            base={},
            preload=lib,
        )
        assert env["LD_PRELOAD"] == str(lib)
        assert os.path.isabs(env["KONTEXT_SPEC"])
        assert env["KONTEXT_SPEC"].endswith("rel-spec.ks")
        assert env["KONTEXT_STATE"] == str(tmp_path / "state.ks")
        assert env["KONTEXT_TRACE"] == str(tmp_path / "out.trace")

    def test_symlinked_state_passed_as_named(self, tmp_path):
        lib = tmp_path / "fake_preload.so"
        lib.write_bytes(b"\x7fELF")
        (tmp_path / "link.ks").symlink_to(tmp_path / "real.ks")
        env = child_environment(state=tmp_path / "link.ks", base={}, preload=lib)
        assert env["KONTEXT_STATE"] == str(tmp_path / "link.ks")

    def test_prepends_to_existing_preload(self, tmp_path):
        lib = tmp_path / "fake_preload.so"
        lib.write_bytes(b"\x7fELF")
        env = child_environment(base={"LD_PRELOAD": "/opt/other.so"}, preload=lib)
        assert env["LD_PRELOAD"] == f"{lib}:/opt/other.so"

    def test_base_not_mutated_and_unrelated_kept(self, tmp_path):
        lib = tmp_path / "fake_preload.so"
        lib.write_bytes(b"\x7fELF")
        base = {"HOME": "/home/u"}
        env = child_environment(base=base, preload=lib)
        assert base == {"HOME": "/home/u"}
        assert env["HOME"] == "/home/u"

    def test_override_env_var_wins(self, tmp_path, monkeypatch):
        lib = tmp_path / "override.so"
        lib.write_bytes(b"\x7fELF")
        monkeypatch.setenv("KONTEXT_PRELOAD", str(lib))
        assert preload_library_path() == lib

    def test_bad_override_falls_back_to_packaged(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KONTEXT_PRELOAD", str(tmp_path / "gone.so"))
        found = preload_library_path()
        if found is not None:
            assert found.name == "_preload.so"


class TestPreloadEndToEnd:
    def test_contextual_value_reaches_child(
        self, demo_bins, preload_so, proxy_spec, tmp_path
    ):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        env = child_environment(spec=proxy_spec, state=state, base=dict(os.environ))
        out = subprocess.run(
            [str(demo_bins["hello_proxy"])],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0
        assert "proxy.example.com" in out.stdout

    def test_trace_records_written(self, demo_bins, preload_so, proxy_spec, tmp_path):
        state = tmp_path / "state.ks"
        trace = tmp_path / "child.trace"
        env = child_environment(
            spec=proxy_spec, state=state, trace=trace, base=dict(os.environ)
        )
        out = subprocess.run(
            [str(demo_bins["hello_proxy"])],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0
        records = parse_trace(trace.read_text())
        kinds = [r.kind for r in records]
        assert kinds[0] == "start"
        assert "getenv" in kinds
        hit = [r for r in records if r.kind == "getenv" and r.fields[0] == "http_proxy"]
        assert hit and hit[0].fields[1] == "hit"
        assert hit[0].fields[2] == "default.example.com"

    def test_trace_file_is_private(self, demo_bins, preload_so, proxy_spec, tmp_path):
        # a getenv record holds the variable's value, so the trace file the
        # shim creates is its owner's alone, whatever the umask lets through
        trace = tmp_path / "child.trace"
        env = child_environment(spec=proxy_spec, state=tmp_path / "state.ks", trace=trace,
                                base=dict(os.environ))
        out = subprocess.run([str(demo_bins["hello_proxy"])], env=env, capture_output=True,
                             timeout=30, umask=0o022)
        assert out.returncode == 0
        assert stat.S_IMODE(trace.stat().st_mode) & 0o077 == 0

    def test_trace_counts_survive_exit_without_handlers(
        self, demo_bins, preload_so, proxy_spec, tmp_path
    ):
        # the child reads across K flips and leaves by _exit: no destructor
        # runs, and the trace still holds every call and every reload
        state = tmp_path / "state.ks"
        trace = tmp_path / "child.trace"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=proxy_spec, state=state, trace=trace,
                                base={k: v for k, v in os.environ.items() if k != "http_proxy"})
        child = subprocess.Popen([str(demo_bins["sync_getenv"])], env=env, text=True,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=1)
        flips = [("network", "work"), ("network", "home"), ("interface", "wlan")] * 2
        try:
            child.stdin.write("probe\n")
            child.stdin.flush()
            answers = [child.stdout.readline().strip()]
            for layer in flips:
                state_set_layer(state, *layer)
                child.stdin.write("probe\n")
                child.stdin.flush()
                answers.append(child.stdout.readline().strip())
            child.stdin.write("exit\n")
            child.stdin.flush()
            assert child.wait(timeout=10) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdin.close()
            child.stdout.close()
        assert answers == ["default.example.com", "proxy.example.com", "default.example.com",
                           "proxy.example.org", "default.example.com", "proxy.example.org",
                           "proxy.example.org"]
        records = parse_trace(trace.read_text())
        calls = [(r.fields[0], r.fields[1]) for r in records if r.kind == "getenv"]
        assert calls == [("http_proxy", "hit")] * (1 + len(flips))
        reloads = [int(r.fields[0]) for r in records if r.kind == "reload"]
        assert reloads == list(range(2, 2 + len(flips)))

    def test_non_ascii_sibling_keeps_getenv_names_registered(
        self, demo_bins, preload_so, tmp_path
    ):
        # "getenvé" sorts after every "getenv/" name: byte 0xc3 > "/"
        spec = tmp_path / "spec.ks"
        spec.write_text("getenv/http_proxy = from-spec\ngetenv\u00e9 = other\n", encoding="utf-8")
        base = dict(os.environ, http_proxy="from-env")
        env = child_environment(spec=spec, state=tmp_path / "state.ks", base=base)
        out = subprocess.run(
            [str(demo_bins["hello_proxy"])], env=env, capture_output=True, text=True, timeout=30
        )
        assert out.stdout == "from-spec\n"

    def test_unconfigured_child_passes_environment_through(
        self, demo_bins, preload_so, tmp_path
    ):
        # no KONTEXT_SPEC: the shim must behave like plain libc
        env = dict(os.environ)
        env["LD_PRELOAD"] = str(preload_so)
        env["http_proxy"] = "plain-env-value"
        out = subprocess.run(
            [str(demo_bins["hello_proxy"])],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0
        assert "plain-env-value" in out.stdout


class _Probe:
    """A running sync_getenv_ptr child: one getenv per lookup() call; or
    another stdin-driven fixture, one request per ask() call."""

    def __init__(self, exe, spec, state, environ=None):
        base = dict(os.environ) if environ is None else environ
        env = child_environment(spec=spec, state=state, base=base)
        self.proc = subprocess.Popen(
            [str(exe)],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )

    def ask(self, line):
        """The child's output line for one input line."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().rstrip("\n")

    def lookup(self, name):
        """(value or None, address) of the child's getenv(name)."""
        value, address = self.ask(name).rsplit(" ", 1)
        return (None if address == "(nil)" else value), address

    def getenv(self, name):
        return self.lookup(name)[0]

    def probe(self):
        return self.lookup("http_proxy")

    def close(self):
        try:
            self.proc.stdin.close()
            assert self.proc.wait(timeout=10) == 0
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


@pytest.fixture
def probe_child(demo_bins, preload_so, proxy_spec):
    children = []

    def start(state, environ=None):
        child = _Probe(demo_bins["sync_getenv_ptr"], proxy_spec, state, environ)
        children.append(child)
        return child

    yield start
    for child in children:
        child.close()


def _hand_write(state, generation, network):
    """Publish a state the way an editor would: no generation word."""
    state.write_text(
        f"generation={generation}\nlayer/interface=eth\nlayer/network={network}\n"
    )


class TestGenerationWord:
    WORK, HOME = "proxy.example.com", "default.example.com"  # eth/work, eth/home

    def test_writers_publish_generation_word(self, tmp_path):
        state = tmp_path / "state.ks"
        lock = tmp_path / "state.ks.lock"
        state_write(state, ContextState({"interface": "eth"}, 41))
        assert int.from_bytes(lock.read_bytes()[:8], sys.byteorder) == 41
        assert state_set_layer(state, "network", "work") == 42
        assert int.from_bytes(lock.read_bytes()[:8], sys.byteorder) == 42
        state_write(state, ContextState({}, 7))  # the word follows, even backwards
        assert int.from_bytes(lock.read_bytes()[:8], sys.byteorder) == 7

    def test_writers_refuse_symlinked_lock(self, tmp_path):
        state = tmp_path / "state.ks"
        victim = tmp_path / "victim"
        victim.write_bytes(b"precious contents\n")
        (tmp_path / "state.ks.lock").symlink_to(victim)
        with pytest.raises(UnsafeLockError):
            state_set_layer(state, "network", "work")
        with pytest.raises(UnsafeLockError):
            state_write(state, ContextState({"network": "work"}, 5))
        assert victim.read_bytes() == b"precious contents\n"
        assert not state.exists()

    def test_writers_leave_hard_linked_lock_unwritten(self, tmp_path):
        state = tmp_path / "state.ks"
        victim = tmp_path / "victim"
        victim.write_bytes(b"precious contents\n")
        os.link(victim, tmp_path / "state.ks.lock")
        assert state_set_layer(state, "network", "work") == 1
        state_write(state, ContextState({"network": "home"}, 9))
        assert victim.read_bytes() == b"precious contents\n"
        assert state_read(state).generation == 9

    def test_flips_reuse_interned_answers(self, probe_child, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        child = probe_child(state)
        seen = {}
        value, address = child.probe()
        seen[value] = address
        for i in range(200):
            network = "home" if i % 2 == 0 else "work"
            state_set_layer(state, "network", network)
            value, address = child.probe()
            assert value == (self.HOME if network == "home" else self.WORK)
            assert seen.setdefault(value, address) == address
        assert len(set(seen.values())) == 2

    def test_hand_edit_seen_within_seconds(self, probe_child, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        generation = state_set_layer(state, "network", "work")
        child = probe_child(state)
        assert child.probe()[0] == self.WORK
        _hand_write(state, generation + 1, "home")
        deadline = time.monotonic() + 3.0
        while child.probe()[0] != self.HOME:
            assert time.monotonic() < deadline, "hand-written state not seen in 3 s"
            time.sleep(0.05)

    @pytest.mark.parametrize("damage", ["short", "world-writable", "symlink", "hardlink"])
    def test_unusable_word_read_at_full_check(self, probe_child, tmp_path, damage):
        # a lock file the shim may not map leaves it a word that never
        # moves: a new state shows at the once-a-second check, as a hand
        # edit does
        state = tmp_path / "state.ks"
        lock = tmp_path / "state.ks.lock"
        state_set_layer(state, "interface", "eth")
        generation = state_set_layer(state, "network", "work")
        if damage == "short":
            os.truncate(lock, 4)
        elif damage == "world-writable":
            os.chmod(lock, 0o666)
        elif damage == "symlink":  # to a file that would be usable if followed
            os.rename(lock, tmp_path / "real.lock")
            lock.symlink_to("real.lock")
        else:
            os.link(lock, tmp_path / "second.lock")
        child = probe_child(state)
        assert child.probe()[0] == self.WORK
        for name in (lock, tmp_path / "real.lock", tmp_path / "second.lock"):
            assert _word_mappings(child.proc.pid, name) == []
        _hand_write(state, generation + 1, "home")
        deadline = time.monotonic() + 3.0
        while child.probe()[0] != self.HOME:
            assert time.monotonic() < deadline, "new state not seen in 3 s"
            time.sleep(0.05)

    def test_first_state_maps_word_at_full_check(self, probe_child, tmp_path):
        # a child started before any state or lock file watches the still
        # word; the full check after the first write maps the real one
        state = tmp_path / "state.ks"
        lock = tmp_path / "state.ks.lock"
        child = probe_child(state)
        assert child.probe()[0] == "default.example.com"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        deadline = time.monotonic() + 3.0
        while child.probe()[0] != self.WORK:
            assert time.monotonic() < deadline, "first state not seen in 3 s"
            time.sleep(0.05)
        assert _word_mappings(child.proc.pid, lock) == [str(lock)]

    def test_missing_state_costs_as_little_as_a_state(self, demo_bins, preload_so, proxy_spec,
                                                     tmp_path):
        # with no state file yet, a registered read is served from its slot
        # between full checks, as with a state: within 2x of that cost
        base = {k: v for k, v in os.environ.items() if k != "http_proxy"}

        def median_ns(state):
            timed = subprocess.run(
                [str(demo_bins["getenv_latency"]), "http_proxy", "100000"],
                env=child_environment(spec=proxy_spec, state=state, base=base),
                capture_output=True, text=True, timeout=60)
            assert timed.returncode == 0, timed.stderr
            ns, answer = timed.stdout.split()
            assert answer == "default.example.com"  # eth alone, or no layers
            return int(ns)

        missing = median_ns(tmp_path / "missing" / "state.ks")
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        present = median_ns(state)
        assert missing <= 2 * present, (missing, present)


@pytest.fixture
def threads_flip_under(demo_bins, preload_so, proxy_spec, tmp_path):
    """Start a ThreadsFlip child over a state with 3,000 filler layers,
    traced to `trace` if given.

    The filler makes each reload take long enough that a round arrives
    while another thread is still reloading for the same flip.
    """
    children = []

    def start(trace=None):
        state = tmp_path / "state.ks"
        filler = {f"filler{i}": "x" for i in range(3000)}
        state_write(state, ContextState(dict(filler, interface="eth", network="work"), 1))
        base = {k: v for k, v in os.environ.items() if k != "KXT_MISSING"}
        env = child_environment(spec=proxy_spec, state=state, trace=trace,
                                base=dict(base, KXT_PLAIN="plain-value"))
        children.append(ThreadsFlip(demo_bins["t15_threads_flip"], env, state))
        return children[-1]

    yield start
    for child in children:
        if child.proc.poll() is None:
            child.proc.kill()
            child.close()


@pytest.fixture
def threads_flip(threads_flip_under):
    return threads_flip_under()


def _word_mappings(pid, lock):
    """The lines of /proc/<pid>/maps that map the lock file."""
    with open(f"/proc/{pid}/maps") as maps:
        return [line.split(None, 5)[-1].strip() for line in maps if str(lock) in line]


class TestLockFreeReads:
    """Untraced reads take no lock: threads race flips and lock-file changes."""

    LAYERS = [("network", "home"), ("network", "work"), ("interface", "wlan"),
              ("network", "home"), ("interface", "eth")] * 12

    def _race(self, child):
        for layer in self.LAYERS:
            child.flip(*layer)
        code, out, err = child.close()
        assert (code, err) == (0, "")
        assert out == "ok\n" * len(self.LAYERS) + f"rounds={len(self.LAYERS)} failures=0\n"

    def test_threads_race_flips(self, threads_flip):
        self._race(threads_flip)

    def test_threads_race_flips_traced(self, threads_flip_under, tmp_path):
        # a traced process reads without the lock too: one record per call
        # and one per reload, each a whole line
        trace = tmp_path / "trace.log"
        child = threads_flip_under(trace)
        wait_for_getenv_record(trace)
        self._race(child)
        records = parse_trace(trace.read_text())
        assert sum(r.kind == "getenv" for r in records) == child.calls > 0
        # the state starts at generation 1 and every flip is adopted once
        reloads = [int(r.fields[0]) for r in records if r.kind == "reload"]
        assert reloads == list(range(2, 2 + len(self.LAYERS)))

    def test_lock_file_replaced_under_readers(self, threads_flip, tmp_path):
        lock = tmp_path / "state.ks.lock"
        pid = threads_flip.proc.pid

        def full_check():
            time.sleep(1.1)  # the shim looks at the lock file once a second

        assert threads_flip.flip("network", "home") == "ok"
        os.chmod(lock, 0o664)  # unusable: the flip shows at the next full check
        full_check()
        assert threads_flip.flip("network", "work", mode="soon") == "ok"
        os.chmod(lock, 0o644)  # usable again: the same mapping comes back
        full_check()
        assert threads_flip.flip("network", "home") == "ok"
        assert _word_mappings(pid, lock) == [str(lock)]

        fresh = tmp_path / "fresh.lock"
        fresh.write_bytes(lock.read_bytes())
        os.chmod(fresh, 0o644)
        os.rename(fresh, lock)
        # readers hold the replaced file's word until the next full check
        assert threads_flip.flip("network", "work", mode="soon") == "ok"
        assert threads_flip.flip("network", "home") == "ok"
        # the replaced word stays mapped: a reader may still be loading it
        assert sorted(_word_mappings(pid, lock)) == [str(lock), f"{lock} (deleted)"]
        code, out, err = threads_flip.close()
        assert (code, err) == (0, "")
        assert out.endswith("rounds=5 failures=0\n")

    def test_threads_race_path_flips(self, demo_bins, preload_so, tmp_path):
        # registered opens take no lock either: every read is one state's
        # whole file, and the first open after a flip gets the new one
        real = tmp_path / "app.conf"
        real.write_text("real file\n")
        spec = tmp_path / "spec.ks"
        spec.write_text(path_spec(real))
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=spec, state=state,
                                base=dict(os.environ, TMPDIR=str(tmp_path)))
        self._race(ThreadsFlip(demo_bins["t20_threads_open"], env, state, real))


LONG_NAME = "L" * 600  # longer than any fixed key buffer


class TestNames:
    """Names are served as libc would, apart from the spec's registered ones."""

    SPEC = (f"getenv/{LONG_NAME} = long-value\n"
            "getenv/A/B = slash-value\n"
            "getenv/caf\u00e9 = cafe-value\n"
            "getenv/http_proxy = from-spec\n"
            "getenv\u00e9 = other\n")  # sorts after every getenv/ name

    def test_registered_names_served_from_spec(self, demo_bins, preload_so, tmp_path):
        spec = tmp_path / "spec.ks"
        spec.write_text(self.SPEC, encoding="utf-8")
        environ = dict(os.environ, http_proxy="from-env", **{"A/B": "env", LONG_NAME: "env"})
        child = _Probe(demo_bins["sync_getenv_ptr"], spec, tmp_path / "state.ks", environ)
        try:
            assert [child.getenv(n) for n in (LONG_NAME, "A/B", "caf\u00e9", "http_proxy")] == [
                "long-value", "slash-value", "cafe-value", "from-spec"]
            assert child.getenv(LONG_NAME + "x") is None
        finally:
            child.close()

    def test_empty_and_equals_names_fall_through(self, demo_bins, preload_so, tmp_path):
        spec = tmp_path / "spec.ks"
        spec.write_text(self.SPEC, encoding="utf-8")
        environ = dict(os.environ, A="B=C")
        names = ["", "A=B", "A"]
        libc = subprocess.run([str(demo_bins["sync_getenv_ptr"])], env=environ, text=True,
                              input="".join(n + "\n" for n in names), capture_output=True,
                              check=True).stdout.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in libc] == ["(unset)", "C", "B=C"]
        child = _Probe(demo_bins["sync_getenv_ptr"], spec, tmp_path / "state.ks", environ)
        try:
            assert [child.getenv(n) for n in names] == [None, "C", "B=C"]
        finally:
            child.close()

    def test_environment_scan_matches_libc(self, demo_bins, preload_so, proxy_spec, tmp_path):
        # t16_env_scan appends entries a scan must tell apart to its environ
        argv = [str(demo_bins["t16_env_scan"]), *(name for name, _ in ENV_SCAN_CASES)]
        libc = subprocess.run(argv, env={}, capture_output=True, text=True, check=True).stdout
        assert libc.splitlines() == [answer for _, answer in ENV_SCAN_CASES]
        env = child_environment(spec=proxy_spec, state=tmp_path / "state.ks", base={})
        shim = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
        assert shim == libc

    # environs over a tiny alphabet, so that entries share their first two
    # bytes and longer prefixes, lack '=' or are empty, and names hold '='
    _SCAN_BYTES = st.lists(st.sampled_from([b"A", b"B", b"=", b"\xff"]), max_size=6).map(b"".join)

    @settings(max_examples=150, deadline=None)
    @given(entries=st.lists(_SCAN_BYTES, max_size=10), names=st.lists(_SCAN_BYTES, max_size=10))
    def test_environment_scan_matches_libc_on_drawn_environs(self, demo_bins, preload_so,
                                                             tmp_path_factory, entries, names):
        # every entry's part before its first '=' is asked too, so hits are common
        asked = names + [entry.partition(b"=")[0] for entry in entries]
        stdin = b"".join(line + b"\n" for line in [b"%d" % len(entries), *entries, *asked])
        argv = [str(demo_bins["t16_env_scan"])]
        libc = subprocess.run(argv, env={}, input=stdin, capture_output=True, check=True).stdout
        assert len(libc.splitlines()) == len(asked)
        spec = tmp_path_factory.getbasetemp() / "env-scan.ks"
        spec.write_text(PROXY_SPEC)
        env = child_environment(spec=spec, state=spec.with_name("env-scan-state.ks"), base={})
        shim = subprocess.run(argv, env=env, input=stdin, capture_output=True, check=True).stdout
        assert shim == libc


# every export that substitutes a shadow file for a path
PATH_ENTRIES = ("open", "open64", "__open_2", "__open64_2", "fopen", "fopen64")

# a traced child's trace file: none, a file, or /dev/full, where every
# record's write fails with ENOSPC
TRACES = {"untraced": None, "traced": "trace.log", "trace-write-fails": "/dev/full"}


class TestPreloadHardening:
    def test_errno_left_as_libc_leaves_it(self, demo_bins, preload_so, tmp_path):
        # inside the shim a missing state file fails a stat, the first image
        # is missing, the shadow store exists already (mkdir fails with
        # EEXIST) and trace records are written; none of it shows in errno
        (tmp_path / f"kontext-shadow-{os.geteuid()}").mkdir(mode=0o700)
        real = tmp_path / "app.conf"
        real.write_text("real file\n")
        argv = [str(demo_bins["t17_errno"]), str(real)]
        base = {k: v for k, v in os.environ.items() if k != "http_proxy"}
        base["TMPDIR"] = str(tmp_path)
        libc = subprocess.run(argv, env=base, capture_output=True, text=True,
                              check=True).stdout.splitlines()
        calls = ["getenv", "getenv-registered", "secure_getenv", *PATH_ENTRIES]
        assert [line.split()[2] for line in libc] == ["errno=0"] * len(calls)
        for trace, trace_path in TRACES.items():
            spec = tmp_path / f"spec-{trace}.ks"
            spec.write_text(f"conf/app/host = shadow.example\n{PROXY_SPEC}"
                            f"[open{real}]\ntemplate = conf/app\n")
            env = child_environment(spec=spec, state=tmp_path / "none" / "state.ks",
                                    trace=trace_path and tmp_path / trace_path, base=base)
            shim = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  check=True).stdout.splitlines()
            assert shim == [f"{call} ok=1 errno=0" for call in calls], trace

    def test_reentrancy_guard_needs_no_tls_call(self, preload_so):
        # t_inside is initial-exec TLS, read with one thread-pointer-relative
        # load; the general-dynamic model would import __tls_get_addr
        listing = subprocess.run(["readelf", "-W", "--dyn-syms", "--relocs", str(preload_so)],
                                 capture_output=True, text=True, check=True).stdout
        assert "getenv" in listing
        assert "__tls_get_addr" not in listing

    def test_fork_while_thread_in_shim(self, demo_bins, preload_so, proxy_spec, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        env = child_environment(spec=proxy_spec, state=state, base=dict(os.environ))
        # its own session, so children stuck on a lock die with it on timeout
        proc = subprocess.Popen(
            [str(demo_bins["t11_fork_threads"])],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("forked children hung on the shim's lock")
        assert proc.returncode == 0, out
        assert out.strip() == "forks=200 failed=0"

    @pytest.mark.parametrize("configured", [True, False], ids=["spec", "no-spec"])
    def test_tmpfile_open_keeps_its_mode(self, demo_bins, preload_so, proxy_spec, tmp_path,
                                         configured):
        # glibc passes open a mode with O_TMPFILE as it does with O_CREAT
        argv = [str(demo_bins["t19_open_tmpfile"]), str(tmp_path)]
        libc = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        assert libc == "open 640\nopen64 640\n"
        env = child_environment(spec=proxy_spec if configured else None,
                                state=tmp_path / "state.ks", base=dict(os.environ))
        shim = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
        assert (shim.returncode, shim.stdout) == (0, libc)

    def test_secure_getenv_is_contextual(self, demo_bins, preload_so, proxy_spec, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "wlan")
        state_set_layer(state, "network", "home")
        env = child_environment(spec=proxy_spec, state=state, base=dict(os.environ))
        env["http_proxy"] = "from-env"
        out = subprocess.run(
            [str(demo_bins["t12_secure_getenv"])],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "proxy.example.org"


SHADOW = "host=shadow.example\n"


@pytest.fixture
def shadowed(tmp_path):
    """A real file the spec registers: (path, env); its shadow reads SHADOW.

    TMPDIR is an empty directory of the test's, where the shim makes its
    shadow store.
    """
    real = tmp_path / "app.conf"
    real.write_text("real file\n")
    spec = tmp_path / "open.ks"
    spec.write_text(f"conf/app/host = shadow.example\n[open{real}]\ntemplate = conf/app\n")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    base = dict(os.environ, TMPDIR=str(tmpdir))
    return real, child_environment(spec=spec, state=tmp_path / "state.ks", base=base)


def _run(argv, env):
    out = subprocess.run([str(a) for a in argv], env=env, capture_output=True, text=True,
                         timeout=30)
    assert out.returncode == 0, out
    return out.stdout


def _store(env):
    return Path(env["TMPDIR"]) / f"kontext-shadow-{os.geteuid()}"


def _assert_store_holds_shadow(env):
    """TMPDIR holds only the shim's store, mode 0700, and the store holds
    one file, named by its content, whose bytes are SHADOW."""
    store = _store(env)
    assert list(Path(env["TMPDIR"]).iterdir()) == [store]
    assert stat.S_ISDIR(store.lstat().st_mode)
    assert stat.S_IMODE(store.lstat().st_mode) == 0o700
    files = list(store.iterdir())
    assert [f.read_text() for f in files] == [SHADOW]
    assert re.fullmatch(rf"{len(SHADOW)}-[0-9a-f]{{16}}\.conf", files[0].name)


class TestShadowFiles:
    @pytest.mark.parametrize("entry", ["open", "open64"])
    def test_fortified_read_open_gets_shadow(self, demo_bins, preload_so, shadowed, entry):
        exe = demo_bins["t13_fortified_open"]
        assert f"__{entry}_2".encode() in exe.read_bytes()  # the build really fortified it
        real, env = shadowed
        assert _run([exe, real, os.O_RDONLY, entry], env) == SHADOW

    @pytest.mark.parametrize("entry", ["open", "open64"])
    def test_fortified_write_open_passes_through(self, demo_bins, preload_so, shadowed, entry):
        real, env = shadowed
        _run([demo_bins["t13_fortified_open"], real, os.O_WRONLY | os.O_TRUNC, entry], env)
        assert real.read_text() == "written through the fortified open\n"

    @pytest.mark.parametrize("entry", ["open", "open64"])
    def test_fortified_create_without_mode_fails_as_without_the_shim(self, demo_bins, preload_so,
                                                                      shadowed, tmp_path, entry):
        # libc's __open_2 aborts an O_CREAT open that passes no mode; the
        # shim must not make it a file with whatever mode the call lacked
        _, env = shadowed
        plain = {k: v for k, v in env.items() if k != "LD_PRELOAD"}
        outcomes = []
        for side, environ in (("libc", plain), ("shim", env)):
            created = tmp_path / f"created-{side}"
            ran = subprocess.run([str(demo_bins["t13_fortified_open"]), str(created),
                                  str(os.O_WRONLY | os.O_CREAT), entry], env=environ,
                                 capture_output=True, timeout=30)
            outcomes.append((ran.returncode, created.exists()))
        assert outcomes[0] == (-signal.SIGABRT, False)
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("trace", TRACES)
    @pytest.mark.parametrize("entry", PATH_ENTRIES)
    def test_deleted_shadow_fails_open_to_the_real_file(self, demo_bins, preload_so, shadowed,
                                                        tmp_path, entry, trace):
        # the second open still gets the deleted shadow's path from the slot;
        # its real call fails, and the retry on the caller's path leaves
        # errno as it was
        real, env = shadowed
        if TRACES[trace]:
            env = dict(env, KONTEXT_TRACE=str(tmp_path / TRACES[trace]))
        assert _run([demo_bins["t21_reopen"], real, entry], env) == \
            f"{SHADOW}real file\nerrno=0\n"

    def test_store_keeps_one_file_after_exit(self, demo_bins, preload_so, shadowed):
        real, env = shadowed
        assert _run([demo_bins["t05_open_read"], real], env) == SHADOW
        _assert_store_holds_shadow(env)

    def test_exits_without_handlers_share_one_file(self, demo_bins, preload_so, shadowed):
        # _exit runs no exit handler; the three processes render the same
        # content and so share one file
        real, env = shadowed
        for _ in range(3):
            assert _run([demo_bins["t18_open_exit"], real], env) == SHADOW
        _assert_store_holds_shadow(env)

    @pytest.mark.parametrize("how", ["fork", "clone", "orphan"])
    def test_child_and_parent_keep_their_shadows(self, demo_bins, preload_so, shadowed, how):
        # "clone" skips the fork handlers and an "orphan" child reads after
        # the parent exited; no process removes a file, so parent and child
        # serve the same one
        real, env = shadowed
        assert _run([demo_bins["t14_fork_open"], real, how], env) == SHADOW * 2
        _assert_store_holds_shadow(env)

    @pytest.mark.parametrize("store", ["world-writable", "symlink"])
    def test_untrusted_store_serves_real_file(self, demo_bins, preload_so, shadowed, tmp_path,
                                              store):
        real, env = shadowed
        inside = _store(env)
        if store == "world-writable":
            inside.mkdir()
            os.chmod(inside, 0o777)
        else:  # to a directory that would be trusted if followed
            inside = tmp_path / "elsewhere"
            inside.mkdir(mode=0o700)
            _store(env).symlink_to(inside)
        assert _run([demo_bins["t05_open_read"], real], env) == "real file\n"
        assert _run([demo_bins["t18_open_exit"], real], env) == "real file\n"
        assert list(inside.iterdir()) == []


def _fnv1a64(name):
    """kx_name_hash of name with seed 0 (native/core.h): FNV-1a, 64 bit."""
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h = (h ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    return h


class TestPathSpellings:
    """The shim finds a registered path by its canonical spelling, after the
    last path segment admitted it: any spelling gets the shadow, and
    anything else gets what libc gives."""

    @staticmethod
    def _opens(exe, arg, real, env, shim=True):
        """(exit code, stdout, stderr) of exe opening arg from the directory
        of real, under the shim or without it."""
        if not shim:
            env = {k: v for k, v in env.items() if k != "LD_PRELOAD"}
        ran = subprocess.run([str(exe), arg], env=env, cwd=real.parent, capture_output=True,
                             text=True, timeout=30)
        return ran.returncode, ran.stdout, ran.stderr

    @staticmethod
    def _spec_env(tmp_path, spec_text):
        """A child environment over spec_text, TMPDIR an empty directory."""
        spec = tmp_path / "spec.ks"
        spec.write_text(spec_text)
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        return child_environment(spec=spec, state=tmp_path / "state.ks",
                                 base=dict(os.environ, TMPDIR=str(tmpdir)))

    @pytest.mark.parametrize("stem", ["t05_open_read", "t07_fopen_read"])
    def test_each_spelling_of_the_path_gets_the_shadow(self, demo_bins, preload_so, shadowed,
                                                       stem):
        real, env = shadowed
        for arg, shadow in path_spellings(real):
            want = ((0, SHADOW, "") if shadow else
                    self._opens(demo_bins[stem], arg, real, env, shim=False))
            assert self._opens(demo_bins[stem], arg, real, env) == want, arg

    @pytest.mark.parametrize("stem", ["t05_open_read", "t07_fopen_read"])
    @pytest.mark.parametrize("suffix", DIRECTORY_SUFFIXES)
    def test_trailing_separator_fails_as_without_the_shim(self, demo_bins, preload_so, shadowed,
                                                          stem, suffix):
        # the last segment is empty, . or ..: a directory, never the file
        real, env = shadowed
        arg = f"{real}{suffix}"
        want = self._opens(demo_bins[stem], arg, real, env, shim=False)
        assert want[0] == 1 and want[1].endswith(f" failed: errno {errno.ENOTDIR}\n")
        assert self._opens(demo_bins[stem], arg, real, env) == want

    def test_many_registered_paths_each_get_their_shadow(self, demo_bins, preload_so, tmp_path):
        # 300 distinct last segments: none is turned away, and a file next
        # to them that the spec does not register gets the real file
        etc = tmp_path / "etc"
        etc.mkdir()
        paths = [etc / f"app{i}.conf" for i in range(300)] + [etc / "unregistered.conf"]
        for path in paths:
            path.write_text("real file\n")
        env = self._spec_env(tmp_path, "conf/app/host = shadow.example\n" + "".join(
            f"[open{path}]\ntemplate = conf/app\n" for path in paths[:-1]))
        ran = subprocess.run([str(demo_bins["sync_open"])], env=env, capture_output=True,
                             text=True, timeout=60, input="".join(f"{p}\n" for p in paths))
        bodies = [line.partition("\t")[2] for line in ran.stdout.splitlines()]
        assert bodies == [SHADOW.replace("\n", "\\n")] * 300 + ["real file\\n"]

    @pytest.mark.parametrize("stem", ["t05_open_read", "t07_fopen_read"])
    @pytest.mark.parametrize("form", ["dot", "dotdot", "long"])
    def test_non_canonical_registered_path_is_never_served(self, demo_bins, preload_so, tmp_path,
                                                           stem, form):
        # no canonical path equals a registered path with a . or .. segment,
        # or one too long to canonicalize, so no open gets its shadow: not
        # even one spelled exactly like it
        (tmp_path / "y").mkdir()
        real = tmp_path / "y" / "app.conf"
        real.write_text("real file\n")
        (tmp_path / "app.conf").write_text("real file above\n")
        registered = {"dot": f"{tmp_path}/y/./app.conf", "dotdot": f"{tmp_path}/y/../app.conf",
                      "long": f"{tmp_path}/" + f"{'d' * 250}/" * 33 + "app.conf"}[form]
        assert form != "long" or len(registered) >= 8192
        env = self._spec_env(tmp_path, "conf/app/host = shadow.example\n"
                                       f"[open{registered}]\ntemplate = conf/app\n")
        for arg in (registered, str(real), "app.conf"):
            want = self._opens(demo_bins[stem], arg, real, env, shim=False)
            assert want[1] != SHADOW
            assert self._opens(demo_bins[stem], arg, real, env) == want, arg

    @pytest.mark.parametrize("stem", ["t05_open_read", "t07_fopen_read"])
    def test_paths_sharing_a_last_segment_keep_their_own_shadows(self, demo_bins, preload_so,
                                                                 tmp_path, stem):
        # a/app.conf and b/app.conf are found through one last segment; c/
        # app.conf is not registered, and app.conf, relative, is spelled
        # like a registered getenv name whose value names another file
        reals = {}
        for d in "abc":
            (tmp_path / d).mkdir()
            reals[d] = tmp_path / d / "app.conf"
            reals[d].write_text(f"real file {d}\n")
        (tmp_path / "app.conf").write_text("real file above\n")
        decoy = tmp_path / "decoy.conf"
        decoy.write_text("the getenv value's file\n")
        env = self._spec_env(tmp_path, f"getenv/app.conf = {decoy}\n"
                             "conf/a/host = a.example\nconf/b/host = b.example\n"
                             f"[open{reals['a']}]\ntemplate = conf/a\n"
                             f"[open{reals['b']}]\ntemplate = conf/b\n")
        exe = demo_bins[stem]
        for d in "ab":
            for arg, shadow in path_spellings(reals[d]):
                want = ((0, f"host={d}.example\n", "") if shadow else
                        self._opens(exe, arg, reals[d], env, shim=False))
                assert self._opens(exe, arg, reals[d], env) == want, (d, arg)
        top = tmp_path / "app.conf"  # run from tmp_path
        for arg in (str(reals["c"]), "c/app.conf", "app.conf"):
            want = self._opens(exe, arg, top, env, shim=False)
            assert want[0] == 0 and want[1].startswith("real file")
            assert self._opens(exe, arg, top, env) == want, arg

    @pytest.mark.parametrize("stem", ["t05_open_read", "t07_fopen_read"])
    def test_entry_pushed_past_its_home_bucket(self, demo_bins, preload_so, tmp_path, stem):
        # two registered last segments share their home bucket in g_paths,
        # so the second in key order takes the next one; an unregistered
        # path whose home is that next bucket walks on past it to the real
        # file. Agreeing low 12 bits give the same buckets in any table of
        # up to 4,096.
        names, seen = [f"p{i}.conf" for i in range(10_000)], {}
        for name in names:
            home = _fnv1a64(name) & 0xFFF
            if home in seen:
                tails = sorted([seen[home], name])
                break
            seen[home] = name
        other = next(name for name in names if _fnv1a64(name) & 0xFFF == (home + 1) & 0xFFF)
        etc = tmp_path / "etc"
        etc.mkdir()
        registered = [etc / tail for tail in tails]
        for path in [*registered, etc / other]:
            path.write_text("real file\n")
        env = self._spec_env(tmp_path, "conf/a/host = a.example\nconf/b/host = b.example\n" +
                             "".join(f"[open{path}]\ntemplate = conf/{d}\n"
                                     for d, path in zip("ab", registered)))
        exe = demo_bins[stem]
        for d, path in zip("ab", registered):
            assert self._opens(exe, str(path), path, env) == (0, f"host={d}.example\n", "")
        assert self._opens(exe, str(etc / other), etc / other, env) == (0, "real file\n", "")

    def test_trace_names_the_canonical_path(self, demo_bins, preload_so, shadowed, tmp_path):
        # found as given or only after canonicalization, the record names
        # the registered path
        real, env = shadowed
        (real.parent / "sub").mkdir()
        env = dict(env, KONTEXT_TRACE=str(tmp_path / "trace.log"))
        spellings = [str(real), f"./{real.name}", f"sub/../{real.name}"]
        for arg in spellings:
            assert self._opens(demo_bins["t05_open_read"], arg, real, env) == (0, SHADOW, "")
        records = load_trace(tmp_path / "trace.log")
        assert [r.fields[:2] for r in records if r.kind == "open"] == \
            [(str(real), "hit")] * len(spellings)


class TestPathSlots:
    """A registered path's shadow file is its slot's answer, as a value is a
    registered name's: rendered again once a new state is adopted, and never
    an answer to getenv."""

    @pytest.fixture
    def start(self, preload_so, tmp_path):
        """Start a stdin-driven fixture over path_spec(real), TMPDIR in
        tmp_path: (exe, environ=None) -> (real, child)."""
        real = tmp_path / "app.conf"
        real.write_text("real file\n")
        spec = tmp_path / "spec.ks"
        spec.write_text(path_spec(real))
        children = []

        def start(exe, environ=None):
            base = dict(os.environ if environ is None else environ, TMPDIR=str(tmp_path))
            children.append(_Probe(exe, spec, tmp_path / "state.ks", base))
            return real, children[-1]

        yield start
        for child in children:
            child.close()

    @staticmethod
    def _open(child, real):
        """(file the child's open of real got, its bytes)."""
        target, _, body = child.ask(str(real)).partition("\t")
        return target, body.replace("\\n", "\n")

    def test_open_after_layer_set_serves_new_content(self, demo_bins, start, cli, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "home")
        real, child = start(demo_bins["sync_open"])
        assert self._open(child, real)[1] == "host=default.example.com\n"
        for layer, value, host in [("network", "work", "proxy.example.com"),
                                   ("interface", "wlan", "default.example.com"),
                                   ("network", "home", "proxy.example.org")]:
            assert cli("layer", "set", "--state", str(state), layer, value)[0] == 0
            assert self._open(child, real)[1] == f"host={host}\n"

    def test_flip_back_serves_first_file_again(self, demo_bins, start, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "eth")
        state_set_layer(state, "network", "work")
        real, child = start(demo_bins["sync_open"])
        opened = [self._open(child, real)]
        for network in ("home", "work"):
            state_set_layer(state, "network", network)
            opened.append(self._open(child, real))
        assert [body for _, body in opened] == [
            "host=proxy.example.com\n", "host=default.example.com\n", "host=proxy.example.com\n"]
        store = tmp_path / f"kontext-shadow-{os.geteuid()}"
        assert [Path(target).parent for target, _ in opened] == [store] * 3
        assert opened[0][0] == opened[2][0] != opened[1][0]

    def test_getenv_of_registered_path_falls_through(self, demo_bins, start, tmp_path):
        state = tmp_path / "state.ks"
        state_set_layer(state, "interface", "wlan")
        state_set_layer(state, "network", "home")
        environ = {k: v for k, v in os.environ.items() if k != "http_proxy"}
        path = str(tmp_path / "app.conf")  # the path start() registers
        _, child = start(demo_bins["sync_getenv_ptr"], dict(environ, **{path: "from-env"}))
        assert child.getenv("http_proxy") == "proxy.example.org"
        assert child.getenv(path) == "from-env"
        assert child.getenv(path + "x") is None


class TestFailOpenNotes:
    """A failed lookup or render, and a refused shadow store, are a slot's
    outcome like any answer: kept until the next adopted state, so the name
    or path falls through until then, and a traced process writes one note
    saying what failed."""

    @staticmethod
    def _notes(trace, topic):
        return [r.fields[1:] for r in parse_trace(trace.read_text())
                if r.kind == "note" and r.fields[0] == topic]

    def test_lookup_error_noted_once_per_state(self, demo_bins, preload_so, tmp_path):
        spec = tmp_path / "loop.ks"
        spec.write_text("[getenv/http_proxy]\ncontext = getenv/http_proxy\n")
        state, trace = tmp_path / "state.ks", tmp_path / "trace.log"
        state_set_layer(state, "network", "home")
        environ = dict(os.environ, http_proxy="from-env", KONTEXT_TRACE=str(trace))
        child = _Probe(demo_bins["sync_getenv"], spec, state, environ)
        try:
            assert [child.ask("") for _ in range(5)] == ["from-env"] * 5
            assert self._notes(trace, "lookup-error") == [
                ("getenv/http_proxy", "resolution cycle")]
            state_set_layer(state, "network", "work")
            assert child.ask("") == "from-env"
            assert len(self._notes(trace, "lookup-error")) == 2
        finally:
            child.close()

    @pytest.mark.parametrize("failure", ["shadow-store-refused", "shadow-render-error"])
    def test_failed_shadow_noted_once(self, demo_bins, preload_so, shadowed, tmp_path, failure):
        real, env = shadowed
        if failure == "shadow-store-refused":
            _store(env).mkdir()
            os.chmod(_store(env), 0o777)
            why = [(str(_store(env)),)]
        else:  # the one key below the template resolves in a cycle
            Path(env["KONTEXT_SPEC"]).write_text(
                f"[conf/app/host]\ncontext = conf/app/host\n[open{real}]\ntemplate = conf/app\n")
            why = [("conf/app/host", "resolution cycle")]
        trace = tmp_path / "trace.log"
        out = subprocess.run([str(demo_bins["sync_open"])], input=f"{real}\n" * 20,
                             env=dict(env, KONTEXT_TRACE=str(trace)), capture_output=True,
                             text=True, timeout=30)
        assert [line.partition("\t")[2] for line in out.stdout.splitlines()] == [
            "real file\\n"] * 20
        records = parse_trace(trace.read_text())
        assert [r.fields[1] for r in records if r.kind == "open"] == ["fallthrough"] * 20
        assert self._notes(trace, failure) == why


class TestStateTrust:
    """The shim reads the state file only when it passes the lock file's
    rules: a symlink, another user's file, a group- or world-writable one, a
    second link or a FIFO is refused, and the state adopted before stays.
    The CLI refuses the same files (exit 3), and a writer builds nothing on
    one."""

    @pytest.mark.parametrize("damage, rule", [("fifo", "type"), ("world-writable", "mode"),
                                              ("symlink", "symlink"), ("hard-link", "links")])
    def test_untrusted_state_refused(self, demo_bins, preload_so, proxy_spec, tmp_path,
                                     damage, rule):
        # a FIFO must not block the first call; no other damaged state may
        # be adopted (eth/work would answer proxy.example.com)
        state, trace = tmp_path / "state.ks", tmp_path / "trace.log"
        if damage == "fifo":
            os.mkfifo(state)
        else:
            real = tmp_path / ("real.ks" if damage == "symlink" else "state.ks")
            state_set_layer(real, "interface", "eth")
            state_set_layer(real, "network", "work")
            if damage == "world-writable":
                os.chmod(state, 0o666)
            elif damage == "symlink":
                state.symlink_to(real)
            else:
                os.link(state, tmp_path / "second.ks")
        env = child_environment(spec=proxy_spec, state=state, trace=trace,
                                base={k: v for k, v in os.environ.items() if k != "http_proxy"})
        for name, want in [("http_proxy", "default.example.com"),
                           ("HOME", os.environ.get("HOME", "(unset)"))]:
            ran = subprocess.run([str(demo_bins["getenv_latency"]), name, "3"], env=env,
                                 capture_output=True, text=True, timeout=10)
            assert (ran.returncode, ran.stdout.split(None, 1)[1].strip()) == (0, want), name
        assert {r.fields[1:] for r in parse_trace(trace.read_text())
                if r.kind == "note" and r.fields[0] == "state-refused"} == {(rule,)}

        def untouched():  # a FIFO's bytes cannot be read without a writer
            return os.lstat(state).st_mode, damage == "fifo" or state.read_bytes()

        before = untouched()
        for args in (["get", "--spec", proxy_spec, "--state", state, "getenv/http_proxy"],
                     ["layer", "set", "--state", state, "network", "home"]):
            ran = subprocess.run(KONTEXT_CMD + [str(a) for a in args], capture_output=True,
                                 text=True, timeout=10)
            assert (ran.returncode, ran.stdout) == (3, ""), (args, ran.stderr)
            assert f"state file refused: {rule}" in ran.stderr, args
        assert untouched() == before
