"""Durable layer state: strict file grammar, locked writers, notify."""

from __future__ import annotations

import fcntl
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kontext import (
    ContextState,
    CorruptStateError,
    InvalidLayerError,
    LockTimeoutError,
    notify,
    state_parse,
    state_read,
    state_serialize,
    state_set_layer,
    state_write,
)
from kontext import fsutil
from kontext.layerstate import GENERATION_MAX, default_state_path


class TestSerialize:
    def test_empty_state(self):
        assert state_serialize(ContextState({}, 0)) == "generation=0\n"

    def test_layers_sorted_by_name(self):
        ctx = ContextState({"network": "home", "interface": "eth"}, 7)
        assert state_serialize(ctx) == (
            "generation=7\nlayer/interface=eth\nlayer/network=home\n"
        )

    def test_round_trip(self):
        ctx = ContextState({"a": "x y", "b": "2"}, 41)
        back = state_parse(state_serialize(ctx))
        assert back.generation == 41
        assert dict(back.layers) == {"a": "x y", "b": "2"}

    def test_serialize_is_parse_stable(self):
        text = "generation=3\nlayer/a=1\nlayer/b=2\n"
        assert state_serialize(state_parse(text)) == text


class TestParse:
    def test_minimal(self):
        ctx = state_parse("generation=0\n")
        assert ctx.generation == 0
        assert dict(ctx.layers) == {}

    def test_generation_after_layers(self):
        ctx = state_parse("layer/a=b\ngeneration=3\n")
        assert ctx.generation == 3
        assert ctx.get("a") == "b"

    def test_blank_lines_skipped(self):
        ctx = state_parse("\ngeneration=1\n\nlayer/a=b\n\n")
        assert ctx.generation == 1

    def test_crlf_tolerated(self):
        ctx = state_parse("generation=2\r\nlayer/a=b\r\n")
        assert ctx.generation == 2
        assert ctx.get("a") == "b"

    def test_missing_generation(self):
        with pytest.raises(CorruptStateError) as exc:
            state_parse("layer/a=b\n")
        assert exc.value.line == 0

    def test_second_generation_line(self):
        with pytest.raises(CorruptStateError) as exc:
            state_parse("generation=1\ngeneration=2\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("bad", ["x", "-1", "1.5", "", " 1"])
    def test_bad_generation_value(self, bad):
        with pytest.raises(CorruptStateError):
            state_parse(f"generation={bad}\n")

    def test_line_without_assignment(self):
        with pytest.raises(CorruptStateError) as exc:
            state_parse("generation=1\njunk\n")
        assert exc.value.line == 2

    def test_unexpected_entry(self):
        with pytest.raises(CorruptStateError):
            state_parse("generation=1\nother/a=b\n")

    def test_duplicate_layer(self):
        with pytest.raises(CorruptStateError) as exc:
            state_parse("generation=1\nlayer/a=1\nlayer/a=2\n")
        assert exc.value.line == 3

    def test_bad_layer_name(self):
        # slash in the layer name itself
        with pytest.raises(CorruptStateError):
            state_parse("generation=1\nlayer/a/b=v\n")

    def test_wildcard_value_rejected(self):
        with pytest.raises(CorruptStateError):
            state_parse("generation=1\nlayer/a=*\n")

    def test_empty_value_rejected(self):
        with pytest.raises(CorruptStateError):
            state_parse("generation=1\nlayer/a=\n")


class TestReadWrite:
    def test_missing_file_is_empty_gen_zero(self, tmp_path):
        ctx = state_read(tmp_path / "absent.ks")
        assert ctx.generation == 0
        assert dict(ctx.layers) == {}

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "state.ks"
        state_write(path, ContextState({"net": "wan"}, 5))
        ctx = state_read(path)
        assert ctx.generation == 5
        assert ctx.get("net") == "wan"

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "er" / "state.ks"
        state_write(path, ContextState({}, 1))
        assert state_read(path).generation == 1

    def test_non_utf8_is_corrupt(self, tmp_path):
        path = tmp_path / "state.ks"
        path.write_bytes(b"generation=1\nlayer/a=\xff\xfe\n")
        with pytest.raises(CorruptStateError):
            state_read(path)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "state.ks"
        path.write_text("not a state file\n")
        with pytest.raises(CorruptStateError):
            state_read(path)


class TestSetLayer:
    def test_set_creates_file_at_gen_one(self, tmp_path):
        path = tmp_path / "state.ks"
        gen = state_set_layer(path, "network", "home")
        assert gen == 1
        ctx = state_read(path)
        assert ctx.generation == 1
        assert ctx.get("network") == "home"

    def test_every_call_advances_generation(self, tmp_path):
        path = tmp_path / "state.ks"
        assert state_set_layer(path, "a", "1") == 1
        assert state_set_layer(path, "a", "1") == 2  # same value still bumps
        assert state_set_layer(path, "b", "2") == 3
        assert state_set_layer(path, "missing", None) == 4  # unset absent layer
        assert state_read(path).generation == 4

    def test_unset_removes_layer(self, tmp_path):
        path = tmp_path / "state.ks"
        state_set_layer(path, "a", "1")
        state_set_layer(path, "b", "2")
        state_set_layer(path, "a", None)
        ctx = state_read(path)
        assert ctx.get("a") is None
        assert ctx.get("b") == "2"

    def test_last_generation_cannot_advance(self, tmp_path):
        path = tmp_path / "state.ks"
        state_write(path, ContextState({"a": "1"}, GENERATION_MAX))
        with pytest.raises(CorruptStateError):
            state_set_layer(path, "a", "2")
        assert state_read(path) == ContextState({"a": "1"}, GENERATION_MAX)

    def test_invalid_name_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "state.ks"
        with pytest.raises(InvalidLayerError):
            state_set_layer(path, "a/b", "v")
        assert not path.exists()
        assert not Path(str(path) + ".lock").exists()

    def test_invalid_value_rejected_before_any_write(self, tmp_path):
        path = tmp_path / "state.ks"
        state_set_layer(path, "a", "1")
        before = path.read_text()
        with pytest.raises(InvalidLayerError):
            state_set_layer(path, "a", "*")
        assert path.read_text() == before

    def test_lock_timeout(self, tmp_path):
        path = tmp_path / "state.ks"
        lock_fd = os.open(str(path) + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            start = time.monotonic()
            with pytest.raises(LockTimeoutError):
                state_set_layer(path, "a", "1", timeout=0.2)
            assert time.monotonic() - start < 2.0
        finally:
            os.close(lock_fd)
        # lock released: the same call now succeeds
        assert state_set_layer(path, "a", "1", timeout=0.2) == 1

    def test_crash_before_rename_leaves_old_state(self, tmp_path, monkeypatch):
        path = tmp_path / "state.ks"
        state_set_layer(path, "a", "1")
        before = path.read_text()

        def boom(src, dst):
            raise RuntimeError("simulated crash before publish")

        monkeypatch.setattr(fsutil.os, "replace", boom)
        with pytest.raises(RuntimeError):
            state_set_layer(path, "a", "2")
        assert path.read_text() == before
        assert state_read(path).get("a") == "1"
        assert list(tmp_path.glob(".state.ks.*")) == []  # no temp file left

    def test_hook_runs_between_write_and_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "state.ks"
        state_set_layer(path, "a", "1")
        seen = {}
        real_replace = fsutil.os.replace

        def peek(src, dst):
            # the new snapshot is written, the target still holds the old one
            seen["temp"] = state_read(src).generation
            seen["during"] = state_read(path).generation
            real_replace(src, dst)

        monkeypatch.setattr(fsutil.os, "replace", peek)
        state_set_layer(path, "a", "2")
        assert seen == {"temp": 2, "during": 1}
        assert state_read(path).generation == 2
        assert list(tmp_path.glob(".state.ks.*")) == []  # no temp file left

    def test_stale_temp_file_does_not_break_readers(self, tmp_path):
        path = tmp_path / "state.ks"
        state_set_layer(path, "a", "1")
        (tmp_path / ".state.ks.stale123").write_text("garbage")
        assert state_read(path).get("a") == "1"
        assert state_set_layer(path, "b", "2") == 2


class TestNotify:
    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError) as exc:
            notify([1], "KILL")
        assert "HUP" in str(exc.value)

    @pytest.mark.parametrize("name", ["TERM", "SIGKILL", "9", "INT"])
    def test_whitelist_is_small(self, name):
        with pytest.raises(ValueError):
            notify([1], name)

    def test_sig_prefix_and_case_accepted(self):
        # validation path only: empty pid list sends nothing
        assert notify([], "sighup") == []
        assert notify([], "Usr1") == []

    def test_non_positive_pids_rejected_without_kill(self):
        results = notify([0, -1, -12345], "HUP")
        assert all(not r.ok for r in results)
        assert all(r.error == "non-positive pid rejected" for r in results)

    def test_no_such_process(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        (result,) = notify([proc.pid], "USR1")
        assert not result.ok
        assert result.error == "no such process"

    def test_signal_delivered_to_live_process(self):
        code = "import signal, time\nsignal.signal(signal.SIGHUP, lambda *a: exit(3))\nprint('ready', flush=True)\ntime.sleep(30)\n"
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == b"ready"
            (result,) = notify([proc.pid], "HUP")
            assert result.ok
            assert proc.wait(timeout=10) == 3
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_mixed_results_keep_order(self):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        results = notify([-1, dead.pid], "USR2")
        assert [r.pid for r in results] == [-1, dead.pid]
        assert [r.ok for r in results] == [False, False]


class TestDefaultPath:
    def test_honors_runtime_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_RUNTIME_DIR", str(tmp_path))
        assert default_state_path() == tmp_path / "kontext" / "state.ks"

    def test_falls_back_to_tmp(self, monkeypatch):
        monkeypatch.delenv("XDG_RUNTIME_DIR", raising=False)
        assert default_state_path() == Path("/tmp/kontext/state.ks")
