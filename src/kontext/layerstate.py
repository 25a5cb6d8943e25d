"""Durable layer state: a small file read by every shimmed process.

The file is UTF-8 with no NUL byte. It holds exactly one
`generation=<uint>` line (ASCII digits, at most 2**63-1) plus one
`layer/<name>=<value>` line per active layer (name order). Writers take an
advisory flock on `<path>.lock`, re-read the current state, bump the
generation, write a temp file in the same directory, and rename it over the
target. Readers never lock: the rename keeps every read a complete snapshot.

After every publish the writer also stores the published generation as 8
bytes in native byte order at offset 0 of `<path>.lock`. The preload shim
maps that word and re-reads the state file only when it changed. Writers
never truncate or delete the lock file. They never follow a symlink at the
lock path (they raise UnsafeLockError before writing anything), and they
store the word only in a regular, singly linked file owned by the effective
uid, so a lock name planted by another user in a shared state directory
cannot redirect the write into some other file. Storing the generation
rather than a counter makes a race between unlocked `state_write` calls
harmless: the shim adopts a state only when its generation is larger, so a
word written late can cause a spurious reload but never hide a newer state.

Generations only grow. A missing file is the empty state at generation 0;
any grammar deviation in an existing file raises CorruptStateError with the
offending line number (0 for a NUL byte or invalid UTF-8, as in the shim).
A file the shim refuses to read (a symlink, a FIFO or other non-regular
file, another user's, a second link, group- or world-writable) raises
CorruptStateError at line 0 too, so the CLI and the shim agree on it and a
writer builds nothing on it.
"""

from __future__ import annotations

import errno
import fcntl
import os
import signal
import stat
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional

from .context import ContextState, check_layer_name, check_layer_value
from .errors import CorruptStateError, InvalidLayerError, LockTimeoutError, UnsafeLockError
from .fsutil import PathLike, atomic_write_text
from .keydb import FrozenRecord

GENERATION_FIELD = "generation"
LAYER_PREFIX = "layer/"
LOCK_SUFFIX = ".lock"
GENERATION_WORD_MASK = (1 << 64) - 1
GENERATION_MAX = (1 << 63) - 1  # the shim keeps it in a long long
DEFAULT_LOCK_TIMEOUT = 2.0

SIGNAL_WHITELIST = {
    "HUP": signal.SIGHUP,
    "USR1": signal.SIGUSR1,
    "USR2": signal.SIGUSR2,
}

ENV_STATE = "KONTEXT_STATE"  # the state file a shimmed process reads; the CLI's --state fallback


def default_state_path() -> Path:
    """${XDG_RUNTIME_DIR:-/tmp}/kontext/state.ks"""
    runtime = os.environ.get("XDG_RUNTIME_DIR") or "/tmp"
    return Path(runtime) / "kontext" / "state.ks"


def state_serialize(ctx: ContextState) -> str:
    if not 0 <= ctx.generation <= GENERATION_MAX:
        # no reader would accept it: refuse before anything is written
        raise CorruptStateError(0, f"generation {ctx.generation} is out of range")
    lines = [f"{GENERATION_FIELD}={ctx.generation}"]
    for name in sorted(ctx.layers):
        lines.append(f"{LAYER_PREFIX}{name}={ctx.layers[name]}")
    return "\n".join(lines) + "\n"


def state_parse(text: str) -> ContextState:
    """Strict parse of state file content. Raises CorruptStateError."""
    if "\0" in text:
        raise CorruptStateError(0, "state holds a NUL byte")
    generation: Optional[int] = None
    layers = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line:
            continue
        if "=" not in line:
            raise CorruptStateError(line_no, f"expected NAME=VALUE, got {line!r}")
        name, value = line.split("=", 1)
        if name == GENERATION_FIELD:
            if generation is not None:
                raise CorruptStateError(line_no, "second generation line")
            digits = value.lstrip("0") or "0"  # int() refuses over 4300 digits
            if not (value.isascii() and value.isdigit() and len(digits) <= 19
                    and int(digits) <= GENERATION_MAX):
                raise CorruptStateError(line_no, f"bad generation {value!r}")
            generation = int(digits)
            continue
        if not name.startswith(LAYER_PREFIX):
            raise CorruptStateError(line_no, f"unexpected entry {name!r}")
        layer = name[len(LAYER_PREFIX) :]
        if layer in layers:
            raise CorruptStateError(line_no, f"layer {layer!r} listed twice")
        try:
            check_layer_name(layer)
            check_layer_value(value)
        except InvalidLayerError as exc:
            raise CorruptStateError(line_no, str(exc)) from None
        layers[layer] = value
    if generation is None:
        raise CorruptStateError(0, "missing generation line")
    return ContextState(layers, generation)


def state_read(path: PathLike) -> ContextState:
    """Read the state file; a missing file is the empty state at gen 0.

    A file the shim refuses raises CorruptStateError(0, "state file
    refused: <rule>"), its rules checked in the shim's order. O_NONBLOCK:
    opening a FIFO must not wait for a writer.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC)
    except FileNotFoundError:
        return ContextState({}, 0)
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            raise CorruptStateError(0, "state file refused: symlink") from None
        raise
    try:
        st = os.fstat(fd)
        refused = ("type" if not stat.S_ISREG(st.st_mode)
                   else "owner" if st.st_uid != os.geteuid()
                   else "links" if st.st_nlink > 1  # 0: renamed over since the open
                   else "mode" if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
                   else None)
        if refused:
            raise CorruptStateError(0, f"state file refused: {refused}")
    except BaseException:
        os.close(fd)
        raise
    try:
        # newline="": a lone \r is not a line break, for the shim neither
        with open(fd, "r", encoding="utf-8", errors="strict", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise CorruptStateError(0, "state file is not valid UTF-8") from None
    return state_parse(text)


def state_write(path: PathLike, ctx: ContextState) -> None:
    """Atomically publish a state snapshot (no locking; see state_set_layer)."""
    fd = _open_lock(path)
    try:
        atomic_write_text(path, state_serialize(ctx))
        _publish_generation(fd, ctx.generation)
    finally:
        os.close(fd)


def _open_lock(path: PathLike) -> int:
    """Open or create <path>.lock, never through a symlink."""
    lock_path = str(path) + LOCK_SUFFIX
    Path(lock_path).parent.mkdir(parents=True, exist_ok=True)
    try:
        return os.open(lock_path, os.O_CREAT | os.O_RDWR | os.O_NOFOLLOW | os.O_CLOEXEC, 0o644)
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            raise UnsafeLockError(f"lock {lock_path} is a symbolic link; refusing it") from None
        raise


def _publish_generation(lock_fd: int, generation: int) -> None:
    """Store the generation word the shim watches at offset 0 of the lock file.

    Only into a regular file of ours with one name: a file owned by another
    user, or a hard link to one of our other files, is left untouched and
    the shim, which maps only such files too, sees the new state at its
    once-a-second full check.
    """
    st = os.fstat(lock_fd)
    if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid() or st.st_nlink != 1:
        return
    os.pwrite(lock_fd, (generation & GENERATION_WORD_MASK).to_bytes(8, sys.byteorder), 0)


class _StateLock:
    """flock on <path>.lock with a polling deadline."""

    def __init__(self, path: PathLike, timeout: float):
        self._path = path
        self._lock_path = str(path) + LOCK_SUFFIX
        self._timeout = timeout
        self.fd: Optional[int] = None

    def __enter__(self):
        fd = _open_lock(self._path)
        deadline = time.monotonic() + self._timeout
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EAGAIN, errno.EACCES):
                        raise
                    if time.monotonic() >= deadline:
                        raise LockTimeoutError(
                            f"lock {self._lock_path} busy for {self._timeout:.1f}s"
                        ) from None
                    time.sleep(0.001)
        except BaseException:
            os.close(fd)
            raise
        self.fd = fd
        return self

    def __exit__(self, *exc_info):
        if self.fd is not None:
            os.close(self.fd)  # closing drops the flock
            self.fd = None
        return False


def state_set_layer(
    path: PathLike,
    name: str,
    value: Optional[str],
    timeout: float = DEFAULT_LOCK_TIMEOUT,
) -> int:
    """Set (value given) or unset (value None) one layer, under the lock.

    Returns the new generation. The generation advances on every call,
    including unsetting a layer that was not present.
    """
    check_layer_name(name)
    if value is not None:
        check_layer_value(value)
    with _StateLock(path, timeout) as lock:
        current = state_read(path)
        if value is None:
            updated = current.without_layer(name)
        else:
            updated = current.with_layer(name, value)
        atomic_write_text(path, state_serialize(updated))
        _publish_generation(lock.fd, updated.generation)
        return updated.generation


class NotifyResult(FrozenRecord):
    __slots__ = ("pid", "ok", "error")

    def __init__(self, pid: int, ok: bool, error: Optional[str] = None):
        self._init(pid, ok, error)


def signal_number(signal_name: str) -> int:
    """The number of a whitelisted signal, named with or without "SIG" in
    any case; ValueError ("... not allowed ...") for any other name."""
    name = signal_name.upper()
    if name.startswith("SIG"):
        name = name[3:]
    if name not in SIGNAL_WHITELIST:
        allowed = ", ".join(sorted(SIGNAL_WHITELIST))
        raise ValueError(f"signal {signal_name!r} not allowed (one of: {allowed})")
    return SIGNAL_WHITELIST[name]


def notify(pids: Iterable[int], signal_name: str) -> List[NotifyResult]:
    """Send a whitelisted signal to each pid; per-pid results, no raise.

    Non-positive pids are rejected before any kill(2) call: pid 0 and
    negative pids address whole process groups.
    """
    signum = signal_number(signal_name)

    results: List[NotifyResult] = []
    for pid in pids:
        if pid <= 0:
            results.append(NotifyResult(pid, False, "non-positive pid rejected"))
            continue
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            results.append(NotifyResult(pid, False, "no such process"))
        except PermissionError:
            results.append(NotifyResult(pid, False, "not permitted"))
        except OSError as exc:
            results.append(NotifyResult(pid, False, exc.strerror or str(exc)))
        else:
            results.append(NotifyResult(pid, True))
    return results
