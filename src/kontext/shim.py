"""Shim plumbing on the Python side.

Two distinct layers live here:

  * helpers to locate the preload library and build a child environment for
    launching unmodified programs under it (used by `kontext run/trace`,
    the only commands that import this module). The spec and state
    variables come from specfile.ENV_SPEC and layerstate.ENV_STATE, so the
    other commands read them without loading this module
  * ShimSession, an in-process model of the preload shim's getenv path
    (registration check, stat-based state refresh, contextual lookup,
    environment fallthrough, counters) over the Python engine. It serves
    perfbench and the tests only; no command uses it, and the real shim is
    the C library
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .context import ContextState
from .engine import SpecLike, make_backend
from .errors import CorruptStateError, InvalidNameError, KontextError
from .keydb import KeyName
from .layerstate import ENV_STATE, default_state_path, state_read
from .specfile import ENV_SPEC

ENV_TRACE = "KONTEXT_TRACE"
ENV_PRELOAD_OVERRIDE = "KONTEXT_PRELOAD"

GETENV_PREFIX = "getenv/"


def preload_library_path() -> Optional[Path]:
    """Locate _preload.so: explicit override first, then the package dir."""
    override = os.environ.get(ENV_PRELOAD_OVERRIDE)
    if override:
        candidate = Path(override)
        if candidate.is_file():
            return candidate
    packaged = Path(__file__).resolve().parent / "_preload.so"
    if packaged.is_file():
        return packaged
    return None


def child_environment(
    spec: Optional[Union[str, os.PathLike]] = None,
    state: Optional[Union[str, os.PathLike]] = None,
    trace: Optional[Union[str, os.PathLike]] = None,
    base: Optional[Mapping[str, str]] = None,
    preload: Optional[Union[str, os.PathLike]] = None,
) -> Dict[str, str]:
    """Environment for a child process running under the preload shim."""
    library = Path(preload) if preload else preload_library_path()
    if library is None or not library.is_file():
        raise KontextError(
            "preload library not found; reinstall the package or set KONTEXT_PRELOAD"
        )
    env = dict(os.environ if base is None else base)
    existing = env.get("LD_PRELOAD")
    env["LD_PRELOAD"] = f"{library}:{existing}" if existing else str(library)
    # absolute but not resolved: a symlinked state must reach the shim as
    # named, or its symlink rule never applies
    for var, path in ((ENV_SPEC, spec), (ENV_STATE, state), (ENV_TRACE, trace)):
        if path is not None:
            env[var] = os.path.abspath(path)
    return env


# kept for perfbench's shim.session_getenv_us; goes when the benchmark retires that metric
class ShimSession:
    """In-process getenv shim: contextual answers with live state refresh.

    Follows the preload library's decision sequence: unregistered names
    fall through to the environment untouched; registered names refresh
    the layer state, then resolve contextually; every lookup problem falls
    open to the environment. The refresh stays stat-based: every registered
    call compares the state file's metadata. The preload library instead
    watches the generation word in `<state>.lock` and stats at most once a
    second, and it caches answers per state, which this session does not.
    """

    def __init__(
        self,
        spec: SpecLike,
        state_path: Optional[Union[str, os.PathLike]] = None,
        environ: Optional[Mapping[str, str]] = None,
    ):
        self._backend = make_backend(spec)
        self._state_path = Path(state_path) if state_path else default_state_path()
        self._environ: Mapping[str, str] = os.environ if environ is None else environ
        self._ctx = ContextState({}, 0)
        self._stat: Optional[tuple] = None
        self.calls = 0
        self.hits = 0
        self.reloads = 0
        self.fallthroughs = 0
        self._load_state(initial=True)

    @property
    def context(self) -> ContextState:
        return self._ctx

    @property
    def state_path(self) -> Path:
        return self._state_path

    def getenv(self, name: str) -> Optional[str]:
        """The shim's answer for one environment variable read."""
        self.calls += 1
        key = GETENV_PREFIX + name
        registered = False
        try:
            KeyName.parse(key)
        except InvalidNameError:
            pass  # names the key grammar cannot hold are never registered
        else:
            registered = self._backend.has_key(key)
        if not registered:
            self.fallthroughs += 1
            return self._environ.get(name)

        self.refresh_if_stale()
        try:
            outcome = self._backend.lookup(key, self._ctx)
        except KontextError:
            outcome = None  # fail open
        if outcome is None:
            self.fallthroughs += 1
            return self._environ.get(name)
        self.hits += 1
        return outcome.value

    def refresh_if_stale(self) -> None:
        """Reload layer state only when the file metadata changed."""
        meta = self._stat_meta()
        if meta is None:
            return  # deleted or unreadable: keep the cached context
        if meta == self._stat:
            return
        self._load_state(initial=False, known_meta=meta)

    def _stat_meta(self) -> Optional[tuple]:
        try:
            st = os.stat(self._state_path)
        except OSError:
            return None
        return (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)

    def _load_state(self, initial: bool, known_meta: Optional[tuple] = None) -> None:
        meta = known_meta if known_meta is not None else self._stat_meta()
        try:
            fresh = state_read(self._state_path)
        except CorruptStateError:
            self._stat = meta  # remember the bad file; keep the cached context
            return
        if initial or fresh.generation > self._ctx.generation:
            self._ctx = fresh
            if not initial:
                self.reloads += 1
        self._stat = meta

    def counters(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "hits": self.hits,
            "reloads": self.reloads,
            "fallthroughs": self.fallthroughs,
        }
