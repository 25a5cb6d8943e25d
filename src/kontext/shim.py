"""Shim plumbing on the Python side.

Two distinct layers live here:

  * helpers to locate the preload library and build a child environment for
    launching unmodified programs under it (used by `kontext run/trace`,
    the only commands that import this module). The spec and state
    variables come from specfile.ENV_SPEC and layerstate.ENV_STATE, so the
    other commands read them without loading this module
  * ShimSession, which answers getenv from the Python engine for perfbench's
    shim.session_getenv_us reading and its answer check. No command uses it;
    the real shim is the C library
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .context import contextual_lookup
from .errors import KontextError
from .fsutil import PathLike
from .layerstate import ENV_STATE, state_read
from .specfile import ENV_SPEC, SpecDocument

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
    """getenv answers as perfbench's reference gives them: the contextual
    value of getenv/NAME under the state read when the session is made, or
    else the environment's value, also when the lookup fails."""

    def __init__(self, doc: SpecDocument, state_path: PathLike, environ: Mapping[str, str]):
        self._keyset = doc.keyset
        self._ctx = state_read(state_path)
        self._environ = environ

    def getenv(self, name: str) -> Optional[str]:
        try:
            outcome = contextual_lookup(self._keyset, GETENV_PREFIX + name, self._ctx)
        except KontextError:
            outcome = None  # fail open, as the shim does
        return self._environ.get(name) if outcome is None else outcome.value
