"""Compile kontext's native code with plain cc.

`_preload.so` needs nothing but a C compiler: it is `native/core.c` and
`native/interpose.c` linked into one shared object, with the engine's
symbols hidden. `_kxcore.so` is `core.c` alone with those symbols exported;
the test suite binds it with ctypes to check the C engine against the
Python one. This module is the one recipe for both, used by setup.py and
by the test suite. It imports nothing from the package, so setup.py can
load it by path before kontext is installed.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

NATIVE = Path(__file__).resolve().parent / "native"

PRELOAD_FLAGS = [
    "-O2",
    "-g",
    "-shared",
    "-fPIC",
    "-fno-strict-aliasing",
    "-fvisibility=hidden",
    "-pthread",
]


class BuildError(RuntimeError):
    """The compiler rejected the native sources; the message holds its stderr."""


def _compile(out: os.PathLike, *args: str) -> Path:
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [os.environ.get("CC", "cc"), *PRELOAD_FLAGS, "-I", str(NATIVE), *args, "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildError(
            f"building {out.name} failed (exit {proc.returncode}): "
            f"{' '.join(cmd)}\n{proc.stderr}"
        )
    return out


def build_preload(out: os.PathLike) -> Path:
    """Compile _preload.so to `out` with $CC (default cc); return its path."""
    return _compile(out, str(NATIVE / "core.c"), str(NATIVE / "interpose.c"), "-ldl")


def build_core(out: os.PathLike) -> Path:
    """Compile core.c alone to `out` (_kxcore.so), exporting the kx_* API."""
    return _compile(
        out, '-DKX_API=__attribute__((visibility("default")))', str(NATIVE / "core.c")
    )
