"""Compile the preload library and the benchmark's C programs with plain cc.

Everything is built straight from src/kontext/native/*.c and
perfbench/native/*.c; neither setup.py nor Cython is involved. Outputs go to
.bench_build/native-<digest>/, where the digest covers every source file and
every compile command, so a changed source always gets a fresh build and an
unchanged checkout reuses the last one.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List

BENCH_NATIVE = Path(__file__).resolve().parent / "native"

# the preload recipe is setup.py's, so the benchmark times what users get
PRELOAD_FLAGS = ["-O2", "-g", "-shared", "-fPIC", "-fno-strict-aliasing",
                 "-fvisibility=hidden", "-pthread"]
# drivers call getenv/open through the PLT, never through fortified wrappers
DRIVER_FLAGS = ["-O2", "-U_FORTIFY_SOURCE", "-D_FORTIFY_SOURCE=0", "-pthread"]


class BuildError(RuntimeError):
    pass


def _recipes(native: Path) -> Dict[str, List[str]]:
    core = str(native / "core.c")
    return {
        "_preload.so": PRELOAD_FLAGS + ["-I", str(native), core,
                                        str(native / "interpose.c"), "-ldl"],
        "mixdriver": DRIVER_FLAGS + [str(BENCH_NATIVE / "mixdriver.c")],
        "tiny": DRIVER_FLAGS + [str(BENCH_NATIVE / "tiny.c")],
        "coreprobe": DRIVER_FLAGS + ["-I", str(native), core,
                                     str(BENCH_NATIVE / "coreprobe.c")],
    }


def build_all(root: Path, build_dir: Path) -> Dict[str, Path]:
    """Build (or reuse) every native artifact; {name: path}."""
    native = root / "src" / "kontext" / "native"
    sources = sorted(native.glob("*.[ch]")) + sorted(BENCH_NATIVE.glob("*.[ch]"))
    if not (native / "core.c").is_file() or not (native / "interpose.c").is_file():
        raise BuildError(f"{native}: core.c and interpose.c are required")
    cc = os.environ.get("CC", "cc")
    if shutil.which(cc) is None:
        raise BuildError(f"no C compiler {cc!r} on PATH")
    recipes = _recipes(native)

    digest = hashlib.sha256(cc.encode())
    for src in sources:
        digest.update(src.name.encode() + b"\0" + src.read_bytes())
    for name, args in sorted(recipes.items()):
        digest.update(name.encode() + b"\0" + "\0".join(args).encode())
    out = build_dir / f"native-{digest.hexdigest()[:16]}"
    artifacts = {name: out / name for name in recipes}
    if all(path.is_file() for path in artifacts.values()):
        return artifacts

    build_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="native-staging-", dir=build_dir))
    try:
        for name, args in recipes.items():
            proc = subprocess.run([cc, *args, "-o", str(staging / name)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise BuildError(f"building {name} failed:\n{proc.stderr}")
        try:
            staging.rename(out)  # atomic publish; a concurrent twin may win
        except OSError:
            if not all(path.is_file() for path in artifacts.values()):
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return artifacts


def cc_version() -> str:
    cc = os.environ.get("CC", "cc")
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.splitlines()[0] if proc.stdout else "unknown"
