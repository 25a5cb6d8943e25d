"""Build script for the native part.

kontext/_preload.so is the shared object for LD_PRELOAD interception; it
needs only a C compiler (recipe: kontext/nativebuild.py). It is optional at
runtime: the CLI reports a clear error when the preload library is missing.
A build failure is therefore demoted to a warning so a plain interpreter
can still install the package.
"""

import importlib.util
import sys
from pathlib import Path

from setuptools import Distribution, setup
from setuptools.command.build_ext import build_ext

ROOT = Path(__file__).resolve().parent
NATIVE = ROOT / "src" / "kontext" / "native"


def _load_nativebuild():
    """kontext/nativebuild.py by path: the package is not importable yet."""
    path = NATIVE.parent / "nativebuild.py"
    spec = importlib.util.spec_from_file_location("kontext_nativebuild", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class NativeDistribution(Distribution):
    """The package always ships _preload.so.

    Claiming extension modules makes `build` run build_ext although
    ext_modules is empty, and makes wheels platform-specific.
    """

    def has_ext_modules(self):
        return True


class BuildExt(build_ext):
    """build_ext that links the preload shared object with plain cc."""

    def run(self):
        super().run()
        # next to where an extension of the package goes: build/lib*/kontext,
        # or src/kontext for --inplace and editable installs
        out = Path(self.get_ext_fullpath("kontext._preload")).parent / "_preload.so"
        try:
            _load_nativebuild().build_preload(out)
        except Exception as exc:  # preload is optional for pure-python use
            sys.stderr.write(f"warning: building kontext/_preload.so failed: {exc}\n")


setup(distclass=NativeDistribution, cmdclass={"build_ext": BuildExt})
