"""Small filesystem helpers shared by the spec and state writers.

`atomic_write_text` publishes a file with these steps and no others:

1. open `.<name>.<12 hex digits from os.urandom>` next to the target with
   O_WRONLY|O_CREAT|O_EXCL|O_NOFOLLOW|O_CLOEXEC, mode 0600 (a name that
   exists, a symlink included, is never opened: the next name is tried, at
   most TEMP_NAME_ATTEMPTS names in all); the parent directory is created
   only when that open fails with ENOENT;
2. write the UTF-8 bytes with os.write until all are written;
3. fsync the temp file, close it and rename it over the target.

The temp file is unlinked if any step fails. Readers see the old file or
the new one, never a torn or empty one, also after a crash: the data is on
disk before the rename. The directory is not fsynced, so a power loss may
lose the last rename, and with it the last publish.
"""

from __future__ import annotations

import errno
import os
from typing import Union

PathLike = Union[str, os.PathLike]

TEMP_NAME_ATTEMPTS = 100
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def open_making_parent(path: str, flags: int, mode: int) -> int:
    """os.open; on ENOENT create the parent directories and open once more."""
    try:
        return os.open(path, flags, mode)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, mode)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Replace path with text through a same-directory temp file (see above)."""
    target = os.fspath(path)
    head, name = os.path.split(target)
    prefix = os.path.join(head, f".{name}.")
    data = text.encode("utf-8")
    for _ in range(TEMP_NAME_ATTEMPTS):
        tmp = prefix + os.urandom(6).hex()
        try:
            fd = open_making_parent(tmp, _TEMP_FLAGS, 0o600)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(errno.EEXIST, "no unused temporary file name", prefix + "*")
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
