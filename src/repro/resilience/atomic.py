"""Atomic text-file writes: readers see the old file or the new, never a part.

Every artifact the library writes (journals, chrome traces, phase
profiles, CLI outputs, netlists) goes through :func:`atomic_write`: the
content is serialized into a temp file next to the destination, which
replaces the destination with one ``os.replace`` only once serialization
finished.  A poller that opens the path mid-write therefore never sees a
truncated file, and a serializer that raises midway leaves the previous
content (or no file) and no temp file behind.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Callable, TextIO

__all__ = ["atomic_write"]

# mkstemp creates 0600 files; give the result the mode a plain open()
# would have.  The umask can only be read by setting it, so read it once.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(
    path: "str | os.PathLike", write: Callable[[TextIO], object]
) -> None:
    """Write ``path`` atomically; ``write`` fills a UTF-8 text handle.

    Errors from ``write`` or from the file system propagate unchanged
    after the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".protest-", suffix=".tmp",
                               dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
