"""Output files that appear complete or not at all.

A writer fills a temporary file in the target's directory, and only a block
that finishes renames it over the target (``os.replace`` is atomic within one
file system). A failed or interrupted write removes the temporary file and
leaves the target as it was, so no reader sees a partial table or dataset.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replacing ``path`` only on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
