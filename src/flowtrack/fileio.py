"""Atomic file output shared by the checkpoint, motion and report writers."""

from __future__ import annotations

import os


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file and `os.replace`, so a
    reader never sees a partly written file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
