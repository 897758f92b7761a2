"""Whole-file artifact writes: a reader finds the old file or the new one.

A small artifact (a JSON report, a CSV table, a catalog) is written to a
temporary file beside its target and renamed over it with ``os.replace``,
which is atomic within one file system.  A command interrupted part way
through a write therefore never leaves a truncated artifact behind.  The
rename is not followed by an ``fsync``: the guarantee covers an interrupted
or failing process, not a power cut.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Replace ``path`` by a UTF-8 file holding ``text``, all at once.

    If the write fails, the previous file at ``path`` (if any) is left as it
    was and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
