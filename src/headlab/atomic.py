"""Whole artifact writes: a reader finds the old artifact or the new one.

A small artifact (a JSON report, a CSV table, a catalog) is written to a
temporary file beside its target and renamed over it with ``os.replace``,
which is atomic within one file system.  A command interrupted part way
through a write therefore never leaves a truncated artifact behind.  A
directory of artifacts (a dataset) is built in a staging directory beside
its target and renamed into place once it is whole.  No rename is followed
by an ``fsync``: the guarantee covers an interrupted or failing process,
not a power cut.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
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


@contextmanager
def replaced_directory(path):
    """Build a directory that replaces the directory ``path`` whole.

    Yields a new, empty staging directory beside ``path``.  When the block
    ends normally, an old ``path`` is renamed aside, the staging directory
    is renamed to ``path``, and the old tree is deleted.  If the block
    raises, even between the renames, the staging directory is deleted and
    ``path`` is left as it was.  One rename cannot replace a directory that
    holds files, so for the brief time between the two renames ``path`` is
    absent and the old tree sits beside it as ``.<name>.<pid>.old``; only
    a process killed outright there leaves it so.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise NotADirectoryError(f"{path} exists and is not a directory")
    staging = path.with_name(f".{path.name}.{os.getpid()}.staging")
    aside = path.with_name(f".{path.name}.{os.getpid()}.old")
    staging.mkdir(parents=True)
    try:
        yield staging
        if path.exists():
            os.rename(path, aside)
        os.rename(staging, path)
    except BaseException:
        if aside.exists() and not path.exists():  # stopped between renames
            os.rename(aside, path)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)
