"""Whole directory writes: a reader finds the old tree or the new one.

Every command's ``--out`` is built in a staging directory beside it and
renamed into place once it is whole, so a command that stops part way
leaves the previous tree as it was, never some of its files beside some
new ones; inside the staging directory, artifacts are plain files.  No
rename is followed by an ``fsync``: the guarantee covers an interrupted or
failing process, not a power cut.
"""

from __future__ import annotations

import os
import re
import shutil
from contextlib import contextmanager, suppress
from pathlib import Path


def _beside(name: str, pid: str, kind: str, dot: str = ".") -> str:
    """``.<name>.<pid>.<kind>``, a staging or old tree's name; with patterns
    for the parts and an escaped dot, the pattern of every one."""
    return dot.join(("", name, pid, kind))


def leftovers(path) -> list[Path]:
    """The staging and old trees of any process beside ``path``, sorted."""
    path = Path(path)
    pattern = _beside(re.escape(path.name), r"\d+", "(staging|old)", r"\.")
    return sorted(place for place in path.parent.glob(".*")
                  if re.fullmatch(pattern, place.name))


@contextmanager
def replaced_directory(path):
    """Build a directory that replaces the directory ``path`` whole.

    Yields a new, empty staging directory beside ``path``, making the
    missing parents of ``path`` too.  When the block ends normally, an old
    ``path`` is renamed aside, the staging directory is renamed to
    ``path``, and the old tree is deleted.  If the block raises, even
    between the renames, the staging directory and the parents made for it
    are deleted and ``path`` is left as it was.

    Only a process killed outright leaves anything else behind: part of
    the staging directory as ``.<name>.<pid>.staging``, or part of the old
    tree as ``.<name>.<pid>.old`` after the new one is in.  One rename
    cannot replace a directory that holds files, so for the brief time
    between the two renames ``path`` is absent and the old tree sits whole
    beside it as ``.<name>.<pid>.old``; a kill there leaves it so.
    """
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise NotADirectoryError(f"{path} exists and is not a directory")
    staging = path.with_name(_beside(path.name, str(os.getpid()), "staging"))
    aside = path.with_name(_beside(path.name, str(os.getpid()), "old"))
    made = [parent for parent in staging.parents if not parent.exists()]
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
        for parent in made:  # deepest first; one that holds files stays
            with suppress(OSError):
                parent.rmdir()
        raise
    shutil.rmtree(aside, ignore_errors=True)
