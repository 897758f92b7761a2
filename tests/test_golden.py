"""Frozen artifact bytes: the files that a small ``simulate`` and a
``sweep-p`` write, each compared by its SHA-256 digest with the digests
committed in ``golden.json``.

A change that alters one of these files updates ``golden.json`` in the
same change and says which file changed and why.  These two commands read
no tensors and fit no model, so their bytes depend on no BLAS kernel or
SIMD level; the other commands' files are not frozen here."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from headlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RUNS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifact_bytes_equal_the_frozen_digests(tmp_path, name):
    run = RUNS[name]
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*run["argv"], "--out", str(out)]) == 0
    assert _digests(out) == run["files"]
