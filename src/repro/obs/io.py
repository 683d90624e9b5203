"""Shared text-file IO for the observability readers and writers.

The JSONL record journal (``--decisions-out``) may be gzip-compressed
— long soak runs would otherwise force multi-GB uncompressed logs.
:func:`open_text` is the one seam: a ``.gz`` suffix transparently selects :mod:`gzip` for both
reading and writing, so ``repro trace export|profile`` and ``repro
explain`` accept ``foo.jsonl`` and ``foo.jsonl.gz`` alike.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO


def is_gzip_path(path: Path | str) -> bool:
    """Whether a path names a gzip-compressed artifact (by suffix)."""
    return Path(path).suffix == ".gz"


def open_text(path: Path | str, mode: str = "r") -> IO[str]:
    """Open a text file, transparently gzip for ``.gz`` paths.

    ``mode`` is ``"r"`` or ``"w"`` (text); compression level for writes
    is gzip's default.  Callers use this exactly like ``Path.open``.
    """
    if mode not in ("r", "w"):
        raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
    path = Path(path)
    if is_gzip_path(path):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")
