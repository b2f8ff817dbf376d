"""The one JSON-lines append log behind every ``*.jsonl`` file on disk.

The persistent evaluation cache, the design archive, the campaign event
log and the span log are all the same thing: a file of JSON objects, one
per line, that only ever grows (until an explicit compaction rewrites it).
Some carry a self-describing header as their first line::

    {"space": "spiral_fft", "params": [...], "fingerprint": "..."}   # header
    {"values": [4, 16, ...], "metrics": {"luts": 512.0}}              # rows
    ...

This module owns that format; every writer and reader goes through it.

Crash behaviour. A writer killed mid-append leaves a torn last line. On
open, :class:`AppendLog` first ends that line with ``\\n`` (it never
truncates: another process may be appending to the same file), so the next
row starts on a line of its own and only the torn row is lost. A file with
no newline at all has a torn header; a headered log starts such a file
over. :func:`scan` skips lines that do not parse.

Durability. Each :meth:`AppendLog.append` hands its whole batch to the OS
in one ``write`` of complete lines through an unbuffered handle, so a row
survives a killed process as soon as ``append`` returns. There is no
``fsync``: a power loss can still drop recent rows. Snapshot files go
through :func:`atomic_write` (temp file + ``os.replace``), so a reader
sees the old or the new contents, never a mix.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, NamedTuple

__all__ = ["AppendLog", "Scan", "atomic_write", "read_header", "scan"]


def atomic_write(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _line(payload: dict[str, Any]) -> str:
    return json.dumps(payload) + "\n"


class Scan(NamedTuple):
    """What :func:`scan` read: header, kept rows and skipped line count."""

    header: dict[str, Any] | None
    rows: list[dict[str, Any]]
    #: Lines dropped as torn, unparsable or missing a required key.
    skipped: int


def scan(path: str | Path, *, header: bool = False, require: Iterable[str] = ()) -> Scan:
    """Read a log, tolerating torn and corrupt lines.

    With ``header=True`` the first line that parses to an object is the
    header. Rows that do not parse to an object, or lack a key in
    ``require``, are skipped and counted. A missing file scans empty.
    """
    required = tuple(require)
    found: dict[str, Any] | None = None
    rows: list[dict[str, Any]] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    payload = json.loads(line)
                except ValueError:
                    payload = None
                if not isinstance(payload, dict):
                    skipped += 1
                elif header and found is None:
                    found = payload
                elif all(key in payload for key in required):
                    rows.append(payload)
                else:
                    skipped += 1
    except FileNotFoundError:
        pass
    return Scan(found, rows, skipped)


def read_header(path: str | Path) -> dict[str, Any] | None:
    """The header of a headered log, reading only its first line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.loads(fh.readline())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class AppendLog:
    """Appends batches of rows to one JSONL file, repairing it on open.

    Args:
        path: The log file; parent directories are created on first append.
        header: The header line for a new file (or one whose header is
            torn); ``None`` for a headerless log.

    The file is opened lazily on the first :meth:`append` and stays open
    until :meth:`close` (also the context-manager exit). :meth:`rewrite`
    closes it before replacing the file, so no later append lands in the
    replaced inode. Not thread-safe: owners serialize appends.
    """

    def __init__(self, path: str | Path, header: dict[str, Any] | None = None):
        self.path = Path(path)
        self.header = header
        self._fh = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open(self) -> bytes:
        """Open for append; return the bytes that must precede new rows."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a+b", buffering=0)
        self._fh = fh
        if fh.seek(0, os.SEEK_END):
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return b""
            fh.seek(0)
            if self.header is None or fh.readline().endswith(b"\n"):
                return b"\n"  # end the torn line; keep everything before it
            fh.truncate(0)  # torn header: start the file over
        return _line(self.header).encode() if self.header is not None else b""

    def append(self, rows: Iterable[dict[str, Any]]) -> None:
        """Write ``rows`` as complete lines in one write; no-op when empty."""
        data = "".join(_line(row) for row in rows).encode()
        if not data:
            return
        if self._fh is None:
            data = self._open() + data
        view = memoryview(data)
        while view:
            view = view[self._fh.write(view):]

    def rewrite(self, rows: Iterable[dict[str, Any]]) -> None:
        """Atomically replace the file with the header and ``rows``."""
        self.close()
        lines = [self.header] if self.header is not None else []
        lines.extend(rows)
        atomic_write(self.path, "".join(_line(row) for row in lines))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
