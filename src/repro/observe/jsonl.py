"""Newline-delimited JSON: the repo's one durable-log format.

Traces, the run registry and every tailer of them share this module.
The contract, stated once:

* a record is one JSON object on one line, serialised through
  :func:`jsonable` (numpy, paths, dataclasses; ``repr`` for the rest);
* :class:`JsonlAppender` is the one writer: it opens the file with
  ``O_APPEND``, first newline-terminates a torn tail a crashed writer
  left (so one crash cannot swallow the next record), and writes each
  record with one ``os.write``, so concurrent processes interleave
  whole lines and a record is on disk as soon as it is written;
* :func:`read_records` skips blank and unparseable lines and leaves a
  trailing fragment with no newline (a writer mid-record) for the next
  read, returning the offset to resume from — so a tailer never reads
  a record twice and never consumes one torn.

The tracer's sink is one appender held for the whole run; the run
registry opens one per record.  :func:`read_jsonl` loads a whole file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import weakref
from pathlib import Path

import numpy as np

__all__ = ["JsonlAppender", "jsonable", "read_jsonl", "read_records"]


def jsonable(obj):
    """Canonical JSON-ready form: dataclasses become their fields, numpy
    values Python ones, paths strings, classes their names, anything
    else unknown its ``repr``.  Recursive, so it is also a
    ``json.dumps(default=jsonable)`` hook."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, type):
        return obj.__name__
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


class JsonlAppender:
    """An ``O_APPEND`` descriptor on a JSONL file; :meth:`append` writes
    one record as one ``os.write``.

    Opening probes the last byte and, when a crashed writer left a line
    without its newline, the first record written starts with one.  The
    probe can land inside another process's in-flight write, so under
    concurrent appends a record may be preceded by one empty line;
    readers skip it.  Usable as a context manager; an appender never
    closed closes its descriptor when it is collected.
    """

    def __init__(self, path):
        self.fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        self.close = weakref.finalize(self, os.close, self.fd)
        size = os.fstat(self.fd).st_size
        self._torn = bool(size) and os.pread(self.fd, 1, size - 1) != b"\n"

    def append(self, rec: dict) -> None:
        line = (json.dumps(rec, default=jsonable) + "\n").encode("utf-8")
        if self._torn:
            line = b"\n" + line
            self._torn = False
        os.write(self.fd, line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_records(path, offset: int = 0) -> tuple[list, int]:
    """Whole records from byte ``offset`` on, and the offset to read from next.

    A missing file has no records yet.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    cut = data.rfind(b"\n") + 1
    out = []
    for raw in data[:cut].split(b"\n"):
        if raw.strip():
            try:
                out.append(json.loads(raw))
            except ValueError:  # a torn line a later append terminated
                continue
    return out, offset + cut


def read_jsonl(path) -> list:
    """Every whole record of a JSONL file (which must exist)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    return read_records(path)[0]
