"""Newline-delimited JSON: the repo's one durable-log format.

Traces, the run registry and every tailer of them share this module.
The contract, stated once:

* a record is one JSON object on one line, serialised through
  :func:`jsonable` (numpy, paths, dataclasses; ``repr`` for the rest);
* :func:`append_record` writes a line with one ``write()`` on an
  ``O_APPEND`` descriptor, so concurrent processes interleave whole
  lines, and first newline-terminates a torn tail a crashed writer
  left, so one crash cannot swallow the next record;
* :func:`read_records` skips blank and unparseable lines and leaves a
  trailing fragment with no newline (a writer mid-record) for the next
  read, returning the offset to resume from — so a tailer never reads
  a record twice and never consumes one torn.

:class:`JsonlSink` is the tracer's writer: one long-lived buffered
handle, not a reopen per record.  :func:`read_jsonl` loads a whole file.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["JsonlSink", "append_record", "jsonable", "read_jsonl", "read_records"]


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


def append_record(path, rec: dict) -> None:
    """Append ``rec`` to the JSONL file at ``path`` as one ``O_APPEND`` write.

    The torn-tail probe reads the last byte before writing and can land
    inside another process's in-flight write, so under concurrent
    appends a record may be preceded by one empty line; readers skip it.
    """
    line = (json.dumps(rec, default=jsonable) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        os.write(fd, line)
    finally:
        os.close(fd)


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


class JsonlSink:
    """Append structured records to a JSONL file (or any text stream).

    Writes are line-atomic under a lock so multiple threads sharing one
    tracer produce a valid file.  Usable as a context manager; a sink
    constructed from a path owns (and closes) its file handle, a sink
    wrapping a caller's stream leaves closing to the caller.
    """

    def __init__(self, target):
        if isinstance(target, (str, Path)):
            self._fh = open(target, "a", encoding="utf-8")
            self._owns = True
        elif isinstance(target, io.IOBase) or hasattr(target, "write"):
            self._fh = target
            self._owns = False
        else:
            raise TypeError("target must be a path or a writable text stream")
        self._lock = threading.Lock()
        self.records_written = 0

    def emit(self, record: dict) -> None:
        line = json.dumps(record, default=jsonable)
        with self._lock:
            self._fh.write(line + "\n")
            self.records_written += 1

    def flush(self) -> None:
        with self._lock:
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
