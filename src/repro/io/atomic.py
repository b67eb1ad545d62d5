"""Crash-safe filesystem primitives shared by every durable store.

Both the experiment :class:`~repro.simulation.checkpoint.CheckpointStore`
and the audit service's :class:`~repro.service.journal.JobJournal` need the
same two guarantees:

* **atomic replace** — a reader (including a process restarted after
  SIGKILL) sees either the old file or the new file, never a torn one.
  :func:`atomic_write_bytes` writes a temp file *in the target directory*
  (so the final ``os.replace`` never crosses filesystems), fsyncs it, then
  replaces the target and fsyncs the directory entry;
* **durable append** — :func:`fsync_handle` flushes and fsyncs an open
  handle so an append-only log's records survive power loss once the
  append call returns.

Every write and fsync routes through :mod:`repro.chaos` — a no-op
pass-through unless a disk fault plane is installed, in which case the
operation may fail the way real disks fail (ENOSPC, EIO, torn writes,
failed fsync, slow I/O).  Callers that are part of the service's durable
stores pass a ``crash_scope`` so the replace boundary is a named
:func:`~repro.chaos.crash_point` the torture harness can kill at.

Directory creation is race-safe (``exist_ok=True``): two processes — or a
daemon and a submitter — may create the same state directory concurrently
without one of them crashing.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import chaos

__all__ = [
    "ensure_directory",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_handle",
    "fsync_directory",
]


def ensure_directory(path: "str | Path") -> Path:
    """Create ``path`` (and parents) if missing; concurrent callers both win."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def fsync_handle(handle, label: str = "file") -> None:
    """Flush python buffers and fsync the OS file description."""
    handle.flush()
    chaos.fsync(handle.fileno(), label)


def fsync_directory(path: "str | Path") -> None:
    """fsync a directory so a just-created/replaced entry survives a crash.

    Best-effort on platforms whose directories cannot be opened (the data
    fsync already happened; only the rename's durability window widens).
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: "str | Path", data: bytes, *, crash_scope: "str | None" = None
) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + replace).

    The parent directory is created if missing.  A kill at any instant
    leaves either the previous content or the new content at ``path`` —
    never a partial write; stray ``.tmp`` files from a kill inside this
    function are overwritten by the next call.  ``crash_scope`` names the
    replace boundary for the crash-point torture harness
    (``<scope>.before_replace`` / ``<scope>.after_replace``).
    """
    target = Path(path)
    ensure_directory(target.parent)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            chaos.write(handle, data, label=target.name)
            fsync_handle(handle, label=target.name)
    except OSError:
        # A *failed* write (ENOSPC, EIO, failed fsync) must not leave a
        # torn tmp squatting in the directory — on a full disk that
        # garbage is precisely what keeps the disk full.  (A kill leaves
        # the tmp behind; the next call overwrites it.)
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - unlink raced or refused
            pass
        raise
    if crash_scope is not None:
        chaos.crash_point(f"{crash_scope}.before_replace")
    os.replace(tmp, target)
    if crash_scope is not None:
        chaos.crash_point(f"{crash_scope}.after_replace")
    fsync_directory(target.parent)
    return target


def atomic_write_text(
    path: "str | Path", text: str, *, crash_scope: "str | None" = None
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), crash_scope=crash_scope)
