"""Crash-safe file writes shared by the exporters and the runner.

A write that dies half-way must never leave a truncated artifact under the
final name: writers emit to a sibling ``*.tmp`` file, flush + ``fsync`` it,
then ``os.replace`` it over the destination (atomic on POSIX within one
filesystem). Readers therefore observe either the old complete file or the
new complete file, never a partial one. :func:`read_artifact_text` is the
one read path of the ``repro obs`` commands.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from repro.errors import ObsError


def _fsync_dir(directory: Path) -> None:
    """Persist a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open ``path`` for atomic text writing.

    Yields a handle onto ``<path>.<pid>.tmp`` in the same directory (same
    filesystem, so the final rename is atomic). On clean exit the data is
    fsynced and renamed over ``path``; on any exception the temp file is
    removed and the destination is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    handle = tmp.open("w", newline=newline)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (tmp + fsync + rename)."""
    with atomic_open(path) as handle:
        handle.write(text)


def read_artifact_text(path: str | Path, what: str) -> str:
    """The text of the ``what`` artifact at ``path``.

    A missing file, a directory, a permission error or bytes that are not
    UTF-8 all raise :class:`~repro.errors.ObsError`, which the CLI maps to
    exit 2, never to a traceback.
    """
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ObsError(f"cannot read {what} {path}: {exc}") from exc
