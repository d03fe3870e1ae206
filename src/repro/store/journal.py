"""Append-only journals: per-sweep completion records, per-shard write logs.

The store is the source of truth for result *bytes*; journals are the
source of truth for *history*.  Two kinds live here:

* :class:`SweepJournal` — one file per sweep (identified by
  :func:`repro.store.keys.sweep_key` over its ordered task keys) under
  ``<store>/journals/``: a header line naming the sweep, then one line
  per completed task.  Lines are flushed as they are written, so a
  sweep killed at task 7,000 of 10,000 leaves a journal with exactly
  the 7,000 completions that also made it into the store — re-running
  with ``resume=True`` appends to that record and only the missing
  3,000 tasks execute.
* :class:`ShardJournal` — the write log of one
  :class:`~repro.store.backend.ShardedBackend` shard: a directory of
  size-bounded JSONL segments recording every put/delete.  Appends
  happen under the shard's :class:`FileLock` (the caller holds it), so
  two concurrent schedulers never interleave partial lines; segment
  rotation is an atomic compare-and-swap — ``O_CREAT | O_EXCL`` on the
  next segment number — so exactly one racing writer creates each new
  segment and the loser simply appends to the winner's.

Loading tolerates a torn final line (the one way an append-only file
can be damaged by a crash) by discarding it; anything else malformed
raises :class:`~repro.errors.StoreCorruptionError`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Iterator

from repro.errors import StoreCorruptionError, StoreError

try:  # advisory flock is POSIX-only; elsewhere locking degrades to no-op
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JOURNAL_SCHEMA",
    "SHARD_JOURNAL_SCHEMA",
    "SweepJournal",
    "FileLock",
    "ShardJournal",
]

JOURNAL_SCHEMA = "repro.journal/1"
SHARD_JOURNAL_SCHEMA = "repro.shard-journal/1"


class FileLock:
    """Advisory exclusive lock on a file, via ``fcntl.flock``.

    Guards a shard's journal-append + index-mutation critical section
    across *processes* (two schedulers writing the same shard) and
    across *threads* of one process, which share this one lock object
    per shard: an in-process mutex is taken before the flock, so a
    second thread waits for the holder instead of failing.  The lock
    file itself carries no data; holding the open descriptor locked is
    the whole protocol.  Reentrant use by the holding thread raises
    :class:`~repro.errors.StoreError` — hold the lock for the duration
    of one put/delete.  On platforms without ``fcntl`` the flock half
    degrades to a no-op (entry writes are individually atomic either
    way; only cross-process journal-line interleaving protection is
    lost).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None
        self._mutex = threading.Lock()
        self._owner: int | None = None

    def acquire(self) -> None:
        if self._owner == threading.get_ident():
            raise StoreError(f"lock at {self.path} is already held")
        self._mutex.acquire()
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_EX)
        except BaseException:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            self._mutex.release()
            raise
        self._owner = threading.get_ident()

    def release(self) -> None:
        if self._fd is None or self._owner != threading.get_ident():
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None
            self._owner = None
            self._mutex.release()

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "held" if self.held else "free"
        return f"FileLock({str(self.path)!r}, {state})"


def _segment_name(index: int) -> str:
    return f"seg-{index:08d}.jsonl"


def _segment_index(path: Path) -> int | None:
    name = path.name
    if not (name.startswith("seg-") and name.endswith(".jsonl")):
        return None
    digits = name[4:-6]
    return int(digits) if digits.isdigit() else None


class ShardJournal:
    """One shard's append-only write log, in size-bounded segments.

    Layout: ``<dir>/seg-00000001.jsonl``, ``seg-00000002.jsonl``, … —
    each segment opens with a header line (schema + segment number)
    followed by one record per store mutation.  The *active* segment is
    the highest-numbered one; when an append finds it at or past
    ``max_segment_bytes`` it rotates first.

    Rotation is a filesystem compare-and-swap: the writer computes the
    next segment number and tries ``os.open(..., O_CREAT | O_EXCL)``.
    Exactly one of N racing writers wins the create (and writes the
    header); losers observe ``FileExistsError`` — meaning the swap
    already happened — and append to the winner's segment.  A crash
    between create and header write leaves an empty segment, which
    loading treats as torn-and-empty rather than corrupt.

    Appends themselves are not internally locked: the caller (the
    sharded backend) holds the shard :class:`FileLock` around append +
    index mutation, which is what keeps concurrently written lines
    whole.
    """

    def __init__(
        self, directory: str | Path, *, max_segment_bytes: int = 1 << 20
    ) -> None:
        if max_segment_bytes <= 0:
            raise StoreError(
                f"max_segment_bytes must be > 0, got {max_segment_bytes}"
            )
        self.directory = Path(directory)
        self.max_segment_bytes = max_segment_bytes
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def segments(self) -> list[Path]:
        """Segment files in rotation order."""
        found = []
        for path in self.directory.iterdir():
            index = _segment_index(path)
            if index is not None:
                found.append((index, path))
        return [path for _, path in sorted(found)]

    def _create_segment(self, index: int) -> Path | None:
        """CAS-create segment ``index``; ``None`` if another writer won."""
        path = self.directory / _segment_name(index)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        try:
            header = json.dumps(
                {"schema": SHARD_JOURNAL_SCHEMA, "segment": index},
                sort_keys=True,
            )
            os.write(fd, (header + "\n").encode("utf-8"))
        finally:
            os.close(fd)
        return path

    def active_segment(self) -> Path:
        """The segment appends go to, rotating/creating as needed."""
        segs = self.segments()
        if not segs:
            created = self._create_segment(1)
            if created is not None:
                return created
            segs = self.segments()  # another writer created it first
        active = segs[-1]
        try:
            size = active.stat().st_size
        except FileNotFoundError:  # pragma: no cover - raced with cleanup
            size = 0
        if size >= self.max_segment_bytes:
            index = _segment_index(active)
            assert index is not None
            created = self._create_segment(index + 1)
            if created is not None:
                return created
            return self.segments()[-1]  # lost the CAS; use the winner's
        return active

    def append(self, op: str, key: str, nbytes: int = 0) -> None:
        """Record one mutation (caller holds the shard lock)."""
        line = json.dumps(
            {"op": op, "key": key, "nbytes": int(nbytes)}, sort_keys=True
        )
        path = self.active_segment()
        with path.open("a") as fh:
            if fh.tell() == 0:
                # Heal a headerless segment left by a crash between the
                # CAS create and the winner's header write.
                index = _segment_index(path)
                fh.write(
                    json.dumps(
                        {"schema": SHARD_JOURNAL_SCHEMA, "segment": index},
                        sort_keys=True,
                    )
                    + "\n"
                )
            fh.write(line + "\n")
            fh.flush()

    def entries(self) -> Iterator[dict]:
        """Every recorded mutation across segments, in write order.

        A torn final line of any segment (crash mid-append) and a
        missing header of the newest segment (crash mid-rotation) are
        tolerated; malformed interior lines raise
        :class:`~repro.errors.StoreCorruptionError`.
        """
        for path in self.segments():
            lines = path.read_text().splitlines()
            if not lines:
                continue  # empty segment from a crashed rotation
            try:
                header = json.loads(lines[0])
                schema = header.get("schema")
            except ValueError:
                schema = None
            if schema != SHARD_JOURNAL_SCHEMA:
                if path == self.segments()[-1]:
                    continue  # torn header of the active segment
                raise StoreCorruptionError(
                    f"not a shard journal segment (bad header) at {path}"
                )
            for lineno, line in enumerate(lines[1:], start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    yield {
                        "op": str(entry["op"]),
                        "key": str(entry["key"]),
                        "nbytes": int(entry["nbytes"]),
                    }
                except (ValueError, KeyError, TypeError) as exc:
                    if lineno == len(lines):
                        break  # torn final line from a crash mid-append
                    raise StoreCorruptionError(
                        f"malformed shard journal line {lineno} at {path}"
                    ) from exc

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardJournal({str(self.directory)!r})"


class SweepJournal:
    """One sweep's append-only completion record.

    Parameters
    ----------
    path:
        The journal file (conventionally
        ``<store>/journals/<sweep_key>.jsonl``).
    sweep:
        The sweep fingerprint recorded in the header line.
    n_tasks:
        Total tasks of the sweep, recorded for progress reporting.
    resume:
        If true and the file already exists (with a matching header),
        keep its entries and append; if false, start fresh.
    """

    def __init__(
        self,
        path: str | Path,
        sweep: str,
        n_tasks: int,
        *,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.n_tasks = n_tasks
        self._fh: IO[str] | None = None
        self.completed: dict[int, str] = {}
        if resume and self.path.exists():
            self.completed = self._load_existing()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w") as fh:
                fh.write(
                    json.dumps(
                        {
                            "schema": JOURNAL_SCHEMA,
                            "sweep": sweep,
                            "n_tasks": n_tasks,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    def _load_existing(self) -> dict[int, str]:
        completed: dict[int, str] = {}
        lines = self.path.read_text().splitlines()
        if not lines:
            return completed
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise StoreCorruptionError(
                f"unreadable journal header at {self.path}"
            ) from exc
        if header.get("schema") != JOURNAL_SCHEMA:
            raise StoreCorruptionError(
                f"not a sweep journal (schema={header.get('schema')!r}) at {self.path}"
            )
        if header.get("sweep") != self.sweep:
            raise StoreCorruptionError(
                f"journal at {self.path} records sweep {header.get('sweep')!r}, "
                f"not {self.sweep!r}"
            )
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                completed[int(entry["task"])] = str(entry["key"])
            except (ValueError, KeyError, TypeError) as exc:
                if lineno == len(lines):
                    break  # torn final line from a crash mid-append
                raise StoreCorruptionError(
                    f"malformed journal line {lineno} at {self.path}"
                ) from exc
        return completed

    # ------------------------------------------------------------------
    def append(self, task_index: int, key: str) -> None:
        """Record one completed task (flushed immediately)."""
        if task_index in self.completed:
            return
        if self._fh is None:
            self._fh = self.path.open("a")
        self._fh.write(json.dumps({"task": task_index, "key": key}) + "\n")
        self._fh.flush()
        self.completed[task_index] = key

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepJournal({str(self.path)!r}, {len(self.completed)}/"
            f"{self.n_tasks} tasks)"
        )
