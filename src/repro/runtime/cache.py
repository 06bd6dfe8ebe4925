"""Persistent, content-addressed result cache for simulation jobs.

Completed jobs are memoized on disk keyed by :meth:`SimJob.key`, so any
process that builds the same job — a later benchmark invocation, a pytest
re-run, a worker process of the parallel executor — gets the finished result
back instead of re-simulating.  Entries are pickled result records fanned out
into 256 two-hex-character shard subdirectories
(``<dir>/<key[:2]>/<key>.pkl``), which keeps directory listings short for
large sweeps.  Writes go through a temporary file plus :func:`os.replace` so
concurrent writers (the pool workers all share one directory) can never
leave a torn file behind.

Point lookups use :meth:`ResultCache.get`; the runner's pre-dispatch hit
scan uses :meth:`ResultCache.get_many`, which lists each needed shard once
instead of paying one ``stat`` + ``open`` attempt per key — on a cold sweep
almost every key is a miss, and a miss costs nothing once the shard listing
is in hand.

The cache is *input*-addressed, not code-addressed: if the simulator's
semantics change, bump :data:`repro.runtime.jobs.CACHE_SCHEMA_VERSION` (or
clear the directory with ``python -m repro cache clear``).

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default: ``.repro_cache`` under the
  current working directory).
* ``REPRO_CACHE=0`` — disable the on-disk layer entirely.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro import knobs

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

#: Upper bound on blobs kept in a cache instance's in-memory level.  The
#: disk level is authoritative; this only caps RAM held by long sessions
#: (e.g. the process-wide default runner over a full-scale sweep).
MEMORY_ENTRY_LIMIT = 4096


def default_cache_dir() -> Path:
    """The cache directory the environment asks for."""
    return Path(knobs.get("REPRO_CACHE_DIR"))


@dataclass(frozen=True)
class PruneReport:
    """Outcome of :meth:`ResultCache.prune`."""

    removed_entries: int
    freed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class ResultCache:
    """Two-level (memory + disk) store of finished job results.

    The in-memory level keeps the *pickled* bytes rather than the live
    object: every :meth:`get` deserialises a fresh copy, so callers can
    never corrupt the cache through a returned record.  It is an LRU
    bounded to :data:`MEMORY_ENTRY_LIMIT` blobs; evicted entries simply fall
    back to the disk level.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: OrderedDict[str, bytes] = OrderedDict()  # guarded-by: _memory_lock
        # One cache instance is shared by concurrent BatchRunner.run() calls
        # (the serving front-end's background jobs); the recency reordering
        # and bound eviction must not race each other's lookups.
        self._memory_lock = threading.Lock()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """On-disk (sharded) location of one entry."""
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached result for ``key``, or :data:`MISS`."""
        blob = self._memory_get(key)
        if blob is None:
            try:
                blob = self.path_for(key).read_bytes()
            except OSError:
                return MISS
            self._remember(key, blob)
        return self._decode(key, blob)

    def _memory_get(self, key: str) -> bytes | None:
        """Memory-level lookup, refreshing the entry's LRU recency."""
        with self._memory_lock:
            blob = self._memory.get(key)
            if blob is not None:
                self._memory.move_to_end(key)
            return blob

    def get_many(self, keys: list[str]) -> dict[str, object]:
        """Batched lookup: the subset of ``keys`` that are cached, decoded.

        Instead of one ``stat`` + ``open`` attempt per key (the cost profile
        of calling :meth:`get` in a loop, painful on cold sweeps where nearly
        every key misses), each needed shard directory is listed once and
        only files known to exist are opened.
        """
        found: dict[str, object] = {}
        need: dict[str, list[str]] = {}
        for key in dict.fromkeys(keys):
            blob = self._memory_get(key)
            if blob is not None:
                value = self._decode(key, blob)
                if value is not MISS:
                    found[key] = value
                continue
            need.setdefault(key[:2], []).append(key)
        if not need or not self.directory.is_dir():
            return found
        for prefix, shard_keys in need.items():
            names = _list_dir(self.directory / prefix)
            for key in shard_keys:
                if f"{key}.pkl" not in names:
                    continue
                try:
                    blob = self.path_for(key).read_bytes()
                except OSError:
                    continue  # concurrently removed
                self._remember(key, blob)
                value = self._decode(key, blob)
                if value is not MISS:
                    found[key] = value
        return found

    def missing(self, keys: list[str]) -> list[str]:
        """The subset of ``keys`` with no cache entry, without reading any.

        A pure existence probe: each needed shard is listed once and no entry
        file is ever opened or decoded — the cost profile the serving
        front-end needs to classify a request as cache-warm or cold before
        deciding whether to answer synchronously.  A torn entry that
        :meth:`get` would treat as a miss can therefore still count as
        present here; the serving path tolerates that by re-running the jobs
        the subsequent full read reports missing.
        """
        absent: list[str] = []
        need: dict[str, list[str]] = {}
        with self._memory_lock:
            remembered = set(self._memory)
        for key in dict.fromkeys(keys):
            if key in remembered:
                continue
            need.setdefault(key[:2], []).append(key)
        if not need:
            return absent
        if not self.directory.is_dir():
            return [key for shard_keys in need.values() for key in shard_keys]
        for prefix, shard_keys in need.items():
            names = _list_dir(self.directory / prefix)
            absent.extend(key for key in shard_keys if f"{key}.pkl" not in names)
        return absent

    def get_blob(self, key: str) -> bytes | None:
        """The stored (pickled) bytes for ``key``, or ``None`` — no decoding.

        The transport form of the cache-replication path: the fabric
        coordinator serves entries to ``cache pull`` peers as raw bytes, so
        the receiver can digest-verify and store them without trusting (or
        paying for) a deserialise on the wire boundary.
        """
        blob = self._memory_get(key)
        if blob is not None:
            return blob
        try:
            blob = self.path_for(key).read_bytes()
        except OSError:
            return None
        self._remember(key, blob)
        return blob

    def keys(self) -> list[str]:
        """Every on-disk entry key, sorted.

        The coordinator's ``/v1/cache/keys`` inventory: a peer diffs this
        against its own :meth:`missing` probe to decide what to pull.
        """
        return sorted({path.stem for path in self._entry_paths()})

    def _decode(self, key: str, blob: bytes):
        try:
            return pickle.loads(blob)
        except Exception:  # repro: allow[bare-except]
            # A torn or stale entry (e.g. written by an incompatible version)
            # is indistinguishable from a miss — whatever pickle raised for
            # it, the answer is the same: drop the entry so it gets rebuilt.
            with self._memory_lock:
                self._memory.pop(key, None)
            self.path_for(key).unlink(missing_ok=True)
            return MISS

    def _remember(self, key: str, blob: bytes) -> None:
        with self._memory_lock:
            self._memory[key] = blob
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ENTRY_LIMIT:
                self._memory.popitem(last=False)

    def put(self, key: str, value: object) -> None:
        """Store one finished result under ``key``."""
        self.put_blob(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def put_blob(self, key: str, blob: bytes) -> None:
        """Store one entry's already-pickled bytes under ``key``.

        The write half of the replication path (:meth:`get_blob` is the read
        half): a digest-verified entry received from a peer lands byte-for-
        byte, so the two caches stay content-identical under the same key.
        """
        self._remember(key, blob)
        path = self.path_for(key)
        # The shard directory almost always exists already: create it only
        # when the temporary file cannot be, then retry once.
        try:
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def _entry_paths(self):
        """Every on-disk entry."""
        if not self.directory.is_dir():
            return
        yield from self.directory.glob("*/*.pkl")

    def clear(self) -> int:
        """Remove every entry (memory and disk); returns entries removed.

        Also sweeps ``*.tmp`` files a killed writer may have stranded
        between ``mkstemp`` and ``os.replace``.
        """
        with self._memory_lock:
            self._memory.clear()
        removed = 0
        for path in list(self._entry_paths()):
            path.unlink(missing_ok=True)
            removed += 1
        if self.directory.is_dir():
            for path in self.directory.glob("*/*.tmp"):
                path.unlink(missing_ok=True)
        return removed

    def prune(
        self, max_size_bytes: int | None = None, *, prefix: str | None = None
    ) -> PruneReport:
        """Evict entries by LRU size bound, key prefix, or both.

        With ``max_size_bytes``, entries are ranked by file mtime (ties
        broken by key for determinism) and the oldest are deleted first
        until the remaining entries total at most the bound.  Writes refresh
        an entry's mtime (``put`` replaces the file), so mtime order
        approximates LRU for the sweep workloads that funnel through the
        runner.

        With ``prefix``, only entries whose key starts with it are
        considered — and if no size bound is given, *every* matching entry
        is evicted.  That is how a finished DSE campaign (``prefix="dse-"``)
        is dropped without touching figure results; the report's
        ``remaining`` counts then cover only the matching keys.
        """
        if max_size_bytes is None and prefix is None:
            raise ValueError("prune needs a size bound, a key prefix, or both")
        if max_size_bytes is not None and max_size_bytes < 0:
            raise ValueError("max_size_bytes must be non-negative")
        bound = 0 if max_size_bytes is None else max_size_bytes
        entries = []
        for path in self._entry_paths():
            if prefix is not None and not path.stem.startswith(prefix):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((stat.st_mtime, path.stem, path, stat.st_size))
        entries.sort(key=lambda entry: entry[:2])
        total = sum(entry[3] for entry in entries)
        removed = 0
        freed = 0
        for _mtime, key, path, size in entries:
            if total <= bound:
                break
            path.unlink(missing_ok=True)
            with self._memory_lock:
                self._memory.pop(key, None)
            total -= size
            freed += size
            removed += 1
        return PruneReport(
            removed_entries=removed,
            freed_bytes=freed,
            remaining_entries=len(entries) - removed,
            remaining_bytes=total,
        )

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self._entry_paths())

    def size_bytes(self) -> int:
        """Total bytes the on-disk entries occupy."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # concurrently removed
        return total

    def stats_report(self) -> dict[str, object]:
        """One batched scan of the disk level, with layout telemetry.

        Returns entry/byte totals, the shard-directory count and how long
        the scan itself took — the number ``python -m repro cache stats``
        reports as scan throughput.
        """
        start = time.perf_counter()
        entries = 0
        size = 0
        shard_dirs = 0
        for child in _scandir_safe(self.directory):
            try:
                if not child.is_dir():
                    continue
            except OSError:
                continue  # concurrently removed
            shard_dirs += 1
            for entry in _scandir_safe(child.path):
                if not entry.name.endswith(".pkl"):
                    continue
                try:
                    size += entry.stat().st_size
                except OSError:
                    continue  # concurrently removed
                entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "size_bytes": size,
            "shard_dirs": shard_dirs,
            "scan_seconds": time.perf_counter() - start,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.directory)!r})"


def _scandir_safe(path) -> list:
    """Directory entries, tolerating a concurrently removed directory."""
    try:
        with os.scandir(path) as it:
            return list(it)
    except OSError:
        return []


def _list_dir(path: Path) -> set[str]:
    """File names directly under ``path`` (empty when it does not exist)."""
    return {entry.name for entry in _scandir_safe(path)}
