"""Content-addressed cache of whole evaluated cases.

Entries are keyed by a :class:`CacheKey` — the canonical module hash
(:func:`repro.ir.hashing.module_hash`), the *canonicalised* pass-pipeline
spec (:func:`repro.ir.pass_registry.canonical_pipeline_spec`, so option
differences such as ``stencil-to-hls{pack=0}`` vs ``{pack=1}`` can never
collide) and a free-form ``extra`` discriminator (framework, variant,
device, repeats) — plus a *stage* name.  One stage is in use:
``result``, a whole evaluation-harness :class:`FrameworkResult`, which
:meth:`EvaluationHarness.run_matrix
<repro.evaluation.harness.EvaluationHarness.run_matrix>` stores as soon as
a case is evaluated and reads back on warm runs.  The compiler itself
caches nothing: every compile runs its whole pass pipeline once.

The cache has two tiers: a per-process in-memory store and an optional
on-disk tier under ``cache_dir``.  Disk entries are written to a temp file
and renamed into place, so parallel evaluation workers can share one
directory, a mounted one included, without ever reading a torn entry.
Keys are content hashes, so sharing needs no other coordination.
Hit/miss/store counts are recorded per stage and surfaced by the bench
CLI, shard events and ``/stats``.

Every entry is the JSON text of its value (``<digest>.json`` on disk).  A
store encodes the value once and both tiers keep those bytes; every hit
decodes a private copy, so callers may mutate what they stored or got back
without cloning it first.  Unlike unpickling, decoding JSON runs no code,
so whoever can write to a shared directory cannot make a reader run any.

The CLIs that evaluate cases share one flag group
(:func:`add_cache_arguments`) and one rule for what the flags mean
(:meth:`CompileCache.from_settings`).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


@dataclass(frozen=True)
class CacheKey:
    """Content address of one evaluated case.

    Keys are value objects; :meth:`digest` mixes in the *stage* name.
    They serialise losslessly to JSON (:meth:`as_dict` /
    :meth:`from_dict`), which is how the resumability manifest records
    completed cases.

    >>> key = CacheKey(module_hash="abc", pipeline="canonicalize")
    >>> CacheKey.from_dict(key.as_dict()) == key
    True
    >>> key.digest("result") == key.digest("result")
    True
    >>> key.digest("result") != key.digest("other")
    True
    """

    module_hash: str
    pipeline: str = ""
    extra: str = ""

    def digest(self, stage: str) -> str:
        """Stable hex digest of this key for one stage name."""
        from repro.ir.hashing import fingerprint_text

        return fingerprint_text(
            "\x1f".join((stage, self.module_hash, self.pipeline, self.extra))
        )

    def as_dict(self) -> dict[str, str]:
        """This key as a JSON-safe dict (the manifest export form)."""
        return {
            "module_hash": self.module_hash,
            "pipeline": self.pipeline,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, entry: dict[str, str]) -> "CacheKey":
        """Rebuild a key exported by :meth:`as_dict`."""
        return cls(
            module_hash=entry["module_hash"],
            pipeline=entry.get("pipeline", ""),
            extra=entry.get("extra", ""),
        )


@dataclass
class CacheStats:
    """Per-stage hit/miss/store counters."""

    hits: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    misses: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    stores: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    errors: int = 0
    #: Presence checks answered by :meth:`CompileCache.probe` (which never
    #: touch the hit/miss counters — they restore nothing).
    probes: int = 0
    #: Entries removed by :meth:`CompileCache.gc` and the bytes they held.
    evicted_entries: int = 0
    evicted_bytes: int = 0
    #: On-disk footprint after the most recent ``gc``/``disk_bytes`` scan.
    disk_bytes: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def as_dict(self) -> dict[str, Any]:
        stages = sorted(set(self.hits) | set(self.misses) | set(self.stores))
        return {
            "hits": self.total_hits,
            "misses": self.total_misses,
            "errors": self.errors,
            "probes": self.probes,
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
            "disk_bytes": self.disk_bytes,
            "stages": {
                stage: {
                    "hits": self.hits.get(stage, 0),
                    "misses": self.misses.get(stage, 0),
                    "stores": self.stores.get(stage, 0),
                }
                for stage in stages
            },
        }

    def summary_lines(self) -> list[str]:
        lines = [f"cache hits: {self.total_hits}, misses: {self.total_misses}"]
        for stage, counts in self.as_dict()["stages"].items():
            lines.append(
                f"  {stage:<12} hits={counts['hits']} misses={counts['misses']} "
                f"stores={counts['stores']}"
            )
        if self.disk_bytes or self.evicted_entries:
            lines.append(
                f"  disk: {self.disk_bytes} bytes"
                f" (evicted {self.evicted_entries} entries"
                f" / {self.evicted_bytes} bytes)"
            )
        return lines


class CompileCache:
    """Tiered (memory + optional disk) content-addressed artefact store.

    >>> cache = CompileCache()                       # memory-only tier
    >>> key = CacheKey(module_hash="abc", pipeline="canonicalize")
    >>> cache.get(key, "result") is None             # cold: a miss
    True
    >>> cache.put(key, "result", {"mpts": 1.5})
    >>> cache.get(key, "result")
    {'mpts': 1.5}
    >>> cache.stats.total_hits, cache.stats.total_misses
    (1, 1)

    Every hit is a private copy:

    >>> cache.get(key, "result") is cache.get(key, "result")
    False

    Pass ``cache_dir`` to add the on-disk tier (written atomically, safe
    to share between parallel evaluation workers).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        max_bytes: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: On-disk budget :meth:`trim` evicts down to (``None``: unbounded).
        self.max_bytes = max_bytes
        #: JSON entries by digest: the same bytes the disk tier holds.
        self._memory: dict[str, bytes] = {}
        #: Incremental on-disk footprint; ``None`` until the first
        #: ``disk_bytes()``/``gc()`` rescan establishes the baseline.
        self._disk_bytes_counter: int | None = None
        #: One instance may be shared by several threads (the compile
        #: service runs request compiles on an executor while its event
        #: loop probes/serves warm hits): the memory tier, the stats
        #: counters and the incremental byte counter mutate under this
        #: lock.  The disk tier is already multi-process safe.
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- settings -------------------------------------------------------------

    @classmethod
    def from_settings(cls, settings: Mapping[str, Any] | None) -> CompileCache | None:
        """The cache a parsed namespace's ``vars()`` or a :meth:`settings`
        dict asks for: no directory gives ``None``; a byte budget needs
        ``cache_dir`` and must be >= 0.

        >>> CompileCache.from_settings({}) is None
        True
        >>> CompileCache.from_settings({"cache_max_bytes": 0})
        Traceback (most recent call last):
            ...
        ValueError: --cache-max-bytes needs --cache-dir
        """
        settings = settings or {}
        cache_dir = settings.get("cache_dir")
        max_bytes = settings.get("cache_max_bytes")
        if max_bytes is not None:
            if not cache_dir:
                raise ValueError("--cache-max-bytes needs --cache-dir")
            if max_bytes < 0:
                raise ValueError(f"--cache-max-bytes must be >= 0, got {max_bytes}")
        if not cache_dir:
            return None
        return cls(cache_dir, max_bytes=max_bytes)

    def settings(self) -> dict[str, Any]:
        """This cache as a JSON-safe :meth:`from_settings` dict."""
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
            "cache_max_bytes": self.max_bytes,
        }

    # -- paths ----------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / digest[:2] / f"{digest}.json"

    # -- core API -------------------------------------------------------------

    def get(self, key: CacheKey, stage: str) -> Any | None:
        """Look up one stage artefact; ``None`` means miss.

        Lookup order is memory → disk; a disk hit is kept in the memory
        tier.  Every hit decodes a private copy.  An entry that does not
        decode is a miss, counted in ``stats.errors``, and the next
        :meth:`put` overwrites it.
        """
        digest = key.digest(stage)
        with self._lock:
            value = self._restore(digest)
            if value is None:
                self.stats.misses[stage] += 1
                return None
            self.stats.hits[stage] += 1
            return value

    def probe(self, key: CacheKey, stage: str) -> bool:
        """Hit check *without restoring*: is the artefact in either tier?

        Nothing is decoded or promoted between tiers, and the hit/miss
        counters are untouched — so a front-door service can answer
        "would this request be warm?" (admission control, the cache fast
        path) without paying a restore or skewing the stats that record
        real serves.  Probes are counted separately.

        >>> cache = CompileCache()
        >>> key = CacheKey(module_hash="abc")
        >>> cache.probe(key, "result")
        False
        >>> cache.put(key, "result", {"mpts": 2.0})
        >>> cache.probe(key, "result")
        True
        >>> cache.stats.total_hits, cache.stats.total_misses
        (0, 0)
        """
        digest = key.digest(stage)
        with self._lock:
            self.stats.probes += 1
            if digest in self._memory:
                return True
        return self.cache_dir is not None and self._path(digest).is_file()

    def _restore(self, digest: str) -> Any | None:
        """Decode ``digest`` from the first tier that holds it."""
        blob = self._memory.get(digest)
        from_disk = blob is None
        if from_disk:
            if self.cache_dir is None:
                return None
            try:
                blob = self._path(digest).read_bytes()
            except OSError:
                return None
        try:
            value = json.loads(blob)
        except (ValueError, RecursionError):
            # A truncated, foreign or older-format entry is a miss, not a crash.
            self.stats.errors += 1
            self._memory.pop(digest, None)
            return None
        if from_disk:
            self._memory[digest] = blob
            # Refresh mtime so gc()'s LRU sees *use* recency, not just
            # store recency — hot entries must outlive cold one-offs in
            # long-lived shared directories.
            try:
                os.utime(self._path(digest))
            except OSError:
                pass
        return value

    def put(self, key: CacheKey, stage: str, value: Any) -> None:
        """Store one stage artefact in every configured tier.

        ``value`` is encoded as JSON once and both tiers keep those bytes,
        so the caller may go on mutating ``value`` after the call.  A value
        JSON cannot encode is not stored.
        """
        digest = key.digest(stage)
        with self._lock:
            try:
                blob = json.dumps(value, sort_keys=True).encode()
            except (TypeError, ValueError, RecursionError):
                self.stats.errors += 1
                return
            self._memory[digest] = blob
            self.stats.stores[stage] += 1
            if self.cache_dir is not None:
                self._write(self._path(digest), blob)

    def _write(self, path: Path, blob: bytes) -> None:
        """Publish ``blob`` at ``path`` via temp-file + same-directory
        rename (atomic on POSIX filesystems, including NFS mounts), so
        parallel writers never observe a torn entry, and keep the
        incremental byte counter in step (an overwrite replaces the old
        entry's bytes)."""
        old = 0
        if self._disk_bytes_counter is not None:
            try:
                old = path.stat().st_size
            except OSError:
                old = 0
        try:
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
        except OSError:
            self.stats.errors += 1
            return
        if self._disk_bytes_counter is not None:
            self._disk_bytes_counter += len(blob) - old

    # -- maintenance ----------------------------------------------------------

    def _disk_entries(self) -> list[tuple[float, int, Path]]:
        """Every on-disk entry as ``(mtime, size, path)``, oldest first."""
        assert self.cache_dir is not None
        entries: list[tuple[float, int, Path]] = []
        for path in self.cache_dir.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # a parallel writer/GC raced us; skip
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        return entries

    def disk_bytes(self) -> int:
        """Current on-disk footprint of the cache directory (0 if memory-only).

        The directory is scanned once to establish a baseline; afterwards
        the footprint is tracked incrementally on every local write, so
        ``--timing`` on a large warm cache stops paying an O(entries)
        ``glob`` + ``stat`` rescan per stats read.  (``gc`` rescans — it
        is the authoritative resync point, picking up entries written by
        *other* processes sharing the directory.)
        """
        if self.cache_dir is None:
            return 0
        with self._lock:
            if self._disk_bytes_counter is None:
                self._disk_bytes_counter = sum(
                    size for _, size, _ in self._disk_entries()
                )
            self.stats.disk_bytes = self._disk_bytes_counter
            return self._disk_bytes_counter

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-used disk entries until ≤ ``max_bytes`` remain.

        LRU is approximated by file mtime, which :meth:`get` refreshes on
        every disk-tier hit (best-effort) — so a hot, constantly-reused
        artefact outlives a cold one-off store even in long-lived shared
        cache directories.  Returns the number of evicted entries; the
        memory tier is left untouched (it dies with the process anyway).
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if self.cache_dir is None:
            return 0
        with self._lock:
            return self._gc_locked(max_bytes)

    def trim(self) -> int:
        """Evict down to the ``max_bytes`` budget (a no-op without one)."""
        return self.gc(self.max_bytes) if self.max_bytes is not None else 0

    def _gc_locked(self, max_bytes: int) -> int:
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                self.stats.errors += 1
                continue
            total -= size
            evicted += 1
            self.stats.evicted_entries += 1
            self.stats.evicted_bytes += size
        # Authoritative resync of the incremental counter: the full scan
        # above also saw entries written by other processes.
        self._disk_bytes_counter = total
        self.stats.disk_bytes = total
        return evicted

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, stays)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


# -- the shared CLI flags -------------------------------------------------------


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare ``--cache-dir`` and ``--cache-max-bytes``: the
    compile-cache flags every CLI shares."""
    group = parser.add_argument_group("compile cache")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed compile cache directory, "
                       "shared across runs and processes")
    group.add_argument("--cache-max-bytes", type=int, default=None, metavar="BYTES",
                       help="evict least-recently-used --cache-dir entries "
                       "down to this on-disk budget when the run ends "
                       "(shmls-orchestrate: after each shard; shmls-serve: "
                       "on shutdown)")


def cache_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> CompileCache | None:
    """The cache the parsed flags ask for; flags that
    :meth:`CompileCache.from_settings` rejects are a usage error (exit 2)."""
    try:
        return CompileCache.from_settings(vars(args))
    except ValueError as err:
        parser.error(str(err))
