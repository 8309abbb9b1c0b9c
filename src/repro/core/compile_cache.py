"""Content-addressed compile-session cache.

Entries are keyed by a :class:`CacheKey` — the canonical module hash
(:func:`repro.ir.hashing.module_hash`), the *canonicalised* pass-pipeline
spec (:func:`repro.ir.pass_registry.canonical_pipeline_spec`, so option
differences such as ``stencil-to-hls{pack=0}`` vs ``{pack=1}`` can never
collide), a fingerprint of the compiler options and a free-form ``extra``
discriminator (device, clock, framework, …) — plus a *stage* name, so the
compiler can reuse per-stage artefacts independently:

* ``middle-end``  — device-independent pass-pipeline output
  (HLS/LLVM modules, dataflow plans, f++ report, pass statistics)
* ``synthesis``   — the device-specific :class:`KernelDesign`
* ``result``      — a whole evaluation-harness :class:`FrameworkResult`

The cache is tiered: a per-process in-memory store, an optional on-disk
tier under ``cache_dir`` (written atomically so parallel evaluation
workers can share one directory), and an optional *shared network tier*
under ``remote_dir`` — any filesystem path several machines can mount
(NFS, sshfs, a synced directory).  The remote tier is
read-through/write-back: a local miss that hits the remote tier copies
the artefact into the local tier, and fresh local stores are published
back with the same atomic temp-file-then-rename protocol, so concurrent
writers on different machines never observe torn entries.  Keys are
content hashes, so cross-machine and cross-user dedup needs no
coordination at all.  Hit/miss/store counts are recorded per stage and
surfaced by ``--timing`` / the bench CLI.

Every entry is one pickle blob (``.pkl`` on disk).  A store pickles the
value once and every tier keeps those bytes, the memory tier included;
every hit unpickles a private copy, so callers may mutate what they
stored or got back without cloning it first.

The CLIs share one flag group (:func:`add_cache_arguments`) and one rule
for what the flags mean (:meth:`CompileCache.from_settings`).
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

#: Pickling an IR module recurses through its use-def web, whose depth grows
#: with program length; the default interpreter limit (1000) is too small for
#: the larger benchmark kernels.
_PICKLE_RECURSION_LIMIT = 100_000

_recursion_lock = threading.Lock()
_recursion_floor_set = False

#: ``gc.disable``/``gc.enable`` act on the whole process, so unpickles take
#: turns: otherwise one thread's restore could re-enable the collector in
#: the middle of another's, or leave it off for good.
_gc_lock = threading.RLock()


def _ensure_pickle_recursion_floor() -> None:
    """Raise the process recursion limit to the pickling floor, once.

    A set-once floor (never lowered, never restored) is reentrancy-safe:
    the previous save/mutate/restore dance could clobber a parallel
    caller's restore and leave the process at an arbitrary limit.
    """
    global _recursion_floor_set
    if _recursion_floor_set:
        return
    with _recursion_lock:
        if _recursion_floor_set:
            return
        if sys.getrecursionlimit() < _PICKLE_RECURSION_LIMIT:
            sys.setrecursionlimit(_PICKLE_RECURSION_LIMIT)
        _recursion_floor_set = True


@dataclass(frozen=True)
class CacheKey:
    """Content address of one compilation session.

    Keys are value objects; :meth:`digest` mixes in the *stage* name so
    one session can store several independent artefacts.  They serialise
    losslessly to JSON (:meth:`as_dict` / :meth:`from_dict`), which is how
    the orchestrator's resumability manifest records completed cases.

    >>> key = CacheKey(module_hash="abc", pipeline="canonicalize")
    >>> CacheKey.from_dict(key.as_dict()) == key
    True
    >>> key.digest("result") == key.digest("result")
    True
    >>> key.digest("result") != key.digest("middle-end")
    True
    """

    module_hash: str
    pipeline: str = ""
    options: str = ""
    extra: str = ""

    def digest(self, stage: str) -> str:
        """Stable hex digest of this key for one stage name."""
        from repro.ir.hashing import fingerprint_text

        return fingerprint_text(
            "\x1f".join((stage, self.module_hash, self.pipeline, self.options, self.extra))
        )

    def as_dict(self) -> dict[str, str]:
        """This key as a JSON-safe dict (the manifest export form)."""
        return {
            "module_hash": self.module_hash,
            "pipeline": self.pipeline,
            "options": self.options,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, entry: dict[str, str]) -> "CacheKey":
        """Rebuild a key exported by :meth:`as_dict`."""
        return cls(
            module_hash=entry["module_hash"],
            pipeline=entry.get("pipeline", ""),
            options=entry.get("options", ""),
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
    #: Shared-network-tier traffic: local misses served by ``remote_dir``
    #: (each also counts as a stage hit) and artefacts published back.
    remote_hits: int = 0
    remote_stores: int = 0

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
            "remote_hits": self.remote_hits,
            "remote_stores": self.remote_stores,
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
        if self.remote_hits or self.remote_stores:
            lines.append(
                f"  remote tier: {self.remote_hits} hits,"
                f" {self.remote_stores} stores"
            )
        return lines


class CompileCache:
    """Tiered (memory + optional disk + optional network) content-addressed
    artefact store.

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
    to share between parallel evaluation workers) and ``remote_dir`` to
    add the shared network tier behind it (a mounted NFS/sshfs path;
    read-through on miss, write-back on store, same atomic-rename
    publishing — so warm artefacts dedup across machines).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        remote_dir: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.remote_dir = Path(remote_dir) if remote_dir is not None else None
        #: On-disk budget :meth:`trim` evicts down to (``None``: unbounded).
        self.max_bytes = max_bytes
        #: Pickled entries by digest: the same bytes the disk tiers hold.
        self._memory: dict[str, bytes] = {}
        #: Incremental on-disk footprint; ``None`` until the first
        #: ``disk_bytes()``/``gc()`` rescan establishes the baseline.
        self._disk_bytes_counter: int | None = None
        #: One instance may be shared by several threads (the compile
        #: service runs request compiles on an executor while its event
        #: loop probes/serves warm hits): the memory tier, the stats
        #: counters and the incremental byte counter mutate under this
        #: lock.  Disk/remote tiers were already multi-process safe.
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
        remote_dir = settings.get("remote_cache_dir")
        max_bytes = settings.get("cache_max_bytes")
        if max_bytes is not None:
            if not cache_dir:
                raise ValueError("--cache-max-bytes needs --cache-dir")
            if max_bytes < 0:
                raise ValueError(f"--cache-max-bytes must be >= 0, got {max_bytes}")
        if not (cache_dir or remote_dir):
            return None
        return cls(cache_dir or None, remote_dir=remote_dir or None, max_bytes=max_bytes)

    def settings(self) -> dict[str, Any]:
        """This cache as a JSON-safe :meth:`from_settings` dict."""
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
            "remote_cache_dir": str(self.remote_dir) if self.remote_dir is not None else None,
            "cache_max_bytes": self.max_bytes,
        }

    # -- paths ----------------------------------------------------------------

    def _path(self, digest: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / digest[:2] / f"{digest}.pkl"

    def _remote_path(self, digest: str) -> Path:
        assert self.remote_dir is not None
        return self.remote_dir / digest[:2] / f"{digest}.pkl"

    # -- pickle helpers -------------------------------------------------------

    @staticmethod
    def _dumps(value: Any) -> bytes:
        _ensure_pickle_recursion_floor()
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _loads(blob: bytes) -> Any:
        _ensure_pickle_recursion_floor()
        # Every object an unpickle creates stays reachable from its result,
        # so a collection triggered mid-load finds no garbage; on a large
        # heap a full collection landing here costs more than the restore.
        with _gc_lock:
            enabled = gc.isenabled()
            gc.disable()
            try:
                return pickle.loads(blob)
            finally:
                if enabled:
                    gc.enable()

    # -- core API -------------------------------------------------------------

    def get(
        self,
        key: CacheKey,
        stage: str,
        *,
        rehydrate: Callable[[Any], Any] | None = None,
    ) -> Any | None:
        """Look up one stage artefact; ``None`` means miss.

        ``rehydrate`` post-processes the stored value (e.g. restamping the
        statistics of a cached compilation).  Lookup order is memory →
        local disk → shared remote tier; a disk or remote hit is kept in
        the memory tier, and a remote hit is also copied read-through
        into the local disk tier.  Every hit unpickles a private copy.
        """
        digest = key.digest(stage)
        with self._lock:
            value = self._restore(digest)
            if value is None:
                self.stats.misses[stage] += 1
                return None
            self.stats.hits[stage] += 1
        return rehydrate(value) if rehydrate is not None else value

    def probe(self, key: CacheKey, stage: str) -> bool:
        """Hit check *without restoring*: is the artefact in any tier?

        Nothing is unpickled, decoded or promoted between tiers, and the
        hit/miss counters are untouched — so a front-door service can
        answer "would this request be warm?" (admission control, the
        cache fast path) without paying a restore or skewing the stats
        that record real serves.  Probes are counted separately.

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
        if self.cache_dir is not None and self._path(digest).is_file():
            return True
        if self.remote_dir is not None and self._remote_path(digest).is_file():
            return True
        return False

    def _restore(self, digest: str) -> Any | None:
        """Unpickle ``digest`` from the first tier that holds it."""
        blob = self._memory.get(digest)
        tier: str | None = "memory"
        if blob is None:
            blob, tier = self._read_tiers(digest)
            if blob is None:
                return None
        try:
            value = self._loads(blob)
        except Exception:
            # A truncated/stale/unreadable entry is a miss, not a crash.
            self.stats.errors += 1
            self._memory.pop(digest, None)
            return None
        if tier != "memory":
            self._memory[digest] = blob
            self._after_tier_hit(digest, tier, blob)
        return value

    def _read_tiers(self, digest: str) -> tuple[bytes | None, str | None]:
        """Raw bytes for ``digest`` from local disk, then the remote tier."""
        if self.cache_dir is not None:
            try:
                return self._path(digest).read_bytes(), "disk"
            except OSError:
                pass
        if self.remote_dir is not None:
            try:
                return self._remote_path(digest).read_bytes(), "remote"
            except OSError:
                pass
        return None, None

    def _after_tier_hit(self, digest: str, tier: str | None, blob: bytes) -> None:
        if tier == "disk":
            # Refresh mtime so gc()'s LRU sees *use* recency, not just
            # store recency — hot entries must outlive cold one-offs in
            # long-lived shared directories.
            try:
                os.utime(self._path(digest))
            except OSError:
                pass
        elif tier == "remote":
            self.stats.remote_hits += 1
            if self.cache_dir is not None:
                # Read-through: future lookups (and gc accounting) are
                # served locally, with a fresh mtime.
                self._write_local(self._path(digest), blob)

    def put(self, key: CacheKey, stage: str, value: Any) -> None:
        """Store one stage artefact in every configured tier.

        ``value`` is pickled once, and the memory tier, the local disk and
        — written back with the same atomic rename — the shared remote
        directory all keep those bytes, so the caller may go on mutating
        ``value`` after the call.  An unpicklable value is not stored.
        """
        digest = key.digest(stage)
        with self._lock:
            try:
                blob = self._dumps(value)
            except Exception:
                self.stats.errors += 1
                return
            self._memory[digest] = blob
            self.stats.stores[stage] += 1
            if self.cache_dir is not None:
                self._write_local(self._path(digest), blob)
            if self.remote_dir is not None and self._write_atomic(
                self._remote_path(digest), blob
            ):
                self.stats.remote_stores += 1

    def _write_local(self, path: Path, blob: bytes) -> bool:
        """Write to the local disk tier, keeping the incremental byte
        counter in step (an overwrite replaces the old entry's bytes)."""
        old = 0
        if self._disk_bytes_counter is not None:
            try:
                old = path.stat().st_size
            except OSError:
                old = 0
        ok = self._write_atomic(path, blob)
        if ok and self._disk_bytes_counter is not None:
            self._disk_bytes_counter += len(blob) - old
        return ok

    def _write_atomic(self, path: Path, blob: bytes) -> bool:
        """Publish ``blob`` at ``path`` via temp-file + same-directory
        rename (atomic on POSIX filesystems, including NFS mounts), so
        parallel writers on any machine never observe a torn entry."""
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
            return False
        return True

    # -- maintenance ----------------------------------------------------------

    def _disk_entries(self) -> list[tuple[float, int, Path]]:
        """Every on-disk entry as ``(mtime, size, path)``, oldest first."""
        assert self.cache_dir is not None
        entries: list[tuple[float, int, Path]] = []
        for path in self.cache_dir.glob("*/*.pkl"):
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
        memory tier is left untouched (it dies with the process anyway)
        and the shared remote tier is never evicted from here (each
        machine gc's only its own local tier).
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
    """Declare ``--cache-dir``, ``--remote-cache-dir`` and
    ``--cache-max-bytes``: the compile-cache flags every CLI shares."""
    group = parser.add_argument_group("compile cache")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed compile cache directory, "
                       "shared across runs and processes")
    group.add_argument("--remote-cache-dir", default=None, metavar="DIR",
                       help="shared network cache tier behind --cache-dir "
                       "(an NFS/sshfs-mounted path): read-through on miss, "
                       "written back on store")
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
