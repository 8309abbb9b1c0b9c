"""The resumability manifest: which cases of a sweep have finished.

A state directory holds one append-only JSONL file per writer,
``manifest-shard<i>.jsonl`` per orchestrator shard and
``manifest-service.jsonl`` for ``shmls-serve``.  Each line records one
finished case under the digest of its result-stage ``CacheKey``, with the
result's run-dependent noise stripped.  Every reader (planning, work
stealing, the final merge, ``--fresh``, service start-up) loads the same
files, so a service serves a finished sweep and a sweep resumes what a
service finished.

>>> import tempfile
>>> from repro.core.compile_cache import CacheKey
>>> from repro.evaluation.harness import DEFAULT_CASES
>>> key = CacheKey(module_hash="m")
>>> with tempfile.TemporaryDirectory() as state:
...     manifest = Manifest(manifest_path(state, "shard1"))
...     for _ in range(2):
...         record = manifest.record(key, DEFAULT_CASES[0], {"status": "ok"})
...     loaded = load_manifest(state)
>>> list(loaded) == [key.digest("result")], len(manifest)
(True, 1)
"""

from __future__ import annotations

import json
import os
import signal
import threading
from pathlib import Path
from typing import Any, Callable

from repro.core.compile_cache import CacheKey
from repro.evaluation.harness import BenchmarkCase, case_to_dict
from repro.evaluation.report import deterministic_entry


def manifest_path(state_dir: str | Path, writer: str) -> Path:
    """The manifest file of one writer (``shard<i>`` or ``service``)."""
    return Path(state_dir) / f"manifest-{writer}.jsonl"


def manifest_files(state_dir: str | Path) -> list[Path]:
    """Every writer's manifest file in ``state_dir``."""
    return sorted(Path(state_dir).glob("manifest-*.jsonl"))


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """All records of one JSONL file (missing file = no records yet)."""
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a partially-written trailing line; the next poll gets it
    return records


def load_manifest(state_dir: str | Path) -> dict[str, dict[str, Any]]:
    """Result-key digest → record, merged over every manifest file."""
    completed: dict[str, dict[str, Any]] = {}
    for path in manifest_files(state_dir):
        for record in read_jsonl(path):
            digest = record.get("digest")
            if digest and "result" in record:
                completed[digest] = record
    return completed


class Manifest:
    """One writer's manifest: ``records`` by digest, appended to ``path``
    (``None``: in memory only).  ``chaos_kill_after`` is fault injection
    for tests and CI (see :meth:`kill_if_due`)."""

    def __init__(
        self,
        path: str | Path | None = None,
        records: dict[str, dict[str, Any]] | None = None,
        *,
        chaos_kill_after: int | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records = records if records is not None else {}
        self._lock = threading.Lock()
        self._appends = 0
        self.chaos_kill_after = chaos_kill_after

    def __len__(self) -> int:
        return len(self._records)

    def get(self, digest: str) -> dict[str, Any] | None:
        """The record of a finished case: a dict read, no file I/O."""
        return self._records.get(digest)

    def record(
        self, key: CacheKey, case: BenchmarkCase, result: dict[str, Any]
    ) -> dict[str, Any]:
        """Record one finished case and return its record.

        Thread-safe; a digest is appended once.  The line is flushed before
        this returns, so an event the caller emits next never announces a
        case that a restarted process would not find.
        """
        digest = key.digest("result")
        record = {
            "digest": digest,
            "key": key.as_dict(),
            "case": case_to_dict(case),
            "result": deterministic_entry(result),
        }
        with self._lock:
            if digest in self._records:
                return record
            self._records[digest] = record
            if self.path is not None:
                with self.path.open("a") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    handle.flush()
            self._appends += 1
        return record

    def kill_if_due(self, last_words: Callable[[int], Any] | None = None) -> None:
        """SIGKILL this process, as a real ``kill -9`` would, once
        ``chaos_kill_after`` records were appended; ``last_words(appended)``
        runs first."""
        appended = self._appends
        if self.chaos_kill_after is None or appended < self.chaos_kill_after:
            return
        if last_words is not None:
            last_words(appended)
        os.kill(os.getpid(), signal.SIGKILL)
