"""Cache eviction/GC and the compile-cache flags every CLI shares."""

from __future__ import annotations

import os
import time

import pytest

from repro import cli
from repro.core.compile_cache import CacheKey, CompileCache
from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import EvaluationHarness
from repro.service.server import CompileService

#: Each cache-flag CLI's ``main(argv)`` with an argv that would otherwise
#: start work (``shmls-compile`` keeps no cache and takes no cache flags).
CLIS = {
    "shmls-bench": (cli.main_bench, ["--quick", "--repeats", "1"]),
    "shmls-orchestrate": (cli.main_orchestrate, ["--quick", "--state-dir", "{tmp}/state"]),
    "shmls-serve": (cli.main_serve, ["--port", "0", "--state-dir", "{tmp}/state"]),
}

BAD_CACHE_FLAGS = {
    "budget-without-cache-dir": ["--cache-max-bytes", "1"],
    "negative-budget": ["--cache-max-bytes", "-1", "--cache-dir", "{tmp}/cache"],
    "removed-no-cache": ["--no-cache"],
}


class TestSharedCacheFlags:
    @pytest.mark.parametrize("flags", list(BAD_CACHE_FLAGS.values()), ids=list(BAD_CACHE_FLAGS))
    @pytest.mark.parametrize("name", list(CLIS))
    def test_bad_cache_flags_exit_2_before_any_compile(
        self, name, flags, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} started work despite {flags}")

        monkeypatch.setattr(StencilHMLSCompiler, "compile", refuse)
        monkeypatch.setattr(EvaluationHarness, "run_matrix", refuse)
        monkeypatch.setattr(CompileService, "start", refuse)
        main, argv = CLIS[name]
        with pytest.raises(SystemExit) as exc:
            main([arg.replace("{tmp}", str(tmp_path)) for arg in argv + flags])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCacheGC:
    def _fill(self, cache: CompileCache, count: int, payload_bytes: int = 2000):
        keys = []
        for index in range(count):
            key = CacheKey(module_hash=f"m{index}")
            cache.put(key, "result", "x" * payload_bytes)
            keys.append(key)
            # Distinct mtimes make LRU order deterministic on coarse clocks.
            path = cache._path(key.digest("result"))
            stamp = time.time() - (count - index) * 10
            os.utime(path, (stamp, stamp))
        return keys

    def test_disk_bytes_accounts_entries(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.disk_bytes() == 0
        self._fill(cache, 3)
        total = cache.disk_bytes()
        assert total > 0
        assert cache.stats.disk_bytes == total

    def test_gc_evicts_oldest_first_down_to_budget(self, tmp_path):
        cache = CompileCache(tmp_path)
        keys = self._fill(cache, 5)
        total = cache.disk_bytes()
        per_entry = total // 5
        evicted = cache.gc(max_bytes=3 * per_entry)
        assert evicted == 2
        assert cache.stats.evicted_entries == 2
        assert cache.stats.evicted_bytes > 0
        assert cache.stats.disk_bytes <= 3 * per_entry
        # The two oldest entries are gone from disk, the newest three remain.
        fresh = CompileCache(tmp_path)  # no memory tier
        assert fresh.get(keys[0], "result") is None
        assert fresh.get(keys[1], "result") is None
        for key in keys[2:]:
            assert fresh.get(key, "result") is not None

    def test_gc_to_zero_clears_disk(self, tmp_path):
        cache = CompileCache(tmp_path)
        self._fill(cache, 3)
        assert cache.gc(max_bytes=0) == 3
        assert cache.disk_bytes() == 0
        # The memory tier is deliberately untouched.
        assert len(cache) == 3

    def test_gc_noop_within_budget(self, tmp_path):
        cache = CompileCache(tmp_path)
        self._fill(cache, 2)
        assert cache.gc(max_bytes=10_000_000) == 0
        assert cache.stats.evicted_entries == 0

    def test_gc_rejects_negative_budget(self, tmp_path):
        cache = CompileCache(tmp_path)
        with pytest.raises(ValueError):
            cache.gc(max_bytes=-1)

    def test_disk_hit_refreshes_lru_recency(self, tmp_path):
        """Regression: gc's LRU keyed on *store*-time mtime only, so a hot
        entry read on every run was evicted before a cold never-read one
        stored later.  A disk-tier hit now refreshes the entry's mtime."""
        cache = CompileCache(tmp_path)
        keys = self._fill(cache, 2)  # keys[0] oldest on disk, keys[1] newer
        reader = CompileCache(tmp_path)  # fresh process: a disk-tier hit
        assert reader.get(keys[0], "result") is not None
        total = reader.disk_bytes()
        assert reader.gc(max_bytes=total // 2) == 1
        fresh = CompileCache(tmp_path)
        assert fresh.get(keys[0], "result") is not None  # hot entry survived
        assert fresh.get(keys[1], "result") is None      # unread one evicted

    def test_gc_memory_only_cache_is_noop(self):
        cache = CompileCache()
        cache.put(CacheKey(module_hash="m"), "result", "payload")
        assert cache.gc(max_bytes=0) == 0
