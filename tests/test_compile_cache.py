"""Tests for the content-addressed compile cache and cache-aware harness."""

import gc
import threading

import pytest

from repro.core.compile_cache import CacheKey, CompileCache, _ensure_pickle_recursion_floor
from repro.core.config import CompilerOptions
from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import (
    PIPELINE_VARIANTS,
    STAGED_PIPELINE,
    BenchmarkCase,
    EvaluationHarness,
)
from repro.ir.hashing import module_hash
from repro.ir.pass_registry import canonical_pipeline_spec
from repro.ir.printer import print_module
from repro.kernels.grids import PW_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection


@pytest.fixture()
def module():
    return build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)


class TestCacheKey:
    def test_digest_depends_on_every_component(self):
        base = CacheKey("m", "p", "o", "e")
        assert base.digest("s") == CacheKey("m", "p", "o", "e").digest("s")
        for variation in (
            CacheKey("m2", "p", "o", "e"),
            CacheKey("m", "p2", "o", "e"),
            CacheKey("m", "p", "o2", "e"),
            CacheKey("m", "p", "o", "e2"),
        ):
            assert variation.digest("s") != base.digest("s")
        assert base.digest("other-stage") != base.digest("s")

    def test_pipeline_options_never_collide(self, module):
        """Regression: `stencil-to-hls{pack=0}` vs `{pack=1}` must produce
        distinct cache keys — the full canonicalised pipeline spec including
        pass options participates in the key."""
        packed = StencilHMLSCompiler(
            pass_pipeline="canonicalize,convert-stencil-to-hls{pack=1},convert-hls-to-llvm"
        )
        unpacked = StencilHMLSCompiler(
            pass_pipeline="canonicalize,convert-stencil-to-hls{pack=0},convert-hls-to-llvm"
        )
        key_packed = packed.cache_key(module)
        key_unpacked = unpacked.cache_key(module)
        assert key_packed.pipeline != key_unpacked.pipeline
        assert key_packed.digest("middle-end") != key_unpacked.digest("middle-end")

    def test_pack_variants_cached_separately(self, module, tmp_path):
        """End to end: compiling both pack variants through one cache must
        yield two distinct artefacts, not one spurious hit."""
        cache = CompileCache(tmp_path)
        results = {}
        for pack in (1, 0):
            compiler = StencilHMLSCompiler(
                pass_pipeline=f"canonicalize,convert-stencil-to-hls{{pack={pack}}},convert-hls-to-llvm",
                cache=cache,
            )
            results[pack] = compiler.compile(module)
        # The variants must never share middle-end or synthesis artefacts.
        assert cache.stats.hits["middle-end"] == 0
        assert cache.stats.hits["synthesis"] == 0
        assert cache.stats.misses["middle-end"] == 2
        assert results[1].design.interfaces != results[0].design.interfaces

    def test_alias_spelling_shares_one_entry(self, module, tmp_path):
        cache = CompileCache(tmp_path)
        spellings = (
            "canonicalize,convert-stencil-to-hls,convert-hls-to-llvm",
            "canonicalize,stencil-to-hls,hls-to-llvm",
        )
        assert canonical_pipeline_spec(spellings[0]) == canonical_pipeline_spec(spellings[1])
        for spec in spellings:
            StencilHMLSCompiler(pass_pipeline=spec, cache=cache).compile(module)
        assert cache.stats.hits["middle-end"] == 1

    def test_compiler_options_participate(self, module):
        default = StencilHMLSCompiler()
        wide = StencilHMLSCompiler(CompilerOptions(stream_depth=32))
        assert default.cache_key(module) != wide.cache_key(module)


class TestCompilerCache:
    def test_second_compile_hits_both_stages(self, module):
        cache = CompileCache()
        compiler = StencilHMLSCompiler(cache=cache)
        first = compiler.compile(module)
        second = compiler.compile(module)
        assert cache.stats.hits["middle-end"] == 1
        assert cache.stats.hits["synthesis"] == 1
        assert first.summary() == second.summary()
        assert print_module(first.llvm_module) == print_module(second.llvm_module)
        assert print_module(first.hls_module) == print_module(second.hls_module)

    def test_cached_statistics_are_marked(self, module):
        compiler = StencilHMLSCompiler(cache=CompileCache())
        compiler.compile(module)
        cold_stats = list(compiler.pass_statistics)
        compiler.compile(module)
        assert all(stat.note == "cached" for stat in compiler.pass_statistics)
        assert [s.name for s in compiler.pass_statistics] == [s.name for s in cold_stats]

    def test_hit_returns_independent_modules(self, module):
        """Mutating a cache-hit artefact must not corrupt later hits."""
        compiler = StencilHMLSCompiler(cache=CompileCache())
        compiler.compile(module)
        second = compiler.compile(module)
        for op in list(second.llvm_module.walk()):
            if op is not second.llvm_module:
                op.drop_all_references()
        third = compiler.compile(module)
        assert print_module(third.llvm_module) != print_module(second.llvm_module)

    def test_disk_tier_survives_new_cache_instance(self, module, tmp_path):
        warm = StencilHMLSCompiler(cache=CompileCache(tmp_path))
        baseline = warm.compile(module)
        fresh_cache = CompileCache(tmp_path)  # models a fresh process
        compiler = StencilHMLSCompiler(cache=fresh_cache)
        hit = compiler.compile(module)
        assert fresh_cache.stats.total_misses == 0
        assert fresh_cache.stats.hits["middle-end"] == 1
        assert hit.summary() == baseline.summary()
        assert print_module(hit.llvm_module) == print_module(baseline.llvm_module)

    def test_cache_stores_only_whole_pipeline_stages(self, module, tmp_path):
        """Two ablation variants sharing their first six passes store one
        middle-end and one synthesis entry each, and the second compile
        runs its whole pipeline: nothing is stored or resumed per pass."""
        cache = CompileCache(tmp_path)
        StencilHMLSCompiler(pass_pipeline=STAGED_PIPELINE, cache=cache).compile(module)
        ablated = StencilHMLSCompiler(
            pass_pipeline=PIPELINE_VARIANTS["single-bundle-staged"], cache=cache
        )
        ablated.compile(module)
        assert dict(cache.stats.stores) == {"middle-end": 2, "synthesis": 2}
        assert len(ablated.pass_statistics) == 8
        assert all(stat.note == "" for stat in ablated.pass_statistics)

    def test_middle_end_shared_across_devices(self, module):
        from repro.fpga.device import VCK5000

        cache = CompileCache()
        StencilHMLSCompiler(cache=cache).compile(module)
        other_device = StencilHMLSCompiler(device=VCK5000, cache=cache)
        other_device.compile(module)
        assert cache.stats.hits["middle-end"] == 1     # pipeline output reused
        assert cache.stats.misses["synthesis"] == 2    # designs are per-device

    #: A pickle naming a global that no longer exists, like the attribute
    #: references the retired shared intern table wrote.
    STALE_GLOBAL = b"crepro.ir.interning\nresolve_shared\n(S'0123'\ntR."

    def test_corrupt_disk_entry_is_a_miss(self, module, tmp_path):
        baseline = StencilHMLSCompiler(cache=CompileCache(tmp_path)).compile(module)
        for payload in (b"not a pickle", self.STALE_GLOBAL):
            for entry in tmp_path.rglob("*.pkl"):
                entry.write_bytes(payload)
            fresh = CompileCache(tmp_path)
            rebuilt = StencilHMLSCompiler(cache=fresh).compile(module)
            assert fresh.stats.total_hits == 0
            assert fresh.stats.errors > 0
            assert fresh.stats.stores["middle-end"] == 1  # recompiled
            assert rebuilt.summary() == baseline.summary()

    def test_entry_naming_a_deleted_class_is_a_miss(self, module, tmp_path):
        """Upgrade path: a middle-end entry pickled by an older tree names a
        class that no longer exists (the notifying attribute dict ops used
        to carry).  It is a counted miss, the compile succeeds, and the
        recompile overwrites the entry with one that loads."""
        stale = b"crepro.ir.core\n_AttributeDict\n)\x81."
        compiler = StencilHMLSCompiler(cache=CompileCache(tmp_path))
        baseline = compiler.compile(module)
        digest = compiler.cache_key(module).digest("middle-end")
        entry = tmp_path / digest[:2] / f"{digest}.pkl"
        entry.write_bytes(stale)

        fresh = CompileCache(tmp_path)
        rebuilt = StencilHMLSCompiler(cache=fresh).compile(module)
        assert fresh.stats.errors == 1
        assert fresh.stats.misses["middle-end"] == 1
        assert fresh.stats.stores["middle-end"] == 1
        assert rebuilt.summary() == baseline.summary()

        assert entry.read_bytes() != stale
        again = CompileCache(tmp_path)
        StencilHMLSCompiler(cache=again).compile(module)
        assert again.stats.hits["middle-end"] == 1
        assert again.stats.errors == 0

    def test_no_cache_means_no_stats(self, module):
        compiler = StencilHMLSCompiler()
        compiler.compile(module)
        assert compiler.cache is None


class TestHarnessResultCache:
    def test_warm_matrix_run_hits_every_case(self, tmp_path):
        cases = [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"])]
        cold = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
        cold_results = cold.run_matrix(cases=cases)
        warm = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
        warm_results = warm.run_matrix(cases=cases)
        assert warm.cache.stats.hits["result"] == len(cold_results)
        assert warm.cache.stats.misses["result"] == 0
        assert [r.as_dict() for r in warm_results] == [r.as_dict() for r in cold_results]

    def test_repeats_participate_in_result_key(self, tmp_path):
        cases = [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"])]
        EvaluationHarness(repeats=1, cache=CompileCache(tmp_path)).run_matrix(cases=cases)
        other = EvaluationHarness(repeats=2, cache=CompileCache(tmp_path))
        other.run_matrix(cases=cases)
        assert other.cache.stats.hits["result"] == 0

    def test_variants_cached_separately(self, tmp_path):
        cache = CompileCache(tmp_path)
        harness = EvaluationHarness(repeats=1, cache=cache)
        cases = harness.cases_for(
            "pw_advection", ["8M"], frameworks=["Stencil-HMLS"],
            variants=["default", "no-pack"],
        )
        results = harness.run_matrix(cases=cases)
        assert len(results) == 2
        assert cache.stats.hits["result"] == 0
        again = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
        again.run_matrix(cases=cases)
        assert again.cache.stats.hits["result"] == 2


class TestRemoteTier:
    def _key(self, name: str = "m") -> CacheKey:
        return CacheKey(module_hash=name)

    def test_write_back_publishes_to_both_tiers(self, tmp_path):
        local, remote = tmp_path / "local", tmp_path / "remote"
        cache = CompileCache(local, remote_dir=remote)
        cache.put(self._key(), "result", {"mpts": 2.0})
        assert cache.stats.remote_stores == 1
        digest = self._key().digest("result")
        assert (local / digest[:2] / f"{digest}.pkl").exists()
        assert (remote / digest[:2] / f"{digest}.pkl").exists()

    def test_remote_hit_reads_through_to_local(self, tmp_path):
        remote = tmp_path / "remote"
        publisher = CompileCache(tmp_path / "machine-a", remote_dir=remote)
        publisher.put(self._key(), "result", {"mpts": 2.0})
        consumer = CompileCache(tmp_path / "machine-b", remote_dir=remote)
        assert consumer.get(self._key(), "result") == {"mpts": 2.0}
        assert consumer.stats.remote_hits == 1
        assert consumer.stats.hits["result"] == 1
        # Read-through: the artefact now lives in machine B's local tier,
        # so a later process on B never touches the network again.
        later = CompileCache(tmp_path / "machine-b")
        assert later.get(self._key(), "result") == {"mpts": 2.0}
        assert later.stats.remote_hits == 0

    def test_remote_only_cache_round_trips(self, tmp_path):
        CompileCache(remote_dir=tmp_path).put(self._key(), "result", "artefact")
        fresh = CompileCache(remote_dir=tmp_path)
        assert fresh.get(self._key(), "result") == "artefact"
        assert fresh.stats.remote_hits == 1

    def test_local_tier_wins_without_remote_traffic(self, tmp_path):
        local, remote = tmp_path / "local", tmp_path / "remote"
        CompileCache(local, remote_dir=remote).put(self._key(), "result", 1)
        warm = CompileCache(local, remote_dir=remote)
        assert warm.get(self._key(), "result") == 1
        assert warm.stats.remote_hits == 0

    def test_unwritable_remote_degrades_gracefully(self, tmp_path):
        remote = tmp_path / "remote"
        remote.write_text("a file, not a directory")
        cache = CompileCache(tmp_path / "local", remote_dir=remote)
        cache.put(self._key(), "result", "artefact")
        assert cache.stats.remote_stores == 0
        assert cache.stats.errors > 0
        # The local store still landed; lookups that consult the broken
        # remote tier degrade to misses instead of crashing.
        fresh = CompileCache(tmp_path / "local", remote_dir=remote)
        assert fresh.get(self._key(), "result") == "artefact"
        assert fresh.get(self._key("other"), "result") is None

    def test_summary_lines_report_remote_traffic(self, tmp_path):
        publisher = CompileCache(remote_dir=tmp_path)
        publisher.put(self._key(), "result", 1)
        consumer = CompileCache(remote_dir=tmp_path)
        consumer.get(self._key(), "result")
        assert any("remote tier" in line for line in publisher.stats.summary_lines())
        assert any("remote tier" in line for line in consumer.stats.summary_lines())


class TestEntryIsolation:
    def test_every_hit_is_a_private_copy(self, tmp_path):
        key = CacheKey(module_hash="m")
        stored = {"mpts": [1.5, 2.5]}
        cache = CompileCache(tmp_path)
        cache.put(key, "result", stored)
        stored["mpts"].append(99)  # mutating the stored value after put
        first = cache.get(key, "result")
        second = cache.get(key, "result")
        assert first == second == {"mpts": [1.5, 2.5]}
        assert first is not second and first["mpts"] is not second["mpts"]
        first["mpts"].append(7)  # mutating a returned value
        assert cache.get(key, "result") == {"mpts": [1.5, 2.5]}

        fresh = CompileCache(tmp_path)  # a disk hit, as in a new process
        from_disk = fresh.get(key, "result")
        assert from_disk == {"mpts": [1.5, 2.5]}
        assert from_disk is not first and from_disk is not fresh.get(key, "result")
        assert fresh.stats.hits["result"] == 2 and fresh.stats.total_misses == 0


class TestDiskBytesCounter:
    def _key(self, name: str = "m") -> CacheKey:
        return CacheKey(module_hash=name)

    def test_first_read_scans_then_counter_tracks_writes(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(self._key("a"), "result", "x" * 100)
        scanned = cache.disk_bytes()
        assert scanned > 0
        cache.put(self._key("b"), "result", "y" * 100)
        incremental = cache.disk_bytes()
        assert incremental > scanned
        # The incremental counter must agree with a from-scratch rescan.
        assert incremental == CompileCache(tmp_path).disk_bytes()

    def test_overwrite_does_not_double_count(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(self._key(), "result", "first-value")
        before = cache.disk_bytes()
        cache.put(self._key(), "result", "first-value")  # same entry rewritten
        assert cache.disk_bytes() == before
        assert cache.disk_bytes() == CompileCache(tmp_path).disk_bytes()

    def test_gc_resyncs_counter(self, tmp_path):
        cache = CompileCache(tmp_path)
        for i in range(6):
            cache.put(self._key(f"k{i}"), "result", "z" * 400)
        cache.disk_bytes()
        cache.gc(max_bytes=600)
        assert cache.stats.evicted_entries > 0
        assert cache.disk_bytes() == CompileCache(tmp_path).disk_bytes()
        assert cache.disk_bytes() <= 600


class TestPickleRecursionFloor:
    def test_floor_is_raised_once_and_never_lowered(self):
        import sys

        _ensure_pickle_recursion_floor()
        first = sys.getrecursionlimit()
        assert first >= 100_000
        _ensure_pickle_recursion_floor()  # idempotent
        assert sys.getrecursionlimit() == first

    def test_concurrent_dumps_do_not_corrupt_recursion_limit(self, tmp_path):
        """Regression: the old implementation saved/restored the limit
        around every (de)serialisation, so two overlapping calls could
        restore a stale value mid-flight."""
        import sys

        cache = CompileCache(tmp_path)
        errors = []

        def hammer(name: str) -> None:
            try:
                key = CacheKey(module_hash=name)
                for i in range(30):
                    cache.put(key, f"s{i}", list(range(200)))
                    assert cache.get(key, f"s{i}") == list(range(200))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"t{n}",)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sys.getrecursionlimit() >= 100_000

    def test_concurrent_loads_leave_gc_enabled(self):
        """Unpickling pauses the collector, which is process-wide state:
        overlapping restores from separate caches must leave it enabled."""
        import sys

        key = CacheKey(module_hash="gc")
        caches = [CompileCache() for _ in range(8)]
        for cache in caches:
            cache.put(key, "result", [list(range(50)) for _ in range(200)])
        errors = []

        def hammer(cache: CompileCache) -> None:
            try:
                for _ in range(50):
                    assert len(cache.get(key, "result")) == 200
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(c,)) for c in caches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert gc.isenabled()


class TestModuleHashKeying:
    def test_same_kernel_same_hash(self, module):
        assert module_hash(module) == module_hash(
            build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)
        )

    def test_different_size_different_hash(self, module):
        assert module_hash(module) != module_hash(
            build_pw_advection(PW_ADVECTION_SIZES["32M"].shape)
        )
