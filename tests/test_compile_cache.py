"""Tests for the content-addressed compile cache and cache-aware harness."""

import gc
import inspect
import threading
from dataclasses import replace

import pytest

from repro.core.compile_cache import CacheKey, CompileCache, _ensure_pickle_recursion_floor
from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import BenchmarkCase, EvaluationHarness
from repro.evaluation.report import results_to_json
from repro.ir.hashing import module_hash
from repro.ir.pass_registry import canonical_pipeline_spec
from repro.kernels.grids import PW_ADVECTION_SIZES
from repro.kernels.pw_advection import build_pw_advection


@pytest.fixture()
def module():
    return build_pw_advection(PW_ADVECTION_SIZES["8M"].shape)


#: One pinned Stencil-HMLS case: one slot, one ``result`` entry.
HMLS_8M = [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "Stencil-HMLS")]


def _report(results) -> str:
    return results_to_json(results, deterministic=True)


class TestCacheKey:
    def test_digest_depends_on_every_component(self):
        base = CacheKey("m", "p", "e")
        assert base.digest("s") == CacheKey("m", "p", "e").digest("s")
        for variation in (
            CacheKey("m2", "p", "e"),
            CacheKey("m", "p2", "e"),
            CacheKey("m", "p", "e2"),
        ):
            assert variation.digest("s") != base.digest("s")
        assert base.digest("other-stage") != base.digest("s")

    def test_pipeline_options_never_collide(self):
        """Regression: `stencil-to-hls{pack=0}` vs `{pack=1}` must produce
        distinct cache keys — the full canonicalised pipeline spec including
        pass options participates in the key."""
        harness = EvaluationHarness(repeats=1)
        packed, unpacked = (
            harness.result_key(replace(
                HMLS_8M[0],
                variant=f"canonicalize,convert-stencil-to-hls{{pack={pack}}},convert-hls-to-llvm",
            ))
            for pack in (1, 0)
        )
        assert packed.pipeline != unpacked.pipeline
        assert packed.digest("result") != unpacked.digest("result")

    def test_pack_variants_cached_separately(self, tmp_path):
        """End to end: evaluating both pack variants through one cache must
        yield two distinct results, not one spurious hit."""
        variants = [
            f"canonicalize,convert-stencil-to-hls{{pack={pack}}},convert-hls-to-llvm"
            for pack in (1, 0)
        ]
        cache = CompileCache(tmp_path)
        harness = EvaluationHarness(repeats=1, cache=cache)
        results = harness.run_matrix(
            cases=[replace(HMLS_8M[0], variant=variant) for variant in variants]
        )
        assert cache.stats.hits["result"] == 0
        assert cache.stats.stores["result"] == 2
        assert [result.variant for result in results] == variants

    def test_alias_spelling_shares_one_entry(self, tmp_path):
        """A request names a raw pipeline by its canonical spec, so two
        spellings of one pipeline address one result."""
        from repro.service.spec import parse_request

        spellings = (
            "canonicalize,convert-stencil-to-hls,convert-hls-to-llvm",
            "canonicalize,stencil-to-hls,hls-to-llvm",
        )
        assert canonical_pipeline_spec(spellings[0]) == canonical_pipeline_spec(spellings[1])
        cache = CompileCache(tmp_path)
        harness = EvaluationHarness(repeats=1, cache=cache)
        for spec in spellings:
            request = parse_request({"kernel": "pw_advection", "size": "8M", "variant": spec})
            harness.run_matrix(cases=request.cases())
        assert cache.stats.stores["result"] == 1
        assert cache.stats.hits["result"] == 1


class TestCompilerCache:
    """The compiler caches nothing; whole results carry the cache's
    guarantees (disk tier, one entry per case, corrupt entries miss)."""

    def test_disk_tier_survives_new_cache_instance(self, tmp_path):
        baseline = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path)).run_matrix(
            cases=HMLS_8M
        )
        fresh_cache = CompileCache(tmp_path)  # models a fresh process
        hit = EvaluationHarness(repeats=1, cache=fresh_cache).run_matrix(cases=HMLS_8M)
        assert fresh_cache.stats.total_misses == 0
        assert fresh_cache.stats.hits["result"] == 1
        assert [r.as_dict() for r in hit] == [r.as_dict() for r in baseline]

    def test_cache_stores_only_whole_pipeline_stages(self, tmp_path):
        """Two ablation variants sharing their first six passes store one
        result entry each, and the second runs its whole pipeline: nothing
        is stored or resumed per pass or per compiler stage."""
        cache = CompileCache(tmp_path)
        harness = EvaluationHarness(repeats=1, cache=cache)
        staged, ablated = harness.run_matrix(cases=[
            replace(HMLS_8M[0], variant="staged"),
            replace(HMLS_8M[0], variant="single-bundle-staged"),
        ])
        assert dict(cache.stats.stores) == {"result": 2}
        assert len(ablated.pass_statistics) == len(staged.pass_statistics) == 8

    #: A pickle naming a global that no longer exists, like the attribute
    #: references the retired shared intern table wrote.
    STALE_GLOBAL = b"crepro.ir.interning\nresolve_shared\n(S'0123'\ntR."

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        baseline = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path)).run_matrix(
            cases=HMLS_8M
        )
        for payload in (b"not a pickle", self.STALE_GLOBAL):
            for entry in tmp_path.rglob("*.pkl"):
                entry.write_bytes(payload)
            fresh = CompileCache(tmp_path)
            rebuilt = EvaluationHarness(repeats=1, cache=fresh).run_matrix(cases=HMLS_8M)
            assert fresh.stats.total_hits == 0
            assert fresh.stats.errors > 0
            assert fresh.stats.stores["result"] == 1  # evaluated again
            assert _report(rebuilt) == _report(baseline)

    def test_entry_naming_a_deleted_class_is_a_miss(self, tmp_path):
        """Upgrade path: an entry pickled by an older tree names a class
        that no longer exists (the notifying attribute dict ops used to
        carry).  It is a counted miss, the case is evaluated again, and
        the new result overwrites the entry with one that loads."""
        stale = b"crepro.ir.core\n_AttributeDict\n)\x81."
        harness = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
        baseline = harness.run_matrix(cases=HMLS_8M)
        digest = harness.result_key(HMLS_8M[0]).digest("result")
        entry = tmp_path / digest[:2] / f"{digest}.pkl"
        entry.write_bytes(stale)

        fresh = CompileCache(tmp_path)
        rebuilt = EvaluationHarness(repeats=1, cache=fresh).run_matrix(cases=HMLS_8M)
        assert fresh.stats.errors == 1
        assert fresh.stats.misses["result"] == 1
        assert fresh.stats.stores["result"] == 1
        assert _report(rebuilt) == _report(baseline)

        assert entry.read_bytes() != stale
        again = CompileCache(tmp_path)
        EvaluationHarness(repeats=1, cache=again).run_matrix(cases=HMLS_8M)
        assert again.stats.hits["result"] == 1
        assert again.stats.errors == 0

    def test_no_cache_means_no_stats(self, module):
        compiler = StencilHMLSCompiler()
        compiler.compile(module)
        assert "cache" not in inspect.signature(StencilHMLSCompiler).parameters
        assert not hasattr(compiler, "cache")


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
