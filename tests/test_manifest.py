"""The resumability manifest: one record format and one set of files,
read alike by the orchestrator's planner, its final merge, ``--fresh``
and the compile service."""

import json
import sys
import threading

from repro.evaluation.harness import BenchmarkCase, EvaluationHarness
from repro.evaluation.manifest import (
    Manifest,
    load_manifest,
    manifest_files,
    manifest_path,
)
from repro.evaluation.orchestrator import (
    LocalLauncher,
    main as orchestrator_main,
    orchestrate,
    plan_matrix,
)
from repro.kernels.grids import PW_ADVECTION_SIZES
from repro.service import ServiceClient, ServiceThread

#: The service request for exactly the cases of :func:`_baseline_cases`.
BASELINE_SPEC = {
    "kernel": "pw_advection",
    "size": "8M",
    "frameworks": ["DaCe", "Vitis HLS"],
    "repeats": 1,
}


def _baseline_cases() -> list[BenchmarkCase]:
    return [
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "DaCe"),
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "Vitis HLS"),
    ]


class TestOneManifestForSweepsAndService:
    def test_service_answers_a_finished_sweep_warm(self, tmp_path):
        state = tmp_path / "state"
        code, merged = orchestrate(
            plan_matrix(_baseline_cases(), shards=2),
            state_dir=state,
            launcher=LocalLauncher(),
        )
        assert code == 0
        assert [path.name for path in manifest_files(state)] == [
            "manifest-shard1.jsonl", "manifest-shard2.jsonl",
        ]
        with ServiceThread(state_dir=state) as server:
            out = ServiceClient("127.0.0.1", server.port).compile(BASELINE_SPEC)
            assert out["accepted"]["warm"] is True
            assert server.service.stats.dispatched == 0
            assert [e["source"] for e in out["events"]] == ["manifest", "manifest"]
            assert out["complete"]["results"] == merged

    def test_sweep_resumes_cases_the_service_finished(self, tmp_path):
        state = tmp_path / "state"
        with ServiceThread(state_dir=state) as server:
            ServiceClient("127.0.0.1", server.port).compile(BASELINE_SPEC)
        assert [path.name for path in manifest_files(state)] == [
            "manifest-service.jsonl",
        ]
        plan = plan_matrix(_baseline_cases(), shards=2, completed=load_manifest(state))
        assert [case for case, _ in plan.resumed] == _baseline_cases()
        assert plan.planned_cases == 0

    def test_fresh_discards_every_manifest_the_loader_reads(self, tmp_path, capsys):
        state = tmp_path / "state"
        case = _baseline_cases()[0]
        key = EvaluationHarness(repeats=1).result_key(case)
        for writer in ("shard1", "service"):
            Manifest(manifest_path(state, writer)).record(key, case, {"status": "ok"})
        assert len(manifest_files(state)) == 2

        code = orchestrator_main(
            ["--fresh", "--dry-run", "--no-lint", "--quick",
             "--kernels", "pw_advection", "--frameworks", "DaCe",
             "--state-dir", str(state)]
        )
        assert code == 0
        assert "1 case(s) over 2 shard(s), order=prefix, 0 resumed" in capsys.readouterr().out
        assert manifest_files(state) == []
        assert load_manifest(state) == {}

    def test_one_digest_recorded_from_many_threads_appends_one_line(self, tmp_path):
        path = manifest_path(tmp_path, "service")
        manifest = Manifest(path)
        case = _baseline_cases()[0]
        key = EvaluationHarness(repeats=1).result_key(case)
        writers = 8
        barrier = threading.Barrier(writers)

        def record() -> None:
            barrier.wait(timeout=30)
            manifest.record(key, case, {"status": "ok"})

        threads = [threading.Thread(target=record) for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and len(manifest) == 1
        assert json.loads(lines[0])["digest"] == key.digest("result")
