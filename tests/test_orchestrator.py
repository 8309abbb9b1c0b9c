"""The distributed shard orchestrator: module-grouped planning, launchers,
streaming events, resumability manifest and merged-report determinism."""

from __future__ import annotations

import json

import pytest

from repro.core.compile_cache import CompileCache
from repro.evaluation.harness import (
    ABLATION_VARIANTS,
    BenchmarkCase,
    EvaluationHarness,
)
from repro.evaluation.orchestrator import (
    EXIT_INTERRUPTED,
    EventWriter,
    LocalLauncher,
    case_from_dict,
    case_to_dict,
    load_manifest,
    main as orchestrator_main,
    orchestrate,
    order_by_module,
    pin_cases,
    plan_matrix,
    read_events,
    ShardHandle,
    split_shards,
    SubprocessLauncher,
)
from repro.evaluation.report import main as report_main
from repro.evaluation.report import merge_results, results_to_json
from repro.kernels.grids import PW_ADVECTION_SIZES, ProblemSize


def _ablation_cases() -> list[BenchmarkCase]:
    return EvaluationHarness(repeats=1).cases_for(
        "pw_advection", ["8M"], frameworks=["Stencil-HMLS"],
        variants=list(ABLATION_VARIANTS),
    )


class TestCaseSerialisation:
    def test_round_trip(self):
        case = BenchmarkCase(
            "pw_advection", PW_ADVECTION_SIZES["8M"], "Stencil-HMLS", "depth-8"
        )
        assert case_from_dict(case_to_dict(case)) == case

    def test_custom_problem_size_survives(self):
        case = BenchmarkCase("pw_advection", ProblemSize("3M", (768, 64, 64)))
        restored = case_from_dict(json.loads(json.dumps(case_to_dict(case))))
        assert restored.size.shape == (768, 64, 64)
        assert restored.framework is None


class TestPrefixScheduling:
    """``order="prefix"``: cases grouped by module, cut into even
    contiguous shards."""

    def test_prefix_order_clusters_families(self):
        ordered = order_by_module(_ablation_cases())
        variants = [case.variant for case in ordered]
        # Same-pass toggles end up adjacent.
        assert abs(variants.index("depth-8") - variants.index("depth-64")) == 1
        assert abs(variants.index("ii-2") - variants.index("ii-4")) == 1
        assert abs(variants.index("width-256") - variants.index("width-1024")) == 1

    def test_two_module_sweep_cuts_at_the_module_boundary(self):
        cases = EvaluationHarness(repeats=1).cases_for(
            ["pw_advection", "tracer_advection"], ["8M"],
            frameworks=["Stencil-HMLS"], variants=list(ABLATION_VARIANTS),
        )
        for given in (cases, cases[::-1]):
            plan = plan_matrix(given, shards=2)
            assert [{case.kernel for case in shard.cases} for shard in plan.shards] == [
                {"pw_advection"}, {"tracer_advection"},
            ]

    def test_split_shards_partitions_exactly(self):
        cases = order_by_module(_ablation_cases())
        for count in (1, 2, 3, len(cases), len(cases) + 2):
            shards = split_shards(cases, count)
            assert len(shards) == count
            flattened = [case for shard in shards for case in shard]
            assert flattened == cases  # contiguous, nothing lost or reordered
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    def test_split_shards_rejects_bad_count(self):
        with pytest.raises(ValueError):
            split_shards([], 0)

    def test_split_shards_survives_tail_affinity_cliff(self):
        """Regression: with the shard count close to the case count, no
        shard may be starved empty."""
        harness = EvaluationHarness(repeats=1)
        cases = harness.cases_for(
            "pw_advection", ["8M"], frameworks=["Stencil-HMLS"],
            variants=["staged", "depth-8", "depth-64"],
        ) + harness.cases_for(
            "tracer_advection", ["8M"], frameworks=["Stencil-HMLS"]
        )
        ordered = order_by_module(cases)
        shards = split_shards(ordered, 3)
        assert [case for shard in shards for case in shard] == ordered
        assert all(shard for shard in shards)  # no shard starved empty

    def test_plan_matrix_orders(self):
        cases = _ablation_cases()
        prefix_plan = plan_matrix(cases, shards=2, order="prefix")
        case_plan = plan_matrix(cases, shards=2, order="case")
        assert prefix_plan.planned_cases == case_plan.planned_cases == len(
            ABLATION_VARIANTS
        )
        prefix_cases = [case for shard in prefix_plan.shards for case in shard.cases]
        assert prefix_cases == order_by_module(cases)
        assert case_plan.shards[0].cases == cases[0::2]
        with pytest.raises(ValueError):
            plan_matrix(_ablation_cases(), order="zigzag")

    def test_describe_names_every_case(self):
        plan = plan_matrix(_ablation_cases(), shards=2)
        text = plan.describe()
        assert "shard 2: 4 case(s)" in text
        for variant in ABLATION_VARIANTS:
            assert f"@{variant}" in text


class TestEventChannel:
    def test_writer_and_reader_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = EventWriter(path)
        events.emit("plan", shards=2)
        events.emit("case_finished", label="x", cached=False)
        records = read_events(path)
        assert [r["event"] for r in records] == ["plan", "case_finished"]
        assert records[0]["shards"] == 2

    def test_run_matrix_on_result_streams_cached_flag(self, tmp_path):
        cases = [
            BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "Vitis HLS"),
            BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "DaCe"),
        ]
        cache = CompileCache(tmp_path)
        seen: list[tuple[str, bool]] = []
        harness = EvaluationHarness(repeats=1, cache=cache)
        harness.run_matrix(
            cases=cases,
            on_result=lambda case, fw, result, cached: seen.append((fw, cached)),
        )
        assert seen == [("Vitis HLS", False), ("DaCe", False)]
        seen.clear()
        warm = EvaluationHarness(repeats=1, cache=CompileCache(tmp_path))
        warm.run_matrix(
            cases=cases,
            on_result=lambda case, fw, result, cached: seen.append((fw, cached)),
        )
        assert seen == [("Vitis HLS", True), ("DaCe", True)]

    def test_report_cli_stream_emits_jsonl(self, capsys):
        code = report_main(
            ["--quick", "--repeats", "1", "--shard", "1/2", "--stream"]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        finished = [l for l in lines if l.get("event") == "case_finished"]
        assert finished and all("label" in l for l in finished)


class TestOrchestrateEndToEnd:
    def _quick_cases(self):
        return EvaluationHarness(repeats=1).cases_for(sizes=["8M"])

    def test_merged_report_matches_single_process_run(self, tmp_path):
        plan = plan_matrix(self._quick_cases(), shards=2)
        code, merged = orchestrate(
            plan,
            state_dir=tmp_path / "state",
            launcher=LocalLauncher(),
            output=tmp_path / "merged.json",
        )
        assert code == 0
        serial = EvaluationHarness(repeats=1).run_matrix(cases=self._quick_cases())
        serial_entries = json.loads(results_to_json(serial, deterministic=True))
        expected = json.dumps(
            merge_results(serial_entries), indent=2, sort_keys=True
        )
        assert (tmp_path / "merged.json").read_text() == expected

    def test_interrupt_and_resume_recompiles_nothing(self, tmp_path):
        state = tmp_path / "state"
        cases = self._quick_cases()
        plan = plan_matrix(cases, shards=2)
        events = EventWriter(tmp_path / "events1.jsonl")
        code, _ = orchestrate(
            plan,
            state_dir=state,
            launcher=LocalLauncher(),
            max_cases_per_shard=1,
            events=events,
        )
        assert code == EXIT_INTERRUPTED
        manifest = load_manifest(state)
        assert len(manifest) == 2  # one completed case per shard

        resume_plan = plan_matrix(cases, shards=2, completed=manifest)
        assert len(resume_plan.resumed) == 2
        assert resume_plan.planned_cases == plan.planned_cases - 2

        events2 = EventWriter(tmp_path / "events2.jsonl")
        code, merged = orchestrate(
            resume_plan,
            state_dir=state,
            launcher=LocalLauncher(),
            events=events2,
            output=tmp_path / "merged.json",
        )
        assert code == 0
        finished = [
            e for e in read_events(tmp_path / "events2.jsonl")
            if e.get("event") == "case_finished"
        ]
        # Zero recompiles: every case run 1 completed stayed untouched in
        # run 2 (digests disjoint), and run 2 ran exactly the remainder.
        assert not ({e["digest"] for e in finished} & set(manifest))
        assert len(finished) == resume_plan.planned_cases
        # The merged report covers the *full* matrix despite the partial runs.
        assert len(merged) == plan.planned_cases

    def test_merged_report_excludes_other_sweeps_in_same_state_dir(self, tmp_path):
        """Regression: the merge used to include *every* manifest entry, so
        a narrower re-run against a shared state dir leaked results of the
        earlier, wider sweep into its report."""
        state = tmp_path / "state"
        wide = plan_matrix(self._quick_cases(), shards=2)
        orchestrate(wide, state_dir=state, launcher=LocalLauncher())
        narrow_cases = EvaluationHarness(repeats=1).cases_for(
            "pw_advection", ["8M"]
        )
        narrow = plan_matrix(
            narrow_cases, shards=2, completed=load_manifest(state)
        )
        code, merged = orchestrate(
            narrow, state_dir=state, launcher=LocalLauncher()
        )
        assert code == 0
        assert {entry["kernel"] for entry in merged} == {"pw_advection"}
        assert len(merged) == len(pin_cases(narrow_cases))

    def test_cli_dry_run(self, tmp_path, capsys):
        code = orchestrator_main(
            ["--dry-run", "--quick", "--shards", "2",
             "--kernels", "pw_advection", "--variants", "staged", "depth-8",
             "--state-dir", str(tmp_path / "state")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "orchestration plan" in out and "@staged" in out

    def test_subprocess_launcher_worker_round_trip(self, tmp_path):
        """The --run-shard worker entry point, driven through the real
        SubprocessLauncher (spec file → spawned process → events/manifest
        /results artefacts), on two cheap baseline cases."""
        cases = [
            BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "Vitis HLS"),
            BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "DaCe"),
        ]
        plan = plan_matrix(cases, shards=1)
        code, merged = orchestrate(
            plan,
            state_dir=tmp_path / "state",
            launcher=SubprocessLauncher(),
            output=tmp_path / "merged.json",
        )
        assert code == 0
        assert {entry["framework"] for entry in merged} == {"Vitis HLS", "DaCe"}
        events = read_events(tmp_path / "state" / "events-shard1.jsonl")
        assert [e["event"] for e in events] == [
            "shard_started", "case_finished", "case_finished", "shard_finished",
        ]
        assert len(load_manifest(tmp_path / "state")) == 2

    def test_crashed_worker_is_not_reported_as_resumable(self, tmp_path, capsys):
        """A worker that dies (vs. one stopped by --max-cases-per-shard)
        must surface as a hard failure (exit 1), not EXIT_INTERRUPTED —
        even after the retry budget replayed it."""

        class CrashingLauncher(LocalLauncher):
            def start(self, spec):
                # Died before recording anything, every attempt.
                return ShardHandle(spec=spec, code=1)

        plan = plan_matrix(
            [BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "DaCe")],
            shards=1,
        )
        code, merged = orchestrate(
            plan, state_dir=tmp_path / "state", launcher=CrashingLauncher(),
            max_retries=1, retry_backoff=0.0,
        )
        assert code == 1
        assert merged == []
        assert "failed with exit code 1" in capsys.readouterr().err


class TestManifest:
    def test_load_manifest_ignores_garbage_lines(self, tmp_path):
        path = tmp_path / "manifest-shard1.jsonl"
        good = {"digest": "d1", "result": {"kernel": "pw"}}
        path.write_text(json.dumps(good) + "\nnot json\n" + json.dumps({"no": 1}) + "\n")
        manifest = load_manifest(tmp_path)
        assert set(manifest) == {"d1"}
