"""Fleet fault tolerance: chaos kills, retry/backoff, straggler replacement,
work-stealing, worker log capture, the shared network cache tier across
workers, and the byte-offset event forwarder."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.evaluation.harness import BenchmarkCase, EvaluationHarness
from repro.evaluation.orchestrator import (
    EventWriter,
    RemoteLauncher,
    SubprocessLauncher,
    _EventForwarder,
    orchestrate,
    pin_cases,
    plan_matrix,
    read_events,
)
from repro.evaluation.report import merge_results, results_to_json
from repro.kernels.grids import PW_ADVECTION_SIZES


def _hmls_cases(variants: list[str]) -> list[BenchmarkCase]:
    return EvaluationHarness(repeats=1).cases_for(
        "pw_advection", ["8M"], frameworks=["Stencil-HMLS"], variants=variants
    )


def _baseline_cases() -> list[BenchmarkCase]:
    return [
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "Vitis HLS"),
        BenchmarkCase("pw_advection", PW_ADVECTION_SIZES["8M"], "DaCe"),
    ]


def _serial_report(cases: list[BenchmarkCase]) -> str:
    """What a single-process run would merge to, byte for byte."""
    results = EvaluationHarness(repeats=1).run_matrix(cases=cases)
    entries = json.loads(results_to_json(results, deterministic=True))
    return json.dumps(merge_results(entries), indent=2, sort_keys=True)


def _stage_hits(cache_stats: dict, stage: str) -> int:
    return cache_stats["stages"].get(stage, {}).get("hits", 0)


class TestChaosKillAndSteal:
    def test_sigkill_mid_shard_converges_byte_identical(self, tmp_path):
        """The acceptance criterion: SIGKILL a worker mid-sweep; with
        retry + work-stealing the merged report must come out byte-identical
        to a serial run, with zero recompiles of already-manifested cases —
        asserted on the real cache counters, not on log text."""
        cases = _hmls_cases(["staged", "ii-2", "depth-8", "depth-64"])
        plan = plan_matrix(cases, shards=2)
        victim = max(plan.shards, key=lambda s: len(s.cases)).index
        assert len(plan.shards[victim - 1].cases) >= 2  # the kill is mid-shard
        events_path = tmp_path / "events.jsonl"
        code, merged = orchestrate(
            plan,
            state_dir=tmp_path / "state",
            launcher=SubprocessLauncher(),
            cache_dir=str(tmp_path / "cache"),
            events=EventWriter(events_path),
            output=tmp_path / "merged.json",
            max_retries=2,
            retry_backoff=0.0,
            chaos_kill_shard=victim,
            chaos_kill_after=1,
        )
        assert code == 0
        events = read_events(events_path)
        kinds = [e["event"] for e in events]
        assert "chaos_kill" in kinds          # the worker really died …
        assert "shard_failed" in kinds        # … the fleet noticed …
        assert "shard_requeued" in kinds      # … and re-queued the remainder.
        assert (tmp_path / "merged.json").read_text() == _serial_report(cases)

        # Zero recompiles: every planned case finished exactly once across
        # the whole fleet (victim + survivors + replacements) …
        digests = [e["digest"] for e in events if e["event"] == "case_finished"]
        assert len(digests) == len(set(digests)) == len(pin_cases(cases))
        # … and no worker ever re-served a finished case from the result
        # cache (the shared cache started cold, so any result hit would
        # mean a manifested case was re-attempted).
        stats = [
            e["cache_stats"] for e in events if e["event"] == "shard_finished"
        ]
        assert stats
        assert all(_stage_hits(s, "result") == 0 for s in stats)
        # The stolen work ran on replacement shards (index above the
        # planned two).
        assert any(
            e["event"] == "shard_finished" and e["shard"] > 2 for e in events
        )

    def test_crash_after_full_manifest_is_recovered(self, tmp_path):
        """A worker killed *after* manifesting its last case (e.g. before it
        reports the shard finished) loses nothing: the manifest is the
        merge source, so the sweep still exits 0 with a full report."""
        cases = _baseline_cases()
        plan = plan_matrix(cases, shards=2)
        code, merged = orchestrate(
            plan,
            state_dir=tmp_path / "state",
            launcher=SubprocessLauncher(),
            events=EventWriter(tmp_path / "events.jsonl"),
            output=tmp_path / "merged.json",
            retry_backoff=0.0,
            chaos_kill_shard=1,
            chaos_kill_after=len(plan.shards[0].cases),
        )
        assert code == 0
        assert (tmp_path / "merged.json").read_text() == _serial_report(cases)
        events = read_events(tmp_path / "events.jsonl")
        assert not [e for e in events if e["event"] == "shard_requeued"]

    def test_victim_manifested_case_is_a_result_hit_in_a_fresh_state_dir(self, tmp_path):
        """A result reaches the cache before its case is manifested, so the
        case a SIGKILLed worker manifested is served from the cache by a
        sweep in a fresh state directory, not evaluated again."""
        cases = _baseline_cases()
        cache_dir = str(tmp_path / "cache")
        events_path = tmp_path / "events.jsonl"
        code, _ = orchestrate(
            plan_matrix(cases, shards=1),
            state_dir=tmp_path / "state",
            launcher=SubprocessLauncher(),
            cache_dir=cache_dir,
            events=EventWriter(events_path),
            retry_backoff=0.0,
            chaos_kill_shard=1,
            chaos_kill_after=1,
        )
        assert code == 0
        events = read_events(events_path)
        assert "chaos_kill" in [e["event"] for e in events]
        victim = {
            e["digest"] for e in events if e["event"] == "case_finished" and e["shard"] == 1
        }
        assert len(victim) == 1

        rerun_path = tmp_path / "rerun.jsonl"
        code, _ = orchestrate(
            plan_matrix(cases, shards=1),
            state_dir=tmp_path / "fresh-state",
            launcher="local",
            cache_dir=cache_dir,
            events=EventWriter(rerun_path),
        )
        assert code == 0
        served = {
            e["digest"]
            for e in read_events(rerun_path)
            if e["event"] == "case_finished" and e["cached"]
        }
        assert victim <= served


class _SleepyLauncher(SubprocessLauncher):
    """First attempt of the victim shard hangs forever (a straggler)."""

    def __init__(self, victim_shard: int) -> None:
        super().__init__()
        self.victim_shard = victim_shard
        self.hung_once = False

    def command_for(self, spec_path: Path, host: str | None) -> list[str]:
        spec = json.loads(Path(spec_path).read_text())
        if spec["shard"] == self.victim_shard and not self.hung_once:
            self.hung_once = True
            return [sys.executable, "-c", "import time; time.sleep(600)"]
        return super().command_for(spec_path, host)


class TestStragglerReplacement:
    def test_stalled_worker_is_killed_and_its_work_stolen(self, tmp_path):
        cases = _baseline_cases()
        plan = plan_matrix(cases, shards=2)
        events_path = tmp_path / "events.jsonl"
        code, merged = orchestrate(
            plan,
            state_dir=tmp_path / "state",
            launcher=_SleepyLauncher(victim_shard=1),
            events=EventWriter(events_path),
            output=tmp_path / "merged.json",
            straggler_timeout=2.0,
            retry_backoff=0.0,
        )
        assert code == 0
        events = read_events(events_path)
        stragglers = [e for e in events if e["event"] == "shard_straggler"]
        assert stragglers and stragglers[0]["shard"] == 1
        failed = [e for e in events if e["event"] == "shard_failed"]
        assert failed and failed[0]["cause"] == "straggler"
        requeued = [e for e in events if e["event"] == "shard_requeued"]
        assert requeued and requeued[0]["from_shard"] == 1
        assert (tmp_path / "merged.json").read_text() == _serial_report(cases)


class _ExplodingLauncher(SubprocessLauncher):
    """Workers that leave a distinctive log line and die, every attempt."""

    def command_for(self, spec_path: Path, host: str | None) -> list[str]:
        return [
            sys.executable, "-c",
            "print('BoomMarker: injected worker crash'); raise SystemExit(7)",
        ]


class TestWorkerLogCapture:
    def test_crash_leaves_log_and_failure_quotes_its_tail(self, tmp_path, capsys):
        state = tmp_path / "state"
        plan = plan_matrix(_baseline_cases()[:1], shards=1)
        code, merged = orchestrate(
            plan,
            state_dir=state,
            launcher=_ExplodingLauncher(),
            max_retries=1,
            retry_backoff=0.0,
        )
        assert code == 1
        assert merged == []
        err = capsys.readouterr().err
        assert "failed with exit code 7" in err
        assert "BoomMarker: injected worker crash" in err  # quoted log tail
        logs = list(state.glob("shard*.log"))
        assert logs and any("BoomMarker" in p.read_text() for p in logs)


class TestRemoteLauncher:
    def test_default_template_renders_ssh_argv(self, tmp_path):
        launcher = RemoteLauncher(["node-a"], python="python3")
        command = launcher.command_for(tmp_path / "shard1.json", "node-a")
        assert command[:4] == ["ssh", "node-a", "--", "python3"]
        assert command[4:] == [
            "-m", "repro.evaluation.orchestrator",
            "--run-shard", str(tmp_path / "shard1.json"),
        ]

    def test_template_with_embedded_argv_token_is_quoted(self, tmp_path):
        launcher = RemoteLauncher(
            ["node-a"],
            template="ssh {host} bash -lc 'cd /mnt/repro && {argv}'",
            python="python3",
        )
        command = launcher.command_for(tmp_path / "s.json", "node-a")
        assert command[:2] == ["ssh", "node-a"]
        assert command[-1].startswith("cd /mnt/repro && python3 -m")

    def test_hosts_are_picked_least_busy_first(self):
        launcher = RemoteLauncher(["a", "b"])
        first, second = launcher.pick_host(), launcher.pick_host()
        assert {first, second} == {"a", "b"}
        launcher.release_host(first)
        assert launcher.pick_host() == first  # the freed host wins
        assert launcher.capacity() == 2

    def test_empty_host_list_is_rejected(self):
        with pytest.raises(ValueError):
            RemoteLauncher([])


class TestSharedCacheTierAcrossWorkers:
    def test_second_sweep_is_served_from_the_remote_tier(self, tmp_path):
        """Two sweeps in fresh state dirs sharing only ``remote_cache_dir``:
        the second fleet's workers (fresh processes, no local cache) must
        serve every result from the network tier."""
        cases = _baseline_cases()
        remote = str(tmp_path / "netcache")
        orchestrate(
            plan_matrix(cases, shards=2),
            state_dir=tmp_path / "state1",
            launcher=SubprocessLauncher(),
            remote_cache_dir=remote,
        )
        events_path = tmp_path / "events2.jsonl"
        code, merged = orchestrate(
            plan_matrix(cases, shards=2),
            state_dir=tmp_path / "state2",
            launcher=SubprocessLauncher(),
            remote_cache_dir=remote,
            events=EventWriter(events_path),
            output=tmp_path / "merged.json",
        )
        assert code == 0
        assert (tmp_path / "merged.json").read_text() == _serial_report(cases)
        stats = [
            e["cache_stats"]
            for e in read_events(events_path)
            if e["event"] == "shard_finished"
        ]
        assert stats
        assert sum(_stage_hits(s, "result") for s in stats) == len(pin_cases(cases))
        assert sum(s["remote_hits"] for s in stats) > 0
        assert all(s["remote_stores"] == 0 for s in stats)  # nothing recomputed


class TestEventForwarderByteOffsets:
    def test_multibyte_names_do_not_desync_the_tail(self, tmp_path):
        """Regression: the forwarder seeked byte offsets but advanced them
        by ``len(line)`` in *characters*; the first non-ASCII kernel or
        variant name desynced the tail and corrupted every later event."""
        shard_file = tmp_path / "events-shard1.jsonl"
        sink_path = tmp_path / "sink.jsonl"
        forwarder = _EventForwarder([shard_file], EventWriter(sink_path))
        writer = EventWriter(shard_file)
        label = "pw_advección/8M/Sténcil-HMLS@dépth-8"
        writer.emit("case_finished", label=label, index=1)
        assert forwarder.poll() == 1
        writer.emit("shard_finished", shard=1, completed=1)
        assert forwarder.poll() == 1  # char-counted offsets re-read junk here
        got = read_events(sink_path)
        assert [e["event"] for e in got] == ["case_finished", "shard_finished"]
        assert got[0]["label"] == label

    def test_partial_line_is_deferred_not_dropped(self, tmp_path):
        shard_file = tmp_path / "events-shard1.jsonl"
        sink_path = tmp_path / "sink.jsonl"
        forwarder = _EventForwarder([shard_file], EventWriter(sink_path))
        with shard_file.open("w", encoding="utf-8") as handle:
            handle.write('{"event": "case_finished", "label": "ü')
        assert forwarder.poll() == 0  # incomplete write: wait, do not guess
        with shard_file.open("a", encoding="utf-8") as handle:
            handle.write('ber"}\n')
        assert forwarder.poll() == 1
        assert read_events(sink_path)[0]["label"] == "über"
