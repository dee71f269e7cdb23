"""repro.telemetry.profiling: the phase profiler and memory accounting.

Covers the PR 10 observability contract: table/collapsed invariants,
the kill-switch and allocation-free off-path, engine/CLI/service
activation, cone-cache counters, cache byte estimates, and the
telemetry overhead envelope on the acceptance fault-sim workload.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from repro.api import AnalysisEngine, ProtestConfig
from repro.circuits.library import build
from repro.cli import main as cli_main
from repro.errors import ServiceError
from repro.faults.simulator import FaultSimulator
from repro.kernel.compiled import compiled_artifacts
from repro.logicsim.patterns import PatternSet
from repro.logicsim.simulator import simulate
from repro.service import ArtifactCache, JobManager
from repro.telemetry.metrics import set_enabled
from repro.telemetry.profiling import (
    PhaseProfiler,
    active_profiler,
    peak_rss_bytes,
    phase_if_active,
)
from repro.telemetry.tracing import clear_spans


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    set_enabled(True)
    clear_spans()
    yield
    set_enabled(True)
    clear_spans()


# -- the profiler itself -----------------------------------------------------


class TestPhaseProfiler:
    def test_nested_phases_and_self_time(self):
        profiler = PhaseProfiler()
        with profiler.activate():
            started = profiler.push("outer")
            profiler.add("child_a", 0.5)
            profiler.add("child_b", 0.25, count=3)
            profiler.pop(started, duration=1.0)
        rows = {row["path"]: row for row in profiler.table()}
        assert rows["outer;child_a"]["self_s"] == pytest.approx(0.5)
        assert rows["outer;child_b"]["calls"] == 3
        outer = rows["outer"]
        assert outer["cum_s"] == pytest.approx(1.0)
        assert outer["self_s"] == pytest.approx(0.25)

    def test_self_times_sum_to_root_cumulative(self):
        profiler = PhaseProfiler()
        with profiler.activate():
            started = profiler.push("a")
            profiler.add("b", 0.2)
            profiler.pop(started, duration=0.4)
            profiler.add("c", 0.1)
            profiler.add_many({
                ("kernel", "level0", "nand"): [0.05, 7],
                ("kernel", "level0", "xor"): [0.03, 2],
            })
        rows = profiler.table()
        self_total = sum(row["self_s"] for row in rows)
        root_total = sum(row["cum_s"] for row in rows if row["depth"] == 0)
        assert self_total == pytest.approx(root_total)

    def test_add_many_tuple_paths_synthesize_parents(self):
        profiler = PhaseProfiler()
        profiler.add_many({
            ("kernel", "level0", "nand"): [0.2, 4],
            ("kernel", "level0", "and"): [0.1, 2],
        })
        rows = {row["path"]: row for row in profiler.table()}
        # The intermediate nodes were never pushed, yet they roll up
        # their children so the table nests correctly.
        assert rows["kernel"]["cum_s"] == pytest.approx(0.3)
        assert rows["kernel"]["calls"] == 0
        assert rows["kernel;level0"]["cum_s"] == pytest.approx(0.3)
        assert rows["kernel"]["self_s"] == pytest.approx(0.0)

    def test_collapsed_stack_lines(self):
        profiler = PhaseProfiler()
        with profiler.activate():
            with profiler.phase("a"):
                profiler.add("b", 0.002)
        lines = profiler.collapsed()
        assert "a;b 2000" in lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path and int(value) > 0

    def test_payload_is_json_ready(self):
        profiler = PhaseProfiler()
        with profiler.activate():
            profiler.add("stage", 0.01)
            profiler.record_memory("peak_rss_bytes.stage", 12345)
        payload = json.loads(json.dumps(profiler.to_payload()))
        assert payload["activations"] == 1
        assert payload["wall_s"] > 0
        assert payload["memory"]["peak_rss_bytes.stage"] == 12345
        assert payload["memory"]["peak_rss_bytes"] > 0
        assert payload["phases"][0]["phase"] == "stage"

    def test_threads_keep_separate_stacks(self):
        import threading

        profiler = PhaseProfiler()

        def worker():
            with profiler.phase("worker_phase"):
                profiler.add("inner", 0.01)

        with profiler.activate():
            with profiler.phase("main_phase"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        paths = {row["path"] for row in profiler.table()}
        # The worker's phases do not nest under the main thread's stack.
        assert "worker_phase;inner" in paths
        assert "main_phase;worker_phase;inner" not in paths


class TestActivation:
    def test_kill_switch_makes_activation_a_noop(self):
        set_enabled(False)
        profiler = PhaseProfiler()
        with profiler.activate():
            assert active_profiler() is None
            with phase_if_active("ignored"):
                pass
        payload = profiler.to_payload()
        assert payload["activations"] == 0
        assert payload["wall_s"] == 0.0
        assert payload["phases"] == []

    def test_reentrant_activation_counts_once(self):
        profiler = PhaseProfiler()
        with profiler.activate():
            with profiler.activate():
                assert active_profiler() is profiler
        assert profiler.to_payload()["activations"] == 1

    def test_off_path_is_allocation_free(self):
        assert active_profiler() is None
        probe = active_profiler  # hoisted, as instrumented code does
        for _ in range(64):
            probe()  # warm any lazy state
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            probe()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        # Any per-call allocation would show as ~hundreds of KB over
        # 10k calls; a constant few bytes is loop scaffolding.
        assert after - before < 512


# -- engine / CLI integration ------------------------------------------------


class TestEngineProfile:
    def test_analyze_profile_self_times_within_wall(self):
        engine = AnalysisEngine(build("c432"), "paper", profile=True)
        engine.analyze()
        payload = engine.profile_report()
        assert payload["phases"]
        # The acceptance invariant: per-stage self times account for
        # the activation wall clock (within 10%).
        assert 0 < payload["self_total_s"] <= payload["wall_s"] * 1.10
        paths = {row["path"] for row in payload["phases"]}
        assert any(path.startswith("engine.") for path in paths)

    def test_profile_records_estimator_and_memory(self):
        engine = AnalysisEngine(build("c17"), "paper", profile=True)
        engine.analyze()
        payload = engine.profile_report()
        paths = {row["path"] for row in payload["phases"]}
        assert "engine.signal;estimator.influence" in paths
        assert "engine.testlen" in paths
        assert any("estimator.cone_schedule" in path for path in paths)
        memory = payload["memory"]
        assert memory["peak_rss_bytes"] > 0
        assert memory["peak_rss_bytes.signal"] > 0
        assert "cone_cache" in memory

    @pytest.mark.parametrize("name", ["c7552", "div"])
    def test_signal_stage_time_is_attributed(self, name):
        """Per-gate select/condition phases (plus influence, cone and
        setup phases) explain >= 90% of the signal stage."""
        engine = AnalysisEngine(build(name), "paper", profile=True)
        engine.raw_signal_probabilities()
        rows = {row["path"]: row for row in engine.profile_report()["phases"]}
        assert "engine.signal;estimator.select" in rows
        assert "engine.signal;estimator.condition" in rows
        signal = rows["engine.signal"]
        assert signal["self_s"] < 0.10 * signal["cum_s"]

    def test_unprofiled_engine_has_no_profiler(self):
        engine = AnalysisEngine(build("c17"), "paper")
        engine.analyze()
        assert engine.profiler is None

    def test_cli_profile_flag_writes_payload(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        assert cli_main(["analyze", "c17", "--profile", str(out)]) == 0
        assert "profile written to" in capsys.readouterr().err
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["phases"]
        assert 0 < payload["self_total_s"] <= payload["wall_s"] * 1.10
        paths = {row["path"] for row in payload["phases"]}
        # The CLI root phase wraps the engine stages.
        assert any(path.startswith("cli.analyze;") for path in paths)

    def test_cli_fsim_profile_has_kernel_detail(self, tmp_path):
        out = tmp_path / "prof.json"
        assert cli_main([
            "fsim", "c17", "--count", "32", "--backend", "python",
            "--profile", str(out),
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        paths = {row["path"] for row in payload["phases"]}
        assert any("backend.fault_sim_words;python" in path
                   for path in paths)
        assert any(";kernel;" in path for path in paths)


# -- cone-cache counters -----------------------------------------------------


class TestConeCacheCounters:
    def test_single_fault_path_counts_hits_and_misses(self):
        circuit = build("c432")
        simulator = FaultSimulator(circuit)
        patterns = PatternSet.random(circuit.inputs, 32, seed=3)
        good = simulate(circuit, patterns)
        for fault in simulator.faults[:8]:
            simulator.detection_word(fault, good, patterns.mask)
        artifact = simulator._compiled
        assert artifact in compiled_artifacts(circuit)
        first = artifact.cache_info()
        assert first["misses"] > 0
        assert first["resident_elems"] > 0
        assert first["budget_elems"] == artifact.cone_cache_budget
        # A fresh simulator shares the compiled artifact, so its cone
        # queries hit the warm cache.
        resim = FaultSimulator(circuit)
        assert resim._compiled is artifact
        for fault in resim.faults[:8]:
            resim.detection_word(fault, good, patterns.mask)
        second = artifact.cache_info()
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]

    def test_budget_overflow_evicts(self):
        circuit = build("c432")
        simulator = FaultSimulator(circuit)
        patterns = PatternSet.random(circuit.inputs, 16, seed=4)
        good = simulate(circuit, patterns)
        artifact = simulator._compiled
        artifact.cone_cache_budget = 64  # tiny: force churn
        for fault in simulator.faults[:32]:
            simulator.detection_word(fault, good, patterns.mask)
        info = artifact.cache_info()
        assert info["evictions"] > 0
        # Each cache retains at least its newest slice, never the bulk.
        assert 1 <= info["resident_slices"] <= 4

    def test_engine_cache_info_carries_cone_section(self):
        engine = AnalysisEngine(build("c17"), "paper")
        engine.analyze()
        info = engine.cache_info()
        cone = info["cone_cache"]
        assert set(cone) >= {"hits", "misses", "evictions",
                             "resident_elems", "budget_elems"}
        assert info["peak_rss_bytes"] > 0


# -- service profile knob ----------------------------------------------------


SAMPLED = ProtestConfig(
    method="sampled", max_patterns=2048, target_halfwidth=0.01,
    fault_sample=48, name="prof-test",
)


class TestServiceProfile:
    def test_profiled_job_carries_payload_cache_hit_does_not(self):
        manager = JobManager(workers=1, cache=ArtifactCache())
        try:
            job = manager.wait(
                manager.submit(circuit="c17", config=SAMPLED,
                               profile=True).id,
                timeout=120,
            )
            assert job.state == "done"
            status = manager.status(job.id)
            profile = status["profile"]
            assert profile and profile["phases"]
            assert profile["self_total_s"] <= profile["wall_s"] * 1.10
            assert any(row["path"].startswith("engine.sampling")
                       for row in profile["phases"])
            # The summary listing stays slim.
            listed = [j for j in manager.jobs() if j["id"] == job.id]
            assert listed and "profile" not in listed[0]
            # A cache hit runs no engine, so there is nothing to profile.
            cached = manager.wait(
                manager.submit(circuit="c17", config=SAMPLED,
                               profile=True).id,
                timeout=120,
            )
            assert cached.from_cache is True
            assert manager.status(cached.id)["profile"] is None
        finally:
            manager.shutdown(wait=False)

    def test_profile_flag_is_validated(self):
        manager = JobManager(workers=1, cache=ArtifactCache())
        try:
            with pytest.raises(ServiceError):
                manager.submit(circuit="c17", config=SAMPLED, profile="yes")
        finally:
            manager.shutdown(wait=False)


# -- cache byte accounting ---------------------------------------------------


class TestCacheBytes:
    def test_byte_estimates_track_put_and_clear(self):
        cache = ArtifactCache()
        info = cache.cache_info()
        assert info["circuit_bytes"] == 0
        assert info["report_bytes"] == 0
        cache.intern_circuit(build("c17"))
        cache.put_report(("h", "c17", "analytic", ()), {"n_faults": 22})
        info = cache.cache_info()
        assert info["circuit_bytes"] > 0
        assert info["report_bytes"] > 0
        assert info["total_bytes"] == (
            info["circuit_bytes"] + info["report_bytes"]
        )
        cache.clear()
        info = cache.cache_info()
        assert info["total_bytes"] == 0

    def test_manager_stats_surface_memory(self):
        manager = JobManager(workers=1, cache=ArtifactCache())
        try:
            stats = manager.stats()
            assert stats["memory"]["peak_rss_bytes"] > 0
            assert stats["memory"]["cache_bytes"] >= 0
        finally:
            manager.shutdown(wait=False)


# -- overhead envelope -------------------------------------------------------


def test_telemetry_overhead_envelope_on_mul24_fault_sim():
    """With no profiler active and telemetry disabled, the fault-sim
    word loop must run at the same speed as with telemetry enabled —
    the PR 8 envelope (|overhead| < 2%) still holds with the profiler
    instrumentation merged (its off-path is one contextvar read)."""
    circuit = build("mul24")
    n_patterns = 64
    patterns = PatternSet.random(circuit.inputs, n_patterns, seed=7)
    simulator = FaultSimulator(circuit)
    simulator.run(patterns, block_size=n_patterns, drop_detected=False)

    def one_run():
        start = time.perf_counter()
        simulator.run(patterns, block_size=n_patterns, drop_detected=False)
        return time.perf_counter() - start

    def attempt():
        # Interleave the two states so scheduler drift hits both alike.
        enabled_s = disabled_s = float("inf")
        try:
            for _ in range(5):
                set_enabled(True)
                enabled_s = min(enabled_s, one_run())
                set_enabled(False)
                assert active_profiler() is None
                disabled_s = min(disabled_s, one_run())
        finally:
            set_enabled(True)
        return 100.0 * (enabled_s / disabled_s - 1.0)

    # Shared-runner wall clocks are noisy at this scale, so a single
    # sample cannot gate at 2%: retry a few times and keep the best.  A
    # *systematic* overhead beyond the envelope fails every attempt;
    # symmetric noise lands inside it almost immediately.
    overheads = []
    for _ in range(4):
        overheads.append(attempt())
        if abs(overheads[-1]) < 2.0:
            break
    best = min(overheads, key=abs)
    assert abs(best) < 2.0, (
        f"telemetry overhead outside the 2% envelope on every attempt: "
        f"{[f'{o:+.2f}%' for o in overheads]}"
    )


def test_peak_rss_is_positive():
    assert peak_rss_bytes() > 0
