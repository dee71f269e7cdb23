"""Resilience primitives: retry policy, job journal, chaos harness."""

from __future__ import annotations

import json
import threading
import time
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.writer import save_bench
from repro.errors import (
    CircuitError,
    InjectedFault,
    JobTimeout,
    ParseError,
    QueueFull,
    ResilienceError,
    WorkerCrashed,
)
from repro.resilience import (
    ChaosKill,
    ChaosPlan,
    ChaosRule,
    JobJournal,
    RetryPolicy,
    chaos_point,
    error_payload,
    inject,
    is_transient,
    parse_spec,
)
from repro.resilience.chaos import active_plan, install_from_env, uninstall
from repro.service.jobs import JobManager
from repro.telemetry.tracing import export_chrome_trace


# ---------------------------------------------------------------------------
# Error taxonomy / classification
# ---------------------------------------------------------------------------

def test_taxonomy_transient_flags():
    assert is_transient(WorkerCrashed("worker died"))
    assert is_transient(QueueFull("full"))
    assert is_transient(InjectedFault("flaky", transient=True))
    assert is_transient(BrokenProcessPool("pool died"))
    assert is_transient(ConnectionError("dropped"))
    assert not is_transient(ParseError("bad gate", line=2))
    assert not is_transient(JobTimeout("over budget"))
    assert not is_transient(InjectedFault("broken", transient=False))
    assert not is_transient(ValueError("plain"))


def test_error_payload_shape_and_cause():
    try:
        try:
            raise ValueError("numpy exploded")
        except ValueError as inner:
            raise WorkerCrashed("worker died running j000001") from inner
    except WorkerCrashed as error:
        payload = error_payload(error, attempts=3)
    assert payload == {
        "type": "WorkerCrashed",
        "message": "worker died running j000001",
        "transient": True,
        "attempts": 3,
        "cause": "ValueError: numpy exploded",
    }


def test_error_payload_without_cause():
    payload = error_payload(ParseError("bad gate", line=2))
    assert payload["type"] == "ParseError"
    assert payload["message"] == "line 2: bad gate"
    assert payload["transient"] is False
    assert payload["attempts"] == 1
    assert payload["cause"] is None


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ResilienceError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ResilienceError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ResilienceError):
        RetryPolicy(base_delay=2.0, max_delay=1.0)
    with pytest.raises(ResilienceError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ResilienceError):
        RetryPolicy().delay(0)


def test_retry_budget():
    policy = RetryPolicy(max_attempts=3)
    crash = WorkerCrashed("boom")
    assert policy.should_retry(crash, attempts=1)
    assert policy.should_retry(crash, attempts=2)
    assert not policy.should_retry(crash, attempts=3)
    # Permanent errors never retry, whatever the budget.
    assert not policy.should_retry(ParseError("bad"), attempts=1)
    # max_attempts=1 disables retries entirely.
    assert not RetryPolicy(max_attempts=1).should_retry(crash, attempts=1)


def test_retry_delay_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.1, max_delay=5.0, jitter=0.5, seed=7)
    for attempt in (1, 2, 3, 5):
        backoff = min(5.0, 0.1 * 2.0 ** (attempt - 1))
        delay = policy.delay(attempt, token="j000042")
        # Pure function of (seed, token, attempt): replayable exactly.
        assert delay == policy.delay(attempt, token="j000042")
        assert 0.5 * backoff <= delay <= 1.5 * backoff
    # Different tokens decorrelate (thundering-herd protection).
    assert policy.delay(1, token="a") != policy.delay(1, token="b")
    # jitter=0 gives the exact exponential schedule, capped.
    exact = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0)
    assert [exact.delay(a) for a in (1, 2, 3, 4, 5)] == [
        0.1, 0.2, 0.4, 0.8, 1.0
    ]


# ---------------------------------------------------------------------------
# JobJournal
# ---------------------------------------------------------------------------

def test_journal_in_memory_store():
    journal = JobJournal()
    assert journal.get("k") is None
    journal.put("k", {"version": 1, "n": 3})
    assert "k" in journal and len(journal) == 1
    assert journal.get("k") == {"version": 1, "n": 3}
    # Stored payloads are isolated copies: mutating the returned dict
    # (or the original) must not leak into the store.
    journal.get("k")["n"] = 99
    assert journal.get("k")["n"] == 3
    assert journal.discard("k") is True
    assert journal.discard("k") is False
    assert len(journal) == 0
    with pytest.raises(ResilienceError):
        journal.put("k", ["not", "a", "dict"])


def test_journal_file_roundtrip(tmp_path):
    path = tmp_path / "journal.json"
    first = JobJournal(path)
    first.put("job-a", {"version": 1, "block": 2})
    first.put("job-b", {"version": 1, "block": 5})
    first.discard("job-b")
    # Every mutation rewrote the file atomically: a fresh instance (a
    # restarted service) sees exactly the surviving entries.
    second = JobJournal(path)
    assert second.keys() == ["job-a"]
    assert second.get("job-a") == {"version": 1, "block": 2}
    # The on-disk form is plain JSON, no temp files left behind.
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "job-a": {"version": 1, "block": 2}
    }
    assert [p for p in tmp_path.iterdir()] == [path]


def test_journal_tolerates_corruption(tmp_path):
    path = tmp_path / "journal.json"
    path.write_text("{torn JSON", encoding="utf-8")
    journal = JobJournal(path)
    assert len(journal) == 0           # corrupt -> empty, never fatal
    path.write_text(json.dumps(["wrong", "shape"]), encoding="utf-8")
    assert len(JobJournal(path)) == 0
    # Non-dict values are dropped on load, valid entries survive.
    path.write_text(
        json.dumps({"good": {"v": 1}, "bad": 7}), encoding="utf-8"
    )
    assert JobJournal(path).keys() == ["good"]


def test_journal_missing_file_and_sync(tmp_path):
    path = tmp_path / "sub" / "journal.json"
    path.parent.mkdir()
    journal = JobJournal(path)      # absent file: starts empty
    assert len(journal) == 0
    journal.put("k", {"v": 1})
    journal.sync()
    assert json.loads(path.read_text(encoding="utf-8")) == {"k": {"v": 1}}


# ---------------------------------------------------------------------------
# Atomic artifact writes
# ---------------------------------------------------------------------------

def _write_trace(path):
    # The second event cannot be serialized: json.dump has already
    # streamed the first one when it raises.
    export_chrome_trace(str(path), events=[{"name": "ok"}, {"bad": object()}])


def _write_bench(path):
    builder = CircuitBuilder("lut")
    a, b = builder.inputs("a", "b")
    builder.output(builder.lut("y", 0b0110, a, b))
    save_bench(builder.build(), str(path))   # LUTs have no .bench form


def _write_journal(path):
    JobJournal(path).put("job", {"state": object()})


def _write_job_profile(path):
    manager = JobManager(workers=1, trace_dir=str(path.parent))
    try:
        job = types.SimpleNamespace(
            id="j1", state="done",
            profile_payload={"phases": [1, 2], "bad": object()},
        )
        manager._maybe_export_profile(job)
    finally:
        manager.shutdown(wait=False)


@pytest.mark.parametrize("name, write", [
    ("trace.json", _write_trace),
    ("circuit.bench", _write_bench),
    ("journal.json", _write_journal),
    ("profile-j1.json", _write_job_profile),
])
@pytest.mark.parametrize("previous", ["previous content\n", None])
def test_failed_artifact_write_keeps_previous_file(tmp_path, name, write,
                                                   previous):
    path = tmp_path / name
    if previous is not None:
        path.write_text(previous, encoding="utf-8")
    with pytest.raises((TypeError, CircuitError)):
        write(path)
    if previous is None:
        assert not path.exists()
    else:
        assert path.read_text(encoding="utf-8") == previous
    # No temp file left behind next to the destination.
    assert sorted(tmp_path.iterdir()) == ([path] if previous else [])


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    uninstall()


def test_chaos_point_is_noop_without_plan():
    chaos_point("service.worker", job="j000000")    # must not raise


def test_chaos_rule_validation():
    with pytest.raises(ResilienceError):
        ChaosRule("explode", "service.worker")


def test_chaos_fail_matches_context_and_fire_count():
    plan = ChaosPlan().fail(
        "sampling.block", block=2, message="injected", transient=True
    )
    with inject(plan):
        chaos_point("sampling.block", block=1)          # no match
        chaos_point("service.worker", block=2)          # wrong site
        with pytest.raises(InjectedFault) as exc:
            chaos_point("sampling.block", block=2)
        assert exc.value.transient is True
        assert "injected" in str(exc.value)
        chaos_point("sampling.block", block=2)          # times=1: spent
    assert plan.fired() == 1
    assert plan.fired("sampling.block") == 1
    assert plan.log == [
        {"site": "sampling.block", "action": "fail", "block": 2}
    ]


def test_chaos_kill_rips_through_except_exception():
    assert not issubclass(ChaosKill, Exception)
    plan = ChaosPlan().kill("service.checkpoint", job="j000000")
    with inject(plan):
        with pytest.raises(ChaosKill):
            try:
                chaos_point("service.checkpoint", job="j000000", block=0)
            except Exception:  # noqa: BLE001 - the guard under test
                pytest.fail("ChaosKill must not be caught by except Exception")


def test_chaos_sleep_and_unlimited_times():
    plan = ChaosPlan().sleep("cache.get", seconds=0.01, times=None)
    with inject(plan):
        start = time.perf_counter()
        chaos_point("cache.get", kind="report")
        chaos_point("cache.get", kind="report")
        assert time.perf_counter() - start >= 0.02
    assert plan.fired("cache.get") == 2


def test_chaos_custom_exception_factory():
    plan = ChaosPlan().fail("sweep.cell", exc=lambda: OSError("disk gone"))
    with inject(plan):
        with pytest.raises(OSError, match="disk gone"):
            chaos_point("sweep.cell", circuit="c17", attempt=0)


def test_inject_restores_previous_plan():
    outer = ChaosPlan()
    with inject(outer):
        with inject(ChaosPlan()):
            assert active_plan() is not outer
        assert active_plan() is outer
    assert active_plan() is None


def test_parse_spec_grammar():
    plan = parse_spec(
        "kill:service.checkpoint:job=j000000,block=1;"
        "fail:sampling.block:block=2,backend=numpy,"
        "message=injected backend failure,transient=true;"
        "sleep:cache.get:seconds=0.5,times=always"
    )
    kill, fail, sleep = plan.rules
    assert (kill.action, kill.site) == ("kill", "service.checkpoint")
    assert kill.match == {"job": "j000000", "block": 1}   # int-typed value
    assert kill.times == 1
    assert fail.match == {"block": 2, "backend": "numpy"}
    assert fail.message == "injected backend failure"
    assert fail.transient is True
    assert sleep.seconds == 0.5
    assert sleep.times is None                            # "always"


def test_parse_spec_rejects_malformed_rules():
    with pytest.raises(ResilienceError):
        parse_spec("kill")                       # no site
    with pytest.raises(ResilienceError):
        parse_spec("kill:service.worker:noequals")
    with pytest.raises(ResilienceError):
        parse_spec("explode:service.worker")     # unknown action


def test_install_from_env():
    assert install_from_env({}) is None
    assert active_plan() is None
    plan = install_from_env(
        {"PROTEST_CHAOS": "fail:sampling.block:block=1"}
    )
    assert plan is not None and active_plan() is plan
    with pytest.raises(InjectedFault):
        chaos_point("sampling.block", block=1)


def test_chaos_trigger_is_thread_safe():
    plan = ChaosPlan().fail("cache.put", times=8, kind="report")
    errors = []

    def hammer():
        for _ in range(50):
            try:
                chaos_point("cache.put", kind="report")
            except InjectedFault:
                errors.append(1)

    with inject(plan):
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    # The fire budget is enforced atomically across threads.
    assert len(errors) == 8
    assert plan.fired() == 8
