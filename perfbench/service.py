"""``service``: a closed loop of HTTP clients against ``protest serve``.

The workload spawns the real server (``python -m repro.cli serve --port
0``, default two workers) and runs ``CLIENTS`` client threads, each with
its own keep-alive connection and zero think time: a client POSTs
``/jobs``, polls ``/jobs/<id>/result`` until the job is done, and only
then sends its next request.  The request stream comes from
:class:`inputs.ServiceStream`.  ``throughput`` is jobs completed per
second.  A run sends a fixed number of requests (``REQUESTS_PER_SECOND``
per ``--seconds``), so every run of a seed does the same work.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import random
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import accuracy
import harness
import inputs
import oracles
from tracing import (
    OUT_DIR, Tracer, maybe_span, self_times, span_cost_s, write_chrome_trace,
)

#: Client threads, each with one connection (never more than the cores).
CLIENTS = min(2, os.cpu_count() or 1)
#: Poll back-off after each ``202``: 0.5, 1, 2, 4, 8, 16 ms, then 20 ms.
POLL_DELAYS_S = (0.0005, 0.001, 0.002, 0.004, 0.008, 0.016)
POLL_MAX_S = 0.02
#: Requests per run and second of ``--seconds`` (below the ~13 jobs/s
#: the service sustains on a 2-core machine, whose run-to-run spread is
#: small), and at least MIN_JOBS so the p90 latency has ten samples
#: above it.
REQUESTS_PER_SECOND = 8
MIN_JOBS = 100
#: Misses re-computed in process by the oracle.
MISS_ORACLE_SAMPLE = 6
STARTUP_TIMEOUT_S = 60.0
ROOT = pathlib.Path(__file__).resolve().parent.parent


class Server:
    """One ``protest serve`` subprocess on an ephemeral port."""

    def __init__(self, log) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
        self.port = self._read_port()
        # The server prints nothing more, but never let a full pipe block it.
        self._drain = threading.Thread(
            target=self.proc.stdout.read, daemon=True
        )
        self._drain.start()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()


def request(conn, method: str, path: str, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def run_job(conn, key: str, body: dict, tracer) -> dict:
    """Submit one job and poll it to completion; returns its record."""
    record = {"key": key, "body": body, "polls": 0, "poll_s": [],
              "status": None, "result": None}
    start = time.perf_counter()
    with maybe_span(tracer, "service.job", key=key) as root:
        record["span"] = root
        with maybe_span(tracer, "service.http.submit"):
            t0 = time.perf_counter()
            status, payload = request(conn, "POST", "/jobs", body)
            record["submit_s"] = time.perf_counter() - t0
        record["status"] = status
        if status == 201:
            record["id"] = payload["id"]
            delays = iter(POLL_DELAYS_S)
            while True:
                with maybe_span(tracer, "service.http.poll"):
                    t0 = time.perf_counter()
                    status, payload = request(
                        conn, "GET", f"/jobs/{record['id']}/result"
                    )
                    record["poll_s"].append(time.perf_counter() - t0)
                record["polls"] += 1
                if status != 202:
                    break
                time.sleep(next(delays, POLL_MAX_S))
            record["status"] = status
            if status == 200:
                record["result"] = payload["result"]
                record["from_cache"] = payload["from_cache"]
    record["latency_s"] = time.perf_counter() - start
    record["end"] = time.perf_counter()
    return record


def closed_loop(port: int, stream, seconds: float, tracer):
    """Run the clients; returns (job records by completion, seconds)."""
    records: List[dict] = []
    lock = threading.Lock()
    n_requests = min(len(stream), max(MIN_JOBS, round(REQUESTS_PER_SECOND * seconds)))
    counter = iter(range(n_requests))
    start = time.perf_counter()
    # Stops a run on a machine too slow to finish within the time limit.
    hard_deadline = start + 4 * seconds + 30

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None or time.perf_counter() >= hard_deadline:
                    return
                key, body, _fresh = stream.request(i)
                try:
                    record = run_job(conn, key, body, tracer)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    record = {"key": key, "body": body, "status": None,
                              "error": repr(error), "end": time.perf_counter()}
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r["end"])
    return records, records[-1]["end"] - start


def check_records(records: List[dict], seed: int) -> List[str]:
    """Hits equal their cold result; a seeded sample of misses equals the
    in-process ``AnalysisEngine`` result; every job completed."""
    failures = []
    cold: Dict[str, dict] = {}
    for record in records:
        if record["status"] != 200:
            failures.append(f"job {record['key']}: status {record['status']} "
                            f"{record.get('error', '')}")
            continue
        first = cold.setdefault(record["key"], record)
        if first is not record:
            problems = oracles.check_same_result(
                record["result"], first["result"], "the cold result"
            )
            if problems:
                failures.append(f"job {record['key']}: {problems[0]}")
    misses = sorted(cold)
    rng = random.Random(f"service-oracle:{seed}")
    for key in rng.sample(misses, min(MISS_ORACLE_SAMPLE, len(misses))):
        record = cold[key]
        problems = oracles.check_same_result(
            record["result"], oracles.in_process_result(record["body"]),
            "the in-process engine result",
        )
        if problems:
            failures.append(f"job {key}: {problems[0]}")
    return failures


def base_texts() -> Dict[str, str]:
    from importlib import resources

    root = resources.files("repro.circuits") / "netlists"
    return {name: (root / f"{name}.bench").read_text(encoding="utf-8")
            for name in inputs.SERVICE_BASES}


def run(seed: int, seconds: float, trace: bool):
    """Run the service workload; returns (attempted, failures, metrics)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stream = inputs.ServiceStream(seed, base_texts())
    tracer = Tracer() if trace else None
    with open(OUT_DIR / "service-server.log", "w", encoding="utf-8") as log:
        setups = []
        server: Optional[Server] = None

        def spawn() -> Server:
            before = harness.probe_s()
            start = time.perf_counter()
            spawned = Server(log)
            try:
                spawned.wait_healthy()
            except BaseException:
                spawned.stop()
                raise
            elapsed = time.perf_counter() - start
            setups.append(harness.calibrated(elapsed, before, harness.probe_s()))
            return spawned

        # Half the spawns come before the loop (the last one serves it)
        # and half after, so the median does not hang on the machine's
        # speed in a single moment.
        spawns_before = (harness.SETUP_REPEATS + 1) // 2
        try:
            for _ in range(spawns_before):
                if server is not None:
                    server.stop()
                server = spawn()
            records, elapsed = closed_loop(server.port, stream, seconds, tracer)
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            try:
                _, stats = request(conn, "GET", "/stats")
                _, listing = request(conn, "GET", "/jobs")
            finally:
                conn.close()
            for _ in range(harness.SETUP_REPEATS - spawns_before):
                server.stop()
                server = spawn()
        finally:
            if server is not None:
                server.stop()
    peak_rss = harness.peak_rss_mb(children=True)

    failures = check_records(records, seed)
    det_mae, acc_stats, problems = accuracy.evaluate(accuracy.load_references())
    failures.extend(problems)
    attempted = len(records) + len(accuracy.ACCURACY_CIRCUITS)

    done = [r for r in records if r["status"] == 200]
    if not done:
        raise RuntimeError("no service job completed")
    if not trace:
        return attempted, failures, harness.e2e_metrics({
            "setup_s": harness.median(setups),
            "peak_rss_mb": peak_rss,
            "throughput": len(done) / elapsed,
            "det_mae": det_mae,
        })
    return attempted, failures, harness.layer_metrics(
        layer_values(records, listing["jobs"], stats, tracer, seed, acc_stats)
    )


def layer_values(records, jobs, stats, tracer, seed, acc_stats) -> Dict[str, float]:
    done = [r for r in records if r["status"] == 200]
    by_id = {job["id"]: job for job in jobs}
    hits = [1000 * r["latency_s"] for r in done if r["from_cache"]]
    misses = [r for r in done if not r["from_cache"]]
    queue_ms, run_ms = [], {"analytic": [], "sampled": []}
    # Server timestamps are wall-clock; map them onto perf_counter time.
    offset = time.time() - time.perf_counter()
    for record in done:
        job = by_id[record["id"]]
        queue_ms.append(1000 * (job["started"] - job["created"]))
        tracer.add("service.jobs.queue_wait", job["created"] - offset,
                   job["started"] - offset, record["span"])
        tracer.add("service.jobs.run", job["started"] - offset,
                   job["finished"] - offset, record["span"])
        if not record["from_cache"]:
            run_ms[job["method"]].append(1000 * (job["finished"] - job["started"]))
    sampled = [r["result"]["n_patterns"] for r in misses
               if by_id[r["id"]]["method"] == "sampled"]
    cache = stats["cache"]
    lookups = cache["report_hits"] + cache["report_misses"]
    roots = [r["span"] for r in done]
    selfs = self_times(tracer.spans)
    job_s = sum(s["end"] - s["start"] for s in roots)
    overhead_s = span_cost_s() * sum(
        1 for s in tracer.spans if not s["name"].startswith("service.jobs.")
    )
    values = {
        "service.jobs": len(records),
        "service.hit_latency_p50_ms": harness.median(hits) if hits else 0.0,
        "service.miss_latency_p50_ms": harness.median(
            1000 * r["latency_s"] for r in misses) if misses else 0.0,
        "service.latency_p90_ms": harness.percentile(
            [1000 * r["latency_s"] for r in done], 0.9),
        "service.http.submit_ms": harness.median(
            1000 * r["submit_s"] for r in done),
        "service.http.poll_ms": harness.median(
            1000 * s for r in done for s in r["poll_s"]),
        "service.polls_per_job": sum(r["polls"] for r in done) / len(done),
        "service.jobs.queue_wait_ms": harness.percentile(queue_ms, 0.9),
        "service.cache.hit_ratio": cache["report_hits"] / lookups if lookups else 0.0,
        "sampling.patterns_per_job": sum(sampled) / len(sampled) if sampled else 0.0,
        "service.refused_429": sum(1 for r in records if r["status"] == 429),
        "service.failed": sum(1 for r in records if r["status"] != 200),
        "trace.unattributed_share": sum(selfs[s["id"]] for s in roots) / job_s,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / job_s,
    }
    for method, samples in run_ms.items():
        if samples:
            values[f"service.jobs.run_ms.{method}"] = harness.median(samples)
    for circuit, row in acc_stats.items():
        for stat, value in row.items():
            values[f"accuracy.{circuit}.{stat}"] = value
    write_chrome_trace(tracer.spans, OUT_DIR / f"trace-service-seed{seed}.json")
    return values
