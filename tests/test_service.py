"""Compile-service tests: protocol, scheduling, faults, cache bounds.

The daemon tests run a real :class:`~repro.service.daemon.CompileDaemon`
on a Unix socket with forked workers — small corpora keep them fast.
The concurrent-PassCache regression tests (atomic write-rename under
simultaneous writers) live here alongside the crash-injection and dedup
tests, per the service hardening work.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.suite import suite_routines
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload
from repro.pm.cache import PassCache, cache_key
from repro.pm.manager import PassManager
from repro.service import protocol
from repro.service.client import DaemonClient, DaemonError, compile_with_fallback
from repro.service.daemon import CompileDaemon, DaemonConfig
from repro.service.faults import (
    FaultInjected,
    OverloadedError,
    RetryPolicy,
    maybe_trigger,
    validate_fault,
)
from repro.service.metrics import LatencyHistogram, Metrics
from repro.service.scheduler import Scheduler
from repro.service.workers import WorkerConfig, WorkerPool
from tests.helpers import start_server

SOURCE = """
routine triple(x: int) -> int
  return 3 * x
end
"""

SOURCE2 = """
routine quad(x: int) -> int
  return 4 * x + x * 0
end
"""


def direct(kind, text, level="distribution", verify="final"):
    return print_module(compile_payload(kind, text, level, verify))


# -- protocol ------------------------------------------------------------------


def test_protocol_roundtrip():
    message = {"id": 7, "op": "compile", "source": SOURCE, "level": "partial"}
    assert protocol.decode(protocol.encode(message).strip()) == message


def test_validate_compile_normalizes_wire_shape():
    request = protocol.validate_compile({"op": "compile", "source": SOURCE})
    assert request["kind"] == "source"
    assert request["level"] == "distribution"
    assert request["verify"] == "final"
    request = protocol.validate_compile({"op": "compile", "ir": "x", "level": "none"})
    assert request["kind"] == "ir"


@pytest.mark.parametrize(
    "message",
    [
        {"op": "compile"},
        {"op": "compile", "source": ""},
        {"op": "compile", "source": "x", "level": "turbo"},
        {"op": "compile", "source": "x", "verify": "sometimes"},
        {"op": "compile", "kind": "wasm", "text": "x"},
        {"op": "compile", "source": "x", "fault": "crash"},
    ],
)
def test_validate_compile_rejects(message):
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_compile(message)


def test_request_key_ignores_fault_but_not_level():
    key = protocol.request_key("source", SOURCE, "partial", "final")
    assert key == protocol.request_key("source", SOURCE, "partial", "final")
    assert key != protocol.request_key("source", SOURCE, "baseline", "final")
    assert key != protocol.request_key("ir", SOURCE, "partial", "final")


# -- faults + metrics ----------------------------------------------------------


def test_retry_policy_backoff_caps():
    policy = RetryPolicy(max_attempts=5, backoff=0.1, backoff_cap=0.3)
    assert policy.ceiling(1) == pytest.approx(0.1)
    assert policy.ceiling(2) == pytest.approx(0.2)
    assert policy.ceiling(4) == pytest.approx(0.3)
    # full jitter: each delay is drawn from [0, ceiling]
    for attempt in (1, 2, 4):
        for _ in range(20):
            assert 0.0 <= policy.delay(attempt) <= policy.ceiling(attempt)
    pinned = RetryPolicy(max_attempts=5, backoff=0.1, backoff_cap=0.3,
                         jitter=False)
    assert pinned.delay(2) == pytest.approx(0.2)
    assert pinned.delay(4) == pytest.approx(0.3)


def test_fault_validation_and_triggering():
    fault = validate_fault({"kind": "error", "attempts": 2})
    with pytest.raises(FaultInjected):
        maybe_trigger(fault, 0)
    maybe_trigger(fault, 2)  # past its attempt budget: a no-op
    maybe_trigger(None, 0)
    with pytest.raises(ValueError):
        validate_fault({"kind": "meteor"})


def test_latency_histogram_percentiles():
    hist = LatencyHistogram()
    for ms in range(1, 101):
        hist.observe(ms / 1e3)
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["p50_ms"] == pytest.approx(50, abs=2)
    assert snap["p99_ms"] == pytest.approx(99, abs=2)
    assert snap["max_ms"] == pytest.approx(100, abs=1)


def test_metrics_snapshot_schema():
    metrics = Metrics()
    metrics.inc("requests_total", 3)
    snap = metrics.snapshot()
    assert snap["counters"]["requests_total"] == 3
    assert set(snap) >= {"uptime_seconds", "counters", "latency", "cache", "passes"}


# -- PassCache bounds (satellite) ----------------------------------------------


def _fill(cache, tag):
    cache.store(f"input {tag}", "fp", f"optimized {tag}")
    return cache_key(f"input {tag}", "fp")


def test_cache_lru_eviction_by_access_order(tmp_path):
    cache = PassCache(str(tmp_path), max_entries=2)
    old = time.time() - 1000
    key_a = _fill(cache, "a")
    os.utime(cache._path(key_a), (old, old))
    key_b = _fill(cache, "b")
    os.utime(cache._path(key_b), (old + 100, old + 100))
    key_c = _fill(cache, "c")  # store triggers the prune
    assert not os.path.exists(cache._path(key_a))
    assert os.path.exists(cache._path(key_b))
    assert os.path.exists(cache._path(key_c))
    assert cache.evictions == 1


def test_cache_lookup_refreshes_recency(tmp_path):
    cache = PassCache(str(tmp_path), max_entries=2)
    old = time.time() - 1000
    key_a = _fill(cache, "a")
    key_b = _fill(cache, "b")
    for key, stamp in ((key_a, old), (key_b, old + 100)):
        os.utime(cache._path(key), (stamp, stamp))
    # a disk hit from a *fresh* cache touches the file, making A newest
    assert PassCache(str(tmp_path)).lookup("input a", "fp") == "optimized a"
    _fill(cache, "c")
    assert os.path.exists(cache._path(key_a))
    assert not os.path.exists(cache._path(key_b))


def test_cache_byte_cap_and_stats(tmp_path):
    payload = "x" * 1000
    cache = PassCache(str(tmp_path), max_bytes=2500)
    for index in range(4):
        cache.store(f"in{index}", "fp", payload)
        time.sleep(0.01)
    stats = cache.disk_stats()
    assert stats["entries"] == 2
    assert stats["bytes"] <= 2500
    cache.clear()
    assert cache.disk_stats()["entries"] == 0


def test_cache_memory_tier_is_bounded():
    cache = PassCache(max_entries=2)
    for tag in "abcd":
        cache.store(f"input {tag}", "fp", f"optimized {tag}")
    assert len(cache) == 2
    assert cache.lookup("input d", "fp") == "optimized d"
    assert cache.lookup("input a", "fp") is None


def _hammer_cache(args):
    directory, tag, rounds = args
    cache = PassCache(directory)
    for index in range(rounds):
        cache.store("shared input", "fp", "the one true output")
        cache.store(f"input {tag} {index}", "fp", f"optimized {tag} {index}")
        got = cache.lookup("shared input", "fp")
        if got != "the one true output":
            return f"torn read: {got!r}"
    return None


def test_cache_concurrent_writers_do_not_corrupt(tmp_path):
    """Two workers compiling the same module: atomic write-rename holds."""
    with ProcessPoolExecutor(max_workers=4) as pool:
        failures = [
            failure
            for failure in pool.map(
                _hammer_cache, [(str(tmp_path), tag, 25) for tag in "abcd"]
            )
            if failure
        ]
    assert failures == []
    fresh = PassCache(str(tmp_path))
    assert fresh.lookup("shared input", "fp") == "the one true output"
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


# -- scheduler (no socket) -----------------------------------------------------


@pytest.fixture()
def scheduler():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool,
        Metrics(),
        max_pending=8,
        request_timeout=5.0,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    sched.start()
    yield sched
    sched.stop()


def test_scheduler_dedups_inflight_identical_requests(scheduler):
    slow = scheduler.submit(
        {
            "op": "compile",
            "source": SOURCE,
            "fault": {"kind": "hang", "seconds": 0.3},
        }
    )
    twin = scheduler.submit({"op": "compile", "source": SOURCE})
    first, second = slow.result(10), twin.result(10)
    assert first["ok"] and second["ok"]
    assert first["ir"] == second["ir"] == direct("source", SOURCE)
    assert second["deduped"] and not first["deduped"]
    assert scheduler.metrics.counter("dedup_hits").value == 1
    # the compile ran once: one scheduled job, two replies
    assert scheduler.metrics.counter("replies_ok").value == 1


def test_scheduler_batches_jobs_queued_behind_a_busy_worker(scheduler):
    busy = scheduler.submit(
        {"op": "compile", "source": SOURCE,
         "fault": {"kind": "hang", "seconds": 0.3}}
    )
    time.sleep(0.1)  # the idle worker took the first job at once
    queued = [
        scheduler.submit({"op": "compile", "source": SOURCE, "level": level})
        for level in ("baseline", "partial", "reassociation")
    ]
    for future in [busy, *queued]:
        assert future.result(15)["ok"]
    batches = scheduler.metrics.counter("batches").value
    batched = scheduler.metrics.counter("batched_jobs").value
    assert batched == 4
    assert batched > batches


def test_scheduler_compiles_each_key_once_under_contention(scheduler):
    """Store lookup, dedup and completion race from many threads; a key
    is always either in flight or stored, so nothing compiles twice."""
    keys = [(text, level) for text in (SOURCE, SOURCE2)
            for level in ("none", "baseline", "partial", "reassociation")]
    expected = {key: direct("source", *key) for key in keys}
    wrong: list = []

    def hammer(offset):
        for index in range(40):
            text, level = keys[(offset + index) % len(keys)]
            future = scheduler.submit(
                {"op": "compile", "source": text, "level": level}
            )
            if future.result(30)["ir"] != expected[text, level]:
                wrong.append((text, level))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    metrics = scheduler.metrics
    assert metrics.counter("batched_jobs").value == len(keys)
    assert metrics.counter("replies_ok").value == (
        metrics.counter("requests_total").value
        - metrics.counter("dedup_hits").value
    )


def test_scheduler_sheds_load_when_full():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(pool, Metrics(), max_pending=1, request_timeout=5.0)
    sched.start()
    try:
        hung = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "hang", "seconds": 0.5},
            }
        )
        with pytest.raises(OverloadedError):
            sched.submit({"op": "compile", "source": SOURCE2})
        assert sched.metrics.counter("overloaded").value == 1
        assert hung.result(10)["ok"]
    finally:
        sched.stop()


def test_scheduler_times_out_wedged_requests():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool,
        Metrics(),
        request_timeout=0.6,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    sched.start()
    try:
        wedged = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "hang", "seconds": 30, "attempts": 5},
            }
        )
        reply = wedged.result(15)
        assert not reply["ok"]
        assert reply["error"]["kind"] == "timeout"
        assert sched.metrics.counter("timeouts").value >= 1
        # the shard healed: a fresh worker answers the next request
        again = sched.submit({"op": "compile", "source": SOURCE2})
        assert again.result(15)["ir"] == direct("source", SOURCE2)
    finally:
        sched.stop()


def test_scheduler_exhausts_retries_into_structured_error():
    pool = WorkerPool(1, WorkerConfig(cache_dir=None))
    sched = Scheduler(
        pool, Metrics(), request_timeout=20.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    sched.start()
    try:
        doomed = sched.submit(
            {
                "op": "compile",
                "source": SOURCE,
                "fault": {"kind": "crash", "attempts": 99},
            }
        )
        reply = doomed.result(30)
        assert not reply["ok"]
        assert reply["error"]["kind"] == "worker-crash"
        assert sched.metrics.counter("worker_crashes").value >= 2
    finally:
        sched.stop()


# -- daemon end to end ---------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    config = DaemonConfig(
        socket_path=str(tmp_path / "d.sock"),
        workers=2,
        cache_dir=str(tmp_path / "cache"),
        request_timeout=30.0,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    instance = CompileDaemon(config)
    instance.start()
    yield instance
    instance.stop()


def test_daemon_replies_byte_identical_to_direct_compiles(daemon):
    corpus = [
        ("source", routine.source, level)
        for routine in suite_routines()[:3]
        for level in ("baseline", "distribution")
    ]
    with DaemonClient(daemon.config.socket_path) as client:
        # pipelined sends force batching; replies may arrive out of order
        rids = [
            client.send(protocol.compile_request(kind, text, level))
            for kind, text, level in corpus
        ]
        for rid, (kind, text, level) in zip(rids, corpus):
            reply = client.wait(rid)
            assert reply["ok"], reply
            assert reply["ir"] == direct(kind, text, level)
        # a repeat is answered from the daemon's reply store, byte-identical
        repeat = client.compile(*corpus[0])
        assert repeat["ir"] == direct(*corpus[0])
        assert repeat["served_from"] == "store"
        assert repeat["attempts"] == 0
        stats = client.stats()
    assert stats["counters"]["replies_ok"] == len(corpus) + 1
    assert stats["counters"]["store_hits"] == 1
    assert stats["counters"]["store_misses"] == len(corpus)
    assert stats["scheduler"]["workers"] == 2


def test_daemon_survives_injected_worker_crash(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        reply = client.compile(
            "source", SOURCE, "partial", fault={"kind": "crash", "attempts": 1}
        )
        assert reply["ir"] == direct("source", SOURCE, "partial")
        assert reply["attempts"] == 2
        stats = client.stats()
    assert stats["counters"]["worker_crashes"] == 1
    assert stats["counters"]["retries"] == 1
    assert stats["counters"]["replies_error"] == 0


def test_fault_requests_skip_the_store(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        clean = client.compile("source", SOURCE, "partial")
        assert clean.get("served_from") is None
        # a stored twin must not swallow the crash injection
        crashed = client.compile(
            "source", SOURCE, "partial", fault={"kind": "crash", "attempts": 1}
        )
        assert crashed["ir"] == clean["ir"] == direct("source", SOURCE, "partial")
        assert crashed["attempts"] == 2
        assert crashed.get("served_from") is None
        stats = client.stats()
    assert stats["counters"]["worker_crashes"] == 1
    assert stats["counters"]["store_hits"] == 0


def test_no_store_requests_reach_a_worker(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        for _ in range(2):
            reply = client.compile("source", SOURCE, "partial", no_store=True)
            assert reply["ir"] == direct("source", SOURCE, "partial")
            assert reply["attempts"] == 1
            assert reply.get("served_from") is None
        stats = client.stats()
    assert stats["counters"]["batched_jobs"] == 2
    assert stats["counters"]["store_hits"] == 0
    assert stats["counters"]["store_misses"] == 0


def test_restarted_daemon_gets_pass_cache_disk_hits(tmp_path):
    def run_once():
        config = DaemonConfig(
            socket_path=str(tmp_path / "r.sock"),
            workers=1,
            cache_dir=str(tmp_path / "cache"),
        )
        instance = CompileDaemon(config)
        instance.start()
        try:
            with DaemonClient(config.socket_path) as client:
                reply = client.compile("source", SOURCE2, "distribution")
                assert reply["ir"] == direct("source", SOURCE2)
                assert reply.get("served_from") is None
                return client.stats()["cache"]
        finally:
            instance.stop()

    cold = run_once()
    assert cold["hits"] == 0 and cold["misses"] >= 1
    # the reply store is memory only; the PassCache disk tier survives
    warm = run_once()
    assert warm["hits"] >= 1 and warm["misses"] == 0


def test_daemon_structured_errors_and_ping(daemon):
    with DaemonClient(daemon.config.socket_path) as client:
        assert client.ping()
        with pytest.raises(DaemonError) as excinfo:
            client.compile("source", "routine broken(")
        assert excinfo.value.kind == "compile-error"
        with pytest.raises(DaemonError) as excinfo:
            client.compile("source", SOURCE, fault={"kind": "error"})
        assert excinfo.value.kind == "injected-error"
        reply = client.request({"op": "compile", "level": "warp-9"})
        assert reply["error"]["kind"] == "bad-request"


def test_daemon_ir_payloads_and_levels(daemon):
    ir_text = direct("source", SOURCE, "none", "final")
    with DaemonClient(daemon.config.socket_path) as client:
        reply = client.compile("ir", ir_text, "distribution")
        assert reply["ir"] == direct("ir", ir_text, "distribution")
        unoptimized = client.compile("ir", ir_text, "none")
        assert unoptimized["ir"] == ir_text


def test_daemon_shutdown_request(tmp_path):
    config = DaemonConfig(
        socket_path=str(tmp_path / "s.sock"), workers=1, cache_dir=None
    )
    instance = CompileDaemon(config)
    instance.start()
    with DaemonClient(config.socket_path) as client:
        client.shutdown()
    deadline = time.monotonic() + 10
    while instance._started and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not instance._started
    assert not os.path.exists(config.socket_path)


def test_repro_serve_exits_cleanly_after_shutdown_op(tmp_path):
    corpus = [
        (routine.source, level)
        for routine in suite_routines()[:5]
        for level in ("baseline", "partial", "reassociation", "distribution")
    ]
    for round_ in range(5):
        cwd = tmp_path / str(round_)
        cwd.mkdir()
        process, path, stderr_path = start_server(
            ["serve", "--workers", "2", "--cache-dir", "cache",
             "--no-incidents"], cwd,
        )
        try:
            with DaemonClient(path, timeout=60.0) as client:
                rids = [
                    client.send(protocol.compile_request("source", text, level))
                    for text, level in corpus
                ]
                assert all(client.wait(rid)["ok"] for rid in rids)
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        with open(stderr_path) as handle:
            assert "Traceback" not in handle.read()


def test_daemon_refuses_to_double_bind(daemon):
    with pytest.raises(RuntimeError, match="already listening"):
        CompileDaemon(
            DaemonConfig(
                socket_path=daemon.config.socket_path, workers=1, cache_dir=None
            )
        ).start()


# -- client fallback + CLI -----------------------------------------------------


def test_compile_with_fallback_goes_local_without_daemon(tmp_path):
    text, origin = compile_with_fallback(
        "source", SOURCE, "partial", socket_path=str(tmp_path / "nobody.sock")
    )
    assert origin == "local"
    assert text == direct("source", SOURCE, "partial")


def test_compile_with_fallback_uses_daemon_when_up(daemon):
    text, origin = compile_with_fallback(
        "source", SOURCE, "partial", socket_path=daemon.config.socket_path
    )
    assert origin == "daemon"
    assert text == direct("source", SOURCE, "partial")


def test_cli_compile_daemon_flag_falls_back(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    assert main(["compile", str(path), "--level", "partial"]) == 0
    plain = capsys.readouterr().out
    assert (
        main(
            [
                "compile",
                str(path),
                "--level",
                "partial",
                "--daemon",
                "--daemon-socket",
                str(tmp_path / "no.sock"),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == plain


def test_cli_compile_ir_input(tmp_path, capsys):
    from repro.cli import main

    source_path = tmp_path / "prog.f"
    source_path.write_text(SOURCE)
    assert main(["compile", str(source_path), "--level", "none"]) == 0
    ir_text = capsys.readouterr().out
    ir_path = tmp_path / "prog.iloc"
    ir_path.write_text(ir_text)
    assert main(["compile", str(ir_path), "--ir", "--level", "distribution"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == direct(
        "ir", ir_text, "distribution"
    )


def test_cli_cache_subcommand(tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    cache = PassCache(cache_dir)
    for tag in "ab":
        cache.store(f"input {tag}", "fp", f"optimized {tag}")
    assert main(["cache", "stats", "--dir", cache_dir]) == 0
    assert "2 entries" in capsys.readouterr().out
    assert main(["cache", "prune", "--dir", cache_dir, "--max-entries", "1"]) == 0
    assert "evicted 1" in capsys.readouterr().out
    assert main(["cache", "clear", "--dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", cache_dir]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cli_keyboard_interrupt_is_clean(monkeypatch, capsys):
    from repro import cli

    def boom(options):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_passes", boom)
    assert cli.main(["passes"]) == 130
    assert "interrupted" in capsys.readouterr().err


# -- parallel executor shutdown (satellite) ------------------------------------


def test_parallel_interrupt_propagates_and_aborts(monkeypatch):
    from repro.frontend import compile_program
    from repro.pm.parallel import run_module_parallel

    module = compile_program(SOURCE + SOURCE2)
    manager = PassManager("baseline")

    def interrupted(func, stats, collector):
        raise KeyboardInterrupt

    monkeypatch.setattr(manager, "_run_passes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_module_parallel(manager, module, jobs=2, executor="thread")


def test_abort_pool_terminates_process_children():
    from repro.pm.parallel import abort_pool

    pool = ProcessPoolExecutor(max_workers=2)
    pool.submit(time.sleep, 60)
    pool.submit(time.sleep, 60)
    deadline = time.monotonic() + 10
    while len(pool._processes) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    children = list(pool._processes.values())
    abort_pool(pool)
    deadline = time.monotonic() + 10
    while any(p.is_alive() for p in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(p.is_alive() for p in children)


# -- bench serve building blocks -----------------------------------------------


def test_bench_corpus_fuzz_cfgs_compile_identically(daemon):
    from repro.bench.serve import build_corpus

    corpus = [entry for entry in build_corpus(quick=True) if entry["kind"] == "ir"]
    assert len(corpus) >= 3
    entry = corpus[0]
    with DaemonClient(daemon.config.socket_path) as client:
        reply = client.compile(
            entry["kind"], entry["text"], entry["level"], entry["verify"]
        )
    assert reply["ir"] == direct(
        entry["kind"], entry["text"], entry["level"], entry["verify"]
    )


def test_bench_corpus_is_deterministic():
    from repro.bench.serve import build_corpus

    first, second = build_corpus(quick=True), build_corpus(quick=True)
    assert first == second
