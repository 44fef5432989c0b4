"""Load generator for the compile fleet (``repro bench fleet``).

Builds on :mod:`repro.bench.serve`'s corpus and byte-identity oracle,
but measures the properties the *fleet* adds over a single daemon, and
writes ``BENCH_fleet.json``:

* **tiered latency** — a cold fleet answers every request from the O1
  tier; the client-observed tier-1 p99 is compared against the p99 of
  the *same cold flood* compiled at the requested O2 level on the same
  fleet (``no_store``) — the latency the fast tier exists to hide,
  measured under identical load and queueing.  Every tier-1 reply is
  byte-checked against the direct O1 compile, every tier-2 reply
  against the direct O2 compile.
* **tier transition** — after the background upgrades drain, the same
  corpus is replayed and every reply must come back tier 2 from the
  store, byte-identical to the direct O2 compile.
* **warm throughput** — duplicated shuffled corpus against the warm
  fleet (store-served) vs the same warm workload against one plain
  daemon: ``warm_speedup_vs_daemon`` is the headline the shared store
  exists for.
* **cross-shard warm hits** — a *fresh* fleet (new shards, new pass
  caches, same store directory) replays the corpus; the store-served
  fraction is the cross-shard hit rate (no shard of the new fleet ever
  compiled these keys).
* **failover** — ``no_store`` requests (forced down the shard path)
  with one shard SIGKILLed mid-run: zero wrong replies required, the
  supervisor's respawn observed in the stats.
* **shard scaling** — ``no_store`` cold throughput at 1/2/4 shards,
  reported honestly (on a single-core host this shows flat scaling;
  the fleet's warm win comes from the store, not from parallelism).

Correctness is a hard gate: any byte-mismatched reply exits 1.  The
performance gates (``--min-warm-speedup``, ``--min-hit-rate``,
``--max-tier1-p99-frac``) are opt-in flags, mirroring ``bench serve``'s
``--min-speedup`` idiom, so CI chooses its own thresholds.
"""

from __future__ import annotations

import json
import os
import queue
import random
import sys
import tempfile
import threading
import time
from typing import Optional

from repro.bench.serve import _percentile, build_corpus, fuzz_cfg_source
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload

#: The heavy level tiered requests ask for (the paper's full pipeline).
_O2_LEVEL = "distribution"


def _oracle(corpus: list[dict], level: str) -> tuple[list[str], float]:
    """Direct in-process compiles of ``corpus`` at ``level``: expected
    bytes plus mean seconds per request."""
    outputs = []
    started = time.perf_counter()
    for request in corpus:
        module = compile_payload(request["kind"], request["text"], level,
                                 request["verify"])
        outputs.append(print_module(module))
    return outputs, (time.perf_counter() - started) / len(corpus)


def _drive(
    socket_path: str,
    work: list[tuple[dict, dict]],
    clients: int,
    *,
    on_progress=None,
) -> tuple[float, dict, int]:
    """Send ``(request, expected_by_tier)`` jobs from ``clients`` threads.

    ``expected_by_tier`` maps an acceptable reply tier to its expected
    bytes; a reply with any other tier, or the wrong bytes for its
    tier, counts as wrong.  Returns (wall seconds, per-tier latency
    lists, wrong count).
    """
    from repro.service.client import DaemonClient

    jobs: "queue.Queue" = queue.Queue()
    for item in work:
        jobs.put(item)
    latencies: dict = {}
    wrong = [0]
    done = [0]
    lock = threading.Lock()

    def client_loop() -> None:
        client = DaemonClient(socket_path, timeout=120.0, connect_retries=8)
        try:
            while True:
                try:
                    request, expected_by_tier = jobs.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                try:
                    reply = client.compile(
                        request["kind"], request["text"], request["level"],
                        request["verify"],
                        no_store=request.get("no_store", False),
                        tenant=request.get("tenant", "default"),
                        priority=request.get("priority", "interactive"),
                    )
                except Exception:  # noqa: BLE001 — an error reply is a wrong reply here
                    with lock:
                        wrong[0] += 1
                        done[0] += 1
                    continue
                elapsed = time.perf_counter() - t0
                # a plain daemon's reply carries no tier: it compiled
                # the requested level, which is tier 2 by definition
                tier = reply.get("tier", 2)
                with lock:
                    latencies.setdefault(tier, []).append(elapsed)
                    if reply.get("ir") != expected_by_tier.get(tier):
                        wrong[0] += 1
                    done[0] += 1
                    if on_progress is not None:
                        on_progress(done[0])
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, daemon=True)
        for _ in range(max(1, clients))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, latencies, wrong[0]


def _drain_upgrades(socket_path: str, timeout: float = 120.0) -> dict:
    """Poll gateway stats until no background upgrade is pending."""
    from repro.service.client import DaemonClient

    deadline = time.monotonic() + timeout
    with DaemonClient(socket_path, connect_retries=8) as client:
        while True:
            counters = client.stats()["gateway"]["counters"]
            pending = (
                counters["upgrades_started"]
                - counters["upgrades_done"]
                - counters["upgrades_failed"]
            )
            if pending <= 0:
                return counters
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{pending} upgrades still pending after {timeout}s"
                )
            time.sleep(0.05)


def _fleet_config(tmp: str, tag: str, shards: int, store_dir: str, **kw):
    from repro.service.fleet import FleetConfig

    return FleetConfig(
        socket_path=os.path.join(tmp, f"{tag}.sock"),
        shards=shards,
        runtime_dir=os.path.join(tmp, f"{tag}-run"),
        store_dir=store_dir,
        cache_dir=os.path.join(tmp, f"{tag}-cache"),
        # quotas are not under test here; keep them out of the way
        quota_rate=100_000.0,
        quota_burst=200_000.0,
        request_timeout=120.0,
        **kw,
    )


def _fuzz_corpus(count: int, base: int, level: str) -> list[dict]:
    rng = random.Random(0xF1EE7 + base)
    return [
        {
            "kind": "ir",
            "text": fuzz_cfg_source(base + index, 2 + index % 5, rng),
            "level": level,
            "verify": "final",
            "no_store": True,
        }
        for index in range(count)
    ]


def main(
    *,
    quick: bool = False,
    clients: int = 4,
    shards: int = 4,
    duplicates: Optional[int] = None,
    json_out: str = "BENCH_fleet.json",
    min_warm_speedup: Optional[float] = None,
    min_hit_rate: Optional[float] = None,
    max_tier1_p99_frac: Optional[float] = None,
    scaling: Optional[bool] = None,
) -> int:
    from repro.service.client import DaemonClient
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.fleet import FleetHandle

    duplicates = duplicates if duplicates else (2 if quick else 3)
    scaling = (not quick) if scaling is None else scaling

    corpus = [dict(request, level=_O2_LEVEL) for request in build_corpus(quick)]
    print(f"corpus: {len(corpus)} requests, all at level {_O2_LEVEL!r}",
          file=sys.stderr)
    expected_o2, direct_o2_s = _oracle(corpus, _O2_LEVEL)
    expected_o1, direct_o1_s = _oracle(corpus, "none")
    print(
        f"direct in-process: O2 {direct_o2_s * 1e3:.2f} ms/request, "
        f"O1 {direct_o1_s * 1e3:.2f} ms/request",
        file=sys.stderr,
    )

    tmp = tempfile.mkdtemp(prefix="repro-fleet-bench-")
    store_dir = os.path.join(tmp, "store")
    report: dict = {
        "corpus": {"requests": len(corpus), "level": _O2_LEVEL, "quick": quick},
        "config": {"shards": shards, "clients": clients,
                   "duplicates": duplicates},
        "direct": {
            "o2_ms_per_request": round(direct_o2_s * 1e3, 3),
            "o1_ms_per_request": round(direct_o1_s * 1e3, 3),
        },
    }
    wrong_total = 0
    failures: list[str] = []

    # -- fleet A: O2-under-load baseline -> tiered cold -> drain -> transition
    # -> warm --------------------------------------------------------------------
    with FleetHandle(_fleet_config(tmp, "fleetA", shards, store_dir)) as fleet:
        sock = fleet.config.socket_path

        # the latency tiering exists to hide: the same cold flood
        # compiled at the requested O2 level (no_store keeps the store
        # cold for the tiered pass that follows)
        o2_work = [
            (dict(request, no_store=True), {2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        _, o2_lat, o2_wrong = _drive(sock, o2_work, clients)
        wrong_total += o2_wrong
        o2_loaded = o2_lat.get(2, [])
        o2_loaded_p99_s = _percentile(o2_loaded, 0.99)
        report["o2_under_load"] = {
            "requests": len(o2_work),
            "p50_ms": round(_percentile(o2_loaded, 0.5) * 1e3, 3),
            "p99_ms": round(o2_loaded_p99_s * 1e3, 3),
            "wrong": o2_wrong,
        }
        print(
            f"O2 under load: p99 {o2_loaded_p99_s * 1e3:.2f} ms "
            f"({clients} clients, {shards} shards, no tiering)",
            file=sys.stderr,
        )

        cold_work = [
            (request, {1: expected_o1[index], 2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        cold_seconds, cold_lat, cold_wrong = _drive(sock, cold_work, clients)
        wrong_total += cold_wrong
        tier1 = cold_lat.get(1, [])
        tier1_p99_s = _percentile(tier1, 0.99) if tier1 else 0.0
        report["tiered_cold"] = {
            "requests": len(cold_work),
            "seconds": round(cold_seconds, 4),
            "tier1_replies": len(tier1),
            "tier2_replies": len(cold_lat.get(2, [])),
            "tier1_p50_ms": round(_percentile(tier1, 0.5) * 1e3, 3) if tier1 else None,
            "tier1_p99_ms": round(tier1_p99_s * 1e3, 3) if tier1 else None,
            "tier1_p99_vs_o2_under_load": (
                round(tier1_p99_s / o2_loaded_p99_s, 3) if tier1 else None
            ),
            "wrong": cold_wrong,
        }
        print(
            f"tiered cold: {len(tier1)}/{len(cold_work)} tier-1 first "
            f"answers, p99 {tier1_p99_s * 1e3:.2f} ms "
            f"({tier1_p99_s / o2_loaded_p99_s:.2f}x the O2-under-load p99)",
            file=sys.stderr,
        )

        counters = _drain_upgrades(sock)
        report["upgrades"] = {
            "started": counters["upgrades_started"],
            "done": counters["upgrades_done"],
            "failed": counters["upgrades_failed"],
        }

        transition_work = [
            (request, {2: expected_o2[index]})
            for index, request in enumerate(corpus)
        ]
        _, trans_lat, trans_wrong = _drive(sock, transition_work, clients)
        wrong_total += trans_wrong
        transitions = len(trans_lat.get(2, []))
        report["tier_transition"] = {
            "requests": len(transition_work),
            "tier2_replies": transitions,
            "wrong": trans_wrong,
        }
        if transitions != len(transition_work):
            failures.append(
                f"tier transition incomplete: {transitions}/"
                f"{len(transition_work)} replies at tier 2"
            )
        print(
            f"tier transition: {transitions}/{len(transition_work)} replies "
            f"upgraded to tier 2, wrong {trans_wrong}",
            file=sys.stderr,
        )

        rng = random.Random(1)
        warm_work = transition_work * duplicates
        rng.shuffle(warm_work)
        warm_seconds, warm_lat, warm_wrong = _drive(sock, warm_work, clients)
        wrong_total += warm_wrong
        fleet_rps = len(warm_work) / warm_seconds
        warm_samples = [s for lat in warm_lat.values() for s in lat]
        report["warm_fleet"] = {
            "requests": len(warm_work),
            "seconds": round(warm_seconds, 4),
            "throughput_rps": round(fleet_rps, 2),
            "p50_ms": round(_percentile(warm_samples, 0.5) * 1e3, 3),
            "p99_ms": round(_percentile(warm_samples, 0.99) * 1e3, 3),
            "wrong": warm_wrong,
        }

        with DaemonClient(sock, connect_retries=8) as client:
            fleet_stats = client.stats()
        report["fleet_stats"] = {
            "gateway_counters": fleet_stats["gateway"]["counters"],
            "store": fleet_stats["gateway"]["store"],
            "latency_by_tier": fleet_stats["gateway"].get(
                "latency_by", {}).get("tier", {}),
            "merged_shards": fleet_stats["merged"],
        }

    # -- single-daemon warm baseline ---------------------------------------------
    daemon_config = DaemonConfig(
        socket_path=os.path.join(tmp, "daemon.sock"),
        workers=1,
        cache_dir=os.path.join(tmp, "daemon-cache"),
        request_timeout=120.0,
        max_pending=4096,
    )
    daemon = CompileDaemon(daemon_config)
    daemon.start()
    try:
        _drive(daemon_config.socket_path, transition_work, clients)  # warm it
        daemon_seconds, _, daemon_wrong = _drive(
            daemon_config.socket_path, warm_work, clients
        )
        wrong_total += daemon_wrong
    finally:
        daemon.stop()
    daemon_rps = len(warm_work) / daemon_seconds
    warm_speedup = fleet_rps / daemon_rps
    report["warm_daemon_baseline"] = {
        "requests": len(warm_work),
        "seconds": round(daemon_seconds, 4),
        "throughput_rps": round(daemon_rps, 2),
        "wrong": daemon_wrong,
    }
    report["warm_speedup_vs_daemon"] = round(warm_speedup, 2)
    print(
        f"warm: fleet {fleet_rps:.0f} req/s vs single daemon "
        f"{daemon_rps:.0f} req/s — {warm_speedup:.1f}x",
        file=sys.stderr,
    )

    # -- fleet B: cross-shard warm hits (fresh shards, same store) ---------------
    with FleetHandle(_fleet_config(tmp, "fleetB", 2, store_dir)) as fleet:
        _, cross_lat, cross_wrong = _drive(
            fleet.config.socket_path, transition_work, clients
        )
        wrong_total += cross_wrong
        with DaemonClient(fleet.config.socket_path, connect_retries=8) as client:
            counters = client.stats()["gateway"]["counters"]
    hit_rate = (
        counters["replies_store"] / counters["requests_total"]
        if counters["requests_total"] else 0.0
    )
    report["cross_shard"] = {
        "requests": counters["requests_total"],
        "store_replies": counters["replies_store"],
        "hit_rate": round(hit_rate, 4),
        "tier2_replies": len(cross_lat.get(2, [])),
        "wrong": cross_wrong,
    }
    print(
        f"cross-shard: {counters['replies_store']}/"
        f"{counters['requests_total']} served from the shared store "
        f"(hit rate {hit_rate:.2%})",
        file=sys.stderr,
    )

    # -- fleet C: shard-kill failover (no_store, forced shard path) --------------
    failover_corpus = _fuzz_corpus(12 if quick else 32, 1000, "baseline")
    failover_expected, _ = _oracle(failover_corpus, "baseline")
    failover_work = [
        (request, {2: failover_expected[index]})
        for index, request in enumerate(failover_corpus)
    ] * 2
    with FleetHandle(_fleet_config(tmp, "fleetC", 2, os.path.join(
            tmp, "storeC"))) as fleet:
        killed = threading.Event()

        def _killer(done_count: int) -> None:
            # SIGKILL one shard a third of the way through the run
            if not killed.is_set() and done_count >= len(failover_work) // 3:
                killed.set()
                fleet.kill_shard(0)

        failover_seconds, _, failover_wrong = _drive(
            fleet.config.socket_path, failover_work, clients,
            on_progress=_killer,
        )
        wrong_total += failover_wrong
        time.sleep(1.0)  # let the supervisor respawn before reading stats
        with DaemonClient(fleet.config.socket_path, connect_retries=8) as client:
            stats = client.stats()
        gw_counters = stats["gateway"]["counters"]
        alive = [s["alive"] for s in stats["gateway"]["topology"]["shards"]]
    report["failover"] = {
        "requests": len(failover_work),
        "seconds": round(failover_seconds, 4),
        "shard_killed": killed.is_set(),
        "shard_failovers": gw_counters["shard_failovers"],
        "shard_restarts": gw_counters["shard_restarts"],
        "shards_alive_after": alive,
        "wrong": failover_wrong,
    }
    if not killed.is_set():
        failures.append("failover drill never killed a shard")
    if not gw_counters["shard_restarts"]:
        failures.append("supervisor recorded no shard restart")
    print(
        f"failover: killed shard-0 mid-run, {failover_wrong} wrong replies, "
        f"{gw_counters['shard_failovers']} failovers, "
        f"{gw_counters['shard_restarts']} restarts, alive after: {alive}",
        file=sys.stderr,
    )

    # -- shard scaling (cold, no_store: the honest parallelism picture) ---------
    if scaling:
        scale_corpus = _fuzz_corpus(24, 2000, "baseline")
        scale_expected, _ = _oracle(scale_corpus, "baseline")
        scale_work = [
            (request, {2: scale_expected[index]})
            for index, request in enumerate(scale_corpus)
        ]
        rows = []
        for count in (1, 2, 4):
            with FleetHandle(_fleet_config(
                    tmp, f"scale{count}", count,
                    os.path.join(tmp, f"store-scale{count}"))) as fleet:
                seconds, _, scale_wrong = _drive(
                    fleet.config.socket_path, scale_work, clients
                )
            wrong_total += scale_wrong
            rows.append({
                "shards": count,
                "seconds": round(seconds, 4),
                "throughput_rps": round(len(scale_work) / seconds, 2),
                "wrong": scale_wrong,
            })
            print(
                f"scaling: {count} shard(s) -> "
                f"{len(scale_work) / seconds:.1f} req/s cold no_store",
                file=sys.stderr,
            )
        report["shard_scaling"] = {
            "note": "cold no_store compiles; scales with physical cores "
                    f"(this host has {os.cpu_count()})",
            "cpus": os.cpu_count(),
            "rows": rows,
        }

    report["wrong_replies"] = wrong_total
    with open(json_out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {json_out}", file=sys.stderr)

    # -- gates -------------------------------------------------------------------
    if wrong_total:
        failures.append(f"{wrong_total} wrong replies")
    tier1_frac = report["tiered_cold"]["tier1_p99_vs_o2_under_load"]
    if max_tier1_p99_frac is not None and (
            tier1_frac is None or tier1_frac > max_tier1_p99_frac):
        failures.append(
            f"tier-1 p99 is {tier1_frac}x the O2-under-load p99 "
            f"(gate {max_tier1_p99_frac}x)"
        )
    if min_warm_speedup is not None and warm_speedup < min_warm_speedup:
        failures.append(
            f"warm speedup {warm_speedup:.2f}x below gate {min_warm_speedup}x"
        )
    if min_hit_rate is not None and hit_rate < min_hit_rate:
        failures.append(
            f"cross-shard hit rate {hit_rate:.2%} below gate "
            f"{min_hit_rate:.0%}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
