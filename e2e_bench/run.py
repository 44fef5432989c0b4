"""The repository benchmark: two seeded server workloads, checked by an oracle.

    python3 e2e_bench/run.py --workload serve-daemon --seed 1 --seconds 10 --trace 0

Run from the repository root (it compiles ``src/`` as checked out).
Workloads, all at the ``distribution`` level with ``verify="final"``:

* ``serve-daemon``: ``repro serve`` (2 workers), two connections in a
  closed loop over a stream of pool repeats plus 1 in 20 never-seen
  fuzz CFGs;
* ``serve-fleet``: the same stream against ``repro fleet serve
  --no-tiering`` with quotas above capacity.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``; a traced run also compiles the
pool in process, traced, for the compiler's layers).  See README.md for
what each metric means, which end-to-end metric each layer should move,
and why there is no in-process workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".e2e_run")

LEVEL = "distribution"
#: The servers' default verify policy, also used by the traced compile.
VERIFY = "final"
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: Deadline for the compiling process of a traced run, from the run's start.
RUN_TIMEOUT = 170.0
#: Share of slowest requests whose mean latency is latency_tail_ms: one
#: request in 20 is never seen before, so this is about the full
#: compiles, a few hundred a window.  A mean over them, unlike a single
#: percentile or the slowest 1%, does not jump with which fuzz CFGs a seed
#: draws or where garbage-collection pauses happen to land.
TAIL_SHARE = 0.05

#: workload -> (server kind, never-seen requests made ahead of the window
#: per second of it: about twice the rate a 2-CPU host consumes them)
WORKLOADS = {
    "serve-daemon": ("daemon", 20),
    "serve-fleet": ("fleet", 70),
}


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def tail_ms(samples: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of ``samples``, in ms."""
    slowest = sorted(samples)[-max(1, round(share * len(samples))):]
    return statistics.fmean(slowest) * 1e3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- traced in-process compile -----------------------------------------------


def trace_inproc(args, pool, run_dir, deadline) -> dict:
    """Per-layer numbers of the servers' compile, from ``inproc.py``."""
    import oracle

    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as handle:
        json.dump({
            "pool": pool, "level": LEVEL, "verify": VERIFY, "seed": args.seed,
            "seconds": args.seconds, "run_dir": run_dir,
        }, handle)
    # run() kills the child if the deadline passes
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "inproc.py"), config_path],
        env=child_env(), stdin=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if process.returncode != 0:
        raise RuntimeError(f"compiling process failed (exit {process.returncode})")
    with open(os.path.join(run_dir, "inproc.json")) as handle:
        result = json.load(handle)

    checked = oracle.check(pool, result["outputs"])
    bad = set(checked["wrong"]) | set(checked["missing"])
    return {
        "attempted": len(pool) + result["attempted"],
        # first-pass outputs the oracle refutes or that are missing, and
        # loop requests that failed or differed from the first pass
        "failed": len(bad) + result["failed"],
        "notes": result["errors"] + sorted(bad),
        "layers": inproc_layers(result),
    }


def inproc_layers(result: dict) -> dict:
    """Per-layer metrics of the traced first pass over the pool."""
    from spans import PASSES

    rollup = result["rollup"]

    def get(name, key):
        return rollup.get(name, {}).get(key, 0)

    analysis, dataflow = result["analysis"], result["dataflow"]
    frontend_s = get("frontend", "total_s")
    layers = {
        "frontend.calls": get("frontend", "calls"),
        "frontend.self_s": get("frontend", "self_s"),
        "frontend.kb_per_s": (
            result["frontend_bytes"] / 1024 / frontend_s if frontend_s else 0.0
        ),
        "ir.parse.calls": get("ir.parse", "calls"),
        "ir.parse.self_s": get("ir.parse", "self_s"),
        "ir.print.calls": get("ir.print", "calls"),
        "ir.print.self_s": get("ir.print", "self_s"),
        "ir.predecessor_map.calls": get("ir.predecessor_map", "calls"),
        "pipeline.self_s": get("pipeline", "self_s"),
        "pm.run_function.calls": get("pm.run_function", "calls"),
        "pm.self_s": get("pm.run_function", "self_s"),
        "ssa.to_ssa.calls": get("ssa.to_ssa", "calls"),
        "ssa.to_ssa.self_s": get("ssa.to_ssa", "self_s"),
        "ssa.destroy_ssa.calls": get("ssa.destroy_ssa", "calls"),
        "ssa.destroy_ssa.self_s": get("ssa.destroy_ssa", "self_s"),
        "cfg.dominators.calls": get("cfg.dominators", "calls"),
        "analysis.hits": analysis["hits"],
        "analysis.misses": analysis["misses"],
        "analysis.hit_ratio": analysis["hit_rate"],
        "analysis.invalidations": analysis["invalidations"],
        "analysis.retained_functions": result["retained_functions"],
        "dataflow.solves": dataflow["solves"],
        "dataflow.pops": dataflow["pops"],
        "dataflow.updates": dataflow["updates"],
        "dataflow.self_s": get("dataflow", "self_s"),
        "verify.validate.self_s": get("verify.validate", "self_s"),
        "trace.traced_rps": result["traced_rps"],
        "trace.overhead_frac": 1.0 - result["traced_rps"] / result["untraced_rps"],
    }
    for name in PASSES:
        layers[f"passes.{name}.calls"] = get(f"passes.{name}", "calls")
        layers[f"passes.{name}.self_s"] = get(f"passes.{name}", "self_s")
        layers[f"passes.{name}.instrs_delta"] = result["instrs_delta"].get(name, 0)
    return layers


# -- server workloads --------------------------------------------------------


def run_server(args, pool, run_dir, kind, fresh_per_second, deadline) -> dict:
    import oracle
    from pool import Stream
    from servers import Load, Server, tree_peak_rss_mb

    from repro.ir.printer import print_module
    from repro.pipeline.driver import compile_payload

    env = child_env()
    teardown_errors = 0
    left_alive = False
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        server = Server(kind, run_dir, env, index)
        try:
            setups.append(server.wait_ready())
        finally:
            errors, left = server.teardown()
            teardown_errors += errors
            left_alive |= left

    stream = Stream(pool, args.seed)
    # made before the clock runs (more are made on demand)
    stream.prepare(int(args.seconds * fresh_per_second))
    server = Server(kind, run_dir, env, SETUP_SAMPLES - 1)
    try:
        setups.append(server.wait_ready())
        first = Load(server.socket, LEVEL, VERIFY)
        queue = list(reversed(pool))
        first.run(lambda: queue.pop() if queue else None)
        peak_rss_mb = tree_peak_rss_mb(server.pgid)
        load = Load(server.socket, LEVEL, VERIFY)
        elapsed = load.run(stream.next, args.seconds)
        stats = server.stats() if args.trace else None
    finally:
        errors, left = server.teardown()
        teardown_errors += errors
        left_alive |= left

    # every reply against a direct compile at the reply's level
    by_id = {request["id"]: request for request in pool + stream.fresh}
    replies: dict[tuple, dict[str, int]] = {}
    for batch in (first, load):
        for key, texts in batch.replies.items():
            for text, count in texts.items():
                merged = replies.setdefault(key, {})
                merged[text] = merged.get(text, 0) + count
    wrong_replies = 0
    outputs: dict[str, str] = {}
    for (request_id, level), texts in replies.items():
        request = by_id[request_id]
        expected = print_module(compile_payload(
            request["kind"], request["text"], level, VERIFY
        ))
        wrong_replies += sum(
            count for text, count in texts.items() if text != expected
        )
        outputs.setdefault(request_id, expected)
    quality = oracle.check(pool, outputs)
    fresh = oracle.check(stream.fresh[: stream.used], outputs)
    bad = {
        *quality["wrong"], *quality["missing"], *fresh["wrong"], *fresh["missing"]
    }
    # wall times as on an unshared host: see servers.unstolen_share
    latencies = [latency * load.unstolen for latency in load.latencies]
    elapsed *= load.unstolen
    report = {
        "attempted": first.attempted + load.attempted,
        "failed": first.failed + load.failed + wrong_replies + len(bad)
        + int(left_alive),
        "notes": first.errors + load.errors + sorted(bad)
        + (["server processes left alive"] if left_alive else []),
        "metrics": {
            "throughput_rps": len(latencies) / elapsed,
            "latency_p50_ms": median_ms(latencies),
            "latency_tail_ms": tail_ms(latencies, TAIL_SHARE),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "dyn_ops": quality["dyn_ops"],
            "code_size": quality["code_size"],
        },
        "samples": len(latencies),
        "teardown_errors": teardown_errors,
    }
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.spans = sorted(load.spans, key=lambda span: span[1])
        tracer.write_chrome(os.path.join(run_dir, "client.trace.json"))
        traced = trace_inproc(args, pool, run_dir, deadline)
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["notes"] += traced["notes"]
        # the server's quantiles cover its whole life: compare like with like
        report["layers"] = traced["layers"] | server_layers(
            kind, stats, first.latencies + load.latencies, teardown_errors
        )
    return report


def server_layers(kind, stats, latencies, teardown_errors) -> dict:
    client_p50_ms = median_ms(latencies)
    if kind == "daemon":
        counters = stats["counters"]
        passes = stats["passes"]
        busy = passes["seconds"] / (
            stats["uptime_seconds"] * stats["scheduler"]["workers"]
        )
        return {
            "service.server_p50_ms": stats["latency"]["p50_ms"],
            "service.server_p99_ms": stats["latency"]["p99_ms"],
            "service.ipc_p50_ms": client_p50_ms - stats["latency"]["p50_ms"],
            "service.dedup_hits": counters["dedup_hits"],
            "service.batch_fill": (
                counters["batched_jobs"] / counters["batches"]
                if counters["batches"] else 0.0
            ),
            "service.worker_busy_frac": busy,
            "service.retries": counters["retries"],
            "service.worker_restarts": counters["worker_restarts"],
            "service.overloaded": counters["overloaded"],
            "service.teardown_errors": teardown_errors,
            "pm.cache.hit_ratio": stats["cache"]["hit_ratio"],
            "pm.cache.misses": stats["cache"]["misses"],
        }
    gateway = stats["gateway"]
    counters = gateway["counters"]
    return {
        "fleet.server_p50_ms": gateway["latency"]["p50_ms"],
        "fleet.server_p99_ms": gateway["latency"]["p99_ms"],
        "fleet.store_hit_ratio": gateway["store"]["hit_ratio"],
        "fleet.store_writes": counters["store_writes"],
        "fleet.replies_store": counters["replies_store"],
        "fleet.replies_shard": counters["replies_shard"],
        "fleet.gateway_dedup_hits": counters["gateway_dedup_hits"],
        "fleet.quota_delayed": counters["quota_delayed"],
        "fleet.shard_errors": counters["shard_errors"],
        "fleet.teardown_errors": teardown_errors,
    }


# -- entry point -------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2e_bench: no compiler sources at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a SIGTERM unwinds like an error, so the finally blocks stop and
    # reap every process this run started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = benchmark_spec()
    deadline = time.monotonic() + RUN_TIMEOUT

    import pool as pool_module

    kind, fresh_per_second = WORKLOADS[args.workload]
    pool = pool_module.build_pool(args.seed)
    # short: the fleet's shard sockets live below it (AF_UNIX paths are
    # limited to 107 bytes)
    run_dir = os.path.join(RUNS, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        report = run_server(args, pool, run_dir, kind, fresh_per_second, deadline)
        for name in ("client.trace.json", "compile.trace.json"):
            if os.path.exists(os.path.join(run_dir, name)):
                os.replace(os.path.join(run_dir, name),
                           os.path.join(RUNS, f"{args.workload}.{name}"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    listed, values = (
        (spec["per_layer"], report["layers"]) if args.trace
        else (spec["end_to_end"], report["metrics"])
    )
    unknown = set(values) - {metric["name"] for metric in listed}
    if unknown:
        raise SystemExit(f"e2e_bench: metrics missing from BENCHMARK.json: "
                         f"{sorted(unknown)}")
    # layers the traced workload does not reach read 0 (README.md)
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in listed
    }
    for note in report["notes"]:
        print(f"failed: {note}", file=sys.stderr)
    if not args.trace:
        print(
            f"{args.workload} seed {args.seed}: {report['samples']} latency "
            f"samples, tail = slowest {TAIL_SHARE:.0%}; "
            f"teardown errors {report.get('teardown_errors', 0)}",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
