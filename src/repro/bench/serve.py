"""Load generator for the compile daemon (``repro bench serve``).

Drives a self-hosted :class:`~repro.service.daemon.CompileDaemon` with a
mixed corpus — every benchmark-suite routine (as frontend source, levels
cycled) plus deterministic fuzz CFGs (as printed IR, the shapes the
frontend cannot produce) — and writes ``BENCH_service.json``:

* **correctness** — every reply is compared byte-for-byte against the
  direct in-process :class:`~repro.pm.manager.PassManager` compile of
  the same request, across the cold pass, the warm/dedup pass *and*
  ``--crash`` injected worker crashes (the retry path).  ``wrong_replies``
  must be zero; the process exits 1 otherwise.
* **throughput** — the warm pass sends every request ``--duplicates``
  times from ``--clients`` concurrent connections: requests/second,
  client-observed p50/p99 latency, and the daemon's own stats snapshot
  (dedup hits, cache hit ratio, per-pass rollup).
* **baseline** — seconds-per-request of the one-shot CLI
  (``python -m repro compile`` subprocess per request: interpreter
  start, imports, cold caches), sampled on a corpus prefix.
  ``speedup_vs_oneshot`` is the headline the daemon exists for;
  ``--min-speedup`` turns it into a CI gate.
"""

from __future__ import annotations

import json
import os
import queue
import random
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.printer import print_function, print_module
from repro.ir.validate import validate_function
from repro.pipeline import OptLevel
from repro.pipeline.driver import compile_payload

_LEVELS = [level.value for level in OptLevel]

_BIN_OPS = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.CMPLT,
    Opcode.CMPEQ,
]
_POOL = ["v0", "v1", "v2", "v3", "v4"]


def fuzz_cfg_source(index: int, n_blocks: int, rng: random.Random) -> str:
    """One deterministic fuzz CFG as printed IR (cf. ``tests/test_ir_fuzz``).

    Random branch targets (reducible *and* irreducible shapes) with a
    fuel counter bounding execution, random arithmetic over a small
    register pool — the workload the frontend's structured control flow
    never generates, so the service is exercised on arbitrary CFGs.
    """

    func = Function(f"fuzz{index}", params=["p0", "p1"])
    entry = func.add_block("entry")
    entry.instructions.append(Instruction(Opcode.LOADI, target="m", imm=2477))
    for reg in _POOL:
        entry.instructions.append(
            Instruction(Opcode.LOADI, target=reg, imm=rng.randrange(13) - 6)
        )
    entry.instructions.append(Instruction(Opcode.LOADI, target="fuel", imm=40))
    entry.instructions.append(Instruction(Opcode.LOADI, target="one", imm=1))
    entry.instructions.append(Instruction(Opcode.LOADI, target="zero", imm=0))
    entry.instructions.append(Instruction(Opcode.JMP, labels=["n0"]))

    labels = [f"n{i}" for i in range(n_blocks)]
    for label in labels:
        blk = BasicBlock(label)
        for _ in range(1 + rng.randrange(3)):
            op = _BIN_OPS[rng.randrange(len(_BIN_OPS))]
            target = _POOL[rng.randrange(len(_POOL))]
            a = _POOL[rng.randrange(len(_POOL))]
            b = (_POOL + ["p0", "p1"])[rng.randrange(len(_POOL) + 2)]
            blk.instructions.append(Instruction(op, target=target, srcs=[a, b]))
            if op is Opcode.MUL:
                blk.instructions.append(
                    Instruction(Opcode.MOD, target=target, srcs=[target, "m"])
                )
        blk.instructions.append(
            Instruction(Opcode.SUB, target="fuel", srcs=["fuel", "one"])
        )
        blk.instructions.append(
            Instruction(Opcode.CMPGT, target="go", srcs=["fuel", "zero"])
        )
        blk.instructions.append(
            Instruction(
                Opcode.CBR,
                srcs=["go"],
                labels=[labels[rng.randrange(n_blocks)], "out"],
            )
        )
        func.blocks.append(blk)

    out = func.add_block("out")
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["v0", "v1"]))
    out.instructions.append(Instruction(Opcode.ADD, target="r", srcs=["r", "v2"]))
    out.instructions.append(Instruction(Opcode.RET, srcs=["r"]))
    func.sync_counters()
    validate_function(func)
    return print_function(func)


def build_corpus(quick: bool) -> list[dict]:
    """The mixed request corpus: suite sources + fuzz-CFG IR."""
    from repro.bench.suite import suite_routines

    requests: list[dict] = []
    routines = suite_routines()
    if quick:
        routines = routines[:10]
    for index, routine in enumerate(routines):
        requests.append(
            {
                "kind": "source",
                "text": routine.source,
                "level": _LEVELS[index % len(_LEVELS)],
                "verify": "final",
            }
        )
    rng = random.Random(0x5EED)
    for index in range(6 if quick else 20):
        requests.append(
            {
                "kind": "ir",
                "text": fuzz_cfg_source(index, 2 + index % 5, rng),
                "level": _LEVELS[index % len(_LEVELS)],
                "verify": "final",
            }
        )
    return requests


def _expected_outputs(corpus: list[dict]) -> tuple[list[str], float]:
    """Direct in-process compiles: the byte-identity oracle + timing."""
    outputs = []
    started = time.perf_counter()
    for request in corpus:
        module = compile_payload(
            request["kind"], request["text"], request["level"], request["verify"]
        )
        outputs.append(print_module(module))
    return outputs, (time.perf_counter() - started) / len(corpus)


def _oneshot_baseline(
    corpus: list[dict], expected: list[str], sample: int
) -> tuple[float, int]:
    """Seconds/request of one CLI subprocess per request, and mismatches."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    wrong = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for index, request in enumerate(corpus[:sample]):
            suffix = ".f" if request["kind"] == "source" else ".iloc"
            path = os.path.join(tmp, f"req{index}{suffix}")
            with open(path, "w") as handle:
                handle.write(request["text"])
            command = [
                sys.executable, "-m", "repro", "compile", path,
                "--level", request["level"], "--verify", request["verify"],
            ]
            if request["kind"] == "ir":
                command.append("--ir")
            proc = subprocess.run(
                command, capture_output=True, text=True, env=env, check=True
            )
            if proc.stdout != expected[index] + "\n":
                wrong += 1
    return (time.perf_counter() - started) / sample, wrong


def _drive(
    daemon_socket: str,
    work: list[tuple[dict, Optional[dict], str]],
    clients: int,
) -> tuple[float, list[float], int]:
    """Send ``(request, fault, expected)`` jobs from ``clients`` threads.

    Returns (wall seconds, per-request client-side latencies, wrong count).
    """
    from repro.service.client import DaemonClient

    jobs: "queue.Queue" = queue.Queue()
    for item in work:
        jobs.put(item)
    latencies: list[float] = []
    wrong = [0]
    lock = threading.Lock()

    def client_loop() -> None:
        client = DaemonClient(daemon_socket, timeout=120.0)
        try:
            while True:
                try:
                    request, fault, expected = jobs.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                reply = client.compile(
                    request["kind"], request["text"], request["level"],
                    request["verify"], fault=fault,
                )
                elapsed = time.perf_counter() - t0
                with lock:
                    latencies.append(elapsed)
                    if reply["ir"] != expected:
                        wrong[0] += 1
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


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))]


def main(
    *,
    quick: bool = False,
    clients: int = 4,
    workers: Optional[int] = None,
    duplicates: Optional[int] = None,
    crashes: int = 1,
    json_out: str = "BENCH_service.json",
    min_speedup: Optional[float] = None,
) -> int:
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.client import DaemonClient
    from repro.service.faults import RetryPolicy

    workers = workers if workers else min(4, os.cpu_count() or 2)
    duplicates = duplicates if duplicates else (2 if quick else 3)

    corpus = build_corpus(quick)
    print(
        f"corpus: {len(corpus)} requests "
        f"({sum(r['kind'] == 'source' for r in corpus)} suite sources, "
        f"{sum(r['kind'] == 'ir' for r in corpus)} fuzz CFGs)",
        file=sys.stderr,
    )
    expected, direct_per_request = _expected_outputs(corpus)

    sample = min(len(corpus), 3 if quick else 6)
    baseline_per_request, baseline_wrong = _oneshot_baseline(
        corpus, expected, sample
    )
    print(
        f"one-shot CLI baseline: {baseline_per_request * 1e3:.1f} ms/request "
        f"(sample {sample}); direct in-process: "
        f"{direct_per_request * 1e3:.1f} ms/request",
        file=sys.stderr,
    )

    tmp = tempfile.mkdtemp(prefix="repro-serve-")
    config = DaemonConfig(
        socket_path=os.path.join(tmp, "daemon.sock"),
        workers=workers,
        cache_dir=os.path.join(tmp, "cache"),
        request_timeout=120.0,
        max_pending=4096,
        retry=RetryPolicy(max_attempts=3, backoff=0.01),
    )
    daemon = CompileDaemon(config)
    daemon.start()
    try:
        # cold pass: every unique request once; the first --crash of them
        # carry a crash-once fault, so recovery runs under real load
        cold_work = []
        for index, request in enumerate(corpus):
            fault = (
                {"kind": "crash", "attempts": 1} if index < max(0, crashes) else None
            )
            cold_work.append((request, fault, expected[index]))
        cold_seconds, _, cold_wrong = _drive(
            config.socket_path, cold_work, clients
        )

        # warm pass: duplicates shuffled across clients — dedup + cache path
        rng = random.Random(1)
        warm_work = [
            (request, None, expected[index])
            for index, request in enumerate(corpus)
        ] * duplicates
        rng.shuffle(warm_work)
        warm_seconds, latencies, warm_wrong = _drive(
            config.socket_path, warm_work, clients
        )

        with DaemonClient(config.socket_path) as client:
            stats = client.stats()
            client.shutdown()
    finally:
        daemon.stop()

    warm_per_request = warm_seconds / len(warm_work)
    throughput = len(warm_work) / warm_seconds
    speedup = baseline_per_request / warm_per_request
    wrong_total = baseline_wrong + cold_wrong + warm_wrong
    report = {
        "corpus": {
            "requests": len(corpus),
            "suite_sources": sum(r["kind"] == "source" for r in corpus),
            "fuzz_cfgs": sum(r["kind"] == "ir" for r in corpus),
            "quick": quick,
        },
        "config": {
            "workers": workers,
            "clients": clients,
            "duplicates": duplicates,
            "injected_crashes": crashes,
        },
        "baseline_oneshot": {
            "sample": sample,
            "seconds_per_request": round(baseline_per_request, 6),
            "wrong": baseline_wrong,
        },
        "direct_inprocess": {
            "seconds_per_request": round(direct_per_request, 6),
        },
        "cold": {
            "requests": len(cold_work),
            "seconds": round(cold_seconds, 4),
            "wrong": cold_wrong,
        },
        "warm": {
            "requests": len(warm_work),
            "seconds": round(warm_seconds, 4),
            "throughput_rps": round(throughput, 2),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "wrong": warm_wrong,
        },
        "speedup_vs_oneshot": round(speedup, 2),
        "wrong_replies": wrong_total,
        "daemon_stats": stats,
    }
    with open(json_out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    counters = stats["counters"]
    print(
        f"warm daemon: {throughput:.1f} req/s "
        f"(p50 {report['warm']['p50_ms']} ms, p99 {report['warm']['p99_ms']} ms) "
        f"— {speedup:.1f}x the one-shot CLI",
        file=sys.stderr,
    )
    print(
        f"dedup {counters['dedup_hits']}, cache ratio "
        f"{stats['cache']['hit_ratio']}, worker crashes "
        f"{counters['worker_crashes']}, retries {counters['retries']}, "
        f"wrong replies {wrong_total}",
        file=sys.stderr,
    )
    print(f"report written to {json_out}", file=sys.stderr)

    if wrong_total:
        print(f"FAIL: {wrong_total} wrong replies", file=sys.stderr)
        return 1
    if crashes and not counters["worker_crashes"]:
        print("FAIL: injected crash did not register", file=sys.stderr)
        return 1
    if min_speedup is not None and speedup < min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below gate {min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0
