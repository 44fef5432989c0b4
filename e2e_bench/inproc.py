"""The in-process compile that gives the traced run its per-layer numbers.

Run as ``python3 inproc.py CONFIG.json``, with ``src`` on ``PYTHONPATH``.
The servers' own processes are out of reach from outside, so a traced
run compiles the pool here, with the level and verify policy the
servers' workers use.  After one warm-up compile it

1. compiles one traced pass over the pool, in pool order, keeping each
   printed output for the oracle, and counts the live ``Function``
   objects left after ``gc.collect()`` (the per-layer numbers cover
   this fixed work, so counts repeat exactly);
2. runs untraced and traced passes over seeded shuffles of the pool in
   turn for at least ``seconds``, for the tracing overhead.

Every loop output is compared with the first pass's output for the
same request; the parent checks those against the oracle.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import time


def closed_loop(pool, level, verify, rng, expected):
    """(completed, attempted, failed, CPU seconds) of one pass over ``pool``.

    The pass is a fresh seeded shuffle, timed on this process's CPU
    clock: the compile is single-threaded and never waits, so on an idle
    host that equals wall time, and on a shared one it leaves out the
    time the host ran something else.
    """
    from repro.ir import printer
    from repro.pipeline import driver

    completed = attempted = failed = 0
    order = list(pool)
    rng.shuffle(order)
    began = time.process_time()
    for request in order:
        attempted += 1
        try:
            # looked up per call so a tracer's wrappers are the ones run
            text = printer.print_module(driver.compile_payload(
                request["kind"], request["text"], level, verify
            ))
        except Exception as error:  # noqa: BLE001 — counted, reported
            failed += 1
            print(f"{request['id']}: {type(error).__name__}: {error}",
                  file=sys.stderr)
            continue
        completed += 1
        if text != expected.get(request["id"]):
            failed += 1
    return completed, attempted, failed, time.process_time() - began


def overhead(pool, level, verify, seconds, rng, expected) -> dict:
    """Throughput of untraced and traced passes taken in turn.

    Alternating pass by pass makes drift in the host's speed hit both
    sides alike.
    """
    from spans import Tracer

    completed = {False: 0, True: 0}
    elapsed = {False: 0.0, True: 0.0}
    attempted = failed = 0
    began = time.perf_counter()
    while time.perf_counter() < began + seconds:
        for traced in (False, True):
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                done, tried, bad, took = closed_loop(
                    pool, level, verify, rng, expected
                )
            finally:
                tracer.uninstall()
            completed[traced] += done
            elapsed[traced] += took
            attempted += tried
            failed += bad
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced_rps": completed[False] / elapsed[False],
        "traced_rps": completed[True] / elapsed[True],
    }


def main(config_path: str) -> int:
    with open(config_path) as handle:
        config = json.load(handle)
    from repro.analysis import manager as analysis_manager
    from repro.dataflow import bitset
    from repro.ir import printer
    from repro.ir.function import Function
    from repro.pipeline import driver
    from spans import Tracer

    pool, level, verify = config["pool"], config["level"], config["verify"]
    driver.compile_payload(pool[0]["kind"], pool[0]["text"], level, verify)

    tracer = Tracer()
    tracer.install()
    analysis_manager.GLOBAL_STATS.reset()
    bitset.GLOBAL_STATS.reset()
    outputs: dict[str, str] = {}
    errors: list[str] = []
    for index, request in enumerate(pool):
        tracer.request = index
        try:
            outputs[request["id"]] = printer.print_module(driver.compile_payload(
                request["kind"], request["text"], level, verify
            ))
        except Exception as error:  # noqa: BLE001 — counted, reported
            errors.append(f"{request['id']}: {type(error).__name__}: {error}")
    tracer.uninstall()
    result = {
        "outputs": outputs,
        "errors": errors,
        "analysis": analysis_manager.GLOBAL_STATS.as_dict(),
        "dataflow": bitset.GLOBAL_STATS.as_dict(),
        "rollup": tracer.rollup(),
        "instrs_delta": dict(tracer.instrs_delta),
        "frontend_bytes": tracer.frontend_bytes,
    }
    tracer.write_chrome(os.path.join(config["run_dir"], "compile.trace.json"))
    tracer = None
    gc.collect()
    result["retained_functions"] = sum(
        1 for obj in gc.get_objects() if isinstance(obj, Function)
    )

    rng = random.Random(f"order:{config['seed']}")
    result.update(overhead(pool, level, verify, config["seconds"], rng, outputs))
    with open(os.path.join(config["run_dir"], "inproc.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
