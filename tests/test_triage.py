"""Failure containment and auto-triage: sandbox, ladder, incidents,
bisect, reducer, quarantine, and crash-consistent stores.

The contract under test is *never fail, never lie*: an injected pass
crash or refuted verification must roll the function back (or walk the
degradation ladder), leave an honest incident behind, and that incident
must bisect to the injected pass and delta-reduce to a minimal artifact
that still reproduces.  Torn store writes must read as misses.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.frontend import compile_program
from repro.interp import Interpreter
from repro.ir.printer import print_module
from repro.pipeline.driver import compile_payload
from repro.pipeline.levels import (
    DEGRADATION_LADDER,
    OptLevel,
    ladder_levels,
    ladder_next,
    resolve_level,
)
from repro.pm.manager import DegradationRequired, PassManager
from repro.triage import (
    ChaosError,
    IncidentStore,
    PassChaos,
    compile_payload_contained,
)
from repro.triage.bisect import bisect_incident, replay
from repro.triage.reduce import reduce_incident

SOURCE = """
routine poly(x: int) -> int
  integer a
  integer b
  a = x * 3 + 7
  b = x * 3 + 7
  if x > 0 then
    return a + b
  end
  return a - b
end
"""


def _run(module, name="poly", args=(5,)):
    return Interpreter(module).run(name, list(args)).value


def _expected():
    return _run(compile_program(SOURCE))


# -- sandbox policies ----------------------------------------------------------


def test_sandbox_raise_propagates_chaos():
    module = compile_program(SOURCE)
    chaos = PassChaos(crash_passes=("pre",))
    manager = PassManager("distribution", verify="final", chaos=chaos)
    with pytest.raises(ChaosError):
        manager.run_module(module)


def test_sandbox_rollback_skips_failing_pass():
    module = compile_program(SOURCE)
    chaos = PassChaos(crash_passes=("pre",))
    store = IncidentStore()
    manager = PassManager(
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    manager.run_module(module)
    assert chaos.crashes >= 1
    assert store.entries(), "contained crash must record an incident"
    incident = store.entries()[0]
    assert incident.pass_label == "pre"
    assert incident.error_type == "ChaosError"
    assert _run(module) == _expected()


def test_sandbox_degrade_raises_degradation_required():
    module = compile_program(SOURCE)
    pristine = print_module(module)
    chaos = PassChaos(crash_passes=("pre",))
    manager = PassManager(
        "distribution", verify="final", on_error="degrade", chaos=chaos
    )
    with pytest.raises(DegradationRequired):
        manager.run_module(module)
    # degrade hands the *pristine* function back so the ladder can
    # retry it one rung down — no partial optimization may leak out
    assert print_module(module) == pristine


def test_sandbox_contains_refuted_verification():
    module = compile_program(SOURCE)
    chaos = PassChaos(corrupt_passes=("gvn",))
    store = IncidentStore()
    manager = PassManager(
        "distribution",
        verify="lint",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    manager.run_module(module)
    assert chaos.corruptions >= 1
    assert store.entries()
    assert _run(module) == _expected()


# -- degradation ladder --------------------------------------------------------


def test_ladder_walks_to_none():
    seen = []
    level = "spec"
    while level is not None:
        assert level not in seen, "ladder must not cycle"
        seen.append(level)
        level = ladder_next(level)
    assert seen[-1] == "none"
    assert "baseline" in seen


def test_ladder_helpers():
    assert ladder_next("unknown-sequence") == "baseline"
    rungs = ladder_levels("distribution")
    assert rungs[0] == "distribution" and rungs[-1] == "none"
    assert resolve_level("none") is None
    assert resolve_level("distribution") is OptLevel.DISTRIBUTION
    assert resolve_level("spec").value == "spec"
    with pytest.raises(KeyError):
        resolve_level("warp-9")
    assert set(DEGRADATION_LADDER) >= {"spec", "distribution", "partial",
                                       "baseline", "none"}


def test_containment_rollback_stays_at_requested_level():
    store = IncidentStore()
    result = compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    assert result.achieved == result.requested == "distribution"
    assert result.degraded
    assert result.incident_ids
    assert _run(result.module) == _expected()


def test_containment_degrade_walks_ladder():
    store = IncidentStore()
    # 'dce' runs at every optimizing rung, so degrade must fall all
    # the way to the unoptimized floor — and still answer
    result = compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="degrade",
        incidents=store,
        chaos=PassChaos(crash_passes=("dce",)),
    )
    assert result.degraded
    assert result.achieved != "distribution"
    assert result.achieved in ladder_levels("distribution")
    assert _run(result.module) == _expected()
    assert store.entries()


def test_contained_compiles_never_poison_the_cache(tmp_path):
    from repro.pm.cache import PassCache

    cache = PassCache(str(tmp_path / "cache"))
    compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=IncidentStore(),
        chaos=PassChaos(crash_passes=("pre",)),
        cache=cache,
    )
    clean = compile_payload("source", SOURCE, "distribution", "final")
    clean_text = print_module(clean)
    # a fresh uncontained compile through the same cache must not see a
    # rolled-back (pass-skipped) image as a hit
    manager = PassManager("distribution", verify="final", cache=cache)
    module = compile_program(SOURCE)
    manager.run_module(module)
    assert print_module(module) == clean_text


# -- incident store ------------------------------------------------------------


def test_incident_store_roundtrip_and_dedup(tmp_path):
    store = IncidentStore(str(tmp_path))
    result = compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    incident_id = result.incident_ids[0]
    fresh = IncidentStore(str(tmp_path))
    incident = fresh.get(incident_id)
    assert incident is not None
    assert incident.pass_label == "pre"
    # re-recording the same failure bumps count, no sibling file
    before = len(os.listdir(tmp_path))
    compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    assert len(os.listdir(tmp_path)) == before
    assert store.get(incident_id).count == 2


def test_incident_store_corrupt_entry_is_a_miss(tmp_path):
    store = IncidentStore(str(tmp_path))
    result = compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="final",
        on_error="rollback",
        incidents=store,
        chaos=PassChaos(crash_passes=("pre",)),
    )
    incident_id = result.incident_ids[0]
    (path,) = [
        os.path.join(tmp_path, name) for name in os.listdir(tmp_path)
    ]
    with open(path, "w") as handle:
        handle.write('{"version": 1, "funct')
    fresh = IncidentStore(str(tmp_path))
    assert fresh.get(incident_id) is None
    assert fresh.entries() == []


# -- bisect + reduce -----------------------------------------------------------


def _one_incident(chaos_kind="crash", label="pre"):
    store = IncidentStore()
    chaos = (
        PassChaos(crash_passes=(label,))
        if chaos_kind == "crash"
        else PassChaos(corrupt_passes=(label,))
    )
    compile_payload_contained(
        "source",
        SOURCE,
        "distribution",
        verify="lint",
        on_error="rollback",
        incidents=store,
        chaos=chaos,
    )
    return store.entries()[0]


def test_bisect_pins_injected_pass():
    incident = _one_incident("crash", "pre")
    result = bisect_incident(incident)
    assert result is not None
    assert result.culprit_label == "pre"
    assert result.culprit_application == incident.application
    # binary search, not linear scan
    assert result.probes <= result.total_applications


def test_bisect_pins_corrupting_pass():
    incident = _one_incident("corrupt", "gvn")
    result = bisect_incident(incident)
    assert result is not None
    assert result.culprit_label == "gvn"


def test_reducer_shrinks_and_still_reproduces():
    incident = _one_incident("crash", "pre")
    artifact = reduce_incident(incident)
    assert artifact is not None
    assert artifact.instructions_after <= artifact.instructions_before
    assert artifact.specs_after < artifact.specs_before
    assert [label for label in artifact.specs] or artifact.specs
    outcome = replay(incident, ir_text=artifact.ir, specs=artifact.specs)
    assert outcome.matches(incident)
    payload = artifact.to_json()
    assert payload["error_type"] == incident.error_type


def test_reducer_returns_none_for_stale_incident():
    incident = _one_incident("crash", "pre")
    # forge an incident whose chaos descriptor no longer fires
    stale = incident.from_json(
        {**incident.to_json(), "chaos": {"kind": "crash", "pass": "no-such",
                                         "function": incident.function}}
    )
    assert reduce_incident(stale) is None


def test_chaos_draws_are_deterministic():
    first = PassChaos(seed=7, crash_rate=0.2, corrupt_rate=0.2)
    second = PassChaos(seed=7, crash_rate=0.2, corrupt_rate=0.2)
    store_a, store_b = IncidentStore(), IncidentStore()
    for chaos, store in ((first, store_a), (second, store_b)):
        compile_payload_contained(
            "source",
            SOURCE,
            "distribution",
            verify="lint",
            on_error="degrade",
            incidents=store,
            chaos=chaos,
        )
    assert (first.crashes, first.corruptions) == (
        second.crashes,
        second.corruptions,
    )
    assert [i.incident_id for i in store_a.entries()] == [
        i.incident_id for i in store_b.entries()
    ]


# -- service quarantine --------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    from repro.service.daemon import CompileDaemon, DaemonConfig
    from repro.service.faults import RetryPolicy

    config = DaemonConfig(
        socket_path=str(tmp_path / "d.sock"),
        workers=2,
        cache_dir=str(tmp_path / "cache"),
        incident_dir=str(tmp_path / "incidents"),
        request_timeout=60.0,
        retry=RetryPolicy(max_attempts=2, backoff=0.01),
    )
    instance = CompileDaemon(config)
    instance.start()
    yield instance
    instance.stop()


PILL = {"kind": "crash", "attempts": 99, "levels": ["distribution"]}


def test_scheduler_quarantines_poison_pill(daemon):
    from repro.service.client import DaemonClient

    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        reply = client.compile(
            "source", SOURCE, "distribution", "final", fault=dict(PILL)
        )
        assert reply["ok"] and reply.get("degraded")
        achieved = reply["level"]
        assert achieved != "distribution"
        assert reply["requested_level"] == "distribution"
        assert reply["ir"] == print_module(
            compile_payload("source", SOURCE, achieved, "final")
        )
        crashes_first = client.stats()["counters"]["worker_crashes"]
        # the second submit must hit the quarantine map: served at the
        # surviving level without burning another worker
        again = client.compile(
            "source", SOURCE, "distribution", "final", fault=dict(PILL)
        )
        assert again["ok"] and again.get("degraded")
        # a degraded reply is never stored: a clean resubmit looks the
        # key up, misses, and is served degraded from the quarantine map
        clean = client.compile("source", SOURCE, "distribution", "final")
        assert clean.get("degraded") and clean["level"] == achieved
        assert "served_from" not in again and "served_from" not in clean
        stats = client.stats()
        assert stats["counters"]["store_hits"] == 0
        assert stats["counters"]["worker_crashes"] == crashes_first
        assert stats["counters"]["quarantined"] >= 1
        assert stats["counters"]["quarantine_hits"] >= 1
        assert stats["counters"]["degraded_replies"] >= 3
        assert stats["scheduler"]["quarantined_keys"] >= 1


def test_poison_pill_with_raise_policy_fails_honestly(daemon):
    from repro.service.client import DaemonClient, DaemonError

    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        with pytest.raises(DaemonError) as excinfo:
            client.compile(
                "source",
                SOURCE,
                "distribution",
                "final",
                fault=dict(PILL),
                on_error="raise",
            )
        assert excinfo.value.kind == "worker-crash"


def test_daemon_survives_worker_sigkill(daemon):
    from repro.service.client import DaemonClient

    victim = daemon.scheduler.pool.get(0)
    os.kill(victim.process.pid, signal.SIGKILL)
    time.sleep(0.05)
    with DaemonClient(daemon.config.socket_path, timeout=120.0) as client:
        reply = client.compile("source", SOURCE, "baseline", "final")
        assert reply["ir"] == print_module(
            compile_payload("source", SOURCE, "baseline", "final")
        )


def test_level_gated_fault_is_dormant_off_level():
    from repro.service.faults import FaultInjected, maybe_trigger, validate_fault

    fault = validate_fault(dict(PILL))
    assert fault["levels"] == ["distribution"]
    # the crash kind calls os._exit, so probe the gate with the error
    # kind: dormant off-level, firing on-level
    probe = validate_fault(
        {"kind": "error", "attempts": 99, "levels": ["distribution"]}
    )
    assert maybe_trigger(probe, attempt=1, level="partial") is None
    assert maybe_trigger(probe, attempt=1, level=None) is None
    with pytest.raises(FaultInjected):
        maybe_trigger(probe, attempt=1, level="distribution")
    with pytest.raises(ValueError):
        validate_fault({"kind": "crash", "levels": "distribution"})


# -- crash-consistent stores ---------------------------------------------------


def test_pass_cache_torn_write_is_a_miss_then_heals(tmp_path):
    from repro.pm.cache import PassCache, cache_key

    cache = PassCache(str(tmp_path))
    cache.store("input-ir", "fp", "optimized-ir")
    path = cache._path(cache_key("input-ir", "fp"))
    with open(path) as handle:
        sealed = handle.read()
    assert sealed.startswith("#sha256:")
    for torn in (sealed[: len(sealed) // 2], "garbage\nno header", ""):
        with open(path, "w") as handle:
            handle.write(torn)
        cache._memory.clear()
        assert cache.lookup("input-ir", "fp") is None
        assert not os.path.exists(path), "corrupt entry must be unlinked"
        cache.store("input-ir", "fp", "optimized-ir")
        cache._memory.clear()
        assert cache.lookup("input-ir", "fp") == "optimized-ir"


def test_artifact_store_torn_write_is_a_miss_then_heals(tmp_path):
    from repro.pm.cache import ArtifactStore

    store = ArtifactStore(str(tmp_path), memory_entries=0)
    key = "a" * 64
    store.put(key, "artifact body", level="partial")
    path = store._path(key, "partial")
    with open(path) as handle:
        whole = handle.read()
    header = json.loads(whole.split("\n", 1)[0])
    assert header["sha256"]
    # torn tail
    with open(path, "w") as handle:
        handle.write(whole[:-4])
    assert store.get(key, "partial") is None
    # wrong body under a valid header
    store.put(key, "artifact body", level="partial")
    with open(path) as handle:
        head, _ = handle.read().split("\n", 1)
    with open(path, "w") as handle:
        handle.write(head + "\nswapped body")
    assert store.get(key, "partial") is None
    store.put(key, "artifact body", level="partial")
    assert store.get(key, "partial").text == "artifact body"


def test_profile_store_torn_write_is_a_miss(tmp_path):
    from repro.profile.model import FunctionProfile
    from repro.profile.store import ProfileStore, profile_key

    store = ProfileStore(str(tmp_path))
    profile = FunctionProfile(
        function="f", source_hash="h", block_counts={"entry": 2}
    )
    store.put(profile)
    path = store._path(profile_key("f", "h"))
    with open(path, "w") as handle:
        handle.write('{"function": "f", "source_h')
    store._memory.clear()
    assert store.get("f", "h") is None
    store.put(profile, merge=False)
    store._memory.clear()
    assert store.get("f", "h").block_counts == {"entry": 2}
