"""Request scheduling: store-first replies, dedup, sharding, retries.

The path of a compile request through the daemon:

1. **store** — the request is normalized and content-hashed
   (:func:`repro.service.protocol.request_key`), then looked up in the
   daemon's in-memory reply store.  A repeat of a request already
   answered cleanly completes at once (``store_hits``): no worker, no
   pipe, ``"served_from": "store"``.  Requests that carry a ``fault``
   or ``no_store`` skip the store both ways
   (:func:`~repro.service.protocol.storable`).
2. **dedup** — a miss is checked against the in-flight table.  An
   identical request already pending or running just attaches another
   :class:`JobFuture` to the existing job (``dedup_hits``); the compile
   runs once and fans its reply out.  When the table is at
   ``max_pending``, the request is shed with
   :class:`~repro.service.faults.OverloadedError` instead of queueing.
3. **shard** — each new job goes straight onto the queue of worker
   ``hash(key) % pool.size``.  Hash affinity means a repeated request
   always lands on the worker whose in-memory cache already holds it.
4. **dispatch** — one dispatcher thread per shard takes a job, drains
   whatever else is already queued (up to ``max_batch``) and sends that
   batch down the pipe.  An idle worker therefore starts at once;
   batches form only while a worker is busy and jobs queue behind it.
   Worker death (EOF) retries the batch's unfinished jobs elsewhere in
   time (same shard, fresh worker) under the
   :class:`~repro.service.faults.RetryPolicy`; jobs past their deadline
   are answered ``timeout`` and the stuck worker is killed.
5. **quarantine** — a request that kills workers through its *whole*
   retry budget is a poison pill: instead of a terminal
   ``worker-crash``, the scheduler steps its level one rung down the
   :data:`~repro.pipeline.levels.DEGRADATION_LADDER`, resets the
   budget, and remembers the key → level mapping so later submits of
   the same request start at the surviving level.  Only when the
   bottom rung (``none``) still kills workers does the caller see
   ``worker-crash``.  The reply for a stepped-down request carries
   ``degraded``/``level``/``requested_level`` (docs/ROBUSTNESS.md) and
   is never stored.

Everything here is policy over :class:`~repro.service.workers.
WorkerPool` mechanism; the module has no socket knowledge and is
driven directly by the unit tests.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional

from repro.pipeline.levels import ladder_next
from repro.pm.cache import ArtifactStore
from repro.service import protocol
from repro.service.faults import OverloadedError, RetryPolicy, validate_fault
from repro.service.metrics import Metrics
from repro.service.workers import WorkerPool


class JobFuture:
    """One caller's handle on a (possibly shared) compile job."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reply: Optional[dict] = None
        self._callbacks: list[Callable[[dict], None]] = []
        self.deduped = False

    def set_reply(self, reply: dict) -> None:
        with self._lock:
            self._reply = reply
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback(reply)

    def add_done_callback(self, callback: Callable[[dict], None]) -> None:
        with self._lock:
            if self._reply is None:
                self._callbacks.append(callback)
                return
            reply = self._reply
        callback(reply)

    def result(self, timeout: Optional[float] = None) -> dict:
        if not self._event.wait(timeout):
            raise TimeoutError("no reply within timeout")
        assert self._reply is not None
        return self._reply


class Job:
    """One unit of deduped work: a request plus every waiter's future."""

    __slots__ = (
        "seq",
        "key",
        "request",
        "futures",
        "attempt",
        "enqueued",
        "deadline",
        "shard",
        "done",
        "requested",
    )

    def __init__(self, seq: int, key: str, request: dict, deadline: float) -> None:
        self.seq = seq
        self.key = key
        self.request = request
        self.futures: list[JobFuture] = []
        self.attempt = 0
        self.enqueued = time.monotonic()
        self.deadline = deadline
        self.shard = 0
        self.done = False
        #: the level the *caller* asked for; ``request["level"]`` steps
        #: down the degradation ladder when the key quarantines
        self.requested = request["level"]


class Scheduler:
    """Store + dedup + shard + retry policy over a worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        metrics: Optional[Metrics] = None,
        *,
        max_batch: int = 16,
        max_pending: int = 256,
        request_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.pool = pool
        self.metrics = metrics if metrics is not None else Metrics()
        self.max_batch = max(1, int(max_batch))
        self.max_pending = max(1, int(max_pending))
        self.request_timeout = request_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: whole replies by request key: memory only, LRU-bounded
        self.store = ArtifactStore(None)
        self._jobs: dict[str, Job] = {}
        #: poison-pill quarantine: request key → the ladder level this
        #: key last had to step down to after killing workers through a
        #: full retry budget.  Later submits of the same key start at
        #: the quarantined level instead of killing workers all over
        #: again (``quarantine_hits``).
        self._quarantine: dict[str, str] = {}
        self._lock = threading.Lock()
        #: per-shard job queues; ``None`` wakes a dispatcher to exit
        self._queues: list[queue.Queue] = [queue.Queue() for _ in range(pool.size)]
        self._seq = 0
        self._stopped = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self.pool.start()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(index,),
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            for index in range(self.pool.size)
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
        for jobs in self._queues:
            jobs.put(None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self.pool.stop()
        # anything still queued will never run; fail it cleanly
        with self._lock:
            orphans = list(self._jobs.values())
            self._jobs.clear()
        for job in orphans:
            self._fail(job, "worker-crash", "daemon shutting down", track=False)

    # -- intake ------------------------------------------------------------------

    def submit(self, message: dict) -> JobFuture:
        """Accept one compile request; returns the caller's future.

        Raises :class:`~repro.service.protocol.ProtocolError` on a
        malformed request and :class:`OverloadedError` under load
        shedding — both before any state is created.
        """
        request = protocol.validate_compile(message)
        if request["fault"] is not None:
            try:
                request["fault"] = validate_fault(request["fault"])
            except ValueError as error:
                raise protocol.ProtocolError(str(error)) from None
        key = protocol.request_key(
            request["kind"], request["text"], request["level"], request["verify"]
        )
        started = time.monotonic()
        future = JobFuture()
        with self._lock:
            if self._stopped:
                raise OverloadedError("scheduler stopped")
            self.metrics.inc("requests_total")
            artifact = None
            if protocol.storable(request):
                artifact = self.store.get(key, request["level"])
                self.metrics.inc("store_misses" if artifact is None else "store_hits")
            if artifact is None:
                self._enqueue(key, request, future)
                return future
        self.metrics.latency.observe(time.monotonic() - started)
        self.metrics.inc("replies_ok")
        future.set_reply({"ok": True, "ir": artifact.text, "attempts": 0,
                          "deduped": False, "served_from": "store"})
        return future

    def _enqueue(self, key: str, request: dict, future: JobFuture) -> None:
        """Attach ``future`` to the in-flight job for ``key`` or queue a new one.

        Called with the lock held.
        """
        job = self._jobs.get(key)
        if job is not None and not job.done:
            future.deduped = True
            job.futures.append(future)
            self.metrics.inc("dedup_hits")
            return
        if len(self._jobs) >= self.max_pending:
            self.metrics.inc("overloaded")
            raise OverloadedError(
                f"{len(self._jobs)} requests pending (max {self.max_pending})"
            )
        self._seq += 1
        job = Job(self._seq, key, request, time.monotonic() + self.request_timeout)
        quarantined = self._quarantine.get(key)
        if quarantined is not None and request.get("on_error") != "raise":
            # a known poison pill: start at the level it survived
            # instead of feeding it workers at the lethal one
            job.request["level"] = quarantined
            self.metrics.inc("quarantine_hits")
        job.shard = int(key[:8], 16) % self.pool.size
        job.futures.append(future)
        self._jobs[key] = job
        self._queues[job.shard].put(job)

    def gauges(self) -> dict:
        """Point-in-time scheduler state for the ``stats`` reply."""
        with self._lock:
            inflight = len(self._jobs)
            quarantined = len(self._quarantine)
        return {
            "inflight": inflight,
            "queued": sum(jobs.qsize() for jobs in self._queues),
            "workers": self.pool.size,
            "workers_alive": self.pool.alive_count(),
            "worker_restarts": self.pool.restarts,
            "quarantined_keys": quarantined,
        }

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_loop(self, index: int) -> None:
        pending = self._queues[index]
        while not self._stopped:
            # block for one job, then take whatever queued behind it:
            # no timed window, so an idle worker starts at once
            jobs = [pending.get()]
            while len(jobs) < self.max_batch:
                try:
                    jobs.append(pending.get_nowait())
                except queue.Empty:
                    break
            jobs = [job for job in jobs if job is not None and not job.done]
            if jobs:
                self.metrics.inc("batches")
                self.metrics.inc("batched_jobs", len(jobs))
            while jobs and not self._stopped:
                jobs = self._run_batch(index, jobs)
                if jobs:
                    # all survivors share the batch's first retry tier
                    time.sleep(self.retry.delay(jobs[0].attempt))

    def _run_batch(self, index: int, jobs: list[Job]) -> list[Job]:
        """Send one batch to shard ``index``; returns jobs to retry."""
        handle = self.pool.get(index)
        payload = [
            {
                "seq": job.seq,
                "kind": job.request["kind"],
                "text": job.request["text"],
                "level": job.request["level"],
                "verify": job.request["verify"],
                "fault": job.request["fault"],
                "attempt": job.attempt,
                "on_error": job.request.get("on_error", "degrade"),
            }
            for job in jobs
        ]
        remaining = {job.seq: job for job in jobs}
        try:
            handle.send(("batch", payload))
            while True:
                deadline = min(job.deadline for job in remaining.values()) \
                    if remaining else time.monotonic() + 5.0
                wait = deadline - time.monotonic()
                if wait <= 0 or not handle.poll(max(wait, 0.001)):
                    return self._reap(index, remaining, timed_out=True)
                message = handle.recv()
                if message[0] == "result":
                    job = remaining.pop(message[1], None)
                    if job is not None:
                        self._fulfill(job, message[2])
                elif message[0] == "batch-done":
                    self.metrics.merge_worker_stats(message[1]["stats"])
                    # a well-behaved worker answered everything first
                    return self._reap(index, remaining, timed_out=False,
                                      kill=bool(remaining))
        except (EOFError, BrokenPipeError, OSError):
            return self._reap(index, remaining, timed_out=False)

    def _reap(
        self,
        index: int,
        remaining: dict[int, "Job"],
        *,
        timed_out: bool,
        kill: bool = True,
    ) -> list[Job]:
        """Handle a dead/stuck worker; split survivors into retry/fail."""
        if not remaining:
            return []
        if kill:
            self.pool.kill(index)
            self.metrics.inc("worker_restarts")
        self.metrics.inc("timeouts" if timed_out else "worker_crashes")
        now = time.monotonic()
        retry: list[Job] = []
        for job in remaining.values():
            if now >= job.deadline:
                self._fail(job, "timeout",
                           f"no reply within {self.request_timeout}s")
            elif job.attempt + 1 >= self.retry.max_attempts:
                step = (
                    ladder_next(job.request["level"])
                    if job.request.get("on_error") != "raise"
                    else None
                )
                if step is not None:
                    # poison pill: this key killed a worker through the
                    # whole retry budget at this level — quarantine it
                    # one rung down the degradation ladder and retry
                    # there with a fresh attempt budget
                    job.request["level"] = step
                    job.attempt = 0
                    with self._lock:
                        self._quarantine[job.key] = step
                    self.metrics.inc("quarantined")
                    retry.append(job)
                else:
                    self._fail(
                        job,
                        "worker-crash",
                        f"worker died {job.attempt + 1} times running "
                        "this request",
                    )
            else:
                job.attempt += 1
                self.metrics.inc("retries")
                retry.append(job)
        return retry

    # -- completion --------------------------------------------------------------

    def _finish(self, job: Job) -> None:
        with self._lock:
            job.done = True
            if self._jobs.get(job.key) is job:
                del self._jobs[job.key]

    def _fulfill(self, job: Job, reply: dict) -> None:
        latency = time.monotonic() - job.enqueued
        self.metrics.latency.observe(latency)
        self.metrics.inc("replies_ok" if reply.get("ok") else "replies_error")
        if reply.get("ok") and job.request["level"] != job.requested:
            # the job was quarantined down the ladder after killing
            # workers: overlay the honesty fields (the worker only knew
            # the stepped-down level, so its requested_level is ours to
            # correct; its achieved level stands if containment inside
            # the worker degraded further still)
            reply = {
                **reply,
                "degraded": True,
                "level": reply.get("level", job.request["level"]),
                "requested_level": job.requested,
            }
        if reply.get("degraded"):
            self.metrics.inc("degraded_replies")
        # store before the job leaves the in-flight table, so a
        # concurrent submit of the key finds one or the other
        if protocol.storable(job.request, reply):
            self.store.put(job.key, reply["ir"], level=job.requested)
        self._finish(job)
        for future in job.futures:
            future.set_reply(
                {**reply, "attempts": job.attempt + 1, "deduped": future.deduped}
            )

    def _fail(self, job: Job, kind: str, message: str, track: bool = True) -> None:
        reply = {"ok": False, "error": {"kind": kind, "message": message}}
        if track:
            self._fulfill(job, reply)
            return
        job.done = True
        for future in job.futures:
            future.set_reply({**reply, "attempts": job.attempt + 1,
                              "deduped": future.deduped})
