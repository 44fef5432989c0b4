"""Server workloads: lifecycle, process-tree memory, the load loop and
the steal-adjusted clock (see README.md, Clocks).

A server is ``repro serve`` or ``repro fleet serve`` started in its own
session (so its process group is the whole tree), with fresh cache,
store and incident directories under the run directory.  Set-up is
spawn to the first answered ``ping``.

Teardown sends the public ``shutdown`` op, falls back to SIGTERM and
then SIGKILL for the group, and reaps it.  Two known shutdown defects
are survived rather than fixed: ``repro serve`` can print an
``OSError`` traceback from its worker teardown and exit 1, and
``repro fleet serve`` does not exit after ``shutdown`` (only on
SIGTERM/SIGINT).  Each such event (non-zero exit, traceback on
stderr, a signal needed, a process left alive) counts one teardown
error; they are reported apart from request failures, except that a
process left alive also fails the run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

#: Seconds a server gets to exit after the shutdown op, SIGTERM, SIGKILL.
GRACE = (0.5, 2.0, 2.0)


def cpu_counters() -> tuple[int, int]:
    """(busy, stolen) clock ticks of every CPU since boot, from /proc/stat.

    Stolen ticks are the time a virtual machine's hypervisor ran
    something else while one of our CPUs had work; (0, 0) where the
    kernel does not report them.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPUs' wanted time between two counters that they got.

    A CPU-bound wait lasts 1/share times longer than on an unshared
    host, so a wall time multiplied by the share is the time it would
    have taken there.
    """
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy > 0 else 1.0


def _group_pids(pgid: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state; fields[2] the process group
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def tree_peak_rss_mb(pgid: int) -> float:
    """Sum of every live group member's peak resident set (VmHWM)."""
    total_kb = 0
    for pid in _group_pids(pgid):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


class Server:
    """One spawned server process tree."""

    def __init__(self, kind: str, run_dir: str, env: dict, index: int) -> None:
        self.kind = kind
        self.dir = os.path.join(run_dir, f"{kind}{index}")
        os.makedirs(self.dir)
        # relative to the server's cwd when binding, to ours when connecting
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"))
        if kind == "daemon":
            command = ["serve", "--socket", "s.sock", "--cache-dir", "cache",
                       "--incident-dir", "incidents"]
        else:
            # quotas above capacity and no tiering: every reply is the
            # requested level, so the workload measures the program
            command = ["fleet", "serve", "--socket", "s.sock",
                       "--cache-dir", "cache", "--store-dir", "store",
                       "--no-tiering", "--quota-rate", "1e9",
                       "--quota-burst", "1e9"]
        self.stderr_path = os.path.join(self.dir, "stderr.txt")
        # temporary files (the fleet's shard sockets) go to the server's
        # own directory, under a relative name where Python allows it:
        # AF_UNIX socket paths are limited to 107 bytes
        env = dict(env, TMPDIR=os.curdir)
        self.counters = cpu_counters()
        self.started = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", *command],
                cwd=self.dir, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
        self.pgid = self.process.pid

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Steal-adjusted seconds from spawn to the first answered ``ping``."""
        from repro.service.client import DaemonClient

        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.kind} exited during start-up")
            try:
                with DaemonClient(self.socket, timeout=5.0) as client:
                    if client.ping():
                        return (time.perf_counter() - self.started) * unstolen_share(
                            self.counters, cpu_counters()
                        )
            except OSError:
                time.sleep(0.005)
        raise RuntimeError(f"{self.kind} not answering after {timeout}s")

    def stats(self) -> dict:
        from repro.service.client import DaemonClient

        with DaemonClient(self.socket, timeout=30.0) as client:
            return client.stats()

    def _exited(self, timeout: float) -> bool:
        """Wait until the leader is reaped and no group member is left."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None and not _group_pids(self.pgid):
                return True
            time.sleep(0.02)
        return False

    def teardown(self) -> tuple[int, bool]:
        """Stop and reap the tree: (teardown errors, processes left alive)."""
        from repro.service.client import DaemonClient

        errors = 0
        try:
            with DaemonClient(self.socket, timeout=5.0) as client:
                client.shutdown()
        except (OSError, ConnectionError):
            errors += 1
        signalled = False
        for step, grace in zip((None, signal.SIGTERM, signal.SIGKILL), GRACE):
            if step is not None:
                signalled = True
                errors += 1
                try:
                    os.killpg(self.pgid, step)
                except ProcessLookupError:
                    pass
            if self._exited(grace):
                break
        left = bool(_group_pids(self.pgid))
        if not signalled and self.process.returncode != 0:
            errors += 1
        with open(self.stderr_path) as handle:
            if "Traceback" in handle.read():
                errors += 1
        return errors + left, left


class Load:
    """Two connections running a closed loop over a request source."""

    CONNECTIONS = 2

    def __init__(self, socket_path: str, level: str, verify: str) -> None:
        self.socket = socket_path
        self.level = level
        self.verify = verify
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: (request id, reply level) -> {reply text: count}
        self.replies: dict[tuple, dict[str, int]] = {}
        self.spans: list[list] = []
        self.errors: list[str] = []
        #: :func:`unstolen_share` over the last :meth:`run`
        self.unstolen = 1.0
        self._lock = threading.Lock()

    def run(self, take, seconds=None) -> float:
        """Send ``take()`` requests until it returns None or time is up.

        Returns the wall seconds the loop ran.
        """
        counters = cpu_counters()
        began = time.perf_counter()
        stop_at = None if seconds is None else began + seconds
        threads = [
            threading.Thread(target=self._guarded, args=(take, stop_at))
            for _ in range(self.CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began
        self.unstolen = unstolen_share(counters, cpu_counters())
        return elapsed

    def _guarded(self, take, stop_at) -> None:
        """A connection that dies unexpectedly counts one failed request."""
        try:
            self._connection(take, stop_at)
        except Exception as error:  # noqa: BLE001 — counted, reported
            with self._lock:
                self.failed += 1
                self.errors.append(f"connection: {type(error).__name__}: {error}")

    def _connection(self, take, stop_at) -> None:
        from repro.service.client import DaemonClient, DaemonError

        clock = time.perf_counter
        with DaemonClient(self.socket, timeout=60.0) as client:
            while stop_at is None or clock() < stop_at:
                with self._lock:
                    request = take()
                    if request is None:
                        return
                    self.attempted += 1
                started = clock()
                try:
                    reply = client.compile(
                        request["kind"], request["text"], self.level, self.verify
                    )
                except (DaemonError, OSError, ConnectionError) as error:
                    with self._lock:
                        self.failed += 1
                        self.errors.append(f"{request['id']}: {error}")
                    if isinstance(error, DaemonError):
                        continue
                    return
                finished = clock()
                key = (request["id"], reply.get("level", self.level))
                with self._lock:
                    self.latencies.append(finished - started)
                    self.spans.append(
                        ["client.request", started, finished, -1, request["id"]]
                    )
                    texts = self.replies.setdefault(key, {})
                    texts[reply["ir"]] = texts.get(reply["ir"], 0) + 1
