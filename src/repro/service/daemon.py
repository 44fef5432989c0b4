"""The compile daemon: a Unix-socket server over the scheduler.

``repro serve`` builds a :class:`CompileDaemon` from a
:class:`DaemonConfig` and blocks in :meth:`CompileDaemon.serve_forever`.
Startup order matters: the worker pool forks *before* any daemon thread
exists (fork safety — see :mod:`repro.service.workers`), then the
scheduler threads start, then the socket begins accepting.

One thread per client connection reads newline-framed requests; compile
replies are written by whichever dispatcher thread completes the job
(a per-connection write lock keeps frames intact).  ``stats`` and
``ping`` answer inline; ``shutdown`` replies first, then stops the
daemon from a detached thread so the reply reaches the peer.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.service import protocol
from repro.service.faults import OverloadedError, RetryPolicy
from repro.service.metrics import Metrics
from repro.service.scheduler import Scheduler
from repro.service.workers import WorkerConfig, WorkerPool


@dataclass
class DaemonConfig:
    """Every ``repro serve`` knob, with service-grade defaults."""

    socket_path: str = field(default_factory=protocol.default_socket_path)
    workers: int = 2
    max_batch: int = 16
    max_pending: int = 256
    request_timeout: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cache_dir: Optional[str] = ".repro_cache"
    cache_max_bytes: Optional[int] = 256 * 1024 * 1024
    cache_max_entries: Optional[int] = None
    #: where workers record containment incidents (``repro triage``
    #: reads the same directory); ``None`` disables recording
    incident_dir: Optional[str] = ".repro_incidents"


class CompileDaemon:
    """The long-lived compile service process."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config if config is not None else DaemonConfig()
        self.metrics = Metrics()
        pool = WorkerPool(
            self.config.workers,
            WorkerConfig(
                cache_dir=self.config.cache_dir,
                cache_max_bytes=self.config.cache_max_bytes,
                cache_max_entries=self.config.cache_max_entries,
                incident_dir=self.config.incident_dir,
            ),
        )
        self.scheduler = Scheduler(
            pool,
            self.metrics,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            request_timeout=self.config.request_timeout,
            retry=self.config.retry,
        )
        self._listener: Optional[socket.socket] = None
        self._stop_event = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._started = False
        self._stop_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Fork workers, start the scheduler, bind and accept."""
        if self._started:
            return
        # bind before forking (no threads yet, and a failed claim must
        # not leak a running pool); accept only once workers exist
        path = self.config.socket_path
        self._claim_socket(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(64)
        self._listener = listener
        self.scheduler.start()  # pool forks pre-threads
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True

    def serve_forever(self) -> None:
        self.start()
        self._stop_event.wait()

    def stop(self) -> None:
        """Stop accepting, drain the scheduler, reap workers, unlink.

        Idempotent and safe from two threads at once: the ``shutdown``
        op's thread and ``repro serve``'s own exit path both call it,
        and the later caller waits for the first to finish.
        """
        self._stop_event.set()
        with self._stop_lock:
            if self._listener is None and not self._started:
                return
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
                self._listener = None
            if self._started:
                self.scheduler.stop()
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
            self._started = False

    @staticmethod
    def _claim_socket(path: str) -> None:
        """Unlink a stale socket file; refuse to evict a live daemon."""
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # nobody home: stale leftover
        else:
            raise RuntimeError(f"daemon already listening on {path}")
        finally:
            probe.close()

    # -- connections -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()

        def reply(message: dict) -> None:
            data = protocol.encode(message)
            with write_lock:
                try:
                    conn.sendall(data)
                except OSError:
                    pass  # peer vanished; the compile result is simply dropped

        try:
            for message in protocol.read_messages(conn):
                self._handle(message, reply)
        except protocol.ProtocolError as error:
            reply({"id": None, "ok": False, "error": error.as_error()})
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, message: dict, reply) -> None:
        rid = message.get("id")
        op = message.get("op", "compile")
        if op == "ping":
            reply({"id": rid, "ok": True, "pong": True})
            return
        if op == "stats":
            reply({"id": rid, "ok": True,
                   "stats": self.metrics.snapshot(self.scheduler)})
            return
        if op == "shutdown":
            reply({"id": rid, "ok": True, "stopping": True})
            threading.Thread(target=self.stop, daemon=True).start()
            return
        if op != "compile":
            reply({
                "id": rid,
                "ok": False,
                "error": {"kind": "bad-request",
                          "message": f"unknown op {op!r}"},
            })
            return
        try:
            future = self.scheduler.submit(message)
        except protocol.ProtocolError as error:
            reply({"id": rid, "ok": False, "error": error.as_error()})
        except OverloadedError as error:
            reply({
                "id": rid,
                "ok": False,
                "error": {"kind": "overloaded", "message": str(error)},
            })
        else:
            future.add_done_callback(lambda body: reply({"id": rid, **body}))
