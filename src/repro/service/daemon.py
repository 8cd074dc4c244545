"""The worker TCP plane every broker runs, plus the sweep service daemon.

:class:`ServiceBroker` is the one worker message loop of the run fabric.
It speaks the JSON-lines wire protocol of
:mod:`repro.runner.distributed` — ``hello`` / ``welcome``, ``next`` /
``task`` / ``idle`` / ``drain``, ``heartbeat``, ``result``, ``error``,
``checkpoint``, ``release`` — so stock ``repro worker --connect``
processes serve it unchanged.  All task state lives in a
:class:`~repro.service.jobstore.JobStore`; task ids are ``job-id/position``
strings, and a bad shared token is answered with a ``reject`` message.  A
distributed sweep's :class:`~repro.runner.distributed.Broker` runs one over
a sealed one-job store, whose workers drain when the sweep ends; the
service's store is never sealed, so its idle workers keep polling (pools
should run ``--redial``).

:class:`SweepService` composes the store, both planes, and the
write-ahead journal; constructing it on the journal/cache directories of
a SIGKILL'd daemon replays every live job before the listeners open.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.distributed import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    _no_delay,
    _read,
    _send,
    connect_host,
    parse_address,
)
from repro.service.jobstore import JobStore, parse_task_id

#: ``SO_LINGER`` value for an abortive close: linger on, zero seconds.
_ABORT = struct.pack("ii", 1, 0)


class ServiceBroker:
    """Worker-facing TCP plane of a broker: sockets in, JobStore calls out.

    :meth:`start` binds, then runs one acceptor thread, which hands every
    connection (Nagle off) to :meth:`_serve` on its own handler thread, and
    one monitor thread, which calls the store's ``expire_leases`` every
    ``store.monitor_interval`` seconds until :meth:`close`.  All task-state
    logic lives in the store; this class only moves messages.
    """

    def __init__(
        self,
        store: JobStore,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ) -> None:
        self._store = store
        self._bind = (host, port)
        self.host = host
        self.port = port
        self.token = token
        self._lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._closed = threading.Event()
        self.connections: List[socket.socket] = []
        self.threads: List[threading.Thread] = []

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "ServiceBroker":
        try:
            self._listener = socket.create_server(self._bind)
        except OSError as error:
            host, port = self._bind
            raise ConfigurationError(
                f"cannot bind the worker plane to {host}:{port}: {error}"
            )
        for target in (self._accept_loop, self._monitor_loop):
            self._spawn(target)
        self.host, self.port = self._listener.getsockname()[:2]
        return self

    def close(self) -> None:
        self._closed.set()
        listener = self._listener
        if listener is not None:
            # shutdown() first: on Linux, close() alone does not wake the
            # thread blocked in accept(), and the join below would wait out
            # its whole timeout.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
        with self._lock:
            connections = list(self.connections)
        for conn in connections:
            # shutdown(), not just close(): the handler thread's makefile()
            # reader holds an io-ref, so close() alone defers the real FD
            # close and the connection would silently stay alive.  Zero
            # linger makes that close a reset: a worker blocked sending a
            # checkpoint into the closed window would otherwise wait out the
            # orphaned socket's FIN_WAIT2 timeout (60 s on Linux).
            try:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT)
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in list(self.threads):
            thread.join(timeout=2.0)

    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed.is_set()

    # ------------------------------------------------------------- threads
    def _spawn(self, target: Callable[..., None], *args: Any) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        thread.start()
        self.threads.append(thread)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down
            with self._lock:
                if self._closed.is_set():
                    conn.close()  # raced close(): it never saw this socket
                    return
                self.connections.append(_no_delay(conn))
            self._spawn(self._handle, conn)

    def _handle(self, conn: socket.socket) -> None:
        try:
            self._serve(conn)
        finally:
            with self._lock:
                self.connections.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _monitor_loop(self) -> None:
        while not self._closed.wait(self._store.monitor_interval):
            self._store.expire_leases()

    # ----------------------------------------------------------- plumbing
    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(max(self._store.lease_seconds * 2.0, 10.0))
        write_lock = threading.Lock()
        worker: Optional[str] = None
        reader = conn.makefile("r", encoding="utf-8")
        try:
            while True:
                try:
                    message = _read(reader)
                except (OSError, ValueError):
                    break
                if message is None:
                    break
                try:
                    kind = message.get("type")
                    if kind == "hello":
                        if (
                            self.token is not None
                            and message.get("token") != self.token
                        ):
                            _send(conn, write_lock, {
                                "type": "reject",
                                "reason": "invalid or missing service token",
                            })
                            break
                        requested = str(message.get("worker") or "")
                        worker = self._store.claim_worker(
                            requested or "anon-worker"
                        )
                        _send(conn, write_lock, {
                            "type": "welcome",
                            "lease_seconds": self._store.lease_seconds,
                            "worker": worker,
                        })
                    elif worker is None:
                        continue  # no completed handshake: ignore the line
                    elif kind == "next":
                        _send(conn, write_lock, self._store.next_reply(worker))
                    elif kind in ("heartbeat", "result", "error",
                                  "checkpoint", "release"):
                        parsed = parse_task_id(message.get("task"))
                        if parsed is None:
                            continue  # corrupt or foreign task id; ignore
                        job_id, position = parsed
                        if kind == "heartbeat":
                            self._store.heartbeat(job_id, position, worker)
                        elif kind == "result":
                            self._store.complete(
                                job_id, position, worker, message["result"]
                            )
                        elif kind == "checkpoint":
                            self._store.checkpoint(
                                job_id, position, worker,
                                message.get("snapshot"),
                            )
                        elif kind == "release":
                            self._store.release(
                                job_id, position, worker,
                                message.get("snapshot"),
                            )
                        else:
                            self._store.error(
                                job_id, position, worker,
                                str(message.get("error")),
                            )
                except (AttributeError, KeyError, TypeError, ValueError):
                    # Structurally invalid message: drop the line, keep the
                    # worker's connection — killing the handler would cost a
                    # lease and an exclusion for one corrupt line.
                    continue
        except OSError:
            pass
        finally:
            if worker is not None:
                self._store.drop_worker(worker)


class SweepService:
    """One ``repro serve`` daemon: JobStore + TCP plane + HTTP plane.

    ``journal_dir``/``cache_dir`` opt into durability: constructing the
    service on a killed daemon's directories replays the journal and
    resumes every live job before either listener opens.
    """

    def __init__(
        self,
        worker_host: str = "127.0.0.1",
        worker_port: int = 0,
        http_host: str = "127.0.0.1",
        http_port: int = 0,
        journal_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        token: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        from repro.runner.cache import ResultCache
        from repro.runner.journal import ServiceJournal
        from repro.service.httpapi import ServiceHTTPServer

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        journal = (
            ServiceJournal(journal_dir) if journal_dir is not None else None
        )
        self.store = JobStore(
            cache=cache,
            journal=journal,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            checkpoint_every=checkpoint_every,
        )
        self.recovered_jobs = self.store.recover()
        self.broker = ServiceBroker(
            self.store, worker_host, worker_port, token=token
        )
        self.http = ServiceHTTPServer(
            self.store, http_host, http_port, token=token
        )
        self._started_at: Optional[float] = None

    def start(self) -> "SweepService":
        self.broker.start()
        try:
            self.http.start()
        except BaseException:
            self.broker.close()
            raise
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        self.http.close()
        self.broker.close()
        self.store.close_journal()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def worker_address(self) -> Tuple[str, int]:
        return self.broker.address

    @property
    def http_url(self) -> str:
        host, port = self.http.address
        return f"http://{connect_host(host)}:{port}"

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at


def run_service(
    bind: str = "127.0.0.1:0",
    http: str = "127.0.0.1:0",
    journal_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    token: Optional[str] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    checkpoint_every: Optional[int] = None,
) -> int:
    """Foreground driver behind ``repro serve``: run until SIGTERM/SIGINT.

    Prints greppable address lines to stderr on startup (the CLI smoke
    tests and ops scripts parse them) and a stats summary on shutdown.
    """
    import signal
    import sys

    worker_host, worker_port = parse_address(bind)
    http_host, http_port = parse_address(http)
    service = SweepService(
        worker_host=worker_host,
        worker_port=worker_port,
        http_host=http_host,
        http_port=http_port,
        journal_dir=journal_dir,
        cache_dir=cache_dir,
        token=token,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        checkpoint_every=checkpoint_every,
    ).start()
    host, port = service.worker_address
    print(
        f"serve: worker plane on {host}:{port} "
        f"(join: python -m repro worker --connect "
        f"{connect_host(host)}:{port} --redial 3600"
        f"{' --token <token>' if token else ''})",
        file=sys.stderr, flush=True,
    )
    print(f"serve: http api on {service.http_url}", file=sys.stderr, flush=True)
    if journal_dir is not None:
        print(
            f"serve: journal in {journal_dir} "
            f"(recovered {service.recovered_jobs} job(s))",
            file=sys.stderr, flush=True,
        )
    if cache_dir is not None:
        print(f"serve: result cache in {cache_dir}", file=sys.stderr, flush=True)
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    stats: Dict[str, Any] = service.store.stats_snapshot()
    service_stats = stats["service"]
    print(
        f"serve: stopped after {service.uptime_seconds():.1f}s — "
        f"{service_stats['jobs_submitted']} job(s) submitted, "
        f"{service_stats['completed']} spec(s) completed, "
        f"{service_stats['short_circuited']} short-circuited, "
        f"{service_stats['coalesced']} coalesced",
        file=sys.stderr, flush=True,
    )
    return 0
