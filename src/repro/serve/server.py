"""The simulation service: asyncio HTTP/JSON over ``execute_jobs``.

Architecture (one event loop, N worker tasks, jobs in threads)::

    client ──HTTP──▶ event loop ──▶ FairScheduler ──▶ worker task
                        │   ▲        (per-client FIFO,      │
                        │   │         round-robin,          ▼
                   dedup map│         bounded)      asyncio.to_thread
                   (in-flight +                             │
                    warm cache)                      execute_jobs(...)
                                                     └─ ResultCache

Every piece of job state (:class:`JobRecord`, the dedup map, the
scheduler) is mutated **only on the event-loop thread**; the only code
that runs elsewhere is the simulation itself, pushed into a thread via
``asyncio.to_thread`` so the loop keeps answering status requests
while simulations run. Because loop code between two ``await`` points
is atomic, submission's check-then-insert on the dedup map needs no
locks: identical concurrent submissions always coalesce onto one
record, and a warm :class:`ResultCache` answers without queueing at
all — a million identical requests cost one simulation.

Load shedding is all-or-nothing per submission: a batch whose *new*
jobs (after dedup and cache short-circuits) do not fit in the bounded
queue is refused with 429 ``{"error": "backpressure"}`` and no state
change, so a retrying client never half-submits a sweep.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import BackpressureError, ReproError, ServeError
from ..exec.cache import ResultCache
from ..exec.jobs import JobSpec
from ..exec.pool import execute_jobs
from ..exec.serialize import result_to_dict
from ..obs import PROM_CONTENT_TYPE, get_registry, render_prometheus, span
from .protocol import (
    ERROR_BACKPRESSURE,
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_NOT_DONE,
    ERROR_NOT_FOUND,
    ERROR_TOO_LARGE,
    MAX_BODY_BYTES,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    DEFAULT_PORT,
    error_payload,
    is_job_id,
    job_status_payload,
    parse_submission,
)
from .scheduler import DEFAULT_QUEUE_LIMIT, FairScheduler, JobRecord

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Provenance value for jobs answered straight from the warm cache at
#: submission time (never queued; distinct from a pool-run cache probe).
SOURCE_WARM_CACHE = "cache"


@dataclass
class RawResponse:
    """A non-JSON response body (the Prometheus exposition document).

    ``_respond`` serialises everything else as JSON; routes return one
    of these when the payload is already encoded and carries its own
    content type.
    """

    body: bytes
    content_type: str


@dataclass
class ServeConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT  # 0 binds an ephemeral port (tests)
    #: Concurrent simulations (worker tasks, each running jobs in a thread).
    workers: int = 2
    #: Global queued-job bound; beyond it submissions get backpressure.
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: Shared content-addressed result store (None disables caching).
    cache: Optional[ResultCache] = None
    #: ``max_workers`` handed to ``execute_jobs`` per job (1 = in-thread).
    job_workers: int = 1
    #: Heartbeat cadence for per-job progress lines (None disables).
    heartbeat_interval: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.job_workers < 1:
            raise ServeError(f"job_workers must be >= 1, got {self.job_workers}")


class ReproServer:
    """One service instance; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._scheduler = FairScheduler(self.config.queue_limit)
        self._records: Dict[str, JobRecord] = {}
        self._wake = asyncio.Event()
        self._stopping = False
        self._inflight = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: List[asyncio.Task] = []
        self._started_s = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._workers = [
            asyncio.create_task(self._worker(n), name=f"serve-worker-{n}")
            for n in range(self.config.workers)
        ]

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started", status=500)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, let in-flight jobs finish, drop queued work."""
        self._stopping = True
        self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        await self.start()
        await stop_event.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # worker tasks
    # ------------------------------------------------------------------
    async def _worker(self, n: int) -> None:  # noqa: ARG002 (task name)
        while not self._stopping:
            record = self._scheduler.pop()
            if record is None:
                # Loop code between awaits is atomic: nothing can
                # enqueue between pop() and clear(), so no lost wakeup.
                self._wake.clear()
                await self._wake.wait()
                continue
            await self._execute(record)

    async def _execute(self, record: JobRecord) -> None:
        registry = get_registry()
        record.state = STATE_RUNNING
        self._inflight += 1
        self._update_gauges()
        start = time.perf_counter()
        job_span = span(
            "serve.execute",
            job=record.id[:12],
            policy=record.spec.policy,
            client=record.client,
        )
        try:
            outcome = await asyncio.to_thread(self._run_record, record)
        except ReproError as exc:
            record.error = str(exc)
            record.state = STATE_FAILED
            registry.counter("serve.failed").inc()
        except Exception as exc:  # defensive: a bug must not kill the worker
            record.error = f"internal error: {exc}"
            record.state = STATE_FAILED
            registry.counter("serve.failed").inc()
        else:
            if outcome and outcome.profiles:
                record.result = result_to_dict(outcome[0])
                record.source = outcome.profiles[0].source
                record.state = STATE_DONE
                registry.counter("serve.completed").inc()
            else:  # interrupted/empty batch: report rather than hang waiters
                record.error = "execution returned no result"
                record.state = STATE_FAILED
                registry.counter("serve.failed").inc()
        finally:
            record.wall_s = time.perf_counter() - start
            job_span.set(source=record.source, state=record.state)
            job_span.finish("ok" if record.state == STATE_DONE else "error")
            registry.histogram("serve.job_wall_s").observe(record.wall_s)
            self._inflight -= 1
            self._update_gauges()

    def _run_record(self, record: JobRecord):
        """Runs on a worker thread: the only code off the event loop."""
        return execute_jobs(
            [record.spec],
            max_workers=self.config.job_workers,
            cache=self.config.cache,
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_emit=record.progress.append,
        )

    # ------------------------------------------------------------------
    # submission (event-loop thread only)
    # ------------------------------------------------------------------
    def _submit(self, client: str, specs: List[JobSpec]) -> List[JobRecord]:
        """Dedup, warm-cache short-circuit, and enqueue one submission.

        Atomic per batch: state changes only after the whole batch is
        known to fit, so backpressure refuses cleanly.
        """
        registry = get_registry()
        now = time.time()
        planned: List[Tuple[str, Any]] = []
        batch_new: Dict[str, JobRecord] = {}
        for spec in specs:
            key = spec.key()
            existing = self._records.get(key)
            if existing is not None and existing.state != STATE_FAILED:
                planned.append(("coalesce", existing))
                continue
            dup = batch_new.get(key)
            if dup is not None:  # same spec twice in one batch
                planned.append(("coalesce", dup))
                continue
            cached = self._probe_cache(spec)
            if cached is not None:
                record = JobRecord(
                    id=key, spec=spec, client=client, state=STATE_DONE,
                    submitted_s=now, wall_s=0.0, source=SOURCE_WARM_CACHE,
                    result=cached,
                )
                planned.append(("cached", record))
                continue
            record = JobRecord(id=key, spec=spec, client=client, submitted_s=now)
            batch_new[key] = record
            planned.append(("enqueue", record))

        fresh = [r for verb, r in planned if verb == "enqueue"]
        if len(fresh) > self._scheduler.room():
            registry.counter("serve.backpressure").inc()
            raise BackpressureError(
                f"queue is full ({self._scheduler.depth()}/"
                f"{self._scheduler.queue_limit} queued); retry later"
            )

        receipts: List[JobRecord] = []
        for verb, record in planned:
            if verb == "coalesce":
                record.coalesced += 1
                registry.counter("serve.coalesced").inc()
            elif verb == "cached":
                self._records[record.id] = record
                registry.counter("serve.cache_short_circuits").inc()
            else:
                self._records[record.id] = record
                self._scheduler.enqueue(record)
            receipts.append(record)
        registry.counter("serve.submitted").inc(len(specs))
        if fresh:
            self._wake.set()
        self._update_gauges()
        return receipts

    def _probe_cache(self, spec: JobSpec) -> Optional[dict]:
        """Serialised cached result for ``spec``, or ``None``.

        Runs synchronously on the loop: entries are small JSON files
        and doing the probe without an ``await`` is what makes
        check-then-insert on the dedup map race-free.
        """
        if self.config.cache is None:
            return None
        hit = self.config.cache.get(spec)
        return None if hit is None else result_to_dict(hit)

    def _update_gauges(self) -> None:
        # Queue gauges (serve.queue_depth / serve.queue_clients) are
        # maintained by the scheduler itself at every enqueue/pop.
        registry = get_registry()
        registry.gauge("serve.inflight").set(self._inflight)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except ServeError as exc:
                code = ERROR_TOO_LARGE if exc.status == 413 else ERROR_BAD_REQUEST
                await self._respond(
                    writer, exc.status, error_payload(str(exc), error=code)
                )
                return
            with span("serve.request", method=method, path=path):
                status, payload = self._dispatch(method, path, body, query)
            await self._respond(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, str, bytes]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("empty request")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ServeError(f"malformed request line: {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServeError("Content-Length is not an integer") from None
        if length < 0:
            raise ServeError("Content-Length is negative")
        if length > MAX_BODY_BYTES:
            raise ServeError(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, query, body

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int,
        payload: Union[Any, RawResponse],
    ) -> None:
        if isinstance(payload, RawResponse):
            body, content_type = payload.body, payload.content_type
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _dispatch(
        self, method: str, path: str, body: bytes, query: str = ""
    ) -> Tuple[int, Any]:
        if path == "/healthz":
            if method != "GET":
                return 405, error_payload("use GET", error=ERROR_BAD_REQUEST)
            return 200, {"status": "ok", "uptime_s": time.time() - self._started_s}
        if path == "/metrics":
            if method != "GET":
                return 405, error_payload("use GET", error=ERROR_BAD_REQUEST)
            params = urllib.parse.parse_qs(query)
            fmt = params.get("format", ["json"])[-1]
            if fmt == "prom":
                return 200, self._prometheus_response()
            if fmt != "json":
                return 400, error_payload(
                    f"unknown metrics format {fmt!r} (use json or prom)",
                    error=ERROR_BAD_REQUEST,
                )
            return 200, self._metrics_payload()
        if path == "/jobs":
            if method == "POST":
                return self._route_submit(body)
            if method == "GET":
                return 200, {"jobs": [self._status_payload(r)
                                      for r in self._records.values()]}
            return 405, error_payload("use GET or POST", error=ERROR_BAD_REQUEST)
        if path.startswith("/jobs/"):
            return self._route_job(method, path)
        return 404, error_payload(f"no such route: {path}", error=ERROR_NOT_FOUND)

    def _route_submit(self, body: bytes) -> Tuple[int, Any]:
        try:
            client, specs = parse_submission(body)
            receipts = self._submit(client, specs)
        except BackpressureError as exc:
            return exc.status, error_payload(str(exc), error=ERROR_BACKPRESSURE)
        except ServeError as exc:
            return exc.status, error_payload(str(exc), error=ERROR_BAD_REQUEST)
        except ReproError as exc:
            return 400, error_payload(str(exc), error=ERROR_BAD_REQUEST)
        payloads = [self._status_payload(r) for r in receipts]
        if len(payloads) == 1:
            return 202, payloads[0]
        return 202, {"jobs": payloads}

    def _route_job(self, method: str, path: str) -> Tuple[int, Any]:
        if method != "GET":
            return 405, error_payload("use GET", error=ERROR_BAD_REQUEST)
        parts = path.strip("/").split("/")  # jobs / <id> [/ result]
        job_id = parts[1] if len(parts) > 1 else ""
        if not is_job_id(job_id):
            return 400, error_payload(
                f"malformed job id {job_id!r} (expect 64 hex chars)",
                error=ERROR_BAD_REQUEST,
            )
        record = self._records.get(job_id)
        if record is None:
            return 404, error_payload(f"unknown job {job_id}", error=ERROR_NOT_FOUND)
        if len(parts) == 2:
            return 200, self._status_payload(record)
        if len(parts) == 3 and parts[2] == "result":
            if record.state == STATE_DONE:
                return 200, {"id": record.id, "source": record.source,
                             "result": record.result}
            if record.state == STATE_FAILED:
                return 409, error_payload(
                    f"job failed: {record.error}", error=ERROR_NOT_DONE
                )
            return 409, error_payload(
                f"job is {record.state}; result not available yet",
                error=ERROR_NOT_DONE,
            )
        return 404, error_payload(f"no such route: {path}", error=ERROR_NOT_FOUND)

    def _status_payload(self, record: JobRecord) -> Dict[str, Any]:
        return job_status_payload(
            record.id,
            record.state,
            record.client,
            coalesced=record.coalesced,
            source=record.source,
            error=record.error,
            submitted_s=record.submitted_s,
            wall_s=record.wall_s,
            progress=record.progress,
            workload=record.spec.workload.label,
            policy=record.spec.policy,
            system=record.spec.system.label,
        )

    def _metrics_payload(self) -> Dict[str, Any]:
        states = collections.Counter(r.state for r in self._records.values())
        cache = self.config.cache
        cache_stats = cache.stats().as_dict() if cache is not None else None
        hit_rate: Optional[float] = None
        if cache_stats is not None:
            lookups = cache_stats["hits"] + cache_stats["misses"]
            if lookups:
                hit_rate = cache_stats["hits"] / lookups
        return {
            "serve": {
                "uptime_s": time.time() - self._started_s,
                "workers": self.config.workers,
                "queue_depth": self._scheduler.depth(),
                "queue_limit": self._scheduler.queue_limit,
                "queued_by_client": self._scheduler.depths_by_client(),
                "inflight": self._inflight,
                "jobs": {
                    "total": len(self._records),
                    STATE_QUEUED: states.get(STATE_QUEUED, 0),
                    STATE_RUNNING: states.get(STATE_RUNNING, 0),
                    STATE_DONE: states.get(STATE_DONE, 0),
                    STATE_FAILED: states.get(STATE_FAILED, 0),
                },
                "cache": cache_stats,
                "cache_hit_rate": hit_rate,
            },
            "registry": get_registry().snapshot(),
        }

    def _prometheus_response(self) -> RawResponse:
        """``/metrics?format=prom``: the registry plus point-in-time
        server facts (uptime, job states, queue bound) as extra gauges,
        in Prometheus text-exposition 0.0.4."""
        states = collections.Counter(r.state for r in self._records.values())
        extra: Dict[str, float] = {
            "serve.uptime_s": time.time() - self._started_s,
            "serve.workers": self.config.workers,
            "serve.queue_limit": self._scheduler.queue_limit,
            "serve.jobs": len(self._records),
        }
        for state in (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED):
            extra[f"serve.jobs_{state}"] = states.get(state, 0)
        cache = self.config.cache
        if cache is not None:
            stats = cache.stats().as_dict()
            for key, value in stats.items():
                extra[f"serve.cache_{key}"] = value
        text = render_prometheus(get_registry(), extra_gauges=extra)
        return RawResponse(text.encode("utf-8"), PROM_CONTENT_TYPE)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve_forever(config: Optional[ServeConfig] = None) -> int:
    """Blocking entry point for ``repro serve``: run until SIGINT/SIGTERM."""
    import signal

    config = config or ServeConfig()

    async def _main() -> None:
        server = ReproServer(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # non-Unix hosts
                pass
        await server.start()
        import sys

        print(
            f"repro serve listening on http://{config.host}:{server.port} "
            f"({config.workers} worker(s), queue limit "
            f"{config.queue_limit}, cache "
            f"{'at ' + str(config.cache.root) if config.cache else 'disabled'})",
            file=sys.stderr,
        )
        await stop.wait()
        print("shutting down (in-flight jobs finish, queued jobs drop)",
              file=sys.stderr)
        await server.stop()

    asyncio.run(_main())
    return 0


@dataclass
class ServerHandle:
    """A live background server (tests, the demo script)."""

    server: ReproServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    stop_event: asyncio.Event
    port: int = 0

    @property
    def host(self) -> str:
        return self.server.config.host

    def stop(self, timeout: float = 30.0) -> None:
        self.loop.call_soon_threadsafe(self.stop_event.set)
        self.thread.join(timeout=timeout)


@contextlib.contextmanager
def serve_in_thread(config: Optional[ServeConfig] = None):
    """Run a server on a background thread; yields a :class:`ServerHandle`.

    Binds an ephemeral port by default (``port=0``) so parallel test
    runs never collide.
    """
    config = config or ServeConfig(port=0)
    server = ReproServer(config)
    started = threading.Event()
    boot_error: List[BaseException] = []
    handle_box: List[ServerHandle] = []

    def _runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind failures to the caller
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        handle = ServerHandle(
            server=server, thread=thread, loop=loop, stop_event=stop,
            port=server.port,
        )
        handle_box.append(handle)
        started.set()
        try:
            loop.run_until_complete(stop.wait())
            loop.run_until_complete(server.stop())
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, name="repro-serve", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if boot_error:
        raise ServeError(f"server failed to start: {boot_error[0]}", status=500)
    if not handle_box:
        raise ServeError("server failed to start within 30s", status=500)
    handle = handle_box[0]
    try:
        yield handle
    finally:
        handle.stop()
