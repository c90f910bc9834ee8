"""The asyncio front end: newline-JSON over TCP, drained shutdown.

Protocol -- one JSON object per line, in both directions.  Requests
carry an ``op``:

* ``{"op": "query", ...}`` -- a threshold query
  (:meth:`repro.serve.request.QueryRequest.from_wire` fields).  The
  response echoes ``id`` and carries ``decisions``/``queries``/
  ``exact``/``batched`` on success, or ``status`` 400/429/500/504 plus
  an ``error`` object on rejection.  Responses may arrive out of order
  relative to pipelined requests; correlate by ``id``.
* ``{"op": "metrics"}`` -- the live merged :mod:`repro.obs`
  :class:`~repro.obs.MetricsSnapshot` as JSON.
* ``{"op": "ping"}`` -- liveness probe.
* ``{"op": "shutdown"}`` -- ask the service to drain and exit (the
  programmatic twin of SIGTERM).

Connection hardening (DESIGN.md section 17) -- the read loop survives
hostile or broken clients:

* an **idle timeout** closes connections that stop sending
  (``serve.conn_idle_closed``), so a slow-loris client cannot pin a
  connection slot forever;
* a **max-connections cap** refuses new connections with an explicit
  503-style frame (``serve.rejected.conn_limit``) instead of letting
  accept backlogs grow unboundedly;
* an **oversized line** is discarded up to its terminating newline and
  answered with a 400 frame (``serve.rejected.oversized``) -- the
  connection lives on; a partial final frame at disconnect is simply
  dropped (there is no one left to answer);
* a **per-connection in-flight cap** applies backpressure: once a
  client has ``max_inflight_per_conn`` queries outstanding the read
  loop stops consuming its socket until one finishes
  (``serve.conn_throttled``), so a single pipelining client cannot
  monopolise the scheduler queue.

Shutdown -- on SIGTERM/SIGINT (or the ``shutdown`` op) the service
**drains**: admission sheds everything new with 429 ``draining``
rejections, every already-admitted query runs to completion and its
response is flushed, then connections close and the process exits 0.
In-flight work is never dropped -- though a request that exceeds its
``deadline_ms`` mid-drain still gets its 504 frame rather than an
answer.

:func:`serve_in_thread` runs the whole service on a background thread's
event loop -- the harness tests and the benchmark drive a real TCP
service in-process with it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.obs import enable_metrics, get_registry, snapshot_metrics
from repro.serve.admission import (
    REASON_DEADLINE,
    AdmissionController,
    AdmissionPolicy,
)
from repro.serve.errors import ServeError
from repro.serve.request import QueryRequest, RequestError
from repro.serve.scheduler import BatchScheduler

_OBS = get_registry()
_REJ_CONN_LIMIT = _OBS.counter("serve.rejected.conn_limit")
_REJ_OVERSIZED = _OBS.counter("serve.rejected.oversized")
_CONN_IDLE_CLOSED = _OBS.counter("serve.conn_idle_closed")
_CONN_THROTTLED = _OBS.counter("serve.conn_throttled")

#: Default cap on one request line; longer lines get a 400 frame and are
#: discarded up to their newline (the connection survives).
MAX_LINE_BYTES = 1 << 20

#: Statuses per admission rejection reason: deadline rejections are
#: 504-style (the request died of old age, not of load), all other
#: sheds are 429-style.
_REASON_STATUS = {REASON_DEADLINE: 504}

#: Sentinel returned by the frame reader for an oversized-but-recovered
#: line (distinct from EOF, which is ``None``).
_OVERSIZED = object()


class _FrameReader:
    """Newline framing over a stream, hardened against hostile input.

    Owns its buffer (instead of leaning on ``StreamReader.readuntil``)
    so an oversized line can be discarded up to its newline and the
    connection kept alive, and so pipelined frames arriving in one TCP
    segment are split correctly.

    Frames of up to ``max_line_bytes`` *content* bytes (the newline not
    counted) are accepted -- a line at exactly the cap is valid, one
    byte more is oversized.

    Args:
        reader: The connection's stream reader.
        max_line_bytes: Frame content cap.
        idle_timeout: Seconds with no bytes at all between frames
            before :class:`TimeoutError`; ``0`` disables.
        read_deadline: Seconds a started frame may take to complete
            before :class:`TimeoutError`; ``0`` disables.
    """

    _CHUNK = 1 << 16

    def __init__(
        self,
        reader: asyncio.StreamReader,
        *,
        max_line_bytes: int,
        idle_timeout: float,
        read_deadline: float,
    ) -> None:
        self._reader = reader
        self._max = max_line_bytes
        self._idle = idle_timeout
        self._deadline = read_deadline
        self._buf = bytearray()
        self._discarding = False

    async def next_frame(self) -> object:
        """The next complete frame.

        Returns:
            Frame bytes, ``None`` at EOF (a partial final frame at
            disconnect is dropped -- there is nobody left to answer),
            or :data:`_OVERSIZED` after a too-long line was discarded
            up to its newline (the caller answers with a 400 frame and
            the connection lives on).

        Raises:
            TimeoutError: On idle timeout or a blown frame deadline.
        """
        loop = asyncio.get_running_loop()
        frame_start = loop.time() if self._buf else None
        while True:
            newline = self._buf.find(b"\n")
            if newline != -1:
                if self._discarding:
                    del self._buf[: newline + 1]
                    self._discarding = False
                    return _OVERSIZED
                if newline > self._max:
                    # The whole oversized line arrived buffered at once.
                    del self._buf[: newline + 1]
                    return _OVERSIZED
                frame = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                return frame
            if self._discarding:
                self._buf.clear()
            elif len(self._buf) > self._max:
                self._discarding = True
                self._buf.clear()
            timeout: Optional[float] = self._idle or None
            if frame_start is not None and self._deadline > 0:
                remaining = self._deadline - (loop.time() - frame_start)
                if remaining <= 0:
                    raise TimeoutError("frame read deadline exceeded")
                timeout = min(timeout, remaining) if timeout else remaining
            chunk = await asyncio.wait_for(
                self._reader.read(self._CHUNK), timeout=timeout
            )
            if not chunk:
                return None
            if frame_start is None:
                frame_start = loop.time()
            self._buf.extend(chunk)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs, in one picklable bundle.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` picks a free one (read it back from
            :attr:`ThresholdQueryService.port`).
        max_pending: Global admitted-but-unfinished cap.
        tenant_rate: Per-tenant sustained requests/second (0 = off).
        tenant_burst: Per-tenant burst capacity.
        max_batch_runs: Cap on total trials per coalesced batch.
        workers: Scheduler executor lanes.
        vectorize: Allow the vectorized kernel.
        metrics: Enable the :mod:`repro.obs` registry on startup so the
            ``metrics`` endpoint reports live counters.
        max_connections: Cap on concurrently served connections;
            connections beyond it are refused with a 503-style frame.
        max_line_bytes: Cap on one request line (see module docstring).
        idle_timeout: Seconds a connection may sit between request
            lines before the service closes it; ``0`` disables.
        read_deadline: Seconds a *started* frame may take to reach its
            newline before the connection is closed -- the slow-loris
            bound (trickling bytes resets an idle timer but not this
            one); ``0`` disables.
        max_inflight_per_conn: Outstanding queries one connection may
            hold before its read loop is backpressured.
        codel_target_ms: Scheduler watchdog queue-wait p50 target;
            ``0`` disables CoDel shedding (see
            :class:`repro.serve.scheduler.BatchScheduler`).
        codel_interval_ms: Scheduler watchdog sampling period.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 1024
    tenant_rate: float = 0.0
    tenant_burst: float = 64.0
    max_batch_runs: int = 4096
    workers: int = 2
    vectorize: bool = True
    metrics: bool = True
    max_connections: int = 256
    max_line_bytes: int = MAX_LINE_BYTES
    idle_timeout: float = 300.0
    read_deadline: float = 30.0
    max_inflight_per_conn: int = 128
    codel_target_ms: float = 0.0
    codel_interval_ms: float = 100.0


def _error_response(
    rid: Optional[str], status: int, code: str, message: str
) -> Dict[str, Any]:
    """A failed-request payload (400-style parse errors, 429-style sheds)."""
    return {
        "id": rid,
        "ok": False,
        "status": status,
        "error": {"code": code, "message": message},
    }


class ThresholdQueryService:
    """The long-lived service: admission, scheduling, TCP front end.

    Construct, then either :meth:`run` (binds, installs signal
    handlers, blocks until drained shutdown -- the CLI path) or
    :meth:`start` / :meth:`shutdown` for embedded use.

    Args:
        config: The service configuration.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.admission = AdmissionController(
            AdmissionPolicy(
                max_pending=config.max_pending,
                tenant_rate=config.tenant_rate,
                tenant_burst=config.tenant_burst,
            )
        )
        self.scheduler = BatchScheduler(
            max_batch_runs=config.max_batch_runs,
            workers=config.workers,
            vectorize=config.vectorize,
            codel_target_ms=config.codel_target_ms,
            codel_interval_ms=config.codel_interval_ms,
        )
        self._server: Optional[asyncio.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._inflight: Set["asyncio.Task[None]"] = set()
        #: Open connections: writer -> the task running its handler.
        self._connections: Dict[asyncio.StreamWriter, "asyncio.Task[Any]"] = {}
        self.port: int = config.port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler workers."""
        if self.config.metrics:
            enable_metrics()
        self._stop_event = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = int(sock.getsockname()[1])
            break

    def request_shutdown(self) -> None:
        """Flip the stop flag (signal handlers, the ``shutdown`` op)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def wait_stopped(self) -> None:
        """Block until a shutdown has been requested."""
        assert self._stop_event is not None, "service not started"
        await self._stop_event.wait()

    async def shutdown(self) -> None:
        """Drain and stop: finish in-flight queries, flush, close.

        The drain order is the correctness argument: shed new work
        first, let every admitted query finish and write its response,
        only then tear down connections and the listener.
        """
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        await self.scheduler.drain()
        handlers = tuple(self._connections.values())
        for writer in tuple(self._connections):
            writer.close()
        # A closed transport hands an idle read loop EOF, so every
        # handler returns on its own; wait for that rather than leave
        # them for the loop's teardown to cancel mid-read (the streams
        # callback then reports the cancellation as a traceback).
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def run(self) -> int:
        """CLI path: serve until SIGTERM/SIGINT, drain, exit 0."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)
        print(f"tcast-serve: listening on {self.config.host}:{self.port}", flush=True)
        try:
            await self.wait_stopped()
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            await self.shutdown()
        return 0

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: read lines, dispatch, write responses."""
        write_lock = asyncio.Lock()
        if len(self._connections) >= self.config.max_connections:
            _REJ_CONN_LIMIT.inc()
            await self._write(
                writer,
                write_lock,
                _error_response(
                    None,
                    503,
                    "conn_limit",
                    f"connection refused: {self.config.max_connections} "
                    "connections already open",
                ),
            )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[writer] = handler
        frames = _FrameReader(
            reader,
            max_line_bytes=self.config.max_line_bytes,
            idle_timeout=self.config.idle_timeout,
            read_deadline=self.config.read_deadline,
        )
        tasks: Set["asyncio.Task[None]"] = set()
        try:
            while True:
                if len(tasks) >= self.config.max_inflight_per_conn:
                    # Backpressure: stop reading this socket until one
                    # outstanding query finishes.  The client's own send
                    # buffer fills; the scheduler queue does not.
                    _CONN_THROTTLED.inc()
                    await asyncio.wait(
                        tasks, return_when=asyncio.FIRST_COMPLETED
                    )
                    continue
                try:
                    frame = await frames.next_frame()
                except (asyncio.TimeoutError, TimeoutError):
                    _CONN_IDLE_CLOSED.inc()
                    break
                except (ConnectionError, OSError, ValueError):
                    break
                if frame is None:
                    break
                if frame is _OVERSIZED:
                    _REJ_OVERSIZED.inc()
                    await self._write(
                        writer,
                        write_lock,
                        _error_response(
                            None,
                            400,
                            "line_too_long",
                            f"request line exceeded "
                            f"{self.config.max_line_bytes} bytes",
                        ),
                    )
                    continue
                assert isinstance(frame, bytes)
                stripped = frame.strip()
                if not stripped:
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(stripped, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        payload: Dict[str, Any],
    ) -> None:
        """Serialise one response line under the connection's write lock."""
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        async with lock:
            if writer.is_closing():
                return
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        raw: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Parse and answer one request line."""
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            await self._write(
                writer,
                lock,
                _error_response(None, 400, "bad_json", f"invalid JSON: {exc}"),
            )
            return
        if not isinstance(obj, dict):
            await self._write(
                writer,
                lock,
                _error_response(None, 400, "bad_request", "expected a JSON object"),
            )
            return
        op = obj.get("op", "query")
        rid = obj.get("id") if isinstance(obj.get("id"), str) else None
        if op == "ping":
            await self._write(writer, lock, {"id": rid, "ok": True, "op": "ping"})
        elif op == "metrics":
            await self._write(
                writer,
                lock,
                {
                    "id": rid,
                    "ok": True,
                    "op": "metrics",
                    "metrics": snapshot_metrics().to_dict(),
                },
            )
        elif op == "shutdown":
            await self._write(
                writer, lock, {"id": rid, "ok": True, "op": "shutdown"}
            )
            self.request_shutdown()
        elif op == "query":
            await self._answer_query(obj, writer, lock)
        else:
            await self._write(
                writer,
                lock,
                _error_response(rid, 400, "bad_op", f"unknown op {op!r}"),
            )

    async def _answer_query(
        self,
        obj: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Admit, schedule and answer one query request."""
        rid = obj.get("id") if isinstance(obj.get("id"), str) else None
        try:
            request = QueryRequest.from_wire(obj)
        except RequestError as exc:
            await self._write(
                writer, lock, _error_response(rid, 400, exc.code, str(exc))
            )
            return
        reason = self.admission.admit(request)
        if reason is not None:
            await self._write(
                writer,
                lock,
                _error_response(
                    request.id,
                    _REASON_STATUS.get(reason, 429),
                    reason,
                    f"request shed: {reason}",
                ),
            )
            return
        try:
            outcome = await self.scheduler.submit(request)
        except ServeError as exc:
            await self._write(
                writer,
                lock,
                _error_response(request.id, exc.status, exc.code, str(exc)),
            )
            return
        except Exception as exc:
            await self._write(
                writer,
                lock,
                _error_response(request.id, 500, "internal", repr(exc)),
            )
            return
        finally:
            self.admission.release()
        await self._write(
            writer,
            lock,
            {
                "id": request.id,
                "ok": True,
                "status": 200,
                "decisions": list(outcome.decisions),
                "queries": list(outcome.queries),
                "exact": outcome.exact,
                "batched": outcome.batched,
            },
        )


class ServiceHandle:
    """A service running on a background thread's event loop.

    Built by :func:`serve_in_thread`; exposes the bound port and a
    blocking :meth:`stop` that performs the full graceful drain.
    """

    def __init__(
        self,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        service: ThresholdQueryService,
    ) -> None:
        self._thread = thread
        self._loop = loop
        self.service = service

    @property
    def port(self) -> int:
        """The service's bound TCP port."""
        return self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown and join the service thread (drains first)."""
        self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        """Context-manager entry: the handle itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: graceful stop."""
        self.stop()


def serve_in_thread(config: ServeConfig) -> ServiceHandle:
    """Start a service on a fresh background event loop; return its handle.

    Blocks until the listener is bound (so :attr:`ServiceHandle.port` is
    valid immediately), which makes it the natural harness for tests and
    the benchmark: real TCP, real scheduler, no subprocess.
    """
    service = ThresholdQueryService(config)
    started = threading.Event()
    boot_error: Dict[str, BaseException] = {}
    loop_box: Dict[str, asyncio.AbstractEventLoop] = {}

    def _thread_main() -> None:
        async def _amain() -> None:
            loop_box["loop"] = asyncio.get_running_loop()
            try:
                await service.start()
            except BaseException as exc:  # surface bind errors to the caller
                boot_error["error"] = exc
                started.set()
                raise
            started.set()
            await service.wait_stopped()
            await service.shutdown()

        try:
            asyncio.run(_amain())
        except BaseException:
            if not started.is_set():
                started.set()

    thread = threading.Thread(
        target=_thread_main, name="tcast-serve", daemon=True
    )
    thread.start()
    started.wait(timeout=30.0)
    if "error" in boot_error:
        thread.join(timeout=5.0)
        raise RuntimeError(
            f"service failed to start: {boot_error['error']!r}"
        ) from boot_error["error"]
    if "loop" not in loop_box:
        raise RuntimeError("service thread did not start in time")
    return ServiceHandle(thread, loop_box["loop"], service)
