"""The ``serve_open`` workload: an open-loop schedule against ``tcast-serve``.

The daemon runs as a subprocess (``python -m repro.serve.cli run --port
0``, default configuration), so the load generator never competes with
its event loop for the interpreter lock.  The generator is one asyncio
loop in this process driving two TCP connections.

Requests arrive at a fixed rate per phase; the seed picks each request's
kind and its own query seed.  Latency is measured from each request's
*due* time, so a stalled daemon also charges the requests the stall
delayed; how late the generator itself sent is recorded separately.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Single-run query families the coalescing scheduler can batch
#: (distinct ``coalesce_key`` values).
FAMILIES = (
    {"n": 64, "x": 20, "threshold": 8, "algorithm": "2tbins", "collision_model": "1+"},
    {"n": 128, "x": 12, "threshold": 16, "algorithm": "exponential", "collision_model": "1+"},
    {"n": 64, "x": 10, "threshold": 8, "algorithm": "2tbins", "collision_model": "2+"},
)
#: 10% multi-run Monte-Carlo queries on the kernel.
MULTI = {"n": 128, "x": 16, "threshold": 16, "algorithm": "2tbins",
         "collision_model": "1+", "runs": 32}
#: 5% reliable sessions (scalar path through the reliability layer).
RELIABLE = {"n": 64, "x": 20, "threshold": 8, "algorithm": "2tbins",
            "collision_model": "1+", "reliable": "krepeat"}


@dataclass
class Request:
    """One scheduled query."""

    index: int
    due: float  # seconds after the phase starts
    payload: Dict[str, Any]
    line: bytes = b""
    sent_ns: int = 0
    recv_ns: int = 0
    reply: Optional[Dict[str, Any]] = None

    @property
    def runs(self) -> int:
        return int(self.payload.get("runs", 1))

    def latency_s(self, start_ns: int) -> float:
        """Due-time latency; ``inf`` for a missing or failed answer."""
        if self.reply is None or not self.reply.get("ok"):
            return float("inf")
        return (self.recv_ns - start_ns) / 1e9 - self.due


@dataclass
class Phase:
    """A fixed-rate stretch of the schedule."""

    name: str
    rate: float
    seconds: float
    requests: List[Request] = field(default_factory=list)
    start_ns: int = 0

    def fresh_copy(self) -> "Phase":
        """The same scheduled requests, not yet sent."""
        return Phase(self.name, self.rate, self.seconds, [
            Request(r.index, r.due, r.payload, r.line) for r in self.requests
        ])

    def latencies(self) -> List[float]:
        return [r.latency_s(self.start_ns) for r in self.requests]

    def late_s(self) -> float:
        """How far behind its schedule the generator sent, at worst."""
        return max(
            ((r.sent_ns - self.start_ns) / 1e9 - r.due for r in self.requests),
            default=0.0,
        )


#: Request kinds per block of :data:`BLOCK` consecutive requests of a
#: phase; each block is a seeded shuffle, so every stretch of the
#: schedule carries the same mix and seeds differ only in order and
#: query seeds.
BLOCK = 20
BLOCK_KINDS = ("reliable",) * 1 + ("multi",) * 2 + ("single",) * 17

#: Connections the generator drives.
CONNECTIONS = 2
#: How long a window waits for its last answers after its last send.
SETTLE_S = 30.0
#: Daemon start-up and drain limit, in seconds.
DAEMON_TIMEOUT_S = 60.0
#: Socket timeout of one blocking request (``ping``, ``metrics``).
REQUEST_TIMEOUT_S = 10.0


def request_shape(seed: int, phase: str, n: int) -> Dict[str, Any]:
    """Kind, parameters and query seed of the ``n``-th request of ``phase``.

    Drawn from streams keyed by ``(seed, phase, block)`` (the block's
    shuffle) and ``(seed, phase, block, position)`` (the request's
    parameters), so the ``n``-th request of a phase is the same whatever
    the phase lengths are, and so whatever ``--seconds`` is.
    """
    key = zlib.crc32(phase.encode())
    order = np.random.default_rng([seed, key, n // BLOCK]).permutation(BLOCK)
    kind = BLOCK_KINDS[int(order[n % BLOCK])]
    rng = np.random.default_rng([seed, key, n // BLOCK, n % BLOCK + 1])
    if kind == "reliable":
        shape = dict(RELIABLE)
    elif kind == "multi":
        shape = dict(MULTI)
    else:
        shape = dict(FAMILIES[int(rng.integers(len(FAMILIES)))])
    shape["seed"] = int(rng.integers(2**31))
    return shape


def build_schedule(seed: int, phases: Sequence[Phase]) -> None:
    """Fill each phase with its requests: fixed spacing, seeded mix.

    Windows of one phase name continue one request sequence (see
    :func:`request_shape`).  Request ids are ``q<index>`` with one index
    sequence over the whole run, so spans recorded in the daemon can be
    joined back to them.
    """
    index = 0
    seen: Dict[str, int] = {}
    for phase in phases:
        phase.requests = []
        count = max(1, round(phase.rate * phase.seconds))
        for k in range(count):
            n = seen.get(phase.name, 0)
            seen[phase.name] = n + 1
            payload = {
                "op": "query", "id": f"q{index}", "tenant": "bench",
                **request_shape(seed, phase.name, n),
            }
            phase.requests.append(
                Request(index, k / phase.rate, payload,
                        (json.dumps(payload) + "\n").encode())
            )
            index += 1


class LoadClient:
    """:data:`CONNECTIONS` pipelined connections driven by one asyncio loop."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._streams: List[Any] = []
        self._readers: List["asyncio.Task[None]"] = []
        self._pending: Dict[str, Request] = {}
        self._done = asyncio.Event()

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self._streams.append(writer)
            self._readers.append(asyncio.get_running_loop().create_task(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter_ns()
            reply = json.loads(line)
            req = self._pending.pop(reply.get("id"), None)
            if req is not None:
                req.recv_ns = now
                req.reply = reply
                if not self._pending:
                    self._done.set()

    async def run_phase(self, phase: Phase) -> None:
        """Send the phase on schedule, then wait for every answer."""
        self._done.clear()
        for req in phase.requests:
            self._pending[req.payload["id"]] = req
        start = time.perf_counter_ns() + 2_000_000
        phase.start_ns = start
        for i, req in enumerate(phase.requests):
            wait = (start + int(req.due * 1e9) - time.perf_counter_ns()) / 1e9
            if wait > 0:
                await asyncio.sleep(wait)
            writer = self._streams[i % len(self._streams)]
            req.sent_ns = time.perf_counter_ns()
            writer.write(req.line)
            await writer.drain()
        if self._pending:
            try:
                await asyncio.wait_for(self._done.wait(), SETTLE_S)
            except asyncio.TimeoutError:
                pass
        self._pending.clear()

    async def close(self) -> None:
        for writer in self._streams:
            writer.close()
        for writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            try:
                await asyncio.wait_for(task, 5.0)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                task.cancel()


def request_once(port: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    """One blocking request/response on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
    return json.loads(buf)


class Daemon:
    """One ``tcast-serve run --port 0`` subprocess.

    Args:
        root: The checkout root (``src/`` goes on ``PYTHONPATH``).
        work: Scratch directory for the daemon's output files.
        spans_path: When set, start through ``perfbench/serve_launcher.py``
            with the span wrappers installed, writing spans there.
    """

    def __init__(self, root: pathlib.Path, work: pathlib.Path, tag: str,
                 spans_path: Optional[pathlib.Path] = None) -> None:
        self.root = root
        self.out_path = work / f"daemon-{tag}.out"
        self.err_path = work / f"daemon-{tag}.err"
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.exit_code: Optional[int] = None
        self.stderr = ""

    def start(self) -> None:
        """Spawn and wait until a ``ping`` is answered (timed as set-up)."""
        args = ["run", "--port", "0"]
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.serve.cli", *args]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "serve_launcher.py"),
                   str(self.spans_path), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        start = time.perf_counter()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                         stdout=out, stderr=err)
        deadline = start + DAEMON_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"daemon failed to start: {self.stderr[-2000:]}")
            text = self.out_path.read_text(errors="replace")
            if "listening on" in text:
                self.port = int(text.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
            else:
                time.sleep(0.005)
        while True:
            try:
                reply = request_once(self.port, {"op": "ping", "id": "ping"})
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
                continue
            if reply.get("ok"):
                break
        self.setup_s = time.perf_counter() - start

    def metrics(self) -> Dict[str, Any]:
        """The daemon's live ``repro.obs`` snapshot (``metrics`` op)."""
        return request_once(self.port, {"op": "metrics", "id": "metrics"})["metrics"]

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        assert self.proc is not None
        for line in pathlib.Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM, wait for the drained exit, keep exit code and stderr."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.exit_code = self.proc.returncode
        self.stderr = self.err_path.read_text(errors="replace")
        self.proc = None

    @property
    def tracebacks(self) -> int:
        return self.stderr.count("Traceback (most recent call last)")
