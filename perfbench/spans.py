"""Span tracing around the program's public calls, from outside ``src/``.

A :class:`Tracer` wraps functions of the program's layers (see
:func:`install`) and records one span per call: ``(span id, parent id,
name, start, end, self time, request id, size)``, all integers
(nanoseconds on the host's monotonic clock, which every process on the
host shares).  Self time is the span's duration minus the time its child
spans cover; children are the wrapped calls made while the span is open
on the same thread.

Spans stay in memory, one buffer per thread, and are written out at the
end: :meth:`Tracer.dump` appends the raw records to a file.  Forked pool
workers inherit the wrappers and start with empty buffers; each worker
appends its spans after every shard, because pool workers exit without
running exit hooks.  :func:`load_records` reads every such file back.
"""

from __future__ import annotations

import array
import functools
import itertools
import os
import pathlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Every span name, in a fixed order: the name id is the index, so ids
#: agree across the benchmark process, its forked workers and the daemon.
NAMES: Tuple[str, ...] = (
    "experiments.curve",
    "kernel.lockstep.1plus",
    "kernel.lockstep.2plus",
    "fastseed.states",
    "fastseed.choice_bulk",
    "fastseed.pool_load",
    "oracle.decide",
    "mac.decide",
    "serve.parse",
    "serve.admit",
    "serve.execute",
    "serve.queue_wait",
)
NAME_ID: Dict[str, int] = {name: i for i, name in enumerate(NAMES)}

#: Record layout (one int64 each).
FIELDS = ("span", "parent", "name", "start", "end", "self", "rid", "size")
_WIDTH = len(FIELDS)

#: ``classify(args, kwargs) -> (name id, request id, size)``.
Classifier = Callable[[tuple, dict], Tuple[int, int, int]]


def _span_ids() -> "itertools.count[int]":
    """Span ids unique across processes: the pid in the high bits."""
    return itertools.count((os.getpid() << 40) + 1)


class Tracer:
    """Per-process span recorder (see the module docstring).

    Args:
        out_dir: Where forked workers append their spans after each
            shard (``None`` keeps worker spans in memory only).
    """

    def __init__(self, out_dir: Optional[pathlib.Path] = None) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._ids = _span_ids()
        self._local = threading.local()
        self._buffers: List[array.array] = []
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked child inherits the parent's buffers and open spans;
        # its own trace starts empty, with its own span ids.
        self._ids = _span_ids()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()

    def _thread_state(self) -> Tuple[list, array.array]:
        state = getattr(self._local, "state", None)
        if state is None:
            buf = array.array("q")
            with self._lock:
                self._buffers.append(buf)
            state = self._local.state = ([], buf)
        return state

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        classify: Optional[Classifier] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span named ``name`` (or by ``classify``)."""
        fixed = (NAME_ID[name], -1, 0)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            nid, rid, size = fixed if classify is None else classify(args, kwargs)
            stack, buf = tracer._thread_state()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                buf.extend((sid, parent, nid, start, end, dur - frame[1], rid, size))

        return traced

    def record(self, name: str, start: int, end: int, rid: int) -> None:
        """Add a span measured elsewhere (e.g. a queue wait).

        Its parent is the span open on this thread, if any; the span is
        not subtracted from that parent's self time (it need not lie
        inside it).
        """
        stack, buf = self._thread_state()
        parent = stack[-1][0] if stack else 0
        buf.extend(
            (next(self._ids), parent, NAME_ID[name], start, end, end - start, rid, 0)
        )

    def records(self) -> np.ndarray:
        """Every span recorded so far, as an ``(n, 8)`` int64 array."""
        with self._lock:
            flat = np.concatenate(
                [np.frombuffer(b, dtype=np.int64) for b in self._buffers]
                or [np.zeros(0, dtype=np.int64)]
            )
        return flat.reshape(-1, _WIDTH).copy()

    def clear(self) -> None:
        """Drop every buffered span."""
        with self._lock:
            for buf in self._buffers:
                del buf[:]

    def dump(self, path: pathlib.Path) -> None:
        """Append every buffered span to ``path`` and empty the buffers."""
        with self._lock:
            with open(path, "ab") as fh:
                for buf in self._buffers:
                    buf.tofile(fh)
                    del buf[:]

    def flush_worker(self) -> None:
        """In a forked worker, append this process's spans to ``out_dir``."""
        if self.out_dir is not None and os.getpid() != self.pid:
            self.dump(self.out_dir / f"spans-{os.getpid()}.bin")


def load_records(paths: Sequence[pathlib.Path]) -> np.ndarray:
    """Concatenate span files written by :meth:`Tracer.dump`."""
    parts = [np.fromfile(p, dtype=np.int64) for p in paths if p.exists()]
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    return flat.reshape(-1, _WIDTH)


def self_times(spans: Sequence[Tuple[int, int, int, int]]) -> Dict[int, int]:
    """Self time of each span from ``(span, parent, start, end)`` rows.

    The reference computation behind the recorder's on-line bookkeeping:
    a span's duration minus the union of the intervals its direct
    children cover (children may not overlap on one thread, but the
    union keeps the result right if they do).
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for sid, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, int] = {}
    for sid, _parent, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


class Summary:
    """Per-name aggregates of a span array."""

    def __init__(self, recs: np.ndarray) -> None:
        self.recs = recs

    def of(self, name: str) -> np.ndarray:
        """The rows of spans named ``name``."""
        return self.recs[self.recs[:, 2] == NAME_ID[name]]

    def count(self, name: str) -> int:
        """How many spans named ``name``."""
        return int(self.of(name).shape[0])

    def self_s(self, name: str) -> float:
        """Summed self time of ``name`` spans, in seconds."""
        return float(self.of(name)[:, 5].sum()) / 1e9

    def outer(self, name: str) -> np.ndarray:
        """``name`` spans not nested in another ``name`` span.

        A reliability wrapper calling the algorithm it wraps nests two
        ``oracle.decide`` spans for one decision.
        """
        rows = self.of(name)
        return rows[~np.isin(rows[:, 1], rows[:, 0])]

    def total_s(self, name: str) -> float:
        """Summed duration of the outermost ``name`` spans, in seconds."""
        outer = self.outer(name)
        return float((outer[:, 4] - outer[:, 3]).sum()) / 1e9

    def size(self, name: str) -> int:
        """Summed ``size`` field of ``name`` spans (trials, group sizes)."""
        return int(self.of(name)[:, 7].sum())


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _lockstep_kind(args: tuple, kwargs: dict) -> Tuple[int, int, int]:
    batch = args[0] if args else kwargs["batch"]
    name = "kernel.lockstep.2plus" if batch.model.kind == "2+" else "kernel.lockstep.1plus"
    return NAME_ID[name], -1, int(batch.runs)


def request_index(rid: object) -> int:
    """The schedule index encoded in a benchmark request id (``q<index>``)."""
    if isinstance(rid, str) and rid.startswith("q") and rid[1:].isdigit():
        return int(rid[1:])
    return -1


def install(tracer: Tracer, *, serve: bool = False) -> Callable[[], None]:
    """Wrap the layers' public calls; returns a function undoing it.

    Sweep layers are always wrapped; ``serve=True`` (the daemon launcher)
    adds the serve stages.  Functions imported by name into another
    module are wrapped where that module looks them up.
    """
    from repro.core import exponential, two_t_bins
    from repro.core.base import ThresholdAlgorithm
    from repro.core.reliable import ReliableThreshold
    from repro.experiments import common
    from repro.mac.csma import CsmaBaseline
    from repro.sim import fastseed

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_attr(owner: Any, attr: str, name: str, classify: Any = None) -> None:
        patch(owner, attr, tracer.wrap(getattr(owner, attr), name, classify))

    wrap_attr(common.SweepEngine, "_sweep", "experiments.curve")
    run_cell = common._run_sweep_cell

    def shard_and_flush(task: Any) -> Any:
        try:
            return run_cell(task)
        finally:
            tracer.flush_worker()

    patch(common, "_run_sweep_cell", shard_and_flush)
    for module in (two_t_bins, exponential):
        wrap_attr(module, "run_lockstep", "kernel.lockstep.1plus", _lockstep_kind)
    wrap_attr(fastseed, "pcg64_states", "fastseed.states")
    wrap_attr(fastseed, "pcg64_raw", "fastseed.states")
    wrap_attr(fastseed, "choice_bulk", "fastseed.choice_bulk")
    wrap_attr(fastseed.GeneratorPool, "load", "fastseed.pool_load")
    wrap_attr(ThresholdAlgorithm, "decide", "oracle.decide")
    wrap_attr(ReliableThreshold, "decide", "oracle.decide")
    wrap_attr(CsmaBaseline, "decide", "mac.decide")
    if serve:
        _install_serve(tracer, patch, wrap_attr)

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall


def _install_serve(tracer: Tracer, patch: Any, wrap_attr: Any) -> None:
    """The serve stages: parse, admit, queue wait and group execution."""
    from repro.serve import scheduler
    from repro.serve.admission import AdmissionController
    from repro.serve.request import QueryRequest

    raw_from_wire = QueryRequest.__dict__["from_wire"].__func__
    patch(
        QueryRequest,
        "from_wire",
        classmethod(tracer.wrap(raw_from_wire, "serve.parse")),
    )
    wrap_attr(AdmissionController, "admit", "serve.admit")

    submitted: Dict[int, int] = {}
    submit = scheduler.BatchScheduler.submit

    def traced_submit(self: Any, request: Any) -> Any:
        submitted[request_index(request.id)] = time.perf_counter_ns()
        return submit(self, request)

    patch(scheduler.BatchScheduler, "submit", traced_submit)
    execute = scheduler.execute_group

    def execute_with_waits(requests: Sequence[Any], **kwargs: Any) -> Any:
        now = time.perf_counter_ns()
        for request in requests:
            rid = request_index(request.id)
            start = submitted.pop(rid, None)
            if start is not None:
                tracer.record("serve.queue_wait", start, now, rid)
        return execute(requests, **kwargs)

    def group_info(args: tuple, kwargs: dict) -> Tuple[int, int, int]:
        requests = args[0]
        return NAME_ID["serve.execute"], request_index(requests[0].id), len(requests)

    patch(
        scheduler,
        "execute_group",
        tracer.wrap(execute_with_waits, "serve.execute", group_info),
    )
