"""The two figure-sweep workloads: ``sweep_vectorized`` and ``sweep_mixed``.

One *iteration* is the workload's fixed input: every cell of its curves
on fig01's 31-point ``x`` grid, computed one ``(curve, x)`` cell per
:meth:`SweepEngine.query_curve` / ``baseline_curve`` call so the
benchmark can time each cell from outside.  Every iteration of a run
repeats the same input (the engine seed is the run's ``--seed``), with no
result cache and, for ``sweep_mixed``, a fresh journal, so nothing is
ever skipped; the series digest of every iteration must agree.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import algorithm_factory
from repro.experiments import fig01_one_plus, fig02_two_plus, fig05_abns, resilience
from repro.experiments.common import SweepEngine, shutdown_executors
from repro.group_testing.model import ModelSpec
from repro.mac import CsmaBaseline
from repro.obs import get_registry
from repro.workloads.scenarios import x_sweep

from perfbench import stats
from perfbench.hostspeed import HostSpeed

N = fig01_one_plus.DEFAULT_N
T = fig01_one_plus.DEFAULT_T

#: Trials per cell.  ``sweep_vectorized`` uses the paper's 1000 (the
#: kernel's batch is the cell, so its efficiency depends on it);
#: ``sweep_mixed`` is dominated by per-run scalar work and uses fewer so
#: one iteration stays a few seconds.
RUNS = {"sweep_vectorized": 1000, "sweep_mixed": 80}

#: Worker processes: in-process for the kernel, the 2-core reference
#: host's ``nproc`` for the crash-safe pool path.
JOBS = {"sweep_vectorized": 1, "sweep_mixed": 2}


@dataclass(frozen=True)
class Curve:
    """One curve of a workload: how the fig runner builds it."""

    label: str
    factory: Callable[..., Any]
    model: Optional[ModelSpec]  # None = MAC baseline

    def cell(self, engine: SweepEngine, x: int) -> float:
        """Mean cost of the single cell ``x``."""
        if self.model is None:
            series = engine.baseline_curve(self.label, [x], self.factory)
        else:
            series = engine.query_curve(self.label, [x], self.factory, self.model)
        return series.ys[0]


def curves(workload: str) -> List[Curve]:
    """The workload's curves, configured exactly as their figure runners do."""
    if workload == "sweep_vectorized":
        one = ModelSpec(kind="1+", max_queries=50 * fig01_one_plus.DEFAULT_N)
        return [
            Curve("2tBins", algorithm_factory("2tbins"), one),
            Curve("ExpIncrease", algorithm_factory("exponential"), one),
        ]
    if workload == "sweep_mixed":
        one80 = ModelSpec(kind="1+", max_queries=80 * fig05_abns.DEFAULT_N)
        two = ModelSpec(kind="2+", max_queries=50 * fig02_two_plus.DEFAULT_N)
        return [
            Curve("ABNS(p0=t)", algorithm_factory("abns", p0_multiple=1.0), one80),
            Curve("ABNS(p0=2t)", algorithm_factory("abns", p0_multiple=2.0), one80),
            Curve("Oracle", algorithm_factory("oracle"), one80),
            Curve("2tBins 2+", algorithm_factory("2tbins"), two),
            Curve("ExpIncrease 2+", algorithm_factory("exponential"), two),
            Curve("CSMA", CsmaBaseline, None),
        ]
    raise ValueError(f"not a sweep workload: {workload!r}")


def grid() -> List[int]:
    """fig01's ``x`` grid (31 points for ``N = 128``)."""
    return x_sweep(N)


def engine(workload: str, seed: int, *, vectorize: bool = True,
           jobs: Optional[int] = None) -> SweepEngine:
    """A fresh engine for the workload (no result cache is ever involved)."""
    return SweepEngine(
        N, T, runs=RUNS[workload], seed=seed,
        jobs=JOBS[workload] if jobs is None else jobs, vectorize=vectorize,
    )


class Journals:
    """Fresh crash-safe run contexts under one temp directory.

    ``sweep_mixed`` runs the CLI's crash-safe path: an active
    :class:`~repro.experiments.resilience.RunContext` with a journal and
    the supervised pool.  Each context gets a new journal file, so no
    ``--resume`` lookup can ever find a shard to skip.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.count = 0
        self.degraded: List[str] = []

    def context(self) -> resilience.RunContext:
        """A new context with an empty journal."""
        self.count += 1
        journal = resilience.ShardJournal(
            self.root / f"run-{self.count}.journal",
            exp_id="perfbench", key=f"iteration-{self.count}",
        )
        return resilience.RunContext(journal=journal)

    def run(self, workload: str, fn: Callable[[], Any]) -> Any:
        """``fn()`` inside a fresh context (``sweep_mixed`` only)."""
        if workload != "sweep_mixed":
            return fn()
        ctx = self.context()
        with resilience.activate(ctx):
            result = fn()
        self.degraded.extend(ctx.degraded)
        assert ctx.journal is not None
        ctx.journal.discard()
        return result


@dataclass
class Iteration:
    """One pass over the workload's input."""

    seconds: float
    series: Dict[str, List[float]]
    cells: List[Tuple[str, int, float]]  # (label, x, seconds)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return stats.digest(self.series)


def first_cell(workload: str, seed: int, journals: Journals) -> float:
    """Compute the workload's first cell (set-up probe and warm-up)."""
    curve = curves(workload)[0]
    eng = engine(workload, seed)
    return journals.run(workload, lambda: curve.cell(eng, grid()[0]))


def iterate(workload: str, seed: int, journals: Journals, collect: bool,
            speed: HostSpeed) -> Iteration:
    """One timed iteration, optionally with per-iteration registry counters.

    The host-speed reference runs before every cell; its time counts
    in neither the cell's nor the iteration's seconds.
    """
    registry = get_registry()
    if collect:
        registry.reset()
    xs = grid()
    eng = engine(workload, seed)
    series: Dict[str, List[float]] = {}
    cells: List[Tuple[str, int, float]] = []
    clock = time.perf_counter
    reference_s = 0.0

    def body() -> None:
        nonlocal reference_s
        for curve in curves(workload):
            ys = series.setdefault(curve.label, [])
            for x in xs:
                reference_s += speed.sample()
                start = clock()
                ys.append(curve.cell(eng, x))
                cells.append((curve.label, x, clock() - start))

    start = clock()
    journals.run(workload, body)
    elapsed = clock() - start - reference_s
    counters: Dict[str, float] = {}
    if collect:
        snap = registry.snapshot()
        counters = {name: float(v) for name, v in snap.counters.items()}
        journal = snap.timers.get("resilience.journal_write")
        counters["resilience.journal_write_s"] = (
            journal.total_seconds if journal is not None else 0.0
        )
    return Iteration(elapsed, series, cells, counters)


def measure(workload: str, seed: int, journals: Journals, until: float,
            collect: bool, speed: HostSpeed) -> List[Iteration]:
    """Whole iterations while ``time.perf_counter()`` is before ``until``."""
    out: List[Iteration] = []
    while time.perf_counter() < until:
        out.append(iterate(workload, seed, journals, collect, speed))
    return out


def oracle_check(workload: str, seed: int, first: Iteration,
                 picks: List[Tuple[str, int]]) -> List[str]:
    """Recompute sampled cells on the scalar oracle, serially.

    ``vectorize=False`` and ``jobs=1`` take neither the kernel nor the
    pool, so equality checks the kernel, the pool's stitching and the
    journal path against the plain per-run loop.
    """
    by_label = {c.label: c for c in curves(workload)}
    scalar = engine(workload, seed, vectorize=False, jobs=1)
    xs = grid()
    errors = []
    for label, x in picks:
        want = by_label[label].cell(scalar, x)
        got = first.series[label][xs.index(x)]
        if want != got:
            errors.append(f"{label} x={x}: served {got!r}, oracle {want!r}")
    return errors
