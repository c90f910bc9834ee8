"""Vectorized Monte-Carlo kernel: a whole (label, x)-cell as array ops.

Every figure in the paper is a Monte-Carlo estimate of query cost over
random populations.  The scalar path runs each trial as a Python loop of
:meth:`QueryModel.query` calls; this module executes an entire cell of
``runs`` trials with numpy array operations instead, while consuming the
**exact same RNG streams** so its output is bit-identical to the scalar
path (which stays in the tree as the oracle; see DESIGN.md section 14).

The contract has three parts:

* **RNG streams.**  A :class:`QueryBatch` carries a ``streams(run)``
  callable yielding the ``(pop, model, bins)`` generators for each run.
  The kernel makes precisely the draws the scalar path makes on each --
  the population ``choice``, one ``permutation`` per round, and (2+ only)
  the per-collision capture draws -- and nothing else.  Everything
  *between* draws (counting, verdicts, termination, elimination) is
  vectorized.
* **Verdict semantics.**  The single scalar verdict path
  (:meth:`repro.group_testing.model._BaseModel.query` plus each model's
  ``_observe``) is the semantics source this kernel mirrors; the round
  loop mirrors :meth:`repro.core.base.ThresholdAlgorithm._run_round`.
* **Metrics.**  When collection is enabled the kernel tallies
  ``model.queries`` / ``model.verdict.*`` / ``model.bin_size`` exactly as
  the scalar instruments would and absorbs one merged
  :class:`~repro.obs.MetricsSnapshot` per cell, so counter totals
  reconcile exactly with scalar runs.

Bin counts come either from a pure *schedule* (round index -> bins;
2tBins and Exponential Increase) or from a per-run *policy*
(:class:`RunPolicy`): the kernel asks each run's policy for its next
round's bin count and reports every unresolved round's outcome back to
it, so adaptive policies (ABNS, the oracle baseline, the Sec IV-B
variations) share the lockstep array work while their decisions stay
per run.  :meth:`repro.core.base.ThresholdAlgorithm.decide_batch` builds
such a policy from any algorithm's own round hooks.

Anything the kernel cannot reproduce bit-exactly -- detection-failure
hooks (fault plans), non-random partitioning -- raises
:class:`UnsupportedBatch`, and callers fall back to the scalar path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.group_testing.model import (
    ModelSpec,
    QueryBudgetExceeded,
    default_capture_probability,
)
from repro.obs import HistogramSnapshot, MetricsSnapshot, get_registry
from repro.sim import fastseed
from repro.sim.rng import RngRegistry

_OBS = get_registry()

#: Pooled generators for state-loaded streams (slot 0 is the scratch
#: slot for transient draws; per-run bins streams start at slot 1).
_POOL = fastseed.GeneratorPool()

#: Bucket edges of the ``model.bin_size`` histogram (must match
#: :mod:`repro.group_testing.model`).
_BIN_SIZE_EDGES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_BIN_SIZE_EDGES_ARR = np.asarray(_BIN_SIZE_EDGES)

#: Round safety valve, mirroring :attr:`ThresholdAlgorithm.max_rounds`.
_MAX_ROUNDS = 10_000

#: The ``(pop, model, bins)`` generator triple of one run.
RunStreams = Tuple[np.random.Generator, np.random.Generator, np.random.Generator]

#: Pure bin-count schedule: round index -> requested bin count.
Schedule = Callable[[int], int]


class RunPolicy(Protocol):
    """Per-run adaptive bin counts, driven round by round by the kernel.

    ``run`` is the batch-relative run index (``0 .. batch.runs - 1``).
    The kernel calls :meth:`bins` once at the start of each of a run's
    rounds and :meth:`observe` once after each round that left the run
    unresolved; a resolved run is never consulted again.
    """

    def bins(self, run: int) -> int:
        """Requested bin count of ``run``'s next round."""
        ...

    def observe(
        self,
        run: int,
        requested: int,
        queried: int,
        silent: int,
        remaining: int,
        confirmed: int,
    ) -> None:
        """``run``'s finished, unresolved round: bins requested and
        queried, silent bins, surviving candidates, and positives
        confirmed by captures so far (always 0 outside the 2+ model)."""
        ...


class UnsupportedBatch(Exception):
    """The kernel cannot reproduce this cell bit-exactly; use the scalar path."""


@dataclass(frozen=True)
class QueryBatch:
    """One (label, x)-cell of Monte-Carlo trials, ready for the kernel.

    Attributes:
        n: Population size.
        x: True positive count of every trial's population.
        threshold: The queried threshold ``t``.
        run_lo: First run index (inclusive).
        run_hi: Last run index (exclusive).
        model: Declarative model configuration (the picklable spec the
            sweep engine already ships to workers).
        streams: Callable mapping an absolute run index to that run's
            ``(pop, model, bins)`` generators.  The kernel consumes these
            exactly as the scalar path would.
        seed_info: Optional ``(root_seed, cell)`` pair declaring that run
            ``r``'s streams are the registry streams of
            ``RngRegistry(root_seed).fork(f"{cell}/r{r}")``.  When
            present (and :func:`repro.sim.fastseed.available`), the
            kernel reconstructs the generator states in bulk instead of
            calling ``streams`` -- same streams, a fraction of the
            construction cost.
    """

    n: int
    x: int
    threshold: int
    run_lo: int
    run_hi: int
    model: ModelSpec
    streams: Callable[[int], RunStreams]
    seed_info: Optional[Tuple[int, str]] = field(default=None)

    @property
    def runs(self) -> int:
        """Number of trials in the cell."""
        return self.run_hi - self.run_lo

    @classmethod
    def for_cell(
        cls,
        *,
        seed: int,
        label: str,
        x: int,
        n: int,
        threshold: int,
        run_lo: int,
        run_hi: int,
        model: ModelSpec,
    ) -> "QueryBatch":
        """A batch over the sweep engine's per-run registry streams.

        Run ``r`` gets the generators
        ``RngRegistry(seed).fork(f"{label}/x{x}/r{r}")`` derives for the
        names ``"pop"``/``"model"``/``"bins"`` -- the exact streams
        :func:`repro.experiments.common._run_sweep_cell` hands the scalar
        path.
        """
        root = RngRegistry(seed)

        def streams(run: int) -> RunStreams:
            reg = root.fork(f"{label}/x{x}/r{run}")
            return reg.stream("pop"), reg.stream("model"), reg.stream("bins")

        return cls(
            n=n,
            x=x,
            threshold=threshold,
            run_lo=run_lo,
            run_hi=run_hi,
            model=model,
            streams=streams,
            seed_info=(seed, f"{label}/x{x}"),
        )

    @classmethod
    def spawned(
        cls,
        *,
        seed: int,
        n: int,
        x: int,
        threshold: int,
        runs: int,
        model: ModelSpec,
    ) -> "QueryBatch":
        """A batch over ``Generator.spawn``-derived per-run streams.

        ``default_rng(seed)`` is spawned into ``runs`` independent
        children and each child into the run's ``(pop, model, bins)``
        triple -- the stream layout of :func:`repro.api.threshold_query_batch`.
        All children are derived eagerly so the per-run callable is pure.
        """
        children = np.random.default_rng(seed).spawn(runs)
        triples = [tuple(child.spawn(3)) for child in children]

        def streams(run: int) -> RunStreams:
            pop, model_rng, bins = triples[run]
            return pop, model_rng, bins

        return cls(
            n=n,
            x=x,
            threshold=threshold,
            run_lo=0,
            run_hi=runs,
            model=model,
            streams=streams,
        )


@dataclass(frozen=True)
class BatchDecision:
    """What a batch decider returns for one cell.

    Attributes:
        decisions: Per-run verdicts (``bool``, length ``batch.runs``).
        queries: Per-run charged query counts (``int64``).
        exact: Whether the algorithm is exact (always-correct), i.e.
            whether decisions may be checked against ground truth.
    """

    decisions: np.ndarray
    queries: np.ndarray
    exact: bool


class _CellTally:
    """Accumulates the cell's model.* metrics for one exact absorb.

    Mirrors :meth:`repro.group_testing.model._BaseModel._record`: one
    ``model.queries`` increment, one ``model.bin_size`` observation and
    one verdict counter per query.  Integer bucket/count arithmetic keeps
    the merge with scalar shards exact.
    """

    __slots__ = (
        "queries", "silent", "activity", "capture",
        "buckets", "size_sum", "size_min", "size_max",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.silent = 0
        self.activity = 0
        self.capture = 0
        self.buckets = np.zeros(len(_BIN_SIZE_EDGES) + 1, dtype=np.int64)
        self.size_sum = 0
        self.size_min: Optional[int] = None
        self.size_max: Optional[int] = None

    def record(self, sizes: np.ndarray, n_silent: int, n_capture: int) -> None:
        """Count ``len(sizes)`` queried bins with the given verdict split."""
        nq = int(sizes.size)
        if not nq:
            return
        self.queries += nq
        self.silent += n_silent
        self.capture += n_capture
        self.activity += nq - n_silent - n_capture
        idx = np.searchsorted(_BIN_SIZE_EDGES_ARR, sizes, side="left")
        self.buckets += np.bincount(idx, minlength=len(_BIN_SIZE_EDGES) + 1)
        self.size_sum += int(sizes.sum())
        lo, hi = int(sizes.min()), int(sizes.max())
        if self.size_min is None or lo < self.size_min:
            self.size_min = lo
        if self.size_max is None or hi > self.size_max:
            self.size_max = hi

    def record_batch(
        self,
        base: np.ndarray,
        n_small: np.ndarray,
        n_big: np.ndarray,
        n_silent: np.ndarray,
    ) -> None:
        """Count one balanced round per row: ``n_small`` queried bins of
        size ``base`` plus ``n_big`` of size ``base + 1`` (counting
        models: every non-silent response is an activity verdict)."""
        nq = int(n_small.sum() + n_big.sum())
        if not nq:
            return
        self.queries += nq
        sil = int(n_silent.sum())
        self.silent += sil
        self.activity += nq - sil
        idx_small = np.searchsorted(_BIN_SIZE_EDGES_ARR, base, side="left")
        idx_big = np.searchsorted(_BIN_SIZE_EDGES_ARR, base + 1, side="left")
        np.add.at(self.buckets, idx_small, n_small)
        np.add.at(self.buckets, idx_big, n_big)
        self.size_sum += int((base * n_small + (base + 1) * n_big).sum())
        small = n_small > 0
        big = n_big > 0
        lo_cands = []
        hi_cands = []
        if small.any():
            lo_cands.append(int(base[small].min()))
            hi_cands.append(int(base[small].max()))
        if big.any():
            lo_cands.append(int(base[big].min()) + 1)
            hi_cands.append(int(base[big].max()) + 1)
        if lo_cands:
            lo, hi = min(lo_cands), max(hi_cands)
            if self.size_min is None or lo < self.size_min:
                self.size_min = lo
            if self.size_max is None or hi > self.size_max:
                self.size_max = hi

    def flush(self) -> None:
        """Absorb the tally into the process registry (one exact merge)."""
        if not self.queries:
            return
        counters = {"model.queries": self.queries}
        if self.silent:
            counters["model.verdict.silent"] = self.silent
        if self.activity:
            counters["model.verdict.activity"] = self.activity
        if self.capture:
            counters["model.verdict.capture"] = self.capture
        hist = HistogramSnapshot(
            edges=_BIN_SIZE_EDGES,
            counts=tuple(int(c) for c in self.buckets),
            total=self.queries,
            sum=float(self.size_sum),
            min=float(self.size_min) if self.size_min is not None else None,
            max=float(self.size_max) if self.size_max is not None else None,
        )
        _OBS.absorb(
            MetricsSnapshot(counters=counters, histograms={"model.bin_size": hist})
        )


def _draw_positive_mask(
    n: int, x: int, pop_rng: np.random.Generator
) -> np.ndarray:
    """The population draw, exactly as :meth:`Population.from_count` makes it."""
    mask = np.zeros(n, dtype=bool)
    if x:
        mask[pop_rng.choice(n, size=x, replace=False)] = True
    return mask


#: Cached ASCII forms of run indices (shared by every cell's seed loop).
_RUN_DIGITS: List[bytes] = []


def _run_digits(lo: int, hi: int) -> List[bytes]:
    """``b"%d" % r`` for ``r`` in ``lo..hi``, from a growing cache."""
    while len(_RUN_DIGITS) < hi:
        _RUN_DIGITS.append(b"%d" % len(_RUN_DIGITS))
    return _RUN_DIGITS[lo:hi]


def _fast_states(
    batch: QueryBatch, names: Sequence[str], raw: Sequence[str] = ()
) -> Optional[Dict[str, Any]]:
    """Bulk-reconstructed PCG64 states for the named per-run streams.

    ``None`` when the batch carries no registry seed contract or this
    numpy defeats :mod:`repro.sim.fastseed`; callers then fall back to
    ``batch.streams``.  Otherwise ``out[name][i]`` is the ``(state,
    inc)`` of run ``run_lo + i``'s stream ``name`` -- exactly the
    generator ``RngRegistry(root).fork(f"{cell}/r{r}").stream(name)``
    would hold, reproduced via the same two SHA-256 derivations.
    Streams listed in ``raw`` come back as :func:`fastseed.pcg64_raw`
    half arrays instead, ready for the bulk output emulation.

    Every name's seeds go through one :func:`fastseed.pcg64_raw` call
    (its fixed cost outweighs the per-seed cost on small shards).  The
    seeds are laid out name-major with the ``raw`` names first, so the
    streams that need python-int pairs form one contiguous tail that is
    widened in one pass.
    """
    if batch.seed_info is None or not fastseed.available():
        return None
    root, cell = batch.seed_info
    sha = hashlib.sha256
    from_bytes = int.from_bytes
    prefix = sha(f"{root}/fork/{cell}/r".encode("utf-8"))
    order = sorted(names, key=lambda name: name not in raw)
    suffixes = [("/" + name).encode("utf-8") for name in order]
    seeds: List[List[int]] = [[] for _ in order]
    appends_suffixes = tuple(zip([s.append for s in seeds], suffixes))
    for rb in _run_digits(batch.run_lo, batch.run_hi):
        h = prefix.copy()
        h.update(rb)
        fork = b"%d" % (from_bytes(h.digest()[:8], "big") >> 1)
        for append, suffix in appends_suffixes:
            append(from_bytes(sha(fork + suffix).digest()[:8], "big") >> 1)
    runs = batch.runs
    state_hi, state_lo, inc_hi, inc_lo = fastseed.pcg64_raw(
        [s for per_name in seeds for s in per_name]
    )
    n_raw = sum(name in raw for name in order)
    tail = n_raw * runs
    pairs = fastseed.pairs_from_raw(
        (state_hi[tail:], state_lo[tail:], inc_hi[tail:], inc_lo[tail:])
    )
    out: Dict[str, Any] = {}
    for k, name in enumerate(order):
        lo, hi = k * runs, (k + 1) * runs
        if k < n_raw:
            out[name] = (state_hi[lo:hi], state_lo[lo:hi], inc_hi[lo:hi], inc_lo[lo:hi])
        else:
            out[name] = pairs[lo - tail:hi - tail]
    return out


def _validate_lockstep(batch: QueryBatch, partition_strategy: str) -> int:
    """Common feasibility checks; returns the evidence resolution ``k``."""
    if partition_strategy != "random":
        raise UnsupportedBatch(
            f"partition strategy {partition_strategy!r} is not vectorized"
        )
    spec = batch.model
    if spec.detection_failure is not None:
        raise UnsupportedBatch("detection-failure hooks are not vectorized")
    if spec.kind == "1+":
        return 1
    if spec.kind == "k+":
        if spec.k < 1:
            raise ValueError(f"k must be >= 1, got {spec.k}")
        return spec.k
    if spec.kind == "2+":
        return 1  # capture path ignores k
    raise UnsupportedBatch(f"model kind {spec.kind!r} is not vectorized")


def run_lockstep(
    batch: QueryBatch,
    schedule: Optional[Schedule] = None,
    *,
    policy: Optional[RunPolicy] = None,
    partition_strategy: str = "random",
    algorithm: str = "vectorized",
    max_rounds: int = _MAX_ROUNDS,
) -> BatchDecision:
    """Execute a cell of round-structured exact trials.

    Args:
        batch: The cell description and per-run streams.
        schedule: Pure map from round index to requested bin count, for
            algorithms whose bin policy depends on nothing but the round
            index (2tBins, Exponential Increase): one count serves every
            run of a round.
        policy: Per-run adaptive bin counts instead of ``schedule``
            (exactly one of the two must be given).
        partition_strategy: Must be ``"random"`` (the only vectorized
            partitioner).
        algorithm: Name used in error messages.
        max_rounds: Round safety valve (the algorithm's ``max_rounds``).

    Returns:
        The per-run decisions and query counts (``exact=True``).

    Raises:
        UnsupportedBatch: If the model or partitioning cannot be
            reproduced bit-exactly.
        ValueError: If the threshold is negative (mirroring ``decide``).
    """
    if (schedule is None) == (policy is None):
        raise TypeError("pass exactly one of schedule / policy")
    k = _validate_lockstep(batch, partition_strategy)
    if batch.threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {batch.threshold}")
    rounds = _Rounds(schedule, policy, algorithm, max_rounds)
    spec = batch.model
    tally = _CellTally() if _OBS.enabled else None
    decisions = np.zeros(batch.runs, dtype=bool)
    queries = np.zeros(batch.runs, dtype=np.int64)
    if spec.kind == "2+":
        p_cap = (
            spec.capture_probability
            if spec.capture_probability is not None
            else default_capture_probability
        )
        states = _fast_states(batch, ("pop", "model", "bins"))
        if states is not None:
            _POOL.reserve(3)
        for i in range(batch.runs):
            if states is not None:
                pop_rng = _POOL.load(0, *states["pop"][i])
                model_rng = _POOL.load(1, *states["model"][i])
                bins_rng = _POOL.load(2, *states["bins"][i])
            else:
                pop_rng, model_rng, bins_rng = batch.streams(batch.run_lo + i)
            mask = _draw_positive_mask(batch.n, batch.x, pop_rng)
            decisions[i], queries[i] = _run_one_capture(
                batch.n, batch.threshold, mask, model_rng, bins_rng,
                rounds, i, p_cap, spec.max_queries, tally,
            )
    else:
        _run_counting_batch(
            batch, rounds, k, spec.max_queries, tally, decisions, queries,
        )
    if tally is not None:
        tally.flush()
    return BatchDecision(decisions=decisions, queries=queries, exact=True)


class _Rounds:
    """Where a cell's bin counts come from: a schedule or a run policy.

    Also owns the two round-loop guards of
    :meth:`repro.core.base.ThresholdAlgorithm.decide`: the ``>= 1`` check
    on every requested count and the round safety valve.
    """

    __slots__ = ("schedule", "policy", "algorithm", "max_rounds")

    def __init__(
        self,
        schedule: Optional[Schedule],
        policy: Optional[RunPolicy],
        algorithm: str,
        max_rounds: int,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.algorithm = algorithm
        self.max_rounds = max_rounds

    def bins(self, round_index: int, run: int) -> int:
        """Requested bin count of one run's round (a schedule ignores
        the run), with the scalar executor's error for a count below 1."""
        if self.policy is None:
            assert self.schedule is not None
            bins = self.schedule(round_index)
        else:
            bins = self.policy.bins(run)
        if bins < 1:
            raise RuntimeError(f"{self.algorithm}: bin policy returned {bins}")
        return bins

    def tripped(self) -> RuntimeError:
        """The safety-valve error."""
        return RuntimeError(
            f"{self.algorithm}: round safety valve ({self.max_rounds}) tripped"
        )


def _round_layout(
    cand: np.ndarray,
    bins_requested: int,
    bins_rng: np.random.Generator,
    mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One round's partition: the single ``permutation`` draw plus layout.

    Returns ``(perm, starts, sizes, counts, hits)`` where bin ``b`` holds
    the permuted candidates ``perm[starts[b]:starts[b+1]]`` (positions
    into ``cand``), ``counts[b]`` its positive count, and ``hits`` the
    positivity of each permuted slot.  Matches
    :func:`repro.group_testing.binning.partition_random`: balanced
    contiguous chunks of one uniformly random permutation, zero-member
    bins never materialised.
    """
    m = cand.size
    perm = bins_rng.permutation(m)
    effective = min(bins_requested, m)
    base, extra = divmod(m, effective)
    idx = np.arange(effective + 1, dtype=np.int64)
    starts = idx * base + np.minimum(idx, extra)
    sizes = np.diff(starts)
    hits = mask[cand[perm]]
    hit_cum = np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))
    counts = hit_cum[starts[1:]] - hit_cum[starts[:-1]]
    return perm, starts, sizes, counts, hits


def _run_counting_batch(
    batch: QueryBatch,
    rounds: _Rounds,
    k: int,
    max_queries: Optional[int],
    tally: Optional[_CellTally],
    decisions: np.ndarray,
    queries: np.ndarray,
) -> None:
    """All 1+/k+ trials of a cell, processed round-major.

    Every run's per-round *draws* stay sequential on its own bins stream
    (run ``r`` consumes exactly what the scalar path would), but all
    *computation* -- layout, counts, termination, elimination -- runs
    once per round over the whole active cohort as 2-D array reductions.
    Runs sit in the rows of a hit-flag matrix padded to the widest
    surviving candidate list; a run's decision depends only on its
    candidate count and hit pattern, so candidate identities are never
    materialised.

    Without captures a round's query-by-query state is a pair of prefix
    sums (cumulative evidence, cumulative eliminations), so both
    termination conditions reduce to per-row first-index searches.

    Under a run policy each row requests its own bin count (the layout
    math broadcasts over a per-row ``eff``), and every row left
    unresolved by a full round reports that round back to its policy.
    """
    n, threshold = batch.n, batch.threshold
    runs = batch.runs
    states = _fast_states(
        batch, ("pop", "bins") if batch.x else ("bins",), raw=("pop",)
    )
    # Positive masks double as round-0 hit flags: the candidate list
    # starts as 0..n-1 in order, so flags are indexed by candidate id.
    # The extra always-False sentinel column lets padded permutation
    # slots gather False without any validity masking.
    hit = np.zeros((runs, n + 1), dtype=bool)
    bins_gens: List[np.random.Generator]
    if states is not None:
        _POOL.reserve(1 + runs)
        load = _POOL.load
        if batch.x:
            # The pop stream is consumed by this one draw and nothing
            # else, so result-equality suffices: emulate all the choice
            # calls in lockstep and scatter into the flat hit matrix.
            # Bulk cost grows with the pull count (~2x) while the
            # per-run loop's is nearly flat, so large draws (x beyond
            # ~n/2) stay on the per-run path; and its fixed cost grows
            # with x, so it pays off only from about 4x runs on (small
            # shards of the pooled sweeps).
            idx = (
                fastseed.choice_bulk(states["pop"], n, batch.x)
                if 2 * batch.x <= n + 16
                and 4 * batch.x <= runs
                and fastseed.choice_available()
                else None
            )
            if idx is not None:
                hit.ravel()[
                    idx + (np.arange(runs, dtype=np.int64) * (n + 1))[:, None]
                ] = True
            else:
                for i, (st, inc) in enumerate(
                    fastseed.pairs_from_raw(states["pop"])
                ):
                    hit[
                        i, load(0, st, inc).choice(n, size=batch.x, replace=False)
                    ] = True
        bins_gens = [
            load(1 + i, st, inc) for i, (st, inc) in enumerate(states["bins"])
        ]
    else:
        bins_gens = []
        for i in range(runs):
            pop_rng, _model_rng, bins_rng = batch.streams(batch.run_lo + i)
            if batch.x:
                hit[i, pop_rng.choice(n, size=batch.x, replace=False)] = True
            bins_gens.append(bins_rng)
    if threshold == 0:
        decisions[:] = True
        return
    if n < threshold:
        return
    policy = rounds.policy
    active = np.arange(runs, dtype=np.int64)
    m = np.full(runs, n, dtype=np.int64)
    totals = np.zeros(runs, dtype=np.int64)
    for round_index in range(rounds.max_rounds):
        if not active.size:
            return
        rows = active.size
        width = int(m.max())
        act = active.tolist()
        m_rows = m.tolist()
        if policy is None:
            eff = np.minimum(rounds.bins(round_index, 0), m)
        else:
            # Clamp in python: doubling policies outgrow int64 long
            # after their counts exceed every candidate list.
            requested = [rounds.bins(round_index, i) for i in act]
            eff = np.array(
                [min(b, mj) for b, mj in zip(requested, m_rows)], dtype=np.int64
            )
        n_bins = int(eff.max())
        # Flat row offsets: 2-D gathers/scatters below run as 1-D
        # ``take``/fancy assignment on raveled arrays, which skips the
        # python-level index plumbing of ``take_along_axis``.  ``hit``
        # rows are ``width + 1`` wide (sentinel column at ``width``).
        row_i = np.arange(rows, dtype=np.int64)
        off_w1 = (row_i * (width + 1))[:, None]
        off_b = row_i * n_bins
        # The only per-run work: each run's single permutation draw,
        # done as an in-place shuffle of a prefilled 0..m-1 row (same
        # stream consumption as ``permutation``, no per-run arange
        # allocation).  Padded slots point at the sentinel column.
        perm = np.broadcast_to(
            np.arange(width, dtype=np.int64), (rows, width)
        ).copy()
        if width > 1:
            perm[np.arange(width, dtype=np.int64) >= m[:, None]] = width
            for j, mj in enumerate(m_rows):
                bins_gens[act[j]].shuffle(perm[j, :mj])
        # Balanced layout per row: the first ``extra`` bins get
        # ``base + 1`` members, the rest ``base`` (partition_random).
        # ``starts_ext[:, b]``/``starts_ext[:, b + 1]`` bound bin ``b``;
        # clipping at ``m`` collapses the bins a short row doesn't have.
        base = m // eff
        extra = m - base * eff
        ibin_ext = np.arange(n_bins + 1, dtype=np.int64)
        bin_valid = ibin_ext[:n_bins] < eff[:, None]
        starts_ext = np.minimum(
            ibin_ext * base[:, None] + np.minimum(ibin_ext, extra[:, None]),
            m[:, None],
        )
        sizes = starts_ext[:, 1:] - starts_ext[:, :-1]
        hits_slot = hit.ravel().take(perm + off_w1)
        cum = np.zeros((rows, width + 1), dtype=np.int64)
        np.cumsum(hits_slot, axis=1, out=cum[:, 1:])
        cum_at = cum.ravel().take(starts_ext + off_w1)
        counts = cum_at[:, 1:] - cum_at[:, :-1]
        silent = bin_valid & (counts == 0)
        # Evidence after bin b (min_positives = min(count, k), silent
        # adds 0) and surviving candidates after bin b (silent bins
        # eliminate); both prefixes are monotone, so the value at the
        # last real bin says whether each condition fires at all and
        # argmax finds the first firing bin.
        ev_cum = np.cumsum(np.minimum(counts, k), axis=1)
        elim_cum = np.cumsum(sizes * silent, axis=1)
        fire_true = bin_valid & (ev_cum >= threshold)
        fire_false = bin_valid & ((m[:, None] - elim_cum) < threshold)
        idx_last = (eff - 1) + off_b
        i_true = np.where(
            ev_cum.ravel().take(idx_last) >= threshold,
            np.argmax(fire_true, axis=1),
            eff,
        )
        i_false = np.where(
            (m - elim_cum.ravel().take(idx_last)) < threshold,
            np.argmax(fire_false, axis=1),
            eff,
        )
        stop = np.minimum(i_true, i_false)
        resolved = stop < eff
        queried = np.where(resolved, stop + 1, eff)
        totals += queried
        if max_queries is not None and int(totals.max()) > max_queries:
            raise QueryBudgetExceeded(f"query budget of {max_queries} exceeded")
        if tally is not None:
            n_big = np.minimum(queried, extra)
            sil_q = np.cumsum(silent, axis=1).ravel().take(queried - 1 + off_b)
            tally.record_batch(base, queried - n_big, n_big, sil_q)
        if resolved.any():
            done = active[resolved]
            # The True check runs first in the scalar executor, so it
            # wins when both fire on the same query.
            decisions[done] = (i_true <= i_false)[resolved]
            queries[done] = totals[resolved]
        live = ~resolved
        if not live.any():
            return
        if policy is not None:
            # A full round queried all ``eff`` bins of a surviving row.
            seen = [
                (act[j], requested[j], eff_j, silent_j)
                for j, eff_j, silent_j in zip(
                    np.flatnonzero(live).tolist(),
                    eff[live].tolist(),
                    silent[live].sum(axis=1).tolist(),
                )
            ]
        # Full round, unresolved: silent bins eliminate their members.
        # Resolved rows drop out *before* the elimination arrays are
        # built -- the cohort shrinks fast, so every op below runs over
        # survivors only.  Map each slot to its bin, mark slots of
        # silent bins, scatter the keep flags back to candidate order
        # (padded slots land in the sentinel/scratch column), then
        # compact rows left.
        if not live.all():
            active = active[live]
            totals = totals[live]
            perm = perm[live]
            silent = silent[live]
            starts_ext = starts_ext[live]
            hit = hit[live]
            rows = active.size
            row_i = np.arange(rows, dtype=np.int64)
            off_w1 = (row_i * (width + 1))[:, None]
            off_b = row_i * n_bins
        # Slot -> bin without per-slot division: scatter a marker at
        # each bin's start and prefix-sum.  Bins below a row's ``eff``
        # are non-empty (``base >= 1``) so markers below ``m`` never
        # collide; clipped starts of absent bins collide at ``m``, and
        # slots there map through the sentinel column anyway.
        bound = np.zeros((rows, width + 1), dtype=np.int16)
        bound.ravel()[starts_ext[:, 1:n_bins] + off_w1] = 1
        bin_of = np.cumsum(bound[:, :width], axis=1)
        slot_keep = ~silent.ravel().take(bin_of + off_b[:, None])
        keep_flat = np.zeros(rows * (width + 1), dtype=bool)
        keep_flat[(perm + off_w1).ravel()] = slot_keep.ravel()
        keep2d = keep_flat.reshape(rows, width + 1)
        keep2d[:, width] = False
        kept_flags = hit[keep2d]
        m = keep2d.sum(axis=1)
        width_next = int(m.max())
        offsets = np.concatenate(([0], np.cumsum(m)[:-1]))
        flat = np.zeros(rows * (width_next + 1), dtype=bool)
        flat[
            np.arange(kept_flags.size)
            + np.repeat(row_i * (width_next + 1) - offsets, m)
        ] = kept_flags
        hit = flat.reshape(rows, width_next + 1)
        if policy is not None:
            for (i, b, queried_i, silent_i), m_i in zip(seen, m.tolist()):
                policy.observe(i, b, queried_i, silent_i, m_i, 0)
    raise rounds.tripped()


def _run_one_capture(
    n: int,
    threshold: int,
    mask: np.ndarray,
    model_rng: np.random.Generator,
    bins_rng: np.random.Generator,
    rounds: _Rounds,
    run: int,
    p_cap: Callable[[int], float],
    max_queries: Optional[int],
    tally: Optional[_CellTally],
) -> Tuple[bool, int]:
    """One 2+ trial: vectorized counts, in-order capture draws.

    The capture draws are sequential by contract (bin order on the model
    stream), so the per-bin loop survives -- but it runs over precomputed
    count/positive-position arrays instead of set operations and model
    dispatch, and silent/lone-positive bins consume no randomness.
    """
    if threshold == 0:
        return True, 0
    if n < threshold:
        return False, 0
    cand = np.arange(n, dtype=np.int64)
    confirmed = 0
    total = 0
    for round_index in range(rounds.max_rounds):
        bins_requested = rounds.bins(round_index, run)
        m = cand.size
        perm, starts, sizes, counts, hits = _round_layout(
            cand, bins_requested, bins_rng, mask
        )
        effective = sizes.size
        # Positions (into the permuted layout) of positive slots; bin b's
        # positives, in membership order, are pos_at[pos_cum[b]:pos_cum[b+1]].
        pos_at = np.flatnonzero(hits)
        pos_cum = np.concatenate(([0], np.cumsum(counts)))
        keep = np.ones(m, dtype=bool)
        alive = m
        evidence = 0
        decision: Optional[bool] = None
        queried = 0
        n_silent = 0
        n_capture = 0
        for b in range(effective):
            total += 1
            queried += 1
            if max_queries is not None and total > max_queries:
                raise QueryBudgetExceeded(
                    f"query budget of {max_queries} exceeded"
                )
            c = int(counts[b])
            if c == 0:
                n_silent += 1
                alive -= int(sizes[b])
                keep[perm[starts[b]:starts[b + 1]]] = False
            elif c == 1:
                # A lone reply is always captured; no draw.
                n_capture += 1
                confirmed += 1
                alive -= 1
                keep[perm[pos_at[pos_cum[b]]]] = False
            else:
                prob = p_cap(c)
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(
                        f"capture probability out of range: {prob}"
                    )
                if model_rng.random() < prob:
                    winner = int(model_rng.integers(c))
                    n_capture += 1
                    confirmed += 1
                    alive -= 1
                    keep[perm[pos_at[pos_cum[b] + winner]]] = False
                else:
                    evidence += 2
            if confirmed + evidence >= threshold:
                decision = True
                break
            if confirmed + alive < threshold:
                decision = False
                break
        if tally is not None:
            tally.record(sizes[:queried], n_silent, n_capture)
        if decision is not None:
            return decision, total
        cand = cand[keep]
        if rounds.policy is not None:
            rounds.policy.observe(
                run, bins_requested, queried, n_silent, int(cand.size), confirmed
            )
    raise rounds.tripped()


def run_probes(
    batch: QueryBatch,
    *,
    repeats: int,
    inclusion: float,
    midpoint: float,
) -> BatchDecision:
    """Execute a cell of non-adaptive probabilistic trials (Sec VI).

    Each run draws its population, then one ``(repeats, n)`` inclusion
    matrix on the bins stream -- bit-identical to
    :func:`repro.group_testing.binning.sample_bins` -- and decides by
    comparing the non-empty probe count against ``midpoint``.  The model
    stream is untouched (1+/k+ probes draw no model randomness), exactly
    as in the scalar path.

    Raises:
        UnsupportedBatch: For capture-model (2+) probes or
            detection-failure hooks, which draw on the model stream.
    """
    spec = batch.model
    if spec.detection_failure is not None:
        raise UnsupportedBatch("detection-failure hooks are not vectorized")
    if spec.kind not in ("1+", "k+"):
        raise UnsupportedBatch(
            f"model kind {spec.kind!r} draws capture randomness per probe"
        )
    if spec.kind == "k+" and spec.k < 1:
        raise ValueError(f"k must be >= 1, got {spec.k}")
    if batch.threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {batch.threshold}")
    if not 0.0 <= inclusion <= 1.0:
        raise ValueError(
            f"inclusion probability must be in [0,1], got {inclusion}"
        )
    if spec.max_queries is not None and repeats > spec.max_queries:
        raise QueryBudgetExceeded(
            f"query budget of {spec.max_queries} exceeded"
        )
    tally = _CellTally() if _OBS.enabled else None
    decisions = np.zeros(batch.runs, dtype=bool)
    queries = np.full(batch.runs, repeats, dtype=np.int64)
    states = _fast_states(batch, ("pop", "bins"))
    if states is not None:
        _POOL.reserve(2)
    for i in range(batch.runs):
        if states is not None:
            pop_rng = _POOL.load(0, *states["pop"][i])
            bins_rng = _POOL.load(1, *states["bins"][i])
        else:
            pop_rng, _model_rng, bins_rng = batch.streams(batch.run_lo + i)
        mask = _draw_positive_mask(batch.n, batch.x, pop_rng)
        if batch.n == 0 or inclusion == 0.0:
            # sample_bins short-circuits without a draw: all probes empty.
            sizes = np.zeros(repeats, dtype=np.int64)
            nonempty = 0
        else:
            draws = bins_rng.random((repeats, batch.n)) < inclusion
            sizes = draws.sum(axis=1)
            nonempty = int((draws[:, mask].sum(axis=1) > 0).sum())
        decisions[i] = nonempty > midpoint
        if tally is not None:
            tally.record(sizes, repeats - nonempty, 0)
    if tally is not None:
        tally.flush()
    return BatchDecision(decisions=decisions, queries=queries, exact=False)
