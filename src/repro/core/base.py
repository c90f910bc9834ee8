"""Shared round-execution machinery for the tcast algorithm family.

Every exact algorithm in the family is a loop of *rounds*; a round
partitions the surviving candidates into bins and queries them one after
another, maintaining three pieces of state:

* the **candidate set** -- nodes that may still be positive;
* the **confirmed count** -- positives individually identified via the
  capture effect (2+ model; persists across rounds);
* the **round evidence** -- the sum of sound per-bin lower bounds on
  positives observed *this* round (resets between rounds, because bins of
  different rounds are not disjoint).

Termination checks (after every query, per Algorithms 1-3):

* ``confirmed + evidence >= t``  ->  threshold achieved (``True``);
* ``confirmed + |candidates| < t``  ->  threshold impossible (``False``).

Algorithms differ only in how many bins each round uses, which is captured
by the :meth:`ThresholdAlgorithm._bins_for_round` hook.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.result import RoundRecord, ThresholdResult
from repro.group_testing.binning import partition_deterministic, partition_random
from repro.group_testing.model import ObservationKind, QueryModel
from repro.group_testing.vectorized import BatchDecision, QueryBatch, run_lockstep


@runtime_checkable
class ThresholdDecider(Protocol):
    """Anything that can answer a threshold query over a query model.

    The structural contract shared by the exact algorithms
    (:class:`ThresholdAlgorithm` subclasses), the probabilistic scheme
    (:class:`repro.core.probabilistic.ProbabilisticThreshold`), and the
    reliability wrapper (:class:`repro.core.reliable.ReliableThreshold`).
    The high-level API (:mod:`repro.api`) and the sweep engine
    (:mod:`repro.experiments.common`) accept any implementation.
    """

    @property
    def name(self) -> str:
        """Human-readable algorithm name (used in results and reports)."""
        ...

    def decide(
        self,
        model: QueryModel,
        threshold: int,
        rng: np.random.Generator,
        *,
        candidates: Optional[Sequence[int]] = None,
    ) -> ThresholdResult:
        """Answer ``x >= threshold`` and return the session's result."""
        ...


@runtime_checkable
class BatchThresholdDecider(Protocol):
    """A decider that can execute a whole Monte-Carlo cell at once.

    The batch-first counterpart of :class:`ThresholdDecider`: instead of
    one ``(model, rng)`` pair, :meth:`decide_batch` receives a
    :class:`~repro.group_testing.vectorized.QueryBatch` describing every
    trial of a (label, x)-cell -- population shape, threshold, model spec
    and the per-run RNG streams -- and returns the per-run verdicts and
    query counts in one :class:`~repro.group_testing.vectorized.BatchDecision`.

    The contract is **bit-exactness**: run ``r`` of ``decide_batch`` must
    consume run ``r``'s streams exactly as ``decide`` would and produce
    the same verdict and query count.  Implementations raise
    :class:`~repro.group_testing.vectorized.UnsupportedBatch` for any
    configuration they cannot reproduce exactly (detection-failure hooks,
    non-random partitioning, ...), and callers -- the sweep engine's
    dispatcher, :func:`repro.api.threshold_query_batch` -- fall back to
    the scalar path.

    Implemented by every exact algorithm
    (:meth:`ThresholdAlgorithm.decide_batch` replays any bin policy's
    round hooks per run; 2tBins and Exponential Increase override it
    with pure schedules) and by the non-adaptive probabilistic scheme
    (:class:`~repro.core.probabilistic.ProbabilisticThreshold`).  The
    Sec V-D probe (:class:`~repro.core.abns.ProbabilisticAbns`) and the
    unwrapped reliability layer stay scalar.  The registry mirrors this
    capability as :attr:`repro.api.AlgorithmSpec.vectorized`.
    """

    @property
    def name(self) -> str:
        """Human-readable algorithm name (used in results and reports)."""
        ...

    def decide_batch(self, batch: "QueryBatch") -> "BatchDecision":
        """Answer every trial of ``batch``, bit-identical to ``decide``."""
        ...


@dataclass
class SessionState:
    """Mutable state of an in-progress threshold-querying session.

    Attributes:
        candidates: Node ids that may still be positive (the batch
            kernel stands in a ``range`` of the surviving count).
        confirmed: Count of individually-identified positives (captures).
        threshold: The queried threshold ``t``.
        round_index: Zero-based index of the current round.
        decision: Set when a termination condition fires.
        history: Completed :class:`RoundRecord` entries.
    """

    candidates: Sequence[int]
    threshold: int
    confirmed: int = 0
    round_index: int = 0
    decision: Optional[bool] = None
    history: List[RoundRecord] = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        """Whether a decision has been reached."""
        return self.decision is not None

    @property
    def remaining_needed(self) -> int:
        """Positives still needed beyond the confirmed ones."""
        return max(0, self.threshold - self.confirmed)


@dataclass(frozen=True)
class RoundOutcome:
    """What a single executed round observed (input to adaptive policies).

    Attributes:
        bins_requested: Bin count the policy asked for.
        bins_queried: Bins actually queried before termination/exhaustion.
        silent_bins: Bins that read silent.
        progressed: Whether the round eliminated at least one candidate or
            confirmed at least one positive.
    """

    bins_requested: int
    bins_queried: int
    silent_bins: int
    progressed: bool


class ThresholdAlgorithm(abc.ABC):
    """Base class for the exact tcast algorithms.

    Subclasses implement :meth:`_bins_for_round` (how many bins to use
    next) and may override :meth:`_reset` (per-session state) and
    :meth:`_observe_round` (adaptive state updates).

    The public entry points are :meth:`decide` and :meth:`decide_batch`.

    **Hook contract.**  The three hooks may read only
    ``len(state.candidates)``, ``state.threshold``, ``state.confirmed``,
    ``state.remaining_needed``, ``state.round_index`` and the
    :class:`RoundOutcome` -- never candidate identities, the model or
    the RNG -- and must not consume randomness.  :meth:`_reset` must
    rebind (not mutate in place) every piece of per-session state, since
    :meth:`decide_batch` gives each run a shallow copy of the algorithm.
    Under that contract the batch kernel replays the hooks bit-exactly.
    """

    #: Human-readable algorithm name (used in results and reports).
    name: str = "threshold-algorithm"

    #: Safety valve: abort after this many rounds (a correct implementation
    #: never gets near it; it guards tests against adaptive-policy bugs).
    max_rounds: int = 10_000

    #: How each round partitions the candidates: ``"random"`` (the
    #: paper's choice, default) or ``"deterministic"`` (sorted contiguous
    #: slices, as in the companion theory paper).  Class-level switch so
    #: every subclass inherits it; override per instance for ablations.
    partition_strategy: str = "random"

    def decide(
        self,
        model: QueryModel,
        threshold: int,
        rng: np.random.Generator,
        *,
        candidates: Optional[Sequence[int]] = None,
    ) -> ThresholdResult:
        """Run the algorithm to completion and return its verdict.

        Args:
            model: The query oracle (1+/2+ abstract model or the
                packet-level testbed adapter).
            threshold: The threshold ``t`` (``>= 0``).
            rng: Randomness for bin assignment (kept separate from the
                model's internal randomness).
            candidates: Participant ids to query; defaults to the model's
                full population ``0..N-1``.

        Returns:
            A :class:`ThresholdResult`; ``result.queries`` counts only the
            queries charged during this call.

        Raises:
            ValueError: If ``threshold`` is negative.
            RuntimeError: If the round safety valve trips (algorithm bug).
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        ids = list(range(model.population_size)) if candidates is None else list(candidates)
        start_queries = model.queries_used
        state = SessionState(candidates=ids, threshold=threshold)
        self._reset(state)

        if threshold == 0:
            state.decision = True  # x >= 0 vacuously
        elif len(ids) < threshold:
            state.decision = False

        while not state.resolved:
            if state.round_index >= self.max_rounds:
                raise RuntimeError(
                    f"{self.name}: round safety valve ({self.max_rounds}) "
                    f"tripped with {len(state.candidates)} candidates left"
                )
            bins_requested = self._bins_for_round(state)
            if bins_requested < 1:
                raise RuntimeError(
                    f"{self.name}: bin policy returned {bins_requested}"
                )
            outcome = self._run_round(model, state, bins_requested, rng)
            self._observe_round(state, outcome)
            state.round_index += 1

        return ThresholdResult(
            decision=bool(state.decision),
            queries=model.queries_used - start_queries,
            rounds=state.round_index,
            threshold=threshold,
            confirmed_positives=state.confirmed,
            exact=True,
            history=tuple(state.history),
            algorithm=self.name,
        )

    def decide_batch(self, batch: QueryBatch) -> BatchDecision:
        """Answer every trial of ``batch`` on the lockstep kernel.

        Bit-identical to calling :meth:`decide` once per run: each run
        replays this algorithm's own hooks on a fresh copy (see the hook
        contract in the class docstring), while the kernel shares the
        partition, counting and termination work across runs.
        """
        return run_lockstep(
            batch,
            policy=_HookReplay(self, batch),
            partition_strategy=self.partition_strategy,
            algorithm=self.name,
            max_rounds=self.max_rounds,
        )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def _reset(self, state: SessionState) -> None:
        """Initialise per-session adaptive state (optional override)."""

    @abc.abstractmethod
    def _bins_for_round(self, state: SessionState) -> int:
        """Number of bins to use for the upcoming round (``>= 1``)."""

    def _observe_round(self, state: SessionState, outcome: RoundOutcome) -> None:
        """Consume a finished round's outcome (optional override)."""

    # ------------------------------------------------------------------
    # Round executor
    # ------------------------------------------------------------------

    def _run_round(
        self,
        model: QueryModel,
        state: SessionState,
        bins_requested: int,
        rng: np.random.Generator,
    ) -> RoundOutcome:
        """Execute one round: partition, query, update, check termination."""
        if self.partition_strategy == "random":
            bins = partition_random(state.candidates, bins_requested, rng)
        elif self.partition_strategy == "deterministic":
            bins = partition_deterministic(state.candidates, bins_requested)
        else:
            raise ValueError(
                f"unknown partition strategy {self.partition_strategy!r}"
            )
        # Round-oriented substrates (backcast) broadcast the whole
        # member-to-bin assignment once per round; abstract models have no
        # such hook and skip it.
        begin_round = getattr(model, "begin_round", None)
        if begin_round is not None:
            begin_round(bins)
        candidate_set = set(state.candidates)
        silent_bins = 0
        captured = 0
        evidence = 0
        bins_queried = 0

        for members in bins:
            obs = model.query(members)
            bins_queried += 1
            if obs.kind is ObservationKind.SILENT:
                silent_bins += 1
                candidate_set.difference_update(members)
            elif obs.kind is ObservationKind.CAPTURE:
                captured += 1
                state.confirmed += 1
                if obs.captured_node is not None:
                    candidate_set.discard(obs.captured_node)
            else:  # undecodable activity
                evidence += obs.min_positives
            if state.confirmed + evidence >= state.threshold:
                state.decision = True
                break
            if state.confirmed + len(candidate_set) < state.threshold:
                state.decision = False
                break

        eliminated = len(state.candidates) - len(candidate_set)
        # Preserve id order for deterministic partitioning downstream.
        state.candidates = [c for c in state.candidates if c in candidate_set]
        record = RoundRecord(
            index=state.round_index,
            bins_requested=bins_requested,
            bins_queried=bins_queried,
            silent_bins=silent_bins,
            captured=captured,
            evidence=evidence,
            eliminated=eliminated,
            candidates_after=len(state.candidates),
            p_estimate=self._current_estimate(),
        )
        state.history.append(record)
        return RoundOutcome(
            bins_requested=bins_requested,
            bins_queried=bins_queried,
            silent_bins=silent_bins,
            progressed=eliminated > 0 or captured > 0,
        )

    def _current_estimate(self) -> Optional[float]:
        """ABNS overrides this to expose its ``p`` estimate in records."""
        return None


class _HookReplay:
    """An algorithm's round hooks, replayed per run for the batch kernel.

    Implements :class:`repro.group_testing.vectorized.RunPolicy`.  Run
    ``i`` starts the way :meth:`ThresholdAlgorithm.decide` starts a
    session -- a copy of the algorithm, reset on a fresh
    :class:`SessionState` -- when the kernel first asks for its bins, so
    runs the kernel resolves without a round never build one.
    """

    def __init__(self, algorithm: ThresholdAlgorithm, batch: QueryBatch) -> None:
        self._algorithm = algorithm
        self._n = batch.n
        self._threshold = batch.threshold
        self._runs: Dict[int, Tuple[ThresholdAlgorithm, SessionState]] = {}

    def bins(self, run: int) -> int:
        """The run's next ``_bins_for_round``."""
        session = self._runs.get(run)
        if session is None:
            algo = copy.copy(self._algorithm)
            state = SessionState(candidates=range(self._n), threshold=self._threshold)
            algo._reset(state)
            session = self._runs[run] = (algo, state)
        algo, state = session
        return algo._bins_for_round(state)

    def observe(
        self,
        run: int,
        requested: int,
        queried: int,
        silent: int,
        remaining: int,
        confirmed: int,
    ) -> None:
        """Advance the run's session past a finished, unresolved round."""
        algo, state = self._runs[run]
        progressed = remaining < len(state.candidates) or confirmed > state.confirmed
        state.candidates = range(remaining)
        state.confirmed = confirmed
        algo._observe_round(
            state,
            RoundOutcome(
                bins_requested=requested,
                bins_queried=queried,
                silent_bins=silent,
                progressed=progressed,
            ),
        )
        state.round_index += 1
