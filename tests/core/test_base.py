"""Unit tests for the shared round-execution machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import RoundOutcome, SessionState, ThresholdAlgorithm
from repro.group_testing.model import ModelSpec, OnePlusModel
from repro.group_testing.population import Population
from repro.group_testing.vectorized import QueryBatch


class OneBinForever(ThresholdAlgorithm):
    """Deliberately stalling policy: a single bin over everyone, always.

    With any positive present and ``t >= 2`` the single bin is non-empty
    every round, nothing is eliminated, and the session can never
    resolve -- exercising the safety valve.
    """

    name = "one-bin-forever"
    max_rounds = 25

    def _bins_for_round(self, state: SessionState) -> int:
        return 1


class BadPolicy(ThresholdAlgorithm):
    """Returns a non-positive bin count."""

    name = "bad-policy"

    def _bins_for_round(self, state: SessionState) -> int:
        return 0


class RecordingAlgorithm(ThresholdAlgorithm):
    """2t-bins behaviour that records every hook invocation."""

    name = "recording"

    def __init__(self) -> None:
        self.resets = 0
        self.observed: list[RoundOutcome] = []

    def _reset(self, state: SessionState) -> None:
        self.resets += 1

    def _bins_for_round(self, state: SessionState) -> int:
        return max(2, 2 * state.threshold)

    def _observe_round(self, state: SessionState, outcome: RoundOutcome) -> None:
        self.observed.append(outcome)


class TestSessionState:
    def test_resolved(self):
        state = SessionState(candidates=[1, 2], threshold=1)
        assert not state.resolved
        state.decision = False
        assert state.resolved

    def test_remaining_needed(self):
        state = SessionState(candidates=[], threshold=5, confirmed=3)
        assert state.remaining_needed == 2
        state.confirmed = 9
        assert state.remaining_needed == 0


class TestSafetyValves:
    def test_stalling_policy_trips_round_valve(self):
        pop = Population.from_count(16, 4, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="safety valve"):
            OneBinForever().decide(model, 2, np.random.default_rng(2))

    def test_nonpositive_bin_count_rejected(self):
        pop = Population.from_count(8, 2, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="bin policy"):
            BadPolicy().decide(model, 1, np.random.default_rng(2))

    @pytest.mark.parametrize(
        "algo, threshold, kind, match",
        [
            # Under 2+ captures let the single bin make progress, so the
            # stall is a 1+ scenario (on both paths).
            (OneBinForever(), 2, "1+", "safety valve \\(25\\)"),
            (BadPolicy(), 1, "1+", "bin policy"),
            (BadPolicy(), 1, "2+", "bin policy"),
        ],
    )
    def test_batch_kernel_keeps_both_valves(self, algo, threshold, kind, match):
        batch = QueryBatch.for_cell(
            seed=0, label="valve", x=4, n=16, threshold=threshold,
            run_lo=0, run_hi=3, model=ModelSpec(kind=kind),
        )
        with pytest.raises(RuntimeError, match=match):
            algo.decide_batch(batch)


class TestHooks:
    def test_reset_called_once_per_session(self):
        algo = RecordingAlgorithm()
        pop = Population.from_count(32, 10, np.random.default_rng(0))
        for _ in range(3):
            model = OnePlusModel(pop, np.random.default_rng(1))
            algo.decide(model, 4, np.random.default_rng(2))
        assert algo.resets == 3

    def test_observe_round_sees_every_round(self):
        algo = RecordingAlgorithm()
        pop = Population.from_count(64, 2, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        result = algo.decide(model, 8, np.random.default_rng(2))
        assert len(algo.observed) == result.rounds
        total_queried = sum(o.bins_queried for o in algo.observed)
        assert total_queried == result.queries

    def test_round_outcome_progress_flag(self):
        algo = RecordingAlgorithm()
        pop = Population.from_count(64, 0, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        algo.decide(model, 4, np.random.default_rng(2))
        assert all(o.progressed for o in algo.observed)  # silence eliminates

    def test_trivial_sessions_skip_hooks(self):
        algo = RecordingAlgorithm()
        pop = Population.from_count(8, 1, np.random.default_rng(0))
        model = OnePlusModel(pop, np.random.default_rng(1))
        algo.decide(model, 0, np.random.default_rng(2))
        assert algo.observed == []


class TestCandidateHygiene:
    def test_duplicate_free_candidate_list_preserved_order(self):
        """The surviving candidate list keeps its original id order so
        deterministic partitioning stays deterministic across rounds."""
        algo = RecordingAlgorithm()
        algo.partition_strategy = "deterministic"
        pop = Population(size=12, positives=frozenset({3, 9}))
        model = OnePlusModel(pop, np.random.default_rng(1))
        result = algo.decide(model, 2, np.random.default_rng(2))
        assert result.decision
