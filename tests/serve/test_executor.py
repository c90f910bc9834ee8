"""Coalesced execution must be invisible in the answers, bit for bit."""

from __future__ import annotations

import pytest

from repro.serve.executor import execute_group
from repro.serve.request import QueryRequest


def _request(rid: str, *, seed: int, runs: int = 3, **overrides) -> QueryRequest:
    fields = {
        "id": rid,
        "tenant": "t",
        "n": 64,
        "x": 20,
        "threshold": 8,
        "runs": runs,
        "seed": seed,
    }
    fields.update(overrides)
    return QueryRequest(**fields)


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ["2tbins", "exponential"])
    @pytest.mark.parametrize("collision_model", ["1+", "2+"])
    def test_coalesced_equals_solo_equals_scalar(
        self, algorithm, collision_model
    ):
        """The acceptance-criterion identity: batch composition never
        changes a request's answers, and the vectorized kernel matches
        per-query scalar execution under fixed seeds."""
        requests = [
            _request(
                f"q{i}",
                seed=100 + i,
                runs=2 + i,
                algorithm=algorithm,
                collision_model=collision_model,
            )
            for i in range(4)
        ]
        coalesced = execute_group(requests)
        solo = [execute_group([r])[0] for r in requests]
        scalar = [execute_group([r], vectorize=False)[0] for r in requests]
        assert all(o.batched for o in coalesced)
        assert not any(o.batched for o in scalar)
        for got, alone, oracle in zip(coalesced, solo, scalar):
            assert got.decisions == alone.decisions == oracle.decisions
            assert got.queries == alone.queries == oracle.queries
            assert got.exact and alone.exact and oracle.exact

    def test_group_order_does_not_change_answers(self):
        requests = [_request(f"q{i}", seed=7 * i, runs=4) for i in range(3)]
        forward = execute_group(requests)
        backward = execute_group(list(reversed(requests)))
        for i, outcome in enumerate(forward):
            assert outcome.decisions == backward[2 - i].decisions
            assert outcome.queries == backward[2 - i].queries

    def test_matches_the_public_batch_api(self):
        """One served request == one threshold_query_batch call."""
        from repro.api import threshold_query_batch

        request = _request("q0", seed=42, runs=16)
        [outcome] = execute_group([request])
        reference = threshold_query_batch(
            request.n,
            request.x,
            request.threshold,
            runs=request.runs,
            algorithm=request.algorithm,
            collision_model=request.collision_model,
            seed=request.seed,
        )
        assert outcome.decisions == tuple(bool(d) for d in reference.decisions)
        assert outcome.queries == tuple(int(q) for q in reference.queries)


class TestScalarDegradation:
    def test_reliable_requests_take_the_scalar_path(self):
        request = _request("q0", seed=5, runs=4, reliable="krepeat")
        [outcome] = execute_group([request])
        assert not outcome.batched
        assert outcome.exact
        assert len(outcome.decisions) == 4

    def test_reliable_confirmations_cost_more_queries(self):
        plain = execute_group([_request("q0", seed=5, runs=8)])[0]
        confirmed = execute_group(
            [_request("q0", seed=5, runs=8, reliable="krepeat")]
        )[0]
        assert sum(confirmed.queries) > sum(plain.queries)

    def test_scalar_only_algorithms_fall_back(self):
        request = _request("q0", seed=5, runs=3, algorithm="prob-abns")
        [outcome] = execute_group([request])
        assert not outcome.batched
        assert outcome.exact


class TestGroupValidation:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            execute_group([])

    def test_mixed_coalesce_keys_rejected(self):
        with pytest.raises(ValueError, match="coalesce-key mismatch"):
            execute_group(
                [_request("a", seed=1), _request("b", seed=2, threshold=9)]
            )

    def test_probabilistic_scheme_reports_inexact(self):
        request = _request(
            "q0", seed=3, runs=2, n=128, x=100, threshold=64,
            algorithm="prob-threshold",
        )
        [outcome] = execute_group([request])
        assert not outcome.exact
