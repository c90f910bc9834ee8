"""Bit-exactness of the vectorized Monte-Carlo kernel.

The vectorized path must be indistinguishable from the scalar oracle:
identical verdicts and query counts for every run, identical RNG stream
consumption (the next draw after a cell matches), identical ``model.*``
metrics totals, and a guaranteed scalar fallback whenever a fault plan
or an unsupported configuration is in play.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    REGISTRY,
    algorithm_factory,
    make_algorithm,
    threshold_query_batch,
)
from repro.core import (
    Abns,
    AbnsBinPolicy,
    BatchThresholdDecider,
    FourFoldIncrease,
    OracleBins,
    PauseAndContinue,
    TwoTBins,
)
from repro.experiments.common import SweepEngine
from repro.faults.injectors import VerdictFlip
from repro.faults.plan import FaultPlan
from repro.group_testing import (
    ModelSpec,
    Population,
    QueryBatch,
    QueryBudgetExceeded,
    UnsupportedBatch,
    run_lockstep,
)
from repro.obs import get_registry

DECIDER_NAMES = sorted(key for key, spec in REGISTRY.items() if spec.decider)
VECTORIZED_NAMES = sorted(
    key for key, spec in REGISTRY.items() if spec.vectorized
)
MODEL_KINDS = ("1+", "k+", "2+")

N, T = 48, 6
XS = (0, 3, 5, 6, 7, 24, 48)
RUNS = 8
SEED = 1234


def _model_spec(kind: str) -> ModelSpec:
    return ModelSpec(kind=kind, max_queries=80 * N, k=3)


def _curve(name: str, kind: str, vectorize: bool):
    engine = SweepEngine(N, T, runs=RUNS, seed=SEED, vectorize=vectorize)
    return engine.query_curve(
        name, XS, algorithm_factory(name), _model_spec(kind)
    )


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Every test starts and ends with a disabled, zeroed registry."""
    registry = get_registry()
    registry.disable()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


def _memoized_streams(salt: int):
    """A pure per-run stream factory that exposes its created generators."""
    cache = {}

    def streams(run: int):
        if run not in cache:
            seq = np.random.SeedSequence([salt, run])
            cache[run] = tuple(np.random.default_rng(s) for s in seq.spawn(3))
        return cache[run]

    return streams, cache


class TestEngineParity:
    """SweepEngine(vectorize=True) == SweepEngine(vectorize=False)."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", DECIDER_NAMES)
    def test_curves_identical_across_registry(self, name, kind):
        vec = _curve(name, kind, vectorize=True)
        scalar = _curve(name, kind, vectorize=False)
        assert vec.ys == scalar.ys, f"{name}/{kind}"
        assert vec.stderr == scalar.stderr, f"{name}/{kind}"

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", VECTORIZED_NAMES)
    def test_vectorized_entries_take_the_kernel_path(
        self, name, kind, _pristine_registry
    ):
        registry = _pristine_registry
        registry.enable()
        _curve(name, kind, vectorize=True)
        snapshot = registry.snapshot()
        if name == "prob-threshold" and kind == "2+":
            # Capture-model probes draw model randomness per probe; the
            # kernel refuses and every cell falls back to the oracle.
            assert snapshot.counter("sweep.vectorized_shards") == 0
            assert snapshot.counter("sweep.vectorized_fallback") > 0
        else:
            assert snapshot.counter("sweep.vectorized_shards") > 0, (
                f"{name}/{kind}: no cell dispatched to the kernel"
            )

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", VECTORIZED_NAMES)
    def test_metrics_totals_reconcile(self, name, kind, _pristine_registry):
        registry = _pristine_registry
        registry.enable()
        _curve(name, kind, vectorize=True)
        vec = registry.snapshot()
        registry.reset()
        _curve(name, kind, vectorize=False)
        scalar = registry.snapshot()
        for counter in (
            "model.queries",
            "model.verdict.silent",
            "model.verdict.activity",
            "model.verdict.capture",
            "sweep.runs",
            "sweep.shards",
        ):
            assert vec.counter(counter) == scalar.counter(counter), counter
        vec_hist = vec.histograms.get("model.bin_size")
        scalar_hist = scalar.histograms.get("model.bin_size")
        assert (vec_hist is None) == (scalar_hist is None)
        if vec_hist is not None:
            assert vec_hist.counts == scalar_hist.counts
            assert vec_hist.total == scalar_hist.total
            assert vec_hist.sum == scalar_hist.sum
            assert vec_hist.min == scalar_hist.min
            assert vec_hist.max == scalar_hist.max


class TestStreamConsumption:
    """The kernel leaves every RNG stream exactly where the scalar path would."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_post_run_generator_states_match_scalar(self, kind):
        spec = _model_spec(kind)
        runs = 6
        vec_streams, vec_cache = _memoized_streams(salt=9)
        batch = QueryBatch(
            n=32, x=10, threshold=5, run_lo=0, run_hi=runs,
            model=spec, streams=vec_streams,
        )
        out = TwoTBins().decide_batch(batch)

        scalar_streams, scalar_cache = _memoized_streams(salt=9)
        for run in range(runs):
            pop_rng, model_rng, bins_rng = scalar_streams(run)
            pop = Population.from_count(32, 10, pop_rng)
            model = spec(pop, model_rng)
            result = TwoTBins().decide(model, 5, bins_rng)
            assert result.decision == bool(out.decisions[run])
            assert result.queries == int(out.queries[run])

        for run in range(runs):
            for vec_gen, scalar_gen in zip(vec_cache[run], scalar_cache[run]):
                assert (
                    vec_gen.bit_generator.state
                    == scalar_gen.bit_generator.state
                ), f"run {run}: stream consumed a different number of draws"


#: Adaptive bin policies the kernel runs by replaying their round hooks
#: (``x`` is the cell's true positive count, for the oracle).
POLICIES = {
    "abns-paper-t": lambda x: Abns(p0_multiple=1.0),
    "abns-paper-2t": lambda x: Abns(p0_multiple=2.0),
    "abns-paper-p0": lambda x: Abns(p0=3.0),
    "abns-hybrid-t": lambda x: Abns(p0_multiple=1.0, policy=AbnsBinPolicy.HYBRID),
    "abns-hybrid-2t-stag1": lambda x: Abns(
        p0_multiple=2.0, policy=AbnsBinPolicy.HYBRID, stagnation_limit=1
    ),
    "abns-paper-stag1": lambda x: Abns(p0_multiple=0.5, stagnation_limit=1),
    "abns-paper-stag2": lambda x: Abns(p0=1.0, stagnation_limit=2),
    "abns-hybrid-stag3": lambda x: Abns(
        p0=10.0, policy=AbnsBinPolicy.HYBRID, stagnation_limit=3
    ),
    "oracle": OracleBins,
    "pause-and-continue": lambda x: PauseAndContinue(),
    "pause-and-continue-1": lambda x: PauseAndContinue(
        initial_bins=1, elimination_fraction=0.5
    ),
    "four-fold": lambda x: FourFoldIncrease(),
}

#: ``(n, x, t)`` cells: below, at and above the threshold, plus ``t = 0``
#: and ``n < t`` (both resolved without a round).
POLICY_CELLS = (
    (48, 0, 6), (48, 3, 6), (48, 6, 6), (48, 7, 6), (48, 30, 6),
    (48, 48, 6), (60, 20, 1), (40, 12, 20), (16, 5, 0), (5, 3, 8),
)


def _scalar_cell(factory, spec, n, x, t, runs, seed):
    """Per-run ``decide`` over the streams the kernel reconstructs."""
    batch = QueryBatch.for_cell(
        seed=seed, label="policy", x=x, n=n, threshold=t,
        run_lo=0, run_hi=runs, model=spec,
    )
    out = []
    for run in range(runs):
        pop_rng, model_rng, bins_rng = batch.streams(run)
        model = spec(Population.from_count(n, x, pop_rng), model_rng)
        result = factory(x).decide(model, t, bins_rng)
        out.append((result.decision, result.queries))
    return out


def _model_counters(registry):
    snapshot = registry.snapshot()
    counters = {
        k: v for k, v in snapshot.counters.items() if k.startswith("model.")
    }
    return counters, snapshot.histograms.get("model.bin_size")


class TestAdaptivePolicyParity:
    """Hook-replayed policies on the kernel == per-run scalar ``decide``."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_decisions_queries_and_counters_match(
        self, name, kind, _pristine_registry
    ):
        registry = _pristine_registry
        registry.enable()
        factory = POLICIES[name]
        spec = _model_spec(kind)
        runs = 7
        for cell, (n, x, t) in enumerate(POLICY_CELLS):
            seed = 100 + cell
            registry.reset()
            scalar = _scalar_cell(factory, spec, n, x, t, runs, seed)
            scalar_counters = _model_counters(registry)
            registry.reset()
            out = factory(x).decide_batch(
                QueryBatch.for_cell(
                    seed=seed, label="policy", x=x, n=n, threshold=t,
                    run_lo=0, run_hi=runs, model=spec,
                )
            )
            assert out.exact
            vec = list(zip(out.decisions.tolist(), out.queries.tolist()))
            assert vec == scalar, f"{name}/{kind} at n={n} x={x} t={t}"
            assert _model_counters(registry) == scalar_counters, (
                f"{name}/{kind} at n={n} x={x} t={t}"
            )

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("name", ["abns-paper-t", "oracle", "four-fold"])
    def test_budget_exhaustion_raises_on_both_paths(self, name, kind):
        factory = POLICIES[name]
        spec = ModelSpec(kind=kind, k=3, max_queries=3)
        with pytest.raises(QueryBudgetExceeded, match="budget of 3"):
            _scalar_cell(factory, spec, 48, 20, 12, 4, 7)
        with pytest.raises(QueryBudgetExceeded, match="budget of 3"):
            factory(20).decide_batch(
                QueryBatch.for_cell(
                    seed=7, label="policy", x=20, n=48, threshold=12,
                    run_lo=0, run_hi=4, model=spec,
                )
            )

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_post_run_generator_states_match_scalar(self, kind):
        spec = _model_spec(kind)
        runs = 5
        vec_streams, vec_cache = _memoized_streams(salt=11)
        Abns(p0_multiple=2.0).decide_batch(
            QueryBatch(
                n=40, x=9, threshold=5, run_lo=0, run_hi=runs,
                model=spec, streams=vec_streams,
            )
        )
        scalar_streams, scalar_cache = _memoized_streams(salt=11)
        for run in range(runs):
            pop_rng, model_rng, bins_rng = scalar_streams(run)
            model = spec(Population.from_count(40, 9, pop_rng), model_rng)
            Abns(p0_multiple=2.0).decide(model, 5, bins_rng)
        for run in range(runs):
            for vec_gen, scalar_gen in zip(vec_cache[run], scalar_cache[run]):
                assert (
                    vec_gen.bit_generator.state
                    == scalar_gen.bit_generator.state
                ), f"run {run}: stream consumed a different number of draws"

    def test_algorithm_instance_is_not_mutated(self):
        algo = Abns(p0_multiple=1.0)
        before = dict(vars(algo))
        algo.decide_batch(
            QueryBatch.for_cell(
                seed=3, label="policy", x=10, n=48, threshold=6,
                run_lo=0, run_hi=4, model=_model_spec("1+"),
            )
        )
        assert vars(algo) == before


class TestBatchFacade:
    """threshold_query_batch: spawn streams, dispatch, fallback."""

    def test_exact_and_deterministic(self):
        above = threshold_query_batch(64, 20, 8, runs=12, seed=5)
        below = threshold_query_batch(64, 4, 8, runs=12, seed=5)
        again = threshold_query_batch(64, 20, 8, runs=12, seed=5)
        assert above.exact
        assert above.decisions.all()
        assert not below.decisions.any()
        assert (above.decisions == again.decisions).all()
        assert (above.queries == again.queries).all()

    def test_dispatches_to_kernel_when_supported(self, monkeypatch):
        calls = []
        original = TwoTBins.decide_batch

        def spy(self, batch):
            calls.append(batch)
            return original(self, batch)

        monkeypatch.setattr(TwoTBins, "decide_batch", spy)
        threshold_query_batch(32, 10, 4, runs=3, seed=1)
        assert len(calls) == 1

    def test_fault_plan_forces_scalar_path(self, monkeypatch):
        def forbidden(self, batch):
            raise AssertionError("kernel used despite an active fault plan")

        monkeypatch.setattr(TwoTBins, "decide_batch", forbidden)
        plan = FaultPlan([VerdictFlip(p_drop=0.2, only_single=True)], seed=4)
        out = threshold_query_batch(
            32, 10, 4, runs=3, seed=1, fault_plan=plan
        )
        assert out.decisions.shape == (3,)

    def test_unsupported_batch_falls_back_to_scalar(self, monkeypatch):
        # Capture-model probes are not vectorized: decide_batch raises
        # UnsupportedBatch and the facade reruns on the scalar path.
        from repro.core import ProbabilisticThreshold

        original = ProbabilisticThreshold.decide_batch
        raised = []

        def spy(self, batch):
            try:
                return original(self, batch)
            except UnsupportedBatch:
                raised.append(True)
                raise

        monkeypatch.setattr(ProbabilisticThreshold, "decide_batch", spy)
        out = threshold_query_batch(
            32, 16, 4, runs=4, seed=2,
            algorithm="prob-threshold", collision_model="2+",
        )
        assert raised == [True]
        assert not out.exact
        assert out.decisions.shape == (4,)

    def test_scalar_only_algorithm_supported(self):
        out = threshold_query_batch(
            32, 10, 4, runs=3, seed=1, algorithm="prob-abns"
        )
        assert out.decisions.all()

    def test_negative_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            threshold_query_batch(8, 2, 1, runs=-1)

    def test_vectorizable_property(self):
        assert FaultPlan.none().vectorizable
        plan = FaultPlan([VerdictFlip(p_drop=0.2, only_single=True)], seed=0)
        assert not plan.vectorizable


def _miss_probability(size: int) -> float:
    # Never actually misses: the hook's mere presence must force the
    # scalar path (the kernel cannot replay its model-stream draws),
    # while the results stay exact and comparable.
    return 0.0


class TestEngineFallback:
    """Detection-failure hooks force every cell onto the scalar path."""

    def test_detection_hook_counts_as_fallback(self, _pristine_registry):
        registry = _pristine_registry
        registry.enable()
        engine = SweepEngine(N, T, runs=RUNS, seed=SEED, vectorize=True)
        spec = ModelSpec(
            kind="1+", max_queries=80 * N,
            detection_failure=_miss_probability,
        )
        engine.query_curve("2tBins", [6, 24], algorithm_factory("2tbins"), spec)
        snapshot = registry.snapshot()
        assert snapshot.counter("sweep.vectorized_shards") == 0
        assert snapshot.counter("sweep.vectorized_fallback") > 0

    def test_results_identical_despite_fallback(self):
        spec = ModelSpec(
            kind="1+", max_queries=80 * N,
            detection_failure=_miss_probability,
        )

        def curve(vectorize):
            engine = SweepEngine(
                N, T, runs=RUNS, seed=SEED, vectorize=vectorize
            )
            return engine.query_curve(
                "2tBins", [6, 24], algorithm_factory("2tbins"), spec
            )

        assert curve(True).ys == curve(False).ys


class TestKernelEdgeCases:
    def _batch(self, *, n=16, x=5, threshold=4, runs=3, spec=None):
        streams, _ = _memoized_streams(salt=3)
        return QueryBatch(
            n=n, x=x, threshold=threshold, run_lo=0, run_hi=runs,
            model=spec if spec is not None else ModelSpec(kind="1+"),
            streams=streams,
        )

    def test_threshold_zero_is_free(self):
        out = run_lockstep(self._batch(threshold=0), lambda r: 8)
        assert out.decisions.all()
        assert (out.queries == 0).all()

    def test_population_smaller_than_threshold(self):
        out = run_lockstep(self._batch(n=3, x=2, threshold=5), lambda r: 8)
        assert not out.decisions.any()
        assert (out.queries == 0).all()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            run_lockstep(self._batch(threshold=-1), lambda r: 8)

    def test_budget_exhaustion_matches_scalar_error(self):
        spec = ModelSpec(kind="1+", max_queries=2)
        with pytest.raises(QueryBudgetExceeded, match="budget of 2"):
            run_lockstep(self._batch(spec=spec), lambda r: 8)

    def test_detection_hook_unsupported(self):
        spec = ModelSpec(kind="1+", detection_failure=_miss_probability)
        with pytest.raises(UnsupportedBatch):
            run_lockstep(self._batch(spec=spec), lambda r: 8)

    def test_non_random_partitioning_unsupported(self):
        with pytest.raises(UnsupportedBatch):
            run_lockstep(
                self._batch(), lambda r: 8,
                partition_strategy="deterministic",
            )

    def test_batch_protocol_membership(self):
        assert isinstance(TwoTBins(), BatchThresholdDecider)
        assert isinstance(make_algorithm("exponential"), BatchThresholdDecider)
        assert isinstance(make_algorithm("abns"), BatchThresholdDecider)
        assert not isinstance(make_algorithm("prob-abns"), BatchThresholdDecider)
