"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math

import pytest

from perfbench import hostspeed, serve_load, spans, stats


# -- nearest-rank percentile --------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0.5) == 1


def test_percentile_returns_an_observed_value():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert stats.percentile([7.5], 99) == 7.5


def test_percentile_counts_failures_as_missing_the_limit():
    values = [1.0] * 98 + [math.inf, math.inf]
    assert stats.percentile(values, 98) == 1.0
    assert stats.percentile(values, 99) == math.inf


@pytest.mark.parametrize("q", [0, -1, 100.5])
def test_percentile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        stats.percentile([1.0], q)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- span self time -----------------------------------------------------------


def test_self_times_subtracts_direct_children_only():
    rows = [
        (1, 0, 0, 100),   # root
        (2, 1, 10, 40),   # child
        (3, 2, 15, 25),   # grandchild: charged to 2, not to 1
        (4, 1, 50, 70),   # second child
    ]
    got = spans.self_times(rows)
    assert got == {1: 100 - 30 - 20, 2: 30 - 10, 3: 10, 4: 20}


def test_self_times_counts_overlapping_children_once():
    rows = [(1, 0, 0, 100), (2, 1, 10, 30), (3, 1, 20, 40), (4, 1, 90, 120)]
    assert spans.self_times(rows)[1] == 100 - 30 - 10


def _nested_calls(tracer):
    leaf = tracer.wrap(lambda: sum(range(200)), "fastseed.pool_load")

    def middle():
        leaf()
        leaf()
        return sum(range(500))

    mid = tracer.wrap(middle, "kernel.lockstep.1plus")

    def top():
        mid()
        leaf()
        return mid()

    return tracer.wrap(top, "experiments.curve")


def test_recorded_self_time_matches_the_reference():
    tracer = spans.Tracer()
    _nested_calls(tracer)()
    recs = tracer.records()
    assert recs.shape == (8, len(spans.FIELDS))
    reference = spans.self_times([tuple(r) for r in recs[:, [0, 1, 3, 4]]])
    for row in recs:
        assert row[5] == reference[int(row[0])]
    # Self times of a single-threaded tree add up to the root's duration.
    root = recs[recs[:, 1] == 0][0]
    assert recs[:, 5].sum() == root[4] - root[3]


def test_summary_totals_count_nested_same_name_spans_once():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(300)), "oracle.decide")
    outer = tracer.wrap(lambda: inner(), "oracle.decide")
    outer()
    summary = spans.Summary(tracer.records())
    rows = summary.of("oracle.decide")
    outer_row = rows[rows[:, 1] == 0][0]
    assert summary.count("oracle.decide") == 2
    assert summary.total_s("oracle.decide") == (outer_row[4] - outer_row[3]) / 1e9
    assert summary.self_s("oracle.decide") == pytest.approx(summary.total_s("oracle.decide"))


def test_dump_and_load_round_trip(tmp_path):
    tracer = spans.Tracer()
    _nested_calls(tracer)()
    before = tracer.records()
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    assert tracer.records().shape[0] == 0
    assert (spans.load_records([path]) == before).all()


def test_request_index():
    assert spans.request_index("q42") == 42
    assert spans.request_index("ping") == -1
    assert spans.request_index(None) == -1


# -- seeded schedule ----------------------------------------------------------


def _phases():
    return [serve_load.Phase("low", 100.0, 20.0), serve_load.Phase("high", 400.0, 20.0)]


def test_schedule_is_a_function_of_the_seed():
    a, b, c = _phases(), _phases(), _phases()
    serve_load.build_schedule(7, a)
    serve_load.build_schedule(7, b)
    serve_load.build_schedule(8, c)
    lines = lambda ps: [r.line for p in ps for r in p.requests]  # noqa: E731
    assert lines(a) == lines(b)
    assert lines(a) != lines(c)


def test_schedule_rates_ids_and_mix():
    phases = _phases()
    serve_load.build_schedule(3, phases)
    low, high = phases
    assert len(low.requests) == 2000 and len(high.requests) == 8000
    assert [r.due for r in low.requests[:3]] == [0.0, 0.01, 0.02]
    reqs = low.requests + high.requests
    assert [r.payload["id"] for r in reqs] == [f"q{i}" for i in range(len(reqs))]
    # Every block of 20 consecutive requests carries the exact mix.
    for lo in range(0, len(reqs), serve_load.BLOCK):
        block = [r.payload for r in reqs[lo:lo + serve_load.BLOCK]]
        assert sum(p.get("reliable") == "krepeat" for p in block) == 1
        assert sum(p.get("runs", 1) == 32 for p in block) == 2
    families = {
        (p["n"], p["x"], p["threshold"], p["algorithm"], p["collision_model"])
        for p in (r.payload for r in reqs)
        if "reliable" not in p and p.get("runs", 1) == 1
    }
    assert len(families) == len(serve_load.FAMILIES)


def test_phase_requests_do_not_depend_on_run_length():
    # Runs of different lengths split "low" into different windows and
    # put other phases before it; its n-th request stays the same.
    short = [serve_load.Phase("high", 200.0, 1.0), serve_load.Phase("low", 100.0, 2.0)]
    long = [serve_load.Phase("warmup", 200.0, 1.0), serve_load.Phase("high", 200.0, 3.0),
            serve_load.Phase("low", 100.0, 0.5), serve_load.Phase("high", 200.0, 1.0),
            serve_load.Phase("low", 100.0, 3.0)]
    serve_load.build_schedule(5, short)
    serve_load.build_schedule(5, long)
    shape = lambda ps: [  # noqa: E731
        {k: v for k, v in r.payload.items() if k != "id"}
        for p in ps if p.name == "low" for r in p.requests
    ]
    assert shape(short) == shape(long)[:200]


# -- backlog detection and the rate ladder ------------------------------------


def test_backlog_flat_lag_is_not_growing():
    due = [i / 100 for i in range(500)]
    lag = [0.004 + 0.002 * ((i * 37) % 11) / 11 for i in range(500)]
    assert not stats.backlog_growing(due, lag)


def test_backlog_linear_growth_is_detected():
    due = [i / 100 for i in range(500)]
    lag = [0.004 + 0.3 * d for d in due]  # arrivals outrun service by 30%
    assert stats.backlog_growing(due, lag)


def test_backlog_single_burst_then_recovery_is_not_growing():
    due = [i / 100 for i in range(600)]
    lag = [0.2 if 100 <= i < 120 else 0.005 for i in range(600)]
    assert not stats.backlog_growing(due, lag)


def test_backlog_ignores_failed_requests():
    due = [i / 100 for i in range(300)]
    lag = [math.inf if i % 50 == 0 else 0.005 for i in range(300)]
    assert not stats.backlog_growing(due, lag)


def test_max_rate_solves_the_fit_for_the_limit():
    # p99 = 1e-6 * rate**2 reaches 0.1 s at rate 316.2.
    rates = [100.0, 150.0, 200.0, 300.0, 400.0, 560.0, 780.0]
    p99s = [1e-6 * r ** 2 for r in rates]
    assert stats.max_rate_at_limit(rates, p99s, 0.1) == pytest.approx(math.sqrt(1e5))


def test_max_rate_fit_averages_one_noisy_rung():
    rates = [100.0, 200.0, 400.0, 800.0, 1600.0]
    p99s = [0.00625, 0.025, 0.1 * 1.3, 0.4, 1.6]  # p99 ~ rate**2, 400 q/s rung 30% high
    got = stats.max_rate_at_limit(rates, p99s, 0.1)
    two_rung = 200.0 + (math.log(0.1 / 0.025) / math.log(0.13 / 0.025)) * 200.0
    assert abs(got - 400.0) < abs(two_rung - 400.0)


def test_max_rate_edges():
    rates = [100.0, 200.0]
    assert stats.max_rate_at_limit(rates, [0.01, 0.02], 0.1) == 200.0
    assert stats.max_rate_at_limit(rates, [0.2, 0.3], 0.1) == 50.0
    # Failed requests (infinite p99) leave nothing to fit above the last good rung.
    assert stats.max_rate_at_limit(rates, [0.01, math.inf], 0.1) == 100.0


# -- host-speed correction ----------------------------------------------------


def test_host_speed_factor_is_the_median_reference_over_its_unit(monkeypatch):
    times = iter([0.006, 0.003, 0.0045])
    monkeypatch.setattr(hostspeed, "reference", lambda: next(times))
    speed = hostspeed.HostSpeed()
    speed.sample(3)
    assert speed.samples == [0.006, 0.003, 0.0045]
    assert speed.factor() == pytest.approx(0.0045 / hostspeed.REFERENCE_S)


def test_host_speed_reference_is_fixed_work():
    speed = hostspeed.HostSpeed()
    spent = speed.sample(2)
    assert len(speed.samples) == 2 and all(t > 0 for t in speed.samples)
    assert spent >= sum(speed.samples)
