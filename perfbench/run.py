"""The repository benchmark's one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_vectorized --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
corrected for the host's speed (see ``perfbench/hostspeed.py``);
``--trace 1`` measures the per-layer metrics (spans around the program's
public calls, plus a short untraced leg for the tracing overhead).  A
report goes to standard error; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units, and the default ``--seconds`` (``run_seconds``), come
from ``BENCHMARK.json`` at the repository root.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import serve_load, spans, stats  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402

WORKLOADS = ("sweep_vectorized", "sweep_mixed", "serve_open")

#: The seed whose output digests are recorded in ``expected.json``.
DEFAULT_SEED = 1

#: Set-up measurements per run (the median is reported).  The sweeps
#: take them spread over the run, one before each fifth of it.
SETUP_SAMPLES = 5

#: Share of a ``--trace 1`` run spent on the untraced reference leg.
UNTRACED_SHARE = 0.35

#: serve_open: open-loop phases as (name, queries/s, share of --seconds),
#: which also form the rate ladder for ``max_rate_qps``.  ``low`` keeps
#: the queue empty, ``high`` adds queue waits and some coalescing while
#: staying below the knee when the host slows (at 200 q/s its p50 rose
#: from 4 ms to 7-13 ms in the slow runs of a set), and the rungs above
#: them find where the p99 limit breaks.  The knee moves with the
#: host's speed (450 to 1400 q/s on the reference host), so the rungs
#: step by 1.4x over that range.  The last rung must overload the daemon
#: (``trials_per_s`` is its throughput there); it is about twice the
#: saturated throughput on the reference host, and a run in which it
#: keeps up fails.
SERVE_PHASES = (
    ("low", 100.0, 0.30),
    ("high", 150.0, 0.30),
    ("rung400", 400.0, 0.06),
    ("rung560", 560.0, 0.08),
    ("rung780", 780.0, 0.08),
    ("rung1100", 1100.0, 0.08),
    ("rung1550", 1550.0, 0.06),
    ("rung2500", 2500.0, 0.04),
)
#: Each phase runs as this many windows, interleaved with the others.
SERVE_ROUNDS = 5
#: Warm-up before the measured phases (not reported).
SERVE_WARMUP = ("warmup", 200.0, 1.0)
#: p99 latency limit for ``max_rate_qps``, in seconds.
SERVE_P99_LIMIT_S = 0.100
#: Passes of the host-speed reference after every serve window.
SERVE_REFERENCE_PASSES = 4
#: Served answers re-computed on the scalar oracle per run.
SERVE_ORACLE_SAMPLE = 24
#: Leading ``low`` answers covered by the recorded digest (the ``low``
#: windows hold ``30 * --seconds`` requests).
SERVE_DIGEST_COUNT = 512


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def host_info(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "mode": "traced" if trace else "untraced",
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def save_trace(workload: str, recs: np.ndarray) -> None:
    """Write a traced run's spans to ``.perfbench/<workload>-trace.npz``."""
    path = ROOT / ".perfbench" / f"{workload}-trace.npz"
    np.savez_compressed(path, spans=recs, names=np.array(spans.NAMES),
                        fields=np.array(spans.FIELDS))
    log(f"{workload}: {len(recs)} spans written to {path.relative_to(ROOT)}")


def latency_metrics(lat_ms: Dict[str, List[float]]) -> Dict[str, float]:
    """p50 and p99 of the ``low`` and ``high`` latencies (ms).

    The untraced run reports the p50s; the traced run reports the p99s,
    which rare stalls decide too often to carry a bound (see README).
    """
    out = {}
    for level in ("low", "high"):
        out[f"latency_p50_ms.{level}"] = stats.percentile(lat_ms[level], 50)
        out[f"latency_p99_ms.{level}"] = stats.percentile(lat_ms[level], 99)
    return out


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: pathlib.Path) -> float:
    """One set-up sample in a fresh interpreter (import through first cell)."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload, str(seed), str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_sweep(workload: str, seed: int, seconds: int, trace: int,
              work: pathlib.Path, expected: Dict[str, Any]) -> Tuple[bool, int, int, Dict[str, float]]:
    from perfbench import sweeps  # imports the program
    from repro.obs import get_registry

    errors: List[str] = []
    journals = sweeps.Journals(work)
    speed = HostSpeed()
    sweeps.first_cell(workload, seed, journals)  # warm-up: pool, lazy imports
    registry = get_registry()
    metrics: Dict[str, float] = {}
    start = time.perf_counter()
    if not trace:
        setup: List[float] = []
        its = []
        for i in range(SETUP_SAMPLES):
            setup.append(setup_probe(workload, seed, work))
            its += sweeps.measure(workload, seed, journals,
                                  start + seconds * (i + 1) / SETUP_SAMPLES, False, speed)
        its = its or [sweeps.iterate(workload, seed, journals, False, speed)]
        plain: List[sweeps.Iteration] = []
    else:
        registry.reset()
        registry.enable()
        plain = sweeps.measure(workload, seed, journals,
                               start + seconds * UNTRACED_SHARE, True, speed)
        sweeps.shutdown_executors()  # the traced leg forks workers with the wrappers
        tracer = spans.Tracer(work)
        uninstall = spans.install(tracer)
        try:
            sweeps.first_cell(workload, seed, journals)
            tracer.clear()  # drop the warm-up's spans, here and in workers
            for path in work.glob("spans-*.bin"):
                path.unlink()
            its = (sweeps.measure(workload, seed, journals, start + seconds, True, speed)
                   or [sweeps.iterate(workload, seed, journals, True, speed)])
        finally:
            uninstall()
            registry.disable()
        recs = tracer.records()
        worker = spans.load_records(sorted(work.glob("spans-*.bin")))
        if sweeps.JOBS[workload] > 1 and not worker.size:
            log("warning: no spans came back from pool workers "
                "(workers not forked from this process?)")
        summary = spans.Summary(np.concatenate([recs, worker]))
        save_trace(workload, summary.recs)
        metrics.update(sweep_layers(summary, plain, its))
    sweeps.shutdown_executors()

    digests = {it.digest for it in plain + its}
    if len(digests) != 1:
        errors.append(f"series digest differs between iterations: {sorted(digests)}")
    first = its[0]
    log(f"{workload}: series digest {first.digest}")
    want = expected.get(workload, {})
    if seed == DEFAULT_SEED and want.get("series") and first.digest != want["series"]:
        errors.append(f"series digest {first.digest} != recorded {want['series']}")
    counters = [
        {k: v for k, v in it.counters.items() if k.startswith("model.")}
        for it in plain + its
    ]
    if counters and any(c != counters[0] for c in counters):
        errors.append("model.* counters differ between traced and untraced iterations")
    if trace:
        log(f"{workload}: model.queries per iteration {counters[0].get('model.queries')}")
    if trace and seed == DEFAULT_SEED and want.get("model.queries") is not None:
        if counters[0].get("model.queries") != want["model.queries"]:
            errors.append(f"model.queries {counters[0].get('model.queries')} "
                          f"!= recorded {want['model.queries']}")
    errors.extend(sweeps.oracle_check(workload, seed, first, oracle_picks(workload, seed)))
    for err in errors:
        log(f"CHECK FAILED: {err}")
    attempted = sum(len(it.cells) for it in plain + its)
    failed = len(journals.degraded)
    # Each iteration repeats the same cells; a cell's time is the median
    # of its compute times over the run's iterations.  The end-to-end
    # times are corrected for the host's speed, the traced run's are not.
    factor = speed.factor()
    scale = 1.0 if trace else factor
    times: Dict[Tuple[str, int], List[float]] = {}
    for it in its:
        for label, x, sec in it.cells:
            times.setdefault((label, x), []).append(sec / scale)
    cell_s = {cell: stats.median(ts) for cell, ts in times.items()}
    lat = {"low": [], "high": []}
    for (_label, x), sec in cell_s.items():
        lat["low" if x < sweeps.T else "high"].append(sec * 1e3)
    metrics.update(latency_metrics(lat))
    # A sweep's p50 is its cells' median times averaged over the x < t
    # (x >= t) cells.  The median over those cells would fall on the edge
    # between the two curves' clusters (2tBins 20-60 ms, ExpIncrease
    # 85-110 ms at x >= t) and jump with which side holds it.
    for level, cells in lat.items():
        metrics[f"latency_p50_ms.{level}"] = stats.mean(cells)
    log(f"{workload}: host-speed factor {factor:.4f} over {len(speed.samples)} references")
    if not trace:
        trials = len(sweeps.curves(workload)) * len(sweeps.grid()) * sweeps.RUNS[workload]
        total_s = sum(cell_s.values())
        metrics["setup_s"] = stats.median(setup) / scale
        metrics["trials_per_s"] = trials / total_s
        metrics["max_rate_qps"] = len(cell_s) / total_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        log(f"{workload}: {len(its)} iterations of {len(cell_s)} cells, "
            f"{trials} trials each; set-up samples {['%.3f' % s for s in setup]} "
            f"(uncorrected); uncorrected trials/s {trials / total_s / scale:.1f}")
    else:
        metrics.update(idle_serve_layers())
        metrics["harness.host_speed"] = factor
    return not errors, attempted, failed, metrics


def oracle_picks(workload: str, seed: int) -> List[Tuple[str, int]]:
    """Seeded sample of cells to recompute on the scalar oracle.

    One cell of every kernel-path curve, plus (``sweep_mixed``) one cell
    of a scalar curve, which checks the pool's stitching and journal.
    """
    from perfbench import sweeps

    rng = np.random.default_rng([seed, 0x0AC1E])
    xs = sweeps.grid()
    labels = {
        "sweep_vectorized": ["2tBins", "ExpIncrease"],
        "sweep_mixed": ["2tBins 2+", "ExpIncrease 2+", "ABNS(p0=t)"],
    }[workload]
    return [(label, int(xs[int(rng.integers(len(xs)))])) for label in labels]


def sweep_layers(summary: Any, plain: List[Any], its: List[Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced sweep, per iteration."""
    k = float(len(its))
    c = lambda name: stats.mean(it.counters.get(name, 0.0) for it in its)  # noqa: E731
    out = layer_times(summary, per=k)
    eligible = c("sweep.vectorized_shards") + c("sweep.vectorized_fallback")
    out["experiments.curve_s"] = summary.self_s("experiments.curve") / k
    out["experiments.shards"] = c("sweep.shards")
    out["experiments.fallback_ratio"] = (
        c("sweep.vectorized_fallback") / eligible if eligible else 0.0
    )
    out["experiments.journal_s"] = c("resilience.journal_write_s")
    out["model.queries"] = c("model.queries")
    plain_rate = stats.median([1.0 / it.seconds for it in plain])
    traced_rate = stats.median([1.0 / it.seconds for it in its])
    out["harness.tracing_overhead"] = plain_rate / traced_rate - 1.0
    out["harness.gen_late_ms.max"] = 0.0
    return out


def layer_times(summary: Any, per: float) -> Dict[str, float]:
    """Kernel, fastseed, oracle and MAC figures shared by every workload."""
    out = {}
    for kind in ("1plus", "2plus"):
        name = f"kernel.lockstep.{kind}"
        trials = summary.size(name)
        out[f"kernel.lockstep_s.{kind}"] = summary.self_s(name) / per
        out[f"kernel.us_per_trial.{kind}"] = (
            summary.total_s(name) / trials * 1e6 if trials else 0.0
        )
    out["fastseed.states_s"] = summary.self_s("fastseed.states") / per
    out["fastseed.choice_bulk_s"] = summary.self_s("fastseed.choice_bulk") / per
    out["fastseed.pool_loads"] = summary.count("fastseed.pool_load") / per
    out["fastseed.pool_load_s"] = summary.self_s("fastseed.pool_load") / per
    out["oracle.decide_s"] = summary.total_s("oracle.decide") / per
    out["oracle.decides"] = summary.outer("oracle.decide").shape[0] / per
    out["mac.decide_s"] = summary.total_s("mac.decide") / per
    return out


def idle_serve_layers() -> Dict[str, float]:
    """Serve-stage metrics of a workload that starts no daemon (all zero)."""
    return {name: 0.0 for name in (
        "serve.parse_us", "serve.admit_us", "serve.execute_ms.p50",
        "serve.execute_ms.p99", "serve.server_ms", "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99", "serve.batch_requests_mean",
        "serve.batch_runs_mean", "serve.scalar_share", "serve.conn_throttled",
        "harness.daemon_tracebacks",
    )}


# ---------------------------------------------------------------------------
# Serve
# ---------------------------------------------------------------------------


def serve_windows(seconds: int) -> List[serve_load.Phase]:
    """The warm-up, then :data:`SERVE_ROUNDS` passes over every phase.

    Interleaving spreads each phase over the whole run, so a stretch of
    slow host time lands on every phase alike instead of on one.
    """
    name, rate, dur = SERVE_WARMUP
    windows = [serve_load.Phase(name, rate, dur)]
    for _ in range(SERVE_ROUNDS):
        # Fastest first, so the calm phases follow calm ones and never
        # the tail of an overload.
        windows += [
            serve_load.Phase(name, rate, share * seconds / SERVE_ROUNDS)
            for name, rate, share in reversed(SERVE_PHASES)
        ]
    return windows


def latencies(windows: List[Any], name: str) -> List[float]:
    """Due-time latencies (s) of every window of phase ``name``."""
    return [lat for w in windows if w.name == name for lat in w.latencies()]


def counter_delta(snaps: List[Dict[str, Any]], windows: List[Any], name: str,
                  counter: str) -> float:
    """Growth of a daemon counter over the windows of phase ``name``."""
    total = 0.0
    for i, w in enumerate(windows):
        if w.name == name and i > 0:
            total += snaps[i]["counters"].get(counter, 0) - snaps[i - 1]["counters"].get(counter, 0)
    return total


async def drive(port: int, windows: List[Any], daemon: Any,
                speed: HostSpeed) -> List[Dict[str, Any]]:
    """Run the windows in order; returns the daemon's metrics after each.

    The host-speed reference runs after every window, once its answers
    are in and the daemon is idle.
    """
    client = serve_load.LoadClient(port)
    await client.open()
    snapshots = []
    loop = asyncio.get_running_loop()
    # The generator must not stall mid-window: collect garbage between
    # windows, never during one.
    gc.disable()
    try:
        for window in windows:
            gc.collect()
            await client.run_phase(window)
            missing = sum(r.reply is None for r in window.requests)
            if missing:
                # Unanswered after the settle timeout: the daemon is
                # wedged or gone, and the rest of the schedule would
                # only wait out more timeouts.
                raise RuntimeError(f"{missing} queries of a {window.name} window unanswered")
            snapshots.append(await loop.run_in_executor(None, daemon.metrics))
            speed.sample(SERVE_REFERENCE_PASSES)
    finally:
        gc.enable()
        await client.close()
    return snapshots


def run_daemon(work: pathlib.Path, tag: str, windows: List[Any], speed: HostSpeed,
               spans_path: Optional[pathlib.Path] = None) -> Tuple[Any, List[Dict[str, Any]], float]:
    daemon = serve_load.Daemon(ROOT, work, tag, spans_path)
    daemon.start()
    try:
        snapshots = asyncio.run(drive(daemon.port, windows, daemon, speed))
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return daemon, snapshots, rss


def run_serve(workload: str, seed: int, seconds: int, trace: int,
              work: pathlib.Path, expected: Dict[str, Any]) -> Tuple[bool, int, int, Dict[str, float]]:
    errors: List[str] = []
    metrics: Dict[str, float] = {}
    windows = serve_windows(seconds)
    serve_load.build_schedule(seed, windows)
    speed = HostSpeed()
    daemons = []
    if not trace:
        setup = []
        for i in range(SETUP_SAMPLES - 1):
            probe = serve_load.Daemon(ROOT, work, f"setup{i}")
            probe.start()
            probe.stop()
            setup.append(probe.setup_s)
            daemons.append(probe)
        daemon, snaps, rss = run_daemon(work, "main", windows, speed)
        setup.append(daemon.setup_s)
        daemons.append(daemon)
    else:
        # Untraced reference: the same warm-up and low windows, back to back.
        reference = [w.fresh_copy() for w in windows if w.name in ("warmup", "low")]
        plain, plain_snaps, _ = run_daemon(work, "plain", reference, speed)
        daemons.append(plain)
        spans_path = work / "daemon-spans.bin"
        daemon, snaps, rss = run_daemon(work, "traced", windows, speed, spans_path)
        daemons.append(daemon)
        for counter in sorted(model_counters(snaps[-1])):
            if counter_delta(plain_snaps, reference, "low", counter) != counter_delta(
                    snaps, windows, "low", counter):
                errors.append(f"{counter} differs between the traced and untraced daemon")
    for d in daemons:
        if d.exit_code != 0:
            errors.append(f"daemon exited with code {d.exit_code}: {d.stderr[-2000:]}")
        if d.tracebacks:
            log(f"daemon {d.err_path.name}: {d.tracebacks} traceback(s) on stderr")
    measured = [w for w in windows if w.name != "warmup"]
    reqs = [r for w in measured for r in w.requests]
    failed = sum(1 for r in reqs if r.reply is None or not r.reply.get("ok"))
    errors.extend(check_answers(seed, windows, reqs, expected))
    for err in errors:
        log(f"CHECK FAILED: {err}")
    late_ms = max(w.late_s() for w in windows) * 1e3
    names = [name for name, _, _ in SERVE_PHASES]
    rates = [rate for _, rate, _ in SERVE_PHASES]
    p99s, overloaded = [], False
    for name, rate in zip(names, rates):
        lat = latencies(windows, name)
        # A rung's p99 is the median of its windows' p99s: one stall of
        # the host (a few per run, up to hundreds of ms) spoils a window,
        # not the rung.
        p99 = stats.median([stats.percentile(w.latencies(), 99)
                            for w in windows if w.name == name])
        growing = [
            stats.backlog_growing([r.due for r in w.requests], w.latencies())
            for w in windows if w.name == name
        ]
        # The rate limit comes from the p99s alone.  A backlog grows for
        # good only above the daemon's capacity, which caps the rate
        # below; the per-window test, on windows of 0.3-0.5 s near the
        # knee, also fires on bursts the daemon then drains.
        ok = p99 <= SERVE_P99_LIMIT_S
        overloaded = 2 * sum(growing) > len(growing)
        p99s.append(p99)
        late = max(w.late_s() for w in windows if w.name == name)
        log(f"  {name:>9}: {rate:6.0f} q/s x {len(lat):5d}  "
            f"p50 {stats.percentile(lat, 50) * 1e3:7.2f} ms  window p99 {p99 * 1e3:8.2f} ms  "
            f"late {late * 1e3:5.1f} ms  growing {sum(growing)}/{len(growing)}  "
            f"{'ok' if ok else 'FAIL'}")
    log(f"serve_open: generator late at most {late_ms:.1f} ms")
    factor = speed.factor()
    log(f"serve_open: host-speed factor {factor:.4f} over {len(speed.samples)} references")
    if not overloaded:
        # Both capacity figures would read the offered load, not what
        # the daemon can do: the ladder needs a higher top rung.
        raise RuntimeError(f"the daemon kept up with the top rung ({rates[-1]:.0f} q/s); "
                           "trials_per_s and max_rate_qps are not measurable")
    if not trace:
        # Corrected for the host's speed: times over the factor, rates by it.
        lat_ms = {lvl: [x * 1e3 / factor for x in latencies(windows, lvl)]
                  for lvl in ("low", "high")}
        metrics.update(latency_metrics(lat_ms))
        queries, trials, busy = 0, 0, 0.0
        for w in windows:
            if w.name == names[-1]:
                answered = [r for r in w.requests if r.reply is not None and r.reply.get("ok")]
                if answered:
                    queries += len(answered)
                    trials += sum(r.runs for r in answered)
                    busy += (max(r.recv_ns for r in answered) - w.start_ns) / 1e9
        # No rate above the saturated daemon's throughput keeps its backlog flat.
        max_rate = min(stats.max_rate_at_limit(rates, p99s, SERVE_P99_LIMIT_S),
                       queries / busy)
        metrics["trials_per_s"] = trials / busy * factor
        metrics["max_rate_qps"] = max_rate * factor
        metrics["setup_s"] = stats.median(setup) / factor
        metrics["peak_rss_mb"] = rss
        log(f"serve_open: set-up samples {['%.3f' % s for s in setup]}, "
            f"trials/s {trials / busy:.1f}, max rate {max_rate:.1f} q/s (all uncorrected)")
    else:
        metrics.update(latency_metrics(
            {lvl: [x * 1e3 for x in latencies(windows, lvl)] for lvl in ("low", "high")}))
        summary = spans.Summary(spans.load_records([spans_path]))
        save_trace(workload, summary.recs)
        metrics.update(serve_layers(summary, windows, snaps, daemons))
        lat_plain = stats.percentile(latencies(reference, "low"), 50)
        lat_traced = stats.percentile(latencies(windows, "low"), 50)
        metrics["harness.tracing_overhead"] = lat_traced / lat_plain - 1.0
        metrics["harness.gen_late_ms.max"] = late_ms
        metrics["harness.host_speed"] = factor
    return not errors, len(reqs), failed, metrics


def model_counters(snapshot: Dict[str, Any]) -> Dict[str, int]:
    return {k: v for k, v in snapshot.get("counters", {}).items() if k.startswith("model.")}


def check_answers(seed: int, windows: List[Any], reqs: List[Any],
                  expected: Dict[str, Any]) -> List[str]:
    """Verdicts against ground truth, a seeded oracle sample, the digest."""
    from repro.serve.executor import execute_group
    from repro.serve.request import QueryRequest

    errors = []
    answered = [r for r in reqs if r.reply is not None and r.reply.get("ok")]
    wrong = [
        r.index for r in answered
        if r.reply["exact"] and any(
            d != (r.payload["x"] >= r.payload["threshold"]) for d in r.reply["decisions"])
    ]
    if wrong:
        errors.append(f"{len(wrong)} exact answers contradict x >= t (first q{wrong[0]})")
    rng = np.random.default_rng([seed, 0x0AC1E])
    picks = rng.choice(len(answered), size=min(SERVE_ORACLE_SAMPLE, len(answered)), replace=False)
    for i in sorted(int(p) for p in picks):
        r = answered[i]
        want = execute_group([QueryRequest.from_wire(r.payload)], vectorize=False)[0]
        if list(want.decisions) != r.reply["decisions"] or list(want.queries) != r.reply["queries"]:
            errors.append(f"q{r.index}: served answer differs from the scalar oracle")
    # The n-th low request does not depend on --seconds (see
    # serve_load.request_shape), so neither do these answers.
    low = [r for w in windows if w.name == "low" for r in w.requests][:SERVE_DIGEST_COUNT]
    got = stats.digest([
        [r.reply["decisions"], r.reply["queries"]] if r.reply else None for r in low
    ])
    log(f"serve_open: digest of the first {len(low)} low answers {got}")
    if seed == DEFAULT_SEED:
        want_digest = expected["serve_open"]["answers"]
        if len(low) < SERVE_DIGEST_COUNT:
            errors.append(f"only {len(low)} low answers for the recorded digest of "
                          f"{SERVE_DIGEST_COUNT}: run longer")
        elif got != want_digest:
            errors.append(f"served-answer digest {got} != recorded {want_digest}")
    return errors


def serve_layers(summary: Any, windows: List[Any], snaps: List[Dict[str, Any]],
                 daemons: List[Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced daemon, totals over its schedule.

    Stage medians cover every request; the execute and queue-wait
    percentiles cover the ``high`` windows; the batch means cover
    ``high`` and the ladder rungs, where coalescing acts; the server
    residue covers the ``low`` windows.
    """
    out = layer_times(summary, per=1.0)
    out.update({
        "experiments.curve_s": 0.0, "experiments.shards": 0.0,
        "experiments.fallback_ratio": 0.0, "experiments.journal_s": 0.0,
    })
    out["model.queries"] = counter_delta(snaps, windows, "low", "model.queries")
    log(f"serve_open: model.queries over the low windows {out['model.queries']:.0f}")
    phase_of = {r.index: w.name for w in windows for r in w.requests}
    dur_ms = lambda rows: ((rows[:, 4] - rows[:, 3]) / 1e6).tolist()  # noqa: E731
    out["serve.parse_us"] = stats.median(dur_ms(summary.of("serve.parse"))) * 1e3
    out["serve.admit_us"] = stats.median(dur_ms(summary.of("serve.admit"))) * 1e3
    execute = summary.of("serve.execute")
    exec_ms = dict(zip(execute[:, 0].tolist(), dur_ms(execute)))
    high_exec = [ms for rid, ms in zip(execute[:, 6].tolist(), dur_ms(execute))
                 if phase_of.get(rid) == "high"]
    out["serve.execute_ms.p50"] = stats.percentile(high_exec, 50)
    out["serve.execute_ms.p99"] = stats.percentile(high_exec, 99)
    waits = summary.of("serve.queue_wait")
    wait_of = {
        rid: (wait, exec_ms.get(parent, 0.0))
        for rid, parent, wait in zip(waits[:, 6].tolist(), waits[:, 1].tolist(), dur_ms(waits))
    }
    high_wait = [wait_of[r][0] for r in wait_of if phase_of.get(r) == "high"]
    out["serve.queue_wait_ms.p50"] = stats.percentile(high_wait, 50)
    out["serve.queue_wait_ms.p99"] = stats.percentile(high_wait, 99)
    server = [
        (r.recv_ns - r.sent_ns) / 1e6 - sum(wait_of[r.index])
        for w in windows if w.name == "low" for r in w.requests
        if r.reply is not None and r.index in wait_of
    ]
    out["serve.server_ms"] = stats.median(server)
    loaded = [name for name, _, _ in SERVE_PHASES if name != "low"]
    batches = sum(counter_delta(snaps, windows, n, "serve.batches") for n in loaded)
    completed = sum(counter_delta(snaps, windows, n, "serve.completed") for n in loaded)
    runs = 0.0
    for i, w in enumerate(windows):
        if w.name in loaded:
            runs += (snaps[i]["histograms"]["serve.batch.runs"]["sum"]
                     - snaps[i - 1]["histograms"]["serve.batch.runs"]["sum"])
    out["serve.batch_requests_mean"] = completed / batches
    out["serve.batch_runs_mean"] = runs / batches
    answered = [r for w in windows if w.name != "warmup" for r in w.requests
                if r.reply is not None and r.reply.get("ok")]
    out["serve.scalar_share"] = sum(1 for r in answered if not r.reply["batched"]) / len(answered)
    out["serve.conn_throttled"] = float(snaps[-1]["counters"].get("serve.conn_throttled", 0))
    out["harness.daemon_tracebacks"] = float(sum(d.tracebacks for d in daemons))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        log(f"error: the program sources (src/repro) or BENCHMARK.json are missing under {ROOT}")
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    info = host_info(args.workload, args.seed, args.seconds, args.trace)
    log(json.dumps(info, sort_keys=True))
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        runner = run_serve if args.workload == "serve_open" else run_sweep
        correct, attempted, failed, values = runner(
            args.workload, args.seed, args.seconds, args.trace, work, expected)
    except RuntimeError as exc:
        log(f"error: {exc}")
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"error: metrics not measured: {missing}")
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info.update(correct=correct, attempted=attempted, failed=failed,
                wall_s=time.perf_counter() - started)
    for name, item in metrics.items():
        log(f"  {name:32s} {item['value']:14.6g} {item['unit']}")
    print(json.dumps({"host": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
