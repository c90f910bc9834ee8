"""Small statistics helpers shared by every workload (no repro imports)."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it.

    ``q`` is in ``(0, 100]``.  ``inf`` entries (failed or refused
    operations) sort last, so they count as missing any latency limit.

    Raises:
        ValueError: On an empty sample or ``q`` outside ``(0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (an observed value, never an average)."""
    return percentile(values, 50.0)


#: Lag slope over due time above which a backlog may be growing.
BACKLOG_MAX_SLOPE = 0.05
#: Growth of the median lag, first third to last third, that confirms it (s).
BACKLOG_MIN_GROWTH_S = 0.010


def backlog_growing(due_s: Sequence[float], latency_s: Sequence[float]) -> bool:
    """Whether completion lag grows over an open-loop phase.

    Under overload (arrival rate above service rate) a request's lag
    behind its due time grows linearly with the due time, with slope
    ``1 - service/arrival``.  The backlog counts as growing when the
    least-squares slope of lag over due time exceeds
    :data:`BACKLOG_MAX_SLOPE` *and* the median lag of the last third
    exceeds that of the first third by more than
    :data:`BACKLOG_MIN_GROWTH_S` (so a single late burst with a flat tail
    does not count).  Infinite lags (failed requests) are skipped.
    """
    pairs = [
        (d, lag) for d, lag in zip(due_s, latency_s) if math.isfinite(lag)
    ]
    if len(pairs) < 6:
        return False
    xs = [d for d, _ in pairs]
    ys = [lag for _, lag in pairs]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx <= 0.0:
        return False
    slope = sum((x - mean_x) * (y - mean_y) for x, y in pairs) / sxx
    third = len(ys) // 3
    growth = median(ys[-third:]) - median(ys[:third])
    return slope > BACKLOG_MAX_SLOPE and growth > BACKLOG_MIN_GROWTH_S


#: Rungs below and from the first rung over the limit that
#: :func:`max_rate_at_limit` fits.
FIT_BELOW = 3
FIT_ABOVE = 2


def max_rate_at_limit(rates: Sequence[float], p99s: Sequence[float], limit: float) -> float:
    """Rate at which the p99 reaches ``limit`` on an ascending rate ladder.

    Fits log p99 against log rate by least squares over the rungs around
    the first rung whose p99 exceeds ``limit`` (:data:`FIT_BELOW` rungs
    below it, :data:`FIT_ABOVE` from it up; infinite p99s, from failed
    requests, left out) and solves the fit for ``limit``.  A rung's p99
    rests on a few slow queries per window; a line through five rungs
    moves with it far less than one through the two rungs either side
    of the crossing.  A ladder whose every p99 is within the limit gives
    its top rate; one whose lowest rung already exceeds it gives that
    rate scaled down by ``limit / p99``.
    """
    if not rates:
        raise ValueError("empty rate ladder")
    first = next((i for i, p in enumerate(p99s) if not p <= limit), len(rates))
    if first == len(rates):
        return rates[-1]
    if first == 0:
        p99 = p99s[0]
        return rates[0] * limit / p99 if math.isfinite(p99) else 0.0
    lo, hi = max(0, first - FIT_BELOW), first + FIT_ABOVE
    pts = [
        (math.log(r), math.log(p))
        for r, p in zip(rates[lo:hi], p99s[lo:hi]) if math.isfinite(p) and p > 0
    ]
    mean_x = sum(x for x, _ in pts) / len(pts)
    mean_y = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in pts) / sxx if sxx > 0 else 0.0
    if slope <= 0:
        # No rise to fit (a lone finite rung, or noise): the last rung
        # within the limit is all the ladder shows.
        return rates[first - 1]
    return math.exp(mean_x + (math.log(limit) - mean_y) / slope)


def digest(obj: object) -> str:
    """SHA-256 of ``obj``'s canonical JSON (floats written with ``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sample)."""
    items: List[float] = list(values)
    return sum(items) / len(items) if items else 0.0
