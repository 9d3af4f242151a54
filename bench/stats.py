"""Order statistics and the better/worse/unchanged/unresolved rule.

The rule follows the choosing-metrics guide (sections 6.5 and 8):

- better: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's own
  interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (for a metric without a bound: the mirror of "better");
- unresolved: the run-to-run spread of either side is wider than the
  bound, unless every run of the change reads better than every run of
  the parent;
- unchanged: otherwise.
"""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def quartiles(xs) -> tuple[float, float, float]:
    xs = list(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs):
    """(percentile, value, samples beyond it) for the highest percentile that
    has at least ten samples above it, or None when there are too few."""
    xs = sorted(xs)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        value = xs[max(0, math.ceil(p / 100.0 * n) - 1)]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None


def describe(xs, unit: str) -> str:
    """Median, then the tail percentile when the sample count allows it."""
    xs = list(xs)
    text = f"median {statistics.median(xs):.4f} {unit} (n={len(xs)})"
    t = tail(xs)
    if t is None:
        return text + f"; no percentile has {MIN_BEYOND} samples beyond it"
    p, value, beyond = t
    return text + f"; p{p:g} {value:.4f} {unit} ({beyond} beyond)"


def _rel(delta: float, base: float) -> float:
    return delta / base if base else (0.0 if delta == 0 else math.copysign(math.inf, delta))


def verdict(parent, change, better: str, bound: float | None, pairs) -> str:
    """Verdict for one metric; ``pairs`` are (parent, change) values run together."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(parent), statistics.median(change)
    q1a, _, q3a = quartiles(parent)
    q1b, _, q3b = quartiles(change)
    iqr_a = q3a - q1a
    worse_by = _rel(sign * (mb - ma), ma)  # > 0 means the change is worse
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    n = len(pairs)
    apart = abs(mb - ma) > iqr_a
    if n and wins >= 0.9 * n and apart and worse_by < 0:
        return "better"
    if bound is None:
        if n and losses >= 0.9 * n and apart and worse_by > 0:
            return "worse"
        return "unchanged" if not apart else "unresolved"
    if worse_by > bound:
        return "worse"
    spread = max(_rel(iqr_a, ma), _rel(q3b - q1b, mb))
    if spread > bound:
        all_better = all(sign * (b - a) < 0 for a in parent for b in change)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"
