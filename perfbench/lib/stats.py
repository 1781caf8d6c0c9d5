"""Percentiles and latency limits.

Every percentile is nearest-rank and must leave at least MIN_BEYOND samples
above it: with n samples the p-th percentile is the ceil(p/100 * n)-th
smallest, and it is only reported when n - rank >= MIN_BEYOND. A failed or
refused request has latency `math.inf`, so it ranks above every answered
one and misses every latency limit.
"""

import math
import statistics

MIN_BEYOND = 10
FAILED = math.inf


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples."""


def rank(n, pct):
    """1-based nearest-rank index of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def supports(n, pct):
    """True when n samples leave MIN_BEYOND samples above the percentile."""
    return n > 0 and n - rank(n, pct) >= MIN_BEYOND


def min_samples(pct):
    """Fewest samples that support the pct-th percentile."""
    n = 1
    while not supports(n, pct):
        n += 1
    return n


def percentile(values, pct):
    """Nearest-rank percentile; raises InsufficientSamples when the sample
    leaves fewer than MIN_BEYOND values above it."""
    n = len(values)
    if not supports(n, pct):
        raise InsufficientSamples(
            f"p{pct:g} of {n} samples leaves {n - rank(n, pct) if n else 0} "
            f"beyond it; need {MIN_BEYOND} (at least {min_samples(pct)} samples)")
    return sorted(values)[rank(n, pct) - 1]


def tail_mean(values, pct):
    """Mean of the samples above the pct-th percentile (the expected
    shortfall): unlike the percentile itself it does not jump when the
    percentile sits on the edge between a few heavy samples and the rest.
    Needs MIN_BEYOND samples in the tail, like `percentile`."""
    n = len(values)
    if not supports(n, pct):
        raise InsufficientSamples(
            f"mean beyond p{pct:g} of {n} samples needs {MIN_BEYOND} beyond "
            f"(at least {min_samples(pct)} samples)")
    return statistics.fmean(sorted(values)[rank(n, pct):])


def tail_pct(n, candidates=(99, 95, 90, 50)):
    """The highest of `candidates` that n samples support, or None."""
    for pct in candidates:
        if supports(n, pct):
            return pct
    return None


def meets_limit(latency, limit):
    """A request meets a latency limit only if it was answered in time;
    failed requests (latency FAILED) never do."""
    return latency <= limit


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(q3 - q1) / median, as statistics.quantiles(values, n=4) gives q1, q3."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
