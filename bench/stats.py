"""Order statistics the benchmark reports."""

from statistics import median, quantiles

TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile of ``samples`` with at least ``TAIL_BEYOND``
    samples beyond it.

    Returns ``(value, percentile, beyond)``. The value is the sample with
    exactly ``TAIL_BEYOND`` larger-ranked samples after it in sorted order,
    and ``percentile`` is its rank as a percentage of the sample count.
    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies; the
    maximum is returned with the count of samples beyond it, which is 0.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with ``n=4``)."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)
