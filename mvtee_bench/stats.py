"""Order statistics for latency samples."""

from __future__ import annotations

import math

__all__ = ["tail_percentile"]


def tail_percentile(count: int, *, beyond: int = 10, min_samples: int = 40) -> int | None:
    """The highest whole percentile with at least ``beyond`` samples past it.

    With ``count`` samples the ``p``-th percentile sits at rank
    ``ceil(p * count / 100)``; ``beyond`` samples lie past it when that
    rank is at most ``count - beyond``.  Below ``min_samples`` no tail is
    supported (the percentile would describe a handful of samples), and
    None is returned: report the median alone.
    """
    if count < max(min_samples, beyond + 1):
        return None
    for p in range(99, 0, -1):
        if count - math.ceil(p * count / 100) >= beyond:
            return p
    return None
