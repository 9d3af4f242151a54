"""The counting bound on the cover-color space: log2 |F| <= 9 r 2^r.

A closed formula in r, so ``count`` imports this module alone;
``covercolor``, whose construction the formula counts, re-exports both
names.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = ["CountReport", "count_colors"]


class CountReport(namedtuple(
        "CountReport", "r rank_mode t m per_cover x log2_f bound_9r2r ok note")):
    """Outcome of ``count_colors``."""

    __slots__ = ()


def count_colors(r: int, rank_mode: str) -> CountReport:
    """Size of the color space: t = 2^r - 1 covers, per cover the sets of
    size 1 or 2 drawn from 2^m classes, f ranging over x^t functions.

    rank_mode "paper" takes the declared per-cover rank m = 4r - 2 and
    checks log2 |F| <= 9 r 2^r; rank_mode "computed" takes m = 2r - 1,
    the rank ``covercolor.cover_h2`` actually produces.  The modes
    disagree; the note field says so.  A failed bound is reported as ok
    False in either mode (the CLI prints "ok":false and exits 2); it
    holds for r = 2..16.
    """
    if not 2 <= r <= 16:
        raise ValueError(f"r must be in 2..16, got {r}")
    if rank_mode not in ("paper", "computed"):
        raise ValueError(f"rank_mode must be 'paper' or 'computed', got {rank_mode!r}")
    t = 2**r - 1
    m = 4 * r - 2 if rank_mode == "paper" else 2 * r - 1
    per_cover = 2**m + math.comb(2**m, 2)
    x = t * per_cover
    log2_f = t * math.log2(x)
    bound = 9 * r * 2**r
    ok = log2_f <= bound
    note = (
        f"rank modes disagree: paper mode uses m=4r-2={4 * r - 2}, "
        f"computed cover homology gives m=2r-1={2 * r - 1}"
    )
    return CountReport(r, rank_mode, t, m, per_cover, x, log2_f, bound, ok, note)
