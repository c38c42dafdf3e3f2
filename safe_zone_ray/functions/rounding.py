"""Cross-engine stable rounding: DuckDB's ``round()`` rounds half away from
zero; Python's ``round`` is banker's and pyarrow defaults to half-to-even.
Every query that must hash-match a DuckDB oracle rounds with these helpers."""

from __future__ import annotations

import math


def round_half_away(x: float, ndigits: int = 4) -> float:
    scale = 10 ** ndigits
    if x >= 0:
        return math.floor(x * scale + 0.5) / scale
    return -math.floor(-x * scale + 0.5) / scale


def round_half_away_int64_np(scaled):
    """Vectorized half-away-from-zero to int64 over an ALREADY-SCALED
    float64 array — the canonical numpy form of ``round_half_away(x, 0)``
    (DuckDB ``CAST(round(x, 0) AS BIGINT)`` parity). The same formula is
    inlined at lmscore._micro (golden-pinned; left in place), so parity
    fixes belong HERE first."""
    import numpy as np

    return (np.floor(np.abs(scaled) + 0.5) * np.sign(scaled)).astype(np.int64)
