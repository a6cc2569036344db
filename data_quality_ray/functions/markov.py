"""First-order Markov transition matrix over a keyed, ordered event
stream: counts and row-normalized probabilities of ``type -> next type``
within each key's timeline.

Shape: ONE user-keyed bucketed exchange (the funnel_counts shape —
functions/funnel.py) co-locates each key's rows; inside a bucket the
lag-pair extraction is a single vectorized sort + shift, and each bucket
emits per-(src, dst) COUNT partials only, so the driver merge is
alphabet² rows regardless of row count. The exchange carries just
(key, ts, tiebreak, type).

Reference precedent: the reference profiles value-pair frequencies per
column (CompositePatternFrequencyAnalyzer); this is the sequential
analogue for event-stream quality auditing (unexpected transitions are
a classic data-quality signal).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away
from .exchange import bucket_exchange

__all__ = ["transition_matrix"]


def transition_matrix(ds, key_col: str, ts_col: str, type_col: str,
                      tiebreak_col: str, n_buckets: int = 32) -> pd.DataFrame:
    """→ (src, dst, n, p) with p = n / Σ_dst n per src, rounded to 6.
    Ordering within a key is (ts, tiebreak) — deterministic under ts
    ties, matching ``lead() OVER (PARTITION BY key ORDER BY ts,
    tiebreak)``."""
    cols = [key_col, ts_col, tiebreak_col, type_col]

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"src": pd.Series(dtype=object),
                                 "dst": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        g = g.sort_values([key_col, ts_col, tiebreak_col], kind="mergesort")
        same = g[key_col].to_numpy()[:-1] == g[key_col].to_numpy()[1:]
        src = g[type_col].to_numpy()[:-1][same]
        dst = g[type_col].to_numpy()[1:][same]
        out = (pd.DataFrame({"src": src, "dst": dst})
               .groupby(["src", "dst"], sort=False).size()
               .rename("n").reset_index())
        return out

    parts = bucket_exchange(ds.select_columns(cols), key_col, partial,
                            n_buckets).to_pandas()
    if parts.empty:
        return pd.DataFrame({"src": [], "dst": [], "n": [], "p": []})
    agg = (parts.groupby(["src", "dst"], sort=True)["n"].sum()
           .reset_index())
    tot = agg.groupby("src")["n"].transform("sum")
    p = agg["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
    agg["p"] = round_half_away(p)
    agg["n"] = agg["n"].astype(np.int64)
    return agg.reset_index(drop=True)
