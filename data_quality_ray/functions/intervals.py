"""Distributed interval-overlap join (the time-range analog of the
equi-join: pairs of intervals with ``a.start <= b.end AND b.start <=
a.end``, closed-interval semantics).

Shape: the classic band-explode — each interval replicates into the
coarse bands it covers (``start//w .. end//w``), both sides ride ONE
tagged-union exchange hash-bucketed by band, and each bucket runs a
vectorized pandas merge + overlap filter. Duplicate hits (a pair sharing
several bands) are eliminated WITHOUT a dedup shuffle by attributing
each pair to exactly one band — the band containing
``max(a.start, b.start)`` (any overlapping pair covers that band on
both sides, and only that band emits it).

Band width trades replication (intervals spanning many bands) against
bucket fan-in (many intervals per band); pick w ≈ the typical interval
length. All positions are int64 (epoch-ns in the query) so the SQL
replay is exact integer math.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange


def _explode_bands(b: pd.DataFrame, start_col: str, end_col: str,
                   w: int) -> pd.DataFrame:
    s = b[start_col].to_numpy(dtype=np.int64)
    e = b[end_col].to_numpy(dtype=np.int64)
    b0, b1 = s // w, e // w
    counts = b1 - b0 + 1
    idx = np.repeat(np.arange(len(b)), counts)
    within = np.arange(counts.sum()) - np.repeat(
        np.concatenate([[0], counts.cumsum()[:-1]]), counts)
    out = b.iloc[idx].reset_index(drop=True)
    out["__band"] = b0[idx] + within
    return out


def interval_join(left_ds, right_ds, start_col: str = "start",
                  end_col: str = "end", band_width: int = 3_600_000_000_000,
                  suffix: str = "_b", n_buckets: int = 64):
    """→ Dataset of overlapping (left, right) interval pairs; left
    columns keep their names, right columns that clash with a left
    column get ``suffix``. Adds ``overlap`` = min(end) - max(start)
    (int64, ≥ 0 under closed-interval semantics)."""
    w = int(band_width)
    lcols = list(left_ds.schema().names)
    rcols = list(right_ds.schema().names)
    ren = {c: (c + suffix if c in lcols else c) for c in rcols}
    rvals = list(ren.values())
    rs, re_ = ren[start_col], ren[end_col]
    all_cols = lcols + rvals

    def prep(side):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            if side == 1:
                b = b.rename(columns=ren)
            out = _explode_bands(b, start_col if side == 0 else rs,
                                 end_col if side == 0 else re_, w)
            for c in all_cols:
                if c not in out.columns:
                    out[c] = pd.Series([None] * len(out), dtype=object)
            out["__side"] = np.int64(side)
            return out[all_cols + ["__band", "__side"]]
        return f

    tagged = (left_ds.map_batches(prep(0), batch_format="pandas")
              .union(right_ds.map_batches(prep(1), batch_format="pandas")))

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["__side"] == 0][lcols + ["__band"]]
        b = g[g["__side"] == 1][rvals + ["__band"]]
        m = a.merge(b, on="__band")
        s_a = m[start_col].to_numpy(dtype=np.int64)
        e_a = m[end_col].to_numpy(dtype=np.int64)
        s_b = m[rs].to_numpy(dtype=np.int64)
        e_b = m[re_].to_numpy(dtype=np.int64)
        lo = np.maximum(s_a, s_b)
        hi = np.minimum(e_a, e_b)
        keep = (lo <= hi) & (m["__band"].to_numpy() == lo // w)
        out = m[keep].drop(columns="__band").reset_index(drop=True)
        out["overlap"] = (hi - lo)[keep].astype(np.int64)
        return out

    return bucket_exchange(tagged, "__band", join_bucket, n_buckets)
