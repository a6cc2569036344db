"""Slowly-changing-dimension (type 2) history collapse — the CDC
consumer side of ``functions/diff.table_diff``: turn a keyed change log
(one row per observation) into validity intervals (one row per RUN of
identical attribute values), with ``valid_from`` / ``valid_to`` /
``is_current`` — the standard warehouse dimension-versioning layout.

ONE hash-bucketed exchange (the window_ops shape): batches tag a key
bucket, each bucket sorts its keys locally, detects attribute-change
boundaries with a null-safe vectorized compare, and folds runs with a
pandas groupby — rows never visit the driver. ``valid_to`` of a run is
the NEXT run's ``valid_from`` within the key (null ⇒ current).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange


def scd2_collapse(ds, key_col: str, order_cols, attr_cols: list[str],
                  n_buckets: int = 64):
    """→ Dataset of (key, *attrs, valid_from, n_rows, valid_to,
    is_current). ``order_cols`` must be a deterministic total order
    within each key (add a unique tiebreaker column if the timestamp
    can repeat). NaN attr values compare EQUAL to NaN (SQL
    IS DISTINCT FROM semantics), so a null run stays one run."""
    order = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def collapse(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([key_col] + order, kind="mergesort")
             .reset_index(drop=True))
        chg = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            diff = np.zeros(len(g) - 1, dtype=bool)
            for c in [key_col] + list(attr_cols):
                v = g[c].to_numpy()
                diff |= ~(pd.Series(v[1:]).eq(pd.Series(v[:-1]))
                          | (pd.isna(v[1:]) & pd.isna(v[:-1]))).to_numpy()
            chg[1:] = diff
        g["__run"] = np.cumsum(chg)
        runs = (g.groupby("__run", sort=False)
                .agg(**{key_col: (key_col, "first"),
                        **{a: (a, "first") for a in attr_cols},
                        "valid_from": (order[0], "first"),
                        "n_rows": (order[0], "size")})
                .reset_index(drop=True))
        runs["n_rows"] = runs["n_rows"].astype("int64")
        runs["valid_to"] = runs.groupby(key_col, sort=False)["valid_from"].shift(-1)
        runs["is_current"] = runs["valid_to"].isna()
        return runs

    return bucket_exchange(ds, key_col, collapse, n_buckets)
