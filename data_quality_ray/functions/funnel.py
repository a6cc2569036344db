"""Ordered-event funnel analysis over a keyed event stream.

Given an ordered list of step event types, compute per key (user) the
first time each step is reached STRICTLY AFTER the previous step's
reach time (t1 = min ts of step 1; t_k = min ts of step k with
ts > t_{k-1}), then fold to per-step conversion counts and the average
time from the previous step.

Shape: events are pruned to the funnel's event types at the batch level
(nothing else enters the exchange), then ONE user-keyed bucketed
exchange co-locates each user's events; inside a bucket the per-step
reach times are pure vectorized merges (no Python loop over users).
Each user lives in exactly one bucket, so per-bucket (count, gap-sum)
partials sum on the driver — steps × buckets tiny rows, never per-user
data. Skewed users are bounded by the funnel types' per-user event
count; the exchange carries only (key, ts, type).

Reference precedent: windowed per-key aggregation follows the same
bucketed per-key fold as profiling/groupagg.py; the funnel semantics
(strictly-increasing first-reach chain) are the standard product-
analytics definition, chosen because both pandas and ANSI SQL express
it exactly (chained min-after-previous joins), keeping the operator
DuckDB-oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange


def funnel_counts(ds, user_col: str, ts_col: str, type_col: str,
                  steps: list[str], n_buckets: int = 32) -> pd.DataFrame:
    """→ (step 1-based, event_type, users, avg_hours_from_prev round 6;
    0.0 for step 1)."""
    step_set = set(steps)

    def prune(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b[type_col].isin(step_set), [user_col, ts_col, type_col]]

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"step": pd.Series(dtype=np.int64),
                                 "users": pd.Series(dtype=np.int64),
                                 "gap_sum": pd.Series(dtype=np.float64)})
        rows = []
        prev = (g.loc[g[type_col] == steps[0]]
                .groupby(user_col, sort=False)[ts_col].min())
        rows.append((1, len(prev), 0.0))
        for k, s in enumerate(steps[1:], start=2):
            ev = g.loc[g[type_col] == s, [user_col, ts_col]].merge(
                prev.rename("__prev"), left_on=user_col, right_index=True)
            ev = ev.loc[ev[ts_col] > ev["__prev"]]
            cur = ev.groupby(user_col, sort=False)[ts_col].min()
            gaps = (cur - prev.reindex(cur.index)).dt.total_seconds()
            rows.append((k, len(cur), float(gaps.sum())))
            prev = cur
        return pd.DataFrame(rows, columns=["step", "users", "gap_sum"])

    parts = bucket_exchange(ds.map_batches(prune, batch_format="pandas"),
                            user_col, partial, n_buckets).to_pandas()
    if parts.empty:
        parts = pd.DataFrame({"step": np.arange(1, len(steps) + 1),
                              "users": 0, "gap_sum": 0.0})
    agg = parts.groupby("step", sort=True).sum().reindex(
        np.arange(1, len(steps) + 1), fill_value=0)
    users = agg["users"].to_numpy(dtype=np.int64)
    gap_sum = agg["gap_sum"].to_numpy()
    with np.errstate(invalid="ignore", divide="ignore"):
        avg_h = np.where(users > 0, gap_sum / np.maximum(users, 1) / 3600.0, 0.0)
    avg_h[0] = 0.0
    return pd.DataFrame({
        "step": np.arange(1, len(steps) + 1, dtype=np.int64),
        "event_type": steps,
        "users": users,
        "avg_hours_from_prev": np.round(avg_h, 6),
    })
