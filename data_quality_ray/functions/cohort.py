"""Cohort retention and tumbling time-window aggregates over event
streams — the product-analytics views a training-data/event pipeline
runs next to sessionization (functions/window.py) and funnels
(functions/funnel.py).

Scale shape: retention's only all-to-all is ONE user-keyed exchange of
per-batch DISTINCT (user, period) pairs (bounded by active user-periods,
not events); the (cohort × offset) matrix merged on the driver is tiny
by construction. Tumbling windows are a pure derived-column groupby —
per-batch partials, driver merge ∝ (buckets × groups).

Reference precedent: none (the reference has no temporal analytics);
beyond-reference engine surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away
from .exchange import bucket_exchange

# 1970-01-01 is a Thursday: Monday-of-week = day − ((day + 3) mod 7),
# matching DuckDB date_trunc('week', …) (ISO weeks start Monday)
_EPOCH_DOW_OFFSET = 3


def week_start_days(ts: np.ndarray) -> np.ndarray:
    """int64 days-since-epoch of the ISO week start (Monday) per
    timestamp — DuckDB ``date_trunc('week', ts)`` bit-for-bit."""
    days = ts.astype("datetime64[D]").astype(np.int64)
    return days - (days + _EPOCH_DOW_OFFSET) % 7


def cohort_retention(ds, user_col: str, ts_col: str,
                     n_buckets: int = 64) -> pd.DataFrame:
    """Weekly cohort retention: cohort = the user's FIRST active week
    (DuckDB date_trunc('week')); for each (cohort_week, week_offset)
    the distinct-user count still active that many weeks later and the
    ratio to the cohort's size (offset 0 row = the cohort itself).

    → (cohort_week: datetime64, week_offset: int64, n_users: int64,
       retention: float round6) sorted by (cohort_week, week_offset).
    """

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        t = b[ts_col]
        mask = t.notna().to_numpy()
        w = week_start_days(t.to_numpy()[mask])
        out = pd.DataFrame({user_col: b[user_col].to_numpy()[mask], "w": w})
        return out.drop_duplicates()

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=[user_col, "w"])
        cw = g.groupby(user_col, sort=False)["w"].transform("min")
        off = (g["w"].to_numpy() - cw.to_numpy()) // 7
        part = (pd.DataFrame({"cw": cw.to_numpy(), "off": off})
                .groupby(["cw", "off"], sort=False).size()
                .reset_index(name="n"))
        return part

    parts = bucket_exchange(
        ds.select_columns([user_col, ts_col]).map_batches(pairs, batch_format="pandas"),
        user_col, per_user, n_buckets).to_pandas()
    if parts.empty:
        return pd.DataFrame({"cohort_week": pd.Series(dtype="datetime64[ns]"),
                             "week_offset": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64"),
                             "retention": pd.Series(dtype="float64")})
    agg = (parts.groupby(["cw", "off"], sort=True)["n"].sum()
           .reset_index(name="n_users"))
    size = agg[agg["off"] == 0].set_index("cw")["n_users"]
    agg["retention"] = round_half_away(
        agg["n_users"].to_numpy()
        / size.reindex(agg["cw"]).to_numpy().astype(np.float64))
    return pd.DataFrame({
        "cohort_week": pd.to_datetime(
            agg["cw"].to_numpy().astype("datetime64[D]")),
        "week_offset": agg["off"].astype("int64"),
        "n_users": agg["n_users"].astype("int64"),
        "retention": agg["retention"],
    }).reset_index(drop=True)


def tumbling_aggregate(ds, ts_col: str, group_cols: list[str],
                       value_col: str, unit: str = "hour") -> pd.DataFrame:
    """Tumbling-window aggregate: per (group_cols…, window start
    truncated to ``unit``) the row count, sum and mean of ``value_col``
    (DuckDB ``date_trunc(unit, ts)`` semantics). Per-batch algebraic
    partials; driver merge ∝ windows × groups.

    → (*group_cols, window_start, n, sum_value, avg_value) sorted.
    """
    if unit not in ("hour", "day", "week"):
        raise ValueError(f"unit={unit!r}: expected hour/day/week")

    def trunc(t: np.ndarray) -> np.ndarray:
        if unit == "hour":
            return t.astype("datetime64[h]")
        if unit == "day":
            return t.astype("datetime64[D]")
        return week_start_days(t).astype("datetime64[D]")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[ts_col].notna()]
        out = b[group_cols].copy()
        out["window_start"] = trunc(b[ts_col].to_numpy())
        out["__v"] = b[value_col].to_numpy()
        gb = out.groupby(group_cols + ["window_start"], sort=False)["__v"]
        return gb.agg(n="size", s="sum").reset_index()

    parts = (ds.select_columns(group_cols + [ts_col, value_col])
             .map_batches(partial, batch_format="pandas").to_pandas())
    keys = group_cols + ["window_start"]
    agg = parts.groupby(keys, sort=True).agg(
        n=("n", "sum"), s=("s", "sum")).reset_index()
    agg["avg_value"] = round_half_away(agg["s"].to_numpy()
                                   / agg["n"].to_numpy().astype(np.float64))
    agg["sum_value"] = agg["s"].round(2)
    agg["n"] = agg["n"].astype("int64")
    return (agg[keys + ["n", "sum_value", "avg_value"]]
            .reset_index(drop=True))
