"""Partitioned analytic (window) functions — SQL's
``f(x) OVER (PARTITION BY key ORDER BY order_cols)``.

Ray Data has no window operator; a naive build would ``map_groups`` a
Python callback per key (per-tiny-group — forbidden here). Instead:
ONE hash shuffle co-locates each partition key into a bucket, and each
bucket runs vectorized pandas kernels (``sort_values`` + groupby
``cumcount``/``shift``/``cumsum`` — C loops, no per-group Python).

Determinism contract: ``order_by`` must be a TOTAL order within a key
(include a tie-break column, e.g. the row id) or lag/lead are
engine-dependent — same requirement DuckDB's window functions have for
a stable oracle.

Scale: the single shuffle moves each row once; a partition's rows must
fit one bucket's worker (same co-location assumption as ``hash_join`` /
``asof_join``). Skewed partition keys bound by the bucket count; salt
upstream if one key dominates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange

_OPS = ("row_number", "lag", "lead", "cumsum", "cummin", "cummax", "cumcount",
        "count", "rank", "dense_rank", "ntile", "rolling_sum", "rolling_mean",
        "percent_rank", "cume_dist", "first_value", "last_value", "nth_value")


def window_ops(ds, by, order_by, ops: dict, n_buckets: int = 64):
    """Attach analytic columns to every row of ``ds``.

    ``by``: partition key column (or list). ``order_by``: ordering
    column(s) within the partition. ``ops``: out_col → spec tuple:

    - ``("row_number",)`` — 1-based position in partition order
    - ``("lag", col)`` / ``("lag", col, n)`` — value n rows back (null
      at the partition head); ``("lead", col[, n])`` symmetric
    - ``("cumsum", col)`` / ``("cummin", col)`` / ``("cummax", col)`` —
      running aggregate, inclusive of the current row
    - ``("count",)`` — partition row count on every row (SQL
      ``count(*) OVER (PARTITION BY key)`` — unordered, whole frame)
    - ``("rank",)`` / ``("dense_rank",)`` — SQL RANK / DENSE_RANK over
      the partition's ``order_by`` tuple (ties share; rank leaves gaps)
    - ``("ntile", n)`` — SQL NTILE(n): the first ``count % n`` buckets
      hold ``ceil(count/n)`` rows, the rest ``floor(count/n)``
    - ``("rolling_sum", col, n)`` / ``("rolling_mean", col, n)`` — SQL
      ``sum/avg(col) OVER (... ROWS BETWEEN n-1 PRECEDING AND CURRENT
      ROW)`` (partial frames at the partition head, like SQL)
    - ``("percent_rank",)`` / ``("percent_rank", tie_cols)`` — SQL
      PERCENT_RANK(): (rank-1)/(count-1), 0.0 for a 1-row partition
    - ``("cume_dist",)`` / ``("cume_dist", tie_cols)`` — SQL CUME_DIST():
      rows with tie tuple ≤ current, over the partition count
    - ``("first_value", col)`` — first value in partition order
    - ``("last_value", col)`` — last value over the WHOLE partition (SQL
      ``LAST_VALUE(col) OVER (... ROWS BETWEEN UNBOUNDED PRECEDING AND
      UNBOUNDED FOLLOWING)`` — the frame people mean; SQL's default
      running frame is the current row itself, which needs no window)
    - ``("nth_value", col, n)`` — value at 1-based position n over the
      whole-partition frame, null when the partition is smaller

    Returns a Dataset with the input columns plus the analytic columns.
    """
    keys = [by] if isinstance(by, str) else list(by)
    order = [order_by] if isinstance(order_by, str) else list(order_by)
    for out_col, spec in ops.items():
        if spec[0] not in _OPS:
            raise ValueError(f"{out_col}: unknown window op {spec[0]!r}")

    def apply_window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + order, kind="mergesort").reset_index(drop=True)
        gb = g.groupby(keys, sort=False)

        def order_breaks(tie_cols: list) -> np.ndarray:
            # True where the tie tuple differs from the previous row (or
            # a new partition starts) — the tie boundary for ranks.
            # tie_cols may be a PREFIX of order_by (SQL's RANK() OVER
            # (ORDER BY prefix)); the stable total-order sort keeps the
            # prefix sorted, so runs of equal tie tuples are contiguous.
            chg = np.ones(len(g), dtype=bool)
            if len(g) > 1:
                chg[1:] = np.zeros(len(g) - 1, dtype=bool)
                for c in keys + tie_cols:
                    v = g[c].to_numpy()
                    chg[1:] |= ~(pd.Series(v[1:]).eq(pd.Series(v[:-1]))
                                 | (pd.isna(v[1:]) & pd.isna(v[:-1]))).to_numpy()
            return chg

        for out_col, spec in ops.items():
            kind = spec[0]
            if kind == "row_number":
                g[out_col] = (gb.cumcount() + 1).astype("int64")
            elif kind == "count":
                g[out_col] = gb[keys[0]].transform("size").astype("int64")
            elif kind == "rank":
                tie = list(spec[1]) if len(spec) > 1 else order
                seq = (gb.cumcount() + 1).to_numpy()
                brk = order_breaks(tie)
                # carry the sequence number forward across tie runs
                g[out_col] = pd.Series(np.where(brk, seq, np.nan)) \
                    .ffill().astype("int64")
            elif kind == "dense_rank":
                tie = list(spec[1]) if len(spec) > 1 else order
                brk = order_breaks(tie).astype(np.int64)
                g[out_col] = (pd.Series(brk).groupby(
                    [g[k] for k in keys], sort=False).cumsum()).astype("int64")
            elif kind == "ntile":
                n = int(spec[1])
                seq0 = gb.cumcount().to_numpy()
                cnt = gb[keys[0]].transform("size").to_numpy()
                k, r = cnt // n, cnt % n
                big = r * (k + 1)  # rows covered by the size-(k+1) buckets
                g[out_col] = np.where(
                    seq0 < big, seq0 // np.maximum(k + 1, 1),
                    r + (seq0 - big) // np.maximum(k, 1)).astype("int64") + 1
            elif kind == "percent_rank":
                tie = list(spec[1]) if len(spec) > 1 else order
                seq = (gb.cumcount() + 1).to_numpy()
                rnk = pd.Series(np.where(order_breaks(tie), seq, np.nan)) \
                    .ffill().to_numpy()
                cnt = gb[keys[0]].transform("size").to_numpy()
                g[out_col] = np.where(cnt > 1, (rnk - 1) / np.maximum(cnt - 1, 1),
                                      0.0)
            elif kind == "cume_dist":
                tie = list(spec[1]) if len(spec) > 1 else order
                seq = pd.Series((gb.cumcount() + 1).to_numpy())
                run_id = np.cumsum(order_breaks(tie))  # globally unique runs
                run_max = seq.groupby(run_id).transform("max").to_numpy()
                cnt = gb[keys[0]].transform("size").to_numpy()
                g[out_col] = run_max / cnt
            elif kind == "first_value":
                g[out_col] = gb[spec[1]].transform("first")
            elif kind == "last_value":
                g[out_col] = gb[spec[1]].transform("last")
            elif kind == "nth_value":
                col, n = spec[1], int(spec[2])
                seq = (gb.cumcount() + 1).to_numpy()
                picked = g[col].where(seq == n)
                # only position n is non-null per partition, so groupby
                # "first" (null-skipping) broadcasts it; an all-null group
                # (partition shorter than n, or a null at n) stays null
                g[out_col] = picked.groupby([g[k] for k in keys],
                                            sort=False).transform("first")
            elif kind in ("rolling_sum", "rolling_mean"):
                col, n = spec[1], int(spec[2])
                roll = gb[col].rolling(window=n, min_periods=1)
                agg = roll.sum() if kind == "rolling_sum" else roll.mean()
                # groupby.rolling keeps within-group row order and groups
                # are contiguous in the sorted frame — positional align
                g[out_col] = agg.to_numpy()
            elif kind in ("lag", "lead"):
                col = spec[1]
                n = spec[2] if len(spec) > 2 else 1
                g[out_col] = gb[col].shift(n if kind == "lag" else -n)
            else:  # cumsum / cummin / cummax
                g[out_col] = getattr(gb[spec[1]], kind)()
        return g

    return bucket_exchange(ds, keys, apply_window, n_buckets)


def sliding_distinct(ds, key_col: str, ts_col: str, window_hours: int = 6,
                     n_buckets: int = 64) -> pd.DataFrame:
    """EXACT distinct-``key_col`` count over a trailing ``window_hours``
    window for every hour in the stream's span — without re-scanning
    the window per hour and without a distinct-union per window.

    The segmented first-occurrence trick: after deduping to (key, hour)
    pairs, a pair with per-key previous hour p counts toward window
    hour h iff h−W+1 ≤ h' ≤ h and p < h−W+1 — i.e. exactly the hours
    h ∈ [max(h', p+W), h'+W−1]. So distinct-per-window collapses to a
    DIFFERENCE ARRAY over hours: every pair emits +1/−1 at its interval
    bounds, one grouped sum folds the deltas, and a cumsum over the
    (tiny) hour axis yields every window's exact count. Shape: one
    (key, hour) dedup exchange + one bucketed lag (window_ops) + one
    delta fold; nothing per-window, nothing per-key on the driver.
    → (window_start, n_distinct) for every hour min..max."""
    from ..profiling.groupagg import grouped_aggregate

    def to_pairs(b: pd.DataFrame) -> pd.DataFrame:
        ok = b[key_col].notna() & b[ts_col].notna()
        # unit-safe epoch hour (parquet timestamps may load as us or ns)
        h = ((b.loc[ok, ts_col] - pd.Timestamp(0))
             // pd.Timedelta(hours=1)).astype(np.int64)
        return pd.DataFrame({"k": b.loc[ok, key_col], "h": h})

    pairs = grouped_aggregate(
        ds.select_columns([key_col, ts_col]).map_batches(
            to_pairs, batch_format="pandas"),
        ["k", "h"], {"n": ("h", "count")}, final="shuffle")
    lagged = window_ops(pairs, "k", "h", {"prev": ("lag", "h")},
                        n_buckets=n_buckets) \
        .materialize()  # consumed twice: bounds fold + delta fold

    def minmax(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"mn": [b["h"].min()], "mx": [b["h"].max()]})

    bounds = pd.concat(list(lagged.map_batches(
        minmax, batch_format="pandas").iter_batches(
            batch_size=4096, batch_format="pandas")))
    mn, mx = int(bounds["mn"].min()), int(bounds["mx"].max())

    W = window_hours

    def deltas(b: pd.DataFrame) -> pd.DataFrame:
        h = b["h"].to_numpy(np.int64)
        prev = b["prev"].to_numpy(np.float64)  # NaN at partition head
        # NaN-safe max(h, prev + W): a first occurrence has no lower
        # bound beyond its own hour
        pw = np.where(np.isnan(prev), np.iinfo(np.int64).min,
                      np.nan_to_num(prev, nan=0).astype(np.int64) + W)
        start = np.maximum(h, pw)
        end = np.minimum(h + W - 1, mx)
        ok = start <= end
        return pd.DataFrame({
            "h": np.concatenate([start[ok], end[ok] + 1]),
            "d": np.concatenate([np.ones(ok.sum(), np.int64),
                                 -np.ones(ok.sum(), np.int64)]),
        })

    folded = grouped_aggregate(
        lagged.map_batches(deltas, batch_format="pandas"),
        ["h"], {"d": ("d", "sum")}, final="driver")
    hours = np.arange(mn, mx + 1, dtype=np.int64)
    diff = np.zeros(len(hours) + 1, dtype=np.int64)
    hh = folded["h"].to_numpy(np.int64)
    inside = (hh >= mn) & (hh <= mx)
    np.add.at(diff, hh[inside] - mn, folded["d"].to_numpy(np.int64)[inside])
    counts = diff[:-1].cumsum()
    return pd.DataFrame({
        "window_start": pd.to_datetime(hours * 3600, unit="s"),
        "n_distinct": counts.astype(np.int64),
    })


def running_max(ds, order_col: str, val_col: str, out_col: str = "run_max",
                n_parts: int = 32, exclusive: bool = True):
    """Distributed prefix-scan maximum over a GLOBAL order — the
    streaming-watermark primitive (max event-time seen so far in
    arrival order) — without a sequential pass: range-partition on
    ``order_col`` (one exchange; equal keys co-locate), fold each
    partition's max, prefix-combine the tiny per-partition maxima on
    the driver, broadcast, and each partition runs a vectorized local
    cummax merged with its predecessors' prefix. ``exclusive`` shifts
    by one (the SQL ROWS … AND 1 PRECEDING frame): the first global row
    gets null. ``val_col`` must be numeric (cast datetimes to int64 ns)
    and non-null. → Dataset with ``out_col`` (float64; NaN = no
    predecessor)."""
    import ray

    from ..profiling.groupagg import grouped_aggregate
    from .broadcast import cached_get
    from .partitioning import add_range_partition, range_split_points

    ds = ds.materialize()  # consumed twice: split points + the scan
    splits = range_split_points(ds, order_col, n_parts)
    parts = add_range_partition(ds, order_col, splits).materialize()
    pmax = grouped_aggregate(parts, ["part_id"],
                             {"mx": (val_col, "max")},
                             final="driver").sort_values("part_id")
    prior: dict[int, float] = {}
    cur = np.nan
    for pid, mx in zip(pmax["part_id"].astype(int), pmax["mx"]):
        prior[pid] = cur
        cur = float(mx) if np.isnan(cur) else max(cur, float(mx))
    ref = ray.put(prior)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        offs = cached_get(ref)
        pid = int(g["part_id"].iloc[0])
        g = (g.sort_values(order_col, kind="mergesort")
             .drop(columns="part_id").reset_index(drop=True))
        v = g[val_col].to_numpy(np.float64)
        run = np.maximum.accumulate(v)
        if exclusive:
            run = np.concatenate([[np.nan], run[:-1]])
        g[out_col] = np.fmax(run, offs.get(pid, np.nan))
        return g

    return parts.groupby("part_id").map_groups(scan, batch_format="pandas")
