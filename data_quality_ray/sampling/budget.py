"""Per-group weight-budget cap — "cap every domain/source at N tokens".

The training-data mixing primitive that proportional sampling
(``sampling/stratified.py``) and temperature mixing can't express: each
group keeps rows, in a deterministic uniform-random order, only while
the group's RUNNING weight total stays within the budget. The order is
the md5 digest contract shared with ``sampling/reservoir.py``
(``md5(f"{seed}-{row_key}")``), so DuckDB replays the whole operator
with one window cumsum over the same digest order.

Scale shape: the keep set is monotone under subsetting — a row's
within-batch running total (over only its batch predecessors in digest
order) is a lower bound on its global running total, so rows past the
budget INSIDE one batch can never be kept globally. That makes the
per-batch prefilter exact: each (group, batch) survives with at most
~budget/min-weight rows BEFORE anything moves. The pruned partials then
either merge on the driver (groups × budget rows — the small-group
case) or ride ONE group-hash-bucketed exchange with the exact cumsum
finished per bucket (each group wholly in one bucket; the skew bound is
the pruned per-group volume, not the raw group size).

Weights must be non-negative — a negative weight would break the
monotone prefilter (the running total could re-enter the budget).

Reference precedent: deterministic hash-ordered selection follows
sampling/ReservoirSampler semantics (reservoir.py cites
sampling/SequenceSampler.java); the budget-cap fold itself is a
beyond-reference training-data operator (per-domain token caps, e.g.
web-corpus domain balancing).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.exchange import bucket_exchange
from .reservoir import _md5_hex, _row_key


def _cap_group_sorted(b: pd.DataFrame, group_col: str, weight_col: str,
                      budget: float) -> pd.DataFrame:
    """Rows already sorted by digest WITHIN groups → keep rows whose
    inclusive per-group running weight ≤ budget, with the running total
    as ``cum``."""
    b = b.sort_values([group_col, "__rk"], kind="mergesort")
    cum = b.groupby(group_col, sort=False)[weight_col].cumsum()
    b = b.assign(cum=cum)
    return b.loc[cum <= budget]


def budget_cap(ds, key_cols: list[str], group_col: str, weight_col: str,
               budget: float, seed: int = 42, output: str = "pandas",
               n_buckets: int = 64):
    """→ kept rows (+ ``cum`` inclusive running weight), deterministic
    per-group digest order. ``output="dataset"`` finishes the exact
    cumsum per group-hash bucket instead of on the driver."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["__rk"] = _md5_hex(f"{seed}-" + _row_key(b, key_cols))
        return _cap_group_sorted(b, group_col, weight_col, budget) \
            .drop(columns="cum")

    partials = ds.map_batches(partial, batch_format="pandas")

    if output == "pandas":
        frames = list(partials.iter_batches(batch_size=None,
                                            batch_format="pandas"))
        if not frames:
            return pd.DataFrame(columns=list(ds.schema().names) + ["cum"])
        allp = pd.concat(frames, ignore_index=True)
        return (_cap_group_sorted(allp, group_col, weight_col, budget)
                .drop(columns="__rk").reset_index(drop=True))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return (_cap_group_sorted(g, group_col, weight_col, budget)
                .drop(columns="__rk"))

    return bucket_exchange(partials, group_col, finish, n_buckets)


def apportion(counts: pd.DataFrame, group_col: str, weights: dict,
              total_n: int) -> pd.DataFrame:
    """Largest-remainder (Hamilton) apportionment of ``total_n`` sample
    slots across groups ∝ weight — the exact-N data-mixing allocation
    proportional fractions can't give. Deterministic: quota_g =
    floor(total_n·w_g/W); leftover slots go to the largest fractional
    remainders, ties to the lexicographically first group; each
    allocation finally caps at the group's row count (no redistribution
    — the contract stays one-pass replayable). Driver math over the
    per-group count table. → (group, n_rows, alloc)."""
    g = counts.sort_values(group_col).reset_index(drop=True)
    w = g[group_col].map(weights).to_numpy(np.float64)
    if np.isnan(w).any():
        missing = g[group_col].to_numpy(object)[np.isnan(w)]
        raise ValueError(
            f"weight missing for group(s): {sorted(map(str, missing))[:5]}")
    if (w < 0).any() or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    exact = total_n * w / w.sum()
    base = np.floor(exact).astype(np.int64)
    rem = exact - base
    leftover = int(total_n - base.sum())
    order = np.lexsort((g[group_col].to_numpy(object), -rem))
    add = np.zeros(len(g), dtype=np.int64)
    add[order[:leftover]] = 1
    alloc = np.minimum(base + add, g["n_rows"].to_numpy(np.int64))
    return pd.DataFrame({group_col: g[group_col],
                         "n_rows": g["n_rows"].astype("int64"),
                         "alloc": alloc})


def apportioned_sample(ds, key_cols: list[str], group_col: str,
                       weights: dict, total_n: int, seed: int = 42,
                       n_buckets: int = 64):
    """Sample (at most) ``total_n`` rows with per-group allocations from
    ``apportion``, selection under the md5 digest order contract
    (``row_number() OVER (PARTITION BY group ORDER BY
    md5('{seed}-'||key))`` replays it). One counting fold → driver
    apportionment → per-batch prune to alloc_g per (group, batch) →
    ONE bucketed exchange finishing each group's top-alloc. → sampled
    rows."""
    import ray

    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    counts = grouped_aggregate(ds.select_columns([group_col]),
                               [group_col], {"n_rows": ("", "count")})
    plan = apportion(counts, group_col, weights, total_n)
    plan = plan.sort_values(group_col)
    ref = ray.put((plan[group_col].to_numpy(object),
                   plan["alloc"].to_numpy(np.int64)))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        gs, allocs = cached_get(ref)
        b = b.copy()
        b["__rk"] = _md5_hex(f"{seed}-" + _row_key(b, key_cols))
        b = b.sort_values("__rk", kind="mergesort")
        pos = np.searchsorted(gs, b[group_col].to_numpy(object))
        k = allocs[np.clip(pos, 0, len(gs) - 1)]
        rank = b.groupby(group_col, sort=False).cumcount().to_numpy()
        return b[rank < k]

    pruned = ds.map_batches(partial, batch_format="pandas")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        gs, allocs = cached_get(ref)
        g = g.sort_values("__rk", kind="mergesort")
        pos = np.searchsorted(gs, g[group_col].to_numpy(object))
        k = allocs[np.clip(pos, 0, len(gs) - 1)]
        rank = g.groupby(group_col, sort=False).cumcount().to_numpy()
        return g[rank < k].drop(columns="__rk")

    return bucket_exchange(pruned, group_col, finish, n_buckets)
