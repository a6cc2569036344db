"""Grouped aggregation with batch-level partial combine.

A bare ``ds.groupby(keys).aggregate(...)`` shuffles EVERY row. For
algebraic aggregates (sum/count/min/max — and mean as sum+count) the
batch can first collapse to one row per (batch, key): the shuffle then
moves #distinct-keys×#batches rows instead of #rows — at 100 TB with
low-cardinality keys this is the difference between an all-to-all of the
table and an all-to-all of kilobytes. (The reference's mergeable stats
beans exist for exactly this partial/final contract — SURVEY.md §4.)

``grouped_aggregate(ds, keys, {out_col: (in_col, fn)})`` with fn ∈
{sum, count, min, max} runs: map_batches(pandas groupby partial) →
groupby(keys).aggregate(final) where the final fn for count is Sum.
"""

from __future__ import annotations

import pandas as pd

from ..functions.gate import fits

_FINAL = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_aggregate(ds, keys: list[str], aggs: dict[str, tuple[str, str]],
                      final: str = "driver"):
    """Returns keys + list(aggs) columns. Each agg: out_col → (in_col, fn);
    fn in sum/count/min/max (in_col ignored for count).

    ``final``:
    - "driver" (default): the per-batch partials (one row per (batch,key))
      stream to the driver and merge with one pandas groupby — right for
      low-cardinality keys, where Ray's sort-based shuffle costs seconds
      of fixed latency to move kilobytes. Returns a pandas DataFrame.
    - "shuffle": hash-bucketed distributed merge — for key spaces too
      large to merge on one node. ONE ``bucket_exchange`` moves the
      partials to 64 hash buckets of the key columns, and each bucket
      runs a single vectorized pandas groupby.
      Returns a Dataset. (A bare ``groupby(keys).aggregate(...)`` pays
      per-distinct-key Python accumulate inside Ray's aggregate — 43 s
      vs 1 s at 235k keys, measured — so high-cardinality finals go
      through the bucket shape like every other distributed merge here.)
    - "auto": measured-size gate — materializes the partials, counts
      their rows (≥ distinct keys), and picks "driver" when they fit
      the ``partial_rows`` size gate, "shuffle" above. Return type
      follows the chosen path; right for callers that collect the result
      anyway (broadcast-winners patterns) but must stay safe on
      unbounded key spaces.
    """
    for fn_name in (fn for _, fn in aggs.values()):
        if fn_name not in _FINAL:
            raise ValueError(f"non-algebraic aggregate: {fn_name}")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        gb = batch.groupby(keys, sort=False)
        cols = {}
        for out_col, (in_col, fn) in aggs.items():
            if fn == "count":
                cols[out_col] = gb.size()
            else:
                cols[out_col] = getattr(gb[in_col], fn)()
        return pd.DataFrame(cols).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")

    if final == "auto":
        partials = partials.materialize()
        final = ("driver" if fits("groupagg.grouped_aggregate",
                                  partials.count(), "partial_rows")
                 else "shuffle")

    if final == "shuffle":
        from ..functions.exchange import bucket_exchange

        def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
            gb = g.groupby(keys, sort=False)
            out = pd.DataFrame({out_col: getattr(gb[out_col], _FINAL[fn])()
                                for out_col, (_, fn) in aggs.items()})
            return out.reset_index()

        return bucket_exchange(partials, keys, merge_bucket)

    frames = list(partials.iter_batches(batch_size=65536, batch_format="pandas"))
    if not frames:
        return pd.DataFrame(columns=keys + list(aggs))
    allp = pd.concat(frames, ignore_index=True)
    gb = allp.groupby(keys, sort=True)
    out = pd.DataFrame({out_col: getattr(gb[out_col], _FINAL[fn])()
                        for out_col, (_, fn) in aggs.items()}).reset_index()
    return out


def grouped_topk(ds, keys, order_by, k: int, ascending=False,
                 rank_col: str = "rank", n_buckets: int = 64):
    """Per-group top-k rows — SQL's ``QUALIFY row_number() OVER
    (PARTITION BY keys ORDER BY order_by) <= k``.

    Top-k is a mergeable partial: each batch keeps at most k rows per
    key it sees (vectorized sort + ``groupby.head`` — no per-group
    Python), so the hash-bucketed merge shuffles ≤ k × #keys-per-batch
    × #batches rows instead of the table. The final per-bucket pass
    re-selects top-k per key and attaches a 1-based ``rank_col``.

    Determinism: include a tie-break column in ``order_by`` (the same
    requirement the SQL oracle's ``row_number`` has). ``ascending`` may
    be a bool or a per-column list. Returns a Dataset.
    """
    from ..functions.exchange import bucket_exchange

    keys = [keys] if isinstance(keys, str) else list(keys)
    order = [order_by] if isinstance(order_by, str) else list(order_by)
    asc = [ascending] * len(order) if isinstance(ascending, bool) else list(ascending)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b.sort_values(order, ascending=asc, kind="mergesort")
        return s.groupby(keys, sort=False).head(k)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(order, ascending=asc, kind="mergesort")
        top = s.groupby(keys, sort=False).head(k).copy()
        top[rank_col] = (top.groupby(keys, sort=False).cumcount() + 1).astype("int64")
        return top

    return bucket_exchange(ds.map_batches(partial, batch_format="pandas"),
                           keys, merge_bucket, n_buckets)


def grouped_sketches(ds, key_col: str, make_acc, update):
    """Per-GROUP mergeable sketches: each batch builds one sketch per
    group present in the batch (pickled, a few tiny rows per batch), the
    driver merges per group — the mergeable-statistics-bean pattern keyed
    by a low-cardinality group column (per-nation t-digests, per-source
    HLLs). Driver state = #groups × sketch size, independent of rows.
    ``update(acc, sub_frame)`` folds a group's sub-frame into its sketch.
    Returns {group: sketch}."""
    import pickle

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        keys, blobs = [], []
        for g, sub in b.groupby(key_col, sort=False):
            acc = make_acc()
            update(acc, sub)
            keys.append(g)
            blobs.append(pickle.dumps(acc))
        return pd.DataFrame({key_col: keys, "p": blobs})

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pandas").iter_batches(
            batch_size=256, batch_format="pandas"):
        for g, blob in zip(b[key_col], b["p"]):
            acc = pickle.loads(blob)
            merged[g] = acc if g not in merged else merged[g].merge(acc)
    return merged


def grouping_sets(ds, dims: list[str], aggs: dict[str, tuple[str, str]],
                  sets: list[tuple] | None = None,
                  sentinels: dict | None = None,
                  null_value: str = "<NULL>") -> pd.DataFrame:
    """SQL ``GROUP BY GROUPING SETS / CUBE / ROLLUP`` from ONE
    distributed pass: the finest-grain (all ``dims``) grid runs through
    ``grouped_aggregate`` (algebraic partials, one exchange at most),
    then every requested grouping set re-aggregates that tiny grid on
    the driver — exact, because sum/count/min/max compose.

    ``sets=None`` means the full CUBE (every subset of ``dims``). NULL
    dim values form their own group (rendered as ``null_value``) and
    count toward every subtotal — SQL's NULL-group semantics, which
    pandas groupby would otherwise silently drop.
    Missing dims are filled from ``sentinels`` (default ``"ALL"``) so the
    output schema is null-free and dtype-stable — the same convention
    the SQL oracle expresses with ``coalesce``. Grand totals over an
    empty input yield no row (matching SQL, where an empty group set
    aggregates over zero rows only for COUNT-style global aggregates —
    callers needing that row should union it explicitly).

    → pandas DataFrame (dims + agg columns); the grid is #distinct
    combos × #sets rows — driver-small by construction. For
    high-cardinality dims, aggregate the finest grid with
    ``final="shuffle"`` yourself and roll up the sets downstream.
    """
    from itertools import combinations

    if sets is None:
        sets = [c for r in range(len(dims) + 1)
                for c in combinations(dims, r)]
    sentinels = sentinels or {}

    def fill_null_dims(b: pd.DataFrame) -> pd.DataFrame:
        # SQL's GROUP BY keeps a NULL group and counts it in every
        # subtotal; pandas groupby drops it — materialize NULL dim values
        # as their own ``null_value`` group before aggregating so totals
        # never silently shrink
        if b[dims].isna().any().any():
            b = b.copy()
            for d in dims:
                b[d] = b[d].fillna(null_value)
        return b

    finest = grouped_aggregate(
        ds.map_batches(fill_null_dims, batch_format="pandas"),
        list(dims), aggs)
    frames = []
    for s in sets:
        s = list(s)
        unknown = set(s) - set(dims)
        if unknown:
            raise ValueError(f"grouping set {s} not a subset of dims {dims}")
        if s:
            gb = finest.groupby(s, sort=False)
            part = pd.DataFrame({out: getattr(gb[out], _FINAL[fn])()
                                 for out, (_, fn) in aggs.items()}).reset_index()
        else:
            if finest.empty:
                continue
            part = pd.DataFrame({out: [getattr(finest[out], _FINAL[fn])()]
                                 for out, (_, fn) in aggs.items()})
        for d in dims:
            if d not in s:
                part[d] = sentinels.get(d, "ALL")
        frames.append(part[list(dims) + list(aggs)])
    out = (pd.concat(frames, ignore_index=True) if frames
           else pd.DataFrame(columns=list(dims) + list(aggs)))
    return out.sort_values(list(dims), kind="mergesort").reset_index(drop=True)
