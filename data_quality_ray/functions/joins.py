"""Distributed join operators Ray Data's Dataset API doesn't ship.

``asof_join``: for every left row, the most recent right row with
``right_on <= left_on`` within the same ``by`` key — the classic
time-series enrichment join. Shape: both sides are reindexed to one
common schema, tagged, hash-bucketed on ``by`` (co-location is the
partitioning assumption: a key's rows all meet in one bucket), and each
bucket runs one vectorized ``pd.merge_asof``. Never a per-key Python
callback; skew in ``by`` is bounded by the bucket count (salt hot keys
into sub-buckets upstream if one key dominates).

Ties on ``right_on`` within a key make "the most recent row" ambiguous —
resolve them BEFORE joining (e.g. aggregate the right side to one row per
(by, right_on)); this mirrors what DuckDB's ASOF JOIN needs for
deterministic output, which is exactly what makes the operator
oracle-checkable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange


def asof_join(left_ds, right_ds, by: str, left_on: str, right_on: str,
              right_cols: list[str], how: str = "inner", n_buckets: int = 32):
    """→ Dataset of left rows + ``right_on`` + ``right_cols`` from the
    as-of match. ``how="inner"`` drops unmatched left rows (DuckDB ASOF
    JOIN semantics); ``how="left"`` keeps them with nulls.
    ``left_on``/``right_on`` must be differently named columns."""
    if left_on == right_on:
        raise ValueError("left_on and right_on must differ (rename one side)")
    left_cols = list(left_ds.schema().names)
    clash = ({right_on, *right_cols} - {by}) & set(left_cols)
    if clash:
        raise ValueError(f"right columns {sorted(clash)} clash with left schema — rename them")
    all_cols = left_cols + [right_on] + [c for c in right_cols if c not in left_cols]

    def tag_left(b: pd.DataFrame) -> pd.DataFrame:
        out = b.reindex(columns=all_cols)
        out["__side"] = np.int8(0)
        return out

    def tag_right(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[by, right_on, *right_cols]].reindex(columns=all_cols)
        out["__side"] = np.int8(1)
        return out

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["__side"] == 0][left_cols].sort_values(left_on, kind="mergesort")
        right = g[g["__side"] == 1][[by, right_on, *right_cols]]
        right = right.dropna(subset=[right_on]).sort_values(right_on, kind="mergesort")
        if right[right_on].dtype != left[left_on].dtype:
            # a bucket with no right rows arrives with an all-null float
            # column; empty astype restores the join-key dtype
            right = right.astype({right_on: left[left_on].dtype})
        if left.empty:
            return pd.DataFrame(columns=all_cols)
        merged = pd.merge_asof(left, right, left_on=left_on, right_on=right_on,
                               by=by, direction="backward")
        if how == "inner":
            merged = merged[merged[right_on].notna()]
        return merged[all_cols]

    tagged = left_ds.map_batches(tag_left, batch_format="pandas").union(
        right_ds.map_batches(tag_right, batch_format="pandas"))
    return bucket_exchange(tagged, by, join_bucket, n_buckets)


def asof_join_broadcast(left_ds, right: pd.DataFrame, by: str, left_on: str,
                        right_on: str, right_cols: list[str], how: str = "inner"):
    """As-of join where the RIGHT side is small (an aggregate, a rate
    table): broadcast it once via ``ray.put`` sorted by the join key and
    run one vectorized ``pd.merge_asof`` per left batch — zero shuffle
    (the ``range_join`` shape). Same semantics as ``asof_join``
    (parity-tested); use the shuffle variant when both sides are big."""
    import ray

    from .broadcast import cached_get

    if left_on == right_on:
        raise ValueError("left_on and right_on must differ (rename one side)")
    left_cols = list(left_ds.schema().names)
    all_cols = left_cols + [right_on] + [c for c in right_cols if c not in left_cols]
    r = (right[[by, right_on, *right_cols]].dropna(subset=[right_on])
         .sort_values(right_on, kind="mergesort").reset_index(drop=True))
    ref = ray.put(r)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        rt = cached_get(ref)
        lb = b.sort_values(left_on, kind="mergesort")
        if not rt.empty and rt[right_on].dtype != lb[left_on].dtype:
            rt = rt.astype({right_on: lb[left_on].dtype})
        m = pd.merge_asof(lb, rt, left_on=left_on, right_on=right_on,
                          by=by, direction="backward")
        if how == "inner":
            m = m[m[right_on].notna()]
        return m[all_cols]

    return left_ds.map_batches(match, batch_format="pandas")


def _schema_dtypes(schema) -> dict:
    """Declared pandas dtype per column of a Dataset schema (pyarrow or
    pandas-block flavored)."""
    base = getattr(schema, "base_schema", None)
    if hasattr(base, "empty_table"):  # pyarrow.Schema
        return base.empty_table().to_pandas().dtypes.to_dict()
    if hasattr(base, "types"):  # PandasBlockSchema (from_pandas inputs)
        return dict(zip(base.names, base.types))
    return {}


def _restore_dtypes(frame: pd.DataFrame, dtypes: dict, cols) -> pd.DataFrame:
    """Cast columns nulled-then-upcast by a tagged union back to their
    declared dtype wherever the column holds no nulls."""
    for c in cols:
        dt = dtypes.get(c)
        if (dt is not None and c in frame.columns and frame[c].dtype != dt
                and not frame[c].isna().any()):
            frame = frame.astype({c: dt})
    return frame


def hash_join(left_ds, right_ds, on, right_cols: list[str],
              how: str = "inner", n_buckets: int = 64,
              salt: int | str = 1):
    """General distributed equi-join (Ray Data ships no join operator):
    SELECT left.*, right_cols FROM left JOIN right USING (on).

    Shape: both sides reindexed to one common schema, tagged, hash-
    bucketed on the key columns — ONE all-to-all shuffle — then each
    bucket runs a single vectorized ``pd.merge``. Duplicate keys produce
    the full SQL cross product within the key; rows with a null key
    never match (SQL semantics — pandas would happily match NaN to NaN,
    so nulls are dropped from the probe side explicitly).

    ``how``: "inner", "left", "outer" (SQL FULL JOIN — unmatched rows of
    BOTH sides survive with nulls; null-key rows are kept unmatched on
    both sides; output dtypes are canonically nullable-upcast (int →
    float64, bool → object) so every bucket emits one schema; salt>1 is
    rejected since right replicas would re-emit unmatched rows), "semi"
    (left rows with ≥1 match — SQL
    EXISTS — never duplicated, no right columns attached) or "anti"
    (left rows with NO match — SQL NOT EXISTS; null-key left rows are
    kept, matching SQL). For semi/anti only the key columns of the
    right side are shuffled (deduplicated per batch), so the exchange
    is keys-only. Skew: by default one hot key's entire
    cross product lands in one bucket; ``salt > 1`` spreads it — every
    left row gets a deterministic salt in [0, salt), the right side is
    replicated ``salt`` ways, and the bucket key becomes (key, salt), so
    a hot key's probe work divides across ``salt`` buckets at the cost
    of shipping the right side ``salt``×. Semantics are identical
    (parity-tested); use when the build side is small relative to the
    probe side's skew. ``salt="auto"`` measures the probe-side key
    distribution first (profiling/skew.key_skew_report) and picks the
    salt itself.

    Reference precedent: the reference joins only inside a single JVM
    (ResultSet/stream zips); a distributed equi-join is part of the
    beyond-reference engine surface.
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(
            f"how={how!r}: expected 'inner'/'left'/'outer'/'semi'/'anti'")
    if salt == "auto":
        # Measure the probe side's key distribution and pick the smallest
        # salt that keeps the hottest key within 2× the mean bucket load
        # (profiling/skew). Costs one keys-only aggregate pass over the
        # left side — use it when the left is a direct (cheap-to-rescan)
        # read; a lazy upstream pipeline would re-execute, so measure
        # once and pass an int there instead. outer can't salt (right
        # replicas would re-emit unmatched rows), so auto resolves to 1.
        if how == "outer":
            salt = 1
        else:
            from ..profiling.skew import key_skew_report, recommend_salt

            _k = [on] if isinstance(on, str) else list(on)
            salt = recommend_salt(
                key_skew_report(left_ds.select_columns(_k), _k, top_k=1),
                n_buckets=n_buckets)
    if how == "outer" and salt > 1:
        # the right side is replicated salt× — unmatched right rows would
        # surface once per replica
        raise ValueError("how='outer' does not compose with salt > 1")
    filter_only = how in ("semi", "anti")
    keys = [on] if isinstance(on, str) else list(on)
    schema = left_ds.schema()
    left_cols = list(schema.names)
    # the tagged union nulls left columns on right-tagged rows, which
    # upcasts int->float across the shuffle; restore the declared dtypes
    # on the left sub-frame inside each bucket (left rows themselves are
    # never nulled by the union)
    left_dtypes = _schema_dtypes(schema)
    right_dtypes = _schema_dtypes(right_ds.schema())
    if filter_only:
        right_cols = list(keys)  # existence probe: keys are all that ships
    clash = (set(right_cols) - set(keys)) & set(left_cols)
    if clash:
        raise ValueError(f"right columns {sorted(clash)} clash with left schema — rename them")
    extra = [c for c in right_cols if c not in left_cols]
    all_cols = left_cols + extra

    def tag_left(b: pd.DataFrame) -> pd.DataFrame:
        out = b.reindex(columns=all_cols)
        out["__side"] = np.int8(0)
        if salt > 1:
            # deterministic per-row salt: spread a hot key's probe rows
            out["__salt"] = (np.arange(len(out), dtype=np.uint64)
                             % np.uint64(salt)).astype("int64")
        return out

    def tag_right(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[*keys, *[c for c in right_cols if c not in keys]]]
        if filter_only:
            out = out.drop_duplicates()  # batch-level pre-dedup of probe keys
        out = out.reindex(columns=all_cols)
        out["__side"] = np.int8(1)
        if salt > 1:
            out = pd.concat([out.assign(__salt=np.int64(s))
                             for s in range(salt)], ignore_index=True)
        return out

    # the salt column joins as part of the key: two salt replicas of the
    # same key may land in one bucket, and matching on the key alone
    # would then duplicate the join output
    jk = keys + (["__salt"] if salt > 1 else [])

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lcols = left_cols + (["__salt"] if salt > 1 else [])
        left = _restore_dtypes(g[g["__side"] == 0][lcols],
                               left_dtypes, left_cols)
        def outer_canon(df: pd.DataFrame) -> pd.DataFrame:
            # FULL JOIN columns are nullable by nature: canonicalize every
            # bucket's block to the same nullable-upcast dtypes (int →
            # float64, bool → object) so buckets that happened to have no
            # unmatched rows don't emit a different schema
            conv = {}
            for c in df.columns:
                if pd.api.types.is_integer_dtype(df[c].dtype):
                    conv[c] = "float64"
                elif pd.api.types.is_bool_dtype(df[c].dtype):
                    conv[c] = "object"
            return df.astype(conv) if conv else df

        right_all = g[g["__side"] == 1][[*jk, *extra]]
        right = _restore_dtypes(right_all.dropna(subset=keys),
                                right_dtypes, extra)
        if how == "outer":
            # SQL FULL JOIN keeps null-key right rows (unmatched) too
            right_nullkey = right_all[right_all[keys].isna().any(axis=1)]
        if left.empty:
            if how == "outer" and len(right_all):
                return outer_canon(right_all.reindex(columns=all_cols))
            return pd.DataFrame(columns=all_cols)
        for k in keys:
            # a bucket with no right rows arrives all-null → restore key dtype
            if right[k].dtype != left[k].dtype:
                right = right.astype({k: left[k].dtype})
        # right side has no null keys (dropped above), so left null keys
        # match nothing: kept with null extras under "left", dropped
        # under "inner" — exactly SQL
        if filter_only:
            probe = right[jk].drop_duplicates()
            m = left.merge(probe, on=jk, how="left", indicator="__m")
            keep = (m["__m"] == "both") if how == "semi" else (m["__m"] == "left_only")
            return m.loc[keep.to_numpy(), all_cols]
        merged = left.merge(right, on=jk, how=how, sort=False)
        if how == "outer":
            if len(right_nullkey):
                merged = pd.concat([merged, right_nullkey],
                                   ignore_index=True)
            return outer_canon(merged.reindex(columns=all_cols))
        return merged.reindex(columns=all_cols)

    tagged = left_ds.map_batches(tag_left, batch_format="pandas").union(
        right_ds.map_batches(tag_right, batch_format="pandas"))
    return bucket_exchange(tagged, jk, join_bucket, n_buckets)


def broadcast_join(left_ds, right: pd.DataFrame, on, right_cols: list[str],
                   how: str = "inner"):
    """Equi-join where the RIGHT side is small (dimension tables):
    ``ray.put`` once, one vectorized ``pd.merge`` per left batch — zero
    shuffle. Same semantics as ``hash_join`` (parity-tested), including
    ``how="semi"``/``"anti"`` existence filters (right keys broadcast as
    a deduplicated probe set; left rows pass through unchanged). The
    broadcast-small-side pattern every dimension lookup should use
    instead of a shuffle join."""
    import ray

    from .broadcast import cached_get

    keys = [on] if isinstance(on, str) else list(on)
    if how in ("semi", "anti"):
        right_cols = list(keys)
    extra = [c for c in right_cols if c not in keys]
    r = right[[*keys, *extra]].dropna(subset=keys)
    if how in ("semi", "anti"):
        r = r.drop_duplicates()
    r = r.reset_index(drop=True)
    ref = ray.put(r)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        rt = cached_get(ref)
        if how in ("semi", "anti"):
            m = b.merge(rt, on=keys, how="left", indicator="__m")
            keep = (m["__m"] == "both") if how == "semi" else (m["__m"] == "left_only")
            return b.loc[keep.to_numpy()]
        return b.merge(rt, on=keys, how=how, sort=False)

    return left_ds.map_batches(match, batch_format="pandas")


def range_join(ds, intervals: pd.DataFrame, on: str, lo_col: str, hi_col: str,
               attach_cols: list[str], how: str = "inner"):
    """Banded-dimension range join: attach interval attributes to every
    row whose ``on`` value falls in [lo, hi). The intervals table is the
    SMALL side (rate tables, price bands, IP→geo ranges): broadcast once
    via ``ray.put`` as sorted edge arrays, matched per batch with ONE
    vectorized searchsorted — never a shuffle, never a cross join.

    Assumes intervals are disjoint (validated here); overlapping-interval
    joins need the bucketed-pairs shape instead.
    """
    import ray

    from .broadcast import cached_get

    iv = intervals.sort_values(lo_col, kind="mergesort").reset_index(drop=True)
    lo = iv[lo_col].to_numpy()
    hi = iv[hi_col].to_numpy()
    if (hi[:-1] > lo[1:]).any() if len(iv) > 1 else False:
        raise ValueError("intervals overlap — range_join requires disjoint bands")
    attach = {c: iv[c].to_numpy() for c in attach_cols}
    ref = ray.put((lo, hi, attach))

    def match(b: pd.DataFrame) -> pd.DataFrame:
        lo_a, hi_a, att = cached_get(ref)
        v = b[on].to_numpy()
        pos = np.searchsorted(lo_a, v, side="right") - 1
        ok = (pos >= 0) & (v < hi_a[np.clip(pos, 0, len(hi_a) - 1)])
        out = b.copy()
        safe = np.clip(pos, 0, len(lo_a) - 1)
        for c, arr in att.items():
            col = arr[safe].astype(object)
            col[~ok] = None
            out[c] = col
        if how == "inner":
            out = out[ok]
        return out

    return ds.map_batches(match, batch_format="pandas")


def agg_join(left_ds, right_ds, on: str, aggs: dict, how: str = "left",
             n_buckets: int = 32, right_group_cols: list[str] | None = None):
    """Exchange fusion: ``left JOIN (SELECT on, aggs FROM right GROUP BY
    on)`` in ONE all-to-all instead of two (a grouped-aggregate shuffle
    followed by a join shuffle). Right batches collapse to one partial
    row per key BEFORE the exchange (the grouped_aggregate contract), both
    relations ride the same bucketed groupby, and each bucket finalizes
    the right aggregate then merges. ``aggs``: {out: (in_col, fn)} with
    fn ∈ sum/count/min/max. ``how``: inner/left/outer. Outer output uses
    the same nullable-upcast dtype canon as ``hash_join(how="outer")``.
    ``right_group_cols`` adds extra right-side columns to the GROUP BY
    (``left JOIN (SELECT on, extra…, aggs FROM right GROUP BY on,
    extra…)`` — a one-to-many join carrying the extra keys through);
    bucketing stays on ``on`` alone so the join is still one exchange.
    Measured: the two-exchange form of the customer×event-counts FULL
    JOIN ran 6.5 s at sf0.1; this runs it in one exchange (~half the
    fixed shuffle latency)."""
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"how={how!r}: expected 'inner'/'left'/'outer'")
    _FINAL = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
    for fn in (f for _, f in aggs.values()):
        if fn not in _FINAL:
            raise ValueError(f"non-algebraic aggregate: {fn}")

    rgc = list(right_group_cols or [])
    gkeys = [on] + rgc
    left_cols = list(left_ds.schema().names)
    clash = ((set(aggs) | set(rgc)) - {on}) & set(left_cols)
    if clash:
        raise ValueError(
            f"aggregate output columns {sorted(clash)} clash with left schema — rename them")
    out_cols = left_cols + [c for c in rgc if c not in left_cols] \
        + [c for c in aggs if c not in left_cols]

    def tag_left(b: pd.DataFrame) -> pd.DataFrame:
        out = b.reindex(columns=out_cols)
        out["__side"] = np.int8(0)
        return out

    def tag_right(b: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: SQL's GROUP BY keeps a NULL group — under
        # how='outer' that group must surface as an unmatched row (a NULL
        # key still never MATCHES a left row; merge_bucket splits it out)
        gb = b.groupby(gkeys, sort=False, dropna=False)
        cols = {}
        for out_col, (in_col, fn) in aggs.items():
            if fn == "count":        # COUNT(*) — rows, like the SQL form
                cols[out_col] = gb.size()
            elif fn == "sum":        # min_count=1: SQL sum over an
                cols[out_col] = gb[in_col].sum(min_count=1)  # all-NULL
            else:                    # group is NULL, not 0
                cols[out_col] = getattr(gb[in_col], fn)()
        out = pd.DataFrame(cols).reset_index()
        out = out.reindex(columns=out_cols)
        out["__side"] = np.int8(1)
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["__side"] == 0][left_cols]
        rp = g[g["__side"] == 1]
        gb = rp.groupby(gkeys, sort=False, dropna=False)
        # final sum skips NaN partials with min_count=1 so an all-NULL
        # group stays NULL end-to-end (SQL parity), while a group with
        # values in SOME batches sums only the non-NaN partials
        cols = {c: (gb[c].sum(min_count=1) if _FINAL[fn] == "sum"
                    else getattr(gb[c], _FINAL[fn])())
                for c, (_, fn) in aggs.items()}
        right_all = pd.DataFrame(cols).reset_index()
        # SQL: a NULL key never equals anything — split the NULL group out
        # so pandas merge can't match NaN↔NaN; under 'outer' it survives
        # as an unmatched row (the hash_join right_nullkey path)
        nullkey = right_all[right_all[on].isna()]
        right = right_all[right_all[on].notna()]
        if left.empty:
            if how == "outer" and len(right_all):
                out = right_all.reindex(columns=out_cols)
            else:
                return pd.DataFrame(columns=out_cols)
        else:
            for k in (on,):
                if len(right) and right[k].dtype != left[k].dtype:
                    right = right.astype({k: left[k].dtype})
            out = left.merge(right, on=on, how=how, sort=False) \
                .reindex(columns=out_cols)
            if how == "outer" and len(nullkey):
                out = pd.concat([out, nullkey.reindex(columns=out_cols)],
                                ignore_index=True)
        if how == "outer":
            conv = {}
            for c in out.columns:
                if pd.api.types.is_integer_dtype(out[c].dtype):
                    conv[c] = "float64"
                elif pd.api.types.is_bool_dtype(out[c].dtype):
                    conv[c] = "object"
            if conv:
                out = out.astype(conv)
        return out

    tagged = left_ds.map_batches(tag_left, batch_format="pandas").union(
        right_ds.map_batches(tag_right, batch_format="pandas"))
    return bucket_exchange(tagged, on, merge_bucket, n_buckets)
