"""Exact deduplication: hash-partition on a key, keep one row per group.

Reference precedent: blocking-key grouping with a deterministic
representative (dataquality-record-linkage genkey/BlockingKeyHandler.java:27-135
+ grouping/AbstractRecordGrouping.java:201-254 master-record selection).

Scale notes: the per-key Min over (key, order) is the only exchange. The
reduce is "min(order_col) wins" — order-insensitive, so it admits partial
pre-aggregation inside each batch before the exchange (we first reduce each
batch to one candidate row per key, shrinking the exchange by the in-batch
duplication factor — the StringsClusterAnalyzer.blockSizeThreshold:57,85
early-reduction idea).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def dedup_by_key(ds, key: str, order_col: str):
    """One surviving row per distinct ``key`` — the row with the minimal
    ``order_col`` (deterministic representative).

    Batch pre-dedup → ``Min(order_col)`` per key over the two key columns
    only (``grouped_aggregate``) → broadcast the surviving (key, order)
    pairs as sorted arrays via ``ray.put`` → membership filter. Orders of
    magnitude faster than a per-group Python callback; the broadcast is
    #distinct-keys sized, so the winner set must fit driver memory.

    ``order_col`` must be unique per row (a row id): the winner filter
    admits every row whose (key, order) equals the per-key minimum, so
    duplicated order values would admit duplicates. Correctness is
    batching-independent — the global per-key minimum row survives any
    batch-level pre-dedup, and no other row's pair is in the winner set.
    """

    import numpy as np
    import pyarrow as pa

    def pre(batch: pa.Table) -> pa.Table:
        # in-batch partial: keeps shuffle volume at one row per (batch,
        # key). Arrow-native: the index math runs on the two key columns;
        # wide payload columns (image bytes) move only through zero-copy
        # ``take`` — never converted to Python objects.
        keys = batch[key].to_numpy(zero_copy_only=False)
        orders = batch[order_col].to_numpy(zero_copy_only=False)
        idx = np.lexsort((orders, keys))
        sk = keys[idx]
        first = np.ones(len(sk), dtype=bool)
        if len(sk) > 1:
            first[1:] = sk[1:] != sk[:-1]
        return batch.take(pa.array(np.sort(idx[first])))

    pre_ds = ds.map_batches(pre, batch_format="pyarrow")

    import ray

    # the winners pass needs only (key, order). The min-merge goes
    # through grouped_aggregate's measured-size gate (final="auto"): the
    # winner set lands on the driver for the broadcast regardless, so a
    # bucketed exchange only pays off once the partial count exceeds the
    # driver gate (interleaved quiet A/B at sf0.1: driver 1.20 s vs
    # shuffle 1.89 s — the bare Ray per-key aggregate is not an option
    # either way, 43 s at 235k keys measured vs ~1 s bucketed)
    from ..profiling.groupagg import grouped_aggregate

    winners = grouped_aggregate(pre_ds.select_columns([key, order_col]), [key],
                                {"__win": (order_col, "min")}, final="auto")
    if not isinstance(winners, pd.DataFrame):
        winners = winners.to_pandas()
    # sorted winner ARRAYS (not a set of tuples): numpy arrays ride the
    # object store zero-copy and membership is a vectorized searchsorted —
    # the same kernel as the flagship's _dedup_phase (pipelines/north.py)
    worder = np.argsort(winners[key].to_numpy(), kind="mergesort")
    wk = winners[key].to_numpy()[worder]
    wo = winners["__win"].to_numpy()[worder]
    win_ref = ray.put((wk, wo))

    from ..functions.broadcast import cached_get

    def keep_winners(batch: pa.Table) -> pa.Table:
        wkeys, worders = cached_get(win_ref)  # deserialized once per worker process
        if len(wkeys) == 0:
            return batch.slice(0, 0)
        keys = batch[key].to_numpy(zero_copy_only=False)
        orders = batch[order_col].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(wkeys, keys), 0, len(wkeys) - 1)
        mask = (wkeys[pos] == keys) & (worders[pos] == orders)
        return batch.filter(pa.array(mask))

    return pre_ds.map_batches(keep_winners, batch_format="pyarrow")


def keep_best_by(ds, key: str, score_col: str, id_col: str,
                 round_to: int = 6):
    """Best-of-cluster survivorship: one representative per ``key`` —
    the row with the MAX ``score_col`` (rounded to ``round_to`` before
    ranking, the engine-stable contract), ties broken by MIN ``id_col``.
    → (key, score_col, id_col) per cluster.

    The generalization of ``dedup_by_key`` from keep-first to
    keep-highest-quality (web-scale image dedup keeps the sharpest
    duplicate, not the first-seen). Shape: the pruned 3-column
    projection is materialized ONCE (upstream may be a decode stage —
    the lazy re-execution trap), then two auto-gated aggregate folds:
    per-key max score, then min id among the rows tying that max
    (tie rows filtered by a broadcast sorted-array membership kernel).
    On the shuffle path both folds return Datasets and join through ONE
    bucketed hash_join exchange instead of the driver."""
    import pyarrow as pa
    import ray

    from ..functions.broadcast import cached_get
    from ..profiling.groupagg import grouped_aggregate

    def proj(b: pd.DataFrame) -> pd.DataFrame:
        # np/pandas rounding (half-to-even), the repo-wide contract
        return pd.DataFrame({key: b[key], score_col: b[score_col].round(round_to),
                             id_col: b[id_col]})

    small = ds.map_batches(proj, batch_format="pandas").materialize()
    best = grouped_aggregate(small, [key], {"__best": (score_col, "max")},
                             final="auto")

    if isinstance(best, pd.DataFrame):
        order = np.argsort(best[key].to_numpy(), kind="mergesort")
        bk = best[key].to_numpy()[order]
        bs = best["__best"].to_numpy()[order]
        ref = ray.put((bk, bs))

        def tie_rows(b: pa.Table) -> pa.Table:
            wk, ws = cached_get(ref)
            if len(wk) == 0:
                return b.slice(0, 0)
            kv = b[key].to_numpy(zero_copy_only=False)
            sv = b[score_col].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(wk, kv), 0, len(wk) - 1)
            mask = (wk[pos] == kv) & (ws[pos] == sv)
            return b.filter(pa.array(mask))

        ties = small.map_batches(tie_rows, batch_format="pyarrow")
        win = grouped_aggregate(ties, [key], {id_col: (id_col, "min")},
                                final="driver")
        out = win.merge(
            pd.DataFrame({key: bk, score_col: bs}), on=key, sort=False)
        return out[[key, score_col, id_col]].sort_values(key) \
            .reset_index(drop=True)

    # shuffle path: min-id fold over ALL rows keyed by (key, score) —
    # only the max-score group's min survives the join below
    idmin = grouped_aggregate(small, [key, score_col],
                              {id_col: (id_col, "min")}, final="shuffle")
    from ..functions.joins import hash_join

    joined = hash_join(
        best.map_batches(
            lambda b: b.rename(columns={"__best": score_col}),
            batch_format="pandas"),
        idmin, on=[key, score_col], right_cols=[id_col], how="inner")
    return joined


def dedup_by_content(ds, text_col: str, order_col: str, key_col: str = "__content_hash"):
    """Exact content dedup: add a content-hash column (cheap, vectorized)
    then hash-partition on it — avoids shuffling long text as the key.

    The key is 128 bits (two independent SipHash runs packed into 16
    bytes): a single 64-bit key collides ~birthday(n²/2⁶⁵) ≈ tens of
    thousands of silent false-drops at 10^12 rows; at 128 bits the
    expected collision count at that scale is ~10⁻¹⁵."""
    import numpy as np
    import pandas.util as pdu

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        arr = batch[text_col].to_numpy(dtype=object)
        h1 = pdu.hash_array(arr)
        h2 = pdu.hash_array(arr, hash_key="dq_content_2nd!!")  # 16-byte key
        packed = np.empty((len(arr), 16), dtype=np.uint8)
        packed[:, :8] = h1.view(np.uint8).reshape(-1, 8)
        packed[:, 8:] = h2.view(np.uint8).reshape(-1, 8)
        batch[key_col] = [bytes(row) for row in packed]
        return batch

    out = dedup_by_key(ds.map_batches(add_hash, batch_format="pandas"), key=key_col, order_col=order_col)
    return out.drop_columns([key_col])
