"""The hash-bucketed exchange every keyed distributed merge goes through.

Ray Data's ``groupby(key).map_groups(fn)`` calls ``fn`` once per
DISTINCT key — a Python callback per tiny group, which at millions of
keys costs minutes. The keyed merges in this package (joins, dedup
pair emission, per-group top-k, sampling finals, windows, sessionizing)
instead tag every row with ``hash(keys) % n_buckets`` and group on that
tag: one all-to-all shuffle, at most ``n_buckets`` callbacks, each a
vectorized pandas pass over every key that hashed to its bucket. All of
a key's rows meet in exactly one call — the co-location every merge
here relies on.

Two-sided merges (joins, anti-joins, diffs) tag each side with a side
column, ``union`` the sides, and exchange the union on the shared key
columns — both sides' keys must then hash alike, i.e. carry the same
column names and dtypes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_BUCKET = "__bucket"


def bucket_exchange(ds, keys, fn, n_buckets: int = 64):
    """→ Dataset: ``fn`` applied to each hash bucket of ``ds``'s rows.

    ``keys`` is a column name or a list of them; multi-column keys hash
    order-sensitively, so (a, b) and (b, a) are distinct keys, and null
    keys hash like any other value (every null-key row shares one
    bucket). ``fn`` receives a pandas DataFrame of the bucket's rows —
    possibly several keys, never the bucket tag — and returns a pandas
    DataFrame; it runs at most ``n_buckets`` times.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(b[keys], index=False).to_numpy()
        b = b.copy(deep=False)  # a new column only: no data copied
        b[_BUCKET] = (h % np.uint64(n_buckets)).astype("int64")
        return b

    def untag(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns=_BUCKET))

    return (ds.map_batches(tag, batch_format="pandas")
            .groupby(_BUCKET)
            .map_groups(untag, batch_format="pandas"))
