"""The hash-bucketed exchange every keyed distributed merge goes through.

Ray Data's ``groupby(key).map_groups(fn)`` calls ``fn`` once per
DISTINCT key — a Python callback per tiny group, which at millions of
keys costs minutes. The keyed merges in this package (joins, dedup
pair emission, per-group top-k, sampling finals, windows, sessionizing)
instead hash every row's keys to one of ``n`` buckets and hand ``fn``
each bucket: one all-to-all exchange, at most ``n`` callbacks, each a
vectorized pandas pass over every key that hashed to its bucket. All of
a key's rows meet in exactly one call — the co-location every merge
here relies on.

The exchange is a hash shuffle of plain Ray tasks, not a Ray Data job:
one split task per input block cuts the block into ``n`` parts, and one
merge task per bucket concatenates its parts and calls ``fn`` once
(never on an empty bucket). There is no sort and no per-group slicing.

- **Bucket count.** ``n = min(n_buckets, session_block_count(input
  bytes))`` (``sources/io``): two buckets per session CPU, more only
  when the input outgrows Ray's block size — the reduce granularity
  follows the session and the data, and never exceeds what the caller
  asked for.
- **Bucket index.** ``(h >> 32) % n`` over ``hash_pandas_object(keys)``.
  The low bits of the combined multi-column hash are poorly mixed:
  ``h % 8`` puts 75 of 200 swapped ``(a, b)``/``(b, a)`` pairs in one
  bucket, ``(h >> 32) % 8`` 24 (chance is 25).
- **Key dtypes.** An integral finite float key value hashes as the int
  it equals. An Arrow int column with nulls converts to float64 only in
  the blocks that hold a null, so without this the key ``3`` of an int64
  block and the ``3.0`` of a float64 block would land in different
  buckets (0 and 5 of 8).
- **Skew.** Each exchange appends ``(keys, n, rows_in, max_bucket_rows,
  median_bucket_rows)`` to the bounded ``RECORD``, from the per-bucket
  input counts the merge tasks return.

Two-sided merges (joins, anti-joins, diffs) tag each side with a side
column, ``union`` the sides, and exchange the union on the shared key
columns — both sides' keys must then hash alike, i.e. carry the same
column names and dtypes.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd
import ray
from pandas.core.util.hashing import combine_hash_arrays

RECORD: deque = deque(maxlen=1024)


# the hash of a null key value of any kind (None, NaN, NaT, pd.NA): an
# all-null Arrow block arrives as object None, the same column's nulls in
# another block as float NaN, and pandas hashes the two differently
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def _key_hash(b: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """``hash_pandas_object(b[keys], index=False)``, column by column,
    with each integral finite float value hashed as its int64 value and
    every null as ``_NULL_HASH``. The columns combine as pandas combines a
    frame's, so a key without float columns or nulls gets exactly pandas'
    frame hash."""
    cols = []
    for c in keys:
        h = pd.util.hash_pandas_object(b[c], index=False).to_numpy()
        v = b[c].to_numpy()
        if v.dtype.kind == "f":
            whole = (v == np.round(v)) & (v >= -2.0**63) & (v < 2.0**63)  # False on NaN/inf
            if whole.any():
                h[whole] = pd.util.hash_array(v[whole].astype(np.int64))
        null = b[c].isna().to_numpy()
        if null.any():
            h = h.copy()
            h[null] = _NULL_HASH
        cols.append(h)
    return combine_hash_arrays(iter(cols), len(cols))


@ray.remote
def _split(block, keys: list[str], n: int):
    """One input block → ``n`` pandas parts, part ``i`` holding the rows
    whose keys hash to bucket ``i``."""
    from ray.data.block import BlockAccessor

    b = BlockAccessor.for_block(block).to_pandas()
    if not len(b):  # possibly a 0-column block: nothing to hash
        parts = [b] * n
    else:
        h = _key_hash(b, keys)
        bucket = (h >> np.uint64(32)) % np.uint64(n)
        order = np.argsort(bucket, kind="stable")
        cuts = np.searchsorted(bucket[order], np.arange(1, n, dtype=np.uint64))
        parts = [b.take(rows) for rows in np.split(order, cuts)]
    return tuple(parts) if n > 1 else parts[0]


@ray.remote(num_returns=2)
def _merge(fn, *parts):
    """One bucket's parts → (``fn``'s output block, (its metadata, rows
    in)); a bucket without rows never calls ``fn``."""
    from ray.data._internal.util import get_table_block_metadata_schema
    from ray.data.block import BlockAccessor

    parts = [p for p in parts if len(p)]
    if not parts:
        return None, (None, 0)
    g = pd.concat(parts, ignore_index=True)
    block = BlockAccessor.batch_to_block(fn(g))
    return block, (get_table_block_metadata_schema(block), len(g))


def _dataset(blocks: list, metas: list):
    """A materialized Dataset over blocks already in the object store
    (what ``ray.data.from_pandas_refs`` builds, minus its metadata
    tasks: the merge tasks returned the metadata)."""
    import ray.data as rd
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromPandas
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats

    ctx = rd.DataContext.get_current().copy()
    plan = ExecutionPlan(DatasetStats(metadata={"BucketExchange": metas}, parent=None), ctx)
    return rd.dataset.MaterializedDataset(plan, LogicalPlan(FromPandas(blocks, metas), ctx))


def bucket_exchange(ds, keys, fn, n_buckets: int = 64):
    """→ Dataset: ``fn`` applied to each hash bucket of ``ds``'s rows.

    ``keys`` is a column name or a list of them; multi-column keys hash
    order-sensitively, so (a, b) and (b, a) are distinct keys, and null
    keys hash like any other value (every null-key row shares one
    bucket). ``fn`` receives a non-empty pandas DataFrame of the
    bucket's rows — possibly several keys, never a bucket tag — and
    returns a pandas DataFrame; it runs at most ``n_buckets`` times.
    Runs when called: the result is materialized.
    """
    from ..sources.io import session_block_count

    keys = [keys] if isinstance(keys, str) else list(keys)
    blocks = [blk for bundle in ds.iter_internal_ref_bundles() for blk in bundle.blocks]
    n = min(n_buckets, session_block_count(sum(m.size_bytes or 0 for _, m in blocks)))
    split = _split.options(num_returns=n)
    parts = [split.remote(ref, keys, n) for ref, m in blocks if m.num_rows != 0]
    parts = [p if n > 1 else [p] for p in parts]
    fn_ref = ray.put(fn)
    outs = [_merge.remote(fn_ref, *(p[i] for p in parts)) for i in range(n)]
    stats = ray.get([s for _, s in outs])

    rows = np.array([r for _, r in stats])
    RECORD.append((tuple(keys), n, int(rows.sum()), int(rows.max()), float(np.median(rows))))
    kept = [(out, meta) for (out, _), (meta, _) in zip(outs, stats) if meta is not None]
    # drop fn's empty outputs, keeping one when all are empty so the
    # result still carries fn's columns
    full = [(out, meta) for out, meta in kept if meta.num_rows] or kept[:1]
    return _dataset([out for out, _ in full], [meta for _, meta in full])
