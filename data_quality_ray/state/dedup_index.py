"""Cross-run dedup index — the "shared mutable index" case of the north
rule, done WITHOUT a shared mutable service: an append-only directory of
sorted key shards plus atomic generation manifests.

Production shape this models: a daily crawl is deduplicated against every
previous crawl (exact key: phash / content hash). The index is:

    <dir>/gen-<n>/keys-<shard>.parquet   sorted uint64/int64 keys
    <dir>/gen-<n>/_GEN                   atomic commit marker (tmp+rename)

- ``load_keys`` reads all COMMITTED generations into one sorted numpy
  array (uncommitted/partial generations are invisible — crash-safe).
- ``DedupIndex.table_filter`` broadcasts that array once via ``ray.put``
  and returns a ``pa.Table → pa.Table`` filter dropping rows whose key is
  already present (vectorized searchsorted over the key column only);
  ``filter_new`` maps it over a Dataset.
- ``append`` writes this run's NEW distinct keys as the next generation;
  the marker commits last, so a killed run leaves no visible garbage and
  a retry re-appends idempotently (key sets are idempotent under union).

Capacity: one uint64 key = 8 bytes → 1e9 historical keys ≈ 8 GB broadcast
(the SCALE.md winner-map assumption). Beyond that, shard the incoming
dataset AND the index by key range and load only the matching shard per
task (the directory layout already carries the shard id).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_GEN_RE = re.compile(r"^gen-(\d+)$")


def _committed_gens(index_dir: str) -> list[str]:
    """Committed generations in NUMERIC order — retractions make the
    replay order-sensitive (latest op per key wins), and lexicographic
    sort would put gen-10 before gen-2."""
    if not os.path.isdir(index_dir):
        return []
    out = []
    for name in os.listdir(index_dir):
        m = _GEN_RE.match(name)
        if m and os.path.exists(os.path.join(index_dir, name, "_GEN")):
            out.append((int(m.group(1)), os.path.join(index_dir, name)))
    return [p for _, p in sorted(out)]


def _next_gen(index_dir: str) -> int:
    gens = [int(_GEN_RE.match(os.path.basename(p)).group(1)) for p in _committed_gens(index_dir)]
    # also skip over uncommitted directories so a crashed writer's number
    # is never reused with different content
    for name in os.listdir(index_dir) if os.path.isdir(index_dir) else []:
        m = _GEN_RE.match(name)
        if m:
            gens.append(int(m.group(1)))
    return max(gens, default=-1) + 1


def _gen_keys(gen: str, prefix: str) -> np.ndarray:
    parts = [pq.read_table(os.path.join(gen, f), columns=["key"])["key"].to_numpy()
             for f in sorted(os.listdir(gen))
             if f.startswith(prefix) and f.endswith(".parquet")]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


def load_keys(index_dir: str) -> np.ndarray:
    """All LIVE committed keys, sorted: generations replay in numeric
    order, appends add, tombstone files (``retract``) remove — so the
    latest operation per key wins, and a key re-ingested after deletion
    is live again (the GDPR right-to-be-forgotten contract: retraction
    forgets history, it does not ban the key)."""
    alive = np.empty(0, dtype=np.int64)
    for gen in _committed_gens(index_dir):
        added = _gen_keys(gen, "keys-")
        tombs = _gen_keys(gen, "tombs-")
        if len(added):
            alive = np.union1d(alive, added) if len(alive) else added
        if len(tombs) and len(alive):
            alive = alive[~isin_sorted_local(alive, tombs)]
    return alive


def isin_sorted_local(cand: np.ndarray, v: np.ndarray) -> np.ndarray:
    pos = np.clip(np.searchsorted(v, cand), 0, len(v) - 1)
    return v[pos] == cand


def append(index_dir: str, keys: np.ndarray, shard_rows: int = 4_000_000) -> str:
    """Commit ``keys`` (this run's new distinct keys) as the next
    generation. Returns the generation directory."""
    gen_dir = os.path.join(index_dir, f"gen-{_next_gen(index_dir)}")
    os.makedirs(gen_dir, exist_ok=True)
    keys = np.unique(np.asarray(keys))
    for shard, start in enumerate(range(0, max(len(keys), 1), shard_rows)):
        chunk = keys[start : start + shard_rows]
        pq.write_table(pa.table({"key": pa.array(chunk)}),
                       os.path.join(gen_dir, f"keys-{shard:04d}.parquet"))
    tmp = os.path.join(gen_dir, "._GEN.tmp")
    open(tmp, "w").close()
    os.replace(tmp, os.path.join(gen_dir, "_GEN"))
    return gen_dir


def retract(index_dir: str, keys: np.ndarray,
            shard_rows: int = 4_000_000) -> str:
    """Commit a TOMBSTONE generation removing ``keys`` from the live set
    (right-to-be-forgotten): same atomic marker protocol as ``append``,
    idempotent (retracting an absent key is a no-op), and ordered —
    a later ``append`` of the same key makes it live again, while
    ``compact`` folds tombstones away entirely (the forgotten key leaves
    no trace on disk afterwards). Returns the generation directory."""
    gen_dir = os.path.join(index_dir, f"gen-{_next_gen(index_dir)}")
    os.makedirs(gen_dir, exist_ok=True)
    keys = np.unique(np.asarray(keys))
    for shard, start in enumerate(range(0, max(len(keys), 1), shard_rows)):
        chunk = keys[start : start + shard_rows]
        pq.write_table(pa.table({"key": pa.array(chunk)}),
                       os.path.join(gen_dir, f"tombs-{shard:04d}.parquet"))
    tmp = os.path.join(gen_dir, "._GEN.tmp")
    open(tmp, "w").close()
    os.replace(tmp, os.path.join(gen_dir, "_GEN"))
    return gen_dir


def compact(index_dir: str, shard_rows: int = 4_000_000) -> str | None:
    """Merge every committed generation into ONE new generation, then
    retire the sources — so a 365-run year holds one sorted key set, not
    365 membership arrays. Crash-safe at every step because membership is
    a union and unions are idempotent:

    1. the merged generation is written and committed (tmp+rename marker)
       while the sources still exist → a crash here leaves duplicates,
       never losses, and a re-run re-compacts;
    2. each source's ``_GEN`` marker is removed FIRST (making it
       invisible to ``load_keys``) and its directory deleted after → a
       crash mid-deletion leaves invisible junk whose generation number
       ``_next_gen`` still refuses to reuse.

    Single-writer assumption (documented): compaction must not race a
    concurrent ``append`` — run it where the daily append runs.
    Returns the merged generation directory (None for an empty index).
    """
    import shutil

    gens = _committed_gens(index_dir)
    if len(gens) <= 1:
        return gens[0] if gens else None
    keys = load_keys(index_dir)
    gen_dir = append(index_dir, keys, shard_rows=shard_rows)
    for g in gens:
        marker = os.path.join(g, "_GEN")
        if os.path.exists(marker):
            os.remove(marker)
        shutil.rmtree(g, ignore_errors=True)
    return gen_dir


class DedupIndex:
    """Incremental exact dedup against all previous runs.

    >>> idx = DedupIndex("/data/phash_index")
    >>> fresh = idx.filter_new(ds, key_col="phash")   # drops known keys
    >>> fresh_t = idx.table_filter("phash")(table)    # the same, on a pa.Table
    >>> deduped = dedup_by_key(fresh, "phash", "image_id")  # in-run dedup
    >>> idx.commit(deduped, key_col="phash")          # next generation
    """

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self._hist = load_keys(index_dir)
        self._hist_ref = None

    @property
    def n_keys(self) -> int:
        return len(self._hist)

    def table_filter(self, key_col: str):
        """``pa.Table → pa.Table``: the rows whose key is in no committed
        generation. The sorted key array rides the object store once; the
        mask is vectorized searchsorted over ``key_col`` alone."""
        import ray

        from ..functions.broadcast import cached_get

        if self._hist_ref is None:
            self._hist_ref = ray.put(self._hist)
        ref = self._hist_ref

        def drop_known(t: pa.Table) -> pa.Table:
            hist = cached_get(ref)
            if len(hist) == 0:
                return t
            return t.filter(pa.array(~isin_sorted_local(t[key_col].to_numpy(), hist)))

        return drop_known

    def filter_new(self, ds, key_col: str):
        """Rows whose key is NOT in any committed generation."""
        return ds.map_batches(self.table_filter(key_col), batch_format="pyarrow")

    def commit(self, ds, key_col: str) -> str:
        """Append the distinct keys of ``ds`` as a new generation (keys
        collected via per-batch partial dedup — only the key column moves)."""
        parts = [b[key_col].to_numpy()
                 for b in ds.select_columns([key_col]).iter_batches(
                     batch_size=65536, batch_format="pandas")]
        keys = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        return append(self.index_dir, keys)

    def retract_keys(self, keys: np.ndarray) -> str:
        """Tombstone ``keys`` (right-to-be-forgotten) and refresh the
        in-memory live set so subsequent ``filter_new`` calls in this
        process admit them again."""
        gen = retract(self.index_dir, keys)
        self._hist = load_keys(self.index_dir)
        self._hist_ref = None
        return gen
