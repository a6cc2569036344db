"""Snapshot diff (change-data-capture over table versions).

``table_diff`` compares two keyed snapshots of the same logical table and
emits one row per key that was added, removed, or changed — the audit
primitive behind day-over-day data-quality monitoring (the reference
frames this as re-running its analyzers per ingest; here the diff itself
is a first-class distributed operator, same spirit as
datastore/AnalysisRunner-style repeated profiling).

Shape: ONE tagged-union hash exchange on the key — both snapshots are
reindexed to the common (key + compare_cols) schema, tagged with a side
bit, hash-bucketed on the key, and each bucket runs a single vectorized
pandas merge + null-safe column compare. Nothing is collected on the
driver; output streams as a Dataset. Skewed keys can't skew buckets
(keys are unique per snapshot — enforced per bucket), so the exchange is
balanced by the hash itself.

Scale note (100 TB): this is the same single-exchange cost envelope as
``hash_join`` — each side's bytes move exactly once. For append-mostly
tables, pre-filter both sides to the touched partition range before
diffing; the operator itself never materializes more than one bucket per
task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_exchange

STATUS_ADDED = "added"
STATUS_REMOVED = "removed"
STATUS_CHANGED = "changed"
STATUS_UNCHANGED = "unchanged"


def table_diff(old_ds, new_ds, key: str, compare_cols: list[str],
               n_buckets: int = 32, include_unchanged: bool = False):
    """Diff two snapshots keyed by ``key``.

    → Dataset of ``(key, status, changed_cols)`` where status ∈
    {added, removed, changed[, unchanged]} and ``changed_cols`` is the
    comma-joined subset of ``compare_cols`` that differ (empty for
    added/removed/unchanged). The compare is null-safe: null == null
    counts as equal (SQL ``IS DISTINCT FROM`` semantics).

    ``key`` must be unique within each snapshot (a primary key — the CDC
    contract); violations raise inside the bucket that sees them.
    """
    cols = [key, *compare_cols]

    def tag(side: int):
        def _tag(b: pd.DataFrame) -> pd.DataFrame:
            out = b[cols].copy()
            out["__side"] = np.int8(side)
            return out
        return _tag

    def diff_bucket(g: pd.DataFrame) -> pd.DataFrame:
        old = g[g["__side"] == 0][cols]
        new = g[g["__side"] == 1][cols]
        for name, side in (("old", old), ("new", new)):
            if side[key].duplicated().any():
                dup = side[key][side[key].duplicated()].iloc[0]
                raise ValueError(
                    f"table_diff: key {key!r} not unique in {name} snapshot "
                    f"(e.g. {dup!r}) — CDC requires a primary key")
        merged = old.merge(new, on=key, how="outer", suffixes=("__old", "__new"),
                           indicator=True, sort=False)
        n = len(merged)
        status = np.full(n, STATUS_UNCHANGED, dtype=object)
        status[(merged["_merge"] == "right_only").to_numpy()] = STATUS_ADDED
        status[(merged["_merge"] == "left_only").to_numpy()] = STATUS_REMOVED
        both = (merged["_merge"] == "both").to_numpy()
        changed_any = np.zeros(n, dtype=bool)
        parts = []  # per compare col: its name where it differs, '' elsewhere
        for c in compare_cols:
            a, b = merged[f"{c}__old"], merged[f"{c}__new"]
            neq = ((a != b) & ~(a.isna() & b.isna())).to_numpy() & both
            changed_any |= neq
            parts.append(np.where(neq, c, ""))
        status[changed_any] = STATUS_CHANGED
        joined = parts[0].astype(object) if parts else np.full(n, "", dtype=object)
        for p in parts[1:]:
            sep = np.where((joined != "") & (p != ""), ",", "")
            joined = joined + sep + p
        out = pd.DataFrame({key: merged[key], "status": status,
                            "changed_cols": joined})
        if not include_unchanged:
            out = out[out["status"] != STATUS_UNCHANGED]
        return out.reset_index(drop=True)

    tagged = old_ds.map_batches(tag(0), batch_format="pandas").union(
        new_ds.map_batches(tag(1), batch_format="pandas"))
    return bucket_exchange(tagged, key, diff_bucket, n_buckets)
